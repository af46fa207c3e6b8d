"""padicops benchmark: end-to-end and per-layer metrics for fixed workloads.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload crossed-32 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each pass of a workload runs in a fresh single-threaded process
(``worker.py``).  ``--trace 0`` repeats passes until ``--seconds`` of
passes have run and reports medians of wall_s, setup_s and peak_rss_mb.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Every report is compared byte for byte with the
golden reports in ``golden/``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a fuller record goes
to ``.perfbench_out/``.

    python3 perfbench/run.py --workload all --seed 3 --record-golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import golden  # noqa: E402
from tracer import COUNTERS, SPAN_FIELDS, SPANNED  # noqa: E402
from workloads import CHECK_IDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes per trace-0 run, besides each pass's own
TIME_LIMIT_S = 170  # every run ends well within 180 s
OUT_DIR = Path(".perfbench_out")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class WorkerFailed(RuntimeError):
    pass


def source_stamp(src: Path, seed: int) -> dict:
    """Identify the code and platform a result came from."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    sha = None
    if Path(".git").exists():  # an enclosing repository would name the wrong commit
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def spawn(src: Path, workload: str, seed: int, mode: str, deadline: float, spans=None):
    """Run worker.py; returns (setup_s, parsed result or None for probes)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(src),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    # kills a worker that outlives the run's time limit, in set-up as well as in the pass
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        why = "was stopped at the time limit" if proc.returncode == -signal.SIGKILL else f"exited {proc.returncode}"
        raise WorkerFailed(f"{workload} {mode} worker {why}:\n{err.strip()}")
    if mode == "probe":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def judge(result: dict, reference: dict | None) -> tuple[set, set]:
    """(failed check keys, mismatched check keys) of one pass."""
    not_pass = {(key, cid) for key, cid, status, _ in result["checks"] if status != "pass"}
    mismatched = set()
    if reference is not None:
        for key, body in result["bodies"].items():
            mismatched |= {(key, cid) for cid in golden.mismatched_checks(key, body, reference)}
    return not_pass, mismatched


class Tally:
    """Checks attempted, not passing and mismatching the golden reports."""

    def __init__(self, workload: str, seed: int):
        self.reference = golden.load(workload, seed)
        self.attempted = self.not_pass = self.mismatched = self.failed = 0

    def add(self, result: dict) -> None:
        not_pass, mismatched = judge(result, self.reference)
        run = {(key, cid) for key, cid, _, _ in result["checks"]}
        self.attempted += len(run | mismatched)
        self.not_pass += len(not_pass)
        self.mismatched += len(mismatched)
        self.failed += len(not_pass | mismatched)

    def golden_note(self, seed: int) -> str:
        if self.reference is None:
            return f"no golden reports for seed {seed}: statuses checked only"
        return f"compared with golden reports for seed {seed}: {self.mismatched} check(s) differ"


def run_untraced(src, workload, seed, seconds, deadline) -> tuple[list, list]:
    """Passes until `seconds` of them have run; (pass results, setup times)."""
    setups = [spawn(src, workload, seed, "probe", deadline)[0] for _ in range(SETUP_PROBES)]
    results = []
    spent = 0.0
    while not results or (
        spent < seconds and time.monotonic() + 1.3 * max(r["wall_s"] for r in results) < deadline
    ):
        setup_s, result = spawn(src, workload, seed, "pass", deadline)
        setups.append(setup_s)
        results.append(result)
        spent += result["wall_s"]
    return results, setups


def measure(src: Path, workload: str, seed: int, seconds: float, trace: bool, stamp: dict) -> dict:
    """One run of a workload: end-to-end metrics, or per-layer ones if traced."""
    deadline = time.monotonic() + TIME_LIMIT_S
    record = {"workload": workload, "trace": int(trace)}
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.csv.gz"
        _, plain = spawn(src, workload, seed, "pass", deadline)
        _, traced = spawn(src, workload, seed, "traced", deadline, spans=spans_path)
        results = [plain, traced]
        record["spans_file"] = str(spans_path)
        record["spans"] = traced["spans"]
    else:
        results, setups = run_untraced(src, workload, seed, seconds, deadline)
        record["samples"] = {
            "wall_s": [r["wall_s"] for r in results],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        }
    tally = Tally(workload, seed)
    for result in results:
        tally.add(result)
    if trace:
        metrics, units = layer_metrics(plain, traced, tally)
    else:
        metrics = {name: statistics.median(v) for name, v in record["samples"].items()}
        units = END_TO_END_UNITS
    first = results[0]
    record["stamp"] = {**stamp, "versions": first["versions"], "precision": first["precision"]}
    record["passes"] = len(results)
    record["golden"] = tally.golden_note(seed)
    record["checks"] = {"attempted": tally.attempted, "not_pass": tally.not_pass,
                        "mismatched": tally.mismatched, "failed": tally.failed}
    record["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    return record


def layer_metrics(plain: dict, traced: dict, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics and their units from an untraced and a traced pass."""
    units = {f"{name}.{field}": unit for name, _, _ in SPANNED for field, unit in SPAN_FIELDS}
    units.update(COUNTERS)
    metrics = {name: traced["layers"][name] for name in units}
    for cid in CHECK_IDS:
        metrics[f"cli.check_s.{cid}"] = sum(ms for _, c, _, ms in plain["checks"] if c == cid) / 1000
        units[f"cli.check_s.{cid}"] = "s"
    for name, value in (("cli.checks_attempted", tally.attempted),
                        ("cli.checks_not_pass", tally.not_pass),
                        ("cli.reports_mismatched", tally.mismatched)):
        metrics[name] = value
        units[name] = "count"
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    units["trace.overhead_ratio"] = "ratio"
    return metrics, units


def print_record(record: dict) -> None:
    c = record["checks"]
    print(f"# {record['workload']} seed={record['stamp']['seed']} trace={record['trace']} passes={record['passes']}")
    print(f"# stamp {json.dumps(record['stamp'], sort_keys=True)}")
    print(f"# {record['golden']}")
    if not record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{record['workload']:12s} {name:20s} {m['value']:12.4f} {m['unit']}")
        ratio = c["failed"] / c["attempted"]
        print(f"{record['workload']:12s} {'checks_failed_ratio':20s} {ratio:12.4f} "
              f"({c['failed']} of {c['attempted']} checks)")
    else:
        for name, m in record["metrics"].items():
            print(f"{name:60s} {m['value']:16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run one untraced pass and store its reports as golden")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "padicops" / "__init__.py").is_file():
        print("perfbench: run from a checkout root that holds src/padicops", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    stamp = source_stamp(src, args.seed)
    try:
        if args.record_golden:
            for workload in workloads:
                _, result = spawn(src, workload, args.seed, "pass", time.monotonic() + TIME_LIMIT_S)
                print(golden.write(workload, args.seed, result["bodies"]))
            return 0
        records = [measure(src, w, args.seed, args.seconds, bool(args.trace), stamp) for w in workloads]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    for record in records:
        print_record(record)
        path = OUT_DIR / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): m
        for r in records for name, m in r["metrics"].items()
    }
    attempted = sum(r["checks"]["attempted"] for r in records)
    failed = sum(r["checks"]["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
