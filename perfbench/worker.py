"""One fresh process: set a workload up, then run one pass of it.

Started by ``run.py``; not meant to be run by hand.  Prints ``ready``
once set-up is done (the parent times fresh start to this line), then,
unless ``--mode probe``, one JSON line with the pass's results.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N --mode pass|traced|probe
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden import render  # noqa: E402
from workloads import WORKLOADS, pair_key  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "pass", "traced"), required=True)
    parser.add_argument("--spans", default=None, help="gzipped CSV of spans (traced mode)")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import padicops
    from padicops.padic import DEFAULT_PRECISION

    if src not in Path(padicops.__file__).resolve().parents:
        print(f"padicops imported from {padicops.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(DEFAULT_PRECISION)
        tracer.install()

    from padicops.cli import RunConfig, run_suite

    pairs = WORKLOADS[args.workload]
    configs = {}
    for config, _ in pairs:
        if config not in configs:
            p, l, k, j = config
            configs[config] = RunConfig(p=p, l=l, k=k, j=j, seed=args.seed)
    for cfg in configs.values():
        cfg.group()
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    start = time.perf_counter()
    reports = [(pair_key(config, suite), run_suite(configs[config], suite)) for config, suite in pairs]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    import sympy

    out = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "bodies": {key: render([r.as_dict() for r in reps]) for key, reps in reports},
        "checks": [
            [key, r.check_id, r.status, r.wall_time_ms] for key, reps in reports for r in reps
        ],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
        },
        "precision": DEFAULT_PRECISION,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {**tracer.span_metrics(), **tracer.counter_metrics()}
        out["spans"] = len(tracer.names)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
