"""Golden reports: the byte-exact ``run_suite`` JSON a pass must reproduce.

One file per (workload, seed), ``golden/<workload>/seed-<n>.json``, maps
each (configuration, suite) key to the report list the CLI printed for
it.  A body is rendered exactly as ``padicops.cli.main`` renders it
(``json.dumps(..., indent=2, sort_keys=True)``); re-rendering a parsed
golden list gives back the recorded bytes, and the comparison is on
those bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def render(report_list) -> str:
    """The CLI's report body for one run_suite call."""
    return json.dumps(report_list, indent=2, sort_keys=True)


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / workload / f"seed-{seed}.json"


def load(workload: str, seed: int) -> dict | None:
    """Golden report lists by pair key, or None if this seed has no file."""
    path = golden_path(workload, seed)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def write(workload: str, seed: int, bodies: dict[str, str]) -> Path:
    """Record one pass's bodies; refuses a body that would not round-trip."""
    parsed = {key: json.loads(body) for key, body in bodies.items()}
    for key, body in bodies.items():
        if render(parsed[key]) != body:
            raise ValueError(f"{key}: report body does not re-render byte for byte")
    path = golden_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(parsed[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(parsed)
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one line per pair
    return path


def mismatched_checks(key: str, body: str, golden: dict) -> list[str]:
    """Check ids whose report differs from the golden one (missing ones too).

    Equal bytes mean no mismatch.  Otherwise each check is compared on
    its own rendering; if no single check differs (a change outside the
    check entries), every check of the body counts as mismatched.
    """
    expected = golden.get(key)
    actual = json.loads(body)
    actual_by_id = {r["check_id"]: r for r in actual}
    if expected is None:
        return sorted(actual_by_id)
    if render(expected) == body:
        return []
    expected_by_id = {r["check_id"]: r for r in expected}
    differing = sorted(
        cid
        for cid in actual_by_id.keys() | expected_by_id.keys()
        if cid not in actual_by_id
        or cid not in expected_by_id
        or render(actual_by_id[cid]) != render(expected_by_id[cid])
    )
    return differing or sorted(actual_by_id)
