"""Report bodies at low --precision, pinned byte for byte.

The golden reports under ``perfbench/golden`` are recorded at the default
precision (64 digits).  At a few digits capped values cancel to "zero to
precision" far more often, so these bodies pin the capped arithmetic on
that path.  At precision 1 and 3, ``fourier.trig_poly_approximation`` is
recorded as the "fail" it gives today (ROADMAP item 4(a)); when that
verdict changes, re-record the file by running this module as a script:

    PYTHONPATH=src python tests/test_low_precision_reports.py
"""

import json
from pathlib import Path

import pytest

from padicops.cli import RunConfig, run_suite

RECORDED = Path(__file__).resolve().parent / "golden_low_precision.json"
CONFIGS = [(5, 2, 2, 1), (5, 2, 2, 2), (3, 2, 1, 1), (17, 2, 3, 1)]
PRECISIONS = [1, 3, 8]
SEED = 1


def render(report_list):
    """A report list as ``padicops.cli.main`` prints it."""
    return json.dumps(report_list, indent=2, sort_keys=True)


def key(config, precision):
    p, l, k, j = config
    return f"all@p={p},l={l},k={k},j={j},precision={precision},seed={SEED}"


def body(config, precision):
    p, l, k, j = config
    reports = run_suite(
        RunConfig(p=p, l=l, k=k, j=j, seed=SEED, precision=precision), "all"
    )
    return render([r.as_dict() for r in reports])


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_recorded_bytes(config, precision):
    recorded = json.loads(RECORDED.read_text())[key(config, precision)]
    assert body(config, precision) == render(recorded)


def record():
    bodies = {key(c, n): body(c, n) for c in CONFIGS for n in PRECISIONS}
    parsed = {k: json.loads(b) for k, b in bodies.items()}
    for k, b in bodies.items():
        if render(parsed[k]) != b:
            raise ValueError(f"{k}: report body does not re-render byte for byte")
    lines = [
        f"{json.dumps(k)}: {json.dumps(parsed[k], sort_keys=True, separators=(',', ':'))}"
        for k in sorted(parsed)
    ]
    RECORDED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()
