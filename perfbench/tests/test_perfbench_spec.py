"""BENCHMARK.json names exactly the metrics the benchmark prints, with their units."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, layer_metrics  # noqa: E402
from tracer import COUNTERS, SPAN_FIELDS, SPANNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS


def test_per_layer_metrics_match():
    layer_names = [f"{n}.{f}" for n, _, _ in SPANNED for f, _ in SPAN_FIELDS]
    layer_names += [n for n, _ in COUNTERS]
    plain = {"checks": [], "wall_s": 2.0}
    traced = {"layers": dict.fromkeys(layer_names, 0), "wall_s": 3.0}
    tally = SimpleNamespace(attempted=1, not_pass=0, mismatched=0)
    metrics, units = layer_metrics(plain, traced, tally)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, units[n]) for n in metrics]
    assert metrics["trace.overhead_ratio"] == 1.5


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
