"""Tests of the benchmark's tracer: self-time arithmetic, operand split, patching."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

from tracer import Tracer, outermost, self_times  # noqa: E402


def test_self_time_of_nested_tree():
    # root [0,10] with children a [1,4] and b [5,9]; b has child c [6,7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    # children [1,5] and [3,6] overlap; [8,12] sticks out of the parent [0,10]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10 - 5 - 2)


def test_recursive_spans_count_total_once():
    names = ["f", "g", "f", "f"]
    parents = [-1, 0, 1, -1]
    assert outermost(names, parents) == [True, True, False, True]


def test_wrap_records_parents_and_metrics():
    ticks = iter(range(100))
    tracer = Tracer(precision=64, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("fpalg.rref", lambda: None)
    outer = tracer.wrap("fpalg.nullspace", lambda: (inner(), inner()))
    outer()
    assert tracer.names == ["fpalg.nullspace", "fpalg.rref", "fpalg.rref"]
    assert tracer.parents == [-1, 0, 0]
    metrics = tracer.span_metrics()
    # outer [0,5], inner [1,2] and [3,4]
    assert metrics["fpalg.nullspace.total_s"] == 5.0
    assert metrics["fpalg.nullspace.self_s"] == 3.0
    assert metrics["fpalg.rref.calls"] == 2
    assert metrics["fpalg.rref.self_s"] == 2.0
    assert metrics["ultralinalg.center.calls"] == 0


@pytest.fixture
def installed():
    tracer = Tracer(precision=64)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_exact_capped_mixed_split(installed):
    from padicops.padic import PadicScalar

    p = 5
    exact = PadicScalar.from_int(p, 3)
    capped = PadicScalar.capped(p, 0, 7, 10)
    zero = PadicScalar.capped_zero(p, 4)
    exact + exact
    exact * capped
    capped + exact
    capped * capped
    zero + capped
    capped - capped  # __sub__ goes through __add__; result is zero to precision
    capped.inverse()
    c = installed.counter_metrics()
    assert (c["padic.add.exact"], c["padic.add.mixed"], c["padic.add.capped"]) == (1, 1, 2)
    assert (c["padic.mul.exact"], c["padic.mul.mixed"], c["padic.mul.capped"]) == (0, 1, 1)
    assert c["padic.inverse.calls"] == 1
    assert c["padic.zero_to_precision_results"] == 1
    assert c["padic.min_digits_left"] == 4  # zero + capped keeps digits 0..3 only


def test_install_rebinds_every_module_and_uninstall_restores():
    import padicops.crossed as crossed
    import padicops.padic as padic
    import padicops.ultralinalg as ultralinalg

    commutant, add = ultralinalg.commutant, padic.PadicScalar.__add__
    matmul = ultralinalg.KMatrix.__matmul__
    tracer = Tracer(precision=64)
    tracer.install()
    try:
        assert crossed.commutant is ultralinalg.commutant is not commutant
        assert ultralinalg.KMatrix.__matmul__ is not matmul
        assert padic.PadicScalar.__add__ is not add
    finally:
        tracer.uninstall()
    assert crossed.commutant is ultralinalg.commutant is commutant
    assert ultralinalg.KMatrix.__matmul__ is matmul
    assert padic.PadicScalar.__add__ is add


def test_tracing_leaves_reports_unchanged():
    from padicops.cli import RunConfig, run_suite

    def body():
        reports = run_suite(RunConfig(p=3, l=2, k=1, seed=4), "crossed")
        return json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)

    plain = body()
    tracer = Tracer(precision=64)
    tracer.install()
    try:
        traced = body()
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.span_metrics()
    for name in ("commutant", "center", "algebra_span"):
        assert metrics[f"ultralinalg.{name}.calls"] > 0
    assert metrics["crossed.verify_commutation_theorem.calls"] == 1
