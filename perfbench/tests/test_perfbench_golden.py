"""Tests of the golden-report comparison and of how checks are judged."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
from run import Tally, judge  # noqa: E402

KEY = "crossed@p=5,l=2,k=2,j=2"
REPORTS = [
    {"check_id": "crossed.commutation_theorem", "config": {"p": 5, "seed": 0},
     "detail": {"center_dim": 2, "failed": []}, "status": "pass"},
    {"check_id": "crossed.operator_identities", "config": {"p": 5, "seed": 0},
     "detail": {"checks": 9, "failed": []}, "status": "pass"},
]


def body_of(reports):
    return golden.render(reports)


def test_identical_body_matches():
    assert golden.mismatched_checks(KEY, body_of(REPORTS), {KEY: REPORTS}) == []


def test_one_byte_change_is_flagged():
    body = body_of(REPORTS)
    changed = body.replace('"checks": 9', '"checks": 8')
    assert len(changed) == len(body) and changed != body
    assert golden.mismatched_checks(KEY, changed, {KEY: REPORTS}) == ["crossed.operator_identities"]


def test_whitespace_change_flags_every_check():
    body = body_of(REPORTS)
    changed = body.replace("\n  {", "\n   {", 1)
    assert json.loads(changed) == REPORTS
    assert golden.mismatched_checks(KEY, changed, {KEY: REPORTS}) == sorted(
        r["check_id"] for r in REPORTS
    )


def test_missing_check_and_missing_key_are_flagged():
    assert golden.mismatched_checks(KEY, body_of(REPORTS[:1]), {KEY: REPORTS}) == [
        "crossed.operator_identities"
    ]
    assert golden.mismatched_checks(KEY, body_of(REPORTS), {}) == sorted(
        r["check_id"] for r in REPORTS
    )


def test_write_then_load_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    golden.write("crossed-32", 7, {KEY: body_of(REPORTS)})
    assert golden.load("crossed-32", 7) == {KEY: REPORTS}
    assert golden.load("crossed-32", 8) is None
    with pytest.raises(ValueError):
        golden.write("crossed-32", 9, {KEY: json.dumps(REPORTS)})  # not the CLI's rendering


def test_judge_counts_failed_statuses_and_mismatches():
    failing = [dict(REPORTS[0], status="fail"), REPORTS[1]]
    result = {
        "bodies": {KEY: body_of(failing)},
        "checks": [[KEY, r["check_id"], r["status"], 1.0] for r in failing],
    }
    not_pass, mismatched = judge(result, {KEY: REPORTS})
    assert not_pass == mismatched == {(KEY, "crossed.commutation_theorem")}
    assert judge(result, None) == (not_pass, set())


def test_recorded_golden_reports_all_pass():
    files = sorted(golden.GOLDEN_DIR.glob("*/seed-*.json"))
    assert files, "no golden reports recorded"
    for path in files:
        for key, reports in json.loads(path.read_text()).items():
            assert all(r["status"] == "pass" for r in reports), (path, key)


def test_tally_without_golden_checks_statuses_only(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    tally = Tally("crossed-32", 0)
    tally.add({"bodies": {KEY: body_of(REPORTS)},
               "checks": [[KEY, r["check_id"], r["status"], 1.0] for r in REPORTS]})
    assert (tally.attempted, tally.failed) == (2, 0)
    assert "statuses checked only" in tally.golden_note(0)
