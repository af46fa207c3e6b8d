"""CLI driver: configuration validation, suites, determinism, reports."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from padicops import cli
from padicops.cli import CheckReport, RunConfig, _named, main, run_suite
from padicops.errors import CertificationFailed, ConfigInvalid


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def run_cli(*args, optimize=False):
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-m", "padicops.cli", *args],
        capture_output=True,
        text=True,
    )


def render(report_list):
    """A report list as ``main`` prints it."""
    return json.dumps(report_list, indent=2, sort_keys=True)


class TestRunConfig:
    def test_divisibility_violation(self):
        with pytest.raises(ConfigInvalid, match="8 does not divide"):
            RunConfig(p=5, l=2, k=3)

    def test_j_defaults_to_k(self):
        config = RunConfig(p=5, l=2, k=2)
        assert config.j == 2

    def test_nonprime_rejected(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(p=9)

    def test_precision_checked_before_group_is_built(self):
        with pytest.raises(ConfigInvalid, match="precision must be positive"):
            RunConfig(p=5, l=2, k=2, precision=0)

    def test_group_built_once_per_config(self):
        config = RunConfig(p=5, l=2, k=2)
        assert config.group() is config.group()

    def test_derived_rng_streams_are_stable(self):
        config = RunConfig(p=3, seed=7)
        assert config.rng("a").random() == config.rng("a").random()
        assert config.rng("a").random() != config.rng("b").random()


class TestRunSuite:
    def test_crossed_suite_passes_at_free_config(self):
        config = RunConfig(p=5, l=2, k=2, j=2)
        reports = run_suite(config, "crossed")
        assert reports
        assert all(r.status == "pass" for r in reports)

    def test_reports_sorted_by_check_id(self):
        config = RunConfig(p=3, l=2, k=1)
        reports = run_suite(config, "baer")
        ids = [r.check_id for r in reports]
        assert ids == sorted(ids)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_suite(RunConfig(), "bogus")

    def test_certification_failure_is_a_fail(self):
        @_named("test.uncertified")
        def check(config):
            raise CertificationFailed("block is not b * mult(eta)")

        report = check(RunConfig())
        assert report.status == "fail"
        assert report.detail == {"assertion": "block is not b * mult(eta)"}

    def test_unexpected_exception_is_an_error_report(self, monkeypatch, capsys):
        def broken(grp):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "verify_operator_identities", broken)
        reports = {r.check_id: r for r in run_suite(RunConfig(), "crossed")}
        report = reports.pop("crossed.operator_identities")
        assert report.status == "error"
        assert report.detail == {"exception": "ZeroDivisionError", "message": "boom"}
        assert [r.status for r in reports.values()] == ["pass", "pass"]
        assert "ZeroDivisionError: boom" in capsys.readouterr().err

    def test_serialization_omits_timing(self):
        report = CheckReport("x", {}, "pass", {}, wall_time_ms=12.5)
        assert "wall_time" not in json.dumps(report.as_dict())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "workload, config, suite",
        [
            ("exact-small", (3, 2, 1, 1), "mihara"),
            ("exact-small", (3, 2, 1, 1), "spectral"),
            ("exact-small", (3, 2, 1, 1), "fourier"),
            ("exact-small", (3, 2, 1, 1), "baer"),
            ("reduce-16", (5, 2, 2, 2), "reduce"),
            ("reduce-16", (17, 2, 3, 1), "reduce"),
        ],
    )
    def test_reports_match_golden_bytes(self, workload, config, suite, seed):
        p, l, k, j = config
        golden = json.loads((GOLDEN / workload / f"seed-{seed}.json").read_text())
        expected = golden[f"{suite}@p={p},l={l},k={k},j={j}"]
        reports = run_suite(RunConfig(p=p, l=l, k=k, j=j, seed=seed), suite)
        assert render([r.as_dict() for r in reports]) == render(expected)

    def test_crossed_32_report_matches_golden_bytes(self):
        golden = json.loads((GOLDEN / "crossed-32" / "seed-0.json").read_text())
        expected = golden["crossed@p=17,l=2,k=3,j=2"]
        reports = run_suite(RunConfig(p=17, l=2, k=3, j=2, seed=0), "crossed")
        assert render([r.as_dict() for r in reports]) == render(expected)


class TestCommandLine:
    def test_golden_run_all_suites(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "--p", "3", "--l", "2", "--k", "1", "--suite", "all", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(out.read_text())
        assert all(r["status"] == "pass" for r in reports)
        assert len(reports) == 15

    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(
                "--p", "3", "--suite", "fourier", "--seed", "11", "--out", str(out)
            )
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_verdicts_survive_optimize_flag(self):
        """No verdict rests on assert, so python -O reports the same."""
        args = ("--p", "5", "--l", "2", "--k", "2", "--precision", "1", "--suite", "all")
        plain, optimized = run_cli(*args), run_cli(*args, optimize=True)
        statuses = [
            [(r["check_id"], r["status"]) for r in json.loads(proc.stdout)]
            for proc in (plain, optimized)
        ]
        assert statuses[0] == statuses[1]
        assert any(status != "pass" for _, status in statuses[0])
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)

    @pytest.mark.parametrize("j", ["1", "2"])
    def test_crossed_suite_passes_at_precision_one(self, j):
        """The idempotent cross-check runs in the block basis, so one
        tracked digit no longer turns it into a spurious fail."""
        proc = run_cli(
            "--p", "5", "--l", "2", "--k", "2", "--j", j, "--precision", "1",
            "--suite", "crossed",
        )
        statuses = {r["check_id"]: r["status"] for r in json.loads(proc.stdout)}
        assert statuses["crossed.structured_idempotents"] == "pass"
        assert set(statuses.values()) == {"pass"}
        assert proc.returncode == 0

    def test_invalid_config_exit_code(self):
        proc = run_cli("--p", "5", "--l", "2", "--k", "3")
        assert proc.returncode == 2
        assert "8 does not divide" in proc.stderr

    def test_custom_matrix_input(self, tmp_path):
        payload = tmp_path / "input.json"
        payload.write_text(
            json.dumps(
                {
                    "matrix": [
                        ["5", "5", "0"],
                        ["0", "5", "0"],
                        ["0", "0", "1"],
                    ],
                    "q_roots": ["1", "5"],
                }
            )
        )
        proc = run_cli(
            "--p", "5", "--suite", "mihara", "--input", str(payload)
        )
        assert proc.returncode == 0
        reports = json.loads(proc.stdout)
        custom = [
            r for r in reports if r["check_id"] == "mihara.custom_matrix_norm_identity"
        ]
        assert custom and custom[0]["detail"]["identity_holds"] is False


MALFORMED_INPUTS = {
    "ragged": {"matrix": [[1, 2], [3]]},
    "non_square": {"matrix": [[1, 2, 3], [4, 5, 6]]},
    "empty": {"matrix": []},
    "empty_rows": {"matrix": [[]]},
    "matrix_not_a_list": {"matrix": "5"},
    "row_not_a_list": {"matrix": [1, 2]},
    "payload_not_an_object": [[1, 2], [3, 4]],
    "no_matrix": {"q_roots": [1, 5]},
    "roots_not_a_list": {"matrix": [[1]], "q_roots": 5},
    "entry_not_a_number": {"matrix": [["abc"]]},
    "entry_zero_denominator": {"matrix": [["1/0"]]},
    "entry_float": {"matrix": [[1.5]]},
    "capped_unit_divisible_by_p": {"matrix": [[{"v": 0, "unit": 5}]]},
    "capped_without_valuation": {"matrix": [[{"unit": 3}]]},
    "capped_valuation_not_an_integer": {
        "matrix": [[1]],
        "q_roots": [{"v": "x", "unit": 3}],
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_a_configuration_error(name, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(MALFORMED_INPUTS[name]))
    code = main(["--p", "5", "--suite", "mihara", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("invalid configuration: input")
    assert captured.out == ""


@pytest.mark.parametrize("where", ["matrix", "q_roots"])
def test_input_precision_is_bounded(where, tmp_path, capsys, monkeypatch):
    """N up to 16 x --precision is accepted; above it, the run exits 2.

    The bound is tested before the literal is parsed, so a huge N never
    builds a scalar: parse_scalar refuses every literal above the bound.
    """
    parse = cli.parse_scalar

    def bounded_parse(p, literal, N):
        assert not (isinstance(literal, dict) and literal.get("N", N) > 64)
        return parse(p, literal, N)

    monkeypatch.setattr(cli, "parse_scalar", bounded_parse)
    path = tmp_path / "input.json"
    for n, code in ((64, 0), (65, 2), (10**12, 2)):
        literal = {"v": 0, "unit": 2, "N": n}
        payload = {"matrix": [[literal]]} if where == "matrix" else {
            "matrix": [[1]],
            "q_roots": [literal],
        }
        path.write_text(json.dumps(payload))
        args = ["--p", "5", "--precision", "4", "--suite", "mihara", "--input", str(path)]
        got = main(args)
        captured = capsys.readouterr()
        if code == 2:
            assert got == 2
            assert captured.err.startswith(f"invalid configuration: input {where}")
            assert f"N = {n} exceeds 64" in captured.err
            assert captured.out == ""
        else:
            assert got != 2 and captured.out


@pytest.mark.parametrize("where", ["matrix", "q_roots"])
def test_exact_input_exponent_is_bounded(where, tmp_path, capsys, monkeypatch):
    """An exponent up to 16 x --precision is accepted; above it, the run exits 2.

    The bound is read from the literal's text before it is parsed, so
    "1e999999" never reaches Fraction: parse_scalar refuses every literal
    whose exponent is over the bound.
    """
    cases = [("1e64", 0), ("3E-6_4", 0), ("1e65", 2), ("2.5e-65", 2)]
    cases += [("1e999999", 2), ("-7e-999999", 2), ("1e" + "9" * 5000, 2)]
    rejected = {literal for literal, code in cases if code == 2}
    parse = cli.parse_scalar

    def bounded_parse(p, literal, N):
        assert literal not in rejected
        return parse(p, literal, N)

    monkeypatch.setattr(cli, "parse_scalar", bounded_parse)
    path = tmp_path / "input.json"
    for literal, code in cases:
        payload = {"matrix": [[literal]]} if where == "matrix" else {
            "matrix": [[1]],
            "q_roots": [literal],
        }
        path.write_text(json.dumps(payload))
        args = ["--p", "5", "--precision", "4", "--suite", "mihara", "--input", str(path)]
        got = main(args)
        captured = capsys.readouterr()
        if code == 2:
            assert got == 2
            assert captured.err.startswith(f"invalid configuration: input {where}")
            assert "exponent exceeds 64" in captured.err
            assert captured.out == ""
        else:
            assert got != 2 and captured.out


def test_huge_json_integer_is_a_configuration_error(tmp_path):
    """An integer past Python's 4,300-digit int-string limit is not valid JSON."""
    path = tmp_path / "input.json"
    path.write_text('{"matrix": [[' + "7" * 5000 + "]]}")
    proc = run_cli("--p", "5", "--suite", "mihara", "--input", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid configuration: input is not valid JSON" in proc.stderr
    assert proc.stdout == ""


def test_input_that_is_not_json_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text("[[1, 2], [3")
    assert main(["--p", "5", "--suite", "mihara", "--input", str(path)]) == 2
    assert "input is not valid JSON" in capsys.readouterr().err


def test_ragged_input_from_the_command_line_exits_cleanly(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"matrix": [[1, 2], [3]]}))
    proc = run_cli("--p", "5", "--suite", "mihara", "--input", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid configuration: input matrix rows have unequal lengths" in proc.stderr
