"""Batch driver: run named check suites and emit machine-readable reports.

A single seed governs all sampling; every check derives its own stream
from (seed, check id), so suites can run in any order with identical
results.  The JSON report is deterministic for a given (config, seed);
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charduals import (
    TruncatedGroup,
    WeightedSupNorm,
    abs_value_upper,
    fourier_analyze,
    fourier_synthesize,
    haar_integrate,
    trig_poly_approx,
)
from .crossed import (
    StructuredCommutantElement,
    idempotent_check,
    verify_commutation_theorem,
    verify_operator_identities,
)
from .errors import CertificationFailed, ConfigInvalid, PadicopsError
from .padic import DEFAULT_PRECISION, PadicScalar, parse_scalar, random_exact
from .reduction import (
    FiniteAlgebra,
    classify_type,
    dedekind_finite_spotcheck,
    is_baer,
    verify_crossed_reduction,
)
from .report import CheckResult
from .spectral import (
    PolynomialOverK,
    check_norm_identity,
    is_orthoprojection,
    multiplication_operator,
    normality_scan,
)
from .ultralinalg import KMatrix, algebra_span, operator_norm, parse_matrix

SUITES = ("mihara", "spectral", "fourier", "crossed", "reduce", "baer", "all")


@dataclass
class RunConfig:
    p: int = 3
    l: int = 2
    k: int = 1
    j: int | None = None
    precision: int = DEFAULT_PRECISION
    seed: int = 0
    degree_bound: int = 5
    n_samples: int = 20
    budget: int = 200_000

    def __post_init__(self):
        if self.j is None:
            self.j = self.k
        if self.precision < 1:
            raise ConfigInvalid("precision must be positive")
        # validates p, l, j and l^k | p - 1; shared by every check of the run
        self._group = TruncatedGroup(self.l, self.k, self.j, self.p, self.precision)

    def group(self) -> TruncatedGroup:
        return self._group

    def echo(self) -> dict:
        return {
            "p": self.p,
            "l": self.l,
            "k": self.k,
            "j": self.j,
            "precision": self.precision,
            "seed": self.seed,
            "degree_bound": self.degree_bound,
            "n_samples": self.n_samples,
            "budget": self.budget,
        }

    def rng(self, check_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{check_id}")


@dataclass
class CheckReport:
    check_id: str
    config: dict
    status: str  # pass | fail | error
    detail: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    def as_dict(self) -> dict:
        # timing is intentionally omitted: reports are byte-identical
        # across runs with the same (config, seed)
        return {
            "check_id": self.check_id,
            "config": self.config,
            "status": self.status,
            "detail": self.detail,
        }


def _exp_str(e) -> str:
    return "inf" if e == float("inf") else str(int(e))


def _unimodular(p: int, n: int, rng: random.Random) -> tuple[KMatrix, KMatrix]:
    """Random norm-1 matrix with norm-1 inverse (product of unipotents).

    A unipotent E has I - E nilpotent, so E^-1 = sum over k < n of (I - E)^k
    and the inverse of Q = L U is U^-1 L^-1 without elimination.
    """
    zero, one = PadicScalar.zero(p), PadicScalar.one(p)
    identity = KMatrix.identity(p, n)

    def unipotent(lower: bool) -> tuple[KMatrix, KMatrix]:
        E = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (i > j) if lower else (i < j):
                    E[i][j] = PadicScalar.from_int(p, rng.randint(-3 * p, 3 * p))
        E = KMatrix(p, E)
        nilpotent = identity - E
        inv = term = identity
        for _ in range(n - 1):
            term = term @ nilpotent
            inv = inv + term
        return E, inv

    L, L_inv = unipotent(True)
    U, U_inv = unipotent(False)
    Q, Q_inv = L @ U, U_inv @ L_inv
    if not (Q @ Q_inv).equals(identity):
        raise CertificationFailed("Q Q^-1 is not the identity")
    return Q, Q_inv


def _random_projection(p: int, n: int, rng: random.Random) -> KMatrix:
    """Q D Q^-1 for a random unimodular Q and a random 0/1 diagonal D."""
    Q, Q_inv = _unimodular(p, n, rng)
    diag = [rng.randint(0, 1) for _ in range(n)]
    zero, one = PadicScalar.zero(p), PadicScalar.one(p)
    D = KMatrix(
        p, [[one if (i == j and diag[i]) else zero for j in range(n)] for i in range(n)]
    )
    return Q @ D @ Q_inv


def _mihara_matrix(p: int) -> KMatrix:
    return KMatrix.from_int_rows(p, [[p, p, 0], [0, p, 0], [0, 0, 1]])


def _named(check_id):
    """Decorator turning a check body into the check named check_id.

    The body returns (status, detail).  The check times it and builds its
    report; no other code builds a CheckReport.  CertificationFailed
    becomes a "fail" whose detail is the failed claim, and any other
    library error an "error" report.
    """

    def deco(fn):
        def check(config: RunConfig, *args) -> CheckReport:
            start = time.monotonic()
            try:
                status, detail = fn(config, *args)
            except CertificationFailed as exc:
                status, detail = "fail", {"assertion": str(exc)}
            except PadicopsError as exc:
                status = "error"
                detail = {"exception": type(exc).__name__, "message": str(exc)}
            elapsed_ms = 1000 * (time.monotonic() - start)
            return CheckReport(check_id, config.echo(), status, detail, elapsed_ms)

        check.check_id = check_id
        return check

    return deco


def _summary(results: list[CheckResult]) -> tuple[str, dict]:
    """Verdict of a verify_* result list; details merge in order, later keys win."""
    failed = [r.name for r in results if not r.passed]
    detail = {"checks": len(results), "failed": failed}
    for r in results:
        detail.update(r.detail)
    return ("fail" if failed else "pass"), detail


# ---------------------------------------------------------------- mihara


@_named("mihara.norm_identity_counterexample")
def check_mihara_counterexample(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    A = _mihara_matrix(p)
    one = PadicScalar.one(p)
    q = PolynomialOverK.from_roots(p, [one, PadicScalar.from_int(p, p)])
    verdict = check_norm_identity(A, q)
    qA = q.eval_matrix(A)
    facts = {
        "norm_A_exponent": _exp_str(operator_norm(A)),
        "norm_A2_exponent": _exp_str(operator_norm(A @ A)),
        "norm_qA_exponent": _exp_str(operator_norm(qA)),
        "qA_squared_is_zero": (qA @ qA).is_zero(),
        "identity_holds": verdict.holds,
        "lhs_exponent": _exp_str(verdict.lhs),
        "rhs_exponent": _exp_str(verdict.rhs),
    }
    ok = (
        facts["norm_A_exponent"] == "0"
        and facts["norm_A2_exponent"] == "0"
        and facts["norm_qA_exponent"] == "1"
        and facts["qA_squared_is_zero"]
        and not verdict.holds
    )
    return ("pass" if ok else "fail"), facts


@_named("mihara.generated_algebra_dimension")
def check_mihara_span(config: RunConfig) -> tuple[str, dict]:
    A = _mihara_matrix(config.p)
    alg = algebra_span([A], 3)
    ok = alg.dimension == 3 and alg.contains(A @ A)
    return ("pass" if ok else "fail"), {"dimension": alg.dimension}


@_named("mihara.custom_matrix_norm_identity")
def check_mihara_custom(config: RunConfig, payload: dict) -> tuple[str, dict]:
    p = config.p
    A = parse_matrix(p, payload["matrix"], config.precision)
    roots = [
        parse_scalar(p, r, config.precision) for r in payload.get("q_roots", [1, p])
    ]
    verdict = check_norm_identity(A, PolynomialOverK.from_roots(p, roots))
    return "pass", {
        "identity_holds": verdict.holds,
        "lhs_exponent": _exp_str(verdict.lhs),
        "rhs_exponent": _exp_str(verdict.rhs),
        "norm_exponent": _exp_str(operator_norm(A)),
    }


# --------------------------------------------------------------- spectral


@_named("spectral.multiplication_operators")
def check_multiplication_operators(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    rng = config.rng(check_multiplication_operators.check_id)
    n_ops = max(3, config.n_samples // 4)
    for trial in range(n_ops):
        n = rng.randint(2, 5)
        values = [random_exact(p, rng) for _ in range(n)]
        A, data = multiplication_operator(
            values, verify=True, degree_bound=config.degree_bound, seed=rng.randrange(2**30)
        )
        distinct = []
        for v in values:
            if not any(v.equals(s) for s in distinct):
                distinct.append(v)
        if len(data.eigenvalues) != len(distinct):
            raise CertificationFailed("spectrum != value set")
        for E in data.projections:
            if not is_orthoprojection(E, samples=10, seed=rng.randrange(2**30)):
                raise CertificationFailed(
                    "spectral projection of a multiplication operator is not an orthoprojection"
                )
    return "pass", {"operators_checked": n_ops}


@_named("spectral.random_orthoprojections")
def check_random_orthoprojections(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    rng = config.rng(check_random_orthoprojections.check_id)
    n_ops = max(5, config.n_samples // 2)
    for _ in range(n_ops):
        P = _random_projection(p, rng.randint(2, 4), rng)
        if not is_orthoprojection(P, samples=10, seed=rng.randrange(2**30)):
            raise CertificationFailed("projection Q D Q^-1 is not an orthoprojection")
    return "pass", {"projections_checked": n_ops}


@_named("spectral.unbounded_idempotent_rejected")
def check_unbounded_idempotent(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    P = parse_matrix(p, [["1", f"1/{p}"], ["0", "0"]], config.precision)
    rejected = not is_orthoprojection(P)
    idem = (P @ P).equals(P)
    return ("pass" if (rejected and idem) else "fail"), {
        "idempotent": idem,
        "rejected": rejected,
        "norm_exponent": _exp_str(operator_norm(P)),
    }


@_named("spectral.normality_scan_clean_on_diagonal")
def check_normality_scan(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    rng = config.rng(check_normality_scan.check_id)
    n = 4
    values = []
    while len(values) < n:
        cand = random_exact(p, rng)
        if all(cand.equals(v) is False for v in values):
            values.append(cand)
    A, data = multiplication_operator(values, verify=False)
    violations = normality_scan(
        A, config.degree_bound, data.eigenvalues, seed=rng.randrange(2**30)
    )
    return ("pass" if violations == [] else "fail"), {"violations": len(violations)}


# ---------------------------------------------------------------- fourier


@_named("fourier.character_orthogonality")
def check_character_orthogonality(config: RunConfig) -> tuple[str, dict]:
    grp = config.group()
    p = grp.p
    for m in range(grp.order):
        for n in range(grp.order):
            f = [grp.zeta_pow((m - n) * a) for a in range(grp.order)]
            integral = haar_integrate(grp, f)
            expected = PadicScalar.one(p) if m == n else PadicScalar.zero(p)
            if not (integral - expected).is_zero():
                raise CertificationFailed(f"<g_{m}, g_{n}> wrong")
    return "pass", {"pairs_checked": grp.order**2}


@_named("fourier.roundtrip_and_supnorm")
def check_fourier_roundtrip(config: RunConfig) -> tuple[str, dict]:
    grp = config.group()
    p = grp.p
    rng = config.rng(check_fourier_roundtrip.check_id)
    n_funcs = config.n_samples
    for _ in range(n_funcs):
        F = [
            [random_exact(p, rng) for _ in range(grp.order)]
            for _ in range(grp.s_size)
        ]
        coeffs = fourier_analyze(grp, F)
        back = fourier_synthesize(grp, coeffs)
        for x in range(grp.s_size):
            for a in range(grp.order):
                if not (back[x][a] - F[x][a]).is_zero():
                    raise CertificationFailed("roundtrip failed")
        sup_F = max(abs_value_upper(v) for row in F for v in row)
        sup_coeff = max(
            (abs_value_upper(c) for row in coeffs for c in row if not c.is_zero()),
            default=Fraction(0),
        )
        if sup_F != sup_coeff:
            raise CertificationFailed("sup-norm identity failed")
    return "pass", {"functions_checked": n_funcs}


@_named("fourier.trig_poly_approximation")
def check_trig_approx(config: RunConfig) -> tuple[str, dict]:
    grp = config.group()
    p = grp.p
    rng = config.rng(check_trig_approx.check_id)
    n_funcs = max(5, config.n_samples // 4)
    for _ in range(n_funcs):
        f = [random_exact(p, rng) for _ in range(grp.order)]
        gamma = {
            i: Fraction(1, p ** rng.randint(0, 2 * (i % grp.k + 1)))
            for i in range(grp.order)
        }
        w = WeightedSupNorm(gamma)
        eps = Fraction(1, p ** rng.randint(0, 3))
        # certifies its weighted error below eps or raises
        trig_poly_approx(grp, f, w, eps)
    return "pass", {"functions_checked": n_funcs}


# ---------------------------------------------------------------- crossed


@_named("crossed.operator_identities")
def check_operator_identities(config: RunConfig) -> tuple[str, dict]:
    return _summary(verify_operator_identities(config.group()))


@_named("crossed.commutation_theorem")
def check_commutation(config: RunConfig) -> tuple[str, dict]:
    return _summary(verify_commutation_theorem(config.group()))


def _random_structured(grp: TruncatedGroup, rng: random.Random, idempotent: bool):
    """Random commutant element; optionally a genuine idempotent.

    Coefficient matrices supported on the G0-cosets are block diagonal
    after grouping indices by coset, so idempotents are built per block
    by unimodular conjugation of a 0/1 diagonal.
    """
    p = grp.p
    b: dict[tuple[int, int], PadicScalar] = {}
    if not idempotent:
        for m in range(grp.order):
            for n in range(grp.order):
                if grp.in_g0(m - n) and rng.random() < 0.8:
                    b[(m, n)] = random_exact(p, rng, vrange=(0, 2))
        return StructuredCommutantElement(grp, b)
    cosets: dict[int, list[int]] = {}
    for i in range(grp.order):
        cosets.setdefault(i % grp.g0_modulus, []).append(i)
    for idx in cosets.values():
        B = _random_projection(p, len(idx), rng)
        for r, m in enumerate(idx):
            for c, n in enumerate(idx):
                if not B.entries[r][c].is_zero():
                    b[(m, n)] = B.entries[r][c]
    return StructuredCommutantElement(grp, b)


@_named("crossed.structured_idempotents")
def check_structured_idempotents(config: RunConfig) -> tuple[str, dict]:
    grp = config.group()
    rng = config.rng(check_structured_idempotents.check_id)
    n_elems = config.n_samples
    idem_count = 0
    for trial in range(n_elems):
        want_idem = trial % 2 == 0
        elem = _random_structured(grp, rng, idempotent=want_idem)
        verdict = idempotent_check(elem)
        if want_idem:
            if not verdict.idempotent:
                raise CertificationFailed("constructed idempotent not recognized")
            idem_count += 1
    return "pass", {"elements_checked": n_elems, "idempotents": idem_count}


# ----------------------------------------------------------------- reduce


@_named("reduce.crossed_product_reduction")
def check_reduction(config: RunConfig) -> tuple[str, dict]:
    return _summary(verify_crossed_reduction(config.group()))


# ------------------------------------------------------------------- baer


@_named("baer.full_matrix_algebra_type_I")
def check_full_matrix_baer(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    basis = []
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2), dtype=np.int64)
            E[i, j] = 1
            basis.append(E)
    alg = FiniteAlgebra(p, 2, basis)
    report = is_baer(alg, budget=config.budget, seed=config.seed)
    typed = classify_type(alg, budget=config.budget, seed=config.seed, baer=report)
    ok = report.is_baer is True and typed.type_verdict == "I"
    return ("pass" if ok else "fail"), {
        "mode": report.search_mode,
        "type": typed.type_verdict,
        "dedekind_finite": dedekind_finite_spotcheck(alg, 50, config.seed),
    }


@_named("baer.dual_numbers_negative_control")
def check_dual_numbers(config: RunConfig) -> tuple[str, dict]:
    p = config.p
    I2 = np.eye(2, dtype=np.int64)
    N = np.array([[0, 1], [0, 0]], dtype=np.int64)
    alg = FiniteAlgebra(p, 2, [I2, N])
    report = is_baer(alg, mode="exhaustive", budget=config.budget)
    ok = report.is_baer is False and report.failing_annihilator is not None
    return ("pass" if ok else "fail"), {
        "witness_annihilator": [
            w.tolist() for w in (report.failing_annihilator or [])
        ]
    }


SUITE_CHECKS = {
    "mihara": [check_mihara_counterexample, check_mihara_span],
    "spectral": [
        check_multiplication_operators,
        check_random_orthoprojections,
        check_unbounded_idempotent,
        check_normality_scan,
    ],
    "fourier": [
        check_character_orthogonality,
        check_fourier_roundtrip,
        check_trig_approx,
    ],
    "crossed": [
        check_operator_identities,
        check_commutation,
        check_structured_idempotents,
    ],
    "reduce": [check_reduction],
    "baer": [check_full_matrix_baer, check_dual_numbers],
}


def run_suite(
    config: RunConfig, suite: str, input_payload: dict | None = None
) -> list[CheckReport]:
    if suite not in SUITES:
        raise ConfigInvalid(f"unknown suite {suite!r}")
    names = (
        [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    )
    reports = []
    for name in names:
        for check in SUITE_CHECKS[name]:
            reports.append(check(config))
    if input_payload is not None and suite in ("mihara", "all"):
        reports.append(check_mihara_custom(config, input_payload))
    reports.sort(key=lambda r: r.check_id)
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicops",
        description="Exact non-Archimedean operator-algebra check suites",
    )
    parser.add_argument("--p", type=int, default=3, help="residue characteristic")
    parser.add_argument("--l", type=int, default=2, help="group prime")
    parser.add_argument("--k", type=int, default=1, help="group level: G = Z/l^k")
    parser.add_argument("--j", type=int, default=None, help="space level: S = Z/l^j (default k)")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite", choices=SUITES, default="all")
    parser.add_argument("--budget", type=int, default=200_000)
    parser.add_argument("--out", type=str, default=None, help="report path (default stdout)")
    parser.add_argument("--input", type=str, default=None, help="JSON payload for ad-hoc checks")
    args = parser.parse_args(argv)

    try:
        config = RunConfig(
            p=args.p,
            l=args.l,
            k=args.k,
            j=args.j,
            precision=args.precision,
            seed=args.seed,
            budget=args.budget,
        )
    except ConfigInvalid as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    payload = None
    if args.input:
        with open(args.input) as fh:
            payload = json.load(fh)

    reports = run_suite(config, args.suite, payload)
    body = json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    for r in reports:
        print(
            f"{r.check_id}: {r.status} ({r.wall_time_ms:.0f} ms)", file=sys.stderr
        )
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
