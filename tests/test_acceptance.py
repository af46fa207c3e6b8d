"""End-to-end acceptance checks.

Every check here is exact: verdicts are integer exponent comparisons,
matrix identities over exact scalars, or rank equalities over F_p.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from padicops import fpalg
from padicops.charduals import (
    TruncatedGroup,
    WeightedSupNorm,
    abs_value_upper,
    fourier_analyze,
    fourier_synthesize,
    haar_integrate,
    trig_poly_approx,
)
from padicops.randmat import unimodular
from padicops.crossed import (
    StructuredCommutantElement,
    extract_block_coefficients,
    idempotent_check,
    verify_commutation_theorem,
    verify_operator_identities,
)
from padicops.padic import PadicScalar
from padicops.reduction import (
    FiniteAlgebra,
    is_baer,
    reduce_algebra,
    reduce_matrix,
    verify_crossed_reduction,
)
from padicops.report import all_passed
from padicops.spectral import (
    PolynomialOverK,
    check_norm_identity,
    is_orthoprojection,
    multiplication_operator,
)
from padicops.ultralinalg import KMatrix, operator_norm, parse_matrix


def random_exact(p, rng, vrange=(-2, 2)):
    u = rng.randint(1, 6 * p)
    while u % p == 0:
        u = rng.randint(1, 6 * p)
    return PadicScalar.from_rational(p, Fraction(u) * Fraction(p) ** rng.randint(*vrange))


@pytest.mark.parametrize("p", [3, 5, 17])
def test_criterion_1_mihara_counterexample(p):
    A = KMatrix.from_int_rows(p, [[p, p, 0], [0, p, 0], [0, 0, 1]])
    q = PolynomialOverK.from_roots(p, [PadicScalar.one(p), PadicScalar.from_int(p, p)])
    # ||A|| = 1 and ||A^2|| = 1 = ||A||^2
    assert operator_norm(A) == 0
    assert operator_norm(A @ A) == 0
    # ||q(A)|| = p^-1 and q(A)^2 = 0, so ||q(A)^2|| < ||q(A)||^2 exactly
    qA = q.eval_matrix(A)
    assert operator_norm(qA) == 1
    assert (qA @ qA).is_zero()
    verdict = check_norm_identity(A, q)
    assert not verdict.holds
    assert verdict.lhs == math.inf and verdict.rhs == 2


def test_criterion_2_orthoprojection_criterion():
    p = 5
    rng = random.Random(2)
    zero, one = PadicScalar.zero(p), PadicScalar.one(p)
    for trial in range(200):
        n = rng.randint(2, 4)
        Q, Qinv = unimodular(p, n, rng)
        diag = [rng.randint(0, 1) for _ in range(n)]
        D = KMatrix(
            p,
            [
                [one if (i == j and diag[i]) else zero for j in range(n)]
                for i in range(n)
            ],
        )
        P = Q @ D @ Qinv
        # samples=50 asserts ||aP + b(I-P)|| = max(|a|, |b|) on 50 (a, b)
        # pairs including the equal-valuation case before returning True
        assert is_orthoprojection(P, samples=50, seed=trial)
    bad = parse_matrix(p, [["1", "1/5"], ["0", "0"]])
    assert (bad @ bad).equals(bad)
    assert operator_norm(bad) == -1  # ||P|| = p
    assert not is_orthoprojection(bad)


@pytest.mark.parametrize("l,k,p", [(2, 1, 3), (2, 2, 5), (3, 1, 7), (2, 3, 17)])
def test_criterion_3_character_orthogonality(l, k, p):
    grp = TruncatedGroup(l, k, k, p)
    one, zero = PadicScalar.one(p), PadicScalar.zero(p)
    for m in range(grp.order):
        for n in range(grp.order):
            f = [
                grp.zeta_pow(m * a) * grp.zeta_pow(-n * a)
                for a in range(grp.order)
            ]
            integral = haar_integrate(grp, f)
            expected = one if m == n else zero
            assert (integral - expected).is_zero()


@pytest.mark.parametrize("l,k,p", [(2, 1, 3), (2, 2, 5), (3, 1, 7), (2, 3, 17)])
def test_criterion_4_fourier_roundtrip(l, k, p):
    grp = TruncatedGroup(l, k, k, p)
    rng = random.Random(4)
    for _ in range(100):
        F = [
            [random_exact(p, rng) for _ in range(grp.order)]
            for _ in range(grp.s_size)
        ]
        coeffs = fourier_analyze(grp, F)
        back = fourier_synthesize(grp, coeffs)
        for x in range(grp.s_size):
            for a in range(grp.order):
                assert (back[x][a] - F[x][a]).is_zero()
        again = fourier_analyze(grp, back)
        for n in range(grp.order):
            for x in range(grp.s_size):
                assert (again[n][x] - coeffs[n][x]).is_zero()
        sup_F = max(abs_value_upper(v) for row in F for v in row)
        sup_c = max(
            abs_value_upper(c) for row in coeffs for c in row if not c.is_zero()
        )
        assert sup_F == sup_c


@pytest.mark.parametrize(
    "l,k,j,p", [(2, 2, 2, 5), (2, 2, 1, 5)], ids=["free", "nonfree"]
)
def test_criterion_5_crossed_product_identities(l, k, j, p):
    results = verify_operator_identities(TruncatedGroup(l, k, j, p))
    assert all_passed(results), [r.name for r in results if not r.passed]


def test_criterion_6_commutation_theorem():
    for cfg in [(2, 1, 1, 3), (2, 2, 2, 5)]:
        results = verify_commutation_theorem(TruncatedGroup(*cfg))
        assert all_passed(results), [r.name for r in results if not r.passed]
        dims = [r.detail["center_dim"] for r in results if "center_dim" in r.detail]
        assert dims and all(d == 1 for d in dims)
    results = verify_commutation_theorem(TruncatedGroup(2, 2, 1, 5))
    assert all_passed(results), [r.name for r in results if not r.passed]
    dims = [r.detail["center_dim"] for r in results if "center_dim" in r.detail]
    assert dims and all(d == 2 for d in dims)


def test_criterion_7_structured_idempotent_condition():
    grp = TruncatedGroup(2, 2, 1, 5)
    p = grp.p
    rng = random.Random(7)
    idempotents_seen = 0
    for trial in range(200):
        b = {}
        if trial % 3 == 0:
            # genuine idempotents: unimodular conjugates of 0/1 diagonals
            # assembled per G0-coset block
            from padicops.cli import _random_structured

            elem = _random_structured(grp, rng, idempotent=True)
        else:
            for m in range(grp.order):
                for n in range(grp.order):
                    if grp.in_g0(m - n) and rng.random() < 0.7:
                        b[(m, n)] = random_exact(p, rng, vrange=(-1, 1))
            elem = StructuredCommutantElement(grp, b)
        # idempotent_check internally cross-validates the coefficient-sum
        # condition against matrix-level P^2 = P and asserts agreement
        verdict = idempotent_check(elem)
        P = elem.to_matrix()
        assert verdict.idempotent == (P @ P).equals(P)
        bounded = all(c.valuation_lower_bound() >= 0 for c in elem.b.values())
        assert verdict.orthoprojection == (verdict.idempotent and bounded)
        if verdict.idempotent:
            idempotents_seen += 1
    assert idempotents_seen >= 60


def test_criterion_8_trig_poly_approximation():
    grp = TruncatedGroup(2, 2, 2, 5)
    rng = random.Random(8)
    for _ in range(20):
        f = [random_exact(5, rng, vrange=(0, 2)) for _ in range(grp.order)]
        gamma = {i: Fraction(1, 5 ** rng.randint(0, 3)) for i in range(grp.order)}
        w = WeightedSupNorm(gamma)
        for eps in (Fraction(1), Fraction(1, 5), Fraction(1, 5**2), Fraction(1, 5**4)):
            approx = trig_poly_approx(grp, f, w, eps)
            step = grp.l**approx.subgroup_level
            for t in range(grp.order // step):
                assert (approx.values[step * t] - f[step * t]).is_zero()
            assert approx.achieved_error < eps


def test_criterion_9_reduction_and_baer():
    # free (2,1,.,3): reduction equals M_2(F_3), exhaustive Baer, type I
    results = verify_crossed_reduction(TruncatedGroup(2, 1, 1, 3))
    by_name = {r.name: r for r in results}
    assert all_passed(results), [r.name for r in results if not r.passed]
    assert by_name["reduction_is_baer"].detail["mode"] == "exhaustive"
    assert by_name["coset_blocks_are_full_matrix_algebras"].detail == {
        "blocks": 1,
        "block_size": 2,
    }

    # free (2,2,.,5): reduction equals M_4(F_5), type I via structural witness
    results = verify_crossed_reduction(TruncatedGroup(2, 2, 2, 5))
    by_name = {r.name: r for r in results}
    assert all_passed(results), [r.name for r in results if not r.passed]
    assert by_name["coset_blocks_are_full_matrix_algebras"].detail == {
        "blocks": 1,
        "block_size": 4,
    }

    # span equality with the full matrix algebra, directly by rank
    for cfg, n in [((2, 1, 1, 3), 2), ((2, 2, 2, 5), 4)]:
        grp = TruncatedGroup(*cfg)
        from padicops.crossed import build_algebras

        lattice, _ = reduce_algebra(build_algebras(grp).RJ)
        stack = np.array(
            [
                reduce_matrix(extract_block_coefficients(grp, B)[0]).reshape(-1)
                for B in lattice.basis
            ]
        )
        assert fpalg.rank(stack, grp.p) == n * n

    # non-free (2,2,1,5): Z0/Z1 invariance, coset blocks, type I
    results = verify_crossed_reduction(TruncatedGroup(2, 2, 1, 5))
    by_name = {r.name: r for r in results}
    assert all_passed(results), [r.name for r in results if not r.passed]
    assert by_name["coordinate_split_Z0_Z1_invariant"].passed
    assert by_name["coset_blocks_are_full_matrix_algebras"].detail == {
        "blocks": 2,
        "block_size": 2,
    }
    assert by_name["reduction_is_type_I"].detail["verdict"] == "I"

    # negative control: F_p[x]/(x^2) is not Baer, witness ann(x)
    N = np.array([[0, 1], [0, 0]], dtype=np.int64)
    alg = FiniteAlgebra(3, 2, [np.eye(2, dtype=np.int64), N])
    report = is_baer(alg, mode="exhaustive")
    assert report.is_baer is False
    assert report.failing_annihilator is not None
    assert np.array_equal(report.failing_annihilator[0], N)


def test_criterion_10_multiplication_operators():
    p = 5
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 5)
        values = [random_exact(p, rng) for _ in range(n)]
        # verify=True runs normality_scan at the degree bound and asserts
        # no violations; spectral projections are verified on construction
        A, data = multiplication_operator(
            values, verify=True, degree_bound=5, seed=rng.randrange(2**30)
        )
        distinct = []
        for v in values:
            if all(not v.equals(d) for d in distinct):
                distinct.append(v)
        assert len(data.eigenvalues) == len(distinct)
        for lam in distinct:
            assert any(lam.equals(e) for e in data.eigenvalues)
        for E in data.projections:
            assert is_orthoprojection(E, samples=10, seed=rng.randrange(2**30))
