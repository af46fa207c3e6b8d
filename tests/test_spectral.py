"""Spectral theory: norm identity, projections, functional calculus."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from padicops.errors import (
    NotCommuting,
    NotDiagonalizable,
    RepeatedEigenvalue,
)
from padicops import padic
from padicops.padic import PadicScalar, teichmuller_root
from padicops.spectral import (
    NormIdentityVerdict,
    PolynomialOverK,
    _root_products,
    check_norm_identity,
    functional_calculus,
    is_orthoprojection,
    joint_spectral_measure,
    multiplication_operator,
    normality_scan,
    spectral_projections,
)
from padicops.ultralinalg import KMatrix, operator_norm, parse_matrix


def exact(p, value):
    return PadicScalar.from_rational(p, Fraction(value))


def diag(p, values):
    zero = PadicScalar.zero(p)
    n = len(values)
    return KMatrix(
        p, [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
    )


def random_exact(p, rng, vrange=(-2, 2)):
    u = rng.randint(1, 6 * p)
    while u % p == 0:
        u = rng.randint(1, 6 * p)
    return PadicScalar.from_rational(p, Fraction(u) * Fraction(p) ** rng.randint(*vrange))


def mihara_matrix(p):
    return KMatrix.from_int_rows(p, [[p, p, 0], [0, p, 0], [0, 0, 1]])


def horner_eval(q, A):
    """Horner with a freshly scaled identity per coefficient (the oracle)."""
    acc = KMatrix.zeros(A.p, A.rows)
    for c in reversed(q.coefficients):
        acc = (acc @ A) + KMatrix.identity(A.p, A.rows).scale(c)
    return acc


def horner_scan(A, degree_bound, candidates, n_random=20, seed=0):
    """The per-polynomial scan: expand every root product, then Horner."""
    p = A.p
    violations = []

    def visit(q):
        B = horner_eval(q, A)
        eB = operator_norm(B)
        eB2 = operator_norm(B @ B)
        rhs = eB * 2 if eB != math.inf else math.inf
        if eB2 != rhs:
            violations.append((q, NormIdentityVerdict(False, eB2, rhs)))

    for deg in range(1, degree_bound + 1):
        for roots in itertools.combinations_with_replacement(candidates, deg):
            visit(PolynomialOverK.from_roots(p, list(roots)))
    rng = random.Random(seed)
    for _ in range(n_random):
        deg = rng.randint(1, degree_bound)
        coeffs = [padic.random_exact(p, rng) for _ in range(deg)]
        visit(PolynomialOverK(coeffs + [PadicScalar.one(p)]))
    return violations


def fields(x):
    return (x.kind, x.frac, x.v, x.unit, x.N, x.bound)


def matrix_fields(M):
    return [{j: fields(a) for j, a in row.items()} for row in M.data]


def assert_same_violations(got, want):
    assert len(got) == len(want)
    for (q, verdict), (q0, verdict0) in zip(got, want):
        assert [fields(c) for c in q.coefficients] == [
            fields(c) for c in q0.coefficients
        ]
        assert verdict == verdict0


def random_upper_triangular(p, n, rng):
    zero = PadicScalar.zero(p)
    return KMatrix(
        p,
        [
            [
                zero if j < i or (j > i and rng.random() < 0.3) else random_exact(p, rng)
                for j in range(n)
            ]
            for i in range(n)
        ],
    )


class TestNormIdentity:
    def test_mihara_violation(self):
        p = 5
        A = mihara_matrix(p)
        q = PolynomialOverK.from_roots(p, [exact(p, 1), exact(p, p)])
        verdict = check_norm_identity(A, q)
        assert not verdict.holds
        assert verdict.lhs == math.inf  # q(A)^2 = 0
        assert verdict.rhs == 2  # ||q(A)|| = p^-1

    def test_diagonal_matrices_never_violate(self):
        rng = random.Random(21)
        p = 5
        for _ in range(40):
            n = rng.randint(2, 4)
            A = diag(p, [random_exact(p, rng) for _ in range(n)])
            deg = rng.randint(1, 3)
            q = PolynomialOverK(
                [random_exact(p, rng) for _ in range(deg)] + [PadicScalar.one(p)]
            )
            assert check_norm_identity(A, q).holds


class TestNormalityScanOracle:
    """The prefix-shared scan against per-polynomial Horner evaluation."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_mihara_violations_match(self, p):
        A = mihara_matrix(p)
        candidates = [exact(p, 1), exact(p, p), exact(p, 0)]
        want = horner_scan(A, 3, candidates, seed=p)
        assert want  # (t - 1)(t - p) violates, so the comparison is not vacuous
        assert_same_violations(normality_scan(A, 3, candidates, seed=p), want)

    def test_random_upper_triangular_match(self):
        rng = random.Random(31)
        violating = 0
        for p in (3, 5, 7, 17):
            for _ in range(4):
                n = rng.randint(2, 3)
                A = random_upper_triangular(p, n, rng)
                candidates = [A.entry(i, i) for i in range(n)]
                candidates.append(random_exact(p, rng))
                candidates.append(candidates[0])  # repeated candidate
                bound = rng.randint(1, 3)
                seed = rng.randrange(2**30)
                want = horner_scan(A, bound, candidates, n_random=4, seed=seed)
                got = normality_scan(A, bound, candidates, n_random=4, seed=seed)
                assert_same_violations(got, want)
                violating += bool(want)
        assert violating > 0

    def test_empty_candidates_and_degree_one(self):
        p = 5
        A = mihara_matrix(p)
        for candidates in ([], None):
            assert_same_violations(
                normality_scan(A, 2, candidates, seed=3),
                horner_scan(A, 2, [], seed=3),
            )
        candidates = [exact(p, 1), exact(p, p), exact(p, p)]
        want = horner_scan(A, 1, candidates, seed=4)
        assert_same_violations(normality_scan(A, 1, candidates, seed=4), want)

    def test_root_products_multiply_left_to_right(self):
        rng = random.Random(32)
        p = 5
        factors = [
            KMatrix(p, [[random_exact(p, rng) for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        ]
        assert not (factors[0] @ factors[1]).equals(factors[1] @ factors[0])
        got = list(_root_products(factors, 3))
        assert [idx for idx, _ in got] == [
            idx
            for deg in (1, 2, 3)
            for idx in itertools.combinations_with_replacement(range(3), deg)
        ]
        for idx, M in got:
            want = factors[idx[0]]
            for i in idx[1:]:
                want = want @ factors[i]
            assert M.equals(want)

    def test_coefficients_only_for_violations(self, monkeypatch):
        calls = []
        original = PolynomialOverK.from_roots.__func__

        def counting(cls, p, roots):
            calls.append(len(roots))
            return original(cls, p, roots)

        monkeypatch.setattr(PolynomialOverK, "from_roots", classmethod(counting))
        p = 5
        candidates = [exact(p, 1), exact(p, p), exact(p, 0)]
        violations = normality_scan(mihara_matrix(p), 3, candidates, n_random=0)
        assert violations and len(calls) == len(violations)
        calls.clear()
        D = diag(p, [exact(p, 1), exact(p, p), exact(p, 2)])
        assert normality_scan(D, 3, candidates, n_random=0) == []
        assert calls == []


class TestHornerEvaluation:
    """eval_matrix adds c on the diagonal; horner_eval adds a scaled identity."""

    def capped_scalars(self, p, rng):
        out = [PadicScalar.capped_zero(p, rng.randint(-1, 3)), PadicScalar.zero(p)]
        for N in (3, 8, 64):
            zeta = teichmuller_root(p, 4, N)
            out.append(zeta ** rng.randint(1, 3) * random_exact(p, rng))
            out.append(PadicScalar.capped(p, rng.randint(-2, 2), rng.randint(1, 10**6) * p + 1, N))
        return out + [random_exact(p, rng) for _ in range(3)]

    def test_scaled_one_keeps_every_field(self):
        rng = random.Random(33)
        for p in (5, 13):
            one = PadicScalar.one(p)
            for c in self.capped_scalars(p, rng):
                assert fields(c * one) == fields(c)

    def test_matches_scaled_identity_form_entrywise(self):
        rng = random.Random(34)
        for p in (5, 13):
            for _ in range(10):
                pool = self.capped_scalars(p, rng)
                n = rng.randint(2, 3)
                A = KMatrix(p, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
                q = PolynomialOverK(
                    [rng.choice(pool) for _ in range(rng.randint(1, 3))]
                    + [PadicScalar.one(p)]
                )
                assert matrix_fields(q.eval_matrix(A)) == matrix_fields(horner_eval(q, A))


class TestSpectralProjections:
    def test_invariants_hold(self):
        p = 5
        A = diag(p, [exact(p, 1), exact(p, 5), exact(p, 5), exact(p, 2)])
        data = spectral_projections(A, [exact(p, 1), exact(p, 5), exact(p, 2)])
        data.verify(A)
        for E in data.projections:
            assert is_orthoprojection(E, samples=10)

    def test_repeated_eigenvalue_rejected(self):
        p = 5
        A = diag(p, [exact(p, 1), exact(p, 2)])
        with pytest.raises(RepeatedEigenvalue):
            spectral_projections(A, [exact(p, 1), exact(p, 1), exact(p, 2)])

    def test_nondiagonalizable_rejected(self):
        p = 5
        A = KMatrix.from_int_rows(p, [[1, 1], [0, 1]])
        with pytest.raises(NotDiagonalizable):
            spectral_projections(A, [exact(p, 1)])

    def test_nontrivial_projection_norm_symmetry(self):
        # ||P|| = ||I - P|| for orthoprojections outside {0, I}
        rng = random.Random(22)
        p = 3
        for _ in range(20):
            values = [exact(p, rng.choice([1, 2, 4])) for _ in range(3)]
            A, data = multiplication_operator(values, verify=False)
            I = KMatrix.identity(p, 3)
            for E in data.projections:
                if E.is_zero() or E.equals(I):
                    continue
                assert operator_norm(E) == operator_norm(I - E) == 0


class TestFunctionalCalculus:
    def test_multiplicative_random(self):
        rng = random.Random(23)
        p = 5
        for _ in range(100):
            n = rng.randint(2, 5)
            distinct = []
            while len(distinct) < n:
                cand = random_exact(p, rng)
                if all(not cand.equals(d) for d in distinct):
                    distinct.append(cand)
            A = diag(p, distinct)
            data = spectral_projections(A, distinct)
            table_phi = [(lam, random_exact(p, rng)) for lam in distinct]
            table_psi = [(lam, random_exact(p, rng)) for lam in distinct]
            table_prod = [
                (lam, a * b)
                for (lam, a), (_, b) in zip(table_phi, table_psi)
            ]
            lhs = functional_calculus(data, table_prod)
            rhs = functional_calculus(data, table_phi) @ functional_calculus(
                data, table_psi
            )
            assert lhs.equals(rhs)


class TestOrthoprojectionCriterion:
    def test_conjugated_diagonal_idempotents(self):
        from padicops.randmat import unimodular

        rng = random.Random(24)
        p = 5
        zero, one = PadicScalar.zero(p), PadicScalar.one(p)
        for _ in range(25):
            n = rng.randint(2, 4)
            Q, Qinv = unimodular(p, n, rng)
            D = diag(p, [one if rng.random() < 0.5 else zero for _ in range(n)])
            P = Q @ D @ Qinv
            assert is_orthoprojection(P, samples=10, seed=rng.randrange(2**30))

    def test_unbounded_idempotent_rejected(self):
        p = 5
        P = parse_matrix(p, [["1", "1/5"], ["0", "0"]])
        assert (P @ P).equals(P)
        assert operator_norm(P) == -1  # norm p
        assert not is_orthoprojection(P)

    def test_non_idempotent_rejected(self):
        p = 5
        assert not is_orthoprojection(KMatrix.from_int_rows(p, [[1, 1], [0, 1]]))


class TestMultiplicationOperators:
    def test_spectrum_is_value_set(self):
        p = 5
        values = [exact(p, 1), exact(p, 5), exact(p, 1)]
        A, data = multiplication_operator(values, verify=True, degree_bound=3)
        assert len(data.eigenvalues) == 2
        assert normality_scan(A, 3, data.eigenvalues) == []


class TestJointSpectralMeasure:
    def test_refinement_of_diagonals(self):
        p = 5
        A = diag(p, [exact(p, 1), exact(p, 5)])
        B = diag(p, [exact(p, 5), exact(p, 5)])
        joint = joint_spectral_measure(
            [A, B], [[exact(p, 1), exact(p, 5)], [exact(p, 5)]]
        )
        assert len(joint) == 2

    def test_identity_family(self):
        p = 5
        I = KMatrix.identity(p, 2)
        joint = joint_spectral_measure([I], [[exact(p, 1)]])
        assert len(joint) == 1
        assert joint[0][1].equals(I)

    def test_noncommuting_rejected(self):
        p = 5
        A = KMatrix.from_int_rows(p, [[0, 1], [0, 0]])
        B = KMatrix.from_int_rows(p, [[0, 0], [1, 0]])
        with pytest.raises(NotCommuting):
            joint_spectral_measure([A, B], [[exact(p, 0)], [exact(p, 0)]])
