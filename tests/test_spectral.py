"""Spectral theory: norm identity, projections, functional calculus."""

import math
import random
from fractions import Fraction

import pytest

from padicops.errors import (
    NotCommuting,
    NotDiagonalizable,
    RepeatedEigenvalue,
)
from padicops.padic import PadicScalar
from padicops.spectral import (
    PolynomialOverK,
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
