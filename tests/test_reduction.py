"""Residue reduction, unit-ball lattices, annihilators, Baer classification."""

import random
from fractions import Fraction

import numpy as np
import pytest

from padicops import fpalg, reduction
from padicops.charduals import TruncatedGroup
from padicops.errors import CertificationFailed, NotInUnitBall
from padicops.padic import PadicScalar
from padicops.reduction import (
    FiniteAlgebra,
    _central_primitive_idempotents,
    _poly_idempotents,
    classify_type,
    compute_center,
    dedekind_finite_spotcheck,
    is_baer,
    left_annihilator,
    reduce_algebra,
    reduce_matrix,
    verify_crossed_reduction,
)
from padicops.report import all_passed
from padicops.ultralinalg import KMatrix, MatrixAlgebra, algebra_span, is_orthonormal


def random_unit_ball_matrix(p, n, rng):
    return KMatrix.from_int_rows(
        p, [[rng.randint(-3 * p, 3 * p) for _ in range(n)] for _ in range(n)]
    )


def matrix_units(p, n):
    out = []
    for i in range(n):
        for j in range(n):
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            out.append(KMatrix.from_int_rows(p, rows))
    return out


def full_matrix_algebra_fp(p, n):
    basis = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=np.int64)
            E[i, j] = 1
            basis.append(E)
    return FiniteAlgebra(p, n, basis)


def dual_numbers(p):
    I2 = np.eye(2, dtype=np.int64)
    N = np.array([[0, 1], [0, 0]], dtype=np.int64)
    return FiniteAlgebra(p, 2, [I2, N]), N


class TestReduceMatrix:
    def test_ring_homomorphism_random(self):
        rng = random.Random(51)
        p = 5
        for _ in range(500):
            A = random_unit_ball_matrix(p, 2, rng)
            B = random_unit_ball_matrix(p, 2, rng)
            assert np.array_equal(
                reduce_matrix(A @ B), (reduce_matrix(A) @ reduce_matrix(B)) % p
            )
            assert np.array_equal(
                reduce_matrix(A + B), (reduce_matrix(A) + reduce_matrix(B)) % p
            )

    def test_norm_exceeding_rejected(self):
        p = 5
        A = KMatrix(
            p,
            [
                [PadicScalar.from_rational(p, Fraction(1, 5)), PadicScalar.zero(p)],
                [PadicScalar.zero(p), PadicScalar.one(p)],
            ],
        )
        with pytest.raises(NotInUnitBall):
            reduce_matrix(A)


class TestReduceAlgebra:
    def test_lattice_basis_is_orthonormal(self):
        p = 5
        P = KMatrix.from_int_rows(p, [[1, 0], [0, 0]])
        alg = MatrixAlgebra(p, 2, [KMatrix.identity(p, 2), P])
        lattice, reduced = reduce_algebra(alg)
        assert is_orthonormal([B.as_vector() for B in lattice.basis])
        assert reduced.dimension == 2

    def test_repair_of_dependent_reductions(self):
        # basis {I, I + pN} reduces to {I, I}; repair must recover N
        p = 5
        I = KMatrix.identity(p, 2)
        N = KMatrix.from_int_rows(p, [[0, 1], [0, 0]])
        scaled = I + N.scale(PadicScalar.from_int(p, p))
        alg = MatrixAlgebra(p, 2, [I, scaled])
        lattice, reduced = reduce_algebra(alg)
        assert is_orthonormal([B.as_vector() for B in lattice.basis])
        assert reduced.dimension == 2
        assert reduced.contains(np.array([[0, 1], [0, 0]]))

    def test_scaling_is_normalized(self):
        p = 3
        A = KMatrix.from_int_rows(p, [[p, 0], [0, p]])
        alg = MatrixAlgebra(p, 2, [A])
        lattice, reduced = reduce_algebra(alg)
        assert reduced.dimension == 1
        assert reduced.contains(np.eye(2, dtype=np.int64))


class TestFiniteAlgebra:
    def test_iter_elements_first_coordinate_fastest(self):
        alg, _ = dual_numbers(3)
        expected = [alg.element([a, b]) for b in range(3) for a in range(3)]
        got = list(alg.iter_elements())
        assert len(got) == 9
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_linear_map_columns_are_images_of_the_basis(self):
        rng = random.Random(53)
        alg = full_matrix_algebra_fp(5, 2)
        s = np.array([[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        M = alg.linear_map(lambda X: X @ s)
        assert M.shape == (4, alg.dimension)
        for i, B in enumerate(alg.basis):
            assert np.array_equal(M[:, i], (B @ s % 5).reshape(-1))
        c = [rng.randrange(5) for _ in range(alg.dimension)]
        assert np.array_equal(M @ c % 5, (alg.element(c) @ s % 5).reshape(-1))


class TestAnnihilators:
    def test_subset_equals_right_ideal(self):
        rng = random.Random(52)
        alg = full_matrix_algebra_fp(3, 2)
        for _ in range(20):
            subset = [
                alg.element([rng.randrange(3) for _ in range(alg.dimension)])
                for _ in range(rng.randint(1, 3))
            ]
            # check_ideal=True asserts the subset/right-ideal identity
            left_annihilator(alg, subset, check_ideal=True)

    def test_dual_numbers_annihilator(self):
        alg, N = dual_numbers(3)
        ann = left_annihilator(alg, [N])
        assert len(ann) == 1
        assert np.array_equal(ann[0], N % 3)


class TestBaer:
    def test_full_matrix_algebra_exhaustive(self):
        report = is_baer(full_matrix_algebra_fp(3, 2), mode="exhaustive")
        assert report.is_baer is True
        assert report.search_mode == "exhaustive"

    def test_dual_numbers_fail_with_witness(self):
        alg, N = dual_numbers(5)
        report = is_baer(alg, mode="exhaustive")
        assert report.is_baer is False
        assert report.type_verdict == "not-baer"
        # the witness is ann(x) = span{x} in F_p[x]/(x^2)
        assert report.failing_annihilator is not None
        assert np.array_equal(report.failing_annihilator[0], N % 5)

    def test_sampled_mode_on_larger_algebra(self):
        report = is_baer(full_matrix_algebra_fp(5, 3), mode="sampled", n_samples=60)
        assert report.is_baer is True
        assert report.search_mode == "sampled"

    def test_witness_reverifies(self):
        alg = full_matrix_algebra_fp(3, 2)
        report = classify_type(alg)
        assert report.type_verdict == "I"
        e = report.witness_idempotent
        assert np.array_equal(alg.mul(e, e), e)
        # compressed algebra eRe is commutative
        compressed = [alg.mul(alg.mul(e, B), e) for B in alg.basis]
        for A in compressed:
            for B in compressed:
                assert np.array_equal(alg.mul(A, B), alg.mul(B, A))

    def test_center_of_full_matrix_algebra(self):
        assert len(compute_center(full_matrix_algebra_fp(5, 3))) == 1

    def test_block_algebra_two_central_idempotents(self):
        # M_2(F_3) + M_1(F_3) block diagonal inside 3x3
        basis = []
        for i in range(2):
            for j in range(2):
                E = np.zeros((3, 3), dtype=np.int64)
                E[i, j] = 1
                basis.append(E)
        E22 = np.zeros((3, 3), dtype=np.int64)
        E22[2, 2] = 1
        basis.append(E22)
        alg = FiniteAlgebra(3, 3, basis)
        assert len(compute_center(alg)) == 2
        report = classify_type(alg)
        assert report.type_verdict == "I"
        assert report.detail["central_blocks"] == 2

    def test_dedekind_finiteness(self):
        assert dedekind_finite_spotcheck(full_matrix_algebra_fp(3, 2), trials=200)
        alg, _ = dual_numbers(3)
        assert dedekind_finite_spotcheck(alg, trials=50)


class TestCrossedReduction:
    def test_small_free_configuration(self):
        results = verify_crossed_reduction(TruncatedGroup(2, 1, 1, 3))
        assert all_passed(results), [r.name for r in results if not r.passed]

    def test_mihara_algebra_reduces(self):
        p = 3
        A = KMatrix.from_int_rows(p, [[p, p, 0], [0, p, 0], [0, 0, 1]])
        alg = algebra_span([A], 3)
        lattice, reduced = reduce_algebra(alg)
        assert reduced.dimension == alg.dimension == 3
        assert reduced.is_closed()


def _key(M):
    return tuple(np.asarray(M, dtype=np.int64).reshape(-1).tolist())


def _min_poly(p, x):
    """Monic minimal polynomial of x over F_p, low degree first."""
    n = x.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    while True:
        nxt = powers[-1] @ x % p
        stack = np.array([M.reshape(-1) for M in powers]).T
        sol = fpalg.solve(stack, nxt.reshape(-1), p)
        if sol is not None:
            return [(-int(c)) % p for c in sol] + [1]
        powers.append(nxt)


def _crt_idempotents(sympy, p, x):
    """CRT idempotents of F_p[x] from sympy's factorization, or None if the
    minimal polynomial is not squarefree; also the factor degrees."""
    t = sympy.symbols("t")
    m = sympy.Poly(list(reversed(_min_poly(p, x))), t, modulus=p)
    factored = sympy.factor_list(m, modulus=p)[1]
    factors = [f for f, _ in factored]
    degrees = [f.degree() for f in factors]
    if any(mult > 1 for _, mult in factored):
        return None, degrees
    out = set()
    for fac in factors:
        rest = sympy.Poly(1, t, modulus=p)
        for other in factors:
            if other != fac:
                rest = rest * other
        # 1 mod fac, 0 mod every other factor
        e_poly = (rest * rest.invert(fac)) % m
        e = np.zeros_like(x)
        acc = np.eye(x.shape[0], dtype=np.int64)
        for c in reversed(e_poly.all_coeffs()):
            e = (e + int(c) % p * acc) % p
            acc = acc @ x % p
        out.add(_key(e))
    return out, degrees


def _random_poly_input(p, n, rng):
    """A dense, or a conjugated triangular (repeated eigenvalues), matrix."""
    if rng.random() < 0.5:
        return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    T = np.array(
        [[rng.choice((0, 1)) if i == j else (rng.randrange(p) if j > i else 0)
          for j in range(n)] for i in range(n)]
    )
    # unipotent conjugation keeps the minimal polynomial
    U = np.array([[1 if i == j else (rng.randrange(p) if j > i else 0)
                   for j in range(n)] for i in range(n)]).T
    U_inv = np.eye(n, dtype=np.int64)
    N = (np.eye(n, dtype=np.int64) - U) % p
    acc = np.eye(n, dtype=np.int64)
    for _ in range(n):
        acc = acc @ N % p
        U_inv = (U_inv + acc) % p
    return U @ T @ U_inv % p


class TestFrobeniusSplit:
    # sympy's own factor_list sorts modular integers with a deprecated compare
    @pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")
    def test_poly_idempotents_match_sympy_factorization(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        seen = {"non_squarefree": 0, "factor_degree_2_plus": 0, "inputs": 0}
        for p in (2, 3, 5, 7, 13, 17):
            for n in (2, 3, 4, 5):
                alg = full_matrix_algebra_fp(p, n)
                for _ in range(25):
                    x = _random_poly_input(p, n, rng)
                    expected, degrees = _crt_idempotents(sympy, p, x)
                    got = [_key(e) for e in _poly_idempotents(alg, x)]
                    seen["inputs"] += 1
                    if expected is None:
                        seen["non_squarefree"] += 1
                        assert got == []
                        continue
                    seen["factor_degree_2_plus"] += max(degrees) >= 2
                    assert len(got) == len(set(got)) and set(got) == expected
        assert seen["inputs"] >= 500
        assert seen["non_squarefree"] >= 100
        assert seen["factor_degree_2_plus"] >= 100

    @staticmethod
    def _brute_force_primitives(alg):
        center = FiniteAlgebra(
            alg.p, alg.n, alg.subspace_basis(compute_center(alg)), unital=False
        )
        idempotents = [
            z for z in center.iter_elements()
            if np.any(z) and np.array_equal(alg.mul(z, z), z)
        ]
        return {
            _key(e)
            for e in idempotents
            if not any(
                not np.array_equal(f, e) and np.array_equal(alg.mul(e, f), f)
                for f in idempotents
            )
        }

    @staticmethod
    def _block_diagonal(p, sizes):
        n = sum(sizes)
        basis, offset = [], 0
        for size in sizes:
            for i in range(size):
                for j in range(size):
                    E = np.zeros((n, n), dtype=np.int64)
                    E[offset + i, offset + j] = 1
                    basis.append(E)
            offset += size
        return FiniteAlgebra(p, n, basis)

    @staticmethod
    def _upper_triangular(p, n):
        basis = []
        for i in range(n):
            for j in range(i, n):
                E = np.zeros((n, n), dtype=np.int64)
                E[i, j] = 1
                basis.append(E)
        return FiniteAlgebra(p, n, basis)

    def _assert_matches_brute_force(self, alg):
        got = [_key(e) for e in _central_primitive_idempotents(alg)]
        assert len(got) == len(set(got))
        assert set(got) == self._brute_force_primitives(alg)

    def test_center_split_on_block_diagonal_algebras(self):
        for p in (2, 3, 5):
            for sizes in ((2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)):
                self._assert_matches_brute_force(self._block_diagonal(p, sizes))

    def test_center_split_on_upper_triangular_algebras(self):
        for p in (2, 3, 5):
            for n in (2, 3):
                self._assert_matches_brute_force(self._upper_triangular(p, n))

    def test_center_split_on_dual_numbers(self):
        for p in (2, 3, 5, 7):
            self._assert_matches_brute_force(dual_numbers(p)[0])

    def test_center_split_on_polynomial_algebras(self):
        rng = random.Random(62)
        for p in (2, 3, 5):
            for n in (2, 3, 4):
                for _ in range(8):
                    x = _random_poly_input(p, n, rng)
                    powers = [np.linalg.matrix_power(x, k) % p for k in range(n)]
                    alg = full_matrix_algebra_fp(p, n)
                    self._assert_matches_brute_force(
                        FiniteAlgebra(p, n, alg.subspace_basis(powers))
                    )

    def test_center_split_without_identity(self):
        # F_p E_00 inside 2x2 matrices: the split of 1 leaves E_11 outside
        E00 = np.array([[1, 0], [0, 0]], dtype=np.int64)
        for p in (2, 3, 5):
            alg = FiniteAlgebra(p, 2, [E00], unital=False)
            assert [_key(e) for e in _central_primitive_idempotents(alg)] == [_key(E00)]

    def test_non_central_split_is_not_certified(self, monkeypatch):
        alg = full_matrix_algebra_fp(3, 2)
        E00 = np.array([[1, 0], [0, 0]], dtype=np.int64)
        monkeypatch.setattr(reduction, "_frobenius_split", lambda alg, C: [E00])
        with pytest.raises(CertificationFailed, match="not an idempotent of the center"):
            _central_primitive_idempotents(alg)
