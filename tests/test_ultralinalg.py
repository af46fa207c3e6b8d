"""Matrix algebra over Q_p: norms, orthonormality, spans, commutants."""

import math
import random
from fractions import Fraction

import pytest

from padicops import ultralinalg
from padicops.errors import PrecisionLoss
from padicops.padic import PadicScalar, teichmuller_root
from padicops.ultralinalg import (
    Echelon,
    KMatrix,
    MatrixAlgebra,
    algebra_span,
    center,
    commutant,
    is_orthonormal,
    operator_norm,
    parse_matrix,
    vec_norm_exponent,
)


def random_matrix(p, n, rng, vrange=(0, 2)):
    return KMatrix(
        p,
        [
            [
                PadicScalar.from_rational(
                    p, Fraction(rng.randint(1, 4 * p)) * Fraction(p) ** rng.randint(*vrange)
                )
                if rng.random() < 0.8
                else PadicScalar.zero(p)
                for _ in range(n)
            ]
            for _ in range(n)
        ],
    )


def reference_algebra_span(generators, n):
    """All-pairs closure: multiply every new element by the whole basis,
    on both sides, until the dimension stabilizes."""
    p = generators[0].p
    ech = Echelon(p)
    basis = []

    def try_add(M):
        if ech.insert(M.as_sparse_vector()):
            basis.append(M)
            return True
        return False

    try_add(KMatrix.identity(p, n))
    for G in generators:
        try_add(G)
    frontier = list(basis)
    while frontier:
        new = []
        for A in frontier:
            for B in basis[:]:
                for M in (A @ B, B @ A):
                    if try_add(M):
                        new.append(M)
        frontier = new
    return MatrixAlgebra(p, n, basis)


def reference_center(alg):
    """Center by the commutator system: X = sum c_i B_i with X B - B X = 0
    for every basis element B, one product pair per ordered basis pair."""
    p, n = alg.p, alg.n
    d = len(alg.basis)
    ech = Echelon(p)
    for B in alg.basis:
        vecs = [((Bi @ B) - (B @ Bi)).as_vector() for Bi in alg.basis]
        for j in range(n * n):
            row = {i: vecs[i][j] for i in range(d) if not vecs[i][j].is_zero()}
            if row:
                ech.insert(row)
    basis = []
    for coeffs in ech.nullspace(d):
        M = KMatrix.zeros(p, n)
        for c, Bi in zip(coeffs, alg.basis):
            if not c.is_zero():
                M = M + Bi.scale(c)
        basis.append(M)
    return MatrixAlgebra(p, n, basis)


def elimination_commutant(generators, n, monkeypatch):
    """commutant() with the monomial test switched off, so that it row
    reduces the n^2 equations however sparse the generators are."""
    with monkeypatch.context() as patch:
        patch.setattr(ultralinalg, "_monomial", lambda G: None)
        return commutant(generators, n)


def dense_product(p, a, b):
    """Product of dense grids: every entry scanned, operands that are zero
    to precision skipped, each sum started from an exact zero."""
    zero = PadicScalar.zero(p)
    out = [[zero] * len(b[0]) for _ in a]
    for i, arow in enumerate(a):
        for t, x in enumerate(arow):
            if x.is_zero():
                continue
            for j, y in enumerate(b[t]):
                if not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def same_scalar(x, y):
    """Same kind and the same stored value, precision included."""
    return (x.kind, x.frac, x.v, x.unit, x.N, x.bound) == (
        y.kind, y.frac, y.v, y.unit, y.N, y.bound
    )


def random_mixed_scalar(p, rng, N=6):
    """Exact zero, exact nonzero, capped unit or capped zero."""
    r = rng.random()
    if r < 0.3:
        return PadicScalar.zero(p)
    if r < 0.55:
        value = Fraction(rng.randint(-4 * p, 4 * p) or 1)
        return PadicScalar.from_rational(p, value * Fraction(p) ** rng.randint(-1, 2))
    if r < 0.85:
        unit = rng.randrange(1, p**N)
        unit += unit % p == 0
        return PadicScalar.capped(p, rng.randint(-1, 2), unit, rng.randint(1, N))
    return PadicScalar.capped_zero(p, rng.randint(-1, 3))


def unit_matrices(p, n):
    units = []
    for i in range(n):
        for j in range(n):
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            units.append(KMatrix.from_int_rows(p, rows))
    return units


class TestOperatorNorm:
    def test_examples(self):
        p = 5
        A = KMatrix.from_int_rows(p, [[1, 5], [0, 25]])
        assert operator_norm(A) == 0
        B = parse_matrix(p, [["1/5", "0"], ["0", "1"]])
        assert operator_norm(B) == -1
        assert operator_norm(KMatrix.zeros(p, 2)) == math.inf

    def test_submultiplicative_random(self):
        rng = random.Random(5)
        p = 3
        for _ in range(500):
            A = random_matrix(p, 3, rng, vrange=(-1, 2))
            B = random_matrix(p, 3, rng, vrange=(-1, 2))
            eA, eB, eAB = operator_norm(A), operator_norm(B), operator_norm(A @ B)
            # ||AB|| <= ||A|| ||B|| reads eAB >= eA + eB in valuation exponents
            assert eAB >= eA + eB

    def test_norm_is_max_over_basis_vectors(self):
        rng = random.Random(6)
        p = 5
        for _ in range(50):
            n = rng.randint(2, 4)
            A = random_matrix(p, n, rng, vrange=(-2, 2))
            col_exponents = [
                vec_norm_exponent([A.entry(i, j) for i in range(n)])
                for j in range(n)
            ]
            assert operator_norm(A) == min(col_exponents)

    def test_norm_dominates_random_vectors(self):
        rng = random.Random(7)
        p = 5
        for _ in range(200):
            n = rng.randint(2, 4)
            A = random_matrix(p, n, rng, vrange=(-2, 2))
            x = [
                PadicScalar.from_rational(
                    p, Fraction(rng.randint(1, 4 * p), rng.randint(1, 4))
                )
                for _ in range(n)
            ]
            ex = vec_norm_exponent(x)
            eAx = vec_norm_exponent(A.apply(x))
            # ||Ax|| <= ||A|| ||x||
            assert eAx >= operator_norm(A) + ex


class TestOrthonormality:
    def test_independent_reductions_accepted(self):
        p = 5
        v1 = [PadicScalar.from_int(p, 1), PadicScalar.from_int(p, 2)]
        v2 = [PadicScalar.from_int(p, 2), PadicScalar.from_int(p, 1)]
        assert is_orthonormal([v1, v2])

    def test_dependent_reductions_rejected(self):
        # (2, -1) reduces to (2, 4) = 2 * (1, 2) mod 5: dependent, so the
        # family fails both the residue criterion and the norm definition
        p = 5
        v1 = [PadicScalar.from_int(p, 1), PadicScalar.from_int(p, 2)]
        v2 = [PadicScalar.from_int(p, 2), PadicScalar.from_int(p, -1)]
        assert not is_orthonormal([v1, v2])
        # witness: 1*v1 + 2*v2 = (5, 0) has norm 1/5 < max norm 1
        two = PadicScalar.from_int(p, 2)
        witness = [v1[i] + two * v2[i] for i in range(2)]
        assert vec_norm_exponent(witness) > 0

    def test_definition_on_random_coefficients(self):
        rng = random.Random(8)
        p = 5
        v1 = [PadicScalar.from_int(p, c) for c in (1, 2, 0)]
        v2 = [PadicScalar.from_int(p, c) for c in (2, 1, 1)]
        v3 = [PadicScalar.from_int(p, c) for c in (0, 0, 3)]
        family = [v1, v2, v3]
        assert is_orthonormal(family)
        for _ in range(100):
            coeffs = []
            for _ in family:
                u = rng.randint(1, 4 * p)
                while u % p == 0:
                    u = rng.randint(1, 4 * p)
                coeffs.append(
                    PadicScalar.from_rational(
                        p, Fraction(u) * Fraction(p) ** rng.randint(-2, 2)
                    )
                )
            combo = [PadicScalar.zero(p)] * 3
            for c, v in zip(coeffs, family):
                combo = [combo[i] + c * v[i] for i in range(3)]
            assert vec_norm_exponent(combo) == min(c.valuation() for c in coeffs)


class TestAlgebraSpan:
    def test_generator_order_independence(self):
        rng = random.Random(9)
        p = 3
        gens = [random_matrix(p, 3, rng) for _ in range(3)]
        a1 = algebra_span(gens, 3)
        a2 = algebra_span(list(reversed(gens)), 3)
        assert a1.equals(a2)
        assert a1.is_closed()


class TestCommutant:
    def test_full_matrix_algebra_commutant_is_scalars(self):
        p = 3
        units = []
        for i in range(2):
            for j in range(2):
                rows = [[0, 0], [0, 0]]
                rows[i][j] = 1
                units.append(KMatrix.from_int_rows(p, rows))
        comm = commutant(units, 2)
        assert comm.dimension == 1
        assert comm.contains(KMatrix.identity(p, 2))

    def test_commutative_algebra_inside_own_commutant(self):
        p = 5
        D = KMatrix.from_int_rows(p, [[1, 0], [0, 2]])
        comm = commutant([D], 2)
        assert comm.dimension == 2
        assert comm.contains(D)

    def test_double_commutant_monotone(self):
        rng = random.Random(11)
        p = 3
        gens = [random_matrix(p, 3, rng) for _ in range(2)]
        double = commutant(commutant(gens, 3).basis, 3)
        for G in gens:
            assert double.contains(G)

    def test_center_of_full_matrix_algebra(self):
        p = 3
        units = []
        for i in range(2):
            for j in range(2):
                rows = [[0, 0], [0, 0]]
                rows[i][j] = 1
                units.append(KMatrix.from_int_rows(p, rows))
        alg = MatrixAlgebra(p, 2, units)
        z = center(alg, commutant(alg.basis, 2))
        assert z.dimension == 1


class TestCenterAsIntersection:
    def test_intersection_with_itself(self):
        rng = random.Random(21)
        p = 5
        alg = algebra_span([random_matrix(p, 3, rng)], 3)
        assert center(alg, alg).equals(alg)

    def test_contained_subspace_is_the_intersection(self):
        p = 3
        full = MatrixAlgebra(p, 3, unit_matrices(p, 3))
        D = KMatrix.from_int_rows(p, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
        small = algebra_span([D], 3)
        assert center(small, full).equals(small)
        assert center(full, small).equals(small)

    def test_trivial_intersection(self):
        p = 5
        E11, _, _, E22 = unit_matrices(p, 2)
        z = center(MatrixAlgebra(p, 2, [E11]), MatrixAlgebra(p, 2, [E22]))
        assert z.dimension == 0 and z.basis == []

    def test_partial_intersection(self):
        p = 7
        E11, E12, E21, E22 = unit_matrices(p, 2)
        A = MatrixAlgebra(p, 2, [E11, E12 + E21])
        B = MatrixAlgebra(p, 2, [E11 + E22, E12 + E21, E22])
        z = center(A, B)
        assert z.equals(MatrixAlgebra(p, 2, [E11, E12 + E21]))

    def test_matches_commutator_oracle_on_random_algebras(self):
        rng = random.Random(23)
        for p, n, count in [(3, 2, 1), (3, 3, 1), (5, 3, 2), (5, 2, 2), (7, 4, 1)]:
            gens = [random_matrix(p, n, rng) for _ in range(count)]
            alg = algebra_span(gens, n)
            z = center(alg, commutant(gens, n))
            assert z.equals(reference_center(alg)), (p, n, count)
            for C in z.basis:
                assert alg.contains(C)
                assert all((C @ G).equals(G @ C) for G in gens)

    def test_matches_commutator_oracle_on_block_diagonal_algebra(self):
        # M_2 (+) K: a center of dimension 2 that is neither all nor scalars
        p = 5

        def embed(M, c):
            return KMatrix.from_int_rows(
                p, [[M[0][0], M[0][1], 0], [M[1][0], M[1][1], 0], [0, 0, c]]
            )

        gens = [embed([[1, 1], [0, 2]], 3), embed([[0, 0], [1, 0]], 0)]
        alg = algebra_span(gens, 3)
        z = center(alg, commutant(gens, 3))
        assert (alg.dimension, z.dimension) == (5, 2)
        assert z.equals(reference_center(alg))


class TestSpanByGenerators:
    def test_matches_all_pairs_oracle_on_random_generators(self):
        rng = random.Random(29)
        for p, n, count, vrange in [
            (3, 2, 1, (0, 2)),
            (3, 3, 2, (0, 2)),
            (5, 3, 1, (-1, 2)),
            (5, 4, 2, (0, 1)),
            (7, 3, 3, (0, 2)),
        ]:
            gens = [random_matrix(p, n, rng, vrange) for _ in range(count)]
            alg = algebra_span(gens, n)
            assert alg.equals(reference_algebra_span(gens, n)), (p, n, count)
            assert alg.is_closed()

    def test_sparse_generators(self):
        p = 5
        E11, E12, _, _ = unit_matrices(p, 2)
        nilpotent = algebra_span([E12], 2)
        assert nilpotent.dimension == 2
        assert nilpotent.equals(reference_algebra_span([E12], 2))
        upper = algebra_span([E11, E12], 2)
        assert upper.dimension == 3
        assert upper.equals(reference_algebra_span([E11, E12], 2))


class TestSparseRows:
    def test_capped_zero_below_certified_minimum_raises(self):
        p = 5
        zero, exact = PadicScalar.zero(p), PadicScalar.from_int(p, 25)
        low = KMatrix(p, [[exact, zero], [PadicScalar.capped_zero(p, 1), zero]])
        with pytest.raises(PrecisionLoss):
            operator_norm(low)
        high = KMatrix(p, [[exact, zero], [PadicScalar.capped_zero(p, 2), zero]])
        assert operator_norm(high) == 2

    def test_capped_zero_from_cancellation_is_kept(self):
        p = 5
        U = KMatrix(p, [[PadicScalar.capped(p, 0, 7, 3)]])
        D = KMatrix.from_int_rows(p, [[p**5]])
        cancelled = U - U
        assert [a.kind for a in cancelled.values()] == ["zero"]
        with pytest.raises(PrecisionLoss):
            operator_norm(cancelled + D)

    def test_capped_zeros_count_as_zero(self):
        p = 7
        zero = PadicScalar.zero(p)
        Z = KMatrix(
            p,
            [
                [PadicScalar.capped_zero(p, 2), zero],
                [zero, PadicScalar.capped_zero(p, -1)],
            ],
        )
        assert len(list(Z.values())) == 2
        assert Z.is_zero()
        assert Z.equals(KMatrix.zeros(p, 2))
        assert KMatrix.zeros(p, 2).equals(Z)
        A = KMatrix.from_int_rows(p, [[1, 2], [0, 3]])
        assert (A + Z).equals(A)
        assert not (A + Z).is_zero()

    def test_exact_zeros_are_not_stored(self):
        p = 3
        A = KMatrix.from_int_rows(p, [[1, 0], [0, 0]])
        assert A.data == [{0: A.entry(0, 0)}, {}]
        assert (A - A).data == [{}, {}]
        assert A.scale(PadicScalar.zero(p)).data == [{}, {}]
        assert A.entry(1, 1).is_exact_zero()

    def test_sum_of_different_shapes_is_rejected(self):
        p = 3
        A = KMatrix.from_int_rows(p, [[1, 2, 3], [4, 5, 6]])
        B = KMatrix.from_int_rows(p, [[1, 2], [3, 4], [5, 6]])
        wide = KMatrix.from_int_rows(p, [[1, 2, 3, 4], [5, 6, 7, 8]])
        for X, Y in ((A, B), (B, A), (A, wide), (wide, A)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                X + Y
            with pytest.raises(ValueError, match="dimension mismatch"):
                X - Y
            with pytest.raises(ValueError, match="dimension mismatch"):
                X.equals(Y)
        assert (A + A).equals(A.scale(PadicScalar.from_int(p, 2)))

    def test_arithmetic_matches_dense_oracle(self):
        rng = random.Random(31)
        for p in (3, 5):
            for _ in range(60):
                n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
                a = [[random_mixed_scalar(p, rng) for _ in range(m)] for _ in range(n)]
                b = [[random_mixed_scalar(p, rng) for _ in range(k)] for _ in range(m)]
                c = [[random_mixed_scalar(p, rng) for _ in range(m)] for _ in range(n)]
                A, B, C = KMatrix(p, a), KMatrix(p, b), KMatrix(p, c)
                # rows whose columns are stored out of order sum in another
                # order; sums of scalars do not depend on it
                shuffled = KMatrix.from_rows(
                    p, [dict(rng.sample(list(r.items()), len(r))) for r in A.data], m
                )
                want = dense_product(p, a, b)
                for product in (A @ B, shuffled @ B):
                    for i in range(n):
                        for j in range(k):
                            assert same_scalar(product.entry(i, j), want[i][j]), (i, j)
                total = A + C
                for i in range(n):
                    for j in range(m):
                        assert same_scalar(total.entry(i, j), a[i][j] + c[i][j])


class TestOrbitalCommutant:
    def test_monomial_detection(self):
        p = 5

        def monomial(grid):
            return ultralinalg._monomial(KMatrix.from_int_rows(p, grid))

        sigma, g = monomial([[0, 2], [3, 0]])
        assert sigma == [1, 0] and [x.frac for x in g] == [2, 3]
        assert monomial([[1, 1], [0, 1]]) is None  # two entries in a row
        assert monomial([[1, 0], [1, 0]]) is None  # a repeated column
        assert monomial([[1, 0], [0, 0]]) is None  # an empty row
        zero, one = PadicScalar.zero(p), PadicScalar.one(p)
        capped_zero = KMatrix(p, [[one, zero], [zero, PadicScalar.capped_zero(p, 3)]])
        assert ultralinalg._monomial(capped_zero) is None

    def test_inconsistent_cycle_forces_zero(self):
        # X diag(1, -1) = diag(1, -1) X forces X[0,1] = -X[0,1] = 0
        p = 5
        comm = commutant([KMatrix.from_int_rows(p, [[1, 0], [0, -1]])], 2)
        E11, _, _, E22 = unit_matrices(p, 2)
        assert comm.dimension == 2
        assert comm.equals(MatrixAlgebra(p, 2, [E11, E22]))

    def test_matches_elimination_on_random_monomial_generators(self, monkeypatch):
        rng = random.Random(37)
        p = 5
        zeta = teichmuller_root(p, 4, 8)
        weights = [
            PadicScalar.one(p),
            PadicScalar.from_int(p, -1),
            PadicScalar.from_int(p, 3),
            zeta,
            zeta * zeta * zeta,
        ]
        dims = set()
        for _ in range(40):
            n = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(1, 3)):
                sigma = list(range(n))
                rng.shuffle(sigma)
                rows = [[PadicScalar.zero(p)] * n for _ in range(n)]
                for i in range(n):
                    rows[i][sigma[i]] = rng.choice(weights)
                gens.append(KMatrix(p, rows))
            orbital = commutant(gens, n)
            assert orbital.equals(elimination_commutant(gens, n, monkeypatch))
            for X in orbital.basis:
                assert all((X @ G).equals(G @ X) for G in gens)
            dims.add((n, orbital.dimension))
        assert len(dims) > 10
