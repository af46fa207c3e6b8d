"""Residue reduction, unit-ball lattices, annihilators, Baer classification."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fp_reference import (
    canonical_subspace,
    dedekind_finite_spotcheck,
    intersect_subspaces,
    reference_annihilators,
    reference_close,
)
from padicops import crossed, fpalg, reduction
from padicops.charduals import TruncatedGroup
from padicops.crossed import build_algebras
from padicops.errors import CertificationFailed, NotInUnitBall
from padicops.padic import PadicScalar
from padicops.reduction import (
    FiniteAlgebra,
    _central_primitive_idempotents,
    _poly_idempotents,
    classify_type,
    compute_center,
    dedekind_finite,
    is_baer,
    left_annihilator,
    reduce_algebra,
    reduce_matrix,
    verify_crossed_reduction,
)
from padicops.report import all_passed
from padicops.ultralinalg import KMatrix, MatrixAlgebra, algebra_span, is_orthonormal
from test_crossed import ORACLE_CONFIGS, reference_coefficients


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


def _gorenstein_algebra(p):
    """F_p[x, y, z]/(xy, xz, yz, x^2 - y^2, x^2 - z^2), basis 1, x, y, z, w.

    Given by its regular representation: basis element i acts on the
    coordinates of the basis by left multiplication (w = x^2 = y^2 = z^2).
    """
    products = {(i, i): 4 for i in (1, 2, 3)}
    products.update({(0, j): j for j in range(5)})
    products.update({(j, 0): j for j in range(5)})
    basis = []
    for i in range(5):
        L = np.zeros((5, 5), dtype=np.int64)
        for j in range(5):
            if (i, j) in products:
                L[products[i, j], j] = 1
        basis.append(L)
    return FiniteAlgebra(p, 5, basis)


def _closure_algebra():
    """I, E01, E02, E03, E13, E23 + E33 over F_2.

    One of its annihilators is the intersection of two others and the
    annihilator of no single element.
    """
    p, n = 2, 4
    basis = [np.eye(n, dtype=np.int64)]
    for cells in [[(0, 1)], [(0, 2)], [(0, 3)], [(1, 3)], [(2, 3), (3, 3)]]:
        B = np.zeros((n, n), dtype=np.int64)
        for cell in cells:
            B[cell] = 1
        basis.append(B)
    return FiniteAlgebra(p, n, basis)


def _random_subalgebra(p, n, rng):
    """Unital subalgebra of M_n(F_p) generated by one to four random matrices.

    A generator is, with even odds, one or two matrix units (off the
    diagonal seven times in ten, then above it) or a random matrix of
    density 0.15, 0.3 or 0.5, upper triangular half the time.  The span
    of I and the generators grows by products until it is closed.
    """
    rows = [np.eye(n, dtype=np.int64).reshape(-1)]
    for _ in range(rng.randint(1, 4)):
        M = np.zeros((n, n), dtype=np.int64)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.7:
                    M[tuple(sorted(rng.sample(range(n), 2)))] = 1
                else:
                    M[(rng.randrange(n),) * 2] = 1
        else:
            density = rng.choice([0.15, 0.3, 0.5])
            upper = rng.random() < 0.5
            for i, j in itertools.product(range(n), repeat=2):
                if (not upper or j >= i) and rng.random() < density:
                    M[i, j] = rng.randrange(p)
        rows.append(M.reshape(-1))
    while True:
        R, pivots = fpalg.rref(np.array(rows), p)
        basis = R[: len(pivots)]
        mats = basis.reshape(-1, n, n)
        products = (mats[:, None] @ mats[None]).reshape(-1, n * n) % p
        if fpalg.rank(np.vstack([basis, products]), p) == len(basis):
            return FiniteAlgebra(p, n, list(mats))
        rows = [*basis, *products]


def _random_subalgebras(count, seed):
    """count seeded random subalgebras of M_n(F_p), p in {2, 3}, n <= 4.

    Those of dimension below 3 are skipped as trivial, and those with
    more than 256 elements to keep the per-element reference quick.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, n = rng.choice([2, 3]), rng.randint(2, 4)
        alg = _random_subalgebra(p, n, rng)
        if alg.dimension >= 3 and p**alg.dimension <= 256:
            out.append(alg)
    return out


def _fixpoint_closure(alg):
    """(number of single-element annihilators, closure under intersection).

    One annihilator per element, then every ordered pair until nothing
    new appears.
    """
    closure = reference_annihilators(alg, alg.iter_elements())
    singles = len(closure)
    grown = True
    while grown:
        grown = False
        for L1 in list(closure.values()):
            for L2 in list(closure.values()):
                inter = intersect_subspaces(alg, L1, L2)
                key = canonical_subspace(alg, inter)
                if key not in closure:
                    closure[key] = inter
                    grown = True
    return singles, closure


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

    @pytest.mark.parametrize("p", [3, 5])
    def test_closure_is_decided_by_basis_products(self, p):
        def unit(i, j):
            E = np.zeros((2, 2), dtype=np.int64)
            E[i, j] = 1
            return E

        assert full_matrix_algebra_fp(p, 2).is_closed()
        # E12 E21 = E11 is not in span{I, E12, E21}
        assert not FiniteAlgebra(p, 2, [np.eye(2), unit(0, 1), unit(1, 0)]).is_closed()
        # span{E11} is closed under products but does not contain I
        assert FiniteAlgebra(p, 2, [unit(0, 0)], unital=False).is_closed()
        assert not FiniteAlgebra(p, 2, [unit(0, 0)], unital=True).is_closed()

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

    def test_closure_reaches_intersections_of_annihilators(self):
        # the closure of the element annihilators has one intersection
        # more, and by Small's theorem is_baer need not test it: it tests
        # the 11 element annihilators and fails where the closure does
        alg = _closure_algebra()
        singles, closure = _fixpoint_closure(alg)
        report = is_baer(alg, mode="exhaustive")
        assert (singles, len(closure)) == (11, 12)
        assert report.detail["annihilators_tested"] == singles
        assert report.is_baer is False
        assert _reference_report(alg, closure)[::2] == (False, _listed(report))

    def test_closure_needs_an_intersection_with_an_intersection(self):
        # the local algebra F_2[x, y, z]/(xy, xz, yz, x^2 - y^2, x^2 - z^2):
        # for s = ax + by + cz + dw (w = x^2), ann(s) is w plus the part of
        # span{x, y, z} orthogonal to (a, b, c), so the socle span{w} is the
        # intersection of three annihilators and of no two: the closure
        # must also intersect the intersections it finds, and is_baer,
        # which tests the 10 element annihilators, fails where it does
        alg = _gorenstein_algebra(2)
        singles, closure = _fixpoint_closure(alg)
        originals = list(reference_annihilators(alg, alg.iter_elements()).values())
        pairwise = {
            canonical_subspace(alg, intersect_subspaces(alg, A, B))
            for i, A in enumerate(originals)
            for B in originals[i + 1 :]
        }
        socle = canonical_subspace(alg, [alg.basis[4]])
        assert (singles, len(closure)) == (10, 18)
        assert socle in closure and socle not in pairwise
        report = is_baer(alg, mode="exhaustive")
        assert report.detail["annihilators_tested"] == singles
        assert report.is_baer is False
        assert _reference_report(alg, closure)[::2] == (False, _listed(report))

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
        algebras = [full_matrix_algebra_fp(3, 2), dual_numbers(3)[0]]
        algebras += [_upper_triangular_fp(5, 3), _gorenstein_algebra(3)]
        for alg in algebras:
            assert dedekind_finite(alg) is True
            assert dedekind_finite_spotcheck(alg, trials=50)

    def test_dedekind_finiteness_needs_a_unital_closed_algebra(self):
        _, N = dual_numbers(3)
        with pytest.raises(ValueError, match="not unital"):
            dedekind_finite(FiniteAlgebra(3, 2, [N], unital=False))
        E12 = np.array([[0, 1], [0, 0]], dtype=np.int64)
        E21 = E12.T.copy()
        with pytest.raises(ValueError, match="not closed"):
            dedekind_finite(FiniteAlgebra(3, 2, [np.eye(2, dtype=np.int64), E12, E21]))


def _upper_triangular_fp(p, n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    basis = []
    for cell in cells:
        E = np.zeros((n, n), dtype=np.int64)
        E[cell] = 1
        basis.append(E)
    return FiniteAlgebra(p, n, basis)


ORACLE_ALGEBRAS = {
    "M2(F3)": lambda: full_matrix_algebra_fp(3, 2),
    "M2(F5)": lambda: full_matrix_algebra_fp(5, 2),
    "dual(F3)": lambda: dual_numbers(3)[0],
    "dual(F5)": lambda: dual_numbers(5)[0],
    "T2(F3)": lambda: _upper_triangular_fp(3, 2),
    "gorenstein(F3)": lambda: _gorenstein_algebra(3),
}


def _reference_report(alg, seen):
    """(is_baer, annihilators_tested, failing annihilator) from a seen dict."""
    for L in seen.values():
        if reduction._annihilator_generated_by_idempotent(alg, L) is None:
            return False, len(seen), [x.tolist() for x in L]
    return True, len(seen), None


def _listed(report):
    """The report's failing annihilator as nested lists, or None."""
    failing = report.failing_annihilator
    return None if failing is None else [x.tolist() for x in failing]


def _assert_same_search(alg, seen, reference, report):
    """seen and report against one annihilator per element, in order.

    The verdict and witness are also those of the first failure in the
    closure of the reference under intersection.
    """
    assert [canonical_subspace(alg, L) for L in seen.values()] == list(reference)
    for L, M in zip(seen.values(), reference.values()):
        assert [x.tolist() for x in L] == [x.tolist() for x in M]
    assert _reference_report(alg, reference) == (
        report.is_baer,
        report.detail["annihilators_tested"],
        _listed(report),
    )
    closed = dict(reference)
    reference_close(alg, closed)
    assert _reference_report(alg, closed)[::2] == (report.is_baer, _listed(report))


class TestBaerSearchAgainstEveryElement:
    """The stacked search against one annihilator per element."""

    @pytest.mark.parametrize("entries", [1, 50, reduction._STACK_ENTRIES])
    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_line_representatives_match_all_elements(self, name, entries, monkeypatch):
        # entries = 1 puts each element in its own chunk
        monkeypatch.setattr(reduction, "_STACK_ENTRIES", entries)
        alg = ORACLE_ALGEBRAS[name]()
        reference = reference_annihilators(alg, alg.iter_elements())
        seen = reduction._element_annihilators(alg, "exhaustive", 0, 0)
        _assert_same_search(alg, seen, reference, is_baer(alg, mode="exhaustive"))

    @pytest.mark.parametrize("p, dim", [(2, 1), (2, 5), (3, 3), (5, 2), (17, 1)])
    def test_representatives_are_first_on_their_lines(self, p, dim):
        everything = [tuple(c[::-1]) for c in itertools.product(range(p), repeat=dim)]
        first, lines = [], set()
        for c in everything:
            line = frozenset(tuple(k * x % p for x in c) for k in range(1, p))
            if line not in lines:
                lines.add(line)
                first.append(c)
        chunks = list(reduction._line_representatives(p, dim, 3))
        assert all(1 <= len(chunk) <= 3 for chunk in chunks)
        got = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert got == first
        assert len(got) == (p**dim - 1) // (p - 1) + 1

    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_sampled_mode_matches_per_element_loop(self, name, monkeypatch):
        monkeypatch.setattr(reduction, "_STACK_ENTRIES", 64)
        alg = ORACLE_ALGEBRAS[name]()
        rng = random.Random(7)
        elements = list(alg.basis) + [
            alg.element([rng.randrange(alg.p) for _ in range(alg.dimension)])
            for _ in range(25)
        ]
        reference = reference_annihilators(alg, elements)
        seen = reduction._element_annihilators(alg, "sampled", 25, 7)
        report = is_baer(alg, mode="sampled", n_samples=25, seed=7)
        assert report.search_mode == "sampled"
        _assert_same_search(alg, seen, reference, report)

    def test_sampled_mode_on_full_matrices_over_f5(self):
        alg = full_matrix_algebra_fp(5, 3)
        rng = random.Random(3)
        elements = list(alg.basis) + [
            alg.element([rng.randrange(5) for _ in range(alg.dimension)])
            for _ in range(40)
        ]
        reference = reference_annihilators(alg, elements)
        report = is_baer(alg, mode="sampled", n_samples=40, seed=3)
        seen = reduction._element_annihilators(alg, "sampled", 40, 3)
        _assert_same_search(alg, seen, reference, report)


THEOREM_SETS = {
    "oracle": lambda: [build() for _, build in sorted(ORACLE_ALGEBRAS.items())],
    "closure": lambda: [_closure_algebra(), _gorenstein_algebra(2)],
    "random": lambda: _random_subalgebras(200, seed=12),
}


class TestSmallTheorem:
    """Element annihilators decide Baer as their closure under intersection does.

    A p.p. ring with no infinite set of orthogonal idempotents is Baer, so
    exhaustive is_baer fails exactly on the first annihilator of the
    closed per-element reference that no idempotent generates.
    """

    @pytest.mark.parametrize("name", sorted(THEOREM_SETS))
    def test_verdict_and_witness_match_the_closed_reference(self, name):
        algebras = THEOREM_SETS[name]()
        verdicts = []
        for alg in algebras:
            closed = reference_annihilators(alg, alg.iter_elements())
            singles = len(closed)
            reference_close(alg, closed)
            report = is_baer(alg, mode="exhaustive")
            assert report.detail["annihilators_tested"] == singles
            assert _reference_report(alg, closed)[::2] == (report.is_baer, _listed(report))
            verdicts.append(report.is_baer)
        if name == "random":
            assert len(algebras) >= 200
            assert verdicts.count(False) >= 50


class TestCrossedReduction:
    def test_small_free_configuration(self):
        results = verify_crossed_reduction(TruncatedGroup(2, 1, 1, 3))
        assert all_passed(results), [r.name for r in results if not r.passed]

    @pytest.mark.parametrize(
        "config", ORACLE_CONFIGS, ids=[",".join(map(str, c)) for c in ORACLE_CONFIGS]
    )
    def test_derived_checks_match_computed_oracles(self, config):
        """The support and multiplicativity verdicts against the d^2 loop.

        The oracle conjugates each lattice basis element into its block
        form, tests its blocks off the G0-cosets, reads its coefficients
        block by block, and extracts the coefficients of each of the d^2
        products of block forms.
        """
        p, l, k, j = config
        grp = TruncatedGroup(l, k, j, p)
        results = {r.name: r.passed for r in verify_crossed_reduction(grp)}
        lattice, _ = reduce_algebra(build_algebras(grp).RJ)
        hats = [crossed.block_form(grp, B) for B in lattice.basis]
        off_cosets = [
            (m, n)
            for m in range(grp.order)
            for n in range(grp.order)
            if not grp.in_g0(m - n)
        ]
        blocks = [crossed._blocks(grp, h) for h in hats]
        support = all(bl[m][n].is_zero() for bl in blocks for m, n in off_cosets)
        assert results["coefficients_vanish_off_G0_cosets"] == support
        coeffs = [reference_coefficients(grp, h) for h in hats]
        assert all(b is not None for b in coeffs)
        multiplicative = True
        for h1, b1 in zip(hats, coeffs):
            for h2, b2 in zip(hats, coeffs):
                product = reference_coefficients(grp, h1 @ h2)
                if product is None or not product.equals(b1 @ b2):
                    multiplicative = False
        assert results["coefficient_map_is_multiplicative"] == multiplicative

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
                self._assert_matches_brute_force(_upper_triangular_fp(p, n))

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
