"""Crossed-product operators, commutation theorem, structured idempotents."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicops import crossed
from padicops.charduals import TruncatedGroup, fourier_analyze
from padicops.cli import _random_structured
from padicops.crossed import (
    StructuredCommutantElement,
    build_algebras,
    build_operator,
    eta,
    extract_block_coefficients,
    grid_to_vec,
    idempotent_check,
    matrix_blocks,
    matrix_from_blocks,
    nu_basis,
    nu_block_change,
    point_index,
    space_dim,
    verify_commutation_theorem,
    verify_operator_identities,
)
from padicops.errors import CertificationFailed, IndexNotInG0
from padicops.padic import PadicScalar
from padicops.reduction import reduce_algebra
from padicops.report import all_passed
from padicops.spectral import is_orthoprojection
from padicops.ultralinalg import (
    KMatrix,
    MatrixAlgebra,
    algebra_span,
    center,
    commutant,
    is_orthonormal,
)
from test_ultralinalg import (
    elimination_commutant,
    reference_algebra_span,
    reference_center,
)


FREE = TruncatedGroup(2, 2, 2, 5)
NONFREE = TruncatedGroup(2, 2, 1, 5)


def mult_on_s(grp, phi):
    """Multiplication by the function phi on C(S)."""
    s = grp.s_size
    return KMatrix.from_rows(grp.p, [{x: phi[x]} for x in range(s)], s)


class TestOperatorIdentities:
    @pytest.mark.parametrize("grp", [FREE, NONFREE], ids=["free", "nonfree"])
    def test_all_identities(self, grp):
        results = verify_operator_identities(grp)
        assert all_passed(results), [r.name for r in results if not r.passed]

    def test_nu_basis_orthonormal(self):
        for grp in (FREE, NONFREE):
            vectors = [grid_to_vec(grp, g) for (_, _, g) in nu_basis(grp)]
            assert is_orthonormal(vectors)

    def test_eta_outside_g0_rejected(self):
        with pytest.raises(IndexNotInG0):
            eta(NONFREE, 1)

    def test_multiplication_commutant_on_s(self):
        # finite analogue of the multiplication-algebra bicommutant
        for grp in (FREE, NONFREE):
            gens = [
                mult_on_s(grp, eta(grp, i)) for i in grp.g0_indices()
            ]
            comm = commutant(gens, grp.s_size)
            assert comm.dimension == grp.s_size
            for G in gens:
                assert comm.contains(G)


class TestCommutationTheorem:
    @pytest.mark.parametrize(
        "grp",
        [TruncatedGroup(2, 1, 1, 3), FREE],
        ids=["(2,1,1,3)", "(2,2,2,5)"],
    )
    def test_free_cases(self, grp):
        results = verify_commutation_theorem(grp)
        assert all_passed(results), [r.name for r in results if not r.passed]
        center_dims = [
            r.detail["center_dim"] for r in results if "center_dim" in r.detail
        ]
        assert center_dims and all(d == 1 for d in center_dims)

    def test_nonfree_center_structure(self):
        results = verify_commutation_theorem(NONFREE)
        assert all_passed(results), [r.name for r in results if not r.passed]
        center_dims = [
            r.detail["center_dim"] for r in results if "center_dim" in r.detail
        ]
        assert center_dims and all(d > 1 for d in center_dims)


class TestBasePointCovariance:
    def _relabel(self, grp, t):
        p = grp.p
        zero, one = PadicScalar.zero(p), PadicScalar.one(p)
        n = space_dim(grp)
        entries = [[zero] * n for _ in range(n)]
        for x in range(grp.s_size):
            for a in range(grp.order):
                entries[point_index(grp, x, a)][
                    point_index(grp, (x + t) % grp.s_size, a)
                ] = one
        return KMatrix(p, entries)

    @pytest.mark.parametrize("grp", [FREE, NONFREE], ids=["free", "nonfree"])
    def test_algebras_invariant_under_base_point_shift(self, grp):
        algebras = build_algebras(grp)
        for t in range(1, grp.s_size):
            Pi = self._relabel(grp, t)
            Pi_inv = self._relabel(grp, -t % grp.s_size)
            for alg in (algebras.RI, algebras.RJ):
                conj = MatrixAlgebra(
                    grp.p,
                    space_dim(grp),
                    [Pi @ B @ Pi_inv for B in alg.basis],
                )
                assert conj.equals(alg)


class TestStructuredIdempotents:
    def test_zero_one_diagonal_is_orthoprojection(self):
        p = NONFREE.p
        b = {
            (m, m): PadicScalar.one(p)
            for m in range(NONFREE.order)
            if m % 2 == 0
        }
        verdict = idempotent_check(StructuredCommutantElement(NONFREE, b))
        assert verdict.idempotent and verdict.orthoprojection

    def test_unbounded_coefficient_idempotent_not_orthoprojection(self):
        grp = TruncatedGroup(2, 1, 1, 5)
        p = grp.p
        b = {
            (0, 0): PadicScalar.one(p),
            (0, 1): PadicScalar.from_rational(p, Fraction(1, 5)),
        }
        verdict = idempotent_check(StructuredCommutantElement(grp, b))
        assert verdict.idempotent
        assert not verdict.orthoprojection

    def test_agreement_with_matrix_level_random(self):
        rng = random.Random(41)
        p = NONFREE.p
        for _ in range(50):
            b = {}
            for m in range(NONFREE.order):
                for n in range(NONFREE.order):
                    if NONFREE.in_g0(m - n) and rng.random() < 0.7:
                        u = rng.randint(1, 20)
                        while u % p == 0:
                            u = rng.randint(1, 20)
                        b[(m, n)] = PadicScalar.from_rational(
                            p, Fraction(u) * Fraction(p) ** rng.randint(0, 1)
                        )
            elem = StructuredCommutantElement(NONFREE, b)
            # idempotent_check cross-validates the coefficient condition
            # against P^2 = P internally; reaching here means they agree
            verdict = idempotent_check(elem)
            P = elem.to_matrix()
            assert verdict.idempotent == (P @ P).equals(P)


    @pytest.mark.parametrize("grp", [FREE, NONFREE], ids=["free", "nonfree"])
    def test_block_basis_verdicts_match_point_basis(self, grp):
        rng = random.Random(43)
        for trial in range(16):
            elem = _random_structured(grp, rng, idempotent=trial % 2 == 0)
            verdict = idempotent_check(elem)
            P = elem.to_matrix()
            assert verdict.idempotent == (P @ P).equals(P)
            if verdict.idempotent:
                assert verdict.orthoprojection == is_orthoprojection(P, samples=10)

    def test_block_matrix_is_the_block_form_of_the_point_matrix(self):
        rng = random.Random(44)
        for grp in (FREE, NONFREE):
            elem = _random_structured(grp, rng, idempotent=False)
            blocks = matrix_blocks(grp, elem.to_matrix())
            for m in range(grp.order):
                for n in range(grp.order):
                    c = elem.coeff(m, n)
                    if grp.in_g0(m - n):
                        want = mult_on_s(grp, eta(grp, m - n)).scale(c)
                    else:
                        want = KMatrix.zeros(grp.p, grp.s_size)
                    assert blocks[m][n].equals(want), (m, n)


class TestCommutantMembership:
    def test_structured_elements_commute_with_generators(self):
        rng = random.Random(42)
        grp = NONFREE
        algebras = build_algebras(grp)
        for _ in range(10):
            b = {}
            for m in range(grp.order):
                for n in range(grp.order):
                    if grp.in_g0(m - n):
                        b[(m, n)] = PadicScalar.from_int(grp.p, rng.randint(0, 10))
            P = StructuredCommutantElement(grp, b).to_matrix()
            for G in algebras.RI.basis:
                assert (P @ G).equals(G @ P)


def reference_matrix_blocks(grp, op):
    """Column-by-column block decomposition: apply op to delta_y (x) g_n,
    then take Fourier coefficients in the group variable."""
    p = grp.p
    zero = PadicScalar.zero(p)
    cols = {}
    for n in range(grp.order):
        for y in range(grp.s_size):
            vec = [zero] * space_dim(grp)
            for a in range(grp.order):
                vec[point_index(grp, y, a)] = grp.zeta_pow(n * a)
            image = op.apply(vec)
            grid = [
                [image[point_index(grp, x, a)] for a in range(grp.order)]
                for x in range(grp.s_size)
            ]
            coeffs = fourier_analyze(grp, grid)
            for m in range(grp.order):
                cols.setdefault((m, n), []).append(coeffs[m])
    return [
        [
            KMatrix(
                p,
                [
                    [cols[(m, n)][y][x] for y in range(grp.s_size)]
                    for x in range(grp.s_size)
                ],
            )
            for n in range(grp.order)
        ]
        for m in range(grp.order)
    ]


# (p, l, k, j): non-free and free actions, up to 16 points
BLOCK_CONFIGS = [(3, 2, 1, 1), (5, 2, 2, 1), (5, 2, 2, 2), (17, 2, 3, 1)]


def _operators(grp):
    p = grp.p
    rng = random.Random(7)
    phi = eta(grp, grp.g0_indices()[-1])
    n = space_dim(grp)

    def draw():
        return PadicScalar.from_int(p, rng.randint(-3 * p, 3 * p))

    psi = [draw() for _ in range(grp.s_size)]
    dense = KMatrix(p, [[draw() for _ in range(n)] for _ in range(n)])
    return {
        "U": build_operator(grp, "U", a0=1),
        "V": build_operator(grp, "V", a0=1),
        "W": build_operator(grp, "W"),
        "L": build_operator(grp, "L", phi=phi),
        "M": build_operator(grp, "M", phi=phi),
        "M_psi": build_operator(grp, "M", phi=psi),
        "dense": dense,
    }


@pytest.mark.parametrize(
    "config", BLOCK_CONFIGS, ids=[",".join(map(str, c)) for c in BLOCK_CONFIGS]
)
class TestBlockChangeOfBasis:
    def test_matrix_blocks_match_column_by_column_reference(self, config):
        p, l, k, j = config
        grp = TruncatedGroup(l, k, j, p)
        for name, op in _operators(grp).items():
            got, want = matrix_blocks(grp, op), reference_matrix_blocks(grp, op)
            for m in range(grp.order):
                for n in range(grp.order):
                    assert got[m][n].equals(want[m][n]), (name, m, n)

    def test_matrix_from_blocks_inverts_matrix_blocks(self, config):
        p, l, k, j = config
        grp = TruncatedGroup(l, k, j, p)
        for name, op in _operators(grp).items():
            assert matrix_from_blocks(grp, matrix_blocks(grp, op)).equals(op), name

    def test_closed_form_inverses(self, config):
        p, l, k, j = config
        grp = TruncatedGroup(l, k, j, p)
        I = KMatrix.identity(p, space_dim(grp))
        F, F_inv = grp.partial_fourier
        assert (F_inv @ F).equals(I)
        assert (F @ F_inv).equals(I)
        D, D_inv = nu_block_change(grp)
        # T: the nu basis as columns, in nu_basis order; D = F^-1 T
        T = KMatrix(p, [grid_to_vec(grp, g) for _, _, g in nu_basis(grp)]).transpose()
        assert (F @ D).equals(T)
        assert (D_inv @ D).equals(I)


@pytest.mark.parametrize(
    "config", BLOCK_CONFIGS, ids=[",".join(map(str, c)) for c in BLOCK_CONFIGS]
)
def test_spans_and_center_match_all_pairs_oracles(config):
    p, l, k, j = config
    grp = TruncatedGroup(l, k, j, p)
    n = space_dim(grp)
    algebras = build_algebras(grp)
    RI = algebras.RI
    assert RI.equals(reference_algebra_span(algebras.gens_i, n))
    assert algebras.RJ.equals(reference_algebra_span(algebras.gens_j, n))
    Z = center(RI, commutant(algebras.gens_i, n))
    assert Z.equals(reference_center(RI))
    assert (Z.dimension == 1) == grp.is_free


# the block configurations and the 32-point crossed-32 one
ORBITAL_CONFIGS = BLOCK_CONFIGS + [(17, 2, 3, 2)]


@pytest.mark.parametrize(
    "config", ORBITAL_CONFIGS, ids=[",".join(map(str, c)) for c in ORBITAL_CONFIGS]
)
def test_orbital_commutants_match_elimination(config, monkeypatch):
    p, l, k, j = config
    grp = TruncatedGroup(l, k, j, p)
    n = space_dim(grp)
    algebras = build_algebras(grp)
    for gens in (algebras.gens_i, algebras.gens_j):
        orbital = commutant(gens, n)
        assert orbital.equals(elimination_commutant(gens, n, monkeypatch))


@pytest.mark.parametrize(
    "config", BLOCK_CONFIGS, ids=[",".join(map(str, c)) for c in BLOCK_CONFIGS]
)
def test_derived_double_commutants_match_direct(config):
    p, l, k, j = config
    grp = TruncatedGroup(l, k, j, p)
    n = space_dim(grp)
    results = {r.name: r.passed for r in verify_commutation_theorem(grp)}
    algebras = build_algebras(grp)
    IC, JC = commutant(algebras.gens_i, n), commutant(algebras.gens_j, n)
    direct = commutant(IC.basis, n).equals(algebras.RI) and commutant(
        JC.basis, n
    ).equals(algebras.RJ)
    assert results["double_commutants_stable"] == direct


def test_double_commutants_computed_directly_when_an_equality_fails(monkeypatch):
    grp = NONFREE
    n = space_dim(grp)
    calls = []

    def counted(generators, n):
        calls.append(len(generators))
        return commutant(generators, n)

    def without_vm(grp):
        algebras = build_algebras(grp)
        algebras.RJ = algebra_span(algebras.gens_j[:1], n)  # scalars only
        return algebras

    monkeypatch.setattr(crossed, "commutant", counted)
    verify_commutation_theorem(grp)
    assert len(calls) == 2  # IC and JC; the double commutants are derived
    calls.clear()
    monkeypatch.setattr(crossed, "build_algebras", without_vm)
    results = {r.name: r.passed for r in verify_commutation_theorem(grp)}
    assert not results["commutant_of_UL_equals_VM_span"]
    assert len(calls) == 4
    assert not results["double_commutants_stable"]
    # IC itself is the true commutant: every element of its basis is extracted
    assert results["commutant_elements_have_coset_block_form"]


def test_partial_fourier_is_built_once_and_lazily():
    grp = TruncatedGroup(2, 2, 1, 5)
    assert "partial_fourier" not in vars(grp)
    assert grp.partial_fourier is grp.partial_fourier


def test_block_coefficients_of_flip_not_certified():
    with pytest.raises(CertificationFailed):
        extract_block_coefficients(NONFREE, build_operator(NONFREE, "W"))
    # block forms on NONFREE: 4 x 4 blocks of size 2, G0 = {0, 2}
    p, one, n = NONFREE.p, PadicScalar.one(NONFREE.p), space_dim(NONFREE)
    F, F_inv = NONFREE.partial_fourier
    I = KMatrix.identity(p, n)

    def extract(rows, plus_identity):
        # the point-basis operator of the block form, as it is and plus I;
        # the intertwining fails first in both, and F^-1 op F - B names
        # the first failing block
        op = F @ KMatrix.from_rows(p, rows, n) @ F_inv
        return extract_block_coefficients(NONFREE, op + I if plus_identity else op)[0]

    for plus_identity in (False, True):
        rows = [{} for _ in range(n)]
        rows[0][2] = one  # entry (0, 0) of block [0][1], off the G0-cosets
        with pytest.raises(CertificationFailed, match="nonzero block off the G0-cosets"):
            extract(rows, plus_identity)
        rows[4][5] = one  # block [2][2] fails too; the first failing block is named
        with pytest.raises(CertificationFailed, match="nonzero block off the G0-cosets"):
            extract(rows, plus_identity)
        rows = [{} for _ in range(n)]
        # block [0][0] is diag(1, 2), not b[0,0] times eta_0 = 1
        rows[0][0], rows[1][1] = one, PadicScalar.from_int(p, 2)
        with pytest.raises(CertificationFailed, match=r"block is not b \* mult\(eta\)"):
            extract(rows, plus_identity)
        rows[2][0] = one  # block [1][0], off the G0-cosets, comes after block [0][0]
        with pytest.raises(CertificationFailed, match=r"block is not b \* mult\(eta\)"):
            extract(rows, plus_identity)
        # b * mult(eta) on the coset block [2][0] alone is certified
        b = {(2, 0): PadicScalar.from_int(p, 3)}
        got = extract(StructuredCommutantElement(NONFREE, b).block_matrix().data, plus_identity)
        want = [{m: one} if plus_identity else {} for m in range(NONFREE.order)]
        want[2][0] = b[2, 0]
        assert got.equals(KMatrix.from_rows(p, want, NONFREE.order))


def test_capped_zero_coefficient_enters_the_comparison():
    """A coefficient that is zero only to precision is compared as stored.

    block_matrix keeps b[0,0], a zero known mod p, as capped-zero entries
    of block [0][0] at x = 0 and x = 1.  A block [0][0] holding that zero
    at x = 0 and p^2 at x = 1 is then equal to it to precision; it would
    not be if the capped zeros were skipped.

    Extraction keeps such a coefficient as it is read: u I, with u = 1
    known mod p, has b[m,n] = u delta_mn on the cosets, and for m != n
    the sum over the x = 0 slice cancels to a zero known mod p.
    """
    p, n = NONFREE.p, space_dim(NONFREE)
    zero = PadicScalar.capped_zero(p, 1)
    B = StructuredCommutantElement(NONFREE, {(0, 0): zero}).block_matrix()
    assert [sorted(row) for row in B.data[:2]] == [[0], [1]]
    rows = [{} for _ in range(n)]
    rows[0][0], rows[1][1] = zero, PadicScalar.from_int(p, p**2)
    assert KMatrix.from_rows(p, rows, n).equals(B)

    u = PadicScalar.capped(p, 0, 1, 1)
    op = KMatrix.from_rows(p, [{i: u} for i in range(n)], n)
    b, B = extract_block_coefficients(NONFREE, op)
    # G0 = {0, 2}: b[m,n] is read where m - n is even
    assert [sorted(row) for row in b.data] == [[0, 2], [1, 3], [0, 2], [1, 3]]
    for m, row in enumerate(b.data):
        for col, c in row.items():
            if col == m:
                assert c.equals(u)
            else:
                assert c.is_zero() and not c.is_exact_zero()
                assert c.valuation_lower_bound() == 1
    # block [0][2] stores b[0,2] eta_2, capped zeros, at x = 0 and x = 1
    assert [sorted(row) for row in B.data[:2]] == [[0, 4], [1, 5]]
    assert B.equals(crossed.block_form(NONFREE, op))


def reference_coefficients(grp, hat):
    """b[m,n] of a block form, certified block by block, or None.

    Block [m][n] must be b[m,n] times multiplication by eta_(m-n) on the
    G0-cosets, with b[m,n] its entry at the base point, and zero off
    them.  This is the per-block check that ``extract_block_coefficients``
    replaced by one equality.
    """
    blocks = crossed._blocks(grp, hat)
    b_rows = [{} for _ in range(grp.order)]
    for m in range(grp.order):
        for n in range(grp.order):
            block = blocks[m][n]
            if not grp.in_g0(m - n):
                if not block.is_zero():
                    return None
                continue
            c = block.entry(0, 0)
            if not block.equals(mult_on_s(grp, eta(grp, m - n)).scale(c)):
                return None
            b_rows[m][n] = c
    return KMatrix.from_rows(grp.p, b_rows, grp.order)


def conjugated_failing_blocks(grp, op, closed):
    """The blocks where F^-1 op F and closed differ, always by conjugating."""
    s, diff = grp.s_size, crossed.block_form(grp, op) - closed
    return sorted(
        {
            (r // s, c // s)
            for r, row in enumerate(diff.data)
            for c, a in row.items()
            if not a.is_zero()
        }
    )


# the two reduce-16 configurations and the 32-point crossed-32 one
ORACLE_CONFIGS = [(5, 2, 2, 2), (17, 2, 3, 1), (17, 2, 3, 2)]


@pytest.mark.parametrize(
    "config", ORACLE_CONFIGS, ids=[",".join(map(str, c)) for c in ORACLE_CONFIGS]
)
def test_coset_block_form_of_generators_matches_every_commutant_element(config):
    p, l, k, j = config
    grp = TruncatedGroup(l, k, j, p)
    results = {r.name: r.passed for r in verify_commutation_theorem(grp)}
    assert results["commutant_of_UL_equals_VM_span"]
    IC = commutant(build_algebras(grp).gens_i, space_dim(grp))
    per_element = all(
        reference_coefficients(grp, crossed.block_form(grp, B)) is not None
        for B in IC.basis
    )
    assert results["commutant_elements_have_coset_block_form"] == per_element


@pytest.mark.parametrize(
    "config", ORACLE_CONFIGS, ids=[",".join(map(str, c)) for c in ORACLE_CONFIGS]
)
def test_full_support_block_forms_are_certified_by_intertwining(config, monkeypatch):
    """A F = F B certifies the block forms without forming F^-1 A F.

    The operator identities match their conjugated oracle, and the
    coefficients of the generators and of the reduce lattice basis match
    the per-block oracle, while ``block_form`` is never called.
    """
    p, l, k, j = config
    grp = TruncatedGroup(l, k, j, p)
    conjugate = crossed.block_form
    with monkeypatch.context() as m:
        m.setattr(crossed, "_failing_blocks", conjugated_failing_blocks)
        oracle = [(r.name, r.passed, r.detail) for r in verify_operator_identities(grp)]
    algebras = build_algebras(grp)
    lattice, _ = reduce_algebra(algebras.RJ)
    calls = []
    monkeypatch.setattr(
        crossed, "block_form", lambda grp, op: calls.append(op) or conjugate(grp, op)
    )
    results = verify_operator_identities(grp)
    assert [(r.name, r.passed, r.detail) for r in results] == oracle
    assert all(passed for _, passed, _ in oracle)
    for op in algebras.gens_j + lattice.basis:
        b, B = extract_block_coefficients(grp, op)
        hat = conjugate(grp, op)
        want = reference_coefficients(grp, hat)
        assert want is not None and b.equals(want) and B.equals(hat)
    assert calls == []


def test_wrong_twist_fails_the_intertwined_identity():
    """U(1) has block [n][n] = zeta^n times the shift by 1; zeta^(-n) fails."""
    grp = FREE
    U = build_operator(grp, "U", a0=1)

    def twisted(sign):
        blocks = {
            (n, n): [grp.zeta_pow(sign * n)] * grp.s_size for n in range(grp.order)
        }
        return crossed._weighted_shift_blocks(grp, blocks, 1)

    assert crossed._failing_blocks(grp, U, twisted(1)) == []
    # zeta^n = zeta^(-n) only where 2n = 0 mod l^k
    odd = [(n, n) for n in range(grp.order) if 2 * n % grp.order]
    assert crossed._failing_blocks(grp, U, twisted(-1)) == odd
    assert conjugated_failing_blocks(grp, U, twisted(-1)) == odd


def test_block_coefficients_certified_under_optimize_flag():
    """Certification is an explicit check, so python -O keeps it."""
    code = (
        "from padicops.charduals import TruncatedGroup\n"
        "from padicops.crossed import build_operator, extract_block_coefficients\n"
        "from padicops.errors import CertificationFailed\n"
        "grp = TruncatedGroup(2, 2, 1, 5)\n"
        "try:\n"
        "    extract_block_coefficients(grp, build_operator(grp, 'W'))\n"
        "except CertificationFailed as exc:\n"
        "    print('certification failed:', exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("certification failed:"), proc.stdout
