"""Finite-level crossed products for G = Z/l^k acting on S = Z/l^j.

Five operators act on the (l^j * l^k)-dimensional model of C(S x G):
translations twisted by the action (U), pure group translations (V), the
flip (W), and multiplications by phi(x) (L) and phi(x - a) (M).  At
finite dimension strong-operator closures collapse to linear spans, so
every identity here is an exact matrix equality.

Point basis order: index(x, a) = x * l^k + a with x in S, a in G.
The base point for the eta functions is x0 = 0.

Block picture: an operator A on C(S x G) becomes an l^k x l^k array of
operators on C(S) through the change of basis A -> F^-1 A F, where
F = I_S (x) F_G is the partial Fourier matrix whose column (n, y) is
delta_y (x) g_n (``TruncatedGroup.partial_fourier``, built and certified
once per group).  The block basis is ordered block-major,
index(m, x) = m * l^j + x, so block [m][n] of F^-1 A F is the contiguous
slice of rows m * l^j .. (m + 1) * l^j - 1 and the same range of columns
for n.  Entry (x, y) of block [m][n] is the m-th Fourier coefficient, at
x, of A applied to delta_y (x) g_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charduals import TruncatedGroup, fourier_analyze
from .errors import CertificationFailed, IndexNotInG0
from .padic import PadicScalar
from .report import CheckResult
from .ultralinalg import (
    KMatrix,
    MatrixAlgebra,
    algebra_span,
    center,
    commutant,
    is_orthonormal,
)


def point_index(grp: TruncatedGroup, x: int, a: int) -> int:
    return x * grp.order + a


def space_dim(grp: TruncatedGroup) -> int:
    return grp.s_size * grp.order


def grid_to_vec(grp: TruncatedGroup, grid) -> list[PadicScalar]:
    return [grid[x][a] for x in range(grp.s_size) for a in range(grp.order)]


def eta(grp: TruncatedGroup, i: int) -> list[PadicScalar]:
    """eta_i(x) = g_i(-x) for the canonical lift of x; needs i in G0.

    Well-defined precisely because i is a multiple of l^(k-j): any two
    lifts of x differ by a multiple of l^j and i * l^j = 0 in the dual.
    """
    if not grp.in_g0(i):
        raise IndexNotInG0(f"index {i} not divisible by {grp.g0_modulus}")
    return [grp.zeta_pow(-i * x) for x in range(grp.s_size)]


def build_operator(
    grp: TruncatedGroup,
    kind: str,
    a0: int | None = None,
    phi: list[PadicScalar] | None = None,
) -> KMatrix:
    """Point-basis matrix of U(a0), V(a0), W, L(phi), or M(phi)."""
    p = grp.p
    n = space_dim(grp)
    zero = PadicScalar.zero(p)
    one = PadicScalar.one(p)
    entries = [[zero] * n for _ in range(n)]
    for x in range(grp.s_size):
        for a in range(grp.order):
            row = point_index(grp, x, a)
            if kind == "U":
                col = point_index(grp, grp.act(x, a0), (a + a0) % grp.order)
                entries[row][col] = one
            elif kind == "V":
                col = point_index(grp, x, (a - a0) % grp.order)
                entries[row][col] = one
            elif kind == "W":
                col = point_index(grp, grp.act(x, -a), (-a) % grp.order)
                entries[row][col] = one
            elif kind == "L":
                entries[row][row] = phi[x]
            elif kind == "M":
                entries[row][row] = phi[grp.act(x, -a)]
            else:
                raise ValueError(f"unknown operator kind {kind!r}")
    return KMatrix(p, entries)


def nu_basis(grp: TruncatedGroup) -> list[tuple[int, int, list[list[PadicScalar]]]]:
    """Products nu_(i,n)(x,a) = eta_i(x) g_n(a), i in G0, n in the dual.

    Counts l^j * l^k = dim C(S x G) functions and passes the
    orthonormality test (independent reductions).
    """
    out = []
    for i in grp.g0_indices():
        eta_i = eta(grp, i)
        for n in range(grp.order):
            grid = [
                [eta_i[x] * grp.zeta_pow(n * a) for a in range(grp.order)]
                for x in range(grp.s_size)
            ]
            out.append((i, n, grid))
    return out


def nu_change_of_basis(grp: TruncatedGroup) -> tuple[KMatrix, KMatrix]:
    """The matrix T whose columns are the nu basis, in nu_basis order, and T^-1.

    By character orthogonality on S and on G,
    T^-1[(i, n), (x, a)] = zeta^(i x - n a) / (l^j l^k); T T^-1 = I is
    certified before the pair is returned.
    """
    p = grp.p
    nu = nu_basis(grp)
    T = KMatrix(p, [grid_to_vec(grp, g) for _, _, g in nu]).transpose()
    scale = PadicScalar.from_rational(p, Fraction(1, space_dim(grp)))
    T_inv = KMatrix(
        p,
        [
            [
                scale * grp.zeta_pow(i * x - n * a)
                for x in range(grp.s_size)
                for a in range(grp.order)
            ]
            for i, n, _ in nu
        ],
    )
    if not (T @ T_inv).equals(KMatrix.identity(p, space_dim(grp))):
        raise CertificationFailed("T T^-1 is not the identity")
    return T, T_inv


def block_form(grp: TruncatedGroup, op: KMatrix) -> KMatrix:
    """F^-1 op F: op in the block basis (see the module docstring)."""
    F, F_inv = grp.partial_fourier
    return F_inv @ op @ F


def _block(hat: KMatrix, s: int, m: int, n: int) -> list[list[PadicScalar]]:
    """Entries of block [m][n] of a block form, whose blocks are s x s."""
    return [row[n * s : (n + 1) * s] for row in hat.entries[m * s : (m + 1) * s]]


def matrix_blocks(grp: TruncatedGroup, op: KMatrix) -> list[list[KMatrix]]:
    """Block decomposition blocks[m][n]: C(S) -> C(S), sliced from F^-1 op F."""
    hat = block_form(grp, op)
    return [
        [KMatrix(grp.p, _block(hat, grp.s_size, m, n)) for n in range(grp.order)]
        for m in range(grp.order)
    ]


def matrix_from_blocks(grp: TruncatedGroup, blocks: list[list[KMatrix]]) -> KMatrix:
    """Inverse of matrix_blocks: F hat F^-1 for the assembled block form hat."""
    hat = KMatrix(
        grp.p,
        [
            [c for block in block_row for c in block.entries[x]]
            for block_row in blocks
            for x in range(grp.s_size)
        ],
    )
    F, F_inv = grp.partial_fourier
    return F @ hat @ F_inv


def mult_operator_on_s(grp: TruncatedGroup, phi: list[PadicScalar]) -> KMatrix:
    zero = PadicScalar.zero(grp.p)
    return KMatrix(
        grp.p,
        [
            [phi[x] if x == y else zero for y in range(grp.s_size)]
            for x in range(grp.s_size)
        ],
    )


def shift_operator_on_s(grp: TruncatedGroup, a0: int) -> KMatrix:
    """(U_{a0} f)(x) = f(x + a0) on C(S)."""
    zero, one = PadicScalar.zero(grp.p), PadicScalar.one(grp.p)
    return KMatrix(
        grp.p,
        [
            [one if y == grp.act(x, a0) else zero for y in range(grp.s_size)]
            for x in range(grp.s_size)
        ],
    )


@dataclass
class CrossedAlgebras:
    """The two crossed-product algebras with their generating sets."""

    grp: TruncatedGroup
    gens_i: list[KMatrix]  # U(a0) and L(eta basis)
    gens_j: list[KMatrix]  # V(a0) and M(eta basis)
    RI: MatrixAlgebra
    RJ: MatrixAlgebra


def build_algebras(grp: TruncatedGroup) -> CrossedAlgebras:
    """Linear spans of products of the generating operators.

    phi ranges over the eta basis of C(S), a finite spanning set.
    """
    gens_i = [build_operator(grp, "U", a0=a0) for a0 in range(grp.order)]
    gens_j = [build_operator(grp, "V", a0=a0) for a0 in range(grp.order)]
    for i in grp.g0_indices():
        phi = eta(grp, i)
        gens_i.append(build_operator(grp, "L", phi=phi))
        gens_j.append(build_operator(grp, "M", phi=phi))
    n = space_dim(grp)
    return CrossedAlgebras(
        grp, gens_i, gens_j, algebra_span(gens_i, n), algebra_span(gens_j, n)
    )


@dataclass
class StructuredCommutantElement:
    """Element of the commutant of the U/L algebra in coefficient form.

    Blocks are b[m,n] times multiplication by eta_(m-n); coefficients
    vanish off the G0-cosets (enforced on construction).
    """

    grp: TruncatedGroup
    b: dict[tuple[int, int], PadicScalar]

    def __post_init__(self):
        for (m, n), value in self.b.items():
            if not self.grp.in_g0(m - n) and not value.is_zero():
                raise ValueError(f"coefficient at ({m},{n}) off the G0-cosets")

    def coeff(self, m: int, n: int) -> PadicScalar:
        return self.b.get((m, n), PadicScalar.zero(self.grp.p))

    def to_matrix(self) -> KMatrix:
        grp = self.grp
        zero_block = KMatrix.zeros(grp.p, grp.s_size)
        blocks = []
        for m in range(grp.order):
            row = []
            for n in range(grp.order):
                c = self.coeff(m, n)
                if c.is_zero() or not grp.in_g0(m - n):
                    row.append(zero_block)
                else:
                    row.append(mult_operator_on_s(grp, eta(grp, m - n)).scale(c))
            blocks.append(row)
        return matrix_from_blocks(grp, blocks)


@dataclass
class IdempotentVerdict:
    idempotent: bool
    orthoprojection: bool


def idempotent_check(elem: StructuredCommutantElement) -> IdempotentVerdict:
    """Coefficient-level idempotent and orthoprojection test.

    Idempotent iff sum over admissible n of b[i,n] b[n,j] equals b[i,j];
    orthoprojection iff additionally every |b| <= 1.  Cross-validated
    against the matrix-level tests.
    """
    grp = elem.grp
    idem = True
    for i in range(grp.order):
        for j in range(grp.order):
            acc = PadicScalar.zero(grp.p)
            for n in range(grp.order):
                if grp.in_g0(i - n) and grp.in_g0(n - j):
                    acc = acc + elem.coeff(i, n) * elem.coeff(n, j)
            if not (acc - elem.coeff(i, j)).is_zero():
                idem = False
    ortho = idem and all(
        value.valuation_lower_bound() >= 0 for value in elem.b.values()
    )
    # cross-validate at the matrix level
    P = elem.to_matrix()
    matrix_idem = (P @ P).equals(P)
    if matrix_idem != idem:
        raise CertificationFailed("coefficient/matrix idempotent verdicts disagree")
    if idem:
        from .spectral import is_orthoprojection

        if is_orthoprojection(P, samples=10) != ortho:
            raise CertificationFailed("coefficient/matrix orthoprojection verdicts disagree")
    return IdempotentVerdict(idem, ortho)


def extract_block_coefficients(
    grp: TruncatedGroup, op: KMatrix | None = None, *, hat: KMatrix | None = None
) -> KMatrix:
    """Coefficient matrix b[m,n] of an element of the U/L commutant.

    Takes the point-basis matrix op, or its block form hat = F^-1 op F
    when the caller already has it.  Certifies that every block is
    multiplication by b[m,n] eta_(m-n) and that blocks vanish off the
    G0-cosets, raising CertificationFailed otherwise; returns the
    l^k x l^k matrix b.
    """
    if hat is None:
        hat = block_form(grp, op)
    etas = {i: eta(grp, i) for i in grp.g0_indices()}
    b_entries = [[PadicScalar.zero(grp.p)] * grp.order for _ in range(grp.order)]
    for m in range(grp.order):
        for n in range(grp.order):
            block = _block(hat, grp.s_size, m, n)
            eta_mn = etas.get((m - n) % grp.order)
            if eta_mn is None:
                if not all(c.is_zero() for row in block for c in row):
                    raise CertificationFailed("nonzero block off the G0-cosets")
                continue
            b_mn = block[0][0]  # psi(x0) with x0 = 0
            # block - b_mn * mult(eta_(m-n)) must vanish entrywise
            if not all(
                (c - b_mn * eta_mn[x] if x == y else c).is_zero()
                for x, row in enumerate(block)
                for y, c in enumerate(row)
            ):
                raise CertificationFailed("block is not b * mult(eta)")
            b_entries[m][n] = b_mn
    return KMatrix(grp.p, b_entries)


def verify_operator_identities(grp: TruncatedGroup) -> list[CheckResult]:
    """Exact identities for the five operators and their block forms."""
    results = []
    p = grp.p
    n_dim = space_dim(grp)
    I = KMatrix.identity(p, n_dim)
    W = build_operator(grp, "W")
    results.append(CheckResult("W_is_involution", (W @ W).equals(I)))

    eta_basis = {i: eta(grp, i) for i in grp.g0_indices()}
    conj_ok = True
    for a0 in range(grp.order):
        U, V = build_operator(grp, "U", a0=a0), build_operator(grp, "V", a0=a0)
        if not (W @ U @ W).equals(V):
            conj_ok = False
    for i, phi in eta_basis.items():
        L = build_operator(grp, "L", phi=phi)
        M = build_operator(grp, "M", phi=phi)
        if not (W @ L @ W).equals(M):
            conj_ok = False
    results.append(CheckResult("W_conjugation_swaps_U_V_and_L_M", conj_ok))

    zero_block = KMatrix.zeros(p, grp.s_size)
    u_ok = v_ok = True
    for a0 in range(grp.order):
        blocks_u = matrix_blocks(grp, build_operator(grp, "U", a0=a0))
        blocks_v = matrix_blocks(grp, build_operator(grp, "V", a0=a0))
        shift = shift_operator_on_s(grp, a0)
        for m in range(grp.order):
            for n in range(grp.order):
                expect_u = (
                    shift.scale(grp.zeta_pow(n * a0)) if m == n else zero_block
                )
                expect_v = (
                    KMatrix.identity(p, grp.s_size).scale(grp.zeta_pow(-n * a0))
                    if m == n
                    else zero_block
                )
                if not blocks_u[m][n].equals(expect_u):
                    u_ok = False
                if not blocks_v[m][n].equals(expect_v):
                    v_ok = False
    results.append(CheckResult("U_blocks_are_twisted_shifts", u_ok))
    results.append(CheckResult("V_blocks_are_diagonal_characters", v_ok))

    # L blocks are diagonal multiplications; M_eta blocks sit on one coset line
    l_ok = m_ok = True
    for i, phi in eta_basis.items():
        blocks_l = matrix_blocks(grp, build_operator(grp, "L", phi=phi))
        blocks_m = matrix_blocks(grp, build_operator(grp, "M", phi=phi))
        mult = mult_operator_on_s(grp, phi)
        for m in range(grp.order):
            for n in range(grp.order):
                expect_l = mult if m == n else zero_block
                expect_m = mult if (m - n) % grp.order == i else zero_block
                if not blocks_l[m][n].equals(expect_l):
                    l_ok = False
                if not blocks_m[m][n].equals(expect_m):
                    m_ok = False
    results.append(CheckResult("L_blocks_are_diagonal_multiplications", l_ok))
    results.append(CheckResult("M_eta_blocks_sit_on_single_coset_line", m_ok))

    # general M_psi: blocks multiply by c_(m-n) with c_i = c_i(0) eta_i
    import random

    rng = random.Random(13)
    psi = [
        PadicScalar.from_int(p, rng.randint(-3 * p, 3 * p)) for _ in range(grp.s_size)
    ]
    blocks_m = matrix_blocks(grp, build_operator(grp, "M", phi=psi))
    # c_m(x): Fourier coefficients of a -> psi(x - a)
    grid = [
        [psi[grp.act(x, -a)] for a in range(grp.order)] for x in range(grp.s_size)
    ]
    c = fourier_analyze(grp, grid)
    general_ok = True
    for m in range(grp.order):
        for n in range(grp.order):
            t = (m - n) % grp.order
            expect = mult_operator_on_s(grp, c[t])
            if not blocks_m[m][n].equals(expect):
                general_ok = False
            if grp.in_g0(t):
                # covariance structure: c_t(x) = c_t(0) eta_t(x)
                scaled = [c[t][0] * e for e in eta(grp, t)]
                if not all((c[t][x] - scaled[x]).is_zero() for x in range(grp.s_size)):
                    general_ok = False
            else:
                if not all(value.is_zero() for value in c[t]):
                    general_ok = False
    results.append(CheckResult("M_psi_blocks_match_translated_coefficients", general_ok))

    nu = nu_basis(grp)
    results.append(
        CheckResult(
            "nu_basis_is_orthonormal",
            len(nu) == n_dim
            and is_orthonormal([grid_to_vec(grp, g) for _, _, g in nu]),
        )
    )
    return results


def verify_commutation_theorem(grp: TruncatedGroup) -> list[CheckResult]:
    """Commutation theorem at finite level, plus the center structure.

    Free action: both algebras are each other's commutants, double
    commutants are stable, centers are the scalars.  Non-free action:
    central elements are diagonal in the block picture with the
    coefficients constant on the dual stabilizer subgroup; the observed
    center dimension is reported.
    """
    results = []
    n_dim = space_dim(grp)
    algebras = build_algebras(grp)
    RI, RJ = algebras.RI, algebras.RJ
    IC = commutant(algebras.gens_i, n_dim)
    JC = commutant(algebras.gens_j, n_dim)
    results.append(
        CheckResult(
            "commutant_of_UL_equals_VM_span",
            IC.equals(RJ),
            {"dim_commutant": IC.dimension, "dim_span": RJ.dimension},
        )
    )
    results.append(
        CheckResult(
            "commutant_of_VM_equals_UL_span",
            JC.equals(RI),
            {"dim_commutant": JC.dimension, "dim_span": RI.dimension},
        )
    )
    results.append(
        CheckResult(
            "double_commutants_stable",
            commutant(IC.basis, n_dim).equals(RI)
            and commutant(JC.basis, n_dim).equals(RJ),
        )
    )
    W = build_operator(grp, "W")
    w_conj = MatrixAlgebra(grp.p, n_dim, [W @ B @ W for B in RI.basis])
    results.append(CheckResult("W_conjugation_maps_RI_onto_RJ", w_conj.equals(RJ)))

    # structure of the commutant elements (coefficient form + covariance)
    structure_ok = True
    for B in IC.basis:
        try:
            extract_block_coefficients(grp, B)
        except CertificationFailed:
            structure_ok = False
            break
    results.append(CheckResult("commutant_elements_have_coset_block_form", structure_ok))

    Z = center(RI)
    if grp.is_free:
        scalars_only = Z.dimension == 1 and Z.contains(
            KMatrix.identity(grp.p, n_dim)
        )
        results.append(
            CheckResult(
                "center_is_scalars", scalars_only, {"center_dim": Z.dimension}
            )
        )
    else:
        pattern_ok = True
        g0 = grp.g0_indices()
        for C in Z.basis:
            blocks = matrix_blocks(grp, C)
            lam = []
            for m in range(grp.order):
                for n in range(grp.order):
                    if m == n:
                        diag = blocks[m][n]
                        lam_m = diag.entries[0][0]
                        if not diag.equals(
                            KMatrix.identity(grp.p, grp.s_size).scale(lam_m)
                        ):
                            pattern_ok = False
                        lam.append(lam_m)
                    elif not blocks[m][n].is_zero():
                        pattern_ok = False
            base = lam[g0[0]]
            if not all((lam[i] - base).is_zero() for i in g0):
                pattern_ok = False
        results.append(
            CheckResult(
                "central_elements_diagonal_constant_on_G0",
                pattern_ok,
                {"center_dim": Z.dimension},
            )
        )
    return results
