"""Reduction of operator algebras to the residue field and Baer checks.

The unit ball of a matrix algebra over Q_p is reduced entrywise mod p
after repairing the basis into an orthonormal lattice basis (norm-1
elements with independent reductions).  The reduced algebras are finite
F_p-algebras given by matrix bases; on those we decide the Baer property
by exact linear algebra and search for a faithful abelian idempotent.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fpalg
from .charduals import TruncatedGroup
from .crossed import build_algebras, extract_block_coefficients, nu_block_change
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    NonConvergent,
    NotInUnitBall,
    PrecisionLoss,
)
from .padic import PadicScalar, reduce_residue
from .report import CheckResult
from .ultralinalg import KMatrix, MatrixAlgebra, is_orthonormal, operator_norm


def reduce_matrix(A: KMatrix) -> np.ndarray:
    """Entrywise residue reduction of a matrix of norm <= 1."""
    e = operator_norm(A)
    if e < 0:
        raise NotInUnitBall(f"operator norm exponent {e} < 0")
    out = np.zeros((A.rows, A.cols), dtype=np.int64)
    for i, row in enumerate(A.data):
        for j, a in row.items():
            out[i, j] = reduce_residue(a)
    return out


@dataclass
class FiniteAlgebra:
    """Algebra over F_p spanned by a basis of n x n residue matrices.

    The basis is stored once, as the rows of the (dim, n^2) array
    ``stack``; ``basis`` lists its rows as n x n views.  An element's
    coordinates c give the matrix c @ stack.
    """

    p: int
    n: int
    basis: list[np.ndarray]
    unital: bool = True

    def __post_init__(self):
        self.stack = fpalg.modmat(np.reshape(self.basis, (-1, self.n**2)), self.p)
        self.basis = list(self.stack.reshape(-1, self.n, self.n))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def element(self, coords) -> np.ndarray:
        return (np.asarray(coords, dtype=np.int64) @ self.stack % self.p).reshape(
            self.n, self.n
        )

    def linear_map(self, f) -> np.ndarray:
        """Matrix over F_p of a linear map f on coordinates.

        f is evaluated once on the (dim, n, n) array of basis matrices
        and must keep the basis index as the first axis of its result;
        column i of the returned matrix is f(B_i), flattened.
        """
        images = np.asarray(f(self.stack.reshape(-1, self.n, self.n)), dtype=np.int64)
        return images.reshape(len(images), math.prod(images.shape[1:])).T % self.p

    def coordinates(self, M) -> np.ndarray | None:
        return fpalg.solve(self.stack.T, fpalg.modmat(M, self.p).reshape(-1), self.p)

    def contains(self, M) -> bool:
        return self.coordinates(M) is not None

    def mul(self, A, B) -> np.ndarray:
        return (fpalg.modmat(A, self.p) @ fpalg.modmat(B, self.p)) % self.p

    def identity_element(self) -> np.ndarray:
        return np.eye(self.n, dtype=np.int64)

    def is_closed(self) -> bool:
        """Every product of basis elements, and I when unital, lies in the span.

        One rank comparison: stacking them under ``stack`` leaves its rank
        unchanged.
        """
        basis = self.stack.reshape(-1, self.n, self.n)
        rows = [self.stack, (basis[:, None] @ basis[None]).reshape(-1, self.n**2)]
        if self.unital:
            rows.append(self.identity_element().reshape(1, -1))
        return fpalg.rank(np.vstack(rows), self.p) == fpalg.rank(self.stack, self.p)

    def iter_elements(self):
        """All p^dim elements, first coordinate fastest; caller must keep dim small."""
        for coords in itertools.product(range(self.p), repeat=self.dimension):
            yield self.element(coords[::-1])

    def subspace_basis(self, elements) -> list[np.ndarray]:
        """Independent spanning subset (as rref rows lifted back to matrices)."""
        if not elements:
            return []
        stack = np.array(
            [fpalg.modmat(E, self.p).reshape(-1) for E in elements], dtype=np.int64
        )
        R, pivots = fpalg.rref(stack, self.p)
        return [R[i].reshape(self.n, self.n) for i in range(len(pivots))]


@dataclass
class UnitBallLattice:
    """O-basis of the unit ball of a matrix algebra over Q_p.

    Basis elements have norm exactly 1 and linearly independent
    reductions, so they are orthonormal and every norm <= 1 element of
    the algebra is an O-combination of them.
    """

    algebra: MatrixAlgebra
    basis: list[KMatrix]


def reduce_algebra(
    alg: MatrixAlgebra, max_iter: int | None = None
) -> tuple[UnitBallLattice, FiniteAlgebra]:
    """Unit-ball lattice basis and the reduced algebra mod p.

    Each basis element is normalized to norm 1; while the reductions stay
    dependent, a dependent combination is divided by p and swapped in
    (each repair strictly increases total valuation, so stagnation past
    the iteration bound signals precision exhaustion).
    """
    p = alg.p
    basis: list[KMatrix] = []
    for B in alg.basis:
        e = operator_norm(B)
        if e == float("inf"):
            continue
        basis.append(B.scale(PadicScalar.from_rational(p, Fraction(p) ** (-int(e)))))
    if max_iter is None:
        max_iter = 4 * max(
            [b.N for B in basis for b in B.values() if b.kind == "unit"]
            or [64]
        )
    for _ in range(max_iter):
        reduced = np.array(
            [reduce_matrix(B).reshape(-1) for B in basis], dtype=np.int64
        )
        # nullspace of the transpose gives dependencies among the rows
        dep = fpalg.nullspace(reduced.T, p)
        if dep.shape[0] == 0:
            fin = FiniteAlgebra(
                p, alg.n, [reduce_matrix(B) for B in basis], unital=True
            )
            return UnitBallLattice(alg, basis), fin
        coeffs = dep[0]
        combo = KMatrix.zeros(p, alg.n)
        for c, B in zip(coeffs, basis):
            if c:
                combo = combo + B.scale(PadicScalar.from_int(p, int(c)))
        e = operator_norm(combo)
        if not (e >= 1):
            raise PrecisionLoss("dependent combination did not gain valuation")
        repaired = combo.scale(PadicScalar.from_rational(p, Fraction(p) ** (-int(e))))
        target = max(i for i, c in enumerate(coeffs) if c)
        basis[target] = repaired
    raise NonConvergent("lattice repair did not stabilize; precision exhausted")


def left_annihilator(
    alg: FiniteAlgebra, subset: list[np.ndarray], check_ideal: bool = True
) -> list[np.ndarray]:
    """Basis of {x in alg : x s = 0 for all s in subset}.

    Coincides with the left annihilator of the right ideal generated by
    the subset (verified when check_ideal is set).
    """
    # (sum c_i B_i) s = 0 for every s at once: x [s_1 | s_2 | ...] = 0
    S = np.hstack(
        [fpalg.modmat(s, alg.p) for s in subset]
        or [np.zeros((alg.n, 0), dtype=np.int64)]
    )
    sols = fpalg.nullspace(alg.linear_map(lambda X: X @ S), alg.p)
    out = [alg.element(c) for c in sols]
    if check_ideal and subset:
        ideal = alg.subspace_basis(
            [alg.mul(s, B) for s in subset for B in alg.basis]
        )
        other = left_annihilator(alg, ideal, check_ideal=False)
        if not fpalg.span_equal(
            [x.reshape(-1) for x in out] or np.zeros((0, alg.n**2), dtype=np.int64),
            [x.reshape(-1) for x in other] or np.zeros((0, alg.n**2), dtype=np.int64),
            alg.p,
        ):
            raise CertificationFailed(
                "annihilator of subset differs from annihilator of its right ideal"
            )
    return out


@dataclass
class BaerReport:
    is_baer: bool | None
    search_mode: str  # exhaustive | sampled
    failing_annihilator: list[np.ndarray] | None = None
    type_verdict: str = "inconclusive"  # I | not-baer | inconclusive
    witness_idempotent: np.ndarray | None = None
    detail: dict = field(default_factory=dict)


def _annihilator_generated_by_idempotent(
    alg: FiniteAlgebra, L: list[np.ndarray]
) -> np.ndarray | None:
    """Idempotent e in L acting as right identity on L, or None.

    L = alg . e for an idempotent e in L forces e to be a right identity
    on L, and conversely any solution of the linear system {b e = b} with
    e in L is automatically idempotent (take b = e).
    """
    if not L:
        return np.zeros((alg.n, alg.n), dtype=np.int64)
    span = FiniteAlgebra(alg.p, alg.n, L, unital=False)
    # e = sum c_j L_j with b e = b for each b in L: column j is (b L_j)_b
    system = span.linear_map(lambda X: X[None] @ X[:, None])
    sol = fpalg.solve(system, span.stack.reshape(-1), alg.p)
    if sol is None:
        return None
    e = span.element(sol)
    if not np.array_equal(alg.mul(e, e), e):
        raise CertificationFailed("right identity of an annihilator is not idempotent")
    return e


# int64 entries per array of one elimination stack in the Baer search: a
# chunk holds max(1, _STACK_ENTRIES // (n^2 dim)) annihilator systems of
# n^2 x dim, so its memory stays bounded whatever the budget
_STACK_ENTRIES = 1 << 13


def _line_representatives(p: int, dim: int, size: int):
    """Coordinates of 0 and of the first element of every line through 0.

    In ``iter_elements`` order (first coordinate fastest) the first
    element of a line {c s : c != 0} is its multiple whose last nonzero
    coordinate is 1.  They come in that order, in chunks of at most size
    rows: zero, then for i = 0 .. dim - 1 the elements with coordinate i
    equal to 1, higher coordinates 0 and lower ones in any value.
    """
    yield np.zeros((1, dim), dtype=np.int64)
    for i in range(dim):
        for start in range(0, p**i, size):
            k = np.arange(start, min(start + size, p**i), dtype=np.int64)
            coords = np.zeros((len(k), dim), dtype=np.int64)
            coords[:, :i] = k[:, None] // p ** np.arange(i, dtype=np.int64) % p
            coords[:, i] = 1
            yield coords


def _element_annihilators(
    alg: FiniteAlgebra, mode: str, n_samples: int, seed: int
) -> dict[bytes, list[np.ndarray]]:
    """The distinct annihilators l(s) of the searched elements, with their bases.

    They come in the order the elements are visited.  Each chunk of
    elements s is solved as one stack of systems x s = 0 over the
    coordinates of x.  A subspace's key is the bytes of its
    ``nullspace_stack`` slice: the basis with the identity on its free
    coordinates, which depends on nothing but the subspace.
    """
    p, n, dim = alg.p, alg.n, alg.dimension
    size = max(1, _STACK_ENTRIES // (n**2 * dim))
    if mode == "exhaustive":
        chunks = _line_representatives(p, dim, size)
    else:
        rng = random.Random(seed)
        samples = [[rng.randrange(p) for _ in range(dim)] for _ in range(n_samples)]
        coords = np.vstack(
            [
                np.eye(dim, dtype=np.int64),
                np.array(samples, dtype=np.int64).reshape(-1, dim),
            ]
        )
        chunks = (coords[i : i + size] for i in range(0, len(coords), size))
    basis = alg.stack.reshape(dim, n, n)
    seen: dict[bytes, list[np.ndarray]] = {}
    for chunk in chunks:
        elements = (chunk @ alg.stack % p).reshape(-1, 1, n, n)
        # column i of system s is B_i s, flattened
        systems = (basis @ elements).reshape(len(chunk), dim, n * n)
        K, free = fpalg.nullspace_stack(systems.transpose(0, 2, 1), p)
        for k, f in zip(K, free):
            key = k.tobytes()
            if key not in seen:
                seen[key] = list((k[f] @ alg.stack % p).reshape(-1, n, n))
    return seen


DEFAULT_ENUM_BUDGET = 200_000


def is_baer(
    alg: FiniteAlgebra,
    mode: str = "auto",
    budget: int = DEFAULT_ENUM_BUDGET,
    n_samples: int = 200,
    seed: int = 0,
) -> BaerReport:
    """Is every one-sided annihilator generated by an idempotent?

    Only the left annihilators l(s) of single elements are tested: a p.p.
    ring with no infinite set of orthogonal idempotents is Baer (Small,
    "Semihereditary rings", 1967; Lam, Lectures on Modules and Rings,
    §7D).  In finite dimension the proof is short.  If l(X) = Ae and
    l(es) = Af for idempotents e, f, then (1 - e)es = 0 puts 1 - e in Af,
    so (1 - e)f = 1 - e, that is ef = f + e - 1.  Then g = fe has
    g^2 = f(ef)e = fe = g, gf = g and ge = g, and every x in Ae ∩ Af has
    xg = xe = x, so Ag = Ae ∩ Af.  That is l(X ∪ {s}), as xs = xes when
    x = xe.  By induction from l(∅) = A·1 every finite F has l(F)
    generated by an idempotent, and since the dimension is finite,
    l(S) = l(F) for some finite F ⊆ S.  Without a unit, x - xe for x in A
    stands in for 1 - e (x = f gives fef = fe), and l(∅) = l(0) is among
    the annihilators tested.

    Exhaustive mode, feasible when p^dim is within budget, tests every
    element annihilator; as l(c s) = l(s) for every c != 0, it visits
    zero and one element per line through the origin,
    (p^dim - 1)/(p - 1) + 1 elements, in the order of ``iter_elements``.
    Sampled mode tests the basis elements plus a seeded random family; a
    positive verdict then only means "no counterexample found".  In both
    modes the annihilators are computed on stacks of systems by
    ``fpalg``'s stacked elimination and tested in the order their
    elements are visited.
    """
    p, dim = alg.p, alg.dimension
    if mode == "auto":
        mode = "exhaustive" if p**dim <= budget else "sampled"
    if mode == "exhaustive" and p**dim > budget:
        raise BudgetExceeded(f"p^dim = {p}^{dim} exceeds budget {budget}")
    seen = _element_annihilators(alg, mode, n_samples, seed)
    for L in seen.values():
        e = _annihilator_generated_by_idempotent(alg, L)
        if e is None:
            return BaerReport(
                False,
                mode,
                failing_annihilator=L,
                type_verdict="not-baer",
                detail={"annihilators_tested": len(seen)},
            )
    return BaerReport(True, mode, detail={"annihilators_tested": len(seen)})


def _power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    """X^k mod p by repeated squaring, for one matrix or a stack of them."""
    out = np.broadcast_to(np.eye(X.shape[-1], dtype=np.int64), X.shape)
    X = fpalg.modmat(X, p)
    while k:
        if k & 1:
            out = out @ X % p
        X = X @ X % p
        k >>= 1
    return out


def _frobenius_split(alg: FiniteAlgebra, C: FiniteAlgebra) -> list[np.ndarray]:
    """Primitive idempotents of a commutative subalgebra C of alg.

    y -> y^p is linear on C, and its fixed points are exactly the span
    of the primitive idempotents (Berlekamp).  On such a y, 1 - (y - a)^(p-1)
    is the idempotent where y takes the value a, so splitting 1 by each
    fixed y of a basis leaves the primitive idempotents, plus 1 - u when
    C does not contain 1 (u the sum of the primitives); that piece kills
    every y and is dropped.
    """
    p = alg.p
    one = alg.identity_element()
    fixed = fpalg.nullspace(C.linear_map(lambda X: _power(X, p, p) - X), p)
    ys = [C.element(c) for c in fixed]
    pieces = [one]
    for y in ys:
        parts = [(one - _power(y - a * one, p - 1, p)) % p for a in range(p)]
        pieces = [e @ part % p for e in pieces for part in parts]
        pieces = [e for e in pieces if np.any(e)]
    return [e for e in pieces if any(np.any(e @ y % p) for y in ys)]


def _poly_idempotents(alg: FiniteAlgebra, x: np.ndarray) -> list[np.ndarray]:
    """Primitive idempotents of F_p[x] when the minimal polynomial is
    squarefree; empty list otherwise."""
    p = alg.p
    # I, x, ..., x^(n-1) span F_p[x] by Cayley-Hamilton
    powers = [_power(x, k, p) for k in range(alg.n)]
    Fx = FiniteAlgebra(p, alg.n, alg.subspace_basis(powers))
    # F_p[t]/(m) has no nilpotents, so y -> y^p is injective, iff m is squarefree
    if fpalg.rank(Fx.linear_map(lambda X: _power(X, p, p)), p) < Fx.dimension:
        return []
    return _frobenius_split(alg, Fx)


def _compressed_basis(alg: FiniteAlgebra, e: np.ndarray) -> list[np.ndarray]:
    return alg.subspace_basis([alg.mul(alg.mul(e, B), e) for B in alg.basis])


def _is_commutative(alg: FiniteAlgebra, basis: list[np.ndarray]) -> bool:
    return all(
        np.array_equal(alg.mul(A, B), alg.mul(B, A))
        for i, A in enumerate(basis)
        for B in basis[i + 1 :]
    )


def compute_center(alg: FiniteAlgebra) -> list[np.ndarray]:
    """Basis of the center as elements of the algebra."""
    # x B_j - B_j x = 0 for every j: column i is (B_i B_j - B_j B_i)_j
    system = alg.linear_map(lambda X: X[:, None] @ X[None] - X[None] @ X[:, None])
    return [alg.element(c) for c in fpalg.nullspace(system, alg.p)]


def _central_primitive_idempotents(alg: FiniteAlgebra) -> list[np.ndarray]:
    """Primitive idempotents of the center, certified central and idempotent."""
    center = FiniteAlgebra(
        alg.p, alg.n, alg.subspace_basis(compute_center(alg)), unital=False
    )
    primitives = _frobenius_split(alg, center)
    for e in primitives:
        if not (np.array_equal(alg.mul(e, e), e) and center.contains(e)):
            raise CertificationFailed(
                "central primitive idempotent is not an idempotent of the center"
            )
    return primitives


def central_cover_is_one(alg: FiniteAlgebra, e: np.ndarray, primitives) -> bool:
    """Smallest central idempotent above e is 1 iff e meets every block."""
    for z in primitives:
        if not np.any(alg.mul(z, e)):
            return False
    return True


def classify_type(
    alg: FiniteAlgebra,
    budget: int = DEFAULT_ENUM_BUDGET,
    seed: int = 0,
    baer: BaerReport | None = None,
) -> BaerReport:
    """Search for a faithful abelian idempotent (Kaplansky type I).

    Never asserts type II or III: finite-dimensional algebras over F_p
    admit no type III phenomena and the search is budgeted, so absence
    of a witness yields "inconclusive".  Dedekind finiteness holds
    automatically in finite dimension and is recorded as an invariant.
    """
    report = baer if baer is not None else is_baer(alg, budget=budget, seed=seed)
    if report.is_baer is False:
        return report
    primitives = _central_primitive_idempotents(alg)
    rng = random.Random(seed)
    block_witnesses = []
    for z in primitives:
        block = FiniteAlgebra(alg.p, alg.n, _compressed_basis(alg, z), unital=False)
        found = None
        if _is_commutative(alg, block.basis):
            found = z
        elif alg.p**block.dimension <= 10_000:
            for cand in block.iter_elements():
                if not np.any(cand):
                    continue
                if np.array_equal(alg.mul(cand, cand), cand) and _is_commutative(
                    alg, _compressed_basis(alg, cand)
                ):
                    found = cand
                    break
        else:
            for _ in range(60):
                x = block.element(
                    [rng.randrange(alg.p) for _ in range(block.dimension)]
                )
                for cand in _poly_idempotents(alg, x):
                    cand = alg.mul(alg.mul(z, cand), z)
                    if np.any(cand) and np.array_equal(
                        alg.mul(cand, cand), cand
                    ) and _is_commutative(alg, _compressed_basis(alg, cand)):
                        found = cand
                        break
                if found is not None:
                    break
        if found is None:
            report.type_verdict = "inconclusive"
            report.detail["blocks_without_witness"] = True
            return report
        block_witnesses.append(found)
    e = np.zeros((alg.n, alg.n), dtype=np.int64)
    for w in block_witnesses:
        e = (e + w) % alg.p
    # verify the witness from scratch
    ok = (
        np.array_equal(alg.mul(e, e), e)
        and _is_commutative(alg, _compressed_basis(alg, e))
        and central_cover_is_one(alg, e, primitives)
    )
    if ok:
        report.type_verdict = "I"
        report.witness_idempotent = e
        report.detail["central_blocks"] = len(primitives)
    else:
        report.type_verdict = "inconclusive"
    return report


def dedekind_finite(alg: FiniteAlgebra) -> bool:
    """xy = 1 implies yx = 1: true of every unital finite-dimensional algebra.

    If xy = 1, left multiplication by y is injective (yz = 0 gives
    z = xyz = 0), so in finite dimension it is onto: yw = 1 for some w,
    and then x = xyw = w, so yx = 1.  Only the hypotheses are checked:
    raises ValueError unless alg contains I and is closed under
    multiplication.
    """
    if not alg.contains(alg.identity_element()):
        raise ValueError("algebra is not unital")
    if not alg.is_closed():
        raise ValueError("algebra not closed under multiplication")
    return True


def verify_crossed_reduction(grp: TruncatedGroup) -> list[CheckResult]:
    """Reduction of the V/M crossed-product algebra and its Baer type.

    Extracts the coefficient matrices of the unit-ball basis, which
    certifies their coset support pattern; the multiplicativity of the
    coefficient map follows from the character identity on G0.  Then
    checks the nu-basis pattern, the invariance of the two coordinate
    subspaces split by the dual stabilizer subgroup, the coset-block
    decomposition into full matrix algebras, and finally the Baer
    property and type I witness.
    """
    results = []
    p = grp.p
    algebras = build_algebras(grp)
    RJ = algebras.RJ
    lattice, reduced = reduce_algebra(RJ)
    results.append(
        CheckResult(
            "unit_ball_basis_is_orthonormal",
            is_orthonormal([B.as_vector() for B in lattice.basis]),
            {"dim": len(lattice.basis)},
        )
    )

    # extraction certifies F^-1 B F = block(b_B) for each basis element B,
    # raising on any nonzero block off the G0-cosets, so b_B vanishes there
    extracted = [extract_block_coefficients(grp, B) for B in lattice.basis]
    coeffs = [b for b, _ in extracted]
    results.append(CheckResult("coefficients_vanish_off_G0_cosets", True))
    # F^-1 B1 B2 F = block(b1) block(b2), as F F^-1 = I is certified, and
    # that is block(b1 b2) when the characters of G0 multiply
    results.append(
        CheckResult("coefficient_map_is_multiplicative", grp.g0_characters_multiply)
    )

    # matrix elements in the nu basis follow the shifted-coset pattern:
    # T^-1 A T = D^-1 block(b) D, with block(b) as extraction built it, and
    # entry ((l, m), (i, j)) is b[m, j] when l = m + i - j and zero otherwise
    D, D_inv = nu_block_change(grp)
    nu_index = [(i, n) for i in grp.g0_indices() for n in range(grp.order)]
    pattern_ok = True
    for b, block in extracted:
        expected = [
            {
                col: b.entry(m, j)
                for col, (i, j) in enumerate(nu_index)
                if (l_idx - (m + i - j)) % grp.order == 0
            }
            for l_idx, m in nu_index
        ]
        if not (D_inv @ block @ D).equals(KMatrix.from_rows(p, expected, len(nu_index))):
            pattern_ok = False
    results.append(CheckResult("nu_matrix_elements_follow_coset_pattern", pattern_ok))
    reduced_coeffs = [reduce_matrix(b) for b in coeffs]

    coeff_alg = FiniteAlgebra(p, grp.order, reduced_coeffs, unital=True)
    results.append(
        CheckResult(
            "reduced_and_coefficient_algebras_same_dimension",
            fpalg.rank(coeff_alg.stack, p)
            == reduced.dimension
            == len(lattice.basis),
            {"dim": reduced.dimension},
        )
    )

    g0 = set(grp.g0_indices())
    z_invariance = all(
        b[m, j] == 0
        for b in reduced_coeffs
        for m in range(grp.order)
        for j in range(grp.order)
        if (j in g0) != (m in g0)
    )
    results.append(CheckResult("coordinate_split_Z0_Z1_invariant", z_invariance))

    cosets = grp.g0_cosets()
    blocks_full = True
    for idx in cosets:
        sub = np.array(
            [b[np.ix_(idx, idx)].reshape(-1) for b in reduced_coeffs], dtype=np.int64
        )
        if fpalg.rank(sub, p) != len(idx) ** 2:
            blocks_full = False
    results.append(
        CheckResult(
            "coset_blocks_are_full_matrix_algebras",
            blocks_full,
            {"blocks": len(cosets), "block_size": len(g0)},
        )
    )

    baer_report = is_baer(coeff_alg, seed=1)
    typed = classify_type(coeff_alg, seed=1, baer=baer_report)
    results.append(
        CheckResult(
            "reduction_is_baer",
            bool(baer_report.is_baer),
            {"mode": baer_report.search_mode},
        )
    )
    results.append(
        CheckResult(
            "reduction_is_type_I",
            typed.type_verdict == "I",
            {"verdict": typed.type_verdict},
        )
    )
    return results

