"""Matrices over Q_p with ultrametric operator-norm semantics.

The coordinate space carries the standard orthonormal basis, so the
operator norm of a matrix is the max of the entry norms, i.e. p^(-e)
where e is the minimal entry valuation.  All subspace computations row
reduce with max-norm pivoting so capped precision never silently decays.
"""

from __future__ import annotations

import math

from . import fpalg
from .errors import NotUnitNorm, PrecisionLoss
from .padic import PadicScalar, reduce_residue

INF = math.inf

NormExponent = float  # int, or math.inf for the zero matrix


class KMatrix:
    """Dense matrix of PadicScalar entries over a fixed prime p."""

    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p: int, entries: list[list[PadicScalar]]):
        self.p = p
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    @classmethod
    def from_int_rows(cls, p: int, grid) -> "KMatrix":
        return cls(p, [[PadicScalar.from_rational(p, x) for x in row] for row in grid])

    @classmethod
    def identity(cls, p: int, n: int) -> "KMatrix":
        one, zero = PadicScalar.one(p), PadicScalar.zero(p)
        return cls(p, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p: int, n: int, m: int | None = None) -> "KMatrix":
        m = n if m is None else m
        zero = PadicScalar.zero(p)
        return cls(p, [[zero] * m for _ in range(n)])

    def __add__(self, other: "KMatrix") -> "KMatrix":
        return KMatrix(
            self.p,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "KMatrix") -> "KMatrix":
        return KMatrix(
            self.p,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self) -> "KMatrix":
        return KMatrix(self.p, [[-a for a in row] for row in self.entries])

    def scale(self, c: PadicScalar) -> "KMatrix":
        return KMatrix(self.p, [[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        p = self.p
        zero = PadicScalar.zero(p)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.entries[i]
            orow = out[i]
            for t in range(self.cols):
                a = arow[t]
                if a.is_zero():
                    continue
                brow = other.entries[t]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return KMatrix(p, out)

    def apply(self, vec: list[PadicScalar]) -> list[PadicScalar]:
        zero = PadicScalar.zero(self.p)
        out = []
        for row in self.entries:
            acc = zero
            for a, x in zip(row, vec):
                if not (a.is_zero() or x.is_zero()):
                    acc = acc + a * x
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def equals(self, other: "KMatrix") -> bool:
        """Entrywise equality to full tracked precision."""
        return (self - other).is_zero()

    def as_vector(self) -> list[PadicScalar]:
        return [a for row in self.entries for a in row]

    @classmethod
    def from_vector(cls, p: int, vec: list[PadicScalar], n: int, m: int) -> "KMatrix":
        return cls(p, [list(vec[i * m : (i + 1) * m]) for i in range(n)])

    def transpose(self) -> "KMatrix":
        return KMatrix(
            self.p,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __repr__(self):
        return f"KMatrix({self.p}, {self.rows}x{self.cols})"


def vec_norm_exponent(vec) -> NormExponent:
    """Sup-norm exponent of a scalar family: min certified valuation."""
    certified = INF
    bound = INF
    for a in vec:
        if a.is_certified_nonzero():
            certified = min(certified, a.valuation())
        elif not a.is_exact_zero():
            bound = min(bound, a.valuation_lower_bound())
    if bound < certified:
        raise PrecisionLoss(
            "an entry is zero only to precision below the certified minimum"
        )
    return certified


def operator_norm(A: KMatrix) -> NormExponent:
    """Exponent e with ||A|| = p^(-e); +inf for the zero matrix."""
    return vec_norm_exponent(A.as_vector())


def is_orthonormal(vectors: list[list[PadicScalar]]) -> bool:
    """Norm-1 family test: residue reductions linearly independent over F_p."""
    if not vectors:
        return True
    p = vectors[0][0].p
    reduced = []
    for v in vectors:
        e = vec_norm_exponent(v)
        if e != 0:
            raise NotUnitNorm(f"vector has norm exponent {e}, expected 0")
        reduced.append([reduce_residue(a) for a in v])
    return fpalg.rank(reduced, p) == len(vectors)


class Echelon:
    """Incremental reduced row echelon form over Q_p.

    Rows are sparse dicts col -> scalar with pivot entry 1.  Pivots are
    chosen at the entry of maximal norm (minimal valuation), ties broken
    by lowest column index, so elimination never loses precision.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, PadicScalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict[int, PadicScalar]) -> dict[int, PadicScalar]:
        """Residual of a sparse row after elimination by current pivots."""
        row = {c: a for c, a in row.items() if not a.is_zero()}
        for pc in [c for c in row if c in self.pivots]:
            coeff = row.get(pc)
            if coeff is None or coeff.is_zero():
                continue
            prow = self.pivots[pc]
            for c, a in prow.items():
                cur = row.get(c)
                delta = coeff * a
                new = (cur - delta) if cur is not None else -delta
                if new.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = new
        return row

    def insert(self, row: dict[int, PadicScalar]) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        pivot_col = min(
            row, key=lambda c: (row[c].valuation(), c)
        )  # max norm, then lowest index
        inv = row[pivot_col].inverse()
        row = {c: inv * a for c, a in row.items()}
        row[pivot_col] = PadicScalar.one(self.p)
        # keep full RREF: clear the new pivot column from existing rows
        for pc, prow in self.pivots.items():
            coeff = prow.get(pivot_col)
            if coeff is None or coeff.is_zero():
                continue
            for c, a in row.items():
                cur = prow.get(c)
                delta = coeff * a
                new = (cur - delta) if cur is not None else -delta
                if new.is_zero():
                    prow.pop(c, None)
                else:
                    prow[c] = new
        self.pivots[pivot_col] = row
        return True

    def contains(self, row: dict[int, PadicScalar]) -> bool:
        return not self.reduce(row)

    def nullspace(self, ncols: int) -> list[list[PadicScalar]]:
        """Basis of the solution space of the inserted homogeneous rows."""
        p = self.p
        zero, one = PadicScalar.zero(p), PadicScalar.one(p)
        free = [c for c in range(ncols) if c not in self.pivots]
        basis = []
        for f in free:
            x = [zero] * ncols
            x[f] = one
            for pc, prow in self.pivots.items():
                coeff = prow.get(f)
                if coeff is not None and not coeff.is_zero():
                    x[pc] = -coeff
            basis.append(x)
        return basis


def dense_to_sparse(vec) -> dict[int, PadicScalar]:
    return {i: a for i, a in enumerate(vec) if not a.is_zero()}


class MatrixAlgebra:
    """Unital subalgebra of n x n matrices, held by a spanning basis."""

    def __init__(self, p: int, n: int, basis: list[KMatrix]):
        self.p = p
        self.n = n
        self.basis = basis
        self._echelon = Echelon(p)
        for B in basis:
            self._echelon.insert(dense_to_sparse(B.as_vector()))

    @property
    def dimension(self) -> int:
        return self._echelon.rank

    def contains(self, M: KMatrix) -> bool:
        return self._echelon.contains(dense_to_sparse(M.as_vector()))

    def contains_algebra(self, other: "MatrixAlgebra") -> bool:
        return all(self.contains(B) for B in other.basis)

    def equals(self, other: "MatrixAlgebra") -> bool:
        """Subspace equality by mutual containment (never basis comparison)."""
        return self.contains_algebra(other) and other.contains_algebra(self)

    def is_closed(self) -> bool:
        return all(
            self.contains(A @ B) for A in self.basis for B in self.basis
        ) and self.contains(KMatrix.identity(self.p, self.n))

    def coordinates(self, M: KMatrix) -> list[PadicScalar] | None:
        """Coefficients of M over the basis, or None if outside the span."""
        ech = Echelon(self.p)
        vecs = [B.as_vector() for B in self.basis]
        ncols = self.n * self.n
        d = len(vecs)
        # solve sum c_i vecs[i] = M by augmenting coefficient columns
        for j in range(ncols):
            row = {i: vecs[i][j] for i in range(d) if not vecs[i][j].is_zero()}
            target = M.as_vector()[j]
            if not target.is_zero():
                row[d] = -target
            if row:
                ech.insert(row)
        sols = ech.nullspace(d + 1)
        for sol in sols:
            if sol[d].is_certified_nonzero():
                inv = sol[d].inverse()
                return [inv * sol[i] for i in range(d)]
        return None


def algebra_span(generators: list[KMatrix], n: int) -> MatrixAlgebra:
    """Smallest unital subalgebra containing the generators.

    A span that contains I and the generators and is closed under right
    multiplication by each generator contains every word in them, so
    each new basis element is multiplied by the generators alone until
    no product leaves the span; finite dimension guarantees termination.
    """
    if generators:
        p = generators[0].p
    else:
        raise ValueError("need at least one generator or an explicit prime")
    ech = Echelon(p)
    basis: list[KMatrix] = []

    def try_add(M: KMatrix) -> bool:
        if ech.insert(dense_to_sparse(M.as_vector())):
            basis.append(M)
            return True
        return False

    try_add(KMatrix.identity(p, n))
    frontier = [G for G in generators if try_add(G)]  # I is left out: I @ G = G
    while frontier:
        new: list[KMatrix] = []
        for A in frontier:
            for G in generators:
                M = A @ G
                if try_add(M):
                    new.append(M)
        frontier = new
    return MatrixAlgebra(p, n, basis)


def commutant(generators: list[KMatrix], n: int) -> MatrixAlgebra:
    """Algebra of all X with XG = GX for every generator G."""
    p = generators[0].p
    ech = Echelon(p)
    for G in generators:
        # (XG - GX)[i][j] = sum_k X[i,k] G[k,j] - G[i,k] X[k,j]
        for i in range(n):
            for j in range(n):
                row: dict[int, PadicScalar] = {}
                for k in range(n):
                    g = G.entries[k][j]
                    if not g.is_zero():
                        var = i * n + k
                        row[var] = row[var] + g if var in row else g
                    g2 = G.entries[i][k]
                    if not g2.is_zero():
                        var = k * n + j
                        row[var] = row[var] - g2 if var in row else -g2
                row = {c: a for c, a in row.items() if not a.is_zero()}
                if row:
                    ech.insert(row)
    basis = [
        KMatrix.from_vector(p, vec, n, n) for vec in ech.nullspace(n * n)
    ]
    return MatrixAlgebra(p, n, basis)


def center(alg: MatrixAlgebra, comm: MatrixAlgebra) -> MatrixAlgebra:
    """The intersection alg ∩ comm.

    When comm is the commutant of a generating set of alg, this is the
    center Z(alg).  X = sum c_i comm.basis[i] lies in alg exactly when
    its residual after elimination by alg's echelon vanishes; that
    residual is sum c_i r_i with r_i the residual of comm.basis[i], so
    the coefficient vectors are the null space of the r_i.
    """
    p, n = alg.p, alg.n
    d = len(comm.basis)
    residuals = [
        alg._echelon.reduce(dense_to_sparse(C.as_vector())) for C in comm.basis
    ]
    ech = Echelon(p)
    for j in sorted({j for r in residuals for j in r}):
        ech.insert({i: r[j] for i, r in enumerate(residuals) if j in r})
    basis = []
    for coeffs in ech.nullspace(d):
        M = KMatrix.zeros(p, n)
        for c, C in zip(coeffs, comm.basis):
            if not c.is_zero():
                M = M + C.scale(c)
        basis.append(M)
    return MatrixAlgebra(p, n, basis)


def parse_matrix(p: int, grid, N: int | None = None) -> KMatrix:
    """Matrix from a JSON grid of scalar literals."""
    from .padic import DEFAULT_PRECISION, parse_scalar

    N = DEFAULT_PRECISION if N is None else N
    return KMatrix(p, [[parse_scalar(p, x, N) for x in row] for row in grid])
