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
    """Matrix of PadicScalar entries over a fixed prime p, stored by rows.

    ``data[i]`` maps column j to entry (i, j) for every entry that is not
    an exact zero, the row form ``Echelon`` uses.  Capped zeros are
    stored: their precision bound is what the guard in
    ``vec_norm_exponent`` checks.  Products, sums and scans cost O(number
    of stored entries), so monomial and block-sparse matrices stay cheap.
    """

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p: int, entries: list[list[PadicScalar]]):
        """From a dense grid, a list of rows of scalars."""
        self.p = p
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.data = [
            {j: a for j, a in enumerate(row) if not a.is_exact_zero()}
            for row in entries
        ]

    @classmethod
    def from_rows(
        cls, p: int, rows: list[dict[int, PadicScalar]], cols: int
    ) -> "KMatrix":
        """From sparse rows col -> scalar; exact zeros are dropped."""
        M = cls.__new__(cls)
        M.p, M.rows, M.cols = p, len(rows), cols
        M.data = [
            {j: a for j, a in row.items() if not a.is_exact_zero()} for row in rows
        ]
        return M

    @classmethod
    def from_int_rows(cls, p: int, grid) -> "KMatrix":
        return cls(p, [[PadicScalar.from_rational(p, x) for x in row] for row in grid])

    @classmethod
    def identity(cls, p: int, n: int) -> "KMatrix":
        one = PadicScalar.one(p)
        return cls.from_rows(p, [{i: one} for i in range(n)], n)

    @classmethod
    def zeros(cls, p: int, n: int, m: int | None = None) -> "KMatrix":
        return cls.from_rows(p, [{} for _ in range(n)], n if m is None else m)

    def entry(self, i: int, j: int) -> PadicScalar:
        a = self.data[i].get(j)
        return PadicScalar.zero(self.p) if a is None else a

    def __add__(self, other: "KMatrix") -> "KMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        out = []
        for ra, rb in zip(self.data, other.data):
            row = dict(ra)
            for j, b in rb.items():
                a = row.get(j)
                row[j] = b if a is None else a + b
            out.append(row)
        return KMatrix.from_rows(self.p, out, self.cols)

    def __sub__(self, other: "KMatrix") -> "KMatrix":
        return self + (-other)

    def __neg__(self) -> "KMatrix":
        return KMatrix.from_rows(
            self.p, [{j: -a for j, a in row.items()} for row in self.data], self.cols
        )

    def scale(self, c: PadicScalar) -> "KMatrix":
        return KMatrix.from_rows(
            self.p, [{j: c * a for j, a in row.items()} for row in self.data], self.cols
        )

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        """Product; operands that are zero to precision are skipped."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        # each entry of the right factor is tested for zero once per product
        right = [
            [(j, b) for j, b in row.items() if not b.is_zero()] for row in other.data
        ]
        out = []
        for arow in self.data:
            acc: dict[int, PadicScalar] = {}
            for t, a in arow.items():
                if a.is_zero():
                    continue
                for j, b in right[t]:
                    cur = acc.get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            out.append(acc)
        return KMatrix.from_rows(self.p, out, other.cols)

    def apply(self, vec: list[PadicScalar]) -> list[PadicScalar]:
        zero = PadicScalar.zero(self.p)
        out = []
        for row in self.data:
            acc = zero
            for j, a in row.items():
                x = vec[j]
                if not (a.is_zero() or x.is_zero()):
                    acc = acc + a * x
            out.append(acc)
        return out

    def values(self):
        """The stored entries: every entry that is not an exact zero."""
        return (a for row in self.data for a in row.values())

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.values())

    def equals(self, other: "KMatrix") -> bool:
        """Entrywise equality to full tracked precision."""
        return (self - other).is_zero()

    def as_vector(self) -> list[PadicScalar]:
        """Entries in row-major order, zeros included."""
        m = self.cols
        out = [PadicScalar.zero(self.p)] * (self.rows * m)
        for i, row in enumerate(self.data):
            for j, a in row.items():
                out[i * m + j] = a
        return out

    def as_sparse_vector(self) -> dict[int, PadicScalar]:
        """Stored entries keyed by row-major index, the Echelon row form."""
        m = self.cols
        return {
            i * m + j: a for i, row in enumerate(self.data) for j, a in row.items()
        }

    @classmethod
    def from_vector(cls, p: int, vec: list[PadicScalar], n: int, m: int) -> "KMatrix":
        return cls(p, [list(vec[i * m : (i + 1) * m]) for i in range(n)])

    def transpose(self) -> "KMatrix":
        out: list[dict[int, PadicScalar]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, a in row.items():
                out[j][i] = a
        return KMatrix.from_rows(self.p, out, self.rows)

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
    return vec_norm_exponent(A.values())


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


class MatrixAlgebra:
    """Unital subalgebra of n x n matrices, held by a spanning basis."""

    def __init__(self, p: int, n: int, basis: list[KMatrix]):
        self.p = p
        self.n = n
        self.basis = basis
        self._echelon = Echelon(p)
        for B in basis:
            self._echelon.insert(B.as_sparse_vector())

    @property
    def dimension(self) -> int:
        return self._echelon.rank

    def contains(self, M: KMatrix) -> bool:
        return self._echelon.contains(M.as_sparse_vector())

    def contains_algebra(self, other: "MatrixAlgebra") -> bool:
        return all(self.contains(B) for B in other.basis)

    def equals(self, other: "MatrixAlgebra") -> bool:
        """Subspace equality by mutual containment (never basis comparison)."""
        return self.contains_algebra(other) and other.contains_algebra(self)

    def is_closed(self) -> bool:
        return all(
            self.contains(A @ B) for A in self.basis for B in self.basis
        ) and self.contains(KMatrix.identity(self.p, self.n))


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
        if ech.insert(M.as_sparse_vector()):
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


def _monomial(G: KMatrix) -> tuple[list[int], list[PadicScalar]] | None:
    """(sigma, g) with G = sum_i g[i] E_(i, sigma[i]) if G is monomial, else None.

    Monomial: each row holds exactly one certified-nonzero entry, the
    columns of those entries are distinct, and every other entry is an
    exact zero.
    """
    sigma, g = [], []
    for row in G.data:
        if len(row) != 1:
            return None
        ((j, a),) = row.items()
        if not a.is_certified_nonzero():
            return None
        sigma.append(j)
        g.append(a)
    if len(set(sigma)) != G.cols:
        return None
    return sigma, g


def _orbital_commutant(
    p: int, n: int, monomials: list[tuple[list[int], list[PadicScalar]]]
) -> list[KMatrix]:
    """Basis of the commutant of monomial generators, one matrix per orbital.

    For G = sum_i g_i E_(i, s(i)), entry (i, s(k)) of XG = GX reads
    X[s(i), s(k)] = X[i, k] g_k / g_i: every equation ties two entries of
    X, so X is fixed on each orbit of the index pairs (i, k) under
    (i, k) -> (s(i), s(k)) by its value at one pair.  The s are
    permutations, so following the generators forward from a pair visits
    its whole orbit.  A relation between two pairs already reached closes
    a cycle; when its ratio is not 1 (tested with is_zero, as Echelon
    tests pivots) X vanishes on that orbit, which then gives no basis
    element.  This is the twisted form of Schur's centralizer ring: the
    commutant of a permutation group is spanned by its orbitals.
    """
    steps = [(sigma, g, [a.inverse() for a in g]) for sigma, g in monomials]
    one = PadicScalar.one(p)
    value: list[PadicScalar | None] = [None] * (n * n)
    basis = []
    for start in range(n * n):
        if value[start] is not None:
            continue
        value[start] = one
        orbit = [start]
        consistent = True
        for var in orbit:  # orbit grows while it is walked
            i, k = divmod(var, n)
            x = value[var]
            for sigma, g, g_inv in steps:
                target = sigma[i] * n + sigma[k]
                y = x * g[k] * g_inv[i]
                known = value[target]
                if known is None:
                    value[target] = y
                    orbit.append(target)
                elif consistent and not (known - y).is_zero():
                    consistent = False
        if consistent:
            rows: list[dict[int, PadicScalar]] = [{} for _ in range(n)]
            for var in orbit:
                i, k = divmod(var, n)
                rows[i][k] = value[var]
            basis.append(KMatrix.from_rows(p, rows, n))
    return basis


def commutant(generators: list[KMatrix], n: int) -> MatrixAlgebra:
    """Algebra of all X with XG = GX for every generator G.

    When every generator is monomial the commutant is spanned by orbitals
    (``_orbital_commutant``); otherwise the n^2 linear equations are row
    reduced.
    """
    p = generators[0].p
    monomials = [_monomial(G) for G in generators]
    if all(m is not None for m in monomials):
        return MatrixAlgebra(p, n, _orbital_commutant(p, n, monomials))
    ech = Echelon(p)
    for G in generators:
        cols = G.transpose().data
        # (XG - GX)[i][j] = sum_k X[i,k] G[k,j] - G[i,k] X[k,j]
        for i in range(n):
            for j in range(n):
                row: dict[int, PadicScalar] = {}
                for k, g in cols[j].items():
                    if not g.is_zero():
                        var = i * n + k
                        row[var] = row[var] + g if var in row else g
                for k, g in G.data[i].items():
                    if not g.is_zero():
                        var = k * n + j
                        row[var] = row[var] - g if var in row else -g
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
        alg._echelon.reduce(C.as_sparse_vector()) for C in comm.basis
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
