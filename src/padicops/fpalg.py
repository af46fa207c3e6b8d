"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  One
eliminator serves every caller: ``rref_stack`` row-reduces an (m, r, c)
stack of same-shaped systems at once, with a pivot search per slice, in
the style of FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
2008).  A single matrix is a stack of one.  Pivots are normalised by
modular inverses; everything is exact.
"""

from __future__ import annotations

import numpy as np


def modmat(M, p: int) -> np.ndarray:
    return np.asarray(M, dtype=np.int64) % p


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise: the inverse of every nonzero entry."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def rref_stack(M, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form mod p of every slice of an (m, r, c) stack.

    Returns (R, pivots): R has the shape of M and pivots is an (m, c)
    boolean mask of pivot columns.  Slice s has rank pivots[s].sum(), its
    nonzero rows come first, and its i-th row holds the i-th pivot.
    """
    R = modmat(M, p)
    m, r, c = R.shape
    pivots = np.zeros((m, c), dtype=bool)
    row = np.zeros(m, dtype=np.int64)  # next pivot row of each slice
    below = np.arange(r)
    for col in range(c):
        candidates = (R[:, :, col] != 0) & (below >= row[:, None])
        hit = np.flatnonzero(candidates.any(axis=1))
        if not len(hit):
            continue
        top = row[hit]
        found = candidates[hit].argmax(axis=1)
        # swap the first nonzero row of each slice into place (the right
        # side is copied before the assignment)
        R[hit, top], R[hit, found] = R[hit, found], R[hit, top]
        pivot_row = R[hit, top] * _inverse(R[hit, top, col], p)[:, None] % p
        factors = R[hit, :, col]
        factors[np.arange(len(hit)), top] = 0
        # columns left of col are zero in the pivot row; when every slice
        # has a pivot here, R is updated in place
        rest = R[:, :, col:] if len(hit) == m else R[hit, :, col:]
        rest -= factors[:, :, None] * pivot_row[:, None, col:]
        rest %= p
        if len(hit) < m:
            R[hit, :, col:] = rest
        R[hit, top] = pivot_row
        pivots[hit, col] = True
        row[hit] += 1
        if row.min() == r:
            break
    return R, pivots


def rref(M, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p.

    Returns (R, pivot_cols); rank = len(pivot_cols).
    """
    R, pivots = rref_stack(modmat(M, p)[None], p)
    return R[0], np.flatnonzero(pivots[0]).tolist()


def rank(M, p: int) -> int:
    return len(rref(M, p)[1])


def nullspace_stack(M, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of every slice of an (m, r, c) stack.

    Returns (K, free): K is (m, c, c) and free the (m, c) mask of free
    columns.  For a free column f, row f of K[s] is the solution x of
    M[s] x = 0 with x_f = 1 and zeros on the other free columns; the rows
    of pivot columns are zero.  So the free rows of K[s] are a basis of
    the null space, and K[s] as a whole spans it.
    """
    R, pivots = rref_stack(M, p)
    m, _, c = R.shape
    # E[s, j] is the row of R[s] whose pivot is column j (zero if j is
    # free); column f of I - E is then the solution for free f, and zero
    # for a pivot f, as R is reduced
    E = np.zeros((m, c, c), dtype=np.int64)
    slices, cols = np.nonzero(pivots)
    E[slices, cols] = R[slices, np.cumsum(pivots, axis=1)[slices, cols] - 1]
    K = (np.eye(c, dtype=np.int64) - E).transpose(0, 2, 1) % p
    return K, ~pivots


def nullspace(M, p: int) -> np.ndarray:
    """Basis of {x : Mx = 0} as rows; empty (0, n) array if trivial."""
    K, free = nullspace_stack(modmat(M, p)[None], p)
    return K[0][free[0]]


def solve(M, b, p: int) -> np.ndarray | None:
    """One solution of Mx = b mod p, or None if inconsistent."""
    M = modmat(M, p)
    b = modmat(b, p).reshape(-1, 1)
    aug = np.hstack([M, b])
    R, pivots = rref(aug, p)
    n = M.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R[i, n]
    return x


def span_equal(A, B, p: int) -> bool:
    """Do two row families span the same subspace of F_p^n?"""
    A = modmat(A, p)
    B = modmat(B, p)
    ra, rb = rank(A, p), rank(B, p)
    if ra != rb:
        return False
    return rank(np.vstack([A, B]), p) == ra
