"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Gaussian
elimination uses modular inverses for pivots; everything is exact.
"""

from __future__ import annotations

import numpy as np


def modmat(M, p: int) -> np.ndarray:
    return np.asarray(M, dtype=np.int64) % p


def rref(M, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p.

    Returns (R, pivot_cols); rank = len(pivot_cols).
    """
    R = modmat(M, p).copy()
    m, n = R.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if len(nz) == 0:
            continue
        r = row + nz[0]
        if r != row:
            R[[row, r]] = R[[r, row]]
        inv = pow(int(R[row, col]), -1, p)
        R[row] = (R[row] * inv) % p
        for other in range(m):
            if other != row and R[other, col]:
                R[other] = (R[other] - R[other, col] * R[row]) % p
        pivot_cols.append(col)
        row += 1
    return R, pivot_cols


def rank(M, p: int) -> int:
    return len(rref(M, p)[1])


def nullspace(M, p: int) -> np.ndarray:
    """Basis of {x : Mx = 0} as rows; empty (0, n) array if trivial."""
    R, pivots = rref(M, p)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = np.zeros(n, dtype=np.int64)
        x[f] = 1
        for i, pc in enumerate(pivots):
            x[pc] = (-R[i, f]) % p
        basis.append(x)
    if not basis:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(basis, dtype=np.int64)


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
