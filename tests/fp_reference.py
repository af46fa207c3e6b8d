"""Reference implementations over F_p that the tests compare against.

These are the one-matrix-at-a-time versions that ``fpalg`` and
``reduction`` replaced by stacked elimination: a per-pivot rref, and the
Baer search that computes one annihilator per element.  Its closure under
intersection, one rref per intersection, is what ``is_baer`` no longer
computes (Small's theorem makes the element annihilators enough); the
tests check its verdicts against that closure.  The Dedekind-finiteness
spot check that ``reduction.dedekind_finite`` replaced by the theorem is
kept here too.
"""

import random

import numpy as np

from padicops import fpalg
from padicops.reduction import FiniteAlgebra, left_annihilator


def reference_rref(M, p):
    """Reduced row-echelon form mod p by one Python loop per pivot."""
    R = fpalg.modmat(M, p).copy()
    m, n = R.shape
    pivot_cols = []
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


def reference_nullspace(M, p):
    """Null-space basis from ``reference_rref``, one row per free column."""
    R, pivots = reference_rref(M, p)
    n = R.shape[1]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = np.zeros(n, dtype=np.int64)
        x[f] = 1
        for i, pc in enumerate(pivots):
            x[pc] = (-R[i, f]) % p
        basis.append(x)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


def canonical_subspace(alg: FiniteAlgebra, L) -> tuple:
    """The rref rows of a family of matrices, as nested tuples."""
    if not len(L):
        return ()
    stack = np.array([x.reshape(-1) for x in L], dtype=np.int64)
    R, pivots = reference_rref(stack, alg.p)
    return tuple(map(tuple, R[: len(pivots)].tolist()))


def intersect_subspaces(alg: FiniteAlgebra, A, B) -> list:
    """Rref basis of span(A) ∩ span(B), from the null space of [A^T | -B^T]."""
    if not len(A) or not len(B):
        return []
    SA = np.array([x.reshape(-1) for x in A], dtype=np.int64)
    SB = np.array([x.reshape(-1) for x in B], dtype=np.int64)
    sols = reference_nullspace(np.hstack([SA.T, (-SB.T) % alg.p]), alg.p)
    vecs = [(sol[: SA.shape[0]] @ SA) % alg.p for sol in sols]
    if not vecs:
        return []
    R, pivots = reference_rref(np.array(vecs), alg.p)
    return [R[i].reshape(alg.n, alg.n) for i in range(len(pivots))]


def reference_annihilators(alg: FiniteAlgebra, elements) -> dict:
    """Canonical key -> annihilator, one ``left_annihilator`` per element."""
    seen = {}
    for s in elements:
        L = left_annihilator(alg, [s], check_ideal=False)
        seen.setdefault(canonical_subspace(alg, L), L)
    return seen


def reference_close(alg: FiniteAlgebra, seen: dict) -> None:
    """Close seen under intersection, one pair at a time.

    Each unordered pair {a, b} is visited once, as (a, b) with a taken
    from the frontier, in seen's insertion order.
    """
    subspaces = list(seen.values())
    done = set()
    frontier = list(range(len(subspaces)))
    while frontier:
        new = []
        for a in frontier:
            for b in range(len(subspaces)):
                if a == b or (b, a) in done:
                    continue
                done.add((a, b))
                inter = intersect_subspaces(alg, subspaces[a], subspaces[b])
                key = canonical_subspace(alg, inter)
                if key not in seen:
                    seen[key] = inter
                    new.append(len(subspaces))
                    subspaces.append(inter)
        frontier = new


def dedekind_finite_spotcheck(alg: FiniteAlgebra, trials: int = 200, seed: int = 0) -> bool:
    """xy = 1 implies yx = 1 on random invertible x (regular representation)."""
    rng = random.Random(seed)
    one = alg.identity_element()
    if not alg.contains(one):
        raise ValueError("algebra is not unital")
    if not alg.is_closed():
        raise ValueError("algebra not closed under multiplication")
    d = alg.dimension
    checked = 0
    attempts = 0
    while checked < trials and attempts < 20 * trials:
        attempts += 1
        x = alg.element([rng.randrange(alg.p) for _ in range(d)])
        # y = sum c_i B_i with y x = 1
        sol = fpalg.solve(alg.linear_map(lambda X: X @ x), one.reshape(-1), alg.p)
        if sol is None:
            continue
        y = alg.element(sol)
        if not np.array_equal(alg.mul(x, y), one):
            return False
        checked += 1
    return True
