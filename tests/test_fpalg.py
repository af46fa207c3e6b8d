"""Stacked elimination over F_p against the per-pivot reference loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fp_reference import reference_nullspace, reference_rref
from padicops import fpalg


@st.composite
def stacks(draw):
    """(p, M): an (m, r, c) stack mixing full, rank-deficient and zero slices."""
    p = draw(st.sampled_from([2, 3, 5, 17]))
    m = draw(st.integers(0, 4))
    r = draw(st.integers(0, 6))
    c = draw(st.integers(0, 6))

    def matrix(rows, cols):
        flat = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    slices = []
    for _ in range(m):
        kind = draw(st.sampled_from(["any", "deficient", "zero"]))
        if kind == "any":
            slices.append(matrix(r, c))
        elif kind == "deficient":
            k = draw(st.integers(0, max(0, min(r, c) - 1)))
            slices.append(matrix(r, k) @ matrix(k, c) % p)
        else:
            slices.append(np.zeros((r, c), dtype=np.int64))
    return p, np.array(slices, dtype=np.int64).reshape(m, r, c)


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_stacked_rref_matches_reference_slice_for_slice(case):
    p, M = case
    R, pivots = fpalg.rref_stack(M, p)
    assert R.shape == M.shape and pivots.shape == (M.shape[0], M.shape[2])
    for s in range(M.shape[0]):
        R0, cols = reference_rref(M[s], p)
        assert np.array_equal(R[s], R0)
        assert np.flatnonzero(pivots[s]).tolist() == cols
        single, single_cols = fpalg.rref(M[s], p)
        assert np.array_equal(single, R0) and single_cols == cols


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_stacked_nullspace_matches_reference(case):
    p, M = case
    K, free = fpalg.nullspace_stack(M, p)
    c = M.shape[2]
    assert K.shape == (M.shape[0], c, c)
    for s in range(M.shape[0]):
        basis = reference_nullspace(M[s], p)
        assert np.array_equal(K[s][free[s]], basis)
        assert not K[s][~free[s]].any()
        assert np.array_equal(fpalg.nullspace(M[s], p), basis)
        assert not (M[s] @ K[s].T % p).any()


def test_empty_shapes():
    R, pivots = fpalg.rref_stack(np.zeros((0, 3, 4), dtype=np.int64), 5)
    assert R.shape == (0, 3, 4) and pivots.shape == (0, 4)
    assert fpalg.nullspace(np.zeros((0, 3), dtype=np.int64), 5).tolist() == np.eye(3).tolist()
    assert fpalg.nullspace(np.zeros((3, 0), dtype=np.int64), 5).shape == (0, 0)
    assert fpalg.rref(np.zeros((2, 0), dtype=np.int64), 7)[1] == []


def test_solve_finds_a_solution_or_none():
    p = 17
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    x = fpalg.solve(M, [6, 12, 6], p)
    assert np.array_equal(M @ x % p, [6, 12, 6])
    assert fpalg.solve(M, [1, 0, 0], p) is None
