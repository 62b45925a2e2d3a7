import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import linalg


@settings(max_examples=60, deadline=None)
@given(
    # 181 and 257 put the elimination at the int16 / int32 boundaries
    st.sampled_from([2, 3, 5, 7, 181, 257]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 2 ** 32 - 1),
)
def test_solvable_many_matches_solve(p, rows, cols, rank_cap, seed):
    rng = np.random.default_rng(seed)
    B = 12
    # rank-deficient stacks (product of thin factors) next to uniform ones
    low = rng.integers(0, p, (B, rows, rank_cap)) @ rng.integers(0, p, (B, rank_cap, cols))
    stack = np.where(rng.random((B, 1, 1)) < 0.5, low, rng.integers(0, p, (B, rows, cols))) % p
    # right-hand sides inside the span half of the time
    inside = np.einsum("brc,bc->br", stack, rng.integers(0, p, (B, cols))) % p
    b = np.where(rng.random((B, 1)) < 0.5, inside, rng.integers(0, p, (B, rows)))
    got = linalg.solvable_many(stack, b, p)
    assert got.tolist() == [linalg.solve(A, v, p) is not None for A, v in zip(stack, b)]
    shared = linalg.solvable_many(stack, b[0], p)
    assert shared.tolist() == [linalg.solve(A, b[0], p) is not None for A in stack]


def test_solvable_many_zero_padding_and_edges():
    A = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    b = np.array([1, 0])
    assert linalg.solvable_many(A, b, 2).tolist() == [True, False]
    padded = np.concatenate([A, np.zeros((2, 2, 3), dtype=np.int64)], axis=2)
    assert linalg.solvable_many(padded, b, 2).tolist() == [True, False]
    # no rows: every right-hand side is consistent
    assert linalg.solvable_many(np.zeros((3, 0, 2)), np.zeros(0), 5).tolist() == [True] * 3
    with pytest.raises(ValueError):
        linalg.solvable_many(np.zeros((2, 2)), b, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_left_nullspace_many_is_a_basis(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(0, min(rows, cols) + 1))
    stack = rng.integers(0, p, (8, rows, cap)) @ rng.integers(0, p, (8, cap, cols)) % p
    Y, basis = linalg.left_nullspace_many(stack, p)
    for A, y, keep in zip(stack, Y, basis):
        B = y[keep]
        assert len(B) == rows - linalg.rank(A, p)
        assert not (B @ A % p).any()
        if len(B):
            assert linalg.rank(B, p) == len(B)
