import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import linalg
from rankforge.partition import matrix_rank


def _row_echelon_oracle(M, p: int):
    """The column loop `linalg.row_echelon` used before it read its result
    from the batched kernel.  Returns (R, pivot_cols)."""
    A = np.array(M, dtype=np.int64) % p
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = A[r] * inv % p
        factors = A[:, c].copy()
        factors[r] = 0
        if factors.any():
            A -= np.outer(factors, A[r])
            A %= p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def _rank_oracle(M, p: int) -> int:
    return len(_row_echelon_oracle(M, p)[1])


def _solve_oracle(A, b, p: int):
    A = np.array(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    cols = A.shape[1]
    R, pivots = _row_echelon_oracle(np.hstack([A, b.reshape(-1, 1)]), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, cols]
    return x


def _nullspace_oracle(A, p: int) -> np.ndarray:
    cols = np.shape(A)[1]
    R, pivots = _row_echelon_oracle(A, p)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[: len(pivots), free].T % p
    return basis


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@st.composite
def single_matrices(draw):
    """Matrices with 0 to 7 rows and columns, wide and tall, with entries
    outside [0, p) and capped ranks, for p up to 257 (int16 and int32 work)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 181, 257]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cap = draw(st.integers(0, 7))
    if draw(st.booleans()):
        M = rng.integers(0, p, (rows, cap)) @ rng.integers(0, p, (cap, cols))
    else:
        M = rng.integers(-2 * p, 2 * p, (rows, cols))
    inside = draw(st.booleans())
    b = M @ rng.integers(0, p, cols) if inside else rng.integers(0, p, rows)
    return p, M, b


@settings(max_examples=200, deadline=None)
@given(single_matrices())
def test_one_matrix_readers_match_column_loop(case):
    p, M, b = case
    R, pivots = linalg.row_echelon(M, p)
    R_old, pivots_old = _row_echelon_oracle(M, p)
    assert _same(R, R_old) and pivots == pivots_old
    x, x_old = linalg.solve(M, b, p), _solve_oracle(M, b, p)
    assert (x is None) == (x_old is None)
    if x is not None:
        assert _same(x, x_old)
    assert _same(linalg.nullspace(M, p), _nullspace_oracle(M, p))
    C, F = linalg.rank_factors(M, p)
    A = np.array(M, dtype=np.int64) % p
    assert _same(C, A[:, pivots_old]) and _same(F, R_old[: len(pivots_old)])
    rank = len(pivots_old)
    assert matrix_rank(M, p) == rank and type(matrix_rank(M, p)) is int
    assert _same(linalg.rank_many(np.asarray(M)[None], p), np.array([rank], dtype=np.int64))


def test_readers_edges():
    # a wide matrix whose rows all hold pivots before its last column is reached
    R, pivots = linalg.row_echelon([[0, 2, 1, 1], [1, 1, 0, 2]], 3)
    assert pivots == [0, 1] and R.tolist() == [[1, 0, 1, 0], [0, 1, 2, 2]]
    assert _same(linalg.nullspace(np.zeros((0, 3), dtype=np.int64), 7), np.eye(3, dtype=np.int64))
    assert linalg.solve(np.zeros((2, 0), dtype=np.int64), [0, 1], 2) is None
    assert _same(linalg.solve(np.zeros((2, 0), dtype=np.int64), [0, 0], 2), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        linalg.row_echelon(np.zeros(3), 2)


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
        assert len(B) == rows - _rank_oracle(A, p)
        assert not (B @ A % p).any()
        if len(B):
            assert _rank_oracle(B, p) == len(B)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 181, 257]), st.integers(1, 6), st.integers(0, 5), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_reduce_many_pivots_and_carried_columns(p, rows, ncols, extra, seed):
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(0, min(rows, ncols) + 1))
    left = rng.integers(0, p, (8, rows, cap)) @ rng.integers(0, p, (8, cap, ncols)) % p
    stack = np.concatenate([left, rng.integers(0, p, (8, rows, extra))], axis=2)
    pivot, carried = linalg.reduce_many(stack, p, ncols)
    assert pivot.dtype == bool and pivot.shape == (8, rows)
    assert carried.dtype == np.int64 and carried.shape == (8, rows, extra)
    assert 0 <= carried.min() and carried.max() < p
    for A, piv, C in zip(stack, pivot, carried):
        r = _rank_oracle(A[:, :ncols], p)
        assert piv.sum() == r
        # the last row pivots exactly when it leaves the row span of the rows above it
        assert piv[-1] == (r > _rank_oracle(A[:-1, :ncols], p))
        # rows without a pivot are zero on the first ncols columns and stay in A's row span
        rest = np.hstack([np.zeros((rows, ncols), dtype=np.int64), C])[~piv]
        assert _rank_oracle(np.vstack([A, rest]), p) == _rank_oracle(A, p) == r + _rank_oracle(rest, p)
