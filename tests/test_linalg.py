import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import linalg


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
    assert _same(linalg.rank_many(np.asarray(M)[None], p), np.array([len(pivots_old)], dtype=np.int64))


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


# ---------------------------------------------------------------------------
#  p = 2: packed rows against the integer route and the column loop
# ---------------------------------------------------------------------------

def _stack(kind, B, r, c, seed):
    """A seeded (B, r, c) stack with entries outside [0, 2): uniform, of rank
    at most 3, zero, identity-led ([I | uniform]), or uniform with a last
    row that is the sum of the rows above it."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((B, r, c), dtype=np.int64)
    if kind == "low":
        return rng.integers(-3, 3, (B, r, 3)) @ rng.integers(-3, 3, (B, 3, c))
    A = rng.integers(-3, 3, (B, r, c))
    if kind == "identity":
        A[:, :, : min(r, c)] = np.eye(r, min(r, c), dtype=np.int64)
    elif kind == "dependent" and r > 1:
        A[:, -1] = A[:, :-1].sum(axis=1)
    return A


PACKED_CASES = [
    # (kind, B, r, c, ncols)
    ("uniform", 1, 5, 7, 7), ("uniform", 1, 7, 5, 0), ("low", 1, 6, 9, 4),
    ("uniform", 400, 9, 12, 9), ("low", 400, 12, 9, 6), ("dependent", 300, 10, 13, 12),
    ("uniform", 2, 70, 130, 130), ("uniform", 3, 130, 70, 70), ("low", 2, 129, 200, 150),
    ("uniform", 2, 64, 64, 64), ("uniform", 2, 65, 128, 127), ("uniform", 1, 200, 129, 129),
    ("dependent", 1, 66, 140, 140), ("dependent", 3, 140, 66, 60),
    ("zero", 4, 70, 70, 70), ("zero", 1, 3, 0, 0), ("zero", 2, 0, 5, 5),
    ("identity", 4, 70, 70, 70), ("identity", 2, 64, 192, 128), ("identity", 1, 130, 129, 129),
]


@pytest.mark.parametrize("kind,B,r,c,ncols", PACKED_CASES)
def test_packed_elimination_matches_integer_route(kind, B, r, c, ncols):
    A = _stack(kind, B, r, c, [15, B, r, c, ncols])
    work = (A % 2).astype(np.int16)
    words = linalg._pack(work.astype(np.uint8))
    assert words.dtype.kind == "u" and words.shape == (B, r, -(-c // 64))
    pivot_int = linalg._eliminate(work, 2, ncols)
    pivot_packed = linalg._eliminate(words, 2, ncols)
    assert _same(pivot_packed, pivot_int)
    assert _same(linalg._unpack(words, 0, c), (work % 2).astype(np.int64))
    assert _same(linalg._unpack(words, ncols, c), (work[:, :, ncols:] % 2).astype(np.int64))


@pytest.mark.parametrize("kind,B,r,c,ncols", PACKED_CASES)
def test_column_words_match_solvable_many(kind, B, r, c, ncols):
    # heights 65-200 pack each column into 2-4 words
    A = _stack(kind, B, r, c, [18, B, r, c, ncols])
    rng = np.random.default_rng([19, B, r, c])
    b = np.where(rng.random((B, 1)) < 0.5, np.einsum("brc,bc->br", A, rng.integers(0, 2, (B, c))),
                 rng.integers(0, 2, (B, r)))
    aug = np.concatenate([A, b[:, :, None]], axis=2)
    words = linalg.pack_columns(aug)
    assert words.dtype == np.uint64 and words.shape == (B, c + 1, -(-r // 64))
    q = np.arange(r)
    bits = words[:, :, q // 64] >> (q % 64).astype(np.uint64) & np.uint64(1)
    assert _same(bits.astype(np.int64), (aug % 2).transpose(0, 2, 1))
    assert linalg.solvable_columns(words).tolist() == linalg.solvable_many(A, b, 2).tolist()


@pytest.mark.parametrize("kind,B,r,c,ncols", PACKED_CASES)
def test_readers_at_p2_match_column_loop(kind, B, r, c, ncols):
    A = _stack(kind, B, r, c, [16, B, r, c, ncols])
    rng = np.random.default_rng([17, B, r, c])
    b = np.where(rng.random((B, 1)) < 0.5, np.einsum("brc,bc->br", A, rng.integers(0, 2, (B, c))),
                 rng.integers(0, 2, (B, r)))
    assert _same(linalg.rank_many(A, 2), np.array([_rank_oracle(M, 2) for M in A], dtype=np.int64))
    assert linalg.solvable_many(A, b, 2).tolist() == [_solve_oracle(M, v, 2) is not None for M, v in zip(A, b)]
    pivot, carried = linalg.reduce_many(A, 2, ncols)
    Y, basis = linalg.left_nullspace_many(A, 2)
    # the column loop on the first 40 matrices of the batch
    for M, v, piv, C, y, keep in list(zip(A, b, pivot, carried, Y, basis))[:40]:
        rank = _rank_oracle(M[:, :ncols], 2)
        assert piv.sum() == rank and (r == 0 or piv[-1] == (rank > _rank_oracle(M[:-1, :ncols], 2)))
        rest = np.hstack([np.zeros((r, ncols), dtype=np.int64), C])[~piv]
        assert _rank_oracle(np.vstack([M, rest]), 2) == _rank_oracle(M, 2) == rank + _rank_oracle(rest, 2)
        kernel = y[keep]
        assert len(kernel) == r - _rank_oracle(M, 2) and not (kernel @ M % 2).any()
        assert _rank_oracle(kernel, 2) == len(kernel)
        R, pivots = linalg.row_echelon(M, 2)
        R_old, pivots_old = _row_echelon_oracle(M, 2)
        assert _same(R, R_old) and pivots == pivots_old
        x, x_old = linalg.solve(M, v, 2), _solve_oracle(M, v, 2)
        assert (x is None) == (x_old is None) and (x is None or _same(x, x_old))
        assert _same(linalg.nullspace(M, 2), _nullspace_oracle(M, 2))
