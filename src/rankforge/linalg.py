"""Dense linear algebra mod p: one batched Gauss-Jordan kernel (`_eliminate`)
behind rank, reduction, solvability and left nullspaces of stacks, and
behind the reduced row echelon form, solving, nullspaces and CR factors of
one matrix."""

from __future__ import annotations

import numpy as np

from .errors import LemmaViolationError


def _as_mat(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return A


def _inverse_many(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p by square-and-multiply: a^-1 for nonzero entries."""
    out = None
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            out = base if out is None else out * base % p
        e >>= 1
        if e:
            base = base * base % p
    return np.ones_like(a) if out is None else out


def _eliminate(A: np.ndarray, p: int, ncols: int) -> np.ndarray:
    """Batched Gauss-Jordan elimination of the first `ncols` columns of a
    (B, r, c) stack, in place.  Returns a (B, r) int64 array that holds
    j - ncols for the row that took its pivot in column j and 0 for rows never
    used as pivots: the pivot rows are its nonzero entries, and an ascending
    sort lists them by pivot column.

    Instead of swapping rows, each matrix marks its pivot rows.  A pivot row
    is not scaled; it clears its column in every other row, the earlier
    pivot rows included.  Entries are reduced mod p only where they are read
    (the pivot column and row), so a pass adds at most one product below
    (p-1)^2 to each entry of any row, and a matrix gets at most
    min(r, ncols) passes with a pivot: entries stay below
    min(r, ncols) * (p-1)^2 + p, the bound `_work_dtype` sizes the work type
    by, whether or not pivot rows are cleared too.  The loop stops once
    every row of every matrix holds a pivot.
    """
    B, r, _ = A.shape
    pivot_col = np.zeros((B, r), dtype=np.int64)
    batch = np.arange(B)
    full = 0  # passes in which every matrix took a pivot
    for j in range(ncols):
        col = A[:, :, j] % p
        cand = np.logical_and(col, pivot_col == 0)
        has = cand.any(axis=1)
        found = np.count_nonzero(has)
        if not found:
            continue
        src = cand.argmax(axis=1)
        piv = A[batch, src, j:] % p
        if p > 2:
            piv *= _inverse_many(col[batch, src], p)[:, None]
            piv %= p
        if found == B:
            pivot_col[batch, src] = j - ncols
            full += 1
        else:
            pivot_col[has, src[has]] = j - ncols
            # a matrix without a pivot in this column gets a zero pivot row: no-op
            piv *= has[:, None]
        col[batch, src] = 0
        rest = A[:, :, j:]  # updated through the view: `A[...] -=` would copy it back onto itself
        rest -= col[:, :, None] * piv[:, None, :]
        if full == r:
            break
    return pivot_col


_WORK_DTYPES = [(np.int16, 2 ** 15 - 1), (np.int32, 2 ** 31 - 1), (np.int64, 2 ** 63 - 1)]


def _work_dtype(passes: int, p: int):
    """The narrowest signed integer type that holds every entry of an
    elimination with at most `passes` pivots (see `_eliminate`)."""
    bound = passes * (p - 1) ** 2 + p
    for dtype, top in _WORK_DTYPES:
        if bound <= top:
            return dtype
    raise ValueError(f"modulus {p} is too large for exact int64 elimination")


def _as_stack(stack) -> np.ndarray:
    A = np.asarray(stack, dtype=np.int64)
    if A.ndim != 3:
        raise ValueError("expected a (B, r, c) stack of matrices")
    return A


def reduce_many(stack, p: int, ncols: int):
    """Gauss-Jordan elimination mod p of the first `ncols` columns of every
    matrix in a (B, r, c) stack (`_eliminate`), rows in place and unscaled.

    Returns (pivot, carried): the (B, r) bool array of rows that took a
    pivot, and the other c - ncols columns after the row operations, int64
    in [0, p).  A row without a pivot ends zero in the first `ncols`
    columns.  The pivot is the lowest-index candidate row, so the last row
    pivots only when it leaves the span of the rows above it.
    """
    A = _as_stack(stack)
    work = np.empty(A.shape, dtype=_work_dtype(min(A.shape[1], ncols), p))
    np.remainder(A, p, out=work, casting="unsafe")
    pivot = _eliminate(work, p, ncols) != 0
    return pivot, np.remainder(work[:, :, ncols:], p, dtype=np.int64)


def rank_many(stack, p: int) -> np.ndarray:
    """Ranks mod p of every matrix in a (B, r, c) stack, as an int64 array of
    length B: its pivot rows (`reduce_many`) along the shorter side, one
    numpy pass per column."""
    A = _as_stack(stack)
    if A.shape[2] > A.shape[1]:
        A = A.transpose(0, 2, 1)
    return reduce_many(A, p, A.shape[2])[0].sum(axis=1)


def solvable_many(stack, b, p: int) -> np.ndarray:
    """Whether A x = b has a solution mod p, for every matrix A of a (B, r, c)
    stack, as a bool array of length B.  `b` is one length-r vector shared by
    the batch, or a (B, r) array with one right-hand side per matrix.

    The augmented stack [A | b] is eliminated over the columns of A
    (`_eliminate`); b lies in the column span of A exactly when no row left
    without a pivot keeps a nonzero entry in b's column.  Zero columns in A
    do not change the answer, so blocks of unequal width can be padded into
    one stack.
    """
    A = _as_stack(stack)
    B, r, c = A.shape
    aug = np.empty((B, r, c + 1), dtype=_work_dtype(min(r, c), p))
    np.remainder(A, p, out=aug[:, :, :c], casting="unsafe")
    aug[:, :, c] = np.asarray(b, dtype=np.int64) % p
    unused = _eliminate(aug, p, c) == 0
    return ~((aug[:, :, c] % p != 0) & unused).any(axis=1)


def left_nullspace_many(stack, p: int):
    """Left nullspaces mod p of every matrix in a (B, r, c) stack.

    Returns (Y, basis): Y is a (B, r, r) int64 array, and the rows
    Y[i][basis[i]] form a basis of {y : y A_i = 0}.  [A | I] is eliminated
    over the columns of A (`_eliminate`).  A row never used as a pivot ends
    with a zero A part; its identity part is 1 in its own place and nonzero
    elsewhere only in pivot rows' places, so these r - rank rows are
    independent.
    """
    A = _as_stack(stack)
    B, r, c = A.shape
    aug = np.zeros((B, r, c + r), dtype=_work_dtype(min(r, c), p))
    np.remainder(A, p, out=aug[:, :, :c], casting="unsafe")
    aug[:, :, c:] = np.eye(r, dtype=aug.dtype)
    unused = _eliminate(aug, p, c) == 0
    return (aug[:, :, c:] % p).astype(np.int64), unused


def _echelon(A: np.ndarray, p: int, ncols: int):
    """The reduced row echelon form of a 2-d int64 matrix over its first
    `ncols` columns, read from one B = 1 pass of `_eliminate`.

    Returns (R, pivots): R has A's shape, its first len(pivots) rows are the
    pivot rows ordered by pivot column and scaled to a leading 1, and the
    rows without a pivot follow, zero in the first `ncols` columns.  Columns
    from `ncols` on (an augmented right-hand side) are carried along.
    """
    rows, c = A.shape
    work = np.empty((1, rows, c), dtype=_work_dtype(min(rows, ncols), p))
    np.remainder(A, p, out=work[0], casting="unsafe")
    pivot_col = _eliminate(work, p, ncols)[0]
    rank = np.count_nonzero(pivot_col)
    order = pivot_col.argsort()  # pivot rows by pivot column, then the rest
    pivots = pivot_col[order[:rank]] + ncols
    R = np.remainder(work[0, order], p, dtype=np.int64)
    if p > 2:
        top = R[:rank]
        top *= _inverse_many(top[np.arange(rank), pivots], p)[:, None]
        top %= p
    return R, pivots


def row_echelon(M, p: int):
    """Reduced row echelon form.  Returns (R, pivot_cols): R has M's shape,
    with the pivot rows first and zero rows after them."""
    A = _as_mat(M)
    R, pivots = _echelon(A, p, A.shape[1])
    return R, pivots.tolist()


def solve(A, b, p: int):
    """One solution x of A x = b mod p, or None if inconsistent.  x is zero
    outside the pivot columns of A."""
    A = _as_mat(A)
    cols = A.shape[1]
    R, pivots = _echelon(np.concatenate([A, np.asarray(b, dtype=np.int64).reshape(-1, 1)], axis=1), p, cols)
    if R[len(pivots):, cols].any():
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = R[: len(pivots), cols]
    return x


def nullspace(A, p: int) -> np.ndarray:
    """Basis of the right nullspace as rows of a (d x cols) matrix."""
    A = _as_mat(A)
    cols = A.shape[1]
    R, pivots = _echelon(A, p, cols)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((cols - len(pivots), cols), dtype=np.int64)
    basis[np.arange(len(basis)), free.nonzero()[0]] = 1
    basis[:, pivots] = -R[: len(pivots), free].T % p
    return basis


def rank_factors(M, p: int):
    """CR decomposition M = C @ R mod p with C = pivot columns of M, R = rref rows."""
    A = _as_mat(M) % p
    R, pivots = row_echelon(A, p)
    C = A[:, pivots]
    R = R[: len(pivots)]
    if not np.array_equal(C @ R % p, A):
        raise LemmaViolationError("CR decomposition does not reconstruct its matrix")
    return C, R
