"""Dense linear algebra mod p: Gaussian elimination, rank, solving, nullspaces."""

from __future__ import annotations

import numpy as np

from .errors import LemmaViolationError


def _as_mat(M, p: int) -> np.ndarray:
    A = np.array(M, dtype=np.int64) % p
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return A


def row_echelon(M, p: int):
    """Reduced row echelon form.  Returns (R, pivot_cols)."""
    A = _as_mat(M, p)
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


def rank(M, p: int) -> int:
    return len(row_echelon(M, p)[1])


def _inverse_many(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p by square-and-multiply: a^-1 for nonzero entries."""
    out = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _eliminate(A: np.ndarray, p: int, ncols: int) -> np.ndarray:
    """Batched elimination of the first `ncols` columns of a (B, r, c) stack,
    in place; returns the (B, r) mask of the rows used as pivots.

    Instead of swapping rows, each matrix marks its pivot rows as used; a
    pivot clears its column in the rows not used yet, and the update reaches
    every later column.  Entries are reduced mod p only where they are read
    (the pivot column and row), so a pass is one multiply-subtract and entries
    stay below min(r, ncols) * p^2; `_work_dtype` picks a type that holds them.
    """
    B, r, c = A.shape
    used = np.zeros((B, r), dtype=bool)
    batch = np.arange(B)
    for j in range(ncols):
        col = A[:, :, j] % p
        cand = (col != 0) & ~used
        has = cand.any(axis=1)
        if not has.any():
            continue
        src = cand.argmax(axis=1)
        used[batch, src] |= has
        # a matrix without a pivot in this column gets a zero pivot row: no-op
        piv = A[batch, src, j + 1:] % p
        piv *= (_inverse_many(col[batch, src], p) * has)[:, None]
        piv %= p
        factors = np.where(used, 0, col)
        A[:, :, j + 1:] -= factors[:, :, None] * piv[:, None, :]
    return used


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


def rank_many(stack, p: int) -> np.ndarray:
    """Ranks mod p of every matrix in a (B, r, c) stack, as an int64 array of length B.

    Gaussian elimination on the whole batch at once (`_eliminate`), one numpy
    pass per column of the shorter side.
    """
    A = _as_stack(stack)
    if A.shape[2] > A.shape[1]:
        # one pass per column, so eliminate along the shorter side
        A = A.transpose(0, 2, 1)
    work = np.empty(A.shape, dtype=_work_dtype(A.shape[2], p))
    np.remainder(A, p, out=work, casting="unsafe")
    return _eliminate(work, p, A.shape[2]).sum(axis=1, dtype=np.int64)


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
    used = _eliminate(aug, p, c)
    return ~((aug[:, :, c] % p != 0) & ~used).any(axis=1)


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
    used = _eliminate(aug, p, c)
    return (aug[:, :, c:] % p).astype(np.int64), ~used


def in_row_span(v, rows, p: int) -> bool:
    """Whether v lies in the row span of `rows` over F_p."""
    A = _as_mat(rows, p) if len(rows) else np.zeros((0, len(v)), dtype=np.int64)
    base = rank(A, p)
    aug = np.vstack([A, np.asarray(v, dtype=np.int64) % p])
    return rank(aug, p) == base


def solve(A, b, p: int):
    """One solution x of A x = b mod p, or None if inconsistent."""
    A = _as_mat(A, p)
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = A.shape
    R, pivots = row_echelon(np.hstack([A, b.reshape(-1, 1)]), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, cols]
    return x


def nullspace(A, p: int) -> np.ndarray:
    """Basis of the right nullspace as rows of a (d x cols) matrix."""
    A = _as_mat(A, p)
    rows, cols = A.shape
    R, pivots = row_echelon(A, p)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[: len(pivots), free].T % p
    return basis


def rank_factors(M, p: int):
    """CR decomposition M = C @ R mod p with C = pivot columns of M, R = rref rows."""
    A = _as_mat(M, p)
    R, pivots = row_echelon(A, p)
    r = len(pivots)
    C = A[:, pivots].copy()
    R = R[:r].copy()
    if not np.array_equal(C @ R % p, A):
        raise LemmaViolationError("CR decomposition does not reconstruct its matrix")
    return C, R
