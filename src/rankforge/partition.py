"""Partition rank: rank-1 detection, exact search with witnesses, flattenings,
the analytic lower bound, and the constructive bilinear decomposition.

The search runs iterative deepening over combinations of candidate summands.
A candidate fixes the bipartition I | [k]-I (canonically 1 in I) and one
factor, enumerated up to scalar normalization (first nonzero coefficient 1,
row-major); the opposite factors of a combination are then recovered by one
linear solve against the target coefficients.  For each bipartition the
factor side with the smaller coefficient space is enumerated, which keeps the
pool complete whenever one side is desk-scale.  Exactness is never sacrificed
silently: on budget exhaustion, or when some bipartition has no enumerable
side, the result is an interval, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .analytic import ceil_neg_log, exact_bias
from .errors import LemmaViolationError
from .forms import (
    DEFAULT_ENUM_GUARD,
    MultilinearMap,
    Shape,
    part_grid,
)

MODE_CAP = 4096          # normalized factors enumerable per bipartition side
DEFAULT_BUDGET = 200_000  # solver unknowns, summed over the leaves solved


@dataclass(frozen=True)
class PartitionSummand:
    """One product beta(x_I) * gamma(x_{[k] minus I}) with I a proper nonempty subset."""

    subset: frozenset
    beta: MultilinearMap
    gamma: MultilinearMap

    def value_grid(self, shape: Shape) -> np.ndarray:
        comp = frozenset(range(1, shape.k + 1)) - self.subset
        bg = part_grid(shape, self.subset, self.beta.coeffs)
        gg = part_grid(shape, comp, self.gamma.coeffs)
        return (bg * gg % shape.p)[..., 0]

    def coeff_tensor(self, shape: Shape) -> np.ndarray:
        Is = sorted(self.subset)
        comp = [i for i in range(1, shape.k + 1) if i not in self.subset]
        outer = np.multiply.outer(self.beta.coeffs[..., 0], self.gamma.coeffs[..., 0])
        perm = np.argsort(Is + comp)
        return outer.transpose(perm) % shape.p


@dataclass
class PartitionDecomposition:
    target: MultilinearMap
    summands: list

    def __len__(self):
        return len(self.summands)

    def value_grid(self) -> np.ndarray:
        shape = self.target.shape
        out = np.zeros(shape.sizes, dtype=np.int64)
        for s in self.summands:
            out += s.value_grid(shape)
        return out % shape.p

    def verify(self) -> bool:
        """Exact reconstruction on the full domain."""
        total = np.zeros(self.target.shape.dims, dtype=np.int64)
        for s in self.summands:
            total += s.coeff_tensor(self.target.shape)
        return np.array_equal(total % self.target.shape.p, self.target.coeffs[..., 0])


@dataclass
class RankReport:
    prank_lo: int
    prank_hi: int
    exact: bool
    witness: PartitionDecomposition | None
    lovett_lower: int
    nodes: int
    truncated_reason: str | None = None

    @property
    def prank(self) -> int | None:
        return self.prank_lo if self.exact else None


# ---------------------------------------------------------------------------
#  Flattenings and rank-1 detection
# ---------------------------------------------------------------------------

def flatten(alpha: MultilinearMap, I) -> np.ndarray:
    """Matrix with rows indexed by monomials over I (row-major), columns over the rest."""
    if not alpha.scalar:
        raise ValueError("flatten needs a scalar form")
    k = alpha.shape.k
    I = sorted(set(int(i) for i in I))
    if not I or len(I) == k:
        raise ValueError("flattening needs a nonempty proper subset")
    comp = [i for i in range(1, k + 1) if i not in I]
    C = alpha.coeffs[..., 0]
    perm = [i - 1 for i in I] + [i - 1 for i in comp]
    M = C.transpose(perm)
    r = int(np.prod([alpha.shape.dims[i - 1] for i in I]))
    return M.reshape(r, -1)


def matrix_rank(M, p: int) -> int:
    return linalg.rank(M, p)


def canonical_subsets(k: int):
    """Proper nonempty subsets containing coordinate 1, ordered by (size, lex)."""
    out = []
    for size in range(1, k):
        for rest in combinations(range(2, k + 1), size - 1):
            out.append(frozenset((1,) + rest))
    return out


def is_partition_rank_le1(alpha: MultilinearMap) -> PartitionSummand | None:
    """A witness summand reconstructing alpha exactly, if some flattening has rank <= 1."""
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    shape = alpha.shape
    if shape.k < 2:
        raise ValueError("partition rank needs arity k >= 2")
    if alpha.is_zero():
        return None
    p = shape.p
    for I in canonical_subsets(shape.k):
        M = flatten(alpha, sorted(I))
        nz_rows = np.flatnonzero(M.any(axis=1))
        r0 = int(nz_rows[0])
        c0 = int(np.flatnonzero(M[r0])[0])
        pivot_inv = pow(int(M[r0, c0]), p - 2, p)
        # rows above r0 are zero, so u is normalized (first nonzero entry is 1)
        u = M[:, c0] * pivot_inv % p
        v = M[r0, :].copy()
        if not np.array_equal(np.outer(u, v) % p, M):
            continue
        comp = frozenset(range(1, shape.k + 1)) - I
        beta_shape = shape.sub(I)
        gamma_shape = shape.sub(comp)
        beta = MultilinearMap(beta_shape, 1, u.reshape(beta_shape.dims + (1,)))
        gamma = MultilinearMap(gamma_shape, 1, v.reshape(gamma_shape.dims + (1,)))
        return PartitionSummand(I, beta, gamma)
    return None


# ---------------------------------------------------------------------------
#  Analytic lower bound
# ---------------------------------------------------------------------------

def lovett_lower_bound(alpha: MultilinearMap, max_points: int = DEFAULT_ENUM_GUARD) -> int:
    """ceil(arank(alpha)) via exact integer arithmetic; a partition-rank lower bound."""
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    if alpha.is_zero():
        return 0
    return ceil_neg_log(alpha.shape.p, exact_bias(alpha, max_points))


# ---------------------------------------------------------------------------
#  Candidate pool: one enumerated factor per bipartition, solve for the rest
# ---------------------------------------------------------------------------

def _enumerate_normalized(p: int, count: int):
    """Coefficient vectors of a given length whose first nonzero entry is 1,
    in row-major lexicographic order (most significant digit first)."""
    powers = [p ** (count - 1 - t) for t in range(count)]
    for flat in range(1, p ** count):
        digits = np.array([(flat // q) % p for q in powers], dtype=np.int64)
        if digits[np.flatnonzero(digits)[0]] == 1:
            yield digits


@dataclass(frozen=True)
class _PoolEntry:
    subset: frozenset
    enum_on_subset: bool
    factor: MultilinearMap
    block: np.ndarray   # (total coeff count, unknown count), columns mod p


def _entry_block(shape: Shape, I: frozenset, enum_on_subset: bool, factor_flat: np.ndarray):
    """Columns spanning {factor x free-side} inside the natural coefficient order."""
    Is = sorted(I)
    comp = [i for i in range(1, shape.k + 1) if i not in I]
    dims_I = [shape.dims[i - 1] for i in Is]
    dims_C = [shape.dims[i - 1] for i in comp]
    nb = int(np.prod(dims_I))
    ng = int(np.prod(dims_C))
    if enum_on_subset:
        raw = np.kron(factor_flat.reshape(-1, 1), np.eye(ng, dtype=np.int64))
        unknowns = ng
    else:
        raw = np.kron(np.eye(nb, dtype=np.int64), factor_flat.reshape(-1, 1))
        unknowns = nb
    # raw rows run over (I-major, comp-minor) flat order; permute to natural order
    perm = np.argsort(Is + comp).tolist()
    tens = raw.reshape(dims_I + dims_C + [unknowns])
    tens = tens.transpose(perm + [shape.k])
    return tens.reshape(-1, unknowns) % shape.p


def _build_pool(shape: Shape):
    """Returns (entries, complete) where complete means every bipartition has
    one enumerable side within the cap."""
    p = shape.p
    entries = []
    complete = True
    for I in canonical_subsets(shape.k):
        comp = frozenset(range(1, shape.k + 1)) - I
        nb = int(np.prod([shape.dims[i - 1] for i in sorted(I)]))
        ng = int(np.prod([shape.dims[i - 1] for i in sorted(comp)]))
        count_I = (p ** nb - 1) // (p - 1)
        count_C = (p ** ng - 1) // (p - 1)
        if min(count_I, count_C) > MODE_CAP:
            complete = False
            continue
        enum_on_subset = count_I <= count_C
        side = I if enum_on_subset else comp
        side_shape = shape.sub(side)
        n_side = nb if enum_on_subset else ng
        for digits in _enumerate_normalized(p, n_side):
            factor = MultilinearMap(side_shape, 1, digits.reshape(side_shape.dims + (1,)))
            block = _entry_block(shape, I, enum_on_subset, digits)
            entries.append(_PoolEntry(I, enum_on_subset, factor, block))
    return entries, complete


def _witness_from_solution(shape: Shape, combo, solution: np.ndarray):
    p = shape.p
    summands = []
    offset = 0
    for e in combo:
        u = e.block.shape[1]
        chunk = solution[offset : offset + u] % p
        offset += u
        if not chunk.any():
            continue
        comp = frozenset(range(1, shape.k + 1)) - e.subset
        if e.enum_on_subset:
            beta = e.factor
            gshape = shape.sub(comp)
            gamma = MultilinearMap(gshape, 1, chunk.reshape(gshape.dims + (1,)))
        else:
            bshape = shape.sub(e.subset)
            lead = int(chunk[np.flatnonzero(chunk)[0]])
            inv = pow(lead, p - 2, p)
            beta = MultilinearMap(bshape, 1, (chunk * inv % p).reshape(bshape.dims + (1,)))
            gamma = MultilinearMap(
                e.factor.shape, 1, (e.factor.coeffs * lead) % p
            )
        summands.append(PartitionSummand(e.subset, beta, gamma))
    return summands


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> bool:
        self.used += n
        return self.used <= self.limit


class _BudgetExhausted(Exception):
    pass


def monomial_decomposition(alpha: MultilinearMap) -> PartitionDecomposition:
    """The trivial witness: one summand per nonzero coefficient monomial."""
    shape = alpha.shape
    if shape.k < 2:
        raise ValueError("partition rank needs arity k >= 2")
    summands = []
    comp = frozenset(range(2, shape.k + 1))
    gamma_shape = shape.sub(comp)
    beta_shape = shape.sub(frozenset([1]))
    for idx in np.argwhere(alpha.coeffs[..., 0]):
        c = int(alpha.coeffs[tuple(idx) + (0,)])
        b = np.zeros(beta_shape.dims + (1,), dtype=np.int64)
        b[idx[0], 0] = 1
        g = np.zeros(gamma_shape.dims + (1,), dtype=np.int64)
        g[tuple(idx[1:]) + (0,)] = c
        summands.append(
            PartitionSummand(
                frozenset([1]),
                MultilinearMap(beta_shape, 1, b),
                MultilinearMap(gamma_shape, 1, g),
            )
        )
    return PartitionDecomposition(alpha, summands)


def prank_exact(
    alpha: MultilinearMap,
    r_max: int = 6,
    budget: int = DEFAULT_BUDGET,
    max_points: int = DEFAULT_ENUM_GUARD,
) -> RankReport:
    """Smallest number of rank-1 summands adding up to alpha, with a witness.

    Iterative deepening starting from the analytic lower bound.  The node
    count, and the `budget` it is held to, is the number of solver unknowns
    summed over the leaves solved (a rank-1 check counts 1).  Returns the
    exact rank, or the interval [lo, hi] with the best known witness for the
    upper endpoint.
    """
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    shape = alpha.shape
    if alpha.is_zero():
        return RankReport(0, 0, True, PartitionDecomposition(alpha, []), 0, 0)
    if shape.k < 2:
        raise ValueError("partition rank of a nonzero form needs arity k >= 2")

    lovett = lovett_lower_bound(alpha, max_points)
    trivial = monomial_decomposition(alpha)
    hi = len(trivial)
    pool, complete = _build_pool(shape)
    target = alpha.coeffs[..., 0].reshape(-1)
    p = shape.p
    budget_box = _Budget(budget)

    def search_depth(r: int):
        if r == 1:
            if not budget_box.spend(1):
                raise _BudgetExhausted
            w = is_partition_rank_le1(alpha)
            return [w] if w is not None else None
        for idxs in combinations(range(len(pool)), r):
            combo = [pool[i] for i in idxs]
            # a leaf costs its unknown count, so the budget tracks solve work
            if not budget_box.spend(sum(e.block.shape[1] for e in combo)):
                raise _BudgetExhausted
            M = np.hstack([e.block for e in combo])
            x = linalg.solve(M, target, p)
            if x is not None:
                return _witness_from_solution(shape, combo, x)
        return None

    start_r = max(lovett, 1)
    proven_lo = start_r  # depths below proven_lo are ruled out
    found = None
    for r in range(start_r, min(r_max, hi) + 1):
        try:
            found = search_depth(r)
        except _BudgetExhausted:
            return RankReport(
                proven_lo, hi, proven_lo == hi, trivial, lovett, budget_box.used,
                "node budget exhausted",
            )
        if found is not None:
            witness = PartitionDecomposition(alpha, found)
            if not witness.verify():
                raise LemmaViolationError("search produced a non-reconstructing witness")
            size = len(witness)
            if size < lovett:
                raise LemmaViolationError("witness below the analytic lower bound")
            if complete:
                # depths below r were searched exhaustively
                if size != r:
                    raise LemmaViolationError(f"exhaustive search found a witness of size {size} at depth {r}")
                return RankReport(r, r, True, witness, lovett, budget_box.used)
            if size == proven_lo:
                return RankReport(size, size, True, witness, lovett, budget_box.used)
            return RankReport(
                proven_lo, size, False, witness, lovett, budget_box.used,
                "witness found but some bipartition was not enumerable",
            )
        # rank-1 detection at depth 1 is complete regardless of the pool
        if r == 1 or complete:
            proven_lo = r + 1
    reason = None if proven_lo == hi else (
        f"search truncated at r_max={min(r_max, hi)}"
        if complete
        else "some bipartition has no desk-scale factor side"
    )
    return RankReport(proven_lo, hi, proven_lo == hi, trivial, lovett, budget_box.used, reason)


# ---------------------------------------------------------------------------
#  The bilinear base case
# ---------------------------------------------------------------------------

@dataclass
class BilinearDecomposition:
    decomposition: PartitionDecomposition
    rank: int
    log_bound_ok: bool  # rank <= log_p(1/c) whenever bias >= c


def bilinear_strong_decomposition(
    alpha: MultilinearMap, c: Fraction | None = None
) -> BilinearDecomposition:
    """Constructive rank decomposition of a bilinear form by Gaussian elimination.

    Produces alpha(x, y) = sum_i beta_i(x) * (v_i . y) with exactly
    rank(alpha) summands.  When a bias lower bound c is supplied, checks
    rank <= log_p(1/c) exactly.
    """
    if not alpha.scalar or alpha.shape.k != 2:
        raise ValueError("needs a scalar bilinear form")
    shape = alpha.shape
    p = shape.p
    M = alpha.coeffs[..., 0]
    summands = []
    r = 0
    if M.any():
        C, R = linalg.rank_factors(M, p)
        r = R.shape[0]
        beta_shape = shape.sub([1])
        gamma_shape = shape.sub([2])
        for i in range(r):
            beta = MultilinearMap(beta_shape, 1, C[:, i].reshape(-1, 1))
            gamma = MultilinearMap(gamma_shape, 1, R[i, :].reshape(-1, 1))
            summands.append(PartitionSummand(frozenset([1]), beta, gamma))
    decomp = PartitionDecomposition(alpha, summands)
    if not decomp.verify():
        raise LemmaViolationError("bilinear decomposition failed to reconstruct")
    ok = True
    if c is not None:
        if c <= 0:
            raise ValueError("bias lower bound must be positive")
        # rank <= log_p(1/c)  <=>  c * p^rank <= 1
        ok = Fraction(c) * p ** r <= 1
    return BilinearDecomposition(decomp, r, ok)
