"""Partition rank: rank-1 detection, exact search with witnesses, flattenings,
the analytic lower bound, and the constructive bilinear decomposition.

The search runs iterative deepening over combinations of candidate summands.
A candidate fixes the bipartition I | [k]-I (canonically 1 in I) and one
factor, enumerated up to scalar normalization (first nonzero coefficient 1,
row-major); its block B holds the products of that factor with every basis
vector of the free side, so a combination reaches the target b iff
[B_1 | ... | B_r] x = b is solvable.  For each bipartition the factor side
with the smaller coefficient space is enumerated, which keeps the pool
complete whenever one side is desk-scale.  The pool stores only the factors.

Leaves are visited in `combinations` order, and the leaves (prefix, j) that
share their first r - 1 entries are checked together.  If the rows of Q span
the left nullspace of the prefix columns P (the prefix quotient), then
[P | B_j] x = b is solvable iff Q b lies in the column span of Q B_j.  Q B_j
is contracted from Q and the factor alone, and all j are checked by one
batched elimination (`linalg.solvable_many`).  The quotients of the prefixes
parent + (i,) come from the parent's quotient Q_p: the left nullspace of
Q_p B_i, again batched over i (`linalg.left_nullspace_many`).  Only the
solvable leaf the search stops at is solved (`linalg.solve`) to build the
witness.  The budget is charged leaf by leaf in the same order, so nodes,
leaves and witnesses do not depend on the batching.

Exactness is never sacrificed silently: on budget exhaustion, or when some
bipartition has no enumerable side, the result is an interval, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .analytic import ceil_neg_log, exact_bias
from .errors import LemmaViolationError
from .forms import MultilinearMap, Shape

MODE_CAP = 4096          # normalized factors enumerable per bipartition side
DEFAULT_BUDGET = 200_000  # solver unknowns, summed over the leaves checked
BATCH_ENTRIES = 1 << 15   # matrix entries per batched elimination of the search


@dataclass(frozen=True)
class PartitionSummand:
    """One product beta(x_I) * gamma(x_{[k] minus I}) with I a proper nonempty subset."""

    subset: frozenset
    beta: MultilinearMap
    gamma: MultilinearMap

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
    nodes: int  # budget units: solver unknowns summed over the leaves checked
    truncated_reason: str | None = None
    leaves: int = 0  # leaves checked, a rank-1 check counting 1

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
    return int(linalg.rank_many(np.asarray(M)[None], p)[0])


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

def lovett_lower_bound(alpha: MultilinearMap) -> int:
    """ceil(arank(alpha)) via exact integer arithmetic; a partition-rank lower bound."""
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    if alpha.is_zero():
        return 0
    return ceil_neg_log(alpha.shape.p, exact_bias(alpha))


# ---------------------------------------------------------------------------
#  Candidate pool: the normalized factors of one side per bipartition
# ---------------------------------------------------------------------------

def _normalized_factors(p: int, count: int) -> np.ndarray:
    """Every coefficient vector of the given length whose first nonzero entry
    is 1, one per row, in row-major lexicographic order (most significant
    digit first).  Their codes are [q, 2q) for q = p^0, p^1, ..., ascending."""
    codes = np.concatenate([np.arange(q, 2 * q, dtype=np.int64) for q in (p ** e for e in range(count))])
    powers = np.array([p ** (count - 1 - t) for t in range(count)], dtype=np.int64)
    return codes[:, None] // powers % p


@dataclass(frozen=True)
class _Side:
    """The pool entries of one bipartition I | [k]-I: every normalized factor
    on its enumerated side, the opposite factor left unknown."""

    subset: frozenset
    enum_on_subset: bool
    factors: np.ndarray   # (count, enumerated-side coeff count), one factor per row
    width: int            # unknowns per entry: the free side's coefficient count

    def images(self, shape: Shape, Q: np.ndarray, rows: slice, p: int) -> np.ndarray:
        """Q B for the blocks B of the entries `rows`: a (rows, len(Q), width)
        stack, contracted from Q, with its columns split over (subset, complement)
        coefficients, and the factors alone."""
        Is, comp = sorted(self.subset), sorted(_complement(shape, self.subset))
        nb = int(np.prod([shape.dims[i - 1] for i in Is]))
        Qt = Q.reshape((len(Q),) + shape.dims).transpose([0] + Is + comp).reshape(len(Q), nb, Q.shape[1] // nb)
        F = self.factors[rows]
        if self.enum_on_subset:
            return np.tensordot(F, Qt, axes=(1, 1)) % p
        return np.tensordot(Qt, F, axes=(2, 1)).transpose(2, 0, 1) % p

    def block(self, shape: Shape, row: int) -> np.ndarray:
        """Columns spanning {factor x free side} in the natural coefficient order,
        an (N, width) matrix."""
        Is, comp = sorted(self.subset), sorted(_complement(shape, self.subset))
        factor = self.factors[row].reshape(-1, 1)
        eye = np.eye(self.width, dtype=np.int64)
        raw = np.kron(factor, eye) if self.enum_on_subset else np.kron(eye, factor)
        # raw rows run over (I-major, comp-minor) flat order; permute to natural order
        tens = raw.reshape([shape.dims[i - 1] for i in Is + comp] + [self.width])
        tens = tens.transpose(np.argsort(Is + comp).tolist() + [shape.k])
        return tens.reshape(-1, self.width)

    def factor(self, shape: Shape, row: int) -> MultilinearMap:
        side_shape = shape.sub(self.subset if self.enum_on_subset else _complement(shape, self.subset))
        return MultilinearMap(side_shape, 1, self.factors[row].reshape(side_shape.dims + (1,)))


def _complement(shape: Shape, I) -> frozenset:
    return frozenset(range(1, shape.k + 1)) - I


def _build_pool(shape: Shape):
    """Returns (sides, complete) where complete means every bipartition has
    one enumerable side within the cap.  Only the factors are stored: a
    side's blocks are N x width each, built on demand (`_Side.block`)."""
    p = shape.p
    sides = []
    complete = True
    for I in canonical_subsets(shape.k):
        nb = int(np.prod([shape.dims[i - 1] for i in sorted(I)]))
        ng = int(np.prod([shape.dims[i - 1] for i in sorted(_complement(shape, I))]))
        count_I = (p ** nb - 1) // (p - 1)
        count_C = (p ** ng - 1) // (p - 1)
        if min(count_I, count_C) > MODE_CAP:
            complete = False
            continue
        enum_on_subset = count_I <= count_C
        n_side, width = (nb, ng) if enum_on_subset else (ng, nb)
        sides.append(_Side(I, enum_on_subset, _normalized_factors(p, n_side), width))
    return sides, complete


def _witness_from_solution(shape: Shape, combo, solution: np.ndarray):
    """Summands of a solved leaf; `combo` lists its entries as (side, row)."""
    p = shape.p
    summands = []
    offset = 0
    for side, row in combo:
        chunk = solution[offset : offset + side.width] % p
        offset += side.width
        if not chunk.any():
            continue
        factor = side.factor(shape, row)
        if side.enum_on_subset:
            beta = factor
            gshape = shape.sub(_complement(shape, side.subset))
            gamma = MultilinearMap(gshape, 1, chunk.reshape(gshape.dims + (1,)))
        else:
            bshape = shape.sub(side.subset)
            lead = int(chunk[np.flatnonzero(chunk)[0]])
            inv = pow(lead, p - 2, p)
            beta = MultilinearMap(bshape, 1, (chunk * inv % p).reshape(bshape.dims + (1,)))
            gamma = MultilinearMap(factor.shape, 1, (factor.coeffs * lead) % p)
        summands.append(PartitionSummand(side.subset, beta, gamma))
    return summands


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


def prank_exact(alpha: MultilinearMap, r_max: int = 6, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Smallest number of rank-1 summands adding up to alpha, with a witness.

    Iterative deepening starting from the analytic lower bound.  A leaf of
    depth r >= 2 is a combination of r pool entries, checked in `combinations`
    order; the node count, and the `budget` it is held to, is the number of
    solver unknowns summed over the leaves checked (a rank-1 check counts 1).
    `leaves` counts the leaves themselves.  Leaves sharing their first r - 1
    entries are checked together against that prefix's quotient (see the
    module docstring); the budget is still charged leaf by leaf, so the
    result does not depend on the batching.  Returns the exact rank, or the
    interval [lo, hi] with the best known witness for the upper endpoint.
    """
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    shape = alpha.shape
    if alpha.is_zero():
        return RankReport(0, 0, True, PartitionDecomposition(alpha, []), 0, 0)
    if shape.k < 2:
        raise ValueError("partition rank of a nonzero form needs arity k >= 2")

    lovett = lovett_lower_bound(alpha)
    trivial = monomial_decomposition(alpha)
    hi = len(trivial)
    sides, complete = _build_pool(shape)
    # pool entry i is row i - offsets[s] of sides[s], s = side_of[i], in bipartition order
    counts = [len(side.factors) for side in sides]
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    side_of = np.repeat(np.arange(len(sides)), counts)
    widths = np.repeat([side.width for side in sides], counts).astype(np.int64)
    n = len(side_of)
    wmax = int(widths.max()) if n else 0
    target = alpha.coeffs[..., 0].reshape(-1)
    p = shape.p
    used = leaves = 0

    def entry(i: int):
        s = int(side_of[i])
        return sides[s], i - int(offsets[s])

    def columns(idxs) -> np.ndarray:
        return np.hstack([side.block(shape, row) for side, row in map(entry, idxs)])

    def padded_images(Q: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Q B_j for the pool entries j in [start, stop), zero-padded to one width."""
        out = np.zeros((stop - start, len(Q), wmax), dtype=np.int64)
        for s in range(int(side_of[start]), int(side_of[stop - 1]) + 1):
            lo, hi_ = max(start, int(offsets[s])), min(stop, int(offsets[s + 1]))
            rows = slice(lo - int(offsets[s]), hi_ - int(offsets[s]))
            out[lo - start : hi_ - start, :, : sides[s].width] = sides[s].images(shape, Q, rows, p)
        return out

    def first_solvable(segments):
        """Position, in leaf order, of the first solvable leaf among the
        segments (Q, start, stop), or None.  A segment holds the leaves
        (prefix, j), j in [start, stop), of a prefix with quotient Q: the leaf
        is solvable iff Q b lies in the column span of Q B_j.  The images are
        padded to one height and width and checked in chunks of at most
        `BATCH_ENTRIES` entries (or one leaf), in leaf order."""
        dmax = max(len(Q) for Q, _, _ in segments)
        step = max(1, BATCH_ENTRIES // (max(1, dmax) * (wmax + 1)))
        pieces = [(Q, lo, min(lo + step, stop)) for Q, start, stop in segments for lo in range(start, stop, step)]
        done = k = 0
        while k < len(pieces):
            chunk, size = [], 0
            while k < len(pieces) and size + pieces[k][2] - pieces[k][1] <= step:
                chunk.append(pieces[k])
                size += pieces[k][2] - pieces[k][1]
                k += 1
            stack = np.zeros((size, dmax, wmax), dtype=np.int64)
            rhs = np.zeros((size, dmax), dtype=np.int64)
            o = 0
            for Q, lo, hi_ in chunk:
                stack[o : o + hi_ - lo, : len(Q)] = padded_images(Q, lo, hi_)
                rhs[o : o + hi_ - lo, : len(Q)] = Q @ target % p
                o += hi_ - lo
            ok = linalg.solvable_many(stack, rhs, p)
            if ok.any():
                return done + int(ok.argmax())
            done += size
        return None

    # [Q_parent B_i | I], one child's quotient system, has at most N x (N + wmax) entries
    child_entries = target.size * (target.size + wmax)
    batch_kids = max(1, BATCH_ENTRIES // child_entries)

    def search_depth(r: int):
        nonlocal used, leaves
        if r == 1:
            used += 1
            if used > budget:
                raise _BudgetExhausted
            leaves += 1
            w = is_partition_rank_le1(alpha)
            return [w] if w is not None else None
        # the prefixes parent + (i,) in order, grouped by parent; a prefix ending
        # on the last entry has no leaves
        for parent in combinations(range(n - 2), r - 2):
            W = int(widths[list(parent)].sum())
            Qp, over = None, None
            i = parent[-1] + 1 if parent else 0
            while i < n - 1 and over is None:
                # the next children, with the units spent after each leaf the budget
                # admits: a leaf costs its unknown count, so the budget tracks solve work
                kids, spent, run = [], [], used
                while i < n - 1 and len(kids) < batch_kids and over is None:
                    costs = run + np.cumsum(widths[i + 1 :] + (W + int(widths[i])))
                    admitted = int(np.searchsorted(costs, budget, side="right"))
                    if admitted < len(costs):
                        over = int(costs[admitted])
                    if admitted:
                        kids.append(i)
                        spent.append(costs[:admitted])
                        run = int(costs[admitted - 1])
                    i += 1
                if not kids:
                    break
                if Qp is None:
                    Shape.guard(child_entries, "prefix quotient")
                    Qp = linalg.nullspace(columns(parent).T, p) if parent else np.eye(target.size, dtype=np.int64)
                # the children's quotients from the parent's, in one batched elimination
                Y, basis = linalg.left_nullspace_many(padded_images(Qp, kids[0], kids[-1] + 1), p)
                segments = [(Y[t][basis[t]] @ Qp % p, j + 1, j + 1 + len(c)) for t, (j, c) in enumerate(zip(kids, spent))]
                spent = np.concatenate(spent)
                hit = first_solvable(segments)
                if hit is not None:
                    used, leaves = int(spent[hit]), leaves + hit + 1
                    for _, start, stop in segments:
                        if hit < stop - start:
                            idxs = parent + (start - 1, start + hit)
                            break
                        hit -= stop - start
                    x = linalg.solve(columns(idxs), target, p)
                    if x is None:
                        raise LemmaViolationError("batched span check and solve disagree on a leaf")
                    return _witness_from_solution(shape, [entry(j) for j in idxs], x)
                used, leaves = run, leaves + len(spent)
            if over is not None:
                used = over
                raise _BudgetExhausted
        return None

    start_r = max(lovett, 1)
    proven_lo = start_r  # depths below proven_lo are ruled out
    found = None
    for r in range(start_r, min(r_max, hi) + 1):
        try:
            found = search_depth(r)
        except _BudgetExhausted:
            return RankReport(
                proven_lo, hi, proven_lo == hi, trivial, lovett, used,
                "node budget exhausted", leaves,
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
                return RankReport(r, r, True, witness, lovett, used, leaves=leaves)
            if size == proven_lo:
                return RankReport(size, size, True, witness, lovett, used, leaves=leaves)
            return RankReport(
                proven_lo, size, False, witness, lovett, used,
                "witness found but some bipartition was not enumerable", leaves,
            )
        # rank-1 detection at depth 1 is complete regardless of the pool
        if r == 1 or complete:
            proven_lo = r + 1
    reason = None if proven_lo == hi else (
        f"search truncated at r_max={min(r_max, hi)}"
        if complete
        else "some bipartition has no desk-scale factor side"
    )
    return RankReport(proven_lo, hi, proven_lo == hi, trivial, lovett, used, reason, leaves)


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
