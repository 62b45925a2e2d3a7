"""Partition rank: rank-1 detection, the exact pair route at k = 3, the
deepening search with witnesses, flattenings, the analytic lower bound, and
the constructive bilinear decomposition.

At k = 3 every bipartition splits one coordinate from two, so partition rank
is slice rank: T has rank <= r iff it vanishes on some W_1 x W_2 x W_3 with
codimensions summing to at most r.  For fixed W_1 and W_2 the least
codimension of W_3 is rank T(W_1, W_2, .), so

    prank(T) = min over W_1, W_2 of codim W_1 + codim W_2 + rank T(W_1, W_2, .),

with W_1 and W_2 in the two smallest coordinates.  The pair route
(`_best_pair`) walks the subspaces of both (`forms.subspaces`) in groups of
equal dimensions, by c = codim W_1 + codim W_2, one contraction and one
batched rank read per batch of a group, and stops once c reaches the best
total or the total reaches the analytic lower bound.  Its witness
(`_pair_witness`) has one summand per reduced basis vector of W_1^perp,
W_2^perp and W_3^perp, whose other factor is a slice of T, projected onto
W_i one axis at a time.  The route prices itself first (`pair_route_entries`);
a shape it cannot afford within `forms.DEFAULT_ENUM_GUARD`, and every k != 3,
goes to the search.

The search (`prank_search`) runs iterative deepening over combinations of
candidate summands.  A candidate fixes the bipartition I | [k]-I (canonically
1 in I) and one factor, enumerated up to scalar normalization (`forms.normalized_vectors`:
first nonzero coefficient 1, row-major); its block B holds the products of
that factor with every basis vector of the free side, so a combination
reaches the target b iff [B_1 | ... | B_r] x = b is solvable.  For each bipartition the factor side
with the smaller coefficient space is enumerated, which keeps the pool
complete whenever one side is desk-scale.  The pool stores only the factors.

Leaves are visited in `combinations` order, and the leaves (prefix, j) that
share their first r - 1 entries are checked together.  If the rows of Q span
the left nullspace of the prefix columns P (the prefix quotient), then
[P | B_j] x = b is solvable iff Q b lies in the column span of Q B_j.  Q B_j
is contracted from Q and the factor alone, and all j are checked by one
batched elimination (`linalg.solvable_many`).  The quotients of the prefixes
parent + (i,) come from the parent's quotient Q_p: the left nullspace of
Q_p B_i, again batched over i (`linalg.left_nullspace_many`), whose basis
rows are stacked and multiplied by Q_p in one product.  Only the solvable
leaf the search stops at is solved (`linalg.solve`) to build the witness.

A batch of leaves may span several prefixes: their quotients are stacked,
and each side's factors are contracted with the whole stack at once.  These
images, the child quotients and the right-hand sides Q b go through
`forms.contract`, which runs them as exact float64 BLAS products at
desk-scale p.  At p = 2 the leaves take no product: Q's columns are packed
into uint64 words along its rows (`linalg.pack_columns`), the image of a
side's factor is the XOR of the lead columns of Q that its coefficients
select, read from two tables of subset XORs filled by doubling
(`_Side.image_words`), Q b is the XOR of the columns b selects, and the span
test runs on the column words (`linalg.solvable_columns`).  A batch
allocates at most `BATCH_BYTES` (one leaf or one child at the least).  The
budget is charged leaf by leaf in the same order, so nodes, leaves and
witnesses do not depend on the batching.

Exactness is never sacrificed silently: on budget exhaustion, or when some
bipartition has no enumerable side, the result is an interval, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import forms, linalg
from .analytic import ceil_neg_log, exact_bias
from .errors import LemmaViolationError
from .forms import MultilinearMap, Shape, contract, gaussian_binomial, normalized_vectors, subspaces

MODE_CAP = 4096          # normalized factors enumerable per bipartition side
DEFAULT_BUDGET = 200_000  # solver unknowns, summed over the leaves checked
BATCH_BYTES = 1 << 21     # bytes one batch of the search allocates
# A batch of children, and at p > 2 a batch of leaves, holds each entry of its
# padded stack about four times at once, in at most 8 bytes each: the stack
# itself, one side's float64 product (cast to int64 in place), the rows gathered
# from that product, and the elimination's work rows.  A p = 2 batch of leaves is
# priced by its column words instead (`first_solvable_words`).
ENTRY_BYTES = 32


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
    """The partition rank as an interval [prank_lo, prank_hi], exact when
    they meet, with a witness of prank_hi summands and the analytic lower
    bound.  `nodes` and `leaves` count the deepening search's work only (a
    rank-1 check counts 1 of each), and `pairs` the pair route's rank reads
    of T(W_1, W_2, .); the CLI payload carries `nodes`, not `pairs`."""

    prank_lo: int
    prank_hi: int
    witness: PartitionDecomposition | None
    lovett_lower: int
    nodes: int  # budget units: solver unknowns summed over the leaves checked
    truncated_reason: str | None = None
    leaves: int = 0  # leaves checked, a rank-1 check counting 1
    pairs: int = 0  # (W_1, W_2) rank reads of the pair route

    @property
    def exact(self) -> bool:
        return self.prank_lo == self.prank_hi

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

@dataclass(frozen=True)
class _Side:
    """The pool entries of one bipartition I | [k]-I: every normalized factor
    on its enumerated side, the opposite factor left unknown."""

    subset: frozenset
    enum_on_subset: bool
    factors: np.ndarray   # (count, enumerated-side coeff count), one factor per row
    width: int            # unknowns per entry: the free side's coefficient count

    def images(self, shape: Shape, Q: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
        """Q B for the blocks B of the entries `rows`: a (len(rows), len(Q), width)
        stack, one contraction (`forms.contract`) of the factors with Q, whose
        columns are split into the factor side's coefficients, which lead, Q's
        rows and the free side's coefficients."""
        Is, comp = sorted(self.subset), sorted(_complement(shape, self.subset))
        lead, free = (Is, comp) if self.enum_on_subset else (comp, Is)
        C = Q.reshape((len(Q),) + shape.dims).transpose(lead + [0] + free)
        return contract(C, [self.factors[rows]], p).reshape(len(rows), len(Q), self.width)

    def image_words(self, shape: Shape, QW: np.ndarray, t: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """At p = 2, Q_t B for the pairs (t_l, code_l) of quotient and entry, as
        a (len(t), width, W) stack of column words, from the column words QW
        (T, N, W) of a stack of quotients (`linalg.pack_columns`).  The factor
        with code c is row c - 1 of `factors` (`normalized_vectors`), and its
        image is the XOR of the lead columns its bits select, bit a the
        coefficient n - 1 - a.  The XORs of every subset of the low half of
        the bits, and of the high half, are two tables filled by doubling, and
        an image is the XOR of one row of each: about 2 * 2^(n/2) rows per
        quotient (`table_words`), where one table of all subsets has 2^n."""
        Is, comp = sorted(self.subset), sorted(_complement(shape, self.subset))
        lead, free = (Is, comp) if self.enum_on_subset else (comp, Is)
        T, _, W = QW.shape
        n = self.factors.shape[1]
        cols = QW.reshape((T,) + shape.dims + (W,)).transpose([0] + lead + free + [shape.k + 1])
        cols = cols.reshape(T, n, self.width, W)
        bits = int(codes.max()).bit_length()
        low = bits // 2
        tables = []
        for first, count in ((0, low), (low, bits - low)):
            table = np.empty((T, 1 << count, self.width, W), dtype=np.uint64)
            table[:, 0] = 0
            for a in range(count):
                table[:, 1 << a : 2 << a] = table[:, : 1 << a] ^ cols[:, n - 1 - first - a, None]
            tables.append(table)
        images = tables[0][t, codes & ((1 << low) - 1)]
        images ^= tables[1][t, codes >> low]
        return images

    def table_words(self) -> int:
        """At most the words of `image_words`'s two tables for one quotient,
        per word of its columns."""
        n = self.factors.shape[1]
        return ((1 << n // 2) + (1 << n - n // 2)) * self.width

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
        sides.append(_Side(I, enum_on_subset, normalized_vectors(p, n_side), width))
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


# ---------------------------------------------------------------------------
#  The pair route at k = 3
# ---------------------------------------------------------------------------

def _pair_axes(shape: Shape) -> list:
    """A k = 3 shape's coordinates, 0-based, by dimension and then position:
    W_1 and W_2 range over the subspaces of the first two."""
    return sorted(range(3), key=lambda i: (shape.dims[i], i))


def _pair_groups(shape: Shape) -> list:
    """(c, c_1, d_1, d_2) for the groups of pairs of subspaces of dimensions
    d_1 and d_2 whose codimensions add up to c = c_1 + c_2 < min n_i, by c
    and then c_1."""
    na, nb, _ = sorted(shape.dims)
    return sorted((na - d1 + nb - d2, na - d1, d1, d2)
                  for d1 in range(na + 1) for d2 in range(nb + 1) if na - d1 + nb - d2 < na)


def pair_route_entries(shape: Shape) -> int:
    """The entries of every T(W_1, W_2, .) the pair route may stack on a k = 3
    shape, d_1 d_2 n_3 for each pair in `_pair_groups`, counted from Gaussian
    binomials.  Pairs with c_1 + c_2 >= min n_i are never read: slicing along
    the smallest coordinate already gives min n_i."""
    na, nb, nc = sorted(shape.dims)
    return sum(gaussian_binomial(shape.p, na, d1) * gaussian_binomial(shape.p, nb, d2) * d1 * d2 * nc
               for _, _, d1, d2 in _pair_groups(shape))


def _best_pair(alpha: MultilinearMap, lovett: int):
    """(best, (B_1, B_2), pairs): the least codim W_1 + codim W_2 +
    rank T(W_1, W_2, .) over the subspaces of the first two `_pair_axes`,
    the reduced bases of the first pair that reaches it, and the count of
    pairs whose rank was read.

    The groups of `_pair_groups` run in order, each one contraction
    (`forms.contract`) of T with the stacked bases of both sides and one
    `linalg.rank_many` over the (d_1 d_2, n_3) matrices, in batches of at
    most `BATCH_BYTES`.  The walk stops before the first group whose c
    reaches the best total, or once that total reaches `lovett`: no later
    pair can do better, so the best total is the minimum.  Whole groups are
    read, so the answer, its pair and `pairs` do not depend on the batching."""
    shape, p = alpha.shape, alpha.shape.p
    a, b, c = _pair_axes(shape)
    na, nb, nc = shape.dims[a], shape.dims[b], shape.dims[c]
    T = alpha.coeffs[..., 0].transpose(a, b, c)
    # W_1 = 0 and W_2 = V_b: slicing along the smallest coordinate
    best, bases, pairs = na, (np.zeros((0, na), dtype=np.int64), np.eye(nb, dtype=np.int64)), 0
    for cost, _, d1, d2 in _pair_groups(shape):
        if cost >= best or best <= lovett:
            break
        S1, S2 = subspaces(p, na, d1), subspaces(p, nb, d2)
        step = max(1, BATCH_BYTES // (ENTRY_BYTES * d1 * d2 * nc))  # pairs in one batch
        rows1, rows2 = max(1, step // len(S2)), min(step, len(S2))
        for i in range(0, len(S1), rows1):
            for j in range(0, len(S2), rows2):
                A, B = S1[i : i + rows1], S2[j : j + rows2]
                M = contract(T, [A.reshape(-1, na), B.reshape(-1, nb)], p)
                M = M.reshape(len(A), d1, len(B), d2, nc).transpose(0, 2, 1, 3, 4).reshape(-1, d1 * d2, nc)
                ranks = linalg.rank_many(M, p)
                pairs += len(ranks)
                at = int(ranks.argmin())
                if cost + int(ranks[at]) < best:
                    best = cost + int(ranks[at])
                    bases = (A[at // len(B)], B[at % len(B)])
    return best, bases, pairs


def _pair_witness(alpha: MultilinearMap, bases) -> list:
    """Summands l(x_i) g(x_rest), one per row l of the reduced basis of
    W_1^perp, W_2^perp and W_3^perp, the row space of T(W_1, W_2, .), for the
    reduced bases (B_1, B_2) of `_best_pair`.  Axis by axis, with q the pivot
    columns of a basis L and E the unit columns at q, x = E L x + P x where
    P = I - E L maps onto W_i: so T = sum_l l(x_i) T[q_l] + T(P x_i, .), each
    g is the slice of T at a pivot, and T becomes T(P .), one `forms.contract`.
    T vanishes on W_1 x W_2 x W_3, so nothing may be left after the third
    axis.  The linear factors are normalized; a summand's subset holds
    coordinate 1, in the order {1}, {1,2}, {1,3}."""
    shape, p = alpha.shape, alpha.shape.p
    a, b, c = _pair_axes(shape)
    B1, B2 = bases
    T = alpha.coeffs[..., 0]
    W3 = np.zeros((0, shape.dims[c]), dtype=np.int64)
    if len(B1) and len(B2):
        W3 = contract(T.transpose(a, b, c), [B1, B2], p)
    perps = {a: linalg.nullspace(B1, p), b: linalg.nullspace(B2, p), c: W3}
    summands = {}
    for i in (a, b, c):
        R, q = linalg.row_echelon(perps[i], p)
        L = R[: len(q)]  # the reduced basis of W_i^perp, with pivot columns q
        rest = [j + 1 for j in range(3) if j != i]
        Ti = np.moveaxis(T, i, 0)
        summands[i] = []
        for l, g in zip(L, Ti[q]):
            if g.any():
                lin = MultilinearMap(shape.sub([i + 1]), 1, l.reshape(-1, 1))
                bil = MultilinearMap(shape.sub(rest), 1, g[..., None])
                summands[i].append(PartitionSummand(frozenset([1]), lin, bil) if i == 0
                                   else PartitionSummand(frozenset(rest), bil, lin))
        P = np.eye(len(Ti), dtype=np.int64)  # I - E L
        P[q] -= L
        T = np.moveaxis(contract(Ti, [P.T % p], p).reshape(Ti.shape), 0, i)
    if T.any():
        raise LemmaViolationError("the pair route's form does not vanish on its subspaces")
    return summands[0] + summands[2] + summands[1]


def _checked(alpha: MultilinearMap) -> RankReport | None:
    """The report of the zero form, None for any other scalar form of arity k >= 2."""
    if not alpha.scalar:
        raise ValueError("needs a scalar form")
    if alpha.is_zero():
        return RankReport(0, 0, PartitionDecomposition(alpha, []), 0, 0)
    if alpha.shape.k < 2:
        raise ValueError("partition rank of a nonzero form needs arity k >= 2")
    return None


def prank_exact(alpha: MultilinearMap, r_max: int = 6, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Smallest number of rank-1 summands adding up to alpha, with a witness.

    At k = 3 on a shape the pair route can afford (`pair_route_entries`
    within `forms.DEFAULT_ENUM_GUARD`), a form of analytic lower bound at
    most 1 goes through rank-1 detection first (1 node, 1 leaf), and every
    other form through the pair route (`pairs` counts its rank reads): the
    answer is always exact, and `r_max` and `budget` are not read.  Every
    other form is answered by `prank_search`, which `r_max` and `budget`
    bound.
    """
    done = _checked(alpha)
    if done is not None:
        return done
    shape = alpha.shape
    lovett = lovett_lower_bound(alpha)
    if shape.k != 3 or pair_route_entries(shape) > forms.DEFAULT_ENUM_GUARD:
        return _search(alpha, lovett, r_max, budget)
    rank1_checked = lovett <= 1
    if rank1_checked:
        w = is_partition_rank_le1(alpha)
        if w is not None:
            return RankReport(1, 1, PartitionDecomposition(alpha, [w]), lovett, 1, leaves=1)
    best, bases, pairs = _best_pair(alpha, lovett)
    witness = PartitionDecomposition(alpha, _pair_witness(alpha, bases))
    if len(witness) != best or not witness.verify():
        raise LemmaViolationError(f"the pair route's projection does not give a witness of its rank {best}")
    if best < lovett:
        raise LemmaViolationError("pair route below the analytic lower bound")
    return RankReport(best, best, witness, lovett, int(rank1_checked), leaves=int(rank1_checked), pairs=pairs)


def prank_search(alpha: MultilinearMap, r_max: int = 6, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Smallest number of rank-1 summands adding up to alpha, with a witness,
    by iterative deepening from the analytic lower bound, at every arity.

    A leaf of depth r >= 2 is a combination of r pool entries, checked in
    `combinations` order; the node count, and the `budget` it is held to, is
    the number of solver unknowns summed over the leaves checked (a rank-1
    check counts 1).  `leaves` counts the leaves themselves.  Leaves sharing
    their first r - 1 entries are checked together against that prefix's
    quotient (see the module docstring); the budget is still charged leaf by
    leaf, so the result does not depend on the batching.  Returns the exact
    rank, or the interval [lo, hi] with the best known witness for the upper
    endpoint.  `prank_exact` answers with it wherever the pair route does
    not, and at k = 3 it is the pair route's test oracle.
    """
    done = _checked(alpha)
    if done is not None:
        return done
    return _search(alpha, lovett_lower_bound(alpha), r_max, budget)


def _search(alpha: MultilinearMap, lovett: int, r_max: int, budget: int) -> RankReport:
    """`prank_search` of a nonzero scalar form of arity k >= 2 whose analytic
    lower bound is `lovett`."""
    shape = alpha.shape
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

    def padded_images(Qs: np.ndarray, t: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Qs[t_l] B_(j_l) for every pair (t_l, j_l) of the arrays t and j, from a
        (T, dmax, N) stack Qs of quotients zero-padded to one height, as a stack
        zero-padded to one width.  One contraction per side serves every
        quotient of Qs."""
        T, dmax, _ = Qs.shape
        Q = Qs.reshape(T * dmax, -1)
        out = np.zeros((len(j), dmax, wmax), dtype=np.int64)
        on = side_of[j]
        for s in range(on.min(), on.max() + 1):
            sel = on == s
            if not sel.any():
                continue
            rows = j[sel] - offsets[s]
            first = rows.min()
            images = sides[s].images(shape, Q, np.arange(first, rows.max() + 1), p)
            out[sel, :, : sides[s].width] = images.reshape(-1, T, dmax, sides[s].width)[rows - first, t[sel]]
            del images  # before the next side's products
        return out

    def first_solvable_words(Qs: np.ndarray, t: np.ndarray, j: np.ndarray):
        """`first_solvable` at p = 2, on column words (`linalg.pack_columns`):
        each chunk's images come from its quotients' subset tables
        (`_Side.image_words`), Q b is the XOR of the columns of Q that b
        selects, and the span test is `linalg.solvable_columns`.  A chunk holds
        the subset tables of every side for each of its quotients, and each of
        its leaves' (wmax + 1) column words about four times (the images, the
        rows XORed into them, the stack and the reader's copy), within
        `BATCH_BYTES`."""
        QW = linalg.pack_columns(Qs)
        n_words = QW.shape[2]  # per column of a quotient
        rhs = np.bitwise_xor.reduce(QW[:, target == 1], axis=1)
        per_leaf = ENTRY_BYTES * n_words * (wmax + 1)
        per_quotient = 8 * n_words * sum(side.table_words() for side in sides)
        c = 0
        while c < len(j):
            held = np.arange(1, len(j) - c + 1) * per_leaf + (t[c:] - t[c] + 1) * per_quotient
            e = c + max(1, int(np.searchsorted(held, BATCH_BYTES, side="right")))
            tc, jc = t[c:e] - t[c], j[c:e]
            stack = np.zeros((e - c, wmax + 1, n_words), dtype=np.uint64)
            on = side_of[jc]
            for s in range(on.min(), on.max() + 1):
                sel = on == s
                if sel.any():
                    codes = jc[sel] - offsets[s] + 1
                    stack[sel, : sides[s].width] = sides[s].image_words(shape, QW[t[c] : t[e - 1] + 1], tc[sel], codes)
            stack[:, wmax] = rhs[t[c:e]]
            ok = linalg.solvable_columns(stack)
            if ok.any():
                return c + int(ok.argmax())
            c = e
        return None

    def first_solvable(Qs: np.ndarray, t: np.ndarray, j: np.ndarray):
        """Position of the first solvable leaf, or None.  Leaf l is (prefix t_l,
        entry j_l) with the prefix's quotient Qs[t_l] (see `padded_images`), and
        it is solvable iff Q b lies in the column span of Q B_j.  The leaves
        are checked in order, in chunks whose stacks fit `BATCH_BYTES`."""
        if p == 2:
            return first_solvable_words(Qs, t, j)
        T, dmax, N = Qs.shape
        rhs = contract(target, [Qs.reshape(T * dmax, N)], p).reshape(T, dmax)
        step = max(1, BATCH_BYTES // (ENTRY_BYTES * max(1, dmax) * (wmax + 1)))
        for c in range(0, len(j), step):
            tc, jc = t[c : c + step], j[c : c + step]
            ok = linalg.solvable_many(padded_images(Qs[tc[0] : tc[-1] + 1], tc - tc[0], jc), rhs[tc], p)
            if ok.any():
                return c + int(ok.argmax())
        return None

    # [Q_parent B_i | I], one child's quotient system, has at most N x (N + wmax) entries
    child_entries = target.size * (target.size + wmax)
    batch_kids = max(1, BATCH_BYTES // (ENTRY_BYTES * child_entries))

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
                # the children's quotients from the parent's: the left nullspaces of
                # Q_p B_i in one batched elimination, then their basis rows, padded
                # with zero rows to one height, times Q_p in one product
                kids = np.array(kids)
                Y, basis = linalg.left_nullspace_many(padded_images(Qp[None], np.zeros_like(kids), kids), p)
                height = int(basis.sum(axis=1).max())
                first = np.argsort(~basis, axis=1, kind="stable")[:, :height]  # basis rows first
                each = np.arange(len(kids))[:, None]
                Y = Y[each, first] * basis[each, first][:, :, None]
                Qs = contract(Qp, [Y.reshape(-1, len(Qp))], p).reshape(len(kids), height, target.size)
                # leaf l is (kid t_l, entry j_l), in leaf order
                t = np.repeat(np.arange(len(kids)), [len(c) for c in spent])
                j = np.concatenate([np.arange(kid + 1, kid + 1 + len(c)) for kid, c in zip(kids, spent)])
                spent = np.concatenate(spent)
                hit = first_solvable(Qs, t, j)
                if hit is not None:
                    used, leaves = int(spent[hit]), leaves + hit + 1
                    idxs = parent + (int(kids[t[hit]]), int(j[hit]))
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
            return RankReport(proven_lo, hi, trivial, lovett, used, "node budget exhausted", leaves)
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
                return RankReport(r, r, witness, lovett, used, leaves=leaves)
            if size == proven_lo:
                return RankReport(size, size, witness, lovett, used, leaves=leaves)
            return RankReport(
                proven_lo, size, witness, lovett, used,
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
    return RankReport(proven_lo, hi, trivial, lovett, used, reason, leaves)


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
