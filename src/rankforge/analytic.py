"""Exact bias, analytic rank, value histograms, box norms, and the related checks.

Policy: every count is an exact integer and every bias of a multilinear form
is an exact rational derived from those counts.  Floating point enters only
when a histogram is weighted by character values, so a tolerance (1e-9) is
needed only there.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import forms, linalg
from .errors import LemmaViolationError
from .forms import Map, MultiaffineMap, MultilinearMap, Shape, characters, contract, digit_matrix, scalar_table, subsets, top_part

CHI_TOL = 1e-9
BOX_GUARD = 1 << 13  # |G| cap for the 2k-fold box-norm average


def plain_log(p: int, x: float) -> float:
    """log base p (the reporting convention used everywhere in this package)."""
    return math.log(x) / math.log(p)


@dataclass(frozen=True)
class ValueHistogram:
    """Exact counts of each field value attained over the enumerated domain."""

    p: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("need one count per field value")
        if sum(self.counts) != self.total:
            raise ValueError("histogram counts do not sum to the enumerated total")

    def chi_average(self) -> complex:
        """E chi(value), the counts weighted by the character table of F_p."""
        w = np.asarray(self.counts, dtype=np.float64)
        return complex((w * characters(self.p)).sum() / self.total)


def value_histogram(f: Map) -> ValueHistogram:
    """Exact histogram of a scalar map by full enumeration, the oracle of
    `bias_report`'s slice counts."""
    if f.m != 1:
        raise ValueError("value_histogram needs a scalar-valued map")
    shape = f.shape
    Shape.guard(shape.domain_size, "histogram enumeration")
    counts = np.bincount(scalar_table(f).reshape(-1), minlength=shape.p)
    return ValueHistogram(shape.p, tuple(int(c) for c in counts), shape.domain_size)


@dataclass(frozen=True)
class BiasReport:
    histogram: ValueHistogram
    bias: complex
    bias_exact: Fraction | None  # rational bias; None for genuinely complex bias
    arank: float | None
    vanishing_count: int | None  # |{A = 0}| for the curried map, multilinear input only


def bias_report(f: Map) -> BiasReport:
    """Bias of a scalar map from its exact value counts (`slice_counts`).

    A multilinear form f(x) = <A(x_[k-1]), x_k> also gets its exact bias,
    analytic rank and the zero count V of A over the P points x_[k-1]: f is
    0 on all of G_k where A vanishes and on p^(n_k - 1) points elsewhere, so
    N_0 - N_1 = V p^n_k and the bias is V / P.
    """
    counts = slice_counts(f, [[1]])
    p, total = f.shape.p, f.shape.p ** sum(f.shape.dims)
    hist = ValueHistogram(p, tuple(counts[0].tolist()), total)
    if not isinstance(f, MultilinearMap):
        return BiasReport(hist, hist.chi_average(), None, None, None)
    vanish = int(vanishing_counts(f, counts)[0])
    exact = Fraction(vanish, total // p ** f.shape.dims[-1])
    # a nonzero linear form has bias 0: its character sum cancels exactly
    ar = math.inf if exact == 0 else plain_log(p, exact.denominator) - plain_log(p, exact.numerator)
    return BiasReport(hist, hist.chi_average(), exact, ar, vanish)


def vanishing_counts(f: MultilinearMap, counts: np.ndarray) -> np.ndarray:
    """The zero counts V = (N_0 - N_1) / p^n_k of the curried maps of the
    multilinear forms on f's shape with the value counts in the rows of
    `counts`; each row must have a balanced tail and give an integer V."""
    if np.count_nonzero(counts[:, 2:] != counts[:, 1:2]):
        raise ValueError("exact bias needs a balanced histogram tail")
    vanish, rest = np.divmod(counts[:, 0] - counts[:, 1], f.shape.p ** f.shape.dims[-1])
    if np.count_nonzero(rest):
        raise LemmaViolationError(f"bias of counts {counts[rest != 0][0]} is not a zero density of the curried map")
    return vanish


def slice_stack_entries(shape: Shape) -> int:
    """p^S * (n_a + 1) * (n_b + 1), the entries of the slice stack of one
    component of a map on `shape` (`_slice_stack`; n_b = 0 when k = 1): the
    work one value count is guarded by."""
    dims = sorted(shape.dims)
    n_a, n_b = dims[-1], (dims[-2] if shape.k > 1 else 0)
    return shape.p ** sum(dims[:-2]) * (n_a + 1) * (n_b + 1)


def _slice_stack(f: Map) -> np.ndarray:
    """The (p^S, m, n_a + 1, n_b + 1) stack of slices [[M, u], [v^T, c]], one
    per point of the coordinates other than the two largest, a (n_a rows)
    and b (n_b <= n_a columns; n_b = 0 when k = 1), and output component; S
    sums the other dimensions.  Each slice is the biaffine map
    g(y, z) = y^T M z + u.y + v.z + c.  Each part of f is contracted
    (`forms.contract`) with every point of its other coordinates and added
    into the block its a and b select, so entries are sums of residues.  The
    guard is on the p^S * (n_a + 1) * (n_b + 1) entries of one component's
    slices (`slice_stack_entries`)."""
    shape = f.shape
    p, dims = shape.p, shape.dims
    by_size = sorted(range(shape.k), key=lambda i: dims[i])
    a, b = by_size[-1], (by_size[-2] if shape.k > 1 else None)
    others = sorted(by_size[:-2])
    n_a, n_b = dims[a], (dims[b] if b is not None else 0)
    sizes = [p ** dims[i] for i in others]
    Shape.guard(slice_stack_entries(shape), "slice stack")
    E = np.zeros(sizes + [f.m, n_a + 1, n_b + 1], dtype=np.int64)
    for I, C in f.parts.items():
        axes = sorted(i - 1 for i in I)
        fixed = [i for i in others if i in axes]
        free = [i for i in (a, b) if i in axes]
        T = C.transpose([axes.index(i) for i in fixed] + [len(axes)] + [axes.index(i) for i in free])
        T = contract(T, [digit_matrix(p, dims[i]) for i in fixed], p)
        block = E[..., slice(n_a) if a in free else n_a, slice(n_b) if b in free else n_b]
        block += T.reshape([s if i in fixed else 1 for i, s in zip(others, sizes)] + [f.m] + [dims[i] for i in free])
    return E.reshape(-1, f.m, n_a + 1, n_b + 1)


def slice_counts(f: Map, S) -> np.ndarray:
    """The (L, p) int64 value counts of the scalar maps s.f, for the L rows s
    of an integer (L, m) matrix S, from f's slice stack (`_slice_stack`); no
    point is enumerated.  s.f's stack is s contracted with the component stack
    (`forms.contract`) for a chunk of rows whose stacks hold at most
    DEFAULT_ENUM_GUARD entries (or one row), and each chunk is eliminated over
    M's columns at once (`linalg.reduce_many`); S = [[1]] on a scalar map
    reads f's own stack.  A slice is balanced, every value p^(n_a+n_b-1)
    times, if v^T takes a pivot or a row of M without one keeps a nonzero u
    entry.  Otherwise g - t0, with t0 the reduced (v^T, c) row's last entry,
    is a bilinear form of rank r = rank M after an affine change of
    variables: every value (p^n_a - p^(n_a-r)) p^(n_b-1) times, and t0
    p^(n_a-r+n_b) more.  The guards are the stack's and one on p, and the
    counts of a row sum to the domain size, so int64 is exact."""
    p = f.shape.p
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[1] != f.m or S.dtype.kind not in "iu":
        raise ValueError(f"combinations must be integer rows of length {f.m}")
    Shape.guard(p, "value histogram")
    E = _slice_stack(f)
    B, _, r, c = E.shape
    if S.shape == (1, 1) and S.item() == 1:
        return _stack_counts(E[:, 0], 1, p)
    np.bitwise_and(E, 1, out=E) if p == 2 else np.remainder(E, p, out=E)  # E >= 0: a mask beats a division
    step = max(1, forms.DEFAULT_ENUM_GUARD // (B * r * c))
    out = np.empty((len(S), p), dtype=np.int64)
    for start in range(0, len(S), step):
        rows = S[start : start + step] % p
        stacks = contract(E.transpose(1, 0, 2, 3), [rows], p).reshape(-1, r, c)
        out[start : start + len(rows)] = _stack_counts(stacks, len(rows), p)
    return out


def _stack_counts(stack: np.ndarray, L: int, p: int) -> np.ndarray:
    """(L, p) value counts of L maps from their slice stacks, B slices each,
    in a (L B, n_a + 1, n_b + 1) stack (see `slice_counts`)."""
    B, n_a, n_b = len(stack) // L, stack.shape[1] - 1, stack.shape[2] - 1
    pivot, carried = linalg.reduce_many(stack, p, n_b)
    last = carried[:, :, 0] * ~pivot  # u entries left on rows of M without a pivot, then t0
    balanced = pivot[:, n_a] | last[:, :n_a].any(axis=1)
    # a balanced slice gives t0 "0 more"
    N = n_a + n_b
    more = p ** (N - pivot.sum(axis=1))
    more[balanced] = 0
    at = last[:, n_a] if L == 1 else last[:, n_a] + np.repeat(np.arange(0, L * p, p), B)
    counts = np.zeros(L * p, dtype=np.int64)
    np.add.at(counts, at, more)
    counts = counts.reshape(L, p)
    counts += (B * p ** N - (int(more.sum()) if L == 1 else more.reshape(L, B).sum(axis=1, keepdims=True))) // p
    return counts


def level_set_count(f: Map, value) -> int:
    """|{x : f(x) = value}| for a map f into F_p^m, counted from the value
    counts H_s of the scalar maps s.f, s in F_p^m; no point of the domain is
    enumerated.

    Summing chi(s.(f(x) - v)) over x and s gives p^m times the count, and
    equals sum_u A_u w^u with A_u = sum_s H_s(u + s.v), w = e^(2 pi i/p);
    H_0 is |G| at 0.  Since H_(c s)(t) = H_s(t / c), the lines through 0
    (s with first nonzero entry 1, `forms.normalized_vectors`) give all p^m:
    the line adds (p - 1) H_s(s.v) to A_0 and |G| - H_s(s.v) to every other
    A_u, so A_1 = ... = A_(p-1) and the count is (A_0 - A_1) / p^m =
    (|G| + sum over lines of (p H_s(s.v) - |G|)) / p^m, with the H_s(s.v)
    the zero counts of one `slice_counts` call on f - v.
    That p^m divides it and the count lies in [0, |G|] are checked.  The
    guards are on the p^m character sums and on the slice-stack entries of
    all the lines together (`slice_stack_entries`), before any count."""
    shape = f.shape
    p, m, total = shape.p, f.m, shape.domain_size
    v = np.array([int(t) % p for t in value], dtype=np.int64)
    if len(v) != m:
        raise ValueError(f"level value must have length {m}")
    Shape.guard(p ** m, "level set characters")
    lines = (p ** m - 1) // (p - 1)
    Shape.guard(lines * slice_stack_entries(shape), "level set slice stacks")
    parts = dict(f.parts)
    parts[frozenset()] = parts.get(frozenset(), 0) - v
    zeros = slice_counts(MultiaffineMap(shape, m, parts), forms.normalized_vectors(p, m))[:, 0]
    diff = p * sum(zeros.tolist()) - (lines - 1) * total  # A_0 - A_1
    if diff % p ** m or not 0 <= diff <= p ** m * total:
        raise LemmaViolationError(f"character sum difference {diff} of a level set is not p^{m} times a count")
    return diff // p ** m


def bias(f: Map) -> complex:
    return bias_report(f).bias


def arank(f: MultilinearMap) -> float:
    rep = bias_report(f)
    if rep.arank is None:
        raise ValueError("analytic rank is defined for multilinear forms only")
    return rep.arank


def exact_bias(f: MultilinearMap) -> Fraction:
    """`bias_report(f).bias_exact`, the zero density V / P of f's curried map
    (`vanishing_counts`), without the character table of F_p.  Any other map
    is refused before its slice stack is built."""
    if not isinstance(f, MultilinearMap):
        raise ValueError("exact bias is defined for multilinear forms only")
    counts = slice_counts(f, [[1]])
    return Fraction(int(vanishing_counts(f, counts)[0]), f.shape.domain_size // f.shape.sizes[-1])


def ceil_neg_log(p: int, value: Fraction) -> int:
    """Smallest integer m with value >= p^-m, computed exactly."""
    if value <= 0:
        raise ValueError("need a positive rational")
    m = 0
    acc = value.numerator
    den = value.denominator
    while acc < den:
        acc *= p
        m += 1
    return m


# ---------------------------------------------------------------------------
#  Bias of a multiaffine form vs its top multilinear part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasHomogReport:
    abs_bias: float
    top_bias: Fraction
    ok: bool


def bias_homog_check(f: MultiaffineMap) -> BiasHomogReport:
    """|E chi(f)| <= E chi(top multilinear part), the latter a real rational."""
    lhs = abs(bias(f))
    rhs = exact_bias(top_part(f))
    return BiasHomogReport(lhs, rhs, lhs <= float(rhs) + CHI_TOL)


# ---------------------------------------------------------------------------
#  Gowers box norm and the Gowers-Cauchy-Schwarz check
# ---------------------------------------------------------------------------

def _box_average(shape: Shape, tables: dict) -> complex:
    """E_{x,y} prod_I Conj^|I| f_I(x_I, y_{[k] minus I}) for complex grids f_I."""
    k = shape.k
    Shape.guard(shape.domain_size ** 2 * (1 << k), "box average", BOX_GUARD ** 2 * (1 << k), "analytic.BOX_GUARD")
    letters = string.ascii_lowercase
    if 2 * k > len(letters):
        raise ValueError("arity too large for the box average")
    x_ax = letters[:k]
    y_ax = letters[k : 2 * k]
    specs = []
    operands = []
    for I in sorted(tables, key=lambda s: (len(s), sorted(s))):
        grid = np.asarray(tables[I], dtype=np.complex128)
        if grid.shape != shape.sizes:
            raise ValueError("table does not match the domain")
        if len(I) % 2 == 1:
            grid = np.conj(grid)
        axes = "".join(x_ax[i - 1] if i in I else y_ax[i - 1] for i in range(1, k + 1))
        specs.append(axes)
        operands.append(grid)
    total = np.einsum(",".join(specs) + "->", *operands, optimize=True)
    return complex(total) / shape.domain_size ** 2


def box_norm(shape: Shape, table: np.ndarray) -> float:
    """Gowers box norm of a complex table on the full domain."""
    k = shape.k
    fam = {I: table for I in subsets(k)}
    inner = _box_average(shape, fam)
    if abs(inner.imag) > CHI_TOL or inner.real < -CHI_TOL:
        raise LemmaViolationError(f"box-norm inner average {inner} is not real non-negative")
    return max(inner.real, 0.0) ** (1.0 / (1 << k))


@dataclass(frozen=True)
class GcsReport:
    lhs: float
    rhs: float
    ok: bool


def gcs_check(shape: Shape, tables: dict) -> GcsReport:
    """|E prod_I Conj^|I| f_I| <= prod_I box_norm(f_I) for a full family of tables."""
    fam = {frozenset(J): tab for J, tab in tables.items()}
    for I in subsets(shape.k):
        if I not in fam:
            raise ValueError(f"missing table for subset {sorted(I)}")
    lhs = abs(_box_average(shape, fam))
    rhs = 1.0
    for J, tab in fam.items():
        rhs *= box_norm(shape, tab)
    return GcsReport(lhs, rhs, lhs <= rhs + CHI_TOL)


def chi_table(f: Map) -> np.ndarray:
    """The complex grid chi(f(x)) of a scalar map."""
    values = scalar_table(f)  # guards the domain, so p too, before the O(p) character table
    return characters(f.shape.p)[values]
