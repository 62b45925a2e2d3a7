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

from . import linalg
from .errors import LemmaViolationError
from .field import PrimeField
from .forms import (
    Map,
    MultiaffineMap,
    MultilinearMap,
    Shape,
    code_to_vec,
    compose_output,
    contract,
    digit_matrix,
    scalar_table,
    top_part,
)

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

    def chi_average(self, field: PrimeField | None = None) -> complex:
        field = field or PrimeField(self.p)
        w = np.asarray(self.counts, dtype=np.float64)
        return complex((w * field.char_table).sum() / self.total)

    def balanced_tail(self) -> bool:
        """Whether all nonzero values occur equally often (true for multilinear forms)."""
        tail = self.counts[1:]
        return all(c == tail[0] for c in tail) if tail else True

    def exact_bias(self) -> Fraction:
        """(counts[0] - counts[t != 0]) / total; requires a balanced tail."""
        if not self.balanced_tail():
            raise ValueError("exact bias needs a balanced histogram tail")
        other = self.counts[1] if self.p > 1 and len(self.counts) > 1 else 0
        return Fraction(self.counts[0] - other, self.total)


def value_histogram(f: Map, restriction: np.ndarray | None = None) -> ValueHistogram:
    """Exact histogram of a scalar map by full enumeration, the oracle of
    `bias_report`'s slice counts.  `restriction` is an optional boolean
    membership grid; only points inside it are counted."""
    if f.m != 1:
        raise ValueError("value_histogram needs a scalar-valued map")
    shape = f.shape
    Shape.guard(shape.domain_size, "histogram enumeration")
    if restriction is not None and restriction.shape != shape.sizes:
        raise ValueError("restriction grid does not match the domain")
    vals = scalar_table(f)
    if restriction is not None:
        vals = vals[restriction]
    counts = np.bincount(vals.reshape(-1), minlength=shape.p)
    total = shape.domain_size if restriction is None else int(restriction.sum())
    return ValueHistogram(shape.p, tuple(int(c) for c in counts), total)


@dataclass(frozen=True)
class BiasReport:
    histogram: ValueHistogram
    bias: complex
    bias_exact: Fraction | None  # rational bias; None for genuinely complex bias
    arank: float | None
    vanishing_count: int | None  # |{A = 0}| for the curried map, multilinear input only


def bias_report(f: Map) -> BiasReport:
    """Bias of a scalar map from its exact value histogram (`_slice_histogram`).

    A multilinear form f(x) = <A(x_[k-1]), x_k> also gets its exact bias,
    analytic rank and the zero count V of A over the P points x_[k-1]: f is
    0 on all of G_k where A vanishes and on p^(n_k - 1) points elsewhere, so
    N_0 - N_1 = V p^n_k and the bias is V / P.
    """
    hist = _slice_histogram(f)
    if not isinstance(f, MultilinearMap):
        return BiasReport(hist, hist.chi_average(), None, None, None)
    exact, vanish = _exact_counts(f, hist)
    p = f.shape.p
    # a nonzero linear form has bias 0: its character sum cancels exactly
    ar = math.inf if exact == 0 else plain_log(p, exact.denominator) - plain_log(p, exact.numerator)
    return BiasReport(hist, hist.chi_average(), exact, ar, vanish)


def _exact_counts(f: MultilinearMap, hist: ValueHistogram) -> tuple[Fraction, int]:
    """The exact bias of a multilinear form and the zero count of its curried map."""
    exact = hist.exact_bias()
    vanish = exact * (hist.total // f.shape.sizes[-1])
    if vanish.denominator != 1:
        raise LemmaViolationError(f"bias {exact} is not a zero density of the curried map")
    return exact, int(vanish)


def _slice_stack(f: Map) -> np.ndarray:
    """The (p^S, n_a + 1, n_b + 1) stack of slices [[M, u], [v^T, c]], one per
    point of the coordinates other than the two largest, a (n_a rows) and b
    (n_b <= n_a columns; n_b = 0 when k = 1); S sums the other dimensions.
    Each slice is the biaffine map g(y, z) = y^T M z + u.y + v.z + c.  Each
    part of f is contracted (`forms.contract`) with every point of its other
    coordinates and added into the block its a and b select.  The guard is
    on the p^S * n_a * n_b entries of the M blocks."""
    shape = f.shape
    p, dims = shape.p, shape.dims
    by_size = sorted(range(shape.k), key=lambda i: dims[i])
    a, b = by_size[-1], (by_size[-2] if shape.k > 1 else None)
    others = sorted(by_size[:-2])
    n_a, n_b = dims[a], (dims[b] if b is not None else 0)
    sizes = [p ** dims[i] for i in others]
    Shape.guard(math.prod(sizes) * n_a * n_b, "slice stack")
    E = np.zeros(sizes + [n_a + 1, n_b + 1], dtype=np.int64)
    for I, C in f.parts.items():
        axes = sorted(i - 1 for i in I)
        fixed = [i for i in others if i in axes]
        free = [i for i in (a, b) if i in axes]
        T = C[..., 0].transpose([axes.index(i) for i in fixed + free])
        T = contract(T, [digit_matrix(p, dims[i]) for i in fixed], p)
        block = E[..., slice(n_a) if a in free else n_a, slice(n_b) if b in free else n_b]
        block += T.reshape([s if i in fixed else 1 for i, s in zip(others, sizes)] + [dims[i] for i in free])
    return E.reshape(-1, n_a + 1, n_b + 1)


def _slice_histogram(f: Map) -> ValueHistogram:
    """Exact value histogram of a scalar map from one elimination of its
    slice stack over M's columns (`linalg.reduce_many`); no point of the
    domain is enumerated.  A slice is balanced, every value p^(n_a+n_b-1)
    times, if v^T takes a pivot or a row of M without one keeps a nonzero u
    entry.  Otherwise g - t0, with t0 the reduced (v^T, c) row's last entry,
    is a bilinear form of rank r = rank M after an affine change of
    variables: every value (p^n_a - p^(n_a-r)) p^(n_b-1) times, and t0
    p^(n_a-r+n_b) more.  The guard is the stack's, and one on p counts."""
    if f.m != 1:
        raise ValueError("a bias needs a scalar-valued map")
    p = f.shape.p
    Shape.guard(p, "value histogram")
    stack = _slice_stack(f)
    B, n_a, n_b = stack.shape[0], stack.shape[1] - 1, stack.shape[2] - 1
    pivot, carried = linalg.reduce_many(stack, p, n_b)
    last = carried[:, :, 0] * ~pivot  # u entries left on rows of M without a pivot, then t0
    balanced = pivot[:, n_a] | last[:, :n_a].any(axis=1)
    # a balanced slice gives t0 "0 more"; every sum is at most B p^(n_a+n_b),
    # the domain size, so int64 is exact
    N = n_a + n_b
    more = np.array([p ** (N - r) for r in range(n_b + 1)])[pivot.sum(axis=1)]
    more[balanced] = 0
    counts = np.zeros(p, dtype=np.int64)
    np.add.at(counts, last[:, n_a], more)
    counts += (B * p ** N - int(more.sum())) // p
    return ValueHistogram(p, tuple(counts.tolist()), B * p ** N)


def level_set_count(f: Map, value) -> int:
    """|{x : f(x) = value}| for a map f into F_p^m, counted from the slice
    histograms H_s of the scalar maps s.f (`_slice_histogram`), s in F_p^m;
    no point of the domain is enumerated.

    Summing chi(s.(f(x) - v)) over x and s gives p^m times the count, and
    equals sum_u A_u w^u with A_u = sum_s H_s(u + s.v), w = e^(2 pi i/p);
    H_0 is |G| at 0.  Since H_(c s)(t) = H_s(t / c), one histogram per line
    through 0 (s with first nonzero entry 1) gives all p^m: the line adds
    (p - 1) H_s(s.v) to A_0 and |G| - H_s(s.v) to every other A_u, so
    A_1 = ... = A_(p-1) and the count is
    (A_0 - A_1) / p^m = (|G| + sum over lines of (p H_s(s.v) - |G|)) / p^m.
    That p^m divides it and the count lies in [0, |G|] are checked.  The
    guard is on the p^m character sums, and each histogram keeps its
    slice-stack guard."""
    shape = f.shape
    p, m, total = shape.p, f.m, shape.domain_size
    v = [int(t) % p for t in value]
    if len(v) != m:
        raise ValueError(f"level value must have length {m}")
    Shape.guard(p ** m, "level set characters")
    diff = total  # A_0 - A_1
    for lead in range(m):
        for rest in range(p ** (m - 1 - lead)):
            s = (0,) * lead + (1,) + code_to_vec(p, m - 1 - lead, rest)
            counts = _slice_histogram(compose_output(f, np.array(s)[:, None])).counts
            diff += p * counts[sum(a * b for a, b in zip(s, v)) % p] - total
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
    """`bias_report(f).bias_exact`, without the character table of F_p."""
    hist = _slice_histogram(f)
    if not isinstance(f, MultilinearMap):
        raise ValueError("exact bias is defined for multilinear forms only")
    return _exact_counts(f, hist)[0]


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
    fam = {frozenset(I): table for I in _all_subsets(k)}
    inner = _box_average(shape, fam)
    if abs(inner.imag) > CHI_TOL or inner.real < -CHI_TOL:
        raise LemmaViolationError(f"box-norm inner average {inner} is not real non-negative")
    return max(inner.real, 0.0) ** (1.0 / (1 << k))


def _all_subsets(k: int):
    out = [[]]
    for i in range(1, k + 1):
        out += [s + [i] for s in out]
    return [tuple(s) for s in out]


@dataclass(frozen=True)
class GcsReport:
    lhs: float
    rhs: float
    ok: bool


def gcs_check(shape: Shape, tables: dict) -> GcsReport:
    """|E prod_I Conj^|I| f_I| <= prod_I box_norm(f_I) for a full family of tables."""
    k = shape.k
    fam = {}
    for I in _all_subsets(k):
        key = frozenset(I)
        if key not in {frozenset(J) for J in tables}:
            raise ValueError(f"missing table for subset {sorted(I)}")
    for J, tab in tables.items():
        fam[frozenset(J)] = tab
    lhs = abs(_box_average(shape, fam))
    rhs = 1.0
    for J, tab in fam.items():
        rhs *= box_norm(shape, tab)
    return GcsReport(lhs, rhs, lhs <= rhs + CHI_TOL)


def chi_table(f: Map) -> np.ndarray:
    """The complex grid chi(f(x)) of a scalar map."""
    values = scalar_table(f)  # guards the domain, so p too, before the O(p) character table
    return PrimeField(f.shape.p).char_table[values]
