"""Exact bias, analytic rank, value histograms, box norms, and the related checks.

Policy: every count is an exact integer and every bias of a multilinear form
is an exact rational derived from those counts.  Floating point enters only
when a histogram is weighted by character values, so a tolerance (1e-9) is
needed only there.
"""

from __future__ import annotations

import math
import os
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import LemmaViolationError
from .field import PrimeField
from .forms import (
    DEFAULT_ENUM_GUARD,
    Map,
    MultiaffineMap,
    MultilinearMap,
    Shape,
    digit_matrix,
    scalar_table,
)

CHI_TOL = 1e-9
BOX_GUARD = 1 << 13  # |G| cap for the 2k-fold box-norm average

_PARALLEL_MIN = 1 << 18  # partition histogram enumeration above this many points


def worker_count() -> int:
    """Worker count for partitioned enumeration, RANKFORGE_THREADS overrides."""
    env = os.environ.get("RANKFORGE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def plain_log(p: int, x: float) -> float:
    """log base p (the reporting convention used everywhere in this package)."""
    return math.log(x) / math.log(p)


def shifted_log(p: int, x: float) -> float:
    """The shifted convention log_p(p*x) = 1 + log_p(x); exposed for reference only."""
    return 1.0 + plain_log(p, x)


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


def value_histogram(
    f: Map,
    restriction: np.ndarray | None = None,
    max_points: int = DEFAULT_ENUM_GUARD,
) -> ValueHistogram:
    """Exact histogram of a scalar map by full enumeration.

    `restriction` is an optional boolean membership grid; only points inside
    it are counted.  On domains of at least `_PARALLEL_MIN` points the x_1
    codes are split into row blocks, counted on `worker_count()` threads
    (RANKFORGE_THREADS); the blocks' integer counts are summed, so the result
    does not depend on the thread count.
    """
    if f.m != 1:
        raise ValueError("value_histogram needs a scalar-valued map")
    shape = f.shape
    shape.guard(shape.domain_size, max_points, "histogram enumeration")
    if restriction is not None and restriction.shape != shape.sizes:
        raise ValueError("restriction grid does not match the domain")
    lead = shape.sizes[0]
    blocks = min(worker_count(), lead) if shape.domain_size >= _PARALLEL_MIN else 1
    bounds = np.linspace(0, lead, blocks + 1, dtype=int)

    def count(b: int) -> np.ndarray:
        rows = slice(bounds[b], bounds[b + 1])
        vals = scalar_table(f, max_points, rows)
        if restriction is not None:
            vals = vals[restriction[rows]]
        return np.bincount(vals.reshape(-1), minlength=shape.p)

    if blocks == 1:
        counts = count(0)
    else:
        with ThreadPoolExecutor(max_workers=blocks) as pool:
            counts = sum(pool.map(count, range(blocks)))
    total = shape.domain_size if restriction is None else int(restriction.sum())
    return ValueHistogram(shape.p, tuple(int(c) for c in counts), total)


@dataclass(frozen=True)
class BiasReport:
    histogram: ValueHistogram
    bias: complex
    bias_exact: Fraction | None  # rational bias; None for genuinely complex bias
    arank: float | None
    vanishing_count: int | None  # |{A = 0}| for the curried map, multilinear input only


def bias_report(f: Map, max_points: int = DEFAULT_ENUM_GUARD) -> BiasReport:
    """Bias of a scalar map: exact and with its analytic rank for a multilinear
    form (`_rank_count_report`), the histogram-weighted character average
    otherwise."""
    if isinstance(f, MultilinearMap):
        return _rank_count_report(f, max_points)
    # multiaffine: report the complex bias; arank is declined
    hist = value_histogram(f, max_points=max_points)
    return BiasReport(hist, hist.chi_average(), None, None, None)


def _slice_stack(f: MultilinearMap, max_points: int) -> np.ndarray:
    """The matrices M(x) of the bilinear forms left by fixing all coordinates of a
    k-linear form (k >= 2) but its two largest ones, a < b: a (p^S, n_a, n_b)
    stack, where S sums the other dimensions.  The guard is on the stack's
    p^S * n_a * n_b entries."""
    shape = f.shape
    p, dims = shape.p, shape.dims
    a, b = sorted(sorted(range(shape.k), key=lambda i: dims[i])[-2:])
    others = [i for i in range(shape.k) if i not in (a, b)]
    shape.guard(p ** sum(dims[i] for i in others) * dims[a] * dims[b], max_points, "slice stack")
    T = f.coeffs[..., 0].transpose(others + [a, b]).reshape(1, -1)
    for i in others:
        # contract the leading remaining coordinate with every point of G_i;
        # sums of n_i products below p^2 fit int64 for any admitted Shape
        T = np.matmul(digit_matrix(p, dims[i]), T.reshape(T.shape[0], dims[i], -1)) % p
        T = T.reshape(-1, T.shape[-1])
    return T.reshape(-1, dims[a], dims[b])


def _rank_count_report(f: MultilinearMap, max_points: int) -> BiasReport:
    """Exact bias, analytic rank, vanishing count and value histogram of a
    multilinear form, from the ranks of its slice stack.

    A bilinear form y^T M z has bias p^(-rank M), so E chi(f) = E_x p^(-rank M(x))
    over the slice stack (Lovett 2019).  With P = p^(n_1 + ... + n_(k-1)) points
    x_[k-1], the curried map x_[k-1] -> G_k vanishes V = bias * P times, and
    f(x) = <A(x_[k-1]), x_k> is 0 on p^n_k points of G_k where A vanishes and on
    p^(n_k - 1) elsewhere, so the histogram is
    N_0 = V p^n_k + (P - V) p^(n_k - 1), every nonzero value (P - V) p^(n_k - 1).
    All are integers; no point of the domain is enumerated.  The guard is
    the slice stack's (see `_slice_stack`), and a histogram of p counts.
    """
    if f.m != 1:
        raise ValueError("a bias needs a scalar-valued map")
    shape = f.shape
    p, dims = shape.p, shape.dims
    shape.guard(p, max_points, "value histogram")
    n_k = dims[-1]
    P = p ** (sum(dims) - n_k)
    if shape.k == 1:
        vanish = 0 if f.coeffs.any() else 1  # the curried map is the coefficient vector
    else:
        stack = _slice_stack(f, max_points)
        n_a, n_b = stack.shape[1:]
        counts = np.bincount(linalg.rank_many(stack, p), minlength=min(n_a, n_b) + 1)
        # E_x p^(-rank) * P: exponents are >= 0 since n_a, n_b are the two largest dims
        vanish = sum(int(c) * p ** (n_a + n_b - n_k - r) for r, c in enumerate(counts))
    nonzero = (P - vanish) * p ** (n_k - 1)
    total = p ** sum(dims)
    hist = ValueHistogram(p, (total - (p - 1) * nonzero,) + (nonzero,) * (p - 1), total)
    exact = Fraction(vanish, P)
    # a nonzero linear form has bias 0: its character sum cancels exactly
    ar = math.inf if exact == 0 else plain_log(p, exact.denominator) - plain_log(p, exact.numerator)
    return BiasReport(hist, hist.chi_average(), exact, ar, vanish)


def bias(f: Map, max_points: int = DEFAULT_ENUM_GUARD) -> complex:
    return bias_report(f, max_points).bias


def arank(f: MultilinearMap, max_points: int = DEFAULT_ENUM_GUARD) -> float:
    rep = bias_report(f, max_points)
    if rep.arank is None:
        raise ValueError("analytic rank is defined for multilinear forms only")
    return rep.arank


def exact_bias(f: MultilinearMap, max_points: int = DEFAULT_ENUM_GUARD) -> Fraction:
    rep = bias_report(f, max_points)
    if rep.bias_exact is None:
        raise ValueError("exact bias is defined for multilinear forms only")
    return rep.bias_exact


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


def bias_homog_check(f: MultiaffineMap, max_points: int = DEFAULT_ENUM_GUARD) -> BiasHomogReport:
    """|E chi(f)| <= E chi(top multilinear part), the latter a real rational."""
    if f.m != 1:
        raise ValueError("bias_homog_check needs a scalar-valued map")
    shape = f.shape
    full = frozenset(range(1, shape.k + 1))
    top_coeffs = f.parts.get(full)
    if top_coeffs is None:
        top_coeffs = np.zeros(shape.dims + (1,), dtype=np.int64)
    top = MultilinearMap(shape, 1, top_coeffs)
    lhs = abs(bias(f, max_points))
    rhs = exact_bias(top, max_points)
    return BiasHomogReport(lhs, rhs, lhs <= float(rhs) + CHI_TOL)


# ---------------------------------------------------------------------------
#  Gowers box norm and the Gowers-Cauchy-Schwarz check
# ---------------------------------------------------------------------------

def _box_average(shape: Shape, tables: dict) -> complex:
    """E_{x,y} prod_I Conj^|I| f_I(x_I, y_{[k] minus I}) for complex grids f_I."""
    k = shape.k
    shape.guard(shape.domain_size ** 2 * (1 << k), BOX_GUARD ** 2 * (1 << k), "box average")
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


def chi_table(f: Map, max_points: int = DEFAULT_ENUM_GUARD) -> np.ndarray:
    """The complex grid chi(f(x)) of a scalar map."""
    field = PrimeField(f.shape.p)
    return field.char_table[scalar_table(f, max_points)]
