"""Directional convolutions, iterated chains, recursive arrangement counting,
and the exact Cauchy-Schwarz chain of averages.

Indicator inputs stay exact: a table is stored as an integer numerator grid
with one common denominator, and convolving multiplies the denominator by
|G_i| times itself.  Complex tables take the floating path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LemmaViolationError
from .field import PrimeField
from .forms import (
    Map,
    Shape,
    addition_table,
    scalar_table,
    zero_set_table,
)

CONV_GUARD = 1 << 24       # |G| * |G_i| work guard per convolution
DEN_GUARD = 1 << 62        # exact denominators must stay below this


@dataclass(frozen=True)
class DomainTable:
    """A complex- or rational-valued table on the full domain G_[k]."""

    shape: Shape
    num: np.ndarray | None = None    # int64 numerators when exact
    den: int | None = None
    cvals: np.ndarray | None = None  # complex values otherwise

    def __post_init__(self):
        if (self.num is None) == (self.cvals is None):
            raise ValueError("exactly one of num and cvals must be given")
        if self.num is not None:
            if self.den is None or self.den <= 0:
                raise ValueError("exact tables need a positive denominator")
            if self.num.shape != self.shape.sizes:
                raise ValueError("numerator grid does not match the domain")
        elif self.cvals.shape != self.shape.sizes:
            raise ValueError("value grid does not match the domain")

    @property
    def exact(self) -> bool:
        return self.num is not None

    def value_at(self, codes) -> Fraction | complex:
        if self.exact:
            return Fraction(int(self.num[tuple(codes)]), self.den)
        return complex(self.cvals[tuple(codes)])

    def mean(self) -> Fraction | complex:
        if self.exact:
            return Fraction(int(self.num.sum()), self.den * self.shape.domain_size)
        return complex(self.cvals.mean())

    def to_complex(self) -> np.ndarray:
        if self.exact:
            return self.num.astype(np.complex128) / self.den
        return self.cvals

    def histogram(self) -> dict:
        """Exact value counts (rational tables only)."""
        if not self.exact:
            raise ValueError("histogram needs an exact table")
        vals, counts = np.unique(self.num.reshape(-1), return_counts=True)
        return {Fraction(int(v), self.den): int(c) for v, c in zip(vals, counts)}


def indicator_table(shape: Shape, member: np.ndarray) -> DomainTable:
    if member.shape != shape.sizes:
        raise ValueError("membership grid does not match the domain")
    return DomainTable(shape, num=member.astype(np.int64), den=1)


def zero_set_indicator(f: Map) -> DomainTable:
    member = zero_set_table(f)
    return DomainTable(f.shape, num=member.astype(np.int64), den=1)


def conv_dir(t: DomainTable, i: int) -> DomainTable:
    """Convolution in direction i: averages f(.., y + x_i, ..) conj f(.., y, ..) over y."""
    shape = t.shape
    if not 1 <= i <= shape.k:
        raise ValueError(f"direction {i} out of range for k={shape.k}")
    size = shape.sizes[i - 1]
    Shape.guard(shape.domain_size * size, "directional convolution", CONV_GUARD, "convolutions.CONV_GUARD")
    add = addition_table(shape.p, shape.dims[i - 1])
    ax = i - 1
    if t.exact:
        new_den = t.den * t.den * size
        if new_den > DEN_GUARD:
            raise OverflowError("exact denominator exceeds the 64-bit guard")
        shifted = np.take(t.num, add, axis=ax)       # axes (..., a, b, ...)
        second = np.expand_dims(t.num, axis=ax)      # broadcast over a
        num = (shifted * second).sum(axis=ax + 1)
        return DomainTable(shape, num=num, den=new_den)
    shifted = np.take(t.cvals, add, axis=ax)
    second = np.conj(np.expand_dims(t.cvals, axis=ax))
    cvals = (shifted * second).mean(axis=ax + 1)
    return DomainTable(shape, cvals=cvals)


def conv_chain(t: DomainTable, directions) -> DomainTable:
    """Iterated convolution; directions are applied first-to-last, so the
    result of [1, 2, 3] is the direction-3 convolution of the direction-2
    convolution of the direction-1 convolution."""
    out = t
    for i in directions:
        out = conv_dir(out, int(i))
    return out


# ---------------------------------------------------------------------------
#  Arrangements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrangement:
    """2^level points produced by iterated directional differencing."""

    level: int
    lengths: tuple          # per-coordinate codes
    points: tuple           # tuple of per-coordinate code tuples, length 2^level


def _volume(shape: Shape, i: int) -> int:
    """Number of arrangements of any fixed lengths: |G_1|^(2^(i-1)) ... |G_i|."""
    out = 1
    for t in range(1, i + 1):
        out *= shape.sizes[t - 1] ** (1 << (i - t))
    return out


def arrangement_count_tables(shape: Shape, member: np.ndarray, i: int) -> list[np.ndarray]:
    """Tables N_lvl for lvl = 0..i, where N_lvl[l] counts level-lvl
    arrangements of lengths l whose points all lie in the member set.

    This is the direct recursive count: a level-lvl arrangement is a pair of
    level-(lvl-1) arrangements with lengths shifted in coordinate lvl.
    """
    if not 0 <= i <= shape.k:
        raise ValueError(f"level {i} out of range for k={shape.k}")
    if member.shape != shape.sizes:
        raise ValueError("membership grid does not match the domain")
    if _volume(shape, i) > DEN_GUARD:
        raise OverflowError("arrangement counts exceed the 64-bit guard")
    tables = [member.astype(np.int64)]
    for lvl in range(1, i + 1):
        prev = tables[-1]
        ax = lvl - 1
        add = addition_table(shape.p, shape.dims[ax])
        shifted = np.take(prev, add, axis=ax)
        second = np.expand_dims(prev, axis=ax)
        tables.append((shifted * second).sum(axis=ax + 1))
    return tables


def count_arrangements(shape: Shape, member: np.ndarray, i: int, lengths) -> int:
    """Number of level-i arrangements of the given lengths inside the set."""
    return int(arrangement_count_tables(shape, member, i)[i][tuple(lengths)])


@dataclass(frozen=True)
class ArrangementIdentityReport:
    direct_count: int
    conv_value: Fraction
    volume: int
    ok: bool


def arrangement_identity_check(
    shape: Shape, member: np.ndarray, i: int, lengths
) -> ArrangementIdentityReport:
    """Direct recursive count == Conv_i ... Conv_1 S(l) * |G_1|^(2^(i-1)) ... |G_i|."""
    direct = count_arrangements(shape, member, i, lengths)
    chain = conv_chain(indicator_table(shape, member), range(1, i + 1))
    cv = chain.value_at(lengths)
    vol = _volume(shape, i)
    ok = Fraction(direct) == cv * vol
    if not ok:
        raise LemmaViolationError(
            f"arrangement count {direct} != convolution value {cv} * volume {vol}"
        )
    return ArrangementIdentityReport(direct, cv, vol, ok)


def enumerate_arrangements(shape: Shape, i: int, lengths):
    """Lazy enumeration of all level-i arrangements of the given lengths.

    Yields tuples of 2^i points (per-coordinate code tuples); the recursion
    iterates over the choice y per level, never materializing the whole
    family.
    """
    lengths = tuple(int(c) for c in lengths)

    def rec(lvl, l):
        if lvl == 0:
            yield (l,)
            return
        ax = lvl - 1
        add = addition_table(shape.p, shape.dims[ax])
        for y in range(shape.sizes[ax]):
            l1 = l[:ax] + (int(add[l[ax], y]),) + l[ax + 1 :]
            l2 = l[:ax] + (y,) + l[ax + 1 :]
            for q1 in rec(lvl - 1, l1):
                for q2 in rec(lvl - 1, l2):
                    yield q1 + q2

    yield from rec(i, lengths)


def sample_arrangement_in_set(
    shape: Shape, member: np.ndarray, i: int, lengths, rng
) -> Arrangement | None:
    """Uniform arrangement of the given lengths with all points in the set,
    sampled by descending the exact count tables; None if none exists."""
    tables = arrangement_count_tables(shape, member, i)
    lengths = tuple(int(c) for c in lengths)
    if tables[i][lengths] == 0:
        return None

    def rec(lvl, l):
        if lvl == 0:
            return (l,)
        ax = lvl - 1
        add = addition_table(shape.p, shape.dims[ax])
        prev = tables[lvl - 1]
        weights = []
        for y in range(shape.sizes[ax]):
            l1 = l[:ax] + (int(add[l[ax], y]),) + l[ax + 1 :]
            l2 = l[:ax] + (y,) + l[ax + 1 :]
            weights.append(int(prev[l1]) * int(prev[l2]))
        total = sum(weights)
        pick = int(rng.integers(0, total))
        y = 0
        while pick >= weights[y]:
            pick -= weights[y]
            y += 1
        l1 = l[:ax] + (int(add[l[ax], y]),) + l[ax + 1 :]
        l2 = l[:ax] + (y,) + l[ax + 1 :]
        return rec(lvl - 1, l1) + rec(lvl - 1, l2)

    return Arrangement(i, lengths, rec(i, lengths))


def position_count(shape: Shape, i: int, j: int, lengths, x) -> int:
    """Number of level-i arrangements of the given lengths whose j-th point
    (1-based) equals x, by direct recursion."""
    if not 1 <= j <= (1 << i):
        raise ValueError("position out of range")
    lengths = tuple(int(c) for c in lengths)
    x = tuple(int(c) for c in x)

    def rec(lvl, l, pos):
        if lvl == 0:
            return 1 if l == x else 0
        ax = lvl - 1
        add = addition_table(shape.p, shape.dims[ax])
        half = 1 << (lvl - 1)
        total = 0
        vol = _volume(shape, lvl - 1)
        for y in range(shape.sizes[ax]):
            l1 = l[:ax] + (int(add[l[ax], y]),) + l[ax + 1 :]
            l2 = l[:ax] + (y,) + l[ax + 1 :]
            if pos <= half:
                total += rec(lvl - 1, l1, pos) * vol
            else:
                total += vol * rec(lvl - 1, l2, pos - half)
        return total

    return rec(i, lengths, j)


@dataclass(frozen=True)
class PositionCountReport:
    count: int
    expected: int
    ok: bool


def position_count_check(shape: Shape, i: int, j: int, lengths, x) -> PositionCountReport:
    """Direct position count against the closed form: the product
    |G_1|^(2^(i-1)-1) ... |G_i|^(2^0-1) when the trailing coordinates agree,
    zero otherwise."""
    lengths = tuple(int(c) for c in lengths)
    x = tuple(int(c) for c in x)
    count = position_count(shape, i, j, lengths, x)
    if lengths[i:] == x[i:]:
        expected = 1
        for t in range(1, i + 1):
            expected *= shape.sizes[t - 1] ** ((1 << (i - t)) - 1)
    else:
        expected = 0
    ok = count == expected
    if not ok:
        raise LemmaViolationError(f"position count {count} != expected {expected}")
    return PositionCountReport(count, expected, ok)


@dataclass(frozen=True)
class VanishingPropagationReport:
    premise: bool
    conclusion: bool
    ok: bool


def vanishing_propagation_check(A: Map, arr: Arrangement) -> VanishingPropagationReport:
    """If every point of the arrangement lies in {A = 0}, then A vanishes at
    the lengths tuple (linearity in each convolved coordinate)."""
    from .forms import codes_to_point

    shape = A.shape
    premise = all(
        not A.evaluate(codes_to_point(shape, pt)).any() for pt in arr.points
    )
    conclusion = not A.evaluate(codes_to_point(shape, arr.lengths)).any()
    ok = (not premise) or conclusion
    if not ok:
        raise LemmaViolationError("arrangement inside {A=0} but A(lengths) != 0")
    return VanishingPropagationReport(premise, conclusion, ok)


# ---------------------------------------------------------------------------
#  The Cauchy-Schwarz chain of averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsChainReport:
    density: Fraction
    chain_means: tuple          # E chain_j for j = 0..k
    final: Fraction
    lower: Fraction             # density^(2^k)
    ok: bool


def cs_chain_check(shape: Shape, member: np.ndarray) -> CsChainReport:
    """E Conv_j..Conv_1 Z >= (E Conv_{j-1}..Conv_1 Z)^2 for every j, hence the
    full chain mean is at least density(Z)^(2^k); all comparisons exact."""
    k = shape.k
    t = indicator_table(shape, member)
    means = [t.mean()]
    for j in range(1, k + 1):
        t = conv_dir(t, j)
        means.append(t.mean())
    ok = True
    for j in range(1, k + 1):
        if means[j] < means[j - 1] ** 2:
            ok = False
            raise LemmaViolationError(
                f"chain mean dropped below the square at step {j}: {means[j]} < {means[j-1]}**2"
            )
    dens = means[0]
    lower = dens ** (1 << k)
    if means[k] < lower:
        raise LemmaViolationError("final chain mean fell below density^(2^k)")
    return CsChainReport(dens, tuple(means), means[k], lower, ok)


def find_heavy_point(shape: Shape, member: np.ndarray) -> tuple[tuple, Fraction]:
    """Lexicographically least maximizer of the full convolution chain, with
    its exact value; the chain mean bound guarantees the value is at least
    density^(2^k) for a nonempty set."""
    t = conv_chain(indicator_table(shape, member), range(1, shape.k + 1))
    flat = t.num.reshape(-1)
    best = int(flat.max())
    idx = int(np.argmax(flat == best))
    codes = np.unravel_index(idx, shape.sizes)
    return tuple(int(c) for c in codes), Fraction(best, t.den)


# ---------------------------------------------------------------------------
#  Validator for approximation data of a convolution chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvApproxReport:
    max_error: float
    exceptional_density: Fraction
    coeff_mass: float
    ok: bool


def conv_approximation_check(
    Z: DomainTable,
    directions,
    coefficients,
    rhos,
    exceptional_layers,
    epsilon: float,
    conv_direction_of_exceptional: int | None = None,
) -> ConvApproxReport:
    """Validate candidate approximation data for a convolution chain: the
    approximation sum_i c_i chi(rho_i(x)) must track the chain within epsilon
    outside (union of exceptional layers) x G_l, the exceptional union must
    have density at most epsilon, and the coefficient mass at most 1.

    No constructor for such data is provided; this checks supplied data only.
    """
    shape = Z.shape
    Shape.guard(shape.domain_size, "approximation check")
    directions = [int(d) for d in directions]
    if conv_direction_of_exceptional is None and not directions:
        raise ValueError("an exceptional direction is required when no convolution is applied")
    l = conv_direction_of_exceptional if conv_direction_of_exceptional is not None else directions[-1]
    chain = conv_chain(Z, directions).to_complex()
    approx = np.zeros(shape.sizes, dtype=np.complex128)
    field = PrimeField(shape.p)  # p is at most the guarded domain size
    for c, rho in zip(coefficients, rhos):
        approx += complex(c) * field.char_table[scalar_table(rho)]
    coeff_mass = float(sum(abs(complex(c)) for c in coefficients))

    excl_union = exceptional_layers.union_table()
    # lift the union (on G_{[k] minus l}) to the full domain along coordinate l
    lifted = np.expand_dims(excl_union, axis=l - 1)
    lifted = np.broadcast_to(lifted, shape.sizes)
    good = ~lifted
    err = np.abs(chain - approx)
    max_err = float(err[good].max()) if good.any() else 0.0
    exc_density = Fraction(int(excl_union.sum()), excl_union.size)
    ok = (
        max_err <= float(epsilon) + 1e-9
        and float(exc_density) <= float(epsilon) + 1e-12
        and coeff_mass <= 1 + 1e-9
    )
    return ConvApproxReport(max_err, exc_density, coeff_mass, ok)
