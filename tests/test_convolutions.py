import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankforge import convolutions
from rankforge.convolutions import (
    Arrangement,
    DomainTable,
    arrangement_count_tables,
    arrangement_identity_check,
    conv_chain,
    conv_dir,
    conv_approximation_check,
    count_arrangements,
    cs_chain_check,
    enumerate_arrangements,
    find_heavy_point,
    indicator_table,
    position_count,
    position_count_check,
    sample_arrangement_in_set,
    vanishing_propagation_check,
    zero_set_indicator,
)
from rankforge.errors import DomainSizeError, LemmaViolationError
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    addition_table,
    random_multilinear,
    value_table,
)
from rankforge.varieties import LayerFamily


def form(p, dims, coeffs):
    sh = Shape(p, tuple(dims))
    return MultilinearMap(sh, 1, np.asarray(coeffs, dtype=np.int64).reshape(sh.dims + (1,)))


def brute_arrangements(shape, i, lengths):
    """Independent enumeration: unfold the recursion into explicit y-choices."""

    def rec(lvl, l):
        if lvl == 0:
            return [(tuple(l),)]
        out = []
        p, n = shape.p, shape.dims[lvl - 1]
        add = addition_table(p, n)
        for y in range(shape.sizes[lvl - 1]):
            l1 = list(l)
            l1[lvl - 1] = int(add[l[lvl - 1], y])
            l2 = list(l)
            l2[lvl - 1] = y
            for q1 in rec(lvl - 1, l1):
                for q2 in rec(lvl - 1, l2):
                    out.append(q1 + q2)
        return out

    return rec(i, list(lengths))


def gather_conv(t, i):
    """Oracle for exact conv_dir: sum_b num(a + b) num(b) gathered through the
    addition table in Python integers, over the denominator den^2 |G_i|."""
    sh, ax = t.shape, i - 1
    num = t.num.astype(object)
    shifted = np.take(num, addition_table(sh.p, sh.dims[ax]), axis=ax)
    out = (shifted * np.expand_dims(num, axis=ax)).sum(axis=ax + 1)
    return out, t.den * t.den * sh.sizes[ax]


def random_p2_table(rng, signed):
    k = int(rng.integers(1, 5))
    sh = Shape(2, tuple(int(rng.integers(1, 5)) for _ in range(k)))
    while sh.domain_size > 1 << 10:
        sh = Shape(2, sh.dims[:-1])
    if signed:
        num = rng.integers(-9, 10, sh.sizes)
    else:
        num = (rng.random(sh.sizes) < rng.uniform(0.1, 0.9)).astype(np.int64)
    return DomainTable(sh, num=num.astype(np.int64), den=1)


def test_exact_conv_matches_gather_oracle():
    # every direction of random p = 2 tables, and chains that repeat directions
    checked = 0
    for seed in range(120):
        rng = np.random.default_rng([73, seed])
        t = random_p2_table(rng, signed=seed % 2)
        dirs = list(range(1, t.shape.k + 1)) + [int(d) for d in rng.integers(1, t.shape.k + 1, 3)]
        for i in dirs:
            want, den = gather_conv(t, i)
            M = max(abs(int(v)) for v in t.num.flat)
            try:
                t = conv_dir(t, i)
            except OverflowError:
                # refused only past a 64-bit bound of the denominator or the sums
                assert den > 1 << 62 or t.shape.sizes[i - 1] * M * M >= 1 << 63
                break
            assert t.den == den and t.num.dtype == np.int64
            assert t.num.tolist() == want.tolist()
            checked += 1
    assert checked > 400


def test_conv_past_the_transform_bound_takes_the_gather():
    # the full set of (2,(2,2,2,2,2)): step 5 has M = den = 2^30 and |G_5| = 4,
    # so 4^2 M^2 = 2^64 is past the int64 bound of the transform
    sh = Shape(2, (2, 2, 2, 2, 2))
    t = indicator_table(sh, np.ones(sh.sizes, dtype=bool))
    for i in range(1, 6):
        want, den = gather_conv(t, i)
        t = conv_dir(t, i)
        assert t.den == den and t.num.tolist() == want.tolist()
        assert (t.num == t.den).all()
    assert t.den == 1 << 62
    assert t.mean() == 1          # the int64 sum of 1024 * 2^62 wraps
    rep = cs_chain_check(sh, np.ones(sh.sizes, dtype=bool))
    assert rep.chain_means == (1,) * 6 and rep.final == rep.lower == 1


def test_conv_int64_bounds():
    sh = Shape(2, (1,))
    # the transform bound 4 M^2 < 2^63 holds at M = 2^30
    out = conv_dir(DomainTable(sh, num=np.array([1 << 30, 3]), den=1), 1)
    assert out.num.tolist() == [(1 << 60) + 9, 6 << 30] and out.den == 2
    # 4 M^2 >= 2^63 > 2 M^2 at M = 3 * 2^29: the gather is still exact
    m = 3 << 29
    out = conv_dir(DomainTable(sh, num=np.array([m, 1]), den=1), 1)
    assert out.num.tolist() == [m * m + 1, 2 * m]
    # 2 M^2 >= 2^63: the gather would wrap, so the sum is refused
    with pytest.raises(OverflowError):
        conv_dir(DomainTable(sh, num=np.array([1 << 40, 3]), den=1), 1)
    with pytest.raises(OverflowError):
        conv_dir(DomainTable(Shape(3, (1,)), num=np.array([1 << 31, 0, 0]), den=1), 1)
    # |-2^63| is read as 2^63, where np.abs would wrap to -2^63
    with pytest.raises(OverflowError):
        conv_dir(DomainTable(sh, num=np.array([-(1 << 63), 0]), den=1), 1)


def _autocorrelate_oracle(num, axis, p, n):
    """R[.., a, ..] = sum_b num[.., a + b, ..] num[.., b, ..] by a double loop
    over codes a, b, added digit by digit in Python integers."""
    def add(a, b):
        return sum((((a // p ** j) + (b // p ** j)) % p) * p ** j for j in range(n))

    src = np.moveaxis(num.astype(object), axis, 0)
    out = np.zeros_like(src)
    for a in range(p ** n):
        for b in range(p ** n):
            out[a] += src[add(a, b)] * src[b]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("p, n, lead, trail", [(3, 1, (4,), ()), (3, 2, (2,), (3,)), (5, 1, (), (2, 2)),
                                               (2, 1, (3,), ()), (2, 3, (2,), (2,)), (2, 2, (), ())])
def test_autocorrelate_matches_double_loop(monkeypatch, p, n, lead, trail):
    # p > 2 gathers through the addition table, p = 2 takes the Hadamard route
    transforms = []
    real = convolutions._hadamard
    monkeypatch.setattr(convolutions, "_hadamard", lambda *a: (transforms.append(a[2]), real(*a)))
    rng = np.random.default_rng([79, p, n])
    for signed in (False, True):
        num = rng.integers(-50 if signed else 0, 51, lead + (p ** n,) + trail)
        out = convolutions.autocorrelate(num, len(lead), p, n)
        assert out.dtype == np.int64 and out.shape == num.shape
        assert out.tolist() == _autocorrelate_oracle(num, len(lead), p, n).tolist()
    assert len(transforms) == (4 if p == 2 else 0)


def test_autocorrelate_int64_bound():
    # the gather is exact while p^n M^2 < 2^63 and refused from there on
    for p, n in [(3, 1), (5, 1), (3, 2), (2, 1)]:
        size = p ** n
        M = math.isqrt(((1 << 63) - 1) // size)
        num = np.zeros(size, dtype=np.int64)
        num[0] = num[-1] = M
        assert convolutions.autocorrelate(num, 0, p, n).tolist() == _autocorrelate_oracle(num, 0, p, n).tolist()
        num[-1] = M + 1
        with pytest.raises(OverflowError):
            convolutions.autocorrelate(num, 0, p, n)


def test_conv_checks_the_hadamard_divisibility(monkeypatch):
    # no input reaches the check, so the second transform is skewed by one
    real = convolutions._hadamard
    calls = []

    def skewed(h, spare, axis, n):
        real(h, spare, axis, n)
        calls.append(axis)
        if len(calls) == 2:
            h.flat[0] += 1

    monkeypatch.setattr(convolutions, "_hadamard", skewed)
    sh = Shape(2, (2, 1))
    with pytest.raises(LemmaViolationError, match="not divisible by 4"):
        conv_dir(indicator_table(sh, np.ones(sh.sizes, dtype=bool)), 1)


def test_conv_constant_one():
    sh = Shape(2, (1, 1))
    ones = indicator_table(sh, np.ones(sh.sizes, dtype=bool))
    out = conv_dir(ones, 1)
    assert out.mean() == 1
    assert all(out.value_at(c) == 1 for c in product(range(2), repeat=2))


def test_conv_singleton_k1():
    # Z = {0} in F_2: Conv_1 Z(0) = 1/2, Conv_1 Z(1) = 0
    sh = Shape(2, (1,))
    member = np.array([True, False])
    out = conv_dir(indicator_table(sh, member), 1)
    assert out.value_at((0,)) == Fraction(1, 2)
    assert out.value_at((1,)) == 0


def test_conv_zero_set_of_xy():
    # Z = {xy = 0} over F_2: table of Conv_1 Z computed by enumeration
    xy = form(2, (1, 1), [1])
    Z = zero_set_indicator(xy)
    out = conv_dir(Z, 1)
    assert out.value_at((0, 0)) == 1
    assert out.value_at((1, 0)) == 1
    assert out.value_at((0, 1)) == Fraction(1, 2)
    assert out.value_at((1, 1)) == 0


def test_conv_nonnegative_at_zero_offset():
    # at x_i = 0 the convolution is an average of squares
    rng = np.random.default_rng(3)
    sh = Shape(3, (1, 1))
    table = indicator_table(sh, rng.random(sh.sizes) < 0.5)
    out = conv_dir(table, 1)
    for c2 in range(3):
        assert out.value_at((0, c2)) >= 0


def test_conv_empty_and_full_chain():
    sh = Shape(2, (1, 1))
    empty = indicator_table(sh, np.zeros(sh.sizes, dtype=bool))
    out = conv_chain(empty, [1, 2])
    assert out.mean() == 0
    full = indicator_table(sh, np.ones(sh.sizes, dtype=bool))
    out = conv_chain(full, [1, 2])
    assert out.mean() == 1


def test_conv_complex_matches_exact():
    rng = np.random.default_rng(11)
    sh = Shape(2, (2, 1))
    member = rng.random(sh.sizes) < 0.6
    exact = conv_chain(indicator_table(sh, member), [1, 2])
    from rankforge.convolutions import DomainTable

    cplx = conv_chain(DomainTable(sh, cvals=member.astype(np.complex128)), [1, 2])
    assert np.allclose(exact.to_complex(), cplx.cvals)


# 12 shares factors with most numerators, 2^61 - 1 is prime, 2^62 is the largest
# denominator conv_dir makes, and 3^40 does not fit int64
@pytest.mark.parametrize("den", [1, 12, 2 ** 61 - 1, 1 << 62, 3 ** 40])
def test_value_counts_match_fraction_oracle(den):
    sh = Shape(3, (2, 1))
    rng = np.random.default_rng([79, den % 1009])
    num = rng.integers(-30, 31, size=sh.sizes) * rng.choice([1, 2, 3, 4, 6], size=sh.sizes)
    num.flat[:3] = (0, -(1 << 63), (1 << 63) - 1)
    table = DomainTable(sh, num=num.astype(np.int64), den=den)
    oracle = Counter(Fraction(int(v), den) for v in num.flat)
    nums, dens, counts = table.value_counts()
    got = list(zip(nums.tolist(), dens.tolist(), counts.tolist()))
    assert got == [(v.numerator, v.denominator, c) for v, c in sorted(oracle.items())]
    assert all(type(x) is int for row in got for x in row)
    with pytest.raises(ValueError, match="exact table"):
        DomainTable(sh, cvals=num.astype(np.complex128)).value_counts()


def test_arrangement_count_examples():
    # k=1, F_2, S={0}, level 1, lengths 0 -> exactly one arrangement
    sh = Shape(2, (1,))
    member = np.array([True, False])
    assert count_arrangements(sh, member, 1, (0,)) == 1
    rep = arrangement_identity_check(sh, member, 1, (0,))
    assert rep.conv_value * rep.volume == 1
    # full space: count equals the volume factor
    full = np.ones(sh.sizes, dtype=bool)
    assert count_arrangements(sh, full, 1, (1,)) == 2
    # level 0 is the indicator itself
    assert count_arrangements(sh, member, 0, (0,)) == 1
    assert count_arrangements(sh, member, 0, (1,)) == 0


def test_arrangement_counts_match_brute_force():
    for seed in range(12):
        rng = np.random.default_rng([59, seed])
        sh = [Shape(2, (1, 1)), Shape(2, (2, 1)), Shape(3, (1, 1)), Shape(2, (1, 1, 1))][seed % 4]
        member = rng.random(sh.sizes) < 0.6
        i = int(rng.integers(1, sh.k + 1))
        lengths = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        brute = [
            arr
            for arr in brute_arrangements(sh, i, lengths)
            if all(member[pt] for pt in arr)
        ]
        assert count_arrangements(sh, member, i, lengths) == len(brute)
        arrangement_identity_check(sh, member, i, lengths)


def test_arrangement_tables_at_p2_match_brute_force():
    # the transform route of arrangement_count_tables on every lengths tuple
    for seed, dims in enumerate([(2,), (2, 2), (1, 2, 1), (3, 1)]):
        rng = np.random.default_rng([79, seed])
        sh = Shape(2, dims)
        member = rng.random(sh.sizes) < 0.7
        tables = arrangement_count_tables(sh, member, sh.k)
        for i in range(sh.k + 1):
            for lengths in product(*(range(s) for s in sh.sizes)):
                brute = sum(
                    all(member[pt] for pt in arr) for arr in brute_arrangements(sh, i, lengths)
                )
                assert tables[i][lengths] == brute


def test_enumerate_agrees_with_brute():
    sh = Shape(2, (1, 1))
    lengths = (1, 0)
    got = sorted(enumerate_arrangements(sh, 2, lengths))
    brute = sorted(brute_arrangements(sh, 2, lengths))
    assert got == brute
    # the arrangement family size is the volume factor
    assert len(got) == 2 ** 2 * 2


def test_position_count_examples():
    sh = Shape(2, (1,))
    # level 0: position 1 matches iff x == lengths
    assert position_count(sh, 0, 1, (1,), (1,)) == 1
    assert position_count(sh, 0, 1, (1,), (0,)) == 0
    # k=1, F_2, i=1, j=1, lengths 1, x 0 -> exactly one (volume factor 1)
    assert position_count(sh, 1, 1, (1,), (0,)) == 1
    rep = position_count_check(sh, 1, 1, (1,), (0,))
    assert rep.ok and rep.expected == 1
    # trailing coordinates disagree -> zero
    sh2 = Shape(2, (1, 1))
    rep = position_count_check(sh2, 1, 1, (0, 0), (1, 1))
    assert rep.ok and rep.expected == 0


def test_position_counts_match_brute_force():
    for seed in range(10):
        rng = np.random.default_rng([61, seed])
        sh = [Shape(2, (1, 1)), Shape(3, (1, 1)), Shape(2, (2, 1))][seed % 3]
        i = int(rng.integers(1, sh.k + 1))
        j = int(rng.integers(1, (1 << i) + 1))
        lengths = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        x = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        brute = sum(
            1 for arr in brute_arrangements(sh, i, lengths) if arr[j - 1] == x
        )
        assert position_count(sh, i, j, lengths, x) == brute
        position_count_check(sh, i, j, lengths, x)


def test_vanishing_propagation():
    # level 0 is a tautology
    sh = Shape(2, (2,))
    A = MultilinearMap(sh, 1, np.array([[1], [0]], dtype=np.int64))
    arr = Arrangement(0, (0,), ((0,),))
    assert vanishing_propagation_check(A, arr).ok
    # k=1 linear: arrangement {y+l, y} in ker A forces A(l) = 0
    member = value_table(A)[..., 0] == 0
    rng = np.random.default_rng(9)
    for lcode in range(4):
        arr = sample_arrangement_in_set(sh, member, 1, (lcode,), rng)
        if arr is not None:
            rep = vanishing_propagation_check(A, arr)
            assert rep.premise and rep.conclusion


def test_vanishing_propagation_random_k3():
    hits = 0
    for seed in range(60):
        rng = np.random.default_rng([67, seed])
        sh = Shape(2, (1, 1, 1))
        A = random_multilinear(sh, 1, [67, seed])
        member = value_table(A)[..., 0] == 0
        lengths = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        arr = sample_arrangement_in_set(sh, member, 3, lengths, rng)
        if arr is not None:
            rep = vanishing_propagation_check(A, arr)
            assert rep.premise and rep.ok
            hits += 1
    assert hits > 10


def test_cs_chain_examples():
    sh = Shape(2, (1, 1))
    full = np.ones(sh.sizes, dtype=bool)
    rep = cs_chain_check(sh, full)
    assert rep.chain_means == (1, 1, 1)
    empty = np.zeros(sh.sizes, dtype=bool)
    rep = cs_chain_check(sh, empty)
    assert rep.final == 0
    xy = form(2, (1, 1), [1])
    member = value_table(xy)[..., 0] == 0
    rep = cs_chain_check(sh, member)
    assert rep.density == Fraction(3, 4)
    assert rep.chain_means == (Fraction(3, 4), Fraction(5, 8), Fraction(13, 32))
    assert rep.final >= rep.lower == Fraction(81, 256)


def test_cs_chain_random():
    for seed in range(30):
        rng = np.random.default_rng([71, seed])
        sh = [Shape(2, (1, 1)), Shape(2, (2, 1)), Shape(3, (1, 1)), Shape(2, (1, 1, 1))][seed % 4]
        member = rng.random(sh.sizes) < rng.uniform(0.2, 0.9)
        cs_chain_check(sh, member)


def test_find_heavy_point():
    xy = form(2, (1, 1), [1])
    member = value_table(xy)[..., 0] == 0
    point, val = find_heavy_point(xy.shape, member)
    rep = cs_chain_check(xy.shape, member)
    assert val >= rep.lower
    # lexicographically least maximizer
    chain = conv_chain(indicator_table(xy.shape, member), [1, 2])
    best = max(chain.value_at(c) for c in product(range(2), repeat=2))
    assert chain.value_at(point) == best


def test_conv_approximation_validator():
    # the direction-1 convolution of the full space is identically 1 and is
    # approximated exactly by 1 * chi(0) with no exceptional layers
    sh = Shape(2, (1, 1))
    Z = indicator_table(sh, np.ones(sh.sizes, dtype=bool))
    zero_form = form(2, (1, 1), [0])
    sub_shape = Shape(2, (1,))
    from rankforge.forms import MultiaffineMap

    gamma = MultiaffineMap(sub_shape, 1, {frozenset([1]): np.array([[1]])})
    layers = LayerFamily(gamma, ())
    rep = conv_approximation_check(Z, [1], [1.0], [zero_form], layers, 1e-6)
    assert rep.ok and rep.max_error <= 1e-9 and rep.exceptional_density == 0
    # a wrong coefficient is flagged
    rep = conv_approximation_check(Z, [1], [0.5], [zero_form], layers, 1e-6)
    assert not rep.ok


def test_conv_approximation_guard_before_tables(monkeypatch):
    # numpy cannot hold a table on F_p with p = 2^61 - 1, not even a zero-stride
    # view, so the order is checked on a small domain: the domain guard refuses
    # before the O(p) character table is built
    from rankforge import convolutions, forms

    def no_field(p):
        raise AssertionError("character table built before the domain guard")

    monkeypatch.setattr(convolutions, "PrimeField", no_field)
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 2)
    sh = Shape(2, (1, 1))
    Z = indicator_table(sh, np.ones(sh.sizes, dtype=bool))
    gamma = MultiaffineMap(Shape(2, (1,)), 1, {frozenset([1]): np.array([[1]])})
    with pytest.raises(DomainSizeError):
        conv_approximation_check(Z, [1], [1.0], [form(2, (1, 1), [0])], LayerFamily(gamma, ()), 1e-6)
