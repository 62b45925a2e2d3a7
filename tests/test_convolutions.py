from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankforge.convolutions import (
    Arrangement,
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
from rankforge.errors import DomainSizeError
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
