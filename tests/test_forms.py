import json
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import forms
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    codes_to_point,
    compose_output,
    contract,
    curry_last,
    map_from_json,
    map_to_json,
    multilinear_parts,
    random_multiaffine,
    random_multilinear,
    residue_dtype,
    scalar_table,
    slice_map,
    top_part,
    value_table,
)


def domain_codes(shape):
    """Every point as a tuple of per-coordinate codes, row-major."""
    return product(*(range(s) for s in shape.sizes))


def domain_points(shape):
    """Every point as a tuple of vectors, row-major over the codes."""
    return (codes_to_point(shape, codes) for codes in domain_codes(shape))


def eval_oracle(f, xs):
    """Pure-python sum over coefficient indices, independent of `forms.contract`."""
    fa = as_multiaffine(f)
    p = fa.shape.p
    out = [0] * fa.m
    for I, C in fa.parts.items():
        Is = sorted(I)
        ranges = [range(fa.shape.dims[i - 1]) for i in Is]
        for idx in product(*ranges):
            mono = 1
            for pos, i in enumerate(Is):
                mono = mono * int(xs[i - 1][idx[pos]]) % p
            for t in range(fa.m):
                out[t] = (out[t] + int(C[idx + (t,)]) * mono) % p
    return tuple(out)


def xyz_form():
    sh = Shape(2, (1, 1, 1))
    return MultilinearMap(sh, 1, np.ones((1, 1, 1, 1), dtype=np.int64))


def identity_bilinear(p, n):
    sh = Shape(p, (n, n))
    return MultilinearMap(sh, 1, np.eye(n, dtype=np.int64).reshape(n, n, 1))


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(4, (2, 2))
    with pytest.raises(ValueError):
        Shape(2, ())
    with pytest.raises(ValueError):
        Shape(2, (0, 2))


@pytest.mark.parametrize("p,dims,admitted", [
    (2, (62,), True), (2, (40, 22), True), (2, (63,), False), (2, (31, 32), False),
    (3, (39,), True), (3, (20, 19), True), (3, (40,), False), (3, (20, 20), False),
    # 2^63 - 25 is prime: p^1 < 2^63, though log2(p) rounds to 63.0 in float64
    (2 ** 63 - 25, (1,), True), (2 ** 63 - 25, (1, 1), False), (2 ** 61 - 1, (2,), False),
])
def test_shape_domain_bound_is_exact(p, dims, admitted):
    # a domain is admitted exactly when its p^(sum of dims) points number below 2^63
    assert (p ** sum(dims) < 2 ** 63) == admitted
    if admitted:
        assert Shape(p, dims).domain_size == p ** sum(dims)
    else:
        with pytest.raises(ValueError, match="64-bit counter guard"):
            Shape(p, dims)


def test_shape_refuses_a_huge_domain_at_once():
    # 2^(10^9) is never formed: the bound is settled from bit lengths first
    with pytest.raises(ValueError, match="64-bit counter guard"):
        Shape(2, (10 ** 9,))
    with pytest.raises(ValueError, match="64-bit counter guard"):
        Shape(3, (5 * 10 ** 8, 5 * 10 ** 8))


def test_evaluate_examples():
    xyz = xyz_form()
    assert eval_oracle(xyz, [(1,), (1,), (1,)]) == (1,)
    assert xyz.evaluate([(1,), (1,), (1,)])[0] == 1
    # zero argument kills a multilinear map
    assert xyz.evaluate([(0,), (1,), (1,)])[0] == 0
    I2 = identity_bilinear(2, 2)
    assert I2.evaluate([(1, 0), (1, 1)])[0] == 1


def test_evaluate_matches_oracle_everywhere():
    for seed in range(5):
        f = random_multiaffine(Shape(3, (2, 1)), 2, [101, seed])
        for xs in domain_points(f.shape):
            assert tuple(f.evaluate(xs)) == eval_oracle(f, xs)


def test_value_table_matches_pointwise_evaluation():
    f = random_multiaffine(Shape(2, (2, 2)), 1, [55, 0])
    table = value_table(f)
    for codes in domain_codes(f.shape):
        xs = [
            tuple(int(c >> j & 1) for j in range(n))
            for c, n in zip(codes, f.shape.dims)
        ]
        assert table[codes + (0,)] == f.evaluate(xs)[0]


def test_top_part():
    f = random_multiaffine(Shape(3, (2, 1, 2)), 1, [61, 0])
    top = top_part(f)
    assert isinstance(top, MultilinearMap)
    assert np.array_equal(top.coeffs, f.parts[frozenset({1, 2, 3})])
    lower = MultiaffineMap(f.shape, 1, {I: C for I, C in f.parts.items() if len(I) < 3})
    assert top_part(lower).is_zero()
    g = random_multilinear(Shape(2, (2, 3)), 2, [61, 1])
    assert top_part(g) == g
    assert list(g.parts) == list(as_multiaffine(g).parts) == [frozenset({1, 2})]
    assert g.parts[frozenset({1, 2})] is g.coeffs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(2, (2, 2)), (3, (1, 2)), (2, (1, 1, 2))]))
def test_multilinearity_additivity(seed, spec):
    p, dims = spec
    sh = Shape(p, dims)
    f = random_multilinear(sh, 1, [7, seed])
    rng = np.random.default_rng([8, seed])
    i = int(rng.integers(0, sh.k))
    xs = [rng.integers(0, p, size=n) for n in dims]
    y = rng.integers(0, p, size=dims[i])
    z = rng.integers(0, p, size=dims[i])
    left = list(xs)
    left[i] = (y + z) % p
    a = list(xs)
    a[i] = y
    b = list(xs)
    b[i] = z
    assert f.evaluate(left)[0] == (f.evaluate(a)[0] + f.evaluate(b)[0]) % p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_multiaffine_three_point_identity(seed):
    sh = Shape(3, (2, 2))
    f = random_multiaffine(sh, 1, [9, seed])
    rng = np.random.default_rng([10, seed])
    i = int(rng.integers(0, sh.k))
    xs = [rng.integers(0, 3, size=n) for n in sh.dims]
    y, z, w = (rng.integers(0, 3, size=sh.dims[i]) for _ in range(3))
    combo = list(xs)
    combo[i] = (y + z - w) % 3
    vals = []
    for v in (y, z, w):
        arg = list(xs)
        arg[i] = v
        vals.append(f.evaluate(arg)[0])
    assert f.evaluate(combo)[0] == (vals[0] + vals[1] - vals[2]) % 3


def test_curry_last_examples():
    # identity bilinear curries to the identity linear map
    I3 = identity_bilinear(2, 3)
    A = curry_last(I3)
    assert np.array_equal(A.coeffs, np.eye(3, dtype=np.int64))
    # xyz curries to A(x, y) = (xy)
    xyz = xyz_form()
    A = curry_last(xyz)
    for xs in domain_points(xyz.shape):
        assert int(np.dot(A.evaluate(xs[:2]), xs[2])) % 2 == xyz.evaluate(xs)[0]
    # zero form curries to the zero map
    z = MultilinearMap(Shape(2, (2, 2)), 1, np.zeros((2, 2, 1), dtype=np.int64))
    assert curry_last(z).is_zero()


def test_curry_last_arity_error():
    f = MultilinearMap(Shape(2, (3,)), 1, np.ones((3, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        curry_last(f)


def test_slice_examples():
    xyz = xyz_form()
    # fixing x = 1 leaves the product of the other two
    g = slice_map(xyz, [1], [(1,)])
    assert g.shape.dims == (1, 1)
    assert g.evaluate([(1,), (1,)])[0] == 1
    assert g.evaluate([(1,), (0,)])[0] == 0
    # fixing a zero vector kills a multilinear map
    h = slice_map(xyz, [1], [(0,)])
    assert h.is_zero()
    # identity bilinear sliced at x = (1, 0) is y -> y_1
    I2 = identity_bilinear(2, 2)
    s = slice_map(I2, [1], [(1, 0)])
    assert s.evaluate([(1, 0)])[0] == 1
    assert s.evaluate([(0, 1)])[0] == 0


def test_slice_commutes_with_evaluate():
    f = random_multiaffine(Shape(2, (2, 1, 2)), 2, [12, 3])
    for xs in domain_points(f.shape):
        g = slice_map(f, [2], [xs[1]])
        assert tuple(g.evaluate([xs[0], xs[2]])) == tuple(f.evaluate(xs))


def test_slice_rejects_all_coordinates():
    f = random_multiaffine(Shape(2, (1, 1)), 1, [1, 1])
    with pytest.raises(ValueError):
        slice_map(f, [1, 2], [(0,), (0,)])


def oracle_maps():
    """Seeded random maps for the contraction oracle: every p in {2, 3, 5, 7}
    and k <= 4, multilinear and multiaffine (with a constant part), m <= 3,
    dimensions grown at random while the domain stays within 2^8 points; then
    a constant map alone for each p."""
    for seed in range(32):
        rng = np.random.default_rng([14, seed])
        p, k = (2, 3, 5, 7)[seed % 4], 1 + seed // 4 % 4
        dims = [1] * k
        for i in rng.integers(k, size=6):
            if p ** (sum(dims) + 1) <= 256 and rng.random() < 0.8:
                dims[i] += 1
        shape, m = Shape(p, tuple(dims)), int(rng.integers(1, 4))
        make = random_multilinear if seed < 16 else random_multiaffine
        yield make(shape, m, [15, seed])
    for p in (2, 3, 5, 7):
        yield MultiaffineMap(Shape(p, (1, 2)), 2, {frozenset(): [1, p - 1]})


@pytest.mark.parametrize("f", list(oracle_maps()), ids=lambda f: f"{'ml' if isinstance(f, MultilinearMap) else 'ma'}{f.shape.p}{f.shape.dims}m{f.m}")
def test_kernel_matches_pure_python_oracle(f):
    # value tables, point values and slices all contract through forms.contract;
    # eval_oracle sums monomials in Python integers instead
    shape = f.shape
    table = value_table(f)
    rng = np.random.default_rng(list(shape.dims))
    codes_list = list(domain_codes(shape))
    if len(codes_list) > 256:  # the p = 5, 7 domains past 2^8 points: 256 random points
        codes_list = [codes_list[i] for i in rng.choice(len(codes_list), 256, replace=False)]
    for codes in codes_list:
        xs = codes_to_point(shape, codes)
        want = eval_oracle(f, xs)
        assert tuple(table[codes]) == want
        assert tuple(f.evaluate(xs)) == want
        if shape.k > 1:
            I = sorted(rng.choice(np.arange(1, shape.k + 1), size=int(rng.integers(1, shape.k)), replace=False))
            g = slice_map(f, I, [xs[i - 1] for i in I])
            assert type(g) is type(f)
            assert tuple(g.evaluate([x for i, x in enumerate(xs, 1) if i not in I])) == want


def test_kernel_exact_past_int64():
    # each value passes 2^63 before it is reduced mod p
    p = 2 ** 61 - 1
    f = MultilinearMap(Shape(p, (1,)), 1, [[2 ** 60]])
    assert f.evaluate([[2 ** 59]]).tolist() == [pow(2, 119, p)] == [288230376151711744]
    assert compose_output(f, [[2 ** 59]]).coeffs.tolist() == [[pow(2, 119, p)]]
    q = 2 ** 31 + 11
    g = MultilinearMap(Shape(q, (2,)), 1, [[q - 1], [q - 1]])
    assert g.evaluate([[q - 1, q - 1]]).tolist() == [2]
    # past 2^62 the sum of two parts needs Python integers too
    r = next(n for n in range(3 << 61, 1 << 63) if forms.is_prime(n))
    a = MultiaffineMap(Shape(r, (1,)), 1, {frozenset(): [r - 1], frozenset({1}): [[r - 1]]})
    assert a.evaluate([[1]]).tolist() == [r - 2]


def test_contract_dtype_bound():
    # float64 while n (p - 1)^2 < 2^53, int64 while < 2^63, Python integers from there on
    assert residue_dtype(1, 94906266) is np.float64 and residue_dtype(1, 94906267) is np.int64
    assert residue_dtype(2, 2 ** 26) is np.float64 and residue_dtype(2, 2 ** 26 + 1) is np.int64
    assert residue_dtype(2, 2 ** 31) is np.int64 and residue_dtype(2, 2 ** 31 + 1) is object
    assert residue_dtype(1, 3037000500) is np.int64 and residue_dtype(1, 3037000501) is object
    p = 3037000493  # prime, (p - 1)^2 < 2^63 < 2 (p - 1)^2
    C = np.array([[p - 1], [p - 1]], dtype=np.int64)
    M = np.array([[p - 1, p - 1], [1, p - 1]], dtype=np.int64)
    got = contract(C, [M], p)
    assert got.dtype == np.int64 and got.shape == (2, 1)
    assert got[:, 0].tolist() == [2 * (p - 1) ** 2 % p, (p - 1 + (p - 1) ** 2) % p]
    assert contract(C[:1], [M[:, :1]], p)[:, 0].tolist() == [1, p - 1]


def contract_oracle(C, mats, p):
    """`contract` in Python integers: one object-dtype product per axis."""
    T = C.astype(object).reshape(1, -1)
    for M in mats:
        T = T.reshape(T.shape[0], M.shape[1], -1)
        T = np.concatenate([M.astype(object) @ t for t in T]) % p
    return T.tolist()


def test_contract_float_tier_edges():
    # float64 while n (p - 1)^2 < 2^53, then int64; the primes sit on both sides of
    # that bound for n = 1 and 2, and past it a float64 sum of (p-2)^2 + ... would round
    assert residue_dtype(2 ** 53 - 1, 2) is np.float64 and residue_dtype(2 ** 53, 2) is np.int64
    rng = np.random.default_rng(53)
    C, mats = rng.integers(0, 2, size=(3, 4, 2)), [rng.integers(0, 2, size=(5, 3)), rng.integers(0, 2, size=(6, 4))]
    assert contract(C, mats, 2).tolist() == contract_oracle(C, mats, 2)
    for n, below, above in [(1, 94906249, 94906297), (2, 67108859, 67108879)]:
        for p, tier in [(below, np.float64), (above, np.int64)]:
            assert residue_dtype(n, p) is tier
            top = np.array([p - 2, p - 1][:n])
            C = np.stack([top, np.full(n, p - 1)], axis=1)
            M = np.stack([top, np.full(n, p - 1), np.ones(n, dtype=np.int64)])
            assert contract(C, [M], p).tolist() == contract_oracle(C, [M], p)
            C3, M2 = rng.integers(p - 3, p, size=(n, n, 2)), rng.integers(p - 3, p, size=(4, n))
            assert contract(C3, [M, M2], p).tolist() == contract_oracle(C3, [M, M2], p)


def parts_oracle(f):
    """Recover multilinear parts from evaluations alone (subset Moebius sums).

    The coefficient of part I at basis tuple (e_j : j in I) is the signed sum
    of f over points supported on subsets of I, which pins down the part
    family uniquely from the value table.
    """
    fa = as_multiaffine(f)
    p = fa.shape.p
    k = fa.shape.k
    out = {}
    subsets = [[]]
    for i in range(1, k + 1):
        subsets += [s + [i] for s in subsets]
    for I in map(tuple, subsets):
        dims = [fa.shape.dims[i - 1] for i in I]
        C = np.zeros(tuple(dims) + (fa.m,), dtype=np.int64)
        for idx in product(*(range(d) for d in dims)):
            acc = np.zeros(fa.m, dtype=np.int64)
            sub = [[]]
            for pos in range(len(I)):
                sub += [s + [pos] for s in sub]
            for S in sub:
                xs = [np.zeros(n, dtype=np.int64) for n in fa.shape.dims]
                for pos in S:
                    xs[I[pos] - 1][idx[pos]] = 1
                sign = 1 if (len(I) - len(S)) % 2 == 0 else p - 1
                acc = (acc + sign * fa.evaluate(xs)) % p
            C[idx] = acc
        if C.any():
            out[frozenset(I)] = C
    return out


def test_parts_round_trip_and_uniqueness():
    sh = Shape(2, (1, 1))
    # f(x, y) = xy + x + 1
    f = MultiaffineMap(
        sh,
        1,
        {
            frozenset(): np.array([1]),
            frozenset([1]): np.array([[1]]),
            frozenset([1, 2]): np.array([[[1]]]),
        },
    )
    parts = multilinear_parts(f)
    assert set(parts) == {frozenset(), frozenset([1]), frozenset([1, 2])}
    g = MultiaffineMap(sh, 1, {I: part if I == frozenset() else part.coeffs for I, part in parts.items()})
    assert g == f
    # the part family recovered from evaluations agrees: distinct families
    # cannot share a value table
    oracle = parts_oracle(f)
    assert set(oracle) == set(f.parts)
    for I in oracle:
        assert np.array_equal(oracle[I], f.parts[I])


def test_parts_of_random_maps_match_evaluation_oracle():
    for seed in range(4):
        f = random_multiaffine(Shape(3, (2, 1)), 1, [77, seed])
        oracle = parts_oracle(f)
        assert set(oracle) == set(f.parts)
        for I in oracle:
            assert np.array_equal(oracle[I], f.parts[I])


def test_parts_of_multilinear_and_constant():
    ml = random_multilinear(Shape(2, (2, 2)), 1, [3, 1])
    parts = multilinear_parts(as_multiaffine(ml))
    if not ml.is_zero():
        assert set(parts) == {frozenset([1, 2])}
    const = MultiaffineMap(Shape(2, (1, 1)), 1, {frozenset(): np.array([1])})
    assert set(multilinear_parts(const)) == {frozenset()}


def test_random_maps_deterministic():
    sh = Shape(3, (2, 2))
    assert random_multilinear(sh, 2, [5, 5]) == random_multilinear(sh, 2, [5, 5])
    assert random_multiaffine(sh, 1, [5, 6]) == random_multiaffine(sh, 1, [5, 6])
    assert random_multilinear(sh, 2, [5, 5]) != random_multilinear(sh, 2, [5, 7])


def test_random_multilinear_frequency():
    # shape (1,1) over F_2: the single coefficient should hit 0 and 1 about
    # equally often across seeds (3 sigma band)
    sh = Shape(2, (1, 1))
    ones = sum(int(random_multilinear(sh, 1, [42, s]).coeffs[0, 0, 0]) for s in range(1000))
    assert abs(ones - 500) <= 3 * np.sqrt(1000 * 0.25)


def test_random_map_rejects_m0():
    with pytest.raises(ValueError):
        random_multilinear(Shape(2, (1, 1)), 0, 0)


def test_json_round_trip():
    f = random_multiaffine(Shape(2, (2, 2)), 1, [88, 0])
    obj = map_to_json(f)
    text = json.dumps(obj)
    g = map_from_json(json.loads(text))
    assert g == f
    ml = random_multilinear(Shape(3, (2, 1)), 2, [88, 1])
    obj = map_to_json(ml)
    assert obj["p"] == 3 and obj["target_dim"] == 2
    g = map_from_json(obj)
    assert isinstance(g, MultilinearMap)
    assert g == ml


def test_json_format_shape():
    sh = Shape(2, (2, 2))
    f = identity_bilinear(2, 2)
    obj = map_to_json(f)
    assert obj == {
        "p": 2,
        "dims": [2, 2],
        "target_dim": 1,
        "parts": [{"subset": [1, 2], "coeffs": [1, 0, 0, 1]}],
    }


def test_scalar_table_row_major_order():
    f = identity_bilinear(2, 2)
    t = scalar_table(f)
    # codes are little-endian digit vectors; spot-check a few entries
    assert t[0, 0] == 0
    # x=(1,0) has code 1, y=(1,1) has code 3
    assert t[1, 3] == f.evaluate([(1, 0), (1, 1)])[0]


def test_tables_over_the_cache_bound_are_not_kept(monkeypatch):
    # a (2,(22,)) value table once left its 738 MB digit matrix resident after the
    # table was freed; a lowered bound shows the same on a (2,(13,)) form
    monkeypatch.setattr(forms, "TABLE_CACHE_ENTRIES", 1 << 12)
    assert forms.digit_matrix(2, 5) is forms.digit_matrix(2, 5)  # 160 entries, kept
    assert forms.addition_table(2, 5) is forms.addition_table(2, 5)  # 1024 entries, kept
    f = random_multilinear(Shape(2, (13,)), 1, 0)  # digit matrix of 106,496 entries
    tracemalloc.start()
    try:
        forms.value_table(f)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000
    assert forms.digit_matrix(2, 13) is not forms.digit_matrix(2, 13)
    assert forms.addition_table(2, 7) is not forms.addition_table(2, 7)  # 16,384 entries
