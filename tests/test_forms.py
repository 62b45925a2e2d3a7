import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.field import PrimeField
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    curry_last,
    domain_points,
    map_from_json,
    map_to_json,
    multilinear_parts,
    random_multiaffine,
    random_multilinear,
    rebuild,
    scalar_table,
    slice_map,
    top_part,
    value_table,
)


def eval_oracle(f, xs):
    """Pure-python sum over coefficient indices, independent of the tensordot path."""
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
    from rankforge.forms import domain_codes

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
    F = PrimeField(2)
    for xs in domain_points(xyz.shape):
        assert F.dot(A.evaluate(xs[:2]), xs[2]) == xyz.evaluate(xs)[0]
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
    g = rebuild(sh, 1, parts)
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
