import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge.analytic import (
    arank,
    bias_homog_check,
    bias_report,
    box_norm,
    ceil_neg_log,
    chi_table,
    exact_bias,
    gcs_check,
    slice_counts,
    value_histogram,
)
from rankforge import forms, linalg
from test_forms import domain_points, eval_oracle
from test_linalg import _rank_oracle
from rankforge.errors import DomainSizeError
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    compose_output,
    curry_last,
    random_multiaffine,
    random_multilinear,
    value_table,
)


def form(p, dims, coeffs):
    sh = Shape(p, tuple(dims))
    return MultilinearMap(sh, 1, np.asarray(coeffs, dtype=np.int64).reshape(sh.dims + (1,)))


def histogram_oracle(f):
    counts = [0] * f.shape.p
    for xs in domain_points(f.shape):
        counts[int(as_multiaffine(f).evaluate(xs)[0])] += 1
    return counts


def test_histogram_examples():
    zero = form(2, (1, 1), [0])
    assert value_histogram(zero).counts == (4, 0)
    xy = form(2, (1, 1), [1])
    assert value_histogram(xy).counts == (3, 1)
    assert histogram_oracle(xy) == [3, 1]
    xyz = form(2, (1, 1, 1), [1])
    assert value_histogram(xyz).counts == (7, 1)
    assert histogram_oracle(xyz) == [7, 1]


def test_histogram_matches_oracle_random():
    for seed in range(5):
        f = random_multiaffine(Shape(3, (2, 1)), 1, [21, seed])
        assert list(value_histogram(f).counts) == histogram_oracle(f)


def test_histogram_guard(monkeypatch):
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 1 << 10)
    with pytest.raises(DomainSizeError):
        value_histogram(form(2, (10, 10), np.zeros(100)))


def test_chi_table_guard_before_character_table():
    # the domain guard bounds p too, before the O(p) character table is built
    with pytest.raises(DomainSizeError):
        chi_table(form(2 ** 61 - 1, (1,), [1]))


def test_histogram_restriction():
    xy = form(2, (1, 1), [1])
    member = np.zeros((2, 2), dtype=bool)
    member[1, 1] = True
    h = value_histogram(xy, restriction=member)
    assert h.counts == (0, 1) and h.total == 1


def test_bias_examples():
    zero = form(2, (2, 2), np.zeros(4))
    rep = bias_report(zero)
    assert rep.bias_exact == 1 and rep.arank == 0
    I2 = form(2, (2, 2), np.eye(2))
    rep = bias_report(I2)
    assert rep.bias_exact == Fraction(1, 4)
    assert rep.arank == pytest.approx(2.0)
    assert rep.vanishing_count == 1
    xyz = form(2, (1, 1, 1), [1])
    rep = bias_report(xyz)
    assert rep.bias_exact == Fraction(3, 4)
    assert rep.arank == pytest.approx(math.log2(4 / 3))
    assert f"{rep.arank:.6f}" == "0.415037"


def test_bias_vanishing_density_ensemble():
    # chi-weighted histogram equals the vanishing density of the curried map
    cases = [(2, (2, 2)), (2, (1, 2, 1)), (3, (2, 1)), (3, (1, 1, 2))]
    for p, dims in cases:
        for seed in range(10):
            f = random_multilinear(Shape(p, dims), 1, [31, p, seed])
            rep = bias_report(f)
            assert rep.bias_exact == Fraction(rep.vanishing_count, Shape(p, dims[:-1]).domain_size if len(dims) > 1 else 1)
            assert abs(rep.bias - float(rep.bias_exact)) < 1e-9


def test_arank_block_additivity_exhaustive():
    # block-diagonal bilinear direct sums add analytic ranks: every 3x3 block
    # against every 2x2 block over F_2
    aranks_b = {}
    for cb in range(16):
        B = np.array([(cb >> t) & 1 for t in range(4)], dtype=np.int64).reshape(2, 2)
        aranks_b[cb] = arank(form(2, (2, 2), B))
    for ca in range(512):
        A = np.array([(ca >> t) & 1 for t in range(9)], dtype=np.int64).reshape(3, 3)
        ra = arank(form(2, (3, 3), A))
        for cb in range(16):
            B = np.array([(cb >> t) & 1 for t in range(4)], dtype=np.int64).reshape(2, 2)
            M = np.zeros((5, 5), dtype=np.int64)
            M[:3, :3] = A
            M[3:, 3:] = B
            assert arank(form(2, (5, 5), M)) == pytest.approx(ra + aranks_b[cb])


def test_multiaffine_bias_declines_arank():
    f = random_multiaffine(Shape(2, (2, 2)), 1, [3, 3])
    rep = bias_report(f)
    assert rep.arank is None and rep.bias_exact is None


def test_multiaffine_exact_bias_rejected():
    with pytest.raises(ValueError):
        exact_bias(random_multiaffine(Shape(2, (2, 2)), 1, [3, 3]))


def test_ceil_neg_log():
    assert ceil_neg_log(2, Fraction(1, 4)) == 2
    assert ceil_neg_log(2, Fraction(3, 4)) == 1
    assert ceil_neg_log(2, Fraction(1)) == 0
    assert ceil_neg_log(3, Fraction(1, 10)) == 3


def test_bias_homog_examples():
    # multilinear input gives equality
    xy = form(2, (1, 1), [1])
    rep = bias_homog_check(as_multiaffine(xy))
    assert rep.ok and rep.abs_bias == pytest.approx(float(rep.top_bias))
    # constant 1 has top part 0
    const = MultiaffineMap(Shape(2, (1, 1)), 1, {frozenset(): np.array([1])})
    rep = bias_homog_check(const)
    assert rep.ok and rep.abs_bias == pytest.approx(1.0) and rep.top_bias == 1
    # f(x, y) = xy + x
    f = MultiaffineMap(
        Shape(2, (1, 1)),
        1,
        {frozenset([1]): np.array([[1]]), frozenset([1, 2]): np.array([[[1]]])},
    )
    rep = bias_homog_check(f)
    assert rep.abs_bias == pytest.approx(0.5)
    assert rep.top_bias == Fraction(1, 2)
    assert rep.ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_bias_homog_random(seed):
    f = random_multiaffine(Shape(3, (1, 2)), 1, [41, seed])
    assert bias_homog_check(f).ok


def box_norm_oracle(shape, table):
    """Direct python double loop over (x, y) pairs."""
    k = shape.k
    total = 0.0 + 0.0j
    codes = list(product(*(range(s) for s in shape.sizes)))
    for x in codes:
        for y in codes:
            prod = 1.0 + 0.0j
            for bits in range(1 << k):
                I = [i + 1 for i in range(k) if bits >> i & 1]
                point = tuple(x[i - 1] if i in I else y[i - 1] for i in range(1, k + 1))
                v = table[point]
                prod *= np.conj(v) if len(I) % 2 else v
            total += prod
    inner = total / len(codes) ** 2
    assert abs(inner.imag) < 1e-9 and inner.real > -1e-9
    return max(inner.real, 0.0) ** (1.0 / (1 << k))


def test_box_norm_trivia():
    sh = Shape(2, (1, 1))
    ones = np.ones(sh.sizes, dtype=np.complex128)
    assert box_norm(sh, ones) == pytest.approx(1.0)
    assert box_norm(sh, np.zeros(sh.sizes, dtype=np.complex128)) == pytest.approx(0.0)


def test_box_norm_identity_with_bias():
    # box_norm(chi of phi)^(2^k) = bias(phi) for multilinear phi
    cases = [form(2, (1, 1), [1]), form(2, (2, 2), np.eye(2)), form(3, (1, 1), [1])]
    for phi in cases:
        nrm = box_norm(phi.shape, chi_table(phi))
        assert nrm ** (1 << phi.shape.k) == pytest.approx(float(exact_bias(phi)), abs=1e-9)


def test_box_norm_matches_oracle():
    rng = np.random.default_rng(5)
    sh = Shape(2, (1, 1))
    for _ in range(5):
        table = rng.choice([-1.0, 1.0], size=sh.sizes) + 0j
        assert box_norm(sh, table) == pytest.approx(box_norm_oracle(sh, table), abs=1e-9)


def test_gcs_trivia_and_equality():
    sh = Shape(2, (1, 1))
    ones = np.ones(sh.sizes, dtype=np.complex128)
    fam = {frozenset(I): ones for I in [(), (1,), (2,), (1, 2)]}
    rep = gcs_check(sh, fam)
    assert rep.ok and rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)
    phi = form(2, (1, 1), [1])
    tab = chi_table(phi)
    fam = {frozenset(I): tab for I in [(), (1,), (2,), (1, 2)]}
    rep = gcs_check(sh, fam)
    assert rep.ok
    assert rep.lhs == pytest.approx(float(exact_bias(phi)), abs=1e-9)


def test_gcs_random_sign_tables():
    sh = Shape(2, (1, 1))
    for seed in range(100):
        rng = np.random.default_rng([61, seed])
        fam = {
            frozenset(I): rng.choice([-1.0, 1.0], size=sh.sizes) + 0j
            for I in [(), (1,), (2,), (1, 2)]
        }
        assert gcs_check(sh, fam).ok


def test_gcs_missing_table_rejected():
    sh = Shape(2, (1, 1))
    with pytest.raises(ValueError):
        gcs_check(sh, {frozenset(): np.ones(sh.sizes, dtype=np.complex128)})


def test_histogram_matches_pointwise_oracle():
    # uneven coordinate sizes, with and without a restriction
    g = random_multiaffine(Shape(3, (2, 5)), 1, [71, 1])
    member = np.random.default_rng(71).integers(0, 2, size=g.shape.sizes).astype(bool)
    for restriction in (None, member):
        keep = np.ones(g.shape.domain_size, dtype=bool) if restriction is None else member.reshape(-1)
        oracle = [0] * 3
        for xs, kept in zip(domain_points(g.shape), keep):
            oracle[int(g.evaluate(xs)[0])] += int(kept)
        assert value_histogram(g, restriction).counts == tuple(oracle)


def test_box_norm_identity_k4():
    phi = random_multilinear(Shape(2, (1, 1, 1, 1)), 1, [301, 7])
    nrm = box_norm(phi.shape, chi_table(phi))
    assert nrm ** 16 == pytest.approx(float(exact_bias(phi)), abs=1e-9)


# ---------------------------------------------------------------------------
#  The rank-counting route of bias_report against the enumerative oracle
# ---------------------------------------------------------------------------

def curried_zero_count(f):
    """The zero count of a multilinear form's curried map, by enumerating its value table."""
    if f.shape.k == 1:
        return 0 if f.coeffs.any() else 1
    return int((~value_table(curry_last(f)).any(axis=-1)).sum())


@st.composite
def oracle_shapes(draw):
    """(p, dims) of a domain of at most 2^12 points, k = 1..4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    budget = {2: 12, 3: 7, 5: 5, 7: 4}[p]  # largest N with p^N <= 2^12
    k = draw(st.integers(1, 4))
    dims = []
    for i in range(k):
        dims.append(draw(st.integers(1, min(3, budget - sum(dims) - (k - 1 - i)))))
    return p, tuple(dims)


@st.composite
def oracle_sized_forms(draw):
    """Multilinear forms of at most 2^12 points: uniform, zero, or a sum of one or
    two pure tensors (every matrix slice then has rank <= 1 or <= 2)."""
    p, dims = draw(oracle_shapes())
    kind = draw(st.sampled_from(["uniform", "zero", "pure1", "pure2"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        coeffs = rng.integers(0, p, size=dims)
    else:
        coeffs = np.zeros(dims, dtype=np.int64)
        for _ in range(0 if kind == "zero" else int(kind[-1])):
            term = np.ones((), dtype=np.int64)
            for n in dims:
                term = np.multiply.outer(term, rng.integers(0, p, size=n))
            coeffs = (coeffs + term) % p
    return MultilinearMap(Shape(p, dims), 1, coeffs.reshape(dims + (1,)))


@st.composite
def oracle_sized_maps(draw):
    """Multiaffine maps of at most 2^12 points with uniform parts, with a zero
    top part, or with sparse parts (then many slices are consistent and keep
    a nonzero t0)."""
    p, dims = draw(oracle_shapes())
    kind = draw(st.sampled_from(["uniform", "zero-top", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = {}
    for size in range(len(dims) + 1 - (kind == "zero-top")):
        for I in combinations(range(1, len(dims) + 1), size):
            C = rng.integers(0, p, size=tuple(dims[i - 1] for i in I) + (1,))
            parts[frozenset(I)] = C * (rng.random(C.shape) < 0.25) if kind == "sparse" else C
    return MultiaffineMap(Shape(p, dims), 1, parts)


@settings(max_examples=400, deadline=None)
@given(st.one_of(oracle_sized_forms(), oracle_sized_maps()))
@example(form(2, (1, 1, 1, 1), [1]))
@example(form(7, (1, 1, 1, 1), [0]))
@example(form(3, (2, 3, 1), np.zeros(6)))
@example(form(5, (2,), [0, 3]))
@example(MultiaffineMap(Shape(5, (2,)), 1, {frozenset(): [3]}))
@example(MultiaffineMap(Shape(3, (1, 1)), 1, {frozenset(): [1], frozenset({1, 2}): [[[1]]]}))
@example(MultiaffineMap(Shape(2, (2, 2)), 1, {frozenset({1}): [[1], [0]], frozenset({2}): [[1], [1]]}))
def test_rank_route_matches_enumeration(f):
    rep = bias_report(f)
    hist = value_histogram(f)
    assert rep.histogram == hist
    assert rep.bias == hist.chi_average()
    if isinstance(f, MultiaffineMap):
        assert rep.bias_exact is rep.arank is rep.vanishing_count is None
        return
    vanish = curried_zero_count(f)
    assert rep.vanishing_count == vanish
    assert rep.bias_exact == hist.exact_bias()
    assert rep.arank == (math.inf if vanish == 0 else pytest.approx(-math.log(rep.bias_exact, f.shape.p)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_slice_histogram_matches_pure_python_oracle(p):
    # k >= 3, so the slice stack contracts at least one coordinate with every
    # point of it (forms.contract), as value_histogram's table does; the
    # pure-Python eval_oracle shares neither
    for seed in range(6):
        k = 3 + seed % 2
        shape = Shape(p, {2: (2, 2, 2, 1), 3: (2, 1, 1, 1)}.get(p, (1, 1, 1, 1))[:k])
        f = (random_multilinear if seed < 3 else random_multiaffine)(shape, 1, [16, p, seed])
        oracle = [0] * p
        for xs in domain_points(shape):
            oracle[eval_oracle(f, xs)[0]] += 1
        assert bias_report(f).histogram.counts == value_histogram(f).counts == tuple(oracle)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_slice_counts_match_composed_histograms(p):
    # row s of S counts the values of s.f, which compose_output builds as a
    # map of its own and value_histogram enumerates; zero and repeated rows,
    # and entries outside [0, p), included
    rng = np.random.default_rng([47, p])
    for trial in range(8):
        k = 1 + trial % 3
        dims = tuple(int(n) for n in rng.integers(1, 4 if p < 5 else 3, size=k))
        m = int(rng.integers(1, 4))
        f = (random_multilinear if trial % 2 else random_multiaffine)(Shape(p, dims), m, [47, p, trial])
        S = rng.integers(0, p, size=(5, m))
        S = np.vstack([S, np.zeros((1, m), dtype=np.int64), S[:2]])
        got = slice_counts(f, S)
        assert got.shape == (len(S), p) and got.dtype == np.int64
        assert (slice_counts(f, S - p) == got).all()
        for s, row in zip(S, got):
            assert tuple(row.tolist()) == value_histogram(compose_output(f, s[:, None])).counts
        g = compose_output(f, S[:1].T)
        assert (slice_counts(g, [[1]]) == got[:1]).all()  # a scalar map's own stack, no contraction
    with pytest.raises(ValueError):
        slice_counts(f, np.ones((2, m + 1), dtype=np.int64))


def test_rank_route_past_the_enumeration_guard():
    # x . diag(y) . z over F_2^10: the slice at x has rank wt(x), so the bias is
    # E 2^-wt(x) = (3/4)^10 on a 2^30-point domain
    n = 10
    C = np.zeros((n, n, n), dtype=np.int64)
    C[np.arange(n), np.arange(n), np.arange(n)] = 1
    f = form(2, (n, n, n), C)
    with pytest.raises(DomainSizeError):
        value_histogram(f)
    rep = bias_report(f)
    assert rep.bias_exact == Fraction(3, 4) ** n
    assert rep.vanishing_count == 3 ** n  # bias * 2^20 points x_[2]
    assert rep.histogram.total == 2 ** 30


def test_slice_stack_guard(monkeypatch):
    # slices on the two largest coordinates, 4 and 5: 2^3 * 4 * 5 = 160 entries
    f = form(2, (3, 4, 5), np.zeros(60))
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 160)
    assert exact_bias(f) == 1
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 159)
    with pytest.raises(DomainSizeError) as err:
        exact_bias(f)
    assert err.value.needed == 160


@st.composite
def matrix_stacks(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    B, r, c = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(0, 5))  # inner dimension: rank <= t
    stack = rng.integers(0, p, size=(B, r, t)) @ rng.integers(0, p, size=(B, t, c))
    return p, stack % p


@settings(max_examples=150, deadline=None)
@given(matrix_stacks())
def test_rank_many_matches_rank(case):
    p, stack = case
    got = linalg.rank_many(stack, p)
    assert got.shape == (stack.shape[0],)
    assert got.tolist() == [_rank_oracle(M, p) for M in stack]
