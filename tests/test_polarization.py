import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge import analytic, forms, polarization
from rankforge.analytic import CHI_TOL, ValueHistogram, exact_bias
from rankforge.cli import main
from rankforge.errors import DomainSizeError
from rankforge.forms import characters, digit_matrix
from rankforge.partition import prank_exact
from rankforge.polarization import (
    AmplificationReport,
    PolyDense,
    cs_amplification_check,
    difference_table,
    polarize,
    signed_sum_counts,
    substitute_decomposition,
)


def all_points(p, n):
    return [np.array(v, dtype=np.int64) for v in product(range(p), repeat=n)]


def random_homogeneous(p, n, d, seed):
    rng = np.random.default_rng(seed)
    exps = [e for e in product(range(p), repeat=n) if sum(e) == d]
    terms = {e: int(rng.integers(0, p)) for e in exps}
    return PolyDense(p, n, terms)


def test_poly_validation():
    with pytest.raises(ValueError):
        PolyDense(4, 2, {})
    with pytest.raises(ValueError):
        PolyDense(3, 2, {(3, 0): 1})
    f = PolyDense(3, 2, {(1, 1): 1, (2, 0): 0})
    assert f.terms == {(1, 1): 1}
    assert f.degree == 2


def test_poly_evaluate_matches_naive():
    f = PolyDense(5, 2, {(2, 1): 3, (1, 0): 2, (0, 0): 4})
    for x in all_points(5, 2):
        naive = (3 * x[0] ** 2 * x[1] + 2 * x[0] + 4) % 5
        assert f.evaluate(x) == naive
    X = np.vstack(all_points(5, 2))
    assert np.array_equal(f.evaluate_many(X), [f.evaluate(x) for x in X])


def test_evaluate_many_exact_past_int64():
    # products of two residues past 2^63 are formed in Python integers; they wrapped
    # to 0 in int64 at p = 2^61 - 1
    p = 2 ** 61 - 1
    f = PolyDense(p, 1, {(2,): 1})
    assert f.evaluate_many(np.array([[2 ** 60]])).tolist() == [f.evaluate([2 ** 60])] == [2 ** 59]
    g = PolyDense(p, 2, {(3, 1): p - 1, (0, 2): 5, (0, 0): p - 2})
    X = np.array([[p - 1, p - 2], [2 ** 60, 3], [0, 0], [1, p - 1]])
    assert g.evaluate_many(X).dtype == np.int64
    assert g.evaluate_many(X).tolist() == [g.evaluate(x) for x in X]
    # below the bound the int64 route is unchanged
    h = PolyDense(3037000493, 1, {(2,): 2, (1,): 1})
    assert h.evaluate_many(np.array([[3037000492]])).tolist() == [(2 + 3037000492) % 3037000493]


def test_polarize_square_over_f3():
    f = PolyDense(3, 1, {(2,): 1})
    sym = polarize(f)
    assert sym.d == 2
    # alpha(x, y) = xy
    assert sym.form.evaluate([(1,), (1,)])[0] == 1
    assert sym.form.evaluate([(2,), (1,)])[0] == 2
    assert sym.check_symmetry()
    assert sym.diagonal().terms == f.terms


def test_polarize_product_over_f5():
    f = PolyDense(5, 3, {(1, 1, 1): 1})
    sym = polarize(f)
    assert sym.check_symmetry()
    # round trip exact on all 125 points
    diag = sym.diagonal()
    X = np.vstack(all_points(5, 3))
    assert np.array_equal(diag.evaluate_many(X), f.evaluate_many(X))


def test_polarize_zero_and_linear():
    z = polarize(PolyDense(3, 2, {}))
    assert z.form.is_zero()
    lin = PolyDense(3, 2, {(1, 0): 2})
    sym = polarize(lin)
    assert sym.d == 1
    assert sym.diagonal().terms == lin.terms


def test_polarize_characteristic_error():
    with pytest.raises(ValueError):
        polarize(PolyDense(2, 1, {(1,): 1}), degree=2)
    # degree 2 over F_2 is not polarizable (d < p fails)
    with pytest.raises(ValueError):
        cs_amplification_check(PolyDense(2, 2, {(1, 1): 1}))
    # but d = 2 < 3 is fine
    cs_amplification_check(PolyDense(3, 1, {(2,): 1}))


def test_polarize_round_trip_random():
    for seed in range(20):
        p, n, d = [(3, 2, 2), (5, 2, 2), (5, 2, 3), (3, 3, 2)][seed % 4]
        f = random_homogeneous(p, n, d, [91, seed])
        sym = polarize(f, d)
        assert sym.check_symmetry()
        X = np.vstack(all_points(p, n))
        assert np.array_equal(sym.diagonal().evaluate_many(X), f.evaluate_many(X))


def test_polarize_symmetry_all_permutations_d3():
    from itertools import permutations

    f = random_homogeneous(5, 2, 3, 17)
    sym = polarize(f, 3)
    C = sym.form.coeffs[..., 0]
    for perm in permutations(range(3)):
        assert np.array_equal(C, C.transpose(perm))


def _polarize_oracle(f, d):
    """Coefficients of the polarized form, one signed subset sum per basis tuple,
    with one `PolyDense.evaluate` call per subset point."""
    n, p = f.n, f.p
    top = f.top_part(d)
    coeffs = np.zeros((n,) * d + (1,), dtype=np.int64)
    inv_fact = pow(math.factorial(d) % p, p - 2, p)
    subsets = [[]]
    for i in range(d):
        subsets += [s + [i] for s in subsets]
    for idx in np.ndindex(*(n,) * d):
        total = 0
        for S in subsets:
            if not S:
                continue  # top part vanishes at 0
            x = np.zeros(n, dtype=np.int64)
            for i in S:
                x[idx[i]] += 1
            sign = 1 if (d - len(S)) % 2 == 0 else p - 1
            total = (total + sign * top.evaluate(x)) % p
        coeffs[idx + (0,)] = total * inv_fact % p
    return coeffs


@st.composite
def poly_to_polarize(draw):
    p, n, d = draw(st.sampled_from([(3, 2, 2), (3, 3, 2), (5, 2, 3), (5, 3, 3), (7, 2, 4),
                                    (7, 3, 1), (11, 1, 10), (13, 1, 12)]))
    exps = st.tuples(*[st.integers(0, p - 1)] * n)
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=6))
    return PolyDense(p, n, terms), d


@settings(max_examples=50, deadline=None)
@given(poly_to_polarize())
@example((PolyDense(7, 2, {(1, 1): 1, (0, 1): 5}), 4))  # d > f.degree: the zero form
@example((PolyDense(7, 2, {(3, 1): 2, (1, 1): 3, (0, 1): 1}), 2))  # d < f.degree: the degree-2 part
@example((PolyDense(13, 1, {(12,): 3, (5,): 1}), 12))  # n = 1, d = 12
@example((PolyDense(13, 1, {(7,): 2}), 7))
@example((PolyDense(5, 3, {(1, 1, 1): 1, (2, 0, 1): 3, (0, 2, 0): 4}), 3))
def test_polarize_matches_loop_oracle(case):
    f, d = case
    coeffs = polarize(f, d).form.coeffs
    oracle = _polarize_oracle(f, d)
    assert coeffs.dtype == oracle.dtype and np.array_equal(coeffs, oracle)


def test_polarize_guards(tmp_path):
    # n^d = 4096 coefficient tuples are admitted for n = 2, d = 12, but the
    # form's domain 13^24 is past 2^63: refused before `Shape`, with exit 3
    f = PolyDense(13, 2, {(6, 6): 1})
    with pytest.raises(OverflowError):
        polarize(f)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"p": 13, "n": 2, "terms": [{"exp": [6, 6], "c": 1}]}))
    assert main(["polarize", "--poly", str(path)]) == 3
    # one variable, degree 1: the domain p < 2^63 is admitted for p past 2^31.5
    # (2^32 + 15 is prime), and the form is f's one coefficient
    sym = polarize(PolyDense(2 ** 32 + 15, 1, {(1,): 5}))
    assert sym.form.coeffs.tolist() == [[5]]
    with pytest.raises(DomainSizeError) as err:
        polarize(PolyDense(3, 2 ** 7 + 1, {}), degree=2)
    assert err.value.needed == (2 ** 7 + 1) ** 2


def test_difference_table_zero_poly_mean():
    # f = x^2 over F_3: signed sum is f(x+y) - f(x) with mean checked by hand
    f = PolyDense(3, 1, {(2,): 1})
    table = difference_table(f, 2)
    chi = characters(3)
    counts = np.bincount(table, minlength=3).astype(float)
    mid = (counts * chi).sum() / table.size
    # direct double loop oracle
    acc = 0j
    for x in range(3):
        for y in range(3):
            acc += chi[((x + y) ** 2 - x ** 2) % 3]
    assert mid == pytest.approx(acc / 9)


def _subset_sum_oracle(f, d):
    """The signed subset sum evaluated point by point: one pass of f over all
    of F_p^(nd) per subset S of [d-1]."""
    p, n = f.p, f.n
    pts = digit_matrix(p, n * d)
    x = pts[:, :n]
    ys = [pts[:, n * (i + 1) : n * (i + 2)] for i in range(d - 1)]
    out = np.zeros(pts.shape[0], dtype=np.int64)
    subsets = [[]]
    for i in range(d - 1):
        subsets += [s + [i] for s in subsets]
    for S in subsets:
        shift = x.copy()
        for i in S:
            shift = shift + ys[i]
        sign = 1 if (d - 1 - len(S)) % 2 == 0 else p - 1
        out = (out + sign * f.evaluate_many(shift % p)) % p
    return out


@st.composite
def poly_and_degree(draw):
    p, n, d = draw(st.sampled_from([(3, 2, 2), (3, 3, 2), (5, 2, 2), (5, 3, 2), (5, 2, 3),
                                    (7, 2, 2), (7, 2, 3), (5, 2, 4)]))
    exps = st.tuples(*[st.integers(0, p - 1)] * n)
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=5))
    return PolyDense(p, n, terms), d


@settings(max_examples=40, deadline=None)
@given(poly_and_degree())
@example((PolyDense(5, 2, {(2, 1): 3, (1, 0): 2, (0, 0): 4}), 4))
@example((PolyDense(7, 2, {(1, 1): 1, (0, 1): 5}), 3))  # d > f.degree
@example((PolyDense(5, 2, {(2, 1): 3, (1, 0): 2}), 1))  # d = 1: f's value table
def test_difference_table_matches_oracle(case):
    f, d = case
    table = difference_table(f, d)
    oracle = _subset_sum_oracle(f, d)
    assert table.dtype == oracle.dtype and np.array_equal(table, oracle)


@settings(max_examples=40, deadline=None)
@given(poly_and_degree())
@example((PolyDense(2, 4, {(1, 1, 0, 1): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1}), 1))
@example((PolyDense(3, 3, {(2, 2, 2): 2, (1, 0, 2): 1}), 1))
@example((PolyDense(5, 2, {(4, 3): 4, (0, 4): 1}), 1))
@example((PolyDense(7, 2, {(6, 6): 3, (5, 0): 6, (0, 1): 1}), 1))
@example((PolyDense(101, 2, {(100, 7): 55, (3, 100): 1, (0, 0): 9}), 1))
@example((PolyDense(5, 3, {}), 1))  # the zero polynomial
@example((PolyDense(7, 2, {(0, 0): 4}), 1))  # a constant
@example((PolyDense(13, 1, {(12,): 5}), 1))  # n = 1, exponent p - 1
def test_table_matches_evaluate_many(case):
    f, _ = case
    table = f.table()
    oracle = f.evaluate_many(digit_matrix(f.p, f.n))
    assert table.dtype == oracle.dtype and np.array_equal(table, oracle)


@settings(max_examples=40, deadline=None)
@given(poly_and_degree())
@example((PolyDense(5, 2, {(2, 1): 3, (1, 0): 2, (0, 0): 4}), 4))
@example((PolyDense(7, 2, {(1, 1): 1, (0, 1): 5}), 3))  # d > f.degree
@example((PolyDense(5, 2, {(1, 1): 1, (0, 1): 3}), 4))
@example((PolyDense(101, 1, {(3,): 7, (2,): 50, (1,): 1}), 3))  # n = 1: a p x p pair count
@example((PolyDense(11, 1, {(4,): 2, (3,): 9, (0,): 1}), 4))
@example((PolyDense(5, 3, {}), 3))  # the zero polynomial: every sum is 0
@example((PolyDense(2, 3, {(1, 1, 1): 1, (1, 0, 0): 1}), 3))  # p = 2: the Hadamard route
def test_signed_sum_counts_match_difference_table(case):
    f, d = case
    counts = signed_sum_counts(f, d)
    oracle = np.bincount(difference_table(f, d), minlength=f.p)
    assert counts.dtype == oracle.dtype and np.array_equal(counts, oracle)


def test_signed_sum_counts_degree():
    f = PolyDense(5, 2, {(2, 1): 3})
    assert np.array_equal(signed_sum_counts(f), np.bincount(difference_table(f, 3), minlength=5))
    with pytest.raises(ValueError):
        signed_sum_counts(f, 1)
    with pytest.raises(ValueError):
        difference_table(f, 0)


def test_difference_table_layout():
    # f = x_0^2 x_1 + 3 x_1 over F_5; x = (1, 2) takes the lowest digits, y = (4, 3)
    f = PolyDense(5, 2, {(2, 1): 1, (0, 1): 3})
    table = difference_table(f, 2)
    assert table[1 + 5 * 2 + 25 * 4 + 125 * 3] == (f.evaluate([0, 0]) - f.evaluate([1, 2])) % 5 == 2


def test_difference_table_guard(monkeypatch):
    f = PolyDense(5, 2, {(2, 1): 1})
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 5 ** 6)
    assert difference_table(f, 3).size == 5 ** 6
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 5 ** 6 - 1)
    with pytest.raises(DomainSizeError):
        difference_table(f, 3)


def test_amplification_example_f3_xy():
    f = PolyDense(3, 2, {(1, 1): 1})
    rep = cs_amplification_check(f)
    assert rep.abs_bias_power == pytest.approx(1 / 9)
    assert rep.signed_sum_mean == pytest.approx(1 / 9)
    assert rep.form_bias == Fraction(1, 9)
    assert rep.ok


def test_amplification_zero_poly():
    rep = cs_amplification_check(PolyDense(3, 2, {}))
    assert rep.ok and rep.form_bias == 1


def _enumerated_amplification(f):
    """The amplification check with the signed sum enumerated on all p^(nd)
    points of `difference_table`, as it was before its values were counted."""
    d, p, n = f.degree, f.p, f.n
    diffs = difference_table(f, d)
    fvals = f.evaluate_many(digit_matrix(p, n))
    bias_f = complex(characters(p)[fvals].mean())
    c_pow = abs(bias_f) ** (1 << (d - 1))
    counts = np.bincount(diffs, minlength=p)
    mid = ValueHistogram(p, tuple(counts.tolist()), diffs.size).chi_average()
    b_alpha = exact_bias(polarize(f, d).form)
    ok = c_pow <= mid.real + CHI_TOL and float(b_alpha) >= abs(bias_f) ** (1 << (2 * d - 2)) - CHI_TOL
    return AmplificationReport(c_pow, mid.real, b_alpha, ok)


def _poly_of_each_degree(rng, p, n, d, per_degree=2):
    """`per_degree` seeded monomials of each degree 1..d."""
    terms = {}
    for k in range(1, d + 1):
        mons = [e for e in product(range(p), repeat=n) if sum(e) == k]
        for i in rng.choice(len(mons), size=min(per_degree, len(mons)), replace=False):
            terms[mons[i]] = int(rng.integers(1, p))
    return PolyDense(p, n, terms)


@pytest.mark.parametrize("shape", [(3, 3, 2), (3, 4, 2), (5, 3, 2), (5, 2, 3), (7, 3, 2),
                                   (7, 2, 3), (5, 2, 4), (5, 3, 3)])
def test_counted_amplification_matches_enumerated(shape):
    # every field equal, floats compared by ==: the counts, and so every float
    # computed from them, are the same as the enumerated route's
    p, n, d = shape
    for seed in range(4):
        rng = np.random.default_rng([211, p, n, d, seed])
        for f in (_poly_of_each_degree(rng, p, n, d), random_homogeneous(p, n, d, [212, seed])):
            if f.degree < 2:
                continue
            rep, oracle = cs_amplification_check(f), _enumerated_amplification(f)
            assert rep == oracle and rep.ok
            assert (rep.abs_bias_power, rep.signed_sum_mean) == (oracle.abs_bias_power, oracle.signed_sum_mean)


def test_amplification_past_the_difference_table_guard():
    # 5^12 points (x, y^1, y^2): the enumerated table is refused, the counts
    # need a 5^8 table and a 5^4 x 5 x 5 pair count
    f = _poly_of_each_degree(np.random.default_rng([213, 0]), 5, 4, 3)
    with pytest.raises(DomainSizeError):
        difference_table(f, 3)
    assert sum(signed_sum_counts(f).tolist()) == 5 ** 12
    assert cs_amplification_check(f).ok


def test_amplification_random():
    for seed in range(15):
        p, n, d = [(3, 2, 2), (5, 2, 2), (5, 1, 3), (3, 3, 2)][seed % 4]
        f = random_homogeneous(p, n, d, [93, seed])
        if f.is_zero() or f.degree < 2:
            continue
        assert cs_amplification_check(f).ok


def test_substitute_product_over_f5():
    f = PolyDense(5, 3, {(1, 1, 1): 1})
    sym = polarize(f)
    rep = prank_exact(sym.form, r_max=4)
    assert rep.exact and rep.prank == 3
    sub = substitute_decomposition(rep.witness)
    assert sub.ok
    # factors have degree < 3 and multiply back pointwise
    for b, g in sub.factors:
        assert b.degree < 3 and g.degree < 3


def test_substitute_rank1_product():
    # a partition-rank-1 form gives f as a product of two lower-degree polys
    f = PolyDense(3, 2, {(2, 0): 1})  # x_1^2 polarizes to x_1 y_1
    sym = polarize(f)
    rep = prank_exact(sym.form, r_max=3)
    assert rep.exact and rep.prank == 1
    sub = substitute_decomposition(rep.witness)
    assert len(sub.factors) == 1
    b, g = sub.factors[0]
    assert b.degree == 1 and g.degree == 1


def test_substitute_zero():
    f = PolyDense(3, 2, {})
    sym = polarize(f)
    rep = prank_exact(sym.form)
    sub = substitute_decomposition(rep.witness)
    assert sub.factors == ()


def test_cs_check_guard_before_character_table():
    # the pair count's guard refuses its p^2 gather before any O(p) table is built
    f = PolyDense(2 ** 61 - 1, 1, {(2,): 1})
    with pytest.raises(DomainSizeError):
        cs_amplification_check(f)


def test_cs_check_builds_one_character_table(monkeypatch):
    # |E chi(f)| and the signed-sum average read one cached table, the exact
    # bias reads none, and f is tabled once for both the signed sums and |E chi(f)|
    read, tabled = [], []

    def recorded(p):
        read.append(p)
        return characters(p)

    table = PolyDense.table
    monkeypatch.setattr(analytic, "characters", recorded)
    monkeypatch.setattr(polarization, "characters", recorded)
    monkeypatch.setattr(PolyDense, "table", lambda self: (tabled.append(self.p), table(self))[1])
    forms._characters.cache_clear()
    rep = cs_amplification_check(random_homogeneous(5, 2, 3, 7))
    assert rep.ok and read == [5, 5] and forms._characters.cache_info().misses == 1
    assert tabled == [5]
