"""Every resource refusal goes through `Shape.guard`, which reads its limit
when it is called: a lowered module constant takes effect everywhere at once."""

import numpy as np
import pytest

from rankforge import analytic, convolutions, forms, partition, polarization, varieties
from rankforge.errors import DomainSizeError
from rankforge.forms import MultiaffineMap, MultilinearMap, Shape, random_multiaffine, random_multilinear

# (2,(2,2,3)) has 128 points; its slice stack, 2^2 points of the smallest
# coordinate times (3 + 1) x (2 + 1) slices, has 48 entries
SHAPE = Shape(2, (2, 2, 3))
FORM = random_multilinear(SHAPE, 1, [40, 0])
AFFINE = random_multiaffine(SHAPE, 1, [40, 1])
VARIETY = varieties.Variety(random_multiaffine(SHAPE, 2, [40, 2]))
HYPERPLANE = varieties.Variety(random_multiaffine(SHAPE, 1, [40, 5]))
LAYERS = varieties.LayerFamily(VARIETY.defining_map, [(0, 0), (1, 0)])
# difference table 3^4 points; the amplification check counts its values from
# 3^2 values and a 3 x 3 pair count
POLY = polarization.PolyDense(3, 2, {(2, 0): 1, (1, 1): 2})
DECOMP = partition.monomial_decomposition(polarization.polarize(POLY).form)  # checked on 3^2 points


# CONV_GUARD prices each convolution and arrangement level by its route: a
# (2,(7,)) table of small entries takes two product passes, 128 * (16 + 8);
# past 4^7 M^2 = 2^53 it is gathered, 128 * 128, and so is every step at p = 3,
# 27 * 9 for the first coordinate of (3,(2,1))
LINE = Shape(2, (7,))
FULL_LINE = np.ones(LINE.sizes, dtype=bool)
SMALL = Shape(3, (2, 1))
FULL_SMALL = np.ones(SMALL.sizes, dtype=bool)


def _conv(shape, num=1, complex_values=False):
    t = convolutions.DomainTable(shape, num=np.full(shape.sizes, num, dtype=np.int64), den=1)
    if complex_values:
        t = convolutions.DomainTable(shape, cvals=t.to_complex())
    return convolutions.conv_dir(t, 1)


def _conv_check():
    Z = convolutions.zero_set_indicator(FORM)
    # the exceptional layers live on the coordinates other than the last one
    gamma = MultiaffineMap(Shape(2, (2, 2)), 1, {frozenset([1]): np.ones((2, 1), dtype=np.int64)})
    return convolutions.conv_approximation_check(Z, [3], [1.0], [FORM], varieties.LayerFamily(gamma, ()), 0.5)


CASES = {
    "value_table": (128, lambda: forms.value_table(AFFINE)),
    "scalar_table": (128, lambda: forms.scalar_table(AFFINE)),
    "zero_set_table": (128, lambda: forms.zero_set_table(AFFINE)),
    "value_histogram": (128, lambda: analytic.value_histogram(AFFINE)),
    "bias_report": (48, lambda: analytic.bias_report(AFFINE)),
    "bias": (48, lambda: analytic.bias(AFFINE)),
    "arank": (48, lambda: analytic.arank(FORM)),
    "exact_bias": (48, lambda: analytic.exact_bias(FORM)),
    "bias_homog_check": (48, lambda: analytic.bias_homog_check(AFFINE)),
    "chi_table": (128, lambda: analytic.chi_table(AFFINE)),
    "zero_set_indicator": (128, lambda: convolutions.zero_set_indicator(AFFINE)),
    "conv_approximation_check": (128, _conv_check),
    "lovett_lower_bound": (48, lambda: partition.lovett_lower_bound(FORM)),
    "prank_exact": (48, lambda: partition.prank_exact(FORM)),
    "prank_search": (48, lambda: partition.prank_search(FORM)),
    # the 7 reduced bases of the planes of F_2^3, 2 x 3 entries each
    "subspaces": (42, lambda: forms.subspaces(2, 3, 2)),
    "difference_table": (81, lambda: polarization.difference_table(POLY)),
    "PolyDense.table": (9, POLY.table),
    # n = 1: the p x D power table, 7 x 7, outgrows the 7 values
    "PolyDense.table power table": (49, polarization.PolyDense(7, 1, {(6,): 1}).table),
    "signed_sum_counts": (9, lambda: polarization.signed_sum_counts(POLY)),
    "cs_amplification_check": (9, lambda: polarization.cs_amplification_check(POLY)),
    "substitute_decomposition": (9, lambda: polarization.substitute_decomposition(DECOMP)),
    "Variety.table": (128, lambda: VARIETY.table()),
    "Variety.size": (128, lambda: VARIETY.size()),
    "LayerFamily.layer_tables": (128, lambda: list(LAYERS.layer_tables())),
    "LayerFamily.union_table": (128, lambda: LAYERS.union_table()),
    # p^m = 4 character sums for VARIETY, over 3 lines of a 48-entry slice
    # stack each: the sums are refused first.  Counting VARIETY's density would
    # take 3 * 48 = 144 entries, more than its 128 points, so it is enumerated
    # under any guard that admits 144; HYPERPLANE's is counted from one line
    "level_set_count": (4, lambda: analytic.level_set_count(VARIETY.defining_map, (0, 0))),
    "density": (48, lambda: varieties.density(HYPERPLANE)),
    "density_bound_check": (48, lambda: varieties.density_bound_check(HYPERPLANE)),
    "bohr_external": (128, lambda: varieties.bohr_external(AFFINE, 1, [40, 3])),
    "bohr_external_sim": (128, lambda: varieties.bohr_external_sim([AFFINE], 1, [40, 4])),
    "approximation_error": (128, lambda: varieties.approximation_error(
        LAYERS, np.ones(SHAPE.sizes, dtype=bool), "external")),
    "multilinearize_variety": (128, lambda: varieties.multilinearize_variety(VARIETY, VARIETY.defining_map)),
    # a p^r x (r + 1) = 8 x 4 twist matrix for three full-support gammas
    "nonzero_conn_check": (32, lambda: varieties.nonzero_conn_check(FORM, [((1, 2, 3), FORM)] * 3)),
    "conv_dir products": (3072, lambda: _conv(LINE), "convolutions.CONV_GUARD"),
    "conv_dir gather of large entries": (16384, lambda: _conv(LINE, num=1 << 20), "convolutions.CONV_GUARD"),
    "conv_dir complex": (16384, lambda: _conv(LINE, complex_values=True), "convolutions.CONV_GUARD"),
    "conv_dir gather mod 3": (243, lambda: _conv(SMALL), "convolutions.CONV_GUARD"),
    "arrangement_count_tables products": (
        3072, lambda: convolutions.arrangement_count_tables(LINE, FULL_LINE, 1), "convolutions.CONV_GUARD"),
    "arrangement_count_tables": (
        243, lambda: convolutions.arrangement_count_tables(SMALL, FULL_SMALL, 2), "convolutions.CONV_GUARD"),
    "count_arrangements": (
        243, lambda: convolutions.count_arrangements(SMALL, FULL_SMALL, 2, (0, 0)), "convolutions.CONV_GUARD"),
    "sample_arrangement_in_set": (243, lambda: convolutions.sample_arrangement_in_set(
        SMALL, FULL_SMALL, 2, (0, 0), np.random.default_rng(0)), "convolutions.CONV_GUARD"),
    "arrangement_identity_check": (
        243, lambda: convolutions.arrangement_identity_check(SMALL, FULL_SMALL, 1, (0, 0)), "convolutions.CONV_GUARD"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lowered_enumeration_guard_refuses_one_point_over(monkeypatch, name):
    # each of these entry points reads its guard (forms.DEFAULT_ENUM_GUARD unless
    # named) at call time; a module that bound it at import would still admit the input
    needed, call, *named = CASES[name]
    constant = named[0] if named else "forms.DEFAULT_ENUM_GUARD"
    module, attr = constant.split(".")
    monkeypatch.setattr({"forms": forms, "convolutions": convolutions}[module], attr, needed - 1)

    def built(*args, **kwargs):
        raise AssertionError("convolution table built before the guard")

    for table in ["_product_autocorrelation", "_gather_autocorrelation", "addition_table"]:
        monkeypatch.setattr(convolutions, table, built)
    with pytest.raises(DomainSizeError) as err:
        call()
    assert (err.value.needed, err.value.limit) == (needed, needed - 1)
    assert constant in str(err.value)


def test_k1_level_set_slice_stacks_are_counted(monkeypatch):
    # a k = 1 map on (2,(23,)) into F_2^20: 2^20 - 1 lines, each one slice of
    # (23 + 1) x 1 entries, are refused under the default guard before any
    # stack is built (the M blocks alone, 23 x 0, counted nothing)
    f = random_multiaffine(Shape(2, (23,)), 20, [40, 6])

    def built(*args, **kwargs):
        raise AssertionError("slice stack built before the guard")

    monkeypatch.setattr(analytic, "_slice_stack", built)
    with pytest.raises(DomainSizeError) as err:
        analytic.level_set_count(f, (0,) * 20)
    assert (err.value.needed, err.value.limit) == ((2 ** 20 - 1) * 24, forms.DEFAULT_ENUM_GUARD)
    assert "level set slice stacks" in str(err.value)


@pytest.mark.parametrize("name", ["connectivity", "nonzero_conn_check"])
def test_lowered_traversal_guard_refuses_one_point_over(monkeypatch, name):
    call = {
        "connectivity": lambda: varieties.connectivity(SHAPE, np.ones(SHAPE.sizes, dtype=bool)),
        "nonzero_conn_check": lambda: varieties.nonzero_conn_check(FORM, []),
    }[name]
    monkeypatch.setattr(varieties, "TRAVERSAL_GUARD", 127)
    with pytest.raises(DomainSizeError) as err:
        call()
    assert (err.value.needed, err.value.limit) == (128, 127)
    assert "varieties.TRAVERSAL_GUARD" in str(err.value)


P_MERSENNE = 2 ** 61 - 1


@pytest.mark.parametrize("name", ["value_histogram", "bias_report", "bias", "arank", "exact_bias",
                                  "bias_homog_check", "chi_table", "cs_amplification_check"])
def test_large_prime_refused_before_any_p_sized_table(monkeypatch, name):
    # every entry point that would build an O(p) table (a character table, or
    # counts with one bin per field element) refuses p = 2^61 - 1 first
    def no_characters(p):
        raise AssertionError("character table built before the guard")

    monkeypatch.setattr(analytic, "characters", no_characters)
    monkeypatch.setattr(polarization, "characters", no_characters)
    line = MultilinearMap(Shape(P_MERSENNE, (1,)), 1, np.ones((1, 1), dtype=np.int64))
    affine = MultiaffineMap(line.shape, 1, {frozenset([1]): np.ones((1, 1), dtype=np.int64),
                                            frozenset(): np.ones(1, dtype=np.int64)})
    call = {
        "value_histogram": lambda: analytic.value_histogram(line),
        "bias_report": lambda: analytic.bias_report(affine),
        "bias": lambda: analytic.bias(affine),
        "arank": lambda: analytic.arank(line),
        "exact_bias": lambda: analytic.exact_bias(line),
        "bias_homog_check": lambda: analytic.bias_homog_check(affine),
        "chi_table": lambda: analytic.chi_table(line),
        "cs_amplification_check": lambda: polarization.cs_amplification_check(
            polarization.PolyDense(P_MERSENNE, 1, {(2,): 1})),
    }[name]
    with pytest.raises((DomainSizeError, OverflowError)):
        call()


def test_cs_check_pair_count_refused_before_any_p_sized_table(monkeypatch):
    # at n = 1 the degree-2 value table has p <= 2^22 points, but the pair count
    # gathers p^2: it is refused before f is evaluated or any p- or p^2-sized
    # table (values, histogram, addition table, characters) is built
    def built(*args, **kwargs):
        raise AssertionError("table built before the pair-count guard")

    for name in ["characters", "difference_table", "autocorrelate", "contract", "addition_table"]:
        monkeypatch.setattr(polarization, name, built)
    monkeypatch.setattr(analytic, "characters", built)
    monkeypatch.setattr(polarization.PolyDense, "table", built)
    p = 4194301  # the largest prime below 2^22
    with pytest.raises(DomainSizeError) as err:
        polarization.cs_amplification_check(polarization.PolyDense(p, 1, {(2,): 1}))
    assert (err.value.needed, err.value.limit) == (p * p, forms.DEFAULT_ENUM_GUARD)
