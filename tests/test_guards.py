"""Every resource refusal goes through `Shape.guard`, which reads its limit
when it is called: a lowered module constant takes effect everywhere at once."""

import numpy as np
import pytest

from rankforge import analytic, convolutions, forms, partition, polarization, varieties
from rankforge.errors import DomainSizeError
from rankforge.forms import MultiaffineMap, MultilinearMap, Shape, random_multiaffine, random_multilinear

# (2,(2,2,3)) has 128 points; its slice stack, 2^2 points of the smallest
# coordinate times 3 x 2 slices, has 24 entries
SHAPE = Shape(2, (2, 2, 3))
FORM = random_multilinear(SHAPE, 1, [40, 0])
AFFINE = random_multiaffine(SHAPE, 1, [40, 1])
VARIETY = varieties.Variety(random_multiaffine(SHAPE, 2, [40, 2]))
LAYERS = varieties.LayerFamily(VARIETY.defining_map, [(0, 0), (1, 0)])
# difference table 3^4 points; the amplification check counts its values from
# 3^2 values and a 3 x 3 pair count
POLY = polarization.PolyDense(3, 2, {(2, 0): 1, (1, 1): 2})
DECOMP = partition.monomial_decomposition(polarization.polarize(POLY).form)  # checked on 3^2 points


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
    "bias_report": (24, lambda: analytic.bias_report(AFFINE)),
    "bias": (24, lambda: analytic.bias(AFFINE)),
    "arank": (24, lambda: analytic.arank(FORM)),
    "exact_bias": (24, lambda: analytic.exact_bias(FORM)),
    "bias_homog_check": (24, lambda: analytic.bias_homog_check(AFFINE)),
    "chi_table": (128, lambda: analytic.chi_table(AFFINE)),
    "zero_set_indicator": (128, lambda: convolutions.zero_set_indicator(AFFINE)),
    "conv_approximation_check": (128, _conv_check),
    "lovett_lower_bound": (24, lambda: partition.lovett_lower_bound(FORM)),
    "prank_exact": (24, lambda: partition.prank_exact(FORM)),
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
    # p^m = 4 character sums for VARIETY, over 3 lines of a 24-entry slice
    # stack each: the sums are refused first, and a density at 3 * 24 = 72
    "level_set_count": (4, lambda: analytic.level_set_count(VARIETY.defining_map, (0, 0))),
    "density": (72, lambda: varieties.density(VARIETY)),
    "density_bound_check": (72, lambda: varieties.density_bound_check(VARIETY)),
    "bohr_external": (128, lambda: varieties.bohr_external(AFFINE, 1, [40, 3])),
    "bohr_external_sim": (128, lambda: varieties.bohr_external_sim([AFFINE], 1, [40, 4])),
    "approximation_error": (128, lambda: varieties.approximation_error(
        LAYERS, np.ones(SHAPE.sizes, dtype=bool), "external")),
    "multilinearize_variety": (128, lambda: varieties.multilinearize_variety(VARIETY, VARIETY.defining_map)),
    # a p^r x (r + 1) = 8 x 4 twist matrix for three full-support gammas
    "nonzero_conn_check": (32, lambda: varieties.nonzero_conn_check(FORM, [((1, 2, 3), FORM)] * 3)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lowered_enumeration_guard_refuses_one_point_over(monkeypatch, name):
    # each of these entry points reads forms.DEFAULT_ENUM_GUARD at call time;
    # a module that bound it at import would still admit the input
    needed, call = CASES[name]
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", needed - 1)
    with pytest.raises(DomainSizeError) as err:
        call()
    assert (err.value.needed, err.value.limit) == (needed, needed - 1)
    assert "forms.DEFAULT_ENUM_GUARD" in str(err.value)


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
    def no_field(p):
        raise AssertionError("character table built before the guard")

    monkeypatch.setattr(analytic, "PrimeField", no_field)
    monkeypatch.setattr(polarization, "PrimeField", no_field)
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

    for name in ["PrimeField", "difference_table", "autocorrelate", "contract", "addition_table"]:
        monkeypatch.setattr(polarization, name, built)
    monkeypatch.setattr(polarization.PolyDense, "table", built)
    p = 4194301  # the largest prime below 2^22
    with pytest.raises(DomainSizeError) as err:
        polarization.cs_amplification_check(polarization.PolyDense(p, 1, {(2,): 1}))
    assert (err.value.needed, err.value.limit) == (p * p, forms.DEFAULT_ENUM_GUARD)
