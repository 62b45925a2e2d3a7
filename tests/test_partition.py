from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.analytic import exact_bias
from rankforge.forms import MultilinearMap, Shape, random_multilinear
from rankforge.partition import (
    bilinear_strong_decomposition,
    canonical_subsets,
    flatten,
    is_partition_rank_le1,
    lovett_lower_bound,
    matrix_rank,
    monomial_decomposition,
    prank_exact,
)


def form(p, dims, coeffs):
    sh = Shape(p, tuple(dims))
    return MultilinearMap(sh, 1, np.asarray(coeffs, dtype=np.int64).reshape(sh.dims + (1,)))


def xyz(p=2):
    return form(p, (1, 1, 1), [1])


def test_canonical_subsets():
    assert canonical_subsets(2) == [frozenset([1])]
    assert canonical_subsets(3) == [frozenset([1]), frozenset([1, 2]), frozenset([1, 3])]


def test_flatten_examples():
    I3 = form(2, (3, 3), np.eye(3))
    assert matrix_rank(flatten(I3, [1]), 2) == 3
    zero = form(2, (2, 2), np.zeros(4))
    assert matrix_rank(flatten(zero, [1]), 2) == 0
    f = xyz()
    for I in ([1], [2], [1, 2]):
        assert matrix_rank(flatten(f, I), 2) == 1


def test_rank_le1_detection():
    w = is_partition_rank_le1(xyz())
    assert w is not None
    assert w.subset == frozenset([1])
    # the witness reconstructs: beta(x) * gamma(y, z) = xyz
    from rankforge.partition import PartitionDecomposition

    assert PartitionDecomposition(xyz(), [w]).verify()
    I2 = form(2, (2, 2), np.eye(2))
    assert is_partition_rank_le1(I2) is None
    zero = form(2, (2, 2), np.zeros(4))
    assert is_partition_rank_le1(zero) is None


def test_prank_zero_form():
    rep = prank_exact(form(2, (2, 2), np.zeros(4)))
    assert rep.prank == 0 and len(rep.witness) == 0


def test_prank_examples():
    rep = prank_exact(form(2, (2, 2), np.eye(2)))
    assert rep.prank == 2
    assert rep.witness.verify()
    rep = prank_exact(xyz())
    assert rep.prank == 1


def test_prank_witness_canonical_identity2x2():
    rep = prank_exact(form(2, (2, 2), np.eye(2)))
    pairs = sorted(
        (tuple(s.beta.coeffs.reshape(-1)), tuple(s.gamma.coeffs.reshape(-1)))
        for s in rep.witness.summands
    )
    assert pairs == [((0, 1), (0, 1)), ((1, 0), (1, 0))]


def test_lovett_examples():
    assert lovett_lower_bound(form(2, (2, 2), np.zeros(4))) == 0
    assert lovett_lower_bound(form(2, (2, 2), np.eye(2))) == 2
    assert lovett_lower_bound(xyz()) == 1


def test_bilinear_ground_truth_exhaustive_2x2():
    # all 16 bilinear forms on F_2^2 x F_2^2: prank == matrix rank == arank
    sh = Shape(2, (2, 2))
    for code in range(16):
        M = np.array([(code >> t) & 1 for t in range(4)], dtype=np.int64).reshape(2, 2)
        f = form(2, (2, 2), M)
        r = matrix_rank(M, 2)
        rep = prank_exact(f)
        assert rep.exact and rep.prank == r
        assert exact_bias(f) == Fraction(1, 2 ** r)
        if rep.prank > 0:
            assert rep.witness.verify()


def test_sandwich_on_random_trilinear():
    for seed in range(20):
        f = random_multilinear(Shape(2, (2, 2, 2)), 1, [19, seed])
        rep = prank_exact(f, r_max=8)
        assert rep.exact
        assert rep.lovett_lower <= rep.prank
        assert rep.prank <= len(monomial_decomposition(f)) if not f.is_zero() else True


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 3))
def test_scalar_invariance(seed, p):
    f = random_multilinear(Shape(p, (2, 2)), 1, [23, seed])
    rep_f = prank_exact(f)
    for c in range(1, p):
        g = MultilinearMap(f.shape, 1, f.coeffs * c % p)
        rep_g = prank_exact(g)
        assert rep_g.prank == rep_f.prank
        # witness transport: scaling one factor of each summand
        if rep_f.witness is not None and rep_f.prank:
            from rankforge.partition import PartitionDecomposition, PartitionSummand

            moved = [
                PartitionSummand(
                    s.subset,
                    s.beta,
                    MultilinearMap(s.gamma.shape, 1, s.gamma.coeffs * c % p),
                )
                for s in rep_f.witness.summands
            ]
            assert PartitionDecomposition(g, moved).verify()


def test_budget_truncation_is_interval():
    f = random_multilinear(Shape(2, (2, 2, 2)), 1, [29, 1])
    rep = prank_exact(f, r_max=8, budget=1)
    if not rep.exact:
        assert rep.prank_lo <= rep.prank_hi
        assert rep.truncated_reason is not None
        assert rep.witness is not None  # the trivial upper-bound witness
        assert rep.witness.verify()


def test_oversized_candidate_space_falls_back():
    # dims large enough that neither side of the middle bipartition is
    # enumerable, with lovett telling the interval apart from a guess
    f = random_multilinear(Shape(5, (3, 3, 3)), 1, [31, 0])
    rep = prank_exact(f, r_max=2, budget=100)
    assert rep.prank_lo <= rep.prank_hi


def test_strong_decomposition_examples():
    I4 = form(2, (4, 4), np.eye(4))
    rep = bilinear_strong_decomposition(I4)
    assert rep.rank == 4 and rep.decomposition.verify()
    # rank-1 outer product
    u = np.array([1, 2, 0], dtype=np.int64)
    v = np.array([2, 1, 1], dtype=np.int64)
    f = form(3, (3, 3), np.outer(u, v) % 3)
    rep = bilinear_strong_decomposition(f)
    assert rep.rank == 1


def test_strong_decomposition_random_f3():
    for seed in range(20):
        f = random_multilinear(Shape(3, (4, 4)), 1, [37, seed])
        rep = bilinear_strong_decomposition(f, c=exact_bias(f))
        assert rep.decomposition.verify()
        assert rep.rank == matrix_rank(f.coeffs[..., 0], 3)
        assert rep.log_bound_ok


def test_strong_decomposition_needs_bilinear():
    with pytest.raises(ValueError):
        bilinear_strong_decomposition(xyz())


def candidate_tables_oracle(shape):
    """Every rank-1 summand table, enumerated pairwise (independent of the
    solver-based search path)."""
    from rankforge.forms import part_grid

    p, k = shape.p, shape.k
    out = []
    for I in canonical_subsets(k):
        comp = frozenset(range(1, k + 1)) - I
        nb = int(np.prod([shape.dims[i - 1] for i in sorted(I)]))
        ng = int(np.prod([shape.dims[i - 1] for i in sorted(comp)]))
        betas = []
        for flat in range(1, p ** nb):
            digits = np.array([(flat // p ** (nb - 1 - t)) % p for t in range(nb)], dtype=np.int64)
            if digits[np.flatnonzero(digits)[0]] != 1:
                continue
            bm = MultilinearMap(shape.sub(I), 1, digits.reshape(shape.sub(I).dims + (1,)))
            betas.append(part_grid(shape, I, bm.coeffs)[..., 0])
        for flatg in range(1, p ** ng):
            dg = np.array([(flatg // p ** (ng - 1 - t)) % p for t in range(ng)], dtype=np.int64)
            gm = MultilinearMap(shape.sub(comp), 1, dg.reshape(shape.sub(comp).dims + (1,)))
            gg = part_grid(shape, comp, gm.coeffs)[..., 0]
            for bg in betas:
                out.append(((bg * gg) % p).reshape(-1).astype(np.int8))
    return np.array(out)


def prank_oracle(f, cands, r_max=4):
    """Meet-in-the-middle minimum over explicit candidate sums."""
    from rankforge.forms import scalar_table

    p = f.shape.p
    target = scalar_table(f).reshape(-1).astype(np.int8)
    if not target.any():
        return 0
    n = len(cands)
    if ((cands == target[None, :]).all(axis=1)).any():
        return 1
    singles = {c.tobytes() for c in cands}
    diffs = ((target[None, :].astype(np.int16) - cands) % p).astype(np.int8)
    if any(row.tobytes() in singles for row in diffs):
        return 2
    if r_max < 3:
        return None
    pairsums = set()
    for i in range(n):
        s = ((cands[i][None, :].astype(np.int16) + cands[i + 1 :]) % p).astype(np.int8)
        for row in s:
            pairsums.add(row.tobytes())
    if any(row.tobytes() in pairsums for row in diffs):
        return 3
    if r_max < 4:
        return None
    for i in range(n):
        d2 = ((diffs[i][None, :].astype(np.int16) - cands[i + 1 :]) % p).astype(np.int8)
        if any(row.tobytes() in pairsums for row in d2):
            return 4
    return None


def test_prank_search_matches_independent_oracle_f3():
    sh = Shape(3, (2, 2, 2))
    cands = candidate_tables_oracle(sh)
    for seed in range(12):
        f = random_multilinear(sh, 1, [991, seed])
        expected = prank_oracle(f, cands)
        rep = prank_exact(f, r_max=5, budget=500_000)
        assert rep.exact and expected is not None
        assert rep.prank == expected


def test_prank_search_matches_oracle_bilinear_f3():
    sh = Shape(3, (3, 3))
    cands = candidate_tables_oracle(sh)
    for seed in range(8):
        f = random_multilinear(sh, 1, [997, seed])
        expected = prank_oracle(f, cands)
        rep = prank_exact(f, r_max=4, budget=500_000)
        assert rep.exact
        assert rep.prank == expected == matrix_rank(f.coeffs[..., 0], 3)


def test_prank_witness_deterministic_across_calls():
    f = random_multilinear(Shape(3, (2, 2, 2)), 1, [401, 3])
    a = prank_exact(f, r_max=5)
    b = prank_exact(f, r_max=5)
    assert a.prank == b.prank and a.nodes == b.nodes
    for sa, sb in zip(a.witness.summands, b.witness.summands):
        assert sa.subset == sb.subset
        assert np.array_equal(sa.beta.coeffs, sb.beta.coeffs)
        assert np.array_equal(sa.gamma.coeffs, sb.gamma.coeffs)
