import json
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge import linalg
from rankforge.analytic import exact_bias
from rankforge.cli import main
from rankforge.errors import LemmaViolationError
from rankforge.forms import MultilinearMap, Shape, map_to_json, random_multilinear
from rankforge.partition import (
    DEFAULT_BUDGET,
    MODE_CAP,
    PartitionDecomposition,
    PartitionSummand,
    RankReport,
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


# ---------------------------------------------------------------------------
#  The per-leaf search, kept as the oracle of the prefix-batched one
# ---------------------------------------------------------------------------

def _oracle_pool(shape):
    """Every (subset, enum_on_subset, factor, block) entry, blocks materialized,
    in the search's pool order."""
    p, k = shape.p, shape.k
    entries, complete = [], True
    for I in canonical_subsets(k):
        Is = sorted(I)
        comp = [i for i in range(1, k + 1) if i not in I]
        nb = int(np.prod([shape.dims[i - 1] for i in Is]))
        ng = int(np.prod([shape.dims[i - 1] for i in comp]))
        count_I, count_C = (p ** nb - 1) // (p - 1), (p ** ng - 1) // (p - 1)
        if min(count_I, count_C) > MODE_CAP:
            complete = False
            continue
        on_subset = count_I <= count_C
        side_shape = shape.sub(I if on_subset else comp)
        n_side = nb if on_subset else ng
        for flat in range(1, p ** n_side):
            digits = np.array([(flat // p ** (n_side - 1 - t)) % p for t in range(n_side)], dtype=np.int64)
            if digits[np.flatnonzero(digits)[0]] != 1:
                continue
            factor = MultilinearMap(side_shape, 1, digits.reshape(side_shape.dims + (1,)))
            col = digits.reshape(-1, 1)
            raw = np.kron(col, np.eye(ng, dtype=np.int64)) if on_subset else np.kron(np.eye(nb, dtype=np.int64), col)
            tens = raw.reshape([shape.dims[i - 1] for i in Is + comp] + [raw.shape[1]])
            tens = tens.transpose(np.argsort(Is + comp).tolist() + [k])
            entries.append((I, on_subset, factor, tens.reshape(-1, raw.shape[1]) % p))
    return entries, complete


def _oracle_witness(shape, combo, x):
    p = shape.p
    summands, offset = [], 0
    for I, on_subset, factor, block in combo:
        chunk = x[offset : offset + block.shape[1]] % p
        offset += block.shape[1]
        if not chunk.any():
            continue
        if on_subset:
            gshape = shape.sub(frozenset(range(1, shape.k + 1)) - I)
            beta, gamma = factor, MultilinearMap(gshape, 1, chunk.reshape(gshape.dims + (1,)))
        else:
            bshape = shape.sub(I)
            lead = int(chunk[np.flatnonzero(chunk)[0]])
            beta = MultilinearMap(bshape, 1, (chunk * pow(lead, p - 2, p) % p).reshape(bshape.dims + (1,)))
            gamma = MultilinearMap(factor.shape, 1, factor.coeffs * lead % p)
        summands.append(PartitionSummand(I, beta, gamma))
    return summands


def prank_per_leaf_oracle(alpha, r_max=6, budget=DEFAULT_BUDGET):
    """The search as one `linalg.solve` per leaf, charging each leaf's unknowns
    before solving it; the witness and report rules are prank_exact's."""
    shape, p = alpha.shape, alpha.shape.p
    if alpha.is_zero():
        return RankReport(0, 0, True, PartitionDecomposition(alpha, []), 0, 0)
    lovett = lovett_lower_bound(alpha)
    trivial = monomial_decomposition(alpha)
    hi = len(trivial)
    pool, complete = _oracle_pool(shape)
    target = alpha.coeffs[..., 0].reshape(-1)
    used = leaves = 0
    proven_lo = start_r = max(lovett, 1)
    for r in range(start_r, min(r_max, hi) + 1):
        found = None
        if r == 1:
            used += 1
            if used > budget:
                return RankReport(proven_lo, hi, proven_lo == hi, trivial, lovett, used, "node budget exhausted", leaves)
            leaves += 1
            w = is_partition_rank_le1(alpha)
            found = [w] if w is not None else None
        else:
            for idxs in combinations(range(len(pool)), r):
                combo = [pool[i] for i in idxs]
                used += sum(e[3].shape[1] for e in combo)
                if used > budget:
                    return RankReport(proven_lo, hi, proven_lo == hi, trivial, lovett, used, "node budget exhausted", leaves)
                leaves += 1
                x = linalg.solve(np.hstack([e[3] for e in combo]), target, p)
                if x is not None:
                    found = _oracle_witness(shape, combo, x)
                    break
        if found is not None:
            witness = PartitionDecomposition(alpha, found)
            size = len(witness)
            if complete or size == proven_lo:
                return RankReport(size, size, True, witness, lovett, used, leaves=leaves)
            return RankReport(proven_lo, size, False, witness, lovett, used,
                              "witness found but some bipartition was not enumerable", leaves)
        if r == 1 or complete:
            proven_lo = r + 1
    reason = None if proven_lo == hi else (
        f"search truncated at r_max={min(r_max, hi)}" if complete else "some bipartition has no desk-scale factor side"
    )
    return RankReport(proven_lo, hi, proven_lo == hi, trivial, lovett, used, reason, leaves)


def planted_form(p, dims, rank, seed):
    """A sum of `rank` random summands beta(x_I) * gamma(x_[k]-I) over random canonical I."""
    sh = Shape(p, tuple(dims))
    rng = np.random.default_rng(seed)
    subsets = canonical_subsets(sh.k)
    total = np.zeros(sh.dims, dtype=np.int64)
    for _ in range(rank):
        I = subsets[rng.integers(len(subsets))]
        comp = frozenset(range(1, sh.k + 1)) - I
        b, g = sh.sub(I), sh.sub(comp)
        beta = MultilinearMap(b, 1, rng.integers(0, p, size=b.dims + (1,)))
        gamma = MultilinearMap(g, 1, rng.integers(0, p, size=g.dims + (1,)))
        total += PartitionSummand(I, beta, gamma).coeff_tensor(sh)
    return MultilinearMap(sh, 1, (total % p).reshape(sh.dims + (1,)))


def report_key(rep):
    summands = [] if rep.witness is None else [
        (sorted(s.subset), s.beta.coeffs.tolist(), s.gamma.coeffs.tolist()) for s in rep.witness.summands
    ]
    return (rep.prank_lo, rep.prank_hi, rep.exact, rep.nodes, rep.leaves, rep.truncated_reason,
            rep.lovett_lower, summands)


# shapes whose searches go past the first leaf: (2,(3,3,4)) has blocks of widths 12, 9 and 12
SEARCH_SHAPES = [(2, (2, 2, 2)), (3, (2, 2, 2)), (3, (3, 3)), (2, (4, 4)), (2, (3, 3, 3)), (2, (3, 3, 4)),
                 (3, (3, 3, 3)), (2, (2, 2, 3, 3)), (2, (3, 3, 3, 3))]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(SEARCH_SHAPES),
    st.sampled_from([None, 1, 2, 3]),
    st.integers(0, 10_000),
    st.integers(1, 6_000),
)
@example((2, (3, 3, 4)), 3, 0, 6_000)
@example((2, (3, 3, 4)), 2, 1, 6_000)
@example((3, (3, 3, 3)), None, 1, 6_000)
@example((2, (3, 3, 3, 3)), None, 0, 2_000)
def test_prank_matches_per_leaf_oracle(shape, planted, seed, budget):
    p, dims = shape
    f = random_multilinear(Shape(p, dims), 1, [43, seed]) if planted is None else planted_form(p, dims, planted, seed)
    expected = prank_per_leaf_oracle(f, budget=budget)
    assert report_key(prank_exact(f, budget=budget)) == report_key(expected)
    if expected.nodes > 1:
        # budgets ending exactly on the last leaf charged, and one unit short of it
        for b in (expected.nodes, expected.nodes - 1):
            assert report_key(prank_exact(f, budget=b)) == report_key(prank_per_leaf_oracle(f, budget=b))


def test_prank_leaves_counted_apart_from_units():
    f = random_multilinear(Shape(2, (3, 3, 4)), 1, [43, 2])
    rep = prank_exact(f)
    assert rep.exact and rep.nodes > rep.leaves > 1
    assert report_key(rep) == report_key(prank_per_leaf_oracle(f))
    assert prank_exact(xyz()).leaves == 1
    assert prank_exact(form(2, (2, 2), np.zeros(4))).leaves == 0


def test_solve_disagreement_is_a_lemma_violation(monkeypatch):
    monkeypatch.setattr(linalg, "solve", lambda A, b, p: None)
    with pytest.raises(LemmaViolationError):
        prank_exact(form(2, (2, 2), np.eye(2)))


def test_large_pool_is_not_materialized(tmp_path, capsys):
    # the materialized pool of (2,(10,10,10)) took 3069 blocks of 1000 x 100 entries (2.5 GB)
    f = random_multilinear(Shape(2, (10, 10, 10)), 1, [47, 0])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(map_to_json(f)))
    tracemalloc.start()
    try:
        code = main(["prank", "--map", str(path), "--rmax", "12", "--budget-nodes", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and not out["exact"] and out["truncated_reason"] == "node budget exhausted"
    assert out["prank_lo"] == out["lovett_lower"] >= 2
    assert out["nodes"] == 100 * out["prank_lo"]  # the first leaf, refused before any elimination
    assert peak < 64 * 2 ** 20
