import json
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankforge import forms, linalg, partition
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
    monomial_decomposition,
    pair_route_entries,
    prank_exact,
    prank_search,
)


def matrix_rank(M, p):
    """Rank mod p by row reduction over Python integers, apart from `linalg`."""
    rows = [[int(v) % p for v in row] for row in np.asarray(M)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def form(p, dims, coeffs):
    sh = Shape(p, tuple(dims))
    return MultilinearMap(sh, 1, np.asarray(coeffs, dtype=np.int64).reshape(sh.dims + (1,)))


def xyz(p=2):
    return form(p, (1, 1, 1), [1])


def diagonal(p, n):
    """x_1 y_1 z_1 + ... + x_n y_n z_n, of slice rank n at every p."""
    C = np.zeros((n, n, n), dtype=np.int64)
    C[range(n), range(n), range(n)] = 1
    return form(p, (n, n, n), C)


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
    rep = prank_search(f, r_max=8, budget=1)
    if not rep.exact:
        assert rep.prank_lo <= rep.prank_hi
        assert rep.truncated_reason is not None
        assert rep.witness is not None  # the trivial upper-bound witness
        assert rep.witness.verify()


def test_oversized_candidate_space_falls_back():
    # neither side of the bipartition {1,2} | {3,4} of (2,(4,4,4,4)) is enumerable
    # (2^16 - 1 factors each, past MODE_CAP), so the pool is incomplete and the
    # answer is an interval with the trivial witness, not a guess
    f = random_multilinear(Shape(2, (4, 4, 4, 4)), 1, [31, 0])
    assert not partition._build_pool(f.shape)[1]
    rep = prank_exact(f, r_max=2, budget=100)
    assert not rep.exact and rep.prank_lo <= rep.prank_hi
    assert rep.truncated_reason == "some bipartition has no desk-scale factor side"
    assert rep.witness.verify()


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
        return RankReport(0, 0, PartitionDecomposition(alpha, []), 0, 0)
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
                return RankReport(proven_lo, hi, trivial, lovett, used, "node budget exhausted", leaves)
            leaves += 1
            w = is_partition_rank_le1(alpha)
            found = [w] if w is not None else None
        else:
            for idxs in combinations(range(len(pool)), r):
                combo = [pool[i] for i in idxs]
                used += sum(e[3].shape[1] for e in combo)
                if used > budget:
                    return RankReport(proven_lo, hi, trivial, lovett, used, "node budget exhausted", leaves)
                leaves += 1
                x = linalg.solve(np.hstack([e[3] for e in combo]), target, p)
                if x is not None:
                    found = _oracle_witness(shape, combo, x)
                    break
        if found is not None:
            witness = PartitionDecomposition(alpha, found)
            size = len(witness)
            if complete or size == proven_lo:
                return RankReport(size, size, witness, lovett, used, leaves=leaves)
            return RankReport(proven_lo, size, witness, lovett, used,
                              "witness found but some bipartition was not enumerable", leaves)
        if r == 1 or complete:
            proven_lo = r + 1
    reason = None if proven_lo == hi else (
        f"search truncated at r_max={min(r_max, hi)}" if complete else "some bipartition has no desk-scale factor side"
    )
    return RankReport(proven_lo, hi, trivial, lovett, used, reason, leaves)


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
@example((2, (4, 4, 4)), 2, 7, 6_000)
@example((2, (4, 4, 4)), 3, 65, 10_000)
@example((2, (4, 4, 4)), None, 0, 3_000)  # spent inside the second child of a batch of 12
# starts at depth 3 (lovett 3), whose first prefix quotients have 125 - 50 = 75 rows: two words a column
@example((2, (5, 5, 5)), 3, 0, 8_000)
def test_prank_matches_per_leaf_oracle(shape, planted, seed, budget):
    p, dims = shape
    f = random_multilinear(Shape(p, dims), 1, [43, seed]) if planted is None else planted_form(p, dims, planted, seed)
    expected = prank_per_leaf_oracle(f, budget=budget)
    assert report_key(prank_search(f, budget=budget)) == report_key(expected)
    if expected.nodes > 1:
        # budgets ending exactly on the last leaf charged, and one unit short of it
        for b in (expected.nodes, expected.nodes - 1):
            assert report_key(prank_search(f, budget=b)) == report_key(prank_per_leaf_oracle(f, budget=b))


def test_prank_hit_on_two_word_quotients():
    # x1[4] g1(x2, x3) + x1[3] g2(x2, x3) on (2,(5,5,5)) is solved by the first
    # two factors of side {1} (codes 1 and 2); at depth 2 the quotient of the first
    # has 125 - 25 = 100 rows, packed two words to a column
    sh = Shape(2, (5, 5, 5))
    g = np.random.default_rng(53).integers(0, 2, (2, 5, 5))
    C = np.zeros((5, 5, 5), dtype=np.int64)
    C[4], C[3] = g
    f = MultilinearMap(sh, 1, C.reshape(sh.dims + (1,)))
    rep = prank_search(f)
    assert rep.exact and rep.prank == 2 and rep.witness.verify()
    assert report_key(rep) == report_key(prank_per_leaf_oracle(f))
    assert [sorted(s.subset) for s in rep.witness.summands] == [[1], [1]]


def test_leaf_chunk_across_prefixes_reads_every_side():
    # x1-factors u = (0,1,1) and (1,0,1), codes 3 and 5 of side {1}, times
    # random g_i: the first solvable leaf is (2, 4), after every leaf of kids 0
    # and 1 (1560 and 1559 of them).  At depth 2 a chunk of leaves begins inside
    # kid 1, on side {1,3}, and runs on into kid 2, whose leaves begin on side {1}
    sh = Shape(2, (3, 3, 3, 3))
    g = np.random.default_rng(59).integers(0, 2, (2, 27))
    C = (np.outer([0, 1, 1], g[0]) + np.outer([1, 0, 1], g[1])) % 2
    f = MultilinearMap(sh, 1, C.reshape(sh.dims + (1,)))
    rep = prank_exact(f)
    assert rep.exact and rep.prank == 2 and rep.leaves == 1560 + 1559 + 2
    assert sorted(s.beta.coeffs.reshape(-1).tolist() for s in rep.witness.summands) == [[0, 1, 1], [1, 0, 1]]
    assert report_key(rep) == report_key(prank_per_leaf_oracle(f))


def test_prank_leaves_counted_apart_from_units():
    f = random_multilinear(Shape(2, (3, 3, 4)), 1, [43, 2])
    rep = prank_search(f)
    assert rep.exact and rep.nodes > rep.leaves > 1
    assert report_key(rep) == report_key(prank_per_leaf_oracle(f))
    assert prank_search(xyz()).leaves == 1
    assert prank_search(form(2, (2, 2), np.zeros(4))).leaves == 0


def test_batch_size_changes_nothing(monkeypatch):
    # one leaf per elimination and one child quotient per product give the reports
    # of the default byte budget, found or cut short by the budget
    cases = [(planted_form(2, (4, 4, 4), 3, 65), DEFAULT_BUDGET), (planted_form(3, (3, 3, 3), 3, 1), DEFAULT_BUDGET),
             (random_multilinear(Shape(2, (4, 4, 4)), 1, [43, 0]), 3_000),
             (random_multilinear(Shape(2, (3, 3, 4)), 1, [43, 2]), DEFAULT_BUDGET)]
    default = [report_key(prank_search(f, budget=b)) for f, b in cases]
    monkeypatch.setattr(partition, "BATCH_BYTES", 1)
    assert [report_key(prank_search(f, budget=b)) for f, b in cases] == default


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


# ---------------------------------------------------------------------------
#  The pair route at k = 3, against the search
# ---------------------------------------------------------------------------

ROUTE_SHAPES = [(2, (2, 2, 2)), (3, (2, 2, 2)), (5, (2, 2, 2)), (2, (2, 3, 4)), (2, (3, 3, 3)), (3, (3, 3, 3)),
                (5, (2, 3, 3)), (2, (4, 3, 3)), (2, (4, 4, 4))]
ROUTE_ORACLE_BUDGET = 400_000  # settles random (2,(4,4,4)) forms, which 200,000 leaves as intervals


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ROUTE_SHAPES), st.sampled_from([None, 1, 2, 3]), st.integers(0, 10_000))
@example((2, (4, 4, 4)), None, 0)
@example((2, (4, 4, 4)), 3, 65)
@example((5, (2, 3, 3)), None, 3)
@example((3, (3, 3, 3)), 2, 1)
def test_pair_route_matches_search(shape, planted, seed):
    p, dims = shape
    f = random_multilinear(Shape(p, dims), 1, [61, seed]) if planted is None else planted_form(p, dims, planted, seed)
    rep = prank_exact(f)
    oracle = prank_search(f, r_max=8, budget=ROUTE_ORACLE_BUDGET)
    assert rep.exact and rep.lovett_lower == oracle.lovett_lower <= rep.prank_lo
    if oracle.exact:
        assert rep.prank == oracle.prank
    else:
        assert oracle.prank_lo <= rep.prank <= oracle.prank_hi
    assert len(rep.witness) == rep.prank and rep.witness.verify()
    if planted is not None:
        assert rep.prank <= planted


def test_pair_route_examples():
    # T = x1 y1 z1 + x2 y2 z2 + x3 y3 z3 (the diagonal tensor) has slice rank 3 at every p;
    # on (2,(5,5,5)) the route settles a random form the search leaves at [4, 64-69]
    for p in (2, 3):
        rep = prank_exact(diagonal(p, 3))
        assert rep.exact and rep.prank == 3 and rep.witness.verify()
    rep = prank_exact(random_multilinear(Shape(2, (5, 5, 5)), 1, [61, 0]))
    assert rep.exact and rep.prank == 5 and len(rep.witness) == 5 and rep.witness.verify()
    assert rep.nodes == rep.leaves == 0 and rep.pairs == 44_951
    # rank 1 is detected first, as one node and one leaf, and reads no pair
    rep = prank_exact(xyz())
    assert (rep.prank, rep.nodes, rep.leaves, rep.pairs) == (1, 1, 1, 0)


def test_pair_route_prices_shapes():
    guard = forms.DEFAULT_ENUM_GUARD
    assert pair_route_entries(Shape(2, (4, 4, 4))) == 37_524
    assert pair_route_entries(Shape(2, (5, 5, 5))) <= guard < pair_route_entries(Shape(2, (6, 6, 6)))
    assert pair_route_entries(Shape(3, (4, 4, 4))) <= guard < pair_route_entries(Shape(2, (10, 10, 10)))


def test_priced_out_forms_take_the_search(monkeypatch):
    # (2,(6,6,6)) is past the default guard; (2,(3,3,3)) is priced out by a guard one
    # entry short of its 993, which still admits the search's 27 x 36 quotient systems
    f = planted_form(2, (6, 6, 6), 3, 2)
    assert report_key(prank_exact(f, budget=3_000)) == report_key(prank_search(f, budget=3_000))
    g = random_multilinear(Shape(2, (3, 3, 3)), 1, [61, 1])
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", pair_route_entries(g.shape) - 1)
    rep = prank_exact(g)
    assert rep.pairs == 0 and rep.nodes > 1
    assert report_key(rep) == report_key(prank_search(g))
    # k = 2 and k = 4 forms never take the route
    for h in (random_multilinear(Shape(3, (3, 3)), 1, [61, 2]), random_multilinear(Shape(2, (2, 2, 2, 2)), 1, [61, 3])):
        assert report_key(prank_exact(h)) == report_key(prank_search(h))


def test_pair_route_batch_size_changes_nothing(monkeypatch):
    forms_ = [random_multilinear(Shape(2, (4, 4, 4)), 1, [61, 4]), planted_form(3, (3, 3, 3), 2, 5),
              planted_form(2, (3, 4, 4), 3, 6)]
    default = [report_key(prank_exact(f)) + (prank_exact(f).pairs,) for f in forms_]
    monkeypatch.setattr(partition, "BATCH_BYTES", 1)
    assert [report_key(prank_exact(f)) + (prank_exact(f).pairs,) for f in forms_] == default


def test_pair_route_remainder_is_a_lemma_violation(monkeypatch):
    # a basis of W_1^perp one form short projects onto more than W_1, and the
    # form does not vanish there
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda A, p: nullspace(A, p)[:-1])
    with pytest.raises(LemmaViolationError, match="does not vanish"):
        prank_exact(diagonal(2, 2))


def test_pair_route_short_witness_is_a_lemma_violation(monkeypatch):
    best_pair = partition._best_pair

    def understated(alpha, lovett):
        best, bases, pairs = best_pair(alpha, lovett)
        return best - 1, bases, pairs

    monkeypatch.setattr(partition, "_best_pair", understated)
    with pytest.raises(LemmaViolationError, match="witness of its rank 1"):
        prank_exact(diagonal(2, 2))


@settings(max_examples=75, deadline=None)
@given(st.sampled_from(ROUTE_SHAPES), st.data())
def test_pair_witness_at_any_pair(shape, data):
    # the projection gives a witness at every pair (W_1, W_2), not only at the minimizing one
    p, dims = shape
    f = random_multilinear(Shape(p, dims), 1, [61, data.draw(st.integers(0, 10_000))])
    a, b, c = sorted(range(3), key=lambda i: (dims[i], i))
    bases = []
    for n in (dims[a], dims[b]):
        S = forms.subspaces(p, n, data.draw(st.integers(0, n)))
        bases.append(S[data.draw(st.integers(0, len(S) - 1))])
    T = f.coeffs[..., 0].transpose(a, b, c)
    B1, B2 = bases
    rank = matrix_rank(np.einsum("ia,jb,abc->ijc", B1, B2, T).reshape(-1, dims[c]) % p, p)
    witness = PartitionDecomposition(f, partition._pair_witness(f, bases))
    assert witness.verify()
    assert len(witness) <= dims[a] - len(B1) + dims[b] - len(B2) + rank
    # the subsets hold coordinate 1, in the order {1}, {1,2}, {1,3}, and the linear factors are normalized
    order = [canonical_subsets(3).index(s.subset) for s in witness.summands]
    assert order == sorted(order)
    for s in witness.summands:
        linear = s.beta if s.subset == frozenset([1]) else s.gamma
        lead = linear.coeffs.ravel()[np.flatnonzero(linear.coeffs)[0]]
        assert linear.shape.k == 1 and lead == 1
