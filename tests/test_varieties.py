from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankforge.varieties as V
from rankforge import analytic, forms, linalg
from rankforge.analytic import exact_bias, level_set_count
from rankforge.errors import DomainSizeError, LemmaViolationError
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    code_to_vec,
    compose_output,
    random_multiaffine,
    random_multilinear,
    slice_map,
    stack_maps,
    value_table,
    zero_set_table,
)
from rankforge.varieties import (
    LayerFamily,
    Variety,
    approximation_error,
    bohr_external,
    bohr_external_sim,
    connectivity,
    density,
    density_bound_check,
    eta_threshold,
    find_common_nonvanisher,
    multilinearize_variety,
    nonzero_conn_check,
    solvability_check,
)


def form(p, dims, coeffs):
    sh = Shape(p, tuple(dims))
    return MultilinearMap(sh, 1, np.asarray(coeffs, dtype=np.int64).reshape(sh.dims + (1,)))


# ---------------------------------------------------------------------------
#  density
# ---------------------------------------------------------------------------

def test_density_examples():
    # {x_1 . e_1 = 0} on F_2^2 x F_2^2
    sh = Shape(2, (2, 2))
    m = MultiaffineMap(sh, 1, {frozenset([1]): np.array([[1], [0]])})
    V = Variety(m)
    assert density(V) == Fraction(1, 2)
    assert density_bound_check(V).ok
    # full space: zero map of codimension 0 is not expressible; use a zero
    # 1-dimensional map with value 0 instead (codim 1, still full)
    full = Variety(MultiaffineMap(sh, 1, {}))
    assert density(full) == 1
    # empty: zero map with nonzero layer value
    empty = Variety(MultiaffineMap(sh, 1, {}), (1,))
    rep = density_bound_check(empty)
    assert rep.density == 0 and rep.ok


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_set_count_matches_enumerated_table(p, m):
    # the counted route against the enumerated membership grid, on multilinear
    # and multiaffine maps of arity 1 to 3 and random layers (zero included)
    rng = np.random.default_rng([44, p, m])
    for trial in range(12):
        k = 1 + trial % 3
        dims = tuple(int(n) for n in rng.integers(1, 4 if p < 5 else 3, size=k))
        make = random_multilinear if trial % 2 else random_multiaffine
        f = make(Shape(p, dims), m, [44, p, m, trial])
        value = tuple(int(t) for t in rng.integers(0, p, size=m)) if trial % 4 else (0,) * m
        assert level_set_count(f, value) == int(Variety(f, value).table().sum())


def test_level_set_count_checks_its_character_sums(monkeypatch):
    # every s.f on the 9 points of (3,(2,)) said to take the value 0 four times:
    # then A_0 - A_1 = 9 + 4 (12 - 9) = 21 over the 4 lines of F_3^2, not a
    # multiple of 3^2, which no level set gives
    f = random_multiaffine(Shape(3, (2,)), 2, [44, 0])
    monkeypatch.setattr(analytic, "slice_counts", lambda g, S: np.tile([4, 5, 0], (len(S), 1)))
    with pytest.raises(LemmaViolationError):
        level_set_count(f, (0, 0))
    # never the value 0: 9 + 4 (0 - 9) = -27 is a multiple of 3^2 but no count
    monkeypatch.setattr(analytic, "slice_counts", lambda g, S: np.tile([0, 9, 0], (len(S), 1)))
    with pytest.raises(LemmaViolationError):
        level_set_count(f, (0, 0))
    with pytest.raises(ValueError):
        level_set_count(f, (0, 0, 0))


def test_level_set_count_guards_every_histogram_at_once(monkeypatch):
    # a map into F_2^22 on 2^23 points: 2^22 - 1 lines, each a 12 x 11 slice
    # stack, are refused before any value is counted
    f = random_multiaffine(Shape(2, (12, 11)), 22, [45, 0])

    def no_counts(g, S):
        raise AssertionError("values counted before the guard")

    monkeypatch.setattr(analytic, "slice_counts", no_counts)
    with pytest.raises(DomainSizeError) as err:
        level_set_count(f, (0,) * 22)
    assert err.value.needed == (2 ** 22 - 1) * 12 * 11


def test_level_set_count_one_line_per_chunk(monkeypatch):
    # DEFAULT_ENUM_GUARD is lowered below two lines' slice stacks (each of
    # B (n_a + 1) (n_b + 1) entries), so every chunk of slice_counts holds one
    # line, and the counts still match the enumerated table
    cases = [((2, (1, 1, 1)), 3), ((2, (1, 1)), 2), ((2, (3,)), 2), ((2, (5,)), 3), ((3, (1, 1)), 1),
             ((2, (1, 2, 1)), 2)]
    sizes, real, full = [], linalg.reduce_many, forms.DEFAULT_ENUM_GUARD
    monkeypatch.setattr(analytic.linalg, "reduce_many",
                        lambda stack, p, n: sizes.append(len(stack)) or real(stack, p, n))
    for (p, dims), m in cases:
        shape = Shape(p, dims)
        for seed in range(3):
            f = (random_multiaffine if seed else random_multilinear)(shape, m, [46, seed])
            values = [tuple(int(t) for t in v) for v in product(range(p), repeat=m)]
            monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", full)
            want = [Variety(f, v).size() for v in values]
            B, _, r, c = analytic._slice_stack(f).shape
            lines = (p ** m - 1) // (p - 1)
            guard = max(p ** m, lines * analytic.slice_stack_entries(shape), B * r * c)
            assert guard < 2 * B * r * c
            monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", guard)
            sizes.clear()
            assert [level_set_count(f, v) for v in values] == want
            assert sizes == [B] * lines * len(values)


def test_density_enumerates_what_counting_would_refuse(monkeypatch):
    # (2,(1,1,1)) into F_2^3: 7 lines of 2-entry slice stacks, 14 entries in
    # all.  Under a guard of 13 the table of 8 points is admitted and the
    # counted route is not, so the density is enumerated.
    f = random_multiaffine(Shape(2, (1, 1, 1)), 3, [45, 1])
    variety = Variety(f, (0, 0, 0))
    monkeypatch.setattr(V, "HISTOGRAM_POINTS", 1)
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 13)
    with pytest.raises(DomainSizeError) as err:
        level_set_count(f, (0, 0, 0))
    assert err.value.needed == 14
    assert density(variety) == Fraction(variety.size(), 8)
    monkeypatch.setattr(forms, "DEFAULT_ENUM_GUARD", 14)
    assert level_set_count(f, (0, 0, 0)) == variety.size()


def test_density_bound_random_nonempty():
    for seed in range(50):
        rng = np.random.default_rng([43, seed])
        sh = Shape(int(rng.choice([2, 3])), (2, 2))
        f = random_multiaffine(sh, int(rng.integers(1, 3)), [43, seed, 1])
        # pin the layer through a random point so the variety is nonempty
        point = [rng.integers(0, sh.p, size=n) for n in sh.dims]
        V = Variety(f, tuple(int(t) for t in f.evaluate(point)))
        assert density_bound_check(V).ok


# ---------------------------------------------------------------------------
#  external approximation
# ---------------------------------------------------------------------------

def test_bohr_zero_map():
    sh = Shape(2, (2, 2))
    A = MultiaffineMap(sh, 1, {})
    rep = bohr_external(A, 2, [1, 0])
    assert rep.exceptional_count == 0
    assert rep.phi.is_zero()


def test_bohr_containment_and_mean():
    # A = identity linear map on F_2^4 (arity 1)
    sh = Shape(2, (4,))
    A = MultilinearMap(sh, 4, np.eye(4, dtype=np.int64))
    dens_nonzero = Fraction(15, 16)
    total = Fraction(0)
    for seed in range(200):
        rep = bohr_external(A, 2, [2, seed])
        assert rep.containment
        total += rep.exceptional_density
    mean = total / 200
    assert mean <= 2 * Fraction(1, 4) * dens_nonzero


def test_bohr_preserves_structural_linearity():
    # A multiaffine but linear in coordinate 2 (no parts missing coordinate 2)
    sh = Shape(2, (2, 2))
    A = MultiaffineMap(
        sh,
        2,
        {
            frozenset([2]): np.arange(4).reshape(2, 2) % 2,
            frozenset([1, 2]): np.arange(8).reshape(2, 2, 2) % 2,
        },
    )
    rep = bohr_external(A, 3, [5, 1])
    assert all(2 in I for I in as_multiaffine(rep.phi).parts)


def test_bohr_sim_reduces_to_single_and_zero():
    sh = Shape(2, (3,))
    A = MultilinearMap(sh, 1, np.array([[1], [0], [1]], dtype=np.int64))
    rep = bohr_external_sim([A], Fraction(1, 2), [6, 0])
    # lam = 1 must contain the zero set of A itself
    ok, count = rep.per_lambda[(1,)]
    assert ok
    zero = MultiaffineMap(sh, 1, {})
    rep = bohr_external_sim([zero, zero], Fraction(1, 2), [6, 1])
    assert all(cnt == 0 for _, cnt in rep.per_lambda.values())


def test_bohr_sim_mean_bound():
    sh = Shape(2, (4,))
    A1 = MultilinearMap(sh, 1, np.array([1, 0, 0, 0], dtype=np.int64).reshape(4, 1))
    A2 = MultilinearMap(sh, 1, np.array([0, 1, 0, 0], dtype=np.int64).reshape(4, 1))
    eps = Fraction(1, 4)
    sums: dict = {}
    runs = 60
    for seed in range(runs):
        rep = bohr_external_sim([A1, A2], eps, [7, seed])
        for lam, (ok, cnt) in rep.per_lambda.items():
            assert ok
            sums[lam] = sums.get(lam, 0) + Fraction(cnt, rep.domain_size)
    for lam, tot in sums.items():
        assert tot / runs <= 2 * eps


# ---------------------------------------------------------------------------
#  layer approximation error
# ---------------------------------------------------------------------------

def _auxiliary_phis_oracle(A_list, s, seed):
    """The simultaneous approximation built on G x F_p^r: the auxiliary map
    (x, lam) -> sum_i lam_i A_i(x), composed with H, sliced at each e_i."""
    shape, m, r = A_list[0].shape, A_list[0].m, len(A_list)
    p = shape.p
    ext_shape = Shape(p, shape.dims + (r,))
    aux_coord = shape.k + 1
    aux_parts = {}
    for i, A in enumerate(A_list):
        for I, C in as_multiaffine(A).parts.items():
            J = I | {aux_coord}
            want = tuple(ext_shape.dims[t - 1] for t in sorted(J)) + (m,)
            aux_parts.setdefault(J, np.zeros(want, dtype=np.int64))
            # the auxiliary coordinate axis sits right before the out axis
            aux_parts[J][..., i, :] = (aux_parts[J][..., i, :] + C) % p
    H = np.random.default_rng(seed).integers(0, p, size=(m, s), dtype=np.int64)
    psi = compose_output(MultiaffineMap(ext_shape, m, aux_parts), H)
    basis = np.eye(r, dtype=np.int64)
    return tuple(slice_map(psi, [aux_coord], [basis[i]]) for i in range(r))


def test_bohr_sim_phis_match_auxiliary_slices():
    rng = np.random.default_rng(71)
    for t in range(40):
        p = int(rng.choice([2, 3, 5]))
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        dims = tuple(int(n) for n in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        sh = Shape(p, dims)
        A_list = [
            (random_multilinear if rng.integers(0, 2) else random_multiaffine)(sh, m, [73, t, i])
            for i in range(r)
        ]
        eps = Fraction(1, int(rng.integers(1, 5)))
        rep = bohr_external_sim(A_list, eps, [79, t])
        assert rep.phis == _auxiliary_phis_oracle(A_list, rep.s, [79, t])


def test_approx_error_modes():
    sh = Shape(2, (1, 1))
    coord = MultiaffineMap(sh, 1, {frozenset([1]): np.array([[1]])})
    fam = LayerFamily(coord, ((0,),))
    S = value_table(coord)[..., 0] == 0  # exactly the selected layer
    assert approximation_error(fam, S, "internal") == 0
    assert approximation_error(fam, S, "external") == 0
    # S = whole space, internal with all layers
    fam_all = LayerFamily(coord, ((0,), (1,)))
    full = np.ones(sh.sizes, dtype=bool)
    assert approximation_error(fam_all, full, "internal") == 0
    # violated containment names the mode
    with pytest.raises(ValueError):
        approximation_error(fam, np.zeros(sh.sizes, dtype=bool), "internal")
    with pytest.raises(ValueError):
        approximation_error(fam, full, "external")


def test_approx_error_counts():
    sh = Shape(2, (2, 2))
    beta = MultiaffineMap(sh, 1, {frozenset([1]): np.array([[1], [0]])})
    fam = LayerFamily(beta, ((0,),))
    layer = value_table(beta)[..., 0] == 0
    S = layer.copy()
    extra = tuple(np.argwhere(~layer)[0])
    S[extra] = True
    assert approximation_error(fam, S, "internal") == Fraction(1, 16)


# ---------------------------------------------------------------------------
#  connectivity
# ---------------------------------------------------------------------------

def union_find_oracle(shape, member):
    """Naive pairwise union-find over the explicit point list."""
    pts = [tuple(idx) for idx in np.argwhere(member)]
    parent = list(range(len(pts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = sum(1 for a, b in zip(pts[i], pts[j]) if a != b)
            if diff == 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(len(pts))})


def bfs_diameter_oracle(shape, member):
    pts = [tuple(idx) for idx in np.argwhere(member)]
    index = {pt: i for i, pt in enumerate(pts)}
    adj = [[] for _ in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if sum(1 for a, b in zip(pts[i], pts[j]) if a != b) == 1:
                adj[i].append(j)
                adj[j].append(i)
    diam = 0
    for s in range(len(pts)):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != len(pts):
            return None
        diam = max(diam, max(dist.values()))
    return diam


def test_connectivity_examples():
    sh = Shape(2, (1, 1))
    full = np.ones(sh.sizes, dtype=bool)
    rep = connectivity(sh, full)
    assert rep.is_connected and rep.diameter == 2
    diag = np.zeros(sh.sizes, dtype=bool)
    diag[0, 0] = diag[1, 1] = True
    rep = connectivity(sh, diag)
    assert not rep.is_connected and rep.component_count == 2
    empty = np.zeros(sh.sizes, dtype=bool)
    rep = connectivity(sh, empty)
    assert rep.component_count == 0 and rep.diameter is None


def test_connectivity_matches_union_find_oracle():
    for seed in range(40):
        rng = np.random.default_rng([53, seed])
        sh = [Shape(2, (2, 2)), Shape(2, (3, 2)), Shape(3, (1, 2)), Shape(2, (2, 2, 1))][seed % 4]
        member = rng.random(sh.sizes) < rng.uniform(0.2, 0.8)
        rep = connectivity(sh, member)
        assert rep.component_count == union_find_oracle(sh, member)
        if rep.is_connected and rep.diameter_exact:
            assert rep.diameter == bfs_diameter_oracle(sh, member)


def test_connectivity_certified_bound_on_large_set():
    # force the sampled-eccentricity path by shrinking the word-operation cap
    sh = Shape(2, (3, 3))
    member = np.ones(sh.sizes, dtype=bool)
    member[0, 0] = False
    old = V.EXACT_DIAMETER_WORK_CAP
    try:
        V.EXACT_DIAMETER_WORK_CAP = 4
        rep = connectivity(sh, member)
        assert rep.is_connected and not rep.diameter_exact
        true_diam = bfs_diameter_oracle(sh, member)
        assert rep.diameter_lower <= true_diam <= rep.diameter
    finally:
        V.EXACT_DIAMETER_WORK_CAP = old


def _bfs_distances(member, start):
    """Coordinate-change distances from `start` as an int32 grid, -1 where the
    BFS does not reach."""
    dist = np.full(member.shape, -1, dtype=np.int32)
    frontier = np.zeros_like(member)
    frontier[start] = True
    level = 0
    while frontier.any():
        dist[frontier] = level
        grown = np.zeros_like(member)
        for ax in range(member.ndim):
            grown |= frontier.any(axis=ax, keepdims=True)
        frontier = grown & member & (dist < 0)
        level += 1
    return dist


def _sweep_bounds_oracle(member):
    """(diameter, diameter_lower) of the sampled-eccentricity path from full
    distance grids: each sweep starts at the first point of dist == dist.max()."""
    def first(mask):
        return np.unravel_index(int(np.argmax(mask.reshape(-1))), mask.shape)

    dist = _bfs_distances(member, first(member))
    lower = int(dist.max())
    upper = 2 * lower
    for _ in range(1 + V.EXTRA_SWEEPS):
        dist = _bfs_distances(member, first(dist == dist.max()))
        lower = max(lower, int(dist.max()))
        upper = min(upper, 2 * int(dist.max()))
    return max(upper, lower), lower


def _per_vertex_diameter_oracle(member):
    """The diameter as one single-source BFS per vertex, max of the maxima."""
    return max(int(_bfs_distances(member, tuple(idx)).max()) for idx in np.argwhere(member))


def _random_connected_set(shape, size, rng):
    """Grown one coordinate-change neighbour at a time from a random point."""
    member = np.zeros(shape.sizes, dtype=bool)
    member[tuple(int(rng.integers(n)) for n in shape.sizes)] = True
    while member.sum() < size:
        pts = np.argwhere(member)
        pt = list(pts[rng.integers(len(pts))])
        ax = int(rng.integers(shape.k))
        pt[ax] = int(rng.integers(shape.sizes[ax]))
        member[tuple(pt)] = True
    return member


# p in {2, 3}, k in {1, 2, 3}, each with at least 129 points
BIT_BFS_SHAPES = [Shape(2, (8,)), Shape(2, (4, 4)), Shape(2, (3, 3, 3)),
                  Shape(3, (5,)), Shape(3, (3, 2)), Shape(3, (2, 2, 2))]


@pytest.mark.parametrize("one_word_chunks", [False, True])
def test_bit_diameter_matches_per_vertex_oracles(monkeypatch, one_word_chunks):
    # set sizes on both sides of the 64-source word boundaries
    for i, sh in enumerate(BIT_BFS_SHAPES):
        if one_word_chunks:  # W = 1: up to three chunks of 64 sources
            monkeypatch.setattr(V, "BFS_STATE_WORDS", sh.domain_size)
        for size in (63, 64, 65, 129):
            member = _random_connected_set(sh, size, np.random.default_rng([61, i, size]))
            rep = connectivity(sh, member)
            assert rep.is_connected and rep.diameter_exact and rep.set_size == size
            assert rep.diameter == rep.diameter_lower == _per_vertex_diameter_oracle(member)
            assert rep.diameter == bfs_diameter_oracle(sh, member)


def test_sweep_bounds_match_distance_grid_oracle(monkeypatch):
    # the sampled path reads eccentricities from level counts and far sets from
    # last frontiers; the oracle reads both from distance grids
    monkeypatch.setattr(V, "EXACT_DIAMETER_WORK_CAP", 0)
    for i, sh in enumerate(BIT_BFS_SHAPES):
        for size in (1, 2, 17, 64, 129):
            member = _random_connected_set(sh, size, np.random.default_rng([73, i, size]))
            rep = connectivity(sh, member)
            assert rep.is_connected and not rep.diameter_exact and rep.set_size == size
            assert (rep.diameter, rep.diameter_lower) == _sweep_bounds_oracle(member)
            assert rep.diameter_lower <= _per_vertex_diameter_oracle(member) <= rep.diameter


def test_bit_diameter_reads_every_chunk(monkeypatch):
    # on (2,(5,5)) a 3 x 22 block (66 points, first in flat order) hangs off the
    # middle of an 18-point staircase; only the staircase ends are 17 apart,
    # and with one word per chunk they are sources of the second chunk
    sh = Shape(2, (5, 5))
    member = np.zeros(sh.sizes, dtype=bool)
    member[:3, :22] = True
    for i in range(9):
        member[3 + i, 22 + i] = member[3 + i, 23 + i] = True
    member[7, 21] = True
    assert _per_vertex_diameter_oracle(member) == 17
    monkeypatch.setattr(V, "BFS_STATE_WORDS", sh.domain_size)
    rep = connectivity(sh, member)
    assert rep.diameter_exact and rep.diameter == 17 == bfs_diameter_oracle(sh, member)


def test_diameter_exact_on_7x7_and_bounded_on_8x8(monkeypatch):
    sh = Shape(2, (7, 7))
    member = zero_set_table(random_multilinear(sh, 1, [67, 7]))
    rep = connectivity(sh, member)
    assert rep.set_size > 4096  # past the old per-vertex cap
    assert rep.is_connected and rep.diameter_exact and rep.diameter == rep.diameter_lower
    monkeypatch.setattr(V, "EXACT_DIAMETER_WORK_CAP", 0)
    sweep = connectivity(sh, member)
    assert not sweep.diameter_exact
    assert sweep.diameter_lower <= rep.diameter <= sweep.diameter
    monkeypatch.undo()

    sh = Shape(2, (8, 8))
    rep = connectivity(sh, zero_set_table(random_multilinear(sh, 1, [67, 8])))
    assert rep.is_connected and not rep.diameter_exact
    assert rep.diameter_lower <= rep.diameter


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4096), st.integers(1, 8), st.data())
def test_word_cap_admits_every_set_the_vertex_cap_did(size, k, data):
    # the old rule: size <= 4096 and size * points * k <= 3 * 10^7
    largest = 30_000_000 // (size * k)
    assert V._exact_diameter_affordable(size, largest, k)
    assert V._exact_diameter_affordable(size, data.draw(st.integers(1, largest)), k)


# ---------------------------------------------------------------------------
#  quasirandomness vs connectivity of the nonzero locus
# ---------------------------------------------------------------------------

def test_eta_values():
    assert eta_threshold(2, 2, 0) == Fraction(1, 1024)


def test_nonzero_conn_full_rank_small():
    # rank-5 bilinear over F_2: bias 2^-5 > eta, hypothesis fails, no assertion
    rho = form(2, (5, 5), np.eye(5))
    rep = nonzero_conn_check(rho, [])
    assert not rep.hypothesis_satisfied
    assert rep.max_bias == Fraction(1, 32)


def test_nonzero_conn_full_rank_10x10():
    rho = form(2, (10, 10), np.eye(10))
    rep = nonzero_conn_check(rho, [])
    assert rep.hypothesis_satisfied
    assert rep.max_bias == rep.eta_threshold == Fraction(1, 1024)
    assert rep.conclusion_verified
    assert rep.diameter <= 15


def test_nonzero_conn_zero_rho():
    rho = form(2, (2, 2), np.zeros(4))
    rep = nonzero_conn_check(rho, [])
    assert not rep.hypothesis_satisfied
    assert rep.set_size == 0


def test_nonzero_conn_rank1_informational():
    rho = form(2, (5, 5), np.outer([1, 0, 0, 0, 0], [1, 0, 0, 0, 0]))
    rep = nonzero_conn_check(rho, [])
    assert not rep.hypothesis_satisfied
    assert rep.max_bias == Fraction(1, 2)


def test_nonzero_conn_guard_before_bias(monkeypatch):
    # the domain is refused against TRAVERSAL_GUARD before any twist's bias is
    # computed, though its slice stack (2^3 slices of 3 x 3) would be admitted
    def no_bias(f, S):
        raise AssertionError("bias computed before the traversal guard")

    monkeypatch.setattr(V, "slice_counts", no_bias)
    monkeypatch.setattr(V, "TRAVERSAL_GUARD", 2 ** 9 - 1)
    rho = random_multilinear(Shape(2, (3, 3, 3)), 1, [13, 0])
    with pytest.raises(DomainSizeError) as err:
        nonzero_conn_check(rho, [(frozenset([1, 2, 3]), rho)])
    assert (err.value.needed, err.value.limit) == (2 ** 9, 2 ** 9 - 1)


def test_nonzero_conn_with_gammas():
    # gammas on sub-coordinates restrict the set; report stays consistent
    sh = Shape(2, (3, 3))
    rho = form(2, (3, 3), np.eye(3))
    g = MultilinearMap(Shape(2, (3,)), 1, np.array([[1], [0], [0]], dtype=np.int64))
    rep = nonzero_conn_check(rho, [(frozenset([1]), g)])
    member_size = rep.set_size
    # oracle: points with x_1[0] = 0 and x.y != 0
    cnt = 0
    for codes in product(*(range(s) for s in sh.sizes)):
        x = [int(codes[0] >> j & 1) for j in range(3)]
        y = [int(codes[1] >> j & 1) for j in range(3)]
        if x[0] == 0 and sum(a * b for a, b in zip(x, y)) % 2 == 1:
            cnt += 1
    assert member_size == cnt


# ---------------------------------------------------------------------------
#  solvability and the common non-vanisher
# ---------------------------------------------------------------------------

def test_solvability_examples():
    rep = solvability_check([np.array([1, 0]), np.array([0, 1])], np.array([1, 1]), 2)
    assert rep.exists and tuple(rep.witness_y) == (1, 1)
    rep = solvability_check([np.array([1, 0]), np.array([1, 0])], np.array([0, 1]), 2)
    assert not rep.exists and tuple(rep.violating_mu) == (1, 1)
    rep = solvability_check([], np.array([]), 2)
    assert rep.exists


def test_solvability_exhaustive_small():
    # every (x_1..x_r, lam) over F_2^2 with r <= 2: elimination agrees with
    # brute-force existence
    vecs = [np.array(v) for v in product(range(2), repeat=2)]
    for r in (1, 2):
        for xs in product(vecs, repeat=r):
            for lam in product(range(2), repeat=r):
                rep = solvability_check(list(xs), np.array(lam), 2)
                brute = any(
                    all(int(x @ y % 2) == l for x, l in zip(xs, lam))
                    for y in vecs
                )
                assert rep.exists == brute


def _solvability_oracle(xs, lam, p):
    """The kernel criterion by enumerating all p^d combinations of the kernel
    basis, in code order; returns (exists, witness_y, violating_mu)."""
    X = np.vstack([np.asarray(x, dtype=np.int64) % p for x in xs])
    lam = np.asarray(lam, dtype=np.int64) % p
    K = linalg.nullspace(X.T, p)
    d = K.shape[0]
    for code in range(p ** d):
        mu = np.asarray(code_to_vec(p, d, code), dtype=np.int64) @ K % p
        if int(mu @ lam % p) != 0:
            return False, None, mu
    return True, linalg.solve(X, lam, p), None


def test_solvability_matches_kernel_enumeration():
    rng = np.random.default_rng(83)
    unsolvable = 0
    for _ in range(400):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 6))
        # rows drawn from a random low-rank span, so that kernels are often large
        basis = rng.integers(0, p, size=(int(rng.integers(1, n + 1)), n))
        xs = list(rng.integers(0, p, size=(r, basis.shape[0])) @ basis % p)
        lam = rng.integers(0, p, size=r)
        rep = solvability_check(xs, lam, p)
        exists, y, mu = _solvability_oracle(xs, lam, p)
        assert rep.exists == exists
        assert (rep.witness_y is None) == (y is None)
        assert y is None or np.array_equal(rep.witness_y, y)
        assert (rep.violating_mu is None) == (mu is None)
        assert mu is None or np.array_equal(rep.violating_mu, mu)
        unsolvable += not exists
    assert unsolvable >= 100


def test_nonvanisher_examples():
    z = find_common_nonvanisher([1, 0], [1, 0], [], 2)
    assert z is not None and z[0] == 1
    assert find_common_nonvanisher([1, 0], [0, 1], [[1, 0]], 2) is None
    z = find_common_nonvanisher([1, 0, 0], [0, 1, 0], [[0, 0, 1]], 2)
    assert z is not None
    assert tuple(z) == (1, 1, 0)


def test_nonvanisher_exhaustive_f2_cubed():
    vecs = [np.array(v) for v in product(range(2), repeat=3)]
    for v1 in vecs:
        for v2 in vecs:
            for m in range(3):
                for us in product(vecs, repeat=m):
                    # span of the u-tuple by direct enumeration of combinations
                    span = {
                        tuple(sum(c * u for c, u in zip(combo, us)) % 2) if m else (0,) * 3
                        for combo in product(range(2), repeat=m)
                    }
                    z = find_common_nonvanisher(v1, v2, list(us), 2)
                    expected = tuple(v1) not in span and tuple(v2) not in span
                    assert (z is not None) == expected
                    if z is not None:
                        assert int(v1 @ z % 2) != 0 and int(v2 @ z % 2) != 0
                        assert all(int(u @ z % 2) == 0 for u in us)


# ---------------------------------------------------------------------------
#  homogenization inside {A = 0}
# ---------------------------------------------------------------------------

def test_multilinearize_already_homogeneous():
    sh = Shape(2, (2, 2))
    A = form(2, (2, 2), np.eye(2))
    D = Variety(A, (0,))
    out = multilinearize_variety(D, A)
    assert len(out.forms) == 1
    I, g = out.forms[0]
    assert I == frozenset([1, 2])
    assert np.array_equal(g.coeffs, A.coeffs)


def test_multilinearize_affine_line_k1():
    # an affine line inside the kernel of a linear map over F_2^3
    sh = Shape(2, (3,))
    A = MultilinearMap(sh, 1, np.array([[1], [0], [0]], dtype=np.int64))  # x_1
    # D: x_1 = 0 and x_2 = 1 (affine), contained in {A = 0}
    beta = MultiaffineMap(
        sh,
        2,
        {
            frozenset([1]): np.array([[1, 0], [0, 1], [0, 0]]),
        },
    )
    D = Variety(beta, (0, 1))
    out = multilinearize_variety(D, A)
    # output is homogeneous: contains 0 and is inside {A = 0}
    assert out.table[(0,)]
    assert out.table.sum() > 0
    tA = value_table(A)[..., 0] == 0
    assert not (out.table & ~tA).any()


def test_multilinearize_random_instances():
    for seed in range(10):
        rng = np.random.default_rng([83, seed])
        sh = Shape(2, (3, 3))
        A = random_multilinear(sh, 1, [83, seed, 0])
        phi = random_multiaffine(sh, 1, [83, seed, 1])
        w = (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
        combined = stack_maps([A, phi])
        lam = tuple(int(t) for t in combined.evaluate(w))
        D = Variety(combined, lam)
        out = multilinearize_variety(D, A)
        assert len(out.forms) <= out.bound == 2 ** 4 * 2
        assert out.table.any()
        tA = value_table(A)[..., 0] == 0
        assert not (out.table & ~tA).any()


def test_multilinearize_rejects_bad_input():
    sh = Shape(2, (2, 2))
    A = form(2, (2, 2), np.eye(2))
    with pytest.raises(ValueError):
        multilinearize_variety(Variety(A, (1,)), A)  # not contained in {A=0}
    empty = Variety(MultiaffineMap(sh, 1, {}), (1,))
    with pytest.raises(ValueError):
        multilinearize_variety(empty, A)


def test_multilinearize_codim1_bound():
    # r = 1 instances: output count within 2^(2k) * 1 = 16 for k = 2
    from rankforge.forms import as_multiaffine

    for seed in range(8):
        sh = Shape(2, (3, 3))
        A = random_multilinear(sh, 1, [89, seed])
        if A.is_zero():
            continue
        D = Variety(as_multiaffine(A), (0,))
        out = multilinearize_variety(D, A)
        assert len(out.forms) <= 16
        assert out.table.any()
        tA = value_table(A)[..., 0] == 0
        assert not (out.table & ~tA).any()


def test_nonzero_conn_full_support_gamma_twists():
    # a gamma equal to rho itself makes some twist identically zero, so the
    # max twisted bias is 1 and the hypothesis must fail; the target set is
    # empty ({rho = 0} meets {rho != 0})
    rho = form(2, (3, 3), np.eye(3))
    rep = nonzero_conn_check(rho, [(frozenset([1, 2]), rho)])
    assert rep.max_bias == 1
    assert not rep.hypothesis_satisfied
    assert rep.set_size == 0
    # an independent full-support gamma: the twist loop scans all lambda
    other = form(2, (3, 3), np.ones((3, 3)))
    rep = nonzero_conn_check(rho, [(frozenset([1, 2]), other)])
    assert rep.max_bias >= Fraction(1, 8)  # the untwisted bias is 2^-3
    # oracle: set size = |{x.y = 0 (for gamma) and x.Iy != 0}|
    cnt = 0
    for codes in product(*(range(s) for s in Shape(2, (3, 3)).sizes)):
        x = [codes[0] >> j & 1 for j in range(3)]
        y = [codes[1] >> j & 1 for j in range(3)]
        g = sum(x) * sum(y) % 2
        r = sum(a * b for a, b in zip(x, y)) % 2
        if g == 0 and r == 1:
            cnt += 1
    assert rep.set_size == cnt


def test_nonzero_conn_max_bias_matches_per_twist_biases():
    # the p^r twisted biases come from one stack of rho and its full-support
    # gammas; the oracle builds each twist rho - sum lam_i gamma_i as a form
    for seed in range(12):
        p, dims = [(2, (2, 2, 2)), (2, (3, 3)), (3, (2, 2)), (5, (1, 2))][seed % 4]
        shape = Shape(p, dims)
        rho = random_multilinear(shape, 1, [48, seed, 0])
        full = [random_multilinear(shape, 1, [48, seed, i]) for i in range(1, 1 + seed % 3)]
        if seed % 4 == 1:
            full.append(rho)  # lam = 1 on this gamma twists rho to the zero form, of bias 1
        gammas = [(frozenset(range(1, shape.k + 1)), g) for g in full]
        gammas.append((frozenset([1]), random_multilinear(shape.sub([1]), 1, [48, seed, 9])))
        rep = nonzero_conn_check(rho, gammas)
        want = max(exact_bias(MultilinearMap(shape, 1, rho.coeffs - sum(l * g.coeffs for l, g in zip(lam, full))))
                   for lam in product(range(p), repeat=len(full)))
        assert rep.max_bias == want
        assert rep.hypothesis_satisfied == (want <= rep.eta_threshold)
        if seed % 4 == 1:
            assert want == 1


def test_bohr_sim_codimension_matches_the_loop():
    # s = r + ceil_neg_log(p, epsilon), against the loop that searched for the
    # smallest s >= 1 with p^s eps_num >= p^r eps_den
    def loop(p, r, eps):
        s, lhs, rhs = 0, eps.numerator, p ** r * eps.denominator
        while lhs < rhs:
            lhs *= p
            s += 1
        return max(s, 1)

    epsilons = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 25), Fraction(99, 100),
                Fraction(1, 1000), Fraction(3, 4)]
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            A_list = [MultiaffineMap(Shape(p, (1,)), 1, {})] * r
            for eps in epsilons:
                assert bohr_external_sim(A_list, eps, [49, r]).s == loop(p, r, eps)


def test_connectivity_full_space_diameter_is_arity():
    for sh in (Shape(2, (1, 1)), Shape(2, (1, 1, 1)), Shape(3, (2, 1))):
        rep = connectivity(sh, np.ones(sh.sizes, dtype=bool))
        assert rep.is_connected and rep.diameter == sh.k and rep.diameter_exact
