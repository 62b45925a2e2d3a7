"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers.  Tolerances are pinned here and nowhere else."""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankforge.analytic import (
    bias_homog_check,
    bias_report,
    box_norm,
    chi_table,
    exact_bias,
    gcs_check,
)
from rankforge.convolutions import (
    arrangement_identity_check,
    cs_chain_check,
    position_count_check,
    sample_arrangement_in_set,
    vanishing_propagation_check,
)
from rankforge.forms import (
    MultilinearMap,
    Shape,
    random_multiaffine,
    random_multilinear,
    stack_maps,
    value_table,
)
from rankforge.partition import (
    bilinear_strong_decomposition,
    prank_exact,
)
from rankforge.polarization import (
    PolyDense,
    cs_amplification_check,
    polarize,
    substitute_decomposition,
)
from rankforge.varieties import (
    Variety,
    bohr_external,
    bohr_external_sim,
    connectivity,
    density_bound_check,
    find_common_nonvanisher,
    multilinearize_variety,
    nonzero_conn_check,
    solvability_check,
)

CHI_TOL = 1e-9


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


def all_forms(p, dims):
    sh = Shape(p, tuple(dims))
    count = int(np.prod(dims))
    for code in range(p ** count):
        digits = [(code // p ** t) % p for t in range(count)]
        yield form(p, dims, digits)


def test_criterion_01_bilinear_coincidence():
    t0 = time.time()
    n_checked = 0
    for f in all_forms(2, (3, 3)):
        r = matrix_rank(f.coeffs[..., 0], 2)
        rep = bias_report(f)
        assert rep.bias_exact == Fraction(1, 2 ** r)  # arank == rank, exact dyadic
        assert rep.arank == pytest.approx(float(r))
        rank_rep = prank_exact(f, r_max=4)
        assert rank_rep.exact and rank_rep.prank == r
        n_checked += 1
    elapsed = time.time() - t0
    assert n_checked == 512
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: arank = prank = matrix rank on all 512 bilinear "
          f"forms over F_2^3 x F_2^3 ({elapsed:.2f}s)")


def test_criterion_02_lovett_inequality_exhaustive():
    t0 = time.time()
    violations = 0
    for f in all_forms(2, (2, 2, 2)):
        rep = prank_exact(f, r_max=8)
        assert rep.exact, "search must terminate on every (2,2,2) form"
        if rep.lovett_lower > rep.prank:
            violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 600.0
    print(f"\nPASS criterion 2: ceil(arank) <= prank on all 256 trilinear forms, "
          f"dims (2,2,2) over F_2, zero violations ({elapsed:.2f}s)")


def test_criterion_03_bias_equals_vanishing_density():
    t0 = time.time()
    cases = [
        (2, (3, 3)), (2, (2, 2, 2)), (2, (1, 2, 2, 1)),
        (3, (2, 2)), (3, (2, 1, 2)), (3, (1, 1, 2, 1)),
    ]
    checked = 0
    for p, dims in cases:
        sub_total = Shape(p, dims[:-1]).domain_size
        for seed in range(167):
            f = random_multilinear(Shape(p, dims), 1, [103, p, len(dims), seed])
            rep = bias_report(f)
            assert rep.bias_exact == Fraction(rep.vanishing_count, sub_total)
            assert abs(rep.bias - float(rep.bias_exact)) <= CHI_TOL
            if p == 2:
                # chi weights are +-1: the complex path is exact too
                assert rep.bias.real == float(rep.bias_exact)
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 1000
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: bias = vanishing density on {checked} random "
          f"multilinear forms, k in 2..4, p in {{2,3}} ({elapsed:.2f}s)")


def test_criterion_04_bias_homog():
    cases = [(2, (2, 2)), (2, (1, 2, 1)), (3, (2, 1)), (3, (1, 1, 1))]
    checked = 0
    for p, dims in cases:
        for seed in range(250):
            f = random_multiaffine(Shape(p, dims), 1, [107, p, len(dims), seed])
            rep = bias_homog_check(f)
            assert rep.abs_bias <= float(rep.top_bias) + CHI_TOL
            checked += 1
    assert checked >= 1000
    print(f"\nPASS criterion 4: |bias(f)| <= bias(top part) on {checked} random "
          f"multiaffine forms, zero violations")


def test_criterion_05_box_norm_identity_and_gcs():
    shapes = [Shape(2, (2, 2)), Shape(2, (1, 1, 1)), Shape(3, (1, 1)), Shape(3, (2, 1)), Shape(2, (3,))]
    checked = 0
    for idx in range(200):
        sh = shapes[idx % len(shapes)]
        phi = random_multilinear(sh, 1, [109, idx])
        nrm = box_norm(sh, chi_table(phi))
        assert abs(nrm ** (1 << sh.k) - float(exact_bias(phi))) <= CHI_TOL
        checked += 1
    fam_shapes = [Shape(2, (1, 1)), Shape(2, (2, 1)), Shape(3, (1, 1))]
    fam_checked = 0
    for idx in range(200):
        sh = fam_shapes[idx % len(fam_shapes)]
        rng = np.random.default_rng([113, idx])
        subsets = [[]]
        for i in range(1, sh.k + 1):
            subsets += [s + [i] for s in subsets]
        fam = {
            frozenset(I): np.exp(2j * np.pi * rng.random(sh.sizes))
            for I in map(tuple, subsets)
        }
        assert gcs_check(sh, fam).ok
        fam_checked += 1
    print(f"\nPASS criterion 5: box_norm(chi(phi))^(2^k) = bias(phi) on {checked} "
          f"forms and Gowers-Cauchy-Schwarz on {fam_checked} families")


def test_criterion_06_density_bound():
    checked = 0
    cases = [(2, (2, 2), 1), (2, (1, 2, 1), 2), (3, (2, 1), 1), (3, (1, 1, 1), 2)]
    for p, dims, r in cases:
        sh = Shape(p, dims)
        for seed in range(250):
            rng = np.random.default_rng([127, p, len(dims), seed])
            f = random_multiaffine(sh, r, [127, p, len(dims), seed, 1])
            point = [rng.integers(0, p, size=n) for n in dims]
            V = Variety(f, tuple(int(t) for t in f.evaluate(point)))
            rep = density_bound_check(V)
            assert rep.nonempty and rep.ok
            checked += 1
    assert checked >= 1000
    print(f"\nPASS criterion 6: density >= p^(-k r) on {checked} random nonempty "
          f"varieties, zero violations")


def test_criterion_07_bohr_approximation():
    # single map: A = identity linear map on F_2^4, plus a bilinear map
    results = []
    targets = [
        MultilinearMap(Shape(2, (4,)), 4, np.eye(4, dtype=np.int64)),
        random_multilinear(Shape(2, (2, 2)), 2, [131, 0]),
    ]
    for A in targets:
        nonzero = Fraction(
            int(value_table(A).any(axis=-1).sum()), A.shape.domain_size
        )
        for s in (1, 2, 3):
            total = Fraction(0)
            for seed in range(200):
                rep = bohr_external(A, s, [137, s, seed])
                assert rep.containment
                total += rep.exceptional_density
            mean = total / 200
            bound = 2 * Fraction(1, A.shape.p ** s) * nonzero
            assert mean <= bound
            results.append((s, float(mean), float(bound)))
    # simultaneous version: per-lambda mean within 2 epsilon
    sh = Shape(2, (4,))
    A1 = MultilinearMap(sh, 1, np.array([1, 0, 0, 0], dtype=np.int64).reshape(4, 1))
    A2 = MultilinearMap(sh, 1, np.array([0, 1, 1, 0], dtype=np.int64).reshape(4, 1))
    eps = Fraction(1, 4)
    sums = {}
    runs = 200
    for seed in range(runs):
        rep = bohr_external_sim([A1, A2], eps, [139, seed])
        for lam, (ok, cnt) in rep.per_lambda.items():
            assert ok
            sums[lam] = sums.get(lam, Fraction(0)) + Fraction(cnt, rep.domain_size)
    assert all(tot / runs <= 2 * eps for tot in sums.values())
    print(f"\nPASS criterion 7: containment on 100% of 200 seeds for s in "
          f"{{1,2,3}}, mean exceptional density within the 2x slack; "
          f"simultaneous analog within 2*epsilon per lambda")


def test_criterion_08_arrangement_lemma():
    t0 = time.time()
    shapes = [
        Shape(2, (1, 1)), Shape(2, (2, 2)), Shape(2, (2, 1, 2)), Shape(2, (1, 1, 1)),
        Shape(3, (1, 1)), Shape(3, (2, 1)), Shape(3, (1, 1, 1)), Shape(3, (2, 2)),
    ]
    counts = {"identity": 0, "position": 0, "propagation": 0}
    idx = 0
    while min(counts.values()) < 1000:
        rng = np.random.default_rng([149, idx])
        sh = shapes[idx % len(shapes)]
        member = rng.random(sh.sizes) < rng.uniform(0.2, 0.9)
        i = int(rng.integers(1, sh.k + 1))
        lengths = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        assert arrangement_identity_check(sh, member, i, lengths).ok
        counts["identity"] += 1
        x = tuple(int(rng.integers(0, s)) for s in sh.sizes)
        j = int(rng.integers(1, (1 << i) + 1))
        assert position_count_check(sh, i, j, lengths, x).ok
        counts["position"] += 1
        A = random_multilinear(sh, 1, [151, idx])
        member_A = ~value_table(A).any(axis=-1)
        arr = sample_arrangement_in_set(sh, member_A, i, lengths, rng)
        if arr is not None:
            rep = vanishing_propagation_check(A, arr)
            assert rep.premise and rep.ok
            counts["propagation"] += 1
        idx += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 8: arrangement identities (i)-(iii) with "
          f"{counts} exact checks, zero mismatches ({elapsed:.2f}s)")


def test_criterion_09_cs_chain():
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng([157, seed])
        sh = [Shape(2, (2, 2)), Shape(2, (1, 1, 1)), Shape(3, (2, 1)), Shape(3, (1, 1))][seed % 4]
        r = int(rng.integers(1, 3))
        beta = random_multilinear(sh, r, [157, seed, 1])
        member = ~value_table(beta).any(axis=-1)
        rep = cs_chain_check(sh, member)
        assert rep.ok
        assert rep.final >= rep.density ** (1 << sh.k)
        checked += 1
    print(f"\nPASS criterion 9: Cauchy-Schwarz chain exact on {checked} random "
          f"varieties; final mean >= density^(2^k)")


def test_criterion_10_one_sided_regularity():
    t0 = time.time()
    rho = form(2, (10, 10), np.eye(10))
    rep = nonzero_conn_check(rho, [])
    assert rep.hypothesis_satisfied
    assert rep.max_bias == rep.eta_threshold == Fraction(1, 1024)
    assert rep.is_connected
    assert rep.diameter <= 15  # certified upper bound over 2^20 points
    assert rep.conclusion_verified and rep.conclusion_certified
    elapsed = time.time() - t0
    assert elapsed < 120.0

    # oracle equivalence of connectivity against naive union-find
    def union_find_components(shape, member):
        pts = [tuple(i) for i in np.argwhere(member)]
        parent = list(range(len(pts)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if sum(1 for u, v in zip(pts[a], pts[b]) if u != v) == 1:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        return len({find(a) for a in range(len(pts))})

    oracle_shapes = [
        Shape(2, (2, 2)), Shape(2, (3, 2)), Shape(3, (2, 1)),
        Shape(2, (2, 2, 2)), Shape(2, (6, 6)), Shape(2, (4, 4, 4)),
    ]
    agree = 0
    for seed in range(24):
        rng = np.random.default_rng([163, seed])
        sh = oracle_shapes[seed % len(oracle_shapes)]
        dens = 0.12 if sh.domain_size >= 1 << 12 else rng.uniform(0.2, 0.8)
        member = rng.random(sh.sizes) < dens
        rep2 = connectivity(sh, member)
        assert rep2.component_count == union_find_components(sh, member)
        agree += 1
    total = time.time() - t0
    print(f"\nPASS criterion 10: full-rank 10x10 nonzero locus connected with "
          f"certified diameter {rep.diameter} <= 15 over 2^20 points "
          f"({elapsed:.2f}s); union-find agreement on {agree} random sets "
          f"({total:.2f}s total)")


def test_criterion_11_solvability_and_nonvanisher():
    t0 = time.time()
    spaces = [(2, 3), (3, 2)]
    sol_checked = 0
    for p, n in spaces:
        vecs = [np.array(v, dtype=np.int64) for v in product(range(p), repeat=n)]
        for r in range(0, 4):
            for xs in product(vecs, repeat=r):
                X = np.vstack(xs) if r else np.zeros((0, n), dtype=np.int64)
                for lam in product(range(p), repeat=r):
                    rep = solvability_check(list(xs), np.array(lam, dtype=np.int64), p)
                    brute = any(
                        all(int(x @ y % p) == l for x, l in zip(xs, lam)) for y in vecs
                    ) if r else True
                    assert rep.exists == brute
                    sol_checked += 1
    nv_checked = 0
    for p, n in spaces:
        vecs = [np.array(v, dtype=np.int64) for v in product(range(p), repeat=n)]
        for m in range(0, 4):
            for us in product(vecs, repeat=m):
                # span of the u-tuple by direct enumeration of combinations
                span = {
                    tuple(sum(c * u for c, u in zip(combo, us)) % p) if m else (0,) * n
                    for combo in product(range(p), repeat=m)
                }
                for v1 in vecs:
                    for v2 in vecs:
                        z = find_common_nonvanisher(v1, v2, list(us), p)
                        expected = tuple(v1) not in span and tuple(v2) not in span
                        assert (z is not None) == expected
                        if z is not None:
                            assert int(v1 @ z % p) and int(v2 @ z % p)
                            assert all(int(u @ z % p) == 0 for u in us)
                        nv_checked += 1
    elapsed = time.time() - t0
    print(f"\nPASS criterion 11: solvability criterion on {sol_checked} exhaustive "
          f"tuples and common non-vanisher on {nv_checked} tuples, zero "
          f"violations ({elapsed:.2f}s)")


def test_criterion_12_multilinearization():
    checked = 0
    specs = [
        (2, (2, 2), 1), (2, (3, 3), 1), (2, (2, 3), 2),
        (3, (2, 2), 1), (2, (2, 2, 2), 1),
    ]
    for p, dims, extra in specs:
        for seed in range(20):
            sh = Shape(p, dims)
            A = random_multilinear(sh, 1, [173, p, len(dims), seed])
            phi = random_multiaffine(sh, extra, [173, p, len(dims), seed, 1])
            w = tuple(np.zeros(n, dtype=np.int64) for n in dims)
            combined = stack_maps([A, phi])
            lam = tuple(int(t) for t in combined.evaluate(w))
            D = Variety(combined, lam)
            out = multilinearize_variety(D, A)
            r = D.codim
            assert len(out.forms) <= (1 << (2 * sh.k)) * r
            assert out.table.any()
            tA = ~value_table(A).any(axis=-1)
            assert not (out.table & ~tA).any()
            checked += 1
    assert checked == 100
    print(f"\nPASS criterion 12: homogenization on {checked} instances, output "
          f"count within 2^(2k) r and containment verified exhaustively")


def test_criterion_13_polarization():
    t0 = time.time()
    combos = [(3, 1, 2), (3, 2, 2), (3, 3, 2), (5, 1, 2), (5, 2, 2), (5, 3, 2),
              (5, 1, 3), (5, 2, 3), (5, 3, 3)]
    checked = 0
    substituted = 0
    idx = 0
    while checked < 100:
        p, n, d = combos[idx % len(combos)]
        rng = np.random.default_rng([179, idx])
        exps = [e for e in product(range(p), repeat=n) if sum(e) == d]
        terms = {e: int(rng.integers(0, p)) for e in exps}
        f = PolyDense(p, n, terms)
        idx += 1
        if f.is_zero():
            continue
        sym = polarize(f, d)
        assert sym.check_symmetry()
        pts = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
        assert np.array_equal(sym.diagonal().evaluate_many(pts), f.evaluate_many(pts))
        assert cs_amplification_check(f).ok
        rep = prank_exact(sym.form, r_max=5, budget=20_000)
        if rep.exact:
            sub = substitute_decomposition(rep.witness)
            assert sub.ok
            assert all(b.degree < d and g.degree < d for b, g in sub.factors)
            substituted += 1
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert substituted >= 30  # the exact searches must not be vacuous
    print(f"\nPASS criterion 13: polarization round trip, symmetry and "
          f"amplification on {checked} instances; substitution verified on "
          f"{substituted} exact searches ({elapsed:.2f}s)")


def test_criterion_14_strong_bilinear_base_case():
    checked = 0
    cases = [(2, 4), (3, 3), (5, 3), (2, 6)]
    for p, n in cases:
        for seed in range(50):
            f = random_multilinear(Shape(p, (n, n)), 1, [181, p, n, seed])
            c = exact_bias(f)
            rep = bilinear_strong_decomposition(f, c=c)
            assert rep.decomposition.verify()
            assert rep.rank == matrix_rank(f.coeffs[..., 0], p)
            assert rep.log_bound_ok  # rank <= log_p(1/bias), exact
            checked += 1
    assert checked == 200
    print(f"\nPASS criterion 14: constructive bilinear decomposition exact on "
          f"{checked} random forms with rank <= log_p(1/bias)")
