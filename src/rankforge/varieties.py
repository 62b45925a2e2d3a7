"""Level sets of multiaffine maps: densities, external approximation by random
dot-product conditions, layer approximation errors, connectivity in the
coordinate-change graph, the quasirandomness-implies-connectivity check, the
dot-product solvability criterion, and homogenization of a variety inside the
zero set of a multilinear map.

The coordinate-change graph on G_[k] joins two points iff they differ in
exactly one coordinate.  BFS over it is run implicitly on boolean grids: one
expansion step is an OR-reduction along each coordinate axis, so a level
costs O(k |G|) vectorized work regardless of vertex degrees.  Exact diameters
run the same step on uint64 grids that carry one bit per source vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .analytic import exact_bias
from .errors import LemmaViolationError
from .forms import (
    Map,
    MultilinearMap,
    Shape,
    as_multiaffine,
    code_to_vec,
    compose_output,
    digit_matrix,
    part_grid,
    slice_map,
    value_table,
    zero_set_table,
)

TRAVERSAL_GUARD = 1 << 21
EXTRA_SWEEPS = 2                       # eccentricity samples after the double sweep
EXACT_DIAMETER_WORK_CAP = 30_000_000   # uint64 word operations per BFS level
BFS_STATE_WORDS = 1 << 21              # words in one bit-parallel state array (16 MB)


# ---------------------------------------------------------------------------
#  Varieties and layers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variety:
    """The level set {x : defining_map(x) = value}; codimension = target dim."""

    defining_map: Map
    value: tuple[int, ...] = None

    def __post_init__(self):
        m = self.defining_map.m
        v = self.value if self.value is not None else (0,) * m
        v = tuple(int(t) % self.defining_map.shape.p for t in v)
        if len(v) != m:
            raise ValueError(f"layer value must have length {m}")
        object.__setattr__(self, "value", v)

    @property
    def shape(self) -> Shape:
        return self.defining_map.shape

    @property
    def codim(self) -> int:
        return self.defining_map.m

    def contains(self, xs) -> bool:
        return tuple(int(t) for t in self.defining_map.evaluate(xs)) == self.value

    def table(self) -> np.ndarray:
        vt = value_table(self.defining_map)
        want = np.asarray(self.value, dtype=np.int64)
        return (vt == want).all(axis=-1)

    def size(self) -> int:
        return int(self.table().sum())


@dataclass(frozen=True)
class LayerFamily:
    """A multiaffine map together with a selection of its layer values."""

    defining_map: Map
    selected: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = self.defining_map.shape.p
        sel = tuple(tuple(int(t) % p for t in v) for v in self.selected)
        if any(len(v) != self.defining_map.m for v in sel):
            raise ValueError("every layer value must match the target dimension")
        object.__setattr__(self, "selected", sel)

    def layer_tables(self):
        vt = value_table(self.defining_map)
        for v in self.selected:
            yield v, (vt == np.asarray(v, dtype=np.int64)).all(axis=-1)

    def union_table(self) -> np.ndarray:
        out = np.zeros(self.defining_map.shape.sizes, dtype=bool)
        for _, t in self.layer_tables():
            out |= t
        return out


def density(V: Variety) -> Fraction:
    return Fraction(V.size(), V.shape.domain_size)


@dataclass(frozen=True)
class DensityBoundReport:
    density: Fraction
    bound: Fraction
    nonempty: bool
    ok: bool


def density_bound_check(V: Variety) -> DensityBoundReport:
    """Nonempty varieties of codimension r have density at least p^(-k r)."""
    d = density(V)
    k = V.shape.k
    bound = Fraction(1, V.shape.p ** (k * V.codim))
    nonempty = d > 0
    ok = (not nonempty) or d >= bound
    if not ok:
        raise LemmaViolationError(
            f"nonempty variety of codimension {V.codim} has density {d} < {bound}"
        )
    return DensityBoundReport(d, bound, nonempty, ok)


# ---------------------------------------------------------------------------
#  External approximation by random dot-product conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BohrReport:
    phi: Map
    s: int
    containment: bool
    exceptional_count: int       # |{phi = 0} minus {A = 0}|, exact
    nonzero_count: int           # |{A != 0}|, exact
    domain_size: int

    @property
    def exceptional_density(self) -> Fraction:
        return Fraction(self.exceptional_count, self.domain_size)


def bohr_external(A: Map, s: int, seed) -> BohrReport:
    """phi(x)_i = A(x) . h_i for s independent uniform h_i.

    {A = 0} is contained in {phi = 0} by construction; the exceptional set
    {phi = 0} minus {A = 0} is counted exactly.  If A is linear in some
    coordinate so is phi (the construction only touches the output side).
    """
    if s < 1:
        raise ValueError("need s >= 1")
    rng = np.random.default_rng(seed)
    p = A.shape.p
    H = rng.integers(0, p, size=(A.m, s), dtype=np.int64)
    phi = compose_output(A, H)
    tA = zero_set_table(A)
    tPhi = zero_set_table(phi)
    if (tA & ~tPhi).any():
        raise LemmaViolationError("containment {A=0} within {phi=0} failed")
    exceptional = int((tPhi & ~tA).sum())
    return BohrReport(phi, s, True, exceptional, int((~tA).sum()), A.shape.domain_size)


@dataclass(frozen=True)
class BohrSimReport:
    phis: tuple
    s: int
    per_lambda: dict  # lambda tuple -> (containment ok, exceptional count)
    domain_size: int


def bohr_external_sim(A_list, epsilon: Fraction, seed) -> BohrSimReport:
    """Simultaneous version via the auxiliary map on G x F_p^r sending
    (x, lam) to sum_i lam_i A_i(x); one random approximation of it restricts
    to approximations of every linear combination at once.  That
    approximation is the auxiliary map composed with one random H, linear in
    lam, so its restriction to lam = e_i is A_i composed with H.  Every one
    of the p^r lambdas is checked; the guard is on their p^r * r digits."""
    A_list = list(A_list)
    if not A_list:
        raise ValueError("need at least one map")
    shape = A_list[0].shape
    p = shape.p
    m = A_list[0].m
    r = len(A_list)
    if any(A.shape != shape or A.m != m for A in A_list):
        raise ValueError("all maps must share shape and target dimension")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    Shape.guard(p ** r * r, "lambda grid")
    # smallest integer s with p^(r-s) <= epsilon, i.e. p^s * eps_num >= p^r * eps_den
    s = 0
    lhs = epsilon.numerator
    rhs = p ** r * epsilon.denominator
    while lhs < rhs:
        lhs *= p
        s += 1
    s = max(s, 1)

    rng = np.random.default_rng(seed)
    H = rng.integers(0, p, size=(m, s), dtype=np.int64)
    phis = tuple(as_multiaffine(compose_output(A, H)) for A in A_list)

    per_lambda = {}
    tables_A = [value_table(A) for A in A_list]
    tables_phi = [value_table(f) for f in phis]
    for lam in digit_matrix(p, r)[:, ::-1]:  # lam_1 most significant
        combA = sum(int(l) * t for l, t in zip(lam, tables_A)) % p
        combP = sum(int(l) * t for l, t in zip(lam, tables_phi)) % p
        zA = ~combA.any(axis=-1)
        zP = ~combP.any(axis=-1)
        ok = not (zA & ~zP).any()
        if not ok:
            raise LemmaViolationError("per-lambda containment failed")
        per_lambda[tuple(int(l) for l in lam)] = (ok, int((zP & ~zA).sum()))
    return BohrSimReport(phis, s, per_lambda, shape.domain_size)


# ---------------------------------------------------------------------------
#  Internal / external approximation error of a layer family
# ---------------------------------------------------------------------------

def approximation_error(layers: LayerFamily, S: np.ndarray, mode: str) -> Fraction:
    """Density of the approximation defect of the selected layers against S.

    internal: each selected layer must be contained in S; the error is
    |S minus union| / |G|.  external: S must be contained in the union; the
    error is |union minus S| / |G|.
    """
    shape = layers.defining_map.shape
    if S.shape != shape.sizes:
        raise ValueError("membership grid does not match the domain")
    if mode not in ("internal", "external"):
        raise ValueError("mode must be 'internal' or 'external'")
    union = np.zeros(shape.sizes, dtype=bool)
    for v, t in layers.layer_tables():
        if mode == "internal" and (t & ~S).any():
            raise ValueError(f"layer {v} is not contained in S (internal mode)")
        union |= t
    if mode == "external" and (S & ~union).any():
        raise ValueError("S is not contained in the union of the selected layers")
    defect = (S & ~union) if mode == "internal" else (union & ~S)
    return Fraction(int(defect.sum()), shape.domain_size)


# ---------------------------------------------------------------------------
#  Connectivity in the coordinate-change graph
# ---------------------------------------------------------------------------

@dataclass
class ConnectivityReport:
    is_connected: bool
    component_count: int
    set_size: int
    diameter: int | None          # exact value, or a certified upper bound
    diameter_exact: bool
    diameter_lower: int | None
    eta_threshold: Fraction | None = None
    hypothesis_satisfied: bool | None = None
    conclusion_verified: bool | None = None
    conclusion_certified: bool | None = None
    max_bias: Fraction | None = None
    diameter_bound: int | None = None


def _bfs_levels(unseen: np.ndarray, frontier: np.ndarray, k: int):
    """The frontiers of a BFS over the first k axes, level 0 first.

    Boolean grids carry one source; uint64 grids with a trailing word axis
    carry one source per bit.  `unseen` holds the members not reached yet
    (sources excluded) and is consumed in place.
    """
    while frontier.any():
        yield frontier
        grown = np.zeros_like(unseen)
        for ax in range(k):
            grown |= np.bitwise_or.reduce(frontier, axis=ax, keepdims=True)
        grown &= unseen
        unseen ^= grown
        frontier = grown


def _first_true(mask: np.ndarray) -> tuple:
    flat = int(np.argmax(mask.reshape(-1)))
    return np.unravel_index(flat, mask.shape)


def _bfs_distances(member: np.ndarray, start_idx: tuple) -> np.ndarray:
    dist = np.full(member.shape, -1, dtype=np.int32)
    frontier = np.zeros_like(member)
    frontier[start_idx] = True
    for level, f in enumerate(_bfs_levels(member & ~frontier, frontier, member.ndim)):
        dist[f] = level
    return dist


def _exact_diameter_affordable(size: int, points: int, k: int) -> bool:
    """Whether one level of the bit-parallel BFS from `size` sources over a
    `points`-cell grid with k axes stays within EXACT_DIAMETER_WORK_CAP."""
    return -(-size // 64) * points * k <= EXACT_DIAMETER_WORK_CAP


def _bit_diameter(member: np.ndarray) -> int:
    """Largest eccentricity of a connected set by multi-source BFS: the
    members are the sources, 64 W at a time, one bit each in W uint64 words
    per cell.  A chunk runs as many levels as its largest eccentricity."""
    cells = np.flatnonzero(member)
    words = -(-cells.size // 64)
    chunks = -(-words // max(1, BFS_STATE_WORDS // member.size))
    W = -(-words // chunks)
    full = np.where(member, ~np.uint64(0), np.uint64(0))[..., None]
    diam = 0
    for start in range(0, cells.size, 64 * W):
        src = np.arange(min(64 * W, cells.size - start))
        frontier = np.zeros((member.size, W), dtype=np.uint64)
        frontier[cells[start:start + src.size], src // 64] = np.uint64(1) << (src % 64).astype(np.uint64)
        frontier = frontier.reshape(member.shape + (W,))
        levels = sum(1 for _ in _bfs_levels(full ^ frontier, frontier, member.ndim))
        diam = max(diam, levels - 1)
    return diam


def connectivity(shape: Shape, member: np.ndarray) -> ConnectivityReport:
    """Connected components and diameter of a subset of G_[k].

    The diameter is exact when one level of the bit-parallel BFS from every
    vertex, ceil(|S|/64) * |G| * k word operations, stays within
    EXACT_DIAMETER_WORK_CAP; otherwise the report carries the certified upper
    bound 2 * min eccentricity over double-sweep samples, flagged via
    diameter_exact=False, together with the eccentricity lower bound.
    """
    Shape.guard(shape.domain_size, "graph traversal", TRAVERSAL_GUARD, "varieties.TRAVERSAL_GUARD")
    if member.dtype != bool or member.shape != shape.sizes:
        raise ValueError("need a boolean membership grid over the domain")
    size = int(member.sum())
    if size == 0:
        return ConnectivityReport(False, 0, 0, None, True, None)

    remaining = member.copy()
    components = 0
    while remaining.any():
        frontier = np.zeros_like(member)
        frontier[_first_true(remaining)] = True
        remaining ^= frontier
        for _ in _bfs_levels(remaining, frontier, shape.k):  # removes the component
            pass
        components += 1
    connected = components == 1
    if not connected:
        return ConnectivityReport(False, components, size, None, True, None)

    if _exact_diameter_affordable(size, shape.domain_size, shape.k):
        diam = _bit_diameter(member)
        return ConnectivityReport(True, 1, size, diam, True, diam)

    # double sweep plus extra eccentricity samples
    u = _first_true(member)
    du = _bfs_distances(member, u)
    ecc_u = int(du.max())
    lower = ecc_u
    upper = 2 * ecc_u
    src = du
    for _ in range(1 + EXTRA_SWEEPS):
        far_mask = src == src.max()
        w = _first_true(far_mask)
        dw = _bfs_distances(member, w)
        ecc_w = int(dw.max())
        lower = max(lower, ecc_w)
        upper = min(upper, 2 * ecc_w)
        src = dw
    upper = max(upper, lower)
    return ConnectivityReport(True, 1, size, upper, False, lower)


# ---------------------------------------------------------------------------
#  Quasirandom forms have a connected nonzero locus on the common zero set
# ---------------------------------------------------------------------------

def eta_threshold(p: int, k: int, r: int) -> Fraction:
    return Fraction(1, 2 ** (2 * k)) * Fraction(1, p ** ((k + 1) * (3 * r + 2)))


def nonzero_conn_check(rho: MultilinearMap, gammas) -> ConnectivityReport:
    """Checks: if every full-support twist rho - sum lam_i gamma_i has bias at
    most eta = 2^(-2k) p^(-(k+1)(3r+2)), then the set
    {x : all gamma_i(x_{I_i}) = 0, rho(x) != 0} is connected with diameter at
    most (2k+1)(2^k - 1).

    `gammas` is a sequence of (index_set, MultilinearMap on G_I) pairs.  The
    hypothesis side is decided with exact rationals; the conclusion uses BFS
    with a certified diameter bound.  A certified violation raises.
    """
    if not rho.scalar:
        raise ValueError("rho must be a scalar form")
    shape = rho.shape
    p, k = shape.p, shape.k
    gammas = [(frozenset(int(i) for i in I), g) for I, g in gammas]
    for I, g in gammas:
        if not I:
            raise ValueError("index sets must be nonempty")
        if g.shape != shape.sub(I) or g.m != 1:
            raise ValueError("gamma does not match its index set")
    # the traversal below bounds every bias computed here (p, slice stack <= |G|)
    Shape.guard(shape.domain_size, "graph traversal", TRAVERSAL_GUARD, "varieties.TRAVERSAL_GUARD")
    r = len(gammas)
    eta = eta_threshold(p, k, r)

    full = frozenset(range(1, k + 1))
    full_coeffs = [g.coeffs for I, g in gammas if I == full]
    max_bias = Fraction(0)
    for code in range(p ** len(full_coeffs)):
        lams = code_to_vec(p, len(full_coeffs), code)
        coeffs = (rho.coeffs - sum(lam * C for lam, C in zip(lams, full_coeffs))) % p
        b = exact_bias(MultilinearMap(shape, 1, coeffs))
        max_bias = max(max_bias, b)
    hypothesis = max_bias <= eta

    # the target set
    member = value_table(rho)[..., 0] != 0
    for I, g in gammas:
        member &= _constraint_table(shape, I, g, 0)
    rep = connectivity(shape, member)
    bound = (2 * k + 1) * (2 ** k - 1)
    rep.eta_threshold = eta
    rep.hypothesis_satisfied = hypothesis
    rep.max_bias = max_bias
    rep.diameter_bound = bound
    if hypothesis:
        nonempty = rep.set_size > 0
        diam_ok = rep.diameter is not None and rep.diameter <= bound
        certified = rep.diameter_exact or diam_ok
        rep.conclusion_verified = nonempty and rep.is_connected and diam_ok
        rep.conclusion_certified = certified
        violated = (not nonempty) or (not rep.is_connected) or (
            rep.diameter_lower is not None and rep.diameter_lower > bound
        )
        if violated:
            raise LemmaViolationError(
                "quasirandomness hypothesis holds but the nonzero locus is not "
                f"connected with diameter <= {bound}: {rep}"
            )
    return rep


# ---------------------------------------------------------------------------
#  Dot-product solvability and the common non-vanisher
# ---------------------------------------------------------------------------

def find_common_nonvanisher(v1, v2, us, p: int):
    """A z with v1.z != 0, v2.z != 0 and u.z = 0 for all u, when one exists.

    Exists iff neither v1 nor v2 lies in span{u_i}; built constructively on
    the solution space of the u-system.
    """
    v1 = np.asarray(v1, dtype=np.int64) % p
    v2 = np.asarray(v2, dtype=np.int64) % p
    us = [np.asarray(u, dtype=np.int64) % p for u in us]
    n = v1.shape[0]
    if v2.shape != (n,) or any(u.shape != (n,) for u in us):
        raise ValueError("all vectors must share one length")
    U = np.vstack(us) if us else np.zeros((0, n), dtype=np.int64)
    B = linalg.nullspace(U, p)  # rows span {z : u.z = 0 for all u}
    a = B @ v1 % p
    b = B @ v2 % p
    if not a.any() or not b.any():
        return None
    i = int(np.flatnonzero(a)[0])
    j = int(np.flatnonzero(b)[0])
    c1 = B[i]
    c2 = B[j]
    if b[i]:
        z = c1
    elif a[j]:
        z = c2
    else:
        z = (c1 + c2) % p
    if int(v1 @ z % p) == 0 or int(v2 @ z % p) == 0:
        raise LemmaViolationError("common nonvanisher vanishes on v1 or v2")
    if us and (U @ z % p).any():
        raise LemmaViolationError("common nonvanisher is not orthogonal to every u")
    return z % p


@dataclass(frozen=True)
class SolvabilityReport:
    exists: bool
    witness_y: np.ndarray | None
    violating_mu: np.ndarray | None


def solvability_check(xs, lam, p: int) -> SolvabilityReport:
    """Decides whether some y solves x_i . y = lam_i and cross-checks the
    kernel criterion: solvable iff every mu with sum mu_i x_i = 0 has
    mu . lam = 0.  The two sides are decided independently and must agree."""
    xs = [np.asarray(x, dtype=np.int64) % p for x in xs]
    lam = np.asarray(lam, dtype=np.int64) % p
    r = len(xs)
    if lam.shape != (r,):
        raise ValueError("one target per vector is required")
    if r == 0:
        return SolvabilityReport(True, np.zeros(0, dtype=np.int64), None)
    n = xs[0].shape[0]
    X = np.vstack(xs)

    y = linalg.solve(X, lam, p)  # condition (i) by elimination

    # condition (ii) on the kernel basis: mu . lam is linear in mu, so it vanishes on
    # the whole kernel iff it vanishes on every basis row.  In the code order of the
    # kernel's p^d combinations, the first to break it is the first breaking row.
    K = linalg.nullspace(X.T, p)  # rows mu with sum mu_i x_i = 0
    breaking = np.flatnonzero(K @ lam % p)
    violating = K[breaking[0]] if breaking.size else None
    cond_ii = violating is None

    if (y is not None) != cond_ii:
        raise LemmaViolationError("solvability criterion sides disagree")
    if y is not None and not np.array_equal(X @ y % p, lam):
        raise LemmaViolationError("solvability solution does not solve X y = lambda")
    return SolvabilityReport(y is not None, y, violating)


# ---------------------------------------------------------------------------
#  Homogenization: replace a variety inside {A = 0} by one cut out by
#  homogeneous multilinear forms
# ---------------------------------------------------------------------------

@dataclass
class MultilinearizedVariety:
    forms: list            # (index_set, MultilinearMap) pairs, all with value 0
    bound: int             # 2^(2k) * codim
    table: np.ndarray      # membership grid of the output variety


def _constraint_table(shape: Shape, I: frozenset, form: MultilinearMap, val: int) -> np.ndarray:
    grid = part_grid(shape, I, form.coeffs)[..., 0]
    return np.broadcast_to(grid == val, shape.sizes)


def _lex_least_point(shape: Shape, table: np.ndarray):
    from .forms import codes_to_point

    idx = _first_true(table)
    return codes_to_point(shape, idx)


def multilinearize_variety(
    D: Variety,
    A: Map,
) -> MultilinearizedVariety:
    """Given a nonempty variety D contained in {A = 0}, produce at most
    2^(2k) codim(D) homogeneous multilinear constraints cutting out a
    nonempty variety still contained in {A = 0}.

    The constraints start as the multilinear parts of the defining map pinned
    to their values at the lexicographically least point of D; then one
    coordinate at a time, each constraint involving that coordinate is
    replaced by its homogeneous version plus its slice at the current
    variety's lexicographically least point.  Containment of the output is
    verified by enumeration.
    """
    shape = D.shape
    p, k = shape.p, shape.k
    if A.shape != shape:
        raise ValueError("A must live on the same domain as D")
    tD = D.table()
    if not tD.any():
        raise ValueError("D is empty")
    tA = zero_set_table(A)
    if (tD & ~tA).any():
        raise ValueError("containment of D in {A = 0} fails")

    fa = as_multiaffine(D.defining_map)
    parts = fa.parts
    r = D.codim
    bound = 2 ** (2 * k) * r

    # early exit: already cut out by homogeneous multilinear forms
    component_parts = [[] for _ in range(r)]
    for I, C in parts.items():
        for j in range(r):
            if C[..., j].any():
                component_parts[j].append((I, C[..., j]))
    if all(
        len(ps) == 1 and ps[0][0] and D.value[j] == 0
        for j, ps in enumerate(component_parts)
    ) or not parts:
        forms = []
        for j, ps in enumerate(component_parts):
            if not ps:
                continue
            I, C = ps[0]
            forms.append((I, MultilinearMap(shape.sub(I), 1, C[..., None])))
        table = np.ones(shape.sizes, dtype=bool)
        for I, g in forms:
            table &= _constraint_table(shape, I, g, 0)
        return MultilinearizedVariety(forms, bound, table)

    # step 1: split into scalar multilinear constraints pinned at the
    # lexicographically least point of D
    w = _lex_least_point(shape, tD)
    constraints = []  # (index_set, form, value)
    for I, C in parts.items():
        if not I:
            continue
        for j in range(r):
            Cj = C[..., j]
            if not Cj.any():
                continue
            g = MultilinearMap(shape.sub(I), 1, Cj[..., None])
            val = int(g.evaluate([w[i - 1] for i in sorted(I)])[0])
            constraints.append((I, g, val))

    def system_table(cons):
        t = np.ones(shape.sizes, dtype=bool)
        for I, g, val in cons:
            t &= _constraint_table(shape, I, g, val)
        return t

    cur = system_table(constraints)
    if not cur.any():
        raise LemmaViolationError("pinned system lost the base point")

    for d in range(1, k + 1):
        v = _lex_least_point(shape, cur)
        nxt = []
        for I, g, val in constraints:
            if d not in I:
                nxt.append((I, g, val))
                continue
            nxt.append((I, g, 0))
            J = I - {d}
            if J:
                pos = sorted(I).index(d)
                sliced = slice_map(g, [pos + 1], [v[d - 1]])
                nxt.append((J, sliced, val))
            else:
                # constant constraint; holds at v by construction
                if int(g.evaluate([v[d - 1]])[0]) != val:
                    raise LemmaViolationError("constant constraint fails at the base point")
        # drop tautologies and duplicates
        seen = set()
        cleaned = []
        for I, g, val in nxt:
            if g.is_zero() and val == 0:
                continue
            key = (tuple(sorted(I)), g.coeffs.tobytes(), val)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append((I, g, val))
        constraints = cleaned
        cur = system_table(constraints)
        if not cur.any():
            raise LemmaViolationError("homogenization emptied the variety")

    if any(val != 0 for _, _, val in constraints):
        raise LemmaViolationError("homogenized constraints keep a nonzero value")
    forms = [(I, g) for I, g, _ in constraints]
    if len(forms) > bound:
        raise LemmaViolationError(
            f"homogenization produced {len(forms)} constraints, above the bound {bound}"
        )
    if (cur & ~tA).any():
        raise LemmaViolationError("homogenized variety escaped {A = 0}")
    return MultilinearizedVariety(forms, bound, cur)
