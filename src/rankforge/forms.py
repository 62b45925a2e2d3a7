"""Multilinear and multiaffine maps G_1 x ... x G_k -> F_p^m with dense coefficients.

Coordinate spaces G_i = F_p^{n_i}.  A point of G_i is encoded as an integer
code in [0, p^{n_i}) whose base-p digits (little-endian) are the vector
entries, so full-domain value tables are plain numpy grids with one axis per
coordinate.  Domain enumeration order is row-major over (x_1, ..., x_k) codes
and is part of the reproducibility contract.

Every value of a map comes from `contract`, which sums a part's coefficient
tensor against points, one matrix product per coordinate: value tables, the
slice stacks behind every bias, point values and slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainSizeError
from .field import is_prime

MAX_DOMAIN_BITS = 63
DEFAULT_ENUM_GUARD = 1 << 22
TABLE_CACHE_ENTRIES = 1 << 22  # int64 entries (32 MB) of the largest digit, addition or character table kept for reuse
CAST_BLOCK = 1 << 16  # entries cast at a time from float64 products back to int64


@dataclass(frozen=True)
class Shape:
    """Arity, prime and per-coordinate dimensions of a domain G_1 x ... x G_k."""

    p: int
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if len(self.dims) < 1 or any(n < 1 for n in self.dims):
            raise ValueError(f"need k >= 1 coordinates of dimension >= 1, got {self.dims}")
        # p^N < 2^63, in integers; p^N is formed only once N * log2(p) < 63 is certain
        p, N = int(self.p), sum(self.dims)
        if N * (p.bit_length() - 1) >= MAX_DOMAIN_BITS or p ** N >= 2 ** MAX_DOMAIN_BITS:
            raise ValueError(f"domain size {p}^{N} exceeds the 64-bit counter guard")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.p ** n for n in self.dims)

    @property
    def domain_size(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    def sub(self, coords) -> "Shape":
        """Shape of the sub-domain G_I for a 1-based coordinate set."""
        coords = sorted(set(coords))
        if not coords:
            raise ValueError("empty coordinate set has no shape")
        return Shape(self.p, tuple(self.dims[i - 1] for i in coords))

    @staticmethod
    def guard(needed: int, what: str, limit: int | None = None, constant: str = "forms.DEFAULT_ENUM_GUARD"):
        """The one resource guard: refuse `needed` points of work over `limit`.

        Callers pass `limit` as the module constant named by `constant` (or a
        value derived from it), read when they run; without one,
        DEFAULT_ENUM_GUARD is read here.  No limit is bound when a function
        is defined, so a lowered constant takes effect at once."""
        if limit is None:
            limit = DEFAULT_ENUM_GUARD
        if needed > limit:
            raise DomainSizeError(needed, limit, what, constant)


@lru_cache(maxsize=None)
def _digit_matrix(p: int, n: int) -> np.ndarray:
    codes = np.arange(p ** n, dtype=np.int64)
    M = np.empty((p ** n, n), dtype=np.int64)
    for j in range(n):
        M[:, j] = (codes // p ** j) % p
    M.setflags(write=False)
    return M


def digit_matrix(p: int, n: int) -> np.ndarray:
    """(p^n, n) matrix whose row c holds the base-p digits of code c; kept
    for reuse unless it has more than TABLE_CACHE_ENTRIES entries."""
    if p ** n * n > TABLE_CACHE_ENTRIES:
        return _digit_matrix.__wrapped__(p, n)
    return _digit_matrix(p, n)


@lru_cache(maxsize=None)
def _addition_table(p: int, n: int) -> np.ndarray:
    # one digit at a time: the peak is two (p^n, p^n) tables, not n of them
    D = digit_matrix(p, n)
    T = np.zeros((p ** n, p ** n), dtype=np.int64)
    S = np.empty_like(T)
    for j in range(n):
        np.add(D[:, j, None], D[None, :, j], out=S)
        S %= p
        S *= p ** j
        T += S
    T.setflags(write=False)
    return T


def addition_table(p: int, n: int) -> np.ndarray:
    """(p^n, p^n) table of codes: entry [a, b] encodes vec(a) + vec(b); kept
    for reuse unless it has more than TABLE_CACHE_ENTRIES entries."""
    if p ** (2 * n) > TABLE_CACHE_ENTRIES:
        return _addition_table.__wrapped__(p, n)
    return _addition_table(p, n)


@lru_cache(maxsize=None)
def _characters(p: int) -> np.ndarray:
    table = np.exp(2j * np.pi * np.arange(p) / p)
    table.setflags(write=False)
    return table


def characters(p: int) -> np.ndarray:
    """(p,) complex128 table of the additive character chi(t) = exp(2 pi i t / p);
    kept for reuse unless its 2p int64-sized entries exceed TABLE_CACHE_ENTRIES.
    Callers guard p first: the table grows with it."""
    if 2 * p > TABLE_CACHE_ENTRIES:
        return _characters.__wrapped__(p)
    return _characters(p)


def code_to_vec(p: int, n: int, code: int) -> tuple[int, ...]:
    return tuple(int((code // p ** j) % p) for j in range(n))


def codes_to_point(shape: Shape, codes) -> tuple[tuple[int, ...], ...]:
    return tuple(code_to_vec(shape.p, n, c) for n, c in zip(shape.dims, codes))


def normalized_vectors(p: int, n: int) -> np.ndarray:
    """Every vector of F_p^n whose first nonzero entry is 1, one per row, in
    row-major lexicographic order (most significant digit first): one point
    of each line through 0.  Their codes are [q, 2q) for q = p^0, ..., p^(n-1).
    Entries take the narrowest unsigned type that holds p - 1 (a byte at p < 257)."""
    codes = np.concatenate([np.arange(q, 2 * q, dtype=np.int64) for q in (p ** e for e in range(n))])
    out = np.empty((len(codes), n), dtype=np.min_scalar_type(p - 1))
    for t in range(n):
        out[:, t] = codes // p ** (n - 1 - t) % p
    return out


def gaussian_binomial(p: int, n: int, d: int) -> int:
    """The number of d-dimensional subspaces of F_p^n, in integers."""
    if not 0 <= d <= n:
        return 0
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspaces(p: int, n: int, d: int) -> np.ndarray:
    """The reduced row echelon bases of every d-dimensional subspace of
    F_p^n, as a (gaussian_binomial(p, n, d), d, n) int64 array: each basis
    once, with pivot rows scaled to a leading 1 and zeros above and below
    each pivot.  The pivot columns run through `combinations(range(n), d)`
    backwards, and for each pivot set the free entries (right of a row's
    pivot, outside the pivot columns) count up in row-major order, most
    significant first; at d = 1 the rows are those of `normalized_vectors`."""
    count = gaussian_binomial(p, n, d)
    Shape.guard(count * d * n, "subspace bases")
    out = np.zeros((count, d, n), dtype=np.int64)
    start = 0
    for pivots in reversed(list(combinations(range(n), d))):
        free = [(i, j) for i, pc in enumerate(pivots) for j in range(pc + 1, n) if j not in pivots]
        block = out[start : start + p ** len(free)]
        block[:, list(range(d)), list(pivots)] = 1
        codes = np.arange(len(block), dtype=np.int64)
        for t, (i, j) in enumerate(free):
            block[:, i, j] = codes // p ** (len(free) - 1 - t) % p
        start += len(block)
    return out


def residue_dtype(n: int, p: int):
    """The cheapest dtype in which a sum of n products of residues mod p is
    exact: float64 while n (p-1)^2 < 2^53, int64 while n (p-1)^2 < 2^63, and
    Python integers (object) past that.  A coordinate of a `Shape` gets past
    int64 only when k = 1 and p > 2^31."""
    bound = n * (p - 1) ** 2
    return np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 63 else object


def _int64_in_place(F: np.ndarray) -> np.ndarray:
    """The integers of a C-contiguous float64 array as int64, in its own buffer.
    Each block is copied before it is cast onto itself, so the peak memory is
    the array and one block, where `astype` would hold two whole arrays."""
    out = F.view(np.int64)
    src, dst = F.reshape(-1), out.reshape(-1)
    for start in range(0, src.size, CAST_BLOCK):
        dst[start : start + CAST_BLOCK] = src[start : start + CAST_BLOCK]
    return out


def contract(C: np.ndarray, mats, p: int) -> np.ndarray:
    """Sum the leading axes of C in turn against the rows of residue matrices.

    mats[j] is an (N_j, n_j) matrix whose rows are points of F_p^(n_j), and
    C's axis j has length n_j; C and mats hold residues mod p.  The result
    is the (N_1 * ... * N_j, r) array in [0, p) of C's values at every tuple of
    rows, row-major over the tuples, with r the product of C's other axes.
    One matrix product per axis, reduced mod p after each, is exact in the
    `residue_dtype` of the longest axis.  In float64 every partial sum is an
    integer below 2^53, so the BLAS product is exact in any summation order
    and on any number of threads; its result goes back to int64 residues
    after each axis."""
    dtype = residue_dtype(max(M.shape[1] for M in mats), p) if mats else np.int64
    T = np.ascontiguousarray(C, dtype=dtype).reshape(1, -1)
    for M in mats:
        T = T.astype(dtype, copy=False).reshape(T.shape[0], M.shape[1], -1)
        M, r = M.astype(dtype, copy=False), T.shape[2]
        # with r = 1 the axis is one 2-d product; otherwise one per row of T
        T = (T[:, :, 0] @ M.T if r == 1 else np.matmul(M, T)).reshape(-1, r)
        if dtype is np.float64:
            T = _int64_in_place(T)
        if p == 2:  # the sums are nonnegative, and a bit mask is cheaper than a division
            T &= 1
        else:
            T %= p
    return T.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
#  Map types
# ---------------------------------------------------------------------------

def _evaluate(f, xs) -> np.ndarray:
    """Value at a point given as a sequence of k vectors: every part contracted
    with its coordinates' vectors, summed in Python integers, so exact for
    every admitted p."""
    shape = f.shape
    if len(xs) != shape.k:
        raise ValueError(f"expected {shape.k} arguments, got {len(xs)}")
    rows = []
    for i, (x, n) in enumerate(zip(xs, shape.dims)):
        x = np.asarray(x, dtype=np.int64) % shape.p
        if x.shape != (n,):
            raise ValueError(f"argument {i + 1} has shape {x.shape}, expected ({n},)")
        rows.append(x[None, :])
    out = np.zeros(f.m, dtype=object)
    for I, C in f.parts.items():
        out += contract(C, [rows[i - 1] for i in sorted(I)], shape.p)[0]
    return (out % shape.p).astype(np.int64)


def _check_coeffs(shape: Shape, m: int, coeffs) -> np.ndarray:
    C = np.asarray(coeffs, dtype=np.int64) % shape.p
    want = shape.dims + (m,)
    if C.shape != want:
        raise ValueError(f"coefficient tensor has shape {C.shape}, expected {want}")
    return C


@dataclass(frozen=True)
class MultilinearMap:
    """Dense k-linear map; m = 1 is the scalar form case."""

    shape: Shape
    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("target dimension must be >= 1")
        object.__setattr__(self, "coeffs", _check_coeffs(self.shape, self.m, self.coeffs))
        self.coeffs.setflags(write=False)

    @property
    def scalar(self) -> bool:
        return self.m == 1

    @property
    def parts(self) -> dict:
        """`MultiaffineMap.parts` of this map: one part, kept even when zero."""
        return {frozenset(range(1, self.shape.k + 1)): self.coeffs}

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    evaluate = _evaluate

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearMap)
            and self.shape == other.shape
            and self.m == other.m
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.shape, self.m, self.coeffs.tobytes()))


@dataclass(frozen=True)
class MultiaffineMap:
    """Sum of multilinear parts A_I over subsets I of [k] (1-based coordinates).

    The empty-set part is a constant vector of length m.  Zero parts are
    dropped, so the part family is the canonical one.
    """

    shape: Shape
    m: int
    parts: dict

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("target dimension must be >= 1")
        clean = {}
        for I, C in self.parts.items():
            I = frozenset(int(i) for i in I)
            if any(i < 1 or i > self.shape.k for i in I):
                raise ValueError(f"subset {sorted(I)} out of range for k={self.shape.k}")
            C = np.asarray(C, dtype=np.int64) % self.shape.p
            want = tuple(self.shape.dims[i - 1] for i in sorted(I)) + (self.m,)
            if C.shape != want:
                raise ValueError(f"part {sorted(I)} has shape {C.shape}, expected {want}")
            if C.any():
                C = C.copy()
                C.setflags(write=False)
                clean[I] = C
        object.__setattr__(self, "parts", clean)

    def is_zero(self) -> bool:
        return not self.parts

    evaluate = _evaluate

    def __eq__(self, other):
        if not isinstance(other, MultiaffineMap):
            return NotImplemented
        if self.shape != other.shape or self.m != other.m:
            return False
        if set(self.parts) != set(other.parts):
            return False
        return all(np.array_equal(self.parts[I], other.parts[I]) for I in self.parts)

    def __hash__(self):
        items = sorted((tuple(sorted(I)), C.tobytes()) for I, C in self.parts.items())
        return hash((self.shape, self.m, tuple(items)))


Map = MultilinearMap | MultiaffineMap


def as_multiaffine(f: Map) -> MultiaffineMap:
    if isinstance(f, MultiaffineMap):
        return f
    return MultiaffineMap(f.shape, f.m, f.parts)


# ---------------------------------------------------------------------------
#  Full-domain value tables
# ---------------------------------------------------------------------------

def part_grid(shape: Shape, I: frozenset, C: np.ndarray) -> np.ndarray:
    """Value grid of one part over G_I, broadcast-ready against the full domain."""
    Is = sorted(I)
    grid = contract(C, [digit_matrix(shape.p, shape.dims[i - 1]) for i in Is], shape.p)
    # insert size-1 axes for coordinates outside I
    full = [1] * shape.k + [C.shape[-1]]
    for i in Is:
        full[i - 1] = shape.sizes[i - 1]
    return grid.reshape(full)


def value_table(f: Map) -> np.ndarray:
    """Exact value grid, axes (codes of x_1..x_k, out).  The guard keeps p and
    the 2^k parts small, so the sum of parts is exact in int64."""
    shape = f.shape
    Shape.guard(shape.domain_size, "value table")
    out = np.zeros(shape.sizes + (f.m,), dtype=np.int64)
    for I, C in f.parts.items():
        out += part_grid(shape, I, C)
    out %= shape.p
    return out


def scalar_table(f: Map) -> np.ndarray:
    """Value grid of a scalar map, axes (codes of x_1..x_k)."""
    if f.m != 1:
        raise ValueError("scalar_table needs a scalar-valued map")
    return value_table(f)[..., 0]


def zero_set_table(f: Map) -> np.ndarray:
    """Boolean grid of {f = 0}."""
    return ~value_table(f).any(axis=-1)


# ---------------------------------------------------------------------------
#  Currying, slicing, multilinear parts
# ---------------------------------------------------------------------------

def curry_last(alpha: MultilinearMap) -> MultilinearMap:
    """The map A: G_[k-1] -> G_k with alpha(x) = dot(A(x_[k-1]), x_k)."""
    if not alpha.scalar:
        raise ValueError("curry_last needs a scalar form")
    if alpha.shape.k < 2:
        raise ValueError("curry_last needs arity k >= 2")
    sub = Shape(alpha.shape.p, alpha.shape.dims[:-1])
    n_k = alpha.shape.dims[-1]
    coeffs = alpha.coeffs.reshape(sub.dims + (n_k,))
    return MultilinearMap(sub, n_k, coeffs)


def slice_map(f: Map, I, x_I) -> Map:
    """Partial evaluation: fix coordinates in I to the given vectors.

    Returns a map on G_{[k] minus I} of the same kind as the input.
    """
    shape = f.shape
    p = shape.p
    I = sorted(set(int(i) for i in I))
    if not I:
        return f
    if any(i < 1 or i > shape.k for i in I):
        raise ValueError("subset out of range")
    if len(I) == shape.k:
        raise ValueError("cannot slice away every coordinate")
    if len(x_I) != len(I):
        raise ValueError("one fixed vector per sliced coordinate is required")
    fixed = {}
    for i, x in zip(I, x_I):
        x = np.asarray(x, dtype=np.int64) % p
        if x.shape != (shape.dims[i - 1],):
            raise ValueError(f"fixed vector for coordinate {i} has wrong shape")
        fixed[i] = x
    rest = [i for i in range(1, shape.k + 1) if i not in fixed]
    new_shape = Shape(p, tuple(shape.dims[i - 1] for i in rest))
    renum = {i: pos + 1 for pos, i in enumerate(rest)}

    acc: dict[frozenset, np.ndarray] = {}
    for J, C in f.parts.items():
        Js = sorted(J)
        cut = [pos for pos, i in enumerate(Js) if i in fixed]
        kept = [pos for pos, i in enumerate(Js) if i not in fixed]
        T = contract(C.transpose(cut + kept + [len(Js)]), [fixed[Js[pos]][None, :] for pos in cut], p)
        T = T.reshape([C.shape[pos] for pos in kept] + [f.m])
        newJ = frozenset(renum[Js[pos]] for pos in kept)
        # k >= 2 here, so p < 2^32 and a sum of two residues fits int64
        acc[newJ] = (acc[newJ] + T) % p if newJ in acc else T
    if isinstance(f, MultilinearMap):
        return MultilinearMap(new_shape, f.m, acc[frozenset(range(1, new_shape.k + 1))])
    return MultiaffineMap(new_shape, f.m, acc)


def top_part(f: Map) -> MultilinearMap:
    """The multilinear part of f on all k coordinates (zero if f has none)."""
    zero = np.zeros(f.shape.dims + (f.m,), dtype=np.int64)
    return MultilinearMap(f.shape, f.m, f.parts.get(frozenset(range(1, f.shape.k + 1)), zero))


def multilinear_parts(f: MultiaffineMap) -> dict:
    """The canonical part family: subset -> MultilinearMap on G_I (constant for I = {})."""
    out = {}
    for I, C in f.parts.items():
        if I:
            out[I] = MultilinearMap(f.shape.sub(I), f.m, C)
        else:
            out[I] = C.copy()
    return out


def compose_output(f: Map, M) -> Map:
    """Postcompose with the linear map F_p^m -> F_p^s given by an (m x s) matrix:
    each part's output axis is contracted with the s columns of M."""
    p = f.shape.p
    M = np.asarray(M, dtype=np.int64) % p
    if M.ndim != 2 or M.shape[0] != f.m:
        raise ValueError(f"matrix shape {M.shape} does not match target dim {f.m}")
    s = M.shape[1]
    parts = {I: contract(np.moveaxis(C, -1, 0), [M.T], p).T.reshape(C.shape[:-1] + (s,))
             for I, C in f.parts.items()}
    if isinstance(f, MultilinearMap):
        return MultilinearMap(f.shape, s, parts[frozenset(range(1, f.shape.k + 1))])
    return MultiaffineMap(f.shape, s, parts)


def stack_maps(maps) -> MultiaffineMap:
    """Combine scalar or vector maps on one shape into a single map into F_p^(sum m)."""
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    shape = maps[0].shape
    total = sum(f.m for f in maps)
    parts: dict[frozenset, np.ndarray] = {}
    offset = 0
    for f in maps:
        fa = as_multiaffine(f)
        if fa.shape != shape:
            raise ValueError("all maps must share one shape")
        for I, C in fa.parts.items():
            if I not in parts:
                want = tuple(shape.dims[i - 1] for i in sorted(I)) + (total,)
                parts[I] = np.zeros(want, dtype=np.int64)
            parts[I][..., offset : offset + f.m] = C
        offset += f.m
    return MultiaffineMap(shape, total, parts)


# ---------------------------------------------------------------------------
#  Random ensembles
# ---------------------------------------------------------------------------

def subsets(k: int):
    """All subsets of [k] in the fixed generation order (by size, then lex)."""
    for size in range(k + 1):
        yield from (frozenset(c) for c in combinations(range(1, k + 1), size))


def random_multilinear(shape: Shape, m: int, seed) -> MultilinearMap:
    """Uniform i.i.d. coefficients; deterministic per seed."""
    if m < 1:
        raise ValueError("target dimension must be >= 1")
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, shape.p, size=shape.dims + (m,), dtype=np.int64)
    return MultilinearMap(shape, m, coeffs)


def random_multiaffine(shape: Shape, m: int, seed) -> MultiaffineMap:
    """Uniform i.i.d. coefficients on every part; deterministic per seed."""
    if m < 1:
        raise ValueError("target dimension must be >= 1")
    rng = np.random.default_rng(seed)
    parts = {}
    for I in subsets(shape.k):
        want = tuple(shape.dims[i - 1] for i in sorted(I)) + (m,)
        parts[I] = rng.integers(0, shape.p, size=want, dtype=np.int64)
    return MultiaffineMap(shape, m, parts)


# ---------------------------------------------------------------------------
#  JSON wire format
# ---------------------------------------------------------------------------

def map_to_json(f: Map) -> dict:
    """Bit-exact JSON form: subsets are 1-based sorted lists, coeffs row-major."""
    fa = as_multiaffine(f)
    parts = []
    for I in sorted(fa.parts, key=lambda s: (len(s), sorted(s))):
        parts.append(
            {"subset": sorted(I), "coeffs": fa.parts[I].reshape(-1).tolist()}
        )
    return {
        "p": fa.shape.p,
        "dims": list(fa.shape.dims),
        "target_dim": fa.m,
        "parts": parts,
    }


def json_int(value, what: str) -> int:
    """An integer field of JSON input; floats, bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_int_array(values, what: str) -> np.ndarray:
    """A flat JSON list of integers as an int64 array, checked once for the whole array."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise ValueError(f"{what} must be a flat list of 64-bit integers")
    return arr.astype(np.int64, copy=False)


def map_from_json(obj: dict) -> Map:
    if not isinstance(obj, dict):
        raise ValueError("map JSON must be an object")
    dims = obj["dims"]
    if not isinstance(dims, list):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    shape = Shape(json_int(obj["p"], "p"), tuple(json_int(n, "a dimension") for n in dims))
    m = json_int(obj.get("target_dim", 1), "target_dim")
    entries = obj.get("parts", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("parts must be a list of objects")
    parts = {}
    for entry in entries:
        subset = entry["subset"]
        if not isinstance(subset, list):
            raise ValueError(f"subset must be a list of coordinates, got {subset!r}")
        I = frozenset(json_int(i, "a subset coordinate") for i in subset)
        if len(I) != len(subset) or any(not 1 <= i <= shape.k for i in I):
            raise ValueError(f"subset {subset} is not a set of coordinates in 1..{shape.k}")
        want = tuple(shape.dims[i - 1] for i in sorted(I)) + (m,)
        C = json_int_array(entry["coeffs"], f"coeffs of part {sorted(I)}").reshape(want)
        if I in parts:
            raise ValueError(f"duplicate part for subset {sorted(I)}")
        parts[I] = C
    full = frozenset(range(1, shape.k + 1))
    if set(parts) <= {full}:
        C = parts.get(full, np.zeros(shape.dims + (m,), dtype=np.int64))
        return MultilinearMap(shape, m, C)
    return MultiaffineMap(shape, m, parts)
