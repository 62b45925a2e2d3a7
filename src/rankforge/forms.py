"""Multilinear and multiaffine maps G_1 x ... x G_k -> F_p^m with dense coefficients.

Coordinate spaces G_i = F_p^{n_i}.  A point of G_i is encoded as an integer
code in [0, p^{n_i}) whose base-p digits (little-endian) are the vector
entries, so full-domain value tables are plain numpy grids with one axis per
coordinate.  Domain enumeration order is row-major over (x_1, ..., x_k) codes
and is part of the reproducibility contract.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct

import numpy as np

from .errors import DomainSizeError
from .field import is_prime

MAX_DOMAIN_BITS = 63
DEFAULT_ENUM_GUARD = 1 << 22


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
        bits = sum(n for n in self.dims) * np.log2(self.p)
        if bits >= MAX_DOMAIN_BITS:
            raise ValueError(f"domain size 2^{bits:.0f} exceeds the 64-bit counter guard")

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
def digit_matrix(p: int, n: int) -> np.ndarray:
    """(p^n, n) matrix whose row c holds the base-p digits of code c."""
    codes = np.arange(p ** n, dtype=np.int64)
    M = np.empty((p ** n, n), dtype=np.int64)
    for j in range(n):
        M[:, j] = (codes // p ** j) % p
    M.setflags(write=False)
    return M


@lru_cache(maxsize=None)
def addition_table(p: int, n: int) -> np.ndarray:
    """(p^n, p^n) table of codes: entry [a, b] encodes vec(a) + vec(b)."""
    D = digit_matrix(p, n)
    weights = p ** np.arange(n, dtype=np.int64)
    S = (D[:, None, :] + D[None, :, :]) % p
    T = (S * weights).sum(axis=-1)
    T.setflags(write=False)
    return T


def code_to_vec(p: int, n: int, code: int) -> tuple[int, ...]:
    return tuple(int((code // p ** j) % p) for j in range(n))


def codes_to_point(shape: Shape, codes) -> tuple[tuple[int, ...], ...]:
    return tuple(code_to_vec(shape.p, n, c) for n, c in zip(shape.dims, codes))


def domain_codes(shape: Shape):
    """Iterator over all points as tuples of per-coordinate codes (row-major)."""
    return iproduct(*(range(s) for s in shape.sizes))


def domain_points(shape: Shape):
    """Iterator over all points as tuples of vectors (row-major)."""
    for codes in domain_codes(shape):
        yield codes_to_point(shape, codes)


# ---------------------------------------------------------------------------
#  Map types
# ---------------------------------------------------------------------------

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

    def evaluate(self, xs) -> np.ndarray:
        """Value at a point given as a sequence of k vectors."""
        if len(xs) != self.shape.k:
            raise ValueError(f"expected {self.shape.k} arguments, got {len(xs)}")
        p = self.shape.p
        T = self.coeffs
        for x, n in zip(reversed(xs), reversed(self.shape.dims)):
            x = np.asarray(x, dtype=np.int64) % p
            if x.shape != (n,):
                raise ValueError(f"argument has shape {x.shape}, expected ({n},)")
            # contract the last remaining coordinate axis (axis -2; out axis is -1)
            T = np.tensordot(x, T, axes=(0, T.ndim - 2)) % p
        return T

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

    def evaluate(self, xs) -> np.ndarray:
        if len(xs) != self.shape.k:
            raise ValueError(f"expected {self.shape.k} arguments, got {len(xs)}")
        p = self.shape.p
        vecs = []
        for i, x in enumerate(xs):
            x = np.asarray(x, dtype=np.int64) % p
            if x.shape != (self.shape.dims[i],):
                raise ValueError(f"argument {i + 1} has shape {x.shape}, expected ({self.shape.dims[i]},)")
            vecs.append(x)
        out = np.zeros(self.m, dtype=np.int64)
        for I, C in self.parts.items():
            Is = sorted(I)
            T = C
            for pos in range(len(Is) - 1, -1, -1):
                T = np.tensordot(vecs[Is[pos] - 1], T, axes=(0, pos)) % p
            out = (out + T) % p
        return out

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
    p = shape.p
    Is = sorted(I)
    letters = string.ascii_lowercase
    if len(Is) + 1 > len(letters):
        raise ValueError("arity too large for table evaluation")
    in_ax = letters[: len(Is)]
    out_ax = in_ax.upper()
    spec = ",".join(f"{O}{a}" for O, a in zip(out_ax, in_ax))
    spec = f"{spec},{in_ax}z->{out_ax}z" if Is else "z->z"
    mats = [digit_matrix(p, shape.dims[i - 1]) for i in Is]
    grid = np.einsum(spec, *mats, C, optimize=True) % p
    # insert size-1 axes for coordinates outside I
    full = [1] * shape.k + [C.shape[-1]]
    for i in Is:
        full[i - 1] = shape.sizes[i - 1]
    return grid.reshape(full)


def value_table(f: Map) -> np.ndarray:
    """Exact value grid, axes (codes of x_1..x_k, out)."""
    shape = f.shape
    Shape.guard(shape.domain_size, "value table")
    out = np.zeros(shape.sizes + (f.m,), dtype=np.int64)
    for I, C in as_multiaffine(f).parts.items():
        out = out + part_grid(shape, I, C)
    return out % shape.p


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
    for J, C in as_multiaffine(f).parts.items():
        Js = sorted(J)
        T = C
        for i in reversed(Js):
            if i in fixed:
                T = np.tensordot(fixed[i], T, axes=(0, Js.index(i))) % p
        newJ = frozenset(renum[i] for i in Js if i not in fixed)
        if newJ in acc:
            acc[newJ] = (acc[newJ] + T) % p
        else:
            acc[newJ] = T
    if isinstance(f, MultilinearMap):
        key = frozenset(range(1, new_shape.k + 1))
        C = acc.get(key, np.zeros(new_shape.dims + (f.m,), dtype=np.int64))
        return MultilinearMap(new_shape, f.m, C)
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


def rebuild(shape: Shape, m: int, parts: dict) -> MultiaffineMap:
    """Inverse of multilinear_parts."""
    raw = {}
    for I, part in parts.items():
        I = frozenset(I)
        raw[I] = part.coeffs if isinstance(part, MultilinearMap) else np.asarray(part)
    return MultiaffineMap(shape, m, raw)


def compose_output(f: Map, M) -> Map:
    """Postcompose with the linear map F_p^m -> F_p^s given by an (m x s) matrix."""
    M = np.asarray(M, dtype=np.int64) % f.shape.p
    if M.ndim != 2 or M.shape[0] != f.m:
        raise ValueError(f"matrix shape {M.shape} does not match target dim {f.m}")
    s = M.shape[1]
    if isinstance(f, MultilinearMap):
        return MultilinearMap(f.shape, s, f.coeffs @ M % f.shape.p)
    parts = {I: C @ M % f.shape.p for I, C in f.parts.items()}
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

def _subsets(k: int):
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
    for I in _subsets(shape.k):
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
            {"subset": sorted(I), "coeffs": [int(v) for v in fa.parts[I].reshape(-1)]}
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
