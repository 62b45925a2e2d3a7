"""Degree-d polynomials over F_p and their symmetric multilinear forms.

The bridge requires d < p so that d! is invertible; the form is built by
signed finite differencing of the top-degree part on basis tuples.  The
amplification check relates |E chi(f)| to the bias of the form through the
iterated-squaring average, whose signed-sum values it counts without
tabling them, and the substitution step turns a partition decomposition of
the form into a product representation of the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import CHI_TOL, ValueHistogram, exact_bias
from .convolutions import autocorrelate
from .errors import LemmaViolationError
from .field import PrimeField, is_prime
from .forms import (
    MultilinearMap,
    Shape,
    addition_table,
    digit_matrix,
    json_int,
    json_int_array,
    residue_dtype,
)
from .partition import PartitionDecomposition

POLARIZE_GUARD = 1 << 14   # n^d coefficient tuples


@dataclass(frozen=True)
class PolyDense:
    """Polynomial in n variables with exponents below p (functions on F_p^n)."""

    p: int
    n: int
    terms: dict   # exponent tuple -> coefficient in [1, p)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for exp, c in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n:
                raise ValueError(f"exponent vector {exp} has wrong length")
            if any(e < 0 or e >= self.p for e in exp):
                raise ValueError(f"exponents must lie in [0, {self.p})")
            c = int(c) % self.p
            if c:
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def top_part(self, d: int | None = None) -> "PolyDense":
        d = self.degree if d is None else d
        return PolyDense(self.p, self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def evaluate(self, x) -> int:
        x = np.asarray(x, dtype=np.int64) % self.p
        out = 0
        for exp, c in self.terms.items():
            t = c
            for v, e in enumerate(exp):
                if e:
                    t = t * pow(int(x[v]), e, self.p) % self.p
            out = (out + t) % self.p
        return out

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, n) residue array, each product of two
        residues formed in int64, or in Python integers where `residue_dtype(1, p)`
        needs them: its float64 tier would make every `%` a float remainder."""
        X = (X % self.p).astype(object if residue_dtype(1, self.p) is object else np.int64, copy=False)
        out = np.zeros(X.shape[0], dtype=X.dtype)
        for exp, c in self.terms.items():
            t = np.full(X.shape[0], c, dtype=X.dtype)
            for v, e in enumerate(exp):
                if e:
                    col = X[:, v]
                    pw = col.copy()
                    for _ in range(e - 1):
                        pw = pw * col % self.p
                    t = t * pw % self.p
            out = (out + t) % self.p
        return out.astype(np.int64, copy=False)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "terms": [
                {"exp": list(e), "c": c}
                for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "PolyDense":
        if not isinstance(obj, dict):
            raise ValueError("polynomial JSON must be an object")
        terms = obj.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
            raise ValueError("terms must be a list of objects")
        coeffs = json_int_array([t["c"] for t in terms], "term coefficients")
        exps = [tuple(json_int_array(t["exp"], "an exponent vector")) for t in terms]
        return PolyDense(json_int(obj["p"], "p"), json_int(obj["n"], "n"), dict(zip(exps, coeffs)))


@dataclass(frozen=True)
class SymmetricForm:
    """A multilinear form on d copies of F_p^n, invariant under argument swaps."""

    form: MultilinearMap
    n: int
    d: int

    def check_symmetry(self) -> bool:
        C = self.form.coeffs[..., 0]
        for a in range(self.d - 1):
            perm = list(range(self.d))
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
            if not np.array_equal(C, C.transpose(perm)):
                return False
        return True

    def diagonal(self) -> PolyDense:
        """The polynomial x -> form(x, ..., x)."""
        return diagonal_poly(self.form)


def diagonal_poly(form: MultilinearMap) -> PolyDense:
    """Diagonal substitution of a multilinear form whose factors all equal F_p^n."""
    dims = form.shape.dims
    if not form.scalar:
        raise ValueError("needs a scalar form")
    n = dims[0]
    if any(m != n for m in dims):
        raise ValueError("all coordinate spaces must agree for the diagonal")
    p = form.shape.p
    terms: dict[tuple, int] = {}
    for idx in np.argwhere(form.coeffs[..., 0]):
        exp = [0] * n
        for j in idx:
            exp[int(j)] += 1
        if any(e >= p for e in exp):
            raise ValueError("diagonal exponent reached p; need degree < p")
        key = tuple(exp)
        terms[key] = (terms.get(key, 0) + int(form.coeffs[tuple(idx) + (0,)])) % p
    return PolyDense(p, n, terms)


def polarize(f: PolyDense, degree: int | None = None) -> SymmetricForm:
    """The symmetric d-linear form whose diagonal is the top-degree part of f.

    Coefficient [i_1..i_d] is the signed subset sum over S in [d] of
    (-1)^(d-|S|) top(sum_{j in S} e_{i_j}), divided by d!; needs d < p.
    All n^d * 2^d subset-sum points are evaluated in one `evaluate_many`
    pass; the guard is on that point matrix's n^d * 2^d * n entries."""
    d = f.degree if degree is None else degree
    if f.is_zero():
        d = max(d, 1)
    if d < 1:
        raise ValueError("need degree >= 1 to polarize")
    if d >= f.p:
        raise ValueError(f"degree {d} is not below the characteristic {f.p}")
    n, p = f.n, f.p
    Shape.guard(n ** d, "polarization", POLARIZE_GUARD, "polarization.POLARIZE_GUARD")
    Shape.guard(n ** d * 2 ** d * n, "polarization points")
    shape = Shape(p, (n,) * d)
    if (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"polarization evaluates in int64 and needs (p - 1)^2 < 2^63, got p = {p}")
    masks = digit_matrix(2, d)  # row s: the subset of [d] with bits s
    tuples = np.indices((n,) * d).reshape(d, -1).T  # basis tuples in row-major order
    points = masks @ np.eye(n, dtype=np.int64)[tuples]  # [tuple, subset, variable]
    vals = f.top_part(d).evaluate_many(points.reshape(-1, n)).reshape(n ** d, 2 ** d)
    # signs +-1 keep the sum below 2^d * p, inside int64 for every admitted p
    signs = np.where((d - masks.sum(axis=1)) % 2 == 0, 1, -1)
    inv_fact = pow(math.factorial(d) % p, p - 2, p)
    coeffs = (vals @ signs % p * inv_fact % p).reshape((n,) * d + (1,))
    return SymmetricForm(MultilinearMap(shape, 1, coeffs), n, d)


# ---------------------------------------------------------------------------
#  The amplification chain
# ---------------------------------------------------------------------------

def difference_table(f: PolyDense, d: int | None = None) -> np.ndarray:
    """Values of the signed subset sum of f over shifts x + sum_{i in S} y^i,
    S over subsets of [d-1], on the full (x, y^1..y^{d-1}) domain; d = 1
    gives f's value table on F_p^n.

    Entry c of the flat int64 result belongs to the point whose base-p digits
    of c are x (lowest n digits), then y^1, y^2, ...  The sum is the iterated
    difference Delta_{y^1} ... Delta_{y^{d-1}} f(x), built one y at a time by
    gathering the previous table through `addition_table(p, n)`; f is
    evaluated only on F_p^n.
    Besides the cached p^(2n) addition table, the last step holds the result
    (N = p^(nd) words) and a table p^n times smaller.  `signed_sum_counts`
    counts the values of this table without its last step; the enumerated
    table stays as its oracle."""
    d = f.degree if d is None else d
    if d < 1:
        raise ValueError("the difference table needs d >= 1")
    p, n = f.p, f.n
    N = p ** (n * d)
    Shape.guard(N, "difference table")
    table = f.evaluate_many(digit_matrix(p, n)).reshape(1, p ** n)  # rows: the y's added so far; columns: x
    add = addition_table(p, n) if d > 1 else None  # d = 1 builds no p^(2n) table
    for _ in range(d - 1):
        # the y added now lands just above x, so y^1, added last, sits lowest
        step = np.take(table, add, axis=1)  # [Y, y, x] -> table[Y, x + y]
        step -= table[:, None, :]
        step %= p
        table = step.reshape(-1, p ** n)
    return table.reshape(N)


def signed_sum_counts(f: PolyDense, d: int | None = None) -> np.ndarray:
    """Value counts of `difference_table(f, d)`, the (p,) int64 array that
    `np.bincount(difference_table(f, d), minlength=p)` gives, for d >= 2,
    counted without building the p^(nd) table.

    Row Y of g = difference_table(f, d - 1), R = p^(n(d-2)) rows of p^n
    values, is a function g_Y of x, and the last step is g_Y(x + y) - g_Y(x).
    As (x, y) runs over F_p^n x F_p^n, (x, x + y) runs over all pairs, so the
    count of value v is sum_Y sum_b H[Y, v + b] H[Y, b], where H[Y] is the
    value histogram of row Y: the cyclic self-correlation that
    `convolutions.autocorrelate` computes along the value axis.
    The guards count the R * p^n table and the R * p * p gather of the pair
    count, the pair count first, so a large p at n = 1 is refused before any
    p-sized table is built; for d >= 2 both are at most p^(nd)."""
    d = f.degree if d is None else d
    if d < 2:
        raise ValueError("the signed sum needs d >= 2")
    p, n = f.p, f.n
    rows = p ** (n * (d - 2))
    Shape.guard(rows * p * p, "signed-sum pair count")
    table = difference_table(f, d - 1).reshape(rows, p ** n)
    table += np.arange(0, rows * p, p)[:, None]  # row Y's values land in bins Y p .. Y p + p - 1
    hist = np.bincount(table.reshape(-1), minlength=rows * p).reshape(rows, p)
    return autocorrelate(hist, 1, p, 1).sum(axis=0)


@dataclass(frozen=True)
class AmplificationReport:
    abs_bias_power: float      # |E chi(f)| ^ (2^(d-1))
    signed_sum_mean: float     # E chi(signed subset sum), real
    form_bias: Fraction        # exact bias of the polarized form
    ok: bool


def cs_amplification_check(f: PolyDense) -> AmplificationReport:
    """Both displayed bounds of the amplification chain, exactly counted:
    |E chi(f)|^(2^(d-1)) <= E chi(signed sum), and
    bias(form) >= |E chi(f)|^(2^(2d-2)), each up to the chi tolerance.
    E chi(signed sum) is read from `signed_sum_counts` over all p^(nd)
    points (x, y^1..y^{d-1}), without building their table."""
    if f.is_zero():
        return AmplificationReport(1.0, 1.0, Fraction(1), True)
    d = f.degree
    if d < 2:
        raise ValueError("the amplification check needs degree >= 2")
    if d >= f.p:
        raise ValueError(f"degree {d} is not below the characteristic {f.p}")
    p, n = f.p, f.n
    counts = signed_sum_counts(f, d)  # guards R p^2 and R p^n, both >= p, before the tables below
    field = PrimeField(p)

    fvals = f.evaluate_many(digit_matrix(p, n))
    bias_f = complex(field.char_table[fvals].mean())
    c_pow = abs(bias_f) ** (1 << (d - 1))

    mid = ValueHistogram(p, tuple(counts.tolist()), p ** (n * d)).chi_average(field)
    if abs(mid.imag) > CHI_TOL:
        raise LemmaViolationError(f"signed-sum average {mid} is not real")
    mid_real = mid.real

    alpha = polarize(f, d)
    b_alpha = exact_bias(alpha.form)

    ok = c_pow <= mid_real + CHI_TOL and float(b_alpha) >= abs(bias_f) ** (1 << (2 * d - 2)) - CHI_TOL
    if not ok:
        raise LemmaViolationError(
            f"amplification chain failed: {c_pow} vs {mid_real} vs {b_alpha}"
        )
    return AmplificationReport(c_pow, mid_real, b_alpha, ok)


# ---------------------------------------------------------------------------
#  Substitution of a partition decomposition into the diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubstitutionReport:
    factors: tuple        # (beta diagonal, gamma diagonal) PolyDense pairs
    ok: bool


def substitute_decomposition(decomp: PartitionDecomposition) -> SubstitutionReport:
    """Turn a partition decomposition of a symmetric form into the identity
    diagonal(form)(x) = sum_i b_i(x) * g_i(x) with lower-degree factors,
    verified pointwise on all of F_p^n."""
    target = decomp.target
    dims = target.shape.dims
    n = dims[0]
    if any(m != n for m in dims):
        raise ValueError("needs a form on d copies of one space")
    p = target.shape.p
    if not decomp.verify():
        raise ValueError("decomposition does not reconstruct its target")
    pairs = []
    for s in decomp.summands:
        pairs.append((diagonal_poly(s.beta), diagonal_poly(s.gamma)))
    N = p ** n
    Shape.guard(N, "substitution check")
    pts = digit_matrix(p, n)
    lhs = diagonal_poly(target).evaluate_many(pts)
    rhs = np.zeros(N, dtype=np.int64)
    for b, g in pairs:
        rhs = (rhs + b.evaluate_many(pts) * g.evaluate_many(pts)) % p
    ok = np.array_equal(lhs, rhs)
    if not ok:
        raise LemmaViolationError("substituted identity failed pointwise")
    return SubstitutionReport(tuple(pairs), ok)
