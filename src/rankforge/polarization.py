"""Degree-d polynomials over F_p and their symmetric multilinear forms.

The bridge requires d < p so that d! is invertible; the form is read from
the coefficients of the top-degree part.  Every table of a polynomial's
values on F_p^n is one `forms.contract` of its coefficient tensor.  The
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
    contract,
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

    def table(self) -> np.ndarray:
        """Values at every point of F_p^n, the (p^n,) int64 array in code order
        (coordinate 0 is the least significant digit of a code).

        With D = 1 + the largest exponent, the (D,)^n coefficient tensor, its
        axes reversed, is contracted against the p x D power table
        V[x, e] = x^e mod p on every axis.  Its D^n entries and every partial
        contraction are at most p^n, since D <= p; the guard counts p^n and V."""
        p, n = self.p, self.n
        D = 1 + max((max(e) for e in self.terms), default=0)
        Shape.guard(max(p ** n, p * D), "polynomial table")
        C = np.zeros((D,) * n, dtype=np.int64)
        for exp, c in self.terms.items():
            C[exp[::-1]] = c
        # the guard on V's p rows keeps p far below 2^31.5, past which x^(e-1) * x would leave int64
        V, x = np.ones((p, D), dtype=np.int64), np.arange(p)
        for e in range(1, D):
            V[:, e] = V[:, e - 1] * x % p
        return contract(C, [V] * n, p).reshape(p ** n)

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

    Coefficient [i_1..i_d] is c_e * prod_v e_v! / d!, where e counts how often
    each variable occurs among the indices and c_e is the coefficient of x^e
    in top(f); needs d < p.  Each top-degree term fills the entry at the code
    of its sorted index tuple, and every tuple reads the entry of its sorted
    indices.  The form's domain, p^(nd) points, must be below 2^63."""
    d = f.degree if degree is None else degree
    if f.is_zero():
        d = max(d, 1)
    if d < 1:
        raise ValueError("need degree >= 1 to polarize")
    if d >= f.p:
        raise ValueError(f"degree {d} is not below the characteristic {f.p}")
    n, p = f.n, f.p
    Shape.guard(n ** d, "polarization", POLARIZE_GUARD, "polarization.POLARIZE_GUARD")
    if p ** (n * d) >= 1 << 63:
        raise OverflowError(f"the polarized form's domain {p}^{n * d} is not below 2^63")
    shape = Shape(p, (n,) * d)
    codes = n ** np.arange(d - 1, -1, -1)  # row-major code of an index tuple
    inv_fact = pow(math.factorial(d) % p, p - 2, p)
    entries = np.zeros(n ** d, dtype=np.int64)
    for exp, c in f.top_part(d).terms.items():
        weight = math.prod(math.factorial(e) for e in exp)
        entries[np.repeat(np.arange(n), exp) @ codes] = c * weight * inv_fact % p
    tuples = np.sort(np.indices((n,) * d).reshape(d, -1), axis=0)  # column t: tuple t's indices, sorted
    coeffs = entries[codes @ tuples].reshape((n,) * d + (1,))
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
    table = f.table().reshape(1, p ** n)  # rows: the y's added so far; columns: x
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

    fvals = f.table()
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
    lhs = diagonal_poly(target).table()
    rhs = np.zeros_like(lhs)
    for b, g in pairs:
        rhs = (rhs + b.table() * g.table()) % p
    ok = np.array_equal(lhs, rhs)
    if not ok:
        raise LemmaViolationError("substituted identity failed pointwise")
    return SubstitutionReport(tuple(pairs), ok)
