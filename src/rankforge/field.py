"""Prime-field arithmetic, the additive character, and the standard dot product.

Values of F_p are plain Python ints in [0, p).  Vectors in F_p^n (points of a
coordinate space) are int sequences; `dot` is the fixed bilinear form that
identifies linear functionals with vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on the twelve prime bases 2..37.

    It is exact for every n < 3.18 * 10^23, so for every modulus a `Shape`
    admits (p < 2^63); the first composite it accepts is
    318665857834031151167461.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_p together with the additive character chi(t) = exp(2*pi*i*t/p)."""

    p: int
    char_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        table = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        table.setflags(write=False)
        object.__setattr__(self, "char_table", table)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def character(self, t: int) -> complex:
        return complex(self.char_table[t % self.p])

    def dot(self, u, v) -> int:
        """Standard dot product on F_p^n.  Raises on length mismatch."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
        return int(int((u * v).sum()) % self.p)


def fvec(entries, p: int) -> tuple[int, ...]:
    """Normalize a vector of residues mod p to a canonical tuple."""
    out = tuple(int(e) % p for e in entries)
    return out
