"""Primality of the modulus.

Values of F_p are residues in [0, p); the arithmetic on them is numpy's, mod
p, in the modules that use it (`forms.contract` evaluates every map), and
the additive character table is `forms.characters`.
"""

from __future__ import annotations


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
