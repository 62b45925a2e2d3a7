import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.field import PrimeField, fvec, is_prime
from rankforge.forms import Shape


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(5) and is_prime(7) and is_prime(101)
    assert not is_prime(1) and not is_prime(4) and not is_prime(9) and not is_prime(91)


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n) != _trial_division(n)] == []


def test_miller_rabin_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]
    # strong pseudoprimes to the bases 2..7, 2..13 and 2..23
    strong = [3215031751, 3474749660383, 3825123056546413051]
    assert not any(is_prime(n) for n in carmichael + strong)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1) and is_prime(1_000_000_007)
    assert not is_prime(2 ** 61 + 1) and not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_large_prime_shape_is_fast():
    t0 = time.perf_counter()
    sh = Shape(2 ** 61 - 1, (1,))
    assert time.perf_counter() - t0 < 1.0
    assert sh.domain_size == 2 ** 61 - 1
    with pytest.raises(ValueError):
        Shape(2 ** 61 + 1, (1,))


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_inverse_examples():
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(2).add(1, 1) == 0
    assert PrimeField(7).mul(3, 5) == 1


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_inverses_exhaustive_small_fields():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1


def test_character_values():
    F2 = PrimeField(2)
    assert F2.character(1) == pytest.approx(-1)
    assert F2.character(0) == pytest.approx(1)
    F3 = PrimeField(3)
    assert F3.character(1) == pytest.approx(complex(-0.5, np.sqrt(3) / 2))


def test_character_table_invariants():
    for p in (2, 3, 5, 7, 11):
        F = PrimeField(p)
        assert abs(F.char_table[0] - 1) < 1e-12
        assert abs(F.char_table.sum()) < 1e-12
        for a in range(p):
            for b in range(p):
                assert abs(F.character(a) * F.character(b) - F.character(a + b)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100))
def test_character_multiplicative(a, b):
    F = PrimeField(7)
    assert abs(F.character(a) * F.character(b) - F.character(a + b)) < 1e-12


def test_dot_examples():
    F2 = PrimeField(2)
    assert F2.dot((1, 0, 1), (1, 1, 1)) == 0
    F3 = PrimeField(3)
    assert F3.dot((1, 2), (2, 2)) == 0
    assert F3.dot((0, 0), (1, 2)) == 0


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        PrimeField(2).dot((1, 0), (1, 0, 1))


def test_every_functional_is_a_dot_product():
    # over small spaces, x -> dot(x, u) enumerates every linear functional once
    for p, n in ((2, 3), (3, 2), (5, 1)):
        F = PrimeField(p)
        points = [fvec(np.unravel_index(i, (p,) * n), p) for i in range(p ** n)]
        seen = set()
        for ucode in range(p ** n):
            u = fvec(np.unravel_index(ucode, (p,) * n), p)
            table = tuple(F.dot(x, u) for x in points)
            seen.add(table)
        # p^n distinct tables, all additive
        assert len(seen) == p ** n
        for table in seen:
            code = {points[i]: table[i] for i in range(len(points))}
            for x in points:
                for y in points:
                    s = fvec((np.asarray(x) + np.asarray(y)) % p, p)
                    assert code[s] == (code[x] + code[y]) % p
