import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.field import is_prime
from rankforge.linalg import _inverse_many
from rankforge.forms import Shape, characters


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
        Shape(6, (1,))


def test_inverse_examples():
    # the inverses the elimination kernel divides pivots by
    assert _inverse_many(np.array([2]), 5).tolist() == [3]
    assert _inverse_many(np.array([1, 3, 5]), 7).tolist() == [1, 5, 3]
    assert _inverse_many(np.array([1]), 2).tolist() == [1]


def test_inverses_exhaustive_small_fields():
    for p in (2, 3, 5, 7, 11):
        a = np.arange(1, p)
        assert (a * _inverse_many(a, p) % p == 1).all()


def test_character_values():
    assert characters(2)[1] == pytest.approx(-1)
    assert characters(2)[0] == pytest.approx(1)
    assert characters(3)[1] == pytest.approx(complex(-0.5, np.sqrt(3) / 2))


def test_character_table_invariants():
    for p in (2, 3, 5, 7, 11):
        chi = characters(p)
        assert abs(chi[0] - 1) < 1e-12
        assert abs(chi.sum()) < 1e-12
        for a in range(p):
            for b in range(p):
                assert abs(chi[a] * chi[b] - chi[(a + b) % p]) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100))
def test_character_multiplicative(a, b):
    chi = characters(7)
    assert abs(chi[a % 7] * chi[b % 7] - chi[(a + b) % 7]) < 1e-12
