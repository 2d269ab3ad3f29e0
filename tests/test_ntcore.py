"""Core arithmetic tests: square roots and Legendre symbols are checked against exhaustive scans."""
import random

import pytest

from modhyp.ntcore import (
    NotAResidue,
    PrimePower,
    euler_phi,
    is_prime,
    legendre,
    primes_upto,
    sqrt_mod_prime,
)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)  # Mersenne prime, worst-case trial division at the bound


def test_primes_upto_matches_trial_division():
    assert primes_upto(101) == [n for n in range(2, 102) if is_prime(n)]
    assert primes_upto(1) == []


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(49) == 42
    # multiplicative sanity against direct gcd count
    import math

    for n in range(2, 200):
        assert euler_phi(n) == sum(1 for x in range(1, n) if math.gcd(x, n) == 1)


def test_legendre_examples():
    assert legendre(4, 7) == 1
    assert legendre(2, 5) == -1
    assert legendre(3, 5) == -1
    assert legendre(14, 7) == 0


def test_legendre_against_exhaustive_squares():
    for p in primes_upto(101):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expect


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(4, 5) == (2, 3)
    assert sqrt_mod_prime(2, 7) == (3, 4)
    with pytest.raises(NotAResidue):
        sqrt_mod_prime(3, 5)


def _sqrt_scan(a, p):
    """The least b in [1, p) with b*b = a (mod p), by exhaustive search."""
    a %= p
    for b in range(1, p):
        if b * b % p == a:
            return b
    raise NotAResidue(f"{a} is not a square mod {p}")


def test_sqrt_mod_prime_matches_scan():
    # every residue of every odd prime <= 211, plus 401 and 761; p = 1 (mod 4)
    # runs the Tonelli-Shanks loop, and p = 1 (mod 8) needs more than one of
    # its rounds (up to 5 at 193 = 2**6 * 3 + 1)
    for p in [q for q in primes_upto(211) if q > 2] + [401, 761]:
        for a in range(1, p):
            if legendre(a, p) != 1:
                continue
            b = _sqrt_scan(a, p)
            b = min(b, p - b)
            assert sqrt_mod_prime(a, p) == (b, p - b), (a, p)


def test_sqrt_large_prime_uses_tonelli_shanks():
    for p in (1009, 10007, 104729):
        rng = random.Random(p)
        for _ in range(20):
            r = rng.randrange(1, p)
            a = r * r % p
            b, b2 = sqrt_mod_prime(a, p)
            assert b * b % p == a
            assert b2 == p - b
            assert 0 < b < p / 2


def test_prime_power_validation():
    pp = PrimePower(7, 2)
    assert (pp.n, pp.phi) == (49, 42)
    with pytest.raises(ValueError):
        PrimePower(6, 2)
    with pytest.raises(ValueError):
        PrimePower(5, 0)
    assert PrimePower.from_modulus(49) == PrimePower(7, 2)
    assert PrimePower.from_modulus(12) is None
    assert PrimePower.from_modulus(7) == PrimePower(7, 1)
    assert PrimePower.from_modulus(1) is None
