"""Exact integer arithmetic modulo prime powers.

Everything here is plain ``int`` arithmetic (arbitrary precision), so every
result is bit-exact regardless of operand size.  No floats, no probabilistic
primality tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class NotAResidue(ValueError):
    """Requested a square root of a quadratic non-residue."""



def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n >= 1."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):  # 6k +- 1 wheel
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler totient via trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    phi = 1
    for p, e in factorize(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    r = pow(a, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def _tonelli_shanks(a: int, p: int) -> int:
    """One square root of a mod p; requires an odd prime p and legendre(a, p) == 1."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # Euler's criterion: first non-residue
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def sqrt_mod_prime(a: int, p: int) -> tuple[int, int]:
    """Both square roots of a mod p as (b, p-b) with 0 < b < p/2, by Tonelli-Shanks.

    Raises NotAResidue unless legendre(a, p) == 1; the two roots are b and
    p - b, so taking the smaller one makes the result unique.
    """
    if legendre(a, p) != 1:
        raise NotAResidue(f"{a % p} is not a nonzero square mod {p}")
    b = _tonelli_shanks(a, p)
    b = min(b, p - b)
    return b, p - b


@dataclass(frozen=True)
class PrimePower:
    """A modulus p**m together with its totient, validated at construction."""

    p: int
    m: int
    n: int = field(init=False)
    phi: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 1:
            raise ValueError("exponent must be >= 1")
        object.__setattr__(self, "n", self.p**self.m)
        object.__setattr__(self, "phi", self.p ** (self.m - 1) * (self.p - 1))

    @classmethod
    def from_modulus(cls, n: int) -> PrimePower | None:
        """Decompose n as p**m, or None if n is not a prime power."""
        if n < 2:
            return None
        fac = factorize(n)
        if len(fac) != 1:
            return None
        (p, m), = fac.items()
        return cls(p, m)

    def __str__(self) -> str:
        return f"{self.p}^{self.m}" if self.m > 1 else str(self.p)
