"""Least-residue point sets of the curve x*y = a (mod n) and their mod-p classes.

A point set is two int64 arrays from the inversion kernel ``unit_partners``,
which inverts the units of n once for the sets of every a of n
(``enumerate_many``); Python tuples appear only in the read-only ``points``
view of a ``PointSet``.  ``invert_units`` inverts mod a base modulus, the
prime p of n = p**m, by Euler's theorem and lifts the inverses to n by
Newton steps, each doubling the exponent of p they hold for; a modulus that
is no prime power is its own base.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ntcore import PrimePower, euler_phi

# x**2 + y**2 < 2 * n**2 and every product in the inversion is below n * (n + 1),
# so int64 arithmetic is exact up to n = 2**31.
EXACT_N_LIMIT = 1 << 31
# Working set per unit of n: the peak-RSS growth of distance_profile (the
# a = 1 inverses, one row and its two 1 MB work arrays) in a fresh process
# was 21.4 B at n = 7**8 and 24.4 B at the prime 5764807, where every nonzero
# residue is a unit, and of enumerate_points (these two arrays and the
# PointSet checks) 25.1-25.3 B at the primes 1000003 and 4000037.  The
# inversion holds x, y and one scratch array (x mod p, the lift's x * y, the
# check): its tracemalloc peak is 25.0-25.5 B per unit at 3**13, 7**7 and
# the prime 1000003.  With a 2 GiB budget this admits n up to 2**26.
_BYTES_PER_UNIT = 32
_MEMORY_BUDGET = 2 << 30


class NotPrimePower(ValueError):
    """Operation needs n = p**m but the modulus is not a prime power."""


class InfeasibleScale(ValueError):
    """Requested work exceeds the int64-exact limit or the memory budget."""


@dataclass(frozen=True)
class HyperbolaSpec:
    """The pair (a, n) with gcd(a, n) = 1; a is stored as its least residue.

    ``prime_power`` is filled in automatically when n = p**m.
    """

    a: int
    n: int
    prime_power: PrimePower | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "a", _unit_residue(self.a, self.n))
        object.__setattr__(self, "prime_power", PrimePower.from_modulus(self.n))

    def _with_a(self, a: int) -> HyperbolaSpec:
        """The spec of a on this modulus, its factorization reused (a is checked as by the constructor)."""
        spec = object.__new__(HyperbolaSpec)
        spec.__dict__.update(a=_unit_residue(a, self.n), n=self.n, prime_power=self.prime_power)
        return spec


def _unit_residue(a: int, n: int) -> int:
    """The least residue of a mod n; raises unless a is a unit."""
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    return a % n


def _check_points(xs: np.ndarray, ys: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` unless every point lies in [1, n - 1]**2 and every row is strictly ascending in (x, y).

    ys is one row of y per set, (k,) or (S, k), sharing the abscissae xs; a
    strictly ascending xs orders every row, so only a repeated x makes the
    check compare y.  Boolean temporaries only: it costs a few bytes per point.
    """
    for coords in (xs, ys):
        if coords.size and (coords.min() < 1 or coords.max() >= n):
            raise ValueError(f"point coordinates must lie in [1, {n - 1}]")
    ascending = xs[1:] > xs[:-1]
    if not ascending.all():
        ascending = ascending | (xs[1:] == xs[:-1]) & (ys[..., 1:] > ys[..., :-1])
        if not ascending.all():
            raise ValueError("points must be distinct and in ascending (x, y) order")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Lattice points (x, y) with 1 <= x, y <= n-1: a hyperbola's points or a subset.

    ``xs`` and ``ys`` are int64 arrays of distinct points in ascending (x, y)
    order; the constructor checks that and the coordinate range, and
    ``enumerate_many`` checks its whole stack of sets at once.
    """

    spec: HyperbolaSpec
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs, ys = self.xs, self.ys
        if xs.dtype != np.int64 or ys.dtype != np.int64 or xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("point coordinates must be two int64 arrays of one length")
        _check_points(xs, ys, self.spec.n)

    @classmethod
    def _rows(cls, specs: list[HyperbolaSpec], xs: np.ndarray, ys: np.ndarray, n: int) -> list[PointSet]:
        """The set of specs[s] (all mod n) from the shared xs and row s of the (S, k) ys, all checked at once.

        ``_check_points`` runs once on the stack, so no row runs the
        constructor's check again.
        """
        _check_points(xs, ys, n)
        sets = []
        for spec, row in zip(specs, ys):
            ps = object.__new__(cls)
            ps.__dict__.update(spec=spec, xs=xs, ys=row)
            sets.append(ps)
        return sets

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.xs.tolist(), self.ys.tolist()))


def check_unit_budget(n: int, bytes_per_unit: int = _BYTES_PER_UNIT, what: str = "") -> None:
    """Raise ``InfeasibleScale`` unless the units of Z/n fit the kernel and the memory budget.

    The kernel is int64-exact for n <= 2**31; ``bytes_per_unit`` is the caller's
    working set per unit of n (the kernel's own by default), ``what`` names it.
    """
    if n > EXACT_N_LIMIT:
        raise InfeasibleScale(f"n = {n} exceeds the int64-exact limit {EXACT_N_LIMIT}")
    if n * bytes_per_unit > _MEMORY_BUDGET:
        raise InfeasibleScale(
            f"n = {n} needs about {n * bytes_per_unit >> 20} MB{' ' + what if what else ''}, "
            f"over the {_MEMORY_BUDGET >> 20} MB budget"
        )


def invert_units(xs: np.ndarray, n: int, p: int, a: int = 1) -> np.ndarray:
    """a * x**-1 mod n for every unit x of the int64 array ``xs`` (any shape).

    ``p`` is the base modulus: the prime of n = p**m, or n itself when n is no
    prime power.  At the base the inverse is Euler's x**(phi(p) - 1) mod p,
    by square-and-multiply over the p - 1 residues, gathered by x mod p (over
    ``xs`` itself when p = n).  Newton steps y <- y * (2 - x*y) mod min(q**2, n)
    then lift an inverse mod q to one mod q**2 until q reaches n, two
    multiply-mods each; a prime n takes none.  Every product stays below
    n * (n + 1), so int64 is exact for n <= 2**31.  x * y = a (mod n) is
    checked on the whole result.
    """
    scratch = np.empty_like(xs)  # the base residues, then x * y
    if p < n:
        base = np.arange(1, p, dtype=np.int64)
    else:
        base = scratch
        np.copyto(base, xs)
    inv = np.ones_like(base)
    e = euler_phi(p) - 1
    while e:
        if e & 1:
            inv *= base
            inv %= p
        e >>= 1
        if e:
            base *= base
            base %= p
    if p < n:
        np.copyto(scratch, xs)
        scratch %= p
        scratch -= 1
        inv = inv.take(scratch)
    q = p
    while q < n:
        q = min(q * q, n)
        np.multiply(xs, inv, out=scratch)
        scratch %= q
        np.subtract(q + 2, scratch, out=scratch)
        inv *= scratch
        inv %= q
    if a != 1:
        inv *= a
        inv %= n
    np.multiply(xs, inv, out=scratch)
    scratch %= n
    if not np.all(scratch == a):
        raise RuntimeError(f"unit inversion failed: x * y != {a} (mod {n})")
    return inv


def unit_partners(spec: HyperbolaSpec) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/n in ascending order and their partners y = a * x**-1 mod n.

    Both are int64 arrays, inverted by ``invert_units``.  Raises
    ``InfeasibleScale`` before allocating when n is past the int64-exact range
    or the working set would exceed the memory budget.
    """
    a, n = spec.a, spec.n
    check_unit_budget(n)
    x = np.arange(1, n, dtype=np.int64)
    if spec.prime_power is not None:
        p = spec.prime_power.p
        xs = x[x % p != 0]
    else:
        p = n
        xs = x[np.gcd(x, n) == 1]
    del x
    return xs, invert_units(xs, n, p, a)


def enumerate_many(n: int, a_values: Iterable[int]) -> list[PointSet]:
    """The point set of x*y = a (mod n) for every a, from one inversion of the units of n.

    ``unit_partners`` at a = 1 inverts the units once (and checks
    x * x**-1 = 1); row s of one (S, phi(n)) array is then y = a_s * x**-1
    mod n, and x * y = a_s (mod n) is checked on the whole array.  n is
    factorized once and every a must be coprime to n, which is checked
    first.  The sets share the x array and take their y row from the stack,
    so the kernel's memory guards cover them; the order and range checks of
    ``PointSet`` run once on the stack (x ascending and in range, every y in
    range), not once per set.
    """
    base = HyperbolaSpec(1, n)
    specs = [base._with_a(a) for a in a_values]
    xs, ys = unit_partners(base)
    a = np.array([spec.a for spec in specs], dtype=np.int64)[:, None]
    ys = a * ys
    ys %= n
    check = xs * ys
    check %= n
    if not np.all(check == a):
        raise RuntimeError(f"unit inversion failed: x * y != a (mod {n})")
    del check
    return PointSet._rows(specs, xs, ys, n)


def enumerate_points(spec: HyperbolaSpec) -> PointSet:
    """All phi(n) points in ascending x: the stack of one of ``enumerate_many``."""
    return enumerate_many(spec.n, [spec.a])[0]


def partition_classes(ps: PointSet) -> dict[int, PointSet]:
    """Split a prime-power point set by x mod p; class i holds the points with x = i (mod p).

    For p = 2 every unit is odd, so the single class 1 is the whole set.
    """
    pp = ps.spec.prime_power
    if pp is None:
        raise NotPrimePower(f"n = {ps.spec.n} is not a prime power")
    residue = ps.xs % pp.p
    masks = ((i, residue == i) for i in range(1, max(pp.p, 2)))
    return {i: PointSet(ps.spec, ps.xs[m], ps.ys[m]) for i, m in masks}
