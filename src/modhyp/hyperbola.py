"""Least-residue point sets of the curve x*y = a (mod n) and their mod-p classes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ntcore import PrimePower

# x**2 + y**2 < 2 * n**2 and every product in the inversion is below n**2,
# so int64 arithmetic is exact up to n = 2**31.
_EXACT_N_LIMIT = 1 << 31
# Working set per unit of n: the peak-RSS growth of distance_profile in a fresh
# process was 24.8 B at n = 7**8 and 28.3 B at the prime 5764807, where every
# nonzero residue is a unit.  With a 2 GiB budget this admits n up to 2**26.
_BYTES_PER_UNIT = 32
_MEMORY_BUDGET = 2 << 30
# Points as Python int tuples cost far more: enumerate_points grew peak RSS by
# 176 B per unit of n at the prime 1000003, and `modhyp points --format json`,
# the heaviest consumer of those tuples, by 250 B at the prime 2000003.  512 B
# (set while that command still built its JSON in one string, at 523 B) admits
# n up to 2**22 with the same budget; it is re-derived once points are arrays.
_BYTES_PER_POINT = 512


class NotPrimePower(ValueError):
    """Operation needs n = p**m but the modulus is not a prime power."""


class InfeasibleScale(ValueError):
    """Requested construction exceeds the configured arithmetic bound."""


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
        a = self.a % self.n
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"gcd({self.a}, {self.n}) != 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "prime_power", PrimePower.from_modulus(self.n))


@dataclass(frozen=True)
class PointSet:
    """Lattice points (x, y), 1 <= x, y <= n-1, with x*y = a (mod n), sorted by x."""

    spec: HyperbolaSpec
    points: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class ClassPartition:
    """Points grouped by x mod p; class i holds the points with x = i (mod p)."""

    p: int
    classes: dict[int, tuple[tuple[int, int], ...]]


def check_unit_budget(n: int, bytes_per_unit: int = _BYTES_PER_UNIT, what: str = "") -> None:
    """Raise ``InfeasibleScale`` unless the units of Z/n fit the kernel and the memory budget.

    The kernel is int64-exact for n <= 2**31; ``bytes_per_unit`` is the caller's
    working set per unit of n (the kernel's own by default), ``what`` names it.
    """
    if n > _EXACT_N_LIMIT:
        raise InfeasibleScale(f"n = {n} exceeds the int64-exact limit {_EXACT_N_LIMIT}")
    if n * bytes_per_unit > _MEMORY_BUDGET:
        raise InfeasibleScale(
            f"n = {n} needs about {n * bytes_per_unit >> 20} MB{' ' + what if what else ''}, "
            f"over the {_MEMORY_BUDGET >> 20} MB budget"
        )


def unit_partners(spec: HyperbolaSpec) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/n in ascending order and their partners y = a * x**-1 mod n.

    Both are int64 arrays.  The inverse is x**(phi - 1) mod n (Euler), computed
    for every unit at once by square-and-multiply; x * y = a (mod n) is checked
    on the whole result.  Raises ``InfeasibleScale`` before allocating when n is
    past the int64-exact range or the working set would exceed the memory budget.
    """
    a, n = spec.a, spec.n
    check_unit_budget(n)
    x = np.arange(1, n, dtype=np.int64)
    if spec.prime_power is not None:
        xs = x[x % spec.prime_power.p != 0]
    else:
        xs = x[np.gcd(x, n) == 1]
    del x
    ys = np.full_like(xs, a)
    base = xs.copy()
    e = len(xs) - 1
    while e:
        if e & 1:
            ys *= base
            ys %= n
        e >>= 1
        if e:
            base *= base
            base %= n
    del base
    check = xs * ys
    check %= n
    if not np.all(check == a):
        raise RuntimeError(f"unit inversion failed: x * y != {a} (mod {n})")
    return xs, ys


def enumerate_points(spec: HyperbolaSpec) -> PointSet:
    """All phi(n) points of the hyperbola, sorted by x.

    Raises ``InfeasibleScale`` before allocating when the point tuples would
    exceed the memory budget.
    """
    check_unit_budget(spec.n, _BYTES_PER_POINT, "as point tuples")
    xs, ys = unit_partners(spec)
    return PointSet(spec, tuple(zip(xs.tolist(), ys.tolist())))


def partition_classes(ps: PointSet) -> ClassPartition:
    """Split a prime-power point set by x mod p.

    For p = 2 every unit is odd, so the single class 1 is the whole set.
    """
    pp = ps.spec.prime_power
    if pp is None:
        raise NotPrimePower(f"n = {ps.spec.n} is not a prime power")
    p = pp.p
    buckets: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, max(p, 2))}
    for pt in ps.points:
        buckets[pt[0] % p].append(pt)
    return ClassPartition(p, {i: tuple(v) for i, v in buckets.items()})


def points_csv(ps: PointSet) -> str:
    """Two-column CSV with a header row."""
    lines = ["x,y"] + [f"{x},{y}" for x, y in ps.points]
    return "\n".join(lines) + "\n"
