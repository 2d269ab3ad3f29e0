"""Least-residue point sets of the curve x*y = a (mod n) and their mod-p classes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ntcore import PrimePower


class NotPrimePower(ValueError):
    """Operation needs n = p**m but the modulus is not a prime power."""


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


def enumerate_points(spec: HyperbolaSpec) -> PointSet:
    """All phi(n) points of the hyperbola, sorted by x.

    For each unit x the partner is y = a * x**-1 mod n, so enumeration is one
    inversion per unit.
    """
    a, n = spec.a, spec.n
    pts = []
    if spec.prime_power is not None:
        p = spec.prime_power.p
        for x in range(1, n):
            if x % p == 0:
                continue
            pts.append((x, a * pow(x, -1, n) % n))
    else:
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            pts.append((x, a * pow(x, -1, n) % n))
    return PointSet(spec, tuple(pts))


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


def reflect_diagonal(ps: PointSet) -> PointSet:
    """Image under (x, y) -> (y, x); equals the input as a set."""
    return PointSet(ps.spec, tuple(sorted((y, x) for x, y in ps.points)))


def points_csv(ps: PointSet) -> str:
    """Two-column CSV with a header row."""
    lines = ["x,y"] + [f"{x},{y}" for x, y in ps.points]
    return "\n".join(lines) + "\n"
