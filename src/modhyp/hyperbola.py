"""Least-residue point sets of the curve x*y = a (mod n) and their mod-p classes.

A point set is two int64 arrays from the inversion kernel ``unit_partners``,
which inverts the units of n once for the sets of every a of n
(``enumerate_many``); Python tuples appear only in the read-only ``points``
view of a ``PointSet``.  At n = p**m the units are +-g**k for one generator
g (5 when p = 2), so one table of the powers g**k, read forwards for the
units and backwards for their inverses, inverts them all; each inverse is
placed at its unit's rank x - 1 - x // p.  A modulus that is no prime power
inverts its units as x**(lambda(n) - 1), lambda Carmichael's function.  ``invert_units`` inverts any array of
units of p**m: it gathers the table mod p by x mod p and lifts it to n by
Newton steps, each doubling the exponent of p the inverses hold for.
Every result is checked against x * y = a (mod n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ntcore import PrimePower, factorize

# x**2 + y**2 < 2 * n**2 and every product in the inversion is below n * (n + 1),
# so int64 arithmetic is exact up to n = 2**31.
EXACT_N_LIMIT = 1 << 31
# Working set per unit of n: the peak-RSS growth of distance_profile (the
# a = 1 inverses, one row and its two 1 MB work arrays) in a fresh process
# was 21.8 B at n = 7**8 and 24.5 B at the prime 5764817, where every nonzero
# residue is a unit, and of enumerate_points (these two arrays and the
# PointSet checks) 24.3-25.2 B at the primes 1000003 and 4000037.  The
# inversion holds the power table and the inverses, then the units and the
# inverses: its tracemalloc peak at a = 1 is 14.9 B per unit at 7**8, 17.1 B
# at the prime 1000003, 13.4 B at 3**13 and 12.0 B at 2**22, and a != 1
# adds one scratch array for the scaling (24.0 B at 1000003).  With a 2 GiB
# budget this admits n up to 2**26.
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


# Entries per int64 work array of the kernel's block passes (512 KB): the
# Carmichael ladder and the check of x * y go one block at a time, so their work
# arrays hold about 1 MB whatever n is.
_BLOCK = 1 << 16


def _reduce(v: np.ndarray, n: int, quotient: np.ndarray) -> None:
    """v %= n in place for v >= 0, as v - (v // n) * n through the work array ``quotient``.

    It serves the int64 arrays of the inversion and the uint32 distance rows
    of ``distances._squared_rows`` alike: (v // n) * n <= v, so nothing wraps
    in an unsigned type.  numpy divides either type by a scalar through
    libdivide, about 0.8 ns an int64 entry and 0.3 ns a uint32 one against
    3.6 and 2.2 ns for ``%``, so the three passes cost less than one.
    """
    np.floor_divide(v, n, out=quotient)
    quotient *= n
    v -= quotient


def _unit_generator(p: int) -> int:
    """The least g >= 2 that generates the units mod p**2 for the odd prime p, and so mod every p**m.

    g generates them mod p when g**((p - 1)/q) != 1 (mod p) for every prime q
    of p - 1, and then mod p**2 unless g**(p - 1) = 1 (mod p**2), which a
    few pairs meet: 5 is the least generator mod 40487 but not mod 40487**2.
    """
    qs = factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs) or pow(g, p - 1, p * p) == 1:
        g += 1
    return g


def _geometric_row(r: int, length: int, n: int) -> np.ndarray:
    """r**i mod n for i < length, as int64."""
    row = [1] * length
    for i in range(1, length):
        row[i] = row[i - 1] * r % n
    return np.array(row, dtype=np.int64)


def _unit_inverses(p: int, m: int) -> np.ndarray:
    """The inverses of the units of n = p**m, in the ascending order of the units, from one table of powers.

    The units are +-g**k for k < h = ceil(phi(n)/2).  For odd p, g is a
    generator mod p**2 (``_unit_generator``), so mod n, and g**h = -1; for
    p = 2, g = 5, whose powers are the units = 1 (mod 4), and g**h = 1.  The
    table g**k for k <= h is the outer product of the rows g**i (i < s) and
    g**(s*j), s about sqrt(h).  The inverse of +-g**k is +-g**h * g**(h - k),
    the table read backwards, and is placed at the unit's rank
    x - 1 - x // p among the units; -x takes the mirrored rank
    phi(n) - 1 - rank(x), so a reversed view of the result places it.
    Every product stays below n**2, so int64 is exact for n <= 2**31.  The
    table, the ranks and the result hold 16 bytes per unit.
    """
    n = p**m
    phi = (p - 1) * p ** (m - 1)
    h = (phi + 1) // 2
    g = 5 if p == 2 else _unit_generator(p)
    s = math.isqrt(h) + 1
    table = np.multiply.outer(_geometric_row(pow(g, s, n), h // s + 1, n), _geometric_row(g, s, n)).reshape(-1)
    _reduce(table, n, np.empty_like(table))
    units, inverses = table[:h], table[h:0:-1]
    rank = units // p
    np.subtract(units, rank, out=rank)
    rank -= 1
    inv = np.empty(phi, dtype=np.int64)
    # the views that take g**(h - k) and -g**(h - k) at rank(g**k): g**h is 1 for p = 2, -1 otherwise
    plus, minus = (inv, inv[::-1]) if p == 2 else (inv[::-1], inv)
    plus[rank] = inverses
    np.subtract(n, table, out=table)
    minus[rank] = inverses
    return inv


def _carmichael(n: int) -> int:
    """Carmichael's lambda(n), the least e > 0 with x**e = 1 (mod n) for every unit x of n.

    It is the lcm over the prime powers p**e of n of phi(p**e), or of
    2**(e - 2) for p = 2 and e >= 3, and divides phi(n).
    """
    out = 1
    for p, e in factorize(n).items():
        out = math.lcm(out, 1 << (e - 2) if p == 2 and e >= 3 else p ** (e - 1) * (p - 1))
    return out


def _carmichael_inverses(xs: np.ndarray, n: int) -> np.ndarray:
    """x**(lambda(n) - 1) mod n for every unit x of xs, by square-and-multiply (``_carmichael``).

    The ladder runs one block of ``_BLOCK`` units at a time, so its powers
    and work array stay block-sized.
    """
    e_phi = _carmichael(n) - 1
    inv = np.ones_like(xs)
    powers, quotient = np.empty((2, min(len(xs), _BLOCK)), dtype=np.int64)
    for lo in range(0, len(xs), _BLOCK):
        y = inv[lo : lo + _BLOCK]
        base, q = powers[: len(y)], quotient[: len(y)]
        np.copyto(base, xs[lo : lo + _BLOCK])
        e = e_phi
        while e:
            if e & 1:
                y *= base
                _reduce(y, n, q)
            e >>= 1
            if e:
                base *= base
                _reduce(base, n, q)
    return inv


def _check_partners(xs: np.ndarray, ys: np.ndarray, a, n: int) -> None:
    """Raise ``RuntimeError`` unless x * y = a (mod n) for every unit x and its partner y.

    ys has the shape of xs, or is the (S, k) rows of the k units xs and the
    column a of S residues.  The products go one block of about ``_BLOCK``
    entries at a time, so the check adds two block-sized work arrays.
    """
    if xs.shape == ys.shape:
        xs, ys = xs.reshape(-1), ys.reshape(-1)
    rows = max(1, len(ys)) if ys.ndim == 2 else 1
    width = max(1, _BLOCK // rows)
    work = np.empty((2, *ys[..., :width].shape), dtype=np.int64)
    for c in range(0, len(xs), width):
        y = ys[..., c : c + width]
        t, quotient = work[..., : y.shape[-1]]
        np.multiply(xs[c : c + width], y, out=t)
        _reduce(t, n, quotient)
        if np.count_nonzero(t != a):
            raise RuntimeError(f"unit inversion failed: x * y != a (mod {n})")


def _times_a(xs: np.ndarray, inv: np.ndarray, a: int, n: int) -> np.ndarray:
    """The inverses ``inv`` of the units xs times a mod n, in place, checked against x * y = a (mod n)."""
    if a != 1:
        inv *= a
        _reduce(inv, n, np.empty_like(inv))
    _check_partners(xs, inv, a, n)
    return inv


def invert_units(xs: np.ndarray, n: int, p: int, a: int = 1) -> np.ndarray:
    """a * x**-1 mod n for every unit x of the int64 array ``xs`` (any shape), n = p**m.

    The inverses mod p come from ``_unit_inverses(p, 1)``, gathered by
    x mod p.  Newton steps y <- y * (2 - x*y) mod min(q**2, n) then lift an
    inverse mod q to one mod q**2 until q reaches n, two multiply-reduces
    each; a prime n takes none.  Every product stays below n * (n + 1), so
    int64 is exact for n <= 2**31.  x * y = a (mod n) is checked on the
    whole result.
    """
    scratch = xs.copy()  # x mod p, then x * y
    quotient = np.empty_like(xs)
    _reduce(scratch, p, quotient)
    scratch -= 1
    inv = _unit_inverses(p, 1).take(scratch)
    q = p
    while q < n:
        q = min(q * q, n)
        np.multiply(xs, inv, out=scratch)
        _reduce(scratch, q, quotient)
        np.subtract(q + 2, scratch, out=scratch)
        inv *= scratch
        _reduce(inv, q, quotient)
    return _times_a(xs, inv, a % n, n)


def unit_partners(spec: HyperbolaSpec) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/n in ascending order and their partners y = a * x**-1 mod n.

    Both are int64 arrays.  At n = p**m the units are j*p + r (0 < r < p)
    and their inverses come from ``_unit_inverses``; any other modulus keeps
    the x coprime to n and inverts them by ``_carmichael_inverses``, as its
    units need not form one cyclic group.  x * y = a (mod n) is checked on the result.
    Raises ``InfeasibleScale`` before allocating when n is past the
    int64-exact range or the working set would exceed the memory budget.
    """
    a, n = spec.a, spec.n
    check_unit_budget(n)
    if spec.prime_power is not None:
        p = spec.prime_power.p
        inv = _unit_inverses(p, spec.prime_power.m)
        xs = np.arange(1, p, dtype=np.int64)
        if n > p:
            xs = np.add.outer(np.arange(0, n, p, dtype=np.int64), xs).reshape(-1)
    else:
        x = np.arange(1, n, dtype=np.int64)
        xs = x[np.gcd(x, n) == 1]
        del x
        inv = _carmichael_inverses(xs, n)
    return xs, _times_a(xs, inv, a, n)


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
    _reduce(ys, n, np.empty_like(ys))
    _check_partners(xs, ys, a, n)
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
    # one stable sort by residue keeps each class in ascending x; a point with x = 0 (mod p) is in no class
    order = np.argsort(residue, kind="stable")
    classes = np.split(order, np.searchsorted(residue[order], np.arange(1, max(pp.p, 2))))[1:]
    return {i: PointSet(ps.spec, ps.xs[c], ps.ys[c]) for i, c in enumerate(classes, start=1)}
