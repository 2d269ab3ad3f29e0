"""Distance-set machinery for hyperbola point sets.

All distances are handled as exact squared integers x*x + y*y; the number of
distinct distances equals the number of distinct squared values, so nothing
irrational is ever computed.

Brute-force counts run on two row kernels, in the row idiom of the orbit
census.  ``distinct_counts(n, a_values)`` inverts the units of Z/n once
(``hyperbola.unit_partners`` with a = 1, which reads the inverses of the
units of p**m from one table of generator powers and inverts the units of
any other n by Euler's theorem) and gives each a the row x*x + y*y with
y = a * x**-1 mod n; ``intersection_counts(p, a_values)`` gives each
residue a of the odd prime p the row of its 2p root-progression abscissae
b + t*p and p - b + t*p mod p**2, and reads |C1 & C2| as
|C1| + |C2| - |C1 | C2|.  The abscissae of all its distinct roots are
inverted in one call of the same checked kernel (``hyperbola.invert_units``:
the table mod p gathered by x mod p, lifted to p**2 by one Newton step),
and each row gathers those of its own root.  Every row is checked against
x * y = a (mod n), sorted, and its distinct entries counted as runs.  Rows
go in blocks of about 1 MB per int64 work array and reduce mod n with
``hyperbola._reduce``; ``distance_profile``, ``intersection_direct`` and
``image_count_formula`` are the one-row cases.  int64 is exact for
n <= 2**31; the kernels raise ``InfeasibleScale`` above that, or when the
units' working set (32 bytes per unit of n) would exceed a 2 GiB budget,
n > 2**26, before allocating anything.  ``classify_image`` takes the
unsorted row of its one a from the same inversion.

A third kernel, ``lattice_counts(p, a_values)``, counts the same
intersection by Proposition 15's route: the integer cells of two lattice
rectangles, found as the divisors u of each rectangle's right-hand side
among the p - 1 candidates u that each row walks once per rectangle, in
blocks of the same size.  It shares no step with the row kernels;
``intersection_via_lattice`` is its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hyperbola import (
    EXACT_N_LIMIT,
    HyperbolaSpec,
    InfeasibleScale,
    _reduce,
    check_unit_budget,
    invert_units,
    unit_partners,
)
from .ntcore import NotAResidue, PrimePower, divisors, legendre, next_prime, sqrt_mod_prime


class NoSquareRoot(ValueError):
    """Operation defined only when a is a quadratic residue mod p."""


class NotApplicable(ValueError):
    """The public ``divisor_pairs``, the paper's divisor pairs of 2b, applies only at root shift 0.

    ``lattice_counts`` walks the divisors of both rectangles at every shift.
    """


@dataclass
class DistanceProfile:
    """The distinct squared distances over all units mod n, ascending."""

    spec: HyperbolaSpec
    values: np.ndarray

    @property
    def distinct_count(self) -> int:
        return len(self.values)

    def to_payload(self, include_values: bool = False) -> dict:
        out = {"a": self.spec.a, "n": self.spec.n, "count": self.distinct_count}
        if include_values:
            out["values"] = self.values.tolist()
        return out


def _first_of_runs(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


# Entries per int64 work array of a row block: 1 MB, so a block's rows and
# its two work arrays take about 3 MB.  A row wider than this is filled one
# column chunk at a time.  The value was copied from the census's row blocks,
# which are now 2**16 entries (see geometry._ROW_BLOCK); the distance kernels'
# own block size has not been measured since.
_ROW_BLOCK = 1 << 17


def _run_counts(rows: np.ndarray) -> np.ndarray:
    """Number of distinct entries in each row of a row-sorted 2-D array."""
    return 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)


def _squared_rows(xs: np.ndarray, inv: np.ndarray, a: np.ndarray, n: int, row: np.ndarray | None = None):
    """Yield blocks of rows x*x + y*y with y = a_i * x**-1 mod n, one row per a_i.

    ``inv`` holds the inverses of the units ``xs`` and ``a`` is a column of
    residues.  Without ``row``, xs and inv are one row that every a_i shares;
    with it they are 2-D and a_i takes row ``row[i]`` of both, gathered block
    by block.  Every row is checked against x * y = a_i (mod n).  The blocks
    share one array that the next block overwrites, and a row wider than the
    work arrays is filled one column chunk at a time.
    """
    k = xs.shape[-1]
    per_block = min(max(1, _ROW_BLOCK // k), len(a))
    out = np.empty((per_block, k), dtype=np.int64)
    width = min(k, _ROW_BLOCK)
    work = np.empty((2, per_block, width), dtype=np.int64)
    for lo in range(0, len(a), per_block):
        a_col = a[lo : lo + per_block]
        rows = out[: len(a_col)]
        if row is None:
            block_xs, block_inv = xs, inv
        else:
            sel = row[lo : lo + per_block]
            block_xs, block_inv = xs[sel], inv[sel]
        for c in range(0, k, width):
            x = block_xs[..., c : c + width]
            y = rows[:, c : c + width]
            t, quotient = work[:, : len(a_col), : y.shape[1]]
            np.multiply(block_inv[..., c : c + width], a_col, out=y)
            _reduce(y, n, quotient)
            np.multiply(x, y, out=t)
            _reduce(t, n, quotient)
            if not (t == a_col).all():
                raise RuntimeError(f"unit inversion failed: x * y != a (mod {n})")
            y *= y
            np.multiply(x, x, out=t)
            y += t
        yield rows


def _coprime_column(a_values: list[int], n: int) -> np.ndarray:
    a = np.array(a_values, dtype=np.int64).reshape(-1, 1) % n
    bad = np.flatnonzero(np.gcd(a, n) != 1)
    if len(bad):
        raise ValueError(f"gcd({a_values[bad[0]]}, {n}) != 1")
    return a


def _distance_rows(n: int, a_values: list[int]):
    """Yield the sorted squared distances of a_values mod n, one row per a, in blocks.

    One ``unit_partners(1, n)`` inversion serves every a, whose row is
    a * x**-1 mod n.
    """
    if not a_values:
        return
    xs, inv = unit_partners(HyperbolaSpec(1, n))  # its guards fire before anything is allocated
    for rows in _squared_rows(xs, inv, _coprime_column(a_values, n), n):
        rows.sort(axis=1)
        yield rows


def distinct_counts(n: int, a_values: list[int]) -> list[int]:
    """Distinct squared-distance count of x*y = a (mod n) for every a in ``a_values``."""
    counts = []
    for rows in _distance_rows(n, a_values):
        counts += _run_counts(rows).tolist()
    return counts


def distance_profile(spec: HyperbolaSpec) -> DistanceProfile:
    """Exact profile of squared distances over the whole point set: the one-row case."""
    (row,) = next(_distance_rows(spec.n, [spec.a]))
    return DistanceProfile(spec, row[_first_of_runs(row)])


def prime_distance_count(a: int, p: int) -> int:
    """Closed form (p + (a/p)) / 2 for the distinct-distance count mod a prime."""
    if math.gcd(a, p) != 1:
        raise ValueError(f"gcd({a}, {p}) != 1")
    return (p + legendre(a, p)) // 2


@dataclass(frozen=True)
class RootShiftData:
    """The square root of a mod p and the p-digit shift of its inverse mod p**2.

    ``root`` is the root of a in (0, p/2) when a is a residue, and then
    root * (root + root_shift * p) = a (mod p**2); all three are None when
    it is not.  ``mirror_shift`` is the shift governing the mirrored
    progression p - root + t*p: p - root_shift - 2, or -1 when root_shift
    is p - 1.
    """

    p: int
    a: int
    root: int | None
    root_shift: int | None
    mirror_shift: int | None


def _smaller_root(a: int, p: int) -> int | None:
    """The square root of a mod the odd prime p in (0, p/2), or None when a is no nonzero square."""
    try:
        return sqrt_mod_prime(a, p)[0]
    except NotAResidue:
        return None


def _residue_roots(p: int, a_values: list[int]) -> list[int]:
    """The root in (0, p/2) of every a in ``a_values``, taken once per residue class mod p."""
    root_of: dict[int, int | None] = {}
    for a in a_values:
        r = a % p
        if r not in root_of:
            root_of[r] = _smaller_root(a, p)
            if root_of[r] is None:
                raise NoSquareRoot(f"{a} is not a residue mod {p}")
    return [root_of[a % p] for a in a_values]


def sqrt_shift_data(a: int, p: int) -> RootShiftData:
    """Compute the root of a mod p and the shifts of its inverse mod p**2."""
    if math.gcd(a, p) != 1:
        raise ValueError(f"gcd({a}, {p}) != 1")
    root = _smaller_root(a, p)
    root_shift = mirror = None
    if root is not None:
        root_shift = (a - root * root) // p * pow(root, -1, p) % p
        assert root * (root + root_shift * p) % p**2 == a % p**2
        mirror = p - root_shift - 2 if root_shift <= p - 2 else -1
    return RootShiftData(p, a, root, root_shift, mirror)


def intersection_counts(p: int, a_values: list[int]) -> list[int]:
    """Size of d(C1) & d(C2) for every a in ``a_values``, residues mod the odd prime p.

    C1 and C2 are the root progressions b + t*p and p - b + t*p (0 <= t < p)
    mod p**2, b the root of a in (0, p/2).  The 2p abscissae of each distinct
    root of the a requested are inverted together, in one ``invert_units``
    call; each a takes the row of its root, and the size is
    |C1| + |C2| - |C1 | C2| from the row run counts.
    """
    n = p * p
    check_unit_budget(n, 0)  # the rows come in bounded blocks: only the int64 limit applies
    if not a_values:
        return []
    roots = _residue_roots(p, a_values)
    row_of = {b: i for i, b in enumerate(dict.fromkeys(roots))}
    b = np.array(list(row_of), dtype=np.int64).reshape(-1, 1)
    t = np.arange(p, dtype=np.int64) * p
    xs = np.concatenate([b + t, p - b + t], axis=1)
    a = np.array(a_values, dtype=np.int64).reshape(-1, 1) % n
    row = np.array([row_of[r] for r in roots])
    counts = []
    for rows in _squared_rows(xs, invert_units(xs, n, p), a, n, row):
        halves = rows.reshape(-1, p)
        halves.sort(axis=1)
        both = _run_counts(halves).reshape(-1, 2).sum(axis=1)
        rows.sort(axis=1)
        counts += (both - _run_counts(rows)).tolist()
    return counts


def lattice_counts(p: int, a_values: list[int]) -> list[int]:
    """Lattice-rectangle cell count of every a in ``a_values``, residues mod the odd prime p.

    With b the root of a in (0, p/2), j its shift and k the mirror shift
    (``RootShiftData``), and u = s + t + 1 - p, the cells (t, s) of the first
    rectangle, 0 <= t <= j/2 and k < s <= (p + k)/2, solve
    u * (u - 2t + j) = 2b + j*p - p**2, and those of the second,
    j < t <= (p + j)/2 and 0 <= s <= k/2, solve u * (u - 2t + j + p) = 2b + j*p.
    Neither right-hand side is 0, as p does not divide 2b, and every cell has
    1 - p <= u <= -1.  So each row walks those u once per rectangle: a u that
    divides the right-hand side gives v = rhs / u, t = (u - v + j + off) / 2
    with off = 0 or p, and s = u - t - 1 + p, and it is a cell when t is an
    integer and (t, s) lies in the rectangle.  (t, s) -> (u, v) is injective,
    so the cell count is the count of such divisors u.  Rows go in blocks of
    about ``_ROW_BLOCK`` entries of the walk.
    """
    n = p * p
    check_unit_budget(n, 0)  # the walk comes in bounded blocks: only the int64 limit applies
    roots = _residue_roots(p, a_values)
    inverse = {b: pow(b, -1, p) for b in set(roots)}
    u = np.arange(-1, -p, -1, dtype=np.int64)
    per_block = max(1, _ROW_BLOCK // len(u))
    work = np.empty((min(per_block, len(roots)), len(u)), dtype=np.int64)
    counts = []
    for lo in range(0, len(roots), per_block):
        block_roots = roots[lo : lo + per_block]
        b = np.array(block_roots, dtype=np.int64)
        a = np.array(a_values[lo : lo + per_block], dtype=np.int64) % n
        j = (a - b * b) // p * np.array([inverse[r] for r in block_roots], dtype=np.int64) % p
        if not (b * (b + j * p) % n == a).all():
            raise RuntimeError(f"root shift failed: b * (b + j*p) != a (mod {n})")
        k = np.where(j <= p - 2, p - 2 - j, -1)
        rhs = 2 * b + j * p
        block = np.zeros(len(b), dtype=np.int64)
        zero = np.zeros_like(j)
        rects = ((rhs - n, 0, zero, j // 2, k + 1, (p + k) // 2), (rhs, p, j + 1, (p + j) // 2, zero, k // 2))
        for rhs_r, off, t_lo, t_hi, s_lo, s_hi in rects:
            r = work[: len(b)]
            np.remainder(rhs_r.reshape(-1, 1), u, out=r)
            row, col = np.nonzero(r == 0)
            uu = u[col]
            t2 = uu - rhs_r[row] // uu + j[row] + off
            t = t2 // 2
            s = uu - t - 1 + p
            ok = (t2 % 2 == 0) & (t_lo[row] <= t) & (t <= t_hi[row]) & (s_lo[row] <= s) & (s <= s_hi[row])
            block += np.bincount(row[ok], minlength=len(b))
        counts += block.tolist()
    return counts


def intersection_direct(a: int, p: int) -> int:
    """Size of d(C1) & d(C2) by direct evaluation on both root progressions: the one-row case."""
    return intersection_counts(p, [a])[0]


@dataclass
class LatticeIntersection:
    """The lattice-rectangle count of one residue and, at root shift 0, its divisor pairs.

    ``pair_count`` is the number of integer cells on both rectangles, which
    equals the distance-set intersection size.  ``divisor_pairs`` is filled
    only when ``root_shift`` is 0.
    """

    p: int
    a: int
    root_shift: int
    pair_count: int
    divisor_pairs: tuple[tuple[int, int], ...] | None


def intersection_via_lattice(a: int, p: int) -> LatticeIntersection:
    """Count the distance-set intersection on the two lattice rectangles: the one-row case of ``lattice_counts``."""
    data = sqrt_shift_data(a, p)
    if data.root is None:
        raise NoSquareRoot(f"{a} is not a residue mod {p}")
    (count,) = lattice_counts(p, [a])
    pairs = tuple(_divisor_pairs(data)) if data.root_shift == 0 else None
    return LatticeIntersection(p, a, data.root_shift, count, pairs)


def divisor_pairs(a: int, p: int) -> list[tuple[int, int]]:
    """Negative divisor pairs (m, n) of 2b counting the intersection when the shift is 0.

    Conditions: m*n = 2b, -p+2 <= m < 0, -p/2+1 <= n < 0, m and n of opposite
    parity, m <= n.
    """
    data = sqrt_shift_data(a, p)
    if data.root is None:
        raise NoSquareRoot(f"{a} is not a residue mod {p}")
    if data.root_shift != 0:
        raise NotApplicable(f"root shift is {data.root_shift}, not 0")
    return _divisor_pairs(data)


def _divisor_pairs(data: RootShiftData) -> list[tuple[int, int]]:
    p, target = data.p, 2 * data.root
    out = []
    for d in divisors(target):
        e = target // d
        if d < e:  # want |m| >= |n|, i.e. d >= e
            continue
        m, n = -d, -e
        if m < -p + 2:
            continue
        if 2 * n < 2 - p:
            continue
        if (m - n) % 2 == 0:
            continue
        out.append((m, n))
    return sorted(out)


def image_count_formulas(p: int, a_values: list[int]) -> list[int]:
    """Distinct-distance count mod p**2 from the closed form minus the intersection, per a."""
    symbol = {r: legendre(r, p) for r in {a % p for a in a_values}}
    ls = [symbol[a % p] for a in a_values]
    inter = iter(intersection_counts(p, [a for a, s in zip(a_values, ls) if s == 1]))
    return [(p * (p - 1) + 1 + s) // 2 - (next(inter) if s == 1 else 0) for s in ls]


def image_count_formula(a: int, p: int) -> int:
    """Distinct-distance count mod p**2 from the closed form minus the intersection: the one-row case."""
    return image_count_formulas(p, [a])[0]


@dataclass
class ImageDecomposition:
    """Classification of every squared-distance value mod p**m.

    A value belongs to ``b1`` when its preimages x satisfy x*x = a (mod p),
    to ``b2`` when x*x = -a (mod p), and to the generic class otherwise.
    ``max_preimage`` is the largest number of units sharing one value.  The
    overlap of the two root progressions inside ``b1`` is counted by
    ``intersection_counts``.
    """

    pp: PrimePower
    a: int
    generic_count: int
    b1_values: frozenset[int]
    b2_values: frozenset[int]
    b1_preimage_count: int
    b2_preimage_count: int
    max_preimage: int

    @property
    def image_size(self) -> int:
        return self.generic_count + len(self.b1_values) + len(self.b2_values)


def classify_image(a: int, pp: PrimePower) -> ImageDecomposition:
    """Brute-force image decomposition over all units mod p**m (p odd)."""
    p, n = pp.p, pp.n
    if p == 2:
        raise ValueError("classification requires an odd prime")
    a_red = a % n
    if a_red % p == 0:
        raise ValueError(f"gcd({a}, {p}) != 1")
    b = _smaller_root(a, p)
    c = _smaller_root(-a, p)
    xs, inv = unit_partners(HyperbolaSpec(1, n))
    (u,) = next(_squared_rows(xs, inv, _coprime_column([a_red], n), n))
    r = xs % p
    none = np.zeros(len(r), dtype=bool)
    on_b1 = (r == b) | (r == p - b) if b is not None else none
    # b*b = a and c*c = -a (mod p) never share a residue for odd p
    on_b2 = (r == c) | (r == p - c) if c is not None else none
    s = np.sort(u)
    starts = np.flatnonzero(_first_of_runs(s))
    return ImageDecomposition(
        pp,
        a_red,
        int(np.count_nonzero(_first_of_runs(np.sort(u[~(on_b1 | on_b2)])))),
        frozenset(u[on_b1].tolist()),
        frozenset(u[on_b2].tolist()),
        int(on_b1.sum()),
        int(on_b2.sum()),
        int(np.diff(np.append(starts, len(s))).max()),
    )


@dataclass
class PrimePowerImageReport:
    """Bounds and identities for the image decomposition at a general p**m, m >= 2."""

    p: int
    m: int
    a: int
    image_size: int
    half_phi: int
    b1_size: int
    b2_size: int
    b1_preimages: int
    b2_preimages: int
    leg_a: int
    leg_neg_a: int
    preimage_sizes_ok: bool
    max_preimage: int
    preimage_cap: int
    cap_ok: bool
    b_lower_ok: bool
    nonres_case_ok: bool | None
    correction_half_ok: bool
    correction_quarter_ok: bool

    @property
    def ok(self) -> bool:
        checks = [self.preimage_sizes_ok, self.cap_ok, self.b_lower_ok, self.correction_half_ok]
        if self.nonres_case_ok is not None:
            checks.append(self.nonres_case_ok)
        return all(checks)


def prime_power_image_report(a: int, pp: PrimePower) -> PrimePowerImageReport:
    """Measure the image decomposition and test the stated bounds exactly.

    The correction identity is asserted with denominator 2,
    image - phi/2 = sum_i (#B_i - (1 + (+-a/p)) p**(m-1) / 2),
    which is the variant forced by the preimage counts; the denominator-4
    variant is evaluated and reported alongside (it fails whenever either
    symbol is +1).
    """
    if pp.m < 2:
        raise ValueError("general report needs m >= 2")
    p, m = pp.p, pp.m
    dec = classify_image(a, pp)
    leg_a, leg_neg = legendre(a, p), legendre(-a, p)
    half_phi = pp.phi // 2
    exp_pre = 2 * p ** (m - 1)
    pre_ok = True
    if dec.b1_values:
        pre_ok &= dec.b1_preimage_count == exp_pre
    if dec.b2_values:
        pre_ok &= dec.b2_preimage_count == exp_pre
    cap = 4 * p ** (m // 2)
    lower = p ** ((m + 1) // 2 - 1)  # threshold for 2 * #B_i
    b_lower_ok = True
    if dec.b1_values:
        b_lower_ok &= 2 * len(dec.b1_values) >= lower
    if dec.b2_values:
        b_lower_ok &= 2 * len(dec.b2_values) >= lower
    nonres_ok = None
    if leg_a == -1 and leg_neg == -1:
        nonres_ok = dec.image_size == half_phi
    lhs = dec.image_size - half_phi
    half_terms = (
        len(dec.b1_values) - (1 + leg_a) * p ** (m - 1) // 2,
        len(dec.b2_values) - (1 + leg_neg) * p ** (m - 1) // 2,
    )
    quarter_terms = (
        len(dec.b1_values) - Fraction((1 + leg_a) * p ** (m - 1), 4),
        len(dec.b2_values) - Fraction((1 + leg_neg) * p ** (m - 1), 4),
    )
    return PrimePowerImageReport(
        p=p,
        m=m,
        a=dec.a,
        image_size=dec.image_size,
        half_phi=half_phi,
        b1_size=len(dec.b1_values),
        b2_size=len(dec.b2_values),
        b1_preimages=dec.b1_preimage_count,
        b2_preimages=dec.b2_preimage_count,
        leg_a=leg_a,
        leg_neg_a=leg_neg,
        preimage_sizes_ok=bool(pre_ok),
        max_preimage=dec.max_preimage,
        preimage_cap=cap,
        cap_ok=dec.max_preimage <= cap,
        b_lower_ok=bool(b_lower_ok),
        nonres_case_ok=nonres_ok,
        correction_half_ok=lhs == sum(half_terms),
        correction_quarter_ok=Fraction(lhs) == sum(quarter_terms),
    )


_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


@dataclass
class GapReport:
    """One instance of the construction driving the gap phi/2 - #image upward."""

    k: int
    a: int
    p: int
    root: int
    pair_count: int
    expected_pairs: int
    cross_check: int
    gap: int
    image_count: int

    @property
    def ok(self) -> bool:
        return self.pair_count == self.expected_pairs == self.cross_check


def gap_experiment(k: int) -> GapReport:
    """Build a = (product of first k odd primes)**2, p the next prime above a.

    The root shift is 0 by construction, the divisor-pair count is 2**k, and
    the distance-set gap below phi(p**2)/2 equals 2**k - 1.  The squared
    modulus p**2 must stay within the int64-exact limit ``EXACT_N_LIMIT``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(_ODD_PRIMES):
        raise InfeasibleScale(f"k = {k} exceeds the supported prime list")
    root = math.prod(_ODD_PRIMES[:k])
    a = root * root
    if a * a > EXACT_N_LIMIT:  # p > a, so p**2 > a**2: hopeless before the prime search
        raise InfeasibleScale(f"a^2 = {a * a} already exceeds the int64-exact limit {EXACT_N_LIMIT}")
    p = next_prime(a)
    pairs = divisor_pairs(a, p)
    cross = intersection_direct(a, p)
    count = len(pairs)
    return GapReport(
        k=k,
        a=a,
        p=p,
        root=root,
        pair_count=count,
        expected_pairs=2**k,
        cross_check=cross,
        gap=count - 1,
        image_count=p * (p - 1) // 2 + 1 - count,
    )
