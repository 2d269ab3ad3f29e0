"""Line-incidence census over a hyperbola point set.

Every check here works on the point set's int64 coordinate arrays.  The
census sweeps full anchor rows over orbit representatives: the maps
sigma (x, y) -> (y, x) and nu (x, y) -> (n-x, n-y) that carry the set onto
itself are found first, and one anchor per orbit is swept, weighted by its
orbit size.  An anchor's row codes the slope to every other point as
dy * dx**-1 modulo a fixed prime above 2**41 (integer ops only, no per-pair
gcd; for n <= 2**20 equal codes mean equal slopes), and one row sort per
block of anchors groups the points of each line through the anchor.  A
t-point line is a group of t-1 points at each of its t points, so the
weighted group counts give each line size's count.  Only the keys of lines
with three or more points are kept, reduced by a gcd on one pair per line
and closed under the maps.  The tests check the census against an
independent cross-product oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .hyperbola import HyperbolaSpec, PointSet, enumerate_points, partition_classes
from .ntcore import PrimePower

_ROW_BLOCK = 1 << 17  # row entries per block of whole anchor rows (about 1 MB per int64 array)
# n <= _N_LIMIT keeps every cross product dy1*dx2 - dy2*dx1 of two directions
# below _SLOPE_PRIME in absolute value, so the slope codes are exact (see census).
_N_LIMIT = 1 << 20
_SLOPE_PRIME = 2199023255579  # the least prime above 2**41
# A row entry packs (code << _INDEX_BITS) | j with code <= _SLOPE_PRIME < 2**42
# and point index j < 2**20 (a hyperbola set has k < n <= _N_LIMIT points), so
# it stays below 2**62 and the anchor's sentinel -1 sorts before every entry.
_INDEX_BITS = 20
_MAPS = ((True, False), (False, True), (True, True))  # sigma, nu, sigma*nu as (swap, reflect)


class DegeneratePair(ValueError):
    """Two equal points do not determine a line."""


class TooFewPoints(ValueError):
    """Census needs at least two points."""


class OutOfScope(ValueError):
    """Modulus outside the range the check is defined for."""


@dataclass(frozen=True, order=True)
class LineKey:
    """Canonical primitive triple (A, B, C) of the line A*x + B*y + C = 0.

    gcd(A, B, C) = 1 and the first nonzero of (A, B) is positive, so any two
    point pairs on one Euclidean line produce the same key.
    """

    A: int
    B: int
    C: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)


def _line_triple(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int]:
    dx, dy = x2 - x1, y2 - y1
    a, b, c = dy, -dx, dx * y1 - dy * x1
    g = math.gcd(math.gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def line_through(p: tuple[int, int], q: tuple[int, int]) -> LineKey:
    """Canonical line through two distinct points."""
    if p == q:
        raise DegeneratePair(f"identical points {p}")
    return LineKey(*_line_triple(p[0], p[1], q[0], q[1]))


class IncidenceCensus:
    """Exact per-line point counts with the derived ordinary-line statistics.

    ``line_sizes[t]`` is the number of lines carrying exactly t points; the
    keys of the rich lines (t >= 3) are kept in ascending (A, B, C) order.
    """

    def __init__(self, n: int, a: int, point_count: int, line_sizes, rich_keys, rich_t):
        if (line_sizes < 0).any():
            raise RuntimeError("census line count L_t is negative")
        self.n = n
        self.a = a
        self.point_count = point_count
        self._rich_keys = rich_keys
        self._rich_t = rich_t
        self.histogram = {t: int(c) for t, c in enumerate(line_sizes) if c}
        self.ordinary_count = self.histogram.get(2, 0)
        self.max_collinear = max(self.histogram) if self.histogram else 0
        self.line_total = sum(self.histogram.values())
        # every unordered point pair lies on exactly one line
        pair_total = sum(c * t * (t - 1) // 2 for t, c in self.histogram.items())
        if pair_total != point_count * (point_count - 1) // 2:
            raise RuntimeError("census pair-count identity violated")
        if len(rich_t) != sum(c for t, c in self.histogram.items() if t >= 3):
            raise RuntimeError("rich-line keys disagree with the line counts")

    def lines(self, min_points: int = 3) -> Iterator[tuple[LineKey, int]]:
        """Yield (line, point count) for every line with at least min_points >= 3."""
        if min_points < 3:
            raise ValueError("only lines with at least 3 points are stored")
        keep = self._rich_t >= min_points
        return (
            (LineKey(a, b, c), t)
            for (a, b, c), t in zip(self._rich_keys[keep].tolist(), self._rich_t[keep].tolist())
        )

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "ordinary": self.ordinary_count,
            "histogram": {str(k): v for k, v in self.histogram.items()},
            "max_collinear": self.max_collinear,
        }

    def to_csv_row(self) -> str:
        return f"{self.n},{self.a},{self.ordinary_count},{self.max_collinear}"


def _slope_inverses(span: int) -> np.ndarray:
    """inv[d] = d**-1 mod _SLOPE_PRIME for d = 1, ..., span (inv[0] = 0 is unused)."""
    # M = (M // d) * d + M % d gives d**-1 = -(M // d) * (M % d)**-1 (mod M),
    # with M % d < d already inverted: cheaper than one pow(d, -1, M) each
    m = _SLOPE_PRIME
    inv = [0, 1]
    for d in range(2, span + 1):
        inv.append((m - m // d) * inv[m % d] % m)
    return np.array(inv[: span + 1], dtype=np.int64)


def _slope_codes(dx: np.ndarray, dy: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Code dy * dx**-1 mod _SLOPE_PRIME per direction (dx >= 0), _SLOPE_PRIME if dx = 0.

    inv is ``_slope_inverses`` of at least max(dx).  For |dx|, |dy| < _N_LIMIT
    two codes are equal exactly when dy1 * dx2 == dy2 * dx1.
    """
    code = inv[dx]
    code *= dy
    code -= code // _SLOPE_PRIME * _SLOPE_PRIME  # code %= M, but floor division by a scalar is faster
    code[dx == 0] = _SLOPE_PRIME
    return code


def check_census_modulus(n: int) -> None:
    """Refuse moduli past the range where the census slope codes are exact."""
    if n > _N_LIMIT:
        raise ValueError(f"census slope codes are exact only for n <= {_N_LIMIT}, got n = {n}")


def _symmetries(xs: np.ndarray, ys: np.ndarray, n: int) -> tuple[list[tuple[bool, bool]], np.ndarray]:
    """The maps among sigma, nu and sigma*nu that carry the point set onto itself.

    Returns the kept maps as (swap, reflect) pairs, where swap exchanges x and
    y (sigma) and reflect sends (x, y) to (n - x, n - y) (nu), and one row of
    image indices per kept map: images[g, i] is the index of the image of
    point i.  The points are looked up by the ascending code x*n + y, which
    nu sends to n*(n + 1) - x*n - y.
    """
    code = xs * n + ys
    swapped = ys * n + xs
    targets = np.stack([swapped, n * (n + 1) - code, n * (n + 1) - swapped])  # in _MAPS order
    images = np.minimum(np.searchsorted(code, targets), len(code) - 1)
    kept = (code[images] == targets).all(axis=1)
    return [m for m, keep in zip(_MAPS, kept) if keep], images[kept]


def census(ps: PointSet) -> IncidenceCensus:
    """Full incidence census of a point set (at least two distinct points).

    Orbits: the maps among sigma (x, y) -> (y, x), nu (x, y) -> (n-x, n-y)
    and sigma*nu that carry the set onto itself form a group (a hyperbola
    set keeps all three, since (n-x)(n-y) = xy mod n; a subset or a class
    may keep fewer or none).  They carry lines to lines of the same size, so
    only the point of least index in each orbit is an anchor, weighted by its
    orbit size w = 1, 2 or 4.
    Rows: an anchor i's row holds every other point j, coded by the
    direction j - i negated to dx >= 0 as c = dy * dx**-1 mod M (c = M when
    vertical), M = _SLOPE_PRIME, and packed as (c << 20) | j; the anchor's
    own column is -1, sorts first and is dropped.  One ``np.sort`` per block
    of rows; each run of equal c is the rest of one line through i, so a
    t-point line is one group of size exactly t-1 at each of its t points.
    The code is exact: for coordinates in [1, n-1], n <= 2**20, c1 == c2
    iff dy1 * dx2 = dy2 * dx1 (mod M), and that cross-product difference is
    at most 2 * (n-1)**2 < M in absolute value, so iff the slopes are equal.
    Counts: with H_s the w-weighted number of groups of size s, there are
    L_t = H_(t-1) / t lines of t points; that t divides H_(t-1) is checked.
    Rich lines are keyed from the anchor and the first member of each group
    of size >= 2, reduced by its gcd, and closed under the kept maps.
    """
    k = len(ps)
    if k < 2:
        raise TooFewPoints(f"{k} point(s) span no lines")
    n, a = ps.spec.n, ps.spec.a
    check_census_modulus(n)
    if k > 1 << _INDEX_BITS:
        raise ValueError(f"census packs point indices in {_INDEX_BITS} bits, got {k} points")
    xs, ys = ps.xs, ps.ys
    inv = _slope_inverses(int(xs[-1] - xs[0]))
    maps, images = _symmetries(xs, ys, n)
    cols = np.arange(k)
    reps = np.flatnonzero((images >= cols).all(axis=0))  # least index in its orbit
    stabiliser = 1 + (images[:, reps] == reps).sum(axis=0)
    weight = (len(maps) + 1) // stabiliser  # orbit size = group order / stabiliser order
    H = np.zeros(k, dtype=np.int64)  # H[s]: groups of size s, weighted
    rich = []
    block = max(1, _ROW_BLOCK // k)
    for lo in range(0, len(reps), block):
        anchor = reps[lo : lo + block]
        behind = cols < anchor[:, None]  # j < i: the direction points to smaller (x, y)
        dx = xs - xs[anchor, None]
        np.abs(dx, out=dx)
        dy = ys - ys[anchor, None]
        np.negative(dy, out=dy, where=behind)
        packed = _slope_codes(dx, dy, inv)
        packed <<= _INDEX_BITS
        packed |= cols
        packed[np.arange(len(anchor)), anchor] = -1
        packed.sort(axis=1)
        code = packed[:, 1:] >> _INDEX_BITS  # the anchor's own column sorts first and goes
        same = np.zeros(code.shape, dtype=bool)  # same[r, c]: entries c and c + 1 share a slope
        np.equal(code[:, 1:], code[:, :-1], out=same[:, :-1])
        pos = np.flatnonzero(same)
        # a run of consecutive positions is one group of size >= 2; run m is pos[first[m]:first[m+1]]
        opens = np.ones(len(pos) + 1, dtype=bool)
        opens[1:-1] = pos[1:] != pos[:-1] + 1
        first = np.flatnonzero(opens)
        sizes = first[1:] - first[:-1] + 1
        first = first[:-1]
        row, col = np.divmod(pos[first], k - 1)
        np.add.at(H, sizes, weight[lo + row])
        i = anchor[row]
        j = packed[row, col + 1] & ((1 << _INDEX_BITS) - 1)
        A, B = ys[j] - ys[i], xs[i] - xs[j]
        g = np.gcd(A, B)
        A //= g
        B //= g
        rich.append(np.stack([A, B, -(A * xs[i] + B * ys[i]), sizes + 1], axis=1))
    # each anchor's row has k - 1 entries; those in no group of size >= 2 are groups of size 1
    H[1] = (k - 1) * weight.sum() - np.arange(k) @ H
    t = np.arange(2, k + 1)
    if (H[1:] % t).any():
        raise RuntimeError("census H_(t-1) is not a multiple of t")
    line_sizes = np.zeros(k + 1, dtype=np.int64)
    line_sizes[2:] = H[1:] // t
    # close the keys under the kept maps, which are linear in (A, B, C):
    # sigma gives (B, A, C) and nu gives (A, B, -C - n(A + B))
    keys = np.concatenate(rich)
    rows = [keys]
    for swap, reflect in maps:
        image = keys[:, [1, 0, 2, 3]] if swap else keys.copy()
        if reflect:
            image[:, 2] = -image[:, 2] - n * (image[:, 0] + image[:, 1])
        rows.append(image)
    rows = np.concatenate(rows)
    A, B = rows[:, 0], rows[:, 1]
    rows[:, :3] *= np.where((A < 0) | ((A == 0) & (B < 0)), -1, 1)[:, None]  # sign rule
    rows = rows[np.lexsort(rows.T[::-1])]  # ascending (A, B, C, t)
    distinct = np.ones(len(rows), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[distinct]
    return IncidenceCensus(n, a, k, line_sizes, rows[:, :3], rows[:, 3])


def count_on_line(ps: PointSet, key: LineKey) -> int:
    """Number of points of ps on the given line.

    The int64 sums may wrap, but for a line through two points of the set the
    true value A*(x - x1) + B*(y - y1) is below 2 * n**2 <= 2**63, so exact.
    """
    return int(np.count_nonzero(key.A * ps.xs + key.B * ps.ys + key.C == 0))


def zero_intercept_lines(ps: PointSet) -> list[tuple[LineKey, int]]:
    """(line, point count) for every line with C = 0 through two or more points.

    Such a line passes through the origin, so its points share the reduced
    direction (x/g, y/g), g = gcd(x, y); one ``np.unique`` groups them.
    """
    g = np.gcd(ps.xs, ps.ys)
    dirs, counts = np.unique(np.stack([ps.xs // g, ps.ys // g], axis=1), axis=0, return_counts=True)
    keep = counts >= 2
    rows = zip(dirs[keep].tolist(), counts[keep].tolist())
    return sorted((line_through((0, 0), (dx, dy)), t) for (dx, dy), t in rows)


def check_special_line(pp: PrimePower) -> int:
    """Points of the a = 1 hyperbola mod p**m on the line x + y = p**m + 2.

    Defined for m >= 2 and p**m > 8; the count equals p**floor(m/2) - 1.
    """
    if pp.m < 2 or pp.n <= 8:
        raise OutOfScope(f"special line needs m >= 2 and p^m > 8, got {pp}")
    return count_on_line(enumerate_points(HyperbolaSpec(1, pp.n)), LineKey(1, 1, -(pp.n + 2)))


@dataclass(frozen=True)
class OrdinaryLowerBound:
    """Exact rational lower bound for the ordinary-line count of H_{1,p^m}."""

    p: int
    m: int
    constant: Fraction
    bound: Fraction
    equality_expected: bool

    @property
    def ceil(self) -> int:
        return -(-self.bound.numerator // self.bound.denominator)


def _bound_constant(pp: PrimePower) -> Fraction:
    # 6/13 is the unconditional per-class constant for m >= 2 (class size is
    # never 7 there except p^m = 49, which has its own exact constant).
    if pp.m == 1:
        return Fraction(0)
    if pp.n == 4:
        return Fraction(1, 2)
    if pp.n == 8:
        return Fraction(0)
    if pp.n == 49:
        return Fraction(6, 7)
    return Fraction(6, 13)


def ordinary_lower_bound(pp: PrimePower) -> OrdinaryLowerBound:
    c = _bound_constant(pp)
    bound = pp.phi * (Fraction(pp.p ** (pp.m - 1) * (pp.p - 2), 2) + c)
    equality = pp.m == 1 or pp.n in (4, 8, 49)
    return OrdinaryLowerBound(pp.p, pp.m, c, bound, equality)


@dataclass
class OrdinaryBoundReport:
    n: int
    ordinary: int
    bound: Fraction
    ceil_bound: int
    satisfied: bool
    equality: bool
    equality_expected: bool

    @property
    def ok(self) -> bool:
        return self.satisfied and self.equality == self.equality_expected


def verify_ordinary_bound(pp: PrimePower, cen: IncidenceCensus | None = None) -> OrdinaryBoundReport:
    """Compare the measured ordinary-line count against the exact lower bound."""
    if pp.n < 3:
        raise OutOfScope("bound check needs p^m >= 3")
    if cen is None:
        cen = census(enumerate_points(HyperbolaSpec(1, pp.n)))
    lb = ordinary_lower_bound(pp)
    n_ord = cen.ordinary_count
    return OrdinaryBoundReport(
        n=pp.n,
        ordinary=n_ord,
        bound=lb.bound,
        ceil_bound=lb.ceil,
        satisfied=n_ord >= lb.ceil,
        equality=n_ord == lb.bound,
        equality_expected=lb.equality_expected,
    )


@dataclass
class LineClassReport:
    n: int
    a: int
    lines_checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_line_classes(ps: PointSet, cen: IncidenceCensus | None = None) -> LineClassReport:
    """Structural checks on every line with >= 3 points of an odd prime-power set.

    Each such line must stay inside a single x mod p class, have C and A*B
    coprime to p, satisfy C*C - 4AB = 0 (mod p), and sit in the class
    i = -C * (2A)**-1 mod p; every line with C = 0 must be y = x with
    exactly two points.
    """
    pp = ps.spec.prime_power
    if pp is None or pp.p == 2 or pp.m < 2:
        raise OutOfScope("line-class checks need an odd prime power with m >= 2")
    p = pp.p
    if cen is None:
        cen = census(ps)
    violations: list[str] = []
    checked = 0
    for key, t in cen.lines(min_points=3):
        checked += 1
        on = ps.xs[key.A * ps.xs + key.B * ps.ys + key.C == 0]
        if len(on) != t:
            raise RuntimeError(f"census count mismatch on {key}")
        classes = set((on % p).tolist())
        if len(classes) != 1:
            violations.append(f"line {key.as_tuple()} meets classes {sorted(classes)}")
            continue
        if key.C % p == 0:
            violations.append(f"line {key.as_tuple()}: p divides C")
        if (key.A * key.B) % p == 0:
            violations.append(f"line {key.as_tuple()}: p divides A*B")
            continue
        if (key.C * key.C - 4 * key.A * key.B) % p != 0:
            violations.append(f"line {key.as_tuple()}: discriminant not 0 mod p")
        else:
            expect = -key.C * pow(2 * key.A, -1, p) % p
            if classes != {expect}:
                violations.append(f"line {key.as_tuple()}: class {classes} != {expect}")
    for key, t in zero_intercept_lines(ps):
        if key.as_tuple() != (1, -1, 0):
            violations.append(f"zero-intercept line {key.as_tuple()} is not y = x")
        elif t != 2:
            violations.append(f"line y = x carries {t} points, expected 2")
    return LineClassReport(ps.spec.n, ps.spec.a, checked, violations)


@dataclass
class CollinearityReport:
    n: int
    a: int
    max_collinear: int
    limit: int
    class_line_counts: dict[int, int]
    violations: list[str]
    many_lines_regime: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_collinearity_bounds(ps: PointSet, cen: IncidenceCensus | None = None) -> CollinearityReport:
    """Check max collinearity <= 2*p**floor(m/2) and that no class is collinear.

    Also reports the number of distinct lines each class spans (the quantity
    the point-count threshold argument bounds from below).
    """
    pp = ps.spec.prime_power
    if pp is None or pp.p == 2:
        raise OutOfScope("collinearity checks need an odd prime power")
    if cen is None:
        cen = census(ps)
    limit = 2 * pp.p ** (pp.m // 2)
    violations: list[str] = []
    if cen.max_collinear > limit:
        violations.append(f"max collinear {cen.max_collinear} exceeds {limit}")
    class_lines: dict[int, int] = {}
    if pp.m >= 2:
        for i, cls in partition_classes(ps).items():
            key = line_through(*zip(cls.xs[:2].tolist(), cls.ys[:2].tolist()))
            if count_on_line(cls, key) == len(cls):
                violations.append(f"class {i} is entirely collinear on {key.as_tuple()}")
            class_lines[i] = census(cls).line_total
    # classes above this size threshold must span quadratically many lines
    many_lines = pp.p ** ((pp.m + 1) // 2 - 1) > 200
    return CollinearityReport(
        ps.spec.n, ps.spec.a, cen.max_collinear, limit, class_lines, violations, many_lines
    )
