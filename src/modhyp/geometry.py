"""Line-incidence census over hyperbola point sets.

Every check here works on the point sets' int64 coordinate arrays.  One
kernel censuses a stack of point sets of any moduli and sizes (all a of one
prime, the a = 1 sets of a run of moduli, or a single set) in one sweep; the
sets are padded to the largest, and padding never enters a count.  Its rows
are (set, anchor) pairs over orbit representatives: a whole hyperbola, one
of phi(n) points all on x*y = a (mod n), is carried onto itself by
sigma (x, y) -> (y, x), nu (x, y) -> (n-x, n-y) and sigma*nu, so one anchor
per orbit is swept, weighted by its orbit size; any other set (a subset, a
class or a grid) is swept at every point.  An anchor's row codes the slope
to every other point of its set so that equal codes mean equal slopes (no
per-pair gcd).  The stack's largest modulus picks one of three tiers: up to
n = 2897, where (n - 1)**2 < 2**23, the code is the float32 quotient dy / dx,
and two different slopes never round to one float32; up to n = 2**15 it is
dy * dx**-1 modulo the prime 2**31 - 1, and up to n = 2**20 modulo a prime
above 2**41, both above 2 * (n - 1)**2, so integer codes are equal exactly
when the slopes are.  Vertical directions are looked for only in a stack
where some set repeats an x, which no hyperbola set does.  One row sort
per block of rows groups the points of each line through the anchor.  A
t-point line is a group of t-1 points at each of its t points, so each
set's weighted group counts give its count of each line size.  Only the
keys of lines with three or more points are kept: each group's direction
is rebuilt from its code, a float32 quotient by its continued fraction and
an integer code by a half extended Euclid on (M, code), the keys of a
whole set are closed under its three maps, and all are ordered by C and
then, by a stable sort, by one int64 major key that leads with the set
index, and cut back per set.  The tests check the
census against an independent cross-product oracle.  The lemma 7 checks
recount every rich line without the census, by sorting A*x + B*y for a
block of directions at once, one row per direction, and the collinearity
checks derive each x mod p class's line total from both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .hyperbola import HyperbolaSpec, PointSet, enumerate_points
from .ntcore import PrimePower, euler_phi

# Row entries per block of whole anchor rows.  A block's three int64 work
# arrays and its flags take 25 B per entry, 1.6 MB at 2**16, so they stay in a
# 2 MB per-core L2 cache; at 2**17 (3.3 MB) they do not.  In the float32 tier
# (n <= 2897) its two float32 work arrays and the flags take 9 B per entry.
# The codes the block sorts live in the bytes of its dx array, so they add
# nothing.  In-process line-sweep passes (theorem6, lemma7 and collinearity
# at n <= 625, then prime-lines) on a 2-core x86-64 host with 2 MB of L2 per
# core took a median 381 ms at 2**16, against 385 ms at 2**15, 407 ms at 2**17
# and 575 ms at 2**18 (12 rounds, the four sizes alternating, before the
# float32 tier).
_ROW_BLOCK = 1 << 16
# The stack's largest modulus n picks one of three tiers (census_tier):
# - up to n = 2897, the largest n with (n - 1)**2 < 2**23, a code is the
#   float32 quotient dy / dx ("float32"): two different slopes dy / dx and
#   dy' / dx' with |dy|, dx, dx' <= n - 1 differ by at least 1 / (dx * dx'),
#   more than the 2**-23 * |F|, about 2**-23 * |dy| / dx, that two reals
#   rounding to one float32 F can differ by, as |dy| * dx' < 2**23;
# - up to n = 2**15, codes are dy * dx**-1 mod the Mersenne prime 2**31 - 1,
#   from int64 products, as int32 ("int32 codes");
# - up to n = _N_LIMIT, codes are taken mod _SLOPE_PRIME and everything is
#   int64 ("int64").
# A modular code's M exceeds 2 * (n - 1)**2, so every cross product
# dy1*dx2 - dy2*dx1 of two directions is below M in absolute value and equal
# codes mean equal slopes (see census).  The codes, M itself (vertical) and
# the sentinels -1 (the anchor) and -2 - col (padding) fit the codes' dtype.
# _N_LIMIT also caps a set's point count.
_N_LIMIT = 1 << 20
_SLOPE_PRIME = 2199023255579  # the least prime above 2**41
_N_LIMIT_32 = 1 << 15
_SLOPE_PRIME_32 = (1 << 31) - 1
_N_LIMIT_FLOAT = 2897
# tier name: (largest modulus, M or None for float32 quotients), ascending
_TIERS = {
    "float32": (_N_LIMIT_FLOAT, None),
    "int32 codes": (_N_LIMIT_32, _SLOPE_PRIME_32),
    "int64": (_N_LIMIT, _SLOPE_PRIME),
}
CENSUS_TIERS = tuple(_TIERS)
_MAPS = ((True, False), (False, True), (True, True))  # sigma, nu, sigma*nu as (swap, reflect)


class DegeneratePair(ValueError):
    """Two equal points do not determine a line."""


class TooFewPoints(ValueError):
    """Census needs at least two points."""


class OutOfScope(ValueError):
    """Modulus outside the range the check is defined for."""


class LineKey(NamedTuple):
    """Canonical primitive triple (A, B, C) of the line A*x + B*y + C = 0.

    gcd(A, B, C) = 1 and the first nonzero of (A, B) is positive, so any two
    point pairs on one Euclidean line produce the same key.
    """

    A: int
    B: int
    C: int


def line_through(p: tuple[int, int], q: tuple[int, int]) -> LineKey:
    """Canonical line through two distinct points."""
    if p == q:
        raise DegeneratePair(f"identical points {p}")
    (x1, y1), (x2, y2) = p, q
    a, b, c = y2 - y1, x1 - x2, (x2 - x1) * y1 - (y2 - y1) * x1
    g = math.gcd(math.gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return LineKey(a, b, c)


@dataclass(eq=False)
class IncidenceCensus:
    """Exact per-line point counts of one set with the derived ordinary-line statistics.

    A record of ``census_many``, which checks the counts of its whole stack
    and summarises each set from them: ``ordinary_count`` lines of two
    points, ``max_collinear`` points on the longest line and ``line_total``
    lines in all.  ``_line_sizes[t]`` is the number of lines carrying exactly
    t points; the keys of the rich lines (t >= 3) are kept in ascending
    (A, B, C) order.
    """

    n: int
    a: int
    point_count: int
    ordinary_count: int
    max_collinear: int
    line_total: int
    _line_sizes: np.ndarray = field(repr=False)
    _rich_keys: np.ndarray = field(repr=False)
    _rich_t: np.ndarray = field(repr=False)

    @property
    def histogram(self) -> dict[int, int]:
        """{t: number of lines of exactly t points} for every t that has a line, ascending."""
        sizes = np.flatnonzero(self._line_sizes)
        return dict(zip(sizes.tolist(), self._line_sizes[sizes].tolist()))

    def lines(self, min_points: int = 3) -> Iterator[tuple[LineKey, int]]:
        """Yield (line, point count) for every line with at least min_points >= 3."""
        if min_points < 3:
            raise ValueError("only lines with at least 3 points are stored")
        keep = self._rich_t >= min_points
        A, B, C = self._rich_keys.T[:, keep].tolist()
        # tuple.__new__ builds each LineKey in C; LineKey._make would run a Python frame per line
        return zip(map(tuple.__new__, repeat(LineKey), zip(A, B, C)), self._rich_t[keep].tolist())

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


def _slope_inverses(span: int, m: int) -> np.ndarray:
    """The signed table inv[span + d] = d**-1 mod m for 0 < |d| <= span (inv[span] = 0 is unused).

    It has 2 * span + 1 int64 entries, 16 MB at span = 2**20 (the census's
    n <= 2**20), so every direction of a census indexes it by dx + span,
    without folding dx to one sign first.
    """
    # m = (m // d) * d + m % d gives d**-1 = -(m // d) * (m % d)**-1 (mod m),
    # with m % d < d already inverted: cheaper than one pow(d, -1, m) each
    inv = [0, 1]
    for d in range(2, span + 1):
        inv.append((m - m // d) * inv[m % d] % m)
    positive = np.array(inv[1 : span + 1], dtype=np.int64)
    return np.concatenate((m - positive[::-1], [0], positive))  # (-d)**-1 = m - d**-1


def _slope_codes(
    dx: np.ndarray, dy: np.ndarray, inv: np.ndarray, m: int, out: np.ndarray, vertical: bool
) -> np.ndarray:
    """The codes dy * dx**-1 mod m per direction, m where it is vertical, written over dx.

    inv is ``_slope_inverses(span, m)`` and dx holds each direction's
    dx + span, so the vertical directions are where dx == span; dy and out
    are int64 scratch of dx's shape.  Only when vertical is true are they
    looked for: without it every direction with dx == span is taken to be
    zero (an anchor's own column), and its code is 0.  The codes are a view
    of dx's bytes: int32 when m < 2**31 (the first half of its bytes), else
    int64 (dx itself).  For |dx|, |dy| < sqrt(m / 2) two codes are equal
    exactly when dy1 * dx2 == dy2 * dx1.
    """
    # every dx of two real points is in range (a padding column's may be
    # clipped; the census overwrites its code); "clip" writes out unbuffered
    np.take(inv, dx, out=out, mode="clip")
    out *= dy
    upright = dx == len(inv) // 2 if vertical else None
    # out % m, but floor division by a scalar is faster
    np.floor_divide(out, m, out=dy)
    dy *= m
    code = dx.reshape(-1).view(np.int32 if m < 1 << 31 else np.int64)[: dx.size].reshape(dx.shape)
    np.subtract(out, dy, out=code, casting="unsafe")  # dx is dead: its bytes take the codes
    if vertical:
        np.copyto(code, m, where=upright)
    return code


def _slope_quotients(dx: np.ndarray, dy: np.ndarray, vertical: bool) -> np.ndarray:
    """The float32 quotients dy / dx per direction, +inf where it is vertical, written over dx.

    dx and dy are float32 differences of coordinates below _N_LIMIT_FLOAT,
    so exact.  An anchor's own column (0 / 0) and a padding column (NaN)
    give NaN, which sorts last and equals nothing.  Only when vertical is
    true is -inf folded into +inf: without it no direction but an anchor's
    own has dx == 0.  Two quotients are equal exactly when the slopes are
    (the float32 tier, above _TIERS); a horizontal direction gives +0.0 or
    -0.0, which compare equal.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        code = np.divide(dy, dx, out=dx)
    if vertical:
        np.copyto(code, np.inf, where=code == -np.inf)
    return code


def _quotient_directions(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced direction (dx, dy), dx >= 0, of each float32 quotient F = dy / dx, and (0, 1) for F = inf.

    A nonzero F has |F| > 1 / 2896 > 2**-12, so its float32 ulp is at least
    2**-35 and F = P / 2**35 for an int64 P, |P| < 2**47.  The true slope
    dy / dx, dx <= N = _N_LIMIT_FLOAT - 1, lies within 2**-24 * |F| of F,
    under 1 / (2 * dx**2) as N**2 < 2**23, so by Legendre's theorem it is a
    convergent of P / 2**35; the next convergent is nearer F, and by the
    tier's gap bound it cannot have a denominator <= N.  So (dx, |dy|) is
    the last convergent with denominator <= N.  The convergents of every F
    are walked at once, as ``_directions`` walks Euclid: one Euclid step on
    the remainders (r0, r1) per step, the numerators and denominators
    h0, h1 = h1, h0 + a * h1 beside them, and an entry ends at its first
    denominator past N (taking the one before) or at a zero remainder.
    """
    top = _N_LIMIT_FLOAT - 1
    vertical = np.isinf(code)
    exact = (np.where(vertical, 0, code).astype(np.float64) * 2.0**35).astype(np.int64)  # P
    live = np.flatnonzero(~vertical)
    # rows hi and lo: the remainders r0 > r1; rows hi + 2 and lo + 2 their numerators, hi + 4 and
    # lo + 4 their denominators (lo holds the newest convergent); row 6 each entry's place
    state = np.zeros((7, len(live)), dtype=np.int64)
    state[0], state[1], state[3], state[4], state[6] = np.abs(exact[live]), 1 << 35, 1, 1, live
    hi, lo = 0, 1
    done = [np.empty((3, 0), dtype=np.int64)]
    while state.shape[1]:
        a = state[hi] // state[lo]
        state[hi] -= a * state[lo]
        state[hi + 2] += a * state[lo + 2]
        state[hi + 4] += a * state[lo + 4]
        hi, lo = lo, hi
        past = state[lo + 4] > top
        end = past | (state[lo] == 0)
        ended, past = np.compress(end, state, axis=1), past[end]
        done.append(np.where(past, ended[[hi + 2, hi + 4, 6]], ended[[lo + 2, lo + 4, 6]]))
        state = np.compress(~end, state, axis=1)
    numerator, denominator, at = np.concatenate(done, axis=1)
    dx, dy = np.zeros(len(code), dtype=np.int64), vertical.astype(np.int64)
    dx[at], dy[at] = denominator, np.where(exact[at] < 0, -numerator, numerator)
    return dx, dy


def _directions(code: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced direction (dx, dy) of each slope code c mod m: dy = c * dx (mod m), and (0, 1) for c = m.

    Half of the extended Euclidean algorithm on (m, c): its remainders r and
    cofactors t keep r = t * c (mod m), and at the first r <= isqrt(m // 2)
    the pair (dx, dy) = (t, r) is the only direction, up to sign, with both
    entries at most that bound in absolute value, and coprime because m is
    prime.  So it is exact for every code of a census, whose
    |dx|, |dy| <= n - 1 with 2 * (n - 1)**2 < m.
    """
    stop = math.isqrt(m // 2)
    vertical = code == m
    dx = (~vertical).astype(np.int64)
    dy = np.where(vertical, 1, code).astype(np.int64)
    live = np.flatnonzero(dy > stop)
    # one row each for r0 > r1, their cofactors t0 and t1 (rows hi + 2 and lo + 2) and each
    # entry's place, so a step compacts the live entries with one np.compress, not five gathers
    state = np.stack([np.full(len(live), m), dy[live], np.zeros(len(live), dtype=np.int64), dx[live], live])
    hi, lo = 0, 1
    done = [np.empty((3, 0), dtype=np.int64)]
    while state.shape[1]:
        q = state[hi] // state[lo]
        state[hi] -= q * state[lo]  # r0, r1 = r1, r0 - q * r1 by trading the rows' roles
        state[hi + 2] -= q * state[lo + 2]
        hi, lo = lo, hi
        end = state[lo] <= stop
        done.append(np.compress(end, state[[lo, lo + 2, 4]], axis=1))
        state = np.compress(~end, state, axis=1)
    r, t, at = np.concatenate(done, axis=1)
    dx[at], dy[at] = t, r
    return dx, dy


def check_census_modulus(n: int) -> None:
    """Refuse moduli past the range where the census slope codes are exact."""
    if n > _N_LIMIT:
        raise ValueError(f"census slope codes are exact only for n <= {_N_LIMIT}, got n = {n}")


def census_tier(n: int) -> str:
    """The slope-code tier, a name in CENSUS_TIERS, of a census stack whose largest modulus is n."""
    check_census_modulus(n)
    return next(name for name, (limit, _) in _TIERS.items() if n <= limit)


def _orbits(
    sets: Sequence[PointSet], xs: np.ndarray, ys: np.ndarray, ns: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per set, whether it is whole, and the image of each point under sigma, nu and sigma*nu.

    xs and ys stack the S sets as (S, K) arrays, set s in its first ks[s]
    columns and padding after them; ns holds each set's modulus.  A set is
    whole when it has phi(n) points, all on x*y = a (mod n): each x is then a
    unit with the one partner y = a * x**-1, so its xs, and its ys, are
    exactly the units of n.  images[g, s, i], over _MAPS, is the index of the
    image of point i of set s under map g.  For a whole set, sigma is one
    row-wise ``np.argsort`` of the ys (padding last), as an involution is its
    own inverse; nu sends i to k - 1 - i and sigma*nu to k - 1 - sigma(i).
    Every other set and every padding column map to themselves.
    """
    cols = np.arange(xs.shape[1])
    real = cols < ks[:, None]
    phi = [ps.spec.prime_power.phi if ps.spec.prime_power else euler_phi(ps.spec.n) for ps in sets]
    a = np.array([ps.spec.a for ps in sets], dtype=np.int64)
    whole = (ks == phi) & ((xs * ys % ns[:, None] == a[:, None]) | ~real).all(axis=1)
    sigma = np.argsort(np.where(real, ys, ns[:, None] + cols), axis=1)  # padding: distinct, above every y
    mirror = np.where(real, ks[:, None] - 1 - cols, cols)  # point i's place in its set reversed; padding stays
    images = np.stack([sigma, mirror, np.take_along_axis(mirror, sigma, axis=1)])
    return whole, np.where(whole[:, None], images, cols)


def _row_blocks(rows_per_set: np.ndarray, ks: np.ndarray) -> list[tuple[int, int, int]]:
    """Cut the set-major rows into blocks (lo, hi, width) of consecutive rows.

    A block takes rows while its row count times its widest row (a set's
    rows are ks of that set wide) stays within _ROW_BLOCK, and always at
    least one row.
    """
    blocks = []
    lo = row = width = 0
    for count, k in zip(rows_per_set.tolist(), ks.tolist()):
        stop = row + count
        while row < stop:
            room = max(1, _ROW_BLOCK // max(width, k)) - (row - lo)
            if room <= 0:
                blocks.append((lo, row, width))
                lo, width = row, 0
                continue
            width = max(width, k)
            row = min(stop, row + room)
    blocks.append((lo, row, width))
    return blocks


def _row_groups(xs, ys, sid, anchor, row_k, inv, m, work, vertical) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort one block of (set, anchor) rows and find its groups of two or more points.

    Row r is anchor[r] of set sid[r], whose points fill its first row_k[r]
    columns of xs and ys; xs, ys and work are as wide as the block's widest
    row.  In the float32 tier inv is None and xs and ys are float32 with NaN
    padding; else inv is ``_slope_inverses(span, m)``.  Returns, per group,
    its row r, its size and its slope code.  work holds (R, width) arrays
    dx and dy (float32, else int64 and a third int64 product scratch) and
    flags (bool), which every block overwrites: the census allocates its
    row arrays once, not once per block.  vertical says whether some set of
    the stack has two points of one x (``_slope_codes``).
    """
    dx, dy, flags = work[0], work[1], work[-1]
    width = xs.shape[1]
    np.take(xs, sid, axis=0, out=dx, mode="clip")
    shift = xs[sid, anchor][:, None]
    dx -= shift if inv is None else shift - len(inv) // 2  # dx + span indexes the signed table
    np.take(ys, sid, axis=0, out=dy, mode="clip")
    dy -= ys[sid, anchor][:, None]
    if inv is None:
        # the anchor (0 / 0) and padding give NaN, which sorts last and equals nothing: a row
        # ends on NaN, so no run crosses from one row into the next
        code = _slope_quotients(dx, dy, vertical)
    else:
        code = _slope_codes(dx, dy, inv, m, work[2], vertical)
        if (row_k < width).any():
            # padding column c takes -2 - c: distinct, and below every slope code
            cols = np.arange(width)
            np.less_equal(row_k[:, None], cols, out=flags)
            np.copyto(code, -2 - cols, where=flags)
        # a row's sentinels (-1 for its anchor, -2 - c for padding) are distinct
        # and sort first, and it ends on a slope code >= 0 (a row has at least
        # one other point), so no run crosses from one row into the next
        code[np.arange(len(anchor)), anchor] = -1
    code.sort(axis=1)
    flat = code.ravel()
    same = flags.ravel()  # same[p]: flat entries p and p + 1 share a slope
    np.equal(flat[1:], flat[:-1], out=same[:-1])
    same[-1] = False  # the last entry has no successor
    pos = np.flatnonzero(same)
    # a run of consecutive positions is one group of size >= 2; group g is pos[first[g]:first[g+1]]
    opens = np.ones(len(pos) + 1, dtype=bool)
    opens[1:-1] = pos[1:] != pos[:-1] + 1
    first = np.flatnonzero(opens)
    sizes = first[1:] - first[:-1] + 1
    pos = pos[first[:-1]]
    return pos // width, sizes, flat[pos]


def census(ps: PointSet) -> IncidenceCensus:
    """Full incidence census of a point set (at least two distinct points).

    The stack of one of ``census_many``, which runs the method below on a
    stack of sets of any moduli and sizes, each set on its own terms.
    Orbits: sigma (x, y) -> (y, x), nu (x, y) -> (n-x, n-y) and sigma*nu
    carry a whole set (phi(n) points, all on x*y = a mod n) onto itself, as
    (n-x)(n-y) = xy mod n, and lines to lines of the same size (``_orbits``).
    So only the point of least index in each orbit of a whole set is an
    anchor, weighted by its orbit size w = 4 // (1 + the maps that fix it).
    A subset or a class may keep fewer maps or none; the census does not
    look for them and sweeps such a set at every point, with w = 1.
    Rows: one row per (set, anchor) pair, set-major.  Anchor i's row holds
    every other point j of its set, coded by the direction (dx, dy) = j - i,
    a direction and its negation alike.  The stack's largest modulus picks
    the tier (``census_tier``).  Up to 2897 the code is the float32
    quotient c = dy / dx of float32 coordinates, +inf when vertical (looked
    for only in a stack where some set repeats an x); the anchor's own
    column (0 / 0) and padding (NaN coordinates) give NaN, which sorts last
    and equals nothing.  It is exact: two different slopes dy / dx and
    dy' / dx' with |dy|, dx, dx' <= N = n - 1 differ by at least
    1 / (dx * dx'), and two reals that round to one float32 F differ by at
    most 2**-23 * |F|, about 2**-23 * |dy| / dx, less as
    |dy| * dx' <= N**2 < 2**23.  Above 2897 the code is c = dy * dx**-1 mod M (c = M
    when vertical), with dx**-1 read from a signed table at dx + span: up to
    2**15, M = 2**31 - 1, the products are int64 and the int32 codes are
    written into the bytes of the block's dx array; above that
    M = _SLOPE_PRIME and they are int64.  It is exact too: c1 == c2 iff
    dy1 * dx2 = dy2 * dx1 (mod M), and that cross-product difference is at
    most 2 * (n-1)**2 < M in absolute value, so iff the slopes are equal.
    There the anchor's own column is -1 and a padding column c is -2 - c:
    distinct, below every code, and sorted first.  One ``np.sort`` per
    block of rows, at most _ROW_BLOCK entries of the block's widest row
    each; a block may span sets and reuses one set of row arrays.  Each run
    of equal c is the rest of one line through i, so a t-point line is one
    group of size exactly t-1 at each of its t points.
    Counts: H[s, size], on the (S, K) grid of the stack's coordinates, is
    the w-weighted number of set s's groups of that size (one flat-index
    ``np.add.at`` over every group, after the sweep), and set s has
    L_t = H[s, t-1] / t lines of t points, row s of an (S, K + 1) grid and
    zero past its k, checked and summarised as ``census_many`` describes.
    Rich lines are keyed as (set, A, B, C, t) from the anchor and the code
    of each group of size >= 2: ``_quotient_directions`` (float32) or
    ``_directions`` rebuilds every group's reduced direction (dx, dy) (a
    direction with gcd(dx, dy) != 1, or in the float32 tier one whose
    float32 dy / dx is not its code, raises ``RuntimeError``), and A = dy,
    B = -dx, C = -(A*x + B*y).  The keys and,
    for a whole set, their images under its three maps, N columns of one
    (5, N) int64 array, are ordered by the major key
    (set * span + A) * 2 * span + B, span the stack's largest n, and then
    by C (an ``np.argsort`` by C, then a stable one by major key over the
    columns in that order), gathered once, and the repeats compressed out.
    """
    return census_many([ps])[0]


def census_many(sets: Sequence[PointSet]) -> list[IncidenceCensus]:
    """The census of each of a stack of point sets, in one sweep (method: ``census``).

    The sets may differ in modulus and size.  An empty stack or one of 2**22
    sets or more, a set of fewer than two points or of more than 2**20, or a
    modulus above 2**20 raise before any work.  Only the numpy calls are
    shared: every set keeps its own orbits, weights, counts and keys.  The
    checks are reductions along the rows of the stack's count grids, one row
    per set, and hold for every set: that t divides H_(t-1), and then, in
    ``_line_summaries``, that no L_t is negative, that the set's lines hold
    each of its point pairs once and that it has one key per rich line; a
    failure raises ``RuntimeError`` naming the set's place in the stack.
    """
    if not sets:
        raise ValueError("census_many needs at least one point set")
    if 2 * len(sets) * _N_LIMIT**2 >= 1 << 63:
        raise ValueError(f"census stacks hold fewer than {(1 << 62) // _N_LIMIT**2} sets, got {len(sets)}")
    moduli = [ps.spec.n for ps in sets]
    sizes = [len(ps) for ps in sets]
    if min(sizes) < 2:
        raise TooFewPoints(f"{min(sizes)} point(s) span no lines")
    _, m = _TIERS[census_tier(max(moduli))]
    if max(sizes) > _N_LIMIT:
        raise ValueError(f"census handles at most {_N_LIMIT} points a set, got {max(sizes)} points")
    S, K = len(sets), max(sizes)
    ns = np.array(moduli, dtype=np.int64)
    ks = np.array(sizes, dtype=np.int64)
    xs = np.zeros((S, K), dtype=np.int64)
    ys = np.zeros((S, K), dtype=np.int64)
    for s, ps in enumerate(sets):
        xs[s, : sizes[s]] = ps.xs
        ys[s, : sizes[s]] = ps.ys
    whole, images = _orbits(sets, xs, ys, ns, ks)
    cols = np.arange(K)
    real = cols < ks[:, None]
    # a set's points ascend in (x, y), so it has a vertical pair iff two neighbours share an x
    vertical = bool(((xs[:, 1:] == xs[:, :-1]) & real[:, 1:]).any())
    if m is None:  # float32 rows; the padding's NaN makes its quotients NaN
        row_xs, row_ys = (np.where(real, v, np.nan).astype(np.float32) for v in (xs, ys))
        inv = None
    else:
        row_xs, row_ys = xs, ys
        inv = _slope_inverses(int((xs[np.arange(S), ks - 1] - xs[:, 0]).max()), m)
    anchors = (images >= cols).all(axis=0)  # least index in its orbit
    anchors &= real
    row_set, row_anchor = np.nonzero(anchors)
    images = images[:, row_set, row_anchor]
    # orbit size = group order / stabiliser order; a set that is not whole maps every point to itself
    row_weight = 4 // (1 + (images == row_anchor).sum(axis=0))
    H = np.zeros((S, K), dtype=np.int64)  # H[s, size]: set s's groups of that size, weighted
    # each anchor's row has k - 1 entries: H_1 starts at all of them, and each
    # group of size >= 2 found below takes its size back out
    np.add.at(H[:, 1], row_set, (ks[row_set] - 1) * row_weight)
    blocks = _row_blocks(np.bincount(row_set, minlength=S), ks)
    entries = max((hi - lo) * width for lo, hi, width in blocks)
    # one array each, not one (3, entries) array: glibc raises its mmap
    # threshold to the size of each mapping freed, and a 3 MB one moves every
    # later allocation below 3 MB onto the heap (the line sweeps then read up
    # to 4 MB more peak RSS).  They live until the census returns: freed
    # before the keys are built, they left the line-sweep benchmark at about
    # 3.7 MB more peak RSS in roughly half the directories it ran from.
    ints = [np.empty(entries, dtype=row_xs.dtype) for _ in range(2 if inv is None else 3)]
    flags = np.empty(entries, dtype=bool)
    at, groups, codes = [], [], []  # per block: each group's row, size and slope code
    for lo, hi, width in blocks:
        sid = row_set[lo:hi]
        anchor = row_anchor[lo:hi]
        work = [a[: (hi - lo) * width].reshape(hi - lo, width) for a in (*ints, flags)]
        row, group, code = _row_groups(
            row_xs[:, :width], row_ys[:, :width], sid, anchor, ks[sid], inv, m, work, vertical
        )
        at.append(row + lo)
        groups.append(group)
        codes.append(code)
    row, group = np.concatenate(at), np.concatenate(groups)
    s, i = row_set[row], row_anchor[row]
    np.add.at(H.reshape(-1), s * K + group, row_weight[row])  # a flat index: a tuple one costs about 4x
    H[:, 1] -= H[:, 2:] @ np.arange(2, K)
    line_sizes = np.zeros((S, K + 1), dtype=np.int64)  # line_sizes[s, t]: L_t of set s, 0 past its k
    line_sizes[:, 1:], rest = np.divmod(H, np.arange(1, K + 1))  # L_t = H_(t-1) / t
    bad = rest.any(axis=1)
    if bad.any():
        raise RuntimeError(f"census H_(t-1) is not a multiple of t in set {np.argmax(bad)} of the stack")
    # each group's key (set, A, B, C, t) is a column of rows, then, for a whole set, its images
    # under sigma, nu and sigma*nu, linear in (A, B, C): sigma swaps A and B, nu sends C to -C - n(A + B)
    mapped = whole[s]
    bounds = len(s) + np.count_nonzero(mapped) * np.arange(4)
    N = int(bounds[-1])
    rows = np.empty((5, N), dtype=np.int64)
    keys = rows[:, : len(s)]
    code = np.concatenate(codes)
    dx, dy = _quotient_directions(code) if m is None else _directions(code, m)
    checks = [(np.gcd(dx, dy) != 1, "is not reduced")]
    if m is None:
        with np.errstate(divide="ignore"):  # a vertical (0, 1) divides to inf
            checks.append((dy.astype(np.float32) / dx.astype(np.float32) != code, "does not divide to its code"))
    for wrong, what in checks:
        if wrong.any():
            raise RuntimeError(f"census rebuilt a direction that {what} in set {s[np.argmax(wrong)]} of the stack")
    keys[0], keys[1], keys[2], keys[4] = s, dy, -dx, group + 1
    keys[3] = -(keys[1] * xs[s, i] + keys[2] * ys[s, i])
    for which, (swap, reflect) in enumerate(_MAPS):
        image = np.compress(mapped, keys, axis=1, out=rows[:, bounds[which] : bounds[which + 1]])
        if swap:
            image[[1, 2]] = image[[2, 1]]
        if reflect:
            image[3] = -image[3] - ns[image[0]] * (image[1] + image[2])
    major, A, B, C = rows[:4]
    np.negative(rows[1:4], out=rows[1:4], where=(A < 0) | ((A == 0) & (B < 0)))  # sign rule
    # ascending (set, A, B, C): the major key (set * span + A) * 2 * span + B over the set row, then C; set s's
    # keys lie above 2 * s * span**2 - span as |A|, |B| < span, and all below 2**63
    span = max(moduli)
    np.add(np.multiply(major, span, out=major), A, out=major)
    np.add(np.multiply(major, 2 * span, out=major), B, out=major)
    by_c = np.argsort(C)
    order = by_c[np.argsort(major[by_c], kind="stable")]
    del keys, image, A, B, C, major, dx, dy, code, checks, wrong, by_c  # released before the gather
    rows = np.take(rows, order, axis=1)  # faster than rows[:, order]
    major, C, t = rows[0], rows[3], rows[4]
    distinct = np.ones(N, dtype=bool)  # a line of two sizes keeps both, for the checks
    distinct[1:] = (major[1:] != major[:-1]) | (C[1:] != C[:-1]) | (t[1:] != t[:-1])
    rows = np.compress(distinct, rows, axis=1)
    cut = np.searchsorted(rows[0], np.arange(S + 1) * 2 * span * span - span)
    summaries = _line_summaries(line_sizes, ks, np.diff(cut))
    cut = cut.tolist()
    return [
        IncidenceCensus(n, ps.spec.a, k, *summary, counts[: k + 1], rows[1:4, lo:hi].T, rows[4, lo:hi])
        for ps, n, k, summary, counts, lo, hi in zip(sets, moduli, sizes, summaries, line_sizes, cut, cut[1:])
    ]


def _line_summaries(line_sizes: np.ndarray, ks: np.ndarray, rich: np.ndarray) -> list[tuple]:
    """Check the stacked line counts of every set and give each its (ordinary count, longest line, line total).

    line_sizes is an (S, K + 1) array: row s holds L_0 .. L_K of set s of
    k = ks[s] <= K points, L_t = 0 for t > k, and the set has rich[s]
    rich-line keys.  Every check is one reduction along axis 1, the padding
    columns t > k included, and the first set that fails one raises
    ``RuntimeError``: no L_t may be negative, the sum of L_t * C(t, 2) must
    be C(k, 2) (every point pair lies on exactly one line), and rich[s] must
    be the sum of L_t over t >= 3.
    """
    t = np.arange(line_sizes.shape[1])  # the line size each column counts
    checks = (
        ((line_sizes < 0).any(axis=1), "census line count L_t is negative"),
        (line_sizes @ (t * (t - 1) // 2) != ks * (ks - 1) // 2, "census pair-count identity violated"),
        (line_sizes[:, 3:].sum(axis=1) != rich, "rich-line keys disagree with the line counts"),
    )
    for failed, what in checks:
        if failed.any():
            raise RuntimeError(f"{what} in set {np.argmax(failed)} of the stack")
    longest = np.where(line_sizes > 0, t, 0).max(axis=1)
    return list(zip(line_sizes[:, 2].tolist(), longest.tolist(), line_sizes.sum(axis=1).tolist()))


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


def verify_ordinary_bound(pp: PrimePower, cen: IncidenceCensus) -> OrdinaryBoundReport:
    """Compare the ordinary-line count of cen, the census of H_{1,p^m}, against the exact lower bound."""
    if pp.n < 3:
        raise OutOfScope("bound check needs p^m >= 3")
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


def _rich_line_classes(ps: PointSet, cen: IncidenceCensus, p: int) -> np.ndarray:
    """The x mod p class of each point of each rich line of cen, line after line, each count recounted.

    Each point is packed with its class as (A*x + B*y) * p + x % p, for a
    block of directions (A, B) at once: a (D, k) array, D * k <= _ROW_BLOCK,
    sorted along its rows.  Row r is then offset by r * span, so the block
    ascends as one flat array, and one ``np.searchsorted`` pair finds the
    points of every line A*x + B*y = -C of the block; a count other than the
    census's raises.
    """
    keys, t = cen._rich_keys, cen._rich_t
    A, B, C = keys.T
    # keys ascend in (A, B, C), so the lines of one direction are consecutive
    edge = np.ones(len(keys) + 1, dtype=bool)
    edge[1:-1] = (A[1:] != A[:-1]) | (B[1:] != B[:-1])
    bounds = np.flatnonzero(edge)  # direction d's lines are bounds[d]:bounds[d + 1]
    row = np.cumsum(edge[:-1]) - 1  # each line's direction
    directions = len(bounds) - 1
    # a row's values and both searches of its lines, w * p and (w + 1) * p for w = -C = A*x + B*y
    # at a point of the line, lie in [-W * p, (W + 1) * p], W = 2 * (n - 1)**2 >= |A*x + B*y|.
    # Rows span = 2 * (W + 1) * p apart never meet, and as span is a multiple of p an offset
    # value keeps its class.  A block of D rows stays below D * span, so D * span < 2**63 keeps
    # it int64: span < 2**53 (a census needs n <= 2**20, and m >= 2 gives p <= 2**10), so the
    # cap leaves D >= 2**10, and _ROW_BLOCK // k binds first for every k >= 2**6
    span = 2 * (2 * (ps.spec.n - 1) ** 2 + 1) * p
    per_block = max(1, min(_ROW_BLOCK // len(ps), ((1 << 63) - 1) // span))
    classes = [np.empty(0, dtype=np.int64)]
    residues = ps.xs % p
    for d in range(0, directions, per_block):
        end = min(d + per_block, directions)
        first, last = bounds[d], bounds[end]
        lead = bounds[d:end]  # the first line of each direction
        values = np.multiply.outer(A[lead], ps.xs)
        values += np.multiply.outer(B[lead], ps.ys)
        values *= p
        values += residues
        values.sort(axis=1)
        values += np.arange(len(lead))[:, None] * span
        values = values.reshape(-1)
        base = (row[first:last] - d) * span
        lo = np.searchsorted(values, base - C[first:last] * p)
        count = np.searchsorted(values, base + (1 - C[first:last]) * p) - lo
        wrong = np.flatnonzero(count != t[first:last])
        if len(wrong):
            raise RuntimeError(f"census count mismatch on {LineKey(*keys[first + wrong[0]].tolist())}")
        # the sorted positions of the points of every line, line after line
        member = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        classes.append(values[member] % p)
    return np.concatenate(classes)


def verify_line_classes(ps: PointSet, cen: IncidenceCensus) -> LineClassReport:
    """Structural checks on every line with >= 3 points of an odd prime-power set, cen its census.

    Each such line must stay inside a single x mod p class, have C and A*B
    coprime to p, satisfy C*C - 4AB = 0 (mod p), and sit in the class
    i = -C * (2A)**-1 mod p; every line with C = 0 must be y = x with
    exactly two points.  The census's count of every rich line is recounted
    without the census (``_rich_line_classes``).
    """
    pp = ps.spec.prime_power
    if pp is None or pp.p == 2 or pp.m < 2:
        raise OutOfScope("line-class checks need an odd prime power with m >= 2")
    p = pp.p
    keys, t = cen._rich_keys, cen._rich_t
    A, B, C = keys.T
    classes = _rich_line_classes(ps, cen, p)
    ends = np.cumsum(t) - t  # line r's points sit at classes[ends[r] : ends[r] + t[r]]
    violations: list[str] = []
    if len(keys):
        low, high = np.minimum.reduceat(classes, ends), np.maximum.reduceat(classes, ends)
        Ap, Bp, Cp = A % p, B % p, C % p
        split = low != high
        c_zero = Cp == 0
        ab_zero = Ap * Bp % p == 0
        disc = (Cp * Cp - 4 * Ap * Bp) % p != 0
        off_class = (2 * Ap * low + Cp) % p != 0  # i != -C * (2A)**-1 where 2A is a unit
        for r in np.flatnonzero(split | c_zero | ab_zero | disc | off_class).tolist():
            key = tuple(keys[r].tolist())
            if split[r]:
                on = sorted(set(classes[ends[r] : ends[r] + t[r]].tolist()))
                violations.append(f"line {key} meets classes {on}")
                continue
            if c_zero[r]:
                violations.append(f"line {key}: p divides C")
            if ab_zero[r]:
                violations.append(f"line {key}: p divides A*B")
                continue
            if disc[r]:
                violations.append(f"line {key}: discriminant not 0 mod p")
            elif off_class[r]:
                on = {int(low[r])}
                expect = -key[2] * pow(2 * key[0], -1, p) % p
                violations.append(f"line {key}: class {on} != {expect}")
    for key, count in zero_intercept_lines(ps):
        if key != (1, -1, 0):
            violations.append(f"zero-intercept line {tuple(key)} is not y = x")
        elif count != 2:
            violations.append(f"line y = x carries {count} points, expected 2")
    return LineClassReport(ps.spec.n, ps.spec.a, len(keys), violations)


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


def verify_collinearity_bounds(ps: PointSet, cen: IncidenceCensus) -> CollinearityReport:
    """Check max collinearity <= 2*p**floor(m/2) and that no class is collinear, cen the census of ps.

    For m >= 2 it also reports the lines each x mod p class spans (the
    quantity the point-count threshold argument bounds from below), from cen
    and its recounted rich lines, not from a census of the classes: class i
    of k_i points spans C(k_i, 2) - sum [C(t, 2) - 1] lines, the sum over
    the rich lines that hold t >= 2 of its points, and if k_i >= 3 it is
    collinear when one of them holds all k_i.  Classes may differ in size.
    """
    pp = ps.spec.prime_power
    if pp is None or pp.p == 2:
        raise OutOfScope("collinearity checks need an odd prime power")
    limit = 2 * pp.p ** (pp.m // 2)
    violations: list[str] = []
    if cen.max_collinear > limit:
        violations.append(f"max collinear {cen.max_collinear} exceeds {limit}")
    class_lines: dict[int, int] = {}
    if pp.m >= 2:
        p = pp.p
        k = np.bincount(ps.xs % p, minlength=p)
        # line * p + class for each point of each rich line; t points per code
        members = np.repeat(np.arange(len(cen._rich_t)), cen._rich_t) * p + _rich_line_classes(ps, cen, p)
        codes, t = np.unique(members, return_counts=True)
        line, i = np.divmod(codes, p)
        lines = k * (k - 1) // 2
        np.subtract.at(lines, i, np.where(t >= 2, t * (t - 1) // 2 - 1, 0))
        whole = (t == k[i]) & (k[i] >= 3)
        for c, r in sorted(zip(i[whole].tolist(), line[whole].tolist())):
            violations.append(f"class {c} is entirely collinear on {tuple(cen._rich_keys[r].tolist())}")
        class_lines = dict(enumerate(lines[1:].tolist(), start=1))
    # classes above this size threshold must span quadratically many lines
    many_lines = pp.p ** ((pp.m + 1) // 2 - 1) > 200
    return CollinearityReport(ps.spec.n, ps.spec.a, cen.max_collinear, limit, class_lines, violations, many_lines)
