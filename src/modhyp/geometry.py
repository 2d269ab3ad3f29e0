"""Line-incidence census over hyperbola point sets.

Every check here works on the point sets' int64 coordinate arrays.  One
kernel censuses a stack of point sets of any moduli and sizes (all a of one
prime, the a = 1 sets of a run of moduli, or a single set) in one sweep; the
sets are padded to the largest, and padding never enters a count.  Its rows
are forward rows over orbit blocks: a whole hyperbola, one of phi(n) points
all on x*y = a (mod n), is carried onto itself by sigma (x, y) -> (y, x),
nu (x, y) -> (n-x, n-y) and sigma*nu, so each orbit's point of least x,
read from its coordinates with no search, leads a block of consecutive
places with its images and sweeps the points after it, weighted by its
block's size; any other set (a subset, a class or a grid) is a block of one
point at each point, in its own order.  So each point pair is seen once, up
to the pairs within an orbit.  A row codes the slope to each of its points so that equal codes mean equal
slopes (no per-pair gcd): the code is the float quotient dy / dx, float32
when the stack's largest modulus is at most 2897, where (n - 1)**2 < 2**23,
else float64 up to n = 2**20, where (n - 1)**2 < 2**52, so two different
slopes never round to one float.  Vertical directions are looked for only in
a stack where some set repeats an x, which no hyperbola set does.  One row
sort per block of rows groups the points of each line ahead of the anchor
into one run.  A t-point line gives one run of each j < t forward points, so
the weighted count G_j of runs of exactly j points, once each pair of mates
counts once, gives L_t = G_(t-1) - G_t lines of t points.  Only the keys of
lines with three or more points are kept: each run's direction is rebuilt
from its quotient by its continued fraction, the keys of a whole set are
closed under its three maps, all are ordered by C and then, by a stable sort,
by one int64 major key that leads with the set index, each line keeps its
largest size, and they are cut back per set.  The tests check the census
against an independent cross-product oracle.  The lemma 7 checks recount
each rich line in the x mod p classes of its key's roots, one sorted row per
(direction, class), and the collinearity checks derive each class's line
total from both; neither can find a line the census lost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hyperbola import HyperbolaSpec, PointSet, enumerate_points
from .ntcore import PrimePower, euler_phi

# Row entries per block of forward rows.  A block's two work arrays and its
# flags take 17 B per entry in the float64 tier, 1.1 MB at 2**16, and 9 B in
# the float32 tier, so they stay in a 2 MB per-core L2 cache.  The codes the
# block sorts live in the bytes of its dx array, so they add nothing; the
# gather of each coordinate passes through one temporary of the block's
# size.  In-process line-sweep passes (theorem6, lemma7 and collinearity at
# n <= 625, then prime-lines) on a 2-core x86-64 host with 2 MB of L2 per
# core took a median 381 ms at 2**16, against 385 ms at 2**15, 407 ms at 2**17
# and 575 ms at 2**18 (12 rounds, the four sizes alternating, with 25 B
# entries, before the float tiers and forward rows).
_ROW_BLOCK = 1 << 16
# The stack's largest modulus n picks one of two tiers (census_tier).  A code
# is the quotient F = dy / dx of the tier's floats, whose coordinates, and so
# dx and dy, are exact:
# - "float32" up to n = 2897, the largest n with (n - 1)**2 < 2**23;
# - "float64" up to n = _N_LIMIT = 2**20.
# Codes are exact.  Two different slopes dy / dx and dy' / dx' with
# |dy|, dx, dx' <= N = n - 1 differ by at least 1 / (dx * dx').  Two reals
# that round to one float F differ by at most 2**-b * |F|, about
# 2**-b * |dy| / dx, b = 23 (float32) or 52 (float64), which is less as
# |dy| * dx' <= N**2 < 2**b: 2896**2 < 2**23 and (2**20 - 1)**2 < 2**52.
# The rebuild (_quotient_directions) reads F as P / 2**s, s the tier's scale,
# and is exact because |P / 2**s - dy / dx| * dx * N < 1 / 2:
# - float32, s = 35: a nonzero |F| is above 1 / 2896 > 2**-12, so its ulp is
#   at least 2**-35 and P = F * 2**35 is exact, |P| < 2**47;
#   |F - dy / dx| <= 2**-24 * |dy| / dx, and times dx * N that is below
#   2**-24 * N**2 < 1 / 2;
# - float64, s = 42: P = rint(F * 2**42), so
#   |P / 2**42 - dy / dx| <= 2**-43 + 2**-53 * |dy| / dx, and times dx * N,
#   with dx, |dy| <= N < 2**20, that is at most 2**-3 + 2**-13 < 1 / 2;
#   |P| < 2**20 * 2**42 = 2**62, so P fits int64.
# So dy / dx is within 1 / (2 * dx**2) of P / 2**s and, by Legendre's
# theorem, one of its convergents; every other fraction with denominator
# <= N is at least 1 / (dx * N) from dy / dx, so further from P / 2**s, and
# dy / dx is the last convergent with denominator <= N.  _N_LIMIT also caps
# a set's point count and the rich-key sort's major key.
_N_LIMIT = 1 << 20
_N_LIMIT_FLOAT = 2897
# tier name: (largest modulus, code dtype, scale s), ascending
_TIERS = {
    "float32": (_N_LIMIT_FLOAT, np.float32, 35),
    "float64": (_N_LIMIT, np.float64, 42),
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


def _slope_quotients(dx: np.ndarray, dy: np.ndarray, vertical: bool) -> np.ndarray:
    """The quotients dy / dx per direction, in dx's float dtype, +inf where it is vertical, written over dx.

    dx and dy are differences of float coordinates of the tier's dtype, so
    exact.  An anchor's own column (0 / 0) and a padding column (NaN) give
    NaN, which sorts last and equals nothing.  Only when vertical is true is
    -inf folded into +inf: without it no direction but an anchor's own has
    dx == 0.  Two quotients are equal exactly when the slopes are (above
    _TIERS); a horizontal direction gives +0.0 or -0.0, which compare equal.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        code = np.divide(dy, dx, out=dx)
    if vertical:
        np.copyto(code, np.inf, where=code == -np.inf)
    return code


def _quotient_directions(code: np.ndarray, top: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced direction (dx, dy), dx >= 0, of each quotient F = dy / dx, and (0, 1) for F = inf.

    The directions have |dy|, dx <= top, and scale is their tier's s: the
    int64 P = rint(F * 2**s) has dy / dx as its last convergent with
    denominator <= top (above _TIERS).  The convergents of every F are
    walked at once: one Euclid step on the remainders (r0, r1) per step, the
    numerators and denominators h0, h1 = h1, h0 + a * h1 beside them, and an
    entry ends at its first denominator past top (taking the one before) or
    at a zero remainder.  No convergent of P / 2**s has a denominator above
    2**s or a numerator above |P| < 2**63, so none overflows.
    """
    vertical = np.isinf(code)
    exact = np.rint(np.where(vertical, 0, code).astype(np.float64) * 2.0**scale).astype(np.int64)  # P
    live = np.flatnonzero(~vertical)
    # rows hi and lo: the remainders r0 > r1; rows hi + 2 and lo + 2 their numerators, hi + 4 and
    # lo + 4 their denominators (lo holds the newest convergent); row 6 each entry's place, so a
    # step compacts the live entries with one np.compress, not seven gathers
    state = np.zeros((7, len(live)), dtype=np.int64)
    state[0], state[1], state[3], state[4], state[6] = np.abs(exact[live]), 1 << scale, 1, 1, live
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


def check_census_modulus(n: int) -> None:
    """Refuse moduli past the range where the census slope codes are exact."""
    if n > _N_LIMIT:
        raise ValueError(f"census slope codes are exact only for n <= {_N_LIMIT}, got n = {n}")


def census_tier(n: int) -> str:
    """The slope-code tier, a name in CENSUS_TIERS, of a census stack whose largest modulus is n."""
    check_census_modulus(n)
    return next(name for name, (limit, _, _) in _TIERS.items() if n <= limit)


def _orbit_blocks(
    sets: Sequence[PointSet], xs: np.ndarray, ys: np.ndarray, ns: np.ndarray, ks: np.ndarray, places: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per set, whether it is whole; its points written into places in orbit blocks; one row per block.

    xs and ys stack the S sets as (S, K) arrays, set s in its first ks[s]
    columns, ns holds their moduli, and places, a (2, S, 2K) array, gets set
    s's xs and ys in place order at places[:, s, :ks[s]].  A set is whole
    when it has phi(n) points, all on x*y = a (mod n): each unit of n is then
    the x of one point, and the orbit of (x, y) under sigma, nu and sigma*nu
    is (x, y), (y, x), (n-x, n-y) and (n-y, n-x).  Points ascend in x, so an
    orbit's least index is its point of least x, its leader: x <= y and
    x <= n - y (so 2x <= n).  Each leader's block, after the blocks of the
    leaders before it, holds the leader and then its distinct images in that
    map order: sigma fixes it when x == y (nu then sends it where sigma*nu
    does), sigma*nu when x + y == n (nu then sends it where sigma does), and
    nu never, as 2x == n is no unit for n > 2.  Every point of any other set
    leads a block of one.  Returns whole and, per leader in (set, index)
    order, its set, its block's first place and size, and its x and y.
    """
    K = xs.shape[1]
    real = np.arange(K) < ks[:, None]
    phi = [ps.spec.prime_power.phi if ps.spec.prime_power else euler_phi(ps.spec.n) for ps in sets]
    a = np.array([ps.spec.a for ps in sets], dtype=np.int64)
    whole = (ks == phi) & ((xs * ys % ns[:, None] == a[:, None]) | ~real).all(axis=1)
    leads = np.flatnonzero(real & (~whole[:, None] | (xs <= np.minimum(ys, ns[:, None] - ys))))
    row_set = leads // K
    x, y, n, mapped = xs.reshape(-1)[leads], ys.reshape(-1)[leads], ns[row_set], whole[row_set]
    swapped, opposed = x == y, x + y == n  # sigma, sigma*nu fix the leader
    size = np.where(mapped, 4 >> (swapped + opposed.astype(np.int64)), 1)
    place = np.cumsum(size) - size - (np.cumsum(ks) - ks)[row_set]  # set s's blocks fill its ks[s] places
    at = row_set * 2 * K + place
    px, py = places.reshape(2, -1)
    px[at], py[at] = x, y
    # sigma's image, then nu's, then sigma*nu's, each where it is another point
    images = ((y, x, ~swapped, 1), (n - x, n - y, ~opposed, 2 - swapped), (n - y, n - x, ~(swapped | opposed), 3))
    for ix, iy, kept, after in images:
        kept &= mapped
        to = (at + after)[kept]
        px[to], py[to] = ix[kept], iy[kept]
    return whole, row_set, place, size, x, y


def _row_blocks(widths: list[int]) -> list[tuple[int, int, int]]:
    """Cut rows of descending widths into blocks (lo, hi, width) of consecutive rows.

    A block is as wide as its first row and takes rows while their count
    times that width stays within _ROW_BLOCK, and always at least one row.
    """
    blocks = []
    lo = 0
    while lo < len(widths):
        width = widths[lo]
        hi = min(len(widths), lo + max(1, _ROW_BLOCK // width))
        blocks.append((lo, hi, width))
        lo = hi
    return blocks


def _row_groups(xs, ys, start, mates, work, vertical) -> tuple[np.ndarray, ...]:
    """Sort one block of forward rows and find its runs of two or more points.

    xs and ys are windows over the stack's coordinates in orbit order, as
    floats of the tier's dtype with NaN after each set's points: window j
    starts at flat place j.  Row r holds the places from start[r] on, as
    many as work is wide, and its anchor sits at start[r] - 1; its first
    mates[r] entries are the anchor's mates.  work holds (R, width) arrays dx
    and dy (of the coordinates' dtype) and flags (bool), which every block
    overwrites: the census allocates its row arrays once, not once per
    block.  vertical says whether some set of the stack has two points of one
    x (``_slope_quotients``).  Returns, per run: its row r, the column after
    its last entry, its size, its slope code and whether it holds a mate of
    row r's anchor.
    """
    dx, dy, flags = work
    width = dx.shape[1]
    np.subtract(xs[start, :width], xs[start - 1, :1], out=dx)
    np.subtract(ys[start, :width], ys[start - 1, :1], out=dy)
    # padding gives NaN, which sorts last and equals nothing: a row ends on NaN,
    # so no run crosses from one row into the next
    code = _slope_quotients(dx, dy, vertical)
    m = min(3, width)  # an orbit has at most three mates
    mate = np.where(np.arange(m) < mates[:, None], code[:, :m], np.nan)
    code.sort(axis=1)
    flat = code.ravel()
    same = flags.ravel()  # same[p]: flat entries p and p + 1 share a slope
    np.equal(flat[1:], flat[:-1], out=same[:-1])
    same[-1] = False  # the last entry has no successor
    pos = np.flatnonzero(same)
    # a run of consecutive positions is one run of size >= 2; run g is pos[first[g]:first[g+1]]
    opens = np.ones(len(pos) + 1, dtype=bool)
    opens[1:-1] = pos[1:] != pos[:-1] + 1
    first = np.flatnonzero(opens)
    sizes = first[1:] - first[:-1] + 1
    pos = pos[first[:-1]]
    row = pos // width
    code = flat[pos]
    return row, pos - row * width + sizes, sizes, code, (mate[row] == code[:, None]).any(axis=1)


def _correct_mates(G: np.ndarray, row_set, row_size, s, row, length, mate) -> None:
    """Count each pair of mates once in G[s, j], set s's weighted runs of exactly j forward points.

    row_set and row_size give each row's set and orbit size w; s, row,
    length and mate give each run's set, row and length and whether it holds
    a mate of its row's anchor.  An anchor's row, weighted w, stands for the rows of all
    w points of its orbit, and each of them sees all its mates: a pair of
    mates {P, hP} is seen from both ends, each time in one run of s + 1
    points on their line, s the line's points in later orbits (no third mate
    lies on it).  Forward in place order the first of the two sees s + 1 and
    the second s.  The w * (w - 1) ordered pairs of the orbit are the w - 1
    mates of the anchor's row at weight w, so per mate of that row one run
    of s + 1 goes to s at weight w // 2: G[s + 1] -= w // 2 and
    G[s] += w // 2, where s + 1 is the length of the run that holds the mate,
    or 1 for a mate in no run (G[0] counts nothing).
    """
    K1 = G.shape[1]
    half = row_size // 2
    mated = np.flatnonzero(mate)
    lone = row_size - 1 - np.bincount(row[mated], minlength=len(row_size))
    at = np.concatenate([row_set * K1 + 1, s[mated] * K1 + length[mated]])
    count = np.concatenate([half * lone, half[row[mated]]])
    flat = G.reshape(-1)
    np.subtract.at(flat, at, count)
    np.add.at(flat, at - 1, count)


def census(ps: PointSet) -> IncidenceCensus:
    """Full incidence census of a point set (at least two distinct points).

    The stack of one of ``census_many``, which runs the method below on a
    stack of sets of any moduli and sizes, each set on its own terms.
    Orbits: sigma (x, y) -> (y, x), nu (x, y) -> (n-x, n-y) and sigma*nu
    carry a whole set (phi(n) points, all on x*y = a mod n) onto itself, as
    (n-x)(n-y) = xy mod n, and lines to lines of the same size.
    ``_orbit_blocks`` writes each orbit of a whole set to a block of
    consecutive places, its least index first, from its coordinates.  A
    subset or a class may keep fewer maps or none; the census does not look
    for them, and each of its points is a block of one.
    Rows: the first point i of each block is an anchor, weighted by its
    block's size w = 4 // (1 + the maps that fix it), and its forward row
    holds the places after it in its set: its w - 1 mates, then every later
    block.  Each point j of the row is coded by the direction
    (dx, dy) = j - i, a direction and its negation alike.  The stack's
    largest modulus picks the tier (``census_tier``), float32 up to 2897 and
    float64 up to 2**20, and the code is the quotient c = dy / dx of the
    tier's float coordinates, exact (above _TIERS), +inf when vertical
    (looked for only in a stack where some set repeats an x), written over
    the block's dx array; the NaN after each set's points gives NaN, which
    sorts last and equals nothing.  The rows go widest first, so a block pads
    them little, and every row keeps one NaN column past its points, so no
    run crosses into the next row.  One ``np.sort`` per block of rows, at
    most _ROW_BLOCK entries of the block's first and widest row each; a
    block may span sets and reuses one set of row arrays.  Each run of
    equal c is the part of one line through i that lies ahead of i.
    Counts: if every point swept the places after it, a t-point line would
    give one run of exactly j points for each j < t, so G_j, the count of
    runs of exactly j points, would count the lines of more than j points,
    and L_t = G_(t-1) - G_t.  G[s, j], on an (S, K + 1) grid, is set s's
    w-weighted count: one flat-index ``np.add.at`` over every run after the
    sweep, G_1 the row entries that are in no run of two or more, and then
    ``_correct_mates`` counts each pair of mates once.  Set s's L_t are row
    s of an (S, K + 1) grid, zero past its k, checked and summarised as
    ``census_many`` describes.
    Keys: a run of j >= 2 points lies on a line of t >= j + 1 points, keyed
    (set, A, B, C, j + 1) from the anchor and the run's code:
    ``_quotient_directions`` rebuilds every run's reduced direction (dx, dy)
    (a direction with gcd(dx, dy) != 1, or one whose dy / dx in the tier's
    dtype is not its code, raises ``RuntimeError``), and A = dy, B = -dx,
    C = -(A*x + B*y).  The keys and, for a whole set, their images under its
    three maps, N columns of one (5, N) int64 array, are ordered by the
    major key (set * span + A) * 2 * span + B, span the stack's largest n,
    and then by C (an ``np.argsort`` by C, then a stable one by major key
    over the columns in that order) and gathered once; each line keeps its
    largest t.  That is its size: the first point of a line in place order
    sees all its other points, and the map that takes it to its block's
    anchor takes the line to one whose points the anchor's row all holds.
    """
    return census_many([ps])[0]


def census_many(sets: Sequence[PointSet]) -> list[IncidenceCensus]:
    """The census of each of a stack of point sets, in one sweep (method: ``census``).

    The sets may differ in modulus and size.  An empty stack or one of 2**22
    sets or more, a set of fewer than two points or of more than 2**20, or a
    modulus above 2**20 raise before any work.  Only the numpy calls are
    shared: every set keeps its own orbits, weights, counts and keys, and
    ``_orbit_blocks`` writes every block straight into the float copy the
    rows read, by arithmetic on the coordinates, with no sort.  The checks
    hold for every set: that no run crosses the end of its row, that every
    rebuilt direction is reduced and divides to its code, and then, in
    ``_line_summaries``, reductions along the rows of the stack's count
    grids, one row per set: that no L_t is negative, that the set's lines
    hold each of its point pairs once and that it has L_t keys of each size
    t >= 3.  A failure raises ``RuntimeError`` naming the set's place in the
    stack.
    """
    if not sets:
        raise ValueError("census_many needs at least one point set")
    if 2 * len(sets) * _N_LIMIT**2 >= 1 << 63:
        raise ValueError(f"census stacks hold fewer than {(1 << 62) // _N_LIMIT**2} sets, got {len(sets)}")
    moduli = [ps.spec.n for ps in sets]
    sizes = [len(ps) for ps in sets]
    if min(sizes) < 2:
        raise TooFewPoints(f"{min(sizes)} point(s) span no lines")
    limit, dtype, scale = _TIERS[census_tier(max(moduli))]
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
    # a set's points ascend in (x, y), so it has a vertical pair iff two neighbours share an x
    vertical = bool(((xs[:, 1:] == xs[:, :-1]) & (np.arange(1, K) < ks[:, None])).any())
    # the coordinates in orbit order as floats of the tier, each set on 2K places with NaN after
    # its points: a row reads at most K - 1 places past its anchor, so it never leaves its set
    places = np.full((2, S, 2 * K), np.nan, dtype=dtype)
    whole, *leaders = _orbit_blocks(sets, xs, ys, ns, ks, places)  # one row per orbit, anchored at its leader
    windows = [sliding_window_view(v.reshape(-1), K) for v in places]
    entries = ks[leaders[0]] - 1 - leaders[1]  # the row's forward places
    widest = np.argsort(-entries, kind="stable")  # widest first, so a block pads its rows little
    row_set, row_place, row_size, row_x, row_y, entries = (v[widest] for v in (*leaders, entries))
    start = row_set * 2 * K + row_place + 1
    # each row's width has one NaN column past its entries
    blocks = _row_blocks((entries + 1).tolist())
    most = max((hi - lo) * width for lo, hi, width in blocks)
    # one array each, not one (2, entries) array: glibc raises its mmap
    # threshold to the size of each mapping freed, and a 3 MB one moves every
    # later allocation below 3 MB onto the heap (the line sweeps then read up
    # to 4 MB more peak RSS).  They live until the census returns: freed
    # before the keys are built, they left the line-sweep benchmark at about
    # 3.7 MB more peak RSS in roughly half the directories it ran from.
    floats = [np.empty(most, dtype=dtype) for _ in range(2)]
    flags = np.empty(most, dtype=bool)
    runs = []  # per block: each run's row, end column, length, slope code and mate flag
    for lo, hi, width in blocks:
        work = [a[: (hi - lo) * width].reshape(hi - lo, width) for a in (*floats, flags)]
        run = _row_groups(*windows, start[lo:hi], row_size[lo:hi] - 1, work, vertical)
        runs.append((run[0] + lo, *run[1:]))
    row, end, length, code, mate = (np.concatenate(part) for part in zip(*runs))
    s = row_set[row]
    crossed = end > entries[row]
    if crossed.any():
        raise RuntimeError(f"census run crosses the end of its row in set {s[np.argmax(crossed)]} of the stack")
    # G[s, j]: set s's runs of exactly j forward points, weighted by orbit size; G_1 starts at every
    # forward entry, and each run of j >= 2 takes its j entries back out
    G = np.zeros((S, K + 1), dtype=np.int64)
    np.add.at(G[:, 1], row_set, entries * row_size)
    np.add.at(G.reshape(-1), s * (K + 1) + length, row_size[row])  # a flat index: a tuple one costs about 4x
    G[:, 1] -= G[:, 2:] @ np.arange(2, K + 1)
    _correct_mates(G, row_set, row_size, s, row, length, mate)
    line_sizes = np.zeros((S, K + 1), dtype=np.int64)  # line_sizes[s, t]: L_t of set s, 0 past its k
    line_sizes[:, 2:] = G[:, 1:-1] - G[:, 2:]  # L_t = G_(t-1) - G_t
    # each run of j >= 2 is a line of t >= j + 1 points; its key (set, A, B, C, t) is a column of rows, then,
    # for a whole set, its images under sigma, nu and sigma*nu, linear in (A, B, C): sigma swaps A and B,
    # nu sends C to -C - n(A + B)
    rich = np.flatnonzero(length >= 2)
    s, row, length, code = s[rich], row[rich], length[rich], code[rich]
    mapped = whole[s]
    bounds = len(s) + np.count_nonzero(mapped) * np.arange(4)
    N = int(bounds[-1])
    rows = np.empty((5, N), dtype=np.int64)
    keys = rows[:, : len(s)]
    dx, dy = _quotient_directions(code, limit - 1, scale)
    with np.errstate(divide="ignore"):  # a vertical (0, 1) divides to inf
        divided = dy.astype(dtype) / dx.astype(dtype)
    checks = ((np.gcd(dx, dy) != 1, "is not reduced"), (divided != code, "does not divide to its code"))
    for wrong, what in checks:
        if wrong.any():
            raise RuntimeError(f"census rebuilt a direction that {what} in set {s[np.argmax(wrong)]} of the stack")
    keys[0], keys[1], keys[2], keys[4] = s, dy, -dx, length + 1
    keys[3] = -(keys[1] * row_x[row] + keys[2] * row_y[row])
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
    del keys, image, A, B, C, major, dx, dy, code, divided, checks, wrong, by_c  # released before the gather
    rows = np.take(rows, order, axis=1)  # faster than rows[:, order]
    major, C = rows[0], rows[3]
    # a line's first point in orbit order sees all its other points: each line keeps its largest t
    line = np.ones(N, dtype=bool)
    line[1:] = (major[1:] != major[:-1]) | (C[1:] != C[:-1])
    line = np.flatnonzero(line)
    t = np.maximum.reduceat(rows[4], line)
    rows = rows[:, line]
    rows[4] = t
    cut = np.searchsorted(rows[0], np.arange(S + 1) * 2 * span * span - span)
    kept = np.bincount(np.repeat(np.arange(S), np.diff(cut)) * (K + 1) + t, minlength=S * (K + 1))
    kept = kept.reshape(S, K + 1)  # kept[s, t]: set s's keys of lines of t points
    summaries = _line_summaries(line_sizes, ks, kept)
    cut = cut.tolist()
    return [
        IncidenceCensus(n, ps.spec.a, k, *summary, counts[: k + 1], rows[1:4, lo:hi].T, rows[4, lo:hi])
        for ps, n, k, summary, counts, lo, hi in zip(sets, moduli, sizes, summaries, line_sizes, cut, cut[1:])
    ]


def _line_summaries(line_sizes: np.ndarray, ks: np.ndarray, kept: np.ndarray) -> list[tuple]:
    """Check the stacked line counts of every set and give each its (ordinary count, longest line, line total).

    line_sizes is an (S, K + 1) array: row s holds L_0 .. L_K of set s of
    k = ks[s] <= K points, L_t = 0 for t > k, and kept[s, t] is the number
    of rich-line keys of size t of set s.  Every check is one reduction along
    axis 1, the padding columns t > k included, and the first set that fails
    one raises ``RuntimeError``: no L_t may be negative, the sum of
    L_t * C(t, 2) must be C(k, 2) (every point pair lies on exactly one
    line), and kept[s, t] must be L_t for every t >= 3.
    """
    t = np.arange(line_sizes.shape[1])  # the line size each column counts
    checks = (
        ((line_sizes < 0).any(axis=1), "census line count L_t is negative"),
        (line_sizes @ (t * (t - 1) // 2) != ks * (ks - 1) // 2, "census pair-count identity violated"),
        ((line_sizes[:, 3:] != kept[:, 3:]).any(axis=1), "rich-line keys disagree with the line counts"),
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

    Such a line runs through the origin, and its points share one direction
    (x/g, y/g), g = gcd(x, y): one ``np.unique`` of (x/g) * n + y/g groups them.
    """
    g = np.gcd(ps.xs, ps.ys)
    dirs, counts = np.unique(ps.xs // g * ps.spec.n + ps.ys // g, return_counts=True)
    keep = counts >= 2
    rows = zip(np.stack(np.divmod(dirs[keep], ps.spec.n), axis=1).tolist(), counts[keep].tolist())
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


def _rich_line_classes(ps: PointSet, cen: IncidenceCensus, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(line, class, count) for each x mod p class that holds points of a rich line of cen, line indexing its keys.

    With x*y = a (mod p), which ``OutOfScope`` guards, x times A*x + B*y + C
    is A*x**2 + C*x + a*B, so a line's points lie in the classes of its roots
    mod p: (-C +- s) * (2A)**-1, s**2 = C*C - 4aAB, or -aB * C**-1 when p | A
    (class 0, empty as a is a unit, stands for none).  Each (direction,
    class) is a row of A*x + B*y over that class's points, padded with a
    value no line takes; a block of rows, D * width <= _ROW_BLOCK, is sorted
    along its rows and row r offset by r * span, so it ascends as one array
    and one ``np.searchsorted`` pair counts every line's points in each of
    its classes.  A line whose counts do not add up to the census's raises.
    """
    n, a = ps.spec.n, ps.spec.a
    residue = ps.xs % p
    if ((residue * ps.ys - a) % p).any():
        raise OutOfScope(f"line-class checks need every point on x*y = {a} (mod {p})")
    keys, t = cen._rich_keys, cen._rich_t
    A, B, C = keys.T
    Ap, Bp, Cp = keys.T % p
    inverse = np.array([0, *(pow(i, -1, p) for i in range(1, p))])
    root = np.full(p, -1)
    root[np.arange(p) ** 2 % p] = np.arange(p)
    s = root[(Cp * Cp - 4 * a * Ap * Bp) % p]
    roots = (np.stack([s, -s], axis=1) - Cp[:, None]) * inverse[2 * Ap % p, None] % p
    roots[s < 0] = 0
    roots[Ap == 0] = (-a * Bp * inverse[Cp] % p)[Ap == 0, None]  # 0 when p | C too
    roots[roots[:, 0] == roots[:, 1], 1] = 0  # a double root once
    line, cls = np.flatnonzero(roots) // 2, roots[roots > 0]
    # the (line, class) pairs of each (direction, class) row together, |A|, |B| < n; row r's start at first[r]
    pair = (A[line] * 2 * n + B[line]) * p + cls
    order = np.argsort(pair)
    line, cls = line[order], cls[order]
    opens = np.diff(pair[order], prepend=-1) != 0  # pair >= 0: A >= 0, and B > 0 where A = 0
    first, row = np.flatnonzero(opens), np.cumsum(opens) - 1
    row_a, row_b, row_class = A[line[first]], B[line[first]], cls[first]
    first = np.append(first, len(line))
    # each class's points, padded to the largest class by repeats that pad marks
    sizes = np.bincount(residue, minlength=p)
    width = int(sizes.max())
    pad = np.arange(width) >= sizes[:, None]
    start = np.cumsum(sizes) - sizes
    member = np.argsort(residue, kind="stable")[np.minimum(start[:, None] + np.arange(width), len(ps) - 1)]
    cx, cy = ps.xs[member], ps.ys[member]
    # |A*x + B*y| and |C| are below 2 * n**2, where the padding goes, so rows span = 4 * n**2 apart never
    # meet; a block of D <= _ROW_BLOCK rows stays below D * span <= 2**58 for n <= 2**20
    span = 4 * n * n
    per_block = max(1, _ROW_BLOCK // width)
    q = row % per_block * span - C[line]  # each pair's value in its block
    count = np.empty(len(line), dtype=np.int64)
    for lo in range(0, len(row_class), per_block):
        hi = min(lo + per_block, len(row_class))
        c = row_class[lo:hi]
        values = row_a[lo:hi, None] * cx[c] + row_b[lo:hi, None] * cy[c]
        np.putmask(values, pad[c], span // 2)
        values.sort(axis=1)
        values += np.arange(hi - lo)[:, None] * span
        at = slice(first[lo], first[hi])
        count[at] = np.searchsorted(values.ravel(), q[at], "right") - np.searchsorted(values.ravel(), q[at])
    wrong = np.flatnonzero(np.bincount(line, count, minlength=len(t)) != t)
    if len(wrong):
        raise RuntimeError(f"census count mismatch on {LineKey(*keys[wrong[0]].tolist())}")
    kept = count > 0
    return line[kept], cls[kept], count[kept]


def verify_line_classes(ps: PointSet, cen: IncidenceCensus) -> LineClassReport:
    """Structural checks on every line with >= 3 points of an odd prime-power set, cen its census.

    Each such line must stay inside a single x mod p class, have C and A*B
    coprime to p and satisfy C*C - 4aAB = 0 (mod p), so its class is the
    double root -C * (2A)**-1 of A*x**2 + C*x + a*B; every line with C = 0
    must be y = x with exactly two points.  The census's count of every rich
    line is recounted in its root classes (``_rich_line_classes``).
    """
    pp = ps.spec.prime_power
    if pp is None or pp.p == 2 or pp.m < 2:
        raise OutOfScope("line-class checks need an odd prime power with m >= 2")
    p = pp.p
    keys = cen._rich_keys
    line, cls, _ = _rich_line_classes(ps, cen, p)
    Ap, Bp, Cp = keys.T % p
    split = np.bincount(line, minlength=len(keys)) > 1
    c_zero = Cp == 0
    ab_zero = Ap * Bp % p == 0
    disc = (Cp * Cp - 4 * ps.spec.a * Ap * Bp) % p != 0
    violations: list[str] = []
    for r in np.flatnonzero(split | c_zero | ab_zero | disc).tolist():
        key = tuple(keys[r].tolist())
        if split[r]:
            violations.append(f"line {key} meets classes {sorted(cls[line == r].tolist())}")
            continue
        if c_zero[r]:
            violations.append(f"line {key}: p divides C")
        if ab_zero[r]:
            violations.append(f"line {key}: p divides A*B")
        elif disc[r]:
            violations.append(f"line {key}: discriminant not 0 mod p")
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
        line, i, t = _rich_line_classes(ps, cen, p)
        lines = k * (k - 1) // 2
        np.subtract.at(lines, i, np.maximum(t * (t - 1) // 2 - 1, 0))  # a line with one point of i takes none
        whole = (t == k[i]) & (k[i] >= 3)
        for c, r in sorted(zip(i[whole].tolist(), line[whole].tolist())):
            violations.append(f"class {c} is entirely collinear on {tuple(cen._rich_keys[r].tolist())}")
        class_lines = dict(enumerate(lines[1:].tolist(), start=1))
    # classes above this size threshold must span quadratically many lines
    many_lines = pp.p ** ((pp.m + 1) // 2 - 1) > 200
    return CollinearityReport(ps.spec.n, ps.spec.a, cen.max_collinear, limit, class_lines, violations, many_lines)
