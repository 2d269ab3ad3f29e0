"""Census tests: the orbit-anchor census is checked against an independent
cross-product oracle that finds every maximal collinear subset directly."""
import copy
import hashlib
import itertools
import json
import math
import random
from collections.abc import Sequence
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhyp import geometry
from modhyp.geometry import (
    _MAPS,
    _N_LIMIT,
    _N_LIMIT_32,
    _N_LIMIT_FLOAT,
    _SLOPE_PRIME,
    _SLOPE_PRIME_32,
    DegeneratePair,
    LineKey,
    OutOfScope,
    TooFewPoints,
    census,
    census_many,
    check_special_line,
    count_on_line,
    line_through,
    ordinary_lower_bound,
    verify_collinearity_bounds,
    verify_line_classes,
    verify_ordinary_bound,
    zero_intercept_lines,
    _directions,
    _slope_codes,
    _orbits,
    _quotient_directions,
    _slope_inverses,
    _slope_quotients,
)
from modhyp.hyperbola import (
    HyperbolaSpec,
    PointSet,
    enumerate_points,
    partition_classes,
)
from modhyp.ntcore import PrimePower, euler_phi, is_prime


def _point_set(spec, points):
    """A hand-built point set: the given (x, y) pairs in ascending order as arrays."""
    pts = sorted(points)
    xs = np.array([x for x, _ in pts], dtype=np.int64)
    ys = np.array([y for _, y in pts], dtype=np.int64)
    return PointSet(spec, xs, ys)


def test_line_through_examples():
    assert line_through((1, 1), (3, 3)) == LineKey(1, -1, 0)
    assert line_through((1, 1), (2, 3)) == LineKey(2, -1, -1)
    with pytest.raises(DegeneratePair):
        line_through((1, 1), (1, 1))


def test_line_key_canonical_on_collinear_triples():
    rng = random.Random(6)
    for _ in range(300):
        p = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        step = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        if step == (0, 0):
            continue
        q = (p[0] + step[0], p[1] + step[1])
        r = (p[0] + 3 * step[0], p[1] + 3 * step[1])
        key = line_through(p, q)
        assert key == line_through(q, p) == line_through(p, r) == line_through(q, r)
        g = math.gcd(math.gcd(key.A, key.B), key.C)
        assert g == 1
        assert key.A > 0 or (key.A == 0 and key.B > 0)
        for pt in (p, q, r):
            assert key.A * pt[0] + key.B * pt[1] + key.C == 0


def _census_oracle(points):
    """First-principles census: maximal collinear subsets via cross products.

    Returns the histogram and the point count of every line with >= 3 points.
    """
    lines = set()
    for P, Q in itertools.combinations(points, 2):
        members = tuple(
            R
            for R in points
            if (Q[0] - P[0]) * (R[1] - P[1]) - (Q[1] - P[1]) * (R[0] - P[0]) == 0
        )
        lines.add(members)
    hist = {}
    for mem in lines:
        hist[len(mem)] = hist.get(len(mem), 0) + 1
    rich = {line_through(m[0], m[1]): len(m) for m in lines if len(m) >= 3}
    return hist, rich


def _assert_matches_oracle(ps):
    cen = census(ps)
    hist, rich = _census_oracle(ps.points)
    assert cen.histogram == hist
    assert cen.ordinary_count == hist.get(2, 0)
    assert list(cen.lines()) == sorted(rich.items())  # ascending (A, B, C)


@pytest.mark.parametrize("a,n", [(1, 5), (1, 8), (1, 9), (1, 24), (1, 27), (2, 25), (3, 49), (1, 60)])
def test_census_paths_agree_with_oracle(a, n):
    _assert_matches_oracle(enumerate_points(HyperbolaSpec(a, n)))


# subgroups of <sigma, nu> as generators (swap, reflect): sigma swaps x and y,
# nu sends (x, y) to (n - x, n - y)
_SUBGROUPS = {
    "id": (),
    "sigma": ((True, False),),
    "nu": ((False, True),),
    "sigma*nu": ((True, True),),
    "full": ((True, False), (False, True)),
}


def _close(points, n, generators):
    """The closure of a point set under the maps named by generators."""
    out = set(points)
    while True:
        grown = set(out)
        for swap, reflect in generators:
            for x, y in out:
                u, v = (y, x) if swap else (x, y)
                grown.add((n - u, n - v) if reflect else (u, v))
        if grown == out:
            return out
        out = grown


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_census_matches_oracle_property(data):
    # random (a, n) with n <= 40, on the whole set or on a subset of two or more
    # points closed under a drawn subgroup, so every orbit weight (1, 2, 4) and
    # every key closure path meets the oracle
    n = data.draw(st.integers(3, 40), label="n")
    a = data.draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]), label="a")
    full = ps = enumerate_points(HyperbolaSpec(a, n))
    if data.draw(st.booleans(), label="subset"):
        sub = data.draw(st.lists(st.sampled_from(ps.points), min_size=2, unique=True), label="points")
        generators = _SUBGROUPS[data.draw(st.sampled_from(sorted(_SUBGROUPS)), label="subgroup")]
        ps = _point_set(ps.spec, _close(sub, n, generators))
    whole, _, _ = _stacked_orbits([ps])
    assert whole.tolist() == [ps.points == full.points]  # whole exactly when the subset is the whole set
    _assert_matches_oracle(ps)


def test_census_hand_built_grid_in_any_order():
    # hyperbola sets have no horizontal or vertical pairs; a shuffled grid
    # has both, and rich lines whose key starts with A = 0
    grid = [(x, y) for x in range(1, 5) for y in range(1, 5)]
    random.Random(3).shuffle(grid)
    spec = HyperbolaSpec(1, 5)
    xs, ys = np.array(grid, dtype=np.int64).T
    with pytest.raises(ValueError, match="ascending"):  # the census never sees unordered points
        PointSet(spec, xs, ys)
    _assert_matches_oracle(_point_set(spec, grid))


# odd prime powers p**m, m >= 2, whose x mod p classes the oracle checks quickly
_CLASS_MODULI = (9, 25, 27, 49, 81, 121, 125)


def _stacked_orbits(sets):
    """``_orbits`` of the sets padded into one stack: (whole, images, K)."""
    K = max(len(ps) for ps in sets)
    xs = np.zeros((len(sets), K), dtype=np.int64)
    ys = np.zeros((len(sets), K), dtype=np.int64)
    for s, ps in enumerate(sets):
        xs[s, : len(ps)], ys[s, : len(ps)] = ps.xs, ps.ys
    whole, images = _orbits(sets, xs, ys, np.array([ps.spec.n for ps in sets]), np.array([len(ps) for ps in sets]))
    return whole, images, K


def _drawn_stack_part(data, i):
    """One part of a drawn census stack: the sets of several a of one n, closed
    subsets of one set, or some of the x mod p classes of one p**m (never
    whole, so swept at every point)."""
    kind = data.draw(st.sampled_from(["whole", "subsets", "classes"]), label=f"kind {i}")
    if kind == "classes":
        n = data.draw(st.sampled_from(_CLASS_MODULI), label=f"n {i}")
        a = data.draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]), label=f"a {i}")
        classes = partition_classes(enumerate_points(HyperbolaSpec(a, n)))
        keep = data.draw(st.lists(st.sampled_from(sorted(classes)), min_size=1, unique=True), label=f"classes {i}")
        return [classes[c] for c in keep]
    n = data.draw(st.integers(3, 40), label=f"n {i}")
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    if len(units) < 2:
        return []
    a_values = data.draw(st.lists(st.sampled_from(units), min_size=1, unique=True), label=f"a {i}")
    sets = [enumerate_points(HyperbolaSpec(a, n)) for a in a_values]
    if kind == "whole":
        return sets
    out = []
    for ps in sets:
        sub = data.draw(st.lists(st.sampled_from(ps.points), min_size=2, unique=True), label=f"points {i}")
        generators = _SUBGROUPS[data.draw(st.sampled_from(sorted(_SUBGROUPS)), label=f"subgroup {i}")]
        out.append(_point_set(ps.spec, _close(sub, n, generators)))
    return out


def _drawn_grid(data, i):
    """Points of a shuffled grid mod n, so with repeated x, closed under a drawn subgroup."""
    n = data.draw(st.integers(3, 9), label=f"grid n {i}")
    grid = [(x, y) for x in range(1, n) for y in range(1, n)]
    random.Random(data.draw(st.integers(0, 99), label=f"shuffle {i}")).shuffle(grid)
    sub = data.draw(st.lists(st.sampled_from(grid), min_size=1, unique=True), label=f"grid points {i}")
    generators = _SUBGROUPS[data.draw(st.sampled_from(sorted(_SUBGROUPS)), label=f"grid subgroup {i}")]
    return _point_set(HyperbolaSpec(1, n), _close(sub, n, generators))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_census_many_matches_census_and_oracle_property(data):
    # a stack of parts of several moduli and sizes: the sets of several a of
    # one n (every orbit weight), closed subsets of such sets and x mod p
    # classes of one p**m, which are not whole and are swept at every point, or a shuffled
    # grid, whose repeated x and y give vertical and horizontal pairs and keys
    # with A = 0, so a stack with a grid takes the vertical pass and one
    # without skips it; a small row block makes blocks that cut through one
    # set's rows and span sets of different widths
    parts = data.draw(st.integers(1, 3), label="parts")
    sets = []
    for i in range(parts):
        if data.draw(st.booleans(), label=f"grid {i}"):
            grid = _drawn_grid(data, i)
            sets += [grid] if len(grid) >= 2 else []
        else:
            sets += _drawn_stack_part(data, i)
    if not sets:
        return
    row_block = data.draw(st.sampled_from([geometry._ROW_BLOCK, 5, 64]), label="row block")
    with mock.patch.object(geometry, "_ROW_BLOCK", row_block):
        batch = census_many(sets)
    assert len(batch) == len(sets)
    for ps, cen in zip(sets, batch):
        alone = census(ps)
        hist, rich = _census_oracle(ps.points)
        assert (cen.n, cen.a, cen.point_count) == (alone.n, alone.a, alone.point_count) == (ps.spec.n, ps.spec.a, len(ps))
        assert cen.histogram == alone.histogram == hist
        assert list(cen.lines()) == list(alone.lines()) == sorted(rich.items())


def test_row_blocks_bound_the_widest_row():
    # set-major rows of sets of different widths: consecutive blocks cover
    # every row, each as wide as its widest row, and rows x width stays within
    # the row block unless the block is one row
    rng = random.Random(17)
    for row_block in (1, 5, 64, 1000):
        for _ in range(50):
            S = rng.randrange(1, 8)
            ks = np.array([rng.randrange(2, 300) for _ in range(S)])
            rows_per_set = np.array([rng.randrange(1, 40) for _ in range(S)])
            with mock.patch.object(geometry, "_ROW_BLOCK", row_block):
                blocks = geometry._row_blocks(rows_per_set, ks)
            row_k = np.repeat(ks, rows_per_set)
            assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
            assert blocks[-1][1] == len(row_k)
            for lo, hi, width in blocks:
                assert hi > lo and width == row_k[lo:hi].max()
                assert (hi - lo) * width <= row_block or hi - lo == 1
                # a block closes only when the next row would break the bound
                if hi < len(row_k):
                    assert (hi - lo + 1) * max(width, row_k[hi]) > row_block


def test_census_many_class_stack_keeps_maps_per_set():
    # mod 25 with a = 1, class i is kept by sigma when i*i = 1 (mod 5) and by
    # sigma*nu when i*i = -1, and the 8 points of an a = 1 subset mod 13 by
    # nu; none of them is whole, so each maps to itself and is swept at every
    # point.  The whole sets of both moduli, stacked among them, get all three
    # maps, and the classes are padded to the widest set
    classes = partition_classes(enumerate_points(HyperbolaSpec(1, 25)))
    nu_only = _point_set(HyperbolaSpec(1, 13), [(1, 1), (12, 12), (2, 7), (11, 6), (3, 9), (10, 4), (5, 8), (8, 5)])
    sets = [nu_only, enumerate_points(HyperbolaSpec(1, 13)), *classes.values(), enumerate_points(HyperbolaSpec(1, 25))]
    whole, images, K = _stacked_orbits(sets)
    assert whole.tolist() == [False, True, False, False, False, False, True]
    assert (images[:, ~whole] == np.arange(K)).all()
    for s in np.flatnonzero(whole).tolist():
        k = len(sets[s])
        assert [image for _, image in _symmetry_oracle(sets[s])] == images[:, s, :k].tolist()
        assert (images[:, s, k:] == np.arange(k, K)).all()  # padding maps to itself
    for ps, cen in zip(sets, census_many(sets)):
        hist, rich = _census_oracle(ps.points)
        assert cen.histogram == hist and list(cen.lines()) == sorted(rich.items())


def _off_curve(ps, i, y):
    """ps with the y of its point i replaced, so that point leaves the curve."""
    points = list(ps.points)
    points[i] = (points[i][0], y)
    return _point_set(ps.spec, points)


def test_census_sets_that_are_not_whole_match_the_oracle():
    # a set is whole only with phi(n) points all on its own curve: phi(n)
    # points with one of them moved off it; the phi(n) points of a = 2 taken
    # as a set of a = 1, which sigma and nu keep; a subset that sigma and nu
    # keep; and a stack mixing whole and other sets of one n, in any order
    h13, h49 = enumerate_points(HyperbolaSpec(1, 13)), enumerate_points(HyperbolaSpec(1, 49))
    h3_49 = enumerate_points(HyperbolaSpec(3, 49))
    other_curve = _point_set(HyperbolaSpec(1, 13), enumerate_points(HyperbolaSpec(2, 13)).points)
    closed = _point_set(h49.spec, _close(h49.points[:3], 49, _SUBGROUPS["full"]))
    moved = _off_curve(h13, 3, 1)
    assert len(moved) == len(other_curve) == euler_phi(13) and len(closed) < euler_phi(49)
    assert _close(other_curve.points, 13, _SUBGROUPS["full"]) == set(other_curve.points)
    mixed = [h49, partition_classes(h49)[2], h3_49, closed, _off_curve(h49, 0, 2), _point_set(h3_49.spec, h3_49.points[5:])]
    for stack in ([moved], [other_curve], [closed], mixed, mixed[::-1], [moved, h13, other_curve]):
        whole, _, _ = _stacked_orbits(stack)
        assert whole.tolist() == [ps in (h13, h49, h3_49) for ps in stack]
        for ps, cen in zip(stack, census_many(stack)):
            hist, rich = _census_oracle(ps.points)
            assert cen.histogram == hist and list(cen.lines()) == sorted(rich.items()), (ps.spec, len(ps))


def test_whole_set_orbits_over_their_anchors_cover_every_point():
    # the anchors of a whole set (each the least index of its orbit under
    # sigma, nu and sigma*nu) have orbits of 1, 2 or 4 points that partition
    # the set, so their sizes sum to k
    sets = [enumerate_points(HyperbolaSpec(a, n)) for n in range(3, 61) for a in range(1, n) if math.gcd(a, n) == 1]
    whole, images, K = _stacked_orbits(sets)
    assert whole.all()
    for s, ps in enumerate(sets):
        k = len(ps)
        orbits = [{i, *images[:, s, i].tolist()} for i in range(k)]
        anchors = [i for i in range(k) if min(orbits[i]) == i]
        assert {len(orbits[i]) for i in anchors} <= {1, 2, 4}
        assert sum(len(orbits[i]) for i in anchors) == k, ps.spec
        assert set().union(*(orbits[i] for i in anchors)) == set(range(k))


def test_census_many_refuses_bad_stacks_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the stack was not checked first")

    h5, h7 = enumerate_points(HyperbolaSpec(1, 5)), enumerate_points(HyperbolaSpec(1, 7))
    # mixed moduli and mixed sizes census like their sets alone
    for stack in ([h5, _point_set(HyperbolaSpec(1, 6), h5.points)], [h7, _point_set(h7.spec, h7.points[:5])]):
        for ps, cen in zip(stack, census_many(stack)):
            alone = census(ps)
            assert (cen.n, cen.point_count, cen.histogram) == (alone.n, alone.point_count, alone.histogram)
            assert list(cen.lines()) == list(alone.lines())
    monkeypatch.setattr(geometry, "_orbits", no_work)
    monkeypatch.setattr(geometry, "_slope_inverses", no_work)
    with pytest.raises(ValueError, match="at least one point set"):
        census_many([])
    with pytest.raises(TooFewPoints):
        census_many([enumerate_points(HyperbolaSpec(1, 2))] * 2)
    with pytest.raises(TooFewPoints):
        census_many([h7, _point_set(h7.spec, h7.points[:1])])
    with pytest.raises(TooFewPoints):
        census(_point_set(h7.spec, h7.points[:1]))
    n = _N_LIMIT
    with pytest.raises(ValueError, match="n <= 1048576"):
        census_many([h5, _point_set(HyperbolaSpec(1, n + 1), ((1, 1), (n, n)))])
    xs = np.repeat(np.arange(1, 3, dtype=np.int64), 2**19 + 1)
    ys = np.tile(np.arange(1, 2**19 + 2, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="1048578 points"):
        census_many([h5, PointSet(HyperbolaSpec(1, n), xs, ys)])


def _census_digest(cen):
    """SHA-256 of a census's histogram, rich-line keys and rich-line sizes, whatever the keys' memory layout."""
    h = hashlib.sha256(json.dumps(cen.histogram).encode())
    h.update(np.ascontiguousarray(cen._rich_keys, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(cen._rich_t, dtype=np.int64).tobytes())
    return h.hexdigest()


# the four seeded census-large sets of the benchmark, too large for the oracle
_LARGE_CENSUS_DIGESTS = {
    (551, 2197): "42cd86d1af6c87ddebbc3965a826929f8f478e56adaf09c6d2f1d4efa8885a3f",
    (2332, 2401): "fb7f3d3ba2807616a60cd82f6cf281df69e299c058b880a4dfb4e32d0c89a152",
    (259, 3001): "757f9666694c40c03e6c4f7f39c9224f55724a24f77d01f93d56c559cd5f7f98",
    (483, 3125): "65055d4d02bd7f2b0b84f22e6c550681ad3e6cc04f0f7191e06318aafe6f4486",
}
# a stack of mixed moduli and sizes: a = 2 mod 5**4, H_{1,11**3} and its x mod 11
# class 5, H_{1,2**10} and a = 3 mod 7**3
_STACK_CENSUS_DIGESTS = [
    "bef1bb30d038e578123db7137771a26bdaef5d86315947cb054b4c8c9e03bf93",
    "4322d5c866cddee8cbfe4e3e7e3cad6a7f584d70aab57ae31acc4562d7e8d018",
    "12a995891acabaf25e29a7461e8207730f5a0b08c2ed0fa1544ac3f84d8aee22",
    "4ee12e3df4065d56f0e458f197a9d32e5a8a8e28ae34b8b1e65723ef528aed85",
    "318e13eab5ca5515343a9089f803a5b25460c7224a018b0c8f5cbad8b2a66e1d",
]


def test_census_keys_are_pinned():
    # every rich-line key and size, byte for byte, on sets past the oracle's reach
    for (a, n), want in _LARGE_CENSUS_DIGESTS.items():
        assert _census_digest(census(enumerate_points(HyperbolaSpec(a, n)))) == want, (a, n)
    h = enumerate_points(HyperbolaSpec(1, 1331))
    stack = [
        enumerate_points(HyperbolaSpec(2, 625)),
        h,
        partition_classes(h)[5],
        enumerate_points(HyperbolaSpec(1, 1024)),
        enumerate_points(HyperbolaSpec(3, 343)),
    ]
    assert [_census_digest(cen) for cen in census_many(stack)] == _STACK_CENSUS_DIGESTS


def test_census_many_refuses_a_stack_past_the_major_key_range():
    # the rich-key sort's major key (set * span + A) * 2 * span + B stays below
    # 2 * S * n**2, which must be below 2**63 for every admitted n <= 2**20;
    # a stand-in of the stack's length tests the bound without its sets
    class Reached(Exception):
        pass

    class Stack(Sequence):
        def __init__(self, length):
            self.length = length

        def __len__(self):
            return self.length

        def __getitem__(self, index):
            raise Reached

    assert 2 * 2**22 * _N_LIMIT**2 == 2**63
    with pytest.raises(ValueError, match="fewer than 4194304 sets, got 4194304"):
        census_many(Stack(2**22))
    with pytest.raises(Reached):  # one set fewer passes the refusal
        census_many(Stack(2**22 - 1))


def _line_orbit(ps, key):
    """The lines through the images of two of key's points under the identity, sigma, nu and sigma*nu."""
    n = ps.spec.n
    on = np.flatnonzero(key.A * ps.xs + key.B * ps.ys + key.C == 0)[:2]
    (x1, x2), (y1, y2) = ps.xs[on].tolist(), ps.ys[on].tolist()
    return {
        line_through(p, q)
        for p, q in [((x1, y1), (x2, y2)), ((y1, x1), (y2, x2)), ((n - x1, n - y1), (n - x2, n - y2)), ((n - y1, n - x1), (n - y2, n - x2))]
    }


def test_map_fixed_lines_get_one_key_with_their_count():
    # a line fixed by one of a whole set's maps meets itself in the key closure, so each
    # line's repeats there number 4 over its orbit size of 1, 2 or 4, not
    # uniformly: each rich line must still come out once, with the count the
    # whole set gives it; x + y = n + 2 and x + y = 38 at 27 are fixed by sigma
    for n, named in [(27, {(1, 1, -38): 4}), (81, {(1, 1, -83): 8}), (125, {(1, 1, -127): 4}), (2401, {(1, 1, -2403): 48})]:
        ps = enumerate_points(HyperbolaSpec(1, n))
        lines = list(census(ps).lines())
        keys = [key for key, _ in lines]
        assert len(set(keys)) == len(keys) and keys == sorted(keys)
        for key, t in lines:
            assert count_on_line(ps, key) == t, (n, key)
        got = dict(lines)
        for key, t in named.items():
            assert got[key] == t and len(_line_orbit(ps, LineKey(*key))) == 2, (n, key)
        # the closure's repeats are not uniform
        assert {2, 4} <= {len(_line_orbit(ps, key)) for key in keys} <= {1, 2, 4}, n


def test_line_reported_with_two_sizes_is_refused(monkeypatch):
    # swapping the sizes of two groups of one anchor row of H_{1,49} (a 3-point
    # and a 4-point line through one point) keeps every weighted group count,
    # so only the keys show it: each of the two lines now also comes with the
    # other's size from other anchors, and the keys outnumber the rich lines
    row_groups = geometry._row_groups
    swapped = []

    def swapping(xs, ys, sid, *rest):
        row, sizes, code = row_groups(xs, ys, sid, *rest)
        for r in np.unique(row[sid[row] == 1]).tolist():
            mine = np.flatnonzero(row == r)
            other = mine[sizes[mine] != sizes[mine[0]]]
            if not swapped and len(other):
                swapped.append(sorted(sizes[[mine[0], other[0]]].tolist()))
                sizes = sizes.copy()
                sizes[mine[0]], sizes[other[0]] = sizes[other[0]], sizes[mine[0]]
        return row, sizes, code

    monkeypatch.setattr(geometry, "_row_groups", swapping)
    with pytest.raises(RuntimeError, match=r"rich-line keys disagree with the line counts in set 1 of the stack"):
        census_many(_corruptible_stack())
    assert swapped == [[2, 3]]


def test_line_key_is_a_tuple():
    key = LineKey(2, -5, 8)
    assert (key.A, key.B, key.C) == (2, -5, 8) and tuple(key) == (2, -5, 8)
    assert LineKey(1, -1, 0) == (1, -1, 0) and hash(LineKey(1, -1, 0)) == hash((1, -1, 0))
    keys = [LineKey(1, 2, 0), LineKey(1, -3, 5), LineKey(0, 1, 2), LineKey(1, -3, -1), LineKey(2, -7, 0), LineKey(0, 1, -4)]
    assert sorted(keys) == sorted(keys, key=lambda k: (k.A, k.B, k.C))
    assert [tuple(k) for k in sorted(keys)] == [(0, 1, -4), (0, 1, 2), (1, -3, -1), (1, -3, 5), (1, 2, 0), (2, -7, 0)]
    # keys from the census and from line_through of two of a line's points are
    # equal and hash alike
    ps = enumerate_points(HyperbolaSpec(1, 49))
    lines = dict(census(ps).lines())
    assert all(type(key) is LineKey for key in lines)
    for key in lines:
        on = [(x, y) for x, y in ps.points if key.A * x + key.B * y + key.C == 0]
        rebuilt = line_through(on[0], on[-1])
        assert rebuilt == key and hash(rebuilt) == hash(key) and rebuilt in lines
    assert list(lines) == sorted(lines)


def test_lines_yields_the_stored_keys_as_line_keys():
    # lines() builds its keys without LineKey._make: they must still be
    # LineKeys of Python ints, in stored order, with their stored sizes
    for a, n in [(1, 49), (483, 3125)]:
        cen = census(enumerate_points(HyperbolaSpec(a, n)))
        stored = [(LineKey(*r), t) for r, t in zip(cen._rich_keys.tolist(), cen._rich_t.tolist())]
        lines = list(cen.lines())
        assert lines == stored and len(lines) == cen.line_total - cen.ordinary_count
        assert all(type(key) is LineKey and {type(v) for v in key} == {int} and type(t) is int for key, t in lines)
        assert all(tuple(key) == (key.A, key.B, key.C) for key, _ in lines)
        for least in (3, 4, 5, cen.max_collinear, cen.max_collinear + 1):
            assert list(cen.lines(min_points=least)) == [(key, t) for key, t in stored if t >= least]
        with pytest.raises(ValueError, match="at least 3 points"):
            cen.lines(min_points=2)


def test_oracle_pins_ordinary_count_49():
    # the independent oracle agrees with the census on N(49) = 795 (> 771)
    ps = enumerate_points(HyperbolaSpec(1, 49))
    hist, _ = _census_oracle(ps.points)
    assert hist[2] == 795
    assert census(ps).ordinary_count == 795


def test_census_refuses_a_direction_that_is_not_reduced(monkeypatch):
    # every direction either rebuild returns is reduced, so a doubled one is a
    # fault of the rebuild: the census must name its set, not reduce it.  Set 0,
    # a prime set, has no rich line; set 1 has one, in the float32 tier (n = 49)
    # and in the int32-codes tier (n = 2898, whose diagonals hold five points)
    n = _N_LIMIT_FLOAT + 1
    diagonals = _point_set(HyperbolaSpec(1, n), _extreme_points(n) + [(2, 2), (3, 3), (n - 2, 2), (n - 3, 3)])
    h13, h49 = enumerate_points(HyperbolaSpec(1, 13)), enumerate_points(HyperbolaSpec(1, 49))
    quotient_directions, directions = geometry._quotient_directions, geometry._directions
    monkeypatch.setattr(geometry, "_quotient_directions", lambda code: tuple(2 * d for d in quotient_directions(code)))
    monkeypatch.setattr(geometry, "_directions", lambda code, m: tuple(2 * d for d in directions(code, m)))
    for stack in ([h13, h49], [h13, diagonals]):
        with pytest.raises(RuntimeError, match="not reduced in set 1 of the stack"):
            census_many(stack)

    # a reduced direction of another slope: its float32 quotient is not the group's code
    def sheared(code):
        dx, dy = quotient_directions(code)
        return dx, dy + dx

    monkeypatch.setattr(geometry, "_quotient_directions", sheared)
    with pytest.raises(RuntimeError, match="does not divide to its code in set 1 of the stack"):
        census_many([h13, h49])


def test_census_examples():
    cen5 = census(enumerate_points(HyperbolaSpec(1, 5)))
    assert cen5.ordinary_count == 6
    assert cen5.max_collinear == 2
    cen8 = census(enumerate_points(HyperbolaSpec(1, 8)))
    assert cen8.ordinary_count == 0
    assert cen8.max_collinear == 4
    assert census(enumerate_points(HyperbolaSpec(1, 24))).ordinary_count == 0
    with pytest.raises(TooFewPoints):
        census(enumerate_points(HyperbolaSpec(1, 2)))
    with pytest.raises(ValueError):
        cen5.lines(min_points=2)  # ordinary-line keys are not stored


def test_census_modulus_limit():
    # hand-built two-point sets: the limit is checked before any pair is grouped
    n = 1 << 20
    at_limit = _point_set(HyperbolaSpec(1, n), ((1, 1), (n - 1, n - 1)))
    assert census(at_limit).histogram == {2: 1}
    beyond = _point_set(HyperbolaSpec(1, n + 1), ((1, 1), (n, n)))
    with pytest.raises(ValueError, match="n <= 1048576"):
        census(beyond)
    # a hand-built set can hold more points than n; past 2**20 of them it is refused
    xs = np.repeat(np.arange(1, 3, dtype=np.int64), 2**19 + 1)
    ys = np.tile(np.arange(1, 2**19 + 2, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="1048578 points"):
        census(PointSet(HyperbolaSpec(1, n), xs, ys))


def test_slope_constants():
    assert is_prime(_SLOPE_PRIME)
    assert _SLOPE_PRIME > 2 * (_N_LIMIT - 1) ** 2  # cross products never wrap mod M
    assert _SLOPE_PRIME < 2**42 and (2**20 - 1) * _SLOPE_PRIME < 2**63  # the int64 code products fit
    assert _N_LIMIT == 2**20
    # up to n = 2**15 the codes are taken mod the Mersenne prime 2**31 - 1
    assert _SLOPE_PRIME_32 == 2**31 - 1 and is_prime(_SLOPE_PRIME_32)
    assert _N_LIMIT_32 == 2**15 and _SLOPE_PRIME_32 > 2 * (_N_LIMIT_32 - 1) ** 2
    assert (2**15 - 1) * _SLOPE_PRIME_32 < 2**63  # its products are still formed in int64
    # every code 0 .. M - 1, the vertical code M and the sentinels -1 (anchor)
    # and -2 - col (padding; col < 2**20, the census's cap on a set's points) fit int32
    info = np.iinfo(np.int32)
    assert info.min <= -2 - (_N_LIMIT - 1) and _SLOPE_PRIME_32 <= info.max
    # up to n = 2897 the codes are float32 quotients: the largest n with (n - 1)**2 < 2**23,
    # and a nonzero quotient of |dy|, dx <= n - 1 is above 2**-12, so it is a multiple of 2**-35,
    # below 2**47 * 2**-35 in absolute value
    assert (_N_LIMIT_FLOAT - 1) ** 2 < 2**23 <= _N_LIMIT_FLOAT**2
    assert 1 / (_N_LIMIT_FLOAT - 1) > 2**-12 and _N_LIMIT_FLOAT - 1 < 2**12
    assert (_N_LIMIT_FLOAT - 1) * 2**35 < 2**47
    assert _N_LIMIT_FLOAT < _N_LIMIT_32 < _N_LIMIT


def _adversarial_directions(top, seed):
    """Directions (dx, dy) with |dx|, |dy| <= top of either sign: Farey neighbours
    with denominators near top, scaled copies of a few directions up to top,
    the axes, the corners and entries at top, each also negated."""
    rng = random.Random(seed)
    dirs = [(0, 1), (0, top), (1, 0), (top, 0), (top, top), (top, -top), (1, top), (top, 1)]
    # an entry at top with the other above 1: the rebuild meets a remainder of exactly top
    dirs += [(2, top), (top, 2), (top - 1, top), (top, top - 1), (2, -top), (-top, 2)]
    for _ in range(40):
        # Farey neighbours a/b, c/d with b*c - a*d = 1 and b near top
        b = top - rng.randrange(200)
        a = rng.randrange(1, b)
        while math.gcd(a, b) != 1:
            a += 1
        d = -pow(a, -1, b) % b
        c = (1 + a * d) // b
        dirs += [(b, a), (d, c), (b, -a), (d, -c), (a, b), (c, d)]
    for base in [(1, 0), (0, 1), (1, 1), (2, -1), (3, -5), (7, 4), (1000, -999)]:
        s_max = top // max(map(abs, base))  # scaled copies of one direction
        dirs += [(base[0] * s, base[1] * s) for s in (1, 2, 3, s_max) if s <= s_max]
    # each direction also negated: negative dx, and the verticals (0, -dy)
    return sorted(set(dirs) | {(-dx, -dy) for dx, dy in dirs})


def _codes_of(dirs, top, m):
    """The census slope codes mod m of the given directions, through the signed inverse table."""
    inv = _slope_inverses(top, m)
    assert len(inv) == 2 * top + 1
    for d in (1, 2, 3, 1000, top - 1, top):
        assert inv[top + d] == pow(d, -1, m)
        assert inv[top - d] == pow(-d, -1, m)
    dx = np.array([v[0] + top for v in dirs], dtype=np.int64)  # indexes the signed table
    dy = np.array([v[1] for v in dirs], dtype=np.int64)
    code = _slope_codes(dx.copy(), dy.copy(), inv, m, np.empty_like(dx), True)
    assert code.dtype == (np.int32 if m < 2**31 else np.int64)
    assert code.min() >= 0 and code.max() <= m
    # a stack without vertical pairs skips their pass: every other direction keeps its code
    slanted = dx != top
    unchecked = _slope_codes(dx[slanted], dy[slanted], inv, m, np.empty(slanted.sum(), dtype=np.int64), False)
    assert (unchecked == code[slanted]).all()
    return code


def _assert_codes_exact(dirs, code):
    for (dx1, dy1), c1 in zip(dirs, code.tolist()):
        for (dx2, dy2), c2 in zip(dirs, code.tolist()):
            assert (c1 == c2) == (dy1 * dx2 == dy2 * dx1), ((dx1, dy1), (dx2, dy2))


def _assert_directions_rebuilt(dirs, rebuilt):
    # the rebuilt direction of each code is its direction reduced by math.gcd, up to sign
    dx, dy = rebuilt
    for (ex, ey), rx, ry in zip(dirs, dx.tolist(), dy.tolist()):
        g = math.gcd(ex, ey)
        assert (rx, ry) in ((ex // g, ey // g), (-ex // g, -ey // g)), ((ex, ey), (rx, ry))


def test_slope_codes_exact_on_adversarial_directions():
    # directions (dx, dy) with |dx|, |dy| < 2**20 of either sign, as census pairs
    # have, coded mod _SLOPE_PRIME as int64
    top = _N_LIMIT - 1
    dirs = _adversarial_directions(top, 11)
    code = _codes_of(dirs, top, _SLOPE_PRIME)
    _assert_codes_exact(dirs, code)
    _assert_directions_rebuilt(dirs, _directions(code, _SLOPE_PRIME))


def test_int32_codes_and_directions_at_the_edge():
    # n = 2**15: directions with |dx|, |dy| <= 2**15 - 1 coded mod 2**31 - 1 as
    # int32, and every direction rebuilt from its code by the half extended
    # Euclid (Farey neighbours near 2**15, scaled copies, both signs, both axes)
    top = _N_LIMIT_32 - 1
    dirs = _adversarial_directions(top, 12)
    code = _codes_of(dirs, top, _SLOPE_PRIME_32)
    _assert_codes_exact(dirs, code)
    _assert_directions_rebuilt(dirs, _directions(code, _SLOPE_PRIME_32))
    dx, dy = _directions(np.array([0, _SLOPE_PRIME_32], dtype=np.int32), _SLOPE_PRIME_32)
    assert (dx.tolist(), dy.tolist()) == ([1, 0], [0, 1])  # horizontal, vertical


def _quotients_of(dirs):
    """The census's float32 quotients dy / dx of the given directions, vertical ones folded to +inf."""
    dx = np.array([v[0] for v in dirs], dtype=np.float32)
    dy = np.array([v[1] for v in dirs], dtype=np.float32)
    code = _slope_quotients(dx.copy(), dy.copy(), True)
    assert code.dtype == np.float32 and not np.isnan(code).any()
    assert (code[dx == 0] == np.inf).all()
    # a stack without vertical pairs skips their pass: every other direction keeps its quotient
    slanted = dx != 0
    assert (_slope_quotients(dx[slanted], dy[slanted], False) == code[slanted]).all()
    return code


def test_float32_quotients_and_directions_at_the_edge():
    # n = 2897: directions with |dx|, |dy| <= 2896 coded as float32 quotients, and
    # every direction rebuilt from its quotient by its continued fraction, with
    # dx >= 0 (Farey neighbours near 2896, scaled copies, both signs, both axes)
    top = _N_LIMIT_FLOAT - 1
    dirs = _adversarial_directions(top, 13)
    code = _quotients_of(dirs)
    _assert_codes_exact(dirs, code)
    dx, dy = _quotient_directions(code)
    _assert_directions_rebuilt(dirs, (dx, dy))
    assert dx.min() >= 0 and set(dy[dx == 0].tolist()) == {1}
    # the horizontal quotients +0.0 and -0.0 are one code; an anchor's own 0 / 0 is NaN
    dx = np.array([1, -1, 0, 0, 0], dtype=np.float32)
    code = _slope_quotients(dx, np.array([0, 0, 2, -2, 0], dtype=np.float32), True)
    assert code[0] == code[1] and code[2] == code[3] == np.inf and np.isnan(code[4])
    dx, dy = _quotient_directions(code[:4])
    assert (dx.tolist(), dy.tolist()) == ([1, 1, 0, 0], [0, 0, 1, 1])


def _reduced_fractions(qs):
    """(q, p) of every reduced p / q with 0 <= p < _N_LIMIT_FLOAT and q in qs, as two int64 arrays."""
    q, p = np.meshgrid(qs, np.arange(_N_LIMIT_FLOAT), indexing="ij")
    keep = np.gcd(p, q) == 1
    return q[keep], p[keep]


def test_float32_quotients_of_every_slope_at_the_edge_are_distinct():
    # every reduced p / q with 0 <= p, q <= 2896 has its own float32 quotient, so
    # no two slopes of the float32 tier share a code (blocks of 256 denominators
    # keep the arrays small)
    quotients = []
    for lo in range(1, _N_LIMIT_FLOAT, 256):
        q, p = _reduced_fractions(np.arange(lo, min(lo + 256, _N_LIMIT_FLOAT)))
        quotients.append(p.astype(np.float32) / q.astype(np.float32))
    quotients = np.concatenate(quotients)
    assert len(quotients) == 5_099_256
    assert len(np.unique(quotients)) == len(quotients)
    # and the continued fraction rebuilds (q, +-p) for every denominator q >= 2796
    q, p = _reduced_fractions(np.arange(2796, _N_LIMIT_FLOAT))
    for sign in (1, -1):
        dx, dy = _quotient_directions((sign * p).astype(np.float32) / q.astype(np.float32))
        assert (dx == q).all() and (dy == sign * p).all()


def _extreme_points(n):
    """Points at 1 and n - 1: the largest |dx| and |dy|, negative dy, vertical
    and horizontal pairs, and near-parallel pairs."""
    m = n // 2
    return [(1, 1), (1, n - 1), (n - 1, 1), (n - 1, n - 1), (m, m), (2, 1), (n - 2, n - 1), (1, 2), (n - 1, n - 2)]


def test_census_extreme_coordinates():
    # n = 2**20 with coordinates at 1 and n - 1: the largest |dx| and |dy|,
    # negative dy, vertical and horizontal pairs, and near-parallel pairs
    n = _N_LIMIT
    _assert_matches_oracle(_point_set(HyperbolaSpec(1, n), _extreme_points(n)))
    with pytest.raises(ValueError, match="coordinates"):  # refused before any census
        _point_set(HyperbolaSpec(1, n), ((1, 1), (n, 1)))


def test_census_extreme_coordinates_int32():
    # the same at n = 2**15, the largest modulus whose codes are int32, and at
    # 2**15 + 1, the smallest whose codes are int64; four more points put five
    # on each diagonal, y = x and x + y = n
    for n in (_N_LIMIT_32, _N_LIMIT_32 + 1):
        pts = _extreme_points(n) + [(2, 2), (3, 3), (n - 2, 2), (n - 3, 3)]
        _assert_matches_oracle(_point_set(HyperbolaSpec(1, n), pts))


def test_census_extreme_coordinates_float32():
    # the same at n = 2897, the largest modulus whose codes are float32
    # quotients, and at 2898, the smallest whose codes are taken mod 2**31 - 1
    for n in (_N_LIMIT_FLOAT, _N_LIMIT_FLOAT + 1):
        pts = _extreme_points(n) + [(2, 2), (3, 3), (n - 2, 2), (n - 3, 3)]
        _assert_matches_oracle(_point_set(HyperbolaSpec(1, n), pts))


def test_census_stack_mixes_int32_and_int64_moduli():
    # a stack whose largest modulus is above 2**15 takes int64 codes for all
    # of its sets; each set still censuses as it does alone (float32 quotients,
    # with no inverse table, for those of n <= 2897, int32 codes up to 2**15)
    # and as the oracle says
    n = _N_LIMIT_32 + 3
    big = _point_set(HyperbolaSpec(1, n), _extreme_points(n) + [(3, 3), (n - 3, n - 3)])
    sets = [enumerate_points(HyperbolaSpec(1, 49)), big, enumerate_points(HyperbolaSpec(2, 25))]
    sets.append(_point_set(HyperbolaSpec(1, _N_LIMIT_32), _extreme_points(_N_LIMIT_32)))
    primes, quotients = [], []
    slope_inverses, quotient_directions = geometry._slope_inverses, geometry._quotient_directions

    def spy(span, m):
        primes.append(m)
        return slope_inverses(span, m)

    def float_spy(code):
        quotients.append(code.dtype)
        return quotient_directions(code)

    with mock.patch.object(geometry, "_slope_inverses", spy), mock.patch.object(
        geometry, "_quotient_directions", float_spy
    ):
        batch = census_many(sets)
        single = [census(ps) for ps in sets]
    assert primes == [_SLOPE_PRIME, _SLOPE_PRIME, _SLOPE_PRIME_32]
    assert quotients == [np.float32, np.float32]  # the censuses of H_{1,49} and H_{2,25} alone
    for ps, cen, alone in zip(sets, batch, single):
        hist, rich = _census_oracle(ps.points)
        assert (cen.n, cen.point_count) == (alone.n, alone.point_count)
        assert cen.histogram == alone.histogram == hist
        assert list(cen.lines()) == list(alone.lines()) == sorted(rich.items())


def test_census_pair_identity():
    rng = random.Random(7)
    for n in [rng.randrange(3, 500) for _ in range(25)] + [100, 128, 243]:
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        if len(units) < 2:
            continue
        a = rng.choice(units)
        cen = census(enumerate_points(HyperbolaSpec(a, n)))
        pairs = sum(c * t * (t - 1) // 2 for t, c in cen.histogram.items())
        k = cen.point_count
        assert pairs == k * (k - 1) // 2
        assert cen.ordinary_count == cen.histogram.get(2, 0)


def test_census_invariant_under_reflection():
    for a, n in [(1, 27), (2, 25), (1, 49), (5, 36)]:
        ps = enumerate_points(HyperbolaSpec(a, n))
        c1 = census(ps)
        c2 = census(_point_set(ps.spec, [(y, x) for x, y in ps.points]))
        assert c1.histogram == c2.histogram
        assert c1.ordinary_count == c2.ordinary_count


def test_cross_class_pairs_are_ordinary():
    # lines joining distinct x mod p classes never pick up a third point
    for n in (9, 25, 27, 121):
        ps = enumerate_points(HyperbolaSpec(1, n))
        p = ps.spec.prime_power.p
        part = partition_classes(ps)
        for i, j in itertools.combinations(sorted(part), 2):
            for P in part[i].points:
                for Q in part[j].points:
                    assert count_on_line(ps, line_through(P, Q)) == 2, (n, P, Q)


def test_check_special_line():
    assert check_special_line(PrimePower(3, 2)) == 2
    assert check_special_line(PrimePower(7, 2)) == 6
    assert check_special_line(PrimePower(3, 3)) == 2
    assert check_special_line(PrimePower(2, 4)) == 3
    with pytest.raises(OutOfScope):
        check_special_line(PrimePower(2, 3))
    with pytest.raises(OutOfScope):
        check_special_line(PrimePower(11, 1))


def test_count_on_line_matches_python_loop():
    # int64 sums against exact Python integers, up to the largest coordinates
    n = 2**31 - 1
    extreme = [(1, 1), (1, n - 1), (n - 1, 1), (n - 1, n - 1), (n // 2, n // 2 + 1), (2, n - 2), (n - 3, 5)]
    cases = [(_point_set(HyperbolaSpec(1, n), extreme), extreme)]
    for a, n in [(1, 49), (3, 343), (2, 125)]:
        ps = enumerate_points(HyperbolaSpec(a, n))
        rng = random.Random(n)
        cases.append((ps, rng.sample(ps.points, 12)))
    for ps, sample in cases:
        for P, Q in itertools.combinations(sample, 2):
            key = line_through(P, Q)
            want = sum(1 for x, y in ps.points if key.A * x + key.B * y + key.C == 0)
            assert count_on_line(ps, key) == want, (ps.spec.n, P, Q)


def test_special_line_27_longer_line():
    ps = enumerate_points(HyperbolaSpec(1, 27))
    assert count_on_line(ps, LineKey(1, 1, -38)) == 4


def test_ordinary_lower_bound_values():
    b5 = ordinary_lower_bound(PrimePower(5, 1))
    assert b5.bound == 6 and b5.equality_expected
    b4 = ordinary_lower_bound(PrimePower(2, 2))
    assert b4.bound == 1 and b4.equality_expected
    b8 = ordinary_lower_bound(PrimePower(2, 3))
    assert b8.bound == 0 and b8.equality_expected
    b49 = ordinary_lower_bound(PrimePower(7, 2))
    assert b49.bound == 771 and b49.constant == Fraction(6, 7) and b49.equality_expected
    b9 = ordinary_lower_bound(PrimePower(3, 2))
    assert b9.bound == Fraction(153, 13) and b9.ceil == 12 and not b9.equality_expected


def _a1_census(n):
    return census(enumerate_points(HyperbolaSpec(1, n)))


def test_verify_ordinary_bound_primes_hit_equality():
    for p in (3, 5, 7, 11, 13):
        r = verify_ordinary_bound(PrimePower(p, 1), _a1_census(p))
        assert r.satisfied and r.equality and r.ok
        assert r.ordinary == (p - 1) * (p - 2) // 2


def test_verify_ordinary_bound_small_powers():
    r4 = verify_ordinary_bound(PrimePower(2, 2), _a1_census(4))
    assert r4.ok and r4.equality
    r8 = verify_ordinary_bound(PrimePower(2, 3), _a1_census(8))
    assert r8.ok and r8.equality
    r9 = verify_ordinary_bound(PrimePower(3, 2), _a1_census(9))
    assert r9.ok and r9.satisfied and not r9.equality
    assert r9.ordinary >= 12


def test_verify_ordinary_bound_49_known_discrepancy():
    # measured census: 795 ordinary lines, strictly above the 771 bound, so
    # the expected-equality flag cannot be met; the report records that.
    r = verify_ordinary_bound(PrimePower(7, 2), _a1_census(49))
    assert r.ordinary == 795
    assert r.satisfied
    assert not r.equality
    assert r.equality_expected
    assert not r.ok


def test_verify_line_classes():
    for n in (9, 49, 125, 343):
        ps = enumerate_points(HyperbolaSpec(1, n))
        rep = verify_line_classes(ps, census(ps))
        assert rep.ok, rep.violations
    for n in (5, 16):
        with pytest.raises(OutOfScope):
            verify_line_classes(enumerate_points(HyperbolaSpec(1, n)), _a1_census(n))


@pytest.mark.parametrize("verify", [verify_line_classes, verify_collinearity_bounds])
@pytest.mark.parametrize("n", [27, 25])
def test_verify_line_classes_recounts_every_rich_line(verify, n):
    # a census whose first rich key has its C moved by n**2 names a line that
    # meets no point of the set, while it still claims the old count; lemma 7
    # and the class line totals share the recount that must catch it
    ps = enumerate_points(HyperbolaSpec(1, n))
    tampered = copy.copy(census(ps))
    tampered._rich_keys = tampered._rich_keys.copy()
    tampered._rich_keys[0, 2] += n * n
    key, t = next(tampered.lines())
    assert count_on_line(ps, key) != t
    with pytest.raises(RuntimeError, match="census count mismatch"):
        verify(ps, tampered)


def _class_recount_sets():
    """(set, p, whether its directions fill more than one block) for the recount's oracle test."""
    big = 1021**2
    # the 80 smallest x of the class x = 5 mod 1021: 24 directions of 300 rich
    # lines, one block whose rows sit span = 2 * (2 * (n - 1)**2 + 1) * p, about
    # 2**52, apart, so its last row is offset by about 2**56.5
    corner = _point_set(HyperbolaSpec(1, big), [(x, pow(x, -1, big)) for x in range(5, 80 * 1021, 1021)])
    return [
        (enumerate_points(HyperbolaSpec(1, 31**2)), 31, True),  # 129 directions of k = 930, 70 a block
        (enumerate_points(HyperbolaSpec(1, 3**7)), 3, True),  # 209 directions of k = 1458, 44 a block
        (corner, 1021, False),
    ]


@pytest.mark.parametrize("ps,p,split", _class_recount_sets(), ids=["31^2", "3^7", "1021^2-subset"])
def test_rich_line_classes_match_a_scan_of_each_line(ps, p, split):
    # a different algorithm: scan the whole set for A*x + B*y + C == 0, line by
    # line, and compare the count and the x mod p of the members of each line
    cen = census(ps)
    classes = geometry._rich_line_classes(ps, cen, p)
    directions = {(key.A, key.B) for key, _ in cen.lines()}
    assert (len(directions) > geometry._ROW_BLOCK // len(ps)) == split
    at = 0
    for key, t in cen.lines():
        on = key.A * ps.xs + key.B * ps.ys + key.C == 0
        assert np.count_nonzero(on) == t, key
        assert sorted(classes[at : at + t].tolist()) == sorted((ps.xs[on] % p).tolist()), key
        at += t
    assert at == len(classes)


def _lemma7_test_sets():
    """The hyperbola sets, grids and random subsets of the square on which lemma 7's checks are compared."""
    rng = random.Random(13)
    sets = [enumerate_points(HyperbolaSpec(a, n)) for a, n in [(1, 9), (2, 25), (1, 27), (3, 49)]]
    for n in (9, 25, 27, 49):
        sets.append(_point_set(HyperbolaSpec(1, n), [(x, y) for x in range(1, n, 2) for y in range(1, n, 3)]))
        square = [(x, y) for x in range(1, n) for y in range(1, n)]
        sets.append(_point_set(HyperbolaSpec(1, n), rng.sample(square, min(len(square), 3 * n))))
    return sets


def _line_class_violations_loop(ps, cen):
    """The lemma 7 line checks one rich line at a time, each recounted over the whole set."""
    p = ps.spec.prime_power.p
    violations = []
    for key, t in cen.lines():
        on = ps.xs[key.A * ps.xs + key.B * ps.ys + key.C == 0]
        assert len(on) == t
        classes = set((on % p).tolist())
        if len(classes) != 1:
            violations.append(f"line {tuple(key)} meets classes {sorted(classes)}")
            continue
        if key.C % p == 0:
            violations.append(f"line {tuple(key)}: p divides C")
        if (key.A * key.B) % p == 0:
            violations.append(f"line {tuple(key)}: p divides A*B")
            continue
        if (key.C * key.C - 4 * key.A * key.B) % p != 0:
            violations.append(f"line {tuple(key)}: discriminant not 0 mod p")
        else:
            expect = -key.C * pow(2 * key.A, -1, p) % p
            if classes != {expect}:
                violations.append(f"line {tuple(key)}: class {classes} != {expect}")
    return violations


def test_verify_line_classes_matches_line_by_line_checks():
    # sets that break lemma 7 in every way: grids and random subsets of the
    # square, with the modulus of an odd prime power; and hyperbola sets
    sets = _lemma7_test_sets()
    kinds = ("meets classes", "p divides C", "p divides A*B", "discriminant", ": class ")
    seen = set()
    for ps in sets:
        cen = census(ps)
        rep = verify_line_classes(ps, cen)
        want = _line_class_violations_loop(ps, cen)
        assert rep.lines_checked == sum(1 for _ in cen.lines())
        assert [v for v in rep.violations if not v.startswith(("zero-intercept", "line y = x"))] == want
        seen.update(kind for kind in kinds for v in want if kind in v)
    assert seen == set(kinds)  # every kind of violation was met


def test_verify_collinearity_bounds():
    def verify(n):
        return verify_collinearity_bounds(enumerate_points(HyperbolaSpec(1, n)), _a1_census(n))

    r27 = verify(27)
    assert r27.ok and r27.limit == 6 and r27.max_collinear <= 6
    r9 = verify(9)
    assert r9.ok and not r9.violations
    r25 = verify(25)
    assert r25.ok and r25.limit == 10
    assert set(r25.class_line_counts) == {1, 2, 3, 4}
    assert verify(13).class_line_counts == {}  # m = 1: one point per class
    with pytest.raises(OutOfScope):
        verify(16)


def _class_census_totals(ps):
    """{class: line total} from a census of the x mod p classes themselves, the derived totals' oracle."""
    classes = partition_classes(ps)
    return {i: cen.line_total for i, cen in zip(classes, census_many(list(classes.values())))}


def test_class_line_counts_match_a_census_of_the_classes():
    # the a = 1, 2, 3 sets of every odd p**m, m >= 2, up to 2187, and sets
    # whose rich lines split across classes: grids and random subsets
    moduli = [n for n in range(9, 2188, 2) if (pp := PrimePower.from_modulus(n)) and pp.m >= 2]
    sets = [enumerate_points(HyperbolaSpec(a, n)) for n in moduli for a in (1, 2, 3) if math.gcd(a, n) == 1]
    sets += _lemma7_test_sets()
    split = 0
    for ps, cen in zip(sets, census_many(sets)):
        rep = verify_collinearity_bounds(ps, cen)
        assert rep.class_line_counts == _class_census_totals(ps), (ps.spec, len(ps))
        split += any("meets classes" in v for v in verify_line_classes(ps, cen).violations)
    assert split  # some sets have rich lines that meet two classes or more


def test_collinear_class_is_named_with_its_line():
    # mod 25, class 1 is three points on 2x - 5y + 8 = 0; class 2 holds two
    # points, too few to test, though the rich line y = x - 1 holds both; and
    # class 3 is three points in general position, one of them on y = x - 1
    ps = _point_set(HyperbolaSpec(1, 25), [(1, 2), (6, 4), (11, 6), (2, 1), (7, 6), (3, 2), (8, 2), (13, 4)])
    rep = verify_collinearity_bounds(ps, census(ps))
    assert rep.violations == ["class 1 is entirely collinear on (2, -5, 8)"]
    assert rep.class_line_counts == {1: 1, 2: 1, 3: 3, 4: 0}


def test_zero_intercept_scan():
    zi = zero_intercept_lines(enumerate_points(HyperbolaSpec(1, 49)))
    assert len(zi) == 1
    key, t = zi[0]
    assert key == LineKey(1, -1, 0) and t == 2
    # a grid puts several points on each of many lines through the origin
    grid = [(x, y) for x in range(1, 7) for y in range(1, 7)]
    want = {}
    for x, y in grid:
        key = line_through((0, 0), (x, y))
        want[key] = want.get(key, 0) + 1
    got = zero_intercept_lines(_point_set(HyperbolaSpec(1, 7), grid))
    assert got == sorted((k, t) for k, t in want.items() if t >= 2)
    assert (LineKey(1, -1, 0), 6) in got and (LineKey(2, -1, 0), 3) in got


def _corruptible_stack():
    """A stack of mixed moduli and sizes whose set 1, H_{1,49}, has lines of 3, 4 and 6 points."""
    h49 = enumerate_points(HyperbolaSpec(1, 49))
    return [enumerate_points(HyperbolaSpec(2, 25)), h49, partition_classes(h49)[2], enumerate_points(HyperbolaSpec(3, 11))]


def test_census_stack_checks_fire_on_one_corrupt_set(monkeypatch):
    # the checks run once over the stack; corrupting one set alone must still
    # raise, and name it, whichever block its rows fall in.  Set 1, H_{1,49},
    # has the stack's most points, K = 42; set 0, H_{2,25}, has k = 20, so its
    # row of the (S, K + 1) line counts ends in padding columns t > 20
    sets = _corruptible_stack()
    whole = census_many(sets)
    row_groups, line_summaries = geometry._row_groups, geometry._line_summaries
    K, k = len(sets[1]), len(sets[0])
    assert k < K == max(map(len, sets))
    dropped = []

    def dropping(target):
        def groups(xs, ys, sid, *rest):
            # lose one group of two points (a 3-point line seen from one anchor)
            row, sizes, code = row_groups(xs, ys, sid, *rest)
            hit = np.flatnonzero((sid[row] == target) & (sizes == 2))
            if dropped or not len(hit):
                return row, sizes, code
            dropped.append(hit[0])
            keep = np.arange(len(row)) != hit[0]
            return row[keep], sizes[keep], code[keep]

        return groups

    for target in (1, 0):
        for row_block in (geometry._ROW_BLOCK, 64):
            dropped.clear()
            with mock.patch.object(geometry, "_ROW_BLOCK", row_block), mock.patch.object(
                geometry, "_row_groups", dropping(target)
            ):
                with pytest.raises(RuntimeError, match=f"not a multiple of t in set {target} of"):
                    census_many(sets)
            assert dropped

    def skewing(s, delta):
        # shift set s's L_t by delta[t] between the kernel and the checks
        def summaries(line_sizes, ks, rich):
            line_sizes = line_sizes.copy()
            for t, d in delta.items():
                line_sizes[s, t] += d
            return line_summaries(line_sizes, ks, rich)

        return summaries

    for s, delta, reason in [
        (1, {K: -1}, "L_t is negative"),  # no line holds all 42 points
        (1, {2: 1}, "pair-count identity"),  # one ordinary line too many
        (1, {2: 3, 3: -1}, "rich-line keys disagree"),  # a 3-point line as three 2-point lines: same pairs
        (0, {k + 1: -1}, "L_t is negative"),  # in set 0's padding
        (0, {K: 1}, "pair-count identity"),  # a 42-point line in set 0's padding, the grid's last column
        (0, {2: 3, 3: -1}, "rich-line keys disagree"),
    ]:
        monkeypatch.setattr(geometry, "_line_summaries", skewing(s, delta))
        with pytest.raises(RuntimeError, match=f"{reason}.* in set {s} of the stack"):
            census_many(sets)
    monkeypatch.setattr(geometry, "_line_summaries", skewing(0, {}))
    for cen, again in zip(whole, census_many(sets)):
        assert (cen.ordinary_count, cen.max_collinear, cen.line_total, cen.histogram) == (
            again.ordinary_count,
            again.max_collinear,
            again.line_total,
            again.histogram,
        )


def test_census_summaries_match_the_histogram():
    for cen in census_many(_corruptible_stack()):
        hist = cen.histogram
        assert cen.ordinary_count == hist.get(2, 0)
        assert cen.max_collinear == max(hist)
        assert cen.line_total == sum(hist.values())
        assert sum(c * t * (t - 1) // 2 for t, c in hist.items()) == cen.point_count * (cen.point_count - 1) // 2


def _symmetry_oracle(ps):
    """Per map of _MAPS: whether ps keeps it, and each point's image index (i itself where not kept), by dict lookup."""
    index = {pt: i for i, pt in enumerate(ps.points)}
    n = ps.spec.n
    out = []
    for swap, reflect in _MAPS:
        images = []
        for x, y in ps.points:
            u, v = (y, x) if swap else (x, y)
            images.append(index.get((n - u, n - v) if reflect else (u, v)))
        kept = None not in images
        out.append((kept, images if kept else list(range(len(ps)))))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_symmetries_match_a_lookup_oracle_property(data):
    # stacks of whole sets, closed subsets, x mod p classes and grids with
    # repeated x, padded to the widest set: a set is whole exactly when it is
    # the whole hyperbola of its (a, n), and then the oracle finds all three
    # maps with the same images; every other set maps to itself
    parts = data.draw(st.integers(1, 3), label="parts")
    sets = []
    for i in range(parts):
        if data.draw(st.booleans(), label=f"grid {i}"):
            sets.append(_drawn_grid(data, i))
        else:
            sets += _drawn_stack_part(data, i)
    if not sets:
        return
    whole, images, K = _stacked_orbits(sets)
    assert whole.shape == (len(sets),) and images.shape == (3, len(sets), K)
    for s, ps in enumerate(sets):
        k = len(ps)
        assert whole[s] == (ps.points == enumerate_points(ps.spec).points)
        if whole[s]:
            assert _symmetry_oracle(ps) == [(True, images[g, s, :k].tolist()) for g in range(3)]
        else:
            assert images[:, s, :k].tolist() == [list(range(k))] * 3
        assert images[:, s, k:].tolist() == [list(range(k, K))] * 3  # padding maps to itself
