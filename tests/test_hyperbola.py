"""Point enumeration tests against the full-rectangle membership oracle."""
import math
import random

import pytest

import modhyp.distances
import modhyp.hyperbola
from modhyp.hyperbola import (
    HyperbolaSpec,
    InfeasibleScale,
    NotPrimePower,
    enumerate_points,
    partition_classes,
    points_csv,
    unit_partners,
)
from modhyp.ntcore import euler_phi


def test_spec_validation():
    with pytest.raises(ValueError):
        HyperbolaSpec(2, 4)
    with pytest.raises(ValueError):
        HyperbolaSpec(1, 1)
    spec = HyperbolaSpec(10, 7)  # reduced to least residue
    assert spec.a == 3
    assert HyperbolaSpec(1, 12).prime_power is None
    assert HyperbolaSpec(1, 27).prime_power.p == 3


def test_enumerate_examples():
    assert enumerate_points(HyperbolaSpec(1, 5)).points == ((1, 1), (2, 3), (3, 2), (4, 4))
    assert enumerate_points(HyperbolaSpec(1, 2)).points == ((1, 1),)
    assert enumerate_points(HyperbolaSpec(1, 8)).points == ((1, 1), (3, 3), (5, 5), (7, 7))


def test_enumerate_matches_rectangle_scan():
    rng = random.Random(4)
    for n in range(2, 201):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        choices = {1}
        choices.update(rng.choice(units) for _ in range(2))
        for a in choices:
            got = set(enumerate_points(HyperbolaSpec(a, n)).points)
            want = {
                (x, y)
                for x in range(1, n)
                for y in range(1, n)
                if x * y % n == a
            }
            assert got == want, (a, n)


def test_cardinality_is_totient():
    rng = random.Random(5)
    for n in list(range(2, 100)) + [rng.randrange(100, 1001) for _ in range(40)]:
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        a = rng.choice(units)
        ps = enumerate_points(HyperbolaSpec(a, n))
        assert len(ps) == euler_phi(n)
        assert all(1 <= x <= n - 1 and 1 <= y <= n - 1 and x * y % n == a for x, y in ps.points)
        # symmetric under swapping coordinates
        assert {(y, x) for x, y in ps.points} == set(ps.points)


def test_unit_partners_guards_raise_before_allocating(monkeypatch):
    assert modhyp.distances.InfeasibleScale is InfeasibleScale
    # with numpy unreachable, any allocation would raise something else
    monkeypatch.setattr(modhyp.hyperbola, "np", None)
    for n in (2**31 + 1, 2**32, 2**26 + 1, 2**27):
        with pytest.raises(InfeasibleScale):
            unit_partners(HyperbolaSpec(1, n))
    with pytest.raises(AttributeError):  # 2**26 passes both guards
        unit_partners(HyperbolaSpec(1, 2**26))


def test_enumerate_points_guard_raises_before_allocating(monkeypatch):
    def refuse(spec):
        raise AssertionError("unit_partners reached")

    # with numpy and the kernel unreachable, any allocation would raise something else
    monkeypatch.setattr(modhyp.hyperbola, "np", None)
    monkeypatch.setattr(modhyp.hyperbola, "unit_partners", refuse)
    for n in (2**22 + 1, 2**23, 2**26):
        with pytest.raises(InfeasibleScale, match="point tuples"):
            enumerate_points(HyperbolaSpec(1, n))
    with pytest.raises(AssertionError):  # 2**22 passes the guard
        enumerate_points(HyperbolaSpec(1, 2**22))


def test_partition_examples():
    part = partition_classes(enumerate_points(HyperbolaSpec(1, 9)))
    assert part.classes[1] == ((1, 1), (4, 7), (7, 4))
    assert part.classes[2] == ((2, 5), (5, 2), (8, 8))

    part5 = partition_classes(enumerate_points(HyperbolaSpec(1, 5)))
    assert all(len(v) == 1 for v in part5.classes.values())
    assert part5.classes[2] == ((2, 3),)

    part16 = partition_classes(enumerate_points(HyperbolaSpec(1, 16)))
    assert list(part16.classes) == [1]
    assert len(part16.classes[1]) == 8


def test_partition_rejects_composite():
    with pytest.raises(NotPrimePower):
        partition_classes(enumerate_points(HyperbolaSpec(1, 12)))


def test_class_sizes():
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)]:
        ps = enumerate_points(HyperbolaSpec(1, p**m))
        part = partition_classes(ps)
        assert set(part.classes) == set(range(1, p))
        assert all(len(v) == p ** (m - 1) for v in part.classes.values())
        assert sum(len(v) for v in part.classes.values()) == len(ps)


def test_reflect_diagonal():
    # x*y = a is symmetric in x and y, so (x, y) -> (y, x) maps the set onto itself
    ps = enumerate_points(HyperbolaSpec(1, 5))
    assert tuple(sorted((y, x) for x, y in ps.points)) == ps.points
    ps27 = enumerate_points(HyperbolaSpec(2, 7))
    assert {(y, x) for x, y in ps27.points} == set(ps27.points)


def test_serialization():
    ps = enumerate_points(HyperbolaSpec(1, 5))
    assert points_csv(ps).splitlines() == ["x,y", "1,1", "2,3", "3,2", "4,4"]
