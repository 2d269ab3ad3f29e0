"""Point enumeration tests against the full-rectangle membership oracle."""
import math
import random

import numpy as np
import pytest

import modhyp.distances
import modhyp.hyperbola
from modhyp.hyperbola import (
    HyperbolaSpec,
    InfeasibleScale,
    NotPrimePower,
    PointSet,
    enumerate_many,
    enumerate_points,
    partition_classes,
    unit_partners,
    _carmichael,
    _carmichael_inverses,
    _unit_generator,
)
from modhyp.ntcore import euler_phi, factorize


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


@pytest.mark.parametrize("n", [31, 49, 60])
def test_enumerate_many_matches_rectangle_scan(n):
    # every a of a prime, a prime power and a composite n, from one inversion
    a_values = [a for a in range(1, n) if math.gcd(a, n) == 1]
    sets = enumerate_many(n, a_values)
    assert [ps.spec for ps in sets] == [HyperbolaSpec(a, n) for a in a_values]
    for a, ps in zip(a_values, sets):
        want = [(x, y) for x in range(1, n) for y in range(1, n) if x * y % n == a]
        assert ps.points == tuple(want) == enumerate_points(HyperbolaSpec(a, n)).points


def test_enumerate_many_refuses_a_not_coprime_before_any_work(monkeypatch):
    monkeypatch.setattr(modhyp.hyperbola, "np", None)
    for n, a_values in [(49, [1, 7]), (60, [1, 7, 15]), (31, [31])]:
        with pytest.raises(ValueError, match="gcd"):
            enumerate_many(n, a_values)


def test_enumerate_many_checks_its_stack_once(monkeypatch):
    # the stack's x array and y rows are checked once, and no row runs the
    # PointSet constructor's check again
    partners = modhyp.hyperbola.unit_partners
    n, a_values = 49, [1, 2, 3]

    def refuse(self):
        raise AssertionError("a row ran the per-set check")

    def corrupt(how):
        # x * y = a (mod n) still holds, so only the stack check can catch it
        def unit_partners(spec):
            xs, ys = partners(spec)
            if how == "range":
                return np.append(xs, n + 1), np.append(ys, 1)
            xs[[3, 4]], ys[[3, 4]] = xs[[4, 3]], ys[[4, 3]]
            return xs, ys

        return unit_partners

    monkeypatch.setattr(PointSet, "__post_init__", refuse)
    sets = enumerate_many(n, a_values)
    assert [ps.spec for ps in sets] == [HyperbolaSpec(a, n) for a in a_values]
    assert all(ps.xs is sets[0].xs for ps in sets)
    for how, reason in [("range", "coordinates"), ("order", "ascending")]:
        monkeypatch.setattr(modhyp.hyperbola, "unit_partners", corrupt(how))
        with pytest.raises(ValueError, match=reason):
            enumerate_many(n, a_values)
    monkeypatch.undo()
    # one bad y row in a stack that shares a repeated x raises like that row alone
    spec = HyperbolaSpec(1, 5)
    xs = np.array([1, 1, 2], dtype=np.int64)
    good = [[1, 4, 3], [2, 3, 4]]
    assert [ps.points for ps in PointSet._rows([spec] * 2, xs, np.array(good), 5)] == [
        ((1, 1), (1, 4), (2, 3)),
        ((1, 2), (1, 3), (2, 4)),
    ]
    for bad, reason in [([1, 5, 3], "coordinates"), ([0, 4, 3], "coordinates"), ([4, 1, 3], "ascending"), ([3, 3, 3], "distinct")]:
        for rows in ([bad, *good], [*good, bad]):
            with pytest.raises(ValueError, match=reason):
                PointSet._rows([spec] * 3, xs, np.array(rows), 5)
        with pytest.raises(ValueError, match=reason):
            PointSet(spec, xs, np.array(bad))


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


def test_unit_generator_generates_mod_p_squared():
    # 5 is the least generator mod 40487, but 5**40486 = 1 (mod 40487**2),
    # so 5 generates no power 40487**m with m >= 2 and the search passes it
    def generates(g, modulus, order):
        return all(pow(g, order // q, modulus) != 1 for q in factorize(order))

    p = 40487
    assert [g for g in range(2, 6) if generates(g, p, p - 1)] == [5]
    assert pow(5, p - 1, p * p) == 1
    g = _unit_generator(p)
    assert g > 5 and generates(g, p * p, p * (p - 1))
    assert not any(generates(h, p * p, p * (p - 1)) for h in range(2, g))
    for p in (3, 5, 7, 11, 13, 29, 31, 97, 1093):
        g = _unit_generator(p)
        assert generates(g, p * p, p * (p - 1)), p


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
    # the point set is the kernel's two arrays, so the kernel's guards cover it;
    # with numpy unreachable, any allocation would raise something else
    monkeypatch.setattr(modhyp.hyperbola, "np", None)
    for n, reason in [(2**26 + 1, "budget"), (2**27, "budget"), (2**31 + 1, "int64-exact")]:
        with pytest.raises(InfeasibleScale, match=reason):
            enumerate_points(HyperbolaSpec(1, n))
    with pytest.raises(AttributeError):  # 2**26 passes the guards
        enumerate_points(HyperbolaSpec(1, 2**26))


def test_point_set_contract():
    spec = HyperbolaSpec(1, 5)

    def arrays(*values):
        return np.array(values, dtype=np.int64)

    ps = PointSet(spec, arrays(1, 1, 2), arrays(1, 4, 3))
    assert len(ps) == 3 and ps.points == ((1, 1), (1, 4), (2, 3))
    assert len(PointSet(spec, arrays(), arrays())) == 0
    for xs, ys, reason in [
        (arrays(2, 1), arrays(3, 1), "ascending"),  # x out of order
        (arrays(1, 1), arrays(4, 1), "ascending"),  # y out of order within one x
        (arrays(1, 1), arrays(1, 1), "distinct"),
        (arrays(0, 1), arrays(1, 1), "coordinates"),
        (arrays(1, 5), arrays(1, 1), "coordinates"),
        (arrays(1, 1), arrays(1, 5), "coordinates"),
        (arrays(1, 2), arrays(1), "int64 arrays"),
        (np.array([1, 2], dtype=np.int32), arrays(1, 2), "int64 arrays"),
    ]:
        with pytest.raises(ValueError, match=reason):
            PointSet(spec, xs, ys)


def test_partition_examples():
    part = partition_classes(enumerate_points(HyperbolaSpec(1, 9)))
    assert all(isinstance(v, PointSet) for v in part.values())
    assert part[1].points == ((1, 1), (4, 7), (7, 4))
    assert part[2].points == ((2, 5), (5, 2), (8, 8))

    part5 = partition_classes(enumerate_points(HyperbolaSpec(1, 5)))
    assert all(len(v) == 1 for v in part5.values())
    assert part5[2].points == ((2, 3),)

    part16 = partition_classes(enumerate_points(HyperbolaSpec(1, 16)))
    assert list(part16) == [1]
    assert len(part16[1]) == 8


def test_partition_matches_a_mask_per_class():
    # one stable sort by x mod p against a mask per class: the same classes, in
    # ascending x, also for hand-built sets with x = 0 (mod p), which no class
    # takes, and with empty classes
    sets = [enumerate_points(HyperbolaSpec(a, n)) for a, n in [(1, 9), (2, 25), (3, 49), (1, 32), (5, 121)]]
    grid = [(x, y) for x in range(1, 25) for y in range(1, 25, 7)]
    sets.append(PointSet(HyperbolaSpec(1, 25), *np.array(grid, dtype=np.int64).T))
    sets.append(PointSet(HyperbolaSpec(1, 49), np.array([7, 8, 14, 15]), np.array([1, 2, 3, 4])))
    for ps in sets:
        p = ps.spec.prime_power.p
        part = partition_classes(ps)
        assert list(part) == list(range(1, max(p, 2)))
        for i, cls in part.items():
            keep = ps.xs % p == i
            assert cls.xs.tolist() == ps.xs[keep].tolist() and cls.ys.tolist() == ps.ys[keep].tolist(), (ps.spec, i)


def test_carmichael_inverses_match_pow():
    # lambda(n) is the largest multiplicative order of a unit of n, and
    # x**(lambda(n) - 1) inverts every unit: composites of every shape,
    # 2**e with e >= 3 among their factors
    for n in range(2, 200):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        orders = [next(e for e in range(1, n + 1) if pow(x, e, n) == 1) for x in units]
        assert _carmichael(n) == max(orders), n
    assert (_carmichael(105), euler_phi(105)) == (12, 48)
    for n in (6, 12, 24, 100, 105, 120, 288, 1001, 65520, 2**4 * 3**3 * 5 * 7 * 11):
        x = np.array([u for u in range(1, n) if math.gcd(u, n) == 1], dtype=np.int64)
        assert _carmichael_inverses(x, n).tolist() == [pow(u, -1, n) for u in x.tolist()], n


def test_partition_rejects_composite():
    with pytest.raises(NotPrimePower):
        partition_classes(enumerate_points(HyperbolaSpec(1, 12)))


def test_class_sizes():
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)]:
        ps = enumerate_points(HyperbolaSpec(1, p**m))
        part = partition_classes(ps)
        assert list(part) == list(range(1, p))
        assert all(len(v) == p ** (m - 1) for v in part.values())
        assert all(set((v.xs % p).tolist()) == {i} for i, v in part.items())
        assert sum(len(v) for v in part.values()) == len(ps)


def test_reflect_diagonal():
    # x*y = a is symmetric in x and y, so (x, y) -> (y, x) maps the set onto itself
    ps = enumerate_points(HyperbolaSpec(1, 5))
    assert tuple(sorted((y, x) for x, y in ps.points)) == ps.points
    ps27 = enumerate_points(HyperbolaSpec(2, 7))
    assert {(y, x) for x, y in ps27.points} == set(ps27.points)
