"""Distance machinery tests; closed forms are always checked against direct
evaluation of d(x) = (x mod n)^2 + ((a*x^-1) mod n)^2."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhyp.distances import (
    NoSquareRoot,
    NotApplicable,
    InfeasibleScale,
    _row_type,
    classify_image,
    distance_profile,
    distance_rows,
    distinct_counts,
    divisor_pairs,
    gap_experiment,
    image_count_formula,
    image_count_formulas,
    intersection_counts,
    intersection_direct,
    intersection_via_lattice,
    lattice_counts,
    prime_distance_count,
    prime_power_image_report,
    sqrt_shift_data,
)
import modhyp.distances
from modhyp.hyperbola import HyperbolaSpec, unit_partners
from modhyp.ntcore import PrimePower, legendre, primes_upto, sqrt_mod_prime


def distance_value(a, x, n):
    """Squared distance of the point with abscissa x, by Python's own modular inverse."""
    xr = x % n
    yr = a * pow(xr, -1, n) % n
    return xr * xr + yr * yr


def test_distance_profile_examples():
    prof = distance_profile(HyperbolaSpec(1, 9))
    assert prof.distinct_count == 4
    assert prof.values.tolist() == [2, 29, 65, 128]
    assert distance_profile(HyperbolaSpec(4, 25)).distinct_count == 11
    assert distance_profile(HyperbolaSpec(2, 49)).distinct_count == 22


def test_distance_profile_structure():
    # every unit is one preimage, and its value is d(x) of that unit
    rng = random.Random(8)
    for n in (12, 27, 40, 121, 343):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        a = rng.choice(units)
        xs, ys = unit_partners(HyperbolaSpec(a, n))
        assert xs.tolist() == units
        values = [distance_value(a, x, n) for x in units]
        assert values == [x * x + y * y for x, y in zip(xs.tolist(), ys.tolist())]
        assert distance_profile(HyperbolaSpec(a, n)).values.tolist() == sorted(set(values))


_MODULI = st.one_of(
    st.integers(min_value=2, max_value=5000),
    st.sampled_from([2, 4] + [2**k for k in range(3, 13)]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_unit_partners_match_python_inverse(data):
    n = data.draw(_MODULI, label="n")
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    a = data.draw(st.sampled_from(units), label="a")
    xs, ys = unit_partners(HyperbolaSpec(a, n))
    assert xs.tolist() == units
    assert ys.tolist() == [a * pow(x, -1, n) % n for x in units]
    want = sorted({distance_value(a, x, n) for x in units})
    assert distance_profile(HyperbolaSpec(a, n)).values.tolist() == want


@pytest.mark.parametrize("n", [2, 4, 8, 2**15, 2**16, 3**10, 5**7, 7**6, 13**4, 99991, 11907])  # 11907 = 3**5 * 7**2
@pytest.mark.parametrize("a", [1, 101])
def test_unit_partners_lift_matches_python_pow(n, a):
    # prime powers read their inverses from one table of generator powers
    # (+-5**k at 2**m); the composite inverts by Euler's theorem mod n
    xs, ys = unit_partners(HyperbolaSpec(a, n))
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    assert xs.tolist() == units
    assert ys.tolist() == [a * pow(x, -1, n) % n for x in units]


def _oracle_count(a, n):
    return len({distance_value(a, x, n) for x in range(1, n) if math.gcd(x, n) == 1})


def _oracle_intersection(a, p):
    b = min(r for r in range(1, p) if r * r % p == a % p)
    c1 = {distance_value(a, b + t * p, p * p) for t in range(p)}
    c2 = {distance_value(a, p - b + t * p, p * p) for t in range(p)}
    return len(c1 & c2)


# prime powers (2-power ones too) and composites
_ROW_MODULI = [2, 4, 8, 3, 9, 27, 243, 5, 25, 125, 7, 49, 343, 11, 121, 13, 169, 12, 15, 40, 63, 100, 105, 210]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_distinct_counts_match_python_oracle(data):
    # a lists that repeat and are not sorted; a row block from below one row
    # (column chunks) to three rows, so blocks split the list mid-way
    n = data.draw(st.sampled_from(_ROW_MODULI), label="n")
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    a_values = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=9), label="a_values")
    block = data.draw(st.integers(1, 3 * len(units)), label="row block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modhyp.distances, "_ROW_BLOCK", block * _row_type(n).itemsize)  # bytes
        got = distinct_counts(n, a_values)
        profile = distance_profile(HyperbolaSpec(a_values[0], n))
    assert got == [_oracle_count(a, n) for a in a_values]
    assert profile.values.tolist() == sorted({distance_value(a_values[0], x, n) for x in units})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_intersection_counts_match_python_oracle(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), label="p")
    units = [a for a in range(1, p * p) if a % p != 0]
    residues = [a for a in units if legendre(a, p) == 1]
    a_res = data.draw(st.lists(st.sampled_from(residues), min_size=1, max_size=9), label="residue a")
    a_any = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=5), label="any a")
    block = data.draw(st.integers(1, 8 * p), label="row block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modhyp.distances, "_ROW_BLOCK", block * _row_type(p * p).itemsize)  # bytes
        got = intersection_counts(p, a_res)
        formulas = image_count_formulas(p, a_any)
    assert got == [_oracle_intersection(a, p) for a in a_res]
    assert formulas == [_oracle_count(a, p * p) for a in a_any]  # Theorem 14


def test_intersection_counts_invert_once_per_call(monkeypatch):
    invert, calls = modhyp.distances.invert_units, []

    def recording(xs, n, p, a=1):
        calls.append((xs.size, n, p))
        return invert(xs, n, p, a)

    monkeypatch.setattr(modhyp.distances, "invert_units", recording)
    a_values = [a for a in range(1, 169) if legendre(a, 13) == 1]
    assert intersection_counts(13, a_values) == [_oracle_intersection(a, 13) for a in a_values]
    assert calls == [(6 * 26, 169, 13)]  # the 6 roots of 13 in (0, 13/2), 2p abscissae each
    calls.clear()
    assert intersection_counts(13, [10, 4, 88, 4]) == [_oracle_intersection(a, 13) for a in (10, 4, 88, 4)]
    assert calls == [(2 * 26, 169, 13)]  # 10 and 88 share the root 6; 4 has the root 2
    calls.clear()
    assert gap_experiment(3).ok
    assert calls == [(22054, 11027**2, 11027)]  # one root of p = 11027, never the p**2 - p units


def test_corrupted_inverse_row_fails_the_product_check(monkeypatch):
    partners, invert = modhyp.distances.unit_partners, modhyp.distances.invert_units

    def corrupted_partners(spec):
        xs, inv = partners(spec)
        inv[-1] = (inv[-1] + 1) % spec.n
        return xs, inv

    def corrupted_inverse(xs, n, p, a=1):
        inv = invert(xs, n, p, a)
        inv[-1] = (inv[-1] + 1) % n
        return inv

    # 49 and 13**2 take uint32 rows, the prime 46349 and 223**2 int64 ones;
    # 400 bytes is 100 uint32 or 50 int64 entries a block, so rows go in column chunks
    monkeypatch.setattr(modhyp.distances, "_ROW_BLOCK", 400)
    assert distinct_counts(49, [3, 1, 2, 3]) == [_oracle_count(a, 49) for a in (3, 1, 2, 3)]
    assert distinct_counts(46349, [3, 1, 2]) == [prime_distance_count(a, 46349) for a in (3, 1, 2)]
    for p in (13, 223):
        assert intersection_counts(p, [1, 4]) == [_oracle_intersection(a, p) for a in (1, 4)]
    monkeypatch.setattr(modhyp.distances, "unit_partners", corrupted_partners)
    monkeypatch.setattr(modhyp.distances, "invert_units", corrupted_inverse)
    for n, p in ((49, 13), (46349, 223)):
        with pytest.raises(RuntimeError, match="unit inversion failed"):
            distinct_counts(n, [3, 1, 2, 3])
        with pytest.raises(RuntimeError, match="unit inversion failed"):
            distance_profile(HyperbolaSpec(5, n))
        with pytest.raises(RuntimeError, match="unit inversion failed"):
            intersection_counts(p, [1, 4])
        with pytest.raises(RuntimeError, match="unit inversion failed"):
            image_count_formula(1, p)


def test_row_type_switches_where_twice_the_largest_square_leaves_32_bits():
    # a row entry x*x + y*y is at most 2 * (n - 1)**2
    assert 2 * 46340**2 < 2**32 <= 2 * 46341**2
    assert _row_type(46341) == np.uint32
    assert _row_type(46342) == np.int64
    assert _row_type(2**31) == np.int64


@pytest.mark.parametrize("p, row_type", [(46337, "uint32"), (46349, "int64")])
def test_distinct_counts_meet_the_prime_closed_form_on_both_row_types(p, row_type):
    a_values = [1, 2, 3, 5, 7, p - 1]  # residues and non-residues of both primes
    distance_rows.clear()
    assert distinct_counts(p, a_values) == [prime_distance_count(a, p) for a in a_values]
    assert distance_rows == {row_type: len(a_values)}


@pytest.mark.parametrize("p, row_type", [(211, "uint32"), (223, "int64")])
def test_distinct_counts_meet_the_squared_prime_formula_on_both_row_types(p, row_type):
    a_values = [1, 2, 3, 5, 7, p - 1, p + 1, p * p - 1]
    residues = [a for a in a_values if legendre(a, p) == 1]
    distance_rows.clear()
    assert distinct_counts(p * p, a_values) == image_count_formulas(p, a_values)
    assert intersection_counts(p, residues) == lattice_counts(p, residues)
    # the brute-force rows, then the root-progression rows of the formula's and the check's residues
    assert distance_rows == {row_type: len(a_values) + 2 * len(residues)}


def test_distance_kernels_guard_before_allocating(monkeypatch):
    # with numpy unreachable, any allocation would raise something else
    monkeypatch.setattr(modhyp.hyperbola, "np", None)
    monkeypatch.setattr(modhyp.distances, "np", None)
    for n in (2**31 + 1, 2**26 + 1):
        with pytest.raises(InfeasibleScale):
            distinct_counts(n, [1, 2])
        with pytest.raises(InfeasibleScale):
            distance_profile(HyperbolaSpec(1, n))
    with pytest.raises(AttributeError):  # 2**26 passes both guards
        distinct_counts(2**26, [1])
    # 46349**2 > 2**31: past the int64-exact range of the root-progression rows
    with pytest.raises(InfeasibleScale, match="int64-exact"):
        intersection_counts(46349, [1])
    with pytest.raises(InfeasibleScale, match="int64-exact"):
        gap_experiment(4)


def test_batch_kernels_keep_input_order_and_reject_non_units():
    assert distinct_counts(25, []) == [] and intersection_counts(5, []) == [] and lattice_counts(5, []) == []
    assert distinct_counts(25, [4, 29, -21, 1]) == [11, 11, 11, _oracle_count(1, 25)]
    with pytest.raises(ValueError, match="gcd"):
        distinct_counts(25, [1, 10])
    with pytest.raises(NoSquareRoot):
        intersection_counts(5, [1, 3])
    with pytest.raises(NoSquareRoot):
        lattice_counts(5, [1, 3])
    with pytest.raises(NoSquareRoot):
        intersection_via_lattice(3, 5)


def test_prime_distance_count():
    assert prime_distance_count(1, 5) == 3
    assert prime_distance_count(2, 5) == 2
    assert prime_distance_count(3, 7) == 3
    for p in primes_upto(101):
        if p == 2:
            continue
        for a in (1, 2, 3, 4, p - 1):
            if a % p == 0:
                continue
            want = prime_distance_count(a, p)
            got = distance_profile(HyperbolaSpec(a, p)).distinct_count
            assert want == got, (a, p)


def test_sqrt_shift_examples():
    d = sqrt_shift_data(1, 5)
    assert (d.root, d.root_shift, d.mirror_shift) == (1, 0, 3)
    d = sqrt_shift_data(4, 5)
    assert (d.root, d.root_shift, d.mirror_shift) == (2, 0, 3)
    d = sqrt_shift_data(3, 5)
    assert (d.root, d.root_shift, d.mirror_shift) == (None, None, None)


def test_sqrt_shift_defining_congruences():
    rng = random.Random(9)
    for p in [q for q in primes_upto(101) if q > 2]:
        for _ in range(5):
            a = rng.randrange(1, p * p)
            if a % p == 0:
                continue
            d = sqrt_shift_data(a, p)
            if d.root is not None:
                b, j = d.root, d.root_shift
                assert 0 < b < p / 2 and 0 <= j < p
                assert b * (b + j * p) % (p * p) == a % (p * p)
                assert d.mirror_shift == (p - j - 2 if j <= p - 2 else -1)


def test_classify_image_values():
    dec = classify_image(1, PrimePower(5, 2))
    assert (len(dec.b1_values), len(dec.b2_values), dec.generic_count) == (5, 5, 0)
    assert dec.image_size == 10

    dec = classify_image(3, PrimePower(5, 2))
    assert not dec.b1_values and not dec.b2_values
    assert dec.image_size == 10  # phi(25)/2

    # (2/7) = +1 so the residue side is B1: 2p preimages, p+1 values here
    dec = classify_image(2, PrimePower(7, 2))
    assert dec.b1_preimage_count == 14
    assert len(dec.b1_values) == 8
    assert not dec.b2_values

    # (-3/7) = +1 gives the non-residue side: 2p preimages and exactly p values
    dec = classify_image(3, PrimePower(7, 2))
    assert dec.b2_preimage_count == 14
    assert len(dec.b2_values) == 7


def test_classification_partition_and_generic_preimages():
    # generic values have exactly two preimages; the classes are disjoint
    for p in (3, 5, 7, 11, 13):
        for a in (1, 2, 3):
            if a % p == 0:
                continue
            pp = PrimePower(p, 2)
            dec = classify_image(a, pp)
            preimage_counts = _classify_image_reference(a, pp)[-1]
            # the three classes partition the image
            assert len(preimage_counts) == dec.image_size
            generic = set(preimage_counts) - dec.b1_values - dec.b2_values
            assert len(generic) == dec.generic_count
            for u in generic:
                assert preimage_counts[u] == 2, (a, p, u)
            assert dec.max_preimage == max(preimage_counts.values())
            if dec.b1_values:
                assert dec.b1_preimage_count == 2 * p
                assert legendre(a, p) == 1
            if dec.b2_values:
                assert dec.b2_preimage_count == 2 * p
                assert len(dec.b2_values) == p  # exact count at m = 2
                assert legendre(-a, p) == 1
            assert not dec.b1_values & dec.b2_values


def _classify_image_reference(a, pp):
    """Per-unit loop with pow(x, -1, n): the reference for classify_image."""
    p, n = pp.p, pp.n
    a_red = a % n
    b = sqrt_mod_prime(a, p)[0] if legendre(a, p) == 1 else None
    c = sqrt_mod_prime(-a, p)[0] if legendre(-a, p) == 1 else None
    generic, b1_vals, b2_vals = set(), set(), set()
    b1_pre = b2_pre = 0
    preimage_counts = {}
    for x in range(1, n):
        r = x % p
        if r == 0:
            continue
        y = a_red * pow(x, -1, n) % n
        u = x * x + y * y
        preimage_counts[u] = preimage_counts.get(u, 0) + 1
        if b is not None and (r == b or r == p - b):
            b1_vals.add(u)
            b1_pre += 1
        elif c is not None and (r == c or r == p - c):
            b2_vals.add(u)
            b2_pre += 1
        else:
            generic.add(u)
    return (a_red, len(generic), b1_vals, b2_vals, b1_pre, b2_pre, preimage_counts)


def test_classify_image_matches_reference_loop():
    for p in (3, 5, 7, 11):
        for m in (1, 2, 3, 4):
            pp = PrimePower(p, m)
            for a in {1, 2, 3, p - 1, pp.n - 2, 5 * p + 1}:
                if a % p == 0:
                    continue
                dec = classify_image(a, pp)
                got = (
                    dec.a, dec.generic_count, dec.b1_values, dec.b2_values,
                    dec.b1_preimage_count, dec.b2_preimage_count, dec.max_preimage,
                )
                *want, preimage_counts = _classify_image_reference(a, pp)
                assert got == (*want, max(preimage_counts.values())), (a, pp)
                assert type(dec.max_preimage) is int
                assert all(type(u) is int for u in dec.b1_values | dec.b2_values)


def test_root_progression_image_sizes():
    # each root progression maps onto (p-1)/2 + 1 values at m = 2
    rng = random.Random(11)
    for p in [q for q in primes_upto(101) if q > 2]:
        choices = {1, 4}
        choices.update(rng.randrange(1, p * p) for _ in range(3))
        for a in choices:
            if a % p == 0 or legendre(a, p) != 1:
                continue
            b = sqrt_mod_prime(a, p)[0]
            n = p * p
            c1 = {distance_value(a, b + t * p, n) for t in range(p)}
            c2 = {distance_value(a, p - b + t * p, n) for t in range(p)}
            assert len(c1) == len(c2) == (p - 1) // 2 + 1, (a, p)


def test_negative_root_progressions_coincide():
    # when -a is a residue, d is injective on the progression and both
    # progressions give the same value set
    rng = random.Random(12)
    for p in [q for q in primes_upto(61) if q > 2]:
        for _ in range(4):
            a = rng.randrange(1, p * p)
            if a % p == 0 or legendre(-a, p) != 1:
                continue
            c = sqrt_mod_prime(-a, p)[0]
            n = p * p
            vals1 = [distance_value(a, c + t * p, n) for t in range(p)]
            vals2 = [distance_value(a, p - c + t * p, n) for t in range(p)]
            assert len(set(vals1)) == p  # injective
            assert set(vals1) == set(vals2)


def test_intersection_direct_examples():
    assert intersection_direct(1, 5) == 1
    assert intersection_direct(4, 5) == 0
    assert intersection_direct(1, 7) == 1
    with pytest.raises(NoSquareRoot):
        intersection_direct(3, 5)


def test_intersection_swap_root_invariance():
    # replacing the canonical root by its mirror swaps the progressions only
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 29):
        for _ in range(6):
            a = rng.randrange(1, p * p)
            if a % p == 0 or legendre(a, p) != 1:
                continue
            b = sqrt_mod_prime(a, p)[0]
            n = p * p
            direct = intersection_direct(a, p)
            c1 = {distance_value(a, (p - b) + t * p, n) for t in range(p)}
            c2 = {distance_value(a, b + t * p, n) for t in range(p)}
            assert len(c1 & c2) == direct


def _lattice_cells(a, p):
    """The (t, s) cells of both lattice rectangles by scanning every cell: the oracle for lattice_counts."""
    d = sqrt_shift_data(a, p)
    b, j, k = d.root, d.root_shift, d.mirror_shift
    rhs1 = 2 * b + j * p - p * p
    rhs2 = 2 * b + j * p
    plain_wrap = tuple(
        (t, s)
        for t in range(0, j // 2 + 1)
        for s in range(k + 1, (p + k) // 2 + 1)
        if (s + t + 1 - p) * (s - t + 1 + j - p) == rhs1
    )
    wrap_plain = tuple(
        (t, s)
        for t in range(j + 1, (p + j) // 2 + 1)
        for s in range(0, k // 2 + 1)
        if (s + t + 1 - p) * (s - t + 1 + j) == rhs2
    )
    return plain_wrap, wrap_plain


def _scan_count(a, p):
    return sum(map(len, _lattice_cells(a, p)))


def test_intersection_via_lattice_examples():
    assert _lattice_cells(1, 5) == ((), ((2, 0),))
    assert lattice_counts(5, [1, 4]) == [1, 0] and _scan_count(4, 5) == 0
    lat = intersection_via_lattice(1, 5)
    assert (lat.root_shift, lat.pair_count, lat.divisor_pairs) == (0, 1, ((-2, -1),))
    assert intersection_via_lattice(4, 5).pair_count == 0
    assert intersection_via_lattice(1, 7).pair_count == 1
    with pytest.raises(NoSquareRoot):
        intersection_via_lattice(3, 5)


def test_lattice_agrees_with_direct():
    for p in [q for q in primes_upto(31) if q > 2]:
        a_values = [a for a in range(1, p * p) if legendre(a, p) == 1]
        scan = [_scan_count(a, p) for a in a_values]
        assert lattice_counts(p, a_values) == scan == intersection_counts(p, a_values), p
        for b in range(1, (p + 1) // 2):  # the root shift is 0 exactly at a = b*b
            lat = intersection_via_lattice(b * b, p)
            assert lat.root_shift == 0 and len(lat.divisor_pairs) == lat.pair_count, (b * b, p)


def test_lattice_counts_match_direct_on_every_residue_of_101():
    a_values = [a for a in range(1, 101**2) if legendre(a, 101) == 1]
    assert lattice_counts(101, a_values) == intersection_counts(101, a_values)


def test_lattice_counts_split_by_row_block(monkeypatch):
    # a row walks the p - 1 int64 values of u once per rectangle; a block of
    # 40 entries splits the 78 residues of 13**2 into blocks of 40 // 12 = 3 rows
    a_values = [a for a in range(1, 169) if legendre(a, 13) == 1]
    whole = lattice_counts(13, a_values)
    remainder = np.remainder
    walks = []

    def recording(x, y, out):
        walks.append(out.shape)
        return remainder(x, y, out=out)

    monkeypatch.setattr(modhyp.distances, "_ROW_BLOCK", 40 * 8)  # bytes
    monkeypatch.setattr(np, "remainder", recording)
    assert lattice_counts(13, a_values) == whole == intersection_counts(13, a_values)
    assert walks == [(3, 12)] * 52
    walks.clear()
    monkeypatch.setattr(modhyp.distances, "_ROW_BLOCK", 1)  # below one row: one row a block
    assert lattice_counts(13, a_values[::-1]) == whole[::-1]
    assert walks == [(1, 12)] * 156


def test_wrong_root_fails_the_root_shift_check(monkeypatch):
    # 1 is no root of 4 mod 13, so b * (b + j*p) = a (mod p**2) cannot hold
    monkeypatch.setattr(modhyp.distances, "sqrt_mod_prime", lambda a, p: (1, p - 1))
    with pytest.raises(RuntimeError, match="root shift failed"):
        lattice_counts(13, [4])


_LATTICE_PRIMES = [q for q in primes_upto(211) if q > 2]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lattice_count_equals_scan_and_direct(data):
    p = data.draw(st.sampled_from(_LATTICE_PRIMES), label="p")
    b = data.draw(st.integers(1, (p - 1) // 2), label="root")
    a = b * b % p + data.draw(st.integers(0, p - 1), label="p-digit") * p  # any residue of p**2
    assert lattice_counts(p, [a]) == [_scan_count(a, p)] == [intersection_direct(a, p)]


def test_divisor_pairs():
    assert divisor_pairs(1, 5) == [(-2, -1)]
    assert divisor_pairs(4, 5) == []
    pairs = divisor_pairs(9, 11)
    assert len(pairs) == 2 == intersection_direct(9, 11)
    with pytest.raises(NotApplicable):
        divisor_pairs(2, 7)  # root shift is 2
    with pytest.raises(NoSquareRoot):
        divisor_pairs(3, 5)


def test_image_count_formula_examples():
    assert image_count_formula(1, 5) == 10
    assert image_count_formula(4, 5) == 11
    assert image_count_formula(2, 5) == 10


def test_prime_power_image_report_cases():
    r = prime_power_image_report(2, PrimePower(3, 4))
    assert r.image_size == 27 and r.ok
    r = prime_power_image_report(3, PrimePower(7, 3))
    assert r.image_size == 147 and r.ok
    r = prime_power_image_report(1, PrimePower(3, 3))
    assert r.image_size == 10 and r.ok
    # denominator-4 variant only matches when both symbols are -1
    r = prime_power_image_report(1, PrimePower(5, 3))
    assert r.correction_half_ok and not r.correction_quarter_ok
    r = prime_power_image_report(2, PrimePower(5, 3))
    assert r.correction_half_ok and r.correction_quarter_ok


def test_gap_experiment():
    g1 = gap_experiment(1)
    assert (g1.a, g1.p, g1.pair_count, g1.cross_check) == (9, 11, 2, 2)
    assert g1.gap == 1
    assert g1.image_count == 54
    assert distance_profile(HyperbolaSpec(9, 121)).distinct_count == 54

    g2 = gap_experiment(2)
    assert (g2.a, g2.p, g2.pair_count) == (225, 227, 4)
    assert g2.ok

    with pytest.raises(InfeasibleScale):
        gap_experiment(20)
