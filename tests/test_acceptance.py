"""Acceptance criteria, one test per criterion.

Each test prints a `[PASS|FAIL] criterion-NN ...` line with its wall time and
asserts both the exact expected values and the stated time budget.  Run with
`pytest tests/test_acceptance.py -v -s` to watch the lines as they appear.

criterion-04 is expected to FAIL on one case: the measured census at
modulus 49 gives 795 ordinary lines, strictly above the exact lower bound
771, so the built-in expectation of equality there is not met; the bound
itself holds everywhere.
"""
import os
import time
from pathlib import Path

from modhyp.distances import gap_experiment, intersection_direct
from modhyp.suites import (
    suite_collinearity,
    suite_gap,
    suite_general_pm,
    suite_lemma7,
    suite_ordinary_moduli,
    suite_prime_distance,
    suite_prime_lines,
    suite_prop15,
    suite_special_line,
    suite_tables,
    suite_theorem14,
    suite_theorem6,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "distance_counts.csv"
JOBS = min(4, os.cpu_count() or 1)


def _check(name, budget, ok, elapsed, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_ordinary_moduli():
    t0 = time.perf_counter()
    rep = suite_ordinary_moduli(n_max=200, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    by_key = {c.key: c for c in rep.cases}
    found = by_key["no-ordinary-set"].computed
    singles = [by_key[f"one-ordinary-n{n}"].computed for n in (3, 4, 6)]
    ok = found == [2, 8, 12, 24] and singles == [1, 1, 1]
    _check("criterion-01 ordinary-moduli", 30, ok, elapsed, f"set={found} singles={singles}")


def test_criterion_02_prime_line_counts():
    t0 = time.perf_counter()
    rep = suite_prime_lines(n_max=101, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    _check(
        "criterion-02 prime-lines",
        120,
        rep.passed,
        elapsed,
        f"{rep.summary()['total']} primes, all residues",
    )


def test_criterion_03_special_line():
    t0 = time.perf_counter()
    rep = suite_special_line(n_max=2500, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    by_key = {c.key: c for c in rep.cases}
    ok = rep.passed and by_key["27-line-x+y=38"].computed == 4
    _check("criterion-03 special-line", 60, ok, elapsed, f"{len(rep.cases)} cases")


def test_criterion_04_ordinary_line_lower_bound():
    t0 = time.perf_counter()
    rep = suite_theorem6(n_max=2500, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    sat_fail = [c.key for c in rep.cases if not c.computed["ordinary"] >= c.computed["ceil_bound"]]
    eq_fail = [
        (c.key, c.computed["ordinary"], c.computed["bound"])
        for c in rep.cases
        if c.computed["equality"] != c.expected["equality"]
    ]
    by_key = {c.key: c for c in rep.cases}
    n49 = by_key["7^2"].computed["ordinary"]
    detail = f"{len(rep.cases)} prime powers; bound violations={sat_fail}; equality mismatches={eq_fail}; N(49)={n49}"
    ok = not sat_fail and not eq_fail and n49 == 771
    _check("criterion-04 ordinary-bound", 300, ok, elapsed, detail)


def test_criterion_05_line_class_properties():
    t0 = time.perf_counter()
    rep_cls = suite_lemma7(n_max=1331, jobs=JOBS)
    rep_col = suite_collinearity(n_max=1331, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    ok = rep_cls.passed and rep_col.passed
    detail = f"class-structure {rep_cls.summary()['total']} moduli, collinearity {rep_col.summary()['total']} moduli"
    _check("criterion-05 line-classes+collinearity", 180, ok, elapsed, detail)


def test_criterion_06_prime_distance_formula():
    t0 = time.perf_counter()
    rep = suite_prime_distance(n_max=499, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    _check("criterion-06 prime-distance", 60, rep.passed, elapsed, f"{len(rep.cases)} primes")


def test_criterion_07_formula_oracle_equivalence():
    t0 = time.perf_counter()
    rep = suite_theorem14(n_max=31, samples=50, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    checked = sum(c.inputs.get("checked", 0) for c in rep.cases)
    _check("criterion-07 squared-modulus formula", 300, rep.passed, elapsed, f"{checked} (a, p) pairs")


def test_criterion_08_table_regression():
    t0 = time.perf_counter()
    rep = suite_tables(fixtures=FIXTURES, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and len(rep.cases) == 86
    _check("criterion-08 tables", 300, ok, elapsed, f"{len(rep.cases)} transcribed entries")


def test_criterion_09_lattice_intersection():
    t0 = time.perf_counter()
    rep = suite_prop15(n_max=61, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    agreement = next(c for c in rep.cases if c.key == "lattice-agreement")
    _check(
        "criterion-09 intersection counting",
        120,
        rep.passed,
        elapsed,
        f"{agreement.inputs['checked']} residue/prime pairs + a=1 intersections",
    )


def test_criterion_10_gap_construction():
    t0 = time.perf_counter()
    rep = suite_gap(ks=(1, 2, 3))
    a_values = [c.inputs["a"] for c in rep.cases]
    cross = all(
        gap_experiment(k).pair_count == intersection_direct(c.inputs["a"], c.inputs["p"]) == 2**k
        for k, c in zip((1, 2, 3), rep.cases)
    )
    elapsed = time.perf_counter() - t0
    # k = 3 uses a = (3*5*7)**2 = 11025, the value the construction defines
    ok = rep.passed and a_values == [9, 225, 11025] and cross
    _check("criterion-10 gap construction", 120, ok, elapsed, f"a={a_values}")


def test_criterion_11_general_prime_power_image():
    t0 = time.perf_counter()
    rep = suite_general_pm(jobs=JOBS)
    elapsed = time.perf_counter() - t0
    # the quarter-denominator variant must fail whenever it differs from the
    # half-denominator identity, i.e. whenever either symbol is +1
    quarter_ok = all(
        c.computed["correction_quarter_ok"] == (c.computed["leg_a"] == -1 and c.computed["leg_neg_a"] == -1)
        for c in rep.cases
    )
    half_ok = all(c.computed["correction_half_ok"] for c in rep.cases)
    ok = rep.passed and quarter_ok and half_ok
    _check(
        "criterion-11 image decomposition",
        180,
        ok,
        elapsed,
        f"{len(rep.cases)} (p, m, a) triples; half identity exact, quarter variant refuted where distinct",
    )
