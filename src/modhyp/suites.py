"""Verification sweeps.

Every suite runs a family of exact checks over a parameter range and returns
a ``VerificationReport``.  Case work is pure and each worker returns its
finished ``CaseRecord``, so with ``jobs`` > 1 a sweep's tasks are shared by
the calling process and jobs - 1 forked ones, each drawing the next task
from one shared counter; records are placed in task order, making the
report independent of the worker count.  Suites that aggregate many tasks
into one case (ordinary-moduli, prop15) reduce their workers' results
instead.  The line suites (theorem6, lemma7, collinearity, ordinary-moduli)
share stacks: contiguous runs of their ascending moduli, censused in one
``census_many`` call per stack, each returning one result per modulus in
task order.  Prime-lines builds the sets of each stack of a values of a
prime from one inversion (``enumerate_many``).
"""
from __future__ import annotations

import csv
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import itemgetter
from pathlib import Path

from .distances import (
    DEFAULT_GAP_BOUND,
    _divisor_pairs,
    distinct_counts,
    gap_experiment,
    image_count_formulas,
    intersection_counts,
    intersection_direct,
    lattice_counts,
    prime_distance_count,
    prime_power_image_report,
    sqrt_shift_data,
)
from .geometry import (
    IncidenceCensus,
    LineKey,
    census_many,
    check_special_line,
    count_on_line,
    verify_collinearity_bounds,
    verify_line_classes,
    verify_ordinary_bound,
)
from .hyperbola import HyperbolaSpec, PointSet, check_unit_budget, enumerate_many, enumerate_points
from .ntcore import PrimePower, is_prime, primes_upto

DEFAULT_FIXTURES = Path("fixtures") / "distance_counts.csv"
DEFAULT_SEED = 12345


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Path):
        return str(obj)
    return obj


@dataclass
class CaseRecord:
    key: str
    inputs: dict
    expected: object
    computed: object
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def summary(self) -> dict:
        npass = sum(1 for c in self.cases if c.passed)
        return {
            "total": len(self.cases),
            "passed": npass,
            "failed": len(self.cases) - npass,
            "pass": self.passed,
        }

    def failures(self) -> list[CaseRecord]:
        return [c for c in self.cases if not c.passed]

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "params": _jsonable(self.params),
            "summary": self.summary(),
            "cases": [
                {
                    "key": c.key,
                    "inputs": _jsonable(c.inputs),
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "pass": c.passed,
                }
                for c in self.cases
            ],
        }


def _failures_case(key: str, inputs: dict, failures: list) -> CaseRecord:
    return CaseRecord(key, inputs, {"failures": []}, {"failures": failures}, not failures)


# [tasks run, busy seconds] per process of every sweep since the list was last
# cleared, the caller first and then each extra process in start order;
# ``verify --verbose`` prints it to stderr.
process_loads: list[list] = []


def _draws(counter):
    """Task indices taken from the shared counter, the largest first, until none remain."""
    while True:
        with counter.get_lock():
            i = counter.value = counter.value - 1
        if i < 0:
            return
        yield i


def _serve(worker, tasks, indices) -> tuple[list, float]:
    """(index, worker(tasks[index])) for each index drawn, and the seconds they took."""
    t0 = time.perf_counter()
    done = [(i, worker(tasks[i])) for i in indices]
    return done, time.perf_counter() - t0


def _serve_process(worker, tasks, counter, conn) -> None:
    """An extra process's share, sent once at the end: its (index, result) pairs and busy
    seconds, or the exception it raised and that exception's formatted traceback."""
    try:
        share = _serve(worker, tasks, _draws(counter))
    except Exception as exc:
        import traceback  # only a failing process needs it; at the top it adds about 1 ms to every start

        share = exc, traceback.format_exc()
    conn.send(share)


def _record_loads(loads) -> None:
    """Add each process's (tasks run, busy seconds) to process_loads, the caller first."""
    for slot, (count, busy) in enumerate(loads):
        if slot == len(process_loads):
            process_loads.append([0, 0.0])
        process_loads[slot][0] += count
        process_loads[slot][1] += busy


def _run_parallel(worker, tasks, jobs):
    """worker(t) for every task, in task order, on ``jobs`` processes, the caller one of them.

    The caller starts jobs - 1 processes (no more than there are tasks to
    share) and works too.  Every process draws task indices from one shared
    counter, the last task first: sweeps list their tasks in ascending size,
    so the costly tail is spread before the cheap head.  Each extra process
    sends its (index, result) pairs once, when the counter runs dry; the
    caller places them by index.  A worker's exception is raised again in the
    caller, its cause a ``RuntimeError`` holding the traceback from the
    process that raised it; a process that exits without sending raises
    ``RuntimeError``, and on any error the processes still running are
    terminated.
    """
    if jobs <= 1 or len(tasks) <= 1:
        t0 = time.perf_counter()
        results = [worker(t) for t in tasks]
        _record_loads([(len(tasks), time.perf_counter() - t0)])
        return results
    counter = multiprocessing.Value("q", len(tasks))
    procs = []
    try:
        for _ in range(min(jobs, len(tasks)) - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_serve_process, args=(worker, tasks, counter, sender), daemon=True
            )
            proc.start()
            sender.close()  # the process holds the only sending end, so its exit reads as EOF
            procs.append((proc, receiver))
        shares = [_serve(worker, tasks, _draws(counter))]
        for proc, receiver in procs:
            try:
                share = receiver.recv()
            except EOFError:
                proc.join()
                code = proc.exitcode
                raise RuntimeError(f"a sweep process exited with code {code} before sending its results") from None
            proc.join()
            if isinstance(share[0], Exception):
                exc, text = share
                raise exc from RuntimeError(f"raised in a sweep process:\n{text}")
            shares.append(share)
    finally:
        for proc, receiver in procs:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            receiver.close()
    results = [None] * len(tasks)
    for done, _ in shares:
        for i, result in done:
            results[i] = result
    _record_loads((len(done), busy) for done, busy in shares)
    return results


# Sum of n**2 over the moduli of one line-suite stack: one sweep task censuses a
# contiguous run of the ascending moduli in one census_many call, so the small
# moduli share its fixed cost, and every n from 1024 up has a stack of its own.
# It does not depend on --jobs, so every job count runs the same censuses, and
# each process's peak memory follows the largest stack it draws: the caller's
# too, as it censuses its share of the stacks.
_STACK_SQUARES = 1 << 20


def _stacks(tasks: list, modulus) -> list[list]:
    """Cut the ascending task list into contiguous runs whose sum of n**2 stays under _STACK_SQUARES."""
    stacks: list[list] = []
    total = _STACK_SQUARES
    for task in tasks:
        square = modulus(task) ** 2
        if total + square >= _STACK_SQUARES:
            stacks.append([])
            total = 0
        stacks[-1].append(task)
        total += square
    return stacks


def _run_stacked(worker, tasks: list, modulus, jobs: int) -> list:
    """worker(stack) for every stack of the tasks, each returning one result per task, flattened in task order."""
    return [r for results in _run_parallel(worker, _stacks(tasks, modulus), jobs) for r in results]


def _a1_stack_task(case, stack: list[tuple[int, int, int]]) -> list[CaseRecord]:
    """case(p, m, point set, census) for each (p, m, n) of a stack, the a = 1 sets censused in one ``census_many`` call."""
    sets = [enumerate_points(HyperbolaSpec(1, n)) for _, _, n in stack]
    return [case(p, m, ps, cen) for (p, m, _), ps, cen in zip(stack, sets, census_many(sets))]


def _prime_powers_upto(n_max: int, min_m: int = 1, odd_only: bool = False, min_n: int = 2):
    out = []
    for p in primes_upto(n_max):
        if odd_only and p == 2:
            continue
        m, n = 1, p
        while n <= n_max:
            if m >= min_m and n >= min_n:
                out.append((p, m, n))
            m, n = m + 1, n * p
    return sorted(out, key=lambda t: t[2])


# ---------------------------------------------------------------------------
# ordinary-moduli


def _ordinary_count_task(moduli: list[int]) -> list[tuple[int, int]]:
    """(n, ordinary count) for each n of a stack; n = 2 has one point and no line."""
    sets = [enumerate_points(HyperbolaSpec(1, n)) for n in moduli]
    lined = [ps for ps in sets if len(ps) >= 2]
    counts = {ps.spec.n: cen.ordinary_count for ps, cen in zip(lined, census_many(lined) if lined else [])}
    return [(n, counts.get(n, 0)) for n in moduli]


def suite_ordinary_moduli(n_max: int = 200, jobs: int = 1) -> VerificationReport:
    """Exactly {2, 8, 12, 24} span no ordinary line; 3, 4 and 6 span exactly one."""
    rep = VerificationReport("ordinary-moduli", {"n_max": n_max})
    results = dict(_run_stacked(_ordinary_count_task, list(range(2, n_max + 1)), int, jobs))
    found = [n for n, c in sorted(results.items()) if c == 0]
    expected = [n for n in (2, 8, 12, 24) if n <= n_max]
    rep.cases.append(
        CaseRecord("no-ordinary-set", {"n_max": n_max}, expected, found, found == expected)
    )
    for n in (3, 4, 6):
        if n <= n_max:
            rep.cases.append(CaseRecord(f"one-ordinary-n{n}", {"n": n}, 1, results[n], results[n] == 1))
    return rep


# ---------------------------------------------------------------------------
# prime-lines


# Points per census_many stack of prime-lines: every a of p <= 359 in one
# call, and a few MB of stacked coordinates at any larger p.
_STACK_POINTS = 1 << 17


def _prime_lines_task(p: int) -> CaseRecord:
    failures = []
    formula = (p - 1) * (p - 2) // 2
    batch = max(1, _STACK_POINTS // p)
    for lo in range(1, p, batch):
        sets = enumerate_many(p, range(lo, min(lo + batch, p)))
        if len(sets[0]) < 2:  # only p = 2, whose one point spans no line
            failures += [[ps.spec.a, 0, 0] for ps in sets if formula != 0]
            continue
        for ps, cen in zip(sets, census_many(sets)):
            if cen.ordinary_count != formula or cen.max_collinear != 2:
                failures.append([ps.spec.a, cen.ordinary_count, cen.max_collinear])
    expected = {"ordinary": formula, "max_collinear": 2}
    return CaseRecord(f"p{p}", {"p": p, "all_a": True}, expected, {"failures": failures}, not failures)


def suite_prime_lines(n_max: int = 101, jobs: int = 1) -> VerificationReport:
    """Every prime hyperbola spans (p-1)(p-2)/2 ordinary lines and nothing longer."""
    rep = VerificationReport("prime-lines", {"n_max": n_max})
    rep.cases.extend(_run_parallel(_prime_lines_task, primes_upto(n_max), jobs))
    return rep


# ---------------------------------------------------------------------------
# special-line


def _special_line_task(task: tuple[int, int]) -> CaseRecord:
    p, m = task
    count = check_special_line(PrimePower(p, m))
    expected = p ** (m // 2) - 1
    return CaseRecord(f"{p}^{m}", {"p": p, "m": m}, expected, count, count == expected)


def suite_special_line(n_max: int = 2500, jobs: int = 1) -> VerificationReport:
    """The line x + y = p**m + 2 carries p**floor(m/2) - 1 points (m >= 2, p**m > 8)."""
    rep = VerificationReport("special-line", {"n_max": n_max})
    tasks = [(p, m) for p, m, n in _prime_powers_upto(n_max, min_m=2, min_n=9)]
    rep.cases.extend(_run_parallel(_special_line_task, tasks, jobs))
    if n_max >= 27:
        # the 3^3 set also spans a longer line, x + y = 38, with 4 points
        ps = enumerate_points(HyperbolaSpec(1, 27))
        got = count_on_line(ps, LineKey(1, 1, -38))
        rep.cases.append(CaseRecord("27-line-x+y=38", {"n": 27}, 4, got, got == 4))
    return rep


# ---------------------------------------------------------------------------
# theorem6 (ordinary-line lower bound)


def _theorem6_case(p: int, m: int, ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    r = verify_ordinary_bound(PrimePower(p, m), cen)
    return CaseRecord(
        f"{p}^{m}",
        {"p": p, "m": m, "n": r.n},
        {"satisfied": True, "equality": r.equality_expected},
        {"ordinary": r.ordinary, "bound": str(r.bound), "ceil_bound": r.ceil_bound, "equality": r.equality},
        r.ok,
    )


def suite_theorem6(n_max: int = 2500, jobs: int = 1) -> VerificationReport:
    """Ordinary count >= ceil(exact rational bound); equality exactly where expected."""
    rep = VerificationReport("theorem6", {"n_max": n_max})
    tasks = _prime_powers_upto(n_max, min_n=3)
    rep.cases.extend(_run_stacked(partial(_a1_stack_task, _theorem6_case), tasks, itemgetter(2), jobs))
    return rep


# ---------------------------------------------------------------------------
# lemma7 (line class structure)


def _line_class_case(p: int, m: int, ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    r = verify_line_classes(ps, cen)
    return CaseRecord(
        f"{p}^{m}",
        {"p": p, "m": m, "a": 1},
        {"violations": []},
        {"lines_checked": r.lines_checked, "violations": r.violations},
        not r.violations,
    )


def suite_lemma7(n_max: int = 1331, jobs: int = 1) -> VerificationReport:
    """Structure of many-point lines over odd prime powers with m >= 2, a = 1."""
    rep = VerificationReport("lemma7", {"n_max": n_max})
    tasks = _prime_powers_upto(n_max, min_m=2, odd_only=True)
    rep.cases.extend(_run_stacked(partial(_a1_stack_task, _line_class_case), tasks, itemgetter(2), jobs))
    return rep


# ---------------------------------------------------------------------------
# collinearity


def _collinearity_case(p: int, m: int, ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    r = verify_collinearity_bounds(ps, cen)
    computed = {
        "max_collinear": r.max_collinear,
        "limit": r.limit,
        "class_line_counts": r.class_line_counts,
        "violations": r.violations,
        "many_lines_regime": r.many_lines_regime,
    }
    return CaseRecord(f"{p}^{m}", {"p": p, "m": m, "a": 1}, {"violations": []}, computed, not r.violations)


def suite_collinearity(n_max: int = 1331, jobs: int = 1) -> VerificationReport:
    """Max collinearity bound and non-collinearity of classes, odd p**m, a = 1."""
    rep = VerificationReport("collinearity", {"n_max": n_max})
    tasks = _prime_powers_upto(n_max, odd_only=True, min_n=3)
    rep.cases.extend(_run_stacked(partial(_a1_stack_task, _collinearity_case), tasks, itemgetter(2), jobs))
    return rep


# ---------------------------------------------------------------------------
# prime-distance


def _prime_distance_task(p: int) -> CaseRecord:
    a_values = [a for a in dict.fromkeys((1, 2, 3, 4, p - 1)) if a % p != 0]
    failures = []
    for a, got in zip(a_values, distinct_counts(p, a_values)):
        want = prime_distance_count(a, p)
        if want != got:
            failures.append([a, want, got])
    return _failures_case(f"p{p}", {"p": p}, failures)


def suite_prime_distance(n_max: int = 499, jobs: int = 1) -> VerificationReport:
    """Closed form (p + (a/p))/2 versus brute force for a in {1, 2, 3, 4, p-1}."""
    rep = VerificationReport("prime-distance", {"n_max": n_max})
    tasks = [p for p in primes_upto(n_max) if p > 2]
    rep.cases.extend(_run_parallel(_prime_distance_task, tasks, jobs))
    return rep


# ---------------------------------------------------------------------------
# theorem14 (squared-modulus distance count formula vs brute force)

# Peak-RSS growth per residue a of p**2 with an explicit p, in a fresh process:
# the sampled mode lists every unit before sampling (40.1 B at p = 2003 and
# 4001), and --all-a holds a case record and its payload per unit (827 and
# 825 B at p = 307 and 503 with --jobs 1; 883 and 876 B in the caller with
# --jobs 2, where the extra process adds at most 320 B over the memory it
# forked with; kernel stubbed).  The list is freed before the kernel runs, and both figures
# pass the kernel's own 32 B, so they set the limit on p (p <= 6688 and p <= 1295).
_SAMPLED_BYTES_PER_RESIDUE = 48
_ALL_A_BYTES_PER_RESIDUE = 1280


def _check_theorem14_prime(p: int, all_a: bool) -> None:
    """Refuse p unless it is an odd prime whose residues mod p**2 fit the budget."""
    per_residue = _ALL_A_BYTES_PER_RESIDUE if all_a else _SAMPLED_BYTES_PER_RESIDUE
    # the budget first, so trial division never runs on a huge p
    check_unit_budget(p * p, per_residue, "for the theorem14 residues")
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def _formula_checks(p: int, a_values: list[int]) -> list[tuple[int, int, int]]:
    """(a, closed form, brute-force count) mod p**2 for every a, each side in one batch."""
    return list(zip(a_values, image_count_formulas(p, a_values), distinct_counts(p * p, a_values)))


def _formula_failures(p: int, a_values: list[int]) -> list[list[int]]:
    return [[a, want, got] for a, want, got in _formula_checks(p, a_values) if want != got]


def _theorem14_exhaustive_task(p: int) -> CaseRecord:
    a_values = [a for a in range(1, p * p) if a % p != 0]
    failures = _formula_failures(p, a_values)
    return _failures_case(f"p{p}-all-a", {"p": p, "checked": len(a_values)}, failures)


def _theorem14_sampled_task(task: tuple[int, int, int]) -> CaseRecord:
    p, samples, seed = task
    rng = random.Random(f"{seed}:{p}")
    units = [a for a in range(1, p * p) if a % p != 0]
    chosen = sorted(rng.sample(units, min(samples, len(units))))
    del units  # before the kernel runs, so the list and the kernel arrays never share the peak
    failures = _formula_failures(p, chosen)
    return _failures_case(f"p{p}-sampled", {"p": p, "checked": len(chosen)}, failures)


def _theorem14_residues_task(task: tuple[int, int]) -> list[CaseRecord]:
    """One case per unit a of p**2 with q*p < a < (q + 1)*p."""
    p, q = task
    checks = _formula_checks(p, list(range(q * p + 1, q * p + p)))
    return [CaseRecord(f"p{p}-a{a}", {"p": p, "a": a}, want, got, want == got) for a, want, got in checks]


def suite_theorem14(
    p: int | None = None,
    n_max: int = 31,
    all_a: bool = True,
    sample_primes: tuple[int, ...] = (37, 41, 53, 97),
    samples: int = 50,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> VerificationReport:
    """Distance-count formula mod p**2 equals brute force.

    With an explicit p the suite emits one case per tested a; the default
    sweep is exhaustive for odd primes up to n_max plus fixed-seed samples
    for the listed larger primes.
    """
    params = {"p": p, "n_max": n_max, "all_a": all_a, "samples": samples, "seed": seed}
    rep = VerificationReport("theorem14", params)
    if p is not None:
        _check_theorem14_prime(p, all_a)
        if all_a:
            for cases in _run_parallel(_theorem14_residues_task, [(p, q) for q in range(p)], jobs):
                rep.cases.extend(cases)
        else:
            rep.cases.append(_theorem14_sampled_task((p, samples, seed)))
        return rep
    ex_tasks = [q for q in primes_upto(n_max) if q > 2]
    rep.cases.extend(_run_parallel(_theorem14_exhaustive_task, ex_tasks, jobs))
    sm_tasks = [(q, samples, seed) for q in sample_primes]
    rep.cases.extend(_run_parallel(_theorem14_sampled_task, sm_tasks, jobs))
    return rep


# ---------------------------------------------------------------------------
# tables (regression fixtures)


def read_fixture_rows(path: Path | str) -> list[tuple[int, int, int, int]]:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            rows.append((int(row["p"]), int(row["m"]), int(row["a"]), int(row["expected_count"])))
    return rows


def _table_rows_task(rows: list[tuple[int, int, int, int]]) -> list[CaseRecord]:
    """The case records of fixture rows that share one modulus p**m."""
    p, m = rows[0][:2]
    counts = distinct_counts(p**m, [a for _, _, a, _ in rows])
    return [
        CaseRecord(f"p{p}-m{m}-a{a}", {"p": p, "m": m, "a": a}, expected, got, got == expected)
        for (p, m, a, expected), got in zip(rows, counts)
    ]


def suite_tables(fixtures: Path | str = DEFAULT_FIXTURES, jobs: int = 1) -> VerificationReport:
    """Reproduce every transcribed distinct-distance count exactly."""
    rows = read_fixture_rows(fixtures)
    rep = VerificationReport("tables", {"fixtures": str(fixtures), "rows": len(rows)})
    by_modulus: dict[int, list[int]] = {}
    for i, (p, m, _, _) in enumerate(rows):
        by_modulus.setdefault(p**m, []).append(i)
    moduli = sorted(by_modulus)
    tasks = [[rows[i] for i in by_modulus[n]] for n in moduli]
    cases: list[CaseRecord] = [None] * len(rows)
    for n, records in zip(moduli, _run_parallel(_table_rows_task, tasks, jobs)):
        for i, rec in zip(by_modulus[n], records):
            cases[i] = rec
    rep.cases.extend(cases)
    return rep


# ---------------------------------------------------------------------------
# general-pm (image decomposition at higher prime powers)


def _general_pm_task(task: tuple[int, int, int]) -> CaseRecord:
    p, m, a = task
    r = prime_power_image_report(a, PrimePower(p, m))
    # the denominator-4 identity holds exactly when both Legendre symbols are -1
    quarter_expected = r.leg_a == -1 and r.leg_neg_a == -1
    expected = {
        "bounds_ok": True,
        "correction_half_ok": True,
        "correction_quarter_ok": quarter_expected,
    }
    computed = {
        "ok": r.ok,
        "image_size": r.image_size,
        "half_phi": r.half_phi,
        "b1_size": r.b1_size,
        "b2_size": r.b2_size,
        "b1_preimages": r.b1_preimages,
        "b2_preimages": r.b2_preimages,
        "leg_a": r.leg_a,
        "leg_neg_a": r.leg_neg_a,
        "preimage_sizes_ok": r.preimage_sizes_ok,
        "max_preimage": r.max_preimage,
        "preimage_cap": r.preimage_cap,
        "cap_ok": r.cap_ok,
        "b_lower_ok": r.b_lower_ok,
        "nonres_case_ok": r.nonres_case_ok,
        "correction_half_ok": r.correction_half_ok,
        "correction_quarter_ok": r.correction_quarter_ok,
    }
    passed = r.ok and r.correction_quarter_ok == quarter_expected
    return CaseRecord(f"p{p}-m{m}-a{a}", {"p": p, "m": m, "a": a}, expected, computed, passed)


def suite_general_pm(
    primes: tuple[int, ...] = (3, 5, 7),
    ms: tuple[int, ...] = (3, 4),
    a_values: tuple[int, ...] = (1, 2, 3, 4),
    jobs: int = 1,
) -> VerificationReport:
    """Preimage sizes, caps and the correction identity at general p**m.

    The denominator-2 identity must hold in every case; the denominator-4
    variant coincides with it only when both Legendre symbols are -1, so it
    is expected to fail exactly when either symbol is +1.
    """
    rep = VerificationReport(
        "general-pm", {"primes": list(primes), "ms": list(ms), "a_values": list(a_values)}
    )
    tasks = [
        (p, m, a)
        for p in primes
        for m in ms
        for a in a_values
        if math.gcd(a, p) == 1
    ]
    rep.cases.extend(_run_parallel(_general_pm_task, tasks, jobs))
    return rep


# ---------------------------------------------------------------------------
# prop15 (lattice-rectangle intersection counting)


def _prop15_prime_task(p: int) -> tuple[int, list[dict]]:
    """Count every residue a of p**2 with (a/p) = 1 and return those whose counts disagree, ascending a.

    The direct and lattice counts come from one batched call each.  As
    a = b * (b + j*p) (mod p**2) with 0 < b < p/2, the root shift j is 0
    exactly at the squares a = b*b, and only those rows take divisor pairs.
    """
    squares = {b * b for b in range(1, (p + 1) // 2)}
    residues = {q % p for q in squares}
    a_values = [a for a in range(1, p * p) if a % p in residues]
    bad = []
    for a, direct, lattice in zip(a_values, intersection_counts(p, a_values), lattice_counts(p, a_values)):
        divisor_count = None
        if a in squares:
            data = sqrt_shift_data(a, p)
            if data.root_shift == 0:
                divisor_count = len(_divisor_pairs(data))
        if lattice != direct or divisor_count not in (None, direct):
            shift = sqrt_shift_data(a, p).root_shift
            bad.append({"a": a, "p": p, "direct": direct, "lattice": lattice, "shift": shift, "divisor_count": divisor_count})
    return len(a_values), bad


def suite_prop15(n_max: int = 61, jobs: int = 1) -> VerificationReport:
    """Direct, lattice-rectangle and divisor-pair intersection counts agree.

    Covers every residue a mod p**2 with (a/p) = 1 for odd primes up to
    n_max, and checks the a = 1 intersection equals 1 for 5 <= p <= 97.
    """
    rep = VerificationReport("prop15", {"n_max": n_max})
    tasks = [p for p in primes_upto(n_max) if p != 2]
    bad = []
    checked = 0
    for count, rows in _run_parallel(_prop15_prime_task, tasks, jobs):
        checked += count
        bad += rows
    rep.cases.append(
        CaseRecord(
            "lattice-agreement",
            {"n_max": n_max, "checked": checked},
            {"failures": []},
            {"failures": bad},
            not bad,
        )
    )
    for p in [q for q in primes_upto(97) if q >= 5]:
        got = intersection_direct(1, p)
        rep.cases.append(CaseRecord(f"a1-p{p}", {"a": 1, "p": p}, 1, got, got == 1))
    return rep


# ---------------------------------------------------------------------------
# gap


def suite_gap(ks: tuple[int, ...] = (1, 2, 3), bound: int = DEFAULT_GAP_BOUND, jobs: int = 1) -> VerificationReport:
    """Divisor-pair counts 2**k for the squared-primorial construction."""
    rep = VerificationReport("gap", {"ks": list(ks), "bound": bound})
    for k in ks:
        r = gap_experiment(k, bound=bound)
        rep.cases.append(
            CaseRecord(
                f"k{k}",
                {"k": k, "a": r.a, "p": r.p},
                {"pairs": 2**k, "cross_check": 2**k},
                {
                    "pairs": r.pair_count,
                    "cross_check": r.cross_check,
                    "gap": r.gap,
                    "image_count": r.image_count,
                },
                r.ok,
            )
        )
    return rep


SUITES = {
    "ordinary-moduli": suite_ordinary_moduli,
    "prime-lines": suite_prime_lines,
    "special-line": suite_special_line,
    "theorem6": suite_theorem6,
    "lemma7": suite_lemma7,
    "collinearity": suite_collinearity,
    "prime-distance": suite_prime_distance,
    "theorem14": suite_theorem14,
    "tables": suite_tables,
    "general-pm": suite_general_pm,
    "prop15": suite_prop15,
    "gap": suite_gap,
}
