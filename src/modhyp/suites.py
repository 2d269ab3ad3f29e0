"""Verification sweeps.

Every suite runs a family of exact checks over a parameter range and returns
a ``VerificationReport``.  Case work is pure and each worker returns its
finished ``CaseRecord``, so with ``jobs`` > 1 a sweep's tasks are shared by
the calling process and jobs - 1 forked ones, each drawing the next task
from one shared counter, the last task first; records are placed in task
order, making the report independent of the worker count.  Suites that
aggregate many tasks into one case (ordinary-moduli, prime-lines, prop15)
reduce their workers' results instead.  The line suites (theorem6, lemma7,
collinearity, ordinary-moduli, prime-lines) census their point sets in
stacks of (n, a) tasks, all through one worker, ``_census_stack_task``: it
builds the sets of each run of one modulus from one inversion
(``enumerate_many``), censuses every set of two or more points in one
``census_many`` call and returns one result per task.  One rule
(``_stacks``) makes every sweep's stacks from its ascending (n, a) tasks: a
run of one modulus whose sets alone cost _STACK_COST or more gets stacks of
its own, of at most _STACK_POINTS points (a large prime of prime-lines, or a
large a = 1 modulus alone), and every other task joins a contiguous run of
estimated cost under _STACK_COST.  The stacks are handed to the runner in
ascending estimated cost, so the costliest is drawn first, and their
results are put back in task order.
"""
from __future__ import annotations

import csv
import math
import multiprocessing
import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .distances import (
    _divisor_pairs,
    distance_rows,
    distinct_counts,
    gap_experiment,
    image_count_formulas,
    intersection_counts,
    intersection_direct,
    lattice_counts,
    prime_distance_count,
    prime_power_image_report,
    row_seconds,
    sqrt_shift_data,
)
from .geometry import (
    CENSUS_TIERS,
    IncidenceCensus,
    LineKey,
    census_many,
    census_tier,
    check_special_line,
    count_on_line,
    verify_collinearity_bounds,
    verify_line_classes,
    verify_ordinary_bound,
)
from .hyperbola import (
    EXACT_N_LIMIT,
    HyperbolaSpec,
    InfeasibleScale,
    PointSet,
    check_unit_budget,
    enumerate_many,
    enumerate_points,
)
from .ntcore import PrimePower, is_prime, primes_upto

DEFAULT_FIXTURES = Path("fixtures") / "distance_counts.csv"
DEFAULT_SEED = 12345


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
            "params": self.params,
            "summary": self.summary(),
            "cases": [
                {
                    "key": c.key,
                    "inputs": c.inputs,
                    "expected": c.expected,
                    "computed": c.computed,
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
# Census stacks per slope-code tier (``geometry.census_tier``: float32 or
# float64 quotients, by the stack's largest modulus) of every line sweep since
# the dict was last cleared; ``verify --verbose`` prints it too.
census_stacks: dict[str, int] = {}


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
    """An extra process's share, sent once at the end: its (index, result) pairs, busy
    seconds and distance rows by type, or the exception it raised and that exception's
    formatted traceback."""
    distance_rows.clear()  # the fork's copy of the caller's tally: count this process's rows only
    try:
        share = *_serve(worker, tasks, _draws(counter)), distance_rows
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


# The processes inherit the imported modules and the worker by fork; a
# forkserver or spawn start (the Linux default from Python 3.14) would import
# modhyp again in each of them.
_FORK = multiprocessing.get_context("fork")


def _run_parallel(worker, tasks, jobs):
    """worker(t) for every task, in task order, on ``jobs`` processes, the caller one of them.

    The caller forks jobs - 1 processes (no more than there are tasks to
    share) and works too.  Every process draws task indices from one shared
    counter, the last task first, so a sweep that lists its tasks in
    ascending cost has its costliest drawn first and its cheap head spread
    last: most sweeps list them in ascending size, and ``_run_stacked``
    orders its stacks by estimated cost.  Each extra process
    sends its (index, result) pairs once, when the counter runs dry; the
    caller places them by index and adds the process's distance rows to its
    own ``distance_rows``.  A worker's exception is raised again in the
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
    counter = _FORK.Value("q", len(tasks))
    procs = []
    try:
        for _ in range(min(jobs, len(tasks)) - 1):
            receiver, sender = _FORK.Pipe(duplex=False)
            proc = _FORK.Process(
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
            *share, rows = share
            for name, count in rows.items():
                distance_rows[name] = distance_rows.get(name, 0) + count
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


# Estimated cost of one stack, in units of n**2: every set adds _SET_COST on
# top of its n**2 pairs.  Serial times of the stack tasks of theorem6 and
# collinearity at --n-max 625, over the stacks of every cut from 2**18 to 2**22
# (best of 5, 2-core x86-64, BENCH_26.json), fit 0.85-0.90 ms per stack,
# 0.23-0.27 ms per set and 5.5-5.7 ms per 10**6 of the sum of n**2, so a set's
# fixed cost is worth 2**15.3 to 2**15.6 of n**2 and a stack's 2**17.3.  Every
# stack pays the same fixed cost, so it leaves their order alone; and on that fit
# _SET_COST = 2**14, 2**15 or 2**15.5 gives the same two-process finish time
# within 0.1 % at every --n-max up to 2500.
_SET_COST = 1 << 14


# Estimated cost of one line-sweep stack at most: one sweep task censuses a
# contiguous run of the ascending tasks in one census_many call, so the small
# moduli share its fixed cost, and a run of one modulus that costs this much
# alone gets stacks of its own (every a = 1 set from n = 1769 up).
# Coarser stacks pay the stack's fixed cost (2**17.3 of n**2, the fit above)
# fewer times, until padding the (S, K) grids to the widest set costs more than
# they save; and a cut that counts only n**2 lumps many cheap small sets into
# one stack that no second process can share (ordinary-moduli's default range).
# The stack layouts measured in BENCH_26.json put this one among the fastest
# for theorem6 and ordinary-moduli.  It does not depend on --jobs, so every job
# count runs the same censuses, and each process's peak memory follows the
# largest stack it draws: the caller's too, as it censuses its share of the
# stacks.
_STACK_COST = 3 << 20


# Points per census stack of a run of one modulus whose sets alone cost
# _STACK_COST or more (``_stacks``): every a of a prime-lines p <= 359 in one
# call from p = 113 up, and a few MB of stacked coordinates at any larger p;
# an a = 1 modulus from 1769 up is one set, so it is alone.  A pure cost cut
# of every prime-lines prime was 14-38 % slower at --n-max 401 and 1009.
_STACK_POINTS = 1 << 17


def _stacks(tasks: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Cut the (n, a) tasks, n ascending, into census stacks.

    A run of one modulus whose sets alone cost _STACK_COST or more gets
    stacks of its own, of at most _STACK_POINTS points (n a set, at least one
    set); every other task joins a contiguous run whose estimated cost stays
    under _STACK_COST.
    """
    stacks: list[list] = []
    total = _STACK_COST
    for n, run in groupby(tasks, itemgetter(0)):
        run = list(run)
        if _stack_cost(run) >= _STACK_COST:
            batch = max(1, _STACK_POINTS // n)
            stacks += [run[lo : lo + batch] for lo in range(0, len(run), batch)]
            total = _STACK_COST
            continue
        cost = n**2 + _SET_COST
        for task in run:
            if total + cost >= _STACK_COST:
                stacks.append([])
                total = 0
            stacks[-1].append(task)
            total += cost
    return stacks


# Estimated cost of forking and joining one extra sweep process, in the same
# units: a fork and join of the runner took a median 8.2 ms with a 34 MB heap
# (2-core x86-64, BENCH_26.json), 1.4-1.5 * 10**6 of n**2 at theorem6's and
# collinearity's 5.5-5.7 ms per 10**6, and 0.8 * 10**6 at lemma7's 10.7 ms.
_FORK_COST = 1 << 20


def _stack_cost(stack: list[tuple[int, int]]) -> int:
    return sum(n**2 + _SET_COST for n, _ in stack)


def _census_stack_task(case, stack: list[tuple[int, int]]) -> list:
    """case(point set, census) for each (n, a) of a stack, in task order.

    The sets of each run of one modulus come from one ``enumerate_many``
    call, and every set of two or more points is censused in one
    ``census_many`` call.  A one-point set (n = 2) spans no line: its case
    gets census None.
    """
    sets = []
    for n, run in groupby(stack, itemgetter(0)):
        sets += enumerate_many(n, [a for _, a in run])
    lined = [ps for ps in sets if len(ps) >= 2]
    censuses = iter(census_many(lined) if lined else ())
    return [case(ps, next(censuses) if len(ps) >= 2 else None) for ps in sets]


def _run_stacked(case, stacks: list[list[tuple[int, int]]], jobs: int) -> list:
    """``_census_stack_task(case, stack)`` for every stack, flattened in task order.

    The stacks go to ``_run_parallel`` in ascending estimated cost, so its
    counter draws the costliest first (longest processing time first): the
    first stack, of the many smallest moduli, often costs the most.  The
    results are put back in task order.  The caller runs every stack alone
    unless another process could take more than _FORK_COST off its share:
    the most it can take is the total cost less the costliest stack's, and
    no more than half the total.
    """
    for tier in CENSUS_TIERS:
        census_stacks.setdefault(tier, 0)
    for stack in stacks:
        n = max(n for n, _ in stack)
        if n > 2:  # the one point of n = 2 is never censused
            census_stacks[census_tier(n)] += 1
    costs = [_stack_cost(stack) for stack in stacks]
    order = sorted(range(len(stacks)), key=costs.__getitem__)
    total = sum(costs)
    if min(total - max(costs, default=0), total // 2) < _FORK_COST:
        jobs = 1
    done = _run_parallel(partial(_census_stack_task, case), [stacks[i] for i in order], jobs)
    return [r for _, results in sorted(zip(order, done)) for r in results]


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


def _ordinary_count(ps: PointSet, cen: IncidenceCensus | None) -> int:
    return cen.ordinary_count if cen else 0


def suite_ordinary_moduli(n_max: int = 200, jobs: int = 1) -> VerificationReport:
    """Exactly {2, 8, 12, 24} span no ordinary line; 3, 4 and 6 span exactly one."""
    rep = VerificationReport("ordinary-moduli", {"n_max": n_max})
    moduli = range(2, n_max + 1)
    if not moduli:
        return rep  # no case: the CLI refuses a range without a modulus
    results = dict(zip(moduli, _run_stacked(_ordinary_count, _stacks([(n, 1) for n in moduli]), jobs)))
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


def _prime_line_failure(ps: PointSet, cen: IncidenceCensus | None) -> list[int] | None:
    """[a, ordinary count, longest line] unless the set spans (p-1)(p-2)/2 ordinary lines and none longer.

    The one point of p = 2 spans no line, and (p-1)(p-2)/2 = 0 there.
    """
    p = ps.spec.n
    if cen and (cen.ordinary_count != (p - 1) * (p - 2) // 2 or cen.max_collinear != 2):
        return [ps.spec.a, cen.ordinary_count, cen.max_collinear]
    return None


def suite_prime_lines(n_max: int = 101, jobs: int = 1) -> VerificationReport:
    """Every prime hyperbola spans (p-1)(p-2)/2 ordinary lines and nothing longer."""
    rep = VerificationReport("prime-lines", {"n_max": n_max})
    primes = primes_upto(n_max)
    rows = iter(_run_stacked(_prime_line_failure, _stacks([(p, a) for p in primes for a in range(1, p)]), jobs))
    for p in primes:
        failures = [row for row in islice(rows, p - 1) if row]
        expected = {"ordinary": (p - 1) * (p - 2) // 2, "max_collinear": 2}
        rep.cases.append(CaseRecord(f"p{p}", {"p": p, "all_a": True}, expected, {"failures": failures}, not failures))
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


def _theorem6_case(ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    pp = ps.spec.prime_power
    r = verify_ordinary_bound(pp, cen)
    return CaseRecord(
        f"{pp.p}^{pp.m}",
        {"p": pp.p, "m": pp.m, "n": r.n},
        {"satisfied": True, "equality": r.equality_expected},
        {"ordinary": r.ordinary, "bound": str(r.bound), "ceil_bound": r.ceil_bound, "equality": r.equality},
        r.ok,
    )


def suite_theorem6(n_max: int = 2500, jobs: int = 1) -> VerificationReport:
    """Ordinary count >= ceil(exact rational bound); equality exactly where expected."""
    rep = VerificationReport("theorem6", {"n_max": n_max})
    tasks = [(n, 1) for _, _, n in _prime_powers_upto(n_max, min_n=3)]
    rep.cases.extend(_run_stacked(_theorem6_case, _stacks(tasks), jobs))
    return rep


# ---------------------------------------------------------------------------
# lemma7 (line class structure)


def _line_class_case(ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    pp = ps.spec.prime_power
    r = verify_line_classes(ps, cen)
    return CaseRecord(
        f"{pp.p}^{pp.m}",
        {"p": pp.p, "m": pp.m, "a": 1},
        {"violations": []},
        {"lines_checked": r.lines_checked, "violations": r.violations},
        not r.violations,
    )


def suite_lemma7(n_max: int = 1331, jobs: int = 1) -> VerificationReport:
    """Structure of many-point lines over odd prime powers with m >= 2, a = 1."""
    rep = VerificationReport("lemma7", {"n_max": n_max})
    tasks = [(n, 1) for _, _, n in _prime_powers_upto(n_max, min_m=2, odd_only=True)]
    rep.cases.extend(_run_stacked(_line_class_case, _stacks(tasks), jobs))
    return rep


# ---------------------------------------------------------------------------
# collinearity


def _collinearity_case(ps: PointSet, cen: IncidenceCensus) -> CaseRecord:
    pp = ps.spec.prime_power
    r = verify_collinearity_bounds(ps, cen)
    computed = {
        "max_collinear": r.max_collinear,
        "limit": r.limit,
        "class_line_counts": {str(i): count for i, count in r.class_line_counts.items()},
        "violations": r.violations,
        "many_lines_regime": r.many_lines_regime,
    }
    return CaseRecord(f"{pp.p}^{pp.m}", {"p": pp.p, "m": pp.m, "a": 1}, {"violations": []}, computed, not r.violations)


def suite_collinearity(n_max: int = 1331, jobs: int = 1) -> VerificationReport:
    """Max collinearity bound and non-collinearity of classes, odd p**m, a = 1."""
    rep = VerificationReport("collinearity", {"n_max": n_max})
    tasks = [(n, 1) for _, _, n in _prime_powers_upto(n_max, odd_only=True, min_n=3)]
    rep.cases.extend(_run_stacked(_collinearity_case, _stacks(tasks), jobs))
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

# Peak-RSS growth per residue a of p**2 with an explicit p and --all-a, in a
# fresh process: a case record and its payload per unit (886 and 890 B at
# p = 307 and 503 with --jobs 1; 938 and 942 B in the caller with --jobs 2;
# brute force stubbed by the closed form, so the intersection counts, which
# invert and gather a task's p - 1 residues in one batch, ran and added at
# most 5 B).  This passes the kernel's own 32 B, so it sets the limit
# p <= 1295; the sampled mode holds no per-residue list and stays within the
# kernel's budget, p <= 8192.
_ALL_A_BYTES_PER_RESIDUE = 1280


# The longest run, in estimated minutes of one process's work, that theorem14
# starts with an explicit p and --all-a.  Its p * (p - 1) rows of p * (p - 1)
# entries each reach it near p = 530 (``row_seconds``).  p = 1291, which the
# memory budget admits, is estimated at 17 hours, and its rows measured 35.7 ns
# an entry, which makes 27.
_ALL_A_MINUTES = 30


def _check_theorem14_prime(p: int, all_a: bool) -> None:
    """Refuse p unless it is an odd prime whose residues mod p**2 fit the budgets of memory and, for all_a, time."""
    # the budget first, so trial division never runs on a huge p
    if all_a:
        check_unit_budget(p * p, _ALL_A_BYTES_PER_RESIDUE, "for the theorem14 residues")
    else:
        check_unit_budget(p * p)
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    if all_a:
        entries = (p * (p - 1)) ** 2
        minutes = row_seconds(p * p, entries) / 60
        if minutes > _ALL_A_MINUTES:
            raise InfeasibleScale(
                f"theorem14 --p {p} --all-a counts {entries:.3g} row entries, about {minutes:.0f} minutes "
                f"of work, over the {_ALL_A_MINUTES}-minute budget"
            )


def _sampled_units(p: int, samples: int, seed: int) -> list[int]:
    """min(samples, p*(p - 1)) units of p**2, drawn with the seed, ascending."""
    rng = random.Random(f"{seed}:{p}")
    # index i of the p*(p - 1) units in ascending order is the unit
    # i // (p - 1) * p + i % (p - 1) + 1, so no list of them is built
    picks = rng.sample(range(p * p - p), min(samples, p * p - p))
    return sorted(i // (p - 1) * p + i % (p - 1) + 1 for i in picks)


def _formula_checks(task: tuple[int, Sequence[int]]) -> list[tuple[int, int, int]]:
    """(a, closed form, brute-force count) mod p**2 for every a, each side in one batch."""
    p, a_values = task
    return list(zip(a_values, image_count_formulas(p, a_values), distinct_counts(p * p, a_values)))


# the larger primes the default theorem14 sweep samples, past its exhaustive range
_THEOREM14_SAMPLE_PRIMES = (37, 41, 53, 97)


def suite_theorem14(
    p: int | None = None,
    n_max: int = 31,
    all_a: bool = True,
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
    # (p, case kind, a values): kind None gives one case per a, else one case of failures per task
    if p is None:
        tasks = [(q, "all-a", [a for a in range(1, q * q) if a % q != 0]) for q in primes_upto(n_max) if q > 2]
        if not tasks:
            return rep  # no case: the CLI refuses a range without a modulus
        tasks += [(q, "sampled", _sampled_units(q, samples, seed)) for q in _THEOREM14_SAMPLE_PRIMES]
    else:
        _check_theorem14_prime(p, all_a)
        if all_a:  # one task per q, over the units q*p < a < (q + 1)*p
            tasks = [(p, None, range(q * p + 1, q * p + p)) for q in range(p)]
        else:
            tasks = [(p, "sampled", _sampled_units(p, samples, seed))]
    results = _run_parallel(_formula_checks, [(q, a_values) for q, _, a_values in tasks], jobs)
    for (q, kind, a_values), checks in zip(tasks, results):
        if kind is None:
            rep.cases.extend(CaseRecord(f"p{q}-a{a}", {"p": q, "a": a}, want, got, want == got) for a, want, got in checks)
        else:
            failures = [[a, want, got] for a, want, got in checks if want != got]
            rep.cases.append(_failures_case(f"p{q}-{kind}", {"p": q, "checked": len(a_values)}, failures))
    return rep


# ---------------------------------------------------------------------------
# tables (regression fixtures)


def read_fixture_rows(path: Path | str) -> list[tuple[int, int, int, int]]:
    """(p, m, a, expected_count) of every row of a fixtures CSV; lines that start with # are comments.

    Raises ``ValueError`` naming the file line when a column is missing, a
    row lacks one of them or has more fields than the header, a field is
    not an integer, p**m is past ``EXACT_N_LIMIT`` or its units past the
    memory budget of ``check_unit_budget``, p is not prime or m < 1, p
    divides a, or the file holds no rows.
    """
    columns = ("p", "m", "a", "expected_count")
    with open(path, newline="") as fh:
        numbered = [(i, line) for i, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path} has no column {', '.join(missing)}")
    rows = []
    for row in reader:
        where = f"{path} line {numbered[reader.line_num - 1][0]}"
        values = [row[c] for c in columns]
        if None in values:  # DictReader fills the fields a short row lacks with None
            raise ValueError(f"{where} has no {columns[values.index(None)]}")
        if None in row:  # and keys the fields past the header by None
            raise ValueError(f"{where} has more fields than the header")
        try:
            p, m, a, expected = map(int, values)
        except ValueError:
            raise ValueError(f"{where} has a field that is not an integer: {','.join(values)}") from None
        if p < 2 or m < 1:
            raise ValueError(f"{where} is not a prime power p**m: p = {p}, m = {m}")
        # before is_prime, whose trial division runs for minutes at p near 10**20;
        # p**m is computed only for p and m that keep it small
        if p > EXACT_N_LIMIT or m >= EXACT_N_LIMIT.bit_length() or p**m > EXACT_N_LIMIT:
            raise ValueError(f"{where} has p**m past the int64-exact limit {EXACT_N_LIMIT}: p = {p}, m = {m}")
        try:
            check_unit_budget(p**m)
        except InfeasibleScale as exc:
            raise ValueError(f"{where} has p**m past the memory budget: p = {p}, m = {m}; {exc}") from None
        if not is_prime(p):
            raise ValueError(f"{where} is not a prime power p**m: p = {p}, m = {m}")
        if a % p == 0:
            raise ValueError(f"{where} has a = {a}, which p = {p} divides, so a is no unit mod p**m")
        rows.append((p, m, a, expected))
    if not rows:
        raise ValueError(f"{path} holds no rows")
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
    computed = {"ok": r.ok} | {k: v for k, v in asdict(r).items() if k not in ("p", "m", "a")}
    passed = r.ok and r.correction_quarter_ok == quarter_expected
    return CaseRecord(f"p{p}-m{m}-a{a}", {"p": p, "m": m, "a": a}, expected, computed, passed)


# general-pm's cases: p**m for every p and m below, with every a below that is prime to p
_GENERAL_PM_PRIMES = (3, 5, 7)
_GENERAL_PM_MS = (3, 4)
_GENERAL_PM_A_VALUES = (1, 2, 3, 4)


def suite_general_pm(jobs: int = 1) -> VerificationReport:
    """Preimage sizes, caps and the correction identity at general p**m.

    The denominator-2 identity must hold in every case; the denominator-4
    variant coincides with it only when both Legendre symbols are -1, so it
    is expected to fail exactly when either symbol is +1.
    """
    params = {"primes": list(_GENERAL_PM_PRIMES), "ms": list(_GENERAL_PM_MS), "a_values": list(_GENERAL_PM_A_VALUES)}
    rep = VerificationReport("general-pm", params)
    tasks = [
        (p, m, a)
        for p in _GENERAL_PM_PRIMES
        for m in _GENERAL_PM_MS
        for a in _GENERAL_PM_A_VALUES
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
    if not tasks:
        return rep  # no case: the CLI refuses a range without a modulus
    bad = []
    checked = 0
    for count, rows in _run_parallel(_prop15_prime_task, tasks, jobs):
        checked += count
        bad += rows
    rep.cases.append(_failures_case("lattice-agreement", {"n_max": n_max, "checked": checked}, bad))
    for p in [q for q in primes_upto(97) if q >= 5]:
        got = intersection_direct(1, p)
        rep.cases.append(CaseRecord(f"a1-p{p}", {"a": 1, "p": p}, 1, got, got == 1))
    return rep


# ---------------------------------------------------------------------------
# gap


def suite_gap(ks: tuple[int, ...] = (1, 2, 3), jobs: int = 1) -> VerificationReport:
    """Divisor-pair counts 2**k for the squared-primorial construction."""
    rep = VerificationReport("gap", {"ks": list(ks), "bound": EXACT_N_LIMIT})
    for k in ks:
        r = gap_experiment(k)
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
