"""Suite plumbing: report round-trips, fixture parsing, worker-count independence."""
import json
import multiprocessing
import os
import random
import time
import types
from functools import partial
from pathlib import Path

import pytest

import modhyp
from modhyp import geometry, suites
from modhyp.ntcore import euler_phi, primes_upto
from modhyp.suites import (
    SUITES,
    read_fixture_rows,
    suite_gap,
    suite_general_pm,
    suite_ordinary_moduli,
    suite_prime_lines,
    suite_prop15,
    suite_tables,
    suite_theorem14,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "distance_counts.csv"


def test_public_names_exclude_submodules():
    assert modhyp.__all__ == sorted(modhyp.__all__)
    for name in modhyp.__all__:
        assert not isinstance(getattr(modhyp, name), types.ModuleType), name
    assert {"census", "enumerate_points", "PointSet", "SUITES"} <= set(modhyp.__all__)
    assert "hyperbola" not in modhyp.__all__


def test_report_roundtrip():
    # collinearity's class line counts are the reports' only dict keyed by
    # class; their keys must already be the strings JSON gives back
    for rep in (suite_ordinary_moduli(n_max=30), SUITES["collinearity"](n_max=125)):
        payload = rep.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["summary"]["pass"] == rep.passed
    assert payload["cases"][-1]["computed"]["class_line_counts"]["1"] > 0


def test_suite_registry_complete():
    for name in (
        "ordinary-moduli",
        "prime-lines",
        "special-line",
        "theorem6",
        "lemma7",
        "collinearity",
        "prime-distance",
        "theorem14",
        "tables",
        "general-pm",
        "gap",
        "prop15",
    ):
        assert name in SUITES


def test_ordinary_moduli_small_ranges():
    rep = suite_ordinary_moduli(n_max=7)
    by_key = {c.key: c for c in rep.cases}
    assert by_key["no-ordinary-set"].computed == [2]
    assert rep.passed


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("ordinary-moduli", {"n_max": 40}),
        ("prime-lines", {"n_max": 13}),
        ("special-line", {"n_max": 130}),
        ("lemma7", {"n_max": 130}),
        ("collinearity", {"n_max": 130}),
        ("prime-distance", {"n_max": 37}),
        ("theorem14", {"n_max": 7}),
        ("prop15", {"n_max": 13}),
        ("tables", {"fixtures": FIXTURES}),
        ("theorem14", {"p": 7, "all_a": True}),
        # at n <= 625 the line suites share many stacks of moduli
        ("theorem6", {"n_max": 625}),
        ("collinearity", {"n_max": 625}),
        ("lemma7", {"n_max": 625}),
        ("prime-lines", {}),
    ],
)
def test_jobs_do_not_change_reports(name, kwargs):
    one = SUITES[name](jobs=1, **kwargs).to_payload()
    two = SUITES[name](jobs=2, **kwargs).to_payload()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def _echo(size, t):
    # a result of size bytes, more than a pipe buffer holds when size > 64 KB
    return t, bytes([t % 256]) * size


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("count,size", [(1, 10), (2, 10), (7, 10), (40, 10), (5, 1 << 18)])
def test_run_parallel_matches_the_serial_loop(jobs, count, size):
    tasks = list(range(count))
    worker = partial(_echo, size)
    assert suites._run_parallel(worker, tasks, jobs) == [worker(t) for t in tasks]
    assert multiprocessing.active_children() == []


def _fail_in_a_process(drawn, fail, t):
    # each side draws one of two tasks: the caller's waits until the started
    # process has drawn the other, on which that process fails
    if multiprocessing.parent_process() is not None:
        drawn.set()
        fail()
    assert drawn.wait(timeout=60)
    return t


def _raise_value_error():
    raise ValueError("bad task")


def _exit_3():
    os._exit(3)


def _raise_after_draw(drawn, t):
    # the started process is still busy with its task when the caller raises
    if multiprocessing.parent_process() is not None:
        drawn.set()
        time.sleep(600)
    assert drawn.wait(timeout=60)
    raise KeyError("caller")


def test_run_parallel_raises_a_process_exception_in_the_caller():
    drawn = multiprocessing.Event()
    with pytest.raises(ValueError, match="bad task") as info:
        suites._run_parallel(partial(_fail_in_a_process, drawn, _raise_value_error), [0, 1], 2)
    # its cause carries the traceback from the process that raised it
    assert "_raise_value_error" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


def test_run_parallel_reports_a_process_that_exits_without_sending():
    drawn = multiprocessing.Event()
    with pytest.raises(RuntimeError, match="exited with code 3"):
        suites._run_parallel(partial(_fail_in_a_process, drawn, _exit_3), [0, 1], 2)
    assert multiprocessing.active_children() == []


def test_run_parallel_stops_its_processes_when_the_caller_fails():
    drawn = multiprocessing.Event()
    with pytest.raises(KeyError, match="caller"):
        suites._run_parallel(partial(_raise_after_draw, drawn), [0, 1], 2)
    assert multiprocessing.active_children() == []


def test_run_parallel_records_each_process_load(monkeypatch):
    # each task is drawn once: thousands of tiny tasks keep both processes drawing at once
    monkeypatch.setattr(suites, "process_loads", [])
    suites._run_parallel(partial(_echo, 10), list(range(5000)), 2)
    suites._run_parallel(partial(_echo, 10), list(range(4)), 1)
    loads = suites.process_loads
    assert len(loads) == 2 and sum(tasks for tasks, _ in loads) == 5004
    assert loads[0][0] >= 4 and all(busy >= 0 for _, busy in loads)


def test_run_parallel_forks_its_processes(monkeypatch):
    # forked processes inherit the imported modules, whatever the default start method
    fork, made = multiprocessing.get_context("fork"), []

    def refuse(*args, **kwargs):
        raise AssertionError("the default context was used")

    def recording(factory):
        def make(*args, **kwargs):
            made.append(factory.__name__)
            return factory(*args, **kwargs)

        return make

    monkeypatch.setattr(multiprocessing, "Process", refuse)
    monkeypatch.setattr(multiprocessing, "Value", refuse)
    monkeypatch.setattr(fork, "Process", recording(fork.Process))
    monkeypatch.setattr(fork, "Value", recording(fork.Value))
    assert suites._run_parallel(partial(_echo, 10), [0, 1, 2], 3) == [_echo(10, t) for t in range(3)]
    assert sorted(made) == ["ForkProcess", "ForkProcess", "Value"]


def test_line_stacks_are_drawn_costliest_first(monkeypatch):
    # with jobs = 1 the worker runs the stacks in the order _run_parallel gets
    # them; they ascend in estimated cost (a reversed task list would not), so
    # the counter, which draws the last first, draws the costliest first: at
    # n <= 625 that is the third stack in task order, of the 14 moduli from 419
    whole = SUITES["theorem6"](n_max=625).to_payload()
    census_stack_task = suites._census_stack_task
    stacks = []

    def recording(case, stack):
        stacks.append(stack)
        return census_stack_task(case, stack)

    monkeypatch.setattr(suites, "_census_stack_task", recording)
    assert SUITES["theorem6"](n_max=625, jobs=1).to_payload() == whole
    costs = [suites._stack_cost(stack) for stack in stacks]
    assert costs == sorted(costs)
    first = next(suites._draws(multiprocessing.Value("q", len(stacks))))
    assert costs[first] == max(costs)
    assert len(stacks[first]) == 14 and stacks[first][0] == (419, 1)
    tasks = [(n, 1) for _, _, n in suites._prime_powers_upto(625, min_n=3)]
    assert sorted(t for stack in stacks for t in stack) == tasks


def test_line_suites_fork_only_where_it_pays(monkeypatch):
    # at n <= 625 lemma7 has one stack, so no other process could take any of
    # it; theorem6 and collinearity leave about 13 * 10**6 of n**2 beside their
    # costliest stack.  Prime-lines at p <= 13 costs under _FORK_COST in all,
    # and at p <= 101 leaves about 2 * 10**7 beside its costliest prime
    fork, started = suites._FORK, []

    def recording(*args, **kwargs):
        started.append(args)
        return process(*args, **kwargs)

    process = fork.Process
    monkeypatch.setattr(fork, "Process", recording)
    runs = [("lemma7", 625, 0), ("theorem6", 625, 1), ("collinearity", 625, 1), ("prime-lines", 13, 0), ("prime-lines", 101, 1)]
    for name, n_max, processes in runs:
        started.clear()
        two = SUITES[name](n_max=n_max, jobs=2).to_payload()
        assert len(started) == processes, (name, n_max)
        assert json.dumps(two) == json.dumps(SUITES[name](n_max=n_max, jobs=1).to_payload())
    started.clear()
    assert SUITES["lemma7"](n_max=8, jobs=2).cases == [] and not started  # no stack at all
    assert multiprocessing.active_children() == []


def test_prime_lines_small_primes_share_cost_cut_stacks(monkeypatch):
    # every p whose p - 1 sets cost under _STACK_COST (p <= 109) goes into the
    # contiguous cost cut of the a = 1 sweeps: 8 census_many calls at p <= 101,
    # each (p, a) in exactly one; from p = 113 on each stack holds one p
    census_many = suites.census_many
    stacks = []

    def recording(sets):
        stacks.append([(ps.spec.n, ps.spec.a) for ps in sets])
        return census_many(sets)

    monkeypatch.setattr(suites, "census_many", recording)
    assert suite_prime_lines(n_max=101).passed
    assert len(stacks) == 8
    tasks = [(p, a) for p in primes_upto(101) if p > 2 for a in range(1, p)]
    assert sorted(t for stack in stacks for t in stack) == tasks
    assert all(suites._stack_cost(stack) < suites._STACK_COST for stack in stacks)
    stacks.clear()
    assert suite_prime_lines(n_max=139).passed
    merged = [{p for p, _ in stack} for stack in stacks]
    assert any(109 in ps and len(ps) > 1 for ps in merged)
    for p in (113, 127, 131, 137, 139):
        assert [ps for ps in merged if p in ps] == [{p}]


def test_prime_lines_stacks_split_by_point_budget(monkeypatch):
    # from p = 113 on the sets of one p go to census_many in stacks of at most
    # _STACK_POINTS points (several above p = 359); with no prime under the
    # cost cut, a small budget splits every p here
    whole = suite_prime_lines(n_max=31).to_payload()
    census_many = suites.census_many
    stacks = []

    def recording(sets):
        stacks.append((sets[0].spec.n, len(sets)))
        return census_many(sets)

    monkeypatch.setattr(suites, "_STACK_COST", 1)
    monkeypatch.setattr(suites, "_STACK_POINTS", 40)
    monkeypatch.setattr(suites, "census_many", recording)
    assert suite_prime_lines(n_max=31).to_payload() == whole
    assert all(p * size <= 40 or size == 1 for p, size in stacks)
    assert [size for p, size in stacks if p == 13] == [3, 3, 3, 3]
    assert sum(size for p, size in stacks if p == 31) == 30


def test_prime_lines_split_stacks_do_not_depend_on_jobs(monkeypatch):
    # split primes put stacks of one p among others of every cost, in both
    # processes; a check that reports every set shows each row back in its place.
    # Under this cost cut p <= 53 share stacks and 59 and 61 split by points
    whole = suite_prime_lines(n_max=61).to_payload()
    monkeypatch.setattr(suites, "_STACK_COST", 1 << 20)
    monkeypatch.setattr(suites, "_STACK_POINTS", 200)
    one = suite_prime_lines(n_max=61, jobs=1).to_payload()
    two = suite_prime_lines(n_max=61, jobs=2).to_payload()
    assert json.dumps(one) == json.dumps(two) == json.dumps(whole)

    def every_set(ps, cen):
        return [ps.spec.a, cen.ordinary_count if cen else 0, ps.spec.n]

    monkeypatch.setattr(suites, "_prime_line_failure", every_set)
    one = suite_prime_lines(n_max=61, jobs=1).to_payload()
    two = suite_prime_lines(n_max=61, jobs=2).to_payload()
    assert json.dumps(one) == json.dumps(two)
    for case in one["cases"]:
        p = case["inputs"]["p"]
        assert case["computed"]["failures"] == [[a, (p - 1) * (p - 2) // 2, p] for a in range(1, p)]


@pytest.mark.parametrize("suite", [suite_ordinary_moduli, suite_prime_lines])
def test_line_suites_pass_on_the_one_point_set_alone(monkeypatch, suite):
    # n = 2 has the single point (1, 1), which census_many never receives
    census_many = suites.census_many
    received = []

    def recording(sets):
        received.extend(sets)
        return census_many(sets)

    monkeypatch.setattr(suites, "census_many", recording)
    rep = suite(n_max=2)
    assert rep.passed and len(rep.cases) == 1 and received == []


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("theorem6", {"n_max": 300}),
        ("lemma7", {"n_max": 130}),
        ("collinearity", {"n_max": 130}),
        ("ordinary-moduli", {"n_max": 60}),
    ],
)
def test_line_suite_stacks_do_not_change_reports(monkeypatch, name, kwargs):
    # the a = 1 sets of a contiguous run of moduli go to census_many together;
    # every modulus alone, or the whole range in one stack, gives the same report
    whole = SUITES[name](**kwargs).to_payload()
    census_many = suites.census_many
    stacks = []

    def recording(sets):
        stacks.append(len(sets))
        return census_many(sets)

    monkeypatch.setattr(suites, "census_many", recording)
    monkeypatch.setattr(suites, "_STACK_COST", 1)
    assert SUITES[name](**kwargs).to_payload() == whole
    assert set(stacks) == {1} and len(stacks) > 1
    stacks.clear()
    monkeypatch.setattr(suites, "_STACK_COST", 1 << 62)
    assert SUITES[name](**kwargs).to_payload() == whole
    assert len(stacks) == 1 and stacks[0] > 1


def test_collinearity_censuses_each_modulus_once(monkeypatch):
    # the class line totals come from the set's own census: collinearity hands
    # census_many one whole a = 1 set per modulus and no x mod p class
    received = []
    census_many = geometry.census_many

    def recording(sets):
        received.extend((ps.spec.n, ps.spec.a, len(ps)) for ps in sets)
        return census_many(sets)

    monkeypatch.setattr(geometry, "census_many", recording)
    monkeypatch.setattr(suites, "census_many", recording)
    assert SUITES["collinearity"](n_max=625, jobs=1).passed
    moduli = [n for _, _, n in suites._prime_powers_upto(625, odd_only=True, min_n=3)]
    assert sorted(received) == [(n, 1, euler_phi(n)) for n in moduli]


def test_prop15_reports_the_rows_whose_counts_disagree(monkeypatch):
    # lattice counts off by one at a = 4 (root 2, shift 0) and a = 6 (root 1,
    # shift 1) of 5**2: the case fails and names exactly those two rows
    lattice_counts = suites.lattice_counts

    def off_by_one(p, a_values):
        return [c + (p == 5 and a in (4, 6)) for a, c in zip(a_values, lattice_counts(p, a_values))]

    monkeypatch.setattr(suites, "lattice_counts", off_by_one)
    rep = suite_prop15(n_max=7)
    case = rep.cases[0]
    assert case.key == "lattice-agreement" and not case.passed and not rep.passed
    assert case.inputs == {"n_max": 7, "checked": 3 + 10 + 21}
    assert case.computed["failures"] == [
        {"a": 4, "p": 5, "direct": 0, "lattice": 1, "shift": 0, "divisor_count": 0},
        {"a": 6, "p": 5, "direct": 0, "lattice": 1, "shift": 1, "divisor_count": None},
    ]


def test_read_fixture_rows():
    rows = read_fixture_rows(FIXTURES)
    assert len(rows) == 86
    assert rows[0] == (3, 1, 1, 2)
    assert (7, 7, 3, 352947) in rows


def test_tables_suite_on_subset(tmp_path):
    sub = tmp_path / "sub.csv"
    sub.write_text("p,m,a,expected_count\n3,2,1,4\n5,2,4,11\n7,2,2,22\n")
    rep = suite_tables(fixtures=sub)
    assert rep.passed and len(rep.cases) == 3


def test_tables_suite_detects_mismatch(tmp_path):
    sub = tmp_path / "bad.csv"
    sub.write_text("p,m,a,expected_count\n3,2,1,5\n")
    rep = suite_tables(fixtures=sub)
    assert not rep.passed


def test_theorem14_single_prime_case_count():
    rep = suite_theorem14(p=13, all_a=True)
    assert len(rep.cases) == 156  # phi(13^2)
    assert rep.passed


def test_theorem14_sampling_is_seeded():
    a = suite_theorem14(p=37, all_a=False, samples=10, seed=7).to_payload()
    b = suite_theorem14(p=37, all_a=False, samples=10, seed=7).to_payload()
    c = suite_theorem14(p=37, all_a=False, samples=10, seed=8).to_payload()
    assert a == b
    assert a["cases"][0]["inputs"] == c["cases"][0]["inputs"]  # same shape either way


def test_theorem14_samples_match_the_unit_list():
    # oracle: the draw from the explicit ascending list of the units of p**2
    for p in (3, 5, 7, 37, 101):  # random.sample takes its pool path on small p, its set path on large p
        units = [a for a in range(1, p * p) if a % p != 0]
        for samples in (1, 5, 50):
            for seed in (0, 7):
                rng = random.Random(f"{seed}:{p}")
                want = sorted(rng.sample(units, min(samples, len(units))))
                assert suites._sampled_units(p, samples, seed) == want, (p, samples, seed)


def test_gap_suite():
    rep = suite_gap(ks=(1, 2))
    assert rep.passed
    assert [c.key for c in rep.cases] == ["k1", "k2"]


def test_general_pm_expectations():
    rep = suite_general_pm()
    assert rep.passed
    by_key = {c.key: c for c in rep.cases}
    # a=1: residue side nonempty, quarter variant must fail
    assert by_key["p5-m3-a1"].expected["correction_quarter_ok"] is False
    # a=2: both symbols -1, the two variants coincide
    assert by_key["p5-m3-a2"].expected["correction_quarter_ok"] is True
