"""Suite plumbing: report round-trips, fixture parsing, worker-count independence."""
import json
import multiprocessing
import os
import time
import types
from functools import partial
from pathlib import Path

import pytest

import modhyp
from modhyp import suites
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
    rep = suite_ordinary_moduli(n_max=30)
    payload = rep.to_payload()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["summary"]["pass"] == rep.passed


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


def test_prime_lines_stacks_split_by_point_budget(monkeypatch):
    # above p = 359 the sets of one p go to census_many in several stacks of
    # at most _STACK_POINTS points; a small budget splits every p here
    whole = suite_prime_lines(n_max=31).to_payload()
    census_many = suites.census_many
    stacks = []

    def recording(sets):
        stacks.append((sets[0].spec.n, len(sets)))
        return census_many(sets)

    monkeypatch.setattr(suites, "_STACK_POINTS", 40)
    monkeypatch.setattr(suites, "census_many", recording)
    assert suite_prime_lines(n_max=31).to_payload() == whole
    assert all(p * size <= 40 or size == 1 for p, size in stacks)
    assert [size for p, size in stacks if p == 13] == [3, 3, 3, 3]
    assert sum(size for p, size in stacks if p == 31) == 30


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
    monkeypatch.setattr(suites, "_STACK_SQUARES", 1)
    assert SUITES[name](**kwargs).to_payload() == whole
    assert set(stacks) == {1} and len(stacks) > 1
    stacks.clear()
    monkeypatch.setattr(suites, "_STACK_SQUARES", 1 << 62)
    assert SUITES[name](**kwargs).to_payload() == whole
    assert len(stacks) == 1 and stacks[0] > 1


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


def test_gap_suite():
    rep = suite_gap(ks=(1, 2))
    assert rep.passed
    assert [c.key for c in rep.cases] == ["k1", "k2"]


def test_general_pm_expectations():
    rep = suite_general_pm(primes=(5,), ms=(3,), a_values=(1, 2))
    assert rep.passed
    by_key = {c.key: c for c in rep.cases}
    # a=1: residue side nonempty, quarter variant must fail
    assert by_key["p5-m3-a1"].expected["correction_quarter_ok"] is False
    # a=2: both symbols -1, the two variants coincide
    assert by_key["p5-m3-a2"].expected["correction_quarter_ok"] is True
