"""Smoke tests of the benchmark itself, at a tiny size.

python3 -m pytest perfbench/test_smoke.py   (from the repository root)
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workload  # noqa: E402
from workload import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(name: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(name, trace):
    result, stdout = _run(name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in stdout
    assert "failed_frac = 0 " in stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_unshipped_seed_checks_invariants():
    result, _ = _run("census-large", 0, seed=987654)
    assert result["correct"] and result["attempted"] % len(workload.CENSUS_MODULI["tiny"]) == 0


def _refs():
    with open(workload.REFERENCES) as fh:
        return json.load(fh)


def test_gate_flags_wrong_verify_reference():
    refs = _refs()
    argv = workload.line_commands("tiny")[0]  # theorem6, includes 7^2
    wl = workload.Workload("line-sweep", "tiny", 3, refs)
    assert wl._verify(argv, 1) == []
    refs["verify"][workload.verify_key("tiny", argv)]["sha256"] = "0" * 64
    assert any(p.startswith("sha256") for p in wl._verify(argv, 1))


def test_gate_flags_lost_criterion_04():
    refs = _refs()
    argv = workload.line_commands("tiny")[0]
    ref = refs["verify"][workload.verify_key("tiny", argv)]
    assert ref["exit"] == 1 and ref["failing"] == ["7^2"]
    import modhyp.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = modhyp.cli.main(argv + ["--jobs", "1"])
    payload = json.loads(buf.getvalue())
    for case in payload["result"]["cases"]:
        case["pass"] = True
    forged = json.dumps(payload, indent=2)
    problems = workload.check_verify(argv, 0, forged, refs, "tiny")
    assert any("criterion-04" in p for p in problems)


def test_gate_flags_wrong_census_reference():
    refs = _refs()
    wl = workload.Workload("census-large", "tiny", 3, refs)
    a, n = wl.items[0]
    assert wl._census(a, n) == []
    hist = refs["census"][workload.census_key("tiny", 3, n)]["histogram"]
    hist["2"] += 1
    assert any("histogram" in p for p in wl._census(a, n))


def test_missing_program_exits_nonzero():
    # the benchmark's own directory holds no src/modhyp
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "line-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
