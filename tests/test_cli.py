"""CLI contract: exit codes, formats, determinism, cache round-trips."""
import json
from pathlib import Path

import pytest

from modhyp.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "distance_counts.csv"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_points_csv(capsys):
    rc, out, _ = run(capsys, "points", "--a", "1", "--n", "5", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["x,y", "1,1", "2,3", "3,2", "4,4"]


def test_points_single_row(capsys):
    rc, out, _ = run(capsys, "points", "--a", "1", "--n", "2", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["x,y", "1,1"]


def test_points_invalid_input(capsys):
    rc, _, err = run(capsys, "points", "--a", "2", "--n", "4")
    assert rc == 2
    assert "gcd" in err


def test_missing_modulus(capsys):
    rc, _, err = run(capsys, "census", "--a", "1")
    assert rc == 2
    assert "--n" in err


def test_bound_enforced(capsys):
    rc, _, err = run(capsys, "points", "--a", "1", "--n", "3", "--bound", "2")
    assert rc == 2
    assert "bound" in err


def test_census_limit_checked_before_enumeration(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("points enumerated before the census limit check")

    monkeypatch.setattr("modhyp.cli.enumerate_points", refuse)
    rc, _, err = run(capsys, "census", "--a", "1", "--n", "1048583")
    assert rc == 2
    assert str(2**20) in err


def test_points_memory_budget(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("unit_partners reached")

    monkeypatch.setattr("modhyp.hyperbola.unit_partners", refuse)
    rc, out, err = run(capsys, "points", "--a", "1", "--n", str(2**22 + 1))
    assert rc == 2
    assert out == ""
    assert "point tuples" in err and "budget" in err


def test_kernel_limit_ignores_bound(capsys):
    rc, _, err = run(capsys, "distances", "--a", "1", "--n", str(2**32), "--bound", str(2**40))
    assert rc == 2
    assert str(2**31) in err


def test_census_json(capsys):
    rc, out, _ = run(capsys, "census", "--a", "1", "--n", "7")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"]["ordinary"] == 15
    assert payload["result"]["max_collinear"] == 2


def test_census_prime_power_flags(capsys):
    rc, out, _ = run(capsys, "census", "--a", "1", "--p", "3", "--m", "2", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1] == "9,1,15,2"


def test_distances_values(capsys):
    rc, out, _ = run(capsys, "distances", "--a", "1", "--n", "9", "--values")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 4
    assert payload["result"]["values"] == [2, 29, 65, 128]


def test_verify_exit_codes(capsys, tmp_path):
    rc, out, _ = run(capsys, "verify", "ordinary-moduli", "--n-max", "50", "--jobs", "1")
    assert rc == 0
    assert json.loads(out)["pass"] is True

    bad = tmp_path / "bad.csv"
    bad.write_text("p,m,a,expected_count\n3,2,1,5\n")
    rc, out, _ = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 1
    assert json.loads(out)["pass"] is False


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_identical_across_jobs(capsys):
    rc1, out1, _ = run(capsys, "verify", "prime-lines", "--n-max", "13", "--jobs", "1")
    rc2, out2, _ = run(capsys, "verify", "prime-lines", "--n-max", "13", "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_tables_fixture(capsys):
    rc, out, _ = run(capsys, "verify", "tables", "--fixtures", str(FIXTURES), "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,pass"
    assert len(lines) == 87


def test_verify_cache_rerun_diffs_empty(capsys, tmp_path, monkeypatch):
    args = ["verify", "gap", "--k", "1", "--cache-dir", str(tmp_path)]
    rc, out1, err1 = run(capsys, *args)
    assert rc == 0
    rc, out2, err2 = run(capsys, *args)
    assert rc == 0
    assert out1 == out2
    assert "no differences" in err2
    files = sorted(tmp_path.glob("gap-*.json"))
    assert len(files) == 2
    # cached payload equals the emitted payload
    assert json.loads(files[-1].read_text()) == json.loads(out2)


def test_cache_dir_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODHYP_CACHE_DIR", str(tmp_path))
    rc, _, _ = run(capsys, "verify", "gap", "--k", "1")
    assert rc == 0
    assert list(tmp_path.glob("gap-*.json"))


def test_gap_command(capsys):
    rc, out, _ = run(capsys, "gap", "--k", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"] == {
        "a": 9,
        "p": 11,
        "root": 3,
        "pairs": 2,
        "expected_pairs": 2,
        "cross_check": 2,
        "gap": 1,
        "image_count": 54,
    }
    assert payload["pass"] is True


def test_gap_scale_guard(capsys):
    rc, _, err = run(capsys, "gap", "--k", "20")
    assert rc == 2
    assert "bound" in err


def test_text_format_smoke(capsys):
    rc, out, _ = run(capsys, "distances", "--a", "1", "--n", "9", "--format", "text")
    assert rc == 0
    assert "count: 4" in out
    rc, out, _ = run(capsys, "verify", "gap", "--k", "1", "--format", "text")
    assert rc == 0
    assert out.strip().endswith("PASS")
