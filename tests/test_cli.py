"""CLI contract: exit codes, formats, determinism, flags."""
import hashlib
import json
import re
from pathlib import Path

import pytest

from modhyp import cli
from modhyp.cli import _default_jobs, _suite_kwargs, build_parser, main
from modhyp.hyperbola import HyperbolaSpec, enumerate_points
from modhyp.ntcore import is_prime
from modhyp.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures" / "distance_counts.csv"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_points_csv(capsys):
    rc, out, _ = run(capsys, "points", "--a", "1", "--n", "5", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["x,y", "1,1", "2,3", "3,2", "4,4"]


def test_points_text_streams_the_row_list(capsys):
    # printed row by row, the text form keeps the bytes of the one-string repr
    rc, out, _ = run(capsys, "points", "--a", "3", "--n", "49", "--format", "text")
    assert rc == 0
    ps = enumerate_points(HyperbolaSpec(3, 49))
    result = [[x, y] for x, y in ps.points]
    assert out == f"command: points\n  a: 3\n  n: 49\nresult: {result}\n"


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


def test_prime_power_flags_fail_fast(capsys):
    # p**m is never built past the int64-exact limit, however large m is
    rc, _, err = run(capsys, "census", "--a", "1", "--p", "3", "--m", "10000000")
    assert rc == 2
    assert "int64-exact" in err
    rc, _, err = run(capsys, "census", "--a", "1", "--p", "1", "--m", "10000000")
    assert rc == 2
    assert "--p" in err


def test_prime_power_flags_need_a_prime(capsys, monkeypatch):
    tested = []

    def recording_is_prime(p):
        tested.append(p)
        return is_prime(p)

    monkeypatch.setattr("modhyp.cli.is_prime", recording_is_prime)
    rc, out, err = run(capsys, "census", "--a", "1", "--p", "4", "--m", "2")
    assert rc == 2 and out == ""
    assert "--p 4 is not a prime" in err
    # a huge composite base stops at the int64 limit, before any trial division
    rc, out, err = run(capsys, "census", "--a", "1", "--p", str(10**30), "--m", "1")
    assert rc == 2 and out == ""
    assert "int64-exact" in err
    assert tested == [4]


def test_theorem14_prime_checked_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("theorem14 task reached")

    monkeypatch.setattr("modhyp.suites._formula_checks", refuse)
    for argv, reason in [
        (["--p", "15"], "not an odd prime"),
        (["--p", "2"], "not an odd prime"),
        (["--p", "46349"], "int64-exact"),  # p**2 > 2**31
        (["--p", "20011"], "budget"),
        (["--p", "1297", "--all-a"], "budget"),
    ]:
        rc, out, err = run(capsys, "verify", "theorem14", *argv, "--jobs", "1")
        assert rc == 2, argv
        assert out == ""
        assert reason in err, argv


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
    rc, out, err = run(capsys, "points", "--a", "1", "--n", str(2**23 + 1))
    assert rc == 2
    assert out == ""
    assert "point rows" in err and "budget" in err
    with pytest.raises(AssertionError):  # 2**23 passes the guard
        main(["points", "--a", "1", "--n", str(2**23)])


def test_oversized_modulus_refused_before_factoring(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("n factorized by trial division")

    monkeypatch.setattr("modhyp.ntcore.PrimePower.from_modulus", refuse)
    for n in (2**32, 2**61 - 1):
        rc, out, err = run(capsys, "distances", "--a", "1", "--n", str(n))
        assert rc == 2 and out == ""
        assert "int64-exact" in err and str(2**31) in err


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


@pytest.mark.parametrize(
    "suite, n_max",
    [
        ("theorem6", "2"),
        ("lemma7", "8"),
        ("collinearity", "-5"),
        ("special-line", "8"),
        ("prime-distance", "2"),
        ("ordinary-moduli", "-5"),
        ("prop15", "2"),
        ("theorem14", "-5"),
    ],
)
def test_verify_refuses_a_range_without_a_modulus(capsys, suite, n_max):
    # a range that holds no modulus would otherwise report a pass over zero cases
    for fmt in ("json", "text"):
        rc, out, err = run(capsys, "verify", suite, "--n-max", n_max, "--jobs", "1", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == f"error: verify {suite} --n-max {n_max}: the range holds no modulus to check\n"


def test_verify_keeps_a_range_with_one_modulus(capsys):
    # the smallest ranges that hold a modulus still run: theorem6 from 3, lemma7 from 9
    smallest = [
        ("theorem6", "3"),
        ("lemma7", "9"),
        ("prime-lines", "2"),
        ("ordinary-moduli", "2"),
        ("prop15", "3"),
        ("theorem14", "3"),
    ]
    for suite, n_max in smallest:
        rc, out, _ = run(capsys, "verify", suite, "--n-max", n_max, "--jobs", "1")
        assert rc == 0 and json.loads(out)["result"]["summary"]["total"] >= 1, suite


def test_verify_tables_refuses_a_fixture_without_a_column(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,m,expected_count\n3,2,4\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "no column a" in err and "Traceback" not in err


def test_verify_tables_refuses_a_fixture_without_rows(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# no rows yet\np,m,a,expected_count\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(empty))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "holds no rows" in err


def test_verify_tables_refuses_a_row_without_a_field(capsys, tmp_path):
    # a row shorter than the header is named by its line in the file, comments counted
    short = tmp_path / "short.csv"
    short.write_text("# two rows\np,m,a,expected_count\n3,1,1,2\n# the next one is cut short\n3,2,1\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(short))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "line 5 has no expected_count" in err and "Traceback" not in err


def test_verify_tables_refuses_a_row_with_an_extra_field(capsys, tmp_path):
    long = tmp_path / "long.csv"
    long.write_text("p,m,a,expected_count\n3,1,1,2\n3,2,1,5,99\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(long))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "line 3 has more fields than the header" in err


@pytest.mark.parametrize("row", ["4,2,1,3", "3,0,1,1", "1,2,1,1"])
def test_verify_tables_refuses_a_row_that_is_no_prime_power(capsys, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"p,m,a,expected_count\n# a comment\n{row}\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{bad} line 3 is not a prime power" in err


def test_verify_tables_refuses_a_row_whose_a_is_no_unit(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,m,a,expected_count\n3,1,1,2\n3,2,3,5\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{bad} line 3 has a = 3, which p = 3 divides" in err


# p near 10**20 would keep the primality test busy for minutes, and m = 10**9
# would make p**m huge: both are refused by size first
@pytest.mark.parametrize("row", ["1000003,3,1,5", "100000000000000000039,1,1,1", "2,1000000000,1,1", "2,32,1,1"])
def test_verify_tables_refuses_a_row_past_the_int64_limit(capsys, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"p,m,a,expected_count\n{row}\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{bad} line 2 has p**m past the int64-exact limit" in err


def test_verify_tables_refuses_a_row_past_the_memory_budget(capsys, tmp_path):
    # 8209**2 = 67387681 is within the int64-exact limit, but its units would
    # need about 2056 MB, over the 2048 MB budget
    bad = tmp_path / "bad.csv"
    bad.write_text("p,m,a,expected_count\n3,1,1,2\n8209,2,1,1\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{bad} line 3 has p**m past the memory budget: p = 8209, m = 2" in err
    assert "2056 MB" in err and "Traceback" not in err


def test_verify_tables_refuses_a_field_that_is_no_integer(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,m,a,expected_count\n3,2,x,5\n")
    rc, out, err = run(capsys, "verify", "tables", "--fixtures", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{bad} line 2 has a field that is not an integer" in err


def test_suite_range_defaults_come_from_the_suites(capsys):
    parser = build_parser()
    ranged = set()
    for suite in SUITES:
        assert "n_max" not in _suite_kwargs(parser.parse_args(["verify", suite]))
        kw = _suite_kwargs(parser.parse_args(["verify", suite, "--n-max", "7"]))
        if "n_max" in kw:
            assert kw["n_max"] == 7
            ranged.add(suite)
    assert set(SUITES) - ranged == {"tables", "general-pm", "gap"}  # they ignore --n-max
    rc, out, _ = run(capsys, "verify", "ordinary-moduli", "--jobs", "1")
    assert rc == 0
    assert json.loads(out)["params"]["n_max"] == 200


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_identical_across_jobs(capsys):
    rc1, out1, _ = run(capsys, "verify", "prime-lines", "--n-max", "13", "--jobs", "1")
    rc2, out2, _ = run(capsys, "verify", "prime-lines", "--n-max", "13", "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("suite", ["theorem6", "lemma7", "collinearity"])
def test_line_sweep_json_identical_across_jobs(capsys, suite):
    # the stacks are drawn costliest first and their results put back in task order
    outs = [run(capsys, "verify", suite, "--n-max", "625", "--format", "json", "--jobs", jobs)[1] for jobs in "123"]
    assert outs[0] == outs[1] == outs[2]


def test_verbose_prints_each_process_load(capsys):
    rc, plain, _ = run(capsys, "verify", "prime-distance", "--n-max", "13", "--jobs", "2")
    rc, out, err = run(capsys, "verify", "prime-distance", "--n-max", "13", "--jobs", "2", "--verbose")
    assert rc == 0 and out == plain
    lines = err.splitlines()
    assert re.fullmatch(r"verify prime-distance: \d+\.\d\ds", lines[0])
    loads = [re.fullmatch(r"  (caller|process 1): (\d+) tasks, \d+\.\d\ds busy", line) for line in lines[1:-1]]
    assert [m.group(1) for m in loads] == ["caller", "process 1"]
    assert sum(int(m.group(2)) for m in loads) == 5  # the odd primes up to 13
    assert lines[-1].startswith("peak RSS: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verbose_prints_the_peak_rss(capsys, jobs):
    # after the process loads: the caller's peak, and the largest sweep
    # process's when the sweep forked one (prime-distance at p <= 13 forks at
    # --jobs 2); the report is the same bytes
    rc, plain, _ = run(capsys, "verify", "prime-distance", "--n-max", "13", "--jobs", jobs)
    rc, out, err = run(capsys, "verify", "prime-distance", "--n-max", "13", "--jobs", jobs, "--verbose")
    assert rc == 0 and out == plain
    lines = err.splitlines()
    assert len(lines) == 2 + int(jobs)
    sweeps = r", sweep processes (\d+\.\d) MB" if jobs == "2" else ""
    peak = re.fullmatch(rf"peak RSS: caller (\d+\.\d) MB{sweeps}", lines[-1])
    assert peak and all(float(mb) > 1 for mb in peak.groups())


def test_verbose_prints_the_census_stacks_by_tier(capsys):
    # one line for a line sweep, counted in the caller whatever --jobs is;
    # theorem6 at n <= 2903 puts 2903, the one prime power in 2898..2903, past the
    # float32 tier's n <= 2897
    for jobs in "12":
        rc, plain, _ = run(capsys, "verify", "prime-lines", "--format", "json", "--jobs", jobs)
        rc, out, err = run(capsys, "verify", "prime-lines", "--format", "json", "--jobs", jobs, "--verbose")
        assert rc == 0 and out == plain
        assert err.splitlines()[-1] == "census stacks: 8 (float32 8, float64 0)"
    rc, _, err = run(capsys, "verify", "theorem6", "--n-max", "2903", "--jobs", "1", "--verbose")
    assert err.splitlines()[-1] == "census stacks: 264 (float32 263, float64 1)"
    rc, _, err = run(capsys, "verify", "prime-distance", "--n-max", "13", "--verbose")
    assert "census" not in err  # no line sweep, no census


def test_default_jobs_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    assert _default_jobs() == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert _default_jobs() == 16
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert _default_jobs() == 1


def test_verify_tables_fixture(capsys):
    rc, out, _ = run(capsys, "verify", "tables", "--fixtures", str(FIXTURES), "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,pass"
    assert len(lines) == 87


def test_report_cache_is_gone(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "gap", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    monkeypatch.setenv("MODHYP_CACHE_DIR", str(tmp_path))
    rc, _, err = run(capsys, "verify", "gap", "--k", "1")
    assert rc == 0 and err == ""
    assert not any(tmp_path.iterdir())


def test_verbose_is_a_verify_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["points", "--a", "1", "--n", "5", "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    rc, plain, _ = run(capsys, "verify", "gap", "--k", "1")
    assert rc == 0
    rc, out, err = run(capsys, "verify", "gap", "--k", "1", "--verbose")
    assert rc == 0
    assert out == plain
    assert re.fullmatch(r"verify gap: \d+\.\d\ds\npeak RSS: caller \d+\.\d MB\n", err)


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


def test_gap_scale_guard(capsys, monkeypatch):
    def refuse(a):
        raise AssertionError("prime search reached")

    monkeypatch.setattr("modhyp.distances.next_prime", refuse)
    for k in ("4", "20"):
        rc, _, err = run(capsys, "gap", "--k", k)
        assert rc == 2
        assert "int64-exact" in err


def test_text_format_smoke(capsys):
    rc, out, _ = run(capsys, "distances", "--a", "1", "--n", "9", "--format", "text")
    assert rc == 0
    assert "count: 4" in out
    rc, out, _ = run(capsys, "verify", "gap", "--k", "1", "--format", "text")
    assert rc == 0
    assert out.strip().endswith("PASS")


# SHA-256 of `modhyp verify <suite> --format json --jobs 1`, recorded before the
# suite workers returned case records; every refactor must keep these bytes.
# The default prime-lines range and collinearity up to 625 were recorded before
# the batched census, whose stacks of equal-size sets they reach
REPORT_DIGESTS = [
    ("ordinary-moduli", ["--n-max", "40"], 0, "c274fdb0456924ede85af5827955f5b0782dd9c981e99967718b9ec3ff6fa766"),
    ("prime-lines", ["--n-max", "13"], 0, "0152ddfe3347d860f505ad4de28bd443f000b1de7192d9296d9733616ba52bc8"),
    ("prime-lines", [], 0, "24fcca19d8e795f3a08f34d763d4ba564c407da4eec60e8c65cdfef0ba0ae721"),
    ("special-line", ["--n-max", "130"], 0, "2f4aeced014fef73fc303cee23ed8aed83a59348605823e085fa5faa747693ea"),
    ("theorem6", ["--n-max", "130"], 1, "1f9fdce38a7c8d6b1b9aeddb75da22589de8e575e53c6526eabdb5904d99f000"),
    ("lemma7", ["--n-max", "130"], 0, "09d007b6599cce407a690cb126f610c0eefb91efe339e2d962b98e7ee2ba461d"),
    ("collinearity", ["--n-max", "130"], 0, "7c779eabc0dc800f5ea4fd545217c2fd5552922916b21f280746e0ed355ef757"),
    ("collinearity", ["--n-max", "625"], 0, "e864a63d2acd9d351e2185e34e55998de2a16094f0fb5a2397a4a6551c6ec83a"),
    ("prime-distance", ["--n-max", "37"], 0, "10d0d9437fd3fddd70ea5d8d8befb39c34f1182c568f073f43280b6401c62ab2"),
    ("theorem14", ["--n-max", "7", "--samples", "5"], 0, "b8f220615ee249d6892856ffed5ab6f46c2d6b82520b95aca9f0f4d23097d4ea"),
    ("theorem14", ["--p", "5", "--all-a"], 0, "7f21ebf60266ae2c28e050375d787b71f025bf5d83f323eacbea1078391ce692"),
    ("theorem14", ["--p", "11", "--samples", "5"], 0, "13b2fbf1c61508508a8b411c19e48520e4162d3d1bc679885a14d50556018359"),
    ("tables", [], 0, "4c11ae03b2ead06cfd37270dad0bf8bf2cd156f72f010b0db4bbe9c4663f2ad7"),
    ("general-pm", [], 0, "aba10c7c2990064433af1b623aa79b27272f2b4d2a7ebcf4ec97dd17ff97bc80"),
    ("prop15", ["--n-max", "13"], 0, "f7470a0ea0e85c7798125357553134dd85e522a6c9bbb78dcf961b1e00272972"),
    ("gap", [], 0, "a027bdb369990bd755a80777a168c824389dbc2eb68ccb5d221fbc24d4e0c87d"),
    # commands of the distance-sweep benchmark, recorded before the batched
    # distance kernels
    ("theorem14", ["--seed", "1", "--n-max", "19"], 0, "5ea5f8942304e55b97cc45f13968e1d90ad4e7b91a17fbd06ee46c7d91b9a3e3"),
    ("prop15", ["--n-max", "41"], 0, "6e70ff1b3e6636645b5574b080f574ce4a1a2b144dfc4fc2eb43b981df5c0cb1"),
    ("prime-distance", [], 0, "537b9636ed85caccac4b40903a51e80a25dcc36778b11c3c737dbd2276773457"),
    ("theorem14", ["--p", "7", "--all-a"], 0, "db8b38dc3b42954bafdfe005a435ee5cdd4e2f056e009813045b22e883a3ca2b"),
    # recorded before sqrt_mod_prime lost its scan path and the root-shift
    # data its -a root, both of which prop15 reaches
    ("prop15", [], 0, "c3d22f3166e7fc36fbe7a65456279f25ff03fcf8d28bc599df11e18720f13e59"),
    # the line-sweep benchmark's range, recorded before the line suites
    # censused stacks of mixed moduli, which this range fills with many moduli
    ("theorem6", ["--n-max", "625"], 1, "233be525392b23e48304da3b4c4ef73ac8e2e7f693569902427372c0e72a72ad"),
    ("lemma7", ["--n-max", "625"], 0, "1dced11860fdd4887cbbcee2e992032970b74cc82c0ad07a0e66f70785c30455"),
    # the default range, recorded before the census summarised its sets from
    # the stacked line counts; every stack of it reads ordinary_count
    ("ordinary-moduli", [], 0, "04289bef07d4ff6ac32b032f8f6bcf64ef84536043a2df0b04e50e24e0ce3a07"),
    # the default range (n <= 1331, with 11^3 and 31^2), recorded before the
    # class line totals were derived from the set's own census and lemma 7's
    # recount, which both suites now share
    ("collinearity", [], 0, "569adea8379e40527882af8a5034e47c31879d29bf36691745757d0b607aa7d1"),
    ("lemma7", [], 0, "7620a69396ed00bfc6ded0dc9b6fe2b5bc95128061e0d1cae89b8136e3d45a3b"),
    # the default range (n <= 2500, 401 prime powers; exits 1 on criterion-04
    # at 7^2), the largest census range, recorded before the census rows
    # sorted bare slope codes and rebuilt the rich-line keys from them
    ("theorem6", [], 1, "4729b53e028084fd158bec3143e4d9655312deedea126611a911414600dc6e00"),
    # p <= 109 in shared cost-cut stacks, 113 to 139 in stacks of one p each;
    # recorded before the small primes shared stacks and took int32 rows
    ("prime-lines", ["--n-max", "139"], 0, "cae9ae771a3a17c33a987f4d552d3298a5953b1b6a51b3f1d4cab9d2a5aa30b2"),
    # the default ranges (special-line n <= 2500; theorem14 every odd p <= 31
    # and its seeded samples), unchanged since the line suites shared one
    # census worker, and the same at --jobs 1 and 2
    ("special-line", [], 0, "62df2246fc2e4bde91e94045a9e3b0c46bd0e92a20c980c73325395612ada019"),
    ("theorem14", [], 0, "c8b99d91914aa351ec8a44e646f9ac379168063c523a5a95a1b032609827deb2"),
]


@pytest.mark.parametrize(
    "suite,extra,code,digest",
    REPORT_DIGESTS,
    ids=["_".join([suite, *(arg.lstrip("-") for arg in extra)]) for suite, extra, _, _ in REPORT_DIGESTS],
)
def test_verify_report_digests(capsys, monkeypatch, suite, extra, code, digest):
    monkeypatch.chdir(ROOT)  # the tables report names its default fixture path as given
    rc, out, _ = run(capsys, "verify", suite, *extra, "--format", "json", "--jobs", "1")
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the `points`, `census` and `distances --values` output in every
# format, recorded before points became arrays end to end; the edge code that
# turns the arrays into rows must keep these bytes.  `gap` takes its index k in
# the second field and no modulus; its digests were recorded before the
# root-shift data it reads through divisor_pairs lost its -a root
EDGE_DIGESTS = [
    ("points", 1, 49, "json", "75f56e12cecccdca88303776dca8b516b6755484af566d1bc2e43ff10d32b314"),
    ("points", 1, 49, "csv", "3ecba39467a9ad55eca714e8b36832b54eadd26c51b6ff2f346d4bd8f773b8cc"),
    ("points", 1, 49, "text", "84a5990a5ef6256ee834b8864d935e750e570385fce64c654c35cdafb9ae0003"),
    ("points", 3, 343, "json", "38cb02fe71aa0989743b17afc3c7d38393e8a190f23791edd2851d0f1306954d"),
    ("points", 3, 343, "csv", "f0e66b3e4f52111d1f7e6b98d6c24f45d74b0d0b2a45e9ac0635c3a00bd835a4"),
    ("points", 3, 343, "text", "e11821cb6a4557d9519e307510978123f4f5fdcb274eee7f34d275ea84d34f69"),
    ("census", 1, 49, "json", "3a84fbbbaf1e34272178c250025cf2fa13f1856c738904ad84d3bfd254a57a71"),
    ("census", 1, 49, "csv", "b1c99335ebb2c830cc87905c20dd7da9a20c9d42a0b0b2d5ea7da20488c6451e"),
    ("census", 1, 49, "text", "91e7bed2b9353b9a3f1e117ff0166679d3c66d2b9d20d438a363bb9545ac79e2"),
    ("census", 3, 343, "json", "03594a80b2786b8716aafaef13897bed153e7c3b4d059e9e487d246c00a0df89"),
    ("census", 3, 343, "csv", "6178ec25e19ad399e081d9f2dfe89dd7724ca08cfb7e4c36164454568ea6f41d"),
    ("census", 3, 343, "text", "391d3e66193e9a41982a66dda667ca54a86937260995e9d58373045ed564ec34"),
    # the smallest prime past the float32 tier, recorded while its slopes were
    # coded dy * dx**-1 mod 2**31 - 1
    ("census", 1, 3001, "json", "e8286c968095fc768f72c809ded611b419ffab520045693ec8b9a66899675752"),
    ("distances", 1, 49, "json", "1e6010c8898626c00ca4621479ee67184cbb6aa381abc38e6291c704957980bb"),
    ("distances", 1, 49, "csv", "ad335f12777b4d6648fbe787aeb3d5d0e57be931df1b7f5cbcacb127ae244f49"),
    ("distances", 1, 49, "text", "be1abdfc293f1381ee2826a537e88f181c08f70295b73b985b1367ccd977dc15"),
    ("distances", 3, 343, "json", "69280896769b7381761216514a59e34e8460648e604536427261239803bd3a79"),
    ("distances", 3, 343, "csv", "42b848bafeb055ce1913b5c21719c78d2a81a86dcc61b087030017c15c3bdc25"),
    ("distances", 3, 343, "text", "8090e5e7c9de68c066b1adfccae17c18c30e9c4845aa7bca235509e4495a90d2"),
    ("gap", 2, None, "json", "a2f04a4f839f37b49f012a0f68630484a604abbcf67a94820c9817a8f4f4a951"),
    ("gap", 2, None, "csv", "19507a66383ae842e46968bdbdfe1b299c8486b15ea5ebf2b503bb375ccfa161"),
    ("gap", 2, None, "text", "21c76e53938a449ff21b857f24ca5d5aa69c38c5e527dcb1df946d1247ec1e24"),
]


@pytest.mark.parametrize(
    "command,a,n,fmt,digest",
    EDGE_DIGESTS,
    ids=["_".join(str(v) for v in row[:4] if v is not None) for row in EDGE_DIGESTS],
)
def test_edge_output_digests(capsys, command, a, n, fmt, digest):
    if command == "gap":
        args = ["--k", str(a)]
    else:
        args = ["--a", str(a), "--n", str(n), *(["--values"] if command == "distances" else [])]
    rc, out, _ = run(capsys, command, *args, "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
