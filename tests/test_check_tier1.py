"""The CI judge of the tier-1 report, .github/check_tier1.py, on synthetic JUnit XML."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", SCRIPT)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

CRITERION_04 = (
    '<testcase classname="tests.test_acceptance" name="test_criterion_04_ordinary_line_lower_bound">{}</testcase>'
)
FAILURE = '<failure message="assert 795 == 771">N(49) = 795</failure>'


def _case(name, body="", classname="tests.test_geometry"):
    return f'<testcase classname="{classname}" name="{name}">{body}</testcase>'


def _report(tmp_path, *cases):
    path = tmp_path / "tier1.xml"
    body = "".join(cases)
    path.write_text(f'<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">{body}</testsuite></testsuites>')
    return str(path)


def _passing():
    return [_case("test_census_examples"), _case("test_skipped", '<skipped message="no"/>'), CRITERION_04.format(FAILURE)]


def test_criterion_04_failing_alone_passes(tmp_path, capsys):
    assert check_tier1.main([_report(tmp_path, *_passing())]) == 0
    assert "is the only failure" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, reason",
    [
        (_case("test_census_again", '<failure message="boom"/>'), "unexpected failure: tests.test_geometry::test_census_again"),
        (_case("test_census_setup", '<error message="fixture"/>'), "unexpected failure: tests.test_geometry::test_census_setup"),
        # how pytest reports a module that fails to import under --continue-on-collection-errors
        (
            _case("tests.test_broken", '<error message="collection failure">ImportError</error>', classname=""),
            "unexpected failure: ::tests.test_broken",
        ),
    ],
)
def test_any_other_failure_or_error_fails(tmp_path, capsys, extra, reason):
    assert check_tier1.main([_report(tmp_path, *_passing(), extra)]) == 1
    assert reason in capsys.readouterr().err


def test_criterion_04_passing_fails(tmp_path, capsys):
    assert check_tier1.main([_report(tmp_path, _case("test_census_examples"), CRITERION_04.format(""))]) == 1
    assert "did not fail" in capsys.readouterr().err


def test_an_empty_report_fails(tmp_path, capsys):
    assert check_tier1.main([_report(tmp_path)]) == 1
    assert "holds no test" in capsys.readouterr().err


def test_the_script_exits_with_the_verdict(tmp_path):
    # CI runs the file as a script: its exit status is the verdict, 2 without a report
    good, bad = _report(tmp_path, *_passing()), str(tmp_path / "bad.xml")
    Path(bad).write_text(Path(good).read_text().replace(FAILURE, ""))
    runs = [subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True) for args in ([good], [bad], [])]
    assert [run.returncode for run in runs] == [0, 1, 2]
