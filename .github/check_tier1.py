"""Judge a tier-1 JUnit XML report: criterion-04 must fail, and nothing else.

    python .github/check_tier1.py tier1.xml

Exit status 1 when the report holds no test, when any test other than
criterion-04 failed or errored (collection errors included), or when
criterion-04 did not fail.  Criterion-04 asserts the paper's equality
N(49) = 771 at 7^2; the census gives 795, and that refutation stays visible
instead of being deselected or marked xfail.
"""
from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = "test_criterion_04_ordinary_line_lower_bound"


def problems(path: str) -> list[str]:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = [c for c in cases if c.find("failure") is not None or c.find("error") is not None]
    found = []
    if not cases:
        found.append("the report holds no test")
    for case in failed:
        if case.get("name") != EXPECTED:
            found.append(f"unexpected failure: {case.get('classname')}::{case.get('name')}")
    if not any(case.get("name") == EXPECTED for case in failed):
        found.append(f"{EXPECTED} did not fail: the N(49) = 795 refutation is no longer visible")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    found = problems(argv[0])
    for line in found:
        print(line, file=sys.stderr)
    if not found:
        print(f"ok: {EXPECTED} is the only failure")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
