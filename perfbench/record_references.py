"""Record the reference outputs the benchmark checks against.

For every verify command of every workload and size: the exit code, the
SHA-256 of the JSON report, its case count and failing case keys.  A command
that takes the seed (theorem14) is recorded per shipped seed, plus one
seed-free entry without the hash that other seeds are checked against.  For
census-large: the drawn a and the full histogram per shipped seed and modulus.

Re-record only when a change is meant to alter a verified result, and say so:
python3 perfbench/record_references.py   (from the repository root)
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from workload import (
    HERE, REFERENCES, census_inputs, census_key, distance_commands, line_commands,
    seedless_key, summarize_verify, verify_key,
)

SHIPPED_SEEDS = range(16)


def _verify(argv: list[str]) -> dict:
    import modhyp.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = modhyp.cli.main(argv + ["--jobs", "1"])
    return summarize_verify(rc, buf.getvalue())


def record() -> dict:
    from modhyp.geometry import census
    from modhyp.hyperbola import HyperbolaSpec, enumerate_points

    refs: dict = {"verify": {}, "census": {}}
    for size in ("full", "tiny"):
        for argv in line_commands(size):
            refs["verify"][verify_key(size, argv)] = _verify(argv)
        for seed in SHIPPED_SEEDS:
            for argv in distance_commands(size, seed):
                if seed > 0 and "--seed" not in argv:
                    continue
                entry = _verify(argv)
                refs["verify"][verify_key(size, argv)] = entry
                if "--seed" in argv:
                    seedless = {k: entry[k] for k in ("exit", "cases", "failing")}
                    prior = refs["verify"].setdefault(seedless_key(size, argv), seedless)
                    if prior != seedless:
                        raise SystemExit(f"{argv}: outcome depends on the seed: {prior} vs {seedless}")
            for a, n in census_inputs(size, seed):
                cen = census(enumerate_points(HyperbolaSpec(a, n)))
                refs["census"][census_key(size, seed, n)] = {
                    "a": a, "histogram": {str(t): c for t, c in cen.histogram.items()},
                }
            print(f"recorded {size} seed {seed}", file=sys.stderr)
    return refs


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(REFERENCES, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCES, os.path.dirname(HERE))}", file=sys.stderr)
