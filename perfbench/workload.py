"""Run one benchmark workload in a fresh process and check every output.

Protocol with ``run.py``: after set-up (imports, references, fixtures and the
seeded inputs) the process prints ``READY``.  Untraced, it then reads stdin:
each ``pass`` line runs one timed, checked pass, with a host-speed probe
before and after each of its items, and answers with one JSON line holding
its time and the probe times; at end of input it prints one JSON line with
the check counts and the peak RSS.  Traced, it runs its passes at once and prints that
line with the layer metrics added.  With ``--setup-only`` it exits right after
``READY``.

Usage: python3 perfbench/workload.py --workload NAME --seed N
       [--trace 0|1] [--size full|tiny] [--setup-only]
Run from the repository root; modhyp is imported from ./src.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("census-large", "line-sweep", "line-sweep-par", "distance-sweep")

CENSUS_MODULI = {"full": (2197, 2401, 3001, 3125), "tiny": (49, 125, 127, 343)}
TRACE_ROUNDS = 3  # untraced/traced pass pairs in a traced run
# criterion-04: the paper's equality at 7^2 is refuted, N(49) = 795 > 771
CRITERION_04 = ("7^2", 795)


def line_commands(size: str) -> list[list[str]]:
    n_max, prime_max = ("625", None) if size == "full" else ("125", "23")
    cmds = [["verify", s, "--n-max", n_max] for s in ("theorem6", "lemma7", "collinearity")]
    cmds.append(["verify", "prime-lines"] + (["--n-max", prime_max] if prime_max else []))
    return cmds


def distance_commands(size: str, seed: int) -> list[list[str]]:
    if size == "full":
        return [
            ["verify", "tables", "--fixtures", "perfbench/data/distance_counts_le120000.csv"],
            ["verify", "theorem14", "--seed", str(seed), "--n-max", "19"],
            ["verify", "prop15", "--n-max", "41"],
            ["verify", "prime-distance"],
            ["verify", "general-pm"],
            ["verify", "gap"],
        ]
    return [
        ["verify", "tables", "--fixtures", "perfbench/data/tiny_fixtures.csv"],
        ["verify", "theorem14", "--seed", str(seed), "--n-max", "7", "--samples", "2"],
        ["verify", "prop15", "--n-max", "13"],
        ["verify", "prime-distance", "--n-max", "40"],
        ["verify", "general-pm"],
        ["verify", "gap", "--k", "1"],
    ]


def census_inputs(size: str, seed: int) -> list[tuple[int, int]]:
    """(a, n) per modulus; a is drawn from the seed and coprime to n."""
    rng = random.Random(seed)
    out = []
    for n in CENSUS_MODULI[size]:
        a = rng.randrange(1, n)
        while math.gcd(a, n) != 1:
            a = rng.randrange(1, n)
        out.append((a, n))
    return out


def verify_key(size: str, argv: list[str]) -> str:
    return f"{size} " + " ".join(argv)


def seedless_key(size: str, argv: list[str]) -> str:
    """Reference key shared by every seed: the seed value replaced by '*'."""
    out = list(argv)
    if "--seed" in out:
        out[out.index("--seed") + 1] = "*"
    return verify_key(size, out)


def census_key(size: str, seed: int, n: int) -> str:
    return f"{size} seed={seed} n={n}"


# ---------------------------------------------------------------------------
# host-speed probe
#
# The shared host running the benchmark changes speed by up to a factor of
# two over spells of seconds to minutes.  A fixed piece of work that does not
# touch modhyp, run before the first item of each pass and after each item,
# measures the host's speed at that moment, so that a pass time can be
# rescaled to a host of reference speed.  It mixes interpreted integer and set
# work (as in the distance and suite layers) with numpy sorting and gcd (as in
# the census).  The probe reacts more strongly to the host's speed than the
# workloads do: over three sets of ten runs (40 to 80 passes per workload and
# set), log(pass time) fell with log(probe speed) at slopes of 0.37 to 0.80,
# lowest for census-large and highest for the pure-Python distance-sweep.
# Of the exponents tried (0.5 to 0.8), 0.75 to 0.8 kept the largest
# run-to-run spread and drift of any workload lowest in those sets.

PROBE_INTS = 200_000
PROBE_ARRAY_LEN = 120_000
PROBE_REF_S = 0.143  # median probe time on the reference host (see README)
PROBE_EXPONENT = 0.75  # times are multiplied by (PROBE_REF_S / probe) ** this


def probe(array) -> float:
    """Seconds the fixed probe work takes now."""
    import numpy as np

    t0 = time.perf_counter()
    seen = set()
    for x in range(1, PROBE_INTS):
        seen.add(x * x % 1_000_003)
    np.unique(array)
    np.gcd(array, 12_345_678)
    return time.perf_counter() - t0


def probe_array():
    import numpy as np

    return np.random.default_rng(0).integers(0, 1 << 40, size=PROBE_ARRAY_LEN)


# ---------------------------------------------------------------------------
# checks: each returns the list of problems found (empty when correct)


def summarize_verify(rc: int, out: str) -> dict:
    payload = json.loads(out)
    cases = payload["result"]["cases"]
    return {
        "exit": rc,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "bytes": len(out.encode()),
        "cases": len(cases),
        "failing": [c["key"] for c in cases if not c["pass"]],
    }


def check_verify(argv: list[str], rc: int, out: str, refs: dict, size: str) -> list[str]:
    exact = refs["verify"].get(verify_key(size, argv))
    ref = exact or refs["verify"].get(seedless_key(size, argv))
    if ref is None:
        return [f"no reference for {verify_key(size, argv)!r}"]
    got = summarize_verify(rc, out)
    fields = ("exit", "cases", "failing") + (("sha256",) if exact else ())
    problems = [f"{f}: expected {ref[f]!r}, got {got[f]!r}" for f in fields if got[f] != ref[f]]
    payload = json.loads(out)
    if "--seed" in argv:
        seed = int(argv[argv.index("--seed") + 1])
        if payload["params"].get("seed") != seed:
            problems.append(f"seed {seed} not applied: params {payload['params']}")
    if argv[1] == "theorem6" and int(argv[argv.index("--n-max") + 1]) >= 49:
        key, ordinary = CRITERION_04
        case = next((c for c in payload["result"]["cases"] if c["key"] == key), None)
        if rc != 1 or case is None or case["pass"] or case["computed"]["ordinary"] != ordinary:
            problems.append(f"criterion-04 outcome changed: exit {rc}, case {case}")
    return problems


def _phi(n: int) -> int:
    return sum(1 for x in range(1, n) if math.gcd(x, n) == 1)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_census(result: dict, ref: dict | None) -> list[str]:
    """Invariants of one census, plus the recorded histogram when there is one."""
    a, n, points = result["a"], result["n"], result["points"]
    hist = result["histogram"]
    k = len(points)
    problems = []
    if k != _phi(n):
        problems.append(f"{k} points, expected phi({n})")
    if any(x * y % n != a for x, y in points) or any(p[0] >= q[0] for p, q in zip(points, points[1:])):
        problems.append("point set is not the sorted solution set of x*y = a")
    if sum(c * t * (t - 1) // 2 for t, c in hist.items()) != k * (k - 1) // 2:
        problems.append("pair-count identity violated")
    rich = {t: c for t, c in hist.items() if t >= 3}
    if (result["rich_lines"], result["rich_points"]) != (sum(rich.values()), sum(t * c for t, c in rich.items())):
        problems.append("rich lines emitted disagree with the histogram")
    if _is_prime(n) and hist != {2: (n - 1) * (n - 2) // 2}:
        problems.append(f"prime {n}: expected only (p-1)(p-2)/2 ordinary lines, got {hist}")
    if ref is not None:
        if ref["a"] != a:
            problems.append(f"seed drew a = {a}, reference has {ref['a']}")
        elif {int(t): c for t, c in ref["histogram"].items()} != hist:
            problems.append(f"histogram differs from reference at n = {n}")
    return problems


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    def __init__(self, name: str, size: str, seed: int, refs: dict):
        import modhyp.cli  # noqa: F401  (its import time belongs to set-up)

        self.name, self.size, self.seed, self.refs = name, size, seed, refs
        self.report_bytes = 0
        if name == "census-large":
            self.items = census_inputs(size, seed)
        elif name in ("line-sweep", "line-sweep-par"):
            self.items = line_commands(size)
        else:
            self.items = distance_commands(size, seed)
            fixtures = self.items[0][self.items[0].index("--fixtures") + 1]
            with open(fixtures) as fh:
                if not any(line[:1].isdigit() for line in fh):
                    raise SystemExit(f"fixture file {fixtures} holds no rows")

    def _census(self, a: int, n: int) -> list[str]:
        import modhyp.geometry
        import modhyp.hyperbola

        ps = modhyp.hyperbola.enumerate_points(modhyp.hyperbola.HyperbolaSpec(a, n))
        cen = modhyp.geometry.census(ps)
        rich_lines = rich_points = 0
        for _key, t in cen.lines(min_points=3):
            rich_lines += 1
            rich_points += t
        result = {"a": a, "n": n, "points": ps.points, "histogram": cen.histogram,
                  "rich_lines": rich_lines, "rich_points": rich_points}
        ref = self.refs["census"].get(census_key(self.size, self.seed, n))
        return check_census(result, ref)

    def _verify(self, argv: list[str], jobs: int) -> list[str]:
        import modhyp.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = modhyp.cli.main(argv + ["--jobs", str(jobs)])
        out = buf.getvalue()
        self.report_bytes += len(out.encode())
        return check_verify(argv, rc, out, self.refs, self.size)

    def run_pass(self, jobs: int, probe=None) -> dict:
        """One checked pass: its time, attempted and failed counts.

        With ``probe``, the probe runs before the first item and after each
        item, outside the timed work, and ``probes`` holds its times.
        """
        failed = 0
        self.report_bytes = 0
        wall = 0.0
        probes = [probe()] if probe else []
        for item in self.items:
            t0 = time.perf_counter()
            try:
                problems = self._census(*item) if self.name == "census-large" else self._verify(item, jobs)
            except Exception:
                traceback.print_exc()
                problems = ["exception"]
            wall += time.perf_counter() - t0
            if probe:
                probes.append(probe())
            if problems:
                failed += 1
                print(f"{self.name}: {item}: {'; '.join(problems)}", file=sys.stderr)
        return {"wall": wall, "probes": probes, "attempted": len(self.items), "failed": failed}


def _import_program(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import modhyp

    if not os.path.abspath(modhyp.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"modhyp imported from {modhyp.__file__}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    _import_program(root)
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    wl = Workload(args.workload, args.size, args.seed, refs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    jobs = 2 if args.workload == "line-sweep-par" else 1
    attempted, failed = 0, 0

    def timed(jobs_: int, probe_=None) -> dict:
        nonlocal attempted, failed
        res = wl.run_pass(jobs_, probe_)
        attempted += res["attempted"]
        failed += res["failed"]
        return res

    layers = None
    if not args.trace:
        array = probe_array()
        for line in sys.stdin:
            if line.strip() != "pass":
                raise SystemExit(f"unknown request {line!r}")
            res = timed(jobs, lambda: probe(array))
            print(json.dumps({k: res[k] for k in ("wall", "probes")}), flush=True)
    else:
        from spans import Tracer

        # untraced and traced passes alternate, so that a slow spell of the
        # host weighs on both sides of the overhead and speedup ratios
        plain, par, traced, per_pass = [], [], [], []
        for _ in range(TRACE_ROUNDS):
            if jobs > 1:
                par.append(timed(jobs)["wall"])
            plain.append(timed(1)["wall"])
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(timed(1)["wall"])
            finally:
                tracer.uninstall()
            per_pass.append(tracer.layer_metrics())
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        plain_wall, traced_wall = statistics.median(plain), statistics.median(traced)
        par_wall = statistics.median(par) if par else None
        # no pool runs at --jobs 1: the speedup is 1 by definition
        layers["suites.pool_speedup"] = plain_wall / par_wall if par_wall else 1.0
        layers["cli.report_bytes"] = wl.report_bytes
        layers["trace.overhead_frac"] = traced_wall / plain_wall - 1
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl"))
        print(
            f"trace: medians of {TRACE_ROUNDS}: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s at --jobs 1"
            + (f"; pool speedup = {plain_wall:.3f} s (--jobs 1) / {par_wall:.3f} s (--jobs {jobs})" if par_wall else ""),
            file=sys.stderr,
        )
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "jobs": jobs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
