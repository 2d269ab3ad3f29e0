"""Command-line front end.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad usage or input.
JSON output is deterministic for a fixed command and configuration (any job
count): keys are emitted in a fixed order and no timestamps enter the payload.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

from .distances import DEFAULT_GAP_BOUND, distance_profile, gap_experiment
from .geometry import census, check_census_modulus
from .hyperbola import HyperbolaSpec, check_unit_budget, enumerate_points
from .ntcore import is_prime
from .suites import DEFAULT_FIXTURES, DEFAULT_SEED, SUITES, VerificationReport, process_loads

DEFAULT_N_BOUND = 2**31
# `modhyp points` holds Python [x, y] rows, the only per-point Python objects.
# Peak-RSS growth per unit of n (fresh process, primes 1000003 and 2000003):
# json, csv and text (printed row by row) each 185-186 B; 256 B covers them with
# the same headroom kept for allocator layout and admits n up to 2**23 in the
# 2 GiB ``check_unit_budget``.
_POINTS_BYTES_PER_UNIT = 256

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2


def _default_jobs() -> int:
    """The CPUs this process may run on, where the platform can tell; else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modhyp",
        description="Exact censuses of modular hyperbolas: points, line incidences, distance sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, with_values=False):
        sp.add_argument("--a", type=int, required=True, help="hyperbola parameter a")
        sp.add_argument("--n", type=int, help="modulus n")
        sp.add_argument("--p", type=int, help="prime base (with --m) instead of --n")
        sp.add_argument("--m", type=int, help="prime exponent (with --p)")
        sp.add_argument("--bound", type=int, default=DEFAULT_N_BOUND, help="largest allowed modulus")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if with_values:
            sp.add_argument("--values", action="store_true", help="include the value list")

    add_common(sub.add_parser("points", help="enumerate the point set"))
    add_common(sub.add_parser("census", help="line-incidence census"))
    add_common(sub.add_parser("distances", help="distinct squared distances"), with_values=True)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=sorted(SUITES))
    vp.add_argument("--n-max", type=int, help="range upper bound for sweep suites")
    vp.add_argument("--p", type=int, help="single prime (theorem14)")
    vp.add_argument("--all-a", action="store_true", help="exhaust all residues (theorem14)")
    vp.add_argument("--samples", type=int, default=50, help="sample count per prime (theorem14)")
    vp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed (theorem14)")
    vp.add_argument("--fixtures", default=str(DEFAULT_FIXTURES), help="fixture CSV (tables)")
    vp.add_argument("--k", type=int, help="single construction index (gap)")
    vp.add_argument("--bound", type=int, default=DEFAULT_GAP_BOUND, help="squared-modulus bound (gap)")
    vp.add_argument("--jobs", type=int, default=_default_jobs(), help="worker processes")
    vp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    vp.add_argument("--verbose", action="store_true", help="print the wall time and each process's load to stderr")

    gp = sub.add_parser("gap", help="squared-primorial gap construction")
    gp.add_argument("--k", type=int, required=True, help="number of odd primes in the product")
    gp.add_argument("--bound", type=int, default=DEFAULT_GAP_BOUND, help="largest allowed p**2")
    gp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return ap


def _resolve_modulus(args) -> int:
    if args.n is not None:
        n = args.n
    elif args.p is not None and args.m is not None:
        if args.p < 2 or args.m < 1:
            raise ValueError("--p must be >= 2 and --m >= 1")
        n = 1
        for _ in range(args.m):  # stops at the bound, never builds a huge p**m
            n *= args.p
            if n > args.bound:
                raise ValueError(f"n = {args.p}^{args.m} exceeds the arithmetic bound {args.bound}")
        # the kernel's limits first, so trial division runs only on p <= 2**31
        check_unit_budget(n)
        if not is_prime(args.p):
            raise ValueError(f"--p {args.p} is not a prime")
    else:
        raise ValueError("specify --n or both --p and --m")
    if n > args.bound:
        raise ValueError(f"n = {n} exceeds the arithmetic bound {args.bound}")
    return n


def _emit(payload: dict, fmt: str, csv_lines) -> None:
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv":
        for line in csv_lines():
            print(line)
    else:
        sys.stdout.writelines(_text_pieces(payload))


def _text_pieces(payload: dict):
    """The text format as pieces of output; each line ends with a newline."""
    yield f"command: {payload['command']}\n"
    for k, v in payload["params"].items():
        yield f"  {k}: {v}\n"
    result = payload["result"]
    if isinstance(result, dict):
        for k, v in result.items():
            yield f"{k}: {v}\n"
    else:
        # the bytes of f"result: {result}", one row at a time, so a point list
        # is never held as a single string
        yield "result: ["
        for m, row in enumerate(result):
            yield f", {row}" if m else f"{row}"
        yield "]\n"
    if "pass" in payload:
        yield "PASS\n" if payload["pass"] else "FAIL\n"


def _cmd_points(args) -> int:
    n = _resolve_modulus(args)
    check_unit_budget(n, _POINTS_BYTES_PER_UNIT, "as Python point rows")
    ps = enumerate_points(HyperbolaSpec(args.a, n))
    payload = {
        "command": "points",
        "params": {"a": args.a % n, "n": n},
        "result": [[x, y] for x, y in zip(ps.xs.tolist(), ps.ys.tolist())],
    }

    def csv_lines():
        yield "x,y"
        for x, y in payload["result"]:
            yield f"{x},{y}"

    _emit(payload, args.format, csv_lines)
    return _EXIT_OK


def _cmd_census(args) -> int:
    n = _resolve_modulus(args)
    check_census_modulus(n)
    ps = enumerate_points(HyperbolaSpec(args.a, n))
    cen = census(ps)
    payload = {
        "command": "census",
        "params": {"a": args.a % n, "n": n},
        "result": cen.to_payload(),
    }
    _emit(payload, args.format, lambda: ["n,a,ordinary,max_collinear", cen.to_csv_row()])
    return _EXIT_OK


def _cmd_distances(args) -> int:
    n = _resolve_modulus(args)
    prof = distance_profile(HyperbolaSpec(args.a, n))
    payload = {
        "command": "distances",
        "params": {"a": args.a % n, "n": n},
        "result": prof.to_payload(include_values=args.values),
    }
    _emit(payload, args.format, lambda: ["a,n,count", f"{args.a % n},{n},{prof.distinct_count}"])
    return _EXIT_OK


def _suite_kwargs(args) -> dict:
    suite = args.suite
    kw: dict = {"jobs": max(1, args.jobs)}
    # a suite without a range ignores --n-max; without it, the suite's default applies
    if args.n_max is not None and "n_max" in inspect.signature(SUITES[suite]).parameters:
        kw["n_max"] = args.n_max
    if suite == "theorem14":
        kw.update(p=args.p, all_a=args.all_a, samples=args.samples, seed=args.seed)
    if suite == "tables":
        kw["fixtures"] = args.fixtures
    if suite == "gap":
        kw["bound"] = args.bound
        if args.k is not None:
            kw["ks"] = (args.k,)
    return kw


def _cmd_verify(args) -> int:
    fn = SUITES[args.suite]
    kwargs = _suite_kwargs(args)
    process_loads.clear()
    t0 = time.perf_counter()
    report: VerificationReport = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    payload = {
        "command": "verify",
        "params": {"suite": args.suite, **report.params},
        "result": report.to_payload(),
        "pass": report.passed,
    }

    def csv_lines():
        yield "key,pass"
        for c in report.cases:
            yield f"{c.key},{int(c.passed)}"

    if args.format == "text":
        s = report.summary()
        print(f"suite: {args.suite}")
        print(f"cases: {s['total']} total, {s['passed']} passed, {s['failed']} failed")
        for c in report.failures()[:50]:
            print(f"  FAIL {c.key}: expected {c.expected}, got {c.computed}")
        print(f"wall time: {elapsed:.2f}s")
        print("PASS" if report.passed else "FAIL")
    else:
        _emit(payload, args.format, csv_lines)
    if args.verbose and args.format != "text":
        print(f"verify {args.suite}: {elapsed:.2f}s", file=sys.stderr)
    if args.verbose:
        for slot, (tasks, busy) in enumerate(process_loads):
            name = f"process {slot}" if slot else "caller"
            print(f"  {name}: {tasks} tasks, {busy:.2f}s busy", file=sys.stderr)
    return _EXIT_OK if report.passed else _EXIT_FAIL


def _cmd_gap(args) -> int:
    r = gap_experiment(args.k, bound=args.bound)
    payload = {
        "command": "gap",
        "params": {"k": args.k, "bound": args.bound},
        "result": {
            "a": r.a,
            "p": r.p,
            "root": r.root,
            "pairs": r.pair_count,
            "expected_pairs": r.expected_pairs,
            "cross_check": r.cross_check,
            "gap": r.gap,
            "image_count": r.image_count,
        },
        "pass": r.ok,
    }
    _emit(
        payload,
        args.format,
        lambda: ["k,a,p,pairs,gap", f"{args.k},{r.a},{r.p},{r.pair_count},{r.gap}"],
    )
    return _EXIT_OK if r.ok else _EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "points": _cmd_points,
        "census": _cmd_census,
        "distances": _cmd_distances,
        "verify": _cmd_verify,
        "gap": _cmd_gap,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # includes InfeasibleScale and bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
