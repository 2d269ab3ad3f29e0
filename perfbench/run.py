"""modhyp benchmark: one workload per call, every output checked.

python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  Each call starts the workload in a fresh
process (so peak RSS starts from zero) and asks it for timed passes until
``--seconds`` have gone by.  After each pass it starts one set-up-only
process, so the set-up samples are spread over the run; ``setup_s`` is the
median time from process start to ``READY`` over all of them.  Pass and
set-up times are rescaled to a host of reference speed by the host-speed
probes run around the items of each pass (see workload.probe).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from traced ``--jobs 1`` passes) with ``--trace 1``.
Exits non-zero without a result if the program is missing or a run breaks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload import PROBE_EXPONENT, PROBE_REF_S, WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 5
# room left for the pass under way when --seconds run out, and for a traced run
TIMEOUT_MARGIN_S = 150


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


class Child:
    """One workload process, killed if it outlives the run's deadline."""

    def __init__(self, root: str, args, extra: list[str], deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--size", args.size, *extra]
        env = {k: v for k, v in os.environ.items() if k != "MODHYP_CACHE_DIR"}
        env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.killer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        self.killer.start()
        self.ready = self.proc.stdout.readline() == "READY\n"
        self.setup_s = time.perf_counter() - t0

    def request_pass(self) -> dict | None:
        """Pass time and probe times, or None if the process died."""
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def finish(self) -> tuple[int, list[str]]:
        try:
            self.proc.stdin.close()
            lines = self.proc.stdout.read().splitlines()
            rc = self.proc.wait()
        finally:
            self.killer.cancel()
            self.proc.stdout.close()
        return rc, lines


def run(args) -> dict | None:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modhyp", "__init__.py")):
        print(f"error: no modhyp source under {root}/src; run from the repository root",
              file=sys.stderr)
        return None
    units = metric_units()
    start = time.perf_counter()
    deadline = start + args.seconds + TIMEOUT_MARGIN_S
    # (seconds, host speed factor PROBE_REF_S / median probe time of the pass
    # run next to it)
    setups: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []

    def setup_sample(speed: float) -> bool:
        child = Child(root, args, ["--setup-only"], deadline)
        rc, _ = child.finish()
        if not child.ready or rc != 0:
            print(f"error: set-up failed (exit {rc})", file=sys.stderr)
            return False
        setups.append((child.setup_s, speed))
        return True

    child = Child(root, args, [], deadline)
    ok = child.ready
    if ok and not args.trace:
        # a traced run reports no set-up time
        while ok and (not passes or time.perf_counter() - start < args.seconds):
            timing = child.request_pass()
            ok = timing is not None
            if ok:
                speed = PROBE_REF_S / statistics.median(timing["probes"])
                if not passes:
                    setups.append((child.setup_s, speed))  # the workload process's own
                passes.append((timing["wall"], speed))
                ok = setup_sample(speed)
    rc, lines = child.finish()
    if not ok or rc != 0 or not lines:
        print(f"error: workload process failed (exit {rc})", file=sys.stderr)
        return None
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        if not setup_sample(passes[-1][1]):
            return None
    res = json.loads(lines[-1])
    if args.trace:
        values = res["layers"]
    else:
        peak_kb = res["maxrss_kb"] + res["jobs"] * res["children_maxrss_kb"]
        values = {
            "setup_s": statistics.median(t * f ** PROBE_EXPONENT for t, f in setups),
            "wall_cal_s": statistics.median(t * f ** PROBE_EXPONENT for t, f in passes),
            "peak_rss_mb": peak_kb / 1024,
        }
        print(f"{args.workload}: {len(passes)} pass(es), wall_s "
              + ", ".join(f"{t:.3f}" for t, _ in passes)
              + "; speed " + ", ".join(f"{f:.3f}" for _, f in passes)
              + "; setup_s " + ", ".join(f"{t:.3f}" for t, _ in setups), file=sys.stderr)
        print(f"uncalibrated: wall_s = {statistics.median(t for t, _ in passes):.6g} s, "
              f"setup_s = {statistics.median(t for t, _ in setups):.6g} s (medians; not bounded metrics)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} checked outputs)")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at a small size (smoke tests)")
    args = ap.parse_args(argv)
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
