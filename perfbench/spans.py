"""In-memory span tracing of modhyp's public functions, from outside the package.

Each traced function is replaced by a wrapper at its defining module and at
every other ``modhyp`` module that bound it by name at import time (``suites``
and ``cli`` import ``census``, ``distance_profile`` and others that way), and
in the ``SUITES`` table.  A wrapper records one span per call: name, start,
end and parent.  Spans stay in memory until the traced pass ends; self time
is a span's duration minus the time its child spans cover.

Pool workers are separate processes, so only ``--jobs 1`` runs are traced.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

# (module, function): the layer boundaries the benchmark reports on
TRACED = (
    ("hyperbola", "enumerate_points"),
    ("hyperbola", "partition_classes"),
    ("geometry", "census"),
    ("geometry", "verify_ordinary_bound"),
    ("geometry", "verify_line_classes"),
    ("geometry", "verify_collinearity_bounds"),
    ("distances", "distance_profile"),
    ("distances", "intersection_direct"),
    ("distances", "intersection_via_lattice"),
    ("distances", "classify_image"),
    ("distances", "image_count_formula"),
    ("ntcore", "sqrt_mod_prime"),
    ("ntcore", "legendre"),
    ("ntcore", "primes_upto"),
    ("cli", "main"),
)

# every suite a workload runs, in the order the metric list names them
SUITE_NAMES = (
    "theorem6", "lemma7", "collinearity", "prime-lines",
    "tables", "theorem14", "prop15", "prime-distance", "general-pm", "gap",
)

_PAGE = os.sysconf("SC_PAGE_SIZE")
BIG_CENSUS_PAIRS = 1_000_000


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.census_calls: list[tuple[int, int, int]] = []  # (pairs, rss before, maxrss after)
        self.census_lines = 0
        self.census_rich_lines = 0
        self.census_keys: set = set()
        self.census_redundant = 0
        self.points = 0
        self.units = 0
        self.suite_cases: dict[str, int] = defaultdict(int)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            if after:
                after(state, result, *args, **kwargs)
            return result

        return traced

    def _replace_everywhere(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "modhyp" or modname.startswith("modhyp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import modhyp.suites

        hooks = {
            "enumerate_points": (None, self._after_points),
            "census": (self._before_census, self._after_census),
            "distance_profile": (None, self._after_profile),
        }
        for modname, fname in TRACED:
            mod = sys.modules[f"modhyp.{modname}"]
            orig = getattr(mod, fname)
            before, after = hooks.get(fname, (None, None))
            self._replace_everywhere(orig, self._wrap(f"{modname}.{fname}", orig, before, after))
        table = modhyp.suites.SUITES
        for suite, orig in list(table.items()):
            wrapper = self._wrap(f"suites.{suite}", orig, None, self._after_suite(suite))
            self._replace_everywhere(orig, wrapper)
            self._patched.append((table, suite, orig))
            table[suite] = wrapper

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patched.clear()

    # -- per-call counters (run outside the span they describe) ----------

    def _after_points(self, _state, ps, *args, **kwargs) -> None:
        self.points += len(ps)

    def _before_census(self, ps, *args, **kwargs) -> int:
        key = (ps.spec.a, ps.spec.n, ps.points)
        if key in self.census_keys:
            self.census_redundant += 1
        else:
            self.census_keys.add(key)
        return _rss_bytes()

    def _after_census(self, rss_before, cen, ps, *args, **kwargs) -> None:
        k = len(ps)
        self.census_calls.append((k * (k - 1) // 2, rss_before, _maxrss_bytes()))
        self.census_lines += cen.line_total
        self.census_rich_lines += sum(c for t, c in cen.histogram.items() if t >= 3)

    def _after_profile(self, _state, _prof, spec, *args, **kwargs) -> None:
        pp = spec.prime_power
        if pp is not None:
            self.units += pp.phi
        else:
            from modhyp.ntcore import euler_phi

            self.units += euler_phi(spec.n)

    def _after_suite(self, suite):
        def after(_state, report, *args, **kwargs):
            self.suite_cases[suite] += len(report.cases)

        return after

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-name self seconds, call counts and total seconds."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child_time[i]
            total[name] += t1 - t0
            calls[name] += 1
        return self_s, calls, total

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the ones derived from untraced passes."""
        self_s, calls, total = self.self_times()
        census_s = self_s["geometry.census"]
        census_durations = [t1 - t0 for n, t0, t1, _ in self.spans if n == "geometry.census"]
        pairs = sum(c[0] for c in self.census_calls)
        # process peak RSS after the call with most pairs, minus the RSS before
        # it: the call's own growth only when its arrays set the process peak,
        # so it is reported for calls of at least BIG_CENSUS_PAIRS pairs
        bytes_per_pair = 0.0
        if self.census_calls:
            big_pairs, rss_before, maxrss_after = max(self.census_calls, key=lambda c: c[0])
            if big_pairs >= BIG_CENSUS_PAIRS:
                bytes_per_pair = max(0, maxrss_after - rss_before) / big_pairs
        profile_s = self_s["distances.distance_profile"]
        m = {
            "hyperbola.enumerate_points.self_s": self_s["hyperbola.enumerate_points"],
            "hyperbola.enumerate_points.calls": calls["hyperbola.enumerate_points"],
            "hyperbola.enumerate_points.points": self.points,
            "hyperbola.partition_classes.self_s": self_s["hyperbola.partition_classes"],
            "geometry.census.self_s": census_s,
            "geometry.census.calls": calls["geometry.census"],
            "geometry.census.pairs": pairs,
            "geometry.census.pairs_per_s": pairs / census_s if census_s else 0.0,
            "geometry.census.max_call_s": max(census_durations, default=0.0),
            "geometry.census.lines": self.census_lines,
            "geometry.census.rich_lines": self.census_rich_lines,
            "geometry.census.redundant_calls": self.census_redundant,
            "geometry.census.bytes_per_pair": bytes_per_pair,
        }
        for fname in ("verify_ordinary_bound", "verify_line_classes", "verify_collinearity_bounds"):
            m[f"geometry.{fname}.self_s"] = self_s[f"geometry.{fname}"]
        m.update({
            "distances.distance_profile.self_s": profile_s,
            "distances.distance_profile.calls": calls["distances.distance_profile"],
            "distances.distance_profile.units": self.units,
            "distances.distance_profile.units_per_s": self.units / profile_s if profile_s else 0.0,
        })
        for fname in ("intersection_direct", "intersection_via_lattice", "classify_image", "image_count_formula"):
            m[f"distances.{fname}.self_s"] = self_s[f"distances.{fname}"]
        m.update({
            "ntcore.sqrt_mod_prime.calls": calls["ntcore.sqrt_mod_prime"],
            "ntcore.sqrt_mod_prime.self_s": self_s["ntcore.sqrt_mod_prime"],
            "ntcore.legendre.calls": calls["ntcore.legendre"],
            "ntcore.primes_upto.self_s": self_s["ntcore.primes_upto"],
        })
        for suite in SUITE_NAMES:
            m[f"suites.{suite}.wall_s"] = total[f"suites.{suite}"]
            m[f"suites.{suite}.cases"] = self.suite_cases[suite]
        m["cli.main.self_s"] = self_s["cli.main"]
        return m

    def write(self, path: str) -> None:
        """Write every span once, as JSON lines of name, start, end and parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent}))
                fh.write("\n")
