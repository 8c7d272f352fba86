"""In-memory spans around the calls one ``qsde`` module makes into another.

Each public function is wrapped under the name its caller looks it up by
(``qsde.pair.kraus_of_coupling`` for the pair module's calls into choi, and
so on), so the program's own code is untouched and every binding is
restored afterwards. A span records its label, start, end, parent span,
the exception that left it and a per-label detail. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

# label -> (defining module, function, modules whose binding is wrapped)
BINDINGS = (
    ("channel.classify", "channel", "classify", ("channel", "choi", "sde", "cli")),
    ("channel.evolve", "channel", "evolve", ("choi", "cli")),
    ("choi.choi_of_channel", "choi", "choi_of_channel", ("choi", "cli")),
    ("choi.kraus_of_choi", "choi", "kraus_of_choi", ("choi", "cli")),
    ("choi.kraus_of_coupling", "choi", "kraus_of_coupling", ("pair",)),
    ("pair.evolve_pair", "pair", "evolve_pair", ("pair",)),
    ("pair.concurrence", "pair", "concurrence", ("pair", "sde")),
    ("pair.lambda_at", "pair", "lambda_at", ("sde",)),
    ("pair.lambda_trajectory", "pair", "lambda_trajectory", ("sde", "cli")),
    ("sde.criterion", "sde", "predict_flip", ("sde",)),
    ("sde.criterion", "sde", "predict_dissipative", ("sde",)),
    ("sde.detect_tau", "sde", "detect_tau", ("sde",)),
    # the benchmark itself calls sde_check and run_census through the
    # defining module
    ("sde.sde_check", "sde", "sde_check", ("sde", "cli")),
    ("census.run_census", "census", "run_census", ("census", "cli")),
)

LABEL, START, END, PARENT, ERROR, DETAIL = range(6)


class Tracer:
    """Owns the span list, kept across passes, and the bindings wrapped while a pass runs."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for label, home, name, callers in BINDINGS:
            original = getattr(self.modules[home], name)
            for caller in callers:
                module = self.modules[caller]
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, self._wrap(label, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, label: str, fn):
        detail = _DETAILS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(label, fn, *args, _detail=detail, **kwargs)

        return wrapper

    def call(self, label: str, fn, *args, _detail=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named label."""
        record = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        before = _detail.before(args) if _detail else None
        result = None
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record[ERROR] = type(exc).__name__
            raise
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            if _detail:
                record[DETAIL] = _detail.after(before, args, result)
        return result


class _Points:
    """Trajectory length: one lam evaluation per grid point."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(before, args, result):
        return len(result) if result else 0


class _CensusMemory:
    """(n, peak traced MB) of one census call, from tracemalloc."""

    @staticmethod
    def before(args):
        tracemalloc.start()
        return int(args[0])

    @staticmethod
    def after(n, args, result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return (n, peak / 2**20)


_DETAILS = {"pair.lambda_trajectory": _Points, "census.run_census": _CensusMemory}


def summarize(spans: list[list]) -> dict:
    """Per-label calls and self seconds, plus the sde and census breakdowns."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[LABEL]] += 1
        self_s[s[LABEL]] += s[END] - s[START] - child[i]

    def parent_label(s):
        return spans[s[PARENT]][LABEL] if s[PARENT] >= 0 else None

    verdicts = [s for s in spans if s[LABEL] == "sde.sde_check"]
    verdict_s = sum(s[END] - s[START] for s in verdicts)
    scans = [s for s in spans if s[LABEL] == "pair.lambda_trajectory" and parent_label(s) == "sde.sde_check"]
    bisection = sum(1 for s in spans if s[LABEL] == "pair.lambda_at" and parent_label(s) == "sde.detect_tau")
    late = sum(1 for s in spans if s[LABEL] == "pair.lambda_at" and parent_label(s) == "sde.sde_check")
    census = [s for s in spans if s[LABEL] == "census.run_census"]
    small = [s for s in census if s[DETAIL][0] < 1_000_000]
    large = [s for s in census if s[DETAIL][0] >= 1_000_000]

    def us_per_sample(group):
        n = sum(s[DETAIL][0] for s in group)
        return 1e6 * sum(s[END] - s[START] for s in group) / n if n else 0.0

    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "verdicts": len(verdicts),
        "scan_points": sum(s[DETAIL] for s in scans),
        "scan_s": sum(s[END] - s[START] for s in scans),
        "verdict_s": verdict_s,
        "bisection_evals": bisection,
        "late_evals": late,
        "trajectory_points": sum(s[DETAIL] for s in spans if s[LABEL] == "pair.lambda_trajectory"),
        "grid_too_coarse": sum(1 for s in spans if s[LABEL] == "sde.detect_tau" and s[ERROR] == "GridTooCoarse"),
        "census_small_us_per_sample": us_per_sample(small),
        "census_large_us_per_sample": us_per_sample(large),
        "census_peak_mb": max((s[DETAIL][1] for s in census), default=0.0),
    }
