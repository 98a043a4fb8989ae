"""Workload-independent parts of the benchmark: spans, operation accounting,
cold-start probes and CPU rotation.

Nothing here imports tdlab (the probes import it in a child interpreter), so
``bench/tests/test_harness.py`` exercises the accounting without running the
program.

A span is recorded around each call into a layer.  Spans nest on one
thread; a span's self time is its duration minus the durations of its
direct children, so summing self time over every span of an iteration,
the iteration's own root span included, gives back the iteration's wall
time exactly.
"""

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Layer label of the benchmark's own iteration span; its self time is the
#: part of an iteration that no layer span covers.
ROOT = "bench"

CPUS = sorted(os.sched_getaffinity(0))

IMPORT_PROBE = "import time, tdlab.cli; print(time.monotonic_ns())"


def _python(args, env):
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, check=True, timeout=60)


def cold_import_s(env=None):
    """Seconds from the start of a cold interpreter until tdlab.cli is imported.

    The child inherits env (default: this process's), which must put the
    checkout's src on PYTHONPATH.
    """
    t0 = time.monotonic_ns()
    out = _python(["-c", IMPORT_PROBE], env)
    return (int(out.stdout.split()[-1]) - t0) / 1e9


def describing_import_s(env=None):
    """Cumulative import time of tdlab.describing (scipy.integrate included)
    in a cold interpreter, from ``python -X importtime``."""
    out = _python(["-X", "importtime", "-c", "import tdlab.cli"], env)
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "tdlab.describing":
            return int(parts[1]) / 1e6
    raise RuntimeError("tdlab.describing missing from the import trace")


def on_cpu(k):
    """Pin this process to the k-th allowed CPU in turn (None: all of them).

    The CPUs of a small virtual machine drift in speed independently, by up
    to 1.7x over tens of seconds, and the scheduler keeps a busy process on
    one of them.  Rotating timed work over all CPUs makes each run sample
    every CPU: on 2 vCPUs this cut the run-to-run spread of the ensemble
    workload's wall_s from 26 % to 9 % (interquartile range over 10 seeds).
    Children started while pinned inherit the CPU.
    """
    os.sched_setaffinity(0, CPUS if k is None else {CPUS[k % len(CPUS)]})


@dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = 0.0
    error: bool = False
    units: float = 0.0  # work counted at the boundary (steps, samples, ...)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool = False) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._stack.pop()
        span = self.spans[index]
        span.end = end
        span.error = error

    def call(self, layer: str, name: str, fn: Callable, *args,
             units: Optional[Callable[[tuple, Any], float]] = None, **kwargs):
        """Run fn inside a span; units(args, result) counts its work."""
        index = self.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(index, error=True)
            raise
        self.close(index)
        if units is not None:
            self.spans[index].units = units(args, result)
        return result


@dataclass
class LayerStats:
    self_s: float = 0.0   # span time not covered by child spans
    busy_s: float = 0.0   # union of the layer's span intervals
    calls: int = 0        # spans entered from another layer
    errors: int = 0       # exceptions that escaped the layer
    units: float = 0.0    # work counted on spans entered from another layer


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Aggregate closed spans into per-layer statistics."""
    stats: dict[str, LayerStats] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        st = stats.setdefault(s.layer, LayerStats())
        duration = s.end - s.start
        st.self_s += duration - child_time[i]
        entered = s.parent < 0 or spans[s.parent].layer != s.layer
        if entered:
            st.calls += 1
            st.units += s.units
            if s.error:
                st.errors += 1
        outermost = True
        p = s.parent
        while p >= 0:
            if spans[p].layer == s.layer:
                outermost = False
                break
            p = spans[p].parent
        if outermost:
            st.busy_s += duration
    return stats


@dataclass
class OpResult:
    op: str
    error: Optional[str]
    output: Any


def run_ops(ops: list[tuple[str, Callable[[], Any]]]) -> list[OpResult]:
    """Run one iteration's operations; an exception or exit is a failure."""
    results = []
    for name, fn in ops:
        try:
            results.append(OpResult(name, None, fn()))
        except (Exception, SystemExit) as exc:
            results.append(OpResult(name, f"{type(exc).__name__}: {exc}", None))
    return results


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


class Tally:
    """Attempted and failed operations of one run, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, result: OpResult, check: Optional[Callable[[OpResult], None]]):
        """Count one operation; check raises CheckFailed on a bad output."""
        self.attempted += 1
        error = result.error
        if error is None and check is not None:
            try:
                check(result)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{result.op}: {error}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
