#!/usr/bin/env python3
"""Time the integration kernels and the CSV writer of this checkout.

Prints the microseconds per RK4 step of the paper-5 hybrid differentiator,
the linear differentiator, its gain-scaled realization and the first-order
relaxation, on 5 sin 2t at dt = 1e-4.  The inputs and the timing are those
of ``bench/workloads.kernel_timings`` (20 000 steps, median of 3 runs).
Next to ``hybrid`` (the path ``integrate_hybrid`` takes) it prints
``hybrid-loop``: the per-step loop ``_kernels._hybrid_loop`` on the same
paper-5 input.

It times the banded-solve layer on its own: the microseconds per call of
``_kernels.dtbsv(3, band, x)`` and, as ``dtbsv-scipy``, of
``scipy.linalg.blas.dtbsv`` called in the same form (``lower=1, diag=1,
overwrite_x=1``, the fallback ``_kernels`` takes where numpy ships no
OpenBLAS), on the unit lower band of 2x2 steps that ``_solve_recurrence``
fills (k = 3), from the paper-5 linear differentiator's RK4 map at dt =
1e-3, over 4096 steps (one full window) and over 16.  Each is the median
CPU time per call of 7 batches of in-place solves after one more, the two
routines taking turns and alternating which goes first; the script exits
with an error if their solutions differ.

It times the orbit layer on its own: the microseconds per step of the
period of ``_kernels.periodic_orbit`` on one ``paper-4-hybrid`` point at
omega = 2 as ``sweep`` plans it (A = 1, the default step, an even step
count n), solved over its full period (``orbit-full``, sign 1) and over its
first half (``orbit-half``, sign -1, the solve ``sweep`` takes first, which
returns the half extended by its negation), both divided by n.  Each is the
median CPU time of 7 solves after one more, the two taking turns and
alternating which goes first; the script exits with an error if either
finds no orbit.

Then it times the CSV layer on its own: the microseconds per row of
``cli._write_csv`` on a fixed table of 50 001 rows shaped like the one
``simulate --preset paper-3A`` writes (t, v, x1, x2, v_clean, dv_clean),
and, as ``csv-format``, of a row-by-row ``'%.9g'`` writer on the same
table, which must write the same bytes.  Each is the median CPU time of 5
writes after one more, the two writers taking turns and alternating which
goes first.

Usage:
    python benchmarks/bench_kernels.py
"""

import functools
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tdlab import _kernels, cli, get_preset  # noqa: E402
from tdlab.sweep import _plan  # noqa: E402
from workloads import kernel_timings  # noqa: E402

CSV_HEADER = ["t", "v", "x1", "x2", "v_clean", "dv_clean"]


def csv_table(n=50_001, dt=1e-3):
    """Columns like paper-3A's: 5 sin 2t, a unit noise held for 10 steps,
    and lagging estimates of the signal and its derivative."""
    t = np.arange(n) * dt
    noise = np.repeat(np.random.default_rng(1).standard_normal(n // 10 + 1),
                      10)[:n]
    return [t, 5.0 * np.sin(2.0 * t) + noise, 5.0 * np.sin(2.0 * t - 0.02),
            10.0 * np.cos(2.0 * t - 0.05), 5.0 * np.sin(2.0 * t),
            10.0 * np.cos(2.0 * t)]


def write_csv_by_format(path, header, columns):
    """The reference writer: one '%.9g' row at a time."""
    fmt = ",".join(["%.9g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*[c.tolist() for c in columns]):
            fh.write(fmt % row)


def csv_timings(repeats=5):
    """us per row of cli._write_csv and of the reference on csv_table()."""
    columns = csv_table()
    writers = (("csv", cli._write_csv), ("csv-format", write_csv_by_format))
    times = {name: [] for name, _ in writers}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats + 1):
            for name, write in writers[::1 if i % 2 == 0 else -1]:
                t0 = time.process_time()
                write(os.path.join(tmp, f"{name}.csv"), CSV_HEADER, columns)
                times[name].append(time.process_time() - t0)
        with open(os.path.join(tmp, "csv.csv"), "rb") as a, \
                open(os.path.join(tmp, "csv-format.csv"), "rb") as b:
            if a.read() != b.read():
                raise SystemExit("error: cli._write_csv differs from '%.9g'")
    return {name: statistics.median(t[1:]) / len(columns[0]) * 1e6
            for name, t in times.items()}


def dtbsv_timings(repeats=7):
    """us per call of _kernels.dtbsv and scipy's dtbsv on two 2x2 bands."""
    from scipy.linalg import blas

    phi = _kernels._rk4_coefficients(
        *_kernels._linear_differentiator(1 / 45, 0.05, 0.3), 1e-3)[0]
    solvers = (("dtbsv", _kernels.dtbsv),
               ("dtbsv-scipy", functools.partial(blas.dtbsv, lower=1, diag=1,
                                                 overwrite_x=1)))
    out = {}
    for m, calls in ((4096, 50), (16, 2000)):
        band = np.zeros((4, 2 * m), order="F")
        for r in range(2):
            for c in range(2):
                band[2 + r - c, c:2 * (m - 1):2] = -phi[r, c]
        rhs = np.random.default_rng(2).uniform(-1.0, 1.0, 2 * m)
        times = {name: [] for name, _ in solvers}
        solutions = []
        for i in range(repeats + 1):
            for name, solve in solvers[::1 if i % 2 == 0 else -1]:
                xs = np.tile(rhs, (calls, 1))
                t0 = time.process_time()
                for x in xs:
                    solve(3, band, x)
                times[name].append((time.process_time() - t0) / calls)
                solutions.append(xs[0])
        if not all(np.array_equal(y, solutions[0]) for y in solutions):
            raise SystemExit(f"error: the dtbsv solutions differ ({m} steps)")
        for name, t in times.items():
            out[f"{name}-{m}"] = statistics.median(t[1:]) * 1e6
    return out


def orbit_timings(repeats=7):
    """us per period step of periodic_orbit, full and half, at omega = 2."""
    pre = get_preset("paper-4-hybrid")
    p = pre.params
    _, *point = _plan(p, pre.signal.amplitude, 2.0, None)
    n = len(point[2])
    signs = (("orbit-full", 1), ("orbit-half", -1))
    gains = (p.eps, p.a0, p.a1, p.b0, p.b1, p.alpha)
    times = {name: [] for name, _ in signs}
    for i in range(repeats + 1):
        for name, sign in signs[::1 if i % 2 == 0 else -1]:
            t0 = time.process_time()
            [x] = _kernels.periodic_orbit([point], sign, *gains)
            times[name].append(time.process_time() - t0)
            if x is None:
                raise SystemExit(f"error: {name} found no orbit")
    return {name: statistics.median(t[1:]) / n * 1e6
            for name, t in times.items()}


def main():
    timings = kernel_timings()
    # kernel_timings looks integrate_hybrid up by name at each call, so
    # routing the name to the loop times the loop on the same inputs
    with mock.patch.object(_kernels, "integrate_hybrid",
                           _kernels._hybrid_loop):
        loop = kernel_timings()["hybrid"]
    for name, us in timings.items():
        print(f"{name:<12} {us:8.3f} us/step")
        if name == "hybrid":
            print(f"{'hybrid-loop':<12} {loop:8.3f} us/step")
    for name, us in orbit_timings().items():
        print(f"{name:<12} {us:8.3f} us/step")
    for name, us in dtbsv_timings().items():
        print(f"{name:<18} {us:8.3f} us/call")
    for name, us in csv_timings().items():
        print(f"{name:<12} {us:8.3f} us/row")


if __name__ == "__main__":
    main()
