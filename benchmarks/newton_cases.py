#!/usr/bin/env python3
"""Time the Newton path of the nonlinear differentiator against its loop.

Draws 120 valid nonlinear (a0 = b0 = 0) and hybrid gain sets, with eps
log-uniform in [1e-3, 0.5], gains uniform in [1e-3, 10] and alpha uniform
in [0.05, 0.95], and runs each for 6000 steps at dt = default_dt times 1,
2 or 5 on a noisy sine (amplitude in [0.5, 5], omega in [0.5, 10] rad/s,
Gaussian noise of level [0, 0.5] at the grid points and the midpoints).
Each case runs REPEATS times through ``_kernels._hybrid_loop`` and through
``_kernels._newton_hybrid`` (the path of ``integrate_hybrid``),
alternating which goes first, and each path's time is the median of its
runs: single runs move band totals by up to 16 %.  The Newton path calls
the loop at most once per lane, on the lane's tail from the window that
failed its certificate, or on the whole lane.  Prints the total of the
median times of both, per alpha band too, the lanes whose tail the loop
ran, the steps it ran, the steps given to the map pass ``_rk4_f`` (F) and
to the Jacobian pass ``_rk4_jac`` (J) per step of the band's lanes, and
the largest difference from the loop relative to max(1, |x|).

Usage:
    python benchmarks/newton_cases.py [--seed N]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdlab import _kernels  # noqa: E402
from tdlab.dynamics import DiffParams  # noqa: E402
from tdlab.simulate import default_dt  # noqa: E402

CASES, STEPS, REPEATS = 120, 6000, 3
BANDS = ((0.05, 0.25), (0.25, 0.3), (0.3, 0.6), (0.6, 0.95))


def cases(seed):
    """Yield (alpha, integrate_hybrid arguments) of each drawn case."""
    rng = np.random.default_rng(seed)
    for case in range(CASES):
        hybrid = rng.random() < 0.5
        eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
        a0, a1, b0, b1 = (float(g) for g in rng.uniform(1e-3, 10.0, 4))
        if not hybrid:
            a0 = b0 = 0.0
        alpha = float(rng.uniform(0.05, 0.95))
        p = DiffParams(eps=eps, a0=a0, a1=a1, b0=b0, b1=b1, alpha=alpha)
        dt = default_dt(p) * (1, 2, 5)[case % 3]
        A, omega = rng.uniform(0.5, 5.0), rng.uniform(0.5, 10.0)
        level = rng.uniform(0.0, 0.5)
        t = np.arange(STEPS + 1) * dt
        v = A * np.sin(omega * t) + level * rng.standard_normal(STEPS + 1)
        vm = (A * np.sin(omega * (t[:-1] + 0.5 * dt))
              + level * rng.standard_normal(STEPS))
        yield alpha, (0.0, 0.0, v, vm, eps, a0, a1, b0, b1, alpha, dt, 1e9)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    loop = _kernels._hybrid_loop
    calls = []

    def counting(*a):
        calls.append(len(a[3]))
        return loop(*a)

    _kernels._hybrid_loop = counting
    evals = {"F": 0, "J": 0}
    f_pass, j_pass = _kernels._rk4_f, _kernels._rk4_jac

    def counting_f(y1, *a):
        evals["F"] += len(y1)
        return f_pass(y1, *a)

    def counting_j(stages, *a):
        evals["J"] += len(stages[0][0])
        return j_pass(stages, *a)

    _kernels._rk4_f, _kernels._rk4_jac = counting_f, counting_j
    rows = []
    worst, mismatched = 0.0, 0
    for alpha, kargs in cases(args.seed):
        times = {loop: [], _kernels._newton_hybrid: []}
        for rep in range(REPEATS):
            for path in list(times)[::1 if rep % 2 == 0 else -1]:
                calls.clear()
                evals.update(F=0, J=0)
                t0 = time.perf_counter()
                *out, out_bad = path(*kargs)
                times[path].append(time.perf_counter() - t0)
                if path is loop:
                    want, want_bad = out, out_bad
                else:
                    got, bad, counts = out, out_bad, (
                        len(calls), sum(calls), evals["F"], evals["J"])
        rows.append((alpha, *map(statistics.median, times.values()),
                     *counts))
        mismatched += bad != want_bad
        end = len(want[0]) if want_bad < 0 else want_bad + 1
        for g, w in zip(got, want):
            w = w[:end]
            worst = max(worst, float(np.max(
                np.abs(g[:end] - w) / np.maximum(1.0, np.abs(w)))))
    print(f"{CASES} cases of {STEPS} steps, seed {args.seed}, "
          f"median of {REPEATS} runs per path")
    for lo, hi in BANDS + ((0.05, 0.95),):
        sel = [r for r in rows if lo <= r[0] < hi or (hi == 0.95 == r[0])]
        print(f"alpha [{lo:.2f}, {hi:.2f}): {len(sel):3d} cases, "
              f"loop {sum(r[1] for r in sel):6.2f} s, "
              f"newton {sum(r[2] for r in sel):6.2f} s, "
              f"{sum(r[3] for r in sel):3d} lanes whose tail the loop ran "
              f"({sum(r[4] for r in sel)} steps), "
              f"F {sum(r[5] for r in sel) / (STEPS * len(sel)):.2f} and "
              f"J {sum(r[6] for r in sel) / (STEPS * len(sel)):.2f} per step")
    print(f"first divergent step differs in {mismatched} cases; largest "
          f"difference {worst:.3g} of max(1, |x|)")


if __name__ == "__main__":
    main()
