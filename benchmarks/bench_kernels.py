#!/usr/bin/env python3
"""Benchmark the numba integration kernels against the pure-Python fallback.

Runs the same workloads in two subprocesses (one per backend, selected via
the TDLAB_DISABLE_NUMBA environment flag) and prints a comparison table.
Without numba installed it prints "skipped: numba absent" and the
python-backend timings alone.

Usage:
    python benchmarks/bench_kernels.py [--steps N] [--repeats K]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def workloads(n_steps):
    import numpy as np

    from tdlab import _kernels

    dt = 1e-4
    t = np.arange(n_steps + 1) * dt
    tm = t[:-1] + 0.5 * dt
    v = 5.0 * np.sin(2.0 * t)
    vm = 5.0 * np.sin(2.0 * tm)

    def hybrid():
        _kernels.integrate_hybrid(0.0, 0.0, v, vm, 1 / 45, 0.05, 0.015,
                                  0.3, 0.015, 0.6, dt, 1e9)

    def linear():
        _kernels.integrate_hybrid(0.0, 0.0, v, vm, 1 / 45, 0.05, 0.0,
                                  0.3, 0.0, 1.0, dt, 1e9)

    def highgain():
        _kernels.integrate_highgain(0.0, 0.0, v, vm, 1 / 45, 0.05, 0.3,
                                    dt, 1e9)

    def relaxation():
        _kernels.integrate_relaxation(0.0, v, vm, 1.0, dt, 1e9)

    return [("hybrid differentiator", hybrid),
            ("linear differentiator", linear),
            ("gain-scaled realization", highgain),
            ("first-order relaxation", relaxation)]


def run_worker(n_steps, repeats):
    from tdlab import _kernels

    results = {"backend": _kernels.backend(), "timings": {}}
    for name, fn in workloads(n_steps):
        fn()  # warmup (JIT compile on the numba backend)
        best = min(_timed(fn) for _ in range(repeats))
        results["timings"][name] = best
    print(json.dumps(results))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def spawn(disable_numba, n_steps, repeats):
    env = dict(os.environ)
    if disable_numba:
        env["TDLAB_DISABLE_NUMBA"] = "1"
    else:
        env.pop("TDLAB_DISABLE_NUMBA", None)
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--steps", str(n_steps),
         "--repeats", str(repeats)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=200_000,
                    help="integration steps per workload (default 200000)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        run_worker(args.steps, args.repeats)
        return

    numba = spawn(False, args.steps, args.repeats)
    if numba["backend"] != "numba":
        # that worker fell back to the python backend: report it alone
        print(f"skipped: numba absent\n\n{args.steps} RK4 steps per "
              f"workload, best of {args.repeats}, python backend\n")
        header = f"{'workload':<26} {'python [s]':>11} {'us/step':>8}"
        print(header)
        print("-" * len(header))
        for name, t_py in numba["timings"].items():
            print(f"{name:<26} {t_py:>11.3f} {t_py / args.steps * 1e6:>8.2f}")
        return
    python = spawn(True, args.steps, args.repeats)
    assert python["backend"] == "python"

    print(f"\n{args.steps} RK4 steps per workload, best of {args.repeats}\n")
    header = f"{'workload':<26} {'numba [s]':>10} {'python [s]':>11} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, t_nb in numba["timings"].items():
        t_py = python["timings"][name]
        print(f"{name:<26} {t_nb:>10.4f} {t_py:>11.3f} {t_py / t_nb:>7.0f}x")


if __name__ == "__main__":
    main()
