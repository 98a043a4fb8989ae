#!/usr/bin/env python3
"""Count how sweep points reach their periodic orbit, and time them.

Draws 60 valid nonlinear (a0 = b0 = 0) and hybrid gain sets, with eps
log-uniform in [0.01, 0.2], gains uniform in [1e-3, 2] and alpha uniform
in [0.05, 0.95], each with an amplitude uniform in [0.5, 5] and a
frequency log-uniform in [1, 100] rad/s, and measures each point with a
one-point ``tdlab.sweep.sweep`` at the default step.  The Newton solves of
``_kernels.periodic_orbit`` are counted (a one-point sweep solves its point
as a batch of one, so a solve's map passes are its point's): a point
certifies its orbit from the linearization's guess, after warm-up runs,
or not at all (it fails with "did not settle"); its iterations are the
map passes ``_rk4_f`` that the solves take, and its orbit steps the steps
of those passes, which compare work across trees whose solves cover
different spans (a half period or a full one).  Next to them are counted
the map passes of the measured passes (the ``integrate_hybrid`` calls that
start from an orbit, i.e. get a 13th argument) and the steps of every
``_hybrid_loop`` call, warm-up runs included.  Prints these per alpha
band.

Given the ``src`` of another checkout (e.g. the parent commit), its
one-point ``sweep`` runs on the same points too: each point runs REPEATS
times on each tree, alternating which goes first, and each tree's time is
the median of its runs.  The band totals of those medians are printed,
with the largest relative difference of track_mag between the trees.

Usage:
    python benchmarks/orbit_cases.py [PARENT_SRC] [--seed N]
"""

import argparse
import collections
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tdlab import _kernels  # noqa: E402
from tdlab.dynamics import DiffParams  # noqa: E402
from tdlab.sweep import sweep  # noqa: E402

CASES, REPEATS = 60, 3
BANDS = ((0.05, 0.25), (0.25, 0.3), (0.3, 0.6), (0.6, 0.95))


def cases(seed):
    """Yield (alpha, p, A, omega) of each drawn point."""
    rng = np.random.default_rng(seed)
    while True:
        hybrid = rng.random() < 0.5
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
        a0, a1, b0, b1 = (float(g) for g in rng.uniform(1e-3, 2.0, 4))
        if not hybrid:
            a0 = b0 = 0.0
        alpha = float(rng.uniform(0.05, 0.95))
        A = float(rng.uniform(0.5, 5.0))
        omega = float(np.exp(rng.uniform(0.0, np.log(100.0))))
        yield alpha, DiffParams(eps, a0, a1, b0, b1, alpha), A, omega


def load_tree(src):
    """The tdlab package of another source tree, as module tdlab_other."""
    pkg = Path(src) / "tdlab"
    spec = importlib.util.spec_from_file_location(
        "tdlab_other", pkg / "__init__.py",
        submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["tdlab_other"] = module
    spec.loader.exec_module(module)
    return module


def instrument():
    """Count what this tree's sweep does from here on.

    Returns (solves, tally): one [map passes, map steps, certified] per
    periodic_orbit call, i.e. per point solved, and a Counter of the
    measured passes' map passes ("pass") and the _hybrid_loop steps
    ("loop").
    """
    solves, tally, phase = [], collections.Counter(), []
    f_pass, orbit, kernel, loop = (_kernels._rk4_f, _kernels.periodic_orbit,
                                   _kernels.integrate_hybrid,
                                   _kernels._hybrid_loop)

    def counting_orbit(points, sign, *gains):
        # a one-point sweep solves its point as a batch of one, so each map
        # pass of the batch is one of that point
        solves.append([0, 0, None])
        phase.append("orbit")
        [x] = orbit(points, sign, *gains)
        phase.pop()
        solves[-1][2] = x is not None
        return [x]

    def counting_kernel(*a):
        phase.append("pass" if len(a) == 13 else "run")
        try:
            return kernel(*a)
        finally:
            phase.pop()

    def counting_f(*a):
        if phase == ["orbit"]:
            solves[-1][0] += 1
            solves[-1][1] += len(a[0])
        elif phase == ["pass"]:
            tally["pass"] += 1
        return f_pass(*a)

    def counting_loop(*a):
        tally["loop"] += len(a[3])
        return loop(*a)

    (_kernels.periodic_orbit, _kernels.integrate_hybrid, _kernels._rk4_f,
     _kernels._hybrid_loop) = (counting_orbit, counting_kernel, counting_f,
                               counting_loop)
    return solves, tally


def attempt(tree_sweep, p, A, omega):
    """(track_mag or None, seconds) of a tree's sweep of the one omega."""
    t0 = time.perf_counter()
    try:
        [point] = tree_sweep(p, A, [omega])
        mag = point.track_mag
    except (ValueError, RuntimeError):  # InstabilityError of either tree
        mag = None
    return mag, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="src of another checkout")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    other = load_tree(args.parent) if args.parent else None
    solves, tally = instrument()
    rows, drawn = [], cases(args.seed)
    for alpha, p, A, omega in (next(drawn) for _ in range(CASES)):
        sides = [sweep] + ([other.sweep] if other else [])
        times = [[] for _ in sides]
        for rep in range(REPEATS):
            for k in range(len(sides))[::1 if rep % 2 == 0 else -1]:
                if k == 0:
                    solves.clear()
                    tally.clear()
                mag, seconds = attempt(sides[k], p, A, omega)
                times[k].append(seconds)
                if k == 0:
                    new_mag, outcome = mag, [ok for _, _, ok in solves]
                    counts = (sum(s[0] for s in solves),
                              sum(s[1] for s in solves), tally["pass"],
                              tally["loop"])
                else:
                    old_mag = mag
        drift = (abs(new_mag - old_mag) / old_mag
                 if other and new_mag and old_mag else math.nan)
        rows.append((alpha, outcome, counts,
                     [statistics.median(t) for t in times], drift))
    print(f"{CASES} points, seed {args.seed}"
          + (f", median of {REPEATS} runs per tree" if other else ""))
    for lo, hi in BANDS + ((0.05, 0.95),):
        sel = [r for r in rows if lo <= r[0] < hi or (hi == 0.95 == r[0])]
        first = sum(r[1][:1] == [True] for r in sel)
        warm = sum(True in r[1][1:] for r in sel)
        line = (f"alpha [{lo:.2f}, {hi:.2f}): {len(sel):2d} points, "
                f"{first:2d} certified from the guess, {warm:2d} after "
                f"warm-up, {len(sel) - first - warm:2d} not; "
                f"{sum(r[2][0] for r in sel):4d} Newton iterations "
                f"over {sum(r[2][1] for r in sel):8d} orbit steps, "
                f"{sum(r[2][2] for r in sel):3d} pass map passes, "
                f"{sum(r[2][3] for r in sel):7d} loop steps, "
                f"orbit {sum(r[3][0] for r in sel):6.2f} s")
        if other:
            drifts = [r[4] for r in sel if not math.isnan(r[4])]
            line += (f", other tree {sum(r[3][1] for r in sel):6.2f} s, "
                     f"track_mag differs by up to "
                     f"{max(drifts, default=0.0):.3g}")
        print(line)


if __name__ == "__main__":
    main()
