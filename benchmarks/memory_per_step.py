#!/usr/bin/env python3
"""Traced peak memory of each long-run CLI command, per step of its run.

Runs ``simulate --preset paper-3A``, ``simulate --preset paper-3B`` and
``estimate --preset paper-5`` at ``--t-end T`` (default 1000 s, 10^6 steps
at their step of 1 ms), each in a fresh interpreter that imports
``tdlab.cli``, runs the command once at ``--t-end 1`` (so that the modules
and caches that a first call loads, such as ``numpy.random``, are in
place), starts ``tracemalloc`` and then runs it at ``--t-end T``, so the
peak counts only what that run allocates.  Prints, per command and
tree, the steps (data rows of the CSV minus one), the traced peak, the
peak per step, and the process's ``ru_maxrss``, which also counts the
interpreter, the libraries and the heap that malloc keeps.

Given the ``src`` of another checkout (e.g. the parent commit), each
command runs on both trees REPEATS times, the trees taking turns and the
one that goes first alternating.  The traced peak is the same on every
run of one tree; ``ru_maxrss`` is not.

Usage:
    python benchmarks/memory_per_step.py [--t-end T] [--parent PARENT_SRC]
                                         [--repeats N]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = (("simulate", "paper-3A"), ("simulate", "paper-3B"),
            ("estimate", "paper-5"))
PROBE = """\
import resource, sys, tracemalloc
from tdlab import cli
argv, t_end = sys.argv[1:-1], sys.argv[-1]
cli.main(argv + ["--t-end", "1"])
tracemalloc.start()
code = cli.main(argv + ["--t-end", t_end])
peak = tracemalloc.get_traced_memory()[1]
print(code, peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def probe(src, command, preset, t_end, out):
    """(steps, traced peak in bytes, ru_maxrss in kB) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, command, "--preset", preset,
         "--out", out, repr(t_end)],
        env=env, capture_output=True, text=True)
    code, peak, rss = proc.stdout.split()[-3:] if proc.stdout else ("?",) * 3
    if proc.returncode != 0 or code != "0":
        raise SystemExit(f"error: {command} --preset {preset} under {src} "
                         f"failed:\n{proc.stderr}")
    with open(out, "rb") as fh:
        steps = sum(1 for _ in fh) - 2  # the header and the row of t = 0
    return steps, int(peak), int(rss)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--t-end", type=float, default=1000.0)
    ap.add_argument("--parent", type=Path, help="src of another checkout")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    trees = {"this": SRC}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    names = list(trees)
    print(f"{'command':<26} {'tree':<7} {'steps':>8} {'peak MB':>9} "
          f"{'B/step':>7} {'maxrss MB':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.csv")
        for command, preset in COMMANDS:
            runs = {name: [] for name in names}
            for r in range(args.repeats if len(names) > 1 else 1):
                for name in names if r % 2 == 0 else names[::-1]:
                    runs[name].append(probe(trees[name], command, preset,
                                            args.t_end, out))
            for name in names:
                steps, peak, _ = runs[name][0]
                rss = statistics.median(rss for _, _, rss in runs[name])
                print(f"{command + ' ' + preset:<26} {name:<7} {steps:>8} "
                      f"{peak / 1e6:>9.2f} {peak / steps:>7.1f} "
                      f"{rss / 1e3:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
