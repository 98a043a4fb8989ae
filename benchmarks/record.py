#!/usr/bin/env python3
"""Record the benchmark of this checkout against a parent checkout.

Runs ``bench/run.py`` of both trees in alternating pairs: for every
workload of BENCHMARK.json, 10 pairs at seeds 1 to 10, each run as long as
BENCHMARK.json's ``run_seconds``, the parent first in odd pairs and this
checkout first in even ones, so that a drift of the host's speed falls on
both sides alike.  Then one ``--trace 1`` run per side and workload.
Writes ``BENCH_<label>.json`` at the root of this checkout with every
run's end-to-end values, their medians and quartiles per side, how many
pairs this checkout won on each metric, the per-layer metrics of the
traced runs (``kernels.busy_s`` and ``kernels.us_per_step`` among them),
the Python, numpy and scipy versions, ``nproc`` and the git revision of
each tree.

Every run starts without ``PYTHONDONTWRITEBYTECODE``, so that the untimed
warm probe of ``bench/run.py`` writes the bytecode of each tree's changed
sources before any timed cold-import probe, which would otherwise compile
them again and count the compile in ``setup_s``.

Usage:
    python benchmarks/record.py PARENT_CHECKOUT --label L

PARENT_CHECKOUT is a checkout of the commit to compare against, e.g. a
``git clone`` of this repository at the parent commit.  A full record
(10 pairs of 25 s on three workloads) takes about 35 minutes.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Alternating pairs per workload: enough for a claim of 9 wins in 10.
PAIRS = 10


def revision(tree):
    """git HEAD of a tree (with '+dirty' for uncommitted edits), or None."""
    try:
        rev = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", str(tree), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def bench(tree, workload, seed, seconds, trace):
    """One run of a tree's bench/run.py: (metric values, full record)."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {tree}/bench/run.py --workload {workload} "
                         f"--seed {seed} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(line for line in lines if line.startswith("record: "))
    full = json.loads((Path(tree) / record.split(" ", 1)[1]).read_text())
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}, full


def summary(runs, end_to_end):
    """Medians, quartiles and the change's wins per end-to-end metric."""
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        entry = {}
        for side in SIDES:
            values = [run[side][name] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"median": q2, "q1": q1, "q3": q3}
        entry["change_better"] = sum(
            (run["change"][name] < run["parent"][name]) if lower
            else (run["change"][name] > run["parent"][name]) for run in runs)
        entry["pairs"] = len(runs)
        out[name] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    result = {"label": args.label,
              "date": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "seconds": seconds, "pairs": PAIRS,
              "nproc": len(os.sched_getaffinity(0)),
              "trees": {side: {"revision": revision(tree)}
                        for side, tree in trees.items()},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair in range(PAIRS):
            seed = pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "order": list(order)}
            for side in order:
                run[side], _ = bench(trees[side], workload, seed, seconds, 0)
                print(f"{workload} pair {pair + 1} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run[side].items()),
                      flush=True)
            runs.append(run)
        traced = {}
        for side in SIDES:
            traced[side], full = bench(trees[side], workload, PAIRS + 1,
                                       seconds, 1)
            result["trees"][side].update(
                {key: full[key] for key in ("python", "numpy", "scipy")})
        result["workloads"][workload] = {
            "runs": runs, "summary": summary(runs, spec["end_to_end"]),
            "trace": traced}
        for name, entry in result["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: parent {entry['parent']['median']:.4g}"
                  f" change {entry['change']['median']:.4g}, change better "
                  f"in {entry['change_better']} of {entry['pairs']}",
                  flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
