#!/usr/bin/env python3
"""tdlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {timeseries,sweep,ensemble} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; tdlab is imported from its ``src``.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured,
with ``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, environment included, is written under
``.bench_build/results/``.  See bench/README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import cold_import_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def child_env():
    """Environment of every child: the checkout's src first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def declared(key):
    """Entries of BENCHMARK.json, which names the workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def measure(args, workdir):
    started = time.monotonic()
    env = child_env()
    cold_import_s(env)  # untimed: (re)writes the bytecode of changed sources
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", workdir, "--src", str(SRC),
         "--deadline", str(budget - 30.0)],
        env=env, text=True, capture_output=True, timeout=budget)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        raise SystemExit(f"error: worker exited with {worker.returncode}")
    data = json.loads(worker.stdout.splitlines()[-1])

    if args.trace:
        values = dict(data["layers"])
        values["describing.import_s"] = statistics.median(data["cold_s"])
    else:
        values = {"setup_s": statistics.median(data["cold_s"]),
                  "wall_s": statistics.median(data["wall_samples_s"]),
                  "peak_rss_mb": data["peak_rss_mb"],
                  "ok_rate": 1.0 - data["error_rate"]}
    units = {m["name"]: m["unit"]
             for m in declared("per_layer" if args.trace else "end_to_end")}
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": len(os.sched_getaffinity(0)),
              "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
              "metrics": metrics, **data}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} backend={data['backend']} "
          f"python={data['python']} numpy={data['numpy']} "
          f"scipy={data['scipy']} nproc={record['nproc']} "
          f"threads={data['threads']} samples={len(data['wall_samples_s'])} "
          f"cold_starts={len(data['cold_s'])}")
    for message in data["failures"]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"record: {path}")
    print(json.dumps({"correct": data["failed"] == 0,
                      "attempted": data["attempted"],
                      "failed": data["failed"], "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared("workloads")])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tdlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no tdlab sources at {SRC}; run from a "
                         "checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
