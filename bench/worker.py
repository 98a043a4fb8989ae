"""Run one workload in a fresh process and print its measurements as JSON.

run.py starts this with ``PYTHONPATH`` set to the checkout's ``src`` and BLAS
threads pinned to one.  The run is:

1. one warm-up iteration, untimed, with the first call of each kernel in
   every operation captured; every output is checked here;
2. timed iterations until ``--seconds`` have passed (at least MIN_SAMPLES),
   rotating over the allowed CPUs.  Each later output must equal the
   warm-up's at the same seed.  With ``--trace 1`` untraced and traced
   iterations alternate, a pair on each CPU in turn, so the tracing overhead
   is measured within one process.  After every timed iteration,
   COLD_PER_GAP cold interpreters import ``tdlab.cli`` on the same CPU, so
   set-up time is sampled across the whole run as wall time is.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from harness import ROOT, LayerStats, Tally, Tracer, CheckFailed
from harness import cold_import_s, describing_import_s, on_cpu, run_ops
from harness import summarize

MIN_SAMPLES = 3
#: Cold starts after each timed iteration; setup_s (traced:
#: describing.import_s) is the median of all of them.
COLD_PER_GAP = 2


def _threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _environment(tdlab):
    import numpy
    import scipy

    return {"backend": tdlab.backend(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": _threads()}


def layer_metrics(stats, n, rows, traced, untraced, kernels_fixed):
    """Per-layer metrics, each an average over n traced iterations."""
    from workloads import LAYERS

    layer = {name: stats.get(name, LayerStats()) for name in LAYERS}
    m = {}
    for name, st in layer.items():
        m[f"{name}.self_s"] = st.self_s / n
        m[f"{name}.busy_s"] = st.busy_s / n
        m[f"{name}.calls"] = st.calls / n
        m[f"{name}.errors"] = st.errors / n
    steps = layer["kernels"].units / n
    m["kernels.steps"] = steps
    m["kernels.us_per_step"] = m["kernels.busy_s"] / steps * 1e6 if steps else 0.0
    for name, us in kernels_fixed.items():
        m[f"kernels.{name}_us_per_step"] = us
    m["signals.samples"] = layer["signals"].units / n
    m["sweep.points"] = layer["sweep"].units / n
    m["cli.rows"] = rows
    m["cli.us_per_row"] = m["cli.self_s"] / rows * 1e6 if rows else 0.0
    m["trace.wall_s"] = sum(traced) / n
    m["trace.remainder_s"] = stats[ROOT].self_s / n
    m["trace.overhead_frac"] = (statistics.median(traced)
                                / statistics.median(untraced) - 1.0)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--src", required=True)
    ap.add_argument("--deadline", type=float, default=120.0,
                    help="stop timing after this many seconds")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    import tdlab

    if not Path(tdlab.__file__).resolve().is_relative_to(
            Path(args.src).resolve()):
        sys.exit(f"tdlab imported from {tdlab.__file__}, not from {args.src}")
    from workloads import WORKLOADS, KernelCapture, check_kernel_prefix
    from workloads import instrument, kernel_timings, tracing

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    ops = wl.ops()
    tally = Tally()
    reference = {}
    capture = KernelCapture()

    def full_check(result):
        for name, (kargs, kout) in capture.calls.items():
            check_kernel_prefix(name, kargs, kout)
        wl.check(result, capture.calls)

    def same_as_warmup(result):
        if wl.fingerprint(result) != reference.get(result.op):
            raise CheckFailed("output differs from the warm-up iteration "
                              "at the same seed")

    probe = describing_import_s if args.trace else cold_import_s
    untraced, traced, cold = [], [], []
    tracer = Tracer()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        with instrument(capture):
            for op in ops:
                capture.calls.clear()
                [result] = run_ops([op])
                tally.record(result, full_check)
                if result.error is None:
                    reference[result.op] = wl.fingerprint(result)
        capture.calls.clear()

        stop = time.perf_counter() + args.seconds
        deadline = started + args.deadline
        while True:
            trace_this = args.trace and len(traced) < len(untraced)
            on_cpu(len(traced if trace_this else untraced))
            if trace_this:
                with instrument(tracing(tracer)):
                    root = tracer.open(ROOT, "iteration")
                    results = run_ops(ops)
                    tracer.close(root)
                traced.append(tracer.spans[root].end - tracer.spans[root].start)
            else:
                t0 = time.perf_counter()
                results = run_ops(ops)
                untraced.append(time.perf_counter() - t0)
            for result in results:
                tally.record(result, same_as_warmup)
            cold += [probe() for _ in range(COLD_PER_GAP)]
            now = time.perf_counter()
            enough = len(untraced) >= MIN_SAMPLES and (
                not args.trace or len(traced) >= MIN_SAMPLES)
            if now >= deadline or (now >= stop and enough):
                break
        on_cpu(None)

    out = {**_environment(tdlab), "definition": wl.definition(),
           "attempted": tally.attempted, "failed": tally.failed,
           "error_rate": tally.error_rate, "failures": tally.messages,
           "wall_samples_s": untraced, "cold_s": cold,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        out["traced_samples_s"] = traced
        out["layers"] = layer_metrics(summarize(tracer.spans), len(traced),
                                      wl.rows, traced, untraced,
                                      kernel_timings())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
