#!/usr/bin/env python3
"""Time the integration kernels of this checkout on four fixed inputs.

Prints the microseconds per RK4 step of the paper-5 hybrid differentiator,
the linear differentiator, its gain-scaled realization and the first-order
relaxation, on 5 sin 2t at dt = 1e-4.  The inputs and the timing are those
of ``bench/workloads.kernel_timings`` (20 000 steps, median of 3 runs).
Next to ``hybrid`` (the path ``integrate_hybrid`` takes) it prints
``hybrid-loop``: the per-step loop ``_kernels._hybrid_loop`` on the same
paper-5 input.

Usage:
    python benchmarks/bench_kernels.py
"""

import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tdlab import _kernels  # noqa: E402
from workloads import kernel_timings  # noqa: E402


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


if __name__ == "__main__":
    main()
