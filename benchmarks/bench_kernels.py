#!/usr/bin/env python3
"""Time the integration kernels of this checkout on four fixed inputs.

Prints the backend of the nonlinear loop and the microseconds per RK4 step
of the paper-5 hybrid differentiator, the linear differentiator, its
gain-scaled realization and the first-order relaxation, on 5 sin 2t at
dt = 1e-4.  The inputs and the timing are those of
``bench/workloads.kernel_timings`` (20 000 steps, median of 3 runs).

Usage:
    python benchmarks/bench_kernels.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tdlab import backend  # noqa: E402
from workloads import kernel_timings  # noqa: E402


def main():
    print(f"backend: {backend()}")
    for name, us in kernel_timings().items():
        print(f"{name:<12} {us:8.3f} us/step")


if __name__ == "__main__":
    main()
