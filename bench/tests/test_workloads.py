"""Self-tests of the layer instrumentation and the output checks.

    python3 -m pytest bench/tests -q
"""

import numpy as np
import pytest

import tdlab
from harness import CheckFailed, Tracer, summarize
from workloads import (KernelCapture, check_kernel_prefix, instrument,
                       read_csv, tracing)


def _short_run():
    p = tdlab.get_preset("paper-4-hybrid").params
    return tdlab.run(p, tdlab.SignalSpec(1.0, 2.0),
                     tdlab.SimConfig(dt=5e-4, t_end=0.5))


def test_instrument_traces_calls_between_modules_and_restores():
    original = tdlab.simulate.run
    tr = Tracer()
    with instrument(tracing(tr)):
        assert tdlab.cli.run is not original
        _short_run()
    assert tdlab.cli.run is original and tdlab.simulate.run is original
    st = summarize(tr.spans)
    assert st["simulate"].calls == 1
    assert st["kernels"].units == 1000
    assert st["signals"].units > 0


def _captured_hybrid():
    cap = KernelCapture()
    with instrument(cap):
        _short_run()
    return cap.calls["integrate_hybrid"]


def test_kernel_oracle_admits_reassociation_error_and_rejects_order_dt():
    args, (x1, x2, bad) = _captured_hybrid()
    check_kernel_prefix("integrate_hybrid", args, (x1, x2, bad))
    wiggle = 1.5e-10 * np.cos(np.arange(len(x2)))
    check_kernel_prefix("integrate_hybrid", args, (x1, x2 + wiggle, bad))
    # midpoint stages fed the step-start input: a first-order error
    shifted = list(args)
    shifted[3] = args[2][:-1]
    y1, y2, _ = tdlab._kernels.integrate_hybrid(*shifted)
    with pytest.raises(CheckFailed):
        check_kernel_prefix("integrate_hybrid", args, (y1, y2, bad))


def test_csv_check_rejects_bad_files(tmp_path):
    header = ["t", "x"]
    path = tmp_path / "out.csv"
    path.write_text("t,x\n0,1\n0.1,2\n")
    assert read_csv(path, header, 2).shape == (2, 2)
    for text in ("t,y\n0,1\n0.1,2\n", "t,x\n0,1\n", "t,x\n0,1\n0.1,nan\n",
                 "t,x\n0,1\n0.1,abc\n"):
        path.write_text(text)
        with pytest.raises(CheckFailed):
            read_csv(path, header, 2)
