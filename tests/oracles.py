"""Test oracles that the library itself does not call."""

import math
import tracemalloc

import numpy as np

from tdlab.simulate import TimeSeries


def fundamental_component(ts: TimeSeries, channel: str, omega: float,
                          window: tuple[float, float]) -> tuple[float, float]:
    """Amplitude and phase (degrees, vs sin(omega*t)) of the fundamental.

    Correlates the channel with sin/cos over the window by trapezoidal
    integration.  The window must span an integer number (>= 3) of periods,
    otherwise the harmonic-rejection property of the correlation is lost.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    t0, t1 = window
    i0 = int(np.searchsorted(ts.t, t0 - 1e-12))
    i1 = int(np.searchsorted(ts.t, t1 + 1e-12)) - 1
    if i1 <= i0:
        raise ValueError("window contains no samples")
    span = ts.t[i1] - ts.t[i0]
    period = 2.0 * math.pi / omega
    n_per = span / period
    # both window edges snap to the grid, so allow up to one step of
    # quantization; anything beyond that breaks harmonic rejection
    if abs(n_per - round(n_per)) * period > 1.01 * ts.dt + 1e-9 * span:
        raise ValueError(
            f"window of {span:g} s is not an integer number of periods "
            f"({n_per:.6f} periods of {period:g} s)")
    if round(n_per) < 3:
        raise ValueError("window must cover at least 3 periods")
    tt = ts.t[i0:i1 + 1]
    yy = ts.channel(channel)[i0:i1 + 1]
    a = 2.0 / span * np.trapezoid(yy * np.sin(omega * tt), tt)
    b = 2.0 / span * np.trapezoid(yy * np.cos(omega * tt), tt)
    return float(np.hypot(a, b)), float(math.degrees(math.atan2(b, a)))


def bytes_per_step(run_steps, n: int) -> float:
    """Traced peak of run_steps(2*n) less that of run_steps(n), per step.

    run_steps(n) runs once untraced first, so that the modules a first call
    imports (numpy.random for a noise) are in place.  With n at least one
    window of the kernels, both peaks hold the same fixed temporaries,
    which cancel.
    """
    run_steps(n)
    peaks = []
    for steps in (n, 2 * n):
        tracemalloc.start()
        try:
            run_steps(steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / n
