"""The three workloads, their output checks, and the layer instrumentation.

Each workload turns the benchmark seed into a fixed list of operations (one
CLI command, one sweep, one ensemble member, ...).  One iteration runs every
operation once; the program only ever sees the generated inputs.

Layers are the modules of ``tdlab`` on the hot path.  ``instrument`` wraps
every public function of those modules from outside and swaps the wrapper
into every ``tdlab`` namespace that holds the function, so calls between
modules (``cli`` -> ``simulate.run`` -> ``_kernels.integrate_hybrid``) pass
through it.  Nothing inside ``src/`` is changed.
"""

import contextlib
import functools
import hashlib
import importlib
import inspect
import math
import time
from dataclasses import astuple

import numpy as np

import tdlab
from tdlab import cli
from harness import CheckFailed, OpResult

#: Metric prefix -> module of tdlab.  ``dynamics`` and ``presets`` hold data
#: and test oracles and are not layers.
LAYERS = {
    "cli": "cli",
    "sweep": "sweep",
    "uncertainty": "uncertainty",
    "simulate": "simulate",
    "signals": "signals",
    "kernels": "_kernels",
    "describing": "describing",
}
_ALL_MODULES = ("tdlab",) + tuple(
    f"tdlab.{m}" for m in ("_kernels", "cli", "describing", "dynamics",
                           "presets", "signals", "simulate", "sweep",
                           "uncertainty"))

KERNELS = ("integrate_hybrid", "integrate_highgain", "integrate_relaxation")


#: Work counted at the boundary of a call entering the layer.  Kernel steps
#: are the length of the midpoint input array.
UNITS = {
    ("kernels", "integrate_hybrid"): lambda args, result: len(args[3]),
    ("kernels", "integrate_highgain"): lambda args, result: len(args[3]),
    ("kernels", "integrate_relaxation"): lambda args, result: len(args[2]),
    ("sweep", "sweep"): lambda args, result: len(result),
    ("sweep", "measure_point"): lambda args, result: 1,
}


def _signal_samples(args, result):
    return float(np.size(result))


@contextlib.contextmanager
def instrument(wrap):
    """Swap wrap(layer, name, fn) in for each public layer function.

    wrap may return None to leave a function alone.  Originals are restored
    on exit.
    """
    modules = [importlib.import_module(m) for m in _ALL_MODULES]
    wrappers = {}
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(f"tdlab.{modname}")
        for name, obj in vars(mod).items():
            fn = getattr(obj, "py_func", obj)  # numba dispatchers wrap one
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                w = wrap(layer, name, obj)
                if w is not None:
                    wrappers[id(obj)] = (obj, w)
    saved = []
    try:
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        yield
    finally:
        for mod, name, obj in saved:
            setattr(mod, name, obj)


def tracing(tracer):
    """wrap() for instrument(): a span around every call."""
    def wrap(layer, name, fn):
        units = UNITS.get((layer, name))
        if units is None and layer == "signals":
            units = _signal_samples

        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, *args, units=units, **kwargs)
        return traced
    return wrap


class KernelCapture:
    """wrap() for instrument(): keeps the first call of each kernel."""

    def __init__(self):
        self.calls = {}

    def __call__(self, layer, name, fn):
        if layer != "kernels" or name not in KERNELS:
            return None

        def capturing(*args):
            result = fn(*args)
            self.calls.setdefault(name, (args, result))
            return result
        return capturing


# --------------------------------------------------------------- oracles

#: Prefix of a captured kernel trajectory compared with rk4_step + *_rhs.
PREFIX_STEPS = 1000
#: Admits a re-associated exact RK4 (1.5e-10 on |x2| ~ 10) and rejects any
#: O(dt) error (dt >= 1e-4 here).
ORACLE_RTOL = 1e-8


def _oracle_rhs(name, args):
    if name == "integrate_hybrid":
        eps, a0, a1, b0, b1, alpha = args[4:10]
        p = tdlab.DiffParams(eps=eps, a0=a0, a1=a1, b0=b0, b1=b1, alpha=alpha)
        return (lambda s, v: np.array(astuple(
            tdlab.hybrid_rhs(tdlab.DiffState(s[0], s[1]), v, p)))), args[10]
    if name == "integrate_highgain":
        eps, a0, b0 = args[4:7]
        p = tdlab.DiffParams(eps=eps, a0=a0, b0=b0)
        return (lambda s, v: np.array(astuple(
            tdlab.highgain_rhs(tdlab.DiffState(s[0], s[1]), v, p)))), args[7]
    k = args[3]
    return (lambda x, g: tdlab.first_order_filter_rhs(x, g, k * k, 1.0)), args[4]


def check_kernel_prefix(name, args, result, steps=PREFIX_STEPS):
    """Compare the first steps of a kernel trajectory with the scalar oracle."""
    rhs, dt = _oracle_rhs(name, args)
    if name == "integrate_relaxation":
        grid, mid, state, traj = args[1], args[2], float(args[0]), result[:1]
    else:
        grid, mid = args[2], args[3]
        state, traj = np.array(args[:2], dtype=float), result[:2]
    bad = result[-1]
    n = min(steps, len(mid), bad if bad >= 0 else len(mid))

    def u(t):
        k = int(round(2.0 * t / dt))
        return grid[k // 2] if k % 2 == 0 else mid[k // 2]

    ref = [np.atleast_1d(state)]
    for i in range(n):
        state = tdlab.rk4_step(rhs, state, i * dt, dt, u)
        ref.append(np.atleast_1d(state))
    ref = np.array(ref)
    for c, channel in enumerate(traj):
        _close(f"{name} state {c} vs the rk4_step oracle over {n} steps",
               channel[:n + 1], ref[:, c])


def read_csv(path, header, rows):
    """Parse a CLI CSV and check header, row count and finiteness."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first.split(",") != header:
        raise CheckFailed(f"{path}: header {first!r}, expected {','.join(header)}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path}: does not parse: {exc}") from None
    if data.shape != (rows, len(header)):
        raise CheckFailed(f"{path}: shape {data.shape}, expected "
                          f"({rows}, {len(header)})")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite values")
    return data


def _close(name, got, want, rtol=ORACLE_RTOL):
    """Max deviation within rtol of the reference's scale (at least 1)."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= rtol * scale:
        raise CheckFailed(f"{name} deviates {err:.3g} (limit {rtol * scale:.3g})")


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --------------------------------------------------------------- workloads

def _kernel_output(kernels, name):
    if name not in kernels:
        raise CheckFailed(f"no {name} call observed")
    return kernels[name][1]


class _CliWorkload:
    """In-process ``tdlab.cli.main`` commands, each writing one CSV file."""

    def __init__(self, seed):
        self.seed = seed
        self.argv = {}  # op -> command line
        self.out = {}   # op -> CSV path

    def definition(self):
        return {"seed": self.seed,
                "commands": [["tdlab", *argv] for argv in self.argv.values()]}

    def ops(self):
        return [(op, functools.partial(_cli, argv))
                for op, argv in self.argv.items()]

    def fingerprint(self, result: OpResult):
        return _file_digest(self.out[result.op])


class Timeseries(_CliWorkload):
    """Single-trajectory CLI commands writing long CSVs."""

    COMMANDS = (("simulate", "paper-3A", 50001),
                ("simulate", "paper-3B", 50001),
                ("estimate", "paper-5", 20001))
    HEADERS = {"simulate": ["t", "v", "x1", "x2", "v_clean", "dv_clean"],
               "estimate": ["t", "y", "u", "delta_true", "delta_hat"]}

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.expect = {}  # op -> (header, data rows)
        for command, preset, rows in self.COMMANDS:
            op = f"{command}:{preset}"
            self.out[op] = f"{workdir}/{command}-{preset}.csv"
            self.argv[op] = [command, "--preset", preset, "--seed", str(seed),
                             "--out", self.out[op]]
            self.expect[op] = (self.HEADERS[command], rows)
        self.rows = sum(rows for _, rows in self.expect.values())

    def check(self, result: OpResult, kernels):
        header, rows = self.expect[result.op]
        data = read_csv(self.out[result.op], header, rows)
        x1, x2, _ = _kernel_output(kernels, "integrate_hybrid")
        if header[1] == "v":
            _close("CSV x1 vs kernel", data[:, 2], x1)
            _close("CSV x2 vs kernel", data[:, 3], x2)
        else:
            _close("CSV delta_hat vs kernel", data[:, 4], x2 + x1 - data[:, 2])


class Sweep(_CliWorkload):
    """Swept-sine identification of a linear, a nonlinear and a hybrid preset."""

    SWEEPS = (("paper-3A", 0.5, 90.0),
              ("paper-4-nonlinear", 2.0, 90.0),
              ("paper-4-hybrid", 2.0, 90.0))
    POINTS = 12
    #: The seed moves each grid up by at most this share of one log step, so
    #: lane lengths change with the seed while the work stays within ~3 %.
    GRID_SHIFT = 0.05
    HEADER = ["omega", "mag", "mag_db", "phase_deg", "track_mag",
              "track_phase_deg", "deriv_mag", "deriv_phase_deg"]
    #: Acceptance criterion 7: measured linear response vs freq_response.
    LINEAR_TOL = 5e-3

    def __init__(self, seed, workdir):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.grid = {}  # op -> (preset, omega_min, omega_max)
        for preset, lo, hi in self.SWEEPS:
            step = math.log(hi / lo) / (self.POINTS - 1)
            shift = math.exp(rng.uniform(0.0, self.GRID_SHIFT) * step)
            op = f"sweep:{preset}"
            self.grid[op] = (preset, lo * shift, hi * shift)
            self.out[op] = f"{workdir}/sweep-{preset}.csv"
            self.argv[op] = ["sweep", "--preset", preset,
                             "--omega-min", repr(lo * shift),
                             "--omega-max", repr(hi * shift),
                             "--points", str(self.POINTS), "--out", self.out[op]]
        self.rows = self.POINTS * len(self.grid)

    def check(self, result: OpResult, kernels):
        preset, lo, hi = self.grid[result.op]
        data = read_csv(self.out[result.op], self.HEADER, self.POINTS)
        _close("omega grid", data[:, 0], np.logspace(
            math.log10(lo), math.log10(hi), self.POINTS))
        _kernel_output(kernels, "integrate_hybrid")
        pre = tdlab.get_preset(preset)
        if pre.params.is_linear:
            lin = tdlab.linearize(pre.params, pre.signal.amplitude)
            for omega, track in zip(data[:, 0], data[:, 4]):
                ref = tdlab.freq_response(lin, float(omega)).mag
                if not abs(track - ref) <= self.LINEAR_TOL:
                    raise CheckFailed(
                        f"track_mag {track:.6g} at omega={omega:.6g} differs "
                        f"from freq_response {ref:.6g} by more than "
                        f"{self.LINEAR_TOL}")


class Ensemble:
    """Library calls only: a seed ensemble, an eps ladder, an amplitude grid."""

    MEMBERS = 16
    WINDOW = (2.0, 20.0)
    #: docs/calibration.md: 0.269 .. 0.317 over 40 seeds; a member outside
    #: this band has not reconstructed the disturbance.
    RMS_BAND = (0.2, 0.4)
    LADDER = (1 / 20, 1 / 40, 1 / 80, 1 / 160)
    MIN_ORDER = 0.5  # acceptance criterion 10, hybrid gains
    AMPLITUDES = 200
    DESCRIBING_PRESETS = ("paper-3B", "paper-4-hybrid", "paper-5")
    BODE_OMEGAS = tuple(np.logspace(math.log10(0.5), 2.0, 20))

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng(seed)
        base = np.logspace(-1.0, 1.0, self.AMPLITUDES)
        step = math.log(base[1] / base[0])
        self.amplitudes = base * np.exp(
            rng.uniform(-0.5, 0.5, self.AMPLITUDES) * step)
        self.describe_jobs = {
            f"describing:{preset}:{A:.6g}": (preset, float(A))
            for preset in self.DESCRIBING_PRESETS for A in self.amplitudes}
        self.rows = 0

    def definition(self):
        return {"seed": self.seed,
                "members": {"preset": "paper-5", "seeds": [
                    self.seed, self.seed + self.MEMBERS - 1],
                    "dt": 1e-3, "t_end": 20.0, "rms_window": self.WINDOW},
                "ladder": {"preset": "paper-4-hybrid", "eps": self.LADDER},
                "describing": {"presets": self.DESCRIBING_PRESETS,
                               "amplitudes": [float(self.amplitudes.min()),
                                              float(self.amplitudes.max()),
                                              self.AMPLITUDES],
                               "bode_points": len(self.BODE_OMEGAS)}}

    def ops(self):
        ops = [(f"member:{self.seed + k}",
                functools.partial(_member, self.seed + k))
               for k in range(self.MEMBERS)]
        ops.append(("ladder", functools.partial(_ladder, self.LADDER)))
        ops += [(op, functools.partial(_describe, preset, A, self.BODE_OMEGAS))
                for op, (preset, A) in self.describe_jobs.items()]
        return ops

    def fingerprint(self, result: OpResult):
        return repr(result.output)

    def check(self, result: OpResult, kernels):
        out = result.output
        if result.op.startswith("member:"):
            lo, hi = self.RMS_BAND
            if not lo < out < hi:
                raise CheckFailed(f"RMS(delta_hat - delta_true) = {out:.4g} "
                                  f"outside ({lo}, {hi})")
            if set(kernels) != {"integrate_relaxation", "integrate_hybrid"}:
                raise CheckFailed(f"kernel calls {sorted(kernels)}")
        elif result.op == "ladder":
            if not out > self.MIN_ORDER:
                raise CheckFailed(f"convergence order {out:.4g} <= {self.MIN_ORDER}")
        else:
            preset, A = self.describe_jobs[result.op]
            omega_n, zeta, k_pos, k_vel, mags = out
            if not 0.0 < zeta < 1.0:
                raise CheckFailed(f"zeta {zeta} outside (0, 1)")
            _close("omega_n", omega_n,
                   tdlab.natural_frequency(tdlab.get_preset(preset).params, A),
                   1e-12)
            s = 1j * np.array(self.BODE_OMEGAS)
            _close("bode magnitude", mags,
                   np.abs(k_pos / (s * s + k_vel * s + k_pos)), 1e-9)


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tdlab {argv[0]} exited with {code}")
    return code


def _member(seed):
    pre = tdlab.get_preset("paper-5")
    plant = tdlab.uncertainty_plant(noise=pre.signal.with_seed(seed).noise)
    run = tdlab.simulate_plant(plant, tdlab.SimConfig(dt=1e-3, t_end=20.0))
    est = tdlab.estimate_delta(run, pre.params)
    return tdlab.rms_error(est, "delta_hat", "delta_true", Ensemble.WINDOW)


def _ladder(eps_values):
    pre = tdlab.get_preset("paper-4-hybrid")
    family = tdlab.eps_ladder(pre.params, eps_values)
    return tdlab.convergence_order(family, tdlab.SignalSpec(1.0, 2.0))


def _describe(preset, A, omegas):
    lin = tdlab.linearize(tdlab.get_preset(preset).params, A)
    points = tdlab.bode_table(lin, omegas)
    return (lin.omega_n, lin.zeta, lin.k_pos, lin.k_vel,
            tuple(pt.mag for pt in points))


WORKLOADS = {"timeseries": Timeseries, "sweep": Sweep, "ensemble": Ensemble}


# ------------------------------------------------------ fixed-input kernels

def kernel_timings(n_steps=20_000, repeats=3):
    """us per step of each kernel on fixed inputs (median of repeats).

    The four inputs of benchmarks/bench_kernels.py: paper-5
    hybrid gains, the linear differentiator, its gain-scaled realization
    and the first-order relaxation, on 5*sin(2t) at dt = 1e-4.
    """
    from tdlab import _kernels

    dt = 1e-4
    t = np.arange(n_steps + 1) * dt
    tm = t[:-1] + 0.5 * dt
    v, vm = 5.0 * np.sin(2.0 * t), 5.0 * np.sin(2.0 * tm)
    cases = {
        "hybrid": lambda: _kernels.integrate_hybrid(
            0.0, 0.0, v, vm, 1 / 45, 0.05, 0.015, 0.3, 0.015, 0.6, dt, 1e9),
        "linear": lambda: _kernels.integrate_hybrid(
            0.0, 0.0, v, vm, 1 / 45, 0.05, 0.0, 0.3, 0.0, 1.0, dt, 1e9),
        "highgain": lambda: _kernels.integrate_highgain(
            0.0, 0.0, v, vm, 1 / 45, 0.05, 0.3, dt, 1e9),
        "relaxation": lambda: _kernels.integrate_relaxation(
            0.0, v, vm, 1.0, dt, 1e9),
    }
    out = {}
    for name, fn in cases.items():
        fn()  # JIT compilation on the numba backend
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = sorted(times)[len(times) // 2] / n_steps * 1e6
    return out
