"""Command-line front end.

Subcommands configure a differentiator (from a preset and/or explicit
flags), run one experiment, and write CSV tables:

    linearize   equivalent second-order system at a given amplitude
    simulate    time-domain run          -> t,v,x1,x2,v_clean,dv_clean
    bode        analytic response table  -> omega,mag,mag_db,phase_deg
    sweep       measured response table  -> ...,track_*,deriv_* columns
    estimate    disturbance estimation   -> t,y,u,delta_true,delta_hat

Exit codes: 0 success, 2 flag/usage error, invalid value (NaN and
infinite values and runs over the step budget included) or an output file
that cannot be written, 3 numerical failure.  All stochastic channels are
controlled by --seed (default 12345, never wall-clock), so repeated runs
are byte-identical.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .describing import DegenerateError, OverdampedError, bode_table, linearize
from .dynamics import DiffParams
from .presets import PRESETS, get_preset, uncertainty_plant
from .signals import DEFAULT_SEED, NoiseSpec, SignalSpec
from .simulate import MAX_STEPS, InstabilityError, SimConfig, default_dt, run
from .sweep import sweep, tracking_bandwidth
from .uncertainty import estimate_delta, simulate_plant

_FMT = "{:.9g}"


#: Rows formatted per block by _write_csv; bounds its temporaries.
_CSV_BLOCK_ROWS = 256


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns as a CSV, each value as %.9g."""
    fmt = ("%.9g," * len(columns))[:-1] + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            rows = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in columns])
            fh.write("".join([fmt % tuple(row) for row in rows.tolist()]))


def _write_plot_script(path: str, csv_path: str, title: str) -> None:
    """Emit a small self-contained matplotlib script referencing the CSV."""
    lines = [
        "#!/usr/bin/env python3",
        f"# Plot helper for {csv_path}",
        "import csv",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"with open({csv_path!r}) as fh:",
        "    reader = csv.reader(fh)",
        "    header = next(reader)",
        "    cols = {name: [] for name in header}",
        "    for row in reader:",
        "        for name, val in zip(header, row):",
        "            cols[name].append(float(val))",
        "",
        "x = cols[header[0]]",
        "fig, axes = plt.subplots(len(header) - 1, 1, sharex=True, squeeze=False)",
        "for ax, name in zip(axes[:, 0], header[1:]):",
        "    ax.plot(x, cols[name])",
        "    ax.set_ylabel(name)",
        "    ax.grid(True)",
        "axes[-1, 0].set_xlabel(header[0])",
        f"fig.suptitle({title!r})",
        "plt.show()",
    ]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(args, header: list[str], columns, title: str, *notes: str) -> None:
    """Write the --out CSV and the plot script, then report them and notes."""
    _write_csv(args.out, header, columns)
    if args.plot_script:
        try:
            _write_plot_script(args.plot_script, args.out, title)
        except OSError:  # a failed command leaves no output file
            os.remove(args.out)
            raise
    print(f"wrote {args.out} ({len(columns[0])} rows)")
    for note in notes:
        print(note)
    if args.plot_script:
        print(f"wrote {args.plot_script}")


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="start from a named experiment preset")
    gain = sub.add_mutually_exclusive_group()
    gain.add_argument("--eps", type=float, help="perturbation parameter")
    gain.add_argument("--r", type=float, help="gain parameter R = 1/eps")
    sub.add_argument("--a0", type=float, help="linear position gain")
    sub.add_argument("--a1", type=float, help="nonlinear position gain")
    sub.add_argument("--b0", type=float, help="linear velocity gain")
    sub.add_argument("--b1", type=float, help="nonlinear velocity gain")
    sub.add_argument("--alpha", type=float, help="signed-power exponent in (0,1]")


def _add_noise_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--noise-power", type=float, help="noise power (units^2*s)")
    sub.add_argument("--noise-ts", type=float, help="noise hold interval [s]")
    sub.add_argument("--seed", type=int, help=f"noise seed (default {DEFAULT_SEED})")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--plot-script", help="also write a plotting script")


def _resolve(args, parser) -> tuple[DiffParams, SignalSpec]:
    """Preset values, or a required eps and SignalSpec(1, 2), under the flags.

    args holds only the flags and defaults that its subcommand defines.
    """
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if args.preset:
        preset = get_preset(args.preset)
        fields, spec = dataclasses.asdict(preset.params), preset.signal
    else:
        fields, spec = {}, SignalSpec(amplitude=1.0, omega=2.0)
    if "r" in flags:
        if flags["r"] <= 0:
            parser.error("--r must be positive")
        fields["eps"] = 1.0 / flags["r"]
    fields.update((k, v) for k, v in flags.items()
                  if k in ("eps", "a0", "a1", "b0", "b1", "alpha"))
    if "eps" not in fields:
        parser.error("either --preset or --eps/--r is required")
    noise = spec.noise
    if "noise_power" in flags or "noise_ts" in flags:
        noise = noise or NoiseSpec(power=0.0, sample_time=0.01)
    try:
        p = DiffParams(**fields)
        if noise is not None:
            noise = NoiseSpec(power=flags.get("noise_power", noise.power),
                              sample_time=flags.get("noise_ts", noise.sample_time),
                              seed=flags.get("seed", noise.seed))
    except ValueError as exc:
        parser.error(str(exc))
    return p, SignalSpec(amplitude=flags.get("amplitude", spec.amplitude),
                         omega=flags.get("omega", spec.omega), noise=noise)


def _log_grid(args, parser) -> np.ndarray:
    if not (args.omega_min > 0 and args.omega_max >= args.omega_min):
        parser.error("need 0 < --omega-min <= --omega-max")
    if not 1 <= args.points <= MAX_STEPS:
        parser.error(f"--points must lie in [1, MAX_STEPS={MAX_STEPS}]")
    if args.points > 1 and args.omega_max == args.omega_min:
        parser.error("--points > 1 needs --omega-max > --omega-min")
    return np.logspace(np.log10(args.omega_min), np.log10(args.omega_max),
                       args.points)


def cmd_linearize(args, parser) -> int:
    p, spec = _resolve(args, parser)
    A = spec.amplitude
    lin = linearize(p, A)
    print(f"amplitude   A       = {_FMT.format(A)}")
    print(f"natural frequency   = {_FMT.format(lin.omega_n)} rad/s")
    print(f"damping ratio       = {_FMT.format(lin.zeta)}")
    print(f"damped frequency    = {_FMT.format(lin.omega_d)} rad/s")
    num = ", ".join(_FMT.format(c) for c in lin.numerator)
    den = ", ".join(_FMT.format(c) for c in lin.denominator)
    print(f"G(s) numerator      = [{num}]")
    print(f"G(s) denominator    = [{den}]")
    if args.csv:
        _write_csv(args.csv, ["amplitude", "omega_n", "zeta", "omega_d",
                              "k_pos", "k_vel"],
                   [[A], [lin.omega_n], [lin.zeta], [lin.omega_d],
                    [lin.k_pos], [lin.k_vel]])
        print(f"wrote {args.csv}")
    return 0


def cmd_simulate(args, parser) -> int:
    p, spec = _resolve(args, parser)
    dt = args.dt if args.dt is not None else default_dt(p, spec)
    t_end = args.t_end if args.t_end is not None else (
        get_preset(args.preset).t_end if args.preset else 20.0)
    ts = run(p, spec, SimConfig(dt=dt, t_end=t_end))
    names = ["t", "v", "x1", "x2", "v_clean", "dv_clean"]
    _emit(args, names, [ts.t, *(ts.channel(n) for n in names[1:])],
          "differentiator run")
    return 0


def cmd_bode(args, parser) -> int:
    p, spec = _resolve(args, parser)
    lin = linearize(p, spec.amplitude)
    points = bode_table(lin, _log_grid(args, parser))
    _emit(args, ["omega", "mag", "mag_db", "phase_deg"],
          list(zip(*[(pt.omega, pt.mag, pt.mag_db, pt.phase_deg)
                     for pt in points])), "analytic response",
          f"natural frequency = {_FMT.format(lin.omega_n)} rad/s, "
          f"damping ratio = {_FMT.format(lin.zeta)}")
    return 0


def cmd_sweep(args, parser) -> int:
    p, spec = _resolve(args, parser)
    grid = _log_grid(args, parser)
    lin = linearize(p, spec.amplitude)
    measured = sweep(p, spec.amplitude, grid, dt=args.dt)
    columns = list(zip(*[
        (pt.omega, ref.mag, ref.mag_db, ref.phase_deg, pt.track_mag,
         pt.track_phase_deg, pt.deriv_mag, pt.deriv_phase_deg)
        for pt, ref in zip(measured, bode_table(lin, grid))]))
    try:
        bandwidth = (f"-3 dB tracking bandwidth = "
                     f"{_FMT.format(tracking_bandwidth(measured))} rad/s")
    except ValueError as exc:
        bandwidth = f"-3 dB tracking bandwidth: {exc}"
    _emit(args, ["omega", "mag", "mag_db", "phase_deg", "track_mag",
                 "track_phase_deg", "deriv_mag", "deriv_phase_deg"],
          columns, "measured response", bandwidth)
    return 0


def cmd_estimate(args, parser) -> int:
    p, spec = _resolve(args, parser)
    dt = args.dt if args.dt is not None else default_dt(p, spec)
    plant = uncertainty_plant(noise=spec.noise)
    ts = estimate_delta(
        simulate_plant(plant, SimConfig(dt=dt, t_end=args.t_end)), p)
    names = ["t", "y", "u", "delta_true", "delta_hat"]
    _emit(args, names, [ts.t, *(ts.channel(n) for n in names[1:])],
          "disturbance estimation")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="Differentiator laboratory: simulation, equivalent "
                    "linearization, swept-sine identification, disturbance "
                    "estimation.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("linearize",
                         help="equivalent second-order linearization")
    _add_param_flags(sp)
    sp.add_argument("--amplitude", type=float,
                    help="oscillation amplitude (default: preset amplitude or 1)")
    sp.add_argument("--csv", help="also write a machine-readable CSV row")
    sp.set_defaults(func=cmd_linearize, omega=0.0)  # no input frequency

    sp = subs.add_parser("simulate", help="time-domain run, CSV output")
    _add_param_flags(sp)
    sp.add_argument("--amplitude", type=float, help="input amplitude")
    sp.add_argument("--omega", type=float, help="input frequency [rad/s]")
    _add_noise_flags(sp)
    sp.add_argument("--dt", type=float, help="integration step [s]")
    sp.add_argument("--t-end", type=float, help="duration [s]")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("bode", help="analytic frequency-response table")
    _add_param_flags(sp)
    sp.add_argument("--amplitude", type=float, help="linearization amplitude")
    sp.add_argument("--omega-min", type=float, default=0.5)
    sp.add_argument("--omega-max", type=float, default=100.0)
    sp.add_argument("--points", type=int, default=50)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_bode, omega=0.0)  # no input frequency

    sp = subs.add_parser("sweep", help="swept-sine measured response table")
    _add_param_flags(sp)
    sp.add_argument("--amplitude", type=float, help="input amplitude")
    sp.add_argument("--omega-min", type=float, default=0.5)
    sp.add_argument("--omega-max", type=float, default=2.0 * np.pi * 100.0)
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--dt", type=float, help="target integration step [s]")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = subs.add_parser("estimate",
                         help="disturbance estimation on the uncertain plant")
    _add_param_flags(sp)
    _add_noise_flags(sp)
    sp.add_argument("--dt", type=float, help="integration step [s]")
    sp.add_argument("--t-end", type=float, default=20.0, help="duration [s]")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_estimate)
    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n  ",
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "plot_script", None) and (
            os.path.realpath(args.plot_script) == os.path.realpath(args.out)):
        parser.error("--out and --plot-script name the same file")
    try:
        return args.func(args, parser)
    except (OverdampedError, DegenerateError, InstabilityError) as exc:
        return _fail(exc, 3)
    except ValueError as exc:  # a bad value that the flag parser let through
        return _fail(exc, 2)
    except OSError as exc:  # an --out, --csv or --plot-script path
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
