"""Command-line front end.

Subcommands configure a differentiator (from a preset and/or explicit
flags), run one experiment, and write CSV tables:

    linearize   equivalent second-order system at a given amplitude
    simulate    time-domain run          -> t,v,x1,x2,v_clean,dv_clean
    bode        analytic response table  -> omega,mag,mag_db,phase_deg
    sweep       measured response table  -> ...,track_*,deriv_* columns
    estimate    disturbance estimation   -> t,y,u,delta_true,delta_hat

Exit codes: 0 success, 2 flag/usage error, invalid value (NaN, infinite,
an overflowing noise variance, a negative seed, a run over the step
budget) or an output file that cannot be written, 3 numerical failure.
All stochastic channels are controlled by --seed (default 12345, never
wall-clock), so repeated runs are byte-identical.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .describing import (DegenerateError, OverdampedError, bode_table,
                         freq_response, linearize)
from .dynamics import DiffParams
from .presets import PRESETS, get_preset, uncertainty_plant
from .signals import DEFAULT_SEED, NoiseSpec, SignalSpec
from .simulate import MAX_STEPS, InstabilityError, SimConfig, default_dt, run
from .sweep import sweep, tracking_bandwidth
from .uncertainty import estimate_delta, simulate_plant

_FMT = "{:.9g}"


#: Rows formatted per block by _write_csv; bounds its temporaries.
_CSV_BLOCK_ROWS = 1024


# _write_csv writes each value as one record of four little-endian 8-byte
# words whose bytes are the characters of %.9g in order, with NUL where a
# slot is empty; deleting the NULs of a block of records leaves its text.
#   word 0: sign, and the "0.000" of -4 <= X < 0 (X the decimal exponent)
#   word 1: digits 0..3 of the 9 significant digits, each with a '.' slot
#   word 2: digits 4..7, likewise
#   word 3: digit 8, "e+XX", the separator
# The tables below are indexed by X + 14 for -14 <= X <= 14, and by the
# number k of significant digits left once trailing zeros are stripped.
_X = range(-14, 15)
# 10**(8 - X) is _SCALE_UP / _SCALE_DOWN, powers of ten up to 1e22, exact
_SCALE_UP = np.array([float(10 ** max(8 - x, 0)) for x in _X])
_SCALE_DOWN = np.array([float(10 ** max(x - 8, 0)) for x in _X])


def _digit_words():
    """Word 1 or 2 of each 4-digit group g < 10000: its digits, each
    followed by '.'."""
    chars = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chars[..., 0] = digit[:, None, None, None]
    chars[..., 2] = digit[:, None, None]
    chars[..., 4] = digit[:, None]
    chars[..., 6] = digit
    return chars.view("<u8").ravel()


def _by_last_digit(zero, *k):
    """Table over the 4-digit groups g < 10000: zero for g = 0, else k[i]
    where digit i is the last nonzero digit of g."""
    table = np.full((10, 10, 10, 10), zero, np.int8)
    table[1:, 0, 0, 0] = k[0]
    table[:, 1:, 0, 0] = k[1]
    table[:, :, 1:, 0] = k[2]
    table[..., 1:] = k[3]
    return table.ravel()


def _masks(x, k):
    """Masks of words 1..3 of a value of exponent x and k digits: the
    digits shown, the '.' used, and in word 3 the exponent's characters."""
    fixed = -4 <= x <= 8
    # fixed notation shows every digit up to the units and a '.' after
    # them, scientific notation a '.' after digit 0; each only where
    # digits follow
    shown = max(k, x + 1) if fixed else k
    dot = x if fixed else 0
    words = [0, 0, 0]
    for i in range(shown):
        words[i // 4] |= 0xFF << 16 * (i % 4)
    if 0 <= dot < shown - 1:
        words[dot // 4] |= 0xFF << 16 * (dot % 4) + 8
    if not fixed:
        words[2] |= int.from_bytes(b"e%+03d" % x, "little") << 16
    return words


_DIGITS4 = _digit_words()
#: k needed by digits 0..3 of D (g is 0 only for x = 0, written "0"), by
#: digits 4..7 and by digit 8; k is the largest of the three.
_K_HI = _by_last_digit(1, 1, 2, 3, 4)
_K_MID = _by_last_digit(0, 5, 6, 7, 8)
_K_LAST = np.array([0] + [9] * 9, np.int8)
#: Masks of words 1..3 by 10 * (X + 14) + k.
_KEEP1, _KEEP2, _KEEP3 = np.array(
    [_masks(x, k) for x in _X for k in range(10)], np.uint64).T.copy()
#: Word 3 of digit 8 = d, all ones where _KEEP3 holds the exponent.
_LAST = np.array([(ord("0") + d) | 0xFFFFFFFF << 16 for d in range(10)],
                 np.uint64)
#: Word 0 by X + 14 + 29 * (sign bit of x).
_HEAD = np.array([
    sign | int.from_bytes(b"0." + b"0" * (-x - 1), "little") << 8
    if -4 <= x < 0 else sign for sign in (0, ord("-")) for x in _X], np.uint64)


def _csv_block(v, sep, rec):
    """CSV text of the values v (row-major), with separator words sep,
    built in the record buffer rec (at least v.size rows)."""
    a = np.abs(v)
    fast = (a >= 1e-13) & (a < 1e14)
    y = np.where(fast, a, 1.0)
    x = np.floor(np.log10(y)).astype(np.intp) + 14  # X + 14, maybe one off
    y *= _SCALE_UP[x]
    y /= _SCALE_DOWN[x]
    off = (y >= 1e9).view(np.int8) - (y < 1e8).view(np.int8)
    if off.any():
        j = np.flatnonzero(off)
        x[j] += off[j]
        y[j] = a[j] * _SCALE_UP[x[j]] / _SCALE_DOWN[x[j]]
    y *= fast  # 0 writes "0"; the other values not fast fall back below
    d = np.rint(y)
    slow = np.abs(y - d) > 0.5 - 2.5e-7  # rint(y) may round the other way
    slow |= ~fast & (a != 0)
    carry = d >= 1e9
    if carry.any():
        d[carry] = 1e8
        x[carry] += 1
    d = d.astype(np.intp)
    hi = d // 100000
    lo = d - hi * 100000
    mid = lo // 10
    last = lo - mid * 10
    k = np.maximum(_K_HI[hi], _K_MID[mid])
    k = np.maximum(k, _K_LAST[last], out=k) + 10 * x  # index of (X, k)
    rec = rec[:v.size]
    rec[:, 0] = _HEAD[x + len(_X) * np.signbit(v)]
    np.bitwise_and(_DIGITS4[hi], _KEEP1[k], out=rec[:, 1])
    np.bitwise_and(_DIGITS4[mid], _KEEP2[k], out=rec[:, 2])
    np.bitwise_or(_LAST[last] & _KEEP3[k], sep, out=rec[:, 3])
    if slow.any():
        j = np.flatnonzero(slow)
        text = b"".join([(b"%.9g" % f).ljust(24, b"\0")
                         for f in v[j].tolist()])
        rec[j, :3] = np.frombuffer(text, "<u8").reshape(-1, 3)
        rec[j, 3] = sep[j]
    return rec.tobytes().translate(None, b"\0")


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns as a CSV, each value as '%.9g' writes it.

    Each block of rows is formatted in numpy.  A value x of decimal
    exponent X = floor(log10|x|) has the 9 digits D = rint(y) of
    y = |x| * 10**(8 - X), carried to 1e8 (and X + 1) where D reaches 1e9.
    10**k is exact for 0 <= k <= 22, so for 1e-13 <= |x| < 1e14 y is
    |x| times or divided by one exact power: one rounding, which leaves y
    within half an ulp, at most 6e-8, of the exact product, and so puts
    D where '%.9g' rounds unless y lies within 2.5e-7 of a half.  A log10
    one off shows as y outside [1e8, 1e9) and is corrected.  Python's
    '%.9g' formats the values whose rounding is in doubt: those near a
    half, the non-finite, and those outside that range other than 0.
    """
    n, ncols = len(columns[0]), len(columns)
    block = np.empty((min(n, _CSV_BLOCK_ROWS), ncols))
    sep = np.tile(np.array([ord(",") << 48] * (ncols - 1) + [ord("\n") << 48],
                           np.uint64), len(block))  # byte 6 of word 3
    # one record buffer per call: a new one per block, past the mmap
    # threshold, would be mapped and faulted in again each time
    rec = np.empty((block.size, 4), "<u8")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            rows = block[:n - i]
            for j, c in enumerate(columns):
                rows[:, j] = c[i:i + _CSV_BLOCK_ROWS]
            fh.write(_csv_block(rows.ravel(), sep[:rows.size], rec))


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
    if not 0 < args.omega_min <= args.omega_max < np.inf:
        parser.error("need 0 < --omega-min <= --omega-max < inf")
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
    columns = list(zip(*[  # omega, then the analytic and measured responses
        (fr.omega, fr.mag, fr.mag_db, fr.phase_deg, pt.track_mag,
         pt.track_phase_deg, pt.deriv_mag, pt.deriv_phase_deg)
        for pt in measured for fr in [freq_response(lin, pt.omega)]]))
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


_parser = functools.cache(build_parser)  # main's: parse_args keeps no state


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n  ",
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _parser()
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
