#!/usr/bin/env python3
"""Compare what two source trees of tdlab write, command by command.

Each tree runs the fixed list of ``commands`` in one fresh interpreter of
its own, inside its own temporary directory, by calling
``tdlab.cli.main`` in-process: every subcommand on every preset, the
benchmark's full-length ``timeseries`` and ``sweep`` commands, commands
that must fail cleanly or that write values no other command does, and
one command per fallback path of the integration and the sweep; noisy
ones run at seed 12345.  A RuntimeWarning is an error, as under the test
suite, and usage messages are wrapped at 80 columns.  Each tree also
records the slopes of the eps ladders of ``LADDERS``, library outputs
that no command writes.

``golden_record`` holds what a tree wrote: per command the exit code,
stdout, stderr and, per file written, its sha256 and, for a CSV, each
column's largest |x| and sum; the slopes; the Python, numpy and scipy
versions.  ``golden_differences`` of two records names each command,
file, CSV column and slope that moved, a slope with its relative
difference.  ``tests/test_golden_outputs.py`` replays the commands
against the record committed as ``tests/golden_outputs.json``.

Given two trees, the script prints ``golden_differences`` of their
records, each moved CSV column's largest relative difference and the old
and new tails of each moved stdout and stderr, then how many commands
and library outputs differ; it exits 1 on any difference, else 0.  With
``--golden`` it runs one tree and writes its golden record instead: a
change that moves an output rewrites the committed record and says so.

Usage:
    python benchmarks/compare_outputs.py OLD_SRC NEW_SRC
    python benchmarks/compare_outputs.py --golden SRC RECORD

OLD_SRC, NEW_SRC and SRC are directories holding the ``tdlab`` package,
e.g. the ``src`` of a checkout of the parent commit and of this one.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np

SEED = "12345"
PRESETS = ("paper-3A", "paper-3B", "paper-3C-linear", "paper-3C-hybrid",
           "paper-4-linear", "paper-4-nonlinear", "paper-4-hybrid", "paper-5")
#: (preset, eps scale) of each convergence_order ladder recorded: the eps
#: 1/20 .. 1/160 ladders of acceptance criterion 10 (paper-4-hybrid's is
#: also the benchmark's ensemble ladder) and the doubled-eps ladder of
#: test_slope_scale_invariant, all on SignalSpec(1, 2).
LADDERS = (("paper-3A", 1), ("paper-4-hybrid", 1), ("paper-3A", 2))
LADDER_EPS = (1 / 20, 1 / 40, 1 / 80, 1 / 160)


def commands() -> list[list[str]]:
    """The fixed command list; ``{out}`` stands for a per-command file stem."""
    cmds = []
    for p in PRESETS:
        cmds += [
            ["linearize", "--preset", p, "--csv", "{out}.csv"],
            ["simulate", "--preset", p, "--seed", SEED, "--t-end", "2",
             "--out", "{out}.csv", "--plot-script", "{out}.py"],
            ["bode", "--preset", p, "--out", "{out}.csv",
             "--plot-script", "{out}.py"],
            ["sweep", "--preset", p, "--omega-min", "1", "--omega-max", "30",
             "--points", "4", "--out", "{out}.csv"],
            ["estimate", "--preset", p, "--seed", SEED, "--t-end", "2",
             "--out", "{out}.csv"],
        ]
    # the benchmark's full-length commands, on their unshifted grids
    cmds += [["simulate", "--preset", p, "--seed", SEED, "--out", "{out}.csv"]
             for p in ("paper-3A", "paper-3B")]
    cmds += [["estimate", "--preset", "paper-5", "--seed", SEED,
              "--out", "{out}.csv"]]
    cmds += [["sweep", "--preset", p, "--omega-min", lo, "--omega-max", "90",
              "--points", "12", "--out", "{out}.csv"]
             for p, lo in (("paper-3A", "0.5"), ("paper-4-nonlinear", "2"),
                           ("paper-4-hybrid", "2"))]
    # values that must fail cleanly
    out = ["--out", "{out}.csv"]
    cmds += [
        ["linearize", "--eps", "1", "--r", "2", "--a0", "1", "--b0", "1"],
        ["linearize", "--preset", "paper-3A", "--amplitude", "nan"],
        ["linearize", "--eps", "inf", "--a0", "1", "--b0", "1"],
        ["simulate", "--preset", "paper-3A", "--amplitude", "nan", *out],
        ["simulate", "--preset", "paper-3A", "--omega", "inf", *out],
        ["simulate", "--preset", "paper-3A", "--noise-power", "nan", *out],
        ["simulate", "--preset", "paper-3A", "--dt", "0.02", *out],
        ["simulate", "--preset", "paper-3A", "--t-end", "inf", *out],
        ["sweep", "--preset", "paper-3A", "--dt", "0", *out],
        ["sweep", "--preset", "paper-3A", "--dt", "1e-320", "--omega-min",
         "1", "--omega-max", "1", "--points", "1", *out],
        ["estimate", "--preset", "paper-5", "--dt", "1e-3", "--noise-ts",
         "1e-6", "--t-end", "2", *out],
        ["estimate", "--preset", "paper-5", "--amplitude", "3", "--omega",
         "7", "--t-end", "2", *out],
        ["sweep", "--preset", "paper-3A", "--dt", "0.02", "--omega-min", "1",
         "--omega-max", "1.7e308", "--points", "2", *out],
        ["simulate", "--preset", "paper-3A", "--noise-ts", "5e-324", *out],
        ["simulate", "--preset", "paper-3B", "--omega", "1.7e308",
         "--t-end", "0.5", *out],
        ["simulate", "--r", "1.7e308", "--a0", "1", "--b0", "1", "--dt",
         "1e-3", "--t-end", "1", *out],
        ["linearize", "--preset", "paper-3B", "--alpha", "1e-3",
         "--amplitude", "5e-324"],
        ["linearize", "--eps", "1e-100", "--a0", "1e300", "--b0", "1",
         "--csv", "{out}.csv"],
        # an amplitude whose product with the preset's omega overflows:
        # linearize and bode take no omega, so only bode's grid can fail
        ["linearize", "--preset", "paper-3B", "--amplitude", "1e308"],
        ["bode", "--preset", "paper-3B", "--amplitude", "1e308",
         "--omega-min", "1e-77", "--omega-max", "1e-75", "--points", "3",
         *out],
    ]
    # a noise of zero power, which sets neither the default step nor a hold
    cmds += [
        ["simulate", "--preset", "paper-4-linear", "--noise-ts", "0.003",
         "--t-end", "2", *out],
        ["simulate", "--eps", "1", "--a0", "1", "--b0", "1", "--noise-power",
         "0", "--noise-ts", "1e-7", "--t-end", "1", *out],
    ]
    # values printed in scientific notation with positive and with
    # three-digit exponents, which no command above writes
    cmds += [["bode", "--preset", "paper-3A", "--omega-min", lo,
              "--omega-max", hi, "--points", "3", *out]
             for lo, hi in (("1e10", "1e60"), ("1e-120", "1e-100"))]
    # an infinite frequency bound, and a noise variance that overflows in
    # the differentiator's input and in the plant's measurement
    cmds += [
        ["bode", "--preset", "paper-3A", "--omega-max=inf", *out],
        ["simulate", "--preset", "paper-3A", "--noise-power=1.7e308",
         "--t-end=0.5", *out],
        ["estimate", "--preset", "paper-5", "--noise-power=1.7e308",
         "--t-end=0.5", *out],
    ]
    # the fallback paths: a lane too short for Newton, an alpha below its
    # gate, a lane where Newton gives up in its first window, the loop's
    # divergent step, a sweep point whose half solve fails (a warm-up,
    # then the full-period retry) and a divergent linear recurrence
    cmds += [
        ["simulate", "--preset", "paper-3B", "--seed", SEED, "--t-end", "0.2",
         *out],
        ["simulate", "--preset", "paper-4-nonlinear", "--alpha", "0.2",
         "--t-end", "2", *out],
        ["simulate", "--preset", "paper-3B", "--alpha", "0.3", "--seed", SEED,
         "--t-end", "5", *out],
        ["simulate", "--preset", "paper-4-hybrid", "--dt", "0.1", "--t-end",
         "40", *out],
        ["sweep", "--r", "45", "--a1", "0.015", "--b1", "0.015", "--alpha",
         "0.2", "--omega-min", "1", "--omega-max", "1", "--points", "1", *out],
        ["simulate", "--r", "1e150", "--a0", "1", "--b0", "1", "--dt", "1e-3",
         "--t-end", "0.01", *out],
    ]
    return cmds


def library_outputs() -> dict:
    """The slope of each ladder of LADDERS, or its error, by name."""
    import tdlab

    out = {}
    for preset, scale in LADDERS:
        family = tdlab.eps_ladder(tdlab.get_preset(preset).params,
                                  [scale * e for e in LADDER_EPS])
        name = f"convergence_order {preset} eps {scale}/20..{scale}/160"
        try:
            out[name] = tdlab.convergence_order(family,
                                                tdlab.SignalSpec(1.0, 2.0))
        except Exception as exc:  # recorded, not raised: a finding
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def run_tree(workdir: str) -> None:
    """Run every command in workdir; write results.json and library.json."""
    from tdlab.cli import main

    results = []
    for i, argv in enumerate(commands()):
        argv = [a.replace("{out}", os.path.join(workdir, f"c{i:02d}"))
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its usage messages to the terminal's width
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              mock.patch.dict(os.environ, COLUMNS="80"),
              warnings.catch_warnings()):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, not raised: a finding
                code = f"uncaught {type(exc).__name__}"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        results.append({"argv": argv, "code": code,
                        "stdout": out.getvalue().replace(workdir, "<dir>"),
                        "stderr": err.getvalue().replace(workdir, "<dir>")})
    with open(os.path.join(workdir, "results.json"), "w") as fh:
        json.dump(results, fh)
    with open(os.path.join(workdir, "library.json"), "w") as fh:
        json.dump(library_outputs(), fh)


def _table(path: str):
    """A CSV's header and its (rows, columns) values."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _relative(a, b):
    """|a - b| / max(|a|, |b|) elementwise, 0 where a == b."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(all="ignore"):
        return np.where(a == b, 0.0,
                        np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))


def column_differences(old: str, new: str) -> str:
    """Largest relative difference of each column that differs between two
    CSVs of one shape."""
    (h_old, v_old), (h_new, v_new) = _table(old), _table(new)
    if h_old != h_new or v_old.shape != v_new.shape:
        return f"header {h_old} / {h_new}, {len(v_old)} / {len(v_new)} rows"
    worst = np.max(_relative(v_old, v_new), axis=0, initial=0.0)
    return ", ".join(f"{name} {rel:.3g}" for name, rel in zip(h_old, worst)
                     if rel)


def _fingerprint(path: str) -> dict:
    """sha256 of a file's bytes, its directory written as <dir>, and, for a
    CSV, each column's largest |x| and sum, as float hex."""
    with open(path, "rb") as fh:
        data = fh.read().replace(os.path.dirname(path).encode(), b"<dir>")
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.endswith(".csv"):
        header, values = _table(path)
        entry["columns"] = {
            name: [float(np.max(np.abs(col))).hex(), math.fsum(col).hex()]
            for name, col in zip(header, values.T)}
    return entry


def golden_record(workdir: str) -> dict:
    """The golden record of the run_tree results in workdir."""
    import scipy

    with open(os.path.join(workdir, "results.json")) as fh:
        results = json.load(fh)
    with open(os.path.join(workdir, "library.json")) as fh:
        library = json.load(fh)
    names = sorted(os.listdir(workdir))
    return {
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "commands": [{
            "argv": " ".join(a.replace(workdir, "<dir>") for a in r["argv"]),
            **{key: r[key] for key in ("code", "stdout", "stderr")},
            "files": {f: _fingerprint(os.path.join(workdir, f))
                      for f in names if f.startswith(f"c{i:02d}.")},
        } for i, r in enumerate(results)],
        "library": {name: v.hex() if isinstance(v, float) else v
                    for name, v in library.items()},
    }


def golden_differences(expected: dict, actual: dict) -> list[str]:
    """One line per command or library output of actual that moved from
    the record expected, led by the versions when those differ too."""
    notes = []
    old, new = expected["commands"], actual["commands"]
    if len(old) != len(new):
        notes.append(f"{len(old)} commands recorded, {len(new)} run")
    for a, b in zip(old, new):
        moved = [key for key in ("argv", "code", "stdout", "stderr")
                 if a[key] != b[key]]
        for f in sorted(set(a["files"]) | set(b["files"])):
            fa, fb = a["files"].get(f), b["files"].get(f)
            if fa is None or fb is None:
                moved.append(f"{f} written on one side only")
            elif fa != fb:
                cols = [c for c in fa.get("columns", {})
                        if fa["columns"][c] != fb.get("columns", {}).get(c)]
                moved.append(f"{f} columns {' '.join(cols)}" if cols
                             else f"{f} bytes")
        if moved:
            notes.append(f"tdlab {b['argv']} moved: {', '.join(moved)}")
    for name in sorted(set(expected["library"]) | set(actual["library"])):
        a, b = expected["library"].get(name), actual["library"].get(name)
        if a != b:
            try:  # two slopes, as float hex
                rel = _relative(float.fromhex(a), float.fromhex(b))
                notes.append(f"{name}: {a} -> {b}, rel diff {rel:.3g}")
            except (TypeError, ValueError):  # an error message, or none
                notes.append(f"{name}: {a} -> {b}")
    if notes and expected["versions"] != actual["versions"]:
        notes.insert(0, f"versions differ: recorded {expected['versions']}, "
                        f"running {actual['versions']}")
    return notes


def report(old_dir: str, new_dir: str) -> int:
    """Print golden_differences of the run_tree results in two directories,
    with each moved CSV's column_differences and the tails of each moved
    stdout and stderr; return 1 if anything moved, else 0."""
    old, new = golden_record(old_dir), golden_record(new_dir)
    # one line per moved command, in order, then one per moved slope; both
    # records are made here, so their versions agree and lead no line
    notes = iter(golden_differences(old, new))
    moved = [(a, b) for a, b in zip(old["commands"], new["commands"])
             if a != b]
    for a, b in moved:
        print(next(notes))
        for f in sorted(set(a["files"]) & set(b["files"])):
            if f.endswith(".csv") and a["files"][f] != b["files"][f]:
                print(f"     {f}: " + column_differences(
                    os.path.join(old_dir, f), os.path.join(new_dir, f)))
        for key in ("stdout", "stderr"):
            if a[key] != b[key]:
                print(f"     old {key}: {a[key].strip()[-200:]!r}")
                print(f"     new {key}: {b[key].strip()[-200:]!r}")
    library = list(notes)
    for note in library:
        print(note)
    print(f"{len(moved)} of {len(new['commands'])} commands differ")
    print(f"{len(library)} of {len(new['library'])} library outputs differ")
    return 1 if moved or library else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--run":  # one tree, in a child process
        sys.path.insert(0, os.path.abspath(argv[1]))
        os.chdir(argv[2])
        run_tree(argv[2])
        return 0
    golden = len(argv) == 3 and argv[0] == "--golden"
    if not (golden or len(argv) == 2):
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for label, src in zip(("old", "new"), argv[1:2] if golden else argv):
            d = os.path.join(tmp, label)
            os.mkdir(d)
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--run", src, d], env=env, check=True)
            dirs.append(d)
        if golden:
            with open(argv[2], "w") as fh:
                json.dump(golden_record(dirs[0]), fh, indent=1)
                fh.write("\n")
            return 0
        return report(*dirs)


if __name__ == "__main__":
    sys.exit(main())
