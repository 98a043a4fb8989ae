#!/usr/bin/env python3
"""Compare what two source trees of tdlab write, command by command.

Each tree runs the same fixed list of CLI commands in one fresh
interpreter of its own, inside its own temporary directory, by calling
``tdlab.cli.main`` in-process.  The list is every subcommand on every
preset, the full-length commands of the benchmark's ``timeseries`` and
``sweep`` workloads, a set of bad-value commands, two with a noise of
zero power, two ``bode`` grids far from the corner, whose tables hold
positive and three-digit exponents, and three whose infinite frequency
bound or overflowing noise variance must exit 2; noisy commands run at
seed 12345.  A RuntimeWarning is an error, as under the test suite, and
usage messages are wrapped at 80 columns.  For each command the script
prints whether the exit code, stdout and stderr match (with each tree's
directory written as ``<dir>``) and whether every file written is
byte-identical.  For a CSV that is not, it prints the largest relative
difference of each column.  Each tree also records the library outputs
that no command writes, the slopes of the eps ladders of ``LADDERS``;
the script prints them side by side with their relative difference.  The
exit status is 1 on any difference (a command's or a library output's),
0 otherwise.

With ``--golden``, the script runs one tree and writes its golden record
instead: per command the exit code, stdout, stderr and, per file written,
the sha256 of its bytes and, for a CSV, each column's largest |x| and
sum as float hex; the slopes as float hex; the Python, numpy and scipy
versions.  ``tests/test_golden_outputs.py`` replays the commands against
the record committed as ``tests/golden_outputs.json``; a change that
moves an output rewrites that record and says so.

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


def _read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")]
                                 for ln in lines[1:]]


def column_differences(old: str, new: str) -> str:
    """Largest relative difference per column of two CSVs of one shape."""
    (h_old, r_old), (h_new, r_new) = _read_csv(old), _read_csv(new)
    if h_old != h_new or len(r_old) != len(r_new):
        return (f"header {h_old} / {h_new}, "
                f"{len(r_old)} / {len(r_new)} rows")
    worst = []
    for j, name in enumerate(h_old):
        rel = 0.0
        for a, b in zip((r[j] for r in r_old), (r[j] for r in r_new)):
            if a != b:
                scale = max(abs(a), abs(b))
                rel = max(rel, abs(a - b) / scale if math.isfinite(scale)
                          else math.inf)
        worst.append(f"{name} {rel:.3g}")
    return ", ".join(worst)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read().replace(os.path.dirname(path).encode(), b"<dir>")


def _fingerprint(path: str) -> dict:
    """sha256 of a file's bytes as _read normalizes them and, for a CSV,
    each column's largest |x| and sum, as float hex."""
    entry = {"sha256": hashlib.sha256(_read(path)).hexdigest()}
    if path.endswith(".csv"):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
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
            notes.append(f"{name}: {a} -> {b}")
    if notes and expected["versions"] != actual["versions"]:
        notes.insert(0, f"versions differ: recorded {expected['versions']}, "
                        f"running {actual['versions']}")
    return notes


def compare(old_dir: str, new_dir: str) -> int:
    with open(os.path.join(old_dir, "results.json")) as fh:
        old = json.load(fh)
    with open(os.path.join(new_dir, "results.json")) as fh:
        new = json.load(fh)
    differences = 0
    for i, (a, b) in enumerate(zip(old, new)):
        notes = []
        for key in ("code", "stdout", "stderr"):
            if a[key] != b[key]:
                notes.append(f"{key} differs")
        files = sorted(f for f in set(os.listdir(old_dir))
                       | set(os.listdir(new_dir)) if f.startswith(f"c{i:02d}."))
        for f in files:
            po, pn = os.path.join(old_dir, f), os.path.join(new_dir, f)
            if not (os.path.exists(po) and os.path.exists(pn)):
                notes.append(f"{f} written by one tree only")
            elif _read(po) != _read(pn):
                detail = (column_differences(po, pn) if f.endswith(".csv")
                          else "")
                notes.append(f"{f} differs {detail}".rstrip())
        argv = " ".join(x.replace(new_dir, "<dir>") for x in b["argv"])
        status = "DIFF" if notes else "same"
        print(f"{status} [{a['code']} -> {b['code']}, {len(files)} files] "
              f"tdlab {argv}")
        for note in notes:
            print(f"     {note}")
        for key in ("stdout", "stderr"):
            if a[key] != b[key]:
                print(f"     old {key}: {a[key].strip()[-200:]!r}")
                print(f"     new {key}: {b[key].strip()[-200:]!r}")
        differences += bool(notes)
    print(f"{differences} of {len(new)} commands differ")
    return 1 if differences + compare_library(old_dir, new_dir) else 0


def compare_library(old_dir: str, new_dir: str) -> int:
    """Print each library output of both trees; return how many differ."""
    with open(os.path.join(old_dir, "library.json")) as fh:
        old = json.load(fh)
    with open(os.path.join(new_dir, "library.json")) as fh:
        new = json.load(fh)
    differences = 0
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a == b:
            status, rel = "same", ""
        else:
            status, differences = "DIFF", differences + 1
            numbers = all(isinstance(x, float) for x in (a, b))
            rel = (f", rel diff {abs(a - b) / max(abs(a), abs(b)):.3g}"
                   if numbers else "")
        print(f"{status} {name}: {a!r} -> {b!r}{rel}")
    print(f"{differences} of {len(new)} library outputs differ")
    return differences


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
        return compare(*dirs)


if __name__ == "__main__":
    sys.exit(main())
