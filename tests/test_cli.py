import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdlab
from tdlab.cli import main
from tdlab.presets import PRESETS, get_preset


def read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestPresets:
    def test_all_presets_present(self):
        assert sorted(PRESETS) == [
            "paper-3A", "paper-3B", "paper-3C-hybrid", "paper-3C-linear",
            "paper-4-hybrid", "paper-4-linear", "paper-4-nonlinear", "paper-5"]

    def test_published_parameter_values(self):
        p = get_preset("paper-3A").params
        assert (p.eps, p.a0, p.b0, p.a1, p.b1) == (1 / 45, 0.05, 0.3, 0.0, 0.0)
        p = get_preset("paper-3B").params
        assert (p.eps, p.a1, p.b1, p.alpha) == (1 / 45, 0.099, 0.268, 0.5)
        p = get_preset("paper-3C-linear").params
        assert (p.eps, p.a0, p.b0) == (1 / 45, 0.005, 0.05)
        p = get_preset("paper-3C-hybrid").params
        assert (p.a0, p.a1, p.b0, p.b1, p.alpha) == (0.005, 0.005, 0.05, 0.005, 0.5)
        p = get_preset("paper-4-linear").params
        assert (p.r, p.a0, p.b0) == (100.0, 0.1, 0.3)
        p = get_preset("paper-4-nonlinear").params
        assert (round(p.r), p.a1, p.b1, p.alpha) == (45, 0.015, 0.015, 0.6)
        p = get_preset("paper-4-hybrid").params
        assert (p.r, p.a0, p.a1, p.b0, p.b1, p.alpha) == (
            100.0, 0.1, 0.015, 0.3, 0.015, 0.6)
        p = get_preset("paper-5").params
        assert (p.a0, p.a1, p.b0, p.b1, p.alpha) == (0.05, 0.015, 0.3, 0.015, 0.6)

    def test_signal_values(self):
        s = get_preset("paper-3A").signal
        assert (s.amplitude, s.omega) == (5.0, 2.0)
        assert (s.noise.power, s.noise.sample_time) == (0.01, 0.01)
        s = get_preset("paper-3C-hybrid").signal
        assert (s.amplitude, s.noise.power) == (0.5, 1e-4)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("paper-9Z")


class TestLinearizeCommand:
    def test_preset_values(self, capsys):
        assert main(["linearize", "--preset", "paper-3A"]) == 0
        out = capsys.readouterr().out
        assert "10.062305" in out
        assert "0.670820" in out
        assert "101.25" in out
        assert "13.5" in out

    def test_nonlinear_amplitude(self, capsys):
        assert main(["linearize", "--preset", "paper-3B",
                     "--amplitude", "5"]) == 0
        out = capsys.readouterr().out
        # denominator close to (1, 6, 99.768)
        assert "99.7" in out

    def test_overdamped_exits_3(self, capsys):
        rc = main(["linearize", "--eps", "1", "--a0", "1", "--b0", "2"])
        assert rc == 3
        assert "damping ratio" in capsys.readouterr().err

    def test_csv_row(self, tmp_path, capsys):
        path = tmp_path / "lin.csv"
        assert main(["linearize", "--preset", "paper-3A",
                     "--csv", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["amplitude", "omega_n", "zeta", "omega_d",
                          "k_pos", "k_vel"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(10.0623059, abs=1e-6)

    def test_flag_override_on_preset(self, capsys):
        assert main(["linearize", "--preset", "paper-4-hybrid",
                     "--r", "45"]) == 0
        out = capsys.readouterr().out
        # omega_n = 45*sqrt(0.1 + 0.015*N(1)) = 15.35
        assert "15.3" in out

    def test_missing_params_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["linearize", "--a0", "1"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--preset", "paper-3C-hybrid", "--seed", "7",
                "--t-end", "2.0"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        header, rows = read_csv(f1)
        assert header == ["t", "v", "x1", "x2", "v_clean", "dv_clean"]
        assert len(rows) == 2001

    def test_seed_changes_output(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--preset", "paper-3A", "--t-end", "1.0"]
        assert main(base + ["--seed", "1", "--out", str(f1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() != f2.read_bytes()

    def test_instability_exits_3(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "paper-4-hybrid", "--dt", "0.5",
                   "--t-end", "50", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "t=" in err

    def test_bad_value_exits_2(self, tmp_path, capsys):
        # a dt the noise hold rejects is an error message, not a traceback
        rc = main(["simulate", "--preset", "paper-3A", "--dt", "0.02",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: dt=0.02")
        assert not (tmp_path / "x.csv").exists()

    def test_csv_round_trip_lossless(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        assert main(["simulate", "--preset", "paper-3A", "--t-end", "1.0",
                     "--out", str(path)]) == 0
        header, rows = read_csv(path)
        for row in rows[:50]:
            for cell in row:
                assert "{:.9g}".format(float(cell)) == cell

    def test_no_stray_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only.csv"
        assert main(["simulate", "--preset", "paper-3A", "--t-end", "1.0",
                     "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["only.csv"]

    def test_plot_script(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        script = tmp_path / "plot.py"
        assert main(["simulate", "--preset", "paper-3A", "--t-end", "1.0",
                     "--out", str(out), "--plot-script", str(script)]) == 0
        text = script.read_text()
        assert "matplotlib" in text
        assert str(out) in text


class TestBodeCommand:
    def test_row_count_contract(self, tmp_path, capsys):
        path = tmp_path / "bode.csv"
        assert main(["bode", "--preset", "paper-3A", "--omega-min", "1",
                     "--omega-max", "100", "--points", "50",
                     "--out", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["omega", "mag", "mag_db", "phase_deg"]
        assert len(rows) == 50

    def test_values_match_analytic(self, tmp_path, capsys):
        from tdlab.describing import freq_response, linearize

        path = tmp_path / "bode.csv"
        assert main(["bode", "--preset", "paper-3A", "--omega-min", "2",
                     "--omega-max", "2", "--points", "1",
                     "--out", str(path)]) == 0
        _, rows = read_csv(path)
        lin = linearize(get_preset("paper-3A").params, 1.0)
        ref = freq_response(lin, 2.0)
        assert float(rows[0][1]) == pytest.approx(ref.mag, rel=1e-8)
        assert float(rows[0][3]) == pytest.approx(ref.phase_deg, rel=1e-8)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bode", "--preset", "paper-3A"])  # missing --out
        assert exc.value.code == 2


class TestSweepCommand:
    def test_schema_and_bandwidth_summary(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "paper-3A", "--amplitude", "1",
                     "--omega-min", "5", "--omega-max", "25",
                     "--points", "4", "--out", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["omega", "mag", "mag_db", "phase_deg", "track_mag",
                          "track_phase_deg", "deriv_mag", "deriv_phase_deg"]
        assert len(rows) == 4
        out = capsys.readouterr().out
        assert "bandwidth" in out
        # measured and analytic columns agree for the linear preset
        for row in rows:
            assert float(row[4]) == pytest.approx(float(row[1]), rel=5e-3)


    def test_instability_names_frequency_and_time(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "paper-3A", "--omega-min", "0.5",
                   "--omega-max", "0.5", "--points", "1", "--dt", "1.0",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "omega=0.5 rad/s" in err
        assert "t=" in err


@pytest.mark.parametrize("argv", [
    # non-finite values
    ["simulate", "--preset", "paper-3A", "--amplitude", "nan"],
    ["simulate", "--preset", "paper-3A", "--omega", "inf"],
    ["linearize", "--eps", "inf", "--a0", "1", "--b0", "1"],
    ["linearize", "--eps", "1", "--a0", "1", "--b0", "inf"],
    ["simulate", "--preset", "paper-3A", "--noise-power", "nan"],
    # more steps than the budget
    ["sweep", "--preset", "paper-4-linear", "--omega-min", "1e-4",
     "--omega-max", "1e-3", "--points", "2"],
    ["simulate", "--eps", "1e-100", "--a0", "1", "--b0", "1",
     "--t-end", "0.01"],
    ["simulate", "--preset", "paper-3A", "--t-end", "inf"],
    # a step that is not positive
    ["sweep", "--preset", "paper-3A", "--dt", "0"],
    # a step that does not divide the noise hold, in the plant run too
    ["estimate", "--preset", "paper-5", "--dt", "1e-3", "--noise-ts", "1e-6",
     "--t-end", "2"],
    # a step so small that one period overflows the step count
    ["sweep", "--preset", "paper-3A", "--dt", "1e-320", "--omega-min", "1",
     "--omega-max", "1", "--points", "1"],
    # values that overflow: 1/eps^2, the describing gain, the steps per
    # noise hold, the table length, the input's derivative, the magnitude
    ["simulate", "--r", "1.7e308", "--a0", "1", "--b0", "1", "--t-end", "1"],
    ["linearize", "--preset", "paper-3B", "--alpha", "1e-3",
     "--amplitude", "5e-324"],
    ["simulate", "--preset", "paper-3A", "--noise-ts", "5e-324"],
    ["bode", "--preset", "paper-3A", "--points", "2147483648"],
    ["simulate", "--preset", "paper-3B", "--omega", "1.7e308",
     "--t-end", "0.5"],
    ["bode", "--preset", "paper-3A", "--omega-min", "1", "--omega-max",
     "1e200", "--points", "3"],
    # flags that exclude each other
    ["linearize", "--eps", "1", "--r", "2", "--a0", "1", "--b0", "1"],
])
def test_bad_value_exits_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] != "linearize":
        argv = argv + ["--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # a usage error from the flag parser
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") or "usage: " in err
    assert "Traceback" not in err
    assert not out.exists()


class TestEstimateCommand:
    def test_schema(self, tmp_path, capsys):
        path = tmp_path / "est.csv"
        assert main(["estimate", "--preset", "paper-5", "--seed", "3",
                     "--t-end", "5.0", "--out", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["t", "y", "u", "delta_true", "delta_hat"]
        assert len(rows) == 5001

    def test_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["estimate", "--preset", "paper-5", "--t-end", "2.0"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


def test_cold_import_skips_unused_scipy_subpackages():
    # every command pays for what `import tdlab.cli` loads; of scipy only
    # scipy.linalg (BLAS dtbsv) is needed
    unused = ("scipy.integrate", "scipy.special", "scipy.sparse",
              "scipy.signal")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, tdlab.cli; "
            f"print(*[m for m in {unused!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


#: Flag values every float flag may take besides its moderate range: zero,
#: a negative, NaN, +-inf, subnormal, tiny and huge magnitudes.
SPECIAL = (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300,
           1.7e308)

#: Moderate range of each float flag.  Together with the flags that are
#: always drawn, they keep a run at about 1e5 steps or fewer; a special
#: value either leaves a run short or makes the step budget reject it.
RANGES = {
    "--eps": (0.01, 1.0), "--r": (1.0, 100.0), "--a0": (0.01, 2.0),
    "--a1": (0.01, 2.0), "--b0": (0.01, 2.0), "--b1": (0.01, 2.0),
    "--alpha": (0.05, 1.0), "--amplitude": (-5.0, 5.0),
    "--omega": (-10.0, 10.0), "--noise-power": (0.0, 0.1),
    "--noise-ts": (1e-3, 0.1), "--dt": (0.02, 0.5), "--t-end": (1e-3, 2.0),
    "--omega-min": (1.0, 50.0), "--omega-max": (1.0, 50.0),
}
#: Flags drawn now and then, and flags always drawn (they bound the steps).
OPTIONAL = {
    "linearize": ("--amplitude",),
    "simulate": ("--amplitude", "--omega", "--noise-power", "--noise-ts",
                 "--seed", "--dt"),
    "bode": ("--amplitude", "--omega-min", "--omega-max", "--points"),
    "sweep": ("--amplitude",),
    "estimate": ("--noise-power", "--noise-ts", "--seed", "--dt"),
}
ALWAYS = {"simulate": ("--t-end",), "estimate": ("--t-end",),
          "sweep": ("--omega-min", "--omega-max", "--points", "--dt")}


def _value(draw, flag):
    special = draw(st.integers(0, 7)) == 0
    if flag == "--seed":
        return draw(st.sampled_from([-1, 2**70]) if special
                    else st.integers(0, 2**32))
    if flag == "--points":
        return draw(st.sampled_from([-1, 0, 2**31, 10**12]) if special
                    else st.integers(1, 3))
    return draw(st.sampled_from(SPECIAL) if special
                else st.floats(*RANGES[flag]))


@st.composite
def cli_argv(draw, commands=tuple(OPTIONAL), seeded=False):
    """A command line of drawn flag values, writing to the path '{out}'."""
    command = draw(st.sampled_from(commands))
    argv = [command]
    preset = draw(st.sampled_from(sorted(PRESETS) + [None]))
    if preset:
        argv += ["--preset", preset]
    # without a preset, --eps or --r is required; both at once is an error
    flags = list(draw(st.sampled_from(
        [(), (), ("--eps",), ("--r",), ("--eps", "--r")])))
    flags += [f for f in ("--a0", "--a1", "--b0", "--b1", "--alpha")
              + OPTIONAL[command] if draw(st.integers(0, 3)) == 0]
    flags += ALWAYS.get(command, ()) + (("--seed",) if seeded else ())
    for flag in dict.fromkeys(flags):
        argv.append(f"{flag}={_value(draw, flag)!r}")
    return argv + ["--csv" if command == "linearize" else "--out", "{out}"]


def _run_cli(argv, path):
    """Exit code and stderr of one command writing to path."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main([a.replace("{out}", path) for a in argv])
        except SystemExit as exc:  # a usage error from the flag parser
            rc = exc.code
    return rc, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=cli_argv())
def test_drawn_flags_keep_the_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        rc, err = _run_cli(argv, path)
        assert rc in (0, 2, 3), err
        assert "Traceback" not in err
        if rc != 0:
            assert not os.path.exists(path)
        else:
            _, rows = read_csv(path)
            assert all(math.isfinite(float(v)) for row in rows for v in row)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(argv=cli_argv(commands=("simulate", "estimate"), seeded=True))
def test_rerun_with_drawn_seed_is_byte_identical(argv):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        rc = _run_cli(argv, a)[0]
        assert _run_cli(argv, b)[0] == rc
        if rc == 0:
            assert open(a, "rb").read() == open(b, "rb").read()
