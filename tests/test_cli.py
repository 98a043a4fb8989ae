import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdlab
from tdlab import cli
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

    def test_reused_parser_keeps_the_contract(self, tmp_path, capsys):
        # main builds its parser once per process; a usage error and two
        # runs after it behave as the first call of a process would
        argv = ["simulate", "--preset", "paper-3A", "--t-end", "0.1", "--out"]
        cli._parser.cache_clear()
        assert main(argv + [str(tmp_path / "first.csv")]) == 0
        first = (tmp_path / "first.csv").read_bytes()
        said = capsys.readouterr().out.replace("first.csv", "{}")
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(argv[:-1])  # --out is required
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        for name in ("a.csv", "b.csv"):
            assert main(argv + [str(tmp_path / name)]) == 0
            assert (tmp_path / name).read_bytes() == first
            assert capsys.readouterr().out == said.replace("{}", name)
        assert cli._parser.cache_info().misses == 1  # build_parser ran once

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

    @pytest.mark.parametrize("argv", [
        ["--preset", "paper-4-hybrid", "--a1=1.7e+308", "--t-end", "0.833"],
        ["--preset", "paper-3B", "--a0=0.0", "--a1=1e+300", "--t-end", "1"],
        ["--r=1e150", "--a0=1", "--b0=1", "--dt=1e-3", "--t-end", "0.01"]])
    def test_overflowing_gain_exits_3(self, argv, tmp_path, capsys):
        # the loop, or the linear lane's recurrence, overflows in its first
        # step: no RuntimeWarning (an error under Tier-1), only the
        # divergence report
        rc = main(["simulate", *argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state exceeded 1e+09 at t=")

    def test_bad_value_exits_2(self, tmp_path, capsys):
        # a dt the noise hold rejects is an error message, not a traceback
        rc = main(["simulate", "--preset", "paper-3A", "--dt", "0.02",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: dt=0.02")
        assert not (tmp_path / "x.csv").exists()

    def test_zero_power_noise_sets_no_step(self, tmp_path, capsys):
        # a tiny hold of a zero-power noise takes the noiseless default step
        # instead of the 1e9 steps over MAX_STEPS that it would divide
        rc = main(["simulate", "--eps", "1", "--a0", "1", "--b0", "1",
                   "--noise-power", "0", "--noise-ts", "1e-7", "--t-end", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert len(read_csv(tmp_path / "x.csv")[1]) == 1001

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

    @pytest.mark.parametrize("script", ["same.csv", "./same.csv"])
    def test_one_path_for_both_outputs_exits_2(self, script, tmp_path, capsys,
                                               monkeypatch):
        # the plot script would replace the CSV that it plots
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "paper-3A", "--t-end", "0.1",
                  "--out", "same.csv", "--plot-script", script])
        assert exc.value.code == 2
        assert "name the same file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


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


def _printed(*values):
    """values as the CLI's %.9g columns read them back."""
    return [float(f"{v:.9g}") for v in values]


def test_amplitude_without_an_input_frequency_reads_the_library(tmp_path,
                                                                capsys):
    # linearize and bode take no input frequency, so an amplitude whose
    # product with the preset's omega (2 rad/s) overflows is still one
    # the library linearizes at
    lin = tdlab.linearize(get_preset("paper-3B").params, 1e308)
    path = tmp_path / "lin.csv"
    assert main(["linearize", "--preset", "paper-3B", "--amplitude", "1e308",
                 "--csv", str(path)]) == 0
    _, [row] = read_csv(path)
    assert [float(v) for v in row] == _printed(
        1e308, lin.omega_n, lin.zeta, lin.omega_d, lin.k_pos, lin.k_vel)
    path = tmp_path / "bode.csv"
    assert main(["bode", "--preset", "paper-3B", "--amplitude", "1e308",
                 "--omega-min", "1e-77", "--omega-max", "1e-75",
                 "--points", "3", "--out", str(path)]) == 0
    _, rows = read_csv(path)
    want = tdlab.bode_table(lin, np.logspace(-77, -75, 3))
    assert [[float(v) for v in row] for row in rows] == [
        _printed(pt.omega, pt.mag, pt.mag_db, pt.phase_deg) for pt in want]


@pytest.mark.parametrize("command", ["linearize", "bode"])
@pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
def test_non_finite_amplitude_still_exits_2(command, amplitude, tmp_path,
                                            capsys):
    argv = [command, "--preset", "paper-3B", f"--amplitude={amplitude}"]
    out = tmp_path / "x.csv"
    assert main(argv + (["--out", str(out)] if command == "bode" else [])) == 2
    assert capsys.readouterr().err == (
        f"error: amplitude must be finite, got {amplitude}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_input_whose_derivative_overflows_still_exits_2(command, tmp_path,
                                                        capsys):
    out = tmp_path / "x.csv"
    assert main([command, "--preset", "paper-3B", "--amplitude", "1e308",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the peak derivative amplitude*omega overflows\n")
    assert not out.exists()


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

    def test_unsettled_point_exits_3(self, tmp_path, capsys):
        # at alpha = 0.1 the step chatters and no orbit attracts: an error
        # naming the frequency, never a reading of the transient
        path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--eps", str(1 / 45), "--a1", "0.015", "--b1",
                   "0.015", "--alpha", "0.1", "--omega-min", "2",
                   "--omega-max", "2", "--points", "1", "--out", str(path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "did not settle" in err and "omega=2 rad/s" in err
        assert not path.exists()


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
    # a sweep point whose input's derivative overflows
    ["sweep", "--preset", "paper-3A", "--dt", "0.02", "--omega-min", "1",
     "--omega-max", "1.7e308", "--points", "2"],
    # an infinite frequency bound, and a noise variance that overflows in
    # the differentiator's input and in the plant's measurement
    ["bode", "--preset", "paper-3A", "--omega-max", "inf"],
    ["simulate", "--preset", "paper-3A", "--noise-power", "1e308",
     "--t-end", "1"],
    ["estimate", "--preset", "paper-5", "--noise-power", "1e308",
     "--t-end", "1"],
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


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "{missing}/a.csv"],
    ["simulate", "--out", "{dir}"],
    ["simulate", "--out", "{dir}/a.csv", "--plot-script", "{missing}/p.py"],
    ["linearize", "--csv", "{missing}/x.csv"],
], ids=["out-missing-dir", "out-is-dir", "plot-script", "linearize-csv"])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    # An output path that cannot be opened is a usage error, reported with
    # the path, not a traceback, and the command leaves no output file.
    argv = [a.format(dir=tmp_path, missing=tmp_path / "missing") for a in argv]
    run = ["--preset", "paper-3A"] + (["--t-end", "0.1"]
                                      if argv[0] == "simulate" else [])
    rc = main(argv[:1] + run + argv[1:])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tmp_path) in err
    assert "wrote" not in out and os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_zero_power_noise_writes_the_noiseless_bytes(command, tmp_path,
                                                      capsys):
    # --noise-ts on a noiseless preset gives a noise of power 0: it adds
    # nothing, so neither the step nor a byte of the output moves
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [command, "--preset", "paper-4-linear", "--t-end", "2"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--noise-ts", "0.003", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def _write_csv_by_format(path, header, rows):
    """The row-by-row str.format writer that _write_csv replaced: its oracle."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("{:.9g}".format(v) for v in row) + "\n")


def test_csv_writer_matches_format_oracle(tmp_path):
    # the rows fill whole blocks and start one more; the values span
    # signed zeros, subnormals, 1e-12 .. 1e6 of either sign, integers and
    # non-finite values, and one column holds Python ints
    rng = np.random.default_rng(7)
    n = 2 * cli._CSV_BLOCK_ROWS + 1
    mags = 10.0 ** rng.uniform(-12.0, 6.0, (4, n))
    columns = list(mags * rng.choice([-1.0, 1.0], (4, n)))
    columns[0][:6] = [0.0, -0.0, 5e-324, -2.5e-310, 1e6, -1e-12]
    columns[1][:5] = [3.0, -7.0, 123456789.0, 1234567890123.0, math.inf]
    columns[2][:2] = [-math.inf, math.nan]
    columns[3] = np.round(columns[3])
    columns.append(list(range(-1024, n - 1024)))
    header = ["a", "b", "c", "d", "i"]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    cli._write_csv(str(new), header, columns)
    _write_csv_by_format(str(old), header, zip(*columns))
    assert new.read_bytes() == old.read_bytes()
    assert len(new.read_text().splitlines()) == n + 1


def _ulps_away(x, ulps):
    """x moved by ulps units in the last place (up if ulps > 0)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def near_rounding_edges(draw):
    """A value a few ulps from a 9-digit tie (m + 1/2) * 10**(e - 8), from
    a power of ten or from the carry 999999999.5 * 10**e, of either sign."""
    e = draw(st.integers(-20, 20) | st.integers(-330, 310))
    text = draw(st.sampled_from([
        f"{draw(st.integers(10**8, 10**9 - 1))}5e{e - 9}", f"1e{e}",
        f"9999999995e{e - 1}"]))
    x = _ulps_away(float(text), draw(st.integers(-3, 3)))
    return -x if draw(st.booleans()) else x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats() | near_rounding_edges(), min_size=1,
                       max_size=64),
       ncols=st.integers(1, 4),
       nrows=st.integers(1, 40) | st.integers(cli._CSV_BLOCK_ROWS - 2,
                                              cli._CSV_BLOCK_ROWS + 2))
def test_csv_writer_matches_format_oracle_on_drawn_values(values, ncols,
                                                           nrows):
    # the drawn values, repeated to fill the table, are every float
    # (NaN, +-inf, subnormals and +-0 included) and values whose rounding
    # to 9 digits is a near tie; some tables end just past a block
    columns = list(np.resize(np.array(values), (ncols, nrows)))
    header = [f"c{j}" for j in range(ncols)]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        cli._write_csv(new, header, columns)
        _write_csv_by_format(old, header, zip(*columns))
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def test_cold_import_loads_no_scipy_module():
    # every command pays for what `import tdlab.cli` loads; BLAS dtbsv comes
    # from the OpenBLAS numpy has loaded, so no scipy module is imported
    # and, where /proc/self/maps shows it, no library of scipy's is mapped
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import os, sys, tdlab.cli
        print(*[m for m in sys.modules
                if m == "scipy" or m.startswith("scipy.")])
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as maps:
                print(*{line.split()[-1] for line in maps
                        if "scipy.libs" in line})
    """
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
@example(argv=["bode", "--preset", "paper-3A", "--omega-max=inf",
               "--out", "{out}"])
@example(argv=["simulate", "--preset", "paper-3A", "--noise-power=1.7e308",
               "--t-end=0.5", "--out", "{out}"])
@example(argv=["estimate", "--preset", "paper-5", "--noise-power=1.7e308",
               "--t-end=0.5", "--out", "{out}"])
@example(argv=["sweep", "--r=1e150", "--a0=1", "--b0=1", "--dt=1e-3",
               "--points=2", "--omega-min=1", "--omega-max=2", "--out",
               "{out}"])
@example(argv=["estimate", "--r=1e150", "--a0=1", "--b0=1", "--dt=1e-3",
               "--t-end=0.01", "--out", "{out}"])
@example(argv=["simulate", "--preset", "paper-4-linear", "--amplitude",
               "1e-10", "--omega", "1e308", "--t-end", "10", "--out", "{out}"])
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
