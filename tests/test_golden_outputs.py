"""Every command of benchmarks/compare_outputs.py writes what its golden
record, tests/golden_outputs.json, says it wrote.

The record holds per command the exit code, stdout and stderr, and per
file written its sha256 and, for a CSV, each column's largest |x| and sum;
it also holds the convergence_order slopes.  A change that moves an output
rewrites the record with

    python benchmarks/compare_outputs.py --golden src tests/golden_outputs.json

and says which outputs moved and why.  The script's two-tree report
decides what moved with the same golden_differences.
"""

import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "compare_outputs",
    os.path.join(HERE, os.pardir, "benchmarks", "compare_outputs.py"))
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_commands_write_their_golden_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    compare_outputs.run_tree(str(tmp_path))
    with open(os.path.join(HERE, "golden_outputs.json")) as fh:
        expected = json.load(fh)
    moved = compare_outputs.golden_differences(
        expected, compare_outputs.golden_record(str(tmp_path)))
    assert not moved, "\n".join(moved)


def _run_dir(path, code, stdout, rows, slope, script=False):
    """A run_tree directory of one command writing c00.csv (and c00.py)."""
    path.mkdir()
    argv = ["simulate", "--out", str(path / "c00.csv")]
    (path / "results.json").write_text(json.dumps([{
        "argv": argv, "code": code, "stdout": stdout, "stderr": ""}]))
    (path / "library.json").write_text(json.dumps({"slope": slope}))
    (path / "c00.csv").write_text("t,x1,x2\n" + rows)
    if script:
        (path / "c00.py").write_text("pass\n")
    return str(path)


def test_two_tree_report_names_what_moved(tmp_path, capsys):
    old = _run_dir(tmp_path / "old", 0, "", "0,1,2\n1,4,-2\n", 2.0)
    new = _run_dir(tmp_path / "new", 3, "done\n", "0,1,2\n1,5,-2\n", 2.5,
                   script=True)
    assert compare_outputs.report(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "tdlab simulate --out <dir>/c00.csv moved: code, stdout, "
        "c00.csv columns x1, c00.py written on one side only",
        "     c00.csv: x1 0.2",
        "     old stdout: ''",
        "     new stdout: 'done'",
        f"slope: {(2.0).hex()} -> {(2.5).hex()}, rel diff 0.2",
        "1 of 1 commands differ",
        "1 of 1 library outputs differ"]


def test_two_tree_report_of_identical_trees_exits_0(tmp_path, capsys):
    old, new = (_run_dir(tmp_path / side, 0, "", "0,1,2\n", "ValueError: x")
                for side in ("old", "new"))
    assert compare_outputs.report(old, new) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 1 commands differ", "0 of 1 library outputs differ"]
