"""Every command of benchmarks/compare_outputs.py writes what its golden
record, tests/golden_outputs.json, says it wrote.

The record holds per command the exit code, stdout and stderr, and per
file written its sha256 and, for a CSV, each column's largest |x| and sum;
it also holds the convergence_order slopes.  A change that moves an output
rewrites the record with

    python benchmarks/compare_outputs.py --golden src tests/golden_outputs.json

and says which outputs moved and why.
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
