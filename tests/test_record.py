"""benchmarks/record.py runs bench/run.py without PYTHONDONTWRITEBYTECODE,
so that the benchmark's untimed warm probe refreshes each tree's bytecode
before its timed cold-import probes."""

import importlib.util
import json
import os
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "record", os.path.join(HERE, os.pardir, "benchmarks", "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_bench_runs_without_the_no_bytecode_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    (tmp_path / "run.json").write_text(json.dumps({"python": "3"}))
    calls = []

    def run(args, **kwargs):
        calls.append((args, kwargs))
        out = ("record: run.json\n"
               + json.dumps({"metrics": {"wall_s": {"value": 0.5}}}) + "\n")
        return subprocess.CompletedProcess(args, 0, out, "")

    monkeypatch.setattr(record.subprocess, "run", run)
    assert record.bench(tmp_path, "sweep", 1, 3, 0) == (
        {"wall_s": 0.5}, {"python": "3"})
    [(args, kwargs)] = calls
    assert args[1:3] == ["bench/run.py", "--workload"]
    assert kwargs["cwd"] == tmp_path
    want = dict(os.environ)
    del want["PYTHONDONTWRITEBYTECODE"]
    assert kwargs["env"] == want and want
