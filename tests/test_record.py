"""benchmarks/record.py refuses a record whose cold-import probes would
compile tdlab again: with PYTHONDONTWRITEBYTECODE set, bytecode that is
missing or older than its source is never refreshed."""

import importlib.util
import os
import py_compile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "record", os.path.join(HERE, os.pardir, "benchmarks", "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _tree(root):
    """A tree whose src/tdlab holds current, stale and missing bytecode."""
    pkg = root / "src" / "tdlab"
    pkg.mkdir(parents=True)
    for name in ("current", "stale", "missing"):
        (pkg / f"{name}.py").write_text("X = 1\n")
    for name in ("current", "stale"):
        py_compile.compile(str(pkg / f"{name}.py"), doraise=True)
    cached = importlib.util.cache_from_source(str(pkg / "stale.py"))
    mtime = os.stat(pkg / "stale.py").st_mtime
    os.utime(cached, (mtime - 10, mtime - 10))
    return [str(pkg / "missing.py"), str(pkg / "stale.py")]


def test_names_bytecode_missing_or_older_than_its_source(tmp_path):
    assert record.stale_bytecode(tmp_path) == []  # no src/tdlab at all
    stale = _tree(tmp_path)
    assert record.stale_bytecode(tmp_path) == stale


def test_refuses_to_start_without_bytecode_writes(tmp_path, monkeypatch):
    stale = _tree(tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with pytest.raises(SystemExit) as exc:
        record.main([str(tmp_path), "--label", "refused"])
    message = str(exc.value)
    assert message.startswith("error: PYTHONDONTWRITEBYTECODE is set")
    assert all(path in message for path in stale)
    assert not (record.ROOT / "BENCH_refused.json").exists()
