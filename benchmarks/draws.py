#!/usr/bin/env python3
"""Record the examples the hypothesis properties draw, and replay them.

Hypothesis seeds a ``derandomize=True`` property by its own source and by
the literals of the modules loaded while it runs, so an edit of ``src/``
or of a property's body can move its draws.  ``record`` runs the test
suite in this process through ``pytest.main`` (the whole suite, or the
tests that the given pytest arguments select), with a plugin that wraps
each property's ``hypothesis.inner_test`` (by ``functools.wraps``, which
keeps the property's seed) and stores, per test id, each call's keyword
arguments and whether the call passed, failed or was rejected by
``assume``; a call that hypothesis stopped inside a draw is kept as
aborted and not replayed.  A method's ``self`` is left out, and an
``st.data()`` argument is stored as the list of its draws.

``replay`` puts SRC first on ``sys.path``, imports this tree's test
modules and calls each recorded example through its property's
``inner_test`` (a method on a fresh instance of its class, a data
argument as its recorded draws in order), with a RuntimeWarning an error,
as under the suite.  It prints, per property, how many calls ran and how
many failed, and how many of those failed calls had passed when they
were recorded, each such call with its arguments and error; it exits 1
if there are any such calls, else 0.  Replaying
one tree's record with the other tree's SRC, both ways, shows whether a
change fails a draw that its parent passed, or the reverse.

Usage:
    python benchmarks/draws.py record OUT.json [PYTEST_ARGS ...]
    python benchmarks/draws.py replay SRC RECORD.json
"""

import argparse
import functools
import importlib
import json
import struct
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def encode(value):
    """value as JSON: a non-finite float by its bits, a tuple and a class
    or function (such as a sampled config class) tagged."""
    if isinstance(value, float) and not value - value == 0.0:
        return {"$float": struct.pack(">d", value).hex()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        items = [encode(v) for v in value]
        return items if isinstance(value, list) else {"$tuple": items}
    if callable(value):
        return {"$object": f"{value.__module__}:{value.__qualname__}"}
    raise TypeError(f"cannot record a drawn {type(value).__name__}")


def decode(value):
    """The value that encode stored."""
    if isinstance(value, list):
        return [decode(v) for v in value]
    if not isinstance(value, dict):
        return value
    [(tag, item)] = value.items()
    if tag == "$float":
        return struct.unpack(">d", bytes.fromhex(item))[0]
    if tag == "$tuple":
        return tuple(decode(v) for v in item)
    if tag == "$draws":
        return _RecordedDraws([decode(v) for v in item])
    module, name = item.split(":")
    return functools.reduce(getattr, name.split("."),
                            importlib.import_module(module))


class _RecordedDraws:
    """An st.data() argument that returns recorded draws in order."""

    def __init__(self, values):
        self.values = iter(values)

    def draw(self, strategy, label=None):
        return next(self.values)


class Recorder:
    """pytest plugin: wraps each collected property's inner_test."""

    def __init__(self):
        self.calls, self.wrapped = {}, set()

    def pytest_collection_modifyitems(self, items):
        for item in items:
            handle = getattr(getattr(item, "obj", None), "hypothesis", None)
            if handle is not None and id(handle) not in self.wrapped:
                self.wrapped.add(id(handle))
                handle.inner_test = self.wrap(item.nodeid, handle.inner_test)

    def wrap(self, nodeid, inner):
        calls = self.calls.setdefault(nodeid, [])

        @functools.wraps(inner)
        def recording(*args, **kwargs):
            stored = {}
            for name, value in kwargs.items():
                if type(value).__name__ == "DataObject":
                    kwargs[name] = _RecordingData(value)
                    stored[name] = {"$draws": kwargs[name].draws}
                elif name != "self":
                    stored[name] = encode(value)
            call = {"kwargs": stored, "outcome": "aborted"}
            calls.append(call)
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                call["outcome"] = ("rejected" if type(exc).__name__
                                   == "UnsatisfiedAssumption" else "failed")
                raise
            call["outcome"] = "passed"
            return result

        return recording


class _RecordingData:
    """Passes draws through to hypothesis's data object, keeping each
    encoded."""

    def __init__(self, data):
        self.data, self.draws = data, []

    def draw(self, strategy, label=None):
        value = self.data.draw(strategy, label=label)
        self.draws.append(encode(value))
        return value


def record(out, pytest_args):
    import pytest

    # hypothesis biases its draws by the literals of every loaded module of
    # local source that has a __file__: this script's must not move them
    vars(sys.modules[__name__]).pop("__file__", None)
    recorder = Recorder()
    code = pytest.main(pytest_args or ["-q", "-p", "no:cacheprovider",
                                       str(ROOT / "tests")],
                       plugins=[recorder])
    stored = {nodeid: calls for nodeid, calls in recorder.calls.items()
              if calls}
    Path(out).write_text(json.dumps(stored, indent=1) + "\n")
    tdlab = sys.modules.get("tdlab")
    print(f"recorded {sum(map(len, stored.values()))} calls of "
          f"{len(stored)} properties to {out} (pytest exit {int(code)}, "
          f"tdlab from {tdlab and Path(tdlab.__file__).parent})")
    return 0


def _property(nodeid):
    """inner_test of a test id's property in this tree, and its self."""
    path, *names = nodeid.split("::")
    module = importlib.import_module(Path(path).stem)
    owner, test = None, module
    for name in names:
        owner, test = test, getattr(test, name)
    instance = owner() if isinstance(owner, type) else None
    return test.hypothesis.inner_test, instance


def replay(src, record_path):
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "tests")]
    warnings.simplefilter("error", RuntimeWarning)
    from hypothesis.errors import (HypothesisDeprecationWarning,
                                   UnsatisfiedAssumption)

    # assume() outside a run of hypothesis still raises, with this warning
    warnings.simplefilter("ignore", HypothesisDeprecationWarning)

    regressed = 0
    for nodeid, calls in json.loads(Path(record_path).read_text()).items():
        try:
            inner, instance = _property(nodeid)
        except (ImportError, AttributeError):
            print(f"{nodeid}: not in this tree's tests")
            continue
        self_args = () if instance is None else (instance,)
        calls = [c for c in calls if c["outcome"] != "aborted"]
        failed = newly = 0
        for call in calls:
            kwargs = {k: decode(v) for k, v in call["kwargs"].items()}
            try:
                inner(*self_args, **kwargs)
            except UnsatisfiedAssumption:
                pass
            except Exception as exc:
                failed += 1
                if call["outcome"] == "passed":
                    newly += 1
                    print(f"  {kwargs}: {type(exc).__name__}: {exc}"[:400])
        regressed += newly
        print(f"{nodeid}: {len(calls)} calls, {failed} failed "
              f"({newly} of them passed when recorded)")
    print(f"calls that failed here and passed when recorded: {regressed}")
    return 1 if regressed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the suite and record its draws")
    rec.add_argument("out", metavar="OUT.json")
    rec.add_argument("pytest_args", nargs=argparse.REMAINDER)
    rep = sub.add_parser("replay", help="replay a record against SRC")
    rep.add_argument("src", metavar="SRC")
    rep.add_argument("record", metavar="RECORD.json")
    args = ap.parse_args(argv)
    if args.mode == "record":
        return record(args.out, args.pytest_args)
    return replay(args.src, args.record)


if __name__ == "__main__":
    sys.exit(main())
