#!/usr/bin/env python3
"""Which lines of ``src/tdlab`` a body of code reaches, by a line tracer.

Runs code under a ``sys.settrace`` tracer that records each line of a
module of ``src/tdlab`` that runs (no coverage package is needed), and
prints, per module, the executable lines that never ran, with their
source.  A line is executable when the compiled module's code objects
hold an instruction for it; docstrings, comments and blank lines are not.

The default body is the traffic: the golden commands and slopes of
``compare_outputs.run_tree``, and every operation of the three workloads
of ``bench/workloads.py`` at seeds 1 to 3 (their output checks, which
call the test oracles, are not run).  With ``--tests`` it is the test
suite, run by ``pytest.main`` in the same process, or the tests that the
given pytest arguments select.  The module-level lines of ``src/tdlab``
run at import, so tdlab is imported only once the tracer is on.

Usage:
    python benchmarks/reach.py
    python benchmarks/reach.py --tests [PYTEST_ARGS ...]
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdlab"
SEEDS = (1, 2, 3)


def executable_lines(path: Path) -> set[int]:
    """Line numbers that hold an instruction of the compiled module."""
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


@contextlib.contextmanager
def tracing(reached: dict):
    """Record in reached[path] each line of PACKAGE that runs, path resolved."""
    prefix, seen = str(PACKAGE) + os.sep, {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = seen.get(filename, False)
        if lines is False:
            path = os.path.realpath(filename)
            lines = seen[filename] = (reached.setdefault(path, set())
                                      if path.startswith(prefix) else None)
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)


def traffic(workdir: str) -> None:
    """The golden commands and slopes, then the workloads' operations."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"),
                    str(ROOT / "bench")]
    import compare_outputs

    golden = os.path.join(workdir, "golden")
    os.mkdir(golden)
    compare_outputs.run_tree(golden)
    sys.dont_write_bytecode = True  # nothing is written under bench/
    from workloads import WORKLOADS

    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            out = os.path.join(workdir, f"{name}-{seed}")
            os.mkdir(out)
            for _, op in workload(seed, out).ops():
                op()


def report(reached: dict) -> int:
    """Print the executable lines of each module that never ran; return
    how many there are."""
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text, lines = path.read_text().splitlines(), executable_lines(path)
        missed = sorted(lines - reached.get(str(path.resolve()), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} executable lines "
              "not reached")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tests", nargs=argparse.REMAINDER, metavar="PYTEST_ARGS",
                    help="run the test suite, or the given tests, instead "
                         "of the traffic")
    args = ap.parse_args(argv)
    reached, start = {}, time.perf_counter()
    if args.tests is None:
        body = "the traffic"
        with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
              contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()),
              tracing(reached)):
            traffic(tmp)
    else:
        import pytest

        tests = args.tests or ["-q", "--continue-on-collection-errors",
                               "-p", "no:cacheprovider", str(ROOT / "tests")]
        with tracing(reached):
            code = pytest.main(tests)
        body = f"pytest {' '.join(tests)} (exit {int(code)})"
    print(f"reach of src/tdlab under {body}, "
          f"{time.perf_counter() - start:.1f} s")
    total = report(reached)
    print(f"executable lines not reached: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
