"""Self-tests of the benchmark's span and operation accounting.

They import nothing from tdlab; test_workloads.py covers the parts that run
the program.

    python3 -m pytest bench/tests -q
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from harness import (ROOT, CheckFailed, OpResult, Tally, Tracer, run_ops,
                     summarize)

BENCH = Path(__file__).resolve().parents[1]
#: A metric name starts with a letter or digit and uses only [A-Za-z0-9_.-].
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def at(clock, t, action, *args):
    clock.now = t
    return action(*args)


def test_self_time_of_nested_spans_adds_up_to_the_root():
    clock = FakeClock()
    tr = Tracer(clock)
    root = at(clock, 0.0, tr.open, ROOT, "iteration")
    c = at(clock, 1.0, tr.open, "cli", "main")
    s = at(clock, 2.0, tr.open, "simulate", "run")
    k = at(clock, 3.0, tr.open, "kernels", "integrate_hybrid")
    at(clock, 5.0, tr.close, k)
    at(clock, 6.0, tr.close, s)
    c2 = at(clock, 6.5, tr.open, "cli", "cmd_simulate")  # same-layer child
    at(clock, 7.0, tr.close, c2)
    at(clock, 9.0, tr.close, c)
    at(clock, 10.0, tr.close, root)

    st = summarize(tr.spans)
    assert st[ROOT].self_s == pytest.approx(2.0)
    assert st["cli"].self_s == pytest.approx(4.0)
    assert st["simulate"].self_s == pytest.approx(2.0)
    assert st["kernels"].self_s == pytest.approx(2.0)
    assert sum(x.self_s for x in st.values()) == pytest.approx(10.0)
    assert st["cli"].busy_s == pytest.approx(8.0)
    assert st["cli"].calls == 1  # the nested cli span is not a new entry


def test_reentry_from_another_layer_counts_as_a_call_but_not_twice_busy():
    clock = FakeClock()
    tr = Tracer(clock)
    a = at(clock, 0.0, tr.open, "sweep", "sweep")
    b = at(clock, 1.0, tr.open, "simulate", "run")
    c = at(clock, 2.0, tr.open, "sweep", "fundamental_component")
    at(clock, 3.0, tr.close, c)
    at(clock, 5.0, tr.close, b)
    at(clock, 6.0, tr.close, a)

    st = summarize(tr.spans)
    assert st["sweep"].calls == 2
    assert st["sweep"].busy_s == pytest.approx(6.0)
    assert st["sweep"].self_s == pytest.approx(3.0)
    assert st["simulate"].self_s == pytest.approx(3.0)


def test_an_exception_counts_once_for_the_layer_it_escapes():
    tr = Tracer()

    def inner():
        raise ValueError("boom")

    def outer():
        return tr.call("describing", "describing_gain", inner)

    with pytest.raises(ValueError):
        tr.call("simulate", "run", tr.call, "describing", "linearize", outer)
    st = summarize(tr.spans)
    assert st["describing"].errors == 1
    assert st["simulate"].errors == 1


def test_spans_must_close_in_order():
    tr = Tracer()
    a = tr.open("cli", "main")
    tr.open("simulate", "run")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_metric_names_use_the_allowed_charset():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for bad in ("_kernels.busy_s", "cli self_s", "x" * 65, "", "a/b"):
        assert not NAME.fullmatch(bad)


def test_failing_output_check_raises_error_rate_above_zero():
    def check(result):
        if result.output != 1:
            raise CheckFailed("wrong output")

    tally = Tally()
    for result in run_ops([("good", lambda: 1), ("bad", lambda: 2.5),
                           ("raises", lambda: 1 / 0),
                           ("exits", lambda: sys.exit(2))]):
        tally.record(result, check)
    assert tally.attempted == 4
    assert tally.failed == 3
    assert tally.error_rate > 0.0
    assert any("check failed" in m for m in tally.messages)


def test_op_result_failure_is_recorded_without_check():
    tally = Tally()
    tally.record(OpResult("op", "ValueError: x", None), None)
    assert tally.failed == 1 and math.isclose(tally.error_rate, 1.0)
