"""Unit tests for the harness's own arithmetic and tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
import types

import pytest

from perfbench.measure import Span, rss_mb, self_times, share
from perfbench.run import run_child
from perfbench.trace import Tracer, layer_metrics


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("cli", 0.0, 10.0),
        Span("enum", 1.0, 9.0, parent=0),
        Span("hier", 2.0, 4.0, parent=1),
        Span("tree", 2.5, 3.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 6.0, 1.5, 0.5])


def test_self_time_with_repeated_spans():
    spans = [Span("cli", 0.0, 10.0)]
    spans += [Span("hier", float(i), i + 0.5, parent=0) for i in range(1, 9)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(6.0)
    assert selfs[1:] == pytest.approx([0.5] * 8)


def test_share_is_zero_when_nothing_happened():
    assert share(3, 4) == 0.75
    assert share(0, 0) == 0.0


def test_child_peak_rss_is_read_from_wait4(tmp_path):
    assert rss_mb(2048) == 2.0
    big = run_child([sys.executable, "-c", "b = b'x' * (96 * 2**20)"], tmp_path)
    assert big.code == 0 and big.wall_s > 0
    # This process is far smaller than 96 MiB, so the figure is the child's.
    assert rss_mb(big.rss_kib) >= 96


def test_tracer_nests_spans_and_restores_names(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    tracer = Tracer(((fake.__name__, "outer", "outer", None),
                     (fake.__name__, "inner", "inner", lambda r: {"value": r})))
    with tracer.installed():
        assert tracer.call("cli", fake.outer, 1) == 4
        with pytest.raises(TypeError):
            fake.inner(None)
    assert fake.inner is inner and fake.outer is outer
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("cli", -1, None), ("outer", 0, None), ("inner", 1, None),
                     ("inner", -1, "TypeError")]
    assert tracer.spans[2].info == {"value": 2}


def test_tracer_refuses_a_missing_name():
    with pytest.raises(AttributeError):
        Tracer((("perfbench.measure", "no_such_function", "x", None),))


def test_layer_metrics_per_solve_and_ratios():
    spans = [
        Span("cli", 0.0, 10.0),
        Span("distsolve.enum", 1.0, 9.0, parent=0, info={"subsets": 4}),
        Span("hiersolve.solve", 2.0, 4.0, parent=1, info={"cells": 10}),
        Span("hiersolve.tree", 2.0, 2.5, parent=2),
        Span("hiersolve.solve", 5.0, 7.0, parent=1, info={"cells": 30}),
        Span("cli", 10.0, 12.0),
        Span("typesolve.solve", 10.5, 11.0, parent=5, error="SearchBudgetExceeded"),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans, 2, 1000, 12.0, 10.0).items()}
    assert m["cli.self_s"] == pytest.approx((2.0 + 1.5) / 2)
    assert m["distsolve.enum_self_s"] == pytest.approx(4.0 / 2)
    assert m["distsolve.hier_share"] == pytest.approx(2 / 4)
    assert m["hiersolve.solve_s"] == pytest.approx(2.0)
    assert m["hiersolve.self_s"] == pytest.approx(1.75)
    assert m["hiersolve.calls"] == 1.0
    assert m["hiersolve.cells"] == 20.0
    assert m["typesolve.cap_hits"] == 0.5
    assert m["typesolve.useful_ratio"] == 0.0
    assert m["typesolve.wasted_s"] == pytest.approx(0.25)
    assert m["fileformat.input_bytes"] == 500.0
    assert m["trace.overhead_ratio"] == pytest.approx(1.2)
    assert m["dimsolve.solve_s"] == 0.0
