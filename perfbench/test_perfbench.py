"""Checks of the benchmark's own arithmetic and tracing.

Run with ``python -m pytest perfbench``.
"""

import sys
import types

import pytest

from layers import PER_LAYER_UNITS, layer_metrics
from tracer import Hook, Span, Tracer, covered_length, median_and_tail, self_times


def test_tail_percentile_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(200, 0, -1)]  # 1..200, unsorted
    out = median_and_tail(samples)
    assert out["n"] == 200
    assert out["p50"] == 100.5
    assert out["tail_pct"] == 95.0
    assert out["tail"] == 190.0
    assert sum(s > out["tail"] for s in samples) == 10

    assert median_and_tail(range(1000))["tail_pct"] == 99.0
    few = median_and_tail([3.0, 1.0, 2.0] * 3 + [4.0])  # 10 samples: no such percentile
    assert few["p50"] == 2.0 and few["tail_pct"] is None and few["tail"] is None
    with pytest.raises(ValueError):
        median_and_tail([])


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r", 1),
        Span(1, "a", 1.0, 4.0, 0, "r", 1),
        Span(2, "b", 3.0, 6.0, 0, "r", 2),  # overlaps a: a worker thread's child
        Span(3, "leaf", 2.0, 3.0, 1, "r", 1),
        Span(4, "late", 9.5, 12.0, 0, "r", 2),  # outlives its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 0.5))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert covered_length([(1.0, 2.0), (1.5, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_records_nested_spans_and_restores_bindings(monkeypatch):
    module = types.ModuleType("fake_layer")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original = module.outer
    calls = []
    tracer = Tracer()
    tracer.run = "job"
    hooks = [Hook("fake_layer.outer", "fake.outer"),
             Hook("fake_layer.inner", "fake.inner",
                  count=lambda state, args, kwargs, result: calls.append(result))]
    with tracer.installed(hooks):
        assert module.outer(1) == 4
    assert module.outer is original
    inner, outer = sorted(tracer.spans, key=lambda s: s.name)
    assert (outer.name, outer.parent) == ("fake.outer", None)
    assert (inner.name, inner.parent) == ("fake.inner", outer.span_id)
    assert inner.run == outer.run == "job"
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert calls == [2]
    assert self_times(tracer.spans)[outer.span_id] == pytest.approx(
        outer.duration - inner.duration)


def test_absent_binding_is_reported_not_raised(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.kept = lambda: "ok"
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()

    def broken_counter(state, args, kwargs, result):
        raise KeyError("batch")

    hooks = [Hook("fake_layer.removed", "fake.removed"),
             Hook("no_such_package.module.fn", "gone.fn"),
             Hook("fake_layer.kept", "fake.kept", count=broken_counter)]
    with tracer.installed(hooks):
        assert module.kept() == "ok"
    assert tracer.absent == ["fake_layer.removed", "no_such_package.module.fn"]
    assert tracer.counter_errors == 1
    assert [s.name for s in tracer.spans] == ["fake.kept"]

    metrics = layer_metrics([], [], {}, applied_examples=0)
    assert set(metrics) <= set(PER_LAYER_UNITS)
    assert all(value == 0 for value in metrics.values())

