"""Span recording: self-time arithmetic, re-entry, install and restore."""

import sys
import types

import pytest

from hibench.spans import SpanRecorder


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_nested_self_time_is_duration_minus_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = rec.open(rec._id("outer"))
    a = rec.open(rec._id("a"))
    b = rec.open(rec._id("b"))
    rec.close(b)
    rec.close(a)
    c = rec.open(rec._id("c"))
    rec.close(c)
    rec.close(outer)
    totals = rec.layer_totals()
    assert totals["outer"] == (1, 10_000.0, 3_000.0)
    assert totals["a"] == (1, 3_000.0, 2_000.0)
    assert totals["b"] == (1, 1_000.0, 1_000.0)
    assert totals["c"] == (1, 4_000.0, 4_000.0)
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_spans_sharing_a_name_add_up():
    rec = SpanRecorder(clock=FakeClock([0, 2, 3, 7]))
    for _ in range(2):
        rec.close(rec.open(rec._id("x")))
    assert rec.layer_totals()["x"] == (2, 6_000.0, 6_000.0)


def test_out_of_order_close_is_refused():
    rec = SpanRecorder(clock=FakeClock(range(10)))
    first = rec.open(rec._id("a"))
    rec.open(rec._id("b"))
    with pytest.raises(RuntimeError):
        rec.close(first)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("hibench_fake_layer")

    def walk(n):
        return 0 if n == 0 else 1 + mod.walk(n - 1)

    class Keys:
        @classmethod
        def generate(cls, seed):
            return (cls.__name__, seed)

    mod.walk = walk
    mod.Keys = Keys
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrap_records_top_level_calls_and_restores(fake_module):
    original_walk = fake_module.walk
    original_generate = vars(fake_module.Keys)["generate"]
    seen = []
    rec = SpanRecorder()
    rec.wrap("hibench_fake_layer:walk", "walk", probe=lambda a, k, r: seen.append(r))
    rec.wrap("hibench_fake_layer:Keys.generate", "keys")
    rec.set_run(7)
    assert fake_module.walk(3) == 3  # recursion stays inside one span
    assert fake_module.Keys.generate(5) == ("Keys", 5)
    rec.restore()
    assert fake_module.walk is original_walk
    assert vars(fake_module.Keys)["generate"] is original_generate
    totals = rec.layer_totals()
    assert totals["walk"][0] == 1 and totals["keys"][0] == 1
    assert seen == [3]
    assert list(rec.run) == [7, 7]


def test_save_writes_every_span(tmp_path):
    import numpy as np

    rec = SpanRecorder()
    with rec.phase("run"):
        rec.close(rec.open(rec._id("inner")))
    path = rec.save(tmp_path / "spans.npz")
    data = np.load(path)
    assert list(data["names"]) == ["phase.run", "inner"]
    assert list(data["parent"]) == [-1, 0]
