"""The span tracer: self-time arithmetic, patch hygiene, and no effect
on the traces the program writes."""

import sys
from pathlib import Path

import pytest

import tracer as tr
import workloads as wl
import destackify
from destackify import cli
from destackify.fans import StackyFan

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_nested_call_tree():
    # root [0, 10] calls a [1, 4] (which calls c [2, 3]) and b [5, 6].
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    c = t.wrap("x.c", lambda: None)
    a = t.wrap("x.a", lambda: c())
    b = t.wrap("x.b", lambda: None)

    def body():
        a()
        b()

    t.wrap("x.root", body)()
    names = [t.names[i] for i in t.name]
    assert names == ["x.root", "x.a", "x.c", "x.b"]
    assert list(t.parent) == [-1, 0, 1, 0]
    assert t.durations() == [10, 3, 1, 1]
    assert t.self_times() == [6, 2, 1, 1]
    assert t.by_name()["x.root"] == (1, 6)
    assert t.inclusive(["x.a", "x.c"]) == 3


def test_inclusive_does_not_count_recursion_twice():
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3]))
    calls = []

    def rec():
        calls.append(1)
        if len(calls) < 2:
            traced()

    traced = t.wrap("x.rec", rec)
    traced()
    assert t.inclusive(["x.rec"]) == 3
    assert t.by_name()["x.rec"] == (2, 3)


def _modules():
    mods = {layer: sys.modules[f"destackify.{layer}"] for layer in tr.LAYERS}
    mods["package"] = destackify
    return mods


def _snapshot(mods):
    owners = list(mods.values()) + [StackyFan]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_patch_wraps_cross_module_bindings():
    mods = _modules()
    before = _snapshot(mods)
    t = tr.Tracer()
    with t.patch(mods, StackyFan):
        assert mods["fans"].smith_normal_form is \
            mods["exact"].smith_normal_form
        assert mods["fans"].smith_normal_form is not \
            before[(id(mods["fans"]), "smith_normal_form")]
        assert mods["algorithms"].conormal_at is mods["conormal"].conormal_at
        assert mods["cli"].divisorialify is mods["algorithms"].divisorialify
        assert destackify.algorithm_b is mods["algorithms"].algorithm_b
        assert "fans.cone_key" not in t._ids


def test_every_attribute_restored_even_after_a_raise():
    mods = _modules()
    before = _snapshot(mods)
    t = tr.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.patch(mods, StackyFan):
            fan = cli.parse_fan(
                '{"rank": 2, "rays": [{"beta": [5, 2]}, {"beta": [0, 1]}],'
                ' "maximal_cones": [[0, 1]]}')
            fan.multiplicity(frozenset({0, 1}))
            raise ZeroDivisionError
    assert len(t) > 0
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _trace_of(prog, doc_text, budget=None):
    fan = prog.cli.parse_fan(doc_text)
    return wl.trace_hash(wl.run_algorithm_b(prog, fan, budget).trace)


def test_traced_and_untraced_traces_are_identical(tmp_path):
    prog = wl.Program(dk=destackify, cli=cli)
    pinned = wl.load_pinned()
    (inp,) = wl.serialise([wl.workload_docs("algb-rank2", 1, None)[0]], None)
    (mu5,) = wl.serialise(
        [d for d in wl.workload_docs("pipeline", 1, ROOT)
         if d[0] == "mu5"], tmp_path)
    plain = _trace_of(prog, inp.text)
    plain_mu5 = wl.run_pipeline(prog, mu5, tmp_path / "a.jsonl").trace
    t = tr.Tracer()
    with t.patch(_modules(), StackyFan):
        traced = _trace_of(prog, inp.text)
        traced_mu5 = wl.run_pipeline(prog, mu5, tmp_path / "b.jsonl").trace
    assert t.by_name()["algorithms.algorithm_b"][0] == 1
    assert t.by_name()["cli.run"][0] == 1
    assert plain == traced == pinned["algb-rank2"][inp.name]
    assert plain_mu5 == traced_mu5
    assert wl.trace_hash(traced_mu5) == pinned["pipeline"]["mu5"]
