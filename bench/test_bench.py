"""Tests of the benchmark's own parts: python3 -m pytest bench"""

import json
import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import gate
from layers import LAYERS, layer_metrics
from tracer import Probe, Span, Tracer, self_times, union_length
from workloads import JITTER, MAX_DURATION, WORKLOADS, make_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ffsynth.config import load_config, parse_config  # noqa: E402
import yaml  # noqa: E402

SHIPPED = {
    "accelerate-chain": "accelerate-chain.yaml",
    "decelerate-full": "decelerate-single-shift.yaml",
    "sta-sweep": "sta-sweep.yaml",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_is_the_shipped_config(name):
    shipped = load_config(os.path.join(ROOT, "configs", SHIPPED[name]))
    doc, floors = make_config(WORKLOADS[name], 0, "elsewhere")
    generated = parse_config(yaml.safe_dump(doc))
    assert generated == replace(shipped, out_dir="elsewhere")
    assert set(floors) == set(generated.t_final)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_jitter_every_duration_within_bounds(name):
    shipped, _ = make_config(WORKLOADS[name], 0, "o")
    base = shipped["t_final"] if isinstance(shipped["t_final"], list) else [shipped["t_final"]]
    seen = set()
    for seed in range(1, 40):
        doc, floors = make_config(WORKLOADS[name], seed, "o")
        assert doc == make_config(WORKLOADS[name], seed, "o")[0]
        values = doc["t_final"] if isinstance(doc["t_final"], list) else [doc["t_final"]]
        for v, b in zip(values, base):
            assert abs(v / b - 1.0) <= JITTER + 1e-9
            assert v <= max(b, MAX_DURATION)
        assert list(floors) == values
        seen.add(tuple(values))
    assert len(seen) == 39


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _two_namespace_recursion(clock):
    """f lives in module a, is bound in b too, and recurses through b."""
    a = types.ModuleType("fake_a")
    b = types.ModuleType("fake_b")

    def f(n):
        clock.tick(1.0)
        if n:
            b.f(n - 1)
        clock.tick(1.0)
        return n

    def outer():
        clock.tick(2.0)
        a.f(2)
        clock.tick(3.0)

    a.f = b.f = f
    a.outer = outer
    return a, b


def test_self_times_with_recursion_through_two_namespaces():
    clock = Clock()
    a, b = _two_namespace_recursion(clock)
    original = a.f
    tracer = Tracer(clock)
    tracer.install(
        [Probe(a, "outer", "cli.outer"),
         Probe(a, "f", "zerocurves.f", count=lambda args, r: {"samples": args["n"] + 1})],
        [a, b],
    )
    assert a.f is b.f is not original
    a.outer()
    spans = tracer.spans
    assert [s.name for s in spans] == ["cli.outer"] + ["zerocurves.f"] * 3
    assert [s.parent for s in spans] == [None, 0, 1, 2]
    assert [s.duration for s in spans] == [11.0, 6.0, 4.0, 2.0]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 2.0}
    assert union_length((s.start, s.end) for s in spans[1:]) == 6.0
    assert [s.counts["samples"] for s in spans[1:]] == [3, 2, 1]
    tracer.uninstall()
    assert a.f is b.f is original


def test_worker_thread_spans_nest_under_the_waiting_main_thread_span():
    clock = Clock()
    tracer = Tracer(clock)
    mod = types.ModuleType("fake")
    mod.leaf = lambda: clock.tick(1.0)

    def fan_out():
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(mod.leaf).result()

    mod.fan_out = fan_out
    tracer.install([Probe(mod, "fan_out", "cli.fan_out"), Probe(mod, "leaf", "dynamics.leaf")], [mod])
    mod.fan_out()
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert self_times(tracer.spans) == {0: 0.0, 1: 1.0}


def _span(i, name, start, end, parent=None, **counts):
    return Span(i, name, start, end, parent=parent, schedule=1.1, counts=counts)


def test_layer_self_times_account_for_the_root_span():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "config.load_config", 0.5, 1.0, 0),
        _span(2, "cli.run_single", 1.0, 9.5, 0),
        _span(3, "analysis.verify_control", 2.0, 5.0, 2),
        _span(4, "dynamics.integrate_schrodinger", 2.5, 4.5, 3, steps=20_000),
        _span(5, "zerocurves.extract_scts", 5.0, 7.0, 2),
        _span(6, "ffst.FfstPhaseModel", 5.0, 5.5, 5),
        _span(7, "zerocurves.link_branches", 5.5, 7.0, 5, samples=16_001, branches=2),
        _span(8, "itt.optimize_virtual_trajectory", 7.0, 9.0, 2, evals=2000, maxfev=2000),
    ]
    m = layer_metrics(spans)
    assert m["analysis.verify_self_s"] == 1.0
    assert m["dynamics.integrate_s"] == 2.0
    assert m["dynamics.steps_per_s"] == 10_000.0
    assert m["zerocurves.scan_s"] == 2.0
    assert m["zerocurves.self_s"] == 1.5
    assert m["zerocurves.samples_per_s"] == 16_001 / 1.5
    assert m["ffst.model_builds"] == 1
    assert m["itt.evals_at_cap"] == 1.0
    assert m["cli.self_s"] == 10.0 - 0.5 - 3.0 - 2.0 - 2.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == spans[0].duration


WORKLOAD = WORKLOADS["decelerate-full"]
FLOORS = {1.1: 0.9995}


def _write_output(out, **changes):
    """A minimal single-schedule output directory, optionally doctored."""
    os.makedirs(out, exist_ok=True)
    summary = {
        "t_final": 1.1,
        "fidelities": {"itt": 0.9999996, "naive": 0.9877, "alpha-scaled": 0.9984},
        "reference": {"n_steps": 20_000},
        "cost": {"evaluations": 183},
    }
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            summary[section][field] = value
        else:
            summary[section] = value
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    for label in summary["fidelities"]:
        with open(os.path.join(out, f"populations_{label}.tsv"), "w") as fh:
            fh.write("t\tp1\tp2\n" + "0\t1\t0\n" * 5)
    return out


def test_gate_accepts_a_good_output(tmp_path):
    out = _write_output(str(tmp_path / "out"))
    assert gate.check_invocation(WORKLOAD, FLOORS, out, 0) == ([], 0.9999996)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"fidelities__itt": 0.9990}, "below floor"),
        ({"fidelities__naive": 0.99999999}, "baseline naive"),
        ({"reference__n_steps": 100_001}, "reference integration took 100001 steps"),
        ({"cost__evaluations": 2001}, "2001 cost evaluations"),
        ({"cost": {}}, "unreadable output"),
    ],
)
def test_gate_rejects_a_doctored_summary(tmp_path, changes, message):
    out = _write_output(str(tmp_path / "out"), **changes)
    failures, _ = gate.check_invocation(WORKLOAD, FLOORS, out, 0)
    assert len(failures) == 1 and message in failures[0]


def test_gate_rejects_a_failed_exit_and_a_missing_summary(tmp_path):
    out = _write_output(str(tmp_path / "out"))
    assert gate.check_invocation(WORKLOAD, FLOORS, out, 3)[0] == ["exit code 3"]
    os.remove(os.path.join(out, "summary.json"))
    assert "unreadable output" in gate.check_invocation(WORKLOAD, FLOORS, out, 0)[0][0]


def test_summary_digest_sees_one_changed_byte(tmp_path):
    out = _write_output(str(tmp_path / "out"))
    before = gate.summary_digest(out)
    assert gate.summary_digest(out) == before
    _write_output(out, fidelities__itt=0.9999997)
    assert gate.summary_digest(out) != before
