"""Span bookkeeping, the traced run's layer table, and the run contract."""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run as bench
import tracer as spans
import worker
import workloads
from conftest import BENCH, ROOT


def _span(tracer, name, start, end, parent):
    tracer.name.append(tracer.name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.run.append(1)
    return len(tracer) - 1


def test_self_time_subtracts_children_and_sums_to_root():
    tracer = spans.Tracer()
    root = _span(tracer, spans.ROOT_SPAN, 0.0, 10.0, -1)
    run = _span(tracer, "Simulator.run", 1.0, 9.0, root)
    # Two callbacks; the first opened a NetworkSim.send span, recorded
    # before its callback span and parented on Simulator.run.
    _span(tracer, "NetworkSim.send", 2.0, 2.5, run)
    _span(tracer, "cb:ServerSim:ServerSim._start_next", 1.5, 3.0, run)
    _span(tracer, "cb:DatabaseSim:ServerSim._start_next", 4.0, 5.0, run)
    _span(tracer, "cb:Mystery:Unknown.callback", 6.0, 6.5, run)
    spans.attach_callback_spans(tracer)
    assert tracer.parent[2] == 3
    layer_of = {"Simulator.run": "engine", "NetworkSim.send": "network",
                spans.ROOT_SPAN: "other"}
    totals, root_seconds = spans.self_times(tracer, layer_of)
    assert root_seconds == 10.0
    assert totals["network"] == pytest.approx(0.5)
    assert totals["server"] == pytest.approx(1.0)
    assert totals["db"] == pytest.approx(1.0)
    assert totals["engine"] == pytest.approx(8.0 - 1.5 - 1.0 - 0.5)
    assert totals["other"] == pytest.approx(2.0 + 0.5)
    assert sum(totals.values()) == pytest.approx(root_seconds)


def test_uninstall_restores_every_wrapped_function():
    import repro.capacity
    from repro import Scenario
    from repro.distributions.rng import RandomWindow
    from repro.simulation.fastpath import lindley_waits

    before = (
        Scenario.run,
        dict(Scenario._DISPATCH),
        repro.capacity.find_capacity,
        RandomWindow.__init__,
        lindley_waits,
    )
    installed = spans.install(spans.Tracer())
    assert Scenario.run is not before[0]
    assert repro.capacity.find_capacity is not before[2]
    installed.uninstall()
    from repro.simulation import fastpath

    after = (
        Scenario.run,
        dict(Scenario._DISPATCH),
        repro.capacity.find_capacity,
        RandomWindow.__init__,
        fastpath.lindley_waits,
    )
    assert after == before


@pytest.fixture(scope="module")
def traced():
    """A traced run of every workload."""
    return {
        name: worker.trace(name, 5, out=None)
        for name in bench.WORKLOADS
    }


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_layer_self_times_plus_other_add_up_to_the_root(traced, name):
    record = traced[name]
    seconds = dict(record["layer_self_s"])
    root = seconds.pop("root")
    assert root > 0.0
    assert sum(seconds.values()) == pytest.approx(root, rel=1e-9)
    assert min(seconds.values()) > -1e-6 * root
    assert record["failed"] == 0, record["messages"]
    assert record["metrics"]["trace.other_share"] <= 0.10
    assert set(record["metrics"]) == set(layers.PER_LAYER)


def test_traced_runs_separate_the_layers(traced):
    knee = traced["capacity-knee"]["metrics"]
    steady = traced["engine-steady"]["metrics"]
    mitigated = traced["engine-mitigated"]["metrics"]
    assert knee["engine.events"] == 0 and knee["fps.calls"] > 0
    assert steady["engine.events"] > 0 and steady["fps.calls"] == 0
    assert steady["attr.rows"] == 0 and mitigated["attr.rows"] > 0
    assert mitigated["policy.attempts_per_key"] > 1.0
    assert steady["policy.attempts_per_key"] <= 1.0
    assert knee["policy.attempts_per_key"] <= 1.0
    assert mitigated["engine.cancels"] > 0 and steady["engine.cancels"] == 0
    assert mitigated["faults.queries"] > 0 and steady["faults.queries"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert list(bench.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
