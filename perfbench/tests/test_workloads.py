"""Workload builders are deterministic and every output check can fail.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import types

import numpy as np
import pytest

from workloads import WORKLOADS, op_seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_builder_is_deterministic_and_keeps_poisson_arrivals(name):
    workload = WORKLOADS[name]
    for seed in (0, 1, 12345):
        for index in (0, 1, 7):
            first = workload.scenario(seed, index)
            again = workload.scenario(seed, index)
            assert first.to_dict() == again.to_dict()
            assert first.burst_xi == 0.0
            assert first.concurrency_q == 0.0
            assert first.seed == op_seed(seed, index)
    assert workload.scenario(1, 0).seed == 1
    assert workload.scenario(1, 1).seed != workload.scenario(2, 1).seed


def test_operation_seeds_differ_within_a_run():
    seeds = {op_seed(5, index) for index in range(200)}
    assert len(seeds) == 200


@pytest.fixture(scope="module")
def outcomes():
    """One real, unperturbed outcome per workload (seed 3)."""
    out = {}
    for name, workload in WORKLOADS.items():
        scenario = workload.scenario(3, 0)
        out[name] = (scenario, workload.run(scenario))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unperturbed_outcome_passes(outcomes, name):
    scenario, outcome = outcomes[name]
    assert WORKLOADS[name].check(scenario, outcome) == []


def _fails(name, scenario, outcome, fragment):
    failures = WORKLOADS[name].check(scenario, outcome)
    assert any(fragment in message for message in failures), failures


@pytest.mark.parametrize("name", ["engine-steady", "engine-mitigated"])
def test_engine_checks_reject_perturbed_results(outcomes, name):
    scenario, result = outcomes[name]
    short = dataclasses.replace(result, n_requests=result.n_requests - 1)
    _fails(name, scenario, short, "completed requests")
    raw = dataclasses.replace(result.raw, misses=result.raw.misses * 2 + 50)
    _fails(name, scenario, dataclasses.replace(result, raw=raw), "binomial")
    raw = dataclasses.replace(result.raw, misses=0)
    _fails(name, scenario, dataclasses.replace(result, raw=raw), "binomial")


def test_steady_mean_envelope_rejects_a_shifted_mean(outcomes):
    scenario, result = outcomes["engine-steady"]
    for factor in (0.5, 2.0):
        total = dataclasses.replace(result.total, mean=result.total.mean * factor)
        _fails(
            "engine-steady",
            scenario,
            dataclasses.replace(result, total=total),
            "analytic reference",
        )


def test_mitigated_checks_reject_broken_sinks(outcomes):
    scenario, result = outcomes["engine-mitigated"]
    broken = types.SimpleNamespace(
        count=10, conservation_residuals=lambda: np.array([0.0, 1e-12])
    )
    _fails(
        "engine-mitigated",
        scenario,
        dataclasses.replace(result, attribution=broken),
        "conservation",
    )
    _fails(
        "engine-mitigated",
        scenario,
        dataclasses.replace(result, attribution=None),
        "no attribution",
    )
    law = dict(result.timeline.littles_law())
    law["mean_relative_error"] = 0.1
    skewed = types.SimpleNamespace(littles_law=lambda: law)
    _fails(
        "engine-mitigated",
        scenario,
        dataclasses.replace(result, timeline=skewed),
        "Little's law",
    )


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"max_rps": 0.0}, "not positive"),
        ({"max_rps": 100.0}, "below 163.2"),
        ({"max_rps": 700.0}, "stability frontier"),
        ({"capped": True}, "capped"),
        ({"below_cliff": False}, "cliff"),
    ],
)
def test_knee_checks_reject_perturbed_results(outcomes, change, fragment):
    scenario, result = outcomes["capacity-knee"]
    _fails("capacity-knee", scenario, dataclasses.replace(result, **change), fragment)



@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_check_rejects_a_median_outside_its_envelope(outcomes, name):
    workload = WORKLOADS[name]
    scenario, outcome = outcomes[name]
    assert workload.check_run([scenario], [None]) == ["no operation completed"]
    lo, hi = workload.run_envelope
    for value in (lo * 0.99, hi * 1.01):
        if value <= 0.0:
            continue
        shifted = dataclasses.replace(workload, statistic=lambda s, o, v=value: v)
        failures = shifted.check_run([scenario] * 3, [outcome] * 3)
        assert failures and "outside" in failures[0], (value, failures)
    inside = dataclasses.replace(workload, statistic=lambda s, o: (lo + hi) / 2)
    assert inside.check_run([scenario] * 3, [outcome] * 3) == []


@pytest.mark.parametrize("name", ["engine-steady", "capacity-knee"])
def test_run_envelopes_catch_a_twenty_percent_bias(name):
    """A bias of 20% either way from the envelope's centre leaves it."""
    lo, hi = WORKLOADS[name].run_envelope
    assert hi / lo < 1.2 ** 2
