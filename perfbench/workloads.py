"""The benchmark's workloads: scenario builders, operations and output checks.

Each workload is one question asked through the public API
(``Scenario.run`` or ``find_capacity``). One *operation* asks it once
for one scenario. A run has a fixed number of operations
(``Workload.ops``) on scenarios derived from the run's seed
(:func:`op_seed`), so the program only ever sees the resulting
:class:`~repro.Scenario`.

Every check returns a list of failure messages (empty when the output
is right). Each operation is checked, and so is the median of one
statistic over the run's operations. The envelopes come from the
seed-to-seed scatter measured with ``python3 perfbench/calibrate.py``;
README.md records the seeds and observed ranges. They are wide on purpose: a check must never fail
on correct code.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.capacity
from repro import Scenario
from repro.capacity import CapacityObjective, CapacityResult
from repro.faults import FaultSchedule, ServerSlowdown
from repro.policies import RequestPolicy
from repro.simulation import SimulationResult
from repro.units import kps, msec, usec

#: Requests per engine operation (plus a 10% warmup).
ENGINE_REQUESTS = 4000
#: Base request budget of one capacity probe: the quick budget under
#: which EXPERIMENTS.md records the 422.6 rps knee.
KNEE_REQUESTS = 400
#: Indeterminate probes escalate once, to 800 requests, as in that
#: record. The library's default cap (8x) makes a search's cost
#: heavy-tailed: over 60 seeds its coefficient of variation was 0.52,
#: against 0.23 with one doubling, so the mean cost of a run's searches
#: would scatter far more from seed to seed.
KNEE_MAX_REQUESTS = 2 * KNEE_REQUESTS
KNEE_OBJECTIVE = CapacityObjective(threshold=msec(20), metric="p99")
KNEE_WINDOWS = 16
KNEE_REL_TOL = 0.02
#: The knee EXPERIMENTS.md records for the section 5.1 baseline.
KNEE_REFERENCE_RPS = 422.6

#: z for the binomial miss-ratio bound: P(|Z| > 6) is about 2e-9.
MISS_Z = 6.0
#: engine-steady mean T / ``attribution_reference()["total"]`` (the
#: reference's matched-geometric batch model overstates this point's
#: mean; the check guards against drift, not model error). The ratio is
#: right-skewed (rare database bursts), so the envelope is the mean +- 8
#: sd of its log. Seeds 9500-9699: 0.366-0.531, log mean -0.8710, log sd
#: 0.0584.
STEADY_MEAN_RATIO = (0.262, 0.668)
#: engine-mitigated ``Timeline.littles_law()["mean_relative_error"]``,
#: upper end of the log mean + 8 sd. Seeds 9500-9699: 0.0050-0.0134,
#: log mean -4.878, log sd 0.181. (The max over windows is too
#: heavy-tailed to check: seeds 9000-9029 put it at 0.014-0.084, yet a
#: correct run later reached 0.132.)
MITIGATED_LITTLE_MEAN_MAX = 0.0324
#: capacity-knee ``max_rps`` per search, lower end of the mean - 6 sd.
#: The 1600 searches of run seeds 9700-9739: 289.4-604.3, mean 449.54,
#: sd 47.73. The stability-frontier check bounds it above.
KNEE_RPS_MIN = 163.2

#: Run-level envelopes: the median of the checked statistic over a
#: run's operations (:meth:`Workload.check_run`). A median over many
#: independent operations scatters far less than one operation, so
#: these catch a simulator bias that the per-operation envelopes above
#: let through. Derived from the run medians of run seeds 9700-9739
#: (``calibrate.py``).
#: engine-steady, median of 8 ratios: 0.3948-0.4253, log mean -0.88868,
#: log sd 0.018593; mean +- 6 sd of the log (a median of 8 is close to
#: normal).
STEADY_RUN_MEAN_RATIO = (0.3678, 0.4597)
#: engine-mitigated, median of 3 Little's-law errors: 0.00575-0.00998,
#: log mean -4.8823, log sd 0.13544; log mean + 8 sd (a median of 3 is
#: still skewed).
MITIGATED_RUN_LITTLE_MEAN_MAX = 0.0224
#: capacity-knee, median of 40 searches: 436.4-464.0, mean 447.49, sd
#: 6.679; mean +- 6 sd. Contains the 422.6 reference.
KNEE_RUN_RPS = (407.41, 487.56)


def op_seed(seed: int, index: int) -> int:
    """Scenario seed of operation ``index`` of a run seeded ``seed``.

    Operation 0 uses the run's seed itself; later operations use
    independent seeds drawn from ``SeedSequence([seed, index])``, so a
    run averages over several scenario seeds and the same run seed
    always replays the same inputs.
    """
    if index == 0:
        return int(seed)
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(1)
    return int(state[0] >> 1)


# ----------------------------------------------------------------------
# Scenario builders.
# ----------------------------------------------------------------------


def steady_scenario(seed: int) -> Scenario:
    """The stable two-server point of ``bench_speed_backends``.

    N=20, muS=80 Kps, 40 Kps per server (rhoS=0.5), r=0.005, muD=1 Kps
    (rhoD=0.4), 20 us network; Poisson requests, xi=q=0.
    """
    return Scenario(
        key_rate=kps(40),
        burst_xi=0.0,
        concurrency_q=0.0,
        n_servers=2,
        service_rate=kps(80),
        n_keys=20,
        network_delay=usec(20),
        miss_ratio=0.005,
        database_rate=1 / msec(1),
        seed=seed,
        n_requests=ENGINE_REQUESTS,
        warmup_requests=ENGINE_REQUESTS // 10,
    )


def mitigated_scenario(seed: int) -> Scenario:
    """The ``bench_ext_faults`` mitigation point.

    2 servers at 25 Kps each, r=0.01, muD=2 Kps, server 0 slowed to
    0.35x over the middle 60% of the horizon, keys hedged after 300 us.
    """
    base = Scenario(
        key_rate=kps(25),
        burst_xi=0.0,
        concurrency_q=0.0,
        n_servers=2,
        service_rate=kps(80),
        n_keys=20,
        network_delay=usec(20),
        miss_ratio=0.01,
        database_rate=2_000.0,
        seed=seed,
        n_requests=ENGINE_REQUESTS,
        warmup_requests=ENGINE_REQUESTS // 10,
    )
    horizon = base.n_requests / base.request_rate()
    slowdown = ServerSlowdown(
        start=0.2 * horizon, duration=0.6 * horizon, factor=0.35, server=0
    )
    return base.replace(
        faults=FaultSchedule.single(slowdown),
        policy=RequestPolicy.hedged(usec(300)),
    )


def knee_scenario(seed: int) -> Scenario:
    """The paper's section 5.1 baseline with xi=q=0 and the quick budget."""
    return Scenario.paper_section_5_1().replace(
        burst_xi=0.0,
        concurrency_q=0.0,
        seed=seed,
        n_requests=KNEE_REQUESTS,
        warmup_requests=KNEE_REQUESTS // 10,
    )


# ----------------------------------------------------------------------
# Operations.
# ----------------------------------------------------------------------


def run_steady(scenario: Scenario, observability=None) -> SimulationResult:
    options = {} if observability is None else {"observability": observability}
    return scenario.run("simulate", **options)


def run_mitigated(scenario: Scenario, observability=None) -> SimulationResult:
    options = {} if observability is None else {"observability": observability}
    return scenario.run("simulate", timeline=48, attribution=True, **options)


def run_knee(scenario: Scenario, observability=None) -> CapacityResult:
    # Looked up at call time so a traced run sees the traced function.
    return repro.capacity.find_capacity(
        scenario,
        KNEE_OBJECTIVE,
        backend="fastpath-system",
        windows=KNEE_WINDOWS,
        rel_tol=KNEE_REL_TOL,
        max_requests=KNEE_MAX_REQUESTS,
        spot_check=False,
    )


def probe_requests(result: CapacityResult) -> int:
    """Requests every probe simulated, escalation attempts included."""
    total = 0
    for probe in result.probes:
        base = probe.n_requests >> probe.escalations
        for step in range(probe.escalations + 1):
            n = base << step
            total += n + max(n // 10, 1)
    return total


def engine_keys(scenario: Scenario, result: Optional[SimulationResult]) -> int:
    """Simulated key lookups of one engine run, warmup included (the
    same for every run of a scenario, so ``result`` may be ``None``)."""
    return (scenario.n_requests + scenario.warmup_requests) * scenario.n_keys


def knee_keys(scenario: Scenario, result: CapacityResult) -> int:
    return probe_requests(result) * scenario.n_keys


# ----------------------------------------------------------------------
# Output checks.
# ----------------------------------------------------------------------


def _check_engine_common(
    scenario: Scenario, result: SimulationResult
) -> List[str]:
    failures = []
    if result.n_requests != scenario.n_requests:
        failures.append(
            f"completed requests {result.n_requests} != "
            f"n_requests {scenario.n_requests}"
        )
    lookups = result.raw.keys_processed
    misses = result.raw.misses
    r = scenario.miss_ratio
    slack = MISS_Z * math.sqrt(lookups * r * (1.0 - r)) + 1.0
    if lookups <= 0 or abs(misses - r * lookups) > slack:
        failures.append(
            f"misses {misses} of {lookups} lookups outside the binomial "
            f"bound {r * lookups:.1f} +- {slack:.1f} (r={r})"
        )
    return failures


def steady_ratio(scenario: Scenario, result: SimulationResult) -> float:
    """Mean T over the analytic reference's mean."""
    return result.total.mean / scenario.attribution_reference()["total"]


def little_error(scenario: Scenario, result: SimulationResult) -> float:
    """Little's-law mean relative error over the timeline's windows."""
    return result.timeline.littles_law()["mean_relative_error"]


def knee_rps(scenario: Scenario, result: CapacityResult) -> float:
    return result.max_rps


def check_steady(scenario: Scenario, result: SimulationResult) -> List[str]:
    failures = _check_engine_common(scenario, result)
    ratio = steady_ratio(scenario, result)
    lo, hi = STEADY_MEAN_RATIO
    if not lo <= ratio <= hi:
        failures.append(
            f"mean T / analytic reference = {ratio:.4f} outside [{lo}, {hi}]"
        )
    return failures


def check_mitigated(scenario: Scenario, result: SimulationResult) -> List[str]:
    failures = _check_engine_common(scenario, result)
    attribution = result.attribution
    if attribution is None or attribution.count == 0:
        failures.append("no attribution rows recorded")
    else:
        residuals = attribution.conservation_residuals()
        if np.any(residuals != 0.0):
            failures.append(
                "attribution conservation residuals not all zero "
                f"(max |r| = {float(np.max(np.abs(residuals))):.3g})"
            )
    if result.timeline is None:
        failures.append("no timeline recorded")
    else:
        law = result.timeline.littles_law()
        err = law["mean_relative_error"]
        if law["n_valid"] == 0 or not err <= MITIGATED_LITTLE_MEAN_MAX:
            failures.append(
                f"Little's law mean relative error {err:.4g} over "
                f"{law['n_valid']} windows exceeds {MITIGATED_LITTLE_MEAN_MAX}"
            )
    return failures


def check_knee(scenario: Scenario, result: CapacityResult) -> List[str]:
    failures = []
    rps = result.max_rps
    stability = result.bracket.stability_rps
    if not rps > 0.0:
        failures.append(f"max_rps {rps} is not positive")
    if result.capped:
        failures.append("search capped: the SLO never bound")
    if not result.below_cliff:
        failures.append(
            f"max_rps {rps:.1f} not below the cliff "
            f"{result.bracket.cliff_rps:.1f}"
        )
    if not rps < stability:
        failures.append(
            f"max_rps {rps:.1f} not below the stability frontier "
            f"{stability:.1f}"
        )
    if not rps >= KNEE_RPS_MIN:
        failures.append(f"max_rps {rps:.1f} below {KNEE_RPS_MIN}")
    return failures


def same_outcome(a, b) -> bool:
    """Two runs of one scenario gave the same result (they are seeded)."""
    if hasattr(a, "max_rps"):
        return a.max_rps == b.max_rps and len(a.probes) == len(b.probes)
    return a.total.mean == b.total.mean and a.p99 == b.p99


# ----------------------------------------------------------------------
# Simulated outputs recorded beside each run (not gated metrics).
# ----------------------------------------------------------------------


def engine_outputs(scenario: Scenario, result: SimulationResult) -> Dict[str, float]:
    utils = result.server_utilizations or []
    return {
        "mean_T_us": result.total.mean * 1e6,
        "p99_T_us": result.p99 * 1e6,
        "miss_ratio": result.measured_miss_ratio,
        "server_util": float(np.mean(utils)) if len(utils) else math.nan,
        "mean_T_rel_err": steady_ratio(scenario, result) - 1.0,
    }


def knee_outputs(scenario: Scenario, result: CapacityResult) -> Dict[str, float]:
    return {
        "max_rps": result.max_rps,
        "max_rps_rel_err": result.max_rps / KNEE_REFERENCE_RPS - 1.0,
        "probes": float(result.n_probes),
    }


#: Failure messages kept in a run record.
MAX_MESSAGES = 20


def op_units(outcome) -> int:
    """Operations one outcome counts for: its probes, or one run."""
    probes = getattr(outcome, "probes", None)
    return len(probes) if probes is not None else 1


class Ledger:
    """Checks attempted and failed, with the first failure messages.

    An engine operation is one simulation run; a capacity search counts
    each of its probes (one, if the search raised). The run-level check
    counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, units: int, failures: List[str], label: str) -> None:
        self.attempted += units
        if failures:
            self.failed += units
            for message in failures:
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(f"{label}: {message}")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named workload: how to build, run, count and check it."""

    name: str
    build: Callable[[int], Scenario]
    run: Callable[..., object]
    keys: Callable[[Scenario, object], int]
    check: Callable[[Scenario, object], List[str]]
    outputs: Callable[[Scenario, object], Dict[str, float]]
    #: The checked statistic of one operation, and the envelope its
    #: median over a run's operations must fall in.
    statistic: Callable[[Scenario, object], float]
    run_envelope: Tuple[float, float]
    engine: bool
    #: Operations per run: a run repeats operations 0 .. ops-1 in
    #: rounds, so every run does the same amount of work whatever the
    #: machine's speed.
    ops: int

    def scenario(self, seed: int, index: int) -> Scenario:
        return self.build(op_seed(seed, index))

    def warm_up(self) -> None:
        """One tiny operation that fills lazy caches before timing."""
        tiny = self.build(0).replace(n_requests=40, warmup_requests=4)
        self.run(tiny)

    def check_run(self, scenarios: List[Scenario], outcomes: List[object]) -> List[str]:
        """The median of the statistic over the run's operations."""
        values = [
            self.statistic(scenario, outcome)
            for scenario, outcome in zip(scenarios, outcomes)
            if outcome is not None
        ]
        if not values:
            return ["no operation completed"]
        median = statistics.median(values)
        lo, hi = self.run_envelope
        if not lo <= median <= hi:
            return [
                f"median {self.statistic.__name__} {median:.5g} over "
                f"{len(values)} operations outside [{lo}, {hi}]"
            ]
        return []


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="engine-steady",
            build=steady_scenario,
            run=run_steady,
            keys=engine_keys,
            check=check_steady,
            outputs=engine_outputs,
            statistic=steady_ratio,
            run_envelope=STEADY_RUN_MEAN_RATIO,
            engine=True,
            ops=8,
        ),
        Workload(
            name="engine-mitigated",
            build=mitigated_scenario,
            run=run_mitigated,
            keys=engine_keys,
            check=check_mitigated,
            outputs=engine_outputs,
            statistic=little_error,
            run_envelope=(0.0, MITIGATED_RUN_LITTLE_MEAN_MAX),
            engine=True,
            ops=3,
        ),
        Workload(
            name="capacity-knee",
            build=knee_scenario,
            run=run_knee,
            keys=knee_keys,
            check=check_knee,
            outputs=knee_outputs,
            statistic=knee_rps,
            run_envelope=KNEE_RUN_RPS,
            engine=False,
            ops=40,
        ),
    )
}
