"""One measuring process of the benchmark (started by ``run.py``).

Modes:

* ``setup``: import ``repro``, build the workload's scenario and run a
  tiny warm-up; print the set-up time.
* ``measure``: the same set-up, then run the workload's operations in
  rounds for ``--seconds`` with tracing off, check every output, and
  report the end-to-end metrics and this process's peak memory.
* ``trace``: one untraced round, then the same operations again with
  spans on; report the per-layer table plus the tracing overhead.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Ledger, op_units, same_outcome  # noqa: E402

#: At least this many rounds in a measuring run, whatever ``--seconds``
#: says: per-operation times are best-of.
MIN_ROUNDS = 3
#: Stop adding traced operations once this many spans are held.
SPAN_BUDGET = 1_000_000


def set_up(name: str, seed: int):
    """Import, build and warm up; returns (workload, set-up seconds)."""
    workload = WORKLOADS[name]
    workload.scenario(seed, 0)  # building the scenario is part of set-up
    workload.warm_up()
    return workload, time.perf_counter() - _STARTED


def run_op(workload, scenario, index: int, ledger: Ledger, first=None):
    """Run and check one operation; returns (seconds, outcome or None).

    ``first`` is the outcome of the same operation in an earlier round:
    a seeded run must reproduce it.
    """
    if workload.engine:
        # Collect the previous run's object graph outside the timing.
        gc.collect()
    label = f"op {index}"
    started = time.perf_counter()
    try:
        outcome = workload.run(scenario)
    except Exception:
        seconds = time.perf_counter() - started
        ledger.add(1, ["raised " + traceback.format_exc(limit=3)], label)
        return seconds, None
    seconds = time.perf_counter() - started
    try:
        failures = workload.check(scenario, outcome)
    except Exception:
        failures = ["check raised " + traceback.format_exc(limit=3)]
    if first is not None and not same_outcome(outcome, first):
        failures.append("a repeat gave a different result")
    ledger.add(op_units(outcome), failures, label)
    return seconds, outcome


class Rounds:
    """A run's operations 0 .. ops-1, repeated in rounds.

    Every round runs the same operations, so every run does the same
    work. An operation's time is its fastest round (other tenants of a
    shared machine only ever slow an operation down). Outcomes, the
    run-level check and the peak memory come from the first round, a
    fixed amount of work, so none of them depends on how many rounds a
    faster machine fits in.
    """

    def __init__(self, workload, seed: int, ledger: Ledger) -> None:
        self.workload = workload
        self.ledger = ledger
        self.scenarios = [workload.scenario(seed, i) for i in range(workload.ops)]
        #: Seconds of each operation, one entry per round.
        self.seconds: List[List[float]] = [[] for _ in range(workload.ops)]
        self.outcomes: List[object] = [None] * workload.ops
        self.rounds = 0
        self.peak_kb = 0

    def run_round(self) -> None:
        for index, scenario in enumerate(self.scenarios):
            seconds, outcome = run_op(
                self.workload, scenario, index, self.ledger, self.outcomes[index]
            )
            self.seconds[index].append(seconds)
            if self.rounds == 0:
                self.outcomes[index] = outcome
        self.rounds += 1
        if self.rounds == 1:
            self.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            failures = self.workload.check_run(self.scenarios, self.outcomes)
            self.ledger.add(1, failures, "run")

    def run_for(self, seconds: float) -> None:
        """At least MIN_ROUNDS rounds; another only if it should end in time."""
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            self.run_round()
            now = time.perf_counter()
            if self.rounds >= MIN_ROUNDS and now + (now - began) > deadline:
                return

    @property
    def best(self) -> List[float]:
        return [min(seconds) for seconds in self.seconds]

    def done(self) -> List[tuple]:
        """(scenario, outcome, best seconds) of each operation that ran."""
        return [
            (scenario, outcome, seconds)
            for scenario, outcome, seconds in zip(
                self.scenarios, self.outcomes, self.best
            )
            if outcome is not None
        ]

    def outputs(self) -> Dict[str, float]:
        """Median of each simulated output over the operations."""
        rows = [self.workload.outputs(s, o) for s, o, _ in self.done()]
        if not rows:
            return {}
        return {key: statistics.median(row[key] for row in rows) for key in rows[0]}

    def end_to_end(self) -> Dict[str, float]:
        """``wall_s``: mean best time of an operation; ``keys_per_s`` on
        the same basis."""
        seconds = sum(self.best)
        keys = sum(self.workload.keys(sc, o) for sc, o, _ in self.done())
        return {"wall_s": seconds / len(self.best), "keys_per_s": keys / seconds}


def measure(name: str, seed: int, seconds: float) -> Dict[str, object]:
    workload, setup_s = set_up(name, seed)
    ledger = Ledger()
    rounds = Rounds(workload, seed, ledger)
    rounds.run_for(seconds)
    metrics = rounds.end_to_end()
    metrics["peak_rss_mb"] = rounds.peak_kb / 1024.0
    metrics["setup_s"] = setup_s
    return {
        "mode": "measure",
        "ops": workload.ops,
        "rounds": rounds.rounds,
        "op_seconds": rounds.seconds,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "messages": ledger.messages,
        "metrics": metrics,
        "outputs": rounds.outputs(),
        "machine": _machine(),
    }


def trace(name: str, seed: int, out: Optional[Path]) -> Dict[str, object]:
    import layers
    import tracer as spans

    workload, setup_s = set_up(name, seed)
    ledger = Ledger()
    untraced = Rounds(workload, seed, ledger)
    untraced.run_round()

    tracer = spans.Tracer()
    installed = spans.install(tracer)
    table = layers.LayerTable(workload, tracer, installed.layers)
    try:
        for index in range(workload.ops):
            if index and len(tracer) >= SPAN_BUDGET:
                break
            table.run(seed, index, ledger, untraced.outcomes[index])
    finally:
        installed.uninstall()
    table.finish()
    traced_ops = table.ops
    overhead = sum(table.seconds) / sum(untraced.best[:traced_ops])
    metrics = table.metrics(overhead)
    if out is not None:
        tracer.save(out)
    return {
        "mode": "trace",
        "ops": workload.ops,
        "traced_ops": traced_ops,
        "spans": len(tracer),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "messages": ledger.messages,
        "setup_s": setup_s,
        "metrics": metrics,
        "units": layers.PER_LAYER,
        "layer_self_s": table.layer_seconds(),
        "machine": _machine(),
    }


def _machine() -> Dict[str, object]:
    from machine import machine_reference

    return machine_reference()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _, setup_s = set_up(args.workload, args.seed)
        record: Dict[str, object] = {"mode": "setup", "setup_s": setup_s}
    elif args.mode == "measure":
        record = measure(args.workload, args.seed, args.seconds)
    else:
        record = trace(args.workload, args.seed, args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
