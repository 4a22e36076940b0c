"""The per-layer table of a traced run.

:class:`LayerTable` runs traced operations (spans from
:mod:`tracer`), then turns spans, counters and the operations' own
results into the per-layer metrics listed in :data:`PER_LAYER`. Counts
and seconds are per operation; ``*_s`` metrics are layer self times.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

import tracer as spans
from workloads import op_units, probe_requests, same_outcome

#: Per-layer metric -> unit, in the order the table prints.
PER_LAYER: Dict[str, str] = {
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.self_s": "s",
    "engine.cancels": "count",
    "system.arrivals_s": "s",
    "system.join_s": "s",
    "system.run_s": "s",
    "system.requests": "count",
    "system.keys": "count",
    "server.keys_offered": "count",
    "server.keys_done": "count",
    "server.host_s": "s",
    "server.util": "ratio",
    "server.wait_us": "us",
    "db.keys": "count",
    "db.host_s": "s",
    "db.util": "ratio",
    "db.wait_us": "us",
    "network.sends": "count",
    "network.host_s": "s",
    "rng.refills": "count",
    "rng.host_s": "s",
    "recorder.records": "count",
    "recorder.host_s": "s",
    "attr.rows": "count",
    "attr.flush_s": "s",
    "timeline.build_s": "s",
    "policy.attempts_per_key": "ratio",
    "policy.host_s": "s",
    "faults.queries": "count",
    "faults.host_s": "s",
    "results.build_s": "s",
    "fps.calls": "count",
    "fps.keys": "count",
    "fps.host_s": "s",
    "fps.lindley_s": "s",
    "capacity.probes": "count",
    "capacity.escalations": "count",
    "capacity.decisive_ratio": "ratio",
    "capacity.probe_requests": "count",
    "capacity.search_s": "s",
    "capacity.objective_s": "s",
    "capacity.bracket_s": "s",
    "queueing.root_hits": "count",
    "queueing.root_misses": "count",
    "queueing.host_s": "s",
    "scenario.run_calls": "count",
    "scenario.dispatch_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.other_share": "ratio",
}

#: Self-time metric -> the tracer layer it reads.
SELF_TIME = {
    "engine.self_s": "engine",
    "system.arrivals_s": "system.arrivals",
    "system.join_s": "system.join",
    "system.run_s": "system.other",
    "server.host_s": "server",
    "db.host_s": "db",
    "network.host_s": "network",
    "rng.host_s": "rng",
    "recorder.host_s": "recorder",
    "attr.flush_s": "attr",
    "timeline.build_s": "timeline",
    "policy.host_s": "policy",
    "faults.host_s": "faults",
    "results.build_s": "results",
    "fps.host_s": "fps",
    "fps.lindley_s": "fps.lindley",
    "capacity.search_s": "capacity.search",
    "capacity.objective_s": "capacity.objective",
    "capacity.bracket_s": "capacity.bracket",
    "queueing.host_s": "queueing",
    "scenario.dispatch_s": "scenario",
}

#: Count metric -> the spans it counts (calls of those entry points).
COUNTED = {
    "engine.cancels": ("EventHandle.cancel", "BatchHandle.cancel"),
    "network.sends": ("NetworkSim.send",),
    "rng.refills": ("RandomWindow.refill",),
    "recorder.records": ("LatencyRecorder.record", "LatencyRecorder.record_many"),
    "faults.queries": (
        "FaultSchedule.server_rate_factor",
        "FaultSchedule.database_rate_factor",
        "FaultSchedule.server_rate_factors",
        "FaultSchedule.database_rate_factors",
    ),
    "fps.calls": ("simulate_system_requests",),
    "scenario.run_calls": ("Scenario.run",),
}

#: Count metric -> the tracer counter it reads (values spans do not carry).
COUNTERS = {
    "server.keys_offered": "ServerSim.keys",
    "db.keys": "DatabaseSim.keys",
    "fps.keys": "fps.keys",
}

SPAWN_CALLBACK = (
    "cb:MemcachedSystemSimulator:MemcachedSystemSimulator._spawn_request"
)


class LayerTable:
    """Runs traced operations and accumulates their layer metrics."""

    def __init__(self, workload, tracer: spans.Tracer, layers: Dict[str, str]) -> None:
        self.workload = workload
        self.tracer = tracer
        self.layers = layers
        self.seconds: List[float] = []
        self.sums: Dict[str, float] = {}

    @property
    def ops(self) -> int:
        return len(self.seconds)

    def _add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def run(self, seed: int, index: int, ledger, untraced) -> None:
        """Trace operation ``index``; ``untraced`` is its untraced result."""
        from repro.observability import Observability
        from repro.queueing.rootfind import gim1_root_cache_info

        workload = self.workload
        tracer = self.tracer
        scenario = workload.scenario(seed, index)
        observability = None
        if workload.engine:
            observability = Observability(trace=False, metrics=False, profile=True)
            observability.profiler = spans.SpanProfiler(tracer)
            gc.collect()
        cache = gim1_root_cache_info()
        root = tracer.begin_operation()
        started = time.perf_counter()
        try:
            outcome = workload.run(scenario, observability)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = None
            failures = [f"traced run raised {exc!r}"]
        finally:
            tracer.close(root)
        self.seconds.append(time.perf_counter() - started)
        after = gim1_root_cache_info()
        self._add("queueing.root_hits", after["hits"] - cache["hits"])
        self._add("queueing.root_misses", after["misses"] - cache["misses"])
        if outcome is not None:
            try:
                failures = workload.check(scenario, outcome)
            except Exception as exc:  # a crashing check is a failed check
                failures = [f"check raised {exc!r}"]
            if untraced is not None and not same_outcome(outcome, untraced):
                failures.append("tracing changed the result")
            self._collect(outcome)
        ledger.add(op_units(outcome), failures, f"traced op {index}")

    def _collect(self, outcome) -> None:
        """Fold one traced operation's counters and results into the sums."""
        tracer = self.tracer
        self._add(spans.RECORD_COST, tracer.counts.get(spans.RECORD_COST, 0.0))
        counts = tracer.run_counts()
        for metric, names in COUNTED.items():
            self._add(metric, sum(counts.get(name, 0) for name in names))
        self._add("engine.events", sum(
            n for name, n in counts.items() if name.startswith(spans.CALLBACK_PREFIX)
        ))
        for metric, key in COUNTERS.items():
            self._add(metric, tracer.counts.get(key, 0))
        for server in tracer.servers:
            layer = "db" if type(server).__name__ == "DatabaseSim" else "server"
            self._add(f"{layer}.keys_done", server.completed)
            if layer == "db":
                now = tracer.simulators[-1].now
                self._add("db.util", server.utilization_meter.utilization(now))
        for owner, job in tracer.jobs:
            if job.start_time is not None:
                layer = "db" if owner == "DatabaseSim" else "server"
                self._add(f"{layer}.wait_sum", job.wait)
                self._add(f"{layer}.wait_n", 1)
        if self.workload.engine:
            utils = outcome.server_utilizations
            self._add("server.util", float(np.mean(utils)) if utils else 0.0)
            attribution = outcome.attribution
            self._add("attr.rows", attribution.count if attribution is not None else 0)
            self._add("n_keys", outcome.n_keys)
        else:
            probes = outcome.probes
            self._add("capacity.probes", len(probes))
            self._add("decisive", sum(p.decisive for p in probes))
            self._add("capacity.escalations", sum(p.escalations for p in probes))
            self._add("capacity.probe_requests", probe_requests(outcome))

    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Attach callback children and compute layer self times.

        The profiler's own bookkeeping is timed inside the engine's
        spans; it moves from ``engine`` to the ``trace`` layer.
        """
        spans.attach_callback_spans(self.tracer)
        self.totals, self.root = spans.self_times(self.tracer, self.layers)
        cost = self.sums.get(spans.RECORD_COST, 0.0)
        self.totals["engine"] -= cost
        self.totals["trace"] += cost

    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per layer and of the root spans, per operation."""
        out = {layer: seconds / self.ops for layer, seconds in self.totals.items()}
        out["root"] = self.root / self.ops
        return out

    def _spans_named(self, name: str):
        """(count, total seconds) of the spans called ``name``."""
        if name not in self.tracer.names:
            return 0, 0.0
        names = np.frombuffer(self.tracer.name, dtype=np.int32)
        mask = names == self.tracer.names.index(name)
        start = np.frombuffer(self.tracer.start, dtype=np.float64)[mask]
        end = np.frombuffer(self.tracer.end, dtype=np.float64)[mask]
        return int(mask.sum()), float((end - start).sum())

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric, per traced operation."""
        ops = self.ops
        sums = self.sums
        out = {name: sums.get(name, 0.0) / ops for name in PER_LAYER}
        for metric, layer in SELF_TIME.items():
            out[metric] = self.totals[layer] / ops
        _, run_seconds = self._spans_named("Simulator.run")
        events = sums.get("engine.events", 0.0)
        out["engine.events_per_s"] = events / run_seconds if run_seconds else 0.0
        spawned, _ = self._spans_named(SPAWN_CALLBACK)
        requests = spawned / ops
        out["system.requests"] = requests
        out["system.keys"] = requests * sums.get("n_keys", 0.0) / ops
        for layer in ("server", "db"):
            n = sums.get(f"{layer}.wait_n", 0.0)
            out[f"{layer}.wait_us"] = sums.get(f"{layer}.wait_sum", 0.0) / n * 1e6 if n else 0.0
        needed = out["system.keys"]
        out["policy.attempts_per_key"] = (
            out["server.keys_offered"] / needed if needed else 1.0
        )
        probes = sums.get("capacity.probes", 0.0)
        out["capacity.decisive_ratio"] = sums.get("decisive", 0.0) / probes if probes else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.other_share"] = self.totals["other"] / self.root
        return out
