"""Spans around the public entry points of each module, and layer self time.

:func:`install` wraps the functions and methods named in
:data:`TARGETS` with span recorders. Nothing under ``src/`` changes:
the wrappers replace the class attributes and every module-global
alias of each function. Engine callbacks get spans from the public
``EngineProfiler`` hook (``Observability(profile=True)``): the
profiler is called after each callback with its start and duration,
and :class:`SpanProfiler` turns that into a span named after the
callback's category and its owning class.

A layer's self time is the duration of its spans minus the part their
child spans cover. Every span has exactly one parent (the root span of
a traced operation has none), so the layer self times, ``other``
included, add up to the root spans' total duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.observability import EngineProfiler
from repro.observability.profiler import callback_category

ROOT_SPAN = "bench.op"
CALLBACK_PREFIX = "cb:"
#: Counter of seconds spent in ``SpanProfiler.record`` itself.
RECORD_COST = "trace.record_s"

#: (module, qualified name, layer) of every traced entry point; the
#: qualified name is also the span name. Methods of ``ServerSim``
#: called on a ``DatabaseSim`` are named ``DatabaseSim.*`` and land in
#: the ``db`` layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simulation.engine", "Simulator.run", "engine"),
    ("repro.simulation.engine", "EventHandle.cancel", "engine"),
    ("repro.simulation.engine", "BatchHandle.cancel", "engine"),
    ("repro.simulation.system", "MemcachedSystemSimulator.__init__", "system.other"),
    ("repro.simulation.system", "MemcachedSystemSimulator.run", "system.other"),
    ("repro.simulation.server", "ServerSim.__init__", "server"),
    ("repro.simulation.server", "ServerSim.offer_batch", "server"),
    ("repro.simulation.server", "ServerSim.offer_key", "server"),
    ("repro.simulation.network", "NetworkSim.send", "network"),
    ("repro.distributions.rng", "RandomWindow.refill", "rng"),
    ("repro.simulation.metrics", "LatencyRecorder.record", "recorder"),
    ("repro.simulation.metrics", "LatencyRecorder.record_many", "recorder"),
    ("repro.observability.attribution", "AttributionSink.maybe_flush", "attr"),
    ("repro.observability.attribution", "AttributionSink.flush", "attr"),
    ("repro.observability.attribution", "AttributionSink.record_columns", "attr"),
    ("repro.observability.attribution", "AttributionSink.build", "attr"),
    ("repro.observability.timeline", "TimelineBuilder.build", "timeline"),
    ("repro.observability.timeline", "Timeline.from_events", "timeline"),
    ("repro.faults.schedule", "FaultSchedule.server_rate_factor", "faults"),
    ("repro.faults.schedule", "FaultSchedule.database_rate_factor", "faults"),
    ("repro.faults.schedule", "FaultSchedule.server_rate_factors", "faults"),
    ("repro.faults.schedule", "FaultSchedule.database_rate_factors", "faults"),
    ("repro.simulation.results", "SimulationResult.from_system", "results"),
    ("repro.simulation.results", "SimulationResult.from_system_sample", "results"),
    ("repro.simulation.fastpath_system", "simulate_system_requests", "fps"),
    ("repro.simulation.fastpath", "lindley_waits", "fps.lindley"),
    ("repro.capacity.search", "find_capacity", "capacity.search"),
    ("repro.capacity.search", "analytic_bracket", "capacity.bracket"),
    ("repro.capacity.objective", "CapacityObjective.measure", "capacity.objective"),
    ("repro.capacity.objective", "CapacityObjective.decide", "capacity.objective"),
    ("repro.queueing.cliff", "cliff_utilization", "queueing"),
    ("repro.queueing.cliff", "cliff_key_rate", "queueing"),
    ("repro.queueing.rootfind", "solve_gim1_root", "queueing"),
    ("repro.queueing.rootfind", "solve_gim1_root_cached", "queueing"),
    ("repro.experiments.scenario", "Scenario.run", "scenario"),
    ("repro.experiments.scenario", "Scenario.timeline", "scenario"),
    ("repro.experiments.scenario", "Scenario.replace", "scenario"),
    ("repro.experiments.scenario", "Scenario.simulate", "scenario"),
    ("repro.experiments.scenario", "Scenario.fastpath_system", "scenario"),
)

#: Engine callback categories (``callback_category``) by layer. A
#: callback owned by a ``DatabaseSim`` goes to ``db`` whatever its
#: category; categories not listed go to ``other``.
CALLBACK_LAYERS: Dict[str, str] = {
    "MemcachedSystemSimulator._spawn_request": "system.arrivals",
    "MemcachedSystemSimulator._dispatch_batch.deliver": "system.arrivals",
    "MemcachedSystemSimulator._finish_key.delivered": "system.join",
    "ServerSim._start_next": "server",
    "ServerSim._resume_from_pause": "server",
    "MemcachedSystemSimulator._arm_timers": "policy",
    "MemcachedSystemSimulator._fire_hedge": "policy",
    "MemcachedSystemSimulator._fire_timeout": "policy",
}

#: Every layer a span can be charged to.
LAYERS = tuple(
    dict.fromkeys(
        [layer for _, _, layer in TARGETS]
        + list(CALLBACK_LAYERS.values())
        + ["db", "trace", "other"]
    )
)


class Tracer:
    """Spans kept in memory as typed arrays, written out at the end.

    Each span has a name, start, end, parent span (-1 for a root) and
    the id of the operation (run) it belongs to.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        #: Per-operation values that spans do not carry (keys offered,
        #: fast-path keys, profiler cost) and the instances the layer
        #: table reads.
        self.counts: Dict[str, float] = {}
        self.servers: List[object] = []
        self.jobs: List[object] = []
        self.simulators: List[object] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def add_closed(self, nid: int, start: float, end: float) -> None:
        """Record a span measured elsewhere, under the open span."""
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def run_counts(self) -> Dict[str, int]:
        """Spans of the current operation, counted by name."""
        run = np.frombuffer(self.run, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        counts = np.bincount(name[run == self.run_id], minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts) if c}

    def begin_operation(self) -> int:
        """Start a new traced operation; returns its root span id."""
        self.run_id += 1
        self.counts = {}
        self.servers = []
        self.jobs = []
        self.simulators = []
        return self.open(self.name_id(ROOT_SPAN))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


class SpanProfiler(EngineProfiler):
    """An ``EngineProfiler`` that also records each callback as a span.

    The span is named ``cb:<Owner>:<category>``, where ``Owner`` is the
    class of the object the callback belongs to (the bound method's
    ``self``, or the ``self`` a lambda closes over), so a ``DatabaseSim``
    completion is told apart from a ``ServerSim`` one even though both
    share the ``ServerSim._start_next`` category.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._names: Dict[Tuple[object, type], int] = {}

    def record(self, callback, wall_seconds, *, started_at, pending) -> None:
        entered = time.perf_counter()
        super().record(
            callback, wall_seconds, started_at=started_at, pending=pending
        )
        owner = _owner(callback)
        func = getattr(callback, "__func__", callback)
        key = (getattr(func, "__code__", func), type(owner))
        nid = self._names.get(key)
        if nid is None:
            owner_name = type(owner).__name__ if owner is not None else "?"
            nid = self._names[key] = self._tracer.name_id(
                f"{CALLBACK_PREFIX}{owner_name}:{callback_category(callback)}"
            )
        tracer = self._tracer
        tracer.add_closed(nid, started_at, started_at + wall_seconds)
        # The profiler's own bookkeeping runs inside Simulator.run but is
        # tracing cost, not engine work: it is moved to the trace layer.
        tracer.count(RECORD_COST, time.perf_counter() - entered)


def _owner(callback) -> Optional[object]:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return owner
    code = getattr(callback, "__code__", None)
    if code is not None and "self" in code.co_freevars:
        return callback.__closure__[code.co_freevars.index("self")].cell_contents
    return None


# ----------------------------------------------------------------------
# Installing the wrappers.
# ----------------------------------------------------------------------


def _span(tracer: Tracer, fn: Callable, name: str, db_name: Optional[str] = None):
    nid = tracer.name_id(name)
    db_nid = tracer.name_id(db_name) if db_name else None
    counted = _COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_nid = nid
        if db_nid is not None and type(args[0]).__name__ == "DatabaseSim":
            span_nid = db_nid
        sid = tracer.open(span_nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counted is not None:
            counted(tracer, tracer.names[span_nid], args, kwargs, result)
        return result

    return wrapper


def _count_offer(tracer, name, args, kwargs, result) -> None:
    # offer_key goes through offer_batch, so only batches are counted.
    owner = name.split(".", 1)[0]
    tracer.count(f"{owner}.keys", len(result))
    tracer.jobs.extend((owner, job) for job in result)


def _count_server(tracer, name, args, kwargs, result) -> None:
    tracer.servers.append(args[0])


def _count_simulator(tracer, name, args, kwargs, result) -> None:
    tracer.simulators.append(args[0])


def _count_fps(tracer, name, args, kwargs, result) -> None:
    requests = kwargs["n_requests"] + kwargs.get("warmup_requests", 0)
    tracer.count("fps.keys", requests * kwargs["n_keys"])


_COUNTERS = {
    "ServerSim.offer_batch": _count_offer,
    "DatabaseSim.offer_batch": _count_offer,
    "ServerSim.__init__": _count_server,
    "DatabaseSim.__init__": _count_server,
    "Simulator.run": _count_simulator,
    "simulate_system_requests": _count_fps,
}


class Installed:
    """The installed wrappers: span name -> layer, and how to undo them."""

    def __init__(self) -> None:
        self.layers: Dict[str, str] = {ROOT_SPAN: "other"}
        self._undo: List[Tuple[dict, str, object]] = []

    def set(self, namespace: dict, key: str, value: object) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def setattr(self, owner: type, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


def _replace_everywhere(
    installed: Installed, original: Callable, replacement: Callable
) -> None:
    """Point every ``repro`` module-global alias of ``original`` at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                installed.set(namespace, attr, replacement)


def install(tracer: Tracer) -> Installed:
    """Wrap every target with span recorders (undo with ``uninstall()``)."""
    import importlib

    installed = Installed()
    for module_name, qualname, layer in TARGETS:
        module = importlib.import_module(module_name)
        installed.layers[qualname] = layer
        if qualname == "RandomWindow.refill":
            _wrap_random_window(installed, tracer, module.RandomWindow, qualname)
            continue
        if "." not in qualname:
            original = getattr(module, qualname)
            _replace_everywhere(
                installed, original, _span(tracer, original, qualname)
            )
            continue
        owner_name, attr = qualname.split(".")
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        db_name = None
        if owner_name == "ServerSim":
            db_name = f"DatabaseSim.{attr}"
            installed.layers[db_name] = "db"
        if isinstance(raw, classmethod):
            wrapped = classmethod(_span(tracer, raw.__func__, qualname))
            installed.setattr(owner, attr, wrapped)
            continue
        wrapped = _span(tracer, raw, qualname, db_name)
        installed.setattr(owner, attr, wrapped)
        if owner_name == "Scenario":
            # Scenario.run dispatches through its own table of methods.
            for key, value in owner._DISPATCH.items():
                if value is raw:
                    installed.set(owner._DISPATCH, key, wrapped)
    return installed


def _wrap_random_window(
    installed: Installed, tracer: Tracer, cls: type, name: str
) -> None:
    """Time each window refill: the draw function handed to the constructor."""
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, fn, size=None):
        original_init(self, _span(tracer, fn, name), size)

    installed.setattr(cls, "__init__", __init__)


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------


def attach_callback_spans(tracer: Tracer) -> None:
    """Reparent spans opened inside an engine callback onto its span.

    A callback's span is recorded after it returns, so spans opened
    during the callback were parented on the enclosing ``Simulator.run``
    span. Every callback span gets the spans recorded since the previous
    callback span that share its parent and start inside it.
    """
    prefix_ids = {
        nid for nid, name in enumerate(tracer.names)
        if name.startswith(CALLBACK_PREFIX)
    }
    names = tracer.name
    start = tracer.start
    parent = tracer.parent
    mark = 0
    for sid in range(len(start)):
        if names[sid] not in prefix_ids:
            continue
        cb_parent = parent[sid]
        cb_start = start[sid]
        for child in range(mark, sid):
            if parent[child] == cb_parent and start[child] >= cb_start:
                parent[child] = sid
        mark = sid + 1


def layer_of(name: str, layers: Dict[str, str]) -> str:
    if name.startswith(CALLBACK_PREFIX):
        owner, _, category = name[len(CALLBACK_PREFIX):].partition(":")
        if owner == "DatabaseSim":
            return "db"
        return CALLBACK_LAYERS.get(category, "other")
    return layers.get(name, "other")


def self_times(tracer: Tracer, layers: Dict[str, str]):
    """(self seconds per layer, total seconds of the root spans)."""
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    duration = end - start
    child = np.zeros(len(duration))
    inner = parent >= 0
    np.add.at(child, parent[inner], duration[inner])
    own = duration - child
    per_name = np.bincount(name, weights=own, minlength=len(tracer.names))
    totals = {layer: 0.0 for layer in LAYERS}
    for nid, seconds in enumerate(per_name):
        layer = layer_of(tracer.names[nid], layers)
        totals[layer] = totals.get(layer, 0.0) + float(seconds)
    root = float(duration[~inner].sum())
    return totals, root
