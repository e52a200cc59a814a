"""Span recorder for the traced run: wraps public seams of ``repro`` layers.

The untraced run never imports this module's wrappers into the program:
:func:`traced` patches the seams listed in :data:`SEAMS` for the traced
round only and puts the original attributes back when it exits.

Every wrapped call opens a span ``(name, start, end, parent)`` on a
per-thread stack, timed in CPU seconds of its thread (``thread_time``),
which leaves out time stolen from this virtual machine.  When it closes, its duration is added to its parent's
child time, so each seam's *self time* is its duration minus the time
covered by the traced spans it called.  Self times therefore add up: the
layers' self times together never exceed the traced wall time.

Coarse seams (a few thousand calls per round: ``run_until``, ``execute``,
``flush``, checkpoint saves, ...) keep every span in memory and are
written out with :meth:`SpanRecorder.write` when the run ends.  Hot
seams fire once per message reception or battery draw -- several million
times per round -- so keeping each span would take hundreds of MB; they
are timed with the same stack discipline (their time is still taken out
of their parent's self time) but only their per-seam totals are kept.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter, thread_time
from typing import Any, Callable, Iterator, Optional

__all__ = ["SEAMS", "SpanRecorder", "traced", "wrapped_seams"]

#: ``(span name, "module:Owner" or "module", attribute, keep spans)``.
#: The span name's first component is the layer (a ``repro`` package).
SEAMS: tuple[tuple[str, str, str, bool], ...] = (
    ("simulation.run_until", "repro.simulation.engine:Simulator", "run_until", True),
    ("network.broadcast", "repro.network.radio:Radio", "broadcast", False),
    ("network.unicast", "repro.network.radio:Radio", "unicast", False),
    ("network.deliver", "repro.network.node:NetworkNode", "deliver", False),
    ("energy.draw", "repro.energy.battery:Battery", "draw", False),
    ("energy.charge_cpu", "repro.network.radio:Radio", "charge_cpu", False),
    # The handler every ProtocolNode attaches to its device at construction.
    ("core.handler", "repro.core.protocol:ProtocolNode", "_on_message", False),
    ("core.router_flush", "repro.core.round_batch:BatchedObservationRouter", "flush", True),
    ("core.start_round", "repro.core.election:ElectionCoordinator", "start_round", True),
    ("models.observe_lanes", "repro.models.soa:ModelAwareCacheFleet", "observe_lanes", True),
    ("models.observe", "repro.models.cache_manager:ModelAwareCache", "observe", False),
    ("models.estimate", "repro.models.estimator:NeighborModelStore", "estimate", False),
    ("models.can_represent", "repro.models.estimator:NeighborModelStore", "can_represent", False),
    ("query.execute", "repro.query.executor:QueryExecutor", "execute", True),
    ("query.build_tree", "repro.query.executor:QueryExecutor", "build_tree", True),
    ("query.plan", "repro.query.planner:QueryPlanner", "plan", True),
    ("query.estimate_cost", "repro.query.planner:QueryPlanner", "estimate_cost", True),
    ("serving.submit", "repro.serving.frontend:QueryFrontEnd", "submit", True),
    ("serving.cache_get", "repro.serving.cache:EpochResultCache", "get", True),
    ("serving.cache_put", "repro.serving.cache:EpochResultCache", "put", True),
    ("persist.ring_save", "repro.persist.ring:CheckpointRing", "save", True),
    # save/load/digest are module functions imported by name, so each
    # importing module's binding is wrapped.
    ("persist.save_checkpoint", "repro.persist.ring", "save_checkpoint", True),
    ("persist.save_checkpoint", "repro.fleet.runner", "save_checkpoint", True),
    ("persist.load_checkpoint", "repro.persist.ring", "load_checkpoint", True),
    ("persist.load_checkpoint", "repro.fleet.runner", "load_checkpoint", True),
    ("persist.load_checkpoint", "repro.persist.checkpoint", "load_checkpoint", True),
    ("persist.state_digest", "repro.persist.checkpoint", "state_digest", True),
    ("obs.append", "repro.obs.stream:JsonlRing", "append", True),
    ("obs.report", "repro.obs.report:RunReport", "capture", True),
    ("fleet.run_slice", "repro.fleet.runner:FleetRunner", "run_slice", True),
    ("fleet.step", "repro.fleet.runner:FleetState", "step", True),
    ("fleet.slo", "repro.fleet.slo:SLOMonitor", "evaluate", True),
    ("data.value", "repro.data.series:Dataset", "value", False),
    ("data.generate", "repro.data.random_walk", "generate_random_walk", True),
    ("data.generate", "repro.data.weather", "generate_weather", True),
)


class SpanRecorder:
    """In-memory spans, per-seam totals and derived self times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Kept spans, one entry per span in parallel arrays.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        #: Extra per-seam tallies (observations routed, lanes observed).
        self.tally: Counter[str] = Counter()
        #: Wall-clock milliseconds each queued request waited between its
        #: planning in ``submit`` and the dispatcher picking it up.
        self.dispatch_waits: list[float] = []
        self._queued_at: Optional[float] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, keep: bool, function: Callable) -> Callable:
        """``function`` timed as span ``name``."""
        name_id = self._name_id(name)
        recorder = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            # frame: [child time, kept index of this span or its nearest kept ancestor]
            parent_kept = stack[-1][1] if stack else -1
            frame = [0.0, parent_kept]
            if keep:
                with recorder._lock:
                    frame[1] = len(recorder.span_name)
                    recorder.span_name.append(name_id)
                    recorder.span_start.append(0.0)
                    recorder.span_end.append(0.0)
                    recorder.span_parent.append(parent_kept)
            stack.append(frame)
            start = thread_time()
            try:
                return function(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with recorder._lock:
                    recorder.counts[name] += 1
                    recorder.total[name] += duration
                    recorder.self_time[name] += duration - frame[0]
                    if keep:
                        recorder.span_start[frame[1]] = start
                        recorder.span_end[frame[1]] = end

        return timed

    # -- derived numbers ---------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.counts.get(name, 0) for name in names)

    def write(self, path) -> None:
        """Write the kept spans and per-seam totals as one JSON document."""
        document = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "parent": list(self.span_parent),
            },
            "seams": {
                name: {
                    "count": self.counts[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.counts)
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ----------------------------------------------------------------------
# installing and removing the wrappers
# ----------------------------------------------------------------------

def _owner(spec: str) -> Any:
    module_name, _, owner_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, owner_name) if owner_name else module


def _extra_hooks(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    """Seam-specific tallies layered under the timing wrapper."""
    if name == "core.router_flush":

        @functools.wraps(function)
        def flush(self, *args, **kwargs):
            recorder.tally["core.observations_routed"] += sum(
                1 for entry in self.pending if entry[0] is not None
            )
            return function(self, *args, **kwargs)

        return flush
    if name == "models.observe_lanes":

        @functools.wraps(function)
        def observe_lanes(self, cache_ids, *args, **kwargs):
            recorder.tally["models.lanes_observed"] += len(cache_ids)
            return function(self, cache_ids, *args, **kwargs)

        return observe_lanes
    if name == "query.estimate_cost":

        @functools.wraps(function)
        def estimate_cost(self, *args, **kwargs):
            estimate = function(self, *args, **kwargs)
            # The last step of a front-end miss before it is queued.
            recorder._queued_at = perf_counter()
            return estimate

        return estimate_cost
    if name == "serving.cache_get":

        @functools.wraps(function)
        def get(self, *args, **kwargs):
            queued = recorder._queued_at
            if queued is not None and threading.current_thread() is not threading.main_thread():
                # One request in flight: the dispatcher's first probe
                # belongs to the request the client just queued.
                recorder.dispatch_waits.append((perf_counter() - queued) * 1e3)
                recorder._queued_at = None
            return function(self, *args, **kwargs)

        return get
    return function


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every seam in :data:`SEAMS` for the body of the ``with``.

    The original attributes are put back on exit, also on error.
    """
    patched: list[tuple[Any, str, Any]] = []
    try:
        for name, spec, attribute, keep in SEAMS:
            owner = _owner(spec)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                function = raw.__func__
                replacement = classmethod(
                    recorder.wrap(name, keep, _extra_hooks(recorder, name, function))
                )
            else:
                replacement = recorder.wrap(name, keep, _extra_hooks(recorder, name, raw))
            patched.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(patched):
            setattr(owner, attribute, raw)


def wrapped_seams() -> list[str]:
    """Seams currently carrying a wrapper (empty outside :func:`traced`)."""
    found = []
    for name, spec, attribute, _ in SEAMS:
        raw = inspect.getattr_static(_owner(spec), attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(function, "__wrapped__"):
            found.append(f"{spec}.{attribute}")
    return found
