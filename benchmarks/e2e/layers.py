"""Outside-in per-layer timing for the ``--trace`` pass.

:class:`LayerTracer` swaps a timing wrapper in for the public functions of
each ``repro`` layer, at the module or class where callers look the name
up (the runner imports ``random_backbone``, ``random_multicast_tree`` and
``evaluate_health`` by name, so those are patched on the runner), and
puts every original back on exit.  Nothing in ``src/repro`` changes and
no ``REPRO_*`` switch is read.  The obs profiler is not used: enabling it
disarms fast dissemination, so its timings would describe the scalar
path.  The wrappers leave every gating decision alone, and the benchmark
checks that traced and untraced result digests agree.

Each wrapped name reports ``calls``, ``s`` (inclusive wall time; nested
calls of the same name count once) and ``self_s`` (inclusive time minus
the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref

from repro.core.plan_repair import IncrementalPlanRepairer
from repro.core.planner import RPPlanner
from repro.experiments import runner
from repro.net.routing import (
    ExactDistanceBackend,
    LandmarkDistanceBackend,
    RoutingTable,
)
from repro.obs.timeseries import TimeSeriesCollector
from repro.protocols.rma import RMAClientAgent, RMASourceAgent
from repro.protocols.rp import RPClientAgent, RPSourceAgent
from repro.protocols.srm import SRMClientAgent, SRMSourceAgent
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork

_MISSING = object()

#: (owner, attribute, layer name) for every wrapped call site.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (runner, "random_backbone", "net.generators.random_backbone"),
    (runner, "random_multicast_tree", "net.mcast_tree.random_multicast_tree"),
    (RoutingTable, "__init__", "net.routing.init"),
    (ExactDistanceBackend, "distances_from", "net.routing.distances_from"),
    (LandmarkDistanceBackend, "distances_from", "net.routing.distances_from"),
    (ExactDistanceBackend, "path", "net.routing.path"),
    (LandmarkDistanceBackend, "path", "net.routing.path"),
    (RPPlanner, "plan_all", "core.planner.plan_all"),
    (RPPlanner, "plan", "core.planner.plan"),
    (IncrementalPlanRepairer, "repair", "core.plan_repair.repair"),
    (EventQueue, "run", "sim.engine.run"),
    (SimNetwork, "enable_fast_dissem", "sim.network.enable_fast_dissem"),
    (SimNetwork, "send_unicast", "sim.network.send_unicast"),
    (SimNetwork, "multicast_subtree", "sim.network.multicast_subtree"),
    (SimNetwork, "flood_tree", "sim.network.flood_tree"),
    (RPClientAgent, "on_packet", "protocols.RP.on_packet"),
    (RPSourceAgent, "on_packet", "protocols.RP.on_packet"),
    (SRMClientAgent, "on_packet", "protocols.SRM.on_packet"),
    (SRMSourceAgent, "on_packet", "protocols.SRM.on_packet"),
    (RMAClientAgent, "on_packet", "protocols.RMA.on_packet"),
    (RMASourceAgent, "on_packet", "protocols.RMA.on_packet"),
    (TimeSeriesCollector, "finalize", "obs.timeseries.finalize"),
    (runner, "evaluate_health", "obs.health.evaluate_health"),
)


class LayerTracer:
    """Context manager that installs the wrappers and collects their
    calls, inclusive and self time."""

    def __init__(self):
        #: layer name -> [calls, inclusive s, self s, active depth]
        self.records: dict[str, list] = {}
        #: ``enable_fast_dissem`` results, one per call.
        self.fast_armed: list[bool] = []
        #: Heap compactions summed over every event queue that ran.
        self.compactions = 0
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []
        self._queue = None
        self._queue_compactions = 0

    def __enter__(self) -> "LayerTracer":
        observers = {
            "sim.engine.run": self._note_queue,
            "sim.network.enable_fast_dissem": self._note_armed,
        }
        try:
            for owner, attr, name in TARGETS:
                wrapper = self._wrap(name, getattr(owner, attr), observers.get(name))
                self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back (inherited methods are un-shadowed)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, name, fn, observe=None):
        record = self.records.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            record[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[2] += elapsed - inner
                record[3] -= 1
                if not record[3]:
                    record[1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return timed

    def _note_queue(self, args, result) -> None:
        # A session runs its queue twice (to completion, then the drain);
        # count each queue's compactions once, without keeping it alive.
        queue = args[0]
        same = self._queue is not None and self._queue() is queue
        self.compactions += queue.compactions - (
            self._queue_compactions if same else 0
        )
        self._queue = weakref.ref(queue)
        self._queue_compactions = queue.compactions

    def _note_armed(self, args, result) -> None:
        self.fast_armed.append(bool(result))

    def layer(self, name: str) -> tuple[int, float, float]:
        """``(calls, inclusive s, self s)`` of one layer name."""
        calls, total, self_s, _ = self.records.get(name, (0, 0.0, 0.0, 0))
        return calls, total, max(0.0, self_s)


#: The per-layer metrics, printed for every workload (units and
#: directions are in BENCHMARK.json; README.md says which end-to-end
#: metric each should move, and where).  Times are listed only for
#: layers every workload runs, so none reads a constant 0; layers only
#: some workloads reach report their call counts, and the human-readable
#: trace output shows all of their times.
LAYER_METRICS: tuple[str, ...] = (
    "net.generators.random_backbone.s",
    "net.mcast_tree.random_multicast_tree.s",
    "net.routing.init.s",
    "net.routing.distances_from.calls",
    "net.routing.distances_from.self_s",
    "net.routing.path.calls",
    "net.routing.path.self_s",
    "net.routing.row_evictions",
    "core.planner.plan_all.calls",
    "core.planner.plan_all.self_s",
    "core.planner.plan.calls",
    "core.plan_cache.hits",
    "core.plan_cache.misses",
    "core.plan_repair.repair.calls",
    "sim.engine.events",
    "sim.engine.compactions",
    "sim.engine.run.self_s",
    "sim.network.fast_armed",
    "sim.network.send_unicast.calls",
    "sim.network.send_unicast.self_s",
    "sim.network.multicast_subtree.calls",
    "sim.network.multicast_subtree.self_s",
    "sim.network.flood_tree.calls",
    "protocols.on_packet.self_s",
    "protocols.RP.on_packet.calls",
    "protocols.SRM.on_packet.calls",
    "protocols.RMA.on_packet.calls",
    "protocols.recovered_frac",
    "protocols.abandoned",
    "sim.faults.injections",
    "sim.membership.events",
    "metrics.ledger.recovery_hops",
    "metrics.ledger.data_hops",
    "obs.timeseries.finalize.calls",
    "obs.health.evaluate_health.calls",
    "obs.health.stall_violations",
    "bench.trace_overhead",
)

PROTOCOLS = ("RP", "SRM", "RMA")


def layer_values(tracer: LayerTracer, rep) -> dict[str, float]:
    """One traced repetition's per-layer numbers (all but the overhead)."""
    values: dict[str, float] = {}
    for name in {target[2] for target in TARGETS}:
        calls, total, self_s = tracer.layer(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = self_s
    sessions = rep.sessions
    detected = sum(s.detected for s in sessions)
    values.update({
        "protocols.on_packet.self_s": sum(
            values[f"protocols.{p}.on_packet.self_s"] for p in PROTOCOLS
        ),
        "net.routing.row_evictions": rep.row_evictions,
        "core.plan_cache.hits": rep.plan_cache["hits"],
        "core.plan_cache.misses": rep.plan_cache["misses"],
        "sim.engine.events": sum(s.events for s in sessions),
        "sim.engine.compactions": tracer.compactions,
        "sim.network.fast_armed": sum(tracer.fast_armed) / len(sessions),
        "protocols.recovered_frac": (
            sum(s.recovered for s in sessions) / detected if detected else 1.0
        ),
        "protocols.abandoned": sum(s.abandoned for s in sessions),
        "sim.faults.injections": sum(s.fault_injections for s in sessions),
        "sim.membership.events": sum(s.member_events for s in sessions),
        "metrics.ledger.recovery_hops": sum(s.recovery_hops for s in sessions),
        "metrics.ledger.data_hops": sum(s.data_hops for s in sessions),
        "obs.health.stall_violations": sum(s.stall_violations for s in sessions),
    })
    return values


def layer_metrics(traced: list, untraced: list) -> tuple[dict, dict]:
    """Medians over the traced repetitions (the lower middle value, so a
    count stays a count).

    ``traced`` holds ``(tracer, repetition)`` pairs; ``untraced`` the
    plain repetitions ``bench.trace_overhead`` compares them with.
    Returns the :data:`LAYER_METRICS` values and, for the human-readable
    breakdown, ``calls``/``s``/``self_s`` of every wrapped layer.
    """
    per_rep = [layer_values(tracer, rep) for tracer, rep in traced]
    medians = {
        name: statistics.median_low(values[name] for values in per_rep)
        for name in per_rep[0]
    }
    medians["bench.trace_overhead"] = statistics.median(
        rep.wall_s for _, rep in traced
    ) / statistics.median(rep.wall_s for rep in untraced)
    table = {
        name: {k: medians[f"{name}.{k}"] for k in ("calls", "s", "self_s")}
        for name in sorted({target[2] for target in TARGETS})
    }
    return {name: medians[name] for name in LAYER_METRICS}, table
