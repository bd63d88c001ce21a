"""The figure-sweep runner.

A figure sweep is an embarrassingly parallel grid — every
``(config point, seed, protocol)`` triple is one independent simulation,
because each run derives *all* of its randomness from
``RngStreams(config.seed)`` named streams (topology, tree, per-protocol
loss and timers) and shares nothing mutable with its siblings.
:func:`repro.experiments.figures.run_client_sweep` and
:func:`~repro.experiments.figures.run_loss_sweep` list their grid as
self-describing :class:`SweepUnit` work units and hand them to
:func:`run_units`, the one runner every figure sweep goes through.
``jobs`` sets nothing but its worker count: ``jobs == 1`` runs the units
in the calling process (no fork, no pickling), ``jobs > 1`` on a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Results come back
keyed by unit index, so a sweep is **bit-identical** at every ``jobs``
(enforced by the fixed-seed equivalence tests).

Each process keeps a small LRU of built scenarios keyed by
``(seed, topology knobs)``: the three protocols of one seed reuse one
built topology/tree/routing whenever they run in the same process.  The
calling process empties its LRU when the run ends.

Failure policy, the same at every ``jobs``: a unit whose run raises is
retried once; a second failure marks the unit failed and the sweep
*continues*, recording a :class:`UnitFailure` on the result instead of
discarding the completed sibling runs.  At most ``jobs`` units are in
flight.  A worker process that dies outright (:class:`BrokenProcessPool`)
takes every in-flight unit down with it, so those units re-run one at a
time and only a unit that breaks the pool while running alone is charged
an attempt.  (At ``jobs == 1`` such a unit kills the caller.)  Per-unit
wall clock is folded into the ``repro.obs`` profiler under
``parallel.unit`` / ``parallel.unit.<protocol>``, the whole run under
``parallel.sweep``, and progress callbacks fire in unit order regardless
of completion order.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import BuiltScenario, build_scenario, run_protocol
from repro.lru import LRU
from repro.metrics.summary import RunSummary
from repro.obs.profiler import Profiler
from repro.protocols.base import ProtocolFactory

#: How many times a failing unit is attempted in total (1 try + 1 retry).
MAX_ATTEMPTS = 2

#: Per-process scenario cache capacity (scenarios, not bytes).
SCENARIO_CACHE_SIZE = 4


@dataclass(frozen=True)
class SweepUnit:
    """One self-describing simulation of a sweep grid.

    ``index`` is the unit's position in the deterministic enumeration
    order (points outermost, then seeds, then protocols); reassembly and
    progress reporting key on it.  ``config`` already carries the unit's
    seed; ``factory`` is the protocol spec and must be picklable for
    ``jobs > 1`` (the stock factories are).
    """

    index: int
    point_index: int
    seed_index: int
    x: float
    config: ScenarioConfig
    factory: ProtocolFactory
    protocol: str


@dataclass(frozen=True)
class UnitResult:
    """A unit's run summary plus run-side metadata."""

    summary: RunSummary
    num_clients: int
    elapsed: float
    attempts: int


@dataclass(frozen=True)
class UnitFailure:
    """One sweep unit (point × seed × protocol) that still failed after
    its retry.  Sweeps record these on the
    :class:`~repro.experiments.figures.SweepResult` instead of discarding
    the completed siblings."""

    x: float
    seed: int
    protocol: str
    error: str
    attempts: int


# -- run side (a worker process, or the caller at jobs == 1) --------------

_scenario_cache = LRU(SCENARIO_CACHE_SIZE)


def _cached_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Build (or reuse) the scenario for ``config`` in this process.

    The cache key is ``(seed, topology knobs)`` — everything the
    topology, tree and routing depend on.  Stream knobs (packet count,
    drain time, ...) are *not* part of the key, so a hit swaps the
    cached network under the unit's own config.

    The key *does* include ``loss_prob`` (it shapes the topology's
    links), so a loss sweep rebuilds the scenario per point.  What does
    not depend on loss is still shared across the points a process is
    handed: the RP prioritized lists come from the process-global
    :mod:`repro.core.plan_cache`, and the exact routing rows from the
    shared row store of the topology's delay graph
    (:func:`repro.net.routing.delay_graph_digest`); both keys leave loss
    probabilities out, so each process plans a topology and computes
    each of its Dijkstra rows once.
    """
    key = (config.seed, config.topology_config())
    cached = _scenario_cache.get(key)
    if cached is not None:
        return replace(cached, config=config)
    built = build_scenario(config)
    _scenario_cache.put(key, built)
    return built


def _execute_unit(unit: SweepUnit) -> tuple[RunSummary, int, float]:
    """Run one unit."""
    t0 = time.perf_counter()
    built = _cached_scenario(unit.config)
    summary = run_protocol(built, unit.factory)
    return summary, built.num_clients, time.perf_counter() - t0


# -- calling side ---------------------------------------------------------


class _InlineExecutor(Executor):
    """The ``jobs == 1`` executor: ``submit`` runs the call in the
    calling process and returns its already-settled future."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _new_executor(jobs: int) -> Executor:
    if jobs == 1:
        return _InlineExecutor()
    # fork is much cheaper than spawn (no interpreter/numpy re-import per
    # worker) and results are identical either way; fall back where fork
    # does not exist (Windows, macOS sandboxes).
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def run_units(
    units: list[SweepUnit],
    jobs: int,
    progress: Callable[[str], None] | None = None,
    profiler: Profiler | None = None,
) -> tuple[dict[int, UnitResult], dict[int, UnitFailure]]:
    """Run ``units`` on ``jobs`` workers (in-process at ``jobs == 1``).

    Returns ``(results, failures)`` keyed by unit index; every unit ends
    up in exactly one of the two.  ``progress`` (if given) receives one
    line per unit **in unit order** — completions arriving out of order
    are buffered until their turn.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if sorted(unit.index for unit in units) != list(range(len(units))):
        raise ValueError("unit indexes must be 0..n-1")
    if profiler is None:
        profiler = Profiler()
    results: dict[int, UnitResult] = {}
    failures: dict[int, UnitFailure] = {}
    #: Failed attempts charged to each unit so far.
    charged: dict[int, int] = {unit.index: 0 for unit in units}
    queue: deque[SweepUnit] = deque(units)
    #: Units that must run with nothing beside them: the suspects of a
    #: pool break, and the retry of a unit that broke the pool alone.
    solo: deque[SweepUnit] = deque()
    pending: dict[Future, SweepUnit] = {}
    next_report = 0

    def settle(
        unit: SweepUnit, error: BaseException, retry: deque[SweepUnit]
    ) -> None:
        """Charge a failed attempt: requeue the unit on ``retry``, or
        mark it failed once it is out of attempts."""
        charged[unit.index] += 1
        if charged[unit.index] < MAX_ATTEMPTS:
            retry.appendleft(unit)
            return
        failures[unit.index] = UnitFailure(
            x=unit.x,
            seed=unit.config.seed,
            protocol=unit.protocol,
            error=f"{type(error).__name__}: {error}",
            attempts=charged[unit.index],
        )

    def report_ready() -> None:
        nonlocal next_report
        if progress is None:
            return
        total = len(units)
        while next_report < total:
            unit = units[next_report]
            if unit.index in results:
                result = results[unit.index]
                detail = f"ok in {result.elapsed:.2f}s"
                if result.attempts > 1:
                    detail += f" (attempt {result.attempts})"
            elif unit.index in failures:
                failure = failures[unit.index]
                detail = (
                    f"FAILED after {failure.attempts} attempts:"
                    f" {failure.error}"
                )
            else:
                return
            progress(
                f"[{next_report + 1}/{total}] x={unit.x:g}"
                f" seed={unit.config.seed} {unit.protocol}: {detail}"
            )
            next_report += 1

    executor = _new_executor(jobs)
    try:
        with profiler.scope("parallel.sweep"):
            while queue or solo or pending:
                if solo:
                    if not pending:
                        unit = solo.popleft()
                        pending[executor.submit(_execute_unit, unit)] = unit
                else:
                    while queue and len(pending) < jobs:
                        unit = queue.popleft()
                        pending[executor.submit(_execute_unit, unit)] = unit
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                hit: list[SweepUnit] = []
                for future in done:
                    unit = pending.pop(future)
                    try:
                        summary, num_clients, elapsed = future.result()
                    except BrokenProcessPool:
                        hit.append(unit)
                    except Exception as exc:
                        settle(unit, exc, queue)
                    else:
                        results[unit.index] = UnitResult(
                            summary=summary,
                            num_clients=num_clients,
                            elapsed=elapsed,
                            attempts=charged[unit.index] + 1,
                        )
                        profiler.add("parallel.unit", elapsed)
                        profiler.add(f"parallel.unit.{unit.protocol}", elapsed)
                if hit:
                    # The pool is dead and took every in-flight unit with
                    # it.  Blame is certain only when one unit was in
                    # flight; otherwise each suspect re-runs alone,
                    # uncharged, and a second break names the culprit.
                    hit += pending.values()
                    pending.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = _new_executor(jobs)
                    if len(hit) == 1:
                        settle(
                            hit[0],
                            BrokenProcessPool(
                                "worker process died while running the unit"
                            ),
                            solo,
                        )
                    else:
                        solo.extend(sorted(hit, key=lambda u: u.index))
                report_ready()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
        _scenario_cache.clear()
    return results, failures
