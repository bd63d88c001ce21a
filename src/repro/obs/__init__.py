"""Unified instrumentation: event bus, profiling, reports.

The paper's claim is quantitative — the prioritized list minimizes
*expected recovery latency* through the conditional loss probabilities
``DS_j/DS_{j-1}`` — but end-of-run summaries can't show per-attempt
behaviour.  This subpackage records it:

* :mod:`repro.obs.events` — typed telemetry records (recovery attempts,
  protocol timers, backoffs, session phases) fanned out by an
  :class:`EventBus`;
* :mod:`repro.obs.sinks` — pluggable event destinations: in-memory ring
  buffer, JSONL file;
* :mod:`repro.obs.profiler` — phase-level wall-clock timers (the
  runner's event-loop passes, RP plan calls, sweep units);
* :mod:`repro.obs.instrumentation` — the injectable facade bundling the
  bus and the profiler, with a sinkless default
  (:data:`NULL_INSTRUMENTATION`) whose emits build nothing;
* :mod:`repro.obs.report` — reduces a run's telemetry to the
  attempt-level :class:`ObsReport` (attempts-per-recovery histogram,
  per-rank success rates and attempt times vs. the model's
  :func:`predict_model`, top timers, and the recorded events counted by
  name);
* :mod:`repro.obs.spans` / :mod:`repro.obs.tracing` — causal recovery
  tracing: every recovery becomes a span tree (root ``recovery``,
  attempt children, link-traversal grandchildren) assembled by a
  deterministically head-sampled :class:`Tracer`, one more bus sink;
* :mod:`repro.obs.export` — deterministic span exporters
  (Chrome/Perfetto trace-event JSON, JSONL);
* :mod:`repro.obs.critical_path` — splits traced recovery latency into
  request-transit / peer-processing / repair-transit / timeout-slack /
  backoff components;
* :mod:`repro.obs.timeseries` — bounded fixed-width sim-time windows
  over the event stream (event rate, in-flight recoveries by phase,
  per-kind bandwidth, timer-heap size) with ASCII sparklines;
* :mod:`repro.obs.health` — the run invariants the runner checks after
  every drain (quiescence, conservation, membership; plus the windowed
  stall check), each failure a typed :class:`HealthViolation`;
* :mod:`repro.obs.ledger` — the cross-run regression ledger: config
  hash + counters + series digests per run, append-only JSONL, with a
  structural differ behind ``repro health --diff``.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, how to check
Lemma 3 against recorded attempts, and the causal-tracing workflow.
"""

from repro.obs.events import (
    SOURCE_RANK,
    AttemptEvent,
    BackoffEvent,
    EventBus,
    FaultEvent,
    HealthEvent,
    ObsEvent,
    PhaseEvent,
    TimerEvent,
    event_from_dict,
)
from repro.obs.health import (
    HealthConfig,
    HealthReport,
    HealthViolation,
    InvariantError,
    evaluate_health,
    render_health,
)
from repro.obs.ledger import (
    FingerprintDiff,
    RegressionLedger,
    RunFingerprint,
    config_hash,
    diff_fingerprints,
    load_fingerprint,
)
from repro.obs.timeseries import (
    TimeSeriesCollector,
    Window,
    render_sparklines,
    sparkline,
)
from repro.obs.critical_path import (
    COMPONENTS,
    CriticalPathReport,
    TraceBreakdown,
    analyze,
    analyze_trace,
)
from repro.obs.export import (
    read_spans_jsonl,
    spans_to_jsonl,
    to_perfetto,
    write_perfetto,
    write_spans_jsonl,
)
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.profiler import Profiler, TimerStat
from repro.obs.report import (
    ObsReport,
    RankStats,
    build_obs_report,
    predict_model,
)
from repro.obs.sinks import (
    EventSink,
    JsonlSink,
    RingBufferSink,
    read_jsonl,
)
from repro.obs.spans import (
    NO_SPAN,
    Span,
    SpanStore,
)
from repro.obs.tracing import Tracer, sample_hash

__all__ = [
    "SOURCE_RANK",
    "AttemptEvent",
    "BackoffEvent",
    "EventBus",
    "FaultEvent",
    "HealthEvent",
    "HealthConfig",
    "HealthReport",
    "HealthViolation",
    "InvariantError",
    "evaluate_health",
    "render_health",
    "FingerprintDiff",
    "RegressionLedger",
    "RunFingerprint",
    "config_hash",
    "diff_fingerprints",
    "load_fingerprint",
    "TimeSeriesCollector",
    "Window",
    "render_sparklines",
    "sparkline",
    "ObsEvent",
    "PhaseEvent",
    "TimerEvent",
    "event_from_dict",
    "NULL_INSTRUMENTATION",
    "Instrumentation",
    "Profiler",
    "TimerStat",
    "ObsReport",
    "RankStats",
    "build_obs_report",
    "predict_model",
    "EventSink",
    "JsonlSink",
    "RingBufferSink",
    "read_jsonl",
    "NO_SPAN",
    "Span",
    "SpanStore",
    "Tracer",
    "sample_hash",
    "COMPONENTS",
    "CriticalPathReport",
    "TraceBreakdown",
    "analyze",
    "analyze_trace",
    "read_spans_jsonl",
    "spans_to_jsonl",
    "to_perfetto",
    "write_perfetto",
    "write_spans_jsonl",
]
