"""Fleet-level experiment telemetry.

Where :mod:`repro.obs` looks *inside one simulation* (event taps,
timelines, windowed counters), this package looks *across runs*: what
the experiment fleet is doing right now and what it has done before.

* :mod:`~repro.telemetry.ledger` -- append-only JSONL run ledger: one
  structured record per simulation (identity, outcome, cache status,
  wall time, result summary) plus a query API.
* :mod:`~repro.telemetry.heartbeat` -- live worker heartbeats, the
  parent-side fleet monitor (progress + ETA) and the stall watchdog.
* :mod:`~repro.telemetry.registry` -- dependency-free counters, gauges
  and histograms with Prometheus-text and JSON export.
* :mod:`~repro.telemetry.profiling` -- per-worker ``cProfile`` capture
  merged into a fleet-wide hot-function table.
* :mod:`~repro.telemetry.drift` -- paper-drift detection: replay the
  key Tullsen & Eggers comparisons against tolerance bands.
* :mod:`~repro.telemetry.fleet` -- :class:`TelemetryConfig` (the knob
  bundle ``ExperimentRunner.run_many`` accepts) and the structured
  :class:`FleetError` of a batch with failed grid points.
* :mod:`~repro.telemetry.tracing` -- end-to-end request tracing:
  dependency-free spans (trace/span/parent ids), a ring-buffered
  collector, and Chrome-trace stitching of service stages over the
  intra-run engine timeline.

Telemetry is strictly opt-in and never forks the simulation: a
telemetered run goes through the same pipeline
(:func:`repro.experiments.runner.run_job`), which telemetry wraps with
heartbeats, profiling and spans, so results are bit-identical with or
without a :class:`~repro.telemetry.fleet.TelemetryConfig`.
"""

from repro.telemetry.drift import (
    FULL_FRAME,
    QUICK_FRAME,
    Band,
    DriftCheck,
    DriftFrame,
    DriftReport,
    evaluate,
    run_drift,
    summaries_from_ledger,
)
from repro.telemetry.fleet import FleetError, JobFailure, TelemetryConfig
from repro.telemetry.heartbeat import (
    EngineSampler,
    FleetMonitor,
    Heartbeat,
    HeartbeatSender,
    JobProgress,
    Watchdog,
)
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_DIR,
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    RunLedger,
)
from repro.telemetry.profiling import MergedProfile, profiled
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.tracing import (
    ActiveSpan,
    Span,
    SpanTracer,
    new_span_id,
    new_trace_id,
    render_waterfall,
    stitch_chrome_trace,
)

__all__ = [
    "ActiveSpan",
    "Band",
    "Counter",
    "DEFAULT_LEDGER_DIR",
    "DriftCheck",
    "DriftFrame",
    "DriftReport",
    "EngineSampler",
    "FULL_FRAME",
    "FleetError",
    "FleetMonitor",
    "Gauge",
    "Heartbeat",
    "HeartbeatSender",
    "Histogram",
    "JobFailure",
    "JobProgress",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "MergedProfile",
    "MetricsRegistry",
    "QUICK_FRAME",
    "RunLedger",
    "Span",
    "SpanTracer",
    "TelemetryConfig",
    "Watchdog",
    "evaluate",
    "new_span_id",
    "new_trace_id",
    "profiled",
    "quantile_from_buckets",
    "render_waterfall",
    "run_drift",
    "stitch_chrome_trace",
    "summaries_from_ledger",
]
