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
* :mod:`~repro.telemetry.timeseries` -- append-only JSONL time-series
  store: periodic registry + ledger snapshots with delta-aware counter
  reads across restarts, windowed histogram re-aggregation, and
  downsampling for sparklines/dashboards.
* :mod:`~repro.telemetry.slo` -- declarative SLO rules (TOML/JSON)
  with threshold and burn-rate evaluation over any stored series; the
  continuous serve-loop evaluator and the ``repro slo check``
  regression sentinel share it.

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
from repro.telemetry.slo import (
    SloReport,
    SloResult,
    SloRule,
    default_rules,
    evaluate_slo,
    load_rules,
)
from repro.telemetry.timeseries import (
    DEFAULT_TSDB_DIR,
    TSDB_SCHEMA_VERSION,
    TimeSeriesStore,
    downsample,
    ledger_families,
    seed_bench_history,
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
    "DEFAULT_TSDB_DIR",
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
    "SloReport",
    "SloResult",
    "SloRule",
    "Span",
    "SpanTracer",
    "TSDB_SCHEMA_VERSION",
    "TelemetryConfig",
    "TimeSeriesStore",
    "Watchdog",
    "default_rules",
    "downsample",
    "evaluate",
    "evaluate_slo",
    "ledger_families",
    "load_rules",
    "new_span_id",
    "new_trace_id",
    "profiled",
    "quantile_from_buckets",
    "render_waterfall",
    "run_drift",
    "seed_bench_history",
    "stitch_chrome_trace",
    "summaries_from_ledger",
]
