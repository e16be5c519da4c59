"""Fleet plumbing: telemetry configuration, failures and cache gauges.

:class:`TelemetryConfig` is the one knob bundle a caller hands to
:meth:`repro.experiments.runner.ExperimentRunner.run_many`.  Telemetry
wraps the runner's one pipeline (:func:`repro.experiments.runner.run_job`)
rather than forking it: with a config, each run additionally beats a
heartbeat queue, is optionally profiled and traced, and lands in the
ledger; ``None`` (the default) adds nothing, and results are the same
either way.  The config carries the ledger, progress rendering,
heartbeat/watchdog tuning, per-job timeout, profiling switch, metrics
registry and the fleet-wide merged profile.

A telemetered batch reports failed grid points as one
:class:`FleetError` holding a :class:`JobFailure` per point.

This module never imports the runner: the runner imports *us*, and the
dependency edge stays one-way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ReproError
from repro.telemetry.heartbeat import DEFAULT_BEAT_INTERVAL, DEFAULT_STALL_TIMEOUT
from repro.telemetry.ledger import RunLedger
from repro.telemetry.profiling import MergedProfile
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "FleetError",
    "JobFailure",
    "TelemetryConfig",
    "export_cache_stats",
]


def export_cache_stats(registry: MetricsRegistry, stats: dict[str, int]) -> None:
    """Export a :meth:`ResultDiskCache.stats` snapshot as registry gauges.

    Shapes the cache's behaviour for ``/metrics`` scrapers:
    ``repro_cache_entries`` / ``repro_cache_bytes`` for the on-disk
    footprint and ``repro_cache_session_ops{op=...}`` for the
    per-session hit/miss/store/eviction counters.  Idempotent -- gauge
    families are created once and re-set on every call.
    """
    registry.gauge("repro_cache_entries", "Result disk-cache entries on disk").set(
        stats.get("entries", 0)
    )
    registry.gauge("repro_cache_bytes", "Result disk-cache bytes on disk").set(
        stats.get("bytes", 0)
    )
    ops = registry.gauge(
        "repro_cache_session_ops",
        "Disk-cache operations this session by kind",
        ("op",),
    )
    for op in ("hits", "misses", "stores", "evictions"):
        ops.set(stats.get(op, 0), op=op)


class FleetError(ReproError):
    """A telemetered batch finished with failed grid points.

    Carries the structured :class:`JobFailure` list so callers (CLI,
    tests) can report per-point causes instead of one opaque traceback.
    """

    def __init__(self, message: str, failures: list["JobFailure"]) -> None:
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class JobFailure:
    """One grid point that did not produce a result.

    Attributes:
        index: position in the (deduplicated) pending-job list.
        label: human-readable grid-point label.
        kind: ``"error"`` (worker raised) or ``"timeout"`` (watchdog
            kill or ``job_timeout`` expiry).
        message: one-line cause.
    """

    index: int
    label: str
    kind: str
    message: str


@dataclass
class TelemetryConfig:
    """Everything a telemetered batch needs, in one picklable-free bundle.

    The config itself never crosses a process boundary -- workers get
    only the queue and scalar knobs -- so it may hold live objects
    (registry, merged profile, ledger).

    Attributes:
        ledger: run ledger to append to (None records nothing).
        progress: render the live fleet progress line to stderr.
        heartbeat_interval: seconds between worker heartbeats.
        stall_timeout: heartbeat silence before the watchdog flags a job.
        kill_stalled: SIGKILL stalled workers (turns a hang into a
            structured ``timeout`` failure instead of waiting forever).
        job_timeout: overall per-batch result deadline in seconds for
            each pending job (None waits indefinitely); expiry is
            recorded as a ``timeout`` failure.
        profile: wrap each worker run in ``cProfile`` and merge the
            results into :attr:`merged_profile`.
        registry: metrics registry updated with run/cache/event counts
            (a fresh one by default; share one across batches to
            aggregate a session).
        merged_profile: fleet-wide hot-function aggregate (filled only
            when :attr:`profile` is set).
        monitor_hook: called with the live
            :class:`~repro.telemetry.heartbeat.FleetMonitor` right after
            the batch builds it, so an embedding layer (the service
            scheduler) can read per-job heartbeat progress while the
            batch is in flight.  Exceptions from the hook are swallowed
            -- it is observability, never allowed to fail the batch.
            None (the default) changes nothing.
        trace_contexts: per-label trace propagation for end-to-end
            request tracing: ``{job_label: (trace_id, parent_span_id)}``.
            Workers whose label has a context emit a ``worker.run`` span
            with ``workload.generate`` (memo misses only),
            ``prefetch.insert`` and ``engine.simulate`` children over
            the heartbeat queue (see
            :mod:`repro.telemetry.tracing`); labels without one run
            untraced.  None (the default) traces nothing.
        span_sink: parent-side destination for those worker spans
            (span dicts), wired into the batch's FleetMonitor;
            typically ``SpanTracer.record_dict``.
    """

    ledger: RunLedger | None = None
    progress: bool = False
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL
    stall_timeout: float = DEFAULT_STALL_TIMEOUT
    kill_stalled: bool = False
    job_timeout: float | None = None
    profile: bool = False
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    merged_profile: MergedProfile = field(default_factory=MergedProfile)
    monitor_hook: Callable[[Any], None] | None = None
    trace_contexts: dict[str, tuple[str, str | None]] | None = None
    span_sink: Callable[[dict[str, Any]], None] | None = None

    def trace_context(self, label: str) -> tuple[str, str | None] | None:
        """The ``(trace_id, parent_span_id)`` for a job label, or None."""
        if self.trace_contexts is None:
            return None
        return self.trace_contexts.get(label)

    def metrics(self) -> dict[str, Any]:
        """The standard fleet metric families (created idempotently)."""
        return {
            "runs": self.registry.counter(
                "repro_runs_total", "Simulation runs by outcome", ("outcome",)
            ),
            "cache": self.registry.counter(
                "repro_cache_total", "Disk-cache lookups by result", ("result",)
            ),
            "events": self.registry.counter(
                "repro_events_total", "Trace events retired by fresh runs"
            ),
            "wall": self.registry.histogram(
                "repro_run_wall_seconds", "Wall time per fresh simulation run"
            ),
        }
