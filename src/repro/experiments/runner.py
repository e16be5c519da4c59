"""Shared experiment execution: one pipeline, trace and result caching.

Every simulation -- a serial run, a process-pool batch, a telemetered
fleet, a service request or an audit grid point -- goes through one
function, :func:`run_job`: generate the clean trace (memoised) →
:func:`~repro.prefetch.insertion.insert_prefetches` →
:class:`~repro.sim.engine.SimulationEngine`.  A
:class:`SimulationJob` is its input and the single job identity:
:func:`job_payload` (the disk-cache key shape) and :func:`job_label`
(the progress/failure label) are defined on it once, and the service's
:class:`~repro.service.contracts.ScenarioSpec` delegates to both.

The clean-trace memo (:class:`TraceMemo`, a small LRU) belongs to
whoever does the work: an :class:`ExperimentRunner` instance for
in-process runs, :data:`PROCESS_TRACES` for pool workers and the audit
grid.  Annotated (prefetch-inserted) traces are *not* cached: they are
cheap to rebuild relative to simulation and expensive to hold.

An :class:`ExperimentRunner` pins the experimental frame (CPU count,
seed, workload scale) and memoises simulation results per (workload,
restructured, strategy, machine) -- Figure 1, Table 2, Figure 2 and
Figure 3 all share runs.  On top of that it optionally layers

* a **persistent disk cache** (``disk_cache=``, see
  :mod:`repro.perf.diskcache`): results keyed by a content hash of the
  full simulation input -- workload spec, scale, seed, strategy,
  machine config and :data:`~repro.sim.engine.ENGINE_VERSION` -- so a
  repeated bench session re-simulates nothing;
* a **process-parallel backend** (``max_workers=``): :meth:`run_many`
  (and :meth:`sweep`/:meth:`compare`, which route through it) runs its
  uncached jobs over a :class:`~concurrent.futures.ProcessPoolExecutor`
  instead of in-process -- the only branch in its job loop.  The
  pipeline is a pure function of the job, so parallel results are
  *byte-identical* to serial ones, always in job order; and
* **fleet telemetry** (``telemetry=`` on :meth:`run_many`, see
  :mod:`repro.telemetry`): the same pipeline, which telemetry wraps
  with heartbeats, profiling and spans, plus a run-ledger entry per
  simulation, a stall watchdog and a metrics registry.  Without a
  :class:`~repro.telemetry.fleet.TelemetryConfig` no monitor, sampler
  or queue starts and a worker exception propagates as is.  With one,
  worker failures never hang the pool or silently drop grid points:
  every failed point is recorded (ledger ``outcome: error`` /
  ``timeout``) and surfaced in one structured
  :class:`~repro.telemetry.fleet.FleetError`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import sys
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.common.config import MachineConfig, SimulationConfig
from repro.metrics.compare import RunComparison, compare_runs
from repro.metrics.results import RunMetrics
from repro.perf.diskcache import ResultDiskCache, content_key
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import NP, PrefetchStrategy
from repro.sim.engine import ENGINE_VERSION, SimulationEngine
from repro.telemetry.fleet import FleetError, JobFailure, TelemetryConfig
from repro.telemetry.heartbeat import (
    EngineSampler,
    FleetMonitor,
    HeartbeatSender,
    Watchdog,
    render_fleet_progress,
)
from repro.telemetry.ledger import LedgerEntry
from repro.telemetry.profiling import profiled
from repro.telemetry.tracing import SpanTracer
from repro.trace.stream import MultiTrace
from repro.workloads.registry import generate_workload

__all__ = [
    "DEFAULT_TRANSFER_LATENCIES",
    "ExperimentRunner",
    "PROCESS_TRACES",
    "SimulationJob",
    "StrategyResult",
    "TraceMemo",
    "WorkerProbe",
    "job_label",
    "job_payload",
    "run_job",
    "run_strategy",
]

#: The paper's data-bus transfer-latency sweep (Table 2, Figure 2).
DEFAULT_TRANSFER_LATENCIES: tuple[int, ...] = (4, 8, 16, 32)

#: Transfer latency used by the fixed-machine experiments (Figures 1, 3;
#: Tables 3, 4).
DEFAULT_FIGURE_LATENCY = 8

#: Clean traces one :class:`TraceMemo` keeps (least recently used out).
TRACE_MEMO_SIZE = 3


@dataclass(frozen=True)
class StrategyResult:
    """A strategy run bundled with its NP baseline and the comparison."""

    run: RunMetrics
    baseline: RunMetrics
    comparison: RunComparison


# ------------------------------------------------------------ job identity


@dataclass(frozen=True)
class SimulationJob:
    """One simulation: a grid point plus the runner frame it runs in."""

    workload: str
    strategy: PrefetchStrategy
    machine: MachineConfig
    restructured: bool = False
    num_cpus: int = 12
    seed: int = 42
    scale: float = 1.0
    sim_config: SimulationConfig = field(default_factory=SimulationConfig)

    @property
    def trace_key(self) -> tuple:
        """What the clean trace depends on (the :class:`TraceMemo` key)."""
        return (self.workload, self.restructured, self.num_cpus, self.seed, self.scale)

    @property
    def strategy_label(self) -> str:
        """The strategy name a result carries (``+restructured`` marked)."""
        name = self.strategy.name
        return f"{name}+restructured" if self.restructured else name


def job_payload(job: SimulationJob) -> dict[str, Any]:
    """The full simulation input, as hashed into the disk-cache key.

    Every field that can change the result is present -- including
    ``engine_version``, so behavior-altering engine changes never
    serve stale entries.  ``content_key(job_payload(job))`` is also the
    ledger's ``config_key`` and the service's dedup key.
    """
    return {
        "workload": job.workload,
        "restructured": job.restructured,
        "num_cpus": job.num_cpus,
        "seed": job.seed,
        "scale": job.scale,
        "strategy": asdict(job.strategy),
        "machine": job.machine.describe(),
        "engine_version": ENGINE_VERSION,
    }


def job_label(job: SimulationJob) -> str:
    """Human-readable grid-point label (progress lines, failures, traces)."""
    return f"{job.workload}/{job.strategy_label}@{job.machine.bus.transfer_cycles}c"


def _machine_key(machine: MachineConfig) -> tuple:
    return tuple(sorted(machine.describe().items()))


# --------------------------------------------------------------- pipeline


class TraceMemo:
    """LRU of clean (NP) traces keyed by :attr:`SimulationJob.trace_key`.

    ``metadata`` keeps each generated trace's metadata past eviction
    (it is small; the trace is not).
    """

    def __init__(self) -> None:
        self._traces: OrderedDict[tuple, MultiTrace] = OrderedDict()
        self.metadata: dict[tuple, dict[str, Any]] = {}

    def get(self, key: tuple) -> MultiTrace | None:
        """The memoised trace for ``key``, or None on a miss."""
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
        return trace

    def generate(self, key: tuple) -> MultiTrace:
        """Generate the trace for ``key`` and memoise it."""
        workload, restructured, num_cpus, seed, scale = key
        trace = generate_workload(
            workload, num_cpus=num_cpus, seed=seed, scale=scale, restructured=restructured
        )
        self._traces[key] = trace
        self.metadata[key] = dict(trace.metadata)
        while len(self._traces) > TRACE_MEMO_SIZE:
            self._traces.popitem(last=False)
        return trace


#: Per-process memo for pool workers and the audit grid (workers are
#: reused across jobs, and jobs for one workload share its trace).
PROCESS_TRACES = TraceMemo()


@dataclass(frozen=True)
class WorkerProbe:
    """The worker-side part of a :class:`TelemetryConfig` for one job.

    Picklable (a queue and scalars), so it crosses the process boundary
    that the config itself, holding live objects, never does.
    """

    queue: Any
    index: int
    heartbeat_interval: float
    profile: bool
    trace_ctx: tuple[str, str | None] | None


_UNTRACED = SpanTracer(enabled=False)


def run_job(
    traces: TraceMemo, job: SimulationJob, probe: WorkerProbe | None = None
) -> tuple[RunMetrics, dict[str, Any]]:
    """Generate (memoised in ``traces``) → insert → simulate one job.

    Returns the result and the run's stats: ``wall_seconds``,
    ``events`` retired, ``worker_pid`` and ``profile_rows``.  A
    ``probe`` (telemetered batches only) wraps the same steps with an
    :class:`EngineSampler` beating its queue, optional ``cProfile``
    capture of the simulation, and -- given a trace context --
    ``worker.run`` spans with ``workload.generate`` (memo misses only),
    ``prefetch.insert`` and ``engine.simulate`` children, shipped over
    the queue as ``{"kind": "span"}`` messages (best-effort: a gone
    parent never fails the run).
    """
    start = time.perf_counter()
    label = job_label(job)
    ctx = probe.trace_ctx if probe is not None else None
    tracer = SpanTracer() if ctx is not None else _UNTRACED
    trace_id, parent_id = ctx if ctx is not None else ("", None)
    with tracer.begin("worker.run", trace_id, parent_id, label=label, pid=os.getpid()) as run:
        trace = traces.get(job.trace_key)
        if trace is None:
            with tracer.begin("workload.generate", trace_id, run.span_id, label=label):
                trace = traces.generate(job.trace_key)
        with tracer.begin("prefetch.insert", trace_id, run.span_id, label=label):
            annotated, _report = insert_prefetches(trace, job.strategy, job.machine.cache)
        total_events = sum(len(cpu_trace) for cpu_trace in annotated.cpus)
        with profiled(probe is not None and probe.profile) as profile_rows:
            engine = SimulationEngine(
                annotated, job.machine, job.sim_config, adaptive=job.strategy.adaptive_config()
            )
            beating: Any = nullcontext()
            if probe is not None:
                sender = HeartbeatSender(probe.queue, probe.heartbeat_interval)
                beating = EngineSampler(
                    engine, sender, probe.index, label, total_events, probe.heartbeat_interval
                )
            with tracer.begin(
                "engine.simulate", trace_id, run.span_id, label=label, total_events=total_events
            ) as sim, beating:
                engine.run()
                result = engine.collect_metrics(job.strategy_label)
                sim.annotate(exec_cycles=engine.now)
        events = sum(proc.pc for proc in engine.procs)
        run.annotate(events=events)
    stats = {
        "wall_seconds": time.perf_counter() - start,
        "events": events,
        "worker_pid": os.getpid(),
        "profile_rows": profile_rows,
    }
    for span in tracer.spans():  # empty unless traced
        try:
            probe.queue.put({"kind": "span", "span": span.to_dict()})
        except Exception:
            pass  # parent gone (shutdown race); spans are best-effort
    return result, stats


def _pool_job(
    job: SimulationJob, probe: WorkerProbe | None
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Process-pool entry: :func:`run_job` on this worker's memo.

    The result crosses the process boundary as ``RunMetrics.to_dict()``
    -- exactly what the disk cache stores.
    """
    result, stats = run_job(PROCESS_TRACES, job, probe)
    return result.to_dict(), stats


# ----------------------------------------------------------------- ledger


def _ledger(
    telemetry: TelemetryConfig,
    job: SimulationJob,
    outcome: str = "ok",
    cache: str = "off",
    result: RunMetrics | None = None,
    stats: dict[str, Any] | None = None,
    error: str | None = None,
) -> None:
    """Append one run -- fresh, disk hit or failed -- to the ledger."""
    if telemetry.ledger is None:
        return
    stats = stats or {}
    wall = stats.get("wall_seconds", 0.0)
    events = stats.get("events", 0)
    trace_ctx = telemetry.trace_context(job_label(job))
    telemetry.ledger.append(
        LedgerEntry(
            config_key=content_key(job_payload(job)),
            workload=job.workload,
            restructured=job.restructured,
            strategy=job.strategy.name,
            machine=job.machine.describe(),
            num_cpus=job.num_cpus,
            seed=job.seed,
            scale=job.scale,
            engine_version=ENGINE_VERSION,
            outcome=outcome,
            cache=cache,
            wall_seconds=round(wall, 6),
            events=events,
            events_per_sec=round(events / wall, 3) if wall > 0 else 0.0,
            worker_pid=stats.get("worker_pid") or os.getpid(),
            error=error,
            summary=result.describe() if result is not None else {},
            trace_id=trace_ctx[0] if trace_ctx is not None else None,
        )
    )


class _Fleet:
    """Telemetry around one batch's pending jobs.

    Owns the heartbeat queue (a manager queue across processes, an
    in-process one otherwise), the :class:`FleetMonitor` and watchdog,
    and the failure list; turns each job's outcome into metrics and a
    ledger entry.  The stall watchdog and ``job_timeout`` only *kill*
    on the pool -- in-process there is no one to kill -- but stalls
    are still flagged.
    """

    def __init__(
        self,
        telemetry: TelemetryConfig,
        pending: list[tuple[tuple, SimulationJob]],
        parallel: bool,
        cache_state: str,
    ) -> None:
        self.telemetry = telemetry
        self.parallel = parallel
        self.metrics = telemetry.metrics()
        self.cache_state = cache_state
        self.total = len(pending)
        self.labels = {j: job_label(job) for j, (_key, job) in enumerate(pending)}
        self.failures: list[JobFailure] = []
        self.manager = multiprocessing.Manager() if parallel else None
        self.queue: Any = (
            self.manager.Queue() if self.manager is not None else queue_module.SimpleQueue()
        )
        self.monitor = FleetMonitor(
            self.queue,
            self.labels,
            watchdog=Watchdog(
                stall_timeout=telemetry.stall_timeout,
                kill=telemetry.kill_stalled and parallel,
            ),
            render=render_fleet_progress if telemetry.progress else None,
            span_sink=telemetry.span_sink,
        )
        if telemetry.monitor_hook is not None:
            try:
                telemetry.monitor_hook(self.monitor)
            except Exception:
                pass  # the hook is observability; it never fails the batch

    def __enter__(self) -> "_Fleet":
        self.monitor.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.monitor.__exit__(*exc_info)
        finally:
            if self.manager is not None:
                self.manager.shutdown()
            if self.telemetry.progress:
                sys.stderr.write("\n")
                sys.stderr.flush()

    def probe(self, j: int) -> WorkerProbe:
        return WorkerProbe(
            self.queue,
            j,
            self.telemetry.heartbeat_interval,
            self.telemetry.profile,
            self.telemetry.trace_context(self.labels[j]),
        )

    def accept(self, job: SimulationJob, result: RunMetrics, stats: dict[str, Any]) -> None:
        """Account one fresh result: metrics, merged profile, ledger."""
        self.metrics["runs"].inc(outcome="ok")
        self.metrics["cache"].inc(result=self.cache_state)
        self.metrics["events"].inc(stats["events"])
        self.metrics["wall"].observe(stats["wall_seconds"])
        if self.telemetry.profile:
            self.telemetry.merged_profile.merge(stats["profile_rows"])
        _ledger(self.telemetry, job, cache=self.cache_state, result=result, stats=stats)

    def fail(self, j: int, job: SimulationJob, exc: Exception) -> None:
        """Record one failed job; kill its worker if it timed out."""
        if self.parallel and isinstance(exc, FuturesTimeout):
            kind, message = "timeout", f"no result within {self.telemetry.job_timeout:g}s"
            pid = self.monitor.jobs[j].pid
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        elif isinstance(exc, BrokenProcessPool) and self.monitor.jobs[j].stalled:
            kind, message = "timeout", "worker killed after heartbeat stall"
        elif isinstance(exc, BrokenProcessPool):
            kind, message = "error", "worker pool broke (a worker process died)"
        else:
            kind, message = "error", str(exc) or type(exc).__name__
        self.failures.append(JobFailure(index=j, label=self.labels[j], kind=kind, message=message))
        self.metrics["runs"].inc(outcome=kind)
        _ledger(self.telemetry, job, outcome=kind, error=message)

    def raise_failures(self) -> None:
        """Raise one :class:`FleetError` when any job failed."""
        if not self.failures:
            return
        heads = "; ".join(f"{f.label}: {f.message}" for f in self.failures[:3])
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        raise FleetError(
            f"{len(self.failures)} of {self.total} grid points failed -- {heads}{more}",
            self.failures,
        )


# ----------------------------------------------------------------- runner


class ExperimentRunner:
    """Caching façade over the :func:`run_job` pipeline.

    Args:
        num_cpus: processors for every run.
        seed: workload-generation seed.
        scale: workload work multiplier (trace length knob).
        max_workers: worker processes for the batch entry points
            (:meth:`run_many`, :meth:`sweep`, :meth:`compare`).  None,
            0 or 1 keeps everything serial and in-process (default).
        disk_cache: directory for the persistent result cache (see
            :mod:`repro.perf.diskcache`), or a cache instance to share;
            None disables it.
        sim_config: engine-level options applied to every run.  When
            ``sim_config.audit`` is set the disk cache is bypassed in
            both directions: a cache hit would skip the audit entirely,
            and stored entries must keep the unaudited wire format.
            ``sim_config.observe`` bypasses it for the same reason (a
            hit would return a result with no telemetry attached).
    """

    def __init__(
        self,
        num_cpus: int = 12,
        seed: int = 42,
        scale: float = 1.0,
        max_workers: int | None = None,
        disk_cache: str | Path | ResultDiskCache | None = None,
        sim_config: SimulationConfig | None = None,
    ) -> None:
        self.num_cpus = num_cpus
        self.seed = seed
        self.scale = scale
        self.max_workers = max_workers
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        if isinstance(disk_cache, ResultDiskCache):
            self.disk_cache: ResultDiskCache | None = disk_cache
        else:
            self.disk_cache = ResultDiskCache(disk_cache) if disk_cache else None
        self._traces = TraceMemo()
        self._results: dict[tuple, RunMetrics] = {}

    def base_machine(self) -> MachineConfig:
        """The default machine for this runner's frame (matching CPUs)."""
        return MachineConfig(num_cpus=self.num_cpus)

    def _job(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
    ) -> SimulationJob:
        return SimulationJob(
            workload,
            strategy,
            machine,
            restructured,
            self.num_cpus,
            self.seed,
            self.scale,
            self.sim_config,
        )

    # --------------------------------------------------------------- traces

    def _trace_key(self, workload: str, restructured: bool) -> tuple:
        return self._job(workload, NP, self.base_machine(), restructured).trace_key

    def clean_trace(self, workload: str, restructured: bool = False) -> MultiTrace:
        """The NP (un-annotated) trace for a workload variant (cached)."""
        key = self._trace_key(workload, restructured)
        trace = self._traces.get(key)
        return trace if trace is not None else self._traces.generate(key)

    def trace_metadata(self, workload: str, restructured: bool = False) -> dict[str, Any]:
        """Metadata of a previously generated trace (generates if needed)."""
        key = self._trace_key(workload, restructured)
        if key not in self._traces.metadata:
            self._traces.generate(key)
        return self._traces.metadata[key]

    # ------------------------------------------------------------ disk cache

    @property
    def _disk_cache_active(self) -> bool:
        """Whether results go to and come from the disk cache."""
        return (
            self.disk_cache is not None
            and not self.sim_config.audit
            and not self.sim_config.observe
        )

    # ----------------------------------------------------------------- runs

    def run(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
    ) -> RunMetrics:
        """Simulate one configuration (memoised, disk-cached)."""
        return self.run_many([(workload, strategy, machine, restructured)])[0]

    def run_many(
        self,
        jobs: list[tuple],
        telemetry: TelemetryConfig | None = None,
    ) -> list[RunMetrics]:
        """Simulate a batch of configurations, in parallel if configured.

        ``jobs`` holds ``(workload, strategy, machine)`` or
        ``(workload, strategy, machine, restructured)`` tuples.  Memo
        and disk-cache hits are resolved first; only genuinely new
        configurations are simulated (each distinct one exactly once,
        duplicates collapse).  With ``max_workers > 1`` the new work
        fans out over a process pool; results are returned in **job
        order** regardless of completion order, and -- simulation being
        a pure function -- are byte-identical to a serial run.

        With a :class:`~repro.telemetry.fleet.TelemetryConfig` the
        batch additionally appends a run-ledger entry per disk hit and
        per fresh simulation, streams worker heartbeats to a live fleet
        progress line with a stall watchdog, optionally profiles each
        run, and updates the config's metrics registry.  A worker
        failure no longer aborts the batch mid-flight: every failed
        grid point is recorded in the ledger (``outcome:
        error``/``timeout``) and collected into one
        :class:`~repro.telemetry.fleet.FleetError` raised after all
        surviving points have been stored.
        """
        norm = [self._job(*job) for job in jobs]
        metrics = telemetry.metrics() if telemetry is not None else None
        results: list[RunMetrics | None] = [None] * len(norm)
        todo: dict[tuple, list[int]] = {}
        recorded: set[tuple] = set()
        for i, job in enumerate(norm):
            key = (job.workload, job.restructured, job.strategy, _machine_key(job.machine))
            cached = self._results.get(key)
            hit_kind = "memo"
            if cached is None and self._disk_cache_active:
                data = self.disk_cache.load(content_key(job_payload(job)))
                if data is not None:
                    cached = self._results[key] = RunMetrics.from_dict(data)
                    hit_kind = "hit"
            if cached is not None:
                results[i] = cached
                if telemetry is not None and key not in recorded:
                    recorded.add(key)
                    metrics["cache"].inc(result=hit_kind)
                    if hit_kind == "hit":
                        # Memo hits stay out of the ledger: they were
                        # ledgered when first simulated or disk-loaded.
                        metrics["runs"].inc(outcome="ok")
                        _ledger(telemetry, job, cache="hit", result=cached)
            else:
                todo.setdefault(key, []).append(i)

        pending = [(key, norm[indices[0]]) for key, indices in todo.items()]
        if pending:
            self._run_pending(pending, todo, results, telemetry)
        return results

    def _run_pending(
        self,
        pending: list[tuple[tuple, SimulationJob]],
        todo: dict[tuple, list[int]],
        results: list[RunMetrics | None],
        telemetry: TelemetryConfig | None,
    ) -> None:
        """Run the uncached jobs in-process or over a pool, in job order.

        Without telemetry the first exception propagates unchanged.
        With it, each failure is recorded by the :class:`_Fleet` and
        raised once at the end as a :class:`FleetError`, after the
        surviving points are stored; pool results are awaited with
        ``telemetry.job_timeout``, and a killed or crashed worker
        becomes a structured failure instead of a hang.
        """
        workers = min(self.max_workers or 1, len(pending))
        timeout = telemetry.job_timeout if telemetry is not None else None
        with ExitStack() as stack:
            fleet = None
            if telemetry is not None:
                fleet = stack.enter_context(
                    _Fleet(
                        telemetry,
                        pending,
                        workers > 1,
                        "miss" if self._disk_cache_active else "off",
                    )
                )
            probes = [fleet.probe(j) if fleet else None for j in range(len(pending))]
            futures = []
            if workers > 1:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                futures = [
                    pool.submit(_pool_job, job, probe)
                    for (_key, job), probe in zip(pending, probes)
                ]
            for j, (key, job) in enumerate(pending):
                try:
                    if futures:
                        data, stats = futures[j].result(timeout=timeout)
                        result = RunMetrics.from_dict(data)
                    else:
                        result, stats = run_job(self._traces, job, probes[j])
                except Exception as exc:
                    if fleet is None:
                        raise
                    fleet.fail(j, job, exc)
                else:
                    if self._disk_cache_active:
                        payload = job_payload(job)
                        self.disk_cache.store(content_key(payload), result.to_dict(), payload)
                    self._results[key] = result
                    for i in todo[key]:
                        results[i] = result
                    if fleet is not None:
                        fleet.accept(job, result, stats)
                if fleet is not None:
                    fleet.monitor.mark_done(j)
        if fleet is not None:
            fleet.raise_failures()

    def compare(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
    ) -> StrategyResult:
        """Run a strategy and its NP baseline; bundle the comparison.

        The baseline shares the restructuring flag: restructured runs are
        compared against the restructured NP run, as in Table 5.
        """
        baseline, run = self.run_many(
            [
                (workload, NP, machine, restructured),
                (workload, strategy, machine, restructured),
            ]
        )
        return StrategyResult(run=run, baseline=baseline, comparison=compare_runs(baseline, run))

    def sweep(
        self,
        workload: str,
        strategies: tuple[PrefetchStrategy, ...],
        machine: MachineConfig,
        transfer_latencies: tuple[int, ...] = DEFAULT_TRANSFER_LATENCIES,
        restructured: bool = False,
    ) -> dict[int, dict[str, RunMetrics]]:
        """Run strategies across the bus-latency sweep.

        Returns ``{transfer_cycles: {strategy_name: RunMetrics}}``.
        The grid goes through :meth:`run_many`, so a parallel runner
        simulates its points concurrently.
        """
        flat = self.run_many(
            [
                (workload, s, machine.with_transfer_cycles(cycles), restructured)
                for cycles in transfer_latencies
                for s in strategies
            ]
        )
        out: dict[int, dict[str, RunMetrics]] = {}
        it = iter(flat)
        for cycles in transfer_latencies:
            out[cycles] = {s.name: next(it) for s in strategies}
        return out

    @property
    def cached_run_count(self) -> int:
        """Number of memoised simulation results."""
        return len(self._results)


_DEFAULT_RUNNER: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """A process-wide shared runner (used by :func:`run_strategy`)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = ExperimentRunner()
    return _DEFAULT_RUNNER


def run_strategy(
    workload: str,
    strategy: PrefetchStrategy,
    machine: MachineConfig | None = None,
    restructured: bool = False,
) -> StrategyResult:
    """One-call convenience: run a strategy vs. NP on the default runner."""
    return default_runner().compare(
        workload, strategy, machine or MachineConfig(), restructured
    )
