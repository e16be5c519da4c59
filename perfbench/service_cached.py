"""service-cached: one client drives the HTTP service; most results are cached.

The service runs in-process (``serve_in_thread``) with ``max_workers=0``
and its cache and ledger in temp directories.  The client sends single
and sweep ``POST /runs`` requests, polls each run and fetches its result:

* dedups: specs this server instance already finished;
* disk hits: specs set-up simulated into the cache at tiny scale (the
  server restarts on the same cache when none are left unseen);
* misses, one submission in 46: a new tiny LocusRoute scenario
  that simulates, stores to disk and appends to the ledger.

So HTTP, the scheduler, the disk cache, serialization and the ledger do
most of the work and the engine a minority.  One client, closed loop.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics.results import RunMetrics
from repro.perf.diskcache import ResultDiskCache
from repro.service.api import ServiceConfig, serve_in_thread
from repro.service.contracts import ScenarioSpec
from repro.telemetry.tracing import Span, SpanTracer, new_trace_id

from perfbench.common import (
    NUM_CPUS,
    SPAN_CAPACITY,
    Checker,
    Metric,
    ScratchDirs,
    digest,
    engine_metrics,
    latency_metrics,
    median,
    run_rounds,
    self_times,
    sim_counters,
    simulate_layers,
    span_durations,
    stage_metrics,
)
from perfbench.cold_pipeline import run_cold

NAME = "service-cached"

STRATEGIES = ("NP", "PREF", "PWS")
TRANSFER_CYCLES = 8
#: Pre-warmed specs: LocusRoute is the workload that shrinks furthest.
POOL_WORKLOAD = "LocusRoute"
POOL_SCALE = 0.01
POOL_GROUPS = 6
POOL_SINGLES = 6
MISS_SCALE = 0.02
#: One round: a sweep and a single of unseen specs (disk hits), then a
#: sweep and DEDUP_SINGLES singles of seen ones (dedups) -- 15
#: submissions.  Every MISS_EVERY-th round adds one miss, one
#: submission in 46.  Hit latency comes in steps of one HTTP request:
#: two requests for a single dedup or a sweep's first point, three and
#: four for the sweep's later points, more for disk hits.  With eight
#: single dedups the two-request step holds 60% of the hits, so the
#: median sits inside it rather than on the edge between two steps.
DEDUP_SINGLES = 8
MISS_EVERY = 3
MIN_ROUNDS = 40
#: Client poll interval: fine while a hit could still be finishing,
#: coarse once the run is clearly simulating.
POLL_FINE_S = 0.001
POLL_COARSE_S = 0.01
POLL_FINE_FOR_S = 0.05
HTTP_TIMEOUT_S = 60.0
#: A run not finished this long after its POST counts as failed.
RUN_TIMEOUT_S = 60.0
#: What a failed request can raise: socket errors and timeouts, HTTP
#: errors, and malformed responses.
CLIENT_ERRORS = (OSError, http.client.HTTPException, RuntimeError, ValueError, KeyError)


def _spec(seed: int, strategy: str, scale: float) -> ScenarioSpec:
    return ScenarioSpec(
        workload=POOL_WORKLOAD,
        strategy=strategy,
        num_cpus=NUM_CPUS,
        seed=seed,
        scale=scale,
        transfer_cycles=TRANSFER_CYCLES,
    )


class Plan:
    """The scenarios of one benchmark seed: the pool and the misses."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{NAME}:{seed}")
        self.seed = seed
        self._seeds = rng.sample(range(1, 2**31), POOL_GROUPS + POOL_SINGLES + 10_000)
        self.groups = [
            [_spec(self._seeds[g], s, POOL_SCALE) for s in STRATEGIES] for g in range(POOL_GROUPS)
        ]
        self.singles = [
            _spec(self._seeds[POOL_GROUPS + k], STRATEGIES[k % 3], POOL_SCALE)
            for k in range(POOL_SINGLES)
        ]

    def pool(self) -> list[ScenarioSpec]:
        return [spec for group in self.groups for spec in group] + self.singles

    def miss(self, k: int) -> ScenarioSpec:
        return _spec(self._seeds[POOL_GROUPS + POOL_SINGLES + k], "PREF", MISS_SCALE)


class Client:
    """A minimal HTTP/1.1 client: the service closes every connection."""

    def __init__(self, base_url: str) -> None:
        host, port = base_url.removeprefix("http://").rsplit(":", 1)
        self.host = host
        self.port = int(port)

    def call(self, method: str, path: str, body: dict[str, Any] | None = None) -> dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status not in (200, 202):
            raise RuntimeError(f"{method} {path} -> HTTP {response.status}: {data[:200]!r}")
        return json.loads(data)


class Server:
    """One service instance on the shared cache directory."""

    def __init__(self, cache_dir: Path, ledger_path: Path, traced: bool) -> None:
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=str(cache_dir),
            ledger_path=str(ledger_path),
            hydrate=False,
            max_workers=0,
            trace=traced,
            trace_capacity=SPAN_CAPACITY,
            tsdb_dir=None,
        )
        self.service, base_url, _stop = serve_in_thread(config)
        self.client = Client(base_url)

    def stop(self) -> tuple[dict[str, int], list[Span]]:
        """Stop the server; returns its disk-cache counters and its spans."""
        stats = self.service.scheduler.cache_stats() or {"hits": 0, "misses": 0}
        spans = self.service.tracer.spans()
        # Not serve_in_thread's stop(): serve_in_thread returns while its
        # loop may still be finishing start-up, and a stop that lands
        # then is consumed by the start-up run and lost.  Queueing the
        # stop from inside the loop defers it to the loop's next
        # iteration, which the serving run always reaches.
        loop = self.service.loop
        loop.call_soon_threadsafe(loop.call_soon, loop.stop)
        deadline = time.monotonic() + HTTP_TIMEOUT_S
        while not loop.is_closed():
            if time.monotonic() > deadline:
                raise RuntimeError("service thread did not stop")
            time.sleep(0.001)
        return stats, spans


@dataclass
class State:
    plan: Plan
    dirs: ScratchDirs
    pool_dir: Path
    references: dict[str, str]
    inserted: int
    server: Server | None = None
    run_dir: Path | None = None


def setup(seed: int, dirs: ScratchDirs, tracer: SpanTracer, checker: Checker) -> State:
    """Simulate the pool into a fresh disk cache and start the service."""
    plan = Plan(seed)
    pool_dir = dirs.new("pool-cache")
    cache = ResultDiskCache(pool_dir)
    references = {}
    inserted = 0
    for spec in plan.pool():
        trace_id = new_trace_id()
        result, count = simulate_layers(spec, tracer, trace_id, None)
        inserted += count
        with tracer.begin("metrics.to_dict", trace_id):
            data = result.to_dict()
        with tracer.begin("diskcache.store", trace_id):
            cache.store(spec.config_key, data, spec.payload())
        references[spec.config_key] = digest(data)
        want = checker.recorded.get(spec.config_key)
        if want is not None and want != references[spec.config_key]:
            checker.fail(f"{spec.label} seed={spec.seed}: pool result differs from recorded")
    state = State(plan, dirs, pool_dir, references, inserted)
    _start(state, traced=False)
    return state


def _start(state: State, traced: bool) -> None:
    """A first server on a fresh copy of the pre-warmed cache."""
    state.run_dir = state.dirs.new("run")
    shutil.copytree(state.pool_dir, state.run_dir / "cache")
    state.server = Server(state.run_dir / "cache", state.run_dir / "runs.jsonl", traced)


def close(state: State) -> None:
    if state.server is not None:
        state.server.stop()
        state.server = None


@dataclass
class Sample:
    kind: str  # "dedup", "disk" or "miss"
    latency_s: float
    polls: int
    deduped: bool
    spec: ScenarioSpec
    metrics: dict[str, Any]


@dataclass
class Session:
    """What one measured phase saw: samples, restarts, server counters."""

    samples: list[Sample] = field(default_factory=list)
    request_s: list[float] = field(default_factory=list)
    restart_s: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    service_spans: list[Span] = field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0


def _phase(
    state: State,
    checker: Checker,
    tracer: SpanTracer,
    seconds: float = 0.0,
    min_rounds: int = 0,
    rounds: int | None = None,
    probe: ResultDiskCache | None = None,
) -> Session:
    """Run the client for ``seconds`` (or exactly ``rounds`` rounds)."""
    plan = state.plan
    rng = random.Random(f"{NAME}:{plan.seed}:client")
    session = Session()
    traced = tracer.enabled
    server = state.server
    unseen_groups: list[list[ScenarioSpec]] = []
    unseen_singles: list[ScenarioSpec] = []
    seen_groups: list[list[ScenarioSpec]] = []
    seen: list[ScenarioSpec] = []
    misses = 0

    def restart() -> None:
        nonlocal server
        t0 = time.perf_counter()
        with tracer.begin("service.restart", new_trace_id()):
            stats, spans = server.stop()
            session.cache_hits += stats["hits"]
            session.cache_lookups += stats["hits"] + stats["misses"]
            session.service_spans.extend(spans)
            server = state.server = Server(
                state.run_dir / "cache", state.run_dir / "runs.jsonl", traced
            )
        session.restart_s.append(time.perf_counter() - t0)

    def fetch(
        spec: ScenarioSpec, ref: dict[str, Any], t0: float, trace_id: str, parent: str | None
    ) -> tuple[dict[str, Any], int]:
        """Poll one run until it finishes, then fetch its result."""
        status = ref["status"]
        polls = 0
        while status not in ("completed", "failed"):
            waited = time.perf_counter() - t0
            if waited > RUN_TIMEOUT_S:
                raise TimeoutError(f"run still {status} after {waited:.0f} s")
            with tracer.begin("service.wait", trace_id, parent_id=parent):
                time.sleep(POLL_FINE_S if waited < POLL_FINE_FOR_S else POLL_COARSE_S)
            with tracer.begin("service.poll", trace_id, parent_id=parent):
                status = server.client.call("GET", f"/runs/{spec.run_id}")["status"]
            polls += 1
        if status == "failed":
            raise RuntimeError("the service reports the run failed")
        with tracer.begin("service.get_result", trace_id, parent_id=parent):
            doc = server.client.call("GET", f"/runs/{spec.run_id}/result")
        return doc["metrics"], polls

    def submit(kind: str, specs: list[ScenarioSpec]) -> None:
        if len(specs) == 1:
            body: dict[str, Any] = specs[0].to_dict()
        else:
            body = {"sweep": {**specs[0].to_dict(), "strategy": [s.strategy for s in specs]}}
        trace_id = new_trace_id()
        t0 = time.perf_counter()
        with tracer.begin("perfbench.request", trace_id, kind=kind, points=len(specs)) as root:
            parent = root.span_id or None
            refs: dict[str, dict[str, Any]] = {}
            try:
                with tracer.begin("service.post", trace_id, parent_id=parent):
                    doc = server.client.call("POST", "/runs", body)
                refs = {ref["run_id"]: ref for ref in doc["runs"]}
            except CLIENT_ERRORS as exc:
                post_error = f"POST /runs: {type(exc).__name__}: {exc}"
            else:
                post_error = "no run reference in the POST response"
            for spec in specs:
                ref = refs.get(spec.run_id)
                if ref is None:
                    checker.check(spec, None, error=post_error)
                    continue
                try:
                    metrics, polls = fetch(spec, ref, t0, trace_id, parent)
                except CLIENT_ERRORS as exc:
                    checker.crashed(spec, exc)
                    continue
                checker.check(spec, metrics, state.references.get(spec.config_key))
                latency = time.perf_counter() - t0
                kept = metrics if kind == "miss" else {}  # misses are re-checked later
                session.samples.append(
                    Sample(kind, latency, polls, bool(ref.get("deduped")), spec, kept)
                )
        session.request_s.append(time.perf_counter() - t0)
        if probe is not None:
            _probe(probe, tracer, trace_id, specs)

    def step(r: int) -> None:
        nonlocal misses
        if not unseen_groups or not unseen_singles:
            if seen:
                restart()
            unseen_groups[:] = list(plan.groups)
            unseen_singles[:] = list(plan.singles)
            seen_groups.clear()
            seen.clear()
        group = unseen_groups.pop(0)
        submit("disk", group)
        seen_groups.append(group)
        seen.extend(group)
        single = unseen_singles.pop(0)
        submit("disk", [single])
        seen.append(single)
        submit("dedup", rng.choice(seen_groups))
        for _ in range(DEDUP_SINGLES):
            submit("dedup", [rng.choice(seen)])
        if r % MISS_EVERY == MISS_EVERY - 1:
            submit("miss", [plan.miss(misses)])
            misses += 1

    if rounds is None:
        session.rounds, session.wall_s = run_rounds(seconds, 1, min_rounds, step)
    else:
        start = time.perf_counter()
        for r in range(rounds):
            step(r)
        session.rounds, session.wall_s = rounds, time.perf_counter() - start
    stats = server.service.scheduler.cache_stats() or {"hits": 0, "misses": 0}
    session.cache_hits += stats["hits"]
    session.cache_lookups += stats["hits"] + stats["misses"]
    session.service_spans.extend(server.service.tracer.spans())
    return session


def _probe(
    cache: ResultDiskCache, tracer: SpanTracer, trace_id: str, specs: list[ScenarioSpec]
) -> None:
    """Time the cache and codec calls of the served keys, beside the HTTP spans."""
    for spec in specs:
        with tracer.begin("perfbench.probe", trace_id) as root:
            with tracer.begin("diskcache.load", trace_id, parent_id=root.span_id):
                data = cache.load(spec.config_key)
            if data is None:
                continue
            with tracer.begin("metrics.from_dict", trace_id, parent_id=root.span_id):
                result = RunMetrics.from_dict(data)
            with tracer.begin("metrics.to_dict", trace_id, parent_id=root.span_id) as span:
                text = json.dumps(result.to_dict())
            span.annotate(bytes=len(text))


def _verify_misses(session: Session, checker: Checker) -> None:
    """Every miss served over HTTP must equal the in-process result."""
    for sample in session.samples:
        if sample.kind == "miss":
            if digest(run_cold(sample.spec).to_dict()) != digest(sample.metrics):
                checker.fail(f"{sample.spec.label} seed={sample.spec.seed}: HTTP != in-process")


def measure(state: State, seconds: float, checker: Checker) -> dict[str, Metric]:
    """The untraced run: every end-to-end metric of this workload."""
    session = _phase(state, checker, SpanTracer(enabled=False), seconds, MIN_ROUNDS)
    _verify_misses(session, checker)
    hits = _latencies(session, "dedup") + _latencies(session, "disk")
    misses = [s for s in session.samples if s.kind == "miss"]
    miss_s = [s.latency_s for s in misses]
    events = sum(RunMetrics.from_dict(s.metrics).events_retired for s in misses)
    n = len(session.samples)
    return {
        "events_per_s": Metric(
            events / sum(miss_s), "1/s", len(misses), "misses: events per second of miss latency"
        ),
        **latency_metrics("scenario_s", hits),
        "miss_s.p50": Metric(median(miss_s), "s", len(miss_s)),
        "scenarios_per_s": Metric(
            n / session.wall_s, "1/s", n, f"{len(session.restart_s)} restarts"
        ),
    }


def trace(
    state: State, seconds: float, checker: Checker, tracer: SpanTracer
) -> tuple[dict[str, Metric], dict[str, Any]]:
    """The traced run: per-layer numbers and the wall-time accounting.

    Half the time runs untraced; then a traced server replays exactly the
    same rounds from a fresh copy of the pre-warmed cache, with the
    service's own tracing on and the client's spans around every call.
    """
    untraced = _phase(state, checker, SpanTracer(enabled=False), seconds / 2, MIN_ROUNDS // 2)
    _verify_misses(untraced, checker)
    ledger = state.run_dir / "runs.jsonl"
    ledger_lines = len(ledger.read_bytes().splitlines())
    ledger_bytes = ledger.stat().st_size
    close(state)
    _start(state, traced=True)
    probe = ResultDiskCache(state.run_dir / "cache")
    traced = _phase(state, checker, tracer, rounds=untraced.rounds, probe=probe)
    spans = tracer.spans()
    served = traced.service_spans
    misses = [RunMetrics.from_dict(s.metrics) for s in traced.samples if s.kind == "miss"]
    submissions = len(untraced.samples)
    dedups = sum(s.deduped for s in untraced.samples)
    traced_wall = sum(span_durations(spans, "perfbench.request")) + sum(
        span_durations(spans, "service.restart")
    )
    polls = sum(s.polls for s in traced.samples)
    probes = [s for s in spans if s.name == "metrics.to_dict" and "bytes" in s.attributes]
    per_layer = {
        **stage_metrics(spans, "set-up only"),
        "prefetch.inserted": Metric(
            state.inserted, "count", len(state.plan.pool()), "set-up only"
        ),
        **sim_counters(misses[:3]),
        **engine_metrics(
            span_durations(served, "engine.simulate"), misses, traced_wall, "misses, in service"
        ),
        "metrics.to_dict_s": _median([s.duration for s in probes], "probe: to_dict + JSON"),
        "metrics.from_dict_s": _median(span_durations(spans, "metrics.from_dict"), "probe"),
        "metrics.result_bytes": Metric(
            median([s.attributes["bytes"] for s in probes]), "bytes", len(probes)
        ),
        "diskcache.load_s": _median(span_durations(spans, "diskcache.load"), "probe"),
        "diskcache.hit_ratio": Metric(
            untraced.cache_hits / untraced.cache_lookups,
            "ratio",
            untraced.cache_lookups,
            f"{untraced.cache_hits} hits of {untraced.cache_lookups} lookups",
        ),
        "diskcache.store_s": _median(span_durations(spans, "diskcache.store"), "set-up only"),
        "service.post_s": _median(span_durations(spans, "service.post")),
        "service.poll_s": _median(span_durations(spans, "service.poll")),
        "service.polls_per_scenario": Metric(
            polls / len(traced.samples), "count", len(traced.samples)
        ),
        "service.get_result_s": _median(span_durations(spans, "service.get_result")),
        "service.dedup_s.p50": _median(_latencies(untraced, "dedup"), "untraced"),
        "service.disk_hit_s.p50": _median(_latencies(untraced, "disk"), "untraced"),
        "service.dedup_ratio": Metric(
            dedups / submissions, "ratio", submissions, f"{dedups} of {submissions} submissions"
        ),
        "telemetry.ledger_bytes_per_run": Metric(
            ledger_bytes / ledger_lines, "bytes", ledger_lines, f"{ledger_lines} ledger lines"
        ),
    }
    accounting = {
        "scenarios": len(traced.samples),
        "untraced_wall_s": sum(untraced.request_s) + sum(untraced.restart_s),
        "traced_wall_s": traced_wall,
        "self_s": self_times(spans, {"perfbench.request", "service.restart"}),
        "inside_service_s": _total_by_name(served),
        "extra_spans": served,
    }
    return per_layer, accounting


def _median(values: list[float], note: str = "") -> Metric:
    return Metric(median(values), "s", len(values), note)


def _total_by_name(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name.  The service's spans chain stage to stage
    (a span's parent is the stage before it), so only ``execute`` >
    ``worker.run`` > ``engine.simulate`` nest in time; no self time."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def _latencies(session: Session, kind: str) -> list[float]:
    return [s.latency_s for s in session.samples if s.kind == kind]

