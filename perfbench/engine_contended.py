"""engine-contended: repeated ``simulate`` calls on saturated-bus scenarios.

Mp3d with PREF and PWS, and Topopt with PWS, on the 32-cycle bus keep
the bus 97-99% busy, so most of the engine's time goes to bus
arbitration, snooping and queueing.  Set-up generates and inserts the
traces; the timed loop calls only the engine, which is where a snoop
filter or indexed arbitration would show.  One client, closed loop:
each call starts when the previous one has been checked.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.metrics.results import RunMetrics
from repro.prefetch.insertion import insert_prefetches
from repro.service.contracts import ScenarioSpec
from repro.sim.engine import simulate
from repro.telemetry.tracing import SpanTracer, new_trace_id
from repro.trace.stream import MultiTrace
from repro.workloads.registry import generate_workload

from perfbench.common import (
    NUM_CPUS,
    Checker,
    Metric,
    engine_metrics,
    latency_metrics,
    median,
    run_rounds,
    self_times,
    sim_counters,
    span_durations,
    stage_metrics,
)

NAME = "engine-contended"

#: (workload, strategy) pairs whose bus is saturated at 32 cycles.
KINDS = (("Mp3d", "PREF"), ("Mp3d", "PWS"), ("Topopt", "PWS"))
TRANSFER_CYCLES = 32
#: Small enough for about a dozen rounds a run, large enough that the
#: bus stays 98-99% busy.
SCALE = 0.1
MIN_ROUNDS = 12


def scenarios(seed: int) -> list[ScenarioSpec]:
    """The scenario list: one trace seed per workload, drawn from ``seed``."""
    rng = random.Random(f"{NAME}:{seed}")
    trace_seeds = {workload: rng.randrange(1, 2**31) for workload, _ in KINDS}
    return [
        ScenarioSpec(
            workload=workload,
            strategy=strategy,
            num_cpus=NUM_CPUS,
            seed=trace_seeds[workload],
            scale=SCALE,
            transfer_cycles=TRANSFER_CYCLES,
        )
        for workload, strategy in KINDS
    ]


@dataclass
class Prepared:
    """One scenario ready to simulate: its annotated trace and machine."""

    spec: ScenarioSpec
    trace: MultiTrace
    machine: Any
    strategy: Any
    inserted: int


def setup(seed: int, dirs: Any, tracer: SpanTracer, checker: Checker) -> list[Prepared]:
    """Generate and insert every trace (the part this workload leaves untimed)."""
    clean: dict[tuple[str, int], MultiTrace] = {}
    prepared = []
    for spec in scenarios(seed):
        trace_id = new_trace_id()
        key = (spec.workload, spec.seed)
        if key not in clean:
            with tracer.begin("workloads.generate", trace_id, label=spec.label) as span:
                clean[key] = generate_workload(
                    spec.workload, num_cpus=spec.num_cpus, seed=spec.seed, scale=spec.scale
                )
            span.annotate(events=sum(len(t) for t in clean[key].cpus))
        machine = spec.machine()
        strategy = spec.strategy_obj()
        with tracer.begin("prefetch.insert", trace_id, label=spec.label):
            annotated, report = insert_prefetches(clean[key], strategy, machine.cache)
        prepared.append(Prepared(spec, annotated, machine, strategy, report.inserted))
    return prepared


def close(state: Any) -> None:
    """Nothing to release: set-up holds only in-memory traces."""


@dataclass
class Sample:
    scenario_s: float
    simulate_s: float
    result: RunMetrics


def _loop(
    prepared: list[Prepared],
    checker: Checker,
    tracer: SpanTracer,
    seconds: float = 0.0,
    min_rounds: int = 0,
    count: int | None = None,
) -> tuple[list[Sample], float]:
    """Simulate the scenarios round-robin for ``seconds``, or ``count`` of them."""
    references: dict[int, str] = {}
    samples: list[Sample] = []

    def step(i: int) -> None:
        job = prepared[i % len(prepared)]
        trace_id = new_trace_id()
        t0 = time.perf_counter()
        with tracer.begin("perfbench.scenario", trace_id, label=job.spec.label) as root:
            try:
                with tracer.begin("sim.simulate", trace_id, parent_id=root.span_id or None):
                    result = simulate(
                        job.trace,
                        job.machine,
                        strategy_name=job.spec.strategy,
                        adaptive=job.strategy.adaptive_config(),
                    )
                t1 = time.perf_counter()
                with tracer.begin("metrics.to_dict", trace_id, parent_id=root.span_id or None):
                    data = result.to_dict()
            except Exception as exc:  # a failed scenario counts; the run goes on
                checker.crashed(job.spec, exc)
                return
            got = checker.check(job.spec, data, references.get(i % len(prepared)))
            if got is not None:
                references.setdefault(i % len(prepared), got)
        samples.append(Sample(time.perf_counter() - t0, t1 - t0, result))

    if count is None:
        _n, wall = run_rounds(seconds, len(prepared), min_rounds, step)
    else:
        start = time.perf_counter()
        for i in range(count):
            step(i)
        wall = time.perf_counter() - start
    return samples, wall


def measure(prepared: list[Prepared], seconds: float, checker: Checker) -> dict[str, Metric]:
    """The untraced run: every end-to-end metric of this workload."""
    samples, wall = _loop(
        prepared, checker, SpanTracer(enabled=False), seconds, MIN_ROUNDS
    )
    n = len(samples)
    events = sum(s.result.events_retired for s in samples)
    times = [s.scenario_s for s in samples]
    out = {
        "events_per_s": Metric(
            events / sum(s.simulate_s for s in samples), "1/s", n, "engine only"
        ),
        **latency_metrics("scenario_s", times),
        "miss_s.p50": Metric(median(times), "s", n, "every call simulates; no result cache"),
        "scenarios_per_s": Metric(n / wall, "1/s", n),
    }
    return out


def trace(
    prepared: list[Prepared],
    seconds: float,
    checker: Checker,
    tracer: SpanTracer,
) -> tuple[dict[str, Metric], dict[str, Any]]:
    """The traced run: per-layer numbers and the wall-time accounting.

    Half the time runs untraced; the traced half then runs exactly the
    same scenarios, so the two walls compare like for like.
    """
    untraced, _wall = _loop(
        prepared, checker, SpanTracer(enabled=False), seconds / 2, MIN_ROUNDS // 2
    )
    traced, _wall = _loop(prepared, checker, tracer, count=len(untraced))
    spans = tracer.spans()
    first = [s.result for s in traced[: len(prepared)]]
    wall = sum(span_durations(spans, "perfbench.scenario"))
    per_layer = {
        **stage_metrics(spans, "set-up only"),
        "prefetch.inserted": Metric(sum(p.inserted for p in prepared), "count", len(prepared)),
        **sim_counters(first),
        **engine_metrics(span_durations(spans, "sim.simulate"), [s.result for s in traced], wall),
        "metrics.to_dict_s": Metric(
            median(span_durations(spans, "metrics.to_dict")), "s", len(traced)
        ),
        "metrics.result_bytes": Metric(
            median([len(json.dumps(r.to_dict())) for r in first]), "bytes", len(first)
        ),
    }
    accounting = {
        "scenarios": len(traced),
        "untraced_wall_s": sum(s.scenario_s for s in untraced),
        "traced_wall_s": wall,
        "self_s": self_times(spans, {"perfbench.scenario"}),
    }
    return per_layer, accounting

