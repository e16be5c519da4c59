"""cold-pipeline: one fresh ``ExperimentRunner.run`` per scenario, no disk cache.

Scenarios rotate over Water and LocusRoute with NP, PREF and PWS on the
8-cycle bus, which stays below saturation.  Every scenario draws its own
workload seed from the benchmark seed, so nothing is reused: trace
generation, prefetch insertion and the engine's hit-heavy fast path all
do real work on every scenario.  The disk cache and the service do
nothing here.  One client, closed loop.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.service.contracts import ScenarioSpec
from repro.telemetry.tracing import SpanTracer, new_trace_id

from perfbench.common import (
    NUM_CPUS,
    Checker,
    Metric,
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

NAME = "cold-pipeline"

KINDS = tuple((w, s) for w in ("Water", "LocusRoute") for s in ("NP", "PREF", "PWS"))
TRANSFER_CYCLES = 8
#: Successive rounds of the six kinds step through these scales, and a
#: run measures whole cycles of them, so every run times the same mix.
#: Spreading the sizes keeps percentiles off the gap between two
#: kinds' clusters, where they would jump between runs.  Water traces
#: stop shrinking below scale 0.1.
SCALES = tuple(round(0.1 + 0.1 * k / 7, 3) for k in range(8))
CYCLE = len(KINDS) * len(SCALES)
MIN_CYCLES = 1
#: Scenarios re-run through the direct layer calls when the seed has no
#: recorded digests: one round, every kind once.
SPOT_CHECKS = len(KINDS)


class Scenarios:
    """The endless scenario list of one benchmark seed, built on demand."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"{NAME}:{seed}")
        self._seen: set[int] = set()
        self._specs: list[ScenarioSpec] = []

    def __getitem__(self, i: int) -> ScenarioSpec:
        while len(self._specs) <= i:
            j = len(self._specs)
            seed = self._rng.randrange(1, 2**31)
            while seed in self._seen:
                seed = self._rng.randrange(1, 2**31)
            self._seen.add(seed)
            workload, strategy = KINDS[j % len(KINDS)]
            self._specs.append(
                ScenarioSpec(
                    workload=workload,
                    strategy=strategy,
                    num_cpus=NUM_CPUS,
                    seed=seed,
                    scale=SCALES[j // len(KINDS) % len(SCALES)],
                    transfer_cycles=TRANSFER_CYCLES,
                )
            )
        return self._specs[i]


def setup(seed: int, dirs: Any, tracer: SpanTracer, checker: Checker) -> Scenarios:
    """Build the scenario list and warm the pipeline once per kind.

    The warm-up runs each kind at the smallest scale through a fresh
    runner, so lazy imports and first-call set-up are paid here, not by
    the first timed scenario.
    """
    scenarios = Scenarios(seed)
    for workload, strategy in KINDS:
        spec = ScenarioSpec(workload=workload, strategy=strategy, num_cpus=NUM_CPUS, scale=0.01)
        ExperimentRunner(num_cpus=NUM_CPUS, seed=spec.seed, scale=spec.scale).run(
            spec.workload, spec.strategy_obj(), spec.machine()
        )
    return scenarios


def close(state: Any) -> None:
    """Nothing to release: set-up holds only in-memory traces."""


@dataclass
class Sample:
    index: int
    scenario_s: float
    run_s: float
    digest: str | None
    result: RunMetrics


def run_cold(spec: ScenarioSpec) -> RunMetrics:
    """One scenario through a fresh runner with no disk cache."""
    runner = ExperimentRunner(num_cpus=spec.num_cpus, seed=spec.seed, scale=spec.scale)
    return runner.run(spec.workload, spec.strategy_obj(), spec.machine())


def measure(scenarios: Scenarios, seconds: float, checker: Checker) -> dict[str, Metric]:
    """The untraced run: every end-to-end metric of this workload."""
    samples, wall = _untraced(scenarios, seconds, MIN_CYCLES, checker)
    unrecorded = [
        s
        for s in samples
        if s.digest is not None and scenarios[s.index].config_key not in checker.recorded
    ]
    for sample in unrecorded[:SPOT_CHECKS]:
        result, _inserted = simulate_layers(
            scenarios[sample.index], SpanTracer(enabled=False), "", None
        )
        if digest(result.to_dict()) != sample.digest:
            checker.fail(f"{scenarios[sample.index].label}: runner and layer calls disagree")
    n = len(samples)
    times = [s.scenario_s for s in samples]
    events = sum(s.result.events_retired for s in samples)
    return {
        "events_per_s": Metric(
            events / sum(s.run_s for s in samples), "1/s", n, "generate + insert + simulate"
        ),
        **latency_metrics("scenario_s", times),
        "miss_s.p50": Metric(median(times), "s", n, "every scenario is cold; no result cache"),
        "scenarios_per_s": Metric(n / wall, "1/s", n),
    }


def _untraced(
    scenarios: Scenarios, seconds: float, min_cycles: int, checker: Checker
) -> tuple[list[Sample], float]:
    samples: list[Sample] = []

    def step(i: int) -> None:
        spec = scenarios[i]
        t0 = time.perf_counter()
        try:
            result = run_cold(spec)
            t1 = time.perf_counter()
            data = result.to_dict()
        except Exception as exc:  # a failed scenario counts; the run goes on
            checker.crashed(spec, exc)
            return
        got = checker.check(spec, data)
        samples.append(Sample(i, time.perf_counter() - t0, t1 - t0, got, result))

    _n, wall = run_rounds(seconds, CYCLE, min_cycles, step)
    return samples, wall


def trace(
    scenarios: Scenarios, seconds: float, checker: Checker, tracer: SpanTracer
) -> tuple[dict[str, Metric], dict[str, Any]]:
    """The traced run: per-layer numbers and the wall-time accounting.

    Half the time runs the untraced runner path; the same scenarios then
    run through the layers' own functions with a span around each call.
    Each traced result must equal the runner's.
    """
    untraced, _wall = _untraced(scenarios, seconds / 2, MIN_CYCLES, checker)
    results: list[RunMetrics] = []
    inserted: list[int] = []
    stage_s: list[float] = []
    for sample in untraced:
        spec = scenarios[sample.index]
        trace_id = new_trace_id()
        with tracer.begin("perfbench.scenario", trace_id, label=spec.label) as root:
            t0 = time.perf_counter()
            try:
                result, count = simulate_layers(spec, tracer, trace_id, root.span_id)
                stage_s.append(time.perf_counter() - t0)
                with tracer.begin("metrics.to_dict", trace_id, parent_id=root.span_id):
                    data = result.to_dict()
            except Exception as exc:  # a failed scenario counts; the run goes on
                checker.crashed(spec, exc)
                continue
            checker.check(spec, data, sample.digest)
        results.append(result)
        inserted.append(count)
    spans = tracer.spans()
    first = results[: len(KINDS)]
    wall = sum(span_durations(spans, "perfbench.scenario"))
    per_layer = {
        **stage_metrics(spans),
        "prefetch.inserted": Metric(sum(inserted[: len(KINDS)]), "count", len(first)),
        **sim_counters(first),
        **engine_metrics(span_durations(spans, "sim.simulate"), results, wall),
        "metrics.result_bytes": Metric(
            median([len(json.dumps(r.to_dict())) for r in first]), "bytes", len(first)
        ),
        "metrics.to_dict_s": Metric(
            median(span_durations(spans, "metrics.to_dict")), "s", len(results)
        ),
        "experiments.overhead_s": Metric(
            median([u.run_s - s for u, s in zip(untraced, stage_s)]),
            "s",
            len(stage_s),
            "untraced runner.run minus traced generate+insert+simulate",
        ),
    }
    accounting = {
        "scenarios": len(results),
        "untraced_wall_s": sum(s.scenario_s for s in untraced),
        "traced_wall_s": wall,
        "self_s": self_times(spans, {"perfbench.scenario"}),
    }
    return per_layer, accounting

