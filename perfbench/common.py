"""Shared pieces of the benchmark: statistics, output checks, spans, host.

Everything here is benchmark-side glue.  The simulator is reached only
through its public functions, which the workload modules call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics.results import RunMetrics
from repro.prefetch.insertion import insert_prefetches
from repro.service.contracts import ScenarioSpec
from repro.sim.engine import simulate
from repro.telemetry.tracing import Span, SpanTracer, stitch_chrome_trace
from repro.workloads.registry import generate_workload

#: Repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Where traces and temp cache/ledger directories go (git-ignored).
OUT_DIR = ROOT / "perfbench" / "out"

#: Recorded output digests for the default seed (see record_digests.py).
DIGESTS_PATH = ROOT / "perfbench" / "digests.json"

#: The seed whose scenario results have recorded digests.
DEFAULT_SEED = 42

#: Every scenario simulates the paper's 12-processor machine.
NUM_CPUS = 12

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Spans one traced run may keep; a run that exceeds it fails loudly.
SPAN_CAPACITY = 500_000


# ------------------------------------------------------------ statistics


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated ``pct``-percentile of the samples."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it.

    Falls back to the median when there are too few samples for any
    percentile to have ten beyond it.
    """
    if n <= 2 * TAIL_BEYOND:
        return 50
    return math.floor(100.0 * (n - TAIL_BEYOND) / n)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Metric:
    """One reported number, with the count of samples behind it."""

    value: float
    unit: str
    samples: int
    note: str = ""


def latency_metrics(prefix: str, values: list[float]) -> dict[str, Metric]:
    """``<prefix>.p50`` and ``<prefix>.tail`` of a latency sample."""
    n = len(values)
    pct = tail_pct(n)
    return {
        f"{prefix}.p50": Metric(median(values), "s", n),
        f"{prefix}.tail": Metric(percentile(values, pct), "s", n, f"p{pct}"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------- output checks


def digest(metrics: dict[str, Any]) -> str:
    """SHA-256 of a ``RunMetrics.to_dict()`` document in canonical JSON."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    """Recorded digests keyed by scenario content key."""
    with DIGESTS_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@dataclass
class Checker:
    """Checks every result and counts what was attempted and what failed.

    A result fails when it disagrees with the digest recorded for its
    scenario, with the reference the workload computed for it (an
    earlier repeat, or the in-process result of an HTTP-served one), or
    with the scenario it was asked for.
    """

    recorded: dict[str, str]
    attempted: int = 0
    failed: int = 0
    unrecorded: int = 0
    problems: list[str] = field(default_factory=list)

    def check(
        self,
        spec: Any,
        metrics: dict[str, Any] | None,
        reference: str | None = None,
        error: str | None = None,
    ) -> str | None:
        """Check one result of ``spec`` (a ScenarioSpec).

        ``error`` says why a scenario produced no result (an exception,
        an HTTP error, a timeout).  Returns the result's digest when it
        is correct, None otherwise.
        """
        self.attempted += 1
        got = digest(metrics) if metrics is not None and error is None else None
        problem = error if error is not None else self._problem(spec, metrics, got, reference)
        if problem is None:
            return got
        self.fail(f"{spec.label} seed={spec.seed} scale={spec.scale}: {problem}")
        return None

    def _problem(
        self,
        spec: Any,
        metrics: dict[str, Any] | None,
        got: str | None,
        reference: str | None,
    ) -> str | None:
        if metrics is None:
            return "no result"
        want = self.recorded.get(spec.config_key)
        if want is None:
            self.unrecorded += 1
        elif got != want:
            return f"digest {got[:12]} != recorded {want[:12]}"
        if reference is not None and got != reference:
            return f"digest {got[:12]} != reference {reference[:12]}"
        if (metrics.get("workload"), metrics.get("strategy")) != (spec.workload, spec.strategy):
            return "result is for another scenario"
        if len(metrics.get("per_cpu", ())) != spec.num_cpus:
            return "wrong processor count"
        if not metrics.get("exec_cycles"):
            return "no simulated cycles"
        return None

    def crashed(self, spec: Any, exc: BaseException) -> None:
        """Count a scenario whose run raised instead of returning a result."""
        self.check(spec, None, error=f"{type(exc).__name__}: {exc}")

    def fail(self, problem: str) -> None:
        """Count a failure found after the scenario was checked."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# ----------------------------------------------------------- the layers


def simulate_layers(
    spec: ScenarioSpec, tracer: SpanTracer, trace_id: str, parent: str | None
) -> tuple[RunMetrics, int]:
    """The same scenario through the layers' own functions, one span each.

    Returns the result and the number of prefetches inserted.
    """
    with tracer.begin("workloads.generate", trace_id, parent_id=parent) as span:
        clean = generate_workload(
            spec.workload, num_cpus=spec.num_cpus, seed=spec.seed, scale=spec.scale
        )
    span.annotate(events=sum(len(t) for t in clean.cpus))
    machine = spec.machine()
    strategy = spec.strategy_obj()
    name = "prefetch.insert" if strategy.enabled else "prefetch.np_insert"
    with tracer.begin(name, trace_id, parent_id=parent):
        annotated, report = insert_prefetches(clean, strategy, machine.cache)
    with tracer.begin("sim.simulate", trace_id, parent_id=parent):
        result = simulate(
            annotated, machine, strategy_name=spec.strategy, adaptive=strategy.adaptive_config()
        )
    return result, report.inserted


def sim_counters(results: list[RunMetrics]) -> dict[str, Metric]:
    """Engine counters summed over one pass of distinct scenarios.

    Simulated counts: they repeat exactly for a seed, and explain a
    change in ``sim.ns_per_event``.
    """
    n = len(results)
    return {
        "sim.events_retired": Metric(sum(r.events_retired for r in results), "count", n),
        "sim.bus_grants": Metric(sum(r.bus.total_ops for r in results), "count", n),
        "sim.bus_wait_cycles": Metric(sum(r.bus.total_wait_cycles for r in results), "count", n),
        "sim.bus_utilization": Metric(
            sum(r.bus_utilization for r in results) / n, "ratio", n, "mean over scenarios"
        ),
        "sim.cpu_misses": Metric(sum(r.miss_counts.cpu_misses for r in results), "count", n),
        "sim.prefetch_fills": Metric(sum(r.prefetch_fills for r in results), "count", n),
        "sim.prefetch_drops": Metric(sum(r.prefetch_drops for r in results), "count", n),
    }


def stage_metrics(spans: list[Span], note: str = "") -> dict[str, Metric]:
    """Generation and insertion times from their spans."""
    gen = span_durations(spans, "workloads.generate")
    generated = sum(s.attributes["events"] for s in spans if s.name == "workloads.generate")
    out = {
        "workloads.gen_s": Metric(median(gen), "s", len(gen), note),
        "workloads.events_per_s": Metric(generated / sum(gen), "1/s", len(gen), note),
    }
    for name in ("prefetch.insert", "prefetch.np_insert"):
        times = span_durations(spans, name)
        if times:
            out[f"{name}_s"] = Metric(median(times), "s", len(times), note)
    return out


def engine_metrics(
    simulate_s: list[float], results: list[RunMetrics], wall_s: float, note: str = ""
) -> dict[str, Metric]:
    """Engine time per call, per event and per bus grant, and its share of the wall."""
    n = len(simulate_s)
    total = sum(simulate_s)
    events = sum(r.events_retired for r in results)
    grants = sum(r.bus.total_ops for r in results)
    return {
        "sim.simulate_s": Metric(median(simulate_s), "s", n, note),
        "sim.ns_per_event": Metric(total / events * 1e9, "ns", n),
        "sim.ns_per_bus_grant": Metric(total / grants * 1e9, "ns", n),
        "sim.wall_share": Metric(total / wall_s, "ratio", n, note),
    }


# ------------------------------------------------------------------ spans


def span_tracer(enabled: bool) -> SpanTracer:
    """The repo's span collector, sized so one run never evicts a span."""
    return SpanTracer(capacity=SPAN_CAPACITY, enabled=enabled)


def layer_of(name: str) -> str:
    """Layer a span belongs to: the module prefix of its name."""
    return name.split(".", 1)[0]


def self_times(spans: list[Span], roots: set[str]) -> dict[str, float]:
    """Self time per layer, over the span trees rooted at ``roots`` names.

    A span's self time is its duration minus the part of it that its
    children cover; the benchmark's children of one span run one after
    another inside it.  Spans outside those trees -- probes, and the
    service's own spans, which overlap the client's waits -- are left
    out, so the totals sum to the roots' wall time.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent_id:
            children.setdefault(span.parent_id, []).append(span)
    totals: dict[str, float] = {}
    stack = [s for s in spans if not s.parent_id and s.name in roots]
    while stack:
        span = stack.pop()
        kids = children.get(span.span_id, [])
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + span.duration - sum(k.duration for k in kids)
        stack.extend(kids)
    return totals


def span_durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def write_trace(
    spans: list[Span], workload: str, seed: int, extra: dict[str, Any]
) -> Path:
    """Export the spans as one Chrome trace (the repo's exporter)."""
    doc = stitch_chrome_trace(spans, label=f"perfbench {workload} seed {seed}")
    doc["otherData"].update(extra)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ------------------------------------------------------------------- host


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict[str, Any]:
    """What a comparison must hold equal: pair results only on like hosts."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------ temp dirs


class ScratchDirs:
    """Temp directories inside the checkout, all removed on close.

    The benchmark never touches ``results/.cache`` or any other shared
    directory: every cache and ledger it uses lives here.
    """

    def __init__(self) -> None:
        self.root = OUT_DIR / f"tmp-{os.getpid()}"
        self._count = 0

    def new(self, name: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ------------------------------------------------------------- the loop


def run_rounds(seconds: float, round_len: int, min_rounds: int, step: Any) -> tuple[int, float]:
    """Call ``step(i)`` for whole rounds of ``round_len`` scenarios.

    Stops at the first round boundary after ``seconds`` have passed and
    at least ``min_rounds`` rounds have run, so every scenario kind is
    sampled equally often.  A host too slow to finish ``min_rounds`` in
    three times ``seconds`` stops there instead.  Returns the number of
    scenarios run and the wall time they took.
    """
    start = time.perf_counter()
    i = 0
    while True:
        if i % round_len == 0:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and i // round_len >= min_rounds:
                break
            if elapsed >= 3 * seconds and i:
                break
        step(i)
        i += 1
    return i, time.perf_counter() - start
