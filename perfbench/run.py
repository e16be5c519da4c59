"""The repo benchmark: three workloads, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-contended --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
numbers, each layer's self time and the tracing overhead, and writes
the spans as a Chrome trace under ``perfbench/out/``.  ``--workload
all`` runs every workload in turn, each in its own process.

The report lists every metric with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json``.  Every simulated result is checked (see
:class:`perfbench.common.Checker`); ``error_rate`` is ``failed`` over
``attempted``.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("engine-contended", "cold-pipeline", "service-cached")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    _pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args, seconds)
    return _run_one(spec, args.workload, args.seed, seconds, bool(args.trace))


def _pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts, on one CPU.

    The interpreter lock lets one thread run at a time anyway; on one
    CPU, the hand-offs between the client, the service's event loop and
    its executor thread do not wait for a second CPU that the host may
    have descheduled, which made service-cached timings swing widely.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _run_all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} gave no result (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        status = max(status, child.returncode)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return status


def _run_one(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench import cold_pipeline, engine_contended, service_cached
    from perfbench.common import (
        Checker,
        Metric,
        ScratchDirs,
        host_fingerprint,
        load_digests,
        median,
        peak_rss_mb,
        span_tracer,
        write_trace,
    )

    module = {
        "engine-contended": engine_contended,
        "cold-pipeline": cold_pipeline,
        "service-cached": service_cached,
    }[name]
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    checker = Checker(load_digests())
    dirs = ScratchDirs()
    host = host_fingerprint()
    print(f"perfbench {name}  seed {seed}  {seconds:g} s  {'traced' if traced else 'untraced'}")
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    state = None
    try:
        if traced:
            tracer = span_tracer(True)
            state = module.setup(seed, dirs, tracer, checker)
            metrics, accounting = module.trace(state, seconds, checker, tracer)
            spans = tracer.spans() + accounting.pop("extra_spans", [])
            if tracer.dropped:
                checker.fail(f"{tracer.dropped} spans dropped")
            _print_accounting(accounting)
            metrics["trace.overhead_s"] = Metric(
                (accounting["traced_wall_s"] - accounting["untraced_wall_s"])
                / accounting["scenarios"],
                "s",
                accounting["scenarios"],
                "per scenario, traced minus untraced",
            )
            path = write_trace(spans, name, seed, {"host": host, "accounting": accounting})
            print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        else:
            untraced = span_tracer(False)
            setup_s = []
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    module.close(state)
                t0 = time.perf_counter()
                state = module.setup(seed, dirs, untraced, checker)
                setup_s.append(time.perf_counter() - t0)
            metrics = module.measure(state, seconds, checker)
            metrics["setup_s"] = Metric(median(setup_s), "s", len(setup_s), "median of set-ups")
            metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB", 1)
    finally:
        if state is not None:
            module.close(state)
        dirs.close()

    for entry in declared:
        if entry["name"] not in metrics:
            if not traced:
                raise RuntimeError(f"{name} did not measure {entry['name']}")
            metrics[entry["name"]] = Metric(0.0, entry["unit"], 0, "not on this workload's path")
    error_rate = checker.failed / max(checker.attempted, 1)
    print(f"{'metric':<30} {'value':>14} {'unit':<6} {'samples':>7}  note")
    for entry in declared:
        m = metrics[entry["name"]]
        print(f"{entry['name']:<30} {m.value:>14.6g} {entry['unit']:<6} {m.samples:>7}  {m.note}")
    print(
        f"{'error_rate':<30} {error_rate:>14.6g} {'ratio':<6} {checker.attempted:>7}  "
        f"{checker.failed} failed of {checker.attempted} attempted; "
        f"{checker.attempted - checker.unrecorded} checked against recorded digests"
    )
    for problem in checker.problems:
        print(f"FAILED: {problem}")
    correct = checker.failed == 0 and checker.attempted > 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]].value, "unit": e["unit"]} for e in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _print_accounting(accounting: dict) -> None:
    """Self time per layer, and how it adds up to the untraced wall time."""
    traced = accounting["traced_wall_s"]
    untraced = accounting["untraced_wall_s"]
    print(f"self time per layer over {accounting['scenarios']} traced scenarios:")
    for layer, seconds in sorted(accounting["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:10.4f} s  {100 * seconds / traced:5.1f}%")
    total = sum(accounting["self_s"].values())
    print(f"  {'sum':<12} {total:10.4f} s  (traced wall {traced:.4f} s)")
    print(f"  tracing overhead (traced - untraced wall): {traced - untraced:+.4f} s")
    print(
        f"  self times - overhead = {total - (traced - untraced):.4f} s;"
        f" untraced wall {untraced:.4f} s"
    )
    inside = accounting.get("inside_service_s")
    if inside:
        print("  inside the service (seconds per span; overlaps the client's waits):")
        for name, seconds in sorted(inside.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<20} {seconds:10.4f} s  {100 * seconds / traced:5.1f}% of wall")


if __name__ == "__main__":
    sys.exit(main())
