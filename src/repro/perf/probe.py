"""Engine micro-benchmark, run as a script on each side of ``repro bench``.

``PYTHONPATH=<tree>/src python src/repro/perf/probe.py`` prints one JSON
line: ``events_per_s`` measured on that tree's engine, and ``engine``,
the path of the engine module it imported.  The probe generates the
hit-heavy Water trace (12 CPUs, the paper's scale, seed 42) outside the
timed region, simulates it three times and reports the fastest run:
scheduler noise and neighbours only ever slow a run down, so the
minimum is the robust estimate of the engine's cost.

It reaches the simulator only through ``generate_workload``,
``simulate`` and ``MachineConfig``, which every revision since the
engine fast path has, so this one file measures both sides of an A/B.
Its imports must stay within those names and the standard library.
"""

from __future__ import annotations

import json
import time

from repro.common.config import MachineConfig
from repro.sim.engine import simulate
from repro.workloads.registry import generate_workload


def microbench(
    workload: str = "Water",
    num_cpus: int = 12,
    scale: float = 1.0,
    seed: int = 42,
    repeats: int = 3,
) -> float:
    """Engine throughput in trace events per second, best of ``repeats``."""
    trace = generate_workload(workload, num_cpus=num_cpus, seed=seed, scale=scale)
    events = sum(len(cpu_trace.events) for cpu_trace in trace)
    machine = MachineConfig(num_cpus=num_cpus)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate(trace, machine)
        best = min(best, time.perf_counter() - t0)
    return events / best


if __name__ == "__main__":
    engine = simulate.__code__.co_filename
    print(json.dumps({"events_per_s": microbench(), "engine": engine}))
