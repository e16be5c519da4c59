"""Record the output digests the benchmark checks results against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Simulates, through the layers' own functions, every scenario a run with
the default seed can reach -- the engine-contended scenarios, the first
cold-pipeline scenarios, and the service-cached pool and misses -- and
writes the SHA-256 of each ``RunMetrics.to_dict()`` to
``perfbench/digests.json``, keyed by the scenario's content key (which
includes ``ENGINE_VERSION``).  Re-record only when simulated results
change on purpose, that is, together with an ``ENGINE_VERSION`` bump.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.sim.engine import ENGINE_VERSION  # noqa: E402
from repro.telemetry.tracing import SpanTracer  # noqa: E402

from perfbench import cold_pipeline, engine_contended, service_cached  # noqa: E402
from perfbench.common import DEFAULT_SEED, DIGESTS_PATH, digest, simulate_layers  # noqa: E402

#: Scenarios recorded per workload: well past what one run reaches.
COLD_SCENARIOS = 150
SERVICE_MISSES = 120


def main() -> int:
    off = SpanTracer(enabled=False)
    cold = cold_pipeline.Scenarios(DEFAULT_SEED)
    plan = service_cached.Plan(DEFAULT_SEED)
    specs = {
        engine_contended.NAME: engine_contended.scenarios(DEFAULT_SEED),
        cold_pipeline.NAME: [cold[i] for i in range(COLD_SCENARIOS)],
        service_cached.NAME: plan.pool() + [plan.miss(k) for k in range(SERVICE_MISSES)],
    }
    digests = {}
    for name, workload_specs in specs.items():
        for i, spec in enumerate(workload_specs):
            result, _inserted = simulate_layers(spec, off, "", None)
            digests[spec.config_key] = digest(result.to_dict())
            print(f"{name} {i + 1}/{len(workload_specs)} {spec.label}", file=sys.stderr)
    doc = {
        "seed": DEFAULT_SEED,
        "engine_version": ENGINE_VERSION,
        "scenarios": {name: len(s) for name, s in specs.items()},
        "digests": digests,
    }
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
