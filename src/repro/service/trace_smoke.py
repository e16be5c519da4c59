"""End-to-end tracing smoke: one causal timeline over real HTTP, in CI.

``python -m repro.service.trace_smoke --out results/trace_smoke``

Boots a real ``repro serve --trace`` subprocess on a free port and
verifies the tracing contract the docs promise:

1. submit one run and check the ``X-Repro-Trace-Id`` header, the run
   ref's ``trace_id``, and the run document's ``trace_id`` all agree;
2. fetch ``GET /runs/{id}/trace`` and validate it against the Chrome
   trace golden schema (``M``/``X``/``i`` phases, fully keyed complete
   events) with both the service track (pid 10) and the engine tracks
   (pids 0-2) present;
3. reconcile the timeline three ways: the ``worker.run`` span against
   the ledger entry's ``wall_seconds``, the ``execute`` span against
   its children, and the ``/metrics``
   ``repro_service_stage_seconds_sum{stage=...}`` totals against the
   span durations (trace and metrics are fed by the same hook, so they
   must agree to rounding);
4. check the ledger line for the run carries the same ``trace_id``;
5. SIGTERM the server and require a *graceful* exit: code 0 after
   draining (the shutdown satellite, exercised across a process
   boundary).

The transcript and the stitched trace document are both written to the
output directory as CI artifacts; a red run is diagnosable -- and the
trace loadable in Perfetto -- from the artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path
from typing import Any

from repro.service.smoke import (
    SmokeFailure,
    Transcript,
    _free_port,
    _poll_runs,
    _request,
    _require,
    _wait_ready,
)
from repro.telemetry.tracing import SERVICE_PID

#: One point, submitted alone so the run trace reaches back to HTTP parse.
SPEC = {
    "workload": "Water",
    "strategy": "PREF",
    "num_cpus": 4,
    "scale": 0.05,
    "transfer_cycles": 8,
}

#: Service stages the stitched trace must contain for a single-point POST.
EXPECTED_STAGES = {
    "request.parse",
    "request.validate",
    "submit",
    "queue.wait",
    "batch.assemble",
    "execute",
    "executor.dispatch",
    "worker.run",
    "workload.generate",
    "prefetch.insert",
    "engine.simulate",
}

#: Slack for wall-clock reconciliation, in seconds.  Spans and the
#: ledger measure the same interval from different vantage points
#: (worker process vs parent), so scheduling overhead -- not rounding --
#: bounds the disagreement.
WALL_SLACK = 1.0


def _post_with_headers(
    transcript: Transcript, url: str, body: dict[str, Any]
) -> tuple[dict[str, str], Any]:
    """POST returning (headers, decoded body); recorded in the transcript."""
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        headers = {k: v for k, v in resp.headers.items()}
        decoded = json.loads(resp.read().decode("utf-8"))
    transcript.record("http", method="POST", url=url, request=body,
                      status=200, response=decoded,
                      trace_header=headers.get("X-Repro-Trace-Id"))
    return headers, decoded


def _validate_chrome_schema(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Golden Chrome-trace schema checks; returns service spans by stage."""
    events = doc.get("traceEvents")
    _require(isinstance(events, list) and len(events) > 0, "traceEvents missing/empty")
    other = doc.get("otherData", {})
    _require(other.get("timestamp_unit") == "microseconds",
             f"timestamp_unit: {other.get('timestamp_unit')!r}")
    for key in ("trace_id", "run_id", "label", "service_spans", "engine"):
        _require(key in other, f"otherData missing {key}")
    phases = {e["ph"] for e in events}
    _require("M" in phases and "X" in phases, f"phases seen: {sorted(phases)}")
    for event in events:
        _require(event["ph"] in ("M", "X", "i"), f"unexpected phase: {event}")
        if event["ph"] == "M":
            _require(event["name"] in ("process_name", "thread_name"),
                     f"bad metadata event: {event}")
            _require("name" in event["args"], f"metadata missing args.name: {event}")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            _require(key in event, f"missing {key}: {event}")
        if event["ph"] == "X":
            _require(event["dur"] >= 0, f"negative duration: {event}")
        else:
            _require(event["s"] == "t", f"instant without scope: {event}")
    pids = {e["pid"] for e in events}
    _require(SERVICE_PID in pids, f"no service track (pid {SERVICE_PID}): {sorted(pids)}")
    _require(0 in pids, f"no engine cpu track (pid 0): {sorted(pids)}")
    stages = {
        e["name"]: e
        for e in events
        if e["ph"] == "X" and e["pid"] == SERVICE_PID
    }
    missing = EXPECTED_STAGES - set(stages)
    _require(not missing, f"stitched trace missing stages: {sorted(missing)}")
    return stages


def _stage_sums(metrics_text: str) -> dict[str, float]:
    """Parse repro_service_stage_seconds_sum{stage="..."} from /metrics."""
    sums: dict[str, float] = {}
    for line in metrics_text.splitlines():
        if line.startswith('repro_service_stage_seconds_sum{stage="'):
            label, _, value = line.partition("} ")
            stage = label.split('"')[1]
            sums[stage] = float(value)
    return sums


def _ledger_entry_for(ledger_dir: str, config_key: str):
    from repro.telemetry.ledger import RunLedger

    for entry in RunLedger(ledger_dir).entries():
        if entry.config_key == config_key and entry.outcome == "ok":
            return entry
    return None


def run_trace_smoke(out_dir: str) -> int:
    transcript = Transcript()
    out = Path(out_dir)
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    cache_dir = str(out / "cache")
    ledger_dir = str(out / "ledger")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--cache", cache_dir, "--ledger-dir", ledger_dir,
        "--trace", "--drain-timeout", "60",
    ]
    transcript.record("spawn", cmd=cmd)
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    ok = False
    try:
        _wait_ready(transcript, base, proc)

        # 1. One trace id, three vantage points.
        headers, submit = _post_with_headers(transcript, f"{base}/runs", SPEC)
        trace_id = headers.get("X-Repro-Trace-Id")
        _require(bool(trace_id), "POST /runs did not return X-Repro-Trace-Id")
        ref = submit["runs"][0]
        _require(ref.get("trace_id") == trace_id,
                 f"ref trace_id {ref.get('trace_id')} != header {trace_id}")
        run_id = ref["run_id"]
        final = _poll_runs(transcript, base, [run_id])
        doc = final[run_id]
        _require(doc["status"] == "completed", f"run failed: {doc['error']}")
        _require(doc.get("trace_id") == trace_id,
                 f"run document trace_id {doc.get('trace_id')} != header {trace_id}")

        # 2. Stitched trace: golden Chrome schema, service + engine tracks.
        _, trace_doc = _request(transcript, "GET", f"{base}/runs/{run_id}/trace")
        stages = _validate_chrome_schema(trace_doc)
        _require(trace_doc["otherData"]["trace_id"] == trace_id, "trace_id mismatch in trace doc")
        _require(trace_doc["otherData"]["run_id"] == run_id, "run_id mismatch in trace doc")
        engine_meta = trace_doc["otherData"]["engine"]
        _require(engine_meta["exec_cycles"] > 0, f"engine metadata: {engine_meta}")
        (out / "trace.json").parent.mkdir(parents=True, exist_ok=True)
        (out / "trace.json").write_text(
            json.dumps(trace_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        # 3. Three-way reconciliation: ledger wall time, span nesting,
        #    and the /metrics stage histograms.
        entry = _ledger_entry_for(ledger_dir, doc["config_key"])
        _require(entry is not None, "no ok ledger entry for the run")
        _require(entry.trace_id == trace_id,
                 f"ledger trace_id {entry.trace_id} != header {trace_id}")
        worker_s = stages["worker.run"]["dur"] / 1e6
        execute_s = stages["execute"]["dur"] / 1e6
        queue_s = stages["queue.wait"]["dur"] / 1e6
        _require(abs(worker_s - entry.wall_seconds) < WALL_SLACK,
                 f"worker.run span {worker_s:.3f}s vs ledger wall "
                 f"{entry.wall_seconds:.3f}s (slack {WALL_SLACK}s)")
        _require(execute_s + WALL_SLACK >= worker_s,
                 f"execute span {execute_s:.3f}s shorter than worker.run {worker_s:.3f}s")
        _require(queue_s >= 0, "negative queue wait")
        _, metrics_text = _request(transcript, "GET", f"{base}/metrics")
        sums = _stage_sums(metrics_text)
        for stage in ("queue.wait", "execute", "worker.run"):
            span_s = stages[stage]["dur"] / 1e6
            _require(stage in sums, f"/metrics missing stage histogram for {stage}")
            _require(abs(sums[stage] - span_s) < WALL_SLACK,
                     f"stage {stage}: /metrics sum {sums[stage]:.3f}s vs span "
                     f"{span_s:.3f}s")
        _require("repro_service_request_seconds" in metrics_text,
                 "/metrics missing repro_service_request_seconds")
        transcript.record(
            "reconciled", trace_id=trace_id, run_id=run_id,
            worker_seconds=round(worker_s, 6),
            ledger_wall_seconds=entry.wall_seconds,
            execute_seconds=round(execute_s, 6),
            queue_wait_seconds=round(queue_s, 6),
            metrics_stage_sums=sums,
        )

        # 4. Graceful shutdown: SIGTERM must drain and exit 0.
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=90)
        _require(code == 0, f"SIGTERM exit code {code}, wanted graceful 0")
        transcript.record("graceful_shutdown", exit_code=code)
        ok = True
    finally:
        transcript.record("shutdown", server_alive=proc.poll() is None)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=15)
        if proc.stdout is not None:
            transcript.record("server_log", tail=proc.stdout.read()[-8000:])
        transcript.write(out / "transcript.json", ok)
    print(f"trace smoke: {'ok' if ok else 'FAILED'} ({len(transcript.steps)} steps, "
          f"artifacts: {out})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro service tracing smoke")
    parser.add_argument(
        "--out", default="results/trace_smoke",
        help="artifact directory (transcript.json, trace.json, cache, ledger)",
    )
    args = parser.parse_args(argv)
    try:
        return run_trace_smoke(args.out)
    except SmokeFailure as exc:
        print(f"trace smoke: FAILED -- {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
