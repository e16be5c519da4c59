"""End-to-end service smoke: the acceptance demo, runnable in CI.

``python -m repro.service.smoke --out results/service_smoke.json``

Boots a real ``repro serve`` subprocess on a free port, then drives the
whole contract over actual HTTP:

1. submit a 2x2 sweep (NP/PREF x 4c/8c bus) in one POST and poll every
   run to ``completed``;
2. resubmit the identical sweep and verify dedup -- same run ids,
   ``deduped: true``, and the ledger's ``simulated_runs`` count
   unchanged (the million-identical-requests property, at n=2x2x2);
3. fetch one run's result and compare it **bit-identical** against a
   direct in-process ``ExperimentRunner.run`` of the same
   :class:`~repro.service.contracts.ScenarioSpec`;
4. scrape ``/metrics`` and check the request/dedup/cache families are
   exposed;
5. validate every response against hand-rolled schema checks.

Every request/response pair is recorded into a JSON transcript
(uploaded as a CI artifact), so a red run is diagnosable from the
artifact alone.

:func:`spawned_server` owns the server's set-up and teardown; the
tracing smoke (:mod:`repro.service.trace_smoke`) runs under it too.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

#: The sweep: small enough for CI (4 CPUs, 5% scale), wide enough to
#: exercise batching across strategies and machine points.
SWEEP = {
    "sweep": {
        "workload": "Water",
        "strategy": ["NP", "PREF"],
        "transfer_cycles": [4, 8],
        "num_cpus": 4,
        "scale": 0.05,
    }
}

#: Keys every run reference must carry.
REF_SCHEMA = {"run_id", "config_key", "label", "status", "created_at", "deduped"}

#: Keys every run metadata document must carry.
RUN_SCHEMA = {
    "run_id", "config_key", "label", "status", "spec", "created_at",
    "started_at", "finished_at", "error", "submissions", "source", "progress",
}

#: Metric families the scrape must expose.
METRIC_FAMILIES = (
    "repro_service_requests_total",
    "repro_service_submissions_total",
    "repro_service_queue_depth",
    "repro_runs_total",
    "repro_cache_entries",
)


class SmokeFailure(AssertionError):
    """One contract check did not hold."""


class Transcript:
    """Ordered record of every step; written as the CI artifact."""

    def __init__(self) -> None:
        self.steps: list[dict[str, Any]] = []

    def record(self, step: str, **detail: Any) -> None:
        self.steps.append({"step": step, **detail})

    def write(self, path: str | Path, ok: bool) -> None:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"ok": ok, "steps": self.steps}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(
    transcript: Transcript,
    method: str,
    url: str,
    body: dict[str, Any] | None = None,
    expect: int = 200,
) -> tuple[int, Any]:
    """One HTTP exchange, recorded; JSON-decodes JSON responses."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            status = resp.status
            raw = resp.read()
            content_type = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        status = exc.code
        raw = exc.read()
        content_type = exc.headers.get("Content-Type", "")
    decoded: Any = raw.decode("utf-8", "replace")
    if content_type.startswith("application/json"):
        decoded = json.loads(decoded)
    transcript.record(
        "http", method=method, url=url, request=body, status=status,
        response=decoded if not isinstance(decoded, str) or len(decoded) < 20000
        else decoded[:20000],
    )
    if status != expect:
        raise SmokeFailure(f"{method} {url}: expected HTTP {expect}, got {status}: {decoded}")
    return status, decoded


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _wait_ready(transcript: Transcript, base: str, proc: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SmokeFailure(f"server exited early with code {proc.returncode}")
        try:
            _request(transcript, "GET", f"{base}/healthz")
            return
        except (urllib.error.URLError, ConnectionError, SmokeFailure):
            time.sleep(0.2)
    raise SmokeFailure(f"server not ready within {timeout}s")


def _poll_runs(transcript: Transcript, base: str, run_ids: list[str], timeout: float = 600.0) -> dict[str, dict]:
    """Poll every run to a terminal state; returns final documents."""
    deadline = time.monotonic() + timeout
    final: dict[str, dict] = {}
    while len(final) < len(run_ids):
        if time.monotonic() > deadline:
            raise SmokeFailure(f"runs not terminal within {timeout}s: "
                               f"{sorted(set(run_ids) - set(final))}")
        for run_id in run_ids:
            if run_id in final:
                continue
            _, doc = _request(transcript, "GET", f"{base}/runs/{run_id}")
            missing = RUN_SCHEMA - set(doc)
            _require(not missing, f"run document missing keys: {sorted(missing)}")
            if doc["status"] in ("completed", "failed"):
                final[run_id] = doc
        time.sleep(0.3)
    return final


def _ledger_simulated_runs(ledger_dir: str) -> int:
    from repro.telemetry.ledger import RunLedger

    return RunLedger(ledger_dir).summarize()["simulated_runs"]


@contextmanager
def spawned_server(
    transcript: Transcript,
    transcript_path: str | Path,
    workdir: str | Path,
    serve_flags: Sequence[str] = (),
) -> Iterator[tuple[str, str, subprocess.Popen]]:
    """Run ``repro serve`` on a free port for the body of a ``with``.

    The server keeps its cache and ledger under ``workdir`` and gets
    ``serve_flags`` appended to its command line; the body receives
    ``(base_url, ledger_dir, proc)`` once ``/healthz`` answers.  On the
    way out -- pass or fail -- a still-running server is interrupted
    (killed if it will not stop), the tail of its output joins the
    transcript, and the transcript is written to ``transcript_path``
    with ``ok`` true only if the body finished without raising.
    """
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    cache_dir = str(Path(workdir) / "cache")
    ledger_dir = str(Path(workdir) / "ledger")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--cache", cache_dir, "--ledger-dir", ledger_dir,
        *serve_flags,
    ]
    transcript.record("spawn", cmd=cmd, cache=cache_dir, ledger=ledger_dir)
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    ok = False
    try:
        _wait_ready(transcript, base, proc)
        yield base, ledger_dir, proc
        ok = True
    finally:
        transcript.record("shutdown", server_alive=proc.poll() is None)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        if proc.stdout is not None:
            transcript.record("server_log", tail=proc.stdout.read()[-8000:])
        transcript.write(transcript_path, ok)


def run_smoke(out_path: str, workdir: str) -> int:
    transcript = Transcript()
    with spawned_server(transcript, out_path, workdir) as (base, ledger_dir, _proc):
        # 1. Submit the 2x2 sweep and poll to completion.
        _, submit = _request(transcript, "POST", f"{base}/runs", body=SWEEP, expect=202)
        _require(submit["count"] == 4, f"sweep expanded to {submit['count']} runs, wanted 4")
        for ref in submit["runs"]:
            missing = REF_SCHEMA - set(ref)
            _require(not missing, f"run ref missing keys: {sorted(missing)}")
            _require(not ref["deduped"], f"first submission claims dedup: {ref}")
        run_ids = [ref["run_id"] for ref in submit["runs"]]
        _require(len(set(run_ids)) == 4, "sweep produced colliding run ids")
        final = _poll_runs(transcript, base, run_ids)
        failed = {rid: doc for rid, doc in final.items() if doc["status"] != "completed"}
        _require(not failed, f"runs failed: { {r: d['error'] for r, d in failed.items()} }")

        # 2. Resubmit: identical refs, no new simulations.
        simulated_before = _ledger_simulated_runs(ledger_dir)
        _, resubmit = _request(transcript, "POST", f"{base}/runs", body=SWEEP, expect=202)
        _require(
            sorted(r["run_id"] for r in resubmit["runs"]) == sorted(run_ids),
            "resubmission returned different run ids",
        )
        for ref in resubmit["runs"]:
            _require(ref["deduped"], f"resubmission was not deduped: {ref}")
        simulated_after = _ledger_simulated_runs(ledger_dir)
        _require(
            simulated_after == simulated_before,
            f"dedup leaked a simulation: ledger simulated_runs "
            f"{simulated_before} -> {simulated_after}",
        )
        transcript.record(
            "dedup", simulated_runs=simulated_after, resubmitted=len(resubmit["runs"])
        )

        # 3. Bit-identical result vs a direct in-process run.
        from repro.experiments.runner import ExperimentRunner
        from repro.service.contracts import ScenarioSpec

        spec = ScenarioSpec(
            workload="Water", strategy="PREF", num_cpus=4, scale=0.05, transfer_cycles=8
        )
        _require(spec.run_id in run_ids, "reference spec's run id not among sweep runs")
        _, result = _request(transcript, "GET", f"{base}/runs/{spec.run_id}/result")
        direct = ExperimentRunner(num_cpus=4, scale=0.05).run(
            spec.workload, spec.strategy_obj(), spec.machine()
        )
        _require(
            result["metrics"] == direct.to_dict(),
            "HTTP result differs from a direct simulate() of the same spec",
        )
        transcript.record("bit_identical", run_id=spec.run_id,
                          exec_cycles=direct.exec_cycles)

        # 4. List + filters.
        _, listing = _request(transcript, "GET", f"{base}/runs?status=completed")
        _require(listing["count"] >= 4, f"expected >=4 completed runs, got {listing['count']}")

        # 5. Metrics scrape.
        _, metrics_text = _request(transcript, "GET", f"{base}/metrics")
        for family in METRIC_FAMILIES:
            _require(family in metrics_text, f"/metrics missing family {family}")
        _require(
            'repro_service_submissions_total{result="dedup"} 4' in metrics_text,
            "dedup counter does not show the 4 folded resubmissions",
        )
    print(f"service smoke: ok ({len(transcript.steps)} steps, transcript: {out_path})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro service end-to-end smoke")
    parser.add_argument(
        "--out", default="results/service_smoke.json", help="transcript JSON path"
    )
    parser.add_argument(
        "--workdir", default="results/service_smoke",
        help="cache/ledger scratch directory for the spawned server",
    )
    args = parser.parse_args(argv)
    try:
        return run_smoke(args.out, args.workdir)
    except SmokeFailure as exc:
        print(f"service smoke: FAILED -- {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
