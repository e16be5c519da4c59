"""Tests for the simulation service (`repro.service`).

Covers the frozen ScenarioSpec contract (canonicalization, validation,
key parity with the ExperimentRunner's disk-cache payload), the run
stores (in-memory + ledger hydration with the round-trip fidelity
check), the asyncio scheduler (concurrent-dedup: N identical submits
cost one simulation; failure surfacing), the HTTP API end to end over a
real socket, the mixed-schema ledger regression, cache-stat gauges, and
the `--json` CLI output modes.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments.runner import ExperimentRunner, job_payload
from repro.perf.diskcache import ResultDiskCache
from repro.prefetch.strategies import strategy_by_name
from repro.service.api import ReproService, ServiceConfig, serve_in_thread
from repro.service.contracts import (
    RUN_ID_LENGTH,
    RunMetadata,
    RunStatus,
    RunStore,
    ScenarioSpec,
)
from repro.service.scheduler import _MAX_RUNNERS, RunScheduler
from repro.service.store import InMemoryRunStore, LedgerRunStore, spec_from_ledger_entry
from repro.telemetry.fleet import FleetError, TelemetryConfig, export_cache_stats
from repro.telemetry.ledger import LedgerEntry, RunLedger
from repro.telemetry.registry import MetricsRegistry

#: The CI-speed frame used throughout: tiny but a real simulation.
QUICK = dict(workload="Water", num_cpus=2, scale=0.02, transfer_cycles=4)


# --------------------------------------------------------------------------
# ScenarioSpec contract
# --------------------------------------------------------------------------


class TestScenarioSpec:
    def test_canonicalizes_names(self):
        spec = ScenarioSpec(workload="water", strategy="pref")
        assert spec.workload == "Water"
        assert spec.strategy == "PREF"

    def test_config_key_matches_runner_cache_payload(self):
        """The service, disk cache and ledger must hash identically."""
        spec = ScenarioSpec(**QUICK, strategy="PWS", restructured=True, seed=7)
        runner = ExperimentRunner(num_cpus=spec.num_cpus, seed=spec.seed, scale=spec.scale)
        runner_payload = job_payload(
            runner._job(spec.workload, spec.strategy_obj(), spec.machine(), spec.restructured)
        )
        assert spec.payload() == runner_payload

    def test_run_id_is_key_prefix(self):
        spec = ScenarioSpec(**QUICK)
        assert spec.run_id == spec.config_key[:RUN_ID_LENGTH]
        assert len(spec.config_key) == 64

    def test_label_matches_fleet_label(self):
        spec = ScenarioSpec(**QUICK, strategy="PREF", restructured=True)
        assert spec.label == "Water/PREF+restructured@4c"

    def test_label_matches_fleet_error_label(self, monkeypatch):
        """The scheduler maps FleetError failures back to specs by label."""
        import repro.experiments.runner as runner_mod

        def broken(*args, **kwargs):
            raise RuntimeError("insertion failed")

        monkeypatch.setattr(runner_mod, "insert_prefetches", broken)
        specs = [
            ScenarioSpec(**QUICK, strategy="PREF(d=400)"),
            ScenarioSpec(**QUICK, strategy="ADAPT", adapt_high=0.9, adapt_low=0.8, adapt_window=64),
            ScenarioSpec(**{**QUICK, "workload": "Pverify"}, strategy="PWS", restructured=True),
        ]
        runner = ExperimentRunner(num_cpus=QUICK["num_cpus"], scale=QUICK["scale"])
        jobs = [(s.workload, s.strategy_obj(), s.machine(), s.restructured) for s in specs]
        with pytest.raises(FleetError) as info:
            runner.run_many(jobs, telemetry=TelemetryConfig())
        assert [f.label for f in info.value.failures] == [s.label for s in specs]
        assert specs[0].label == "Water/PREF(d=400)@4c"

    def test_distinct_fields_distinct_keys(self):
        base = ScenarioSpec(**QUICK)
        assert base.config_key != ScenarioSpec(**{**QUICK, "transfer_cycles": 8}).config_key
        assert base.config_key != ScenarioSpec(**{**QUICK, "seed": 43}).config_key
        assert base.config_key != ScenarioSpec(**{**QUICK, "strategy": "PWS"}).config_key

    def test_adaptive_knobs_change_key(self):
        plain = ScenarioSpec(**QUICK, strategy="ADAPT")
        tuned = ScenarioSpec(**QUICK, strategy="ADAPT", adapt_high=0.9, adapt_low=0.8)
        assert plain.config_key != tuned.config_key
        assert tuned.strategy_obj().high_watermark == 0.9

    def test_adaptive_knobs_rejected_on_open_loop(self):
        with pytest.raises(ConfigurationError, match="ADAPT"):
            ScenarioSpec(**QUICK, strategy="PREF", adapt_high=0.9)

    def test_derived_strategy_round_trips(self):
        spec = ScenarioSpec(**QUICK, strategy="PREF(d=400)")
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.config_key == spec.config_key
        assert again.strategy_obj().distance == 400

    def test_validation_is_eager(self):
        with pytest.raises(ReproError):
            ScenarioSpec(workload="NoSuchWorkload")
        with pytest.raises(ReproError):
            ScenarioSpec(**{**QUICK, "scale": -1.0})
        with pytest.raises(ReproError):
            ScenarioSpec(**{**QUICK, "transfer_cycles": 0})
        with pytest.raises(ReproError):
            ScenarioSpec(workload="Water", strategy="NOPE")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="transfre_cycles"):
            ScenarioSpec.from_dict({"workload": "Water", "transfre_cycles": 8})
        with pytest.raises(ConfigurationError, match="workload"):
            ScenarioSpec.from_dict({"strategy": "PREF"})

    def test_frozen(self):
        spec = ScenarioSpec(**QUICK)
        with pytest.raises(Exception):
            spec.workload = "Mp3d"


# --------------------------------------------------------------------------
# Stores
# --------------------------------------------------------------------------


class TestStores:
    def test_in_memory_store_satisfies_protocol(self):
        assert isinstance(InMemoryRunStore(), RunStore)

    def test_put_get_by_key_list(self):
        store = InMemoryRunStore()
        meta = store.put(RunMetadata(spec=ScenarioSpec(**QUICK)))
        assert store.get(meta.run_id) is meta
        assert store.by_key(meta.config_key) is meta
        assert store.list(workload="water") == [meta]
        assert store.list(status="queued") == [meta]
        assert store.list(status=RunStatus.COMPLETED) == []
        assert len(store) == 1

    def test_metadata_derives_identity(self):
        spec = ScenarioSpec(**QUICK)
        meta = RunMetadata(spec=spec)
        assert meta.run_id == spec.run_id
        assert meta.config_key == spec.config_key
        assert meta.status is RunStatus.QUEUED
        assert meta.created_at
        doc = meta.to_dict()
        assert RunMetadata.from_dict(doc).config_key == spec.config_key

    def test_ledger_hydration(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ok_spec = ScenarioSpec(**QUICK)
        bad_spec = ScenarioSpec(**{**QUICK, "strategy": "PWS"})
        for spec, outcome, error in (
            (ok_spec, "ok", None),
            (bad_spec, "error", "worker exploded"),
        ):
            ledger.append(
                LedgerEntry(
                    config_key=spec.config_key,
                    workload=spec.workload,
                    restructured=spec.restructured,
                    strategy=spec.strategy,
                    machine=spec.machine().describe(),
                    num_cpus=spec.num_cpus,
                    seed=spec.seed,
                    scale=spec.scale,
                    engine_version=spec.payload()["engine_version"],
                    outcome=outcome,
                    error=error,
                )
            )
        # One entry whose key cannot round-trip (foreign machine state).
        ledger.append(
            LedgerEntry(
                config_key="f" * 64,
                workload="Water",
                restructured=False,
                strategy="PREF",
                machine={},
                num_cpus=2,
                seed=1,
                scale=0.02,
                engine_version="0",
            )
        )
        store = LedgerRunStore(ledger)
        assert store.hydrated == 2
        assert store.skipped == 1
        resurrected = store.by_key(ok_spec.config_key)
        assert resurrected is not None
        assert resurrected.status is RunStatus.COMPLETED
        assert resurrected.source == "ledger"
        failed = store.by_key(bad_spec.config_key)
        assert failed.status is RunStatus.FAILED
        assert failed.error == "[error] worker exploded"

    def test_spec_from_entry_checks_round_trip(self):
        spec = ScenarioSpec(**QUICK)
        entry = LedgerEntry(
            config_key=spec.config_key,
            workload=spec.workload,
            restructured=False,
            strategy=spec.strategy,
            machine=spec.machine().describe(),
            num_cpus=spec.num_cpus,
            seed=spec.seed,
            scale=spec.scale,
            engine_version=spec.payload()["engine_version"],
        )
        assert spec_from_ledger_entry(entry) == spec
        entry.config_key = "0" * 64  # same fields, foreign key: reject
        assert spec_from_ledger_entry(entry) is None


# --------------------------------------------------------------------------
# Ledger mixed-schema regression (satellite)
# --------------------------------------------------------------------------


class TestMixedSchemaLedger:
    def test_trace_id_mixed_schema_round_trip(self, tmp_path):
        """Pre-tracing lines (no trace_id) and traced lines coexist.

        Readers must yield both, with trace_id None on old records; and
        an untraced entry must serialize WITHOUT the key at all, so
        ledgers written by an untraced fleet stay byte-identical to
        pre-tracing ones.
        """
        spec = ScenarioSpec(**QUICK)
        fields = dict(
            config_key=spec.config_key,
            workload=spec.workload,
            restructured=False,
            strategy=spec.strategy,
            machine=spec.machine().describe(),
            num_cpus=spec.num_cpus,
            seed=spec.seed,
            scale=spec.scale,
            engine_version="2",
        )
        untraced = LedgerEntry(**fields)
        traced = LedgerEntry(**fields, trace_id="ab" * 8)
        assert "trace_id" not in untraced.to_dict()
        assert traced.to_dict()["trace_id"] == "ab" * 8
        ledger = RunLedger(tmp_path)
        ledger.append(untraced)
        ledger.append(traced)
        loaded = list(ledger.entries())
        assert [e.trace_id for e in loaded] == [None, "ab" * 8]
        # Hydration tolerates the mix too.
        assert LedgerRunStore(ledger).hydrated >= 1

    def test_entries_skip_records_missing_config_key(self, tmp_path):
        """Pre-content-key lines must be skipped, never raise."""
        spec = ScenarioSpec(**QUICK)
        path = tmp_path / "runs.jsonl"
        good = LedgerEntry(
            config_key=spec.config_key,
            workload="Water",
            restructured=False,
            strategy="PREF",
            machine=spec.machine().describe(),
            num_cpus=2,
            seed=42,
            scale=0.02,
            engine_version="2",
            timestamp="2026-01-01T00:00:00+00:00",
        ).to_dict()
        pre_pr4 = {k: v for k, v in good.items() if k != "config_key"}
        null_key = dict(good, config_key=None)
        empty_key = dict(good, config_key="")
        with path.open("w", encoding="utf-8") as fh:
            for record in (pre_pr4, good, null_key, empty_key):
                fh.write(json.dumps(record) + "\n")
            fh.write('{"torn line\n')
        ledger = RunLedger(tmp_path)
        entries = list(ledger.entries())
        assert len(entries) == 1
        assert entries[0].config_key == spec.config_key
        # query/summarize/hydration all sit on entries() and must agree.
        assert len(ledger.query(workload="Water")) == 1
        assert ledger.summarize()["entries"] == 1
        assert LedgerRunStore(ledger).hydrated == 1


# --------------------------------------------------------------------------
# Scheduler
# --------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


class TestScheduler:
    def test_concurrent_identical_submissions_one_simulation(self, tmp_path):
        """N concurrent identical POSTs -> one simulation, N refs."""

        async def scenario():
            ledger = RunLedger(tmp_path / "ledger")
            scheduler = RunScheduler(
                ledger=ledger, cache_dir=str(tmp_path / "cache")
            )
            await scheduler.start()
            try:
                spec = ScenarioSpec(**QUICK)
                pairs = await asyncio.gather(
                    *(scheduler.submit(spec) for _ in range(8))
                )
                run_ids = {meta.run_id for meta, _ in pairs}
                assert run_ids == {spec.run_id}
                assert sum(1 for _, deduped in pairs if not deduped) == 1
                meta = pairs[0][0]
                while not meta.status.terminal:
                    await asyncio.sleep(0.05)
                assert meta.status is RunStatus.COMPLETED
                assert meta.submissions == 8
                result = scheduler.result(spec.run_id)
                assert result is not None
                dedup = scheduler.registry.counter(
                    "repro_service_submissions_total", "", ("result",)
                )
                assert dedup.value(result="new") == 1
                assert dedup.value(result="dedup") == 7
                return ledger
            finally:
                await scheduler.close()

        ledger = _run(scenario())
        assert ledger.summarize()["simulated_runs"] == 1

    def test_failed_run_surfaces_job_failure_detail(self, tmp_path, monkeypatch):
        from repro.telemetry.fleet import FleetError, JobFailure

        spec = ScenarioSpec(**QUICK)

        def boom(self, jobs, telemetry=None):
            raise FleetError(
                "1 of 1 grid points failed",
                [JobFailure(index=0, label=spec.label, kind="error", message="kaput")],
            )

        monkeypatch.setattr(ExperimentRunner, "run_many", boom)

        async def scenario():
            scheduler = RunScheduler(cache_dir=str(tmp_path / "cache"))
            await scheduler.start()
            try:
                meta, deduped = await scheduler.submit(spec)
                assert not deduped
                while not meta.status.terminal:
                    await asyncio.sleep(0.02)
                assert meta.status is RunStatus.FAILED
                assert meta.error == "[error] kaput"
                assert scheduler.result(meta.run_id) is None
                # A failed run re-queues on resubmission.
                again, deduped = await scheduler.submit(spec)
                assert again is meta
                assert not deduped
                assert meta.status is RunStatus.QUEUED
            finally:
                await scheduler.close()

        _run(scenario())

    def test_result_served_from_disk_cache_after_restart(self, tmp_path):
        """A hydrated completed run re-serves its result by content key."""
        cache_dir = str(tmp_path / "cache")
        ledger = RunLedger(tmp_path / "ledger")
        spec = ScenarioSpec(**QUICK)

        async def first_life():
            scheduler = RunScheduler(ledger=ledger, cache_dir=cache_dir)
            await scheduler.start()
            try:
                meta, _ = await scheduler.submit(spec)
                while not meta.status.terminal:
                    await asyncio.sleep(0.05)
                assert meta.status is RunStatus.COMPLETED
                return scheduler.result(meta.run_id).to_dict()
            finally:
                await scheduler.close()

        first = _run(first_life())

        async def second_life():
            store = LedgerRunStore(ledger)
            scheduler = RunScheduler(store=store, ledger=ledger, cache_dir=cache_dir)
            try:
                meta = store.by_key(spec.config_key)
                assert meta is not None and meta.status is RunStatus.COMPLETED
                assert meta.source == "ledger"
                result = scheduler.result(meta.run_id)
                assert result is not None and result.to_dict() == first
                # The lookup read the scheduler's own disk cache; it
                # built no simulation runner.
                assert not scheduler._runners
                # ... and a resubmission dedups instead of re-simulating.
                again, deduped = await scheduler.submit(spec)
                assert deduped and again.run_id == meta.run_id
            finally:
                await scheduler.close()

        _run(second_life())


    def test_runner_cache_is_bounded_and_shares_one_disk_cache(self, tmp_path):
        scheduler = RunScheduler(cache_dir=str(tmp_path / "cache"))
        try:
            frames = [(2, seed, 0.02) for seed in range(3 * _MAX_RUNNERS)]
            for frame in frames:
                runner = scheduler._runner(frame)
                assert runner.disk_cache is scheduler._disk_cache
                assert len(scheduler._runners) <= _MAX_RUNNERS
            assert list(scheduler._runners) == frames[-_MAX_RUNNERS:]
            # A reused frame becomes the most recent; the oldest goes next.
            kept = scheduler._runner(frames[-_MAX_RUNNERS])
            scheduler._runner((4, 0, 0.02))
            assert scheduler._runners[frames[-_MAX_RUNNERS]] is kept
            assert frames[-_MAX_RUNNERS + 1] not in scheduler._runners
        finally:
            _run(scheduler.close())


# --------------------------------------------------------------------------
# HTTP API end to end (real socket, stdlib client)
# --------------------------------------------------------------------------


def _http_full(method: str, url: str, body: dict | None = None):
    """Like _http but also returns the response headers."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            status, headers = resp.status, dict(resp.headers.items())
            ctype = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status, headers = exc.code, dict(exc.headers.items())
        ctype = exc.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return status, headers, json.loads(raw)
    return status, headers, raw


def _http(method: str, url: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            status = resp.status
            ctype = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status = exc.code
        ctype = exc.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_path=str(root / "ledger" / "runs.jsonl"),
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base
    finally:
        stop()


class TestHttpApi:
    def test_end_to_end(self, service):
        svc, base = service
        spec_body = dict(QUICK, strategy="PREF")

        status, doc = _http("POST", f"{base}/runs", spec_body)
        assert status == 202
        assert doc["count"] == 1 and not doc["deduped"]
        run_id = doc["run_id"]
        assert run_id == ScenarioSpec(**spec_body).run_id

        deadline = 120
        while True:
            status, run_doc = _http("GET", f"{base}/runs/{run_id}")
            assert status == 200
            if run_doc["status"] in ("completed", "failed"):
                break
            deadline -= 1
            assert deadline > 0, "run did not finish"
            import time

            time.sleep(0.2)
        assert run_doc["status"] == "completed"
        assert run_doc["spec"]["workload"] == "Water"

        status, result = _http("GET", f"{base}/runs/{run_id}/result")
        assert status == 200
        direct = ExperimentRunner(num_cpus=2, scale=0.02).run(
            "Water", strategy_by_name("PREF"),
            ScenarioSpec(**spec_body).machine(),
        )
        assert result["metrics"] == direct.to_dict()

        # Resubmission dedups.
        status, again = _http("POST", f"{base}/runs", spec_body)
        assert status == 202 and again["deduped"]
        assert again["run_id"] == run_id

        # List + filter.
        status, listing = _http("GET", f"{base}/runs?status=completed")
        assert status == 200
        assert any(r["run_id"] == run_id for r in listing["runs"])

        # Metrics scrape exposes service + cache families.
        status, text = _http("GET", f"{base}/metrics")
        assert status == 200
        assert "repro_service_requests_total" in text
        assert 'repro_service_submissions_total{result="dedup"}' in text
        assert "repro_cache_entries" in text

    def test_sweep_expansion(self, service):
        svc, base = service
        sweep = {
            "sweep": dict(
                QUICK, strategy=["NP", "PREF"], transfer_cycles=[4, 8]
            )
        }
        status, doc = _http("POST", f"{base}/runs", sweep)
        assert status == 202
        assert doc["count"] == 4
        assert len({r["run_id"] for r in doc["runs"]}) == 4

    def test_validation_errors_are_400(self, service):
        svc, base = service
        status, doc = _http("POST", f"{base}/runs", {"workload": "NoSuch"})
        assert status == 400 and "error" in doc
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, bogus_field=1))
        assert status == 400 and "bogus_field" in doc["error"]

    def test_unknown_run_is_404(self, service):
        svc, base = service
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}")
        assert status == 404
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}/result")
        assert status == 404

    # The last three were the time-series store's routes; they are gone.
    @pytest.mark.parametrize("route", ["/nope", "/metrics/history", "/slo", "/dashboard"])
    def test_unknown_route_is_404(self, service, route):
        svc, base = service
        status, doc = _http("GET", f"{base}{route}")
        assert status == 404

    def test_tsdb_dir_is_rejected(self):
        with pytest.raises(ConfigurationError, match="tsdb_dir"):
            ReproService(ServiceConfig(tsdb_dir="x"))


# --------------------------------------------------------------------------
# Tracing over HTTP (tentpole) + graceful shutdown (satellite)
# --------------------------------------------------------------------------


def _poll_completed(base: str, run_id: str, budget: int = 150) -> dict:
    import time

    while True:
        status, doc = _http("GET", f"{base}/runs/{run_id}")
        assert status == 200
        if doc["status"] in ("completed", "failed"):
            return doc
        budget -= 1
        assert budget > 0, "run did not finish"
        time.sleep(0.2)


@pytest.fixture(scope="class")
def traced_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_path=str(root / "ledger" / "runs.jsonl"),
        trace=True,
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base, root
    finally:
        stop()


class TestTracedHttpApi:
    def test_single_run_one_causal_timeline(self, traced_service):
        svc, base, root = traced_service
        spec_body = dict(QUICK, strategy="PREF")

        status, headers, doc = _http_full("POST", f"{base}/runs", spec_body)
        assert status == 202
        trace_id = headers.get("X-Repro-Trace-Id")
        assert trace_id and len(trace_id) == 16
        # A single-point POST's run adopts the request trace: the run's
        # timeline reaches all the way back to HTTP parse.
        assert doc["runs"][0]["trace_id"] == trace_id
        run_id = doc["run_id"]

        run_doc = _poll_completed(base, run_id)
        assert run_doc["status"] == "completed"
        assert run_doc["trace_id"] == trace_id

        status, trace_doc = _http("GET", f"{base}/runs/{run_id}/trace")
        assert status == 200
        other = trace_doc["otherData"]
        assert other["trace_id"] == trace_id
        assert other["run_id"] == run_id
        assert other["timestamp_unit"] == "microseconds"
        service_spans = {
            e["name"]: e
            for e in trace_doc["traceEvents"]
            if e.get("cat") == "service" and e["ph"] == "X"
        }
        assert {
            "request.parse", "request.validate", "submit", "queue.wait",
            "batch.assemble", "execute", "executor.dispatch", "worker.run",
            "engine.simulate",
        } <= set(service_spans)
        # Engine events are stitched in under the run's window.
        engine_pids = {
            e["pid"] for e in trace_doc["traceEvents"] if e.get("pid", 10) < 10
        }
        assert 0 in engine_pids  # cpu track
        assert other["engine"]["exec_cycles"] > 0
        assert other["engine"]["anchor"] == "engine.simulate"

        # Reconciliation: the ledger's wall time and the /metrics stage
        # histogram agree with the spans (same measurements, same hook).
        ledger = RunLedger(root / "ledger")
        entry = next(
            e for e in ledger.entries()
            if e.config_key == run_doc["config_key"] and e.outcome == "ok"
        )
        assert entry.trace_id == trace_id
        worker_s = service_spans["worker.run"]["dur"] / 1e6
        assert abs(worker_s - entry.wall_seconds) < 1.0
        status, metrics_text = _http("GET", f"{base}/metrics")
        assert status == 200
        assert "repro_service_stage_seconds" in metrics_text
        assert "repro_service_request_seconds" in metrics_text
        for line in metrics_text.splitlines():
            if line.startswith('repro_service_stage_seconds_sum{stage="worker.run"}'):
                assert abs(float(line.rpartition(" ")[2]) - worker_s) < 1.0
                break
        else:
            pytest.fail("no worker.run stage histogram in /metrics")

    def test_engine_can_be_excluded(self, traced_service):
        svc, base, _root = traced_service
        spec_body = dict(QUICK, strategy="PREF")
        status, _, doc = _http_full("POST", f"{base}/runs", spec_body)
        run_id = doc["run_id"]
        _poll_completed(base, run_id)
        status, trace_doc = _http("GET", f"{base}/runs/{run_id}/trace?engine=0")
        assert status == 200
        assert all(e.get("pid", 10) >= 10 for e in trace_doc["traceEvents"])
        assert "engine" not in trace_doc["otherData"]

    def test_sweep_points_get_fresh_traces(self, traced_service):
        svc, base, _root = traced_service
        sweep = {"sweep": dict(QUICK, strategy=["NP", "PREF"])}
        status, headers, doc = _http_full("POST", f"{base}/runs", sweep)
        assert status == 202
        request_trace = headers.get("X-Repro-Trace-Id")
        assert request_trace
        per_run = [r["trace_id"] for r in doc["runs"]]
        assert all(per_run)
        assert len(set(per_run)) == 2
        assert request_trace not in per_run

    def test_trace_unknown_run_is_404(self, traced_service):
        svc, base, _root = traced_service
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}/trace")
        assert status == 404


class TestUntracedService:
    def test_untraced_responses_carry_no_trace_surface(self, service):
        """With tracing off the contract is byte-identical to pre-PR."""
        svc, base = service
        spec_body = dict(QUICK, strategy="NP")
        status, headers, doc = _http_full("POST", f"{base}/runs", spec_body)
        assert status == 202
        assert "X-Repro-Trace-Id" not in headers
        assert "trace_id" not in doc["runs"][0]
        run_doc = _poll_completed(base, doc["run_id"])
        assert "trace_id" not in run_doc
        # /trace is a 409 (known run, tracing off), not a 404/500.
        status, err = _http("GET", f"{base}/runs/{doc['run_id']}/trace")
        assert status == 409
        assert "--trace" in err["error"]
        status, metrics_text = _http("GET", f"{base}/metrics")
        assert "repro_service_stage_seconds" not in metrics_text
        # The request-latency histogram is independent of tracing.
        assert "repro_service_request_seconds" in metrics_text


class TestGracefulShutdown:
    def test_shutdown_drains_then_refuses(self, tmp_path):
        config = ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"),
            ledger_path=None, drain_timeout=60.0,
        )
        svc, base, stop = serve_in_thread(config)
        try:
            status, doc = _http("POST", f"{base}/runs", dict(QUICK, strategy="PREF"))
            assert status == 202
            run_id = doc["run_id"]
            future = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert future.result(timeout=90) is True  # drained
            # The in-flight run finished before the listener died.
            assert svc.store.get(run_id).status.value == "completed"
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                _http("GET", f"{base}/healthz")
        finally:
            stop()

    def test_shutdown_is_idempotent(self, tmp_path):
        config = ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=None, ledger_path=None
        )
        svc, base, stop = serve_in_thread(config)
        try:
            first = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert first.result(timeout=30) is True
            second = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert second.result(timeout=30) is True
        finally:
            stop()


# --------------------------------------------------------------------------
# Cache gauges (satellite)
# --------------------------------------------------------------------------


class TestCacheGauges:
    def test_export_cache_stats(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "cache")
        cache.store("ab" * 32, {"m": 1}, {"i": 1})
        cache.load("ab" * 32)
        cache.load("cd" * 32)
        registry = MetricsRegistry()
        export_cache_stats(registry, cache.stats())
        text = registry.render_prometheus()
        assert "repro_cache_entries 1" in text
        assert 'repro_cache_session_ops{op="hits"} 1' in text
        assert 'repro_cache_session_ops{op="misses"} 1' in text
        assert 'repro_cache_session_ops{op="stores"} 1' in text
        # Re-export overwrites (gauge semantics), never double counts.
        export_cache_stats(registry, cache.stats())
        assert 'repro_cache_session_ops{op="hits"} 1' in registry.render_prometheus()


# --------------------------------------------------------------------------
# CLI --json modes (satellites)
# --------------------------------------------------------------------------


class TestCliJson:
    def test_ledger_json_missing_ledger(self, tmp_path, capsys):
        code = cli_main(["ledger", "--json", "--ledger-dir", str(tmp_path / "none")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exists"] is False

    def test_ledger_json_with_entries(self, tmp_path, capsys):
        spec = ScenarioSpec(**QUICK)
        ledger = RunLedger(tmp_path)
        ledger.append(
            LedgerEntry(
                config_key=spec.config_key,
                workload=spec.workload,
                restructured=False,
                strategy=spec.strategy,
                machine=spec.machine().describe(),
                num_cpus=spec.num_cpus,
                seed=spec.seed,
                scale=spec.scale,
                engine_version="2",
                wall_seconds=1.25,
                events=1000,
            )
        )
        code = cli_main(["ledger", "--json", "--ledger-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exists"] is True
        assert doc["summary"]["entries"] == 1
        assert doc["entries"][0]["config_key"] == spec.config_key

    def test_fleet_json_single_document(self, tmp_path, capsys):
        code = cli_main(
            [
                "fleet",
                "--workloads", "Water",
                "--strategies", "NP",
                "--latencies", "4",
                "--cpus", "2",
                "--scale", "0.02",
                "--json",
                "--cache", str(tmp_path / "cache"),
                "--ledger-dir", str(tmp_path / "ledger"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # exactly one JSON document on stdout
        assert doc["ok"] is True
        assert doc["grid"]["points"] == 1
        assert doc["runs_ok"] == 1
        assert doc["cache"]["entries"] == 1
        assert "repro_cache_entries" in doc["metrics"]
        assert "repro_runs_total" in doc["metrics"]
