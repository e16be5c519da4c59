"""Performance infrastructure: serialization, disk cache, parallel
runner, bench harness -- and golden metrics pinning the engine fast path.

The hit-streak fast path in :mod:`repro.sim.engine` must be *bit-
identical* to the generic heap path.  The golden-metrics test freezes
complete result fingerprints for representative configurations; any
drift in event ordering or hit-path side effects shows up here before
it corrupts the paper tables.
"""

from __future__ import annotations

import json

import pytest

from repro.bus.bus import BusStats
from repro.bus.transaction import TransactionKind
from repro.common.config import MachineConfig
from repro.experiments.runner import ExperimentRunner, job_payload
from repro.metrics.results import CpuMetrics, MissCounts, RunMetrics
from repro.perf.bench import (
    MicrobenchResult,
    append_history,
    check_regression,
    load_report,
    run_microbench,
    update_report,
)
from repro.perf.diskcache import ResultDiskCache, content_key
from repro.prefetch.strategies import EXCL, NP, PREF, PWS
from repro.sim.engine import ENGINE_VERSION


# ------------------------------------------------------- golden fast path


class TestFastPathGoldens:
    """Frozen metrics for the hit-streak fast path (4 CPUs, Water 0.2).

    Values were produced by the generic-path engine and must never
    change: the fast path's contract is bit-identical simulated
    behavior.  NP exercises pure demand streams, PWS adds prefetches +
    upgrades, EXCL adds exclusive-mode prefetches.
    """

    #: strategy -> (exec_cycles, demand_refs, cpu_misses, false_sharing,
    #:              bus_busy, bus_ops, prefetches_issued, upgrades)
    GOLDEN = {
        "NP": (30195, 14468, 452, 0, 3938, 613, 0, 138),
        "PWS": (19782, 14468, 111, 1, 3982, 622, 622, 142),
        "EXCL": (21513, 14468, 178, 0, 3969, 616, 371, 137),
    }

    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(num_cpus=4, seed=42, scale=0.2)

    @pytest.mark.parametrize("strategy", [NP, PWS, EXCL], ids=lambda s: s.name)
    def test_golden_metrics(self, runner, strategy):
        result = runner.run("Water", strategy, MachineConfig(num_cpus=4))
        mc = result.miss_counts
        observed = (
            result.exec_cycles,
            result.demand_refs,
            mc.cpu_misses,
            mc.false_sharing,
            result.bus.busy_cycles,
            result.bus.total_ops,
            result.prefetches_issued,
            result.upgrades,
        )
        assert observed == self.GOLDEN[strategy.name]


# ---------------------------------------------------------- serialization


def _one_result(**kwargs) -> RunMetrics:
    runner = ExperimentRunner(num_cpus=4, seed=7, scale=0.1)
    return runner.run(
        kwargs.pop("workload", "Mp3d"),
        kwargs.pop("strategy", PWS),
        kwargs.pop("machine", MachineConfig(num_cpus=4)),
    )


class TestSerialization:
    def test_miss_counts_round_trip(self):
        mc = MissCounts(1, 2, 3, 4, 5, 6, 7)
        assert MissCounts.from_dict(mc.to_dict()) == mc

    def test_bus_stats_round_trip(self):
        stats = BusStats(busy_cycles=99, demand_ops=5, prefetch_ops=2, total_wait_cycles=17)
        stats.ops_by_kind[TransactionKind.FILL] = 4
        stats.ops_by_kind[TransactionKind.UPGRADE] = 3
        restored = BusStats.from_dict(stats.to_dict())
        assert restored == stats
        # enum keys survive the name-keyed JSON rendering
        assert TransactionKind.UPGRADE in restored.ops_by_kind

    def test_cpu_metrics_round_trip(self):
        cm = CpuMetrics(cpu=3, demand_refs=100, misses=MissCounts(1, 0, 2, 0, 3, 0, 1))
        assert CpuMetrics.from_dict(cm.to_dict()) == cm

    def test_run_metrics_exact_round_trip_through_json(self):
        """A real simulation result survives to_dict -> JSON -> from_dict
        with dataclass equality -- the contract the disk cache and the
        process pool rely on."""
        result = _one_result()
        data = json.loads(json.dumps(result.to_dict()))
        restored = RunMetrics.from_dict(data)
        assert restored == result
        # and the derived rates (computed, not stored) agree too
        assert restored.describe() == result.describe()


# ------------------------------------------------------------- disk cache


class TestDiskCache:
    def test_content_key_is_order_independent(self):
        a = content_key({"x": 1, "y": [1, 2]})
        b = content_key({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 64

    def test_content_key_separates_inputs(self):
        base = {"workload": "Water", "seed": 42, "engine_version": ENGINE_VERSION}
        assert content_key(base) != content_key({**base, "seed": 43})
        assert content_key(base) != content_key(
            {**base, "engine_version": ENGINE_VERSION + "-other"}
        )

    def test_content_key_rejects_non_json_native_payloads(self):
        """Objects must not silently stringify (reprs embed memory
        addresses, so the "same" payload would hash differently across
        processes)."""

        class Opaque:
            pass

        with pytest.raises(TypeError):
            content_key({"machine": Opaque()})
        with pytest.raises(TypeError):
            content_key({"strategies": {"NP", "PREF"}})
        with pytest.raises(ValueError):
            content_key({"scale": float("nan")})

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        for i in range(5):
            cache.store(content_key({"k": i}), {"metric": i}, {"k": i})
        assert len(cache) == 5
        assert list((tmp_path / "c").glob("*/*.tmp*")) == []

    def test_stale_temp_orphans_are_swept(self, tmp_path):
        import os

        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 1})
        cache.store(key, {"metric": 1}, {"k": 1})
        bucket = cache._path(key).parent
        stale = bucket / "deadbeef.orphan.tmp"
        stale.write_text("{torn", encoding="utf-8")
        os.utime(stale, (0, 0))  # ancient: definitely past the sweep cutoff
        fresh = bucket / "cafecafe.live.tmp"
        fresh.write_text("{in-flight", encoding="utf-8")

        again = ResultDiskCache(tmp_path / "c")  # sweep runs once per instance
        assert again.load(key) == {"metric": 1}
        assert not stale.exists()
        assert fresh.exists()  # young temp may belong to a live writer

    def test_store_load_round_trip(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 1})
        assert cache.load(key) is None
        cache.store(key, {"metric": 3}, {"k": 1})
        assert cache.load(key) == {"metric": 3}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 2})
        cache.store(key, {"metric": 1}, {"k": 2})
        cache._path(key).write_text("{torn", encoding="utf-8")
        assert cache.load(key) is None

    def test_warm_runner_resimulates_nothing(self, tmp_path):
        """A fresh runner over a warm cache serves every grid point from
        disk: zero stores, byte-identical results."""
        machine = MachineConfig(num_cpus=4)
        jobs = [
            ("Water", NP, machine),
            ("Water", PREF, machine),
            ("Mp3d", NP, machine),
            ("Mp3d", PREF, machine),
        ]
        cold = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        first = cold.run_many(jobs)
        assert cold.disk_cache.stores == len(jobs)

        warm = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        second = warm.run_many(jobs)
        assert warm.disk_cache.hits == len(jobs)
        assert warm.disk_cache.stores == 0
        assert json.dumps([r.to_dict() for r in first], sort_keys=True) == json.dumps(
            [r.to_dict() for r in second], sort_keys=True
        )

    def test_engine_version_partitions_the_cache(self, tmp_path):
        runner = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        payload = job_payload(runner._job("Water", NP, MachineConfig(num_cpus=4)))
        assert payload["engine_version"] == ENGINE_VERSION
        bumped = {**payload, "engine_version": payload["engine_version"] + "-next"}
        assert content_key(payload) != content_key(bumped)


# ------------------------------------------------------- word-mask memo


class TestWordMaskMemoBound:
    def test_memo_never_exceeds_its_limit(self, monkeypatch):
        """The (addr, size) -> word_mask memo is cleared at the bound so
        it cannot grow without limit over long traces with many distinct
        addresses."""
        import repro.sim.engine as engine_mod
        from repro.common.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.workloads.registry import generate_workload

        monkeypatch.setattr(engine_mod, "_WM_CACHE_LIMIT", 16)
        trace = generate_workload("Water", num_cpus=2, seed=1, scale=0.05)
        eng = SimulationEngine(trace, MachineConfig(num_cpus=2), SimulationConfig())
        for addr in range(0, 64 * 32, 32):
            eng._word_mask(addr, 4)
            assert len(eng._wm_cache) <= 16
        # correctness survives the clears: recomputed values agree
        assert eng._word_mask(0, 4) == eng._word_mask(0, 4)


# -------------------------------------------------------- parallel runner


class TestParallelRunner:
    @pytest.mark.parametrize("workers", [None, 2], ids=["inprocess", "pool"])
    @pytest.mark.parametrize("telemetered", [False, True], ids=["plain", "telemetered"])
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path, workers, telemetered):
        """Every run path -- in-process or pool, with or without fleet
        telemetry -- gives results byte-identical to a plain serial run
        of the same mini-grid (which includes ADAPT and a restructured
        Pverify point)."""
        from repro.prefetch.strategies import strategy_by_name
        from repro.telemetry.fleet import TelemetryConfig
        from repro.telemetry.ledger import RunLedger

        machine = MachineConfig(num_cpus=4)
        jobs = [
            ("Water", NP, machine),
            ("Water", PREF, machine),
            ("Mp3d", NP, machine),
            ("Mp3d", PREF, machine),
            ("Water", strategy_by_name("ADAPT"), machine),
            ("Pverify", PWS, machine, True),
        ]
        serial = ExperimentRunner(num_cpus=4, scale=0.1).run_many(jobs)
        telemetry = TelemetryConfig(ledger=RunLedger(tmp_path)) if telemetered else None
        runner = ExperimentRunner(num_cpus=4, scale=0.1, max_workers=workers)
        other = runner.run_many(jobs, telemetry=telemetry)
        assert json.dumps([r.to_dict() for r in serial], sort_keys=True) == json.dumps(
            [r.to_dict() for r in other], sort_keys=True
        )
        if telemetered:
            assert len(list(telemetry.ledger.entries())) == len(jobs)

    def test_run_many_collapses_duplicates_and_keeps_order(self):
        machine = MachineConfig(num_cpus=4)
        runner = ExperimentRunner(num_cpus=4, scale=0.1)
        results = runner.run_many(
            [("Water", NP, machine), ("Water", NP, machine), ("Water", PREF, machine)]
        )
        assert results[0] is results[1]
        assert runner.cached_run_count == 2
        assert results[2].strategy == "PREF"

    def test_compare_and_sweep_route_through_batches(self):
        runner = ExperimentRunner(num_cpus=4, scale=0.1)
        bundle = runner.compare("Water", PREF, MachineConfig(num_cpus=4))
        assert bundle.baseline.strategy == "NP"
        swept = runner.sweep(
            "Water", (NP, PREF), MachineConfig(num_cpus=4), transfer_latencies=(4, 8)
        )
        assert set(swept) == {4, 8}
        assert set(swept[4]) == {"NP", "PREF"}


# -------------------------------------------------------------- benchmark


class TestBench:
    def test_run_microbench_small(self):
        r = run_microbench(
            workload="Water", num_cpus=2, scale=0.05, min_seconds=0.0, max_runs=1
        )
        assert r.events > 0
        assert r.events_per_sec > 0
        assert r.runs == 1
        assert r.engine_version == ENGINE_VERSION

    def test_update_report_preserves_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        first = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "1")
        update_report(first, path)
        report = load_report(path)
        assert report["baseline"]["events_per_sec"] == 100000.0

        second = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.005, 200000.0, "1")
        report = update_report(second, path)
        assert report["baseline"]["events_per_sec"] == 100000.0  # untouched
        assert report["current"]["events_per_sec"] == 200000.0
        assert report["current"]["speedup_vs_baseline"] == 2.0

    def test_check_regression(self):
        report = {"current": {"events_per_sec": 100000.0}}
        ok, ref, ratio, note = check_regression(90000.0, report, tolerance=0.3)
        assert ok and ref == 100000.0 and ratio == pytest.approx(0.9)
        assert note is None
        ok, _, _, _ = check_regression(60000.0, report, tolerance=0.3)
        assert not ok
        # no report -> vacuous pass, with a note saying so
        ok, ref, ratio, note = check_regression(1.0, None)
        assert (ok, ref, ratio) == (True, None, None)
        assert "skipped" in note

    def test_check_regression_engine_version_gate(self):
        # A reference from another engine generation is not comparable:
        # vacuous pass regardless of how bad the ratio looks.
        report = {"current": {"events_per_sec": 100000.0, "engine_version": "1"}}
        ok, ref, ratio, note = check_regression(
            1000.0, report, tolerance=0.3, engine_version="2"
        )
        assert ok and ref is None and ratio is None
        assert "engine version" in note
        # Same version: the check runs normally.
        report = {"current": {"events_per_sec": 100000.0, "engine_version": "2"}}
        ok, _, _, note = check_regression(
            50000.0, report, tolerance=0.3, engine_version="2"
        )
        assert not ok and note is None

    def test_check_regression_notes_calibration_mismatch(self):
        report = {
            "current": {
                "events_per_sec": 100000.0,
                "engine_version": "2",
                "quick": False,
            }
        }
        ok, ref, _, note = check_regression(
            90000.0, report, tolerance=0.3, engine_version="2", quick=True
        )
        assert ok and ref == 100000.0  # still checked...
        assert "calibrations differ" in note  # ...but called out

    def test_append_history_gates_on_engine_version(self, tmp_path):
        path = tmp_path / "bench.json"
        old = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "1")
        append_history(old, path)
        new = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.005, 200000.0, "2")
        previous, entry = append_history(new, path)
        assert previous is None  # engine "1" history is not a comparable trend
        assert entry["engine_version"] == "2"
        previous, _ = append_history(new, path)
        assert previous is not None  # but the "2" entry we just wrote is

    def test_update_report_records_quick_flag(self, tmp_path):
        path = tmp_path / "bench.json"
        result = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "2")
        report = update_report(result, path, quick=True)
        assert report["current"]["quick"] is True
        assert load_report(path)["current"]["quick"] is True

    def test_cli_bench_update_and_check(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bench.json")
        args = ["bench", "--quick", "--cpus", "2", "--scale", "0.05", "--file", path]
        assert main(args + ["--update"]) == 0
        assert load_report(path)["current"]["events_per_sec"] > 0
        # Both branches of the check against written references: one no
        # host can miss passes, one no host can reach fails loudly.  (A
        # re-check against the measurement just taken would compare two
        # 1-second samples of the host's noise.)
        for reference, status, verdict in ((1.0, 0, "ok"), (1e12, 1, "REGRESSION")):
            report = load_report(path)
            report["current"]["events_per_sec"] = reference
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            capsys.readouterr()
            assert main(args) == status
            out = capsys.readouterr().out
            assert "regression check" in out
            assert f"({verdict})" in out


# ------------------------------------------------------- cache size cap


class TestDiskCacheSizeCap:
    def _fill(self, cache, n, size=200):
        import os

        for i in range(n):
            key = content_key({"k": i})
            cache.store(key, {"pad": "x" * size, "i": i}, {"k": i})
            # Distinct mtimes so oldest-first ordering is deterministic.
            path = cache._path(key)
            os.utime(path, (1000.0 + i, 1000.0 + i))
        return [content_key({"k": i}) for i in range(n)]

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        keys = self._fill(cache, 6)
        entry_size = cache._path(keys[0]).stat().st_size
        removed, freed = cache.prune(max_bytes=entry_size * 3)
        assert removed == 3
        assert freed == entry_size * 3
        assert cache.evictions == 3
        # The three *oldest* are gone; the newest three survive.
        for key in keys[:3]:
            assert cache.load(key) is None
        for key in keys[3:]:
            assert cache.load(key) is not None

    def test_prune_noop_under_cap(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        self._fill(cache, 3)
        assert cache.prune() == (0, 0)
        assert len(cache) == 3

    def test_prune_to_zero_empties_the_cache(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        self._fill(cache, 4)
        total = cache.total_bytes()
        removed, freed = cache.prune(max_bytes=0)
        assert (removed, freed) == (4, total)
        assert len(cache) == 0
        assert cache.total_bytes() == 0

    def test_store_enforces_cap_opportunistically(self, tmp_path):
        from repro.perf.diskcache import _PRUNE_EVERY_STORES

        # Cap sized to hold only a few entries; after a prune-period of
        # stores the cache must have shrunk back under it.
        cache = ResultDiskCache(tmp_path / "c", max_bytes=1)
        for i in range(_PRUNE_EVERY_STORES):
            cache.store(content_key({"k": i}), {"i": i}, {"k": i})
        assert cache.evictions > 0
        assert len(cache) < _PRUNE_EVERY_STORES

    def test_cli_cache_prune(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        self._fill(cache, 4)
        args = ["cache", "--dir", str(tmp_path / "c")]
        assert main(args) == 0  # report only, nothing removed
        assert len(cache) == 4
        assert main(args + ["--prune", "--max-bytes", "0"]) == 0
        assert len(cache) == 0
        out = capsys.readouterr().out
        assert "pruned 4 entries" in out


# ------------------------------------------------------- bench history


class TestBenchHistory:
    def _result(self, eps=100000.0, **kw):
        base = dict(
            workload="Water",
            num_cpus=2,
            scale=0.05,
            seed=42,
            events=1000,
            runs=1,
            wall_seconds=0.01,
            events_per_sec=eps,
            engine_version="1",
        )
        base.update(kw)
        return MicrobenchResult(**base)

    def test_first_entry_has_no_previous(self, tmp_path):
        path = tmp_path / "bench.json"
        previous, entry = append_history(self._result(), path)
        assert previous is None
        assert entry["events_per_sec"] == 100000.0
        assert entry["timestamp"]
        assert load_report(path)["history"] == [entry]

    def test_previous_is_most_recent_comparable(self, tmp_path):
        path = tmp_path / "bench.json"
        append_history(self._result(eps=100.0), path)
        append_history(self._result(eps=200.0, num_cpus=4), path)  # frame differs
        append_history(self._result(eps=300.0), path, quick=True)  # calibration differs
        previous, _ = append_history(self._result(eps=400.0), path)
        assert previous["events_per_sec"] == 100.0
        assert len(load_report(path)["history"]) == 4

    def test_history_is_trimmed_to_limit(self, tmp_path):
        path = tmp_path / "bench.json"
        for i in range(6):
            append_history(self._result(eps=float(i)), path, limit=4)
        history = load_report(path)["history"]
        assert len(history) == 4
        assert [e["events_per_sec"] for e in history] == [2.0, 3.0, 4.0, 5.0]

    def test_history_survives_update_report(self, tmp_path):
        path = tmp_path / "bench.json"
        append_history(self._result(), path)
        update_report(self._result(eps=123456.0), path)
        report = load_report(path)
        assert report["current"]["events_per_sec"] == 123456.0
        assert len(report["history"]) == 1

    def test_cli_bench_appends_history(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bench.json")
        args = ["bench", "--quick", "--cpus", "2", "--scale", "0.05", "--file", path]
        assert main(args + ["--update"]) == 0
        assert main(args) == 0
        history = load_report(path)["history"]
        assert len(history) == 2
        out = capsys.readouterr().out
        assert "history" in out
