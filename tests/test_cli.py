"""Smoke tests for the command-line interface (tiny scales)."""

import pytest

from repro.cli import build_parser, main

SMALL = ["--cpus", "4", "--scale", "0.06"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "nope"])

    @pytest.mark.parametrize("command", ["simulate", "sweep", "stats", "analyze"])
    def test_workload_names_are_case_insensitive(self, command):
        args = build_parser().parse_args([command, "--workload", "water"])
        assert args.workload == "Water"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "--workload", "nope"], "unknown workload 'nope'"),
            (["simulate", "--workload", "Water", "--strategy", "nope"], "unknown strategy 'nope'"),
        ],
    )
    def test_unknown_names_are_argparse_errors(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err and message in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure9"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Mp3d" in out and "PWS" in out and "figure2" in out

    def test_stats(self, capsys):
        assert main(["stats", "--workload", "Water", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Trace statistics: Water" in out
        assert "write-shared lines" in out

    def test_simulate_np(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "NP", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Water / NP" in out

    def test_simulate_with_comparison(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "PREF", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "PREF vs NP: speedup" in out

    def test_simulate_bad_strategy_is_clean_error(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "XXX", *SMALL]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workload",
                    "Water",
                    "--strategies",
                    "NP,PREF",
                    "--latencies",
                    "4,16",
                    *SMALL,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cycles" in out and "16 cycles" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", *SMALL]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_analyze(self, capsys):
        assert main(["analyze", "--workload", "Pverify", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Sharing attribution" in out
        assert "Restructuring advice" in out

    def test_msi_protocol_flag(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "Water",
                    "--strategy",
                    "NP",
                    "--protocol",
                    "msi",
                    *SMALL,
                ]
            )
            == 0
        )


class TestListParsing:
    """PR 7 fix: comma lists tolerate whitespace and stray commas, and
    reject unknown names with one clear error."""

    def test_strategies_tolerate_whitespace_and_empties(self, capsys):
        args = ["sweep", "--workload", "Water", "--latencies", "4",
                "--strategies", " NP, PREF ,,", *SMALL]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "NP" in out and "PREF" in out

    def test_latencies_tolerate_whitespace(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP",
                "--latencies", " 4 ,, 16 ", *SMALL]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 cycles" in out and "16 cycles" in out

    def test_unknown_strategy_names_every_valid_label(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP,BOGUS", *SMALL]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "BOGUS" in err and "ADAPT" in err and "PWS" in err

    def test_empty_strategy_list_is_a_clean_error(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", " ,, ", *SMALL]
        assert main(args) == 2
        assert "no strategies" in capsys.readouterr().err

    def test_bad_latency_is_a_clean_error(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP",
                "--latencies", "4,fast", *SMALL]
        assert main(args) == 2
        assert "fast" in capsys.readouterr().err

    def test_derived_strategy_name_accepted(self, capsys):
        args = ["sweep", "--workload", "Water", "--latencies", "4",
                "--strategies", "PREF(d=400)", *SMALL]
        assert main(args) == 0
        assert "PREF(d=400)" in capsys.readouterr().out


class TestTraceCli:
    """The extended `repro trace`: run-trace waterfall alongside the
    original workload-trace file modes."""

    def _doc(self):
        from repro.telemetry.tracing import Span, stitch_chrome_trace

        spans = [
            Span(name="queue.wait", trace_id="ab" * 8, start=5.0, duration=0.01),
            Span(name="execute", trace_id="ab" * 8, start=5.01, duration=0.2),
        ]
        return stitch_chrome_trace(spans, label="Water/PREF@4c")

    def test_load_renders_waterfall(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self._doc()), encoding="utf-8")
        assert main(["trace", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace " + "ab" * 8 in out
        assert "queue.wait" in out and "execute" in out
        assert "breakdown:" in out

    def test_fetch_unreachable_service_is_clean_error(self, capsys):
        code = main(["trace", "deadbeefdeadbeef", "--url", "http://127.0.0.1:9"])
        assert code == 1
        assert "repro serve --trace" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main(["trace"]) == 2
        assert "RUN_ID" in capsys.readouterr().err

    def test_workload_mode_still_works(self, tmp_path, capsys):
        out_file = tmp_path / "water.gz"
        args = ["trace", "--workload", "Water", "--out", str(out_file), *SMALL]
        assert main(args) == 0
        assert out_file.exists()
        assert main(["trace", "--info", str(out_file)]) == 0
        assert "demand refs" in capsys.readouterr().out

    def test_fleet_trace_json_carries_trace_ids(self, tmp_path, capsys):
        import json

        args = [
            "fleet", "--workloads", "Water", "--strategies", "NP",
            "--latencies", "4", "--cpus", "2", "--scale", "0.02",
            "--json", "--trace",
            "--cache", str(tmp_path / "cache"),
            "--ledger-dir", str(tmp_path / "ledger"),
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["trace_ids"]) == ["Water/NP@4c"]
        # worker.run + workload.generate + prefetch.insert + engine.simulate
        assert doc["spans_recorded"] == 4
        # The ledger line for the run carries the same trace id.
        from repro.telemetry.ledger import RunLedger

        (entry,) = RunLedger(tmp_path / "ledger").entries()
        assert entry.trace_id == doc["trace_ids"]["Water/NP@4c"]


class TestObservabilityCli:
    """The extended `repro ledger` banner."""

    def test_ledger_banner_percentiles_and_strategies(self, tmp_path, capsys):
        from tests.test_telemetry import _entry

        from repro.telemetry.ledger import RunLedger

        ledger = RunLedger(tmp_path)
        ledger.append(_entry(config_key="a", strategy="NP",
                             wall_seconds=1.0, events=1000))
        ledger.append(_entry(config_key="b", strategy="PREF",
                             wall_seconds=2.0, events=4000))
        ledger.append(_entry(config_key="c", strategy="PREF", cache="hit",
                             wall_seconds=0.0, events=0))
        assert main(["ledger", "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wall time per simulated run: p50 1.500s, p95 1.950s" in out
        assert "per-strategy throughput" in out
        assert "NP" in out and "PREF" in out


class TestAdaptCli:
    def test_simulate_adapt(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "ADAPT", *SMALL]
        assert main(args) == 0
        assert "Water / ADAPT" in capsys.readouterr().out

    def test_adapt_knobs_apply(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "ADAPT",
                "--adapt-high", "0.2", "--adapt-low", "0.1",
                "--adapt-window", "256", "--transfer", "32", *SMALL]
        assert main(args) == 0

    def test_adapt_knobs_rejected_for_open_loop_strategy(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "PREF",
                "--adapt-high", "0.5", *SMALL]
        assert main(args) == 2
        assert "ADAPT" in capsys.readouterr().err

    def test_list_shows_adapt_extension(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ADAPT" in out and "adaptive" in out
