"""Tests for the experiments CLI."""

import numpy as np
import pytest

from repro.experiments import cli
from repro.obs.schema import OUTPUT_SCHEMA_VERSION
from repro.traces import Trace, TraceSpec


def tiny_trace(n_files=8, n_requests=150, seed=2):
    rng = np.random.default_rng(seed)
    return Trace(
        spec=TraceSpec("tiny", n_files, n_requests, 16.0),
        sizes_kb=np.full(n_files, 16.0),
        requests=rng.integers(0, n_files, size=n_requests),
    )


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "a6" in out

    def test_no_args_lists(self, capsys):
        assert cli.main([]) == 0
        assert "artifacts:" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert cli.main(["fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_table1_renders(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "# table1 #" in out

    def test_simulation_artifact_with_tiny_workload(self, capsys, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)
        monkeypatch.setattr(
            defaults, "memory_points_mb", lambda points=None: [0.125]
        )
        assert cli.main(["fig6a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out

    def test_artifact_registry_complete(self):
        expected = {
            "table1", "table2",
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b",
            "fig_ring",
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10",
        }
        assert set(cli.ARTIFACTS) == expected


class TestRunAndAnalyzeCli:
    @pytest.fixture()
    def tiny_defaults(self, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)

    def test_run_profile_prints_report(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out
        assert "total = mean response" in out
        assert "binding resource:" in out
        assert trace.exists() and metrics.exists()

    def test_analyze_all_outputs(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()

        perfetto = tmp_path / "perfetto.json"
        ts_out = tmp_path / "ts.json"
        assert cli.main([
            "analyze", str(trace), str(metrics),
            "--report", "--perfetto", str(perfetto),
            "--timeseries-out", str(ts_out), "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "binding resource:" in out
        assert "top 2 slowest" in out
        # Both exports are valid JSON with the expected top-level shape.
        import json

        doc = json.loads(perfetto.read_text())
        assert "traceEvents" in doc and doc["traceEvents"]
        ts = json.loads(ts_out.read_text())
        assert ts["windows"]

    def test_analyze_defaults_to_report(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "dominant phase group" in out  # no metrics file given

    def test_run_cachestats_dumps_and_summarizes(
        self, capsys, tiny_defaults, tmp_path
    ):
        dump = tmp_path / "cachescope.jsonl"
        assert cli.main([
            "run", "--mem-mb", "0.25", "--cachestats", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert "duplicate share" in out and "violations=" in out
        assert dump.exists()
        import json

        first = json.loads(dump.read_text().splitlines()[0])
        assert first["kind"] == "summary"
        assert "violations" in first["totals"]

    def test_analyze_cache_renders_report(
        self, capsys, tiny_defaults, tmp_path
    ):
        dump = tmp_path / "cachescope.jsonl"
        assert cli.main([
            "run", "--mem-mb", "0.25", "--cachestats", str(dump),
        ]) == 0
        capsys.readouterr()
        # --cache works without a TRACE argument.
        assert cli.main(["analyze", "--cache", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "cache behavior (end of run)" in out
        assert "master-evicted-while-replica-held" in out

    def test_analyze_requires_trace_or_cache(self, capsys):
        assert cli.main(["analyze"]) == 2
        assert "TRACE" in capsys.readouterr().err

    def test_analyze_cache_missing_file_errors(self, capsys):
        assert cli.main(["analyze", "--cache", "/nonexistent.jsonl"]) == 2
        assert "cannot read cache dump" in capsys.readouterr().err

    def test_analyze_json_stdout_and_file(
        self, capsys, tiny_defaults, tmp_path
    ):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()

        assert cli.main([
            "analyze", str(trace), str(metrics), "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["kind"] == "attribution"
        assert doc["requests"] > 0
        assert "phase_means_ms" in doc and "by_class" in doc
        assert doc["binding_resource"] is not None
        # --json alone suppresses the default text report.
        assert "critical-path attribution" not in out

        json_out = tmp_path / "attr.json"
        assert cli.main([
            "analyze", str(trace), "--json", str(json_out),
        ]) == 0
        doc = json.loads(json_out.read_text())
        assert doc["binding_resource"] is None  # no metrics file given

    def test_verbose_flag_stripped(self, capsys):
        assert cli.main(["-v", "list"]) == 0
        assert "artifacts:" in capsys.readouterr().out

    def test_run_without_profile_has_no_report(
        self, capsys, tiny_defaults, tmp_path
    ):
        assert cli.main(["run", "--mem-mb", "0.25"]) == 0
        assert "critical-path profile" not in capsys.readouterr().out

    def test_run_with_slo_spec(self, capsys, tiny_defaults, tmp_path):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({
            "window_ms": 10.0, "latency": {"p95_ms": 0.001},
        }))
        slo_out = tmp_path / "slo-report.json"
        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--mem-mb", "0.25", "--slo", str(spec),
            "--slo-out", str(slo_out), "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO evaluation" in out
        assert "alerts" in out
        doc = json.loads(slo_out.read_text())
        assert doc["kind"] == "slo"
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["totals"]["alert_count"] >= 1
        # The alerts were emitted into the dumped trace too.
        alert_lines = [
            json.loads(line) for line in trace.read_text().splitlines()
            if json.loads(line)["name"] == "alert"
        ]
        assert len(alert_lines) == doc["totals"]["alert_count"]

    def test_run_bad_slo_spec_errors(self, capsys, tiny_defaults, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text('{"window_ms": -1.0}')
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--mem-mb", "0.25", "--slo", str(spec)])
        assert exc.value.code == 2
        assert "SLO spec" in capsys.readouterr().err

    def test_slo_out_requires_slo(self, capsys, tiny_defaults, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "run", "--mem-mb", "0.25",
                "--slo-out", str(tmp_path / "r.json"),
            ])
        assert exc.value.code == 2

    def test_analyze_critical(self, capsys, tiny_defaults, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        crit_out = tmp_path / "crit.json"
        assert cli.main([
            "analyze", str(trace), "--critical",
            "--critical-out", str(crit_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out
        assert "total = mean critical path" in out
        # --critical alone suppresses the default attribution report.
        assert "binding resource:" not in out
        doc = json.loads(crit_out.read_text())
        assert doc["kind"] == "critical"
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["requests"] > 0

    def test_analyze_diff(self, capsys, tiny_defaults, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        attr = tmp_path / "attr.json"
        assert cli.main(["analyze", str(trace), "--json", str(attr)]) == 0
        capsys.readouterr()
        # Attribution JSON on one side, raw trace JSONL on the other.
        diff_out = tmp_path / "diff.json"
        assert cli.main([
            "analyze", "diff", str(attr), str(trace),
            "--json", str(diff_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "conservation check" in out
        assert "mean response unchanged" in out
        doc = json.loads(diff_out.read_text())
        assert doc["kind"] == "diff"
        assert doc["delta_ms"] == pytest.approx(0.0, abs=1e-9)
        assert abs(doc["conservation_residual_ms"]) < 1e-9

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '{"trace": 1, "name": "request", "start": 0.0, "end": 1.0}',
        '{"trace": 1, "span": 1, "name": "request", "start": "x"}',
    ])
    def test_analyze_rejects_non_span_records(self, capsys, tmp_path, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"trace": 1, "span": 1, "name": "request", "start": 0.0, '
            '"end": 1.0}\n' + line + "\n"
        )
        assert cli.main(["analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "analyze: cannot read input:" in err
        assert f"{trace}:2:" in err

    def test_analyze_diff_bad_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {")
        assert cli.main(["analyze", "diff", str(bad), str(bad)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_analyze_json_stdout_stays_pure(
        self, capsys, tiny_defaults, tmp_path
    ):
        import json

        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        crit_out = tmp_path / "crit.json"
        assert cli.main([
            "analyze", str(trace), "--json", "-", "--top", "1", "--critical",
            "--critical-out", str(crit_out),
        ]) == 0
        captured = capsys.readouterr()
        # stdout is exactly one JSON document; every report and
        # confirmation went to stderr.
        assert json.loads(captured.out)["kind"] == "attribution"
        assert "top 1 slowest" in captured.err
        assert "critical path:" in captured.err
        assert f"critical profile  -> {crit_out}" in captured.err
        assert json.loads(crit_out.read_text())["kind"] == "critical"

    @pytest.mark.parametrize("argv", [
        ["run", "--mem-mb", "nan"],
        ["run", "--mem-mb", "inf"],
        ["analyze", "trace.jsonl", "--window-ms", "nan"],
        ["chaos", "--crashes-per-node", "-1"],
        ["chaos", "--crashes-per-node", "nan"],
    ])
    def test_non_finite_or_negative_flags_are_usage_errors(
        self, capsys, tiny_defaults, argv
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err


class TestChaosCli:
    @pytest.fixture()
    def tiny_defaults(self, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)

    def test_chaos_generates_runs_and_archives(
        self, capsys, tiny_defaults, tmp_path
    ):
        plan_out = tmp_path / "plan.json"
        trace = tmp_path / "chaos.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "chaos", "--system", "cc-kmc", "--nodes", "3",
            "--mem-mb", "0.25", "--crashes-per-node", "2",
            "--link-drops", "1", "--disk-stalls", "1",
            "--plan-out", str(plan_out),
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out and "fault-free" in out
        assert plan_out.exists() and trace.exists() and metrics.exists()

    def test_chaos_replays_archived_plan(self, capsys, tiny_defaults, tmp_path):
        plan_out = tmp_path / "plan.json"
        assert cli.main([
            "chaos", "--system", "press", "--nodes", "3",
            "--mem-mb", "0.25", "--plan-out", str(plan_out),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "chaos", "--system", "press", "--nodes", "3",
            "--mem-mb", "0.25", "--plan", str(plan_out),
        ]) == 0
        assert "replaying" in capsys.readouterr().out

    def test_chaos_missing_plan_file_errors(self, capsys, tiny_defaults):
        assert cli.main([
            "chaos", "--plan", "/nonexistent/plan.json",
        ]) == 2
        assert "plan" in capsys.readouterr().err.lower()

    def test_chaos_rejects_a_plan_for_a_larger_cluster(
        self, capsys, tiny_defaults, tmp_path
    ):
        from repro.sim.faults import FaultEvent, FaultPlan

        plan = tmp_path / "plan.json"
        FaultPlan((
            FaultEvent("crash", 1.0, node=3),
            FaultEvent("restart", 2.0, node=3),
        )).dump(str(plan))
        assert cli.main([
            "chaos", "--nodes", "2", "--mem-mb", "0.25", "--plan", str(plan),
        ]) == 2
        err = capsys.readouterr().err
        assert "chaos: cannot load plan:" in err
        assert "node 3, but the cluster has 2 nodes" in err

    def test_chaos_profile_attributes_fault_time(
        self, capsys, tiny_defaults, tmp_path
    ):
        assert cli.main([
            "chaos", "--system", "cc-kmc", "--nodes", "3",
            "--mem-mb", "0.25", "--crashes-per-node", "2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out


class TestSweepFailureCli:
    @pytest.mark.parametrize("ledgered", [False, True])
    def test_failing_cell_is_named_and_no_record_written(
        self, capsys, monkeypatch, tmp_path, ledgered
    ):
        from dataclasses import replace

        from repro.experiments import figures
        from repro.experiments.parallel import cell_info
        from repro.experiments.runner import ExperimentConfig

        good = ExperimentConfig(system="press", trace=tiny_trace(),
                                num_nodes=2, mem_mb_per_node=0.25,
                                num_clients=4)
        bad = replace(good, system="bogus")
        monkeypatch.setattr(figures, "fig2_cells",
                            lambda **kw: (["tiny"], [0.25], [good, bad]))
        bench = tmp_path / "BENCH.json"
        ledger = tmp_path / "ledger.jsonl"
        argv = ["sweep", "--workers", "1", "--bench-out", str(bench)]
        if ledgered:
            argv += ["--ledger", str(ledger)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "sweep: 1 cell(s) failed:" in err
        assert "cell 1 [bogus/tiny/0.25MB/seed0]" in err
        assert f"params {cell_info(1, bad).params_digest}" in err
        assert "unknown system" in err
        assert "skipping BENCH record/render" in err
        assert not bench.exists()
        if ledgered:
            from repro.obs.ledger import filter_records, load_ledger

            records = load_ledger(str(ledger))
            assert filter_records(records, kind="sweep")[0]["status"] == (
                "failed")
            cells = filter_records(records, kind="cell")
            assert [c["status"] for c in cells] == ["ok", "failed"]
            assert cells[1]["params_digest"] == cell_info(1, bad).params_digest
