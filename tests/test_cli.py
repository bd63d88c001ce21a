"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == ["rp", "srm", "rma"]
        assert args.routers == 100

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "xyz"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seeds == [1]
        assert args.faults == [0.0, 0.3, 0.6]
        assert args.churn == [0.0]
        assert args.routers == 60
        assert args.packets == 20

    def test_churn_subcommand_is_folded_into_chaos(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn"])


class TestRunCommand:
    def test_run_prints_summary_table(self, capsys):
        rc = main([
            "run", "--routers", "20", "--packets", "5", "--seed", "3",
            "--protocol", "rp",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RP" in out
        assert "latency ms" in out

    def test_run_multiple_protocols_share_network(self, capsys):
        rc = main([
            "run", "--routers", "20", "--packets", "5", "--seed", "3",
            "--protocol", "rp", "srm",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RP" in out and "SRM" in out

    def test_run_naive_protocols(self, capsys):
        rc = main([
            "run", "--routers", "20", "--packets", "5", "--seed", "3",
            "--protocol", "random", "nearest",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RANDOM" in out and "NEAREST" in out


class TestFigureCommand:
    def test_tiny_figure_5(self, capsys, monkeypatch):
        import repro.cli as cli
        import repro.experiments.figures as figures

        # Shrink the sweep so the test stays fast.
        monkeypatch.setattr(figures, "FIG5_NUM_ROUTERS", (15, 25))
        monkeypatch.setattr(
            cli, "run_client_sweep",
            lambda **kw: figures.run_client_sweep(
                num_routers=(15, 25), **kw
            ),
        )
        rc = main(["figure", "5", "--packets", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "RP" in out


class TestPlanCommand:
    def test_plan_prints_strategies(self, capsys):
        rc = main(["plan", "--routers", "20", "--seed", "3", "--limit", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prioritized list" in out
        assert "E[delay] ms" in out

    def test_plan_specific_client(self, capsys):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_scenario

        built = build_scenario(
            ScenarioConfig(seed=3, num_routers=20, loss_prob=0.05)
        )
        client = built.clients[0]
        rc = main([
            "plan", "--routers", "20", "--seed", "3",
            "--client", str(client),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert str(client) in out


class TestRealismFlags:
    def test_run_with_jitter_and_congestion(self, capsys):
        rc = main([
            "run", "--routers", "15", "--packets", "4", "--seed", "2",
            "--protocol", "rp", "--jitter", "0.2", "--congestion", "0.05",
        ])
        assert rc == 0
        assert "RP" in capsys.readouterr().out

    def test_plan_accepts_realism_flags(self, capsys):
        rc = main([
            "plan", "--routers", "15", "--seed", "2", "--limit", "2",
            "--jitter", "0.1",
        ])
        assert rc == 0


class TestChaosCommand:
    def test_chaos_runs_and_reports_zero_violations(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.json"
        rc = main([
            "chaos", "--seeds", "1", "--faults", "0.0", "0.4",
            "--churn", "0.0", "0.5", "--routers", "25", "--packets", "5",
            "--save", str(out_path),
        ])
        assert rc == 0  # non-zero would mean a gate failed
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "invariant violations: 0" in out
        for name in ("RP", "SRM", "RMA", "SOURCE", "NEAREST"):
            assert name in out
        assert out_path.exists()

    def test_chaos_load_rerenders_saved_sweep(self, capsys, tmp_path):
        from repro.experiments.chaos import run_chaos_sweep

        path = tmp_path / "chaos.json"
        run_chaos_sweep(
            seeds=(1,), faults=(0.3,), churn=(0.3,), num_routers=20,
            num_packets=4,
        ).save(path)
        rc = main(["chaos", "--load", str(path)])
        assert rc == 0
        assert "Chaos sweep" in capsys.readouterr().out


class TestRunnerArtifacts:
    def test_run_protocol_detailed_exposes_collectors(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_scenario, run_protocol_detailed
        from repro.protocols.rp import RPProtocolFactory

        built = build_scenario(
            ScenarioConfig(seed=4, num_routers=20, loss_prob=0.05,
                           num_packets=5)
        )
        artifacts = run_protocol_detailed(built, RPProtocolFactory())
        assert artifacts.summary.fully_recovered
        assert artifacts.log.num_detected == artifacts.summary.losses_detected
        assert artifacts.ledger.recovery_hops == artifacts.summary.recovery_hops
        stats = artifacts.log.per_client_stats()
        assert sum(n for n, _, _ in stats.values()) == artifacts.log.num_detected


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.protocol == "rp"
        assert args.sample_rate == 1.0
        assert args.worst == 5
        assert args.perfetto is None and args.spans is None

    def test_trace_prints_breakdown_and_exports(self, capsys, tmp_path):
        perfetto = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        rc = main([
            "trace", "--routers", "30", "--packets", "10", "--seed", "5",
            "--perfetto", str(perfetto), "--spans", str(spans),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "request_transit" in out
        import json

        doc = json.loads(perfetto.read_text())
        assert doc["traceEvents"]
        assert spans.read_text().strip()

    def test_trace_same_seed_is_reproducible(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        common = ["trace", "--routers", "25", "--packets", "8", "--seed", "9"]
        assert main(common + ["--spans", str(a)]) == 0
        assert main(common + ["--spans", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestHealthCommand:
    def test_health_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.protocol == "rp"
        assert args.window == 50.0
        assert args.max_windows == 512
        assert args.stall_windows == 8
        assert args.blackhole == 0.0
        assert args.label == "run"
        assert args.diff is None and not args.json

    def test_health_clean_run_exits_zero(self, capsys):
        rc = main([
            "health", "--routers", "30", "--packets", "6", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK: no invariant violations" in out
        assert "windows:" in out

    def test_health_fingerprint_diff_round_trip(self, capsys, tmp_path):
        fp = tmp_path / "fp.json"
        ledger = tmp_path / "ledger.jsonl"
        common = [
            "health", "--routers", "30", "--packets", "6", "--seed", "1",
        ]
        assert main(common + ["--fingerprint", str(fp)]) == 0
        assert main(common + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["health", "--diff", str(fp), str(ledger)]) == 0
        assert "MATCH" in capsys.readouterr().out
