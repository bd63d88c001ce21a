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

    @pytest.mark.parametrize("command", [
        ["figure", "7"], ["campaign", "--out", "unused"],
    ], ids=["figure", "campaign"])
    def test_sweeps_reject_jobs_below_one(self, capsys, command):
        # Rejected by argparse (status 2), not by the sweep runner after
        # the parser accepted it.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err


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

    def test_load_then_save_writes_the_loaded_sweep(self, capsys, tmp_path):
        from repro.experiments.figures import run_client_sweep
        from repro.experiments.persistence import save_sweep

        saved = tmp_path / "sweep.json"
        copy = tmp_path / "copy.json"
        save_sweep(
            run_client_sweep(num_routers=(15,), num_packets=3, seeds=(1,)),
            saved,
        )
        rc = main([
            "figure", "5", "--load", str(saved), "--save", str(copy),
        ])
        assert rc == 0
        assert f"sweep saved to {copy}" in capsys.readouterr().out
        assert copy.read_bytes() == saved.read_bytes()

    def test_lossy_recovery_reaches_the_sweep(self, monkeypatch, tmp_path):
        import repro.cli as cli
        import repro.experiments.figures as figures

        seen = []

        def tiny_loss_sweep(**kwargs):
            seen.append(kwargs["lossless_recovery"])
            return figures.run_loss_sweep(
                loss_probs=(0.2,), num_routers=30, **kwargs
            )

        monkeypatch.setattr(cli, "run_loss_sweep", tiny_loss_sweep)
        saves = {}
        for flags in ([], ["--lossy-recovery"]):
            path = tmp_path / f"sweep{len(flags)}.json"
            rc = main(["figure", "8", "--packets", "6", "--save", str(path),
                       *flags])
            assert rc == 0
            saves[bool(flags)] = path.read_bytes()
        assert seen == [True, False]
        # Lossy recovery traffic is dropped and re-sent: other counts.
        assert saves[True] != saves[False]


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

    @pytest.mark.parametrize("limit", ["-1", "-3"])
    def test_plan_rejects_a_negative_limit(self, capsys, limit):
        # A negative limit used to slice from the end of the clients.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["plan", "--limit", limit])
        assert exc.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err
        assert build_parser().parse_args(["plan", "--limit", "0"]).limit == 0


class TestRealismFlags:
    def test_run_with_jitter_and_congestion(self, capsys):
        rc = main([
            "run", "--routers", "15", "--packets", "4", "--seed", "2",
            "--protocol", "rp", "--jitter", "0.2", "--congestion", "0.05",
        ])
        assert rc == 0
        assert "RP" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["-0.5", "nan", "inf"])
    def test_run_rejects_bad_congestion(self, alpha):
        # Only alpha > 0 builds a congestion model, so these used to run
        # silently as the uncongested paper model.
        with pytest.raises(ValueError, match="congestion_alpha"):
            main([
                "run", "--routers", "15", "--packets", "4", "--seed", "2",
                "--protocol", "rp", "--congestion", alpha,
            ])

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
        # The obs report's per-rank table, without wall-clock timers.
        assert "per-rank attempts vs model" in out
        assert "planned E[delay] (eq. 3)" in out
        assert "top timers" not in out
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

    def test_trace_same_seed_prints_identical_stdout(self, capsys):
        common = ["trace", "--routers", "25", "--packets", "8", "--seed", "9"]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert main(common) == 0
        assert capsys.readouterr().out == first
        assert "per-rank attempts vs model" in first

    @pytest.mark.parametrize("worst", ["-1", "-2"])
    def test_trace_rejects_a_negative_worst(self, capsys, worst):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["trace", "--worst", worst])
        assert exc.value.code == 2
        assert "--worst: must be >= 0" in capsys.readouterr().err
        assert build_parser().parse_args(["trace", "--worst", "0"]).worst == 0

    def test_trace_ends_quietly_when_the_reader_stops_early(self, tmp_path):
        # As ``repro trace ... | head -1``: the reader closes its end
        # after one line.  Unbuffered, each print reaches the pipe as it
        # runs, so the later ones find it closed.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ, PYTHONUNBUFFERED="1",
            PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p
            ),
        )
        spans = tmp_path / "spans.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "trace", "--routers", "25",
                "--packets", "8", "--seed", "9",
                "--perfetto", str(tmp_path / "trace.json"),
                "--spans", str(spans),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        proc.wait(timeout=300)
        assert first.startswith(b"== critical path")
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert spans.read_text().strip()

    def test_trace_sample_rate_and_worst(self, capsys):
        common = ["trace", "--routers", "25", "--packets", "8", "--seed", "9"]
        assert main(common + ["--worst", "1"]) == 0
        traced = capsys.readouterr().out
        assert "worst 1 recoveries:" in traced
        assert traced.count("\n  client=") == 1
        assert "sampling: 0 traces sampled out" in traced
        assert main(common + ["--sample-rate", "0"]) == 0
        sampled = capsys.readouterr().out
        # Nothing is head-sampled; only abnormal recoveries would stay.
        assert "== critical path (0 traces) ==" in sampled
        assert "sampling: 0 traces sampled out" not in sampled


class TestObsCommand:
    def test_obs_prints_and_saves_the_model_check(self, capsys, tmp_path):
        from repro.experiments.persistence import load_obs_report

        saved = tmp_path / "obs.json"
        rc = main([
            "obs", "--routers", "30", "--packets", "10", "--seed", "5",
            "--save", str(saved),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-rank attempts vs model" in out
        assert "planned E[delay] (eq. 3)" in out
        report = load_obs_report(saved)
        assert report.planned_delay > 0
        assert report.mean_latency > 0


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

    @pytest.mark.parametrize("window", ["nan", "inf", "0"])
    def test_health_rejects_bad_window_before_simulating(
        self, window, monkeypatch
    ):
        def no_build(config):
            raise AssertionError("scenario built despite a bad --window")

        monkeypatch.setattr("repro.cli.build_scenario", no_build)
        with pytest.raises(ValueError, match="window"):
            main(["health", "--window", window])

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

    def test_health_label_and_max_windows(self, capsys, tmp_path):
        import json

        from repro.obs.ledger import load_fingerprint

        fp = tmp_path / "fp.json"
        rc = main([
            "health", "--routers", "30", "--packets", "6", "--seed", "1",
            "--label", "nightly", "--max-windows", "4", "--json",
            "--fingerprint", str(fp),
        ])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert load_fingerprint(fp).label == "nightly"
        series = snapshot["timeseries"]
        assert series["max_windows"] == 4
        assert len(series["windows"]) <= 4 and series["coalesced"] > 0

    def test_health_stall_windows_sets_the_threshold(self, capsys):
        stalled = [
            "health", "--routers", "30", "--packets", "6", "--seed", "1",
            "--blackhole", "1.0", "--window", "5",
        ]
        assert main(stalled) == 1
        assert "FAIL progress.stall" in capsys.readouterr().out
        assert main(stalled + ["--stall-windows", "100000"]) == 0
        assert "FAIL" not in capsys.readouterr().out
