"""Tests for the reproduction campaign orchestrator."""

import json

import pytest

from repro.core import plan_cache
from repro.experiments.campaign import PAPER_REFERENCES, run_campaign
from repro.experiments.figures import run_client_sweep, run_loss_sweep
from repro.experiments.persistence import (
    load_obs_report,
    load_sweep,
    save_sweep,
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    return run_campaign(
        out,
        num_packets=5,
        seeds=(3,),
        client_routers=(15, 25),
        loss_probs=(0.05, 0.1),
        progress=lambda *_: None,
    ), out


class TestCampaign:
    def test_report_written_with_all_figures(self, campaign):
        result, _ = campaign
        text = result.report_path.read_text()
        for figure in (5, 6, 7, 8):
            assert f"## Figure {figure}" in text
        assert "vs SRM" in text and "vs RMA" in text
        assert "paper" in text and "measured" in text

    def test_sweeps_persisted_and_loadable(self, campaign):
        result, _ = campaign
        for path in result.sweep_paths.values():
            assert path.exists()
            sweep = load_sweep(path)
            assert sweep.protocols == ["SRM", "RMA", "RP"]

    def test_sweep_objects_returned(self, campaign):
        result, _ = campaign
        assert len(result.client_sweep.points) == 2
        assert len(result.loss_sweep.points) == 2

    def test_paper_references_cover_all_figures(self):
        assert sorted(r.figure for r in PAPER_REFERENCES) == [5, 6, 7, 8]

    def test_json_files_valid(self, campaign):
        result, _ = campaign
        for path in result.sweep_paths.values():
            json.loads(path.read_text())


class TestCampaignRobustness:
    def test_empty_seeds_rejected_before_any_work(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            run_campaign(tmp_path / "out", seeds=())
        # Validation fires before the output directory is created.
        assert not (tmp_path / "out").exists()

    def test_no_latency_data_renders_na_instead_of_crashing(self, tmp_path):
        # 6 routers / 2 packets / p = 1% produce zero losses, so no
        # protocol has latency data anywhere; before the guard this
        # raised ValueError *after* both sweeps had completed.
        result = run_campaign(
            tmp_path,
            num_packets=2,
            seeds=(1,),
            client_routers=(6,),
            loss_probs=(0.01,),
            loss_routers=6,
            progress=lambda *_: None,
        )
        text = result.report_path.read_text()
        assert "n/a" in text
        for figure in (5, 6, 7, 8):
            assert f"## Figure {figure}" in text

    def test_telemetry_writes_one_loadable_report_per_protocol(
        self, tmp_path
    ):
        result = run_campaign(
            tmp_path,
            num_packets=4,
            seeds=(1,),
            client_routers=(15,),
            loss_probs=(0.05,),
            loss_routers=15,
            progress=lambda *_: None,
            telemetry=True,
        )
        assert sorted(result.obs_paths) == ["RMA", "RP", "SRM"]
        for name, path in result.obs_paths.items():
            assert path == tmp_path / f"obs_{name.lower()}.json"
            report = load_obs_report(path)
            assert report.protocol == name.lower()
            assert report.attempts_total > 0

    def test_parallel_campaign_bit_identical(self, tmp_path):
        kwargs = dict(
            num_packets=4,
            seeds=(1, 2),
            client_routers=(15,),
            loss_probs=(0.05,),
            loss_routers=15,
            progress=lambda *_: None,
        )
        run_campaign(tmp_path / "seq", jobs=1, **kwargs)
        run_campaign(tmp_path / "par", jobs=2, **kwargs)
        for name in ("client_sweep.json", "loss_sweep.json", "REPORT.md"):
            assert (tmp_path / "seq" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()


class TestCampaignCli:
    def test_cli_campaign_small(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        import repro.experiments.campaign as campaign_mod

        original = campaign_mod.run_campaign

        def tiny_campaign(out, **kwargs):
            kwargs.setdefault("client_routers", (15,))
            kwargs.setdefault("loss_probs", (0.05,))
            kwargs["num_packets"] = 4
            return original(out, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.campaign.run_campaign", tiny_campaign
        )
        rc = cli.main(["campaign", "--out", str(tmp_path / "r")])
        assert rc == 0
        assert (tmp_path / "r" / "REPORT.md").exists()

    def test_cli_campaign_lossy_recovery_and_telemetry(self, tmp_path):
        import repro.cli as cli

        out = tmp_path / "r"
        rc = cli.main([
            "campaign", "--out", str(out), "--packets", "4", "--seeds", "1",
            "--client-routers", "15", "--loss-probs", "0.05",
            "--loss-routers", "15", "--lossy-recovery", "--telemetry",
        ])
        assert rc == 0
        assert "recovery traffic lossy." in (out / "REPORT.md").read_text()
        for name in ("rp", "srm", "rma"):
            assert (out / f"obs_{name}.json").exists()

    def test_cli_campaign_jobs_and_shrink_knobs(self, tmp_path, monkeypatch):
        seen = {}

        def spy_campaign(out, **kwargs):
            seen.update(kwargs, out=out)

        monkeypatch.setattr(
            "repro.experiments.campaign.run_campaign", spy_campaign
        )
        import repro.cli as cli

        rc = cli.main([
            "campaign", "--out", str(tmp_path / "r"), "--jobs", "2",
            "--client-routers", "15", "25", "--loss-probs", "0.05",
            "--loss-routers", "20", "--seeds", "1", "2",
        ])
        assert rc == 0
        assert seen["jobs"] == 2
        assert seen["client_routers"] == (15, 25)
        assert seen["loss_probs"] == (0.05,)
        assert seen["loss_routers"] == 20
        assert seen["seeds"] == (1, 2)

    def test_cli_figure_jobs_flag(self, capsys):
        import repro.cli as cli

        seen = {}

        def spy_sweep(**kwargs):
            seen.update(kwargs)
            from repro.experiments.figures import run_client_sweep

            kwargs.pop("progress", None)
            return run_client_sweep(
                num_routers=(15,), num_packets=4, seeds=(1,)
            )

        original = cli.run_client_sweep
        cli.run_client_sweep = spy_sweep
        try:
            rc = cli.main(["figure", "5", "--packets", "4", "--jobs", "2"])
        finally:
            cli.run_client_sweep = original
        assert rc == 0
        assert seen["jobs"] == 2


def _strip_events(value):
    """The saved JSON without ``events_processed`` (the one count the
    array dissemination fast path legitimately changes)."""
    if isinstance(value, dict):
        return {
            k: _strip_events(v) for k, v in value.items()
            if k != "events_processed"
        }
    if isinstance(value, list):
        return [_strip_events(v) for v in value]
    return value


def test_sweeps_match_reference_paths(tmp_path, monkeypatch, scalar_dissem):
    # A tiny campaign, saved once on the default paths (fast
    # dissemination, cached planning) and once on the reference paths
    # (scalar dissemination, uncached per-client planning).
    def campaign(out):
        out.mkdir()
        save_sweep(run_loss_sweep(
            loss_probs=(0.02, 0.05, 0.10), num_routers=25, num_packets=4,
            seeds=(1, 2),
        ), out / "loss_sweep.json")
        save_sweep(run_client_sweep(
            num_routers=(15, 25), num_packets=4, seeds=(1, 2),
        ), out / "client_sweep.json")

    plan_cache.clear()
    campaign(tmp_path / "default")
    assert plan_cache.GLOBAL_PLAN_CACHE.hits > 0
    monkeypatch.setattr(
        plan_cache, "plans_for",
        lambda planner: {
            c: planner.plan(c) for c in planner.tree.clients
        },
    )
    with scalar_dissem():
        campaign(tmp_path / "reference")
    for name in ("loss_sweep.json", "client_sweep.json"):
        default = json.loads((tmp_path / "default" / name).read_text())
        reference = json.loads((tmp_path / "reference" / name).read_text())
        assert _strip_events(default) == _strip_events(reference), name
        assert default != reference  # the fast path actually fired
