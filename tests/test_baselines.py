"""The committed run baselines under ``baselines/``, regenerated in
process from their CLI invocations, so drift fails tier-1.  This module
is the one place they are compared; CI keeps only its same-seed
determinism checks."""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import diff_fingerprints, load_fingerprint

BASELINES = Path(__file__).resolve().parents[1] / "baselines"


def assert_fingerprint_matches(argv, fp, baseline):
    assert main([*argv, "--fingerprint", str(fp)]) == 0
    diff = diff_fingerprints(
        load_fingerprint(fp), load_fingerprint(BASELINES / baseline)
    )
    assert diff.clean, diff.render()


def test_rma_health_fingerprint(tmp_path, capsys):
    # Per-window attempts, timers, backoffs and hops of one RMA run.
    assert_fingerprint_matches(
        ["health", "--protocol", "rma", "--seed", "1", "--routers", "30",
         "--packets", "6"],
        tmp_path / "rma.json", "rma_health_fingerprint.json",
    )


def test_srm_lossless_health_fingerprint(tmp_path, capsys):
    # Per-window NACK and REPAIR hops of SRM's recovery floods.
    assert_fingerprint_matches(
        ["health", "--protocol", "srm", "--lossless-recovery", "--seed", "2",
         "--routers", "60", "--packets", "10"],
        tmp_path / "srm.json", "srm_lossless_health_fingerprint.json",
    )


def test_srm_obs_stream_sha256(tmp_path, capsys):
    # Every SRM timer arm and backoff with its deadline, as the
    # telemetry smoke records it.
    expected, name = (BASELINES / "srm_obs_stream.sha256").read_text().split()
    stream = tmp_path / name
    assert main([
        "obs", "--protocol", "srm", "--lossless-recovery", "--seed", "2",
        "--routers", "60", "--packets", "10", "--jsonl", str(stream),
    ]) == 0
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == expected


def test_chaos_smoke(tmp_path, capsys):
    # Per-run totals of the faults x churn sweep (CI's chaos smoke
    # invocation).
    saved = tmp_path / "chaos.json"
    assert main([
        "chaos", "--seeds", "1", "2", "--faults", "0", "0.3", "--churn", "0",
        "0.5", "--routers", "25", "--packets", "5", "--save", str(saved),
    ]) == 0
    assert saved.read_bytes() == (BASELINES / "chaos_smoke.json").read_bytes()


@pytest.fixture(scope="module")
def campaign_out(tmp_path_factory):
    """The CI campaign smoke's output directory at a worker count, run
    once per count."""
    outs = {}

    def run(jobs):
        if jobs not in outs:
            out = tmp_path_factory.mktemp(f"campaign-jobs{jobs}")
            assert main([
                "campaign", "--out", str(out), "--packets", "4", "--seeds",
                "1", "2", "--client-routers", "15", "25", "--loss-probs",
                "0.05", "--loss-routers", "25", "--jobs", str(jobs),
            ]) == 0
            outs[jobs] = out
        return outs[jobs]

    return run


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_fingerprint(jobs, campaign_out, capsys):
    # Per-run counters of the campaign smoke, and its sweeps byte-equal
    # at every worker count (CI: "Parallel determinism smoke").
    out = campaign_out(jobs)
    diff = diff_fingerprints(
        load_fingerprint(out / "fingerprint.json"),
        load_fingerprint(BASELINES / "campaign_smoke_fingerprint.json"),
    )
    assert diff.clean, diff.render()
    sequential = campaign_out(1)
    for name in ("client_sweep.json", "loss_sweep.json"):
        assert (out / name).read_bytes() == (sequential / name).read_bytes()
