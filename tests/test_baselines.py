"""The committed run baselines under ``baselines/``, regenerated in
process from the CLI invocations CI runs, so drift fails tier-1 and not
only CI's shell steps."""

from pathlib import Path

from repro.cli import main
from repro.obs.ledger import diff_fingerprints, load_fingerprint

BASELINES = Path(__file__).resolve().parents[1] / "baselines"


def test_rma_health_fingerprint(tmp_path, capsys):
    # Per-window attempts, timers, backoffs and hops of one RMA run (CI:
    # "RMA health fingerprint vs baseline").
    fp = tmp_path / "rma.json"
    assert main([
        "health", "--protocol", "rma", "--seed", "1", "--routers", "30",
        "--packets", "6", "--fingerprint", str(fp),
    ]) == 0
    diff = diff_fingerprints(
        load_fingerprint(fp),
        load_fingerprint(BASELINES / "rma_health_fingerprint.json"),
    )
    assert diff.clean, diff.render()
