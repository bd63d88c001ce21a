"""Full reproduction campaign.

One call that re-runs the paper's entire evaluation — both sweeps behind
Figures 5–8 — persists the raw results as JSON, and writes a Markdown
report with the four figure tables, the headline improvement
percentages, and the paper's reference values next to each.  This is
the artifact a reviewer asks for: everything, regenerated from seeds,
in one command:

    python -m repro campaign --out results/

Scale knobs mirror the bench harness (packet count, seeds); the default
matches the figure benches.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.experiments.figures import (
    SweepResult,
    run_client_sweep,
    run_loss_sweep,
)
from repro.experiments.persistence import save_sweep
from repro.experiments.report import improvement_pct, render_figure
from repro.obs.ledger import RegressionLedger, RunFingerprint
from repro.obs.profiler import Profiler


@dataclass(frozen=True)
class PaperReference:
    """The paper's reported improvement of RP for one figure."""

    figure: int
    metric: str
    vs_srm_pct: float
    vs_rma_pct: float


#: Section 5.2's reported numbers.
PAPER_REFERENCES = (
    PaperReference(5, "latency", vs_srm_pct=77.78, vs_rma_pct=71.3),
    PaperReference(6, "bandwidth", vs_srm_pct=38.53, vs_rma_pct=23.2),
    PaperReference(7, "latency", vs_srm_pct=78.53, vs_rma_pct=56.0),
    PaperReference(8, "bandwidth", vs_srm_pct=51.83, vs_rma_pct=9.52),
)


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    client_sweep: SweepResult
    loss_sweep: SweepResult
    report_path: pathlib.Path
    sweep_paths: dict[str, pathlib.Path]
    #: Per-protocol telemetry report files (``--telemetry`` only).
    obs_paths: dict[str, pathlib.Path] = field(default_factory=dict)
    #: The campaign's regression fingerprint (``fingerprint.json``,
    #: appended to ``ledger.jsonl`` next to it).
    fingerprint: RunFingerprint | None = None
    fingerprint_path: pathlib.Path | None = None


def _overall_mean_or_none(
    sweep: SweepResult, protocol: str, metric: str
) -> float | None:
    """``overall_mean`` with the no-data guard ``render_figure`` uses:
    a protocol with no measurement anywhere in the sweep (routine for
    latency in ``--lossy-recovery`` mode at high p) yields ``None``
    instead of raising after all the simulation work is done."""
    try:
        return sweep.overall_mean(protocol, metric)
    except ValueError:
        return None


def campaign_fingerprint(
    client_sweep: SweepResult,
    loss_sweep: SweepResult,
    num_packets: int,
    seeds: tuple[int, ...],
    lossless_recovery: bool,
    label: str = "campaign",
) -> RunFingerprint:
    """Reduce a campaign to a diffable :class:`RunFingerprint`.

    The config hash covers every knob that shapes the grid (packet
    count, seeds, recovery-loss mode, the actual sweep points), so two
    fingerprints only compare counter-for-counter when they measured
    the same campaign.  Counters are sim-time quantities only: loss
    totals, event totals and the figure-level means per protocol.
    Failed sweep units are counted — a unit that starts failing in CI
    shows up as a ``CHANGED`` line, not silence.
    """
    config_data = {
        "num_packets": num_packets,
        "seeds": list(seeds),
        "lossless_recovery": lossless_recovery,
        "client_routers": [pt.x for pt in client_sweep.points],
        "loss_probs": [pt.x for pt in loss_sweep.points],
    }
    counters: dict[str, object] = {}
    for name, sweep in (("client", client_sweep), ("loss", loss_sweep)):
        counters[f"{name}.failures"] = len(sweep.failures)
        for protocol in sweep.protocols:
            runs = [r for pt in sweep.points for r in pt.runs[protocol]]
            prefix = f"{name}.{protocol.lower()}"
            counters[f"{prefix}.losses_detected"] = sum(
                r.losses_detected for r in runs
            )
            counters[f"{prefix}.losses_recovered"] = sum(
                r.losses_recovered for r in runs
            )
            counters[f"{prefix}.events_processed"] = sum(
                r.events_processed for r in runs
            )
            for metric in ("latency", "bandwidth"):
                value = _overall_mean_or_none(sweep, protocol, metric)
                counters[f"{prefix}.{metric}"] = (
                    None if value is None else round(value, 6)
                )
    return RunFingerprint.from_payload(
        label,
        config_data,
        counters,
        meta={"kind": "campaign", "protocols": list(client_sweep.protocols)},
    )


def _figure_block(sweep: SweepResult, ref: PaperReference) -> str:
    unit = "ms" if ref.metric == "latency" else "hops"
    table = render_figure(
        sweep, ref.metric, f"Figure {ref.figure}", unit
    )
    rp = _overall_mean_or_none(sweep, "RP", ref.metric)
    srm = _overall_mean_or_none(sweep, "SRM", ref.metric)
    rma = _overall_mean_or_none(sweep, "RMA", ref.metric)
    measured_srm = (
        improvement_pct(rp, srm) if rp is not None and srm is not None else None
    )
    measured_rma = (
        improvement_pct(rp, rma) if rp is not None and rma is not None else None
    )

    def cell(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.2f}%"

    lines = [
        f"## Figure {ref.figure}",
        "",
        "```",
        table,
        "```",
        "",
        "| RP improvement | paper | measured |",
        "|---|---|---|",
        f"| vs SRM | {ref.vs_srm_pct:.2f}% | {cell(measured_srm)} |",
        f"| vs RMA | {ref.vs_rma_pct:.2f}% | {cell(measured_rma)} |",
        "",
    ]
    return "\n".join(lines)


#: Backbone size of the campaign's one instrumented run per protocol.
TELEMETRY_ROUTERS = 100


def run_campaign(
    out_dir: str | pathlib.Path,
    num_packets: int = 30,
    seeds: tuple[int, ...] = (1,),
    lossless_recovery: bool = True,
    client_routers: tuple[int, ...] | None = None,
    loss_probs: tuple[float, ...] | None = None,
    loss_routers: int | None = None,
    progress=print,
    telemetry: bool = False,
    jobs: int = 1,
) -> CampaignResult:
    """Run both sweeps, persist them, and write ``REPORT.md``.

    ``client_routers`` / ``loss_probs`` / ``loss_routers`` override the
    paper's sweep points (used by tests and CI to shrink the campaign);
    ``progress`` receives status lines (pass ``lambda *_: None`` to
    silence).

    ``jobs`` sets how many worker processes run each sweep's (point,
    seed, protocol) grid (1: the calling process); results are
    bit-identical at every value (see :mod:`repro.experiments.parallel`).
    Units that fail even after a retry are reported and listed in
    ``REPORT.md`` instead of aborting the campaign.

    With ``telemetry`` one fully instrumented run per protocol is added
    on a :data:`TELEMETRY_ROUTERS`-router network and its attempt-level
    :class:`~repro.obs.report.ObsReport` saved as ``obs_<name>.json``
    next to the sweeps.
    """
    if not seeds:
        raise ValueError(
            "run_campaign requires at least one seed (seeds is empty)"
        )
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profiler = Profiler()

    progress(
        f"running Figures 5-6 sweep (backbone size, p = 5%)"
        f"{f' on {jobs} workers' if jobs > 1 else ''}..."
    )
    client_kwargs = dict(
        num_packets=num_packets, seeds=seeds,
        lossless_recovery=lossless_recovery,
        jobs=jobs, profiler=profiler,
    )
    if client_routers is not None:
        client_kwargs["num_routers"] = client_routers
    client_sweep = run_client_sweep(**client_kwargs)

    progress(
        f"running Figures 7-8 sweep (per-link loss, n = 500)"
        f"{f' on {jobs} workers' if jobs > 1 else ''}..."
    )
    loss_kwargs = dict(
        num_packets=num_packets, seeds=seeds,
        lossless_recovery=lossless_recovery,
        jobs=jobs, profiler=profiler,
    )
    if loss_probs is not None:
        loss_kwargs["loss_probs"] = loss_probs
    if loss_routers is not None:
        loss_kwargs["num_routers"] = loss_routers
    loss_sweep = run_loss_sweep(**loss_kwargs)

    failures = [
        (label, failure)
        for label, sweep in (("client", client_sweep), ("loss", loss_sweep))
        for failure in sweep.failures
    ]
    for label, failure in failures:
        progress(
            f"WARNING: {label} sweep unit failed after {failure.attempts}"
            f" attempts (x={failure.x:g} seed={failure.seed}"
            f" {failure.protocol}): {failure.error}"
        )
    stat = profiler.stats().get("parallel.unit")
    if stat is not None:
        progress(
            f"sweep execution: {stat.count} units,"
            f" {stat.total:.1f}s of simulation, jobs={jobs}"
        )

    sweep_paths = {
        "client": out / "client_sweep.json",
        "loss": out / "loss_sweep.json",
    }
    save_sweep(client_sweep, sweep_paths["client"])
    save_sweep(loss_sweep, sweep_paths["loss"])

    fingerprint = campaign_fingerprint(
        client_sweep, loss_sweep,
        num_packets=num_packets, seeds=seeds,
        lossless_recovery=lossless_recovery,
    )
    fingerprint_path = out / "fingerprint.json"
    fingerprint.save(fingerprint_path)
    RegressionLedger(out / "ledger.jsonl").append(fingerprint)
    progress(f"regression fingerprint written to {fingerprint_path}")

    obs_paths: dict[str, pathlib.Path] = {}
    if telemetry:
        progress("recording attempt-level telemetry (one run per protocol)...")
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.figures import default_protocols
        from repro.experiments.persistence import save_obs_report
        from repro.experiments.runner import build_scenario, run_protocol_detailed
        from repro.obs import Instrumentation

        config = ScenarioConfig(
            seed=seeds[0],
            num_routers=TELEMETRY_ROUTERS,
            loss_prob=0.05,
            num_packets=num_packets,
            lossless_recovery=lossless_recovery,
        )
        built = build_scenario(config)
        for factory in default_protocols():
            instr = Instrumentation.recording()
            artifacts = run_protocol_detailed(
                built, factory, instrumentation=instr
            )
            path = out / f"obs_{factory.name.lower()}.json"
            save_obs_report(artifacts.obs, path)
            obs_paths[factory.name] = path
        progress(f"telemetry written to {out}/obs_*.json")

    blocks = [
        "# Reproduction campaign report",
        "",
        f"Stream length {num_packets} packets; seeds {list(seeds)};"
        f" recovery traffic {'lossless (paper mode)' if lossless_recovery else 'lossy'}.",
        "",
    ]
    sweeps = {5: client_sweep, 6: client_sweep, 7: loss_sweep, 8: loss_sweep}
    for ref in PAPER_REFERENCES:
        blocks.append(_figure_block(sweeps[ref.figure], ref))
    if failures:
        blocks += [
            "## Failed units",
            "",
            "These (point, seed, protocol) runs failed even after a"
            " retry; their figures above average the remaining runs.",
            "",
            "| sweep | x | seed | protocol | attempts | error |",
            "|---|---|---|---|---|---|",
        ]
        blocks += [
            f"| {label} | {f.x:g} | {f.seed} | {f.protocol}"
            f" | {f.attempts} | {f.error} |"
            for label, f in failures
        ]
        blocks.append("")
    report_path = out / "REPORT.md"
    report_path.write_text("\n".join(blocks))
    progress(f"report written to {report_path}")

    return CampaignResult(
        client_sweep=client_sweep,
        loss_sweep=loss_sweep,
        report_path=report_path,
        sweep_paths=sweep_paths,
        obs_paths=obs_paths,
        fingerprint=fingerprint,
        fingerprint_path=fingerprint_path,
    )
