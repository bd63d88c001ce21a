"""Command-line interface.

Subcommands cover the common workflows without writing Python:

``python -m repro run``
    Simulate one scenario under one protocol and print its summary.
``python -m repro figure {5,6,7,8}``
    Regenerate one of the paper's result figures as a text table.
``python -m repro plan``
    Print the RP prioritized list (and its expected delay) for clients
    of a generated scenario.
``python -m repro obs``
    Run one instrumented scenario and print the attempt-level telemetry
    breakdown (attempts-per-recovery histogram, per-rank success rates
    against the model's ``1 - DS_j/DS_{j-1}`` predictions, top timers).
``python -m repro trace``
    Run one traced scenario and print the critical-path breakdown of
    recovery latency (request transit, peer processing, repair transit,
    timeout slack, backoff) plus the worst recoveries; ``--perfetto``
    and ``--spans`` export the span trees for Perfetto /
    ``chrome://tracing`` and as JSONL.
``python -m repro health``
    Run one scenario with windowed sim-time telemetry, report the run
    invariants (including the windowed stall check) and print
    per-window sparklines plus the verdict; exits non-zero on any
    violation.  ``--blackhole P`` injects a recovery black hole under a
    hardened policy (the stall demo); ``--fingerprint``/``--ledger``
    record the run into the cross-run regression ledger, and
    ``repro health --diff A B`` structurally compares two recorded
    fingerprints instead of simulating.
``python -m repro campaign``
    The full figure-reproduction campaign (``--telemetry`` adds
    per-protocol attempt telemetry next to the sweeps).
``python -m repro chaos``
    The faults × churn sweep: all five protocols in their hardened
    configurations over a grid of fault intensities (peer crashes,
    burst loss, link downs, recovery black-holing) and churn
    intensities (members leaving and rejoining), with incremental plan
    repair audited against from-scratch planning.  Exits non-zero on
    any run-invariant violation or a repair quality gap beyond 1%.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.core.planner import RPPlanner
from repro.experiments.chaos import (
    DEFAULT_CHURN,
    DEFAULT_FAULTS,
    ChaosSweepResult,
    hardened_factories,
    run_chaos_sweep,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import run_client_sweep, run_loss_sweep
from repro.experiments.report import format_table, render_figure
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.base import ProtocolFactory
from repro.protocols.naive import NearestPeerProtocolFactory, RandomListProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory

PROTOCOLS: dict[str, type[ProtocolFactory]] = {
    "rp": RPProtocolFactory,
    "srm": SRMProtocolFactory,
    "rma": RMAProtocolFactory,
    "source": SourceProtocolFactory,
    "random": RandomListProtocolFactory,
    "nearest": NearestPeerProtocolFactory,
}


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument(
        "--routers", type=int, default=100, help="backbone router count"
    )
    parser.add_argument(
        "--loss", type=float, default=0.05, help="per-link loss probability"
    )
    parser.add_argument(
        "--packets", type=int, default=30, help="data stream length"
    )
    parser.add_argument(
        "--lossless-recovery",
        action="store_true",
        help="recovery traffic never lost (the paper simulator's mode)",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.0,
        help="per-transmission delay jitter fraction in [0, 1)",
    )
    parser.add_argument(
        "--congestion", type=float, default=0.0, metavar="ALPHA",
        help="load-dependent delay slope (0 = paper's load-independent links)",
    )


def _int_at_least(minimum: int):
    """An argparse type for a count flag that rejects values below
    ``minimum`` at parse time: a negative ``--limit`` would slice from
    the end, a ``--jobs 0`` fail only once the sweep started."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def _scenario_from(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed,
        num_routers=args.routers,
        loss_prob=args.loss,
        num_packets=args.packets,
        lossless_recovery=args.lossless_recovery,
        jitter=args.jitter,
        congestion_alpha=args.congestion,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    built = build_scenario(_scenario_from(args))
    rows = []
    for name in args.protocol:
        factory = PROTOCOLS[name]()
        summary = run_protocol(built, factory)
        rows.append([
            summary.protocol,
            str(summary.num_clients),
            str(summary.losses_detected),
            str(summary.losses_recovered),
            (
                "n/a" if summary.avg_latency is None
                else f"{summary.avg_latency:.2f}"
            ),
            f"{summary.bandwidth_per_recovery:.2f}",
        ])
    print(format_table(
        ["protocol", "clients", "lost", "recovered", "latency ms", "bw hops"],
        rows,
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.load is not None:
        from repro.experiments.persistence import load_sweep

        sweep = load_sweep(args.load)
    else:
        runner = run_client_sweep if args.number in (5, 6) else run_loss_sweep
        sweep = runner(
            num_packets=args.packets,
            seeds=tuple(args.seeds),
            lossless_recovery=not args.lossy_recovery,
            jobs=args.jobs,
            progress=print if args.jobs > 1 else None,
        )
        for failure in sweep.failures:
            print(
                f"WARNING: unit failed after {failure.attempts} attempts"
                f" (x={failure.x:g} seed={failure.seed} {failure.protocol}):"
                f" {failure.error}"
            )
    metric, title, unit = _figure_meta(args.number)
    print(render_figure(sweep, metric, title, unit))
    if args.plot:
        from repro.experiments.ascii_plot import plot_series

        series = (
            sweep.latency_series() if metric == "latency"
            else sweep.bandwidth_series()
        )
        print()
        print(plot_series(series, x_label=sweep.x_label, y_label=unit))
    if args.save is not None:
        from repro.experiments.persistence import save_sweep

        save_sweep(sweep, args.save)
        print(f"\nsweep saved to {args.save}")
    return 0


def _figure_meta(number: int) -> tuple[str, str, str]:
    return {
        5: ("latency", "Figure 5: avg recovery latency per packet recovered", "ms"),
        6: ("bandwidth", "Figure 6: avg bandwidth per packet recovered", "hops"),
        7: ("latency", "Figure 7: avg recovery latency per packet recovered", "ms"),
        8: ("bandwidth", "Figure 8: avg bandwidth per packet recovered", "hops"),
    }[number]


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_protocol_detailed
    from repro.obs import Instrumentation

    built = build_scenario(_scenario_from(args))
    factory = PROTOCOLS[args.protocol]()
    membership = None
    if args.churn > 0:
        from repro.experiments.chaos import chaos_horizon
        from repro.sim.membership import random_membership_schedule
        from repro.sim.rng import RngStreams

        membership = random_membership_schedule(
            args.churn,
            RngStreams(args.seed).get(f"membership-schedule:{args.churn:g}"),
            [c for c in built.tree.clients if c != built.tree.root],
            chaos_horizon(built.config),
        )
    instr = Instrumentation.recording(jsonl_path=args.jsonl)
    try:
        artifacts = run_protocol_detailed(
            built, factory, instrumentation=instr, membership=membership
        )
    finally:
        instr.close()
    assert artifacts.obs is not None
    # The file first: a stdout reader that stops early loses nothing.
    if args.save is not None:
        from repro.experiments.persistence import save_obs_report

        save_obs_report(artifacts.obs, args.save)
    if args.json:
        import json

        print(json.dumps(artifacts.obs.to_dict(), indent=1, sort_keys=True))
    else:
        print(artifacts.obs.render())
    if args.save is not None and not args.json:
        print(f"\nreport saved to {args.save}")
    if args.jsonl is not None and not args.json:
        print(f"\nevent log written to {args.jsonl}")
    return 0


def _hardened_factory(name: str) -> ProtocolFactory:
    """One protocol in its hardened (guaranteed-termination) shape —
    what a black-holed run needs to abandon instead of hanging.  RANDOM
    is the one choice outside the chaos sweep's hardened suite."""
    from repro.protocols.naive import NaiveConfig
    from repro.protocols.policy import RecoveryPolicy

    if name == "random":
        return RandomListProtocolFactory(
            NaiveConfig(recovery_policy=RecoveryPolicy.hardened())
        )
    return {f.name.lower(): f for f in hardened_factories()}[name]


def _cmd_health(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import diff_fingerprints, load_fingerprint

    if args.diff is not None:
        a, b = (load_fingerprint(path) for path in args.diff)
        diff = diff_fingerprints(a, b)
        if args.json:
            print(json.dumps({
                "a": a.to_dict(),
                "b": b.to_dict(),
                "clean": diff.clean,
                "config_match": diff.config_match,
                "changed": {k: list(v) for k, v in sorted(diff.changed.items())},
                "only_in_a": diff.only_in_a,
                "only_in_b": diff.only_in_b,
            }, indent=1, sort_keys=True))
        else:
            print(diff.render())
        return 0 if diff.clean else 1

    from repro.experiments.runner import run_protocol_detailed
    from repro.obs import Instrumentation
    from repro.obs.health import HealthConfig, render_health
    from repro.obs.ledger import RegressionLedger, RunFingerprint
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.sim.faults import FaultSchedule

    # Validates --window/--max-windows before any simulation work.
    timeseries = TimeSeriesCollector(
        window=args.window, max_windows=args.max_windows
    )
    config = _scenario_from(args)
    built = build_scenario(config)
    faults = None
    if args.blackhole > 0:
        # The stall demo: black-holed recovery traffic under a hardened
        # policy retries with growing backoff, then abandons — the gaps
        # are what the progress.stall watchdog exists to catch.
        faults = FaultSchedule(
            request_blackhole_prob=args.blackhole,
            repair_blackhole_prob=args.blackhole,
        )
        factory = _hardened_factory(args.protocol)
    else:
        factory = PROTOCOLS[args.protocol]()
    instr = Instrumentation.recording(timeseries=timeseries)
    try:
        artifacts = run_protocol_detailed(
            built, factory, instrumentation=instr, faults=faults,
            health_config=HealthConfig(stall_windows=args.stall_windows),
        )
    finally:
        instr.close()
    health = artifacts.health
    assert health is not None
    fingerprint = RunFingerprint.from_artifacts(
        args.label, config, artifacts,
        meta={"command": "health", "blackhole": args.blackhole},
    )
    # The files first: a stdout reader that stops early loses nothing.
    if args.fingerprint is not None:
        fingerprint.save(args.fingerprint)
    if args.ledger is not None:
        RegressionLedger(args.ledger).append(fingerprint)
    if args.json:
        print(json.dumps({
            "health": health.to_dict(),
            "fingerprint": fingerprint.to_dict(),
            "timeseries": timeseries.to_dict(),
        }, indent=1, sort_keys=True))
    else:
        print(render_health(health, timeseries))
        if args.fingerprint is not None:
            print(f"\nfingerprint saved to {args.fingerprint}")
        if args.ledger is not None:
            print(f"fingerprint appended to {args.ledger}")
    return 1 if health.violations else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_protocol_detailed
    from repro.obs import Instrumentation
    from repro.obs.critical_path import analyze
    from repro.obs.export import write_perfetto, write_spans_jsonl

    built = build_scenario(_scenario_from(args))
    factory = PROTOCOLS[args.protocol]()
    instr = Instrumentation.recording(
        trace=True, trace_sample_rate=args.sample_rate
    )
    try:
        artifacts = run_protocol_detailed(built, factory, instrumentation=instr)
    finally:
        instr.close()
    store = artifacts.spans
    assert store is not None and artifacts.obs is not None
    # The files first: a stdout reader that stops early loses none.
    perfetto = (
        write_perfetto(store, args.perfetto) if args.perfetto is not None
        else None
    )
    spans = (
        write_spans_jsonl(store, args.spans) if args.spans is not None
        else None
    )
    print(analyze(store).render(worst_k=args.worst))
    # From attempt events (every attempt, whatever the sample rate) and
    # without the wall-clock timer rows, so the output is deterministic.
    print("\n".join(["", *artifacts.obs.render_model()]))
    if perfetto is not None:
        print(f"\nPerfetto trace written to {perfetto}")
    if spans is not None:
        print(f"span JSONL written to {spans}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    built = build_scenario(_scenario_from(args))
    planner = RPPlanner(built.tree, built.routing)
    clients = built.clients if args.client is None else [args.client]
    rows = []
    for client in clients[: args.limit]:
        strategy = planner.plan(client)
        rows.append([
            str(client),
            str(strategy.ds_u),
            " -> ".join(str(n) for n in strategy.peer_nodes) or "(source only)",
            f"{strategy.expected_delay:.2f}",
            f"{strategy.source_rtt:.2f}",
        ])
    print(format_table(
        ["client", "DS_u", "prioritized list", "E[delay] ms", "source rtt ms"],
        rows,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RP reliable-multicast recovery (ICPP 2003) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_scenario_args(p_run)
    p_run.add_argument(
        "--protocol",
        nargs="+",
        choices=sorted(PROTOCOLS),
        default=["rp", "srm", "rma"],
        help="protocols to run on the same network",
    )
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=(5, 6, 7, 8))
    p_fig.add_argument("--packets", type=int, default=30)
    p_fig.add_argument("--seeds", type=int, nargs="+", default=[1])
    p_fig.add_argument(
        "--lossy-recovery",
        action="store_true",
        help="subject recovery traffic to loss (realistic mode; the paper"
        " figures use the lossless mode)",
    )
    p_fig.add_argument(
        "--plot", action="store_true", help="also render an ASCII line chart"
    )
    p_fig.add_argument(
        "--save", metavar="PATH", default=None,
        help="save the sweep results as JSON for later re-rendering",
    )
    p_fig.add_argument(
        "--load", metavar="PATH", default=None,
        help="render a previously saved sweep instead of simulating",
    )
    p_fig.add_argument(
        "--jobs", type=_int_at_least(1), default=1, metavar="N",
        help="worker processes for the sweep (results are bit-identical"
        " to --jobs 1; default 1)",
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_obs = sub.add_parser(
        "obs", help="run one instrumented scenario and print its telemetry"
    )
    _add_scenario_args(p_obs)
    p_obs.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default="rp",
        help="protocol to instrument",
    )
    p_obs.add_argument(
        "--churn", type=float, default=0.0, metavar="I",
        help="membership churn intensity in [0, 1]; the member.* and"
        " plan.repair counters then appear in the breakdown (default 0)",
    )
    p_obs.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also stream every telemetry event to a JSONL file",
    )
    p_obs.add_argument(
        "--save", metavar="PATH", default=None,
        help="save the attempt-level report as JSON",
    )
    p_obs.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the text breakdown",
    )
    p_obs.set_defaults(func=_cmd_obs)

    p_health = sub.add_parser(
        "health",
        help="windowed run-health check: sparklines, invariant watchdogs,"
        " regression fingerprints",
    )
    _add_scenario_args(p_health)
    p_health.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default="rp",
        help="protocol to run",
    )
    p_health.add_argument(
        "--window", type=float, default=50.0, metavar="MS",
        help="sim-time window width in ms (default 50)",
    )
    p_health.add_argument(
        "--max-windows", type=int, default=512, metavar="N",
        help="window-count bound; beyond it adjacent windows merge and"
        " the width doubles (default 512)",
    )
    p_health.add_argument(
        "--stall-windows", type=int, default=8, metavar="N",
        help="consecutive silent windows with pending recoveries that"
        " count as a stall (default 8)",
    )
    p_health.add_argument(
        "--blackhole", type=float, default=0.0, metavar="P",
        help="black-hole probability for REQUEST/REPAIR unicasts, run"
        " under a hardened policy — the stall-watchdog demo (default 0)",
    )
    p_health.add_argument(
        "--label", default="run", help="fingerprint label (default 'run')",
    )
    p_health.add_argument(
        "--fingerprint", metavar="PATH", default=None,
        help="save the run's regression fingerprint as JSON",
    )
    p_health.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append the fingerprint to a JSONL regression ledger",
    )
    p_health.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="compare two recorded fingerprints (.json file or .jsonl"
        " ledger, newest entry) instead of simulating; exits non-zero"
        " on any difference",
    )
    p_health.add_argument(
        "--json", action="store_true",
        help="print the health snapshot (verdict + fingerprint + series)"
        " as JSON",
    )
    p_health.set_defaults(func=_cmd_health)

    p_trace = sub.add_parser(
        "trace",
        help="run one traced scenario: critical-path breakdown + span export",
    )
    _add_scenario_args(p_trace)
    p_trace.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default="rp",
        help="protocol to trace",
    )
    p_trace.add_argument(
        "--sample-rate", type=float, default=1.0, metavar="R",
        help="head-sampling rate in [0, 1] (abnormal recoveries are"
        " always kept; default 1.0 = trace everything)",
    )
    p_trace.add_argument(
        "--worst", type=_int_at_least(0), default=5, metavar="K",
        help="how many slowest recoveries to list (default 5)",
    )
    p_trace.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write the span trees as Chrome/Perfetto trace-event JSON",
    )
    p_trace.add_argument(
        "--spans", metavar="PATH", default=None,
        help="write the span trees as JSONL (one span per line)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_plan = sub.add_parser("plan", help="print RP strategies")
    _add_scenario_args(p_plan)
    p_plan.add_argument(
        "--client", type=int, default=None, help="specific client node id"
    )
    p_plan.add_argument(
        "--limit", type=_int_at_least(0), default=10,
        help="max clients to print"
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_campaign = sub.add_parser(
        "campaign", help="run the full figure-reproduction campaign"
    )
    p_campaign.add_argument("--out", default="results", help="output directory")
    p_campaign.add_argument("--packets", type=int, default=30)
    p_campaign.add_argument("--seeds", type=int, nargs="+", default=[1])
    p_campaign.add_argument(
        "--lossy-recovery", action="store_true",
        help="realistic mode instead of the paper simulator's lossless mode",
    )
    p_campaign.add_argument(
        "--telemetry", action="store_true",
        help="also record one instrumented run per protocol and save"
        " its attempt-level report next to the sweeps",
    )
    p_campaign.add_argument(
        "--jobs", type=_int_at_least(1), default=1, metavar="N",
        help="worker processes per sweep (results are bit-identical"
        " to --jobs 1; default 1)",
    )
    p_campaign.add_argument(
        "--client-routers", type=int, nargs="+", default=None,
        metavar="N",
        help="override the Figures 5-6 backbone sizes (shrinks the"
        " campaign for smoke runs)",
    )
    p_campaign.add_argument(
        "--loss-probs", type=float, nargs="+", default=None, metavar="P",
        help="override the Figures 7-8 loss probabilities",
    )
    p_campaign.add_argument(
        "--loss-routers", type=int, default=None, metavar="N",
        help="override the Figures 7-8 backbone size (paper: 500)",
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_chaos = sub.add_parser(
        "chaos",
        help="faults x churn sweep: hardened recovery vs perturbation",
    )
    p_chaos.add_argument("--seeds", type=int, nargs="+", default=[1])
    p_chaos.add_argument(
        "--faults", type=float, nargs="+", default=list(DEFAULT_FAULTS),
        metavar="I", help="fault intensities in [0, 1] (default: 0.0 0.3 0.6)",
    )
    p_chaos.add_argument(
        "--churn", type=float, nargs="+", default=list(DEFAULT_CHURN),
        metavar="I", help="churn intensities in [0, 1] (default: 0.0)",
    )
    p_chaos.add_argument(
        "--routers", type=int, default=60, help="backbone router count"
    )
    p_chaos.add_argument(
        "--packets", type=int, default=20, help="data stream length"
    )
    p_chaos.add_argument(
        "--loss", type=float, default=0.05, help="per-link loss probability"
    )
    p_chaos.add_argument(
        "--save", metavar="PATH", default=None,
        help="save the sweep results as JSON",
    )
    p_chaos.add_argument(
        "--load", metavar="PATH", default=None,
        help="render a previously saved chaos sweep instead of simulating",
    )
    p_chaos.set_defaults(func=_cmd_chaos)
    return parser


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.load is not None:
        sweep = ChaosSweepResult.load(args.load)
    else:
        sweep = run_chaos_sweep(
            seeds=tuple(args.seeds),
            faults=tuple(args.faults),
            churn=tuple(args.churn),
            num_routers=args.routers,
            num_packets=args.packets,
            loss_prob=args.loss,
            progress=print,
        )
    print(sweep.render())
    if args.save is not None:
        sweep.save(args.save)
        print(f"\nsweep saved to {args.save}")
    # The gate: no run-invariant violation anywhere, and repaired plans
    # within 1% of planning from scratch.
    return 0 if sweep.gates_pass else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import run_campaign

    run_campaign(
        args.out,
        num_packets=args.packets,
        seeds=tuple(args.seeds),
        lossless_recovery=not args.lossy_recovery,
        telemetry=args.telemetry,
        jobs=args.jobs,
        client_routers=(
            tuple(args.client_routers)
            if args.client_routers is not None else None
        ),
        loss_probs=(
            tuple(args.loss_probs) if args.loss_probs is not None else None
        ),
        loss_routers=args.loss_routers,
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Inside the try, so a reader that closed early is caught here
        # and not at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (say ``| head -1``) stopped reading.  Point stdout
        # at devnull so the exit-time flush cannot fail again, and end
        # quietly with a non-zero status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
