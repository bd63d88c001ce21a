"""Tests for the experiment harness: configs, sweeps and reports."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import (
    FIG5_NUM_ROUTERS,
    FIG7_LOSS_PROBS,
    default_protocols,
    run_client_sweep,
    run_loss_sweep,
)
from repro.experiments.report import format_table, improvement_pct, render_figure
from repro.experiments.runner import build_scenario, run_protocols
from repro.protocols.base import StreamConfig


class TestScenarioConfig:
    def test_topology_config_roundtrip(self):
        config = ScenarioConfig(seed=1, num_routers=20, loss_prob=0.1)
        topo_cfg = config.topology_config()
        assert topo_cfg.num_routers == 20
        assert topo_cfg.loss_prob == 0.1

    def test_stream_config_roundtrip(self):
        config = ScenarioConfig(
            seed=1, num_routers=20, loss_prob=0.1, num_packets=7
        )
        assert config.stream_config().num_packets == 7


    @pytest.mark.parametrize("drain", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_drain_time(self, drain):
        # The runner drains with run(until=now + drain_time), which
        # rejects a past or NaN cutoff only after the session ran.
        with pytest.raises(ValueError, match="drain_time"):
            ScenarioConfig(
                seed=1, num_routers=20, loss_prob=0.1, drain_time=drain
            )

    @pytest.mark.parametrize("field", ["data_interval", "session_interval"])
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_rejects_bad_stream_interval(self, field, value):
        # A NaN interval used to pass ``<= 0`` and fail only at the
        # first reschedule; an infinite one ran to sim_time inf.
        with pytest.raises(ValueError, match=field):
            StreamConfig(
                **{"num_packets": 1, "data_interval": 10.0,
                   "session_interval": 50.0, field: value}
            )
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(
                seed=1, num_routers=20, loss_prob=0.1, **{field: value}
            )

    @pytest.mark.parametrize("field, value", [
        ("max_events", 0),
        ("max_events", -5),
        ("max_events", float("nan")),
        ("max_events", float("inf")),
        ("seed", -1),
    ])
    def test_rejects_bad_budget_and_seed(self, field, value):
        # A zero budget used to die at t=0 as "event budget exceeded",
        # a NaN one to disable the runaway guard, and a negative seed
        # to fail inside numpy's generator.
        fields = {"seed": 1, "num_routers": 20, "loss_prob": 0.1}
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{**fields, field: value})

    @pytest.mark.parametrize("field, value", [
        ("num_routers", 0),
        ("loss_prob", float("nan")),
        ("loss_prob", 1.5),
        ("extra_link_fraction", -1.0),
        ("extra_link_fraction", float("nan")),
        ("typical_delay_range", (1.0, float("inf"))),
    ])
    def test_rejects_bad_topology_fields(self, field, value):
        # Checked at construction, not first inside build_scenario.
        fields = {"seed": 1, "num_routers": 20, "loss_prob": 0.1}
        with pytest.raises(ValueError):
            ScenarioConfig(**{**fields, field: value})

    def test_zero_drain_time_is_allowed(self):
        config = ScenarioConfig(
            seed=1, num_routers=20, loss_prob=0.1, drain_time=0.0
        )
        assert config.drain_time == 0.0


class TestBuildScenario:
    def test_build_produces_consistent_artifacts(self):
        built = build_scenario(ScenarioConfig(seed=3, num_routers=25, loss_prob=0.05))
        assert built.tree.root == built.topology.source
        assert built.num_clients == len(built.tree.clients) > 0
        assert built.routing.topology is built.topology

    def test_same_seed_same_network(self):
        config = ScenarioConfig(seed=3, num_routers=25, loss_prob=0.05)
        a = build_scenario(config)
        b = build_scenario(config)
        assert a.tree.clients == b.tree.clients
        assert [(l.u, l.v, l.delay) for l in a.topology.links] == [
            (l.u, l.v, l.delay) for l in b.topology.links
        ]


class TestSweeps:
    def test_paper_constants(self):
        assert FIG5_NUM_ROUTERS == (50, 100, 200, 300, 400, 500, 600)
        assert FIG7_LOSS_PROBS[0] == 0.02 and FIG7_LOSS_PROBS[-1] == 0.20
        assert len(FIG7_LOSS_PROBS) == 10

    def test_default_protocols_are_the_papers_three(self):
        names = [f.name for f in default_protocols()]
        assert names == ["SRM", "RMA", "RP"]

    def test_small_client_sweep(self):
        sweep = run_client_sweep(
            num_routers=(15, 25), num_packets=5, seeds=(1,)
        )
        assert [p.x for p in sweep.points] == [15.0, 25.0]
        lat = sweep.latency_series()
        bw = sweep.bandwidth_series()
        assert {s.protocol for s in lat} == {"SRM", "RMA", "RP"}
        for series in lat + bw:
            assert len(series.ys) == 2
            assert all(y >= 0 for y in series.ys)

    def test_small_loss_sweep(self):
        sweep = run_loss_sweep(
            loss_probs=(0.05, 0.15), num_routers=15, num_packets=5, seeds=(2,)
        )
        assert [p.x for p in sweep.points] == [5.0, 15.0]
        assert sweep.overall_mean("RP", "latency") > 0

    def test_overall_mean_unknown_metric(self):
        sweep = run_loss_sweep(
            loss_probs=(0.05,), num_routers=15, num_packets=5, seeds=(2,)
        )
        with pytest.raises(ValueError):
            sweep.overall_mean("RP", "throughput")

    def test_multi_seed_averaging(self):
        sweep = run_client_sweep(
            num_routers=(15,), num_packets=5, seeds=(1, 2)
        )
        point = sweep.points[0]
        assert len(point.runs["RP"]) == 2

    def test_empty_seeds_rejected_up_front(self):
        with pytest.raises(ValueError, match="seeds"):
            run_client_sweep(num_routers=(15,), num_packets=5, seeds=())
        with pytest.raises(ValueError, match="seeds"):
            run_loss_sweep(
                loss_probs=(0.05,), num_routers=15, num_packets=5, seeds=()
            )

    def test_duplicate_factory_names_rejected(self):
        from repro.protocols.srm import SRMProtocolFactory

        with pytest.raises(ValueError, match="duplicate"):
            run_client_sweep(
                num_routers=(15,), num_packets=5, seeds=(1,),
                factories=[SRMProtocolFactory(), SRMProtocolFactory()],
            )


class TestReport:
    def test_improvement_pct(self):
        assert improvement_pct(2.0, 10.0) == pytest.approx(80.0)
        assert improvement_pct(10.0, 10.0) == 0.0
        assert improvement_pct(1.0, 0.0) == 0.0
        assert improvement_pct(12.0, 10.0) == pytest.approx(-20.0)

    def test_format_table_alignment(self):
        table = format_table(["a", "long"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equally wide

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_render_figure_mentions_improvements(self):
        sweep = run_client_sweep(
            num_routers=(15,), num_packets=5, seeds=(1,)
        )
        text = render_figure(sweep, "latency", "Figure 5", "ms")
        assert "Figure 5" in text
        assert "RP latency is" in text
        assert "SRM" in text and "RMA" in text


class TestRunProtocols:
    def test_duplicate_names_raise_instead_of_overwriting(self):
        from repro.protocols.srm import SRMConfig, SRMProtocolFactory

        config = ScenarioConfig(
            seed=9, num_routers=20, loss_prob=0.05, num_packets=5
        )
        factories = [
            SRMProtocolFactory(),
            SRMProtocolFactory(SRMConfig(c1=1.0)),
        ]
        with pytest.raises(ValueError, match="duplicate.*SRM"):
            run_protocols(config, factories)

    def test_shared_topology_across_protocols(self):
        config = ScenarioConfig(
            seed=9, num_routers=20, loss_prob=0.05, num_packets=5
        )
        summaries = run_protocols(config, default_protocols())
        clients = {s.num_clients for s in summaries.values()}
        assert len(clients) == 1
        losses = {s.losses_detected for s in summaries.values()}
        assert len(losses) == 1  # paired data-loss stream
