"""Critical-path analysis: component attribution and model checks."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.obs import Instrumentation
from repro.obs.critical_path import (
    COMPONENTS,
    analyze,
    analyze_trace,
)
from repro.obs.events import SOURCE_RANK
from repro.obs.spans import (
    CATEGORY_ATTEMPT,
    CATEGORY_LINK,
    CATEGORY_RECOVERY,
    NO_SPAN,
    Span,
    SpanStore,
)
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory


def _root(trace_id=0, start=0.0, end=10.0, status="succeeded"):
    return Span(
        trace_id, 0, NO_SPAN, "recovery", CATEGORY_RECOVERY, start, end=end,
        node=3, attrs={"protocol": "rp", "client": 3, "seq": 1,
                       "status": status},
    )


def _attempt(span_id, start, end, status, rank=0, trace_id=0, peer=7):
    return Span(
        trace_id, span_id, 0, f"attempt[{rank}]", CATEGORY_ATTEMPT, start,
        end=end, node=3,
        attrs={"attempt": span_id, "rank": rank, "peer": peer,
               "status": status},
    )


class TestAnalyzeTrace:
    def test_succeeded_attempt_splits_by_milestones(self):
        root = _root(end=10.0)
        attempt = _attempt(1, 0.0, 10.0, "succeeded")
        attempt.annotate(3.0, "deliver.request", node=7)
        attempt.annotate(9.0, "deliver.repair", node=3)
        repair_hop = Span(
            0, 2, 1, "xmit.repair", CATEGORY_LINK, 5.0, end=9.0, node=6,
        )
        b = analyze_trace([root, attempt, repair_hop])
        assert b.components["request_transit"] == pytest.approx(3.0)
        assert b.components["peer_processing"] == pytest.approx(2.0)
        assert b.components["repair_transit"] == pytest.approx(4.0)
        assert b.components["other"] == pytest.approx(1.0)
        assert sum(b.components.values()) == pytest.approx(b.total)

    def test_instant_source_reply_keeps_request_transit(self):
        # The source answers on the tick the request arrives: the
        # deliver.request and first xmit.repair timestamps tie, and the
        # request leg must still be attributed to request_transit.
        root = _root(end=8.0)
        attempt = _attempt(1, 0.0, 8.0, "succeeded", rank=SOURCE_RANK)
        attempt.annotate(4.0, "deliver.request", node=7)
        attempt.annotate(8.0, "deliver.repair", node=3)
        repair_hop = Span(
            0, 2, 1, "xmit.repair", CATEGORY_LINK, 4.0, end=8.0, node=7,
        )
        b = analyze_trace([root, attempt, repair_hop])
        assert b.components["request_transit"] == pytest.approx(4.0)
        assert b.components["peer_processing"] == pytest.approx(0.0)
        assert b.components["repair_transit"] == pytest.approx(4.0)

    def test_timed_out_splits_backoff_from_slack(self):
        root = _root(end=30.0)
        first = _attempt(1, 0.0, 10.0, "timed_out")
        second = _attempt(2, 10.0, 30.0, "timed_out", rank=SOURCE_RANK)
        second.annotations.append(
            {"time": 10.0, "label": "backoff", "backoff": 1, "extra": 12.0}
        )
        b = analyze_trace([root, first, second])
        assert b.components["backoff"] == pytest.approx(12.0)
        assert b.components["timeout_slack"] == pytest.approx(18.0)

    def test_nacked_is_request_transit(self):
        root = _root(end=6.0)
        attempt = _attempt(1, 0.0, 6.0, "nacked")
        b = analyze_trace([root, attempt])
        assert b.components["request_transit"] == pytest.approx(6.0)

    def test_inter_attempt_gap_is_timeout_slack(self):
        # SRM arms a suppression timer before the first NACK leaves.
        root = _root(start=0.0, end=20.0)
        attempt = _attempt(1, 8.0, 20.0, "succeeded")
        b = analyze_trace([root, attempt])
        assert b.components["timeout_slack"] == pytest.approx(8.0)

    def test_no_root_returns_none(self):
        assert analyze_trace([_attempt(1, 0.0, 1.0, "succeeded")]) is None

    def test_components_always_sum_to_total(self):
        root = _root(end=17.0, status="retracted")
        spans = [
            root,
            _attempt(1, 0.0, 5.0, "timed_out"),
            _attempt(2, 5.0, 12.0, "nacked", rank=1),
        ]
        b = analyze_trace(spans)
        assert sum(b.components.values()) == pytest.approx(b.total)
        assert b.components["other"] == pytest.approx(5.0)  # retraction tail


def _run_traced(factory, **overrides):
    params = dict(
        seed=11, num_routers=60, loss_prob=0.05, num_packets=30,
        lossless_recovery=True,
    )
    params.update(overrides)
    built = build_scenario(ScenarioConfig(**params))
    instr = Instrumentation.recording(trace=True)
    return run_protocol_detailed(built, factory, instrumentation=instr), built


class TestAnalyzeIntegration:
    def test_components_cover_total_latency(self):
        artifacts, _ = _run_traced(RPProtocolFactory())
        report = analyze(artifacts.spans)
        assert report.breakdowns
        for b in report.breakdowns:
            assert sum(b.components.values()) == pytest.approx(b.total)
            assert all(v >= -1e-9 for v in b.components.values())

    def test_worst_is_sorted_and_bounded(self):
        artifacts, _ = _run_traced(RPProtocolFactory())
        report = analyze(artifacts.spans)
        worst = report.worst(3)
        assert len(worst) == min(3, len(report.breakdowns))
        assert all(
            worst[i].total >= worst[i + 1].total for i in range(len(worst) - 1)
        )
        assert worst[0].total == max(b.total for b in report.breakdowns)

    def test_srm_shows_peer_processing(self):
        # SRM's repair-suppression timers are real peer-side waiting;
        # the decomposition must surface them (RP peers reply on
        # arrival, so the component is ~0 there).
        artifacts, _ = _run_traced(SRMProtocolFactory())
        report = analyze(artifacts.spans)
        assert report.totals["peer_processing"] > 0

    def test_render_mentions_components_and_worst(self):
        artifacts, _ = _run_traced(RPProtocolFactory())
        factory_text = analyze(artifacts.spans).render(worst_k=2)
        for component in COMPONENTS:
            assert component in factory_text
        assert "worst 2 recoveries" in factory_text

    def test_to_dict_is_json_shaped(self):
        import json

        artifacts, _ = _run_traced(RPProtocolFactory())
        report = analyze(artifacts.spans)
        json.dumps(report.to_dict())


class TestModelCheck:
    def test_rank_failure_rates_match_ds_ratios(self):
        """Fig. 5 scenario: observed conditional failure rates per rank
        track the model's ``DS_j/DS_{j-1}`` within Monte-Carlo noise.

        Lossless recovery mode is the model's regime (requests/repairs
        never lost, exactly the paper simulator's assumption); several
        seeds are pooled to tame the noise.  The per-rank table is the
        run's obs report, folded from the same attempts the spans hold.
        """
        factory = RPProtocolFactory()
        observed_attempts: dict[int, int] = {}
        observed_failures: dict[int, int] = {}
        predicted_sum: dict[int, float] = {}
        predicted_n: dict[int, int] = {}
        for seed in (1, 2, 3, 4):
            artifacts, _ = _run_traced(
                factory, seed=seed, num_routers=100, num_packets=40
            )
            for stats in artifacts.obs.per_rank:
                failures = stats.timeouts + stats.nacks
                if stats.rank == SOURCE_RANK:
                    # The source always holds the packet, yet a source
                    # attempt can time out in lossless mode: when the
                    # routed delay plus the tree delay back to the
                    # client exceeds the source timeout (ROADMAP).  On
                    # these seeds it does not happen.
                    assert failures == 0
                    continue
                decided = stats.decided
                observed_attempts[stats.rank] = (
                    observed_attempts.get(stats.rank, 0) + decided
                )
                observed_failures[stats.rank] = (
                    observed_failures.get(stats.rank, 0) + failures
                )
                if stats.predicted is not None:
                    predicted_sum[stats.rank] = (
                        predicted_sum.get(stats.rank, 0.0)
                        + (1.0 - stats.predicted) * decided
                    )
                    predicted_n[stats.rank] = (
                        predicted_n.get(stats.rank, 0) + decided
                    )
        assert observed_attempts.get(0, 0) >= 100
        for rank, n in observed_attempts.items():
            if n < 50 or rank not in predicted_n:
                continue  # too noisy to pin
            observed = observed_failures[rank] / n
            predicted = predicted_sum[rank] / predicted_n[rank]
            # Binomial noise at n>=50 stays well inside 3 sigma ~ 0.2;
            # a systematic mismatch (e.g. wrong conditional) is far
            # larger.
            assert observed == pytest.approx(predicted, abs=0.15), (
                f"rank {rank}: observed {observed:.3f} vs model "
                f"{predicted:.3f} over {n} attempts"
            )

    def test_predicted_costs_attached_for_rp(self):
        factory = RPProtocolFactory()
        artifacts, _ = _run_traced(factory)
        ranked = {r.rank: r for r in artifacts.obs.per_rank}
        assert ranked[0].predicted is not None
        assert ranked[0].predicted_cost is not None and ranked[0].predicted_cost > 0
        assert ranked[SOURCE_RANK].predicted == 1.0
        assert artifacts.obs.planned_delay > 0

    def test_report_times_match_attempt_spans(self):
        # The event-side table counts and times exactly the attempts
        # the span trees hold (every trace is kept at sample rate 1).
        artifacts, _ = _run_traced(RPProtocolFactory())
        spans: dict[int, list[Span]] = {}
        for trace in artifacts.spans.by_trace().values():
            for span in trace:
                if span.category == CATEGORY_ATTEMPT:
                    spans.setdefault(span.attrs["rank"], []).append(span)
        assert sorted(spans) == sorted(r.rank for r in artifacts.obs.per_rank)
        for stats in artifacts.obs.per_rank:
            ranked = spans[stats.rank]
            assert stats.attempts == len(ranked)
            assert stats.successes == sum(
                s.attrs["status"] == "succeeded" for s in ranked
            )
            assert stats.total_time == pytest.approx(
                sum(s.end - s.start for s in ranked), rel=1e-9
            )

    def test_nack_costs_priced_with_rtt_only_estimator(self):
        # Under NACKs RP plans with the RTT-only estimator; eq. 1's
        # predicted cost must use the same one, not the blend.
        from repro.core.objective import RttOnlyEstimator
        from repro.protocols.rp import RPConfig

        factory = RPProtocolFactory(RPConfig(negative_acks=True))
        artifacts, _ = _run_traced(factory)
        assert isinstance(factory.last_estimator, RttOnlyEstimator)
        estimator = RttOnlyEstimator()
        costs: dict[int, list[float]] = {}
        for strategy in factory.last_strategies.values():
            prev_ds = strategy.ds_u
            for rank, candidate in enumerate(strategy.attempts):
                if prev_ds > 0:
                    costs.setdefault(rank, []).append(estimator.cost(
                        candidate.rtt, strategy.timeouts[rank],
                        1.0 - candidate.ds / prev_ds,
                    ))
                prev_ds = candidate.ds
        list_ranks = [r for r in artifacts.obs.per_rank if r.rank >= 0]
        assert list_ranks
        for stats in list_ranks:
            expected = costs[stats.rank]
            assert stats.predicted_cost == pytest.approx(
                sum(expected) / len(expected), rel=1e-12
            )
