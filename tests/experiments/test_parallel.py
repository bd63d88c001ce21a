"""Tests for the sweep runner.

The load-bearing guarantee is bit-identical equivalence: because every
run derives all randomness from ``RngStreams(config.seed)`` named
streams, fanning the sweep grid out over processes must change nothing
— not the dataclasses, not a byte of the saved JSON.  The failure
tests inject deterministic unit failures (raise, raise-once, die)
through picklable module-level factories, and hold the failure policy
to be the same at every ``jobs``.
"""

import os
import pathlib

import pytest

from repro.experiments import parallel
from repro.experiments.figures import run_client_sweep, run_loss_sweep
from repro.experiments.persistence import load_sweep, save_sweep
from repro.experiments.report import render_figure
from repro.obs.profiler import Profiler
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory

#: Both runner arms: in the calling process, and on a process pool.
BOTH_JOBS = pytest.mark.parametrize("jobs", [1, 2])


class AlwaysFailFactory(SourceProtocolFactory):
    """Install always raises — the unit fails its try and its retry."""

    name = "FAIL"

    def install(self, *args, **kwargs):
        raise RuntimeError("injected install failure")


class FlakyOnceFactory(SourceProtocolFactory):
    """Fails the first attempt (flag file absent), succeeds the retry."""

    name = "FLAKY"

    def __init__(self, flag_path):
        super().__init__()
        self.flag_path = str(flag_path)

    def install(self, *args, **kwargs):
        flag = pathlib.Path(self.flag_path)
        if not flag.exists():
            flag.write_text("failed once")
            raise RuntimeError("injected flaky failure")
        return super().install(*args, **kwargs)


class CrashFactory(SourceProtocolFactory):
    """Kills the worker process outright (BrokenProcessPool path)."""

    name = "CRASH"

    def install(self, *args, **kwargs):
        os._exit(3)


class TestEquivalence:
    def test_client_sweep_bit_identical(self, tmp_path):
        kwargs = dict(num_routers=(15, 25), num_packets=5, seeds=(1, 2))
        sequential = run_client_sweep(**kwargs)
        parallel = run_client_sweep(**kwargs, jobs=2)
        assert parallel == sequential
        seq_path = tmp_path / "seq.json"
        par_path = tmp_path / "par.json"
        save_sweep(sequential, seq_path)
        save_sweep(parallel, par_path)
        assert seq_path.read_bytes() == par_path.read_bytes()

    def test_loss_sweep_bit_identical(self):
        kwargs = dict(
            loss_probs=(0.05, 0.15), num_routers=15, num_packets=5,
            seeds=(2,),
        )
        assert run_loss_sweep(**kwargs, jobs=3) == run_loss_sweep(**kwargs)


class TestFailureHandling:
    @BOTH_JOBS
    def test_failed_unit_marked_not_dropped(self, tmp_path, jobs):
        sweep = run_client_sweep(
            num_routers=(15,), num_packets=4, seeds=(1,),
            factories=[SRMProtocolFactory(), AlwaysFailFactory()],
            jobs=jobs,
        )
        # The healthy sibling's run survives the other unit's failure.
        assert len(sweep.points[0].runs["SRM"]) == 1
        assert sweep.points[0].runs["FAIL"] == []
        (failure,) = sweep.failures
        assert failure.protocol == "FAIL"
        assert failure.attempts == 2
        assert "injected install failure" in failure.error
        # The metric accessors degrade to None, rendering as n/a.
        assert sweep.points[0].mean_latency("FAIL") is None
        assert sweep.points[0].mean_bandwidth("FAIL") is None
        assert "n/a" in render_figure(sweep, "bandwidth", "Fig", "hops")
        # Failures survive a save/load round trip.
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        assert load_sweep(path).failures == sweep.failures

    def test_failure_policy_same_at_every_jobs(self):
        kwargs = dict(
            num_routers=(15,), num_packets=4, seeds=(1,),
            factories=[SRMProtocolFactory(), AlwaysFailFactory()],
        )
        assert run_client_sweep(**kwargs, jobs=1) == run_client_sweep(
            **kwargs, jobs=2
        )

    @BOTH_JOBS
    def test_retry_recovers_flaky_unit(self, tmp_path, jobs):
        sweep = run_client_sweep(
            num_routers=(15,), num_packets=4, seeds=(1,),
            factories=[FlakyOnceFactory(tmp_path / "flag")],
            jobs=jobs,
        )
        assert sweep.failures == []
        assert len(sweep.points[0].runs["FLAKY"]) == 1

    def test_worker_crash_marked_failed(self):
        sweep = run_client_sweep(
            num_routers=(15,), num_packets=4, seeds=(1,),
            factories=[CrashFactory()],
            jobs=2,
        )
        (failure,) = sweep.failures
        assert failure.protocol == "CRASH"
        assert failure.attempts == 2
        assert sweep.points[0].runs["CRASH"] == []
        assert sweep.points[0].num_clients == 0.0

    def test_worker_crash_charges_only_the_crashing_units(self):
        # A pool break takes every in-flight unit down; the healthy ones
        # must re-run uncharged instead of burning their retry.
        sweep = run_client_sweep(
            num_routers=(15, 20, 25), num_packets=4, seeds=(1, 2),
            factories=[
                CrashFactory(), SRMProtocolFactory(), RPProtocolFactory()
            ],
            jobs=2,
        )
        for point in sweep.points:
            assert len(point.runs["SRM"]) == 2
            assert len(point.runs["RP"]) == 2
        assert len(sweep.failures) == 6
        for failure in sweep.failures:
            assert failure.protocol == "CRASH"
            assert failure.attempts == 2


class TestObservability:
    @BOTH_JOBS
    def test_progress_lines_in_unit_order(self, jobs):
        lines = []
        run_client_sweep(
            num_routers=(15, 25), num_packets=4, seeds=(1, 2),
            jobs=jobs, progress=lines.append,
        )
        # 2 points x 2 seeds x 3 protocols, reported strictly in order
        # no matter which worker finished first.
        assert len(lines) == 12
        assert [line.split("]")[0] for line in lines] == [
            f"[{i + 1}/12" for i in range(12)
        ]
        assert lines[0].startswith("[1/12] x=15 seed=1 SRM:")
        assert lines[-1].startswith("[12/12] x=25 seed=2 RP:")

    @BOTH_JOBS
    def test_per_unit_timing_in_profiler(self, jobs):
        profiler = Profiler()
        run_client_sweep(
            num_routers=(15,), num_packets=4, seeds=(1,),
            jobs=jobs, profiler=profiler,
        )
        stats = profiler.stats()
        assert stats["parallel.unit"].count == 3
        assert stats["parallel.unit"].total > 0
        assert stats["parallel.sweep"].count == 1
        for protocol in ("SRM", "RMA", "RP"):
            assert stats[f"parallel.unit.{protocol}"].count == 1


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_client_sweep(
                num_routers=(15,), num_packets=4, seeds=(1,), jobs=0
            )

    @pytest.mark.parametrize(
        "sweep, grid",
        [(run_client_sweep, "num_routers"), (run_loss_sweep, "loss_probs")],
    )
    def test_empty_grid_rejected(self, sweep, grid):
        with pytest.raises(ValueError, match=grid):
            sweep(**{grid: ()}, num_packets=4, seeds=(1,))

    def test_inline_run_keeps_no_scenarios(self):
        run_client_sweep(num_routers=(15,), num_packets=4, seeds=(1,))
        assert not parallel._scenario_cache
