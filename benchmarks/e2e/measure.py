"""Measure one workload in this process; print the result as JSON.

``python -m benchmarks.e2e.measure --workload NAME --seed N --seconds S
--trace 0|1`` is what ``python -m benchmarks.e2e`` starts in a fresh
subprocess per workload, with thread counts pinned to 1.

It first runs the workload's tiny config twice (imports and lazy set-up
happen there, untimed, and the two must agree digest for digest).  Then
it runs ``2 * round(S / (2 * rep_seconds))`` repetitions of the full
config, at least two.  The count follows from the arguments, never from
the clock.  Each repetition is cold: the plan cache is cleared and every
scenario is rebuilt.  Even repetitions run the *reference input*, whose
loss processes come from :data:`REFERENCE_SEED` whatever ``N`` is, and
must agree with repetition 0 session for session, digest and event
count.  Odd repetition ``i`` draws its loss processes from seed
``N * 1000 + i``.  Half of every run is thus the same work, and the
other half averages over several draws of the run's own.

A :class:`~benchmarks.e2e.calibration.HostSampler` samples the host's
speed while each repetition runs.  Each timed call is divided by the
slowdown against the reference machine sampled while it ran (see
:mod:`benchmarks.e2e.calibration`), and the timing metrics are the
medians over the repetitions of those quotients' sums.

Repetition 0's session digests are checked against ``expected.json``,
and what RP simulated in it (recovery latency p50/p95, hops per
recovered loss) is reported as the three deterministic end-to-end
metrics, the same on every run of unchanged code.  The last stdout line
is one JSON document: the metrics, the host slowdown, the reference
session digests and every failed check.

With ``--trace 1`` every repetition is run twice, plain and then under
:class:`~benchmarks.e2e.layers.LayerTracer`, without the sampler; the
two must agree digest for digest and event for event, and the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback

from benchmarks.e2e.layers import LayerTracer, layer_metrics
from benchmarks.e2e.workloads import REFERENCE_SEED, WORKLOADS, run_repetition
from repro.obs.ledger import config_hash


def unit_seed(seed: int, index: int) -> int:
    """Loss seed of repetition ``index`` of a run with ``seed``."""
    return REFERENCE_SEED if index % 2 == 0 else seed * 1000 + index


def repetitions(name: str, seconds: float, trace: bool) -> int:
    """Repetitions a run of ``seconds`` measures: an even count, at least
    two, so both inputs are timed equally often (with ``trace``, the
    number of plain/traced pairs, at least one)."""
    per_rep = WORKLOADS[name].rep_seconds
    pairs = max(1, round(seconds / (2 * per_rep)))
    return pairs if trace else 2 * pairs


def e2e_metrics(reps: list, reference_peak_kib: int) -> dict[str, float]:
    """The end-to-end metrics over the plain repetitions, their timings
    at the reference speed."""
    return {
        "setup_s": statistics.median(rep.setup_ref_s for rep in reps),
        "session_s": statistics.median(rep.session_ref_s for rep in reps),
        "peak_rss_mb": reference_peak_kib / 1024.0,
        **reps[0].rp_outputs(),
    }


def check(runs: dict, twins: list[tuple[str, str]]) -> tuple[int, list[str]]:
    """Failed sessions and why.

    ``runs`` maps a name to each repetition run; every session's gate
    findings count.  Each ``(a, b)`` in ``twins`` names two runs of the
    same input, which must agree session for session on digest and
    event count; a session of ``b`` that does not fails.  An event count
    that moves under tracing means the wrappers changed which
    dissemination path ran.
    """
    findings: dict[tuple[str, str], list[str]] = {}
    for name, rep in runs.items():
        for session in rep.sessions:
            if session.problems:
                findings.setdefault((name, session.label), []).extend(
                    session.problems
                )
    for a, b in twins:
        first, second = runs[a].sessions, runs[b].sessions
        if len(first) != len(second):
            findings.setdefault((b, "*"), []).append(
                f"{len(second)} sessions, {len(first)} in {a}"
            )
            continue
        for one, other in zip(first, second):
            if other.digest != one.digest:
                findings.setdefault((b, other.label), []).append(
                    f"digest differs from {a}"
                )
            if other.events != one.events:
                findings.setdefault((b, other.label), []).append(
                    f"event count differs from {a}"
                )
    problems = [f"{name} {label}: {finding}"
                for (name, label), found in findings.items() for finding in found]
    return len(findings), problems


def measure(
    name: str, seed: int, reps: int, trace: bool, config: dict | None = None
) -> dict:
    """Run ``reps`` repetitions of workload ``name`` (plain/traced pairs
    with ``trace``) and return its result document."""
    workload = WORKLOADS[name]
    config = workload.config if config is None else config
    result = {
        "workload": name,
        "seed": seed,
        "config_hash": config_hash({"workload": name, "seed": seed, **config}),
        "reps": 0,
        "traced_reps": 0,
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "digests": {},
        "host_slowdown": None,
        "metrics": {},
    }
    runs: dict = {}
    twins: list[tuple[str, str]] = []
    plain: list = []
    traced: list = []
    reference_peak_kib = 0
    try:
        for index in range(2):
            runs[f"tiny {index}"] = run_repetition(name, workload.tiny,
                                                   REFERENCE_SEED)
        twins.append(("tiny 0", "tiny 1"))
        for index in range(reps):
            rep = run_repetition(name, config, unit_seed(seed, index),
                                 sample_host=not trace)
            runs[f"rep {index}"] = rep
            plain.append(rep)
            if index == 0:
                # Later repetitions draw other losses; their memory
                # peaks move with those draws.
                reference_peak_kib = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
            if index >= 2 and index % 2 == 0:
                twins.append(("rep 0", f"rep {index}"))
            if trace:
                with LayerTracer() as tracer:
                    rep = run_repetition(name, config, unit_seed(seed, index))
                runs[f"rep {index} traced"] = rep
                traced.append((tracer, rep))
                twins.append((f"rep {index}", f"rep {index} traced"))
    except Exception:  # a session raised: report it, print no metrics
        traceback.print_exc(file=sys.stderr)
        result["attempted"] = 1
        result["failed"] = 1
        result["problems"] = [traceback.format_exc(limit=1).splitlines()[-1]]
        return result

    failed, problems = check(runs, twins)
    result.update(
        reps=len(plain),
        traced_reps=len(traced),
        attempted=sum(rep.started for rep in runs.values()),
        failed=failed,
        problems=problems,
        digests={s.label: s.digest for s in plain[0].sessions},
    )
    if trace:
        result["metrics"], result["layers"] = layer_metrics(traced, plain)
    else:
        result["host_slowdown"] = statistics.median(rep.slowdown for rep in plain)
        result["metrics"] = e2e_metrics(plain, reference_peak_kib)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    reps = repetitions(args.workload, args.seconds, trace)
    result = measure(args.workload, args.seed, reps, trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
