"""Run the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--update-expected]

Each workload runs in a fresh subprocess (``benchmarks.e2e.measure``)
with BLAS/OpenMP thread counts pinned to 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace`` the per-layer
ones, each as ``{"value", "unit"}``).  With every workload selected the
metrics are nested by workload name.  Each workload's result is appended
to ``trajectory.jsonl``.  ``--seconds`` (default ``run_seconds`` of
``BENCHMARK.json``) sets how many repetitions each workload measures.
The session digests of every run's reference repetition must match
``expected.json``; ``--update-expected`` rewrites that file instead.

The exit code is non-zero when any session fails its checks, when a
``REPRO_*`` switch is set in the environment (it would silently measure
another code path), or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_PATH = HERE / "expected.json"
TRAJECTORY_PATH = HERE / "trajectory.jsonl"

#: The whole command, every selected workload included, ends within this
#: many seconds; a workload still running then is killed and fails.
RUN_LIMIT_SECONDS = 175.0

#: Thread-count variables pinned to 1 in the workload subprocess.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Measure one workload in a fresh subprocess; its result document,
    or a failed one when the subprocess printed none."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e.measure", "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)),
    ]
    failure = {"workload": name, "seed": seed, "config_hash": None, "reps": 0,
               "traced_reps": 0, "attempted": 1, "failed": 1, "digests": {},
               "host_slowdown": None, "metrics": {}}
    try:
        # subprocess.run kills and reaps the child on timeout.
        out = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return dict(failure, problems=[f"{name}: timed out"])
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return dict(failure, problems=[
            f"{name}: exit code {out.returncode}, no result printed"
        ])


def check_expected(result: dict, expected: dict) -> list[str]:
    """Reference digests against the committed ones; mismatches as text."""
    entry = expected.get(result["workload"])
    if entry is None:
        return [f"{result['workload']}: no committed digests"]
    problems = []
    for label in sorted(set(entry["digests"]) | set(result["digests"])):
        if entry["digests"].get(label) != result["digests"].get(label):
            problems.append(f"{result['workload']} {label}: digest differs"
                            " from expected.json")
    return problems


def result_digest(digests: dict) -> str:
    payload = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def append_trajectory(result: dict, seconds: float, trace: bool,
                      revision: str) -> None:
    line = {
        "workload": result["workload"],
        "seed": result["seed"],
        "trace": trace,
        "seconds": seconds,
        "config_hash": result["config_hash"],
        "git_revision": revision,
        "reps": result["reps"],
        "traced_reps": result["traced_reps"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "result_digest": result_digest(result["digests"]),
        "host_slowdown": result["host_slowdown"],
        "metrics": result["metrics"],
    }
    with TRAJECTORY_PATH.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def render(result: dict, units: dict[str, str]) -> str:
    lines = [
        f"== {result['workload']} (seed {result['seed']}, n={result['reps']}"
        f" reps, {result['traced_reps']} traced; {result['failed']} of"
        f" {result['attempted']} sessions failed)"
    ]
    if result["host_slowdown"] is not None:
        lines.append(f"  host ran {result['host_slowdown']:.3f}x the reference"
                     " calibration time; each timed call is divided by"
                     " the slowdown sampled while it ran")
    for name, value in sorted(result["metrics"].items()):
        lines.append(f"  {name:42s} {value:14.6g} {units.get(name, '?')}")
    if result.get("layers"):
        lines.append(f"  {'layer':42s} {'calls':>10s} {'s':>10s} {'self_s':>10s}")
        for name, row in result["layers"].items():
            lines.append(f"  {name:42s} {row['calls']:10.0f} {row['s']:10.4f}"
                         f" {row['self_s']:10.4f}")
    lines.extend(f"  FAIL {problem}" for problem in result["problems"][:20])
    return "\n".join(lines)


def _terminate(signum, frame) -> None:
    # Unwinds through subprocess.run, which kills and reaps the workload
    # subprocess on the way out.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from this run's"
                        " reference repetitions")
    args = parser.parse_args(argv)

    switches = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if switches:
        print(f"refusing to run with {', '.join(switches)} set: each switch"
              " selects another code path", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    names = [args.workload] if args.workload else workloads
    expected = (
        json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    )
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    revision = git_revision()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace, deadline)
        if result["metrics"] and set(result["metrics"]) != set(units):
            result["problems"].append(
                "printed metrics differ from BENCHMARK.json:"
                f" {sorted(set(result['metrics']) ^ set(units))}"
            )
            result["failed"] = max(result["failed"], 1)
        if args.update_expected and result["digests"]:
            expected[name] = {"digests": result["digests"]}
        elif result["digests"]:
            mismatches = check_expected(result, expected)
            result["problems"].extend(mismatches)
            result["failed"] += len(mismatches)
        if result["config_hash"] is not None:
            append_trajectory(result, args.seconds, trace, revision)
        print(render(result, units), flush=True)
        results.append(result)
    if args.update_expected:
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                                 + "\n")

    def tagged(metrics: dict) -> dict:
        return {k: {"value": v, "unit": units.get(k, "")}
                for k, v in metrics.items()}

    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["metrics"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": (
            tagged(results[0]["metrics"]) if args.workload
            else {r["workload"]: tagged(r["metrics"]) for r in results}
        ),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
