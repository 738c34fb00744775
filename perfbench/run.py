#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scaleout --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` makes one plain call and one call of
the same seed under cProfile and prints every per-layer metric. Each
call runs in a fresh interpreter (``perfbench/child.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it list every metric with its unit.
The full per-call results and a run manifest (host, Python, CPU count,
calibration-kernel time) go to ``perfbench/out/``.

Exit status is 0 when every metric was measured and published, even if
a correctness check failed (``correct`` is then false); it is 1 when the
program could not be run or a metric broke its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import MetricError, load_spec, publish  # noqa: E402
from perfbench.speed import REFERENCE_S, kernel  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"

#: Set-up is timed in every workload process; probe processes that stop
#: before the workload call top the samples up to this many.
SETUP_SAMPLES = 7

#: A run must end within this many seconds of starting.
RUN_DEADLINE = 175.0

#: String hashing is randomised per process by default; fixing it keeps
#: profiled call counts identical from run to run.
HASH_SEED = "0"


class RunFailed(RuntimeError):
    """The program could not be run: no sources, or a workload process
    crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one workload process to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["PYTHONHASHSEED"] = HASH_SEED
    command = [sys.executable, "-m", "perfbench.child", workload,
               str(seed), str(time.monotonic_ns()), mode]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} {mode} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(
            f"{workload} {mode} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def calibrate(repeats: int = 21) -> float:
    """Median seconds of the speed kernel in this process."""
    return statistics.median(kernel() for __ in range(repeats))


def manifest(args, calibration_s: float) -> dict:
    """Where and how the run happened, so hosts can be read side by side."""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s,
        "reference_s": REFERENCE_S,
        "started_unix_s": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def gate(calls: list) -> list:
    """Every correctness violation across one run's workload calls."""
    problems = [v for call in calls for v in call["violations"]]
    digests = {call["digest"] for call in calls}
    if len(digests) > 1:
        problems.append(
            f"{len(calls)} calls of one seed gave {len(digests)} different "
            "reports or telemetry snapshots")
    return problems


def end_to_end(calls: list, setups: list, correct: bool) -> dict:
    """The user-visible figures of an untraced run."""
    head = calls[0]
    failed = head["failed"] if correct else head["attempted"]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        "sim_ops": head["attempted"],
        "served_frac": 1.0 - failed / head["attempted"],
    }


def per_layer(plain: dict, traced: dict, correct: bool,
              layers: list) -> dict:
    """The headline run's simulated figures and the per-layer figures."""
    failed = plain["failed"] if correct else plain["attempted"]
    values = dict(plain["counters"])
    values.update({
        "sim_goodput_ops": plain["goodput_ops"],
        "sim_p50_s": plain["p50_s"],
        "sim_p99_s": plain["p99_s"],
        "sim_latency_samples": plain["samples"],
        "failed_frac": failed / plain["attempted"],
        "trace_overhead": traced["wall_raw_s"] / plain["wall_raw_s"],
        "sim.events_per_s": plain["counters"]["sim.events"]
        / plain["wall_s"],
    })
    for layer in layers:
        values[f"{layer}.self_s"] = traced["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = traced["calls"].get(layer, 0)
    return values


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunFailed(f"no repro sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE
    run_manifest = manifest(args, calibrate())
    if args.trace:
        calls = [spawn(args.workload, args.seed, "run", deadline),
                 spawn(args.workload, args.seed, "profile", deadline)]
    else:
        calls, started = [], time.monotonic()
        while True:
            began = time.monotonic()
            calls.append(spawn(args.workload, args.seed, "run", deadline))
            finished = time.monotonic()
            # Start another call only if it should end inside the window.
            if finished + (finished - began) - started > args.seconds:
                break
    problems = gate(calls)
    correct = not problems

    if args.trace:
        layers = [m["name"][:-len(".self_s")] for m in spec["per_layer"]
                  if m["name"].endswith(".self_s")]
        undeclared = sorted(set(calls[1]["self_s"]) - set(layers))
        if undeclared:
            print(f"layers not in BENCHMARK.json: {undeclared}",
                  file=sys.stderr)
        values = per_layer(calls[0], calls[1], correct, layers)
        declared = spec["per_layer"]
    else:
        setups = [c["setup_s"] for c in calls]
        while len(setups) < SETUP_SAMPLES:
            setups.append(
                spawn(args.workload, args.seed, "probe", deadline)["setup_s"])
        values = end_to_end(calls, setups, correct)
        declared = spec["end_to_end"]
    metrics = publish(declared, values)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.manifest.json").write_text(
        json.dumps(run_manifest, indent=2, sort_keys=True) + "\n")
    (OUT_DIR / f"{stem}.results.json").write_text(json.dumps(
        {"metrics": metrics, "problems": problems, "calls": calls},
        indent=2, sort_keys=True) + "\n")

    for problem in problems:
        print(f"CORRECTNESS: {problem}")
    for claim in sorted({c for call in calls for c in call["claims_not_met"]}):
        print(f"CLAIM NOT MET: {claim}")
    for name, metric in metrics.items():
        print(f"{name:36} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        # Calls of one seed are deterministic, so a broken gate fails all.
        "failed": 0 if correct else len(calls),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RunFailed, MetricError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(1)
