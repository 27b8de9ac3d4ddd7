"""Host-cost benchmark of the simulator: end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload mixture|characterization|sessions \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

A run repeats the workload in fresh single-process workers
(``perfbench/worker.py``, one serial run each) until ``--seconds`` have
passed, and reports medians over the workers.  With ``--trace 0`` it
reports the end-to-end metrics:

* ``sim_output_tokens_per_s`` -- simulated output tokens per host second
  after set-up.  The host cost tracks output tokens (prompt tokens are
  mostly prefix-cache hits), so this stays comparable across seeds.
* ``setup_s`` -- ``import repro.api`` plus every ``SystemBuilder.build``.
* ``peak_rss_mb`` -- the worker's peak resident set.

The median wall time is printed too but is not a bounded metric: it
scales with the number of output tokens the seed's inputs draw.  With
``--trace 1`` a run alternates untraced and traced workers and reports the
per-layer metrics, a self-time share table and the tracing overhead.
Every worker's simulated outputs are
checked -- against ``perfbench/reference.json`` at the reference seed,
against seed-independent invariants otherwise -- and its exact work
counters must repeat across the workers of the run.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` workers, and the metrics.

``--write-reference`` re-pins ``reference.json`` from one traced and one
untraced worker per workload at the reference seed; do it only for a
deliberate change of simulated behaviour.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_PATH, REFERENCE_SEED  # noqa: E402

#: Workers a run makes at least, whatever ``--seconds`` says (pairs when traced).
MIN_WORKERS = 3
MIN_TRACED_PAIRS = 2
#: No new worker starts after this many seconds, and none may take longer
#: than the timeout, so a run ends within 180 s.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 50.0

END_TO_END = (
    ("sim_output_tokens_per_s", "tokens/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in layers.LAYERS]
    + [
        ("sim.events", "count"),
        ("llm.engine.resumes", "count"),
        ("llm.engine.step_records", "count"),
        ("llm.engine.generated_tokens", "tokens"),
        ("llm.scheduler.calls", "count"),
        ("llm.scheduler.preemptions", "count"),
        ("llm.scheduler.mean_batch", "requests"),
        ("llm.kvcache.calls", "count"),
        ("llm.kvcache.append_token_calls", "count"),
        ("llm.kvcache.hit_rate", "ratio"),
        ("llm.tokenizer.calls", "count"),
        ("llm.tokenizer.tokens", "tokens"),
        ("llm.perf.calls", "count"),
        ("serving.router.calls", "count"),
        ("serving.admission.calls", "count"),
        ("serving.admission.delayed_or_rejected", "count"),
        ("serving.autoscaler.scaling_events", "count"),
        ("agents.llm_calls", "count"),
        ("tools.calls", "count"),
        ("api.import_s", "s"),
        ("api.build_s", "s"),
        ("api.results_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.attributed_share", "ratio"),
        ("trace.wrapped_calls", "count"),
    ]
)


def environment() -> dict:
    """Interpreter, numpy, core count and CPU model of this host."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def start_worker(workload: str, seed: int, traced: bool, record: bool = False):
    """Run one worker; returns ``(report, None)`` or ``(None, error)``."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if traced:
        command.append("--trace")
    if record:
        command.append("--record")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        return None, f"worker exited {done.returncode}: " + " | ".join(tail)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "worker printed no result"


def check(reports, errors) -> list:
    """Reports that are correct and whose counters agree with the first one."""
    good = []
    for report in reports:
        if report["errors"]:
            errors.extend(report["errors"])
            continue
        if good:
            first = good[0]["counters"]
            differ = [
                name for name, value in report["counters"].items()
                if name in first and first[name] != value
            ]
            if differ:
                errors.append(f"counters differ between workers: {', '.join(differ)}")
                continue
        good.append(report)
    return good


def median(reports, key):
    return statistics.median(report[key] for report in reports)


def layer_report(untraced, traced) -> dict:
    """Per-layer medians; self times net of the measured per-call cost."""
    overhead_s = median(traced, "wall_s") - median(untraced, "wall_s")
    calls = traced[0]["layers"]["trace.wrapped_calls"]
    per_call_s = max(0.0, overhead_s / calls)
    self_by_run = [
        layers.self_times(report["spans"], per_call_s, report["inner_share"])
        for report in traced
    ]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(run[layer] for run in self_by_run)
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(report["layers"][name] for report in traced)
    metrics["trace.overhead_s"] = overhead_s
    print(f"tracing cost: {overhead_s:.3f} s over {calls} wrapped calls "
          f"({per_call_s * 1e6:.2f} us per call)")
    print(f"{'layer':<20} {'calls':>10} {'self_s':>9} {'share':>7}")
    wall = median(untraced, "wall_s")
    for layer in layers.LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        entry = traced[0]["spans"][layer]
        print(f"{layer:<20} {entry['calls']:>10} {self_s:>9.4f} {self_s / wall:>7.1%}")
    print(f"{'api.import':<20} {'':>10} {metrics['api.import_s']:>9.4f} "
          f"{metrics['api.import_s'] / wall:>7.1%}")
    print(f"shares are of the untraced wall, {wall:.3f} s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "api", "__init__.py")):
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, so no worker pays for it inside its timings.
    compileall.compile_dir(SRC, quiet=1)
    started = clock()
    reports = {False: [], True: []}
    errors = []
    attempted = 0
    kinds = (False, True) if trace else (False,)
    minimum = MIN_TRACED_PAIRS if trace else MIN_WORKERS
    while True:
        for traced in kinds:
            attempted += 1
            report, error = start_worker(workload, seed, traced)
            if error:
                errors.append(error)
            else:
                reports[traced].append(report)
        elapsed = clock() - started
        if elapsed >= LAST_START_S or (
            elapsed >= seconds and len(reports[False]) >= minimum
        ):
            break
    untraced = check(reports[False], errors)
    traced = check(reports[True], errors)
    if untraced and traced and untraced[0]["counters"] != {
        name: value for name, value in traced[0]["counters"].items()
        if name in untraced[0]["counters"]
    }:
        errors.append("traced and untraced workers count different work")
        traced = []
    failed = attempted - len(untraced) - len(traced)
    for error in sorted(set(errors)):
        print(f"error: {error}", file=sys.stderr)

    print(f"workload {workload}, seed {seed}: {attempted} workers, {failed} failed")
    numpy = (untraced or traced or [{}])[0].get("numpy")
    print("environment: " + json.dumps(dict(environment(), numpy=numpy)))
    metrics = {}
    if untraced and (traced or not trace):
        if trace:
            values = layer_report(untraced, traced)
            names = PER_LAYER
        else:
            values = {name: median(untraced, name) for name, _ in END_TO_END}
            names = END_TO_END
        for name, unit in names:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}")
        print(f"wall = {median(untraced, 'wall_s'):.3f} s (median of {len(untraced)} "
              "workers; unbounded, since it scales with the seed's output tokens)")
        print("counters: " + json.dumps(untraced[0]["counters"]))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_reference() -> int:
    """Pin summaries and counters of every workload at the reference seed."""
    compileall.compile_dir(SRC, quiet=1)
    reference = {}
    for workload in workloads.WORKLOADS:
        runs = [start_worker(workload, REFERENCE_SEED, traced, record=True)
                for traced in (False, True)]
        for report, error in runs:
            if error or report["errors"]:
                print(f"{workload}: {error or report['errors']}", file=sys.stderr)
                return 1
        (plain, _), (traced, _) = runs
        if plain["summaries"] != traced["summaries"]:
            print(f"{workload}: tracing changed the simulated results", file=sys.stderr)
            return 1
        reference[workload] = {
            "seed": REFERENCE_SEED,
            "summaries": traced["summaries"],
            "counters": traced["counters"],
        }
        print(f"{workload}: pinned {len(traced['summaries'])} results")
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
