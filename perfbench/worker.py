"""One benchmark run of one workload, in a fresh process.

Usage, from the repository root (``run.py`` starts it this way)::

    PYTHONPATH=src python3 perfbench/worker.py --workload mixture --seed 0 \
        [--trace] [--record]

Prints one JSON line: host timings, peak RSS, exact work counters, every
``ResultSet.summary()`` the workload produced, the correctness errors found
(empty when the run is correct), and with ``--trace`` the per-layer
numbers.  Host time is measured from before ``import repro.api`` to after
the last summary; set-up is the import plus every ``SystemBuilder.build``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Seed whose summaries and counters are pinned in ``reference.json``.
REFERENCE_SEED = 0
#: Relative tolerance for reference floats: a re-associated sum passes, a
#: behaviour change does not.
FLOAT_RTOL = 1e-9


class Hooks:
    """Times every ``SystemBuilder.build`` and reads counters after each run.

    Counters come from public engine, environment and client attributes of
    each system, read once its ``run_experiment`` returns and then dropped,
    so no system outlives its experiment.  The reading time is excluded
    from the run's host time.
    """

    def __init__(self) -> None:
        self.build_s = 0.0
        self.excluded_s = 0.0
        self.counters = {
            "sim.events": 0,
            "llm.engine.step_records": 0,
            "llm.engine.generated_tokens": 0,
            "sim_tokens": 0,
        }
        self.extra = {
            "preemptions": 0,
            "batched_steps": 0,
            "batch_total": 0,
            "cached_token_hits": 0,
            "prompt_tokens_seen": 0,
            "llm_calls": 0,
        }
        self._systems = []

    def install(self, builder_module, runners_module) -> None:
        builder = builder_module.SystemBuilder
        original_build = builder.build
        original_run = runners_module.run_experiment
        hooks = self

        def build(self):
            start = clock()
            system = original_build(self)
            hooks.build_s += clock() - start
            hooks._systems.append(system)
            return system

        def run_experiment(*args, **kwargs):
            result = original_run(*args, **kwargs)
            start = clock()
            for system in hooks._systems:
                hooks._harvest(system)
            hooks._systems.clear()
            hooks.excluded_s += clock() - start
            return result

        builder.build = functools.wraps(original_build)(build)
        runners_module.run_experiment = functools.wraps(original_run)(run_experiment)

    def _harvest(self, system) -> None:
        counters, extra = self.counters, self.extra
        counters["sim.events"] += system.env.events_processed
        extra["llm_calls"] += system.client.calls_issued
        for engine in system.cluster.engines:
            counters["llm.engine.step_records"] += len(engine.step_records)
            counters["llm.engine.generated_tokens"] += engine.total_generated_tokens
            counters["sim_tokens"] += sum(
                request.num_prompt_tokens + request.num_output_tokens
                for request in engine.completed_requests
            )
            extra["preemptions"] += engine.scheduler.preemption_count
            extra["cached_token_hits"] += engine.kv_cache.cached_token_hits
            extra["prompt_tokens_seen"] += engine.kv_cache.prompt_tokens_seen
            for record in engine.step_records:
                if record.batch_size:
                    extra["batched_steps"] += 1
                    extra["batch_total"] += record.batch_size


def invariant_errors(results, counters) -> list:
    """Seed-independent checks: every offer is answered, work was done."""
    errors = []
    for index, result in enumerate(results):
        if result.kind == "characterization":
            expected = result.spec.arrival.num_requests
            if result.num_completed != expected:
                errors.append(
                    f"result {index}: {result.num_completed} of {expected} tasks completed"
                )
            continue
        stats = result.raw.admission_stats.values()
        offered = sum(entry.offered for entry in stats)
        rejected = sum(entry.rejected for entry in stats)
        if offered != result.spec.arrival.num_requests:
            errors.append(
                f"result {index}: {offered} offered of "
                f"{result.spec.arrival.num_requests} planned"
            )
        completed = (
            result.completed_sessions
            if result.session_stats is not None
            else result.num_completed
        )
        if completed + rejected != offered:
            errors.append(
                f"result {index}: {completed} completed + {rejected} rejected "
                f"!= {offered} offered"
            )
    for name in ("sim_tokens", "llm.engine.generated_tokens"):
        if counters.get(name, 0) <= 0:
            errors.append(f"{name} is {counters.get(name)}, expected > 0")
    return errors


def _same(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return abs(expected - actual) <= FLOAT_RTOL * max(abs(expected), abs(actual))
    return type(expected) is type(actual) and expected == actual


def reference_errors(workload: str, summaries, counters) -> list:
    """Differences from the pinned reference at :data:`REFERENCE_SEED`."""
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)[workload]
    errors = []
    if len(summaries) != len(reference["summaries"]):
        return [f"{len(summaries)} results, reference has {len(reference['summaries'])}"]
    for index, (expected, actual) in enumerate(zip(reference["summaries"], summaries)):
        if sorted(expected) != sorted(actual):
            errors.append(f"result {index}: summary keys differ from the reference")
            continue
        for key in expected:
            if not _same(expected[key], actual[key]):
                errors.append(
                    f"result {index}: {key} = {actual[key]!r}, reference {expected[key]!r}"
                )
    for name, value in counters.items():
        if name in reference["counters"] and reference["counters"][name] != value:
            errors.append(f"{name} = {value}, reference {reference['counters'][name]}")
    return errors


def run(workload: str, seed: int, trace: bool, record: bool = False) -> dict:
    """One run; ``record`` skips the reference check (for re-pinning it)."""
    sys.path.insert(0, HERE)
    import layers
    import workloads

    share = layers.inner_share() if trace else None

    started = clock()
    import repro.api as api
    import repro.api.builder
    import repro.api.runners

    import_s = clock() - started
    hooks = Hooks()
    hooks.install(repro.api.builder, repro.api.runners)
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    results = workloads.run(api, workload, seed)
    summary_start = clock()
    summaries = [result.summary() for result in results]
    finished = clock()

    wall_s = finished - started - hooks.excluded_s
    setup_s = import_s + hooks.build_s
    counters = dict(hooks.counters)
    report = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_output_tokens_per_s": counters["llm.engine.generated_tokens"]
        / (wall_s - setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summaries": summaries,
    }
    if tracer is not None:
        counters["llm.tokenizer.tokens"] = tracer.tallies["llm.tokenizer.tokens"]
        counters["llm.kvcache.append_token_calls"] = tracer.tallies[
            "llm.kvcache.append_token_calls"
        ]
        report["layers"] = layer_metrics(
            tracer, hooks, results, import_s, finished - summary_start, wall_s
        )
        report["spans"] = tracer.spans()
        report["inner_share"] = share
    errors = invariant_errors(results, counters)
    if seed == REFERENCE_SEED and not record:
        errors += reference_errors(workload, summaries, counters)
    report["counters"] = counters
    report["errors"] = errors
    report["numpy"] = sys.modules["numpy"].__version__
    return report


def layer_metrics(tracer, hooks, results, import_s, results_s, wall_s):
    """Per-layer counts and inclusive times of one traced run.

    Self times need the tracing cost per call, which ``run.py`` derives
    from the traced and untraced walls, so they are computed there from
    :meth:`Tracer.spans`.
    """
    extra = hooks.extra
    calls = tracer.calls
    tallies = tracer.tallies
    serving = [result.raw for result in results if result.kind == "serving"]
    attributed = import_s + sum(tracer.raw_self.values()) - hooks.excluded_s
    metrics = {
        "sim.events": hooks.counters["sim.events"],
        "llm.engine.resumes": tallies["llm.engine.resumes"],
        "llm.engine.step_records": hooks.counters["llm.engine.step_records"],
        "llm.engine.generated_tokens": hooks.counters["llm.engine.generated_tokens"],
        "llm.scheduler.calls": calls["llm.scheduler"],
        "llm.scheduler.preemptions": extra["preemptions"],
        "llm.scheduler.mean_batch": extra["batch_total"] / max(1, extra["batched_steps"]),
        "llm.kvcache.calls": calls["llm.kvcache"],
        "llm.kvcache.append_token_calls": tallies["llm.kvcache.append_token_calls"],
        "llm.kvcache.hit_rate": extra["cached_token_hits"]
        / max(1, extra["prompt_tokens_seen"]),
        "llm.tokenizer.calls": calls["llm.tokenizer"],
        "llm.tokenizer.tokens": tallies["llm.tokenizer.tokens"],
        "llm.perf.calls": calls["llm.perf"],
        "serving.router.calls": calls["serving.router"],
        "serving.admission.calls": calls["serving.admission"],
        "serving.admission.delayed_or_rejected": sum(
            entry.delayed + entry.rejected
            for raw in serving
            for entry in raw.admission_stats.values()
        ),
        "serving.autoscaler.scaling_events": sum(
            len(raw.scaling_events) for raw in serving
        ),
        "agents.llm_calls": extra["llm_calls"],
        "tools.calls": calls["tools"],
        "api.import_s": import_s,
        "api.build_s": hooks.build_s,
        "api.results_s": results_s,
        "trace.attributed_share": attributed / wall_s,
        "trace.wrapped_calls": tracer.total_calls,
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.trace, args.record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
