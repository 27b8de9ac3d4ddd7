#!/usr/bin/env python
"""Profile the simulator hot path over a representative Table IV run.

One-command perf baseline for future optimisation work: runs the Table III
characterization mix (ShareGPT chatbot plus the paper's Reflexion and LATS
configurations, both models) at exact token-level fidelity, then prints

* wall-clock, simulated-events processed, and simulated-events/sec, and
* the top cumulative-time hot spots from cProfile.

Usage, from the repository root::

    PYTHONPATH=src python scripts/profile_sim.py [--tasks N] [--top N]
        [--no-fast-forward] [--sort tottime|cumulative]

``--no-fast-forward`` profiles the reference per-token decode path instead
of the default fast-forwarding one, which is how the decode fast-forward
speedup quoted in the README was measured.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=8, help="tasks per agent workload")
    parser.add_argument("--top", type=int, default=20, help="hot spots to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime"),
        help="pstats sort key",
    )
    parser.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="profile the reference per-token decode path",
    )
    args = parser.parse_args()

    from repro.analysis.tables import table3, table4
    from repro.sim import core as sim_core

    if args.no_fast_forward:
        import dataclasses

        from repro.api.builder import SystemBuilder

        original = SystemBuilder.engine_config

        def forced(self):
            return dataclasses.replace(original(self), decode_fast_forward=False)

        SystemBuilder.engine_config = forced

    # Every Environment the study builds reports into one counter so the
    # events/sec figure covers the whole run.
    events_total = 0
    original_step = sim_core.Environment.step

    def counting_step(self):
        nonlocal events_total
        events_total += 1
        return original_step(self)

    sim_core.Environment.step = counting_step

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = table3(models=("8b", "70b"), num_tasks=args.tasks, seed=0)
    table4(result)
    profiler.disable()
    elapsed = time.perf_counter() - started

    mode = "per-token reference" if args.no_fast_forward else "decode fast-forward"
    print(f"Table IV characterization run ({mode}, tasks={args.tasks})")
    print(f"  wall-clock:           {elapsed:.2f} s")
    print(f"  simulated events:     {events_total}")
    print(f"  simulated events/sec: {events_total / elapsed:,.0f}")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
