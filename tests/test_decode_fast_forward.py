"""Bit-for-bit equivalence of exact decode fast-forwarding.

``EngineConfig.decode_fast_forward`` collapses runs of per-token decode steps
into one simulated event and replays the per-token bookkeeping.  These tests
run identical scenarios with the flag on and off and require *byte-identical*
outcomes -- every step record, every per-request timing float, every energy
and KV statistic -- under idle decode, mid-decode arrivals, and KV-pressure
preemption.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.llm import EngineConfig, LLMClient, LLMEngine
from repro.llm.request import reset_request_ids
from repro.llm.tokenizer import Prompt, SegmentKind
from repro.sim import Environment

from tests.test_cluster_and_policies import tiny_kv_engine_config


def run_scenario(config: EngineConfig, script, fast_forward: bool):
    """Run ``script`` against a fresh engine; returns (env, engine)."""
    reset_request_ids()
    env = Environment()
    engine = LLMEngine(
        env, dataclasses.replace(config, decode_fast_forward=fast_forward)
    )
    client = LLMClient(env, engine)
    script(env, engine, client)
    env.run()
    return env, engine


def assert_bit_identical(config: EngineConfig, script):
    env_fast, fast = run_scenario(config, script, fast_forward=True)
    env_ref, ref = run_scenario(config, script, fast_forward=False)

    assert env_fast.now == env_ref.now
    assert len(fast.completed_requests) == len(ref.completed_requests)
    for a, b in zip(fast.completed_requests, ref.completed_requests):
        assert a.request_id == b.request_id
        assert a.output_token_ids == b.output_token_ids
        assert a.timings.arrival == b.timings.arrival
        assert a.timings.prefill_time == b.timings.prefill_time
        assert a.timings.decode_time == b.timings.decode_time
        assert a.timings.finished == b.timings.finished
        assert a.num_cached_tokens == b.num_cached_tokens
    assert fast.step_records == ref.step_records
    assert fast.energy.joules_by_state == ref.energy.joules_by_state
    assert fast.energy.seconds_by_state == ref.energy.seconds_by_state
    assert fast.runtime_breakdown() == ref.runtime_breakdown()
    assert fast.kv_memory_stats() == ref.kv_memory_stats()
    assert fast.total_generated_tokens == ref.total_generated_tokens
    assert fast.kv_cache.hit_rate() == ref.kv_cache.hit_rate()
    assert (
        fast.kv_cache.allocator.eviction_count == ref.kv_cache.allocator.eviction_count
    )
    # The fast path must actually have fast-forwarded: strictly fewer events.
    assert env_fast.events_processed < env_ref.events_processed


def user_prompt(engine: LLMEngine, stream: str, tokens: int) -> Prompt:
    prompt = Prompt()
    prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, tokens))
    return prompt


class TestFastForwardEquivalence:
    def test_single_request(self):
        def script(env, engine, client):
            def proc():
                yield client.generate(user_prompt(engine, "solo", 200), output_tokens=150)

            env.process(proc())

        assert_bit_identical(EngineConfig(), script)

    def test_concurrent_batch(self):
        def script(env, engine, client):
            def proc(index):
                yield client.generate(
                    user_prompt(engine, f"batch{index}", 120 + 16 * index),
                    output_tokens=90 + 11 * index,
                )

            for index in range(5):
                env.process(proc(index))

        assert_bit_identical(EngineConfig(), script)

    def test_mid_decode_arrivals_bound_the_chunk(self):
        def script(env, engine, client):
            def early():
                yield client.generate(user_prompt(engine, "early", 150), output_tokens=300)

            def late(index, delay):
                yield env.timeout(delay)
                yield client.generate(
                    user_prompt(engine, f"late{index}", 90), output_tokens=40
                )

            env.process(early())
            # Arrivals land strictly inside the long decode; the fast path
            # must stop each chunk at the arrival to admit the newcomer at
            # the same step the per-token path does.
            for index, delay in enumerate((0.7, 1.3, 2.9)):
                env.process(late(index, delay))

        assert_bit_identical(EngineConfig(), script)

    def test_kv_pressure_preemption(self):
        config = tiny_kv_engine_config(num_blocks=40)

        def script(env, engine, client):
            def proc(index):
                yield client.generate(
                    user_prompt(engine, f"pressure{index}", 96), output_tokens=180
                )

            for index in range(3):
                env.process(proc(index))

        env_fast, fast = run_scenario(config, script, fast_forward=True)
        assert fast.scheduler.preemption_count > 0, "scenario must actually preempt"
        assert_bit_identical(config, script)

    def test_prefix_cache_reuse_across_calls(self):
        def script(env, engine, client):
            def proc():
                first = yield client.generate(
                    user_prompt(engine, "shared", 400), output_tokens=64
                )
                prompt = Prompt()
                prompt.append(engine.tokenizer.span(SegmentKind.USER, "shared", 400))
                prompt.append(
                    engine.tokenizer.span(SegmentKind.LLM_HISTORY, "turn2", 64)
                )
                yield client.generate(prompt, output_tokens=64)
                return first

            env.process(proc())

        assert_bit_identical(EngineConfig(), script)
