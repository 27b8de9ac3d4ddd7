"""The simulated LLM serving engine.

The engine is a single simulation process that mirrors a vLLM engine loop:

1. ask the scheduler for the next step (prefill or decode),
2. advance simulated time by the step duration from the roofline model,
3. apply the step's effects (first token after prefill, one token per
   running sequence per decode step, completions, block bookkeeping),
4. account energy for the time spent in the step's power state,
5. when there is no work, sleep at idle power until a request arrives.

Every step is recorded so experiments can compute GPU-runtime breakdowns,
utilization, and KV-memory statistics exactly the way the paper reports them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.llm.energy import EnergyMeter, PowerState
from repro.llm.hardware import ClusterSpec, cluster_for_model
from repro.llm.kvcache import KVCacheConfig
from repro.llm.models import ModelSpec, LLAMA_3_1_8B
from repro.llm.perf import PerformanceModel
from repro.llm.prefix_cache import PrefixCache
from repro.llm.request import LLMRequest, RequestState
from repro.llm.scheduler import ScheduledStep, Scheduler, SchedulerConfig, StepKind
from repro.llm.speculative import SpeculativeSpec
from repro.llm.tokenizer import SyntheticTokenizer
from repro.sim import Environment, Event, RandomStream


@dataclass(frozen=True)
class EngineConfig:
    """Complete configuration of one serving engine (one model replica)."""

    model: ModelSpec = LLAMA_3_1_8B
    cluster: Optional[ClusterSpec] = None
    block_size: int = 16
    enable_prefix_caching: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    # Exact decode fast-forwarding: collapse runs of per-token decode steps
    # into one simulated event up to the next scheduling boundary (arrival,
    # completion, KV-allocation pressure, run horizon), reconstructing every
    # per-token timing so results are bit-for-bit identical to the per-token
    # path.  Decode is always exact; this only chooses how fast.  On by
    # default and disabled only to A/B-test the equivalence.
    decode_fast_forward: bool = True
    # Fraction of the hardware-derived KV block budget this engine gets
    # (1.0 = the full budget; see KVCacheConfig.from_hardware).
    kv_cache_fraction: float = 1.0
    # Chunked prefill: per-step budget of prompt tokens, co-scheduled with
    # decode tokens in one mixed roofline step (vLLM's chunked prefill).
    # None = atomic prefill, the pre-chunking behaviour, bit-for-bit.
    prefill_chunk_tokens: Optional[int] = None
    # Speculative decoding acceptance model; None = disabled (bit-for-bit
    # identical to the pre-speculative engine).  When set, decode steps emit
    # ``accepted + 1`` tokens for one verify pass plus the draft-model cost.
    # Speculative steps are the one alternative to the exact decode path, so
    # they supersede ``decode_fast_forward`` (its one-token-per-step replay
    # no longer describes a step).
    speculative: Optional[SpeculativeSpec] = None

    def __post_init__(self) -> None:
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")

    def resolved_cluster(self) -> ClusterSpec:
        return self.cluster if self.cluster is not None else cluster_for_model(self.model)


# Not frozen: records are created once per simulated step on the hot path,
# and a frozen dataclass pays object.__setattr__ per field in __init__.
@dataclass(slots=True)
class EngineStepRecord:
    """One engine step (or idle period) for offline analysis."""

    start: float
    duration: float
    kind: str                      # "prefill" | "decode" | "mixed" | "idle"
    batch_size: int
    new_tokens: int
    cached_tokens: int
    generated_tokens: int
    kv_blocks_active: int
    kv_bytes_active: float
    num_waiting: int
    energy_joules: float


class LLMEngine:
    """Discrete-event vLLM-style engine bound to a simulation environment."""

    def __init__(self, env: Environment, config: EngineConfig):
        self.env = env
        self.config = config
        self.model = config.model
        self.cluster = config.resolved_cluster()
        self.perf = PerformanceModel(model=self.model, cluster=self.cluster)
        kv_config = KVCacheConfig.from_hardware(
            model=self.model,
            cluster=self.cluster,
            block_size=config.block_size,
            enable_prefix_caching=config.enable_prefix_caching,
            capacity_fraction=config.kv_cache_fraction,
        )
        self.kv_cache = PrefixCache(kv_config)
        self.scheduler = Scheduler(
            config.scheduler,
            self.kv_cache,
            prefill_chunk_tokens=config.prefill_chunk_tokens,
        )
        self.energy = EnergyMeter(cluster=self.cluster)
        self.tokenizer = SyntheticTokenizer(vocab_size=self.model.vocab_size)

        self.step_records: List[EngineStepRecord] = []
        self.completed_requests: List[LLMRequest] = []
        self.total_generated_tokens: int = 0
        self.total_prefill_tokens: int = 0
        # Seconds during which an atomic prefill step ran while decodes were
        # blocked behind it (head-of-line blocking) -- the pathology chunked
        # prefill exists to remove.  Pure telemetry; never feeds back into
        # simulated behaviour.
        self.prefill_hol_block_s: float = 0.0
        # Speculative-decoding counters: per-sequence verify events and the
        # draft tokens those verifies accepted (excluding bonus tokens).
        self.spec_sequence_steps: int = 0
        self.spec_accepted_tokens: int = 0
        # Per-request acceptance substreams (created lazily, keyed by
        # request id so draws are independent of batch composition).
        self._accept_streams: Dict[int, RandomStream] = {}

        # Window-query acceleration: step records are appended in time order,
        # so (sorted) start/end arrays let reporting bisect to the records
        # overlapping a window, and running full-history aggregates answer
        # whole-run queries in O(1) instead of re-scanning every record.
        self._record_starts: List[float] = []
        self._record_ends: List[float] = []
        self._full_breakdown: Dict[str, float] = {
            "prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0
        }
        self._full_kv_time: float = 0.0
        self._full_kv_weighted: float = 0.0
        self._full_kv_max: float = 0.0

        self._wakeup: Optional[Event] = None
        self._idle_since: Optional[float] = None
        self._process = env.process(self._run())

    # -- public API ---------------------------------------------------------
    def submit(self, request: LLMRequest) -> Event:
        """Queue a request; returns the event that fires with its LLMResult."""
        request.timings.arrival = self.env.now
        completion = self.env.event()
        request.completion_event = completion
        self.scheduler.add_request(request)
        self._wake()
        return completion

    @property
    def num_pending_requests(self) -> int:
        return self.scheduler.num_waiting + self.scheduler.num_running

    # -- engine loop ----------------------------------------------------------
    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        while True:
            preemptions_before = self.scheduler.preemption_count
            step = self.scheduler.schedule(now=self.env.now)
            if step is None:
                yield from self._idle_until_work()
                continue
            if step.kind == StepKind.PREFILL:
                yield from self._execute_prefill(step)
            elif step.kind == StepKind.MIXED:
                yield from self._execute_mixed(step)
            else:
                preempted = self.scheduler.preemption_count != preemptions_before
                yield from self._execute_decode(step, preempted)

    def _idle_until_work(self):
        idle_start = self.env.now
        self._idle_since = idle_start
        self._wakeup = self.env.event()
        yield self._wakeup
        self._wakeup = None
        self._idle_since = None
        duration = self.env.now - idle_start
        if duration > 0:
            joules = self.energy.record(PowerState.IDLE, duration)
            self._record_step(
                start=idle_start,
                duration=duration,
                kind="idle",
                batch_size=0,
                new_tokens=0,
                cached_tokens=0,
                generated_tokens=0,
                energy_joules=joules,
            )

    def _execute_prefill(self, step: ScheduledStep):
        start = self.env.now
        new_tokens = step.new_prefill_tokens
        cached_tokens = step.cached_prefill_tokens
        duration = self.perf.prefill_time(new_tokens, cached_tokens)
        # Running sequences decode nothing while this atomic prefill step
        # occupies the engine: head-of-line blocking, metered for the
        # ``prefill_hol_block_s`` metric (telemetry only).
        if self.scheduler.num_running > 0:
            self.prefill_hol_block_s += duration
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.PREFILL, duration)

        generated = 0
        for item in step.prefills:
            request = item.request
            request.num_computed_tokens = request.num_prompt_tokens
            share = item.new_tokens / max(new_tokens, 1)
            request.timings.prefill_time += duration * share
            # Prefill produces the first output token.
            self._append_output_token(request)
            generated += 1
            if request.timings.first_token is None:
                request.timings.first_token = self.env.now
        self.scheduler.on_prefill_complete(step.prefills)
        self.total_prefill_tokens += new_tokens
        self.total_generated_tokens += generated
        self._finish_completed([item.request for item in step.prefills])
        self._record_step(
            start=start,
            duration=duration,
            kind="prefill",
            batch_size=step.batch_size,
            new_tokens=new_tokens,
            cached_tokens=cached_tokens,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_mixed(self, step: ScheduledStep):
        """One chunked-prefill step: prompt chunks and decode tokens together.

        A single roofline evaluation covers the combined work
        (:meth:`PerformanceModel.mixed_step_time`); energy books under the
        prefill power state (the chunk's dense compute dominates the step's
        intensity).  Prefill chunks advance ``num_computed_tokens`` and
        publish chunk-boundary hashes; the chunk completing a prompt emits
        the request's first token and promotes it to decoding.  Decode
        sequences each emit one token exactly as in a per-token decode step.
        """
        start = self.env.now
        new_tokens = step.new_prefill_tokens
        cached_tokens = step.cached_prefill_tokens
        context_lengths = [request.context_length for request in step.decodes]
        duration = self.perf.mixed_step_time(new_tokens, cached_tokens, context_lengths)
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.PREFILL, duration)

        generated = 0
        now = self.env.now
        for item in step.prefills:
            request = item.request
            request.num_computed_tokens += item.new_tokens
            self.kv_cache.register_prefill_progress(
                request, request.num_computed_tokens, now=now
            )
            share = item.new_tokens / max(new_tokens, 1)
            request.timings.prefill_time += duration * share
            if item.last_chunk:
                self._append_output_token(request)
                generated += 1
                if request.timings.first_token is None:
                    request.timings.first_token = now
        for request in step.decodes:
            request.timings.decode_time += duration
            self._append_output_token(request)
            generated += 1
        self.scheduler.on_chunks_complete(step.prefills)
        self.total_prefill_tokens += new_tokens
        self.total_generated_tokens += generated
        finishable = [item.request for item in step.prefills if item.last_chunk]
        finishable.extend(step.decodes)
        self._finish_completed(finishable)
        self._record_step(
            start=start,
            duration=duration,
            kind="mixed",
            batch_size=step.batch_size,
            new_tokens=new_tokens,
            cached_tokens=cached_tokens,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_decode(self, step: ScheduledStep, preempted: bool = False):
        if not step.decodes:
            # Everything got preempted; yield a minimal scheduling delay so
            # the loop makes progress and retries admission.
            duration = self.cluster.step_overhead
            yield self.env.timeout(duration)
            self.energy.record(PowerState.IDLE, duration)
            return
        if self.config.speculative is not None:
            # Speculative decoding changes what a decode step *is* (verify +
            # draft, multiple tokens per sequence), so it supersedes the
            # fast-forward.
            yield from self._execute_decode_speculative(step)
            return
        yield from self._execute_decode_exact(step, preempted)

    def _execute_decode_speculative(self, step: ScheduledStep):
        """One speculative decode step: draft ``k`` tokens, verify, emit run.

        Step time is one target verify pass over the batch plus ``k`` draft
        passes at ``draft_ratio`` of its cost; verify time books under the
        decode power state and draft time under
        :attr:`~repro.llm.energy.PowerState.DRAFT`.  Each sequence emits its
        accepted run plus the bonus token (clamped to its remaining output
        and to the KV blocks actually reservable), with acceptance drawn
        from the sequence's dedicated substream so the draw sequence is
        independent of batch composition.
        """
        start = self.env.now
        spec = self.config.speculative
        decodes = step.decodes
        context_lengths = [request.context_length for request in decodes]
        verify_duration = self.perf.decode_step_time(context_lengths)
        draft_duration = (
            spec.num_speculative_tokens * spec.draft_ratio * verify_duration
        )
        duration = verify_duration + draft_duration
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.DECODE, verify_duration)
        joules += self.energy.record(PowerState.DRAFT, draft_duration)

        generated = 0
        now = self.env.now
        streams = self._accept_streams
        for request in decodes:
            stream = streams.get(request.request_id)
            if stream is None:
                stream = spec.acceptance_stream(request.request_id)
                streams[request.request_id] = stream
            accepted = spec.draw_accepted(stream)
            self.spec_sequence_steps += 1
            emit = min(accepted + 1, request.remaining_output_tokens)
            # The scheduler's per-step reservation covers one token; the
            # accepted extras need their own KV blocks.  Clamp the emission
            # to what the free pool can actually hold (reserve_tokens fails
            # without side effects, so stepping down is safe).
            while emit > 1 and not self.kv_cache.reserve_tokens(request, emit, now=now):
                emit -= 1
            self.spec_accepted_tokens += emit - 1
            request.timings.decode_time += duration
            for _ in range(max(emit, 1)):
                self._append_output_token(request)
                generated += 1
        self.total_generated_tokens += generated
        self._finish_completed(decodes)
        for request in decodes:
            if request.state == RequestState.FINISHED:
                streams.pop(request.request_id, None)
        self._record_step(
            start=start,
            duration=duration,
            kind="decode",
            batch_size=len(decodes),
            new_tokens=0,
            cached_tokens=0,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_decode_exact(self, step: ScheduledStep, preempted: bool):
        """Decode with exact fast-forwarding.

        Advances the decode batch as many token steps as can be proven
        unobservable -- strictly before the next pending event
        (:meth:`Environment.peek`), within the active run horizon, before the
        earliest request completion, within the KV free-block budget, and only
        when this step's scheduling did not preempt -- in a single simulated
        event, then replays the per-token bookkeeping (energy accounting,
        per-request decode time and output tokens, KV block growth, step
        records) with the exact float sequencing of the per-token path.  The
        result is bit-for-bit identical to running one token per event.
        """
        start = self.env.now
        decodes = step.decodes
        context_lengths = [request.context_length for request in decodes]
        first_duration = self.perf.decode_step_time(context_lengths)
        durations = [first_duration]
        alloc_plan: Dict[int, List[int]] = {}
        if (
            self.config.decode_fast_forward
            and not preempted
            # A partial prefill in flight means the next step will be MIXED,
            # so no decode run is unobservable (always empty in atomic mode).
            and not self.scheduler.prefilling
            and (
                self.scheduler.num_waiting == 0
                or self.scheduler.policy.time_invariant_select
            )
        ):
            k_limit = min(request.remaining_output_tokens for request in decodes)
            if k_limit > 1:
                durations, alloc_plan = self._plan_decode_chunk(
                    start, first_duration, context_lengths, decodes, k_limit
                )
        wake = start
        for duration in durations:
            wake = wake + duration
        yield self.env.timeout_at(wake)

        # Replay the per-token effects in the order the per-token loop
        # produces them: for each virtual step i at [s_i, e_i] -- energy,
        # per-request decode time + output token, completions (last step
        # only; earlier steps cannot complete by construction), the step
        # record (sampling KV state before the next step's reservations),
        # then the KV appends for step i+1.  Only requests the plan proved
        # need a block at this boundary hit the allocator: the per-token
        # path's other append_token calls are no-ops with no side effects.
        k = len(durations)
        batch = len(decodes)
        tokens_per_request = [
            self.tokenizer.synthetic_tokens(
                f"output:{request.request_id}",
                request.num_output_tokens + k,
                start=request.num_output_tokens,
            )
            for request in decodes
        ]
        last = k - 1
        joules_series = self.energy.record_series(PowerState.DECODE, durations)
        append_kv = self.kv_cache.append_token
        timings = [request.timings for request in decodes]
        outputs = [request.output_token_ids for request in decodes]
        # Inlined _record_step: the chunk runs with no other process observing
        # engine state, so the batch size, waiting count, and (between planned
        # block allocations, each of which adds exactly one active block) the
        # KV occupancy are known without re-deriving them per virtual step.
        # The last step re-samples both after completions run, exactly where
        # the per-token path samples them.
        allocator = self.kv_cache.allocator
        bytes_per_block = allocator.config.bytes_per_block
        kv_blocks = allocator.num_active_blocks
        num_waiting = self.scheduler.num_waiting
        records = self.step_records
        starts = self._record_starts
        ends = self._record_ends
        breakdown_decode = self._full_breakdown["decode"]
        kv_time = self._full_kv_time
        kv_weighted = self._full_kv_weighted
        kv_max = self._full_kv_max
        self.total_generated_tokens += batch * k
        step_start = start
        for index, duration in enumerate(durations):
            step_end = step_start + duration
            joules = joules_series[index]
            for pos, tokens in enumerate(tokens_per_request):
                timings[pos].decode_time += duration
                outputs[pos].append(tokens[index])
            if index == last:
                self._finish_completed(decodes)
                kv_blocks = allocator.num_active_blocks
                num_waiting = self.scheduler.num_waiting
            kv_bytes = kv_blocks * bytes_per_block
            records.append(
                EngineStepRecord(
                    step_start,
                    duration,
                    "decode",
                    batch,
                    0,
                    0,
                    batch,
                    kv_blocks,
                    kv_bytes,
                    num_waiting,
                    joules,
                )
            )
            starts.append(step_start)
            ends.append(step_end)
            overlap = step_end - step_start
            if overlap > 0:
                breakdown_decode += overlap
                kv_time += overlap
                kv_weighted += kv_bytes * overlap
                if kv_bytes > kv_max:
                    kv_max = kv_bytes
            if index < last:
                grown = alloc_plan.get(index)
                if grown:
                    for pos in grown:
                        append_kv(decodes[pos], now=step_end)
                    kv_blocks += len(grown)
            step_start = step_end
        self._full_breakdown["decode"] = breakdown_decode
        self._full_kv_time = kv_time
        self._full_kv_weighted = kv_weighted
        self._full_kv_max = kv_max

    def _plan_decode_chunk(
        self,
        start: float,
        first_duration: float,
        context_lengths: List[int],
        decodes: List[LLMRequest],
        k_limit: int,
    ) -> Tuple[List[float], Dict[int, List[int]]]:
        """Durations of the longest provably-unobservable run of decode steps.

        Extends the chunk one virtual step at a time while (a) every wake
        time stays strictly before the next pending external event, so no
        other process can observe engine state mid-chunk, (b) the final wake
        stays within the active numeric run horizon, so a paused run never
        leaves the chunk half-applied, and (c) the KV block allocations the
        per-token path would perform at each intermediate boundary all fit in
        the free pool, so no step would have preempted.

        Returns the durations plus the allocation plan: replay loop index ->
        positions (into ``decodes``, ascending) of the sequences whose block
        table must grow at that step boundary.
        """
        peek = self.env.peek()
        horizon = self.env.run_horizon
        block_size = self.kv_cache.block_size
        free_budget = self.kv_cache.num_free_blocks()
        decode_step_time = self.perf.decode_step_time
        allocated = 0
        # Min-heap of (due_step, position, room) per sequence: the boundary
        # append of step j allocates a block exactly when j > room (room =
        # how many tokens the block table covers beyond the current context;
        # this step's reservation already ran in the scheduler).  Each
        # allocation raises room by block_size, so a healthy sequence falls
        # due every block_size steps -- but a sequence re-admitted after
        # recompute preemption is allocated blocks for its prompt only and
        # re-grows its table one block per step (room <= 0) until it catches
        # up, which this cadence reproduces exactly.
        due: List[Tuple[int, int, int]] = []
        for pos, request in enumerate(decodes):
            room = len(request.block_ids) * block_size - request.context_length
            due.append((max(2, room + 1), pos, room))
        heapq.heapify(due)
        alloc_plan: Dict[int, List[int]] = {}
        durations = [first_duration]
        lengths = list(context_lengths)
        end = start + first_duration
        single = len(lengths) == 1
        if single:
            # Inline the scalar decode roofline (PerformanceModel
            # .decode_step_time's batch-of-one branch, same expressions in the
            # same order) so the per-virtual-step planning cost is arithmetic
            # only.  The planner runs once per simulated token.
            perf = self.perf
            kv_per_token = perf._kv_bytes_per_token
            weight_bytes = perf._weight_bytes
            bandwidth = perf._decode_bandwidth
            flops_dense = perf._flops_dense
            flops_attn = perf._flops_attn_per_ctx
            peak = perf._peak_compute
            overhead = perf._step_overhead
        while len(durations) < k_limit:
            index = len(durations) + 1
            if single:
                ctx = lengths[0] + 1
                lengths[0] = ctx
                kv_bytes = kv_per_token * float(ctx)
                memory_time = (weight_bytes + kv_bytes) / bandwidth
                compute_time = (flops_dense + flops_attn * max(ctx, 0.0)) / peak
                next_duration = max(memory_time, compute_time) + overhead
            else:
                for pos in range(len(lengths)):
                    lengths[pos] += 1
                next_duration = decode_step_time(lengths)
            next_end = end + next_duration
            if next_end >= peek or next_end > horizon:
                break
            growers: List[int] = []
            while due and due[0][0] == index:
                _, pos, room = heapq.heappop(due)
                growers.append(pos)
                room += block_size
                heapq.heappush(due, (max(index + 1, room + 1), pos, room))
            if growers:
                if allocated + len(growers) > free_budget:
                    break
                allocated += len(growers)
                growers.sort()
                # The per-token path reserves before executing step ``index``,
                # which the replay loop reaches at the end of iteration
                # ``index - 2`` (its appends prepare the following step).
                alloc_plan[index - 2] = growers
            durations.append(next_duration)
            end = next_end
        return durations, alloc_plan

    # -- helpers -------------------------------------------------------------
    def _append_output_token(self, request: LLMRequest) -> None:
        position = request.num_output_tokens
        token = self.tokenizer.synthetic_tokens(
            f"output:{request.request_id}", position + 1, start=position
        )[0]
        request.output_token_ids.append(token)

    def _finish_completed(self, requests: List[LLMRequest]) -> None:
        for request in requests:
            if request.num_output_tokens < request.target_output_tokens:
                continue
            if request.state == RequestState.FINISHED:
                continue
            request.timings.finished = self.env.now
            self.scheduler.finish_request(request, now=self.env.now)
            self.completed_requests.append(request)
            if request.completion_event is not None:
                request.completion_event.succeed(request.to_result())

    def _record_step(
        self,
        start: float,
        duration: float,
        kind: str,
        batch_size: int,
        new_tokens: int,
        cached_tokens: int,
        generated_tokens: int,
        energy_joules: float,
    ) -> None:
        allocator = self.kv_cache.allocator
        kv_blocks_active = allocator.num_active_blocks
        # Same arithmetic as allocator.active_bytes, without re-deriving the
        # active-block count (this runs once per simulated step).
        kv_bytes_active = kv_blocks_active * allocator.config.bytes_per_block
        self.step_records.append(
            EngineStepRecord(
                start=start,
                duration=duration,
                kind=kind,
                batch_size=batch_size,
                new_tokens=new_tokens,
                cached_tokens=cached_tokens,
                generated_tokens=generated_tokens,
                kv_blocks_active=kv_blocks_active,
                kv_bytes_active=kv_bytes_active,
                num_waiting=self.scheduler.num_waiting,
                energy_joules=energy_joules,
            )
        )
        # Running aggregates use the same float expression the windowed scan
        # evaluates for a full-history window, keeping them bit-identical.
        record_end = start + duration
        overlap = record_end - start
        self._record_starts.append(start)
        self._record_ends.append(record_end)
        if overlap > 0:
            self._full_breakdown[kind] += overlap
            self._full_kv_time += overlap
            self._full_kv_weighted += kv_bytes_active * overlap
            self._full_kv_max = max(self._full_kv_max, kv_bytes_active)

    # -- reporting -------------------------------------------------------------
    def _window_indices(self, start: float, end: float) -> range:
        """Index range of step records that can overlap ``[start, end]``.

        Records are appended in time order (engine steps never overlap), so
        both start and end arrays are sorted and the overlapping records form
        one contiguous run found by bisection.
        """
        lo = bisect_right(self._record_ends, start)
        hi = bisect_left(self._record_starts, end) if end != float("inf") else len(
            self._record_starts
        )
        return range(lo, hi)

    def _covers_full_history(self, start: float, end: float) -> bool:
        if not self.step_records:
            return True
        return start <= self._record_starts[0] and end >= self._record_ends[-1]

    def runtime_breakdown(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Seconds spent per step kind within ``[start, end]``."""
        end = end if end is not None else float("inf")
        if self._covers_full_history(start, end):
            breakdown = dict(self._full_breakdown)
        else:
            breakdown = {"prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0}
            for index in self._window_indices(start, end):
                record = self.step_records[index]
                record_end = record.start + record.duration
                overlap = min(record_end, end) - max(record.start, start)
                if overlap > 0:
                    breakdown[record.kind] += overlap
        if self._idle_since is not None:
            # Account the idle period that is still open at observation time.
            open_end = min(self.env.now, end)
            overlap = open_end - max(self._idle_since, start)
            if overlap > 0:
                breakdown["idle"] += overlap
        return breakdown

    def kv_memory_stats(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Time-weighted average and maximum active KV-cache bytes in a window."""
        end = end if end is not None else float("inf")
        if self._covers_full_history(start, end):
            total_time = self._full_kv_time
            weighted = self._full_kv_weighted
            maximum = self._full_kv_max
        else:
            total_time = 0.0
            weighted = 0.0
            maximum = 0.0
            for index in self._window_indices(start, end):
                record = self.step_records[index]
                record_end = record.start + record.duration
                overlap = min(record_end, end) - max(record.start, start)
                if overlap <= 0:
                    continue
                total_time += overlap
                weighted += record.kv_bytes_active * overlap
                maximum = max(maximum, record.kv_bytes_active)
        average = weighted / total_time if total_time > 0 else 0.0
        return {"average_bytes": average, "max_bytes": maximum}
