"""The spec path must reproduce the seed simulator's numbers bit-for-bit.

The golden values below were captured by running the pre-redesign
single-request characterization and fixed-QPS serving entry points (commit
``c26818c``) at the exact configurations used here.  Every metric is
asserted with zero tolerance: one replica under FCFS scheduling through
``run_experiment`` must be event-for-event identical to the seed's
hand-rolled wiring.
"""

from __future__ import annotations

import pytest

from repro.agents import AgentConfig
from repro.api import ArrivalSpec, EngineSpec, ExperimentSpec, run_experiment
from repro.api.results import METRICS_BY_NAME


def check_golden(outcome, golden) -> None:
    """Assert ``golden`` exactly: metrics on the ResultSet, fields on its ServingResult."""
    for name, expected in golden.items():
        source = outcome if name in METRICS_BY_NAME else outcome.serving
        assert getattr(source, name) == expected, name


class TestCharacterizationGolden:
    """react/hotpotqa characterised one request at a time: 3 tasks, 8b, seed 1."""

    GOLDEN = {
        "mean_latency": 16.668997844782456,
        "accuracy": 0.3333333333333333,
        "mean_energy_wh": 0.8561984437107726,
        "mean_llm_calls": 7.0,
        "mean_total_tokens": 7180.333333333333,
    }

    def _check(self, result):
        for metric, expected in self.GOLDEN.items():
            assert getattr(result, metric) == expected, metric

    def test_spec_through_new_api_matches_seed(self):
        spec = ExperimentSpec(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            arrival=ArrivalSpec(process="single", num_requests=3),
            seed=1,
        )
        outcome = run_experiment(spec)
        self._check(outcome.characterization)
        # Unified interface agrees with the wrapped result.
        assert outcome.mean_latency == self.GOLDEN["mean_latency"]
        assert outcome.accuracy == self.GOLDEN["accuracy"]


class TestServingGolden:
    """react/hotpotqa served at 1 qps: 10 Poisson requests, pool 8, seed 0."""

    GOLDEN = {
        "mean_latency": 10.646407395255261,
        "p95_latency": 15.151794256321168,
        "energy_wh": 1.530517725786379,
        "throughput_qps": 0.43800395819435634,
        "duration": 22.83084390658105,
        "kv_average_bytes": 153650818.11970353,
        "preemptions": 0,
        "prefix_cache_hit_rate": 0.9135721327637201,
    }

    def _spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            agent_config=AgentConfig(max_iterations=5),
            arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=10, task_pool_size=8),
            seed=0,
        )

    def test_spec_through_new_api_matches_seed(self):
        outcome = run_experiment(self._spec())
        check_golden(outcome, self.GOLDEN)
        assert outcome.throughput_qps == self.GOLDEN["throughput_qps"]

    def test_chatbot_serving_golden(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            model="8b",
            arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=12, task_pool_size=8),
            seed=3,
        )
        result = run_experiment(spec)
        assert result.mean_latency == 5.129143362404462
        assert result.p95_latency == 9.723356564694797
        assert result.energy_wh == 1.028324972396009
        assert result.throughput_qps == 0.8776463353494244


class TestTrafficProgramCompat:
    """Shapes and studies must not perturb the golden-pinned serving path."""

    def _spec(self, **overrides) -> ExperimentSpec:
        base = dict(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            agent_config=AgentConfig(max_iterations=5),
            arrival=ArrivalSpec(
                process="poisson", qps=1.0, num_requests=10, task_pool_size=8
            ),
            seed=0,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_legacy_spec_has_no_shape(self):
        spec = self._spec()
        assert spec.arrival.shape is None
        assert spec.arrival.duration_s is None

    def test_identity_shape_matches_golden_bit_for_bit(self):
        from repro.api import run_experiment
        from repro.serving.shapes import ConstantShape

        shaped = self._spec(
            arrival=ArrivalSpec(
                process="poisson", qps=1.0, num_requests=10, task_pool_size=8,
                shape=ConstantShape(),
            )
        )
        check_golden(run_experiment(shaped), TestServingGolden.GOLDEN)

    def test_run_sweep_is_byte_identical_to_one_axis_study(self):
        from repro.api import StudyAxis, StudySpec, run_experiment, run_sweep, run_study

        spec = self._spec()
        qps_values = (0.5, 1.0)
        sweep = run_sweep(spec, qps_values)
        study = run_study(
            StudySpec(base=spec, axes=(StudyAxis(name="qps", values=qps_values),))
        )
        manual = [run_experiment(spec.at_qps(qps)) for qps in qps_values]
        for via_sweep, via_study, direct in zip(
            (point.outcome for point in sweep.points),
            (point.outcome for point in study.points),
            manual,
        ):
            assert via_sweep.latencies == direct.latencies
            assert via_study.latencies == direct.latencies
            assert via_sweep.energy_wh == direct.energy_wh
            assert via_study.energy_wh == direct.energy_wh
            assert via_sweep.duration == direct.duration

    def test_sweep_golden_pin(self):
        """run_sweep at the golden serving config reproduces the pinned point."""
        from repro.api import run_sweep

        sweep = run_sweep(self._spec(), [1.0])
        check_golden(sweep.points[0].outcome, TestServingGolden.GOLDEN)


class TestResultSetInterface:
    def test_wraps_exactly_one_result(self):
        from repro.api import ResultSet

        with pytest.raises(ValueError):
            ResultSet(spec=ExperimentSpec())

    def test_serving_summary_fields(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=5, task_pool_size=5),
        )
        outcome = run_experiment(spec)
        summary = outcome.summary()
        assert summary["kind"] == "serving"
        assert summary["num_completed"] == 5
        assert summary["throughput_qps"] == outcome.throughput_qps
        assert outcome.raw is outcome.serving

    def test_sequential_arrival_runs_closed_loop(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="sequential", num_requests=3),
        )
        outcome = run_experiment(spec)
        assert outcome.serving.offered_qps == 0.0
        assert outcome.num_completed == 3
        assert outcome.serving.duration == pytest.approx(sum(outcome.latencies), rel=0.05)

    def test_measurement_warmup_excludes_first_completions(self):
        arrival = ArrivalSpec(process="poisson", qps=2.0, num_requests=6, task_pool_size=5)
        base = ExperimentSpec(
            agent="chatbot", workload="sharegpt", arrival=arrival,
        )
        full = run_experiment(base)
        from repro.api import MeasurementSpec

        warm = run_experiment(base.with_overrides(measurement=MeasurementSpec(warmup_requests=2)))
        assert warm.num_completed == full.num_completed - 2
        assert warm.latencies == full.latencies[2:]

    def _chat_outcome(self):
        return run_experiment(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=3, task_pool_size=3),
            )
        )

    def test_metric_accepts_only_metric_names(self):
        outcome = self._chat_outcome()
        # Attributes that are not metrics (methods, the spec, raw lists and
        # reports, the kind string) must not resolve as one.
        for name in ("summary", "spec", "latencies", "pool_stats", "kind", "raw"):
            with pytest.raises(ValueError, match="no metric") as raised:
                outcome.metric(name)
            assert "p95_latency" in str(raised.value)  # lists the known names

    def test_every_table_metric_is_an_attribute_and_resolves(self):
        from repro.api import METRICS

        outcome = self._chat_outcome()
        for metric in METRICS:
            value = getattr(outcome, metric.name)
            assert value == metric.extract(outcome), metric.name
            if value is not None:
                assert outcome.metric(metric.name) == value, metric.name

    def test_summary_reports_hol_blocking_for_per_pool_chunked_prefill(self):
        from repro.api import PoolSpec

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            pools=(
                PoolSpec(
                    name="chat",
                    replicas=1,
                    engine=EngineSpec(prefill_chunk_tokens=256),
                ),
            ),
            arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=4, task_pool_size=4),
        )
        assert spec.engine.prefill_chunk_tokens is None
        outcome = run_experiment(spec)
        summary = outcome.summary()
        assert summary["prefill_hol_block_s"] == outcome.prefill_hol_block_s
        unchunked = run_experiment(
            spec.with_overrides(pools=(PoolSpec(name="chat", replicas=1),))
        )
        assert "prefill_hol_block_s" not in unchunked.summary()
