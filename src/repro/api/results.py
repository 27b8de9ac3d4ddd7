"""Unified result interface and the one table of result metrics.

:class:`ResultSet` wraps whichever outcome an experiment produced -- a
:class:`~repro.core.characterization.CharacterizationResult`
(single-request characterization) or a
:class:`~repro.serving.result.ServingResult` (serving runs) -- and keeps it
reachable through :attr:`ResultSet.raw` for mode-specific detail (GPU
breakdowns, KV-memory stats, admission delays, ...).

Every metric is declared once, in :data:`METRICS`: its name, a one-line
doc with the unit, an extractor, and a predicate for when it applies.
``ResultSet`` attributes (``outcome.p95_latency``), :meth:`ResultSet.metric`,
:meth:`ResultSet.summary` and the study layer's metric names all read that
table, and ``scripts/gen_registry_docs.py`` renders ``docs/METRICS.md``
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.spec import ExperimentSpec
from repro.core.characterization import CharacterizationResult
from repro.core.metrics import LatencyStats, mean, percentile


@dataclass
class ResultSet:
    """Outcome of one :func:`~repro.api.run_experiment` call.

    Every name in :data:`METRICS` is an attribute (``outcome.p95_latency``);
    the structured serving reports (``pool_stats``, ``class_stats``,
    ``admission_stats``, ``tenant_stats``, ``session_stats``) read through
    to the wrapped :class:`~repro.serving.result.ServingResult` and are empty
    (or ``None``) for characterization runs.
    """

    spec: ExperimentSpec
    characterization: Optional[CharacterizationResult] = None
    serving: Optional[Any] = None  # ServingResult (typed loosely to avoid cycles)

    def __post_init__(self) -> None:
        if (self.characterization is None) == (self.serving is None):
            raise ValueError(
                "ResultSet wraps exactly one of characterization or serving"
            )

    # -- shape ----------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"characterization"`` or ``"serving"``, per the wrapped result."""
        return "characterization" if self.characterization is not None else "serving"

    @property
    def raw(self) -> Any:
        """The wrapped mode-specific result object."""
        return self.characterization if self.characterization is not None else self.serving

    @property
    def latencies(self) -> List[float]:
        """Per-request end-to-end latencies (seconds), in completion order."""
        return [run.e2e_latency for run in _agent_runs(self)]

    @property
    def latency_stats(self) -> LatencyStats:
        """Percentile summary (p50/p95/p99/mean) of :attr:`latencies`."""
        return LatencyStats.from_values(self.latencies)

    # -- flat rows -------------------------------------------------------------
    def per_pool_summary(self) -> List[Dict[str, Any]]:
        """One flat row per replica pool (throughput, p95, energy, cost)."""
        return [stats.as_dict() for stats in self.pool_stats.values()]

    def per_class_summary(self) -> List[Dict[str, Any]]:
        """One flat row per traffic class of the workload mixture."""
        return [stats.as_dict() for stats in self.class_stats.values()]

    def per_class_admission(self) -> List[Dict[str, Any]]:
        """One flat row per traffic class of the door accounting."""
        return [stats.as_dict() for stats in self.admission_stats.values()]

    # -- metric vocabulary ------------------------------------------------------
    def metric(self, name: str) -> float:
        """Resolve a metric name on this result.

        Accepts a name from :data:`METRICS` (``replica_seconds``,
        ``p95_latency``, ``cost_per_1k_tokens``, ``jain_fairness``, ...),
        the per-class form ``class_<stat>:<label>`` (``class_p95:chat``,
        ``class_attainment:chat``, ``class_rejection:agent``), or the
        per-decile form ``tenant_throttle_decile:<0-9>`` (throttle rate of
        one tenant population decile; decile 0 is the hottest 10% of users)
        -- the same vocabulary
        :meth:`repro.api.study.StudyResult.pareto_frontier` and tabulation
        use, so a metric proven interactively drops straight into a study
        query.  Any other name raises ``ValueError``.
        """
        # Local import: study imports this module at load time.
        from repro.api.study import resolve_metric

        return resolve_metric(self, name)

    # -- reporting -------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Flat dict of every metric that applies to this run, in table order."""
        summary: Dict[str, Any] = {"kind": self.kind}
        for metric in METRICS:
            if metric.summary_key is not None and metric.applies(self):
                summary[metric.summary_key or metric.name] = metric.extract(self)
        return summary


def _agent_runs(result: ResultSet) -> List[Any]:
    """The measured requests' agent runs, in completion order."""
    if result.characterization is not None:
        return [obs.result for obs in result.characterization.observations]
    return result.serving.results


# ---------------------------------------------------------------------------
# Structured serving reports
# ---------------------------------------------------------------------------

#: ResultSet attributes reading through to the ServingResult field of the same
#: name, with the factory of their characterization-run value.
_SERVING_REPORTS: Tuple[Tuple[str, Callable[[], Any]], ...] = (
    ("pool_stats", dict),
    ("class_stats", dict),
    ("admission_stats", dict),
    ("tenant_stats", lambda: None),
    ("session_stats", lambda: None),
)


def _report_property(name: str, empty: Callable[[], Any]) -> property:
    def read(result: ResultSet) -> Any:
        return empty() if result.serving is None else getattr(result.serving, name)

    return property(read, doc=f"``ServingResult.{name}`` (empty for characterization).")


for _name, _empty in _SERVING_REPORTS:
    setattr(ResultSet, _name, _report_property(_name, _empty))


# ---------------------------------------------------------------------------
# The metric table
# ---------------------------------------------------------------------------


def _always(result: ResultSet) -> bool:
    return True


def _serving_run(result: ResultSet) -> bool:
    return result.serving is not None


def _slo_declared(result: ResultSet) -> bool:
    return result.serving is not None and result.serving.slo_p95_s is not None


def _forecasting(result: ResultSet) -> bool:
    return result.serving is not None and result.serving.forecast_mae is not None


def _scaled_ahead(result: ResultSet) -> bool:
    return result.serving is not None and bool(result.serving.scale_ahead_leads)


def _tenanted(result: ResultSet) -> bool:
    return result.tenant_stats is not None


def _sessionful(result: ResultSet) -> bool:
    return result.session_stats is not None


def _chunked_prefill(result: ResultSet) -> bool:
    """Any pool runs chunked prefill (experiment-wide or per-pool value)."""
    spec = result.spec
    return result.serving is not None and any(
        spec.engine_for(pool).prefill_chunk_tokens is not None
        for pool in (None, *spec.pools)
    )


def _speculative(result: ResultSet) -> bool:
    return result.serving is not None and result.serving.spec_sequence_steps > 0


def _serving(read: Callable[[Any], Any], absent: Any = None) -> Callable[[ResultSet], Any]:
    """Extractor over the ServingResult; ``absent`` on characterization runs."""

    def extract(result: ResultSet) -> Any:
        return absent if result.serving is None else read(result.serving)

    return extract


def _report(name: str, read: Callable[[Any], Any]) -> Callable[[ResultSet], Any]:
    """Extractor over the ``name`` serving report; ``None`` when the run has none."""

    def extract(result: ResultSet) -> Any:
        stats = getattr(result, name)
        return None if stats is None else read(stats)

    return extract


def _num_completed(result: ResultSet) -> int:
    return len(_agent_runs(result))


def _duration(result: ResultSet) -> float:
    if result.characterization is not None:
        return sum(result.latencies)
    return result.serving.duration


def _energy_wh(result: ResultSet) -> float:
    if result.characterization is not None:
        return sum(obs.energy_wh for obs in result.characterization.observations)
    return result.serving.energy_wh


def _accuracy(result: ResultSet) -> float:
    runs = _agent_runs(result)
    if not runs:
        return 0.0
    return mean([1.0 if run.answer_correct else 0.0 for run in runs])


def _throughput_qps(result: ResultSet) -> float:
    duration = _duration(result)
    if duration <= 0:
        return 0.0
    return _num_completed(result) / duration


def _energy_wh_per_query(result: ResultSet) -> float:
    completed = _num_completed(result)
    if completed == 0:
        return 0.0
    return _energy_wh(result) / completed


def _cost_per_1k_tokens(serving: Any) -> float:
    if serving.served_tokens <= 0:
        return 0.0
    return serving.cost_usd / (serving.served_tokens / 1000.0)


def _num_rejected(serving: Any) -> int:
    return sum(stats.rejected for stats in serving.admission_stats.values())


def _rejection_rate(serving: Any) -> float:
    offered = sum(stats.offered for stats in serving.admission_stats.values())
    if offered == 0:
        return 0.0
    return _num_rejected(serving) / offered


def _p95_admission_delay(serving: Any) -> float:
    if not serving.admission_delays:
        return 0.0
    return percentile(serving.admission_delays, 95.0)


def _mean_accepted_per_step(serving: Any) -> Optional[float]:
    if serving.spec_sequence_steps == 0:
        return None
    return serving.spec_accepted_tokens / serving.spec_sequence_steps


def _slo_attainment(serving: Any) -> Optional[float]:
    if serving.slo_p95_s is None:
        return None
    if not serving.results:
        return 0.0
    return mean(
        [1.0 if run.e2e_latency <= serving.slo_p95_s else 0.0 for run in serving.results]
    )


@dataclass(frozen=True)
class MetricDef:
    """One result metric, declared once.

    ``extract`` computes the value on any run; runs a metric has nothing to
    say about get its neutral value (``0``/``0.0``, or ``None`` for
    telemetry a feature never produced).  ``applies`` says when
    :meth:`ResultSet.summary` reports the metric, under ``summary_key``
    (``""`` = the metric's name, ``None`` = never reported there).
    """

    name: str
    doc: str
    extract: Callable[[ResultSet], Any]
    applies: Callable[[ResultSet], bool] = _always
    summary_key: Optional[str] = ""


#: Every result metric, in summary order.
METRICS: Tuple[MetricDef, ...] = (
    # -- core (every run) ----------------------------------------------------
    MetricDef("num_requests", "requests in the measured window (count; sessions count turns)",
              lambda r: r.raw.num_requests),
    MetricDef("num_completed", "requests that finished in the measured window (count)",
              _num_completed),
    MetricDef("mean_latency", "mean end-to-end request latency (s)",
              lambda r: mean(r.latencies), summary_key="mean_latency_s"),
    MetricDef("p50_latency", "median end-to-end request latency (s)",
              lambda r: r.latency_stats.p50, summary_key="p50_latency_s"),
    MetricDef("p95_latency", "p95 end-to-end request latency (s)",
              lambda r: r.latency_stats.p95, summary_key="p95_latency_s"),
    MetricDef("accuracy", "task accuracy over completed requests (fraction)", _accuracy),
    MetricDef("duration", "simulated span of the measured window (s)",
              _duration, summary_key=None),
    MetricDef("throughput_qps", "completed requests per simulated second (req/s)",
              _throughput_qps),
    MetricDef("energy_wh", "engine energy over the measured window (Wh)",
              _energy_wh, summary_key=None),
    MetricDef("energy_wh_per_query", "energy per completed request (Wh)",
              _energy_wh_per_query),
    # -- fleet, hardware cost and energy (serving runs) ------------------------
    MetricDef("replica_seconds", "replica-seconds paid for across every pool (s)",
              _serving(lambda s: s.replica_seconds, 0.0), _serving_run),
    MetricDef("cost_usd", "replica-seconds priced per pool's hardware, summed (USD)",
              _serving(lambda s: s.cost_usd, 0.0), _serving_run),
    MetricDef("served_tokens", "prompt + output tokens of the measured requests (tokens)",
              _serving(lambda s: s.served_tokens, 0.0), summary_key=None),
    MetricDef("cost_per_1k_tokens", "cost_usd per 1000 served tokens (USD)",
              _serving(_cost_per_1k_tokens, 0.0), _serving_run),
    MetricDef("energy_j", "energy_wh in joules (J; characterization runs too)",
              lambda r: _energy_wh(r) * 3600.0, _serving_run),
    # -- admission door ----------------------------------------------------------
    MetricDef("num_rejected", "requests the door shed (count)",
              _serving(_num_rejected, 0), summary_key=None),
    MetricDef("rejection_rate", "shed fraction of the offered load (fraction)",
              _serving(_rejection_rate, 0.0), _serving_run),
    MetricDef("shed_tokens", "estimated decode tokens avoided by shedding (tokens)",
              _serving(lambda s: sum(st.shed_tokens for st in s.admission_stats.values()), 0.0),
              summary_key=None),
    MetricDef("num_queued", "requests that waited at the door for a slot (count)",
              _serving(lambda s: sum(1 for delay in s.admission_delays if delay > 0), 0),
              summary_key=None),
    MetricDef("mean_admission_delay", "mean arrival-to-admission delay (s)",
              _serving(lambda s: mean(s.admission_delays), 0.0), summary_key=None),
    MetricDef("p95_admission_delay", "p95 arrival-to-admission delay (s)",
              _serving(_p95_admission_delay, 0.0), summary_key=None),
    MetricDef("slo_attainment", "fraction of requests meeting the experiment-wide p95 SLO",
              _serving(_slo_attainment), _slo_declared),
    # -- predictive autoscaling ----------------------------------------------------
    MetricDef("forecast_mae", "mean absolute arrival-rate forecast error (req/s)",
              _serving(lambda s: s.forecast_mae), _forecasting),
    MetricDef("scale_ahead_lead_s", "mean head start of forecast-triggered grows (s)",
              _serving(lambda s: mean(s.scale_ahead_leads) if s.scale_ahead_leads else None),
              _scaled_ahead),
    # -- multi-tenant fairness -------------------------------------------------------
    MetricDef("served_token_ratio", "max/min served tokens across contending tenants (1.0 = fair)",
              _report("tenant_stats", lambda t: t.max_min_ratio), _tenanted),
    MetricDef("jain_fairness", "Jain's index over per-tenant served tokens (1.0 = fair)",
              _report("tenant_stats", lambda t: t.jain), _tenanted),
    MetricDef("tenant_throttle_rate", "door rejection fraction of tenanted offers (fraction)",
              _report("tenant_stats", lambda t: t.throttle_rate), _tenanted),
    # -- multi-turn sessions -----------------------------------------------------------
    MetricDef("num_sessions", "interactions started (count)",
              _report("session_stats", lambda s: s.num_sessions), _sessionful),
    MetricDef("completed_sessions", "interactions that finished their final turn (count)",
              _report("session_stats", lambda s: s.completed_sessions), _sessionful),
    MetricDef("total_turns", "turns served across every session (count)",
              _report("session_stats", lambda s: s.total_turns), _sessionful),
    MetricDef("mean_turns_per_session", "turns served per started session (count)",
              _report("session_stats", lambda s: s.mean_turns_per_session), summary_key=None),
    MetricDef("cross_turn_hit_rate", "prefix-cache hit rate over later-turn prompts (fraction)",
              _report("session_stats", lambda s: s.cross_turn_hit_rate), _sessionful),
    MetricDef("affinity_invalidations", "sticky-routing re-pins: spills + homes lost (count)",
              _report("session_stats", lambda s: s.affinity_invalidations), _sessionful),
    # -- engine fidelity -----------------------------------------------------------------
    MetricDef("prefill_hol_block_s", "decode time blocked behind atomic prefill steps (s)",
              _serving(lambda s: s.prefill_hol_block_s, 0.0), _chunked_prefill),
    MetricDef("mean_accepted_per_step", "draft tokens accepted per speculative verify (tokens)",
              _serving(_mean_accepted_per_step), _speculative),
    MetricDef("draft_energy_j", "energy booked under the draft power state (J)",
              _serving(lambda s: s.draft_energy_j, 0.0), _speculative),
)

#: The table by metric name.
METRICS_BY_NAME: Dict[str, MetricDef] = {metric.name: metric for metric in METRICS}

for _metric in METRICS:
    setattr(ResultSet, _metric.name, property(_metric.extract, doc=_metric.doc))
