#!/usr/bin/env python
"""Autogenerate docs/REGISTRIES.md and docs/METRICS.md from the live code.

The registry and metric tables in prose documentation rot the moment
someone registers a new policy or declares a new metric; this script makes
both documents *projections* of the code instead.

* ``docs/REGISTRIES.md``: one table per pluggable registry (agents,
  workloads, scheduler policies, router policies, admission policies,
  arrival forecasters, rate shapes) -- name, implementing class, and the
  first line of the class docstring -- plus the GPU catalog.
* ``docs/METRICS.md``: one table per metric family, rendered from
  ``repro.api.results.METRICS`` -- name, doc with unit, and the
  ``summary()`` key -- plus the parameterised per-class and per-decile
  forms.

Modes::

    PYTHONPATH=src python scripts/gen_registry_docs.py           # rewrite
    PYTHONPATH=src python scripts/gen_registry_docs.py --check   # CI lane

``--check`` exits non-zero (printing a unified diff) when a committed file
does not match what the live code would generate -- the CI docs lane and
``tests/test_docs.py`` both run it, so a PR that adds a policy or a metric
without regenerating the documents fails fast.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents.registry import AGENT_CLASSES  # noqa: E402
from repro.api.results import METRICS, MetricDef  # noqa: E402
from repro.api.study import _CLASS_METRIC_ATTRS  # noqa: E402
from repro.llm.hardware import GPU_CATALOG  # noqa: E402
from repro.llm.scheduler import SCHEDULER_POLICIES  # noqa: E402
from repro.serving.admission import ADMISSION_POLICIES  # noqa: E402
from repro.serving.cluster import ROUTER_POLICIES  # noqa: E402
from repro.serving.forecast import FORECASTERS  # noqa: E402
from repro.serving.shapes import RATE_SHAPES  # noqa: E402
from repro.workloads import available_workloads, create_workload  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "docs" / "REGISTRIES.md"
METRICS_PATH = REPO_ROOT / "docs" / "METRICS.md"

HEADER = """\
# Pluggable registries

> **Generated file — do not edit.**  Regenerate with
> `PYTHONPATH=src python scripts/gen_registry_docs.py` after registering a
> new policy; CI (and `tests/test_docs.py`) fails when this file is stale.

Every policy family below is a case-insensitive name → class registry
(see `src/repro/registry.py`).  Spec fields name entries by their
registry name (`ExperimentSpec(scheduler="vtc", router="session-affinity")`),
and each family exposes a `register_*` hook so external code can add
policies without touching this repository.
"""

#: (section title, spec field that names entries, registering module, rows).
Registry = Tuple[str, str, str, Mapping[str, type]]


def _first_doc_line(obj: object) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def _workload_classes() -> Mapping[str, type]:
    """Materialise each registered workload once to recover its class."""
    return {name: type(create_workload(name, seed=0)) for name in available_workloads()}


def _registries() -> Sequence[Registry]:
    return (
        (
            "Agents",
            "`ExperimentSpec.agent` / `WeightedWorkload.agent`",
            "`repro.agents.registry`",
            AGENT_CLASSES,
        ),
        (
            "Workloads",
            "`ExperimentSpec.workload` / `WeightedWorkload.workload`",
            "`repro.workloads` (`register_workload`)",
            _workload_classes(),
        ),
        (
            "Scheduler policies",
            "`ExperimentSpec.scheduler` / `PoolSpec.scheduler`",
            "`repro.llm.scheduler` (`register_scheduler_policy`)",
            SCHEDULER_POLICIES,
        ),
        (
            "Router policies",
            "`ExperimentSpec.router` / `PoolSpec.router`",
            "`repro.serving.cluster` (`register_router_policy`)",
            ROUTER_POLICIES,
        ),
        (
            "Admission policies",
            "`AdmissionSpec.policy`",
            "`repro.serving.admission` (`register_admission_policy`)",
            ADMISSION_POLICIES,
        ),
        (
            "Arrival forecasters",
            "`AutoscalerSpec.forecaster`",
            "`repro.serving.forecast` (`register_forecaster`)",
            FORECASTERS,
        ),
        (
            "Rate shapes",
            "`ArrivalSpec.shape` / `WeightedWorkload.shape`",
            "`repro.serving.shapes` (`register_shape`)",
            RATE_SHAPES,
        ),
    )


def _render_gpu_catalog() -> str:
    """The GPU catalog section: instances, not classes, so it gets its own
    table shape (roofline, power, and price columns instead of docstrings)."""
    parts: List[str] = ["\n## GPU catalog\n"]
    parts.append(
        "Named by `HardwareSpec.gpu` (on `EngineSpec.hardware`, set per pool\n"
        "or experiment-wide); registered in `repro.llm.hardware`\n"
        "(`register_gpu`).  Prices are GCP us-central1 on-demand per\n"
        "GPU-hour; rooflines are vendor datasheet numbers (dense bf16).\n"
    )
    parts.append(
        "\n| name | aliases | $/GPU-hr | peak TFLOP/s | HBM GB/s | mem GB "
        "| idle/decode/prefill W |"
    )
    parts.append("\n| --- | --- | --- | --- | --- | --- | --- |")
    by_spec: dict = {}
    for key, spec in GPU_CATALOG.items():
        by_spec.setdefault(id(spec), [spec, []])[1].append(key)
    for spec, keys in sorted(by_spec.values(), key=lambda entry: entry[0].name):
        aliases = sorted(key for key in keys if key != spec.name.lower())
        parts.append(
            f"\n| `{spec.name}` | {', '.join(f'`{a}`' for a in aliases) or '--'} "
            f"| {spec.cost_per_hour:.2f} | {spec.peak_flops / 1e12:.0f} "
            f"| {spec.mem_bandwidth / 1e9:,.0f} | {spec.mem_capacity / 1e9:.0f} "
            f"| {spec.idle_power_w:.0f}/{spec.decode_power_w:.0f}/"
            f"{spec.prefill_power_w:.0f} |"
        )
    parts.append("\n")
    return "".join(parts)


def render() -> str:
    """The full REGISTRIES.md content the live registries imply."""
    parts: List[str] = [HEADER]
    for title, field, module, entries in _registries():
        parts.append(f"\n## {title}\n")
        parts.append(f"Named by {field}; registered in {module}.\n")
        parts.append("\n| name | class | summary |")
        parts.append("\n| --- | --- | --- |")
        for name in sorted(entries):
            cls = entries[name]
            parts.append(f"\n| `{name}` | `{cls.__name__}` | {_first_doc_line(cls)} |")
        parts.append("\n")
    parts.append(_render_gpu_catalog())
    return "".join(parts)


# ---------------------------------------------------------------------------
# docs/METRICS.md
# ---------------------------------------------------------------------------

METRICS_HEADER = """\
# Metric vocabulary

> **Generated file — do not edit.**  Regenerate with
> `PYTHONPATH=src python scripts/gen_registry_docs.py` after changing
> `repro.api.results.METRICS`; CI (and `tests/test_docs.py`) fails when
> this file is stale.

Every metric is declared once, in the ordered table
`repro.api.results.METRICS`: its name, a one-line doc with the unit, an
extractor, and a predicate for when it applies.  That one table serves
four surfaces: `ResultSet` attributes read interactively,
`outcome.metric(name)` string resolution, `summary()`, and the study
layer (`StudyResult.tabulate(...)`, `pareto_frontier(cost=,
quality=)`).  A metric proven interactively drops straight into a study
query unchanged.  Names outside the table raise `ValueError` listing the
known names (a typo must fail loudly, not render as an empty column);
metrics legitimately absent on an outcome — a class it never served,
telemetry a feature never produced — resolve to `None` where the caller
passes `missing_ok`.  The tables below list every entry in table order;
the `summary()` column gives the key the entry is reported under, or
`--` for metrics that stay attributes and metric names only.

See [SPECS.md](SPECS.md) for the fields that switch each metric family
on, and [ARCHITECTURE.md](ARCHITECTURE.md) for where the numbers are
measured.
"""

METRICS_FOOTER = """
## Reporting helpers

`summary()` returns a flat dict: `kind`, then every metric whose
predicate applies to the run, in table order, under the keys above.
The core block is always there; serving runs add the fleet, cost and
`rejection_rate` entries; the SLO, forecast, tenant, session,
chunked-prefill and speculation entries appear only when those features
ran.  `StudyResult.format(title, metrics)` renders one row per grid
point; `metrics` entries are `(column_name, metric)` pairs where
`metric` is any name above or a callable on the point's `ResultSet`.
"""

#: Meaning of each per-class form ``class_<stat>:<label>``; its keys must be
#: exactly the forms ``repro.api.study`` resolves.
CLASS_FORMS = {
    "class_p95": "class p95 latency (s)",
    "class_mean": "class mean latency (s)",
    "class_throughput": "class completed requests per simulated second (req/s)",
    "class_attainment": "fraction of the class meeting its SLO",
    "class_rejection": "class door-rejection fraction",
    "class_completed": "class completed requests (count)",
}


class MetricSection(NamedTuple):
    """One ``## title`` section of METRICS.md.

    ``first`` names the METRICS entry that opens the section: it and every
    following entry up to the next section's ``first`` fill its table
    (``None`` = a section of parameterised ``forms`` only).  ``intro`` and
    ``outro`` are prose around the table.
    """

    title: str
    first: Optional[str]
    intro: str = ""
    outro: str = ""
    forms: Tuple[Tuple[str, str], ...] = ()


METRIC_SECTIONS: Tuple[MetricSection, ...] = (
    MetricSection("Core (every run)", "num_requests"),
    MetricSection(
        "Fleet, hardware cost and energy (serving runs)",
        "replica_seconds",
        intro=(
            "Every pool is priced by its hardware's replica-hour rate (GPU\n"
            "catalog price × tensor-parallel degree) over the replica-seconds\n"
            "it was provisioned, so heterogeneous fleets report real dollars.\n"
        ),
        outro=(
            "Per-pool detail: `per_pool_summary()` (one row per pool, with\n"
            "`PoolStats.gpu`, `PoolStats.cost_per_hour` and `PoolStats.cost_usd`).\n"
            "Example: `pareto_frontier(cost=\"cost_per_1k_tokens\",\n"
            "quality=\"class_attainment:chat\", minimize_quality=False)` — the\n"
            "hardware-planning question `FleetPlanner` answers (see\n"
            "`examples/hetero_fleet.py`).\n"
        ),
    ),
    MetricSection(
        "Per traffic class",
        None,
        intro="The form `class_<stat>:<label>` reads one class of the workload mixture.\n",
        outro=(
            "Example: `pareto_frontier(cost=\"replica_seconds\",\n"
            "quality=\"class_p95:chat\")` — the fleet-sizing question.\n"
        ),
        forms=tuple((f"{form}:<label>", CLASS_FORMS[form]) for form in CLASS_FORMS),
    ),
    MetricSection(
        "Admission and SLO (serving runs)",
        "num_rejected",
        outro=(
            "Per-class door accounting: `per_class_admission()` /\n"
            "`admission_stats` (offered, admitted, delayed, rejected per class).\n"
        ),
    ),
    MetricSection("Predictive autoscaling", "forecast_mae"),
    MetricSection(
        "Multi-tenant fairness (tenanted runs)",
        "served_token_ratio",
        forms=(
            (
                "tenant_throttle_decile:<0-9>",
                "throttle rate of one population decile (0 = hottest users)",
            ),
        ),
    ),
    MetricSection(
        "Multi-turn sessions (sessionful runs)",
        "num_sessions",
        outro=(
            "Cross-turn figures cover turns ≥ 2 only: a session's first turn has\n"
            "no conversation prefix to reuse, so counting it would dilute the\n"
            "reuse signal.  Example: `pareto_frontier(cost=\"p95_latency\",\n"
            "quality=\"cross_turn_hit_rate\", minimize_quality=False)` — which\n"
            "router buys conversation reuse, and what does it pay in tail\n"
            "latency? (`examples/sessions.py`).\n"
        ),
    ),
    MetricSection(
        "Engine fidelity (chunked prefill / speculative decoding)",
        "prefill_hol_block_s",
        outro=(
            "`prefill_hol_block_s` is whole-run telemetry metered on the engines\n"
            "(like preemption counts) and is 0 with chunked prefill on — that is\n"
            "the point; `mean_accepted_per_step` converges to\n"
            "`SpeculativeSpec.expected_tokens_per_step() - 1`; `draft_energy_j` is\n"
            "windowed like the other energy metrics.  Example:\n"
            "`pareto_frontier(cost=\"energy_wh_per_query\", quality=\"class_p95:chat\")`\n"
            "— which engine features are worth their energy bill?\n"
            "(`examples/engine_fidelity.py`).\n"
        ),
    ),
)


def _summary_cell(metric: MetricDef) -> str:
    if metric.summary_key is None:
        return "--"
    return f"`{metric.summary_key or metric.name}`"


def _section_metrics() -> Mapping[str, List[MetricDef]]:
    """Each section's METRICS entries, split at the sections' ``first`` names."""
    opening = {section.first: section.title for section in METRIC_SECTIONS if section.first}
    unknown = set(opening) - {metric.name for metric in METRICS}
    if unknown or METRICS[0].name not in opening:
        raise ValueError(
            f"METRIC_SECTIONS must open at METRICS names, starting with "
            f"{METRICS[0].name!r}; unknown: {sorted(unknown)}"
        )
    grouped: dict = {section.title: [] for section in METRIC_SECTIONS}
    title = ""
    for metric in METRICS:
        title = opening.get(metric.name, title)
        grouped[title].append(metric)
    return grouped


def render_metrics() -> str:
    """The full METRICS.md content the live metric table implies."""
    if set(CLASS_FORMS) != set(_CLASS_METRIC_ATTRS):
        raise ValueError(
            f"CLASS_FORMS {sorted(CLASS_FORMS)} out of step with the resolvable "
            f"class forms {sorted(_CLASS_METRIC_ATTRS)}"
        )
    grouped = _section_metrics()
    parts: List[str] = [METRICS_HEADER]
    for section in METRIC_SECTIONS:
        parts.append(f"\n## {section.title}\n\n")
        if section.intro:
            parts.append(f"{section.intro}\n")
        parts.append("| name | meaning | `summary()` |\n| --- | --- | --- |\n")
        for metric in grouped[section.title]:
            parts.append(f"| `{metric.name}` | {metric.doc} | {_summary_cell(metric)} |\n")
        for form, meaning in section.forms:
            parts.append(f"| `{form}` | {meaning} | -- |\n")
        if section.outro:
            parts.append(f"\n{section.outro}")
    parts.append(METRICS_FOOTER)
    return "".join(parts)


#: Every generated document, with the function rendering it.
DOCUMENTS: Tuple[Tuple[Path, Callable[[], str]], ...] = (
    (OUTPUT_PATH, render),
    (METRICS_PATH, render_metrics),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed files match the live code (exit 1 when stale)",
    )
    options = parser.parse_args(argv)

    stale = 0
    for path, render_document in DOCUMENTS:
        content = render_document()
        name = path.relative_to(REPO_ROOT)
        if not options.check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            print(f"wrote {name}")
            continue
        on_disk = path.read_text() if path.exists() else ""
        if on_disk == content:
            print(f"{name} is up to date")
            continue
        stale += 1
        diff = difflib.unified_diff(
            on_disk.splitlines(keepends=True),
            content.splitlines(keepends=True),
            fromfile=f"{name} (committed)",
            tofile=f"{name} (generated)",
        )
        sys.stderr.write("".join(diff))
        sys.stderr.write(
            f"\n{name} is stale; regenerate with:\n"
            "    PYTHONPATH=src python scripts/gen_registry_docs.py\n"
        )
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
