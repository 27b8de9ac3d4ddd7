"""The benchmark's three workloads, declared only with the public spec API.

Each workload is a function of the seed returning a :class:`StudySpec`
with default engine knobs; :func:`run` executes it serially through
``repro.api.run_study(parallel=1)`` (which drives ``run_experiment``) and
returns every point's :class:`ResultSet` in grid order.  Nothing here names
an engine knob, a legacy shim or an analysis helper, so deleting those
leaves these definitions untouched.

A workload repeats its experiments at several seeds derived from the run's
seed (the study's ``seeds``).  One seed's inputs share a task pool, so the
host cost of a single experiment swings with its seed; a few smaller
experiments at derived seeds cost as much as one large one but vary less
from seed to seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: Experiments per study point, each at its own derived seed.
SUBSEEDS = {"mixture": 6, "characterization": 8, "sessions": 4}
#: Requests per mixture experiment (open loop, 4 qps).
MIXTURE_REQUESTS = 100
#: Tasks per characterization grid point and seed (closed loop).
CHARACTERIZATION_TASKS = 5
#: Conversations per sessions experiment.
SESSIONS = 25


def derived_seeds(workload: str, seed: int):
    return tuple(seed * 1000 + index for index in range(SUBSEEDS[workload]))


def run(api, workload: str, seed: int) -> List[object]:
    """Run ``workload`` at ``seed``; every point's result, in grid order."""
    study = WORKLOADS[workload](api, derived_seeds(workload, seed))
    return [point.outcome for point in api.run_study(study, parallel=1).points]


def mixture(api, seeds):
    """The paper's Table IV datacenter scenario (open loop, large batches).

    60% ShareGPT chat and 40% ReAct/HotpotQA agents, Poisson at 4 qps, on a
    chat pool (least-loaded) and an agent pool (predicted-shortest-job
    scheduling, prefix-affinity routing).  Large continuous batches put the
    decode replay, the scheduler and the perf model on the hot path.
    """
    from repro.agents import AgentConfig

    spec = api.ExperimentSpec(
        pools=(
            api.PoolSpec(
                name="chat", model="8b", replicas=2, router="least-loaded",
                traffic_classes=("chat",),
            ),
            api.PoolSpec(
                name="agent", model="8b", replicas=2,
                scheduler="sjf-by-predicted-decode", router="prefix-affinity",
                traffic_classes=("agent",),
            ),
        ),
        workloads=(
            api.WeightedWorkload(
                agent="chatbot", workload="sharegpt", weight=0.6, name="chat"
            ),
            api.WeightedWorkload(
                agent="react", workload="hotpotqa", weight=0.4, name="agent",
                agent_config=AgentConfig(max_iterations=5),
            ),
        ),
        arrival=api.ArrivalSpec(process="poisson", qps=4.0, num_requests=MIXTURE_REQUESTS),
    )
    return api.StudySpec(base=spec, points=({},), seeds=seeds, name="mixture")


def characterization(api, seeds):
    """The paper's per-request characterization (closed loop, batch of one).

    Reflexion and LATS on HotpotQA, on 8B and 70B, one request at a time,
    as a serial agent x model study.  Batch size 1 leaves router, door and
    kernel nearly idle while long, growing multi-call prompts load the
    tokenizer, prefix-cache registration, the block allocator and agent
    prompt construction; the grid also exercises study orchestration.  The
    agents run the paper's default budgets (3 Reflexion trials, 10 LATS
    expansions of 5 children): the Table III 24-trial budgets make a few
    failing tasks dominate the cost, so it swung by a quarter between seeds.
    """
    from repro.agents import AgentConfig

    base = api.ExperimentSpec(
        agent="reflexion",
        workload="hotpotqa",
        agent_config=AgentConfig(max_iterations=10, num_few_shot=2),
        arrival=api.ArrivalSpec(process="single", num_requests=CHARACTERIZATION_TASKS),
    )
    return api.StudySpec(
        base=base,
        axes=(
            api.StudyAxis(name="agent", values=("reflexion", "lats")),
            api.StudyAxis(name="model", values=("8b", "70b")),
        ),
        seeds=seeds,
        name="characterization",
    )


def sessions(api, seeds):
    """Multi-turn tenanted chat under a burst (most kernel events per token).

    ShareGPT conversations from a Zipf-skewed 100k-user population arrive
    at 2 qps with a 3x square-wave burst (the first 20 s of every minute,
    so each experiment's conversations open inside it); a session-affinity
    router, the
    vtc scheduler and an oit-throttle door serve them on a pool a reactive
    autoscaler sizes from 4 to 8 replicas.  Router, door, autoscaler and
    driver continuations all run, and the prefix cache is read-dominated
    (cross-turn hits) -- the opposite use to ``characterization``.
    """
    spec = api.ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        replicas=4,
        scheduler="vtc",
        router="session-affinity",
        arrival=api.ArrivalSpec(
            process="poisson",
            qps=2.0,
            num_requests=SESSIONS,
            shape={"kind": "square-wave", "burst_level": 3.0, "burst_start_s": 0.0},
            tenants=api.TenantSpec(num_users=100_000, skew=1.2),
            sessions=api.SessionSpec(turns=6, followup_tokens=64, think_time_s=5.0),
        ),
        admission=api.AdmissionSpec(
            policy="oit-throttle", user_rpm=2, app_rpm=600, overload_action="delay"
        ),
        autoscaler=api.AutoscalerSpec(min_replicas=4, max_replicas=8),
    )
    return api.StudySpec(base=spec, points=({},), seeds=seeds, name="sessions")


WORKLOADS: Dict[str, Callable[[object, tuple], object]] = {
    "mixture": mixture,
    "characterization": characterization,
    "sessions": sessions,
}
