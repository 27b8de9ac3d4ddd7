"""Per-layer self-time tracing, installed from outside the program.

The tracer replaces the public methods and functions of each layer's
modules with span wrappers, and wraps every generator handed to
``Environment.process`` in a proxy whose ``send``/``throw`` open a span
labelled with the layer that owns the generator.  Spans nest on one stack,
so a layer's *self* time is its spans' duration minus the spans they
enclose.  Nothing under ``src/`` changes: the wrappers are class and module
attributes set at run time, in the traced process only.

Each wrapped call costs about a microsecond, part inside the span it opens
and part in the enclosing one.  :func:`self_times` subtracts both parts per
call -- the total measured on the run itself, the split by
:func:`inner_share` -- so a layer entered 10^5 times is not charged for
the tracer's own work.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

clock = time.perf_counter

#: Layer of each module, by module name.  Modules not listed are not
#: wrapped; their time is charged to whichever layer called them.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.core": "sim",
    "repro.sim.distributions": "sim",
    "repro.sim.resources": "sim",
    "repro.llm.engine": "llm.engine",
    "repro.llm.request": "llm.engine",
    "repro.llm.client": "llm.engine",
    "repro.llm.energy": "llm.engine",
    "repro.llm.scheduler": "llm.scheduler",
    "repro.llm.predictor": "llm.scheduler",
    "repro.llm.prefix_cache": "llm.kvcache",
    "repro.llm.kvcache": "llm.kvcache",
    "repro.llm.tokenizer": "llm.tokenizer",
    "repro.llm.perf": "llm.perf",
    "repro.serving.cluster": "serving.router",
    "repro.serving.admission": "serving.admission",
    "repro.serving.autoscaler": "serving.autoscaler",
    "repro.serving.forecast": "serving.autoscaler",
    "repro.api.builder": "api.build",
    "repro.api.runners": "api.driver",
    "repro.api.study": "api.study",
    "repro.api.results": "api.results",
}
#: Whole packages mapped to one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.agents.": "agents",
    "repro.tools.": "tools",
}
#: The kernel is timed at its event loop and factories only: its
#: properties (``now``, ``triggered``, ...) are read everywhere, and their
#: cost stays with the reader.
SIM_CORE_METHODS: Dict[str, Tuple[str, ...]] = {
    "Environment": (
        "step", "run", "peek", "pending_events", "event", "timeout",
        "timeout_at", "all_of", "any_of",
    ),
    "Event": ("succeed", "fail", "trigger"),
}
#: Methods charged to the layer they assemble rather than to the builder.
OWNER_OVERRIDES: Dict[str, str] = {
    "SystemBuilder.build_autoscaler": "serving.autoscaler",
    "System.build_toolset": "tools",
}
#: Generators owned by another layer than their module's: an agent's
#: tool-call process runs the tool.
GENERATOR_OWNERS: Dict[str, str] = {"tool_call": "tools"}
#: Calls whose number of returned ids is the tokenizer's work count.
TOKEN_PRODUCERS = ("SyntheticTokenizer.encode", "SyntheticTokenizer.synthetic_tokens")


#: Layers whose self time is reported, in report order.
LAYERS: Tuple[str, ...] = (
    "sim",
    "llm.engine",
    "llm.scheduler",
    "llm.kvcache",
    "llm.tokenizer",
    "llm.perf",
    "serving.router",
    "serving.admission",
    "serving.autoscaler",
    "agents",
    "tools",
    "api.build",
    "api.driver",
    "api.study",
    "api.results",
)


def layer_of_module(name: str) -> Optional[str]:
    if name in MODULE_LAYERS:
        return MODULE_LAYERS[name]
    for prefix, layer in PACKAGE_LAYERS.items():
        if name.startswith(prefix):
            return layer
    return None


class _Resumable:
    """Generator stand-in whose resumptions are spans of the owner's layer."""

    __slots__ = ("send", "throw")

    def __init__(self, tracer: "Tracer", layer: str, generator) -> None:
        tally = layer + ".resumes"
        self.send = tracer.wrap(layer, generator.send, tally=tally)
        self.throw = tracer.wrap(layer, generator.throw, tally=tally)


class Tracer:
    """Span stack plus per-layer self time and call counts."""

    def __init__(self) -> None:
        self.raw_self: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.child_calls: Counter = Counter()
        self.tallies: Counter = Counter()
        self._stack = [[0.0, None]]

    def wrap(
        self,
        layer: str,
        fn: Callable,
        tally: Optional[str] = None,
        sizes: Optional[str] = None,
    ) -> Callable:
        """``fn`` as a span of ``layer``.

        ``tally`` names a counter bumped per call and ``sizes`` one that adds
        the length of each result.
        """
        stack = self._stack
        raw_self = self.raw_self
        calls = self.calls
        child_calls = self.child_calls
        tallies = self.tallies

        def span(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                raw_self[layer] += elapsed - frame[0]
                calls[layer] += 1
                child_calls[parent[1]] += 1
                if tally is not None:
                    tallies[tally] += 1
            if sizes is not None:
                tallies[sizes] += len(result)
            return result

        return functools.wraps(fn)(span)

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every loaded layer module (call after ``import repro.api``)."""
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and module is not None
        }
        replaced: Dict[int, Callable] = {}
        for name, module in modules.items():
            layer = layer_of_module(name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != name or attr.startswith("_"):
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer, name == "repro.sim.core")
                elif inspect.isfunction(value):
                    replaced[id(value)] = self.wrap(layer, value)
        # Functions are imported by name into other modules: rebind them all.
        for module in modules.values():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    namespace[attr] = wrapped
        self._wrap_process()

    def _wrap_class(self, cls, layer: str, kernel: bool) -> None:
        if issubclass(cls, (Enum, BaseException)):
            return
        if kernel:
            names = SIM_CORE_METHODS.get(cls.__name__, ())
        else:
            names = [name for name in vars(cls) if not name.startswith("_")]
        for name in names:
            value = vars(cls).get(name)
            qualname = f"{cls.__name__}.{name}"
            owner = OWNER_OVERRIDES.get(qualname, layer)
            sizes = "llm.tokenizer.tokens" if qualname in TOKEN_PRODUCERS else None
            tally = (
                "llm.kvcache.append_token_calls"
                if qualname == "PrefixCache.append_token"
                else None
            )
            if isinstance(value, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(owner, value.__func__)))
            elif isinstance(value, classmethod):
                setattr(cls, name, classmethod(self.wrap(owner, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, name, self.wrap(owner, value, tally=tally, sizes=sizes))

    def _wrap_process(self) -> None:
        from repro.sim.core import Environment

        layers_by_file = {
            getattr(module, "__file__", None): layer_of_module(name)
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and module is not None
        }
        original = Environment.process
        tracer = self

        def process(env, generator):
            code = generator.gi_code
            layer = (
                GENERATOR_OWNERS.get(code.co_name)
                or layers_by_file.get(code.co_filename)
                or "sim"
            )
            return original(env, _Resumable(tracer, layer, generator))

        Environment.process = self.wrap("sim", process)

    # -- results --------------------------------------------------------------
    def spans(self) -> Dict[str, Dict[str, float]]:
        """Raw self time, calls and directly enclosed calls, per layer."""
        return {
            layer: {
                "raw_self_s": self.raw_self[layer],
                "calls": self.calls[layer],
                "child_calls": self.child_calls[layer],
            }
            for layer in LAYERS
        }

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


def self_times(spans, per_call_s: float, inner_share: float) -> Dict[str, float]:
    """Per-layer self time with the wrapper cost removed.

    ``per_call_s`` is the tracing cost of one wrapped call; ``inner_share``
    of it falls inside the call's own span and the rest in the enclosing
    span, so each layer is relieved of its own calls' inside part and its
    children's outside part.
    """
    inner = per_call_s * inner_share
    outer = per_call_s - inner
    return {
        layer: entry["raw_self_s"] - entry["calls"] * inner - entry["child_calls"] * outer
        for layer, entry in spans.items()
    }


def _noop() -> None:
    return None


def inner_share(calls: int = 20000, repeats: int = 7) -> float:
    """Share of one wrapped call's cost that falls inside its own span.

    Times ``calls`` bare and wrapped calls of a no-op, ``repeats`` times:
    the span's own recorded time per call is the inside part, and the rest
    of the wrapped-minus-bare difference is what the enclosing span pays.
    The total per-call cost is not taken from here -- in a real run cache
    misses and garbage collection make it several times the no-op figure
    -- but from the traced-minus-untraced wall of the run itself.
    """
    inside, outside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("calibration", _noop)
        start = clock()
        for _ in range(calls):
            _noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        total = clock() - start
        recorded = tracer.raw_self["calibration"] / calls
        inside.append(recorded)
        outside.append(max(0.0, (total - bare) / calls - recorded))
    inside_s, outside_s = statistics.median(inside), statistics.median(outside)
    return inside_s / (inside_s + outside_s)
