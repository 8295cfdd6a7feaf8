"""Per-layer tracing from outside the program.

Each layer is a set of *boundary functions*: public methods of the layer's
classes.  While a :class:`Tracer` is installed, every call into a boundary
function is recorded as a ``repro.telemetry`` span carrying its own id, its
parent's id (the innermost enclosing boundary call), the rows it was handed
and the function's name.  The spans land in the same telemetry session as the
engine's own counters, so the cross-checks in ``run.py`` compare the trace
against ``QueryStats`` and against those counters.

A layer's self time is the time inside its boundary functions minus the time
spent inside other layers' boundary functions called from them.  A boundary
call made while the same layer is already on the stack (``predict`` calling
``predict_proba``, ``propose_batch`` calling ``propose``) belongs to the
outer call and records no span of its own.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro import telemetry
from repro.core.workflow import OperationalTestingLoop
from repro.engine.batching import BatchedQueryEngine, QueryCache
from repro.engine.population import PopulationFuzzEngine
from repro.fuzzing.fuzzer import OperationalFuzzer
from repro.fuzzing.mutations import (
    GaussianMutation,
    GradientMutation,
    InterpolationMutation,
    MutationOperator,
    SparseMutation,
)
from repro.naturalness.metrics import (
    CompositeNaturalness,
    DensityNaturalness,
    ReconstructionNaturalness,
)
from repro.nn.network import Sequential
from repro.nn.trainer import Trainer
from repro.op.profile import EmpiricalProfile, GaussianMixtureProfile, OperationalProfile
from repro.reliability.assessment import ReliabilityAssessor
from repro.reliability.bayesian import BayesianCellModel
from repro.reliability.cells import CellRobustnessEvaluator
from repro.retraining.adversarial_training import OperationalRetrainer
from repro.sampling.samplers import OperationalSeedSampler

CATEGORY = "perfbench"


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    """Argument ``name`` of a call, passed at ``index`` (``self`` is 0) or by name."""
    return args[index] if len(args) > index else kwargs.get(name, default)


def _len_of(index: int, name: str) -> Callable[[tuple, dict], int]:
    return lambda args, kwargs: len(_arg(args, kwargs, index, name, ()))


def _one(args: tuple, kwargs: dict) -> int:
    return 1


#: layer -> (boundary functions as (class, method), rows of one call)
LAYERS: Dict[str, Tuple[List[Tuple[type, str]], Callable[[tuple, dict], int]]] = {
    "op.density": (
        [(EmpiricalProfile, "density"), (GaussianMixtureProfile, "density")],
        _len_of(1, "x"),
    ),
    "op.cell_probabilities": (
        [(OperationalProfile, "cell_probabilities")],
        lambda args, kwargs: int(_arg(args, kwargs, 2, "num_samples", 4096)),
    ),
    "naturalness.score": (
        [(DensityNaturalness, "score"), (CompositeNaturalness, "score")],
        _len_of(1, "x"),
    ),
    "naturalness.autoencoder": (
        [(ReconstructionNaturalness, "score")],
        _len_of(1, "x"),
    ),
    "sampling.select": (
        [(OperationalSeedSampler, "select")],
        _len_of(1, "dataset"),
    ),
    "fuzzing.population": (
        [(PopulationFuzzEngine, "run")],
        _len_of(1, "tasks"),
    ),
    "fuzzing.propose": (
        [
            (GaussianMutation, "propose"),
            (SparseMutation, "propose"),
            (InterpolationMutation, "propose"),
            (GradientMutation, "propose"),
            (MutationOperator, "propose_batch"),
            (GradientMutation, "propose_batch"),
        ],
        lambda args, kwargs: (
            len(args[1].currents) if hasattr(args[1], "currents") else 1
        ),
    ),
    "engine.batch": (
        [
            (BatchedQueryEngine, "predict_proba"),
            (BatchedQueryEngine, "predict"),
            (BatchedQueryEngine, "score_naturalness"),
            (BatchedQueryEngine, "loss_input_gradient"),
        ],
        _len_of(1, "x"),
    ),
    "engine.cache": (
        [(QueryCache, "get"), (QueryCache, "put")],
        _one,
    ),
    "nn.forward": ([(Sequential, "predict_proba")], _len_of(1, "x")),
    "nn.gradient": ([(Sequential, "loss_input_gradient")], _len_of(1, "x")),
    "nn.train": ([(Trainer, "fit")], _len_of(2, "x")),
    "retraining.retrain": (
        [(OperationalRetrainer, "retrain")],
        _len_of(3, "adversarial_examples"),
    ),
    "reliability.evidence": (
        [(CellRobustnessEvaluator, "evaluate")],
        _len_of(2, "reference"),
    ),
    "reliability.bayes": (
        [
            (ReliabilityAssessor, "assess_from_evidence"),
            (BayesianCellModel, "posterior_means"),
            (BayesianCellModel, "posterior_upper_bounds"),
        ],
        lambda args, kwargs: len(_arg(args, kwargs, 1, "table").cells),
    ),
    "core.workflow": (
        [(OperationalTestingLoop, "run")],
        _len_of(2, "operational_data"),
    ),
}


@dataclass
class LayerTotals:
    calls: int = 0
    rows: int = 0
    self_s: float = 0.0


@dataclass
class Breakdown:
    """Per-layer totals of one trace, plus the raw spans' derived counts."""

    layers: Dict[str, LayerTotals]
    #: ``QueryStats``-shaped counts of engine traffic, over the whole trace
    #: and restricted to calls made inside ``fuzzing.population``
    engine_all: Dict[str, int]
    engine_fuzzing: Dict[str, int]
    spans: int
    dropped: int


class Tracer:
    """Installs span-recording wrappers on every boundary function.

    Use as a context manager; the original methods are restored on exit.
    It also keeps every ``OperationalFuzzer.fuzz`` result in ``campaigns``
    (no span: the call is glue around ``fuzzing.population``), for the
    per-seed rejection and detection counts no layer returns.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.campaigns: List[object] = []

    def __enter__(self) -> "Tracer":
        for layer, (boundaries, rows) in LAYERS.items():
            for cls, method in boundaries:
                self._patch(cls, method, self._wrap(layer, cls.__dict__[method], rows))
        fuzz = OperationalFuzzer.fuzz

        @functools.wraps(fuzz)
        def kept(*args, **kwargs):
            result = fuzz(*args, **kwargs)
            self.campaigns.append(result)
            return result

        self._patch(OperationalFuzzer, "fuzz", kept)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _patch(self, cls: type, method: str, replacement: Callable) -> None:
        self._saved.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def _wrap(self, layer: str, fn: Callable, rows: Callable) -> Callable:
        name = fn.__qualname__
        is_cache_get = name == "QueryCache.get"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._depth[layer] += 1
            self._stack.append(span_id)
            try:
                with telemetry.span(
                    layer,
                    CATEGORY,
                    id=span_id,
                    parent=parent,
                    rows=rows(args, kwargs),
                    fn=name,
                ) as handle:
                    result = fn(*args, **kwargs)
                    if is_cache_get:
                        handle.set(hit=result is not None)
                return result
            finally:
                self._stack.pop()
                self._depth[layer] -= 1

        return traced


#: ``QueryStats`` fields the trace reproduces, and the telemetry counter the
#: engine bumps for each
ENGINE_COUNTERS = {
    "rows_queried": "engine.rows",
    "model_calls": "engine.model_calls",
    "cache_hits": "engine.cache_hits",
    "naturalness_rows": "engine.naturalness_rows",
    "gradient_rows": "engine.gradient_rows",
    "gradient_calls": "engine.gradient_calls",
}

#: ``QueryStats`` row counter of each ``engine.batch`` boundary function
BATCH_ROWS = {
    "predict": "rows_queried",
    "predict_proba": "rows_queried",
    "score_naturalness": "naturalness_rows",
    "loss_input_gradient": "gradient_rows",
}


def breakdown(session) -> Breakdown:
    """Reduce a telemetry session's boundary spans to per-layer totals."""
    spans = [s for s in session.spans.snapshot() if s.category == CATEGORY]
    by_id = {s.attrs["id"]: s for s in spans}
    layers = {layer: LayerTotals() for layer in LAYERS}
    engine_all = dict.fromkeys(ENGINE_COUNTERS, 0)
    engine_fuzzing = dict.fromkeys(ENGINE_COUNTERS, 0)

    def under_fuzzing(span) -> bool:
        parent = span.attrs["parent"]
        while parent >= 0:
            ancestor = by_id[parent]
            if ancestor.name == "fuzzing.population":
                return True
            parent = ancestor.attrs["parent"]
        return False

    for s in spans:
        totals = layers[s.name]
        totals.calls += 1
        totals.rows += s.attrs["rows"]
        totals.self_s += s.duration_s
        parent = by_id.get(s.attrs["parent"])
        if parent is not None:
            layers[parent.name].self_s -= s.duration_s

        field, amount = None, 1
        if s.name == "engine.batch":
            field = BATCH_ROWS[s.attrs["fn"].rsplit(".", 1)[1]]
            amount = s.attrs["rows"]
        elif s.name == "engine.cache" and s.attrs.get("hit"):
            field = "cache_hits"
        elif parent is not None and parent.name == "engine.batch":
            field = {"nn.forward": "model_calls", "nn.gradient": "gradient_calls"}.get(s.name)
        if field is not None:
            engine_all[field] += amount
            if under_fuzzing(s):
                engine_fuzzing[field] += amount
    return Breakdown(
        layers=layers,
        engine_all=engine_all,
        engine_fuzzing=engine_fuzzing,
        spans=len(spans),
        dropped=session.spans.dropped,
    )
