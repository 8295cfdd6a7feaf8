"""repro — Operational adversarial example detection for reliable deep learning.

Reproduction of the DSN 2021 fast abstract *"Detecting Operational Adversarial
Examples for Reliable Deep Learning"* (Zhao, Huang, Schewe, Dong, Huang).

The package implements the paper's five-step testing workflow and every
substrate it depends on:

* :mod:`repro.nn` — numpy deep-learning framework (models under test).
* :mod:`repro.data` — synthetic datasets, transforms, input-space cells.
* :mod:`repro.op` — operational-profile modelling, estimation, synthesis, drift (RQ1).
* :mod:`repro.naturalness` — quantified naturalness / local-OP proxies.
* :mod:`repro.attacks` — FGSM, PGD and black-box baselines.
* :mod:`repro.engine` — batched model-query engine (chunking, caching,
  lock-step population fuzzing).
* :mod:`repro.sampling` — weight-based seed sampling (RQ2).
* :mod:`repro.fuzzing` — naturalness-guided operational fuzzer (RQ3).
* :mod:`repro.retraining` — OP-aware adversarial retraining (RQ4).
* :mod:`repro.reliability` — cell-based reliability assessment (RQ5).
* :mod:`repro.core` — detection methods, comparison harness and the full loop.
* :mod:`repro.evaluation` — experiment scenarios and reporting.
* :mod:`repro.store` — campaign store (checkpoint/resume, run registry +
  ``python -m repro`` CLI).
* :mod:`repro.runtime` — the runtime API: :class:`ExecutionPolicy` and
  declarative :class:`CampaignSpec` files.
"""

import importlib as _importlib

__version__ = "1.0.0"

__all__ = [
    "attacks",
    "config",
    "core",
    "data",
    "engine",
    "evaluation",
    "exceptions",
    "fuzzing",
    "naturalness",
    "nn",
    "op",
    "reliability",
    "retraining",
    "runtime",
    "sampling",
    "store",
    "types",
    "AdversarialExample",
    "CampaignReport",
    "Classifier",
    "DetectionResult",
    "IterationReport",
    "LabeledBatch",
    "__version__",
]

#: Re-exported from :mod:`repro.types`.
_TYPES = frozenset(
    {
        "AdversarialExample",
        "CampaignReport",
        "Classifier",
        "DetectionResult",
        "IterationReport",
        "LabeledBatch",
    }
)
#: Every other public name is a submodule; ``telemetry`` is public too,
#: though not in ``__all__``.
_SUBMODULES = (frozenset(__all__) - _TYPES - {"__version__"}) | {"telemetry"}


# Submodules and types load on first attribute access (PEP 562), so a
# process imports only what it runs: ``python -m repro lint`` loads neither
# NumPy nor SciPy.
def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name in _TYPES:
        value = getattr(_importlib.import_module(".types", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | _TYPES)
