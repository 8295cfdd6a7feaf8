"""Runtime API: one execution policy, pluggable model backends, campaign specs.

This package is the single surface the whole system converges on for *how*
campaigns execute (the *what* stays with each subsystem's own config):

* :mod:`repro.runtime.policy` — :class:`ExecutionPolicy`, the frozen,
  serializable object capturing the entire execution surface (backend,
  workers, batching, caching, checkpoint cadence, RNG spawning), with a
  ``build_engine``/``session`` factory — the one way subsystems build
  their query engines.
* :mod:`repro.runtime.backends` — the :class:`ModelBackend` protocol (the
  formerly implicit ``predict`` / ``predict_proba`` / ``loss_input_gradient``
  contract made explicit) and the open backend registry with the two
  shipping implementations: the in-process :class:`SequentialBackend` and
  the multi-worker :class:`ReplicatedBackend`.
* :mod:`repro.runtime.spec` — :class:`CampaignSpec`, the declarative
  JSON/TOML campaign description consumed by ``python -m repro run --spec``
  and recorded verbatim in the run registry.

Every subsystem (fuzzer, black-box attacks, reliability assessment, the
testing loop, scenarios, the CLI) accepts a single ``policy`` parameter;
results are bit-identical across policies by construction — only the
physical execution differs.
"""

# re-exported because they are ExecutionPolicy fields: callers configuring a
# policy should not need a second import root for its retry/faults values
from ..faults import FaultPlan, RetryPolicy
from .backends import (
    ModelBackend,
    ReplicatedBackend,
    SequentialBackend,
    available_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from .policy import RNG_SPAWN_POLICIES, ExecutionPolicy
from .spec import CampaignSpec

__all__ = [
    "ModelBackend",
    "SequentialBackend",
    "ReplicatedBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
    "RNG_SPAWN_POLICIES",
    "ExecutionPolicy",
    "RetryPolicy",
    "FaultPlan",
    "CampaignSpec",
]
