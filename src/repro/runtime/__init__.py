"""Runtime API: one execution policy and declarative campaign specs.

This package is the single surface the whole system converges on for *how*
campaigns execute (the *what* stays with each subsystem's own config):

* :mod:`repro.runtime.policy` — :class:`ExecutionPolicy`, the frozen,
  serializable object capturing the entire execution surface (batching,
  caching, checkpoint cadence, telemetry), with
  ``build_engine`` — the one way subsystems build their query engines.
* :mod:`repro.runtime.spec` — :class:`CampaignSpec`, the declarative
  JSON/TOML campaign description consumed by ``python -m repro run --spec``
  and recorded verbatim in the run registry.

Every subsystem (fuzzer, black-box attacks, reliability assessment, the
testing loop, scenarios, the CLI) accepts a single ``policy`` parameter;
the policy decides what execution costs, never what it computes.
"""

from .policy import ExecutionPolicy
from .spec import CampaignSpec

__all__ = [
    "ExecutionPolicy",
    "CampaignSpec",
]
