"""``CampaignSpec`` — a whole testing campaign as one declarative document.

A campaign spec bundles everything needed to reproduce a run of the paper's
testing loop: the scenario to prepare, the fuzzer hyper-parameters, the
workflow and stopping settings, the campaign seed and one
:class:`~repro.runtime.ExecutionPolicy`.  Specs are plain JSON (or TOML)
files::

    {
      "name": "two-moons-small",
      "seed": 2021,
      "scenario": {"name": "two-moons", "samples": 300, "epochs": 6},
      "fuzzer":   {"queries_per_seed": 6},
      "workflow": {"test_budget_per_iteration": 80, "seeds_per_iteration": 4},
      "stopping": {"target_pmi": 0.02, "max_iterations": 1},
      "policy":   {"backend": "batched", "cache": true, "checkpoint_every": 1}
    }

``python -m repro run --spec campaign.json`` consumes such a file, records
it **verbatim** in the run registry (``run.json``'s ``config.spec``), and
``python -m repro run --from-run <id>`` re-launches a campaign from a stored
run's spec — so a stored run is reproducible from its spec alone.

Section keys are validated against the target configuration objects, and
execution settings (``num_workers``, ``cache_dir``, ... — any
:class:`ExecutionPolicy` field) are rejected outside the ``policy`` section:
in a spec the execution surface lives there, nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from ..exceptions import ConfigurationError
from .policy import ExecutionPolicy, load_structured_file

#: Keys of the ``scenario`` section (``samples`` maps onto the scenario
#: factories' ``num_samples``).  Any *other* key is passed through to the
#: named scenario factory, so scenario-specific settings (``noise``,
#: ``image_size``, ``num_classes``, ...) remain reachable — an unknown one
#: fails loudly inside the factory at build time.
SCENARIO_KEY_ALIASES = {"samples": "num_samples"}

_SECTIONS = ("scenario", "fuzzer", "workflow", "stopping", "policy")


#: Keys that belong in the ``policy`` section, and nowhere else.
_POLICY_KEYS = frozenset(ExecutionPolicy.__dataclass_fields__)


def _section_fields(section: str) -> set:
    """Allowed keys of one spec section's target dataclass."""
    # imported lazily: the spec module sits below the subsystems in the
    # package graph, and only needs them once a spec is actually validated
    if section == "fuzzer":
        from ..fuzzing.fuzzer import FuzzerConfig

        return set(FuzzerConfig.__dataclass_fields__) - {"policy"}
    if section == "workflow":
        from ..core.workflow import WorkflowConfig

        return set(WorkflowConfig.__dataclass_fields__) - {"policy"}
    if section == "stopping":
        from ..reliability.assessment import StoppingRule

        return set(StoppingRule.__dataclass_fields__)
    raise ConfigurationError(f"unknown spec section {section!r}")  # pragma: no cover


def _validate_section(section: str, data: Mapping[str, object]) -> Dict[str, object]:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"spec section {section!r} must be a mapping")
    allowed = _section_fields(section)
    for key in data:
        if key in allowed:
            continue
        if key in _POLICY_KEYS:
            raise ConfigurationError(
                f"spec section {section!r} must not carry the execution "
                f"setting {key!r}; the execution surface lives in the 'policy' "
                "section"
            )
        raise ConfigurationError(
            f"unknown key {key!r} in spec section {section!r}; "
            f"expected a subset of {sorted(allowed)}"
        )
    if section == "fuzzer" and data.get("execution") == "sharded":
        # the backend is a policy setting: point the retired alias there
        raise ConfigurationError(
            "spec section 'fuzzer' must not use execution='sharded'; set "
            "backend='sharded' in the 'policy' section (execution selects "
            "only the 'population'/'sequential' control flow)"
        )
    return dict(data)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one operational-testing campaign.

    Attributes
    ----------
    scenario:
        Mapping with at least ``name`` (a
        :func:`repro.evaluation.make_scenario` name); ``samples``/``epochs``
        and any scenario-specific factory keyword ride along.
    policy:
        The campaign's :class:`ExecutionPolicy` (drives the fuzzer, the
        reliability assessor and the loop's checkpoint cadence).
    seed:
        Campaign RNG seed — the spec plus this seed reproduce the run.
    name:
        Registry display name (defaults to the scenario name).
    fuzzer, workflow, stopping:
        Keyword sections for :class:`repro.fuzzing.FuzzerConfig`,
        :class:`repro.core.WorkflowConfig` and
        :class:`repro.reliability.StoppingRule`; unknown keys and execution
        settings are rejected at construction.
    """

    scenario: Mapping[str, object]
    policy: ExecutionPolicy = ExecutionPolicy()
    seed: int = 2021
    name: Optional[str] = None
    fuzzer: Mapping[str, object] = field(default_factory=dict)
    workflow: Mapping[str, object] = field(default_factory=dict)
    stopping: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, Mapping) or "name" not in self.scenario:
            raise ConfigurationError(
                "spec section 'scenario' must be a mapping with a 'name' key"
            )
        object.__setattr__(self, "scenario", dict(self.scenario))
        object.__setattr__(self, "fuzzer", _validate_section("fuzzer", self.fuzzer))
        object.__setattr__(self, "workflow", _validate_section("workflow", self.workflow))
        object.__setattr__(self, "stopping", _validate_section("stopping", self.stopping))
        if not isinstance(self.policy, ExecutionPolicy):
            raise ConfigurationError(
                "spec section 'policy' must be an ExecutionPolicy "
                "(or, in from_dict input, a mapping of its fields)"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}"
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    @property
    def campaign_name(self) -> str:
        """Display name used by the run registry."""
        return self.name if self.name is not None else str(self.scenario["name"])

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (exact ``from_dict`` round-trip)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "scenario": dict(self.scenario),
            "fuzzer": dict(self.fuzzer),
            "workflow": dict(self.workflow),
            "stopping": dict(self.stopping),
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Build a spec from a parsed document, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ConfigurationError("a campaign spec must be a mapping")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign-spec keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "scenario" not in data:
            raise ConfigurationError("a campaign spec requires a 'scenario' section")
        payload = dict(data)
        policy = payload.get("policy", ExecutionPolicy())
        if isinstance(policy, Mapping):
            policy = ExecutionPolicy.from_dict(policy)
        payload["policy"] = policy
        return cls(**payload)

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the spec as JSON (parents created as needed)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a JSON (or TOML, by suffix) file."""
        return cls.from_dict(load_structured_file(path))

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def build(self):
        """Materialise ``(scenario, loop)`` — deterministic given the spec.

        The scenario is prepared from the ``scenario`` section and the
        campaign seed; the loop wires the spec's fuzzer/workflow/stopping
        sections together with the spec's policy driving both the fuzzer and
        the default reliability assessor.
        """
        from ..core.workflow import OperationalTestingLoop, WorkflowConfig
        from ..evaluation.scenarios import make_scenario
        from ..fuzzing.fuzzer import FuzzerConfig
        from ..reliability.assessment import StoppingRule

        overrides = {
            SCENARIO_KEY_ALIASES.get(key, key): value
            for key, value in self.scenario.items()
            if key != "name" and value is not None
        }
        scenario = make_scenario(
            str(self.scenario["name"]), rng=int(self.seed), **overrides
        )
        loop = OperationalTestingLoop(
            profile=scenario.profile,
            train_data=scenario.train_data,
            partition=scenario.partition,
            naturalness=scenario.naturalness,
            fuzzer_config=FuzzerConfig(**self.fuzzer, policy=self.policy),
            stopping_rule=StoppingRule(**self.stopping),
            workflow_config=WorkflowConfig(**self.workflow, policy=self.policy),
            rng=int(self.seed),
        )
        return scenario, loop


__all__ = ["SCENARIO_KEY_ALIASES", "CampaignSpec"]
