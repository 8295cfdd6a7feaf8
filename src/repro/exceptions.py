"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses describe the subsystem
that failed and the kind of misuse, which keeps error handling explicit at the
call sites (e.g. configuration problems vs. numerical problems).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration object or argument combination is invalid."""


class ShapeError(ReproError):
    """An array has an unexpected shape or dimensionality."""


class NotFittedError(ReproError):
    """A model or estimator was used before being fitted/trained."""


class DataError(ReproError):
    """A dataset is malformed (empty, mismatched labels, bad bounds, ...)."""


class ProfileError(ReproError):
    """An operational profile is inconsistent (bad probabilities, unknown cell, ...)."""


class AttackError(ReproError):
    """An adversarial attack was configured or invoked incorrectly."""


class SamplingError(ReproError):
    """A seed-sampling strategy received invalid weights or budgets."""


class FuzzingError(ReproError):
    """The operational fuzzer was configured or invoked incorrectly."""


class ReliabilityError(ReproError):
    """A reliability assessment received inconsistent evidence."""


class BudgetExhaustedError(ReproError):
    """A testing campaign ran out of its test-case budget."""


class StoreError(ReproError):
    """The campaign store (checkpoints, registry) failed."""


class CheckpointError(StoreError):
    """A campaign checkpoint is missing, corrupt or from a different campaign."""


class CheckpointMismatchError(CheckpointError, ConfigurationError):
    """A checkpoint's campaign fingerprint does not match the campaign.

    Carries the checkpoint path and both fingerprints so tooling (the CLI
    ``resume`` verb) can render a one-line diagnosis and exit distinctly
    from generic store failures.
    """

    def __init__(self, path: object, expected: object, actual: object) -> None:
        self.path = str(path)
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"checkpoint {self.path} belongs to a different campaign: "
            f"expected fingerprint {expected}, found {actual}"
        )


class ConvergenceError(ReproError):
    """An iterative procedure failed to converge within its iteration limit."""
