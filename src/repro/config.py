"""Global configuration helpers shared across the library.

The library never touches :mod:`numpy`'s global random state.  Every stochastic
component accepts either an integer seed or a :class:`numpy.random.Generator`
and converts it through :func:`ensure_rng`, so experiments are reproducible by
construction and independent components can be seeded independently.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Union

import numpy as np

from .exceptions import ConfigurationError, DataError

#: Type accepted everywhere a random source is needed.
RngLike = Union[None, int, np.random.Generator]

#: Default floating point dtype used by the numpy neural-network substrate.
DEFAULT_DTYPE = np.float64

#: Numerical floor used to avoid log(0) / division by zero in probabilities.
EPSILON = 1e-12


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator or ``None``.

    Parameters
    ----------
    rng:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing :class:`numpy.random.Generator` which is returned unchanged.
    """
    if rng is None:
        # the one documented opt-in to nondeterminism: callers who pass None
        # explicitly ask for an unseeded generator (see docstring above)
        return np.random.default_rng()  # repro: allow[rng-discipline]
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ConfigurationError(f"random seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise ConfigurationError(
        f"expected None, int seed or numpy Generator, got {type(rng).__name__}"
    )


def spawn_seeds(rng: RngLike, count: int) -> np.ndarray:
    """The seeds of ``count`` child generators, in one draw from ``rng``.

    ``np.random.default_rng(int(seeds[i]))`` is child ``i`` of
    :func:`spawn_rngs`; a caller that needs only some children builds only
    those.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    return ensure_rng(rng).integers(0, 2**31 - 1, size=count)


def spawn_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Split one random source into ``count`` independent child generators."""
    return [np.random.default_rng(int(s)) for s in spawn_seeds(rng, count)]


def require_int(name: str, value: object, error: type = ConfigurationError) -> None:
    """Raise ``error`` unless ``value`` is a Python ``int`` (not a ``bool``).

    The one check for configured counts: a fractional count would otherwise
    be accepted and fail (or be truncated) only where it is used, deep into
    a campaign.  The rejection is raised as the caller's own ``error`` class.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")


def require_bool(name: str, value: object, error: type = ConfigurationError) -> None:
    """Raise ``error`` unless ``value`` is a Python ``bool``.

    The one check for configured flags: a spec's ``"false"`` would
    otherwise pass and, being a non-empty string, switch the flag on.  The
    rejection is raised as the caller's own ``error`` class.
    """
    if not isinstance(value, bool):
        raise error(f"{name} must be a bool, got {type(value).__name__}")


def require_finite(name: str, value: object, error: type = ConfigurationError) -> None:
    """Raise ``error`` unless ``value`` is a finite int or float (not a ``bool``).

    The one check for configured reals, run before any range check: NaN
    fails every comparison, so ``threshold < 0`` lets it through, and an
    infinite bound satisfies a one-sided range.  Python and NumPy ints and
    floats pass.  The rejection is raised as the caller's own ``error`` class.
    """
    real = (int, float, np.integer, np.floating)
    if (
        isinstance(value, bool)
        or not isinstance(value, real)
        or (isinstance(value, (float, np.floating)) and not math.isfinite(value))
    ):
        raise error(f"{name} must be a finite number, got {value!r}")


def clip01(x: np.ndarray) -> np.ndarray:
    """Clip an array into the canonical ``[0, 1]`` input domain."""
    return np.clip(x, 0.0, 1.0)


def finite_rows(x: np.ndarray) -> np.ndarray:
    """``x`` itself, or :class:`DataError` naming its first non-finite row.

    The query engines call this on every input before the cache or the
    model sees a row, and the operational profiles before a density.  A NaN
    or infinite coordinate is not a question either can answer: ``ReLU``
    maps NaN to 0, so the model would classify such a row from its biases
    alone, and a NaN density passes every ``density < floor`` rejection.
    """
    finite = np.isfinite(x)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.reshape(len(x), -1).all(axis=1))[0])
        raise DataError(
            f"input row {bad} has a non-finite value (NaN or inf); "
            "only finite inputs are accepted"
        )
    return x


#: Environment variable overriding where ``python -m repro`` keeps its runs.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def default_runs_dir() -> Path:
    """Root of the run registry used by the CLI when ``--runs-dir`` is omitted.

    Controlled by the ``REPRO_RUNS_DIR`` environment variable so shared
    (cross-host) registries need no per-command flag; defaults to
    ``./repro-runs``.
    """
    return Path(os.environ.get(RUNS_DIR_ENV, "repro-runs"))
