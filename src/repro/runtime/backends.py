"""Model backends: the explicit, registered execution interface.

Every subsystem of the reproduction ultimately talks to the model under test
through three methods — ``predict``, ``predict_proba`` and
``loss_input_gradient``.  Until this module that interface was *implicit*:
the engines satisfied it by construction and the only way to add a new
execution substrate (async dispatch, a remote service) was to grow another
``engine="..."`` string and thread it through sixteen configs.

:class:`ModelBackend` makes the interface explicit, and the registry below
makes the set of execution substrates open: a backend is registered under a
name, an :class:`repro.runtime.ExecutionPolicy` refers to it by that name,
and ``policy.build_engine(model, ...)`` constructs it.  Two backends ship:

* :class:`SequentialBackend` (``"batched"``) — in-process execution; every
  physical chunk runs on the coordinator (the PR 2 batching chassis).
* :class:`ReplicatedBackend` (``"sharded"``) — physical chunks fan out
  across a thread pool whose threads hold exact pickled model replicas,
  with bit-identical results by construction.

A third-party backend plugs in with::

    @register_backend("my-async")
    class AsyncBackend(BatchedQueryEngine):
        @classmethod
        def from_policy(cls, model, naturalness, policy):
            ...

after which ``ExecutionPolicy(backend="my-async")`` selects it everywhere —
fuzzer, attacks, reliability assessment, scenarios, campaign specs — without
touching any of those subsystems.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..engine.batching import BatchedQueryEngine
from ..engine.parallel import ShardedQueryEngine
from ..exceptions import ConfigurationError


@runtime_checkable
class ModelBackend(Protocol):
    """The model interface an execution backend must serve.

    This is the formerly implicit contract between the testing machinery and
    whatever answers its queries: the raw model, the in-process engine, the
    thread-pool engine, or any future substrate.  Implementations
    must be *exact* — two backends given the same model and the same inputs
    return bit-identical arrays, so campaign results never depend on the
    execution substrate.
    """

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels for a batch of inputs."""
        ...

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, shape ``(n, num_classes)``."""
        ...

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the inputs."""
        ...


#: Registered execution backends, keyed by the name an
#: :class:`~repro.runtime.ExecutionPolicy` selects them with.
_BACKENDS: Dict[str, type] = {}


def register_backend(name: str):
    """Class decorator registering an execution backend under ``name``.

    The class must provide a ``from_policy(model, naturalness, policy)``
    classmethod returning a ready :class:`BatchedQueryEngine` (sub)instance
    configured from the policy's fields, ``cache`` included.  Names are
    unique; re-registering an existing name is an error (call
    :func:`unregister_backend` first if a plug-in really means to shadow a
    shipped backend).
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("backend name must be a non-empty string")

    def decorator(cls: type) -> type:
        if not callable(getattr(cls, "from_policy", None)):
            raise ConfigurationError(
                f"backend {cls.__name__} must define a from_policy(model, "
                "naturalness, policy) classmethod"
            )
        if name in _BACKENDS:
            raise ConfigurationError(
                f"backend {name!r} is already registered "
                f"({_BACKENDS[name].__name__}); unregister_backend it first"
            )
        _BACKENDS[name] = cls
        cls.backend_name = name
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registered backend (plug-in teardown; shipped names too)."""
    _BACKENDS.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Names accepted by ``ExecutionPolicy.backend``, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(name: str) -> type:
    """Look a backend class up by name, failing loudly with the valid names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{list(available_backends())}"
        ) from None


@register_backend("batched")
class SequentialBackend(BatchedQueryEngine):
    """In-process backend: physical chunks execute sequentially on the
    calling thread.  The default — no pickling, no pool."""

    @classmethod
    def from_policy(cls, model, naturalness, policy) -> "SequentialBackend":
        return cls(
            model,
            naturalness=naturalness,
            batch_size=policy.batch_size,
            cache=policy.cache,
            cache_max_entries=policy.cache_max_entries,
        )


@register_backend("sharded")
class ReplicatedBackend(ShardedQueryEngine):
    """Replicated backend: physical chunks fan out across
    ``policy.num_workers`` threads, each holding an exact pickled replica of
    the model (and naturalness scorer).  Bit-identical to the in-process
    backend by construction — see :mod:`repro.engine.parallel`."""

    @classmethod
    def from_policy(cls, model, naturalness, policy) -> "ReplicatedBackend":
        return cls(
            model,
            naturalness=naturalness,
            batch_size=policy.batch_size,
            cache=policy.cache,
            cache_max_entries=policy.cache_max_entries,
            num_workers=policy.num_workers,
        )


__all__ = [
    "ModelBackend",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "resolve_backend",
    "SequentialBackend",
    "ReplicatedBackend",
]
