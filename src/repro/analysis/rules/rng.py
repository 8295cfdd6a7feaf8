"""REP002 — RNG discipline: no global state, no unseeded generators.

Bit-identical campaigns across execution policies rest on one discipline
(see ``repro.config``): every stochastic component takes an explicit seeded
``numpy.random.Generator`` (spawned per seed by the campaign policy), and the
legacy global-state API (``np.random.seed`` / ``np.random.rand`` / ...) is
never touched.  One stray global call makes results depend on import order
and thread scheduling — precisely the class of nondeterminism the equivalence
suites cannot pin.

Flagged anywhere inside ``repro.*``:

* any call of the legacy module-level API ``np.random.<fn>(...)``
  (``numpy.random`` spelled out included);
* ``default_rng()`` *without* a seed argument — an intentionally
  nondeterministic generator must be requested through ``ensure_rng(None)``,
  which is the one documented opt-in (and is itself pragma-annotated).
"""

from __future__ import annotations

import ast

from ..walker import ModuleContext, Rule, register_rule
from .common import dotted_name

#: Module-level np.random API that mutates or reads hidden global state.
LEGACY_FUNCTIONS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "binomial",
        "poisson",
        "beta",
        "gamma",
        "exponential",
        "multivariate_normal",
        "get_state",
        "set_state",
        "RandomState",
    }
)

#: Receiver spellings of the numpy random module.
RANDOM_MODULES = ("np.random", "numpy.random")


@register_rule
class RngDisciplineRule(Rule):
    """Global-state RNG calls (``np.random.shuffle`` & friends) draw from one
    hidden process-wide stream, so any import-order or thread-timing change
    silently reshuffles every downstream sample — the bit-identical-rerun
    contract dies without a single test failing.  Unseeded ``default_rng()``
    is the same bug one step earlier.

    Example::

        idx = np.random.permutation(len(pool))    # hidden global stream

    Fix::

        def __init__(self, rng: np.random.Generator): ...
        idx = self.rng.permutation(len(pool))     # seeded, owned, replayable
    """

    rule_id = "REP002"
    name = "rng-discipline"
    severity = "error"
    description = (
        "legacy global-state numpy RNG API, or an unseeded default_rng() — "
        "every stochastic path must take a seeded Generator"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        target = dotted_name(node.func)
        if target is None:
            return
        module, _, leaf = target.rpartition(".")
        if module in RANDOM_MODULES and leaf in LEGACY_FUNCTIONS:
            ctx.report(
                self,
                node,
                f"{target}(...) uses numpy's global random state; results "
                "depend on import order and are unreproducible",
                hint="accept an RngLike and convert via ensure_rng / spawn_rngs",
            )
            return
        if leaf == "default_rng" or target == "default_rng":
            if not node.args and not node.keywords:
                ctx.report(
                    self,
                    node,
                    "default_rng() without a seed creates a nondeterministic "
                    "generator outside the campaign RNG tree",
                    hint="thread the campaign Generator through, or opt into "
                    "nondeterminism explicitly via ensure_rng(None)",
                )


__all__ = ["RngDisciplineRule"]
