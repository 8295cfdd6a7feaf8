"""The package root: lazy loading, and what each entry point imports.

``repro`` loads its submodules on first attribute access, so a process
imports only the code it runs.  The import checks run in a fresh
interpreter, because the rest of the suite has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: Public names of ``dir(repro)`` when the root loaded every submodule.
PUBLIC_NAMES = {
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
    "telemetry",
    "types",
    "AdversarialExample",
    "CampaignReport",
    "Classifier",
    "DetectionResult",
    "IterationReport",
    "LabeledBatch",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


def _run(code: str) -> dict:
    """The JSON object that ``code`` prints last, run in a fresh interpreter."""
    return json.loads(_python("-c", code).stdout.splitlines()[-1])


def test_import_repro_loads_neither_numpy_nor_scipy():
    result = _run(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps({'modules': sorted(sys.modules), 'dir': dir(repro)}))"
    )
    assert not {"numpy", "scipy"} & set(result["modules"])
    # dir() lists every public name before any of them is loaded
    assert PUBLIC_NAMES <= set(result["dir"])


def test_subsystems_and_credible_bounds_never_load_scipy_stats():
    result = _run(
        "import json, sys\n"
        "import repro.core, repro.evaluation, repro.fuzzing, repro.reliability\n"
        "posterior = repro.reliability.BayesianCellModel().posterior_for(40, 3)\n"
        "bounds = [posterior.lower_bound(0.9), posterior.upper_bound(0.9)]\n"
        "print(json.dumps({'modules': sorted(sys.modules), 'bounds': bounds}))"
    )
    assert "scipy.stats" not in result["modules"]
    lower, upper = result["bounds"]
    assert 0.0 < lower < upper < 1.0


def test_lint_cli_loads_neither_numpy_nor_scipy():
    # -X importtime names every module the real `python -m` run imports
    stderr = _python("-X", "importtime", "-m", "repro", "lint", "--list-rules").stderr
    imported = {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro" in imported
    assert not {"numpy", "scipy"} & imported


def test_public_names_resolve_and_star_import_binds_all():
    assert set(repro.__all__) == PUBLIC_NAMES - {"telemetry"} | {"__version__"}
    for name in PUBLIC_NAMES:
        assert getattr(repro, name) is not None
    assert not hasattr(repro, "no_such_name")
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["LabeledBatch"] is repro.types.LabeledBatch


#: Modules whose import means the program runs more than one thread or process.
THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")


def test_no_module_imports_threads():
    import ast

    from repro.analysis.program import extract_facts

    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for imp in extract_facts(ast.parse(path.read_text("utf-8")), path).imports:
            # `from concurrent import futures` imports concurrent.futures
            name = f"{imp.module}.{imp.symbol}" if imp.symbol else imp.module
            if any((name + ".").startswith(m + ".") for m in THREAD_MODULES):
                where = f"{path.relative_to(SRC)}:{imp.lineno}"
                offenders.append(f"{where} imports {name}")
    assert not offenders, (
        "the program runs on one thread, so telemetry holds no locks and the "
        "linter has no lock rules; a change that brings threads back must "
        "bring back their locks, the lock rules and a measured row that pays "
        "for them:\n" + "\n".join(offenders)
    )
