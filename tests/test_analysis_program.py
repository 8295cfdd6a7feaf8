"""Tests for ``repro.analysis.program`` — the whole-program layer.

Covers the parts the per-rule fixtures in ``test_analysis.py`` take for
granted: cross-module symbol resolution (aliased imports, re-export chains,
wildcard rejection), call-graph resolution (self methods, constructor-typed
attributes and locals, callback aliases, base-class walks), and the one
lint pipeline — ``analyze_source`` is ``analyze_paths`` over a one-module
program, and a finding that only exists across two modules is reported,
and pragma-suppressed, on the line where it happens.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis import analyze_paths, analyze_source, build_graph, extract_facts
from repro.analysis.program.facts import ModuleFacts, module_name_for


def dedent(snippet: str) -> str:
    return textwrap.dedent(snippet).lstrip("\n")


def facts_for(module: str, source: str, package: bool = False) -> ModuleFacts:
    source = dedent(source)
    stem = module.replace(".", "/")
    path = f"src/{stem}/__init__.py" if package else f"src/{stem}.py"
    return extract_facts(ast.parse(source), path, module=module)


def graph_for(**modules: str):
    """Graph of ``modules``; a name that prefixes another is a package."""
    names = set(modules)
    return build_graph(
        facts_for(name, src, package=any(n.startswith(name + ".") for n in names))
        for name, src in modules.items()
    )


# --------------------------------------------------------------------------- #
# module naming
# --------------------------------------------------------------------------- #
class TestModuleNaming:
    def test_package_layout_resolved_via_init_files(self, tmp_path):
        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text("x = 1\n")
        assert module_name_for(sub / "mod.py") == "pkg.sub.mod"
        assert module_name_for(sub / "__init__.py") == "pkg.sub"

    def test_loose_file_named_by_stem(self, tmp_path):
        loose = tmp_path / "script.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "script"


# --------------------------------------------------------------------------- #
# symbol resolution
# --------------------------------------------------------------------------- #
class TestSymbolResolution:
    def test_local_function_and_class(self):
        graph = graph_for(**{"pkg.a": "def helper():\n    pass\nclass C:\n    pass\n"})
        ref = graph.resolve("pkg.a", "helper")
        assert (ref.module, ref.qualname, ref.kind) == ("pkg.a", "helper", "function")
        assert graph.resolve("pkg.a", "C").kind == "class"

    def test_from_import_follows_to_defining_module(self):
        graph = graph_for(**{
            "pkg.a": "def helper():\n    pass\n",
            "pkg.b": "from pkg.a import helper\n",
        })
        ref = graph.resolve("pkg.b", "helper")
        assert (ref.module, ref.qualname) == ("pkg.a", "helper")

    def test_aliased_import_resolves_under_the_alias(self):
        graph = graph_for(**{
            "pkg.a": "def helper():\n    pass\n",
            "pkg.b": "from pkg.a import helper as h\n",
        })
        ref = graph.resolve("pkg.b", "h")
        assert (ref.module, ref.qualname) == ("pkg.a", "helper")
        assert graph.resolve("pkg.b", "helper") is None

    def test_module_import_with_dotted_access(self):
        graph = graph_for(**{
            "pkg.a": "class Engine:\n    pass\n",
            "pkg.b": "import pkg.a as backend\n",
        })
        ref = graph.resolve("pkg.b", "backend.Engine")
        assert (ref.module, ref.qualname, ref.kind) == ("pkg.a", "Engine", "class")

    def test_reexport_chain_followed_to_origin(self):
        graph = graph_for(**{
            "pkg.a": "def helper():\n    pass\n",
            "pkg": "from .a import helper\n",
            "pkg.b": "from pkg import helper\n",
        })
        ref = graph.resolve("pkg.b", "helper")
        assert (ref.module, ref.qualname) == ("pkg.a", "helper")

    def test_relative_import_resolved_against_package(self):
        graph = graph_for(**{
            "pkg.a": "def helper():\n    pass\n",
            "pkg.b": "from .a import helper\n",
        })
        ref = graph.resolve("pkg.b", "helper")
        assert (ref.module, ref.qualname) == ("pkg.a", "helper")

    def test_wildcard_import_poisons_unresolved_names(self):
        graph = graph_for(**{
            "pkg.a": "def helper():\n    pass\n",
            "pkg.b": "from pkg.a import *\n\n\ndef local():\n    pass\n",
        })
        # locally defined names still resolve; anything else could come from
        # the wildcard, so resolution refuses to guess
        assert graph.resolve("pkg.b", "local") is not None
        assert graph.resolve("pkg.b", "helper") is None
        assert "pkg.b" in graph.wildcard_importers

    def test_external_names_unresolved(self):
        graph = graph_for(**{"pkg.a": "import numpy as np\n"})
        assert graph.resolve("pkg.a", "np.array") is None
        assert graph.resolve("pkg.a", "undefined") is None

    def test_import_cycle_terminates(self):
        graph = graph_for(**{
            "pkg.a": "from pkg.b import thing\n",
            "pkg.b": "from pkg.a import thing\n",
        })
        assert graph.resolve("pkg.a", "thing") is None


# --------------------------------------------------------------------------- #
# call resolution
# --------------------------------------------------------------------------- #
class TestCallResolution:
    def _one_function(self, graph, module, qualname):
        facts = graph.modules[module]
        return facts, facts.functions[qualname]

    def test_self_method_resolves_within_class(self):
        graph = graph_for(**{
            "pkg.a": """
                class C:
                    def outer(self):
                        self.inner()

                    def inner(self):
                        pass
                """,
        })
        facts, fn = self._one_function(graph, "pkg.a", "C.outer")
        ref = graph.resolve_call(facts, fn, "self.inner")
        assert (ref.module, ref.qualname) == ("pkg.a", "C.inner")

    def test_constructor_typed_attribute_followed(self):
        graph = graph_for(**{
            "pkg.sup": """
                class Supervisor:
                    def replan(self):
                        pass
                """,
            "pkg.coord": """
                from pkg.sup import Supervisor


                class Coordinator:
                    def __init__(self):
                        self._sup = Supervisor()

                    def merge(self):
                        self._sup.replan()
                """,
        })
        facts, fn = self._one_function(graph, "pkg.coord", "Coordinator.merge")
        ref = graph.resolve_call(facts, fn, "self._sup.replan")
        assert (ref.module, ref.qualname) == ("pkg.sup", "Supervisor.replan")

    def test_constructor_typed_local_followed(self):
        graph = graph_for(**{
            "pkg.coord": """
                class Coordinator:
                    def merge(self):
                        pass


                def run():
                    coord = Coordinator()
                    coord.merge()
                """,
        })
        facts, fn = self._one_function(graph, "pkg.coord", "run")
        ref = graph.resolve_call(facts, fn, "coord.merge")
        assert (ref.module, ref.qualname) == ("pkg.coord", "Coordinator.merge")

    def test_callback_alias_followed(self):
        graph = graph_for(**{
            "pkg.a": """
                def helper():
                    pass


                def run():
                    fn = helper
                    fn()
                """,
        })
        facts, fn = self._one_function(graph, "pkg.a", "run")
        ref = graph.resolve_call(facts, fn, "fn")
        assert (ref.module, ref.qualname) == ("pkg.a", "helper")

    def test_class_call_resolves_to_init(self):
        graph = graph_for(**{
            "pkg.a": """
                class Engine:
                    def __init__(self):
                        pass


                def run():
                    Engine()
                """,
        })
        facts, fn = self._one_function(graph, "pkg.a", "run")
        ref = graph.resolve_call(facts, fn, "Engine")
        assert (ref.qualname, ref.kind) == ("Engine.__init__", "function")

    def test_inherited_method_found_via_base_class_walk(self):
        graph = graph_for(**{
            "pkg.base": """
                class Base:
                    def shutdown(self):
                        pass
                """,
            "pkg.derived": """
                from pkg.base import Base


                class Worker(Base):
                    def run(self):
                        self.shutdown()
                """,
        })
        facts, fn = self._one_function(graph, "pkg.derived", "Worker.run")
        ref = graph.resolve_call(facts, fn, "self.shutdown")
        assert (ref.module, ref.qualname) == ("pkg.base", "Base.shutdown")

    def test_unresolvable_call_returns_none(self):
        graph = graph_for(**{"pkg.a": "def run(cb):\n    cb()\n"})
        facts, fn = self._one_function(graph, "pkg.a", "run")
        assert graph.resolve_call(facts, fn, "cb") is None


# --------------------------------------------------------------------------- #
# the one pipeline
# --------------------------------------------------------------------------- #
class TestOnePipeline:
    FIXTURES = {
        # per-file rule (REP001)
        "per_file": "def f(model, x):\n    return model.predict(x)\n",
        # whole-program rule (REP010): the escape spans two functions
        "whole_program": dedent(
            """
            def run(engine, x):
                return engine.predict(x)


            def f(model, x):
                return run(model, x)
            """
        ),
        "suppressed": (
            "def f(model, x):\n"
            "    return model.predict(x)  # repro: allow[engine-funnel]\n"
        ),
    }

    def test_analyze_source_matches_analyze_paths(self, tmp_path):
        rules = {}
        for name, source in self.FIXTURES.items():
            target = tmp_path / f"{name}.py"
            target.write_text(source)
            from_paths = analyze_paths([str(target)])
            assert analyze_source(source, str(target)) == from_paths.findings
            rules[name] = ([f.rule for f in from_paths.findings], from_paths.suppressed)
        assert rules == {
            "per_file": (["REP001"], 0),
            "whole_program": (["REP010"], 0),
            "suppressed": ([], 1),
        }

    def test_cross_module_escape_found_and_pragma_suppressed(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "runner.py").write_text("def run(engine, x):\n    return engine.predict(x)\n")
        caller = pkg / "app.py"
        caller.write_text(
            "from pkg.runner import run\n\n\ndef f(model, x):\n    return run(model, x)\n"
        )
        result = analyze_paths([str(pkg)])
        (finding,) = result.findings
        assert (finding.rule, finding.path, finding.line) == ("REP010", caller.as_posix(), 5)
        assert result.suppressed == 0 and result.files_scanned == 3

        lines = caller.read_text().splitlines()
        lines[finding.line - 1] += "  # repro: allow[funnel-escape]"
        caller.write_text("\n".join(lines) + "\n")
        blessed = analyze_paths([str(pkg)])
        assert blessed.findings == []
        assert blessed.suppressed == 1
