"""Lint gates over the package source: every module uses each name it
imports at top level, every definition is used by some code that runs,
no class is made by generating code, and no module imports more than
its package and a few light modules."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "effparse"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_an_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["d", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# -- dead definitions ----------------------------------------------------------

# Definitions that no engine path or benchmark runs, kept because a test
# uses each one as a reference: the name and the test that uses it.
TEST_REFERENCES = (
    ("parse_modes", "tests/test_combine.py::test_mode_string_roundtrip"),
    ("enumerate_modes", "tests/test_combine.py::test_pruned_enumeration_equals_post_filtering"),
    ("replay_modes", "tests/test_combine.py::test_replay_soundness_of_parses"),
    ("prune", "tests/test_combine.py::test_pruned_enumeration_equals_post_filtering"),
    ("mode_count", "tests/test_acceptance.py::test_criterion_7_parsing_scale"),
    ("adjunction_unit", "tests/test_acceptance.py::test_criterion_4_law_suites"),
    ("fresh_var", "tests/mode_terms.py::_lam2"),
)


def _names_used(nodes) -> set:
    """Every name and attribute name that the code of ``nodes`` uses."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions(node):
    """``(name, names its code uses)`` for a top-level function or class
    and for each method of a class; a class's own uses leave out its
    methods."""
    if isinstance(node, ast.FunctionDef):
        yield node.name, _names_used([node])
        return
    methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
    yield node.name, _names_used(n for n in ast.iter_child_nodes(node) if n not in methods)
    for method in methods:
        yield method.name, _names_used([method])


def unused_definitions(modules, roots=(), kept=()) -> list:
    """The names of the top-level functions, classes and class methods in
    the ``modules`` sources that no running code uses.

    Code runs if it is a statement of ``modules`` outside every
    definition, anywhere in the ``roots`` sources, or a definition that
    running code uses as a name or an attribute; its own body does not
    count.  Special methods (``__init__`` ...) and the ``kept`` names run
    too."""
    defs, used = [], _names_used(ast.parse(source) for source in roots) | set(kept)
    for source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.extend(_definitions(node))
            else:
                used |= _names_used([node])
    todo = [i for i, (name, _) in enumerate(defs)
            if name in used or name.startswith("__") and name.endswith("__")]
    live = set()
    while todo:
        i = todo.pop()
        if i not in live:
            live.add(i)
            todo += [j for j, (name, _) in enumerate(defs)
                     if j != i and j not in live and name in defs[i][1]]
    return sorted({name for i, (name, _) in enumerate(defs) if i not in live})


def test_an_unused_definition_is_found():
    module = ("def main(): return helper()\n"
              "def helper(): return 1\n"
              "def orphan(): return chained() + orphan()\n"
              "def chained(): return 2\n"
              "class Box:\n"
              "    def __init__(self): self.n = 0\n"
              "    def used(self): return self.n\n"
              "    def unused(self): return self.used()\n"
              "BOX = Box()\n")
    assert unused_definitions([module], roots=["main()\nBOX.used()\n"]) == [
        "chained", "orphan", "unused"]
    assert unused_definitions([module], roots=["main()\n"], kept=["orphan"]) == [
        "unused", "used"]


def _sources(directory):
    return [p.read_text() for p in sorted(directory.glob("*.py"))]


def test_every_definition_is_used():
    engine, bench = _sources(SRC), _sources(ROOT / "perfbench")
    kept = [name for name, _ in TEST_REFERENCES]
    assert unused_definitions(engine, roots=bench, kept=kept) == []
    # each exception is needed, and its test uses the name
    assert set(kept) <= set(unused_definitions(engine, roots=bench))
    for name, test in TEST_REFERENCES:
        path, function = test.split("::")
        [node] = [n for n in ast.parse((ROOT / path).read_text()).body
                  if isinstance(n, ast.FunctionDef) and n.name == function]
        assert name in _names_used([node]), test


# -- no generated code ---------------------------------------------------------

ENGINE_MODULES = ("effparse.cli", "effparse.combine", "effparse.diagrams",
                  "effparse.lambda_eval", "effparse.lexicon")


def test_importing_the_engine_loads_no_dataclasses():
    """Dataclasses generate each class's methods as source text and run
    it, which once took most of the engine's import time."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            + "; ".join(f"import {m}" for m in ENGINE_MODULES)
            + "; print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_runs_source_text(path):
    tree = ast.parse(path.read_text())
    assert not {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & {
        "exec", "eval", "compile"}
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                and "dataclasses" in ([a.name for a in n.names] + [getattr(n, "module", "")])]


# -- import work ---------------------------------------------------------------

# the standard-library modules an engine module may import at top level:
# each is loaded before the engine anyway or costs next to nothing
LIGHT_IMPORTS = {"__future__", "functools", "typing", "operator", "itertools"}
ALSO_LIGHT = {"cli.py": {"argparse", "sys"}}


def heavy_imports(source: str, allowed=LIGHT_IMPORTS) -> list:
    """The absolute modules that ``source`` imports at top level, other
    than the ``allowed`` ones; a relative import is always allowed."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return sorted(set(found) - set(allowed))


def test_a_heavy_import_is_found():
    source = ("from __future__ import annotations\nimport os, typing\n"
              "from . import terms\nfrom .values import B\nfrom json import dumps\n")
    assert heavy_imports(source) == ["json", "os"]
    assert heavy_imports(source, LIGHT_IMPORTS | {"os"}) == ["json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_engine_modules_import_only_light_modules(path):
    """Process start is most of what one command costs, so an engine
    module imports only its own package and a few light modules."""
    allowed = LIGHT_IMPORTS | ALSO_LIGHT.get(path.name, set())
    assert heavy_imports(path.read_text(), allowed) == []
