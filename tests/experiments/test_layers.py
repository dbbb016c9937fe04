"""The experiment modules import each other at module level, as a DAG,
and build their simulations in one place.

An import of a sibling module hidden inside a function or an
``if TYPE_CHECKING:`` block is how a cycle between two modules gets
papered over; this module parses ``repro.experiments`` and forbids both
the hiding place and the cycle.  It also holds every experiment — and
the CLI — to one recipe for a ``Simulation``: ``jobs.build``.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import repro.cli
import repro.experiments

PACKAGE = "repro.experiments"
ROOT = Path(repro.experiments.__file__).parent
MODULES = {path.stem: path for path in sorted(ROOT.glob("*.py"))}


def _module(name: str) -> str | None:
    """The sibling module a dotted import name resolves to, if any."""
    if name == PACKAGE:
        return "__init__"
    if not name.startswith(PACKAGE + "."):
        return None
    head = name[len(PACKAGE) + 1:].split(".")[0]
    return head if head in MODULES else "__init__"


def _targets(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Sibling modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            base = ".".join([PACKAGE, base]) if base else PACKAGE
        names = [base]
        if base == PACKAGE:
            names = [f"{PACKAGE}.{alias.name}" for alias in node.names]
    return {m for m in map(_module, names) if m is not None}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.AST) -> list[tuple[str, str | None, int]]:
    """``(target, hiding place, line)`` of every sibling import; the hiding
    place is None for a module-level import."""
    found: list[tuple[str, str | None, int]] = []

    def visit(node: ast.AST, where: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                visit(child, f"function {getattr(child, 'name', 'lambda')}")
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                visit(child, "if TYPE_CHECKING")
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend(
                    (target, where, child.lineno)
                    for target in sorted(_targets(child))
                )
            else:
                visit(child, where)

    visit(tree, None)
    return found


IMPORTS = {
    name: _imports(ast.parse(path.read_text(encoding="utf-8")))
    for name, path in MODULES.items()
}


def test_no_sibling_import_is_hidden():
    hidden = [
        f"{name}.py:{line} imports {target} inside {where}"
        for name, imports in IMPORTS.items()
        for target, where, line in imports
        if where is not None
    ]
    assert hidden == []


def test_module_level_imports_form_a_dag():
    graph = {
        name: {t for t, where, _ in imports if where is None and t != name}
        for name, imports in IMPORTS.items()
    }
    # The parse sees the layering at all: the engine sits on the jobs.
    assert "jobs" in graph["engine"] and "engine" in graph["harness"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")


#: The constructors only the recipe may call.
RECIPE_ONLY = ("Simulation", "Assignment")


def _constructions(tree: ast.AST) -> list[tuple[str, str, int]]:
    """``(constructor, enclosing function, line)`` of every call to one of
    :data:`RECIPE_ONLY`; the function is ``<module>`` outside any."""
    found: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in RECIPE_ONLY:
                    found.append((name, where, child.lineno))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_the_recipe_builds_a_simulation():
    sources = {**MODULES, "cli": Path(repro.cli.__file__)}
    calls = [
        (name, constructor, where, line)
        for name, path in sources.items()
        for constructor, where, line in _constructions(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    outside = [
        f"{name}.py:{line} calls {constructor}( in {where}"
        for name, constructor, where, line in calls
        if (name, where) != ("jobs", "build")
    ]
    assert outside == []
    # The parse sees the recipe: exactly one construction of each.
    assert sorted(c for _, c, _, _ in calls) == sorted(RECIPE_ONLY)
