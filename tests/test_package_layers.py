"""The packages of ``repro`` and the imports between them.

Every ``import`` of a ``repro`` subpackage — at module level, inside a
function or under ``if TYPE_CHECKING:`` alike, since each is a
dependency — is an edge of the package graph.  ``telemetry`` is a leaf:
the event record every other package emits lives there, so it may import
no other package.  The graph's cycles are pinned as they stand, so a new
one fails here, and so does removing a listed one: whoever breaks a
cycle deletes its line from :data:`CYCLES`.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(p.name for p in ROOT.iterdir() if (p / "__init__.py").exists())

#: The package cycles that exist today, each a set of packages that
#: import one another.
CYCLES = [
    {"core", "recovery"},  # core's array codec lives in recovery.state.
    {"deploy", "shard"},  # deploy/loopback.py re-exports RecoveryOptions.
]


def _imported(path: Path) -> set[str]:
    """The other ``repro`` packages one module imports."""
    own = path.relative_to(ROOT).parts
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # Relative: resolve against this module's package.
                base = ["repro", *own[: len(own) - node.level]]
                names = [".".join(base + [node.module or ""])]
            else:
                names = [node.module or ""]
            if names == ["repro"]:
                names = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in PACKAGES:
                found.add(parts[1])
    return found - {own[0]}


GRAPH = {
    package: set().union(*map(_imported, (ROOT / package).rglob("*.py")))
    for package in PACKAGES
}


def _cycles(graph: dict[str, set[str]]) -> list[set[str]]:
    """The graph's strongly connected components of two or more packages."""
    reach = {}
    for start in graph:
        seen, todo = set(), [start]
        while todo:
            for nxt in graph[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach[start] = seen
    components = []
    for package in graph:
        component = {p for p in reach[package] if package in reach[p]}
        if len(component) > 1 and component not in components:
            components.append(component)
    return components


def test_the_walk_sees_the_layering():
    assert "core" in GRAPH["cluster"] and "telemetry" in GRAPH["shard"]


def test_telemetry_is_a_leaf():
    assert GRAPH["telemetry"] == set()


def test_the_package_cycles_are_the_listed_ones():
    found = sorted(map(sorted, _cycles(GRAPH)))
    assert found == sorted(map(sorted, CYCLES))

