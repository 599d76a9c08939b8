"""The package's module graph: no module imports, directly or through others, itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "semsnr"


def _relative_imports(path: Path) -> set[str]:
    """Modules of this package that ``path`` imports anywhere, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name
                found.update(alias.name for alias in node.names)
    return found


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a path that ends where it starts, or None."""
    done: set[str] = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_find_cycle_names_the_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_module_graph_has_no_import_cycle():
    graph = {p.stem: _relative_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert graph["bench"] >= {"corpus", "denoise", "parallel"}  # the walk sees the imports
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
