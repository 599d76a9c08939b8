"""The package's module graph: no module imports, directly or through others, itself;
every 2-D real FFT runs through ``raster``; every package name the benchmark reads
or the README names exists; and every public package name has a caller outside the tests."""

import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "semsnr"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
SCRIPTS = Path(__file__).parent.parent / "scripts"
README = Path(__file__).parent.parent / "README.md"
# backticked spans that read like ``module.name`` but name a file, not a package name
README_FILE_NAMES = {("bench", "cfg")}


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


def _numpy_fft2_calls(tree: ast.AST) -> list[str]:
    """NumPy's 2-D real FFTs that ``tree`` names: ``fft.rfft2``/``fft.irfft2`` reads and
    ``from numpy.fft import`` of either."""
    names = ("rfft2", "irfft2")
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
            found.append(f"fft.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            found.extend(f"fft.{a.name}" for a in node.names if a.name in names)
    return found


def test_only_raster_calls_numpy_fft2():
    # the walk sees both spellings
    assert _numpy_fft2_calls(ast.parse("s = np.fft.rfft2(x)\nnumpy.fft.irfft2(s)")) == [
        "fft.rfft2", "fft.irfft2"]
    assert _numpy_fft2_calls(ast.parse("from numpy.fft import irfft2")) == ["fft.irfft2"]
    calls = {p.stem: _numpy_fft2_calls(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(PACKAGE.glob("*.py")) if p.stem != "raster"}
    assert calls.keys() >= {"corpus", "correlation", "denoise"}
    assert not {stem: found for stem, found in calls.items() if found}


def _perfbench_names() -> set[tuple[str, str]]:
    """(module, name) pairs of this package that perfbench reads: ``from semsnr.x import``
    names, ``module.attr`` reads on modules imported by ``from semsnr import``, and the
    ``(module, "name")`` pairs of ``TRACED``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> module imported by `from semsnr import`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "semsnr":
                modules.update((a.asname or a.name, f"semsnr.{a.name}") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semsnr."):
                found.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TRACED"):
                found.update((modules[entry.elts[0].id], entry.elts[1].value)
                             for entry in node.value.elts)
    return found


def test_every_semsnr_name_perfbench_reads_exists():
    names = _perfbench_names()
    # each kind of reference is seen: an import, an attribute read, a TRACED pair
    assert {("semsnr.bench", "run_sweep"), ("semsnr.raster", "pgm_bytes"),
            ("semsnr.denoise", "spatial_filter")} <= names
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"perfbench reads names the package lacks: {missing}"


def _readme_names() -> set[tuple[str, str]]:
    """(module, name) pairs of every backticked ``module.name`` or ``semsnr.module.name``
    in the README whose module is a module of this package."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    found = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        for match in re.finditer(r"(?<![\w.])(?:semsnr\.)?([a-z_]\w*)\.([A-Za-z_]\w*)", span):
            if match.group(1) in modules:
                found.add(match.groups())
    return found


def test_every_semsnr_name_the_readme_names_exists():
    names = _readme_names()
    # both spellings are seen, and each file name excluded is still in the README
    assert {("bench", "SWEEP_BEAM_CURRENT"), ("denoise", "FILTERS")} <= names
    assert README_FILE_NAMES <= names
    missing = sorted(f"semsnr.{module}.{name}" for module, name in names - README_FILE_NAMES
                     if not hasattr(importlib.import_module(f"semsnr.{module}"), name))
    assert not missing, f"the README names package names that do not exist: {missing}"


# public names that only the tests call, each kept because an acceptance test pins it
TEST_ONLY_NAMES = {
    ("yield_snr", "snr_detected"): "acceptance criterion 2; ROADMAP item 15 gives it a caller",
    ("denoise", "wiener_transfer"): "acceptance criterion 8",
}


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public names a module binds at its top level: functions, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in names if not name.startswith("_")}


def _references(tree: ast.AST) -> set[str]:
    """Names ``tree`` refers to: names read, attributes, imported names, string constants."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # each kind of definition and of reference is seen
    assert _public_definitions(ast.parse(
        "def f(): pass\nclass C: pass\n(a, b) = X[0] = 1, 2\nn: int = 0\n_p = 1")) == {
        "f", "C", "a", "b", "n"}
    assert _references(ast.parse("from m import f\nimport p.q\nx.attr\ny = z\nt = ('s',)")) == {
        "f", "q", "x", "attr", "z", "s"}
    references = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8")))
                               for root in (PACKAGE, PERFBENCH, SCRIPTS)
                               for p in sorted(root.rglob("*.py"))))
    uncalled = {(p.stem, name) for p in sorted(PACKAGE.glob("*.py"))
                for name in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
                if name not in references}
    # a listed name that gains a caller fails too, so the list cannot go stale
    assert uncalled == TEST_ONLY_NAMES.keys(), sorted(uncalled ^ TEST_ONLY_NAMES.keys())
