import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lexiforge"


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project].dependencies``, without version specifiers.

    Each of today's distributions is imported under its own name.
    """
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[\w.-]+", requirement).group().lower() for requirement in project["dependencies"]}


def imported_third_party() -> set[str]:
    """Top-level names of the absolute imports in the package's modules, minus the stdlib and itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"lexiforge"}


def test_declared_dependencies_are_the_imported_ones():
    assert declared_dependencies() == imported_third_party()


def stdlib_json_imports() -> list[str]:
    """``module:line`` of each import of the standard library's ``json`` (or a submodule) in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                used = any(alias.name.split(".")[0] == "json" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                used = node.level == 0 and node.module.split(".")[0] == "json"
            else:
                continue
            if used:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_json_decode_and_encode_goes_through_orjson():
    # one codec for every input, reply, output and request: orjson reads
    # floats as json does, but rejects what RFC 8259 does not allow (NaN,
    # Infinity, an overflowing number, an unpaired surrogate escape), and
    # every file is written in one compact form; a second codec would let
    # those back in, or a second format out, on one path
    assert stdlib_json_imports() == []


def modules_importing(names: set[str]) -> dict[str, set[str]]:
    """Module file -> which of the top-level modules *names* it imports, for each package module importing any."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
        if imported & names:
            found[path.name] = imported & names
    return found


def sleeping_loops(module: str) -> list[int]:
    """Lines of the ``while`` loops in the package module that call something named ``sleep`` or ``_sleep``."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return [
        loop.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, ast.While)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) in ("sleep", "_sleep")
    ]


def test_one_request_engine():
    # threads, lanes and backoff waits live in _http alone: both service
    # clients send through its ordered_map, retry and JsonPoster, so a second
    # engine would fork how lanes stop and how long a retry waits
    engine = {"concurrent.futures", "threading", "queue"}
    assert modules_importing(engine) == {"_http.py": {"concurrent.futures", "threading"}}
    assert {module: sleeping_loops(module) for module in ("embedding.py", "generation.py", "providers.py")} == {
        "embedding.py": [],
        "generation.py": [],
        "providers.py": [],
    }


#: Trace targets that name nothing in lexiforge today. The benchmark's next
#: change drops them from ``perfbench/tracer.py`` (ROADMAP, direction 1), so
#: this list only shrinks.
ABSENT_TRACE_TARGETS = {
    ("lexiforge.metrics", "circularity_rate"),
    ("lexiforge._kernels", "levenshtein"),
}


def trace_targets() -> set[tuple[str, str]]:
    """The (module, attribute path) pairs of ``TARGETS`` and ``PROXY_TARGETS`` in perfbench's tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    return {
        (target.elts[0].value, target.elts[1].value)
        for name in ("TARGETS", "PROXY_TARGETS")
        for target in assigned[name].elts
    }


def resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_every_trace_target_resolves():
    # a renamed or deleted function would otherwise drop its per-layer
    # number from the benchmark without any test failing
    targets = trace_targets()
    assert ABSENT_TRACE_TARGETS <= targets, "an absent target left the tracer: drop it from the list"
    assert {target for target in targets if not resolves(*target)} == ABSENT_TRACE_TARGETS


#: Modules on the evaluate path that work on a ``Dictionary``'s columns.
COLUMNAR_MODULES = ("alignment.py", "embedding.py", "error_analysis.py", "ingestion.py", "metrics.py", "report.py")
ENTRY_TYPES = {"Sense", "DictionaryEntry"}
ENTRY_BUILDERS = {"entry", "entries"}


def entry_objects(module: str) -> list[str]:
    """``line: name`` of each use of an entry type, or call of a method that builds entries, in *module*."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if alias.name in ENTRY_TYPES]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in ENTRY_TYPES:
                found.append(f"{node.lineno}: {name}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ENTRY_BUILDERS:
            found.append(f"{node.lineno}: .{node.func.attr}()")
    return found


@pytest.mark.parametrize("module", COLUMNAR_MODULES)
def test_no_entry_objects_on_the_columnar_path(module):
    # parsing, alignment, error analysis, the metrics and the key-block loop
    # read a Dictionary's columns; a Sense or DictionaryEntry per entry there
    # is the cost the columns removed
    assert entry_objects(module) == []
