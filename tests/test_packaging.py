import ast
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
