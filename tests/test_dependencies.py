"""Every third-party module the package imports is a declared dependency.

``pip install .`` installs only what ``pyproject.toml``'s ``[project]
dependencies`` lists; a module imported anywhere under ``src/repro``
that is neither in the standard library nor listed there breaks
``import repro`` in a fresh environment.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

tomllib = pytest.importorskip(
    "tomllib", reason="tomllib (reading pyproject.toml) is stdlib from Python 3.11")


def _imported_modules() -> dict[str, str]:
    """Top-level name of every absolute import under ``src/repro``, with
    one file that imports it."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path.relative_to(ROOT)))
    return found


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
             for spec in project.get("dependencies", [])}
    return {name.lower().replace("-", "_") for name in names} | {project["name"]}


def test_every_imported_module_is_stdlib_or_declared():
    declared = _declared()
    undeclared = {name: path for name, path in _imported_modules().items()
                  if name not in sys.stdlib_module_names
                  and name.lower() not in declared}
    assert undeclared == {}, (
        f"imported but not in pyproject.toml's [project] dependencies: "
        f"{undeclared}")
