"""Canary for the performance ledger's import surface.

``benchmarks/ledger/`` runs after tier-1 and may not be edited by a PR
that changes ``src/``, so a rename there surfaces only as a failed
benchmark run.  This reads the suite's sources (never imports or runs
them) and checks that every ``repro`` name they import, and every
attribute they read off an imported ``repro`` module, still resolves.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "suite"
SOURCES = sorted(SUITE.glob("*.py"))


def _is_repro(module: str | None) -> bool:
    return module is not None and (module == "repro" or module.startswith("repro."))


def _resolve(module: str, name: str):
    """What ``from module import name`` binds (attribute, else submodule)."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_suite_is_found():
    assert SOURCES, f"no ledger suite sources under {SUITE}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_repro_name_the_suite_uses_resolves(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: dict[str, types.ModuleType] = {}   # local alias -> repro module
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and _is_repro(node.module)):
            continue
        for alias in node.names:
            try:
                value = _resolve(node.module, alias.name)
            except ImportError:
                missing.append(f"line {node.lineno}: from {node.module} import {alias.name}")
                continue
            if isinstance(value, types.ModuleType):
                modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not missing, f"{path.name} uses names repro no longer has: {missing}"
