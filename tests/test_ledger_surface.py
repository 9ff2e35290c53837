"""Canary for everything outside ``src/`` and ``tests/`` that imports
``repro``, and for the size of ``repro.obs``'s public surface.

``benchmarks/ledger/`` runs after tier-1 and may not be edited by a PR
that changes ``src/``, so a rename there surfaces only as a failed
benchmark run; ``benchmarks/*.py`` (the paper-shape oracles) are not
collected by tier-1 at all, and ``tools/`` / ``examples/`` are covered
only as far as some test happens to run them.  This reads those sources
(never imports or runs them) and checks that every ``repro`` name they
import, and every attribute they read off an imported ``repro`` module,
still resolves — and that every call of such a name still binds to its
signature (positional count and keyword names).

The last test holds ``repro.obs.__all__`` to the consumer-count rule:
a public name stays only while something other than the package's own
tests reads it.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "benchmarks" / "ledger" / "suite"
#: the other trees that import ``repro`` without being tier-1 tests
TREES = [ROOT / "benchmarks", ROOT / "tools", ROOT / "examples"]
SOURCES = sorted(SUITE.glob("*.py")) + [
    path for tree in TREES for path in sorted(tree.glob("*.py"))
]


def _source_id(path: Path) -> str:
    return path.name if path.parent == SUITE else f"{path.parent.name}/{path.name}"


def _is_repro(module: str | None) -> bool:
    return module is not None and (module == "repro" or module.startswith("repro."))


def _resolve(module: str, name: str):
    """What ``from module import name`` binds (attribute, else submodule)."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_suite_is_found():
    assert list(SUITE.glob("*.py")), f"no ledger suite sources under {SUITE}"
    for tree in TREES:
        assert list(tree.glob("*.py")), f"no sources under {tree}"


def _repro_imports(tree: ast.AST) -> tuple[dict[str, object], list[str]]:
    """(bound, missing): what each ``from repro... import`` binds, by
    local name, and the imports that no longer resolve."""
    bound: dict[str, object] = {}
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and _is_repro(node.module)):
            continue
        for alias in node.names:
            try:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
            except ImportError:
                missing.append(f"line {node.lineno}: from {node.module} import {alias.name}")
    return bound, missing


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_every_repro_name_the_suite_uses_resolves(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, missing = _repro_imports(tree)
    modules = {name: value for name, value in bound.items()
               if isinstance(value, types.ModuleType)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not missing, f"{path.name} uses names repro no longer has: {missing}"


def _callee(func: ast.expr, bound: dict[str, object]):
    """The ``repro`` object a call's function names: an imported name,
    or an attribute of an imported ``repro`` module; else ``None``."""
    if isinstance(func, ast.Name):
        value = bound.get(func.id)
        return None if isinstance(value, types.ModuleType) else value
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and isinstance(bound.get(func.value.id), types.ModuleType)):
        return getattr(bound[func.value.id], func.attr, None)
    return None


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_every_repro_call_the_suite_makes_binds(path):
    """A dropped or renamed parameter breaks the caller as surely as a
    dropped name; calls spreading ``*args`` / ``**kwargs`` are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, _ = _repro_imports(tree)
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        target = _callee(node.func, bound)
        if not callable(target):
            continue
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):       # builtins without one
            continue
        try:
            signature.bind(*node.args, **{kw.arg: None for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(node.func)}(): {exc}")
    assert not unbound, f"{path.name} calls repro with stale signatures: {unbound}"


def _obs_names_read(path: Path) -> set[str]:
    """Names ``path`` imports from ``repro.obs`` (or a module of it) or
    reads off the package imported as a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names: set[str] = set()
    aliases: set[str] = set()                   # local names bound to repro.obs
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if module.split(".")[-1] == "obs" or ".obs." in f".{module}.":
            names.update(alias.name for alias in node.names)
        else:
            aliases.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "obs")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_public_obs_name_has_a_reader_outside_the_package():
    from repro import obs

    package = ROOT / "src" / "repro"
    readers = [p for p in package.rglob("*.py")
               if (package / "obs") not in p.parents]
    readers += [p for tree in TREES for p in tree.rglob("*.py")]
    read = set().union(*(_obs_names_read(path) for path in readers))
    unread = sorted(set(obs.__all__) - read)
    assert not unread, (
        f"repro.obs.__all__ exports names only its own tests could read: "
        f"{unread} — use them from src/, tools/, benchmarks/ or examples/, "
        f"or drop them from __all__"
    )
