"""Canary for everything outside ``src/`` and ``tests/`` that imports
``repro``, and for the size of every ``repro`` package's public surface.

``benchmarks/ledger/`` runs after tier-1 and may not be edited by a PR
that changes ``src/``, so a rename there surfaces only as a failed
benchmark run; ``benchmarks/*.py`` (the paper-shape oracles) are not
collected by tier-1 at all, and ``tools/`` / ``examples/`` are covered
only as far as some test happens to run them.  This reads those sources
(never imports or runs them) and checks that every ``repro`` name they
import, and every attribute they read off an imported ``repro`` module,
still resolves — and that every call of such a name, and every method
call on a local built by a ``repro`` class (``cache = EmbeddingCache(...)``
then ``cache.store(...)``), still binds to its signature (positional
count and keyword names).

The last test holds every package's ``__all__`` to the consumer-count
rule: a public name stays only while something other than the
package's own tests reads it.
"""

import ast
import importlib
import inspect
import re
import textwrap
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope``'s own body: nested functions and classes
    are yielded but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _instances(scope: ast.AST, bound: dict[str, object],
               outer: dict[str, type]) -> dict[str, type]:
    """Names visible in ``scope`` that hold one ``repro`` class's
    instance: ``batcher = MicroBatcher(...)`` -> ``MicroBatcher``, or
    one an enclosing scope holds and ``scope`` does not rebind.  A name
    the scope also binds any other way (another value, a parameter, a
    loop or ``with`` target) is left out: its type is not known."""
    classes: dict[str, set] = {}
    typed: set[int] = set()
    nodes = list(_own_nodes(scope))
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cls = _callee(node.value.func, bound)
            if not inspect.isclass(cls):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    classes.setdefault(target.id, set()).add(cls)
                    typed.add(id(target))
    for node in nodes:
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and id(node) not in typed):
            classes.setdefault(node.id, set()).add(None)
        elif isinstance(node, ast.arg):         # the scope's own parameters
            classes.setdefault(node.arg, set()).add(None)
        elif isinstance(node, _SCOPES) and not isinstance(node, ast.Lambda):
            classes.setdefault(node.name, set()).add(None)
    visible = {name: cls for name, cls in outer.items() if name not in classes}
    visible.update((name, cls) for name, (cls, *rest) in classes.items()
                   if not rest and cls is not None)
    return visible


def _is_forwarder(node: ast.AST) -> bool:
    """``def timed(fn, *args, **kwargs)``: calls its first argument with
    the rest."""
    return (isinstance(node, ast.FunctionDef) and not node.args.posonlyargs
            and len(node.args.args) == 1 and node.args.vararg is not None)


#: module-level helpers in the scanned trees that call
#: ``fn(*args, **kwargs)`` — ``timed(cache.store, 1, rows)`` is a call
#: of ``cache.store``
FORWARDERS = {node.name for path in SOURCES
              for node in ast.parse(path.read_text()).body
              if _is_forwarder(node)}


def _method_signature(cls: type, name: str) -> inspect.Signature | None:
    """``cls.name``'s signature as called on an instance (``self``
    dropped); ``None`` for a property.  Raises ``AttributeError`` when
    the class has no such attribute."""
    raw = inspect.getattr_static(cls, name)
    if isinstance(raw, property):
        return None
    signature = inspect.signature(getattr(cls, name))
    if isinstance(raw, (staticmethod, classmethod)):
        return signature
    return signature.replace(parameters=list(signature.parameters.values())[1:])


def _calls(scope: ast.AST, bound: dict[str, object],
           outer: dict[str, type] | None = None):
    """``(call node, callee text, signature, args, keywords)`` for every
    call of a ``repro`` name and every method call on a ``repro``
    instance in ``scope`` and the scopes it encloses, direct or through
    a forwarder; a signature is a string when the callee no longer
    resolves."""
    instances = _instances(scope, bound, outer or {})
    for node in _own_nodes(scope):
        if isinstance(node, _SCOPES):
            yield from _calls(node, bound, instances)
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if (isinstance(func, ast.Name) and func.id in FORWARDERS and args
                and isinstance(args[0], ast.Attribute)):
            func, args = args[0], args[1:]
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in instances):
            cls = instances[func.value.id]
            try:
                signature = _method_signature(cls, func.attr)
            except AttributeError:
                signature = f"{cls.__name__} has no attribute {func.attr!r}"
            except (TypeError, ValueError):   # builtins without one
                continue
            if signature is not None:
                yield node, ast.unparse(func), signature, args, node.keywords
            continue
        target = _callee(node.func, bound)
        if not callable(target):
            continue
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):       # builtins without one
            continue
        yield node, ast.unparse(node.func), signature, node.args, node.keywords


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_every_repro_call_the_suite_makes_binds(path):
    """A dropped or renamed parameter breaks the caller as surely as a
    dropped name; calls spreading ``*args`` / ``**kwargs`` are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, _ = _repro_imports(tree)
    unbound = []
    for node, callee, signature, args, keywords in _calls(tree, bound):
        if (any(isinstance(arg, ast.Starred) for arg in args)
                or any(kw.arg is None for kw in keywords)):
            continue
        if isinstance(signature, str):
            unbound.append(f"line {node.lineno}: {callee}(): {signature}")
            continue
        try:
            signature.bind(*args, **{kw.arg: None for kw in keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {callee}(): {exc}")
    assert not unbound, f"{path.name} calls repro with stale signatures: {unbound}"


PACKAGE_ROOT = ROOT / "src" / "repro"
#: every ``repro`` package; each one's ``__all__`` obeys the reader rule
PACKAGES = sorted(p.parent.name for p in PACKAGE_ROOT.glob("*/__init__.py"))

#: Public names kept without a reader outside their package, each with
#: the reason.  Types in kept signatures and exceptions kept code raises
#: are exempt mechanically (``_exempt``) and need no entry here.
KEEP = {
    "core.validate_hdg": "the HDG invariant oracle the property tests run",
    "core.HDGInvariantError": "what the HDG invariant oracle raises",
    "graph.k_hop_neighbors": "the reference DistDGL's k-hop block expansion "
                             "is tested against",
    "tensor.int8_error_bound": "the stated max|row|/254 int8 bound the "
                               "quantization tests assert",
    "tensor.is_grad_enabled": "the only public way to observe no_grad",
    "distributed.FaultTolerantTrainer": "recovery: the inject_failure / "
                                        "recover contract",
    "distributed.CheckpointManager": "recovery: the checkpoints "
                                     "FaultTolerantTrainer restores from",
    "distributed.RecoveryEvent": "recovery: what FaultTolerantTrainer "
                                 "reports per recovery",
    "models.graphsage": "a factory in the models taxonomy table (SAGE-pool)",
}


def _module_named(node: ast.ImportFrom, path: Path) -> str:
    """The module an ``ImportFrom`` names, with relative imports resolved
    inside ``src/repro`` (elsewhere they stay relative and match nothing)."""
    if node.level == 0:
        return node.module or ""
    if PACKAGE_ROOT not in path.parents:
        return "." * node.level + (node.module or "")
    parts = ["repro", *path.relative_to(PACKAGE_ROOT).parent.parts]
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _names_read(path: Path, package: str) -> set[str]:
    """Names ``path`` imports from ``repro.<package>`` (or a module of
    it) or reads off the package imported as a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    target = f"repro.{package}"
    names: set[str] = set()
    aliases: set[str] = set()                   # local names bound to the package
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _module_named(node, path)
        if module == target or module.startswith(f"{target}."):
            names.update(alias.name for alias in node.names)
        elif module == "repro":
            aliases.update(alias.asname or alias.name
                           for alias in node.names if alias.name == package)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def _public_callables(obj) -> list:
    """``obj`` itself, or for a class its public and dunder methods."""
    if not inspect.isclass(obj):
        return [obj]
    members = []
    for name, member in vars(obj).items():
        if name.startswith("_") and not name.endswith("__"):
            continue
        member = getattr(member, "fget", None) or getattr(member, "__func__", member)
        if callable(member):
            members.append(member)
    return members


def _annotation_words(obj) -> set[str]:
    """Identifiers in the signature annotations of ``obj``'s callables."""
    words: set[str] = set()
    for member in _public_callables(obj):
        try:
            signature = inspect.signature(member)
        except (TypeError, ValueError):
            continue
        annotations = [p.annotation for p in signature.parameters.values()]
        annotations.append(signature.return_annotation)
        for annotation in annotations:
            if annotation is inspect.Signature.empty:
                continue
            text = (annotation if isinstance(annotation, str)
                    else inspect.formatannotation(annotation))
            words.update(re.findall(r"\w+", text))
    return words


def _raised_names(obj) -> set[str]:
    """Names of what ``obj``'s source raises (``raise X`` / ``raise X(...)``)."""
    try:
        source = textwrap.dedent(inspect.getsource(obj))
    except (OSError, TypeError):
        return set()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def _exempt(module, kept: set[str]) -> set[str]:
    """Exported names a kept name exposes: classes named in its signature
    annotations and exception classes it raises — to a fixpoint, since
    an exempted class's own signatures expose further types."""
    exported = set(module.__all__)
    exempt: set[str] = set()
    frontier = set(kept)
    while frontier:
        found: set[str] = set()
        for name in frontier:
            obj = getattr(module, name)
            found |= {word for word in _annotation_words(obj)
                      if inspect.isclass(getattr(module, word, None))}
            found |= {word for word in _raised_names(obj)
                      if isinstance(getattr(module, word, None), type)
                      and issubclass(getattr(module, word), BaseException)}
        frontier = (found & exported) - kept - exempt
        exempt |= frontier
    return exempt


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_has_a_reader_outside_its_package(package):
    """A name in ``repro.<package>.__all__`` stays only while something
    outside the package reads it: ``src/`` beyond the package, ``tools/``,
    ``benchmarks/`` or ``examples/`` — never just the package's tests."""
    module = importlib.import_module(f"repro.{package}")
    readers = [p for p in PACKAGE_ROOT.rglob("*.py")
               if (PACKAGE_ROOT / package) not in p.parents]
    readers += [p for tree in TREES for p in tree.rglob("*.py")]
    read = set().union(*(_names_read(path, package) for path in readers))
    kept = {key.split(".", 1)[1] for key in KEEP if key.split(".", 1)[0] == package}
    stale = sorted(kept - set(module.__all__))
    assert not stale, f"KEEP names what repro.{package} no longer exports: {stale}"
    kept |= read & set(module.__all__)
    unread = sorted(set(module.__all__) - kept - _exempt(module, kept))
    assert not unread, (
        f"repro.{package}.__all__ exports names only its own tests could "
        f"read: {unread} — use them from src/, tools/, benchmarks/ or "
        f"examples/, or drop them from __all__"
    )
