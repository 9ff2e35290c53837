"""Structure check: a built-in model states only what differs.

Every model in ``repro.models`` builds its layers with
:func:`repro.core.nau.stack_layers` (one dims check, one seeded rng,
the activation off on the last layer) and its builder's widths with
:func:`repro.core.nau.layer_dims` (one ``num_layers`` check); a layer
whose Update is one ``Linear`` subclasses
:class:`repro.core.nau.LinearUpdateLayer`, which owns ``combine`` and
``output_dim``.  This scan fails CI when a module under
``src/repro/models/`` grows its own copy of any of them back.
"""

import ast
from pathlib import Path

import repro

MODELS = Path(repro.__file__).parent / "models"


def _regrown(source: str, name: str) -> list[str]:
    """``name:scope:line:what`` of every shared piece ``source`` writes
    out again, by the function or class (``Class.method``) it sits in."""
    found = []

    def report(node, scope, what):
        found.append(f"{name}:{'.'.join(scope)}:{node.lineno}:{what}")

    def visit(node, scope):
        if isinstance(node, ast.ClassDef):
            if any(getattr(base, "id", getattr(base, "attr", None))
                   == "LinearUpdateLayer" for base in node.bases):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in ("combine", "output_dim")):
                        report(item, scope + [node.name], item.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            if callee == "default_rng":
                report(node, scope, "stacking rng")
            for kw in node.keywords:
                if kw.arg == "activation" and isinstance(kw.value, ast.Compare):
                    report(node, scope, "stacking loop")
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if isinstance(operand, ast.Name) and operand.id == "num_layers":
                    report(node, scope, "num_layers check")
                if (isinstance(operand, ast.Call)
                        and getattr(operand.func, "id", None) == "len"
                        and operand.args
                        and getattr(operand.args[0], "id", None) == "dims"):
                    report(node, scope, "dims check")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename=name), [])
    return found


def test_no_model_regrows_a_shared_piece():
    offenders = [
        hit
        for path in sorted(MODELS.glob("*.py"))
        for hit in _regrown(path.read_text(), path.name)
    ]
    assert offenders == [], (
        "a model writes out what repro.core.nau shares (use stack_layers, "
        "layer_dims or LinearUpdateLayer): " + ", ".join(offenders))


def test_the_scan_sees_every_spelling():
    """Not vacuous: each pattern is flagged where it sits."""
    source = ("class M(NAUModel):\n"
              "    def __init__(self, dims, seed=0):\n"
              "        if len(dims) < 2:\n"
              "            raise ValueError\n"
              "        rng = np.random.default_rng(seed)\n"
              "        layers = [L(dims[i], dims[i + 1],\n"
              "                    activation=i < len(dims) - 2, rng=rng)\n"
              "                  for i in range(len(dims) - 1)]\n"
              "class L(nau.LinearUpdateLayer):\n"
              "    def combine(self, a, b):\n"
              "        return a\n"
              "    @property\n"
              "    def output_dim(self):\n"
              "        return 1\n"
              "def m(num_layers=2):\n"
              "    if num_layers < 1:\n"
              "        raise ValueError\n")
    assert _regrown(source, "probe.py") == [
        "probe.py:M.__init__:3:dims check",
        "probe.py:M.__init__:5:stacking rng",
        "probe.py:M.__init__:6:stacking loop",
        "probe.py:L:10:combine",
        "probe.py:L:13:output_dim",
        "probe.py:m:16:num_layers check",
    ]
