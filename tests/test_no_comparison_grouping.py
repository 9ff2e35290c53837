"""Structure check: the graph-build path groups ids with ``group_by``.

Every CSR, CSC, HDG and reduction plan groups positions by a bounded
id, and so do two baseline builds: NeuGraph's chunk grid and Pre+DGL's
candidate lists.  :func:`repro.graph.group_by` does that in linear time (16-bit
radix passes) and returns exactly the permutation the comparison sort
``np.argsort(key, kind="stable")`` would, at O(E log E).  This scan
fails CI when a stable ``argsort`` comes back to one of the modules
below, outside the named exemptions.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BUILD_PATH = [
    SRC / "graph" / "graph.py",
    SRC / "graph" / "metapath.py",
    SRC / "core" / "hdg.py",
    SRC / "tensor" / "plans.py",
    SRC / "baselines" / "neugraph.py",
    SRC / "baselines" / "pre_expanded.py",
]
#: ``module:function`` -> why a stable comparison sort stays there
EXEMPT = {
    "graph/graph.py:group_by": "the helper itself: its radix passes sort "
                               "16-bit digits",
    "graph/graph.py:Graph.with_edges_removed": "its key src * n + dst is "
                                               "bounded by n**2, too wide "
                                               "for an n**2-sized count",
}


def _stable_argsorts(source: str, name: str) -> list[str]:
    """``name:function:line`` of every ``argsort(..., kind="stable")``
    call in ``source``, by the function (``Class.method``) it sits in."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            stable = any(kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                         and kw.value.value == "stable"
                         for kw in node.keywords)
            if callee == "argsort" and stable:
                found.append(f"{name}:{'.'.join(scope)}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename=name), [])
    return found


def test_no_stable_argsort_on_the_build_path():
    offenders = [
        call
        for path in BUILD_PATH
        for call in _stable_argsorts(path.read_text(),
                                     str(path.relative_to(SRC)))
        if call.rsplit(":", 1)[0] not in EXEMPT
    ]
    assert offenders == [], (
        "stable argsort on the build path (group by id with "
        "repro.graph.group_by): " + ", ".join(offenders))


def test_every_exemption_is_still_needed():
    """An exemption whose sort is gone is stale: drop it."""
    seen = {call.rsplit(":", 1)[0]
            for path in BUILD_PATH
            for call in _stable_argsorts(path.read_text(),
                                         str(path.relative_to(SRC)))}
    assert set(EXEMPT) <= seen, sorted(set(EXEMPT) - seen)


def test_the_scan_sees_every_spelling():
    """Not vacuous: it flags the function and the method form, names the
    enclosing scope, and skips unstable sorts."""
    source = ("def f(k):\n"
              "    return np.argsort(k, kind='stable')\n"
              "class C:\n"
              "    def g(self, k):\n"
              "        return k.argsort(kind='stable')\n"
              "np.argsort(k)\n"
              "np.argsort(k, kind='quicksort')\n")
    assert _stable_argsorts(source, "probe.py") == [
        "probe.py:f:2", "probe.py:C.g:5"]
