"""Structure check: no ``ufunc.at`` on the compute or graph-build path.

``np.add.at`` and its siblings run one unbuffered Python-level loop
iteration per index and are an order of magnitude slower than a sorted
``reduceat`` sweep, one sparse product or one ``np.bincount``.  The
tensor kernels, the hybrid executor and the graph builders (in RAM and
the streamed on-disk writer) run without them; this scan fails CI when
a call like ``np.add.at(`` comes back.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
COMPUTE_PATH = sorted((SRC / "tensor").glob("*.py")) + [
    SRC / "core" / "hybrid.py",
    SRC / "core" / "aggregation.py",
    SRC / "graph" / "graph.py",
    SRC / "storage" / "ondisk.py",
]
_NUMPY = {"np", "numpy"}


def _ufunc_at_calls(source: str, name: str) -> list[str]:
    """``name:line`` of every ``np.<ufunc>.at(`` call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr == "at"
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in _NUMPY):
            found.append(f"{name}:{node.lineno} np.{func.value.attr}.at(")
    return found


def test_no_ufunc_at_on_the_compute_path():
    offenders = [
        call
        for path in COMPUTE_PATH
        for call in _ufunc_at_calls(path.read_text(),
                                    str(path.relative_to(SRC)))
    ]
    assert offenders == [], "ufunc.at on the compute or build path: " + ", ".join(
        offenders)


def test_the_scan_sees_every_ufunc_spelling():
    """Not vacuous: it flags each form, and only calls."""
    source = ("np.add.at(a, i, g)\n"
              "numpy.maximum.at(a, i, g)\n"
              "np.minimum.at\n"
              "x.at(3)\n")
    assert _ufunc_at_calls(source, "probe.py") == [
        "probe.py:1 np.add.at(", "probe.py:2 np.maximum.at("]
