"""Structure check: no float64 spelled out on the compute path.

The model's parameters choose the compute dtype (float32 by default,
``Module.astype`` for another); activations, gradients, optimizer state,
exchange buffers and served rows follow them.  A ``np.float64`` written
into a kernel, a loss or a buffer allocation silently promotes a float32
model back to float64 — the whole backward, when it is the loss.  This
scan fails CI when one comes back on the compute path: the tensor
package, the NAU step and executor, a distributed rank's program and the
server.

A line that must name float64 goes into :data:`ALLOWED` with the reason.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
COMPUTE_PATH = sorted((SRC / "tensor").glob("*.py")) + [
    SRC / "core" / f"{name}.py"
    for name in ("hybrid", "aggregation", "nau", "step", "engine")
] + [SRC / "distributed" / "rank.py"] + sorted((SRC / "serve").glob("*.py"))

_NUMPY = {"np", "numpy"}
#: numpy spellings of a 64-bit float dtype
_WIDE = {"float64", "double", "float_", "longdouble"}

#: ``"<path relative to repro>: <stripped source line>"`` -> why that
#: line may name float64.  Empty: nothing on the compute path needs to.
ALLOWED: dict[str, str] = {}


def _float64_uses(source: str, name: str) -> list[str]:
    """``name:line`` of every float64 spelling in ``source``: a numpy
    attribute (``np.float64``), or the builtin ``float`` passed as a
    dtype (``dtype=float``, ``.astype(float)``)."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        wide = (isinstance(node, ast.Attribute) and node.attr in _WIDE
                and isinstance(node.value, ast.Name)
                and node.value.id in _NUMPY)
        if isinstance(node, ast.Call):
            as_dtype = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                as_dtype += node.args[:1]
            wide = any(isinstance(v, ast.Name) and v.id == "float"
                       for v in as_dtype)
        if wide:
            found.append(node.lineno)
    return [f"{name}: {lines[line - 1].strip()}" for line in sorted(found)]


def test_no_float64_on_the_compute_path():
    offenders = [
        use
        for path in COMPUTE_PATH
        for use in _float64_uses(path.read_text(),
                                 str(path.relative_to(SRC)))
        if use not in ALLOWED
    ]
    assert offenders == [], "float64 on the compute path:\n" + "\n".join(
        offenders)


def test_every_allowed_line_still_exists():
    """An allowlist entry whose line is gone would hide the next one."""
    present = {use for path in COMPUTE_PATH
               for use in _float64_uses(path.read_text(),
                                        str(path.relative_to(SRC)))}
    assert set(ALLOWED) <= present
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_sees_every_spelling():
    """Not vacuous: it flags each form, and only dtype uses."""
    source = ("a = np.float64\n"
              "b = numpy.double(1)\n"
              "c = np.zeros(3, dtype=float)\n"
              "d = x.astype(float)\n"
              "e = np.float32\n"
              "f = float(x)\n"
              "g = x.astype(np.float32)\n")
    assert _float64_uses(source, "probe.py") == [
        "probe.py: a = np.float64",
        "probe.py: b = numpy.double(1)",
        "probe.py: c = np.zeros(3, dtype=float)",
        "probe.py: d = x.astype(float)",
    ]
