"""Structure check: no float64 or float16 spelled out on the compute path.

The model's parameters choose the compute dtype (float32 by default,
``Module.astype`` for another); activations, gradients, optimizer state,
exchange buffers and served rows follow them.  A ``np.float64`` written
into a kernel, a loss or a buffer allocation silently promotes a float32
model back to float64 — the whole backward, when it is the loss.  A
``np.float16`` is a storage codec (:mod:`repro.tensor.quant`), never a
compute dtype: every reducer rejects it.  This scan fails CI when either
comes back on the compute path: the tensor package, the NAU step and
executor, a distributed rank's program and the server.

A line that must name one goes into :data:`ALLOWED` with the reason.
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
#: numpy spellings of a 64-bit float dtype, and the builtin that is one
_WIDE = ({"float64", "double", "float_", "longdouble"}, {"float"})
#: numpy spellings of a 16-bit float dtype (no builtin is one)
_HALF = ({"float16", "half"}, set())

_CODEC = "the storage codec: the one home of float16 rows"
#: ``"<path relative to repro>: <stripped source line>"`` -> why that
#: line may name float64 or float16.
ALLOWED: dict[str, str] = {
    'tensor/quant.py: "float16": np.dtype(np.float16),': _CODEC,
    "tensor/quant.py: return QuantizedRows(codec, "
    "np.ascontiguousarray(rows, dtype=np.float16))": _CODEC,
}


def _dtype_uses(source: str, name: str, spelling=_WIDE) -> list[str]:
    """``name:line`` of every use of a ``spelling`` dtype in ``source``:
    a numpy attribute (``np.float64``), or a builtin passed as a dtype
    (``dtype=float``, ``.astype(float)``)."""
    attrs, builtins = spelling
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        hit = (isinstance(node, ast.Attribute) and node.attr in attrs
               and isinstance(node.value, ast.Name)
               and node.value.id in _NUMPY)
        if isinstance(node, ast.Call):
            as_dtype = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                as_dtype += node.args[:1]
            hit = any(isinstance(v, ast.Name) and v.id in builtins
                      for v in as_dtype)
        if hit:
            found.append(node.lineno)
    return [f"{name}: {lines[line - 1].strip()}" for line in sorted(found)]


def _offenders(spelling) -> list[str]:
    return [
        use
        for path in COMPUTE_PATH
        for use in _dtype_uses(path.read_text(), str(path.relative_to(SRC)),
                               spelling)
        if use not in ALLOWED
    ]


def test_no_float64_on_the_compute_path():
    offenders = _offenders(_WIDE)
    assert offenders == [], "float64 on the compute path:\n" + "\n".join(
        offenders)


def test_no_float16_on_the_compute_path():
    offenders = _offenders(_HALF)
    assert offenders == [], "float16 on the compute path:\n" + "\n".join(
        offenders)


def test_every_allowed_line_still_exists():
    """An allowlist entry whose line is gone would hide the next one."""
    present = {use for path in COMPUTE_PATH for spelling in (_WIDE, _HALF)
               for use in _dtype_uses(path.read_text(),
                                      str(path.relative_to(SRC)), spelling)}
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
              "g = x.astype(np.float32)\n"
              "h = x.astype(np.float16)\n"
              "i = np.half(1)\n")
    assert _dtype_uses(source, "probe.py") == [
        "probe.py: a = np.float64",
        "probe.py: b = numpy.double(1)",
        "probe.py: c = np.zeros(3, dtype=float)",
        "probe.py: d = x.astype(float)",
    ]
    assert _dtype_uses(source, "probe.py", _HALF) == [
        "probe.py: h = x.astype(np.float16)",
        "probe.py: i = np.half(1)",
    ]
