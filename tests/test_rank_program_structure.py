"""Structure check: one per-rank implementation under both trainers.

The simulated and the process trainer agree bitwise because they run
the same rank program (``repro/distributed/rank.py``).  A second
per-rank forward or backward written in a trainer would silently turn
that property back into a parity test; this scan fails it in CI.
"""

import ast
from pathlib import Path

import repro.distributed

DISTRIBUTED = Path(repro.distributed.__file__).parent
RANK_PROGRAM = "rank.py"

#: layer stages and tape entry points (``layer.aggregation(h, hdg)``,
#: ``layer.update(h, nbr)``, ``layer.forward(h, hdg)``,
#: ``out.backward(g)`` / ``loss.backward()``)
_STAGES = {"aggregation", "forward", "backward"}


def _stage_calls(path: Path) -> list[str]:
    """``file:line`` of every layer-stage or tape call in ``path``.

    ``update`` counts with two or more positional arguments: a layer's
    Update takes the features and the neighborhood term, while
    ``dict.update`` takes one mapping.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if name in _STAGES or (name == "update" and len(node.args) >= 2):
            found.append(f"{path.name}:{node.lineno} .{name}(")
    return found


def test_only_the_rank_program_runs_layers_and_tapes():
    offenders = [
        call
        for path in sorted(DISTRIBUTED.glob("*.py"))
        if path.name != RANK_PROGRAM
        for call in _stage_calls(path)
    ]
    assert offenders == [], (
        "per-rank compute outside the rank program: " + ", ".join(offenders))


def test_the_scan_sees_the_rank_program():
    """The scan is not vacuous: it finds the rank program's own stage
    calls (``forward(rows=)`` is bitwise ``aggregation`` + ``update``,
    which the program times separately)."""
    names = {call.split(" .")[1].rstrip("(")
             for call in _stage_calls(DISTRIBUTED / RANK_PROGRAM)}
    assert names == {"aggregation", "update", "backward"}
