"""Structure check: one per-rank implementation under both trainers.

The simulated and the process trainer agree bitwise because they run
the same rank program (``repro/distributed/rank.py``), reduce through
the reductions its syncs carry, and step every optimizer replica
through its one step function.  A second per-rank forward, backward,
reduction or optimizer step written in a trainer would silently turn
that property back into a parity test; these scans fail it in CI.
"""

import ast
from pathlib import Path

import repro
import repro.distributed

DISTRIBUTED = Path(repro.distributed.__file__).parent
RANK_PROGRAM = "rank.py"

#: layer stages, tape entry points and the optimizer step
#: (``layer.aggregation(h, hdg)``, ``layer.update(h, nbr)``,
#: ``layer.forward(h, hdg)``, ``out.backward(g)`` / ``loss.backward()``,
#: ``optimizer.step()``)
_STAGES = {"aggregation", "forward", "backward", "step"}


def _stage_calls(path: Path) -> list[str]:
    """``file:line`` of every layer-stage, tape or step call in ``path``.

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
        "per-rank compute or an optimizer step outside the rank program: "
        + ", ".join(offenders))


def test_the_scan_sees_the_rank_program():
    """The scan is not vacuous: it finds the rank program's own stage
    calls (``forward(rows=)`` is bitwise ``aggregation`` + ``update``,
    which the program times separately) and its one optimizer step."""
    names = {call.split(" .")[1].rstrip("(")
             for call in _stage_calls(DISTRIBUTED / RANK_PROGRAM)}
    assert names == {"aggregation", "update", "backward", "step"}


def _reduce_slabs_uses(path: Path) -> list[str]:
    """``file:line`` of every reference to ``reduce_slabs`` in ``path``: a
    call, or the function handed on (``partial(reduce_slabs, ...)``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(DISTRIBUTED.parent)}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "reduce_slabs")
        or (isinstance(node, ast.Attribute) and node.attr == "reduce_slabs")
    ]


def test_only_the_rank_program_uses_reduce_slabs():
    """The program that yields a sync defines its reduction: a trainer
    calls ``sync.reduce()``, never ``reduce_slabs`` itself."""
    offenders = [
        use
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        if path != DISTRIBUTED / RANK_PROGRAM
        for use in _reduce_slabs_uses(path)
    ]
    assert offenders == [], (
        "reduce_slabs used outside the rank program: " + ", ".join(offenders))


def test_the_reduce_scan_sees_the_rank_program():
    assert _reduce_slabs_uses(DISTRIBUTED / RANK_PROGRAM)
