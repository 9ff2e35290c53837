"""No silent upcast: one training step computes entirely in the dtype of
the model's parameters.

For every model in ``repro.models``, one step through each entry point
that runs it — the full-graph engine, sampled mini-batches, the
simulated ranks of the distributed trainer, and a served request — is
recorded op by op: every tape node's data and every gradient a backward
closure hands its parents must be float32 for the default model, and
float64 for the same model after ``.astype(np.float64)``, as must every
parameter ``.grad`` and Adam moment.  Features come from the dataset in
float32 either way; the entry points cast them to the model's dtype.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import FlexGraphEngine, MiniBatchTrainer
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition
from repro.models import gat, gcn, gin, graphsage, jknet, magnn, pgnn, pinsage
from repro.serve import InferenceSession
from repro.tensor import Adam, Tensor

FACTORIES = {
    "gcn": gcn,
    "gat": gat,
    "gin": gin,
    "sage": graphsage,
    "pinsage": pinsage,
    "jknet": jknet,
    "magnn": lambda *a, **k: magnn(*a, max_instances_per_root=8, **k),
    "pgnn": pgnn,
}
#: the paths every model runs on (a depth-3 model's mini-batches keep
#: full neighborhoods: fan-out ``None``)
PATHS = ("engine", "minibatch", "distributed", "serve")
CASES = [(model, path) for model in FACTORIES for path in PATHS]


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny", seed=0)


@contextmanager
def recorded_tape(monkeypatch):
    """Every dtype the tape produces while the block runs: each new
    node's data, and each gradient a backward closure returns."""
    seen: list[tuple[str, np.dtype]] = []
    make = Tensor._make

    def recording_make(data, parents, backward):
        seen.append(("data", np.asarray(data).dtype))

        def recording_backward(g):
            grads = backward(g)
            seen.extend(("grad", np.asarray(x).dtype)
                        for x in grads if x is not None)
            return grads

        return make(data, parents, recording_backward)

    with monkeypatch.context() as m:
        m.setattr(Tensor, "_make", staticmethod(recording_make))
        yield seen


def _step(path, model, ds):
    """One training step (a served request for ``serve``); returns the
    optimizer it stepped, if any."""
    feats = Tensor(ds.features)
    if path == "serve":
        session = InferenceSession(model, ds.graph, ds.features)
        rows = session.embed(np.array([0, 5, 17]))
        assert rows.dtype == model.parameters()[0].data.dtype
        return None
    opt = Adam(model.parameters(), 0.01)
    if path == "engine":
        trainer = FlexGraphEngine(model, ds.graph, seed=0)
    elif path == "minibatch":
        fanout = None if model.category == "INHA" else 4
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64,
                                   fanouts=[fanout] * model.num_layers, seed=0)
    else:
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2), seed=0)
    trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, 0)
    return opt


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("name,path", CASES)
def test_one_step_stays_in_the_parameter_dtype(name, path, dtype, ds,
                                               monkeypatch):
    model = FACTORIES[name](ds.feat_dim, 8, ds.num_classes, seed=0)
    if dtype is np.float64:
        model.astype(np.float64)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(dtype)}
    with recorded_tape(monkeypatch) as seen:
        opt = _step(path, model, ds)
    assert seen, "the step recorded no tape"
    wrong = sorted({f"{kind} {dt}" for kind, dt in seen if dt != dtype})
    assert wrong == [], f"{name}/{path} left {np.dtype(dtype)}: {wrong}"
    for p in model.parameters():
        assert p.data.dtype == dtype
        assert p.grad is None or p.grad.dtype == dtype
    if opt is not None:
        assert any(p.grad is not None for p in model.parameters())
        moments = opt._m + opt._v
        assert {m.dtype for m in moments} == {np.dtype(dtype)}
