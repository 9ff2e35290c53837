"""Unit tests for modules, optimizers and losses."""

import numpy as np
import pytest

from repro.tensor import (
    Adam,
    Linear,
    Module,
    Parameter,
    Tensor,
    accuracy,
    binary_cross_entropy_with_logits,
    cross_entropy,
)
from repro.tensor.loss import nll_loss
from repro.tensor.ops import log_softmax


class MLP(Module):
    """Two linear layers with a ReLU between: a module with children."""

    def __init__(self, *dims, rng=None):
        super().__init__()
        self.layer0 = Linear(dims[0], dims[1], rng=rng)
        self.layer1 = Linear(dims[1], dims[2], rng=rng)

    def forward(self, x):
        return self.layer1(self.layer0(x).relu())


class TestModule:
    def test_parameter_registration(self):
        lin = Linear(3, 2)
        assert len(lin.parameters()) == 2  # weight + bias

    def test_no_bias(self):
        lin = Linear(3, 2, bias=False)
        assert len(lin.parameters()) == 1

    def test_nested_module_parameters(self):
        assert len(MLP(3, 4, 2).parameters()) == 4

    def test_named_parameters_paths(self):
        names = [n for n, _ in MLP(2, 2, 2).named_parameters()]
        assert any("layer0" in n and "weight" in n for n in names)

    def test_train_eval_propagates(self):
        mlp = MLP(2, 2, 2)
        mlp.eval()
        assert not mlp.layer0.training
        mlp.train()
        assert mlp.layer0.training

    def test_zero_grad(self):
        lin = Linear(2, 2)
        lin(Tensor(np.ones((1, 2)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self):
        a, b = Linear(3, 2, rng=np.random.default_rng(1)), Linear(3, 2, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self):
        with pytest.raises(KeyError):
            Linear(3, 2).load_state_dict({"bogus": np.zeros(1)})

    def test_state_dict_shape_mismatch_raises(self):
        state = Linear(3, 2).state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            Linear(3, 2).load_state_dict(state)

    def test_linear_forward_math(self):
        lin = Linear(2, 2)
        lin.weight.data[...] = np.eye(2)
        lin.bias.data[...] = np.array([1.0, -1.0])
        out = lin(Tensor(np.array([[2.0, 3.0]])))
        np.testing.assert_allclose(out.numpy(), [[3.0, 2.0]])


class TestOptimizers:
    @staticmethod
    def quadratic_problem(opt_factory, steps=200):
        """Minimize ||w - target||^2 and return final distance."""
        target = np.array([1.0, -2.0, 3.0])
        w = Parameter(np.zeros(3))
        opt = opt_factory([w])
        for _ in range(steps):
            loss = ((w - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return float(np.abs(w.data - target).max())

    def test_adam_converges(self):
        assert self.quadratic_problem(lambda p: Adam(p, lr=0.1), steps=400) < 1e-3

    def test_weight_decay_shrinks(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.1, weight_decay=1.0)
        loss = (w * 0.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.all(np.abs(w.data) < 1.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_step_skips_params_without_grad(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.1)
        opt.step()  # no grad, no change
        np.testing.assert_allclose(w.data, np.ones(2))


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        np.testing.assert_allclose(loss.item(), np.log(3.0), rtol=1e-10)

    def test_cross_entropy_confident_correct_is_small(self):
        logits = np.full((2, 3), -10.0)
        logits[np.arange(2), [1, 2]] = 10.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_mask(self):
        logits = np.zeros((4, 2))
        logits[0] = [10.0, -10.0]
        mask = np.array([True, False, False, False])
        loss = cross_entropy(Tensor(logits), np.array([0, 0, 0, 0]), mask)
        assert loss.item() < 1e-6

    def test_cross_entropy_gradient_shape_and_direction(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        cross_entropy(logits, np.array([0, 1])).backward()
        assert logits.grad.shape == (2, 3)
        # Gradient should be negative at the true class (push logit up).
        assert logits.grad[0, 0] < 0 and logits.grad[1, 1] < 0

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 5]))

    def test_cross_entropy_bad_target_shape(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([[0], [1]]))

    def test_nll_matches_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 4))
        targets = rng.integers(0, 4, 5)
        ce = cross_entropy(Tensor(logits), targets)
        nll = nll_loss(log_softmax(Tensor(logits)), targets)
        np.testing.assert_allclose(ce.item(), nll.item(), rtol=1e-10)

    def test_bce_with_logits_matches_reference(self):
        x = np.array([0.0, 2.0, -3.0])
        t = np.array([1.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(Tensor(x), t)
        sig = 1 / (1 + np.exp(-x))
        ref = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
        np.testing.assert_allclose(loss.item(), ref, rtol=1e-10)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(Tensor(logits), np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_with_mask(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(Tensor(logits), np.array([0, 0]), np.array([True, False])) == 1.0

    def test_accuracy_empty_mask(self):
        assert accuracy(Tensor(np.zeros((2, 2))), np.zeros(2, dtype=int), np.zeros(2, bool)) == 0.0


class TestEndToEndTraining:
    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = MLP(2, 8, 2, rng=rng)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            loss = cross_entropy(model(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert accuracy(model(Tensor(x)), y) == 1.0


class TestEmbedding:
    def test_shapes(self):
        from repro.tensor import Embedding

        emb = Embedding(10, 4)
        assert emb().shape == (10, 4)
        assert emb(np.array([0, 3, 3])).shape == (3, 4)

    def test_validation(self):
        from repro.tensor import Embedding

        with pytest.raises(ValueError):
            Embedding(0, 4)
        emb = Embedding(5, 2)
        with pytest.raises(IndexError):
            emb(np.array([7]))

    def test_gradients_only_touch_used_rows(self):
        from repro.tensor import Embedding

        emb = Embedding(6, 3)
        out = emb(np.array([1, 4]))
        out.sum().backward()
        grad = emb.weight.grad
        assert np.abs(grad[[1, 4]]).sum() > 0
        np.testing.assert_allclose(grad[[0, 2, 3, 5]], 0.0)

    def test_featureless_gnn_training(self):
        """Embeddings as trainable input features for a featureless graph."""
        from repro.core import FlexGraphEngine
        from repro.datasets import load_dataset
        from repro.models import gcn
        from repro.tensor import Embedding

        ds = load_dataset("reddit", scale="tiny")
        emb = Embedding(ds.graph.num_vertices, 16, rng=np.random.default_rng(0))
        model = gcn(16, 16, ds.num_classes, aggregator="mean")
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(emb.parameters() + model.parameters(), 0.05)
        losses = []
        for epoch in range(6):
            logits = engine.forward(emb(), epoch)
            loss = cross_entropy(logits, ds.labels, ds.train_mask)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
