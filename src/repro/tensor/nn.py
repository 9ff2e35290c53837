"""Neural-network module layer: Parameter, Module, Linear, etc.

Provides the thin ``torch.nn``-style layer the NAU ``Update`` stage uses
(Equation (2) only involves dense NN ops).
"""

from __future__ import annotations

import math

import numpy as np

from ..obs.profile import record_op
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Embedding", "LSTMCell",
           "param_dtype", "as_param_dtype"]


class Parameter(Tensor):
    """A tensor registered as a trainable module attribute.

    Parameters store float32, the compute dtype: the model's parameters
    are the one place a dtype is chosen, and inputs, activations,
    gradients, optimizer state and exchange buffers follow them.
    :meth:`Module.astype` is the way to another dtype.
    """

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class with parameter discovery, train/eval mode and astype.

    Subclasses implement ``forward``; attribute assignment automatically
    registers :class:`Parameter` and sub-``Module`` instances.
    """

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        items = [(prefix + name, p) for name, p in self._parameters.items()]
        for child_name, child in self._modules.items():
            items.extend(child.named_parameters(prefix + child_name + "."))
        return items

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        The only way to a model that computes in another dtype (float64
        for a dense oracle): build it, then ``model.astype(np.float64)``.
        Gradients are dropped; build the optimizer after the cast, since
        its state is allocated like the parameters.
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot parameter values (used by fault-tolerance checkpoints)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data[...] = state[name]

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def param_dtype(module: Module) -> np.dtype:
    """The dtype ``module`` computes in: its parameters' (float32 for a
    module without any)."""
    for p in module.parameters():
        return p.data.dtype
    return np.dtype(np.float32)


def as_param_dtype(module: Module, feats):
    """``feats`` (an array or a :class:`Tensor`) in ``module``'s
    parameter dtype, the same object when it already is one.

    Every entry point that feeds input features to a model calls this,
    so the model alone decides the compute dtype and an input in it is
    never copied.
    """
    dtype = param_dtype(module)
    if not isinstance(feats, Tensor):
        return np.asarray(feats).astype(dtype, copy=False)
    if feats.data.dtype == dtype:
        return feats
    source = feats.data.dtype
    # A differentiable cast: the gradient goes back in the input's dtype.
    return Tensor._make(feats.data.astype(dtype), (feats,),
                        lambda g: (g.astype(source),))


class Linear(Module):
    """Affine layer ``y = x W + b`` with Glorot-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        bound = math.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
            # broadcast add: one FLOP per output element (the matmul
            # accounts for itself inside Tensor.__matmul__)
            record_op("linear.bias", flops=float(out.data.size),
                      bytes_read=out.data.nbytes + self.bias.data.nbytes,
                      bytes_written=out.data.nbytes)
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Learnable per-id vectors — input features for featureless graphs.

    ``forward(ids)`` gathers rows differentiably, so vertex embeddings
    train end-to-end with the GNN; ``weight`` is ``(num_embeddings, dim)``.
    """

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("num_embeddings and dim must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.standard_normal((num_embeddings, dim)) / math.sqrt(dim))

    def forward(self, ids=None) -> Tensor:
        """Rows for ``ids`` (default: the whole table, for full-batch GNNs)."""
        if ids is None:
            return self.weight
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError("embedding id out of range")
        return self.weight[ids]


class LSTMCell(Module):
    """A single LSTM cell (used by sequence aggregators).

    Gate layout follows the classic formulation: input, forget, cell and
    output gates computed from ``[x W_x + h W_h + b]`` split four ways.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        bound = math.sqrt(1.0 / hidden_dim)
        self.w_x = Parameter(rng.uniform(-bound, bound, size=(input_dim, 4 * hidden_dim)))
        self.w_h = Parameter(rng.uniform(-bound, bound, size=(hidden_dim, 4 * hidden_dim)))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step: returns the new (h, c)."""
        gates = x @ self.w_x + h @ self.w_h + self.bias
        d = self.hidden_dim
        i = gates[:, 0:d].sigmoid()
        f = gates[:, d : 2 * d].sigmoid()
        g = gates[:, 2 * d : 3 * d].tanh()
        o = gates[:, 3 * d : 4 * d].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new
