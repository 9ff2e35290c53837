"""Optimizers for the numpy autograd engine: the base class and Adam."""

from __future__ import annotations

import numpy as np

from .nn import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot optimizer buffers (for exact checkpoint/restore)."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if state:
            raise KeyError(f"unexpected optimizer state keys: {sorted(state)}")


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {"t": np.array(self._t)}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m{i}"] = m.copy()
            state[f"v{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._t = int(state["t"])
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            m[...] = state[f"m{i}"]
            v[...] = state[f"v{i}"]
