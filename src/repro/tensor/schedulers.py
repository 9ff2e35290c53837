"""Learning-rate schedulers and early stopping for training loops."""

from __future__ import annotations

import math

from .optim import Optimizer

__all__ = ["LRScheduler", "CosineAnnealingLR", "EarlyStopping"]


class LRScheduler:
    """Base scheduler: call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = -1

    def get_lr(self, epoch: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and apply the new learning rate."""
        self.epoch += 1
        lr = self.get_lr(self.epoch)
        if lr <= 0:
            raise ValueError(f"scheduler produced non-positive lr {lr}")
        self.optimizer.lr = lr
        return lr


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base lr to ``min_lr`` over ``total_epochs``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 1e-6):
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        super().__init__(optimizer)
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def get_lr(self, epoch: int) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress)
        )


class EarlyStopping:
    """Stop when a monitored value stops improving.

    Call :meth:`update` with the metric each epoch; it returns ``True``
    when training should stop.  ``mode="min"`` for losses, ``"max"`` for
    accuracies; ``min_delta`` is the smallest change that counts as an
    improvement.
    """

    def __init__(self, patience: int = 10, mode: str = "min",
                 min_delta: float = 0.0):
        if patience <= 0:
            raise ValueError("patience must be positive")
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.patience = patience
        self.mode = mode
        self.min_delta = min_delta
        self.best: float | None = None
        self.best_epoch = -1
        self.stale = 0
        self._epoch = -1

    def update(self, value: float) -> bool:
        """Record the epoch metric; returns True when patience ran out."""
        self._epoch += 1
        improved = (
            self.best is None
            or (self.mode == "min" and value < self.best - self.min_delta)
            or (self.mode == "max" and value > self.best + self.min_delta)
        )
        if improved:
            self.best = value
            self.best_epoch = self._epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience
