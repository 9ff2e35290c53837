"""Fault tolerance for distributed training (Figure 12's FT module).

FlexGraph's architecture carries a fault-tolerance module alongside the
execution engine.  The paper does not detail it, so this implements the
standard design for synchronous data-parallel GNN training:

* :class:`CheckpointManager` — periodic model checkpoints through the
  storage tier, with bounded retention;
* :class:`FaultTolerantTrainer` — wraps either partitioned trainer
  (simulated or multi-process); on a worker failure it rolls the model
  back to the last checkpoint, has the trainer ``recover`` the failed
  worker (its state is reconstructable from the globally partitioned
  inputs) and replays the lost epochs.

Failures are injected deterministically for testing via a
``{epoch: worker_id}`` schedule.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..storage.store import load_checkpoint, save_checkpoint
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor

if TYPE_CHECKING:  # the trainers import WorkerFailure from this module
    from .trainer import DistributedEpochStats, DistributedTrainer

__all__ = ["CheckpointManager", "FaultTolerantTrainer", "WorkerFailure", "RecoveryEvent"]


class WorkerFailure(RuntimeError):
    """Raised (or injected) when a worker dies mid-epoch.

    ``bundle`` carries the incident-bundle path the multiprocess runtime
    wrote at detection time (``None`` when black-box capture is off or
    the failure is simulated).
    """

    def __init__(self, worker_id: int, epoch: int,
                 bundle: str | None = None):
        message = f"worker {worker_id} failed during epoch {epoch}"
        if bundle:
            message += f" [bundle: {bundle}]"
        super().__init__(message)
        self.worker_id = worker_id
        self.epoch = epoch
        self.bundle = bundle


@dataclass
class RecoveryEvent:
    """One recovery: which worker died, and what it cost."""

    epoch: int
    worker_id: int
    restored_from_epoch: int
    replayed_epochs: int
    #: incident bundle written when the failure was detected, if any
    bundle: str | None = None


class CheckpointManager:
    """Periodic checkpoints with bounded retention.

    Checkpoints are written every ``interval`` epochs to
    ``<directory>/ckpt_<epoch>.npz``; at most ``keep`` newest ones are
    retained.
    """

    def __init__(self, directory: str, interval: int = 1, keep: int = 3):
        if interval < 1 or keep < 1:
            raise ValueError("interval and keep must be >= 1")
        self.directory = directory
        self.interval = interval
        self.keep = keep
        os.makedirs(directory, exist_ok=True)
        # Resume retention state from disk so a restarted manager (e.g.
        # after a coordinator crash) finds the snapshots already written.
        self._epochs: list[int] = sorted(
            int(name[len("ckpt_"):-len(".npz")])
            for name in os.listdir(directory)
            if name.startswith("ckpt_") and name.endswith(".npz")
            and name[len("ckpt_"):-len(".npz")].isdigit()
        )

    def _path(self, epoch: int) -> str:
        return os.path.join(self.directory, f"ckpt_{epoch:06d}.npz")

    def maybe_save(self, epoch: int, state: dict[str, np.ndarray],
                   metadata: dict | None = None) -> bool:
        """Save if ``epoch`` hits the interval; prune old checkpoints."""
        if (epoch + 1) % self.interval != 0:
            return False
        save_checkpoint(state, self._path(epoch), {"epoch": epoch, **(metadata or {})})
        # Replayed epochs (post-recovery) re-save the same epoch number:
        # keep the retention list deduplicated and sorted, otherwise the
        # pruning loop pops the duplicate instead of an older checkpoint
        # and silently retains more files than ``keep``.
        if epoch not in self._epochs:
            bisect.insort(self._epochs, epoch)
        while len(self._epochs) > self.keep:
            stale = self._epochs.pop(0)
            path = self._path(stale)
            if os.path.exists(path):
                os.remove(path)
        return True

    @property
    def latest_epoch(self) -> int | None:
        return self._epochs[-1] if self._epochs else None

    def load_latest(self) -> tuple[dict[str, np.ndarray], dict] | None:
        """Load the newest checkpoint, or None if none exists."""
        if not self._epochs:
            return None
        return load_checkpoint(self._path(self._epochs[-1]))


class FaultTolerantTrainer:
    """Checkpoint-and-replay recovery around a distributed trainer.

    The wrapped trainer provides ``train_epoch`` plus two methods:
    ``inject_failure(worker_id)`` makes its next epoch raise
    :class:`WorkerFailure`, and ``recover(worker_id)`` restores the
    failed worker so training can resume.
    """

    def __init__(self, trainer: DistributedTrainer, checkpoint_dir: str,
                 interval: int = 1, keep: int = 3):
        self.trainer = trainer
        self.checkpoints = CheckpointManager(checkpoint_dir, interval, keep)
        self.recoveries: list[RecoveryEvent] = []
        # Pre-training model + optimizer snapshot, captured at train()
        # entry: the no-checkpoint recovery path restores it so a
        # "restart from scratch" really is bit-identical to a fresh run.
        self._initial_state: dict[str, np.ndarray] = {}

    def _snapshot(self, optimizer: Optimizer) -> dict[str, np.ndarray]:
        """Model + optimizer state in the checkpoint's key layout."""
        state = {
            f"model/{k}": v for k, v in self.trainer.model.state_dict().items()
        }
        state.update(
            {f"opt/{k}": np.asarray(v) for k, v in optimizer.state_dict().items()}
        )
        return state

    def train(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        num_epochs: int,
        mask: np.ndarray | None = None,
        failure_schedule: dict[int, int] | None = None,
    ) -> list[DistributedEpochStats]:
        """Train ``num_epochs`` epochs, surviving injected worker failures.

        ``failure_schedule`` maps epoch -> worker id; the worker "dies"
        once at the start of that epoch.  Recovery rolls model AND
        optimizer state back to the last checkpoint, re-attaches the
        worker's HDG slice and replays from there, so training after a
        recovery is bit-identical to a failure-free run resumed at that
        checkpoint (modulo stochastic NeighborSelection, which is
        re-drawn like any restarted epoch would).
        """
        failure_schedule = dict(failure_schedule or {})
        history: list[DistributedEpochStats] = []
        self._initial_state = {
            k: np.copy(v) for k, v in self._snapshot(optimizer).items()
        }
        epoch = 0
        while epoch < num_epochs:
            if epoch in failure_schedule:
                # The epoch attempt below raises WorkerFailure.
                self.trainer.inject_failure(failure_schedule.pop(epoch))
            try:
                stats = self.trainer.train_epoch(
                    feats, labels, optimizer, mask, epoch
                )
            except WorkerFailure as failure:
                self._recover(failure, optimizer, history)
                epoch = len(history)
                continue
            history.append(stats)
            self.checkpoints.maybe_save(epoch, self._snapshot(optimizer),
                                        {"loss": stats.loss})
            epoch += 1
        return history

    def _recover(self, failure: WorkerFailure, optimizer: Optimizer,
                 history: list[DistributedEpochStats]) -> None:
        """Restore model + optimizer state and the failed worker's slice."""
        loaded = self.checkpoints.load_latest()
        if loaded is None:
            # Nothing saved yet: restart from scratch by restoring the
            # state snapshotted at train() entry — merely clearing grads
            # would keep the partially-trained weights and make the
            # "fresh" rerun diverge from an actual fresh run.
            state = {k: np.copy(v) for k, v in self._initial_state.items()}
            restored_epoch = -1
            for p in self.trainer.model.parameters():
                p.grad = None
        else:
            state, metadata = loaded
            restored_epoch = int(metadata["epoch"])
        for prefix, target in (("model/", self.trainer.model),
                               ("opt/", optimizer)):
            target.load_state_dict({
                k[len(prefix):]: v for k, v in state.items()
                if k.startswith(prefix)
            })
        self.trainer.recover(failure.worker_id)
        replayed = len(history) - (restored_epoch + 1)
        del history[restored_epoch + 1 :]
        self.recoveries.append(
            RecoveryEvent(
                epoch=failure.epoch,
                worker_id=failure.worker_id,
                restored_from_epoch=restored_epoch,
                replayed_epochs=max(replayed, 0),
                bundle=failure.bundle,
            )
        )
