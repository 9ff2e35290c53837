"""The real multi-process distributed runtime.

:class:`MultiprocessTrainer` runs the k ranks of the shared-nothing
cluster as real OS processes.  Each worker process runs one
:meth:`Rank.program <repro.distributed.rank.Rank.program>` — the same
per-rank forward, loss share, cut-tape backward and slab writes
:class:`~repro.distributed.trainer.DistributedTrainer` steps
round-robin in one process — over shared-memory buffers, and turns its
sync points into barriers.  After the last reduction every worker steps
its own optimizer replica with
:func:`~repro.distributed.rank.apply_reduced_grad`; the parent steps one
more replica once the ranks report done, so ``trainer.model`` is always
current and no parameter crosses a process boundary.  The two backends
therefore agree bitwise; here layer synchronization, gradient reduction
and epoch times are *wall clock*, not modeled.  What this module adds
is the process machinery: spawn, liveness, live telemetry, the flight
recorder and stall injection.

Data movement
-------------
Bulk arrays live in ``multiprocessing.shared_memory`` (zero-copy numpy
views, see :mod:`repro.distributed.kvstore`):

* ``feat/{w}`` KV keys — the partitioned input features, one shard per
  owning worker; every worker assembles its full input copy from them
  (remote shards are the bytes a real cluster would ship).  The parent
  re-ships the shards when ``train_epoch`` is handed a different
  feature array than the one it last shipped, and the workers refetch;
  passing the same array (or ``Tensor``) every epoch ships nothing.
  Edits made *in place* to the shipped array are not detected.
* the epoch's :class:`~repro.distributed.rank.Buffers` — hidden
  layer-boundary activations and gradients, per-rank slabs and the
  reduced parameter gradient, each a :class:`SharedArray`.  A
  ``layer_sync`` is one barrier, except after the last layer, whose
  output no peer reads.  Every slab sync point is a barrier, this rank's
  chunk of :func:`~repro.distributed.comm.reduce_slabs`, and a second
  barrier.  A rank's ``comm_seconds`` is its barrier waits plus the time
  it spent reducing its own chunks (each ``dist.comm`` span's
  ``reduce_s``).

Small state is pickled:

* the model and optimizer replicas — one :class:`_WorkerSpec` carries
  both to each worker at spawn.  Handing ``train_epoch`` a different
  optimizer respawns the pool from the parent, as ``heal()`` does;
  the optimizer's learning rate (what a schedule moves) rides in every
  epoch message.  Other edits made in place to the model or optimizer
  reach the workers only through ``heal()``.
* each rank's :class:`~repro.distributed.rank.Rank` state (its sub-HDG
  and its rows of the labels and mask) — in the epoch message, only
  when the HDG was rebuilt, ``train_epoch`` got a different ``labels``
  or ``mask`` array, or the pool respawned.

Each worker sizes its BLAS pool at start-up to
``max(1, len(os.sched_getaffinity(0)) // k)`` threads, so k ranks share
the cores instead of each running the parent's full pool; the parent
keeps its own pool untouched.

The parent is **not** a barrier party: it observes progress through a
result queue and polls worker liveness, so a dead process surfaces as
:class:`~repro.distributed.fault_tolerance.WorkerFailure` within a
fraction of a second instead of a barrier timeout.  ``heal()`` resets
the barrier and respawns the pool, which is what
:class:`FaultTolerantTrainer` calls before replaying lost epochs.

Live telemetry and the failure model
------------------------------------
Liveness polling distinguishes **dead** from **stalled**.  Every worker
adds a writer over its row of a shared
:class:`~repro.obs.live.TelemetrySlab` to its registry's sinks
(lock-free: its own row, heartbeat seqno bumped last, moved by every
``obs.phase`` transition), and the parent samples all rows during the
result-queue poll.  A process that is gone
raises :class:`WorkerFailure` (today's path); a process that is alive
but whose heartbeat has been frozen past ``stall_deadline`` seconds in
an *active* phase emits a ``dist.worker_stalled`` event naming the
rank, epoch, layer and phase where progress stopped — workers parked
at a barrier are the victims of someone else's stall and are never
flagged.  ``inject_stall()`` (a real in-worker sleep) drives the path
end-to-end the way ``inject_failure()`` drives the crash path.

Per-process observability registries are merged at epoch end: workers
ship one ``Registry.snapshot()`` (records, counters, gauges, clock
origin) through the result queue; the parent's ``Registry.merge``
rebases record times onto its own clock using that origin, so one
coherent trace with a lane per rank covers the whole pool.  Each
worker stamps its records through the registry context
(``worker`` once at start-up, ``phase`` / ``epoch`` / ``layer`` at
every transition).
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..obs.flight import (
    FlightRecorder,
    install_flight,
    uninstall_flight,
    write_incident_bundle,
)
from ..obs.live import STALL_EVENT, StallDetector, StallEvent, TelemetrySlab
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import ModelHDGs, Partition
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .comm import (
    BYTES_COUNTER,
    MESSAGES_COUNTER,
    ProcessComm,
    allreduce_traffic,
    dependency_stats,
    reduce_slabs,
)
from .fault_tolerance import WorkerFailure
from .kvstore import KVStore, SharedArray
from .rank import (
    BACKWARD,
    FORWARD,
    LAYER_SYNC,
    Buffers,
    Rank,
    apply_reduced_grad,
    attach_targets,
)

__all__ = ["MultiprocessEpochStats", "MultiprocessTrainer"]

#: ``set_num_threads`` entry points an OpenBLAS build may export (the
#: numpy wheels' scipy-openblas64 prefixes and suffixes them); the
#: matching getter is the same name with ``get``.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_blas() -> tuple[str, object, object] | None:
    """The BLAS this process has loaded, as ``(path, set, get)`` thread
    controls, or ``None`` when no mapped shared object exports one.

    Environment variables such as ``OPENBLAS_NUM_THREADS`` are read
    once, when the library loads; a forked worker inherits the parent's
    already-sized pool, so its budget can only be set through the
    library itself.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "blas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter in _BLAS_SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return path, set_threads, get_threads
    return None


def _rank_thread_budget(k: int) -> int:
    """BLAS threads per rank: the process's cores shared by ``k`` ranks."""
    return max(1, len(os.sched_getaffinity(0)) // k)


def _pin_blas(k: int) -> tuple[int | None, str | None]:
    """Size this worker's BLAS pool to its rank budget; returns the
    thread count now in force and the library's file name, or
    ``(None, None)`` when no BLAS thread control was found."""
    blas = _loaded_blas()
    if blas is None:
        return None, None
    path, set_threads, get_threads = blas
    set_threads(_rank_thread_budget(k))
    return int(get_threads()), os.path.basename(path)


@dataclass
class MultiprocessEpochStats:
    """Wall-clock timing of one multiprocess epoch."""

    epoch: int
    loss: float
    wall_seconds: float
    compute_seconds: np.ndarray      # per worker, measured in-process
    comm_seconds: np.ndarray         # per worker, barrier waits + its reduction chunks
    total_bytes: float               # cross-partition traffic (accounted)
    total_messages: int
    backend: str = "process"


@dataclass
class _WorkerSpec:
    """Everything a worker process needs; travels via ``Process`` args.

    Under the default ``fork`` context the child inherits the parent's
    already-attached shared segments, so nothing here re-attaches; under
    ``spawn`` the queues/barrier go through multiprocessing's reducer and
    the :class:`SharedArray` descriptors re-attach lazily.
    """

    rank: int
    k: int
    model: NAUModel        # this worker's replica of the model ...
    optimizer: Optimizer   # ... and of the optimizer stepping it
    partition: Partition
    strategy: ExecutionStrategy
    comm: ProcessComm
    kv: KVStore
    bufs: Buffers          # the epoch's exchange buffers (SharedArrays)
    inbox: object          # task queue (this rank only)
    result_q: object       # shared result queue
    telemetry: TelemetrySlab | None = None   # live metrics plane (one row per rank)
    flight_dir: str | None = None            # per-rank journal + bundle dir


class _WorkerRuntime:
    """Runs one rank program in a worker process (inside the child)."""

    def __init__(self, spec: _WorkerSpec, blas: tuple[int | None, str | None]):
        self.spec = spec
        #: (threads, library) from :func:`_pin_blas`; reported once
        self.blas: tuple[int | None, str | None] | None = blas
        self.k = spec.k
        self.model = spec.model
        self.comm = spec.comm
        self.kv = spec.kv
        self.rank = spec.rank
        #: the parent's :class:`Rank`, as last shipped (every pool's
        #: first epoch ships it)
        self.state: Rank | None = None
        self.bufs = spec.bufs.map(lambda shared: shared.array)
        #: unique remote leaf rows per owning rank (from the sub-HDG)
        self._remote_leaves = np.zeros(spec.k, dtype=np.int64)
        self.X: np.ndarray | None = None
        self._feats_version: int | None = None
        self._startup_bytes = 0.0
        self._startup_messages = 0
        self._stall_seconds = 0.0
        # Every record this process emits is stamped with its rank.
        obs.set_context(worker=spec.rank)
        if spec.telemetry is not None:
            obs.add_sink(spec.telemetry.writer(spec.rank))
        # The black box: a per-rank flight recorder journaling to
        # ``journal-rank{r}.jsonl`` under the flight dir, so this rank's
        # final spans/logs/phases survive its own death.
        if spec.flight_dir is not None:
            install_flight(FlightRecorder(journal_path=os.path.join(
                spec.flight_dir, f"journal-rank{spec.rank}.jsonl")))

    @staticmethod
    def _die(reason: str) -> None:
        """Die the way a segfault would — but the black box records the
        final stack first (the journal's ``os.write`` puts it in the
        page cache, which survives ``os._exit``)."""
        obs.log("worker dying", level="error", reason=reason)
        obs.crash(reason, "".join(traceback.format_stack()))
        os._exit(1)

    # ------------------------------------------------------------------
    def run(self) -> None:
        while True:
            msg = self.spec.inbox.get()
            tag = msg[0]
            if tag == "stop":
                return
            if tag == "die":
                # Failure injection: no cleanup, no exception, just a
                # vanished process (after the black box's final record).
                self._die("injected_failure")
            if tag == "epoch":
                self._run_epoch(msg[1])

    # ------------------------------------------------------------------
    def _fetch_features(self) -> None:
        """Assemble the full input matrix from the per-partition shards.

        Remote shards are the traffic a shared-nothing cluster pays
        whenever the inputs change (layer-0 inputs are fetched once per
        shipped feature array, unlike hidden activations which move
        every epoch).
        """
        parts = self.spec.partition.parts
        with obs.span("dist.feat_fetch"):
            first = self.kv.get("feat/0")
            n = int(self.spec.partition.labels.size)
            X = np.empty((n, first.shape[1]), dtype=first.dtype)
            for src in range(self.k):
                shard = self.kv.get(f"feat/{src}")
                X[parts[src]] = shard
                if src != self.rank:
                    self._startup_bytes += shard.nbytes
                    self._startup_messages += 1
        self.X = X

    def _phase(self, name: str, layer: int | None) -> None:
        """The program's phase hook: a telemetry transition, and the
        injected stall — a real sleep in an active phase, so the
        heartbeat seqno freezes exactly as a hung kernel would."""
        obs.phase(name, layer=layer)
        if self._stall_seconds > 0.0 and name == FORWARD:
            time.sleep(self._stall_seconds)
            self._stall_seconds = 0.0

    # ------------------------------------------------------------------
    def _run_epoch(self, payload: dict) -> None:
        epoch = int(payload["epoch"])
        # Fresh registry per epoch: the snapshot shipped at epoch end is
        # then a clean delta (counters merged exactly once), and every
        # record is this epoch's.
        obs.reset()
        reg = obs.get_registry()
        if payload.get("trace_id"):
            reg.trace_id = payload["trace_id"]
        # The epoch every record below is stamped with; the phase
        # transitions move ``phase`` and ``layer``.
        obs.set_context(epoch=epoch, layer=None)
        if self.blas is not None:
            # Once per process, in the first epoch's snapshot (a record
            # made at start-up would not survive the reset above).
            threads, library = self.blas
            obs.event("dist.worker_threads", blas_threads=threads,
                      library=library)
            self.blas = None
        obs.log("epoch start")
        self._stall_seconds = float(payload.get("stall_seconds") or 0.0)
        # The one optimizer setting a schedule moves between epochs.
        self.spec.optimizer.lr = payload["lr"]
        if payload["rank"] is not None:
            self.state = payload["rank"]
            self._remote_leaves = dependency_stats(
                self.state.sub_hdg, self.spec.partition.labels, self.k,
            ).remote_leaves_per_pair[self.rank]
        if payload["feats_version"] != self._feats_version:
            obs.phase("feat_fetch")
            self._fetch_features()
            self._feats_version = payload["feats_version"]

        comm_s = 0.0
        bytes_total = self._startup_bytes
        messages_total = self._startup_messages
        self._startup_bytes = 0.0
        self._startup_messages = 0
        remote = self._remote_leaves
        last = len(self.model.layers) - 1
        for sync in self.state.program(self.model, self.spec.strategy, self.X,
                                      self.bufs, epoch, phase=self._phase):
            reduce_s = 0.0
            if sync.name == LAYER_SYNC:
                # The remote rows this layer read, one message per
                # owning rank; the next layer reads what the peers
                # wrote, so wait for them — after the last layer nobody
                # reads the output.
                wait = 0.0 if sync.layer == last else self.comm.barrier()
                nbytes = float(remote.sum()) * sync.nbytes
                messages = int(np.count_nonzero(remote))
            else:
                wait = self.comm.barrier()
                obs.phase(sync.name, layer=sync.layer)
                t0 = time.perf_counter()
                reduce_slabs(sync.slabs, sync.out, self.rank)
                reduce_s = time.perf_counter() - t0
                wait += self.comm.barrier()
                nbytes, messages = allreduce_traffic(sync.nbytes, self.k)
            comm_s += wait + reduce_s
            bytes_total += nbytes
            messages_total += messages
            obs.record_span("dist.comm", wait + reduce_s, simulated=False,
                            sync=sync.name, bytes=nbytes, reduce_s=reduce_s)

        # The optimizer step closes the backward, as in the engine.
        obs.phase(BACKWARD, layer=None)
        apply_reduced_grad(self.model, self.spec.optimizer, self.bufs.pbuf)
        obs.phase("done")
        # One metric sample per epoch: a black box keeps the final
        # counter/gauge state alongside the spans (and, the rank being
        # past its last barrier, writes its journal out now).
        obs.sample_metrics()
        self.spec.result_q.put(("done", self.rank, {
            "loss": self.state.loss,
            "compute_seconds": (sum(self.state.compute_seconds)
                                + sum(self.state.backward_seconds)),
            "comm_seconds": comm_s,
            "bytes": bytes_total,
            "messages": messages_total,
            "telemetry": reg.snapshot(),
        }))


def _worker_main(spec: _WorkerSpec) -> None:
    # Under fork the child inherits the parent's flight recorder (a dup
    # of its journal fd plus whatever records sat in its drain queue —
    # the parent's drain thread does not survive the fork).  Drop it
    # without draining: those records belong to the parent, which will
    # write them itself.  This rank installs its own recorder with its
    # own journal in _WorkerRuntime.__init__.
    inherited = uninstall_flight()
    if inherited is not None:
        inherited.close(drain=False)
    # Fresh per-process registry: under fork the child also inherits the
    # parent's spans, which must not be shipped back a second time.
    obs.reset()
    obs.clear_context()
    try:
        # k ranks share the host's cores: size this rank's BLAS pool
        # before any layer runs.  Here and nowhere process-wide — the
        # parent and single-process training keep every core.
        blas = _pin_blas(spec.k)
        _WorkerRuntime(spec, blas).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        tb = traceback.format_exc()
        # The crash hook: the journal's last record is the traceback.
        obs.crash("exception", tb)
        try:
            spec.result_q.put(("error", spec.rank, tb))
        except Exception:  # pragma: no cover - queue already torn down
            pass


class MultiprocessTrainer:
    """Train a NAU model across ``k`` real worker processes.

    Drop-in alongside :class:`DistributedTrainer` — same constructor
    shape, same ``train_epoch`` signature, the same rank programs and so
    bitwise the same loss, gradients and parameters (see
    ``tests/test_multiprocess.py``) — but epoch times are wall clock and
    worker death is a real observable failure.

    Use as a context manager or call :meth:`close`; the shared-memory
    segments are owned by the parent and must be unlinked.
    """

    def __init__(
        self,
        model: NAUModel,
        graph,
        partition_labels: np.ndarray,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        seed: int = 0,
        ctx=None,
        timeout: float = 120.0,
        stall_deadline: float = 5.0,
        flight_dir: str | None = None,
    ):
        self.model = model
        self.graph = graph
        self.partition = Partition(partition_labels, graph.num_vertices)
        self.labels_part = self.partition.labels
        self.k = self.partition.k
        self.strategy = ExecutionStrategy.parse(strategy)
        self.timeout = float(timeout)
        self.hdgs = ModelHDGs(model, graph, np.random.default_rng(seed),
                              span="dist.neighbor_selection")
        # The parent slices each rank's sub-HDG and ships it.
        self.ranks = [Rank(w, part) for w, part in enumerate(self.partition.parts)]
        self.comm = ProcessComm(self.k, ctx=ctx, timeout=self.timeout)
        self.ctx = self.comm.ctx
        self.kv = KVStore()
        #: allocated with the first pool, reused by every respawn
        self._bufs: Buffers | None = None
        #: the feature array the ``feat/{w}`` shards hold, and its version
        self._shipped: np.ndarray | None = None
        self._feats_version = 0
        #: the arrays the ranks hold rows of, and the optimizer the
        #: workers hold replicas of
        self._labels: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        self._optimizer: Optimizer | None = None
        self._procs: list | None = None
        self._inboxes: list = []
        self._result_q = None
        #: ranks whose :class:`Rank` state the next epoch message ships
        self._dirty: set[int] = set()
        self._die_next: set[int] = set()
        self._stall_next: dict[int, float] = {}
        self._closed = False
        #: shared live-metrics plane: one fixed-layout row per rank,
        #: written lock-free by the worker, sampled by the parent's poll
        self.telemetry = TelemetrySlab(self.k)
        self.stall_deadline = float(stall_deadline)
        self._stall_detector = StallDetector(self.stall_deadline)
        #: every stall detected so far (also emitted as obs events)
        self.stall_events: list[StallEvent] = []
        #: flight-recorder plane: per-rank journals + incident bundles
        #: land here; ``None`` disables black-box capture entirely
        self.flight_dir = flight_dir
        self._own_flight: FlightRecorder | None = None
        if flight_dir is not None:
            os.makedirs(flight_dir, exist_ok=True)
            if obs.get_flight() is None:
                # No recorder installed (e.g. trainer constructed outside
                # the CLI): give the parent its own, journaled alongside
                # the workers'.
                self._own_flight = install_flight(FlightRecorder(
                    journal_path=os.path.join(flight_dir,
                                              "journal-parent.jsonl"),
                ))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ship_features(self, feats: Tensor | np.ndarray) -> None:
        """Write the ``feat/{w}`` shards unless they already hold this
        very array (the workers refetch when the version moves).  The
        first call creates the keys, before any worker exists (KV keys
        must pre-date the spawn — see repro.distributed.kvstore); later
        arrays must keep the first one's shape and dtype."""
        X = feats.data if isinstance(feats, Tensor) else np.asarray(feats)
        if X is self._shipped:
            return
        if X.shape[0] != self.graph.num_vertices:
            raise ValueError("features must cover every vertex")
        for rank in self.ranks:
            self.kv.set(f"feat/{rank.rank}", X[rank.root_orders])
        self._shipped = X
        self._feats_version += 1

    def _spawn(self) -> None:
        """Start the k workers, each with a replica of the parent's
        current model and optimizer."""
        if self._bufs is None:
            self._bufs = Buffers.allocate(self.model, self.graph.num_vertices,
                                          self.k, SharedArray)
        self._inboxes = [self.ctx.Queue() for _ in range(self.k)]
        self._result_q = self.ctx.Queue()
        self._dirty = set(range(self.k))
        self.telemetry.reset()
        self._stall_detector.reset()
        self._procs = []
        for rank in range(self.k):
            spec = _WorkerSpec(
                rank=rank, k=self.k, model=self.model,
                optimizer=self._optimizer,
                partition=self.partition, strategy=self.strategy,
                comm=self.comm, kv=self.kv, bufs=self._bufs,
                inbox=self._inboxes[rank], result_q=self._result_q,
                telemetry=self.telemetry,
                flight_dir=self.flight_dir,
            )
            proc = self.ctx.Process(target=_worker_main, args=(spec,),
                                    daemon=True, name=f"repro-worker-{rank}")
            proc.start()
            self._procs.append(proc)
        obs.event("dist.pool_spawned", k=self.k,
                  pids=[p.pid for p in self._procs])

    def _teardown_pool(self) -> None:
        """Stop every worker process (barrier aborted so stragglers fail
        fast) and release the pool's queues; shared buffers and KV
        segments survive for a respawn."""
        if self._procs is None:
            return
        self.comm.close()  # abort the barrier: unblock stuck workers
        try:
            while True:
                self._result_q.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._procs = None
        # Close every queue and join the inboxes' feeder threads, so a
        # torn-down pool leaves no thread behind.  A feeder only exits
        # once its buffer is flushed into the pipe, and the readers are
        # gone: read out what is still in flight first.
        for inbox in self._inboxes:
            try:
                while True:
                    inbox.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                pass
            inbox.close()
            inbox.join_thread()
        self._result_q.close()
        self._inboxes = []
        self._result_q = None

    def heal(self) -> None:
        """Respawn the worker pool after a failure (FT recovery path):
        every replica restarts from the parent's model and optimizer."""
        self._teardown_pool()
        self.comm.reset()
        if self._bufs is not None:
            self._spawn()

    def recover(self, worker_id: int) -> None:
        """The :class:`FaultTolerantTrainer` contract: the dead process
        took its peers' barrier down with it, so recovering one worker
        means respawning the pool — from the parent's model and
        optimizer, which the caller has just restored."""
        self.heal()

    def inject_failure(self, worker_id: int) -> None:
        """Arrange for ``worker_id`` to die (``os._exit``) at the start
        of the next dispatched epoch — a real process death, not a
        simulated exception."""
        if not (0 <= worker_id < self.k):
            raise ValueError("worker id out of range")
        self._die_next.add(worker_id)

    def inject_stall(self, worker_id: int, seconds: float = 1.0) -> None:
        """Arrange for ``worker_id`` to sleep ``seconds`` inside its next
        epoch's layer-0 forward — a real in-process hang (heartbeat
        frozen in an active phase), not a simulated event.  With
        ``seconds > stall_deadline`` the parent's liveness poll emits a
        ``dist.worker_stalled`` event naming this rank; the worker then
        resumes and the epoch completes."""
        if not (0 <= worker_id < self.k):
            raise ValueError("worker id out of range")
        if seconds <= 0:
            raise ValueError("stall must be positive")
        self._stall_next[worker_id] = float(seconds)

    def close(self) -> None:
        """Stop workers and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self._procs is not None:
            for inbox in self._inboxes:
                try:
                    inbox.put(("stop",))
                except Exception:  # pragma: no cover
                    pass
            for proc in self._procs:
                proc.join(timeout=3.0)
            self._teardown_pool()
        for buf in self._bufs or ():
            buf.close()
        self.telemetry.close()
        self.kv.close()
        if self._own_flight is not None:
            if obs.get_flight() is self._own_flight:
                uninstall_flight()
            self._own_flight.close()
            self._own_flight = None

    def __enter__(self) -> "MultiprocessTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _dump_incident(self, kind: str, *, rank: int | None = None,
                       reason: str | None = None,
                       extra_sections: dict | None = None) -> str | None:
        """Snapshot one incident bundle under ``flight_dir`` (no-op when
        black-box capture is off).  Must run *before* ``_teardown_pool``
        so the telemetry slab still holds the workers' last rows."""
        if self.flight_dir is None:
            return None
        sections = {
            "telemetry": self.telemetry.snapshot(),
            "stalls": {
                "deadline": self.stall_deadline,
                "events": [s.to_dict() for s in self.stall_events],
            },
        }
        if extra_sections:
            sections.update(extra_sections)
        try:
            return write_incident_bundle(
                self.flight_dir, kind, rank=rank, reason=reason,
                config={
                    "k": self.k,
                    "strategy": self.strategy.value,
                    "timeout": self.timeout,
                    "stall_deadline": self.stall_deadline,
                    "num_vertices": int(self.graph.num_vertices),
                    "blas_threads": (_rank_thread_budget(self.k)
                                     if _loaded_blas() is not None else None),
                },
                sections=sections,
            )
        except OSError:  # pragma: no cover - flight dir vanished
            return None

    def _check_liveness(self, epoch: int) -> None:
        assert self._procs is not None
        for rank, proc in enumerate(self._procs):
            if not proc.is_alive():
                bundle = self._dump_incident(
                    "worker_failure", rank=rank,
                    reason=f"worker {rank} died during epoch {epoch} "
                           f"(exitcode {proc.exitcode})")
                self._teardown_pool()
                raise WorkerFailure(rank, epoch, bundle=bundle)

    def _poll_telemetry(self) -> None:
        """Sample the live slab, publish gauges, flag frozen heartbeats.

        A stall is *alive but not progressing*: the heartbeat seqno of a
        rank in an active phase has not moved for ``stall_deadline``
        seconds.  Ranks parked at a barrier are exempt — they are the
        victims when a peer stalls.  Stalls emit events and are recorded;
        they do not abort the epoch (the ``timeout`` deadline still
        backstops a stall that never ends).
        """
        samples = self.telemetry.sample(publish=True)
        for stall in self._stall_detector.observe(samples):
            self.stall_events.append(stall)
            obs.event(
                STALL_EVENT,
                worker=stall.rank,
                epoch=stall.epoch,
                layer=stall.layer,
                phase=stall.phase_name,
                stalled_seconds=stall.stalled_seconds,
                deadline=self.stall_deadline,
            )
            # Stalls do not abort the epoch, but they are incidents: the
            # bundle captures the cluster exactly while it is wedged.
            self._dump_incident(
                "worker_stalled", rank=stall.rank,
                reason=f"rank {stall.rank} heartbeat frozen "
                       f"{stall.stalled_seconds:.1f}s in "
                       f"{stall.phase_name} (epoch {stall.epoch}, "
                       f"layer {stall.layer})")

    def _await(self, tag: str, epoch: int, count: int) -> dict[int, dict]:
        """Collect ``count`` messages of kind ``tag``, surfacing worker
        death (liveness poll) or in-worker exceptions as they happen."""
        results: dict[int, dict] = {}
        deadline = time.monotonic() + self.timeout
        while len(results) < count:
            try:
                msg = self._result_q.get(timeout=0.2)
            except queue_mod.Empty:
                self._check_liveness(epoch)
                self._poll_telemetry()
                if time.monotonic() > deadline:
                    stalled = sorted({s.rank for s in self.stall_events})
                    bundle = self._dump_incident(
                        "epoch_timeout",
                        reason=f"workers did not reach {tag!r} within "
                               f"{self.timeout}s")
                    self._teardown_pool()
                    hint = f" (stalled ranks: {stalled})" if stalled else ""
                    if bundle:
                        hint += f" [bundle: {bundle}]"
                    raise TimeoutError(
                        f"workers did not reach {tag!r} within "
                        f"{self.timeout}s{hint}"
                    )
                continue
            if msg[0] == "error":
                rank, tb = msg[1], msg[2]
                self._teardown_pool()
                raise RuntimeError(f"worker {rank} failed:\n{tb}")
            if msg[0] == tag:
                results[msg[1]] = msg[2]
        return results

    def train_epoch(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> MultiprocessEpochStats:
        """One data-parallel full-batch epoch across real processes."""
        t0 = time.perf_counter()
        self._ship_features(feats)
        if labels is not self._labels or mask is not self._mask:
            attach_targets(self.ranks, self.graph.num_vertices, labels, mask)
            self._labels, self._mask = labels, mask
            self._dirty = set(range(self.k))
        if optimizer is not self._optimizer:
            # Every worker steps a replica of this optimizer: respawn the
            # pool from the parent's model and optimizer.
            self._optimizer = optimizer
            self.heal()
        if self._procs is None:
            self._spawn()
        # A worker that died between epochs must surface before anything
        # is queued for it: nobody would ever read that inbox again.
        self._check_liveness(epoch)
        hdg, rebuilt = self.hdgs.model_level(epoch)
        if rebuilt:
            for rank in self.ranks:
                rank.attach_hdg(hdg)
            self._dirty = set(range(self.k))

        trace_id = obs.get_registry().trace_id
        for rank in range(self.k):
            if rank in self._die_next:
                self._die_next.discard(rank)
                self._inboxes[rank].put(("die",))
                continue
            state = self.ranks[rank] if rank in self._dirty else None
            self._dirty.discard(rank)
            self._inboxes[rank].put(("epoch", {
                "epoch": epoch, "rank": state, "lr": optimizer.lr,
                "feats_version": self._feats_version,
                "trace_id": trace_id,
                "stall_seconds": self._stall_next.pop(rank, 0.0),
            }))

        results = self._await("done", epoch, self.k)
        # The parent's model is one more replica: stepping it keeps
        # checkpoints and ``trainer.model`` current, and nothing waits.
        apply_reduced_grad(self.model, optimizer, self._bufs.pbuf.array)
        loss = sum(results[rank]["loss"] for rank in sorted(results))

        compute = np.zeros(self.k)
        comm = np.zeros(self.k)
        total_bytes = 0.0
        total_messages = 0
        reg = obs.get_registry()
        for rank in sorted(results):
            stats = results[rank]
            compute[rank] = stats["compute_seconds"]
            comm[rank] = stats["comm_seconds"]
            total_bytes += stats["bytes"]
            total_messages += stats["messages"]
            reg.merge(stats["telemetry"])
        obs.counter(BYTES_COUNTER).add(total_bytes)
        obs.counter(MESSAGES_COUNTER).add(total_messages)
        self._poll_telemetry()  # final sample: phase/epoch gauges current

        wall = time.perf_counter() - t0
        obs.event(
            "epoch",
            epoch=epoch,
            loss=loss,
            wall_seconds=wall,
            bytes=total_bytes,
            messages=total_messages,
            backend="process",
            workers=self.k,
        )
        return MultiprocessEpochStats(
            epoch=epoch,
            loss=loss,
            wall_seconds=wall,
            compute_seconds=compute,
            comm_seconds=comm,
            total_bytes=total_bytes,
            total_messages=total_messages,
        )
