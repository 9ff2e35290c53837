"""``serve_mixed``: the online server under reads and writes.

One open-loop generator thread sends 4-seed ``predict`` requests on a
fixed schedule — Zipf-distributed over a seeded permutation of the
vertices — and times each from the moment it was *due*, so a stall is
charged to every request it delays.  Read phase: three fixed rates.
Churn phase: the middle rate again while a writer thread inserts edges
through ``apply_edge_changes``.  A request that errors or is shed is a
failed operation; one that misses the latency limit fails its rate.

Untraced: ``GNNServer.submit`` and nothing else.  Traced: each submit
and each request (due -> done) is a span, followed by direct probes of
the session, the caches and the batcher.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import obs
from repro.core import FlexGraphEngine
from repro.datasets import fb91_like
from repro.models import gcn
from repro.serve import (
    EmbeddingCache, GNNServer, InferenceSession, MicroBatcher,
    ServerOverloaded,
)
from repro.tensor import Tensor

from .common import forget_caches
from .hostspeed import HostSpeed
from .kernels import kernel_probes
from .measure import Ctx, LeakGuard, Result, median, repeat_setup, tail, timed
from .sizes import HIDDEN, LIMIT_MS

CHECK_REQUESTS = 64    # responses compared with FlexGraphEngine.predict


class _State:
    """Dataset, pinned session, started server, warmed caches."""

    def __init__(self, ctx: Ctx):
        cfg = ctx.cfg
        n = cfg["vertices"]
        self.ds, self.generate_s = timed(fb91_like, n, seed=ctx.seed)
        self.model = gcn(self.ds.feat_dim, HIDDEN, self.ds.num_classes,
                         seed=ctx.seed)
        self.session = InferenceSession(
            self.model, self.ds.graph, self.ds.features,
            embed_cache_bytes=cfg["cache_bytes"], seed=ctx.seed,
        )
        self.server = GNNServer(self.session,
                                num_workers=cfg["workers"]).start()
        # Popularity: Zipf over a seeded permutation, so hot vertices
        # are not the low ids (which the generator makes the hubs).
        self.rng = np.random.default_rng([ctx.seed, 1])
        self.perm = self.rng.permutation(n)
        cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** cfg["zipf"])
        self.cdf = cdf / cdf[-1]
        self.width = cfg["seeds_per_request"]
        for seeds in self.draw(cfg["warm_requests"]):
            self.server.predict(seeds)

    def draw(self, count: int) -> np.ndarray:
        """``count`` requests' seed vertices, shape (count, width)."""
        ranks = np.searchsorted(self.cdf, self.rng.random((count, self.width)))
        return self.perm[np.minimum(ranks, self.perm.size - 1)]

    def close(self) -> None:
        self.server.stop()


def _teardown(state: _State) -> None:
    state.close()
    forget_caches()


class _Phase:
    """One open-loop phase: what was sent and what came back."""

    def __init__(self, rate: float, count: int):
        self.rate = rate
        self.sent = count
        self.latency = np.full(count, np.nan)   # seconds from due time
        self.due = np.zeros(count)
        self.late = np.zeros(count)             # generator lateness
        self.shed = 0
        self.errors: list = []
        self.backlog_end = 0
        self.writes: list[tuple] = []           # (start, end, evicted)

    @property
    def ms(self) -> np.ndarray:
        return self.latency[~np.isnan(self.latency)] * 1e3

    @property
    def lost(self) -> int:
        """Requests that were shed, errored or never completed."""
        return self.sent - int(np.count_nonzero(~np.isnan(self.latency)))

    def ok_frac(self) -> float:
        return float(np.count_nonzero(self.ms <= LIMIT_MS)) / max(self.sent, 1)

    def passes(self) -> bool:
        """>= 99% of requests sent within the limit, and no backlog
        beyond what the limit itself allows at this rate."""
        return (self.ok_frac() >= 0.99
                and self.backlog_end <= max(8, self.rate * LIMIT_MS / 1e3))

    def pct(self, q: float) -> float:
        return float(np.percentile(self.ms, q)) if self.ms.size else 0.0


def _open_loop(state: _State, rate: float, seconds: float, tracer=None,
               op0: int = 0, writes: int = 0, edges_per_write: int = 0) -> _Phase:
    """Send ``rate * seconds`` requests on schedule from this thread."""
    count = max(int(rate * seconds), 4)
    seeds = state.draw(count)
    phase = _Phase(rate, count)
    latency, due_at, errors = phase.latency, phase.due, phase.errors
    submit = state.server.submit

    def on_done(i: int, due: float):
        def callback(future):
            now = time.perf_counter()
            if future.exception() is None:
                latency[i] = now - due
            else:
                errors.append(repr(future.exception()))
            if tracer is not None:
                tracer.add("serve.request", due, now, op=op0 + i)
        return callback

    start = time.perf_counter() + 0.02
    writer = None
    if writes:
        n = state.session.graph.num_vertices
        edges = state.rng.integers(0, n, size=(writes, edges_per_write, 2))
        writer = threading.Thread(
            target=_write_edges, name="ledger-writer",
            args=(state.session, edges, start, seconds, phase.writes, tracer),
        )
        writer.start()
    for i in range(count):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        due_at[i] = due
        phase.late[i] = time.perf_counter() - due
        try:
            if tracer is None:
                future = submit("predict", seeds[i])
            else:
                with tracer.span("serve.submit", op=op0 + i):
                    future = submit("predict", seeds[i])
        except ServerOverloaded:
            phase.shed += 1
            continue
        future.add_done_callback(on_done(i, due))
    phase.backlog_end = phase.lost - phase.shed - len(errors)
    if writer is not None:
        writer.join()
    deadline = time.perf_counter() + 5.0
    while phase.lost > phase.shed + len(errors) and time.perf_counter() < deadline:
        time.sleep(0.002)
    return phase


def _write_edges(session, edges, start: float, seconds: float, out: list,
                 tracer) -> None:
    """Insert ``edges[j]`` at evenly spaced times across the phase."""
    for j, batch in enumerate(edges):
        delay = start + (j + 0.5) * seconds / len(edges) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t0 = time.perf_counter()
        evicted = session.apply_edge_changes(added=batch)
        t1 = time.perf_counter()
        out.append((t0, t1, evicted))
        if tracer is not None:
            tracer.add("serve.write", t0, t1, op=j)


def _check_predictions(state: _State, result: Result, when: str) -> None:
    """Served responses equal a full-graph ``FlexGraphEngine.predict`` on
    the session's current graph."""
    session = state.session
    engine = FlexGraphEngine(session.model, session.graph)
    expected = engine.predict(Tensor(state.ds.features))
    for seeds in state.draw(CHECK_REQUESTS):
        got = state.server.predict(seeds)
        if not np.array_equal(got, expected[seeds]):
            result.violations.append(
                f"{when}: served predictions for {seeds.tolist()} differ "
                f"from FlexGraphEngine.predict")
            return


def _account(result: Result, phases: list[_Phase]) -> None:
    for phase in phases:
        result.attempted += phase.sent
        result.failed += phase.lost
        for error in phase.errors[:3]:
            result.violations.append(f"request failed: {error}")


def _ok_rate(reads: list[_Phase]) -> float:
    return max([p.rate for p in reads if p.passes()], default=0.0)


def _read_phases(state: _State, ctx: Ctx, tracer=None,
                 speed=None) -> list[_Phase]:
    """One open-loop phase at each of the three rates; each takes a
    quarter of the timed section (the churn phase is the fourth)."""
    cfg = ctx.cfg
    slot = ctx.seconds / (len(cfg["rates"]) + 1)
    reads, op0 = [], 0
    for rate in cfg["rates"]:
        if speed is not None:   # between phases, never inside one
            for _ in range(3):
                speed.sample()
        reads.append(_open_loop(state, rate, slot, tracer, op0))
        op0 += reads[-1].sent
    return reads


def _churn_phase(state: _State, ctx: Ctx, result: Result, reads: list[_Phase],
                 tracer=None) -> _Phase:
    """The middle rate again, with edge insertions; served responses are
    checked against the engine just before and just after."""
    cfg = ctx.cfg
    slot = ctx.seconds / (len(cfg["rates"]) + 1)
    _check_predictions(state, result, "before churn")
    churn = _open_loop(state, cfg["rates"][1], slot, tracer,
                       sum(p.sent for p in reads), writes=cfg["writes"],
                       edges_per_write=cfg["edges_per_write"])
    _check_predictions(state, result, "after churn")
    _account(result, reads + [churn])
    return churn


def _serve_numbers(reads: list[_Phase], churn: _Phase) -> dict:
    """The serve-specific figures, by their per-layer metric names."""
    sent = sum(p.sent for p in reads) + churn.sent
    stalls = [
        lat for lat, due in zip(churn.latency * 1e3, churn.due)
        if lat == lat and any(t0 <= due <= t1 for t0, t1, _ in churn.writes)
    ]
    return {
        "serve.p99_ms_r1": reads[0].pct(99),
        "serve.p99_ms_r2": reads[1].pct(99),
        "serve.p99_ms_r3": reads[2].pct(99),
        "serve.ok_rate_rps": _ok_rate(reads),
        "serve.churn_p99_ms": churn.pct(99),
        "serve.write_ms": median([(t1 - t0) * 1e3
                                  for t0, t1, _ in churn.writes]),
        "serve.write_evicted_rows": median([e for _, _, e in churn.writes]),
        "serve.write_stall_ms": max(stalls, default=0.0),
        "serve.shed_frac": (sum(p.shed for p in reads) + churn.shed) / sent,
        "serve.late_p99_ms": float(np.percentile(
            np.concatenate([p.late for p in reads + [churn]]), 99)) * 1e3,
    }


def untraced(ctx: Ctx) -> Result:
    result = Result()
    guard = LeakGuard()
    state, setups = repeat_setup(lambda: _State(ctx), _teardown,
                                 ctx.setup_repeats)
    result.put("setup_s", median(setups), setups)
    reads = _read_phases(state, ctx)
    churn = _churn_phase(state, ctx, result, reads)
    result.put("op_p50_ms", reads[1].pct(50), reads[1].ms)
    result.notes.update(_serve_numbers(reads, churn))
    _teardown(state)
    guard.check(result)
    return result


def _closed_loop(state: _State, clients: int, seconds: float) -> float:
    """Requests per second with ``clients`` callers that each wait for
    their reply before sending the next."""
    seeds = state.draw(4096)
    done = [0] * clients
    stop = time.perf_counter() + seconds

    def client(j: int) -> None:
        i = j
        while time.perf_counter() < stop:
            state.server.predict(seeds[i % len(seeds)])
            i += clients
            done[j] += 1

    threads = [threading.Thread(target=client, args=(j,)) for j in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sum(done) / (time.perf_counter() - t0)


def _probes(state: _State, result: Result, count: int) -> None:
    """Direct calls into the serve layers, outside the server."""
    session = state.session
    miss, hit = [], []
    for seeds in state.draw(count):
        session.embed_cache.clear()
        miss.append(timed(session.embed, seeds)[1] * 1e3)
        hit.append(timed(session.embed, seeds)[1] * 1e3)
    result.put("serve.session_miss_ms", median(miss), miss)
    result.put("serve.session_hit_ms", median(hit), hit)

    cache = EmbeddingCache(1 << 20)
    vertices = np.arange(64, dtype=np.int64)
    rows = np.zeros((64, HIDDEN))
    store, lookup = [], []
    for _ in range(count):
        store.append(timed(cache.store, 1, vertices, rows, 0)[1] * 1e6)
        lookup.append(timed(cache.lookup, 1, vertices)[1] * 1e6)
    result.put("serve.cache_store_us", median(store), store)
    result.put("serve.cache_lookup_us", median(lookup), lookup)

    batcher = MicroBatcher(max_batch_size=1, max_delay=0.0)
    seeds = np.arange(4, dtype=np.int64)
    trips = []
    for _ in range(count * 5):
        t0 = time.perf_counter()
        batcher.submit("predict", seeds)
        batcher.next_batch()
        trips.append((time.perf_counter() - t0) * 1e6)
    result.put("serve.batcher_roundtrip_us", median(trips), trips)


def traced(ctx: Ctx) -> Result:
    result = Result()
    guard = LeakGuard()
    tracer, cfg = ctx.tracer, ctx.cfg
    state = _State(ctx)
    result.put("datasets.generate_s", state.generate_s)
    slot = ctx.seconds / (len(cfg["rates"]) + 1)
    session = state.session

    def reference() -> tuple[_Phase, _Phase]:
        """Untraced half-slot phases at the middle rate: obs recording
        on, then off."""
        on = _open_loop(state, cfg["rates"][1], slot / 2)
        obs.disable()
        try:
            off = _open_loop(state, cfg["rates"][1], slot / 2)
        finally:
            obs.enable()
        _account(result, [on, off])
        return on, off

    # References before and after the traced reads, so host drift hits
    # reference and traced alike.
    refs = [reference()]
    before = session.stats()
    batches0 = state.server.slo_summary()["batches"]["count"]
    speed = HostSpeed()
    reads = _read_phases(state, ctx, tracer, speed)
    after = session.stats()
    batches = state.server.slo_summary()["batches"]["count"] - batches0
    refs.append(reference())
    churn = _churn_phase(state, ctx, result, reads, tracer)
    on_ms = np.concatenate([on.ms for on, _ in refs])
    off_ms = np.concatenate([off.ms for _, off in refs])

    r2 = reads[1]
    result.put("trace.op_ms", r2.pct(50), r2.ms)
    pct, value = tail(r2.ms)
    result.put("op_tail_ms", value)
    result.put("op_tail_pct", pct)
    result.put("ops_timed", r2.ms.size)
    result.put("host.speed_factor", speed.factor)
    ctx.check_overhead(result, list(r2.ms), *(list(on.ms) for on, _ in refs))
    result.put("trace.ref_op_ms", float(np.median(on_ms)), on_ms)
    result.put("obs.off_op_ms", float(np.median(off_ms)), off_ms)
    for name, value in _serve_numbers(reads, churn).items():
        result.put(name, value)

    def hit_rate(cache: str) -> float:
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        return hits / max(hits + misses, 1)

    result.put("serve.embed_hit_rate", hit_rate("embed_cache"))
    result.put("serve.block_hit_rate", hit_rate("block_cache"))
    completed = sum(p.sent - p.lost for p in reads)
    result.put("serve.batches", batches)
    result.put("serve.batch_size_mean", completed / max(batches, 1))

    result.put("serve.closed_rps",
               _closed_loop(state, 2, cfg["closed_seconds"]))
    _probes(state, result, cfg["probes"])
    hdg = session.hdg
    result.put("core.hdg_bytes", hdg.nbytes)
    result.put("core.hdg_levels", hdg.depth)
    kernel_probes(result, hdg, ctx.seed)
    _teardown(state)
    guard.check(result)
    return result
