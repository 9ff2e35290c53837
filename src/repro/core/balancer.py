"""ADB — application-driven workload balancing (Sections 5 and 6).

Conventional partitioners balance static metrics (vertex/edge counts),
but GNN training cost per vertex depends on the model's neighborhood
definition, so a statically balanced partition can be badly skewed
(the Figure 11 example: 60 vs 600).  ADB:

1. estimates each partition's workload with the learned
   :class:`~repro.core.cost_model.CostModel` (or the analytical default);
2. when the balance factor exceeds a threshold, generates a pre-defined
   number of *balancing plans* — each grown by a BFS over the HDG-induced
   dependency graph from a random seed inside the most overloaded
   partition, greedily keeping vertices within a cost budget; the
   excluded vertices become migration candidates;
3. picks the plan that cuts the fewest induced-graph edges (bounding the
   synchronization traffic migration would add) and applies it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.graph import group_by
from .cost_model import CostModel
from .hdg import HDG

__all__ = ["BalancePlan", "ADBBalancer", "induced_dependency_edges",
           "REBALANCE_EVENT"]

#: event emitted by every rebalance() call: balance factor before/after,
#: plans generated/rejected, and the chosen plan's cut/migration size.
REBALANCE_EVENT = "adb.rebalance"


def induced_dependency_edges(hdg: HDG) -> tuple[np.ndarray, np.ndarray]:
    """The induced graph of the HDGs (Figure 11b): one edge per
    (root, dependency-leaf) pair, deduplicated.

    Only roots and leaves can be replicated across partitions, so these
    edges are exactly the potential synchronization channels.
    """
    if hdg.depth == 1:
        counts = np.diff(hdg.leaf_offsets)
        roots = np.repeat(hdg.roots, counts)
        leaves = hdg.leaf_vertices
    else:
        inst_root = hdg.instance_roots()
        counts = np.diff(hdg.leaf_offsets)
        roots = hdg.roots[np.repeat(inst_root, counts)]
        leaves = hdg.leaf_vertices
    keep = roots != leaves
    pairs = np.unique(np.stack([roots[keep], leaves[keep]], axis=1), axis=0)
    if pairs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return pairs[:, 0], pairs[:, 1]


@dataclass
class BalancePlan:
    """One candidate migration: which vertices move where, and its quality."""

    labels: np.ndarray        # full new assignment
    moved: np.ndarray         # vertex ids that migrate
    source_partition: int
    target_partition: int
    cut_edges: int            # induced-graph cut after applying the plan
    balance_factor: float


class ADBBalancer:
    """Online application-driven workload balancer.

    Parameters
    ----------
    num_plans:
        How many balancing plans to generate before choosing (the
        implementation in the paper generates 5).
    threshold:
        Balance factor (max/mean partition cost) above which rebalancing
        triggers.
    seed:
        Seed for plan-seed sampling.
    """

    def __init__(self, num_plans: int = 5, threshold: float = 1.1, seed: int = 0):
        if num_plans <= 0:
            raise ValueError("num_plans must be positive")
        if threshold < 1.0:
            raise ValueError("threshold below 1.0 can never be satisfied")
        self.num_plans = num_plans
        self.threshold = threshold
        self._rng = np.random.default_rng(seed)
        self.cost_model = CostModel()
        #: result of the drift check run on the most recent observe()
        #: (None until the model has been fitted at least once before)
        self.last_drift: dict | None = None

    # ------------------------------------------------------------------
    def observe(self, metrics: np.ndarray, observed_costs: np.ndarray,
                drift_threshold: float = 0.5) -> None:
        """Feed sampled running logs; fits the polynomial cost function.

        Before refitting, an already-fitted model is drift-checked
        against the fresh observations (predicted-vs-actual feedback):
        the relative error lands in the ``adb.cost_model.drift`` gauge
        and, past ``drift_threshold``, an ``adb.cost_model.drift_flagged``
        event — so a workload shift is visible *before* the refit hides
        it.  The result is kept in :attr:`last_drift`.
        """
        if self.cost_model.is_fitted:
            self.last_drift = self.cost_model.drift_check(
                metrics, observed_costs, threshold=drift_threshold
            )
        self.cost_model.fit(metrics, observed_costs)

    def per_root_costs(self, metrics: np.ndarray) -> np.ndarray:
        """Predicted per-root costs (learned model, else analytical default)."""
        if self.cost_model.is_fitted:
            return self.cost_model.predict(metrics)
        return CostModel.default_costs(metrics)

    # ------------------------------------------------------------------
    def rebalance(
        self,
        hdg: HDG,
        labels: np.ndarray,
        k: int,
        metrics: np.ndarray,
    ) -> tuple[np.ndarray, BalancePlan | None]:
        """Return a (possibly) improved assignment and the chosen plan.

        ``labels`` assigns every input-graph vertex to one of ``k``
        partitions; only root vertices carry workload, but leaves count
        for the induced-graph cut.
        """
        labels = np.asarray(labels, dtype=np.int64).copy()
        costs = np.zeros(hdg.num_input_vertices)
        costs[hdg.roots] = self.per_root_costs(metrics)
        part_costs = np.zeros(k)
        np.add.at(part_costs, labels, costs)
        balance = _balance_factor(part_costs)
        obs.gauge("adb.balance_factor").set(balance)
        if balance <= self.threshold:
            self._emit_rebalance(balance, balance, 0, 0, None)
            return labels, None

        src_roots, dst_leaves = induced_dependency_edges(hdg)
        adjacency = _build_adjacency(src_roots, dst_leaves)

        best: BalancePlan | None = None
        generated = 0
        for _ in range(self.num_plans):
            plan = self._generate_plan(
                hdg, labels, k, costs, part_costs, adjacency, src_roots, dst_leaves
            )
            if plan is None:
                continue
            generated += 1
            if best is None or (plan.cut_edges, plan.balance_factor) < (
                best.cut_edges,
                best.balance_factor,
            ):
                best = plan
        if best is None or best.balance_factor >= balance:
            self._emit_rebalance(balance, balance, generated, generated, None)
            return labels, None
        self._emit_rebalance(
            balance, best.balance_factor, generated, generated - 1, best
        )
        obs.gauge("adb.balance_factor").set(best.balance_factor)
        return best.labels, best

    def _emit_rebalance(
        self,
        balance_before: float,
        balance_after: float,
        generated: int,
        rejected: int,
        plan: BalancePlan | None,
    ) -> None:
        attrs = {
            "balance_before": balance_before,
            "balance_after": balance_after,
            "plans_generated": generated,
            "plans_rejected": rejected,
            "triggered": plan is not None,
        }
        if plan is not None:
            attrs.update(
                cut_edges=plan.cut_edges,
                moved_vertices=int(plan.moved.size),
                source_partition=plan.source_partition,
                target_partition=plan.target_partition,
            )
            obs.gauge("adb.moved_vertices").set(plan.moved.size)
            obs.gauge("adb.cut_edges").set(plan.cut_edges)
        obs.event(REBALANCE_EVENT, **attrs)

    # ------------------------------------------------------------------
    def _generate_plan(
        self,
        hdg: HDG,
        labels: np.ndarray,
        k: int,
        costs: np.ndarray,
        part_costs: np.ndarray,
        adjacency: dict[int, np.ndarray],
        src_roots: np.ndarray,
        dst_leaves: np.ndarray,
    ) -> BalancePlan | None:
        overloaded = int(np.argmax(part_costs))
        underloaded = int(np.argmin(part_costs))
        if overloaded == underloaded:
            return None
        members = np.flatnonzero(labels == overloaded)
        member_set = set(members.tolist())
        if not member_set:
            return None
        budget = float(part_costs.mean())
        seed = int(self._rng.choice(members))

        # BFS over the induced graph restricted to the overloaded
        # partition; greedily *keep* vertices while within budget.
        kept: set[int] = set()
        kept_cost = 0.0
        visited: set[int] = set()
        queue: deque[int] = deque([seed])
        visited.add(seed)
        while queue:
            v = queue.popleft()
            if kept_cost + costs[v] <= budget:
                kept.add(v)
                kept_cost += costs[v]
            for u in adjacency.get(v, ()):  # type: ignore[arg-type]
                u = int(u)
                if u in member_set and u not in visited:
                    visited.add(u)
                    queue.append(u)
        # Vertices of the partition never reached by BFS also stay unless
        # they are cheaper to move; the paper treats BFS-excluded vertices
        # as candidates, so unreached ones are candidates too.
        candidates = np.array(sorted(member_set - kept), dtype=np.int64)
        if candidates.size == 0:
            return None
        # Cap the migration so the target partition does not overshoot:
        # keep only the longest prefix whose *cumulative* cost fits the
        # headroom (searchsorted side="right" counts prefixes <= headroom;
        # the previous +1 off-by-one admitted the first candidate that
        # exceeded it).
        move_cost = costs[candidates].sum()
        headroom = budget - part_costs[underloaded]
        if move_cost > headroom > 0:
            order = self._rng.permutation(candidates.size)
            running = np.cumsum(costs[candidates[order]])
            fits = int(np.searchsorted(running, headroom, side="right"))
            if fits == 0:
                return None
            candidates = candidates[np.sort(order[:fits])]

        new_labels = labels.copy()
        new_labels[candidates] = underloaded
        cut = int(np.count_nonzero(new_labels[src_roots] != new_labels[dst_leaves]))
        new_part_costs = part_costs.copy()
        moved_cost = costs[candidates].sum()
        new_part_costs[overloaded] -= moved_cost
        new_part_costs[underloaded] += moved_cost
        return BalancePlan(
            labels=new_labels,
            moved=candidates,
            source_partition=overloaded,
            target_partition=underloaded,
            cut_edges=cut,
            balance_factor=_balance_factor(new_part_costs),
        )


def _balance_factor(part_costs: np.ndarray) -> float:
    mean = part_costs.mean()
    if mean <= 0:
        return 1.0
    return float(part_costs.max() / mean)


def _build_adjacency(src: np.ndarray, dst: np.ndarray) -> dict[int, np.ndarray]:
    """Undirected adjacency dict of the induced graph."""
    if src.size == 0:
        return {}
    all_src = np.concatenate([src, dst])
    offsets, order = group_by(all_src, int(all_src.max()) + 1)
    all_dst = np.concatenate([dst, src])[order]
    return {int(v): all_dst[offsets[v]:offsets[v + 1]]
            for v in np.flatnonzero(np.diff(offsets))}
