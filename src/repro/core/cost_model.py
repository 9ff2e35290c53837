"""Learned polynomial cost function for GNN training workload (Section 5).

FlexGraph estimates the per-root-vertex training cost with a polynomial
``f`` over two families of metric variables (following Fan et al.'s
application-driven partitioning):

* ``n_1..n_k`` — the number of neighbor instances of each type;
* ``m_1..m_k`` — the size of each type's instances (member vertices times
  feature dimension).

The paper's MAGNN example is ``f = n1*m1 + n2*m2``.  :class:`CostModel`
fits the coefficients of ``[1, n_t, m_t, n_t*m_t]`` by least squares from
sampled running logs (per-root observed costs) and predicts per-root
costs; partition cost is the sum over its roots.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .hdg import HDG

__all__ = ["CostModel", "metrics_from_hdg",
           "R_SQUARED_GAUGE", "DRIFT_GAUGE", "DRIFT_EVENT"]

#: calibration metric every fit() publishes, so cost-model drift across
#: epochs is visible in traces without extra plumbing.
R_SQUARED_GAUGE = "adb.cost_model.r_squared"
#: relative prediction error of the *previous* fit against fresh
#: observations (published by drift_check; the feedback loop that makes
#: a stale cost model visible instead of silently misbalancing).
DRIFT_GAUGE = "adb.cost_model.drift"
DRIFT_EVENT = "adb.cost_model.drift_flagged"


def metrics_from_hdg(hdg: HDG, feat_dim: int) -> np.ndarray:
    """Per-root metric matrix ``[n_1..n_k, m_1..m_k]``.

    ``n_t`` counts type-``t`` neighbor instances of the root; ``m_t`` is
    the average member-vertex count of those instances times ``feat_dim``
    (the paper's "size of each type of neighbor instance": a 3-vertex
    metapath instance with dim-20 features has m = 60).
    """
    n = hdg.instance_counts_per_type().astype(np.float64)  # (roots, k)
    num_types = n.shape[1]
    leaf_counts = hdg.leaf_counts().astype(np.float64)
    m = np.zeros_like(n)
    if hdg.depth == 1:
        # Flat: every instance is a single vertex, so m_t = feat_dim.
        m[:] = feat_dim
    else:
        inst_root = hdg.instance_roots()
        inst_type = hdg.instance_types()
        sums = np.zeros((hdg.num_roots, num_types))
        np.add.at(sums, (inst_root, inst_type), leaf_counts)
        with np.errstate(invalid="ignore"):
            m = np.where(n > 0, sums / np.maximum(n, 1.0), 0.0) * feat_dim
    return np.concatenate([n, m], axis=1)


class CostModel:
    """Polynomial regression over per-root workload metrics.

    The feature expansion of a metric row ``[n_1..n_k, m_1..m_k]`` is
    ``[1, n_1..n_k, m_1..m_k, n_1*m_1..n_k*m_k]`` — degree-2 cross terms
    only between matching types, which contains the paper's example
    ``f = n1*m1 + n2*m2`` exactly.
    """

    def __init__(self):
        self.coef_: np.ndarray | None = None

    @staticmethod
    def _expand(metrics: np.ndarray) -> np.ndarray:
        metrics = np.asarray(metrics, dtype=np.float64)
        if metrics.ndim != 2 or metrics.shape[1] % 2 != 0:
            raise ValueError("metrics must be (roots, 2k): n_t columns then m_t columns")
        k = metrics.shape[1] // 2
        n, m = metrics[:, :k], metrics[:, k:]
        ones = np.ones((metrics.shape[0], 1))
        return np.concatenate([ones, n, m, n * m], axis=1)

    @property
    def is_fitted(self) -> bool:
        return self.coef_ is not None

    def fit(self, metrics: np.ndarray, observed_costs: np.ndarray) -> "CostModel":
        """Least-squares fit of the polynomial to sampled running logs.

        Each fit publishes the in-sample R² as the
        ``adb.cost_model.r_squared`` gauge (its history across epochs
        shows drift); :meth:`calibration` reports the exact residual
        quartiles of any batch of observations.
        """
        x = self._expand(metrics)
        y = np.asarray(observed_costs, dtype=np.float64)
        if y.shape != (x.shape[0],):
            raise ValueError(f"observed costs must be ({x.shape[0]},), got {y.shape}")
        self.coef_, *_ = np.linalg.lstsq(x, y, rcond=None)
        pred = np.maximum(x @ self.coef_, 0.0)
        obs.gauge(R_SQUARED_GAUGE).set(_r_squared(y, pred))
        return self

    def predict(self, metrics: np.ndarray) -> np.ndarray:
        """Per-root predicted costs, clipped at zero (costs are not negative)."""
        if not self.is_fitted:
            raise RuntimeError("cost model is not fitted; call fit() first")
        return np.maximum(self._expand(metrics) @ self.coef_, 0.0)

    def r_squared(self, metrics: np.ndarray, observed_costs: np.ndarray) -> float:
        """Coefficient of determination on held-out observations."""
        y = np.asarray(observed_costs, dtype=np.float64)
        return _r_squared(y, self.predict(metrics))

    def calibration(self, metrics: np.ndarray,
                    observed_costs: np.ndarray) -> dict:
        """R² plus residual quartiles on one batch of observations."""
        y = np.asarray(observed_costs, dtype=np.float64)
        residuals = np.abs(y - self.predict(metrics))
        return {
            "r_squared": _r_squared(y, self.predict(metrics)),
            "residual_p50": float(np.percentile(residuals, 50)),
            "residual_p90": float(np.percentile(residuals, 90)),
            "residual_max": float(residuals.max()) if residuals.size else 0.0,
            "n": int(y.size),
        }

    def drift_check(self, metrics: np.ndarray, observed_costs: np.ndarray,
                    threshold: float = 0.5) -> dict:
        """Predicted-vs-actual feedback loop: how far has the workload
        moved from what this model was fitted on?

        Drift is the relative mean absolute error of the current fit's
        predictions against freshly observed costs::

            drift = mean(|predict(metrics) - observed|) / mean(|observed|)

        A model still describing the workload scores near 0; a model fit
        on a structurally different workload (different schema, skew, or
        degree distribution) scores high.  The value is published as the
        ``adb.cost_model.drift`` gauge every call; when it exceeds
        ``threshold`` the check is *flagged* and an
        ``adb.cost_model.drift_flagged`` event is emitted.

        Returns ``{"drift", "threshold", "flagged", "r_squared", "n"}``.
        """
        if threshold <= 0:
            raise ValueError("drift threshold must be positive")
        y = np.asarray(observed_costs, dtype=np.float64)
        pred = self.predict(metrics)
        scale = max(float(np.abs(y).mean()), 1e-12)
        drift = float(np.abs(pred - y).mean()) / scale
        flagged = drift > threshold
        obs.gauge(DRIFT_GAUGE).set(drift)
        if flagged:
            obs.event(DRIFT_EVENT, drift=drift, threshold=float(threshold),
                      n=int(y.size))
        return {
            "drift": drift,
            "threshold": float(threshold),
            "flagged": flagged,
            "r_squared": _r_squared(y, pred),
            "n": int(y.size),
        }

    @staticmethod
    def default_costs(metrics: np.ndarray) -> np.ndarray:
        """The analytical fallback ``f = sum_t n_t * m_t`` used before any
        logs are sampled (the paper's hand-derived MAGNN cost)."""
        metrics = np.asarray(metrics, dtype=np.float64)
        k = metrics.shape[1] // 2
        return (metrics[:, :k] * metrics[:, k:]).sum(axis=1)


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination, with a tolerance for constant ``y``."""
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        tolerance = 1e-10 * max(1.0, float((y**2).sum()))
        return 1.0 if ss_res <= tolerance else 0.0
    return 1.0 - ss_res / ss_tot
