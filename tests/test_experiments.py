"""Tests for the programmatic experiment runners."""

import pytest

from repro.datasets import load_dataset
from repro.experiments import (
    ComparisonConfig,
    compare_engines,
    measure_epoch_cell,
    render_rows,
)
from repro.baselines import DGLEngine
from repro.baselines.sparse_engine import PyTorchEngine


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestMeasureCell:
    def test_ok_numeric(self, ds):
        cell = measure_epoch_cell(DGLEngine(ds, "gcn", hidden_dim=8), epochs=1)
        assert float(cell) > 0

    def test_oom_passthrough(self, ds):
        cell = measure_epoch_cell(
            PyTorchEngine(ds, "gcn", hidden_dim=8, memory_budget=100)
        )
        assert cell == "OOM"

    def test_unsupported_passthrough(self, ds):
        cell = measure_epoch_cell(DGLEngine(ds, "magnn", hidden_dim=8))
        assert cell == "X"


class TestCompareEngines:
    def test_subset(self, ds):
        config = ComparisonConfig(hidden_dim=8, epochs=1, memory_budget=None,
                                  time_limit=None)
        cells = compare_engines(ds, "gcn", ["dgl", "flexgraph"], config)
        assert set(cells) == {"dgl", "flexgraph"}
        assert all(float(c.lstrip("~")) > 0 for c in cells.values()
                   if c not in ("X", "OOM") and not c.startswith(">"))

    def test_unknown_engine_raises(self, ds):
        with pytest.raises(KeyError):
            compare_engines(ds, "gcn", ["jax"])

    def test_model_params_forwarded(self, ds):
        config = ComparisonConfig(
            hidden_dim=8, epochs=1, memory_budget=None, time_limit=None,
            model_params={"max_instances_per_root": 5},
        )
        cells = compare_engines(ds, "magnn", ["flexgraph"], config)
        assert "flexgraph" in cells


class TestRenderRows:
    def test_alignment(self):
        text = render_rows("T", ["a", "bbbb"], [["x", "1"], ["yyyy", "22"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title + header + rule + 2 rows
        assert lines[1].startswith("a")
