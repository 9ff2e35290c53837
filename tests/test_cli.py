"""Tests for the flexgraph CLI."""

import os
import sys

import pytest

from repro.cli import build_parser, main

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import make_ondisk  # noqa: E402


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "gcn"
        assert args.strategy == "ha"
        assert args.epochs == 20

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "transformer"])

    def test_distributed_flags(self):
        args = build_parser().parse_args(
            ["distributed", "--workers", "4", "--no-pipeline", "--balance"]
        )
        assert args.workers == 4
        assert args.no_pipeline and args.balance


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--dataset", "imdb", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "imdb-like" in out
        assert "movie" in out

    def test_train_gcn(self, capsys):
        rc = main(["train", "--model", "gcn", "--dataset", "reddit",
                   "--scale", "tiny", "--epochs", "2"])
        assert rc == 0
        assert "test acc" in capsys.readouterr().out

    def test_train_with_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        rc = main(["train", "--model", "gcn", "--dataset", "reddit",
                   "--scale", "tiny", "--epochs", "1", "--checkpoint", path])
        assert rc == 0
        from repro.storage import load_checkpoint

        state, meta = load_checkpoint(path)
        assert meta["model"] == "gcn"
        assert any("weight" in k for k in state)

    def test_ondisk_checkpoint_serves_in_ram(self, tmp_path, capsys):
        """make_ondisk, train --ondisk --checkpoint, then serve the same
        dataset from RAM: the checkpoint's graph fingerprint matches."""
        root, path = str(tmp_path / "ondisk"), str(tmp_path / "model.npz")
        assert make_ondisk.main(["--dataset", "reddit", "--scale", "tiny",
                                 root]) == 0
        assert main(["train", "--model", "gcn", "--ondisk", root,
                     "--epochs", "1", "--checkpoint", path]) == 0
        assert main(["serve", "--model", "gcn", "--dataset", "reddit",
                     "--scale", "tiny", "--checkpoint", path,
                     "--requests", "8"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_train_minibatch_int8_store(self, capsys):
        assert main(["train", "--model", "gcn", "--dataset", "reddit",
                     "--scale", "tiny", "--epochs", "1", "--minibatch",
                     "--feature-dtype", "int8"]) == 0
        assert "test acc" in capsys.readouterr().out

    def test_serve_int8_store_caches_int8(self, capsys):
        assert main(["serve", "--model", "gcn", "--dataset", "reddit",
                     "--scale", "tiny", "--train-epochs", "1",
                     "--requests", "8", "--feature-dtype", "int8"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "int8 rows" in out

    def test_train_magnn_on_imdb(self, capsys):
        rc = main(["train", "--model", "magnn", "--dataset", "imdb",
                   "--scale", "tiny", "--epochs", "1"])
        assert rc == 0

    def test_distributed(self, capsys):
        rc = main(["distributed", "--model", "gcn", "--dataset", "reddit",
                   "--scale", "tiny", "--workers", "2", "--epochs", "1"])
        assert rc == 0
        assert "simulated" in capsys.readouterr().out

    def test_distributed_with_balance(self, capsys):
        rc = main(["distributed", "--model", "gcn", "--dataset", "twitter",
                   "--scale", "tiny", "--workers", "4", "--epochs", "1",
                   "--balance"])
        assert rc == 0
        assert "ADB" in capsys.readouterr().out


class TestLinkPredCommand:
    def test_linkpred_runs(self, capsys):
        rc = main(["linkpred", "--dataset", "reddit", "--scale", "tiny",
                   "--epochs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AUC=" in out

    def test_linkpred_rejects_hierarchical_models(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["linkpred", "--model", "magnn"])


class TestBenchCommand:
    def test_bench_runs(self, capsys):
        rc = main(["bench", "--dataset", "reddit", "--scale", "tiny",
                   "--model", "gcn", "--epochs", "1",
                   "--engines", "dgl", "flexgraph"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dgl" in out and "flexgraph" in out

    def test_bench_unknown_engine(self):
        with pytest.raises(KeyError):
            main(["bench", "--dataset", "reddit", "--scale", "tiny",
                  "--engines", "tensorflow"])


class TestMetricsCommand:
    def test_metrics_runs(self, capsys):
        rc = main(["metrics", "--dataset", "imdb", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree_skew" in out and "label_homophily" in out
