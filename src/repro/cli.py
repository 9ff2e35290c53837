"""Command-line interface: train models, inspect datasets, benchmark
engines — the operations a downstream user reaches for first.

Usage (installed as the ``flexgraph`` console script, or via
``python -m repro.cli``)::

    flexgraph info --dataset reddit --scale small
    flexgraph metrics --dataset twitter
    flexgraph train --model magnn --dataset imdb --strategy ha
    flexgraph bench --model gcn --engines dgl flexgraph
    flexgraph distributed --model gcn --dataset twitter --workers 8 --balance
    flexgraph linkpred --model gcn --dataset reddit
    flexgraph train --model gcn --checkpoint model.npz
    flexgraph serve --model gcn --checkpoint model.npz --requests 500
    flexgraph train --model gcn --trace out.json   # repro.obs JSON trace

Every dataset-bearing subcommand accepts ``--trace PATH``: the run's
native trace (schema ``repro.obs/3``) is written to PATH and its summary
— spans, counters, events and the op-level work profile — is printed.
``tools/obsview.py`` reads the file back (``summary``, ``chrome`` for
chrome://tracing or Perfetto); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .models import gat, gcn, gin, jknet, magnn, pgnn, pinsage

__all__ = ["main", "build_parser"]

#: the ``--model`` choices and the factory each one names
_MODELS = {"gcn": gcn, "gat": gat, "gin": gin, "pinsage": pinsage,
           "magnn": magnn, "pgnn": pgnn, "jknet": jknet}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexgraph",
        description="FlexGraph (EuroSys '21) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a dataset")
    _dataset_args(info)

    metrics = sub.add_parser("metrics", help="full graph characterization")
    _dataset_args(metrics)

    train = sub.add_parser("train", help="train a model with FlexGraph")
    _dataset_args(train)
    _model_args(train)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--strategy", choices=("sa", "sa+fa", "ha"), default="ha")
    train.add_argument("--checkpoint", help="save final model state to this .npz")
    train.add_argument("--ondisk", metavar="DIR",
                       help="stream from an ondisk dataset directory "
                            "(repro.ondisk/1) instead of loading in RAM; "
                            "implies sampled mini-batch training")
    train.add_argument("--minibatch", action="store_true",
                       help="sampled mini-batch training (GraphSAGE-style) "
                            "instead of full-batch")
    train.add_argument("--batch-size", type=int, default=256,
                       help="mini-batch seed count (with --minibatch/--ondisk)")
    train.add_argument("--fanouts", type=int, nargs="+", default=None,
                       help="per-layer neighbor budgets, bottom layer first")
    train.add_argument("--prefetch-depth", type=int, default=2,
                       help="loader batches produced ahead of training "
                            "(0 = synchronous)")
    train.add_argument("--feature-dtype",
                       choices=("float32", "float16", "int8"), default=None,
                       help="store features quantized and dequantize on "
                            "gather (minibatch path; with --ondisk the "
                            "dataset's own codec must already match)")
    train.add_argument("--loader-workers", type=int, default=2,
                       help="loader worker threads when prefetching")

    dist = sub.add_parser("distributed", help="simulated distributed training")
    _dataset_args(dist)
    _model_args(dist)
    dist.add_argument("--workers", type=int, default=8)
    dist.add_argument("--epochs", type=int, default=5)
    dist.add_argument("--no-pipeline", action="store_true")
    dist.add_argument("--balance", action="store_true",
                      help="apply ADB rebalancing before training")

    bench = sub.add_parser("bench", help="Table 2-style engine comparison table")
    _dataset_args(bench)
    bench.add_argument("--model", choices=("gcn", "pinsage", "magnn"), default="gcn")
    bench.add_argument("--engines", nargs="+", default=None,
                       help="engine subset (default: all)")
    bench.add_argument("--epochs", type=int, default=2)

    linkpred = sub.add_parser("linkpred", help="link prediction with a GNN encoder")
    _dataset_args(linkpred)
    linkpred.add_argument("--model", choices=("gcn", "gat", "gin"), default="gcn")
    linkpred.add_argument("--hidden-dim", type=int, default=32)
    linkpred.add_argument("--epochs", type=int, default=20)
    linkpred.add_argument("--test-fraction", type=float, default=0.1)

    serve = sub.add_parser("serve", help="online inference server + demo workload")
    _dataset_args(serve)
    _model_args(serve)
    serve.add_argument("--checkpoint",
                       help="load model state from this .npz (metadata is "
                            "verified against the dataset graph); default "
                            "trains --train-epochs first")
    serve.add_argument("--train-epochs", type=int, default=3,
                       help="warm-up training epochs when no --checkpoint")
    serve.add_argument("--requests", type=int, default=200,
                       help="demo workload request count")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf exponent of seed popularity (>1)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch-size", type=int, default=32,
                       help="micro-batch max coalesced seeds")
    serve.add_argument("--max-delay-ms", type=float, default=0.0,
                       help="hold a micro-batch open this long for more "
                            "requests (default 0: a batch is whatever "
                            "queued behind the running forward)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission bound (requests beyond it are shed)")
    serve.add_argument("--feature-dtype",
                       choices=("float32", "float16", "int8"), default=None,
                       help="pin features quantized (dequantize on gather) "
                            "and store embedding-cache rows in the same "
                            "codec")
    serve.add_argument("--slo-p99-ms", type=float, default=None,
                       help="rolling-window p99 SLO in ms; with "
                            "--flight-dir set, breaches snapshot an "
                            "incident bundle")
    return parser


def _dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("reddit", "fb91", "twitter", "imdb"),
                        default="reddit")
    parser.add_argument("--scale", choices=("tiny", "small", "bench"), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH",
                        help="export a repro.obs JSON trace of the run to "
                             "PATH and print its summary and work profile "
                             "(read it back with tools/obsview.py)")
    parser.add_argument("--flight-dir", metavar="DIR",
                        help="enable the flight recorder: journal every "
                             "span/event/log to DIR and write a "
                             "self-contained incident bundle there when "
                             "the command crashes (read it with "
                             "tools/obsview.py incident)")


def _model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=tuple(_MODELS), default="gcn")
    parser.add_argument("--hidden-dim", type=int, default=32)


def _build_model(args, dataset):
    factory = _MODELS[args.model]
    kwargs = {}
    if args.model == "magnn":
        kwargs["max_instances_per_root"] = 30
    return factory(dataset.feat_dim, args.hidden_dim, dataset.num_classes,
                   seed=args.seed, **kwargs)


def _cmd_info(args) -> int:
    from .datasets import load_dataset

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed or None)
    degrees = ds.graph.out_degree()
    print(ds)
    print(f"  vertex types : {ds.graph.type_names}")
    print(f"  degree       : mean {degrees.mean():.1f}, max {int(degrees.max())}")
    print(f"  splits       : train {int(ds.train_mask.sum())} / "
          f"val {int(ds.val_mask.sum())} / test {int(ds.test_mask.sum())}")
    print(f"  graph memory : {ds.graph.nbytes / 1e6:.2f} MB")
    return 0


def _cmd_metrics(args) -> int:
    from .datasets import load_dataset
    from .graph import graph_summary

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed or None)
    summary = graph_summary(ds.graph, ds.labels)
    print(f"{ds.name}:")
    for key, value in summary.items():
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:24s} {rendered}")
    return 0


def _write_checkpoint(args, model, ds) -> None:
    """Save a trained model with the data it was trained on: the dataset
    and scale of a by-name run, the directory and manifest name of an
    ``--ondisk`` one."""
    from .storage import checkpoint_metadata, save_checkpoint

    if args.ondisk:
        data = {"ondisk": str(args.ondisk), "dataset": ds.name}
    else:
        data = {"dataset": args.dataset, "scale": args.scale}
    meta = checkpoint_metadata(model, ds.graph,
                               extra={"model": args.model, **data})
    save_checkpoint(model.state_dict(), args.checkpoint, meta)
    print(f"checkpoint written to {args.checkpoint}")


def _cmd_minibatch_train(args) -> int:
    """Sampled mini-batch training via the streaming loader
    (``--minibatch`` or ``--ondisk``)."""
    from .core.sampling import MiniBatchTrainer
    from .datasets import load_dataset
    from .tensor import Adam, Tensor

    # The codec is the store's: an ondisk dataset's manifest fixes it,
    # and an in-RAM --feature-dtype builds a quantized store here.
    source = None
    if args.ondisk:
        from .storage import OnDiskDataset

        ds = OnDiskDataset(args.ondisk)
        print(f"streaming from {ds!r}")
        if args.feature_dtype is not None:
            stored = ds.codec or str(ds.feature_dtype)
            if args.feature_dtype != stored:
                raise SystemExit(
                    f"--feature-dtype {args.feature_dtype} conflicts with "
                    f"the ondisk dataset's storage codec {stored!r}; "
                    "regenerate the dataset with tools/make_ondisk.py "
                    f"--quantize {args.feature_dtype}"
                )
    else:
        ds = load_dataset(args.dataset, scale=args.scale)
        if args.feature_dtype is not None:
            from .loader import QuantizedSource

            source = QuantizedSource(ds.features, ds.labels,
                                     args.feature_dtype)
    model = _build_model(args, ds)
    trainer = MiniBatchTrainer(
        model, ds, batch_size=args.batch_size, fanouts=args.fanouts,
        strategy=args.strategy, seed=args.seed,
        prefetch_depth=args.prefetch_depth, num_workers=args.loader_workers,
    )
    optimizer = Adam(model.parameters(), lr=args.lr)
    for epoch in range(args.epochs):
        stats = trainer.train_epoch(
            source, optimizer=optimizer, mask=ds.train_mask, epoch=epoch,
        )
        print(f"epoch {epoch:2d}  loss={stats.loss:.4f}  "
              f"acc={stats.train_accuracy:.3f}  "
              f"{stats.seconds * 1000:.0f}ms  "
              f"overlap={stats.overlap_efficiency:.2f}")
    if not args.ondisk:
        feats = Tensor(ds.features)
        val = trainer.evaluate(feats, ds.labels, ds.val_mask)
        test = trainer.evaluate(feats, ds.labels, ds.test_mask)
        print(f"\n{model.name} on {ds.name}: val acc {val:.3f}, "
              f"test acc {test:.3f}")
    if args.checkpoint:
        _write_checkpoint(args, model, ds)
    return 0


def _cmd_train(args) -> int:
    from .core import FlexGraphEngine
    from .datasets import load_dataset
    from .tensor import Adam, Tensor

    if args.ondisk or args.minibatch:
        return _cmd_minibatch_train(args)
    if args.feature_dtype is not None:
        raise SystemExit(
            "--feature-dtype requires the gather-based path; add "
            "--minibatch (or --ondisk)"
        )
    ds = load_dataset(args.dataset, scale=args.scale)
    model = _build_model(args, ds)
    engine = FlexGraphEngine(model, ds.graph, strategy=args.strategy, seed=args.seed)
    optimizer = Adam(model.parameters(), lr=args.lr)
    feats = Tensor(ds.features)
    engine.fit(feats, ds.labels, optimizer, args.epochs,
               mask=ds.train_mask, verbose=True)
    val = engine.evaluate(feats, ds.labels, ds.val_mask)
    test = engine.evaluate(feats, ds.labels, ds.test_mask)
    print(f"\n{model.name} on {ds.name}: val acc {val:.3f}, test acc {test:.3f}")
    if args.checkpoint:
        _write_checkpoint(args, model, ds)
    return 0


def _cmd_distributed(args) -> int:
    from . import obs
    from .core import ADBBalancer, CostModel, FlexGraphEngine, metrics_from_hdg
    from .datasets import load_dataset
    from .distributed import DistributedTrainer
    from .graph import hash_partition
    from .tensor import Adam, Tensor

    ds = load_dataset(args.dataset, scale=args.scale)
    labels = hash_partition(ds.graph.num_vertices, args.workers)
    model = _build_model(args, ds)
    if args.balance:
        hdg = FlexGraphEngine(model, ds.graph).hdg_for_layer(0)
        metrics = metrics_from_hdg(hdg, ds.feat_dim)
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=args.seed)
        # Bootstrap the learned cost function from the analytical default
        # (stands in for sampled running logs; publishes the calibration
        # gauge).
        balancer.observe(metrics, CostModel.default_costs(metrics))
        labels, plan = balancer.rebalance(hdg, labels, args.workers, metrics)
        print("ADB:", "no migration needed" if plan is None else
              f"moved {plan.moved.size} vertices "
              f"{plan.source_partition} -> {plan.target_partition}")
    trainer = DistributedTrainer(
        model, ds.graph, labels, pipeline=not args.no_pipeline, seed=args.seed
    )
    optimizer = Adam(model.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    for epoch in range(args.epochs):
        stats = trainer.train_epoch(feats, ds.labels, optimizer,
                                    ds.train_mask, epoch)
        print(f"epoch {epoch:2d}  loss={stats.loss:.4f}  "
              f"simulated {stats.simulated_seconds * 1000:.1f}ms  "
              f"({stats.total_bytes / 1e6:.1f} MB, "
              f"{stats.total_messages} msgs, {stats.comm_mode})")
    if args.workers > 1:
        print("\nstraggler report:")
        print(obs.straggler_report(obs.to_dict()["spans"]).render())
    return 0


def _cmd_bench(args) -> int:
    from .datasets import load_dataset
    from .experiments import ComparisonConfig, compare_engines, render_rows

    ds = load_dataset(args.dataset, scale=args.scale)
    config = ComparisonConfig(
        seed=args.seed, epochs=args.epochs,
        model_params={"max_instances_per_root": 30} if args.model == "magnn" else {},
    )
    cells = compare_engines(ds, args.model, args.engines, config)
    rows = [[name, cell] for name, cell in cells.items()]
    print(render_rows(
        f"{args.model} on {ds.name} (seconds/epoch; X=unsupported, "
        f"OOM=over budget, >t=extrapolated past limit)",
        ["engine", "epoch"], rows,
    ))
    return 0


def _cmd_linkpred(args) -> int:
    from .datasets import load_dataset
    from .tasks import LinkPredictionTrainer, split_edges
    from .tensor import Adam, Tensor

    ds = load_dataset(args.dataset, scale=args.scale)
    split = split_edges(ds.graph, args.test_fraction,
                        np.random.default_rng(args.seed))
    factory = _MODELS[args.model]
    encoder = factory(ds.feat_dim, args.hidden_dim, args.hidden_dim,
                      seed=args.seed)
    trainer = LinkPredictionTrainer(encoder, split, seed=args.seed)
    optimizer = Adam(encoder.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    for epoch in range(args.epochs):
        loss = trainer.train_epoch(feats, optimizer, epoch)
        if epoch % 5 == 0:
            print(f"epoch {epoch:2d}  bce={loss:.4f}")
    metrics = trainer.evaluate(feats)
    print(f"\n{args.model} on {ds.name}: AUC={metrics['auc']:.3f}  "
          f"hits@10={metrics['hits@10']:.3f}")
    return 0


def _cmd_serve(args) -> int:
    from .datasets import load_dataset
    from .serve import GNNServer, InferenceSession, ServerOverloaded

    ds = load_dataset(args.dataset, scale=args.scale)
    model = _build_model(args, ds)
    if args.checkpoint is None:
        from .core import FlexGraphEngine
        from .tensor import Adam, Tensor

        print(f"no --checkpoint: training {model.name} for "
              f"{args.train_epochs} epochs first")
        engine = FlexGraphEngine(model, ds.graph, seed=args.seed)
        optimizer = Adam(model.parameters(), lr=0.01)
        engine.fit(Tensor(ds.features), ds.labels, optimizer,
                   args.train_epochs, mask=ds.train_mask)
    features = ds.features
    if args.feature_dtype is not None:
        from .loader import QuantizedSource

        # Pinned quantized; the session caches rows in the same codec.
        features = QuantizedSource(ds.features, codec=args.feature_dtype)
    session = InferenceSession(
        model, ds.graph, features,
        checkpoint=args.checkpoint, seed=args.seed,
    )

    # Zipfian seed popularity: a small hot set dominates, which is what
    # makes the embedding cache earn its keep.
    rng = np.random.default_rng(args.seed)
    ranks = np.arange(1, ds.graph.num_vertices + 1, dtype=np.float64)
    popularity = ranks ** -args.zipf
    popularity /= popularity.sum()
    seeds = rng.choice(ds.graph.num_vertices, size=args.requests, p=popularity)

    server = GNNServer(
        session, num_workers=args.workers, max_batch_size=args.batch_size,
        max_delay=args.max_delay_ms / 1e3, max_queue_depth=args.queue_depth,
        flight_dir=getattr(args, "flight_dir", None),
        slo_p99_ms=args.slo_p99_ms,
    )
    with server:
        for i in range(0, args.requests, 4):
            chunk = seeds[i : i + 4]
            try:
                server.predict(chunk)
            except ServerOverloaded:
                pass
    summary = server.slo_summary()
    lat = summary["latency_ms"]
    cache = summary["session"]["embed_cache"]
    print(f"\n{model.name} on {ds.name}: served "
          f"{summary['completed']}/{summary['requests']} requests "
          f"({summary['shed']} shed)")
    print(f"  latency      : p50 {lat['p50']:.2f}ms  p90 {lat['p90']:.2f}ms  "
          f"p99 {lat['p99']:.2f}ms")
    print(f"  batches      : {summary['batches']['count']} "
          f"(mean {summary['batches']['mean_ms']:.2f}ms)")
    print(f"  embed cache  : {cache['entries']} entries, "
          f"{cache['store_dtype']} rows, hit rate {cache['hit_rate']:.1%}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "metrics": _cmd_metrics,
    "train": _cmd_train,
    "distributed": _cmd_distributed,
    "linkpred": _cmd_linkpred,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    flight_dir = getattr(args, "flight_dir", None)
    if trace_path:
        from . import obs

        obs.reset()
    if flight_dir:
        import os

        from .obs.flight import FlightRecorder, install_flight

        os.makedirs(flight_dir, exist_ok=True)
        install_flight(FlightRecorder(
            journal_path=os.path.join(flight_dir, "journal-cli.jsonl"),
        ))
    try:
        rc = _COMMANDS[args.command](args)
    except Exception:
        if flight_dir:
            # Crash hook: the black box plus the traceback become a
            # post-mortem bundle before the error propagates.
            import traceback

            from . import obs
            from .obs.flight import write_incident_bundle

            obs.crash("cli_crash", traceback.format_exc())
            bundle = write_incident_bundle(
                flight_dir, "cli_crash",
                reason=f"command {args.command!r} raised",
                config={"argv": list(argv) if argv is not None
                        else sys.argv[1:]},
            )
            print(f"incident bundle written to {bundle}", file=sys.stderr)
        raise
    finally:
        if flight_dir:
            # Journal writes are asynchronous: drain the queue before
            # the interpreter kills the daemon writer thread.
            from .obs.flight import uninstall_flight

            recorder = uninstall_flight()
            if recorder is not None:
                recorder.close()
    if trace_path:
        trace = obs.export_json(trace_path)
        print(f"\ntrace written to {trace_path}")
        print(obs.render_summary(trace))
    return rc


if __name__ == "__main__":
    sys.exit(main())
