#!/usr/bin/env python3
"""Convert a dataset to the out-of-core ``repro.ondisk/1`` layout.

Two sources:

* a built-in dataset name (``--dataset reddit --scale small``) — loaded
  in RAM, then written shard by shard;
* a synthetic spec (``--generate --num-vertices 10000000 --num-edges
  100000000``) — never materialized: edges are generated and scattered
  chunk by chunk, features shard by shard, so graphs far larger than
  RAM can be produced.

Usage::

    python tools/make_ondisk.py --dataset reddit --scale small out/reddit
    python tools/make_ondisk.py --generate --num-vertices 1000000 \
        --num-edges 20000000 --feat-dim 64 out/synth
    python tools/make_ondisk.py --verify out/synth   # + graph fingerprint
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.datasets import load_dataset
from repro.datasets.synthetic import ShardedSyntheticSpec
from repro.storage import (
    OnDiskDataset,
    write_ondisk_dataset,
    write_synthetic_ondisk,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="output directory for the ondisk dataset")
    ap.add_argument("--dataset", help="built-in dataset name to convert")
    ap.add_argument("--scale", default="small",
                    help="built-in dataset scale (default: small)")
    ap.add_argument("--generate", action="store_true",
                    help="generate a synthetic graph shard by shard")
    ap.add_argument("--num-vertices", type=int, default=100_000)
    ap.add_argument("--num-edges", type=int, default=1_000_000)
    ap.add_argument("--feat-dim", type=int, default=32)
    ap.add_argument("--num-classes", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--edges-per-chunk", type=int, default=1_000_000)
    ap.add_argument("--rows-per-shard", type=int, default=65_536)
    ap.add_argument("--quantize", choices=("float32", "float16", "int8"),
                    default=None,
                    help="store feature shards quantized (int8 writes "
                         "per-shard float32 scale sidecars; gathers "
                         "dequantize into the compute dtype)")
    ap.add_argument("--verify", action="store_true",
                    help="re-hash every file of an existing ondisk dataset "
                         "against its manifest and exit")
    args = ap.parse_args(argv)

    if args.verify:
        ds = OnDiskDataset(args.root)
        ds.verify()
        print(f"{args.root}: all fingerprints match ({ds!r})")
        # The digest a checkpoint trained on this dataset records, equal
        # to the same graph's in RAM.
        print(f"graph fingerprint: {ds.graph.fingerprint()}")
        return 0

    if args.generate:
        spec = ShardedSyntheticSpec(
            name=f"synth-v{args.num_vertices}-e{args.num_edges}",
            num_vertices=args.num_vertices,
            num_edges=args.num_edges,
            feat_dim=args.feat_dim,
            num_classes=args.num_classes,
            seed=args.seed,
            edges_per_chunk=args.edges_per_chunk,
            rows_per_shard=args.rows_per_shard,
        )
        write_synthetic_ondisk(args.root, spec, quantize=args.quantize)
    elif args.dataset:
        ds = load_dataset(args.dataset, scale=args.scale)
        write_ondisk_dataset(ds, args.root,
                             rows_per_shard=args.rows_per_shard,
                             quantize=args.quantize)
    else:
        ap.error("need --dataset NAME or --generate")

    print(f"wrote {OnDiskDataset(args.root)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
