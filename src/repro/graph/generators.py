"""Synthetic graph generators standing in for the paper's datasets.

The evaluation uses Reddit (dense discussion graph), FB91 (LDBC synthetic,
power-law), Twitter (social network, power-law) and IMDB (small
heterogeneous movie graph).  None are available offline, so each generator
reproduces the *structural property the paper's analysis depends on*:

* :func:`community_graph` (Reddit-like) — high average degree with
  community structure; dense enough that full 2-hop expansion explodes,
  which is what breaks the mini-batch baselines in Table 2.
* :func:`power_law_graph` (FB91/Twitter-like) — heavy-tailed degrees via
  preferential attachment, so hub vertices skew per-vertex GNN cost
  (the premise of the ADB balancer experiment, Figure 15a).
* :func:`heterogeneous_graph` (IMDB-like) — three vertex types wired
  bipartitely (movie-director, movie-actor), giving MAGNN's metapaths
  (e.g. M-D-M, M-A-M) non-trivial instance sets.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["community_graph", "power_law_graph", "heterogeneous_graph"]


def community_graph(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    intra_prob: float = 0.9,
    seed: int = 0,
) -> Graph:
    """Reddit-like dense community graph (undirected, both edge directions).

    Each vertex belongs to one community; each of its ``avg_degree/2``
    undirected edges stays inside the community with probability
    ``intra_prob`` and otherwise lands on a uniform random vertex.
    """
    if num_communities <= 0 or num_vertices < num_communities:
        raise ValueError("need at least one vertex per community")
    rng = np.random.default_rng(seed)
    community = rng.integers(0, num_communities, size=num_vertices)
    num_edges = int(num_vertices * avg_degree / 2)
    src = rng.integers(0, num_vertices, size=num_edges)
    # Intra-community targets: pick a random member of src's community.
    members: list[np.ndarray] = [np.flatnonzero(community == c) for c in range(num_communities)]
    dst = np.empty(num_edges, dtype=np.int64)
    intra = rng.random(num_edges) < intra_prob
    for c in range(num_communities):
        rows = np.flatnonzero(intra & (community[src] == c))
        if rows.size:
            dst[rows] = members[c][rng.integers(0, members[c].size, size=rows.size)]
    inter_rows = np.flatnonzero(~intra)
    dst[inter_rows] = rng.integers(0, num_vertices, size=inter_rows.size)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    graph = Graph.from_edges(num_vertices, edges, make_undirected=True)
    # Stash community labels for dataset construction.
    graph.communities = community  # type: ignore[attr-defined]
    return graph


def power_law_graph(num_vertices: int, avg_degree: float, seed: int = 0) -> Graph:
    """Preferential-attachment graph with heavy-tailed degrees.

    Vectorized Barabási–Albert-style construction: targets of new edges
    are sampled from the endpoint list built so far, so attachment
    probability is proportional to current degree.  Used for the FB91 and
    Twitter stand-ins.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    rng = np.random.default_rng(seed)
    m = max(1, int(round(avg_degree / 2)))
    # Seed clique over the first m+1 vertices.
    seed_n = m + 1
    seed_src, seed_dst = np.meshgrid(np.arange(seed_n), np.arange(seed_n))
    mask = seed_src.ravel() != seed_dst.ravel()
    src_list = [seed_src.ravel()[mask]]
    dst_list = [seed_dst.ravel()[mask]]
    # Endpoint pool for preferential sampling.
    pool = [np.concatenate([src_list[0], dst_list[0]])]
    pool_size = pool[0].size
    # Process remaining vertices in batches for speed; within a batch,
    # attachment uses the pool from previous batches (a standard and
    # faithful-enough approximation at this scale).
    batch = max(256, num_vertices // 50)
    v = seed_n
    while v < num_vertices:
        hi = min(v + batch, num_vertices)
        new_vertices = np.arange(v, hi, dtype=np.int64)
        flat_pool = np.concatenate(pool) if len(pool) > 1 else pool[0]
        pool = [flat_pool]
        targets = flat_pool[rng.integers(0, pool_size, size=new_vertices.size * m)]
        new_src = np.repeat(new_vertices, m)
        src_list.append(new_src)
        dst_list.append(targets)
        pool.append(np.concatenate([new_src, targets]))
        pool_size += new_src.size + targets.size
        v = hi
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    return Graph.from_edges(num_vertices, edges, make_undirected=True)


def heterogeneous_graph(
    num_movies: int,
    num_directors: int,
    num_actors: int,
    movies_per_director: float = 3.0,
    actors_per_movie: float = 3.0,
    seed: int = 0,
) -> Graph:
    """IMDB-like heterogeneous graph with types Movie(0)/Director(1)/Actor(2).

    Edges run in both directions between movies and their director(s) and
    actors, so metapaths like ``M-D-M`` and ``M-A-M`` (and longer ones such
    as ``D-M-A``) have instances.
    """
    rng = np.random.default_rng(seed)
    n = num_movies + num_directors + num_actors
    movie_ids = np.arange(num_movies)
    director_ids = num_movies + np.arange(num_directors)
    actor_ids = num_movies + num_directors + np.arange(num_actors)

    # Every movie gets one director; directors with several movies arise
    # naturally from sampling.
    md_dst = director_ids[rng.integers(0, num_directors, size=num_movies)]
    md_edges = np.stack([movie_ids, md_dst], axis=1)

    num_ma = int(num_movies * actors_per_movie)
    ma_src = movie_ids[rng.integers(0, num_movies, size=num_ma)]
    ma_dst = actor_ids[rng.integers(0, num_actors, size=num_ma)]
    ma_edges = np.stack([ma_src, ma_dst], axis=1)

    edges = np.concatenate([md_edges, ma_edges], axis=0)
    types = np.concatenate(
        [
            np.zeros(num_movies, dtype=np.int64),
            np.ones(num_directors, dtype=np.int64),
            np.full(num_actors, 2, dtype=np.int64),
        ]
    )
    return Graph.from_edges(
        n, edges, vertex_types=types,
        type_names=["movie", "director", "actor"],
        make_undirected=True,
    )
