"""Distributed graph analytics over edge tables (the KG back end's
canonical edge Dataset, or any (src, dst) table).

Complements the driver-side NetworkX enrichment (graph/enrich.py — the
reference's ontology-sized recipe, ``process_new_ontology_file.py``)
with operators that stay distributed over CORPUS-sized edge tables:

- ``distinct_edges``    — exact (src, dst) dedup, coarse-partition shuffle
- ``degree_stats``      — per-node in/out degree via partial counts
- ``pagerank_fixed``    — fixed-iteration PageRank in INTEGER fixed-point
  arithmetic, so results are bit-exact across partitionings, block
  orders, and an independent SQL evaluation (no FP summation-order
  drift).  Edges stream per iteration; only the node-sized rank vector
  materializes.

Partitioning assumptions (documented per the custom-operator rule):
``pagerank_fixed`` holds the (node, out_degree, rank) vector on the
driver and broadcasts it via ``ray.put`` each iteration — correct for
ontology-aligned KGs whose canonical node set is schema-bounded (this
engine's case: nodes are linked ontology entities).  For open-domain
graphs with corpus-sized node sets, the rank vector itself must be a
Dataset and the per-iteration contribution becomes a bucketed hash join
(the ``dup_clusters`` label-propagation pattern, functions/dedup.py).
"""

from __future__ import annotations


import numpy as np

import pandas as pd

import ray
from ray.data import Dataset

_NUM_PARTS = 64


def _part_of(values, num_parts: int = _NUM_PARTS) -> np.ndarray:
    # vectorized fixed-key partition ids (was a per-row crc32 loop)
    from .join import hash_bucket

    return hash_bucket(values, num_parts).astype(np.int64)


def distinct_edges(
    edges: Dataset, src_col: str = "subject", dst_col: str = "object"
) -> Dataset:
    """Exact (src, dst) pair dedup: per-batch drop_duplicates (map-side
    combine), coarse hash-partition groupby, vectorized in-partition
    drop_duplicates (the exact_dedup pattern, functions/dedup.py)."""

    def local(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[src_col, dst_col]].drop_duplicates()
        out = out.assign(
            __part=_part_of(out[src_col].astype(str) + "\x00" + out[dst_col].astype(str))
        )
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g[[src_col, dst_col]].drop_duplicates()

    return (
        edges.map_batches(local, batch_format="pandas")
        .groupby("__part")
        .map_groups(merge, batch_format="pandas")
    )


def degree_stats(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
    assume_distinct: bool = False,
) -> Dataset:
    """Per-node out/in degree over the DISTINCT edge set.

    Shuffle structure: one pass of per-batch partial counts (each batch
    contributes <= one row per node per direction), then a single small
    groupby-Sum keyed on node."""
    ded = edges if assume_distinct else distinct_edges(edges, src_col, dst_col)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out_c = b.groupby(src_col, sort=False).size()
        in_c = b.groupby(dst_col, sort=False).size()
        df = pd.concat(
            [
                pd.DataFrame(
                    {"node": out_c.index, "out_partial": out_c.values, "in_partial": 0}
                ),
                pd.DataFrame(
                    {"node": in_c.index, "out_partial": 0, "in_partial": in_c.values}
                ),
            ]
        )
        return df

    from .agg import grouped_sum

    agg = grouped_sum(
        ded.map_batches(partial, batch_format="pandas"),
        ["node"],
        ["out_partial", "in_partial"],
    )
    return agg.map_batches(
        lambda b: b.rename(
            columns={"out_partial": "out_degree", "in_partial": "in_degree"}
        ),
        batch_format="pandas",
    )


def pagerank_fixed(
    edges: Dataset,
    iters: int = 3,
    scale: int = 10**9,
    damping_num: int = 85,
    damping_den: int = 100,
    src_col: str = "subject",
    dst_col: str = "object",
    seed_nodes: list | None = None,
) -> pd.DataFrame:
    """Fixed-iteration PageRank in integer fixed-point arithmetic.

    ``seed_nodes`` switches to PERSONALIZED PageRank: the restart mass
    and the dangling redistribution go uniformly to the seed set instead
    of all nodes (rank0 = scale//k on seeds, 0 elsewhere; base and
    dangling//k applied to seeds only) — still all-integer, still
    bit-exact at any partitioning.

    Update rule (ALL integer ops, floor division, so the result is
    bit-exact regardless of partitioning / summation order and exactly
    reproducible by the SQL oracle)::

        base      = (scale // n) * (den - num) // den
        contrib_e = rank[src] // out_deg[src]           per distinct edge
        dangling  = sum(rank[v] for v with out_deg==0)
        rank'[v]  = base + num * (sum_in[v] + dangling // n) // den

    Per iteration: ONE streaming map over the pinned edge Dataset emits
    per-batch partial contribution sums keyed by dst (map-side combine),
    then a node-sized groupby-Sum.  The edge Dataset is pinned once
    (``pin_blocks``) so iterations do not re-execute upstream lineage.
    """
    from .dedup import pin_blocks

    ded = pin_blocks(distinct_edges(edges, src_col, dst_col), target_blocks=64)

    # node-sized state (see module docstring for the open-domain variant)
    deg = degree_stats(ded, src_col, dst_col, assume_distinct=True).to_pandas()
    if len(deg) == 0 or "node" not in deg.columns:
        return pd.DataFrame({"node": pd.Series([], dtype=object),
                             "rank_scaled": pd.Series([], dtype="int64")})
    nodes = sorted(deg["node"])
    out_deg = dict(zip(deg["node"], deg["out_degree"]))
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": [], "rank_scaled": []})
    if seed_nodes is None:
        base = {v: (scale // n) * (damping_den - damping_num) // damping_den
                for v in nodes}
        rank = {v: scale // n for v in nodes}
        restart = set(nodes)
        k = n
    else:
        restart = {str(s) for s in seed_nodes} & set(nodes)
        k = len(restart)
        if k == 0:
            raise ValueError("no seed_nodes present in the graph")
        per_seed = (scale // k) * (damping_den - damping_num) // damping_den
        base = {v: per_seed if v in restart else 0 for v in nodes}
        rank = {v: scale // k if v in restart else 0 for v in nodes}

    for _ in range(iters):
        ref = ray.put({v: (rank[v], out_deg.get(v, 0)) for v in nodes})

        def partial(b: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            state = ray.get(_ref)
            sums: dict[str, int] = {}
            for s, d in zip(b[src_col], b[dst_col]):
                r, od = state[s]
                if od:
                    sums[d] = sums.get(d, 0) + r // od
            return pd.DataFrame(
                {"node": list(sums), "contrib": list(sums.values())}
            )

        from .agg import grouped_sum

        inc = grouped_sum(
            ded.map_batches(partial, batch_format="pandas"), ["node"], ["contrib"]
        ).to_pandas()
        sum_in = dict(zip(inc["node"], inc["contrib"].astype("int64")))
        dangling = sum(r for v, r in rank.items() if not out_deg.get(v, 0))
        rank = {
            v: base[v]
            + damping_num
            * (sum_in.get(v, 0) + (dangling // k if v in restart else 0))
            // damping_den
            for v in nodes
        }

    return pd.DataFrame(
        {"node": nodes, "rank_scaled": [int(rank[v]) for v in nodes]}
    )


def triangle_count(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
    broadcast_threshold: int = 1_000_000,
) -> int:
    """Exact triangle count of the UNDIRECTED simple graph underlying an
    edge table, via the degree-oriented wedge algorithm (the
    MapReduce-classic shape; wedge volume is O(m^1.5) instead of
    sum(deg^2) because every edge points from the (degree, node)-smaller
    endpoint to the larger):

    1. normalize + dedup edges (coarse-partition exact dedup),
    2. per-node degrees (map-side partial counts + grouped_sum),
    3. orient each edge low->high in the (degree, node) total order,
    4. wedges: per oriented source, neighbor pairs — each triangle
       yields EXACTLY ONE wedge (at its order-minimal corner),
    5. wedge ∩ edge-set membership closes the count.

    Two execution shapes, threshold-gated like ``pagerank_fixed``'s
    documented judgment call:

    - ``m <= broadcast_threshold`` (node/edge tables fit a worker heap):
      the degree map and the normalized edge-key set ship once via
      ``ray.put`` and steps 3/5 are single map passes — no join shuffles.
      Measured 21s -> ~5s on a 13.6k-edge graph at 32 CPUs, where the
      five bucketed shuffles were pure fixed overhead.
    - above it: two bucketed hash joins attach endpoint degrees and a
      bucketed semi join closes wedges — every exchange is a
      hash-partition shuffle over edge/wedge-sized data; nothing node- or
      corpus-sized touches the driver."""
    from itertools import combinations

    from .agg import grouped_sum
    from .join import bucketed_hash_join, bucketed_semi_join, hash_bucket

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        lo, hi = a.where(a < c, c), c.where(a < c, a)
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out.u != out.v]

    e = distinct_edges(
        edges.map_batches(norm, batch_format="pandas"), "u", "v"
    ).materialize()
    m = e.count()

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([b.u, b.v], ignore_index=True)
        g = nodes.value_counts()
        return pd.DataFrame({"node": g.index, "d": g.to_numpy().astype("int64")})

    deg = grouped_sum(e.map_batches(explode, batch_format="pandas"), ["node"], ["d"])

    if m <= broadcast_threshold:
        # to_pandas, never take_all: the per-row iterator costs ~60ms per
        # BLOCK in ray 2.49 (measured 4s for 5k rows in 64 blocks; the
        # block-concat path does the same in 0.2s)
        dd = deg.to_pandas()
        deg_ref = ray.put(dict(zip(dd["node"], dd["d"])))

        def orient_bcast(b: pd.DataFrame) -> pd.DataFrame:
            dm = ray.get(deg_ref)
            du = b.u.map(dm)
            dv = b.v.map(dm)
            u_first = (du < dv) | ((du == dv) & (b.u < b.v))
            return pd.DataFrame(
                {"s": b.u.where(u_first, b.v), "t": b.v.where(u_first, b.u)}
            )

        oriented = e.map_batches(orient_bcast, batch_format="pandas").materialize()
        # e is already (u < v)-normalized, so its keys ARE the pair keys
        ed = e.to_pandas()
        ekey_ref = ray.put(set(ed["u"] + "\x1f" + ed["v"]))
    else:
        with_du = bucketed_hash_join(
            e,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "u", "d": "du"}),
                batch_format="pandas",
            ),
            "u",
        )
        with_dv = bucketed_hash_join(
            with_du,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "v", "d": "dv"}),
                batch_format="pandas",
            ),
            "v",
        )

        def orient(b: pd.DataFrame) -> pd.DataFrame:
            u_first = (b.du < b.dv) | ((b.du == b.dv) & (b.u < b.v))
            return pd.DataFrame(
                {"s": b.u.where(u_first, b.v), "t": b.v.where(u_first, b.u)}
            )

        oriented = with_dv.map_batches(orient, batch_format="pandas").materialize()
        ekey_ref = None

    # pair key separator: \x1f, NOT \x00 — numpy fixed-width unicode
    # arrays (what pandas blocks can hold for string columns) use NUL as
    # padding and silently drop embedded NULs on concat.
    #
    # Wedges use the COARSE-partition pattern (hash(s) -> 64 partitions,
    # per-partition pandas groupby), NOT groupby("s").map_groups — one Ray
    # group per node is the engine's measured per-key fold trap
    # (functions/agg.py module docstring; 56s -> ~3s on the sf0.1
    # similarity graph).
    def wedges_part(g: pd.DataFrame):
        import pyarrow as pa

        out: list[str] = []
        for _, grp in g.groupby("s", sort=False):
            nbrs = sorted(grp.t)
            out.extend(f"{p}\x1f{q}" for p, q in combinations(nbrs, 2))
        # Arrow output keeps empty blocks typed (string, not object) —
        # pandas object columns of size 0 trip ray's block-size estimator
        return pa.table({"pq": pa.array(out, pa.string())})

    w = (
        oriented.map_batches(
            lambda b: b.assign(__part=hash_bucket(b.s.to_numpy(), _NUM_PARTS)),
            batch_format="pandas",
        )
        .groupby("__part")
        .map_groups(wedges_part, batch_format="pandas")
    )

    if ekey_ref is not None:

        def close_bcast(b: pd.DataFrame) -> pd.DataFrame:
            ek = ray.get(ekey_ref)
            n = int(sum(1 for k in b["pq"] if k in ek))
            return pd.DataFrame({"n": pd.array([n], dtype="int64")})

        return int(w.map_batches(close_bcast, batch_format="pandas").to_pandas()["n"].sum())

    ekeys = oriented.map_batches(
        lambda b: pd.DataFrame(
            {"pq": np.where(b.s < b.t, b.s + "\x1f" + b.t, b.t + "\x1f" + b.s)}
        ),
        batch_format="pandas",
    )
    return bucketed_semi_join(w, ekeys, "pq").count()


def _undirected_distinct(
    edges: Dataset, src_col: str, dst_col: str
) -> Dataset:
    """Both directions of the normalized simple graph as (node, nbr)."""

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"u": np.minimum(a, c), "v": np.maximum(a, c)})

    e = distinct_edges(edges.map_batches(norm, batch_format="pandas"), "u", "v")

    def both(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": pd.concat([b.u, b.v], ignore_index=True),
                "nbr": pd.concat([b.v, b.u], ignore_index=True),
            }
        )

    return e.map_batches(both, batch_format="pandas")


def bfs_levels(
    edges: Dataset,
    sources: Dataset,
    max_depth: int,
    src_col: str = "subject",
    dst_col: str = "object",
    node_col: str = "node",
    driver_threshold: int = 250_000,
) -> Dataset:
    """Multi-source BFS hop distance over the UNDIRECTED simple graph:
    (node, dist) for every node within ``max_depth`` hops of any source
    (sources themselves at dist 0, including isolated ones).

    Two execution shapes, gated like ``dup_clusters``' driver_threshold:

    - distinct edge count <= ``driver_threshold``: the edge table is
      PROVABLY small — collect it once and run plain BFS on the driver
      (each distributed round costs ~1-2s of fixed scheduling; at small
      m that overhead IS the runtime, measured 13s -> ~2s at sf0.1).
    - above: bounded-depth Bellman-Ford relaxation — each round expands
      only the newest frontier through one bucketed hash join against
      the edge table, then folds with a coarse-partition grouped MIN.
      Distances are integers and min is exact, so the result is unique
      regardless of partitioning or round interleave.  Per-round state
      (label and frontier tables) is node-sized and stays distributed;
      the loop rebuilds from pinned block refs
      (:func:`~..functions.dedup.pin_blocks`) so lineage does not
      re-execute geometrically.  Rounds = min(diameter, max_depth) with
      an early exit on an empty frontier."""
    from .agg import grouped_min
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    ue = _undirected_distinct(edges, src_col, dst_col).materialize()

    if ue.count() <= 2 * driver_threshold:  # ue holds both directions
        from collections import deque

        edf = ue.to_pandas()
        adj: dict[str, list[str]] = {}
        for u, v in zip(edf["node"], edf["nbr"]):
            adj.setdefault(u, []).append(v)
        sdf = sources.to_pandas()
        dist = {str(s): 0 for s in sdf[node_col]}
        q = deque(dist)
        while q:
            u = q.popleft()
            d = dist[u]
            if d >= max_depth:
                continue
            for nb in adj.get(u, ()):
                if nb not in dist:
                    dist[nb] = d + 1
                    q.append(nb)
        out = pd.DataFrame(
            {"node": list(dist), "dist": pd.Series(list(dist.values()), dtype="int64")}
        )
        return ray.data.from_pandas(out)

    def as_label(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": b[node_col].astype(str), "dist": np.int64(0)}
        )

    labels = pin_blocks(sources.map_batches(as_label, batch_format="pandas"), 16)
    frontier = labels

    for depth in range(1, max_depth + 1):
        if frontier.count() == 0:
            break
        hops = bucketed_hash_join(
            frontier.select_columns(["node"]), ue, "node"
        ).map_batches(
            lambda b, d=depth: pd.DataFrame(
                {"node": b.nbr, "dist": np.int64(d)}
            ),
            batch_format="pandas",
        )
        new_labels = pin_blocks(
            grouped_min(labels.union(hops), ["node"], ["dist"]), 16
        )
        # the new frontier: nodes whose (minimal) dist is this round's —
        # they were first reached now and are the only rows worth expanding
        frontier = new_labels.filter(lambda r, d=depth: r["dist"] == d)
        labels = new_labels
    return labels


def k_core(
    edges: Dataset,
    k: int,
    src_col: str = "subject",
    dst_col: str = "object",
    max_rounds: int = 50,
    driver_threshold: int = 250_000,
) -> Dataset:
    """The k-core of the UNDIRECTED simple graph — the maximal subgraph
    in which every node has degree >= k — as (node, core_degree) rows.

    Below ``driver_threshold`` distinct edges the table is provably
    small: collect once, peel vectorized on the driver (each distributed
    round costs ~2s of fixed scheduling, which IS the runtime at small
    m — measured 15.5s -> ~2s at sf0.1; the ``dup_clusters`` gating
    pattern).  Above it, distributed peeling: each round computes
    per-node degrees (map-side partial counts + grouped_sum) and drops
    every edge touching a node of degree < k via two bucketed endpoint
    semi joins.  The fixpoint is unique (the k-core is well-defined), so
    the execution shape only affects cost, never the answer; distributed
    convergence is detected by an unchanged edge count and over-running
    ``max_rounds`` RAISES rather than silently returning a superset (the
    dup_clusters non-convergence contract).  On the distributed path all
    state (edge and node tables) stays distributed; the driver sees only
    counts."""
    from .agg import grouped_sum
    from .dedup import pin_blocks
    from .join import bucketed_semi_join

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame({"u": np.minimum(a, c), "v": np.maximum(a, c)})

    e = pin_blocks(
        distinct_edges(edges.map_batches(norm, batch_format="pandas"), "u", "v"), 16
    )
    m = e.count()

    if m <= driver_threshold:
        edf = e.to_pandas() if m else pd.DataFrame({"u": [], "v": []})
        while len(edf):
            deg = pd.concat([edf.u, edf.v], ignore_index=True).value_counts()
            alive = set(deg[deg >= k].index)
            keep = edf.u.isin(alive) & edf.v.isin(alive)
            if keep.all():
                break
            edf = edf[keep]
        if not len(edf):
            return ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "node": pd.Series([], dtype=str),
                        "core_degree": pd.Series([], dtype="int64"),
                    }
                )
            )
        deg = pd.concat([edf.u, edf.v], ignore_index=True).value_counts()
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "node": deg.index.astype(str),
                    "core_degree": deg.to_numpy().astype("int64"),
                }
            )
        )

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([b.u, b.v], ignore_index=True)
        vc = nodes.value_counts()
        return pd.DataFrame({"node": vc.index, "d": vc.to_numpy().astype("int64")})

    for _ in range(max_rounds):
        if m == 0:
            return ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "node": pd.Series([], dtype=str),
                        "core_degree": pd.Series([], dtype="int64"),
                    }
                )
            )
        deg = grouped_sum(e.map_batches(explode, batch_format="pandas"), ["node"], ["d"])
        alive = deg.filter(lambda r: r["d"] >= k)
        e2 = bucketed_semi_join(
            e, alive.map_batches(lambda b: b.rename(columns={"node": "u"}),
                                 batch_format="pandas"), "u"
        )
        e2 = bucketed_semi_join(
            e2, alive.map_batches(lambda b: b.rename(columns={"node": "v"}),
                                  batch_format="pandas"), "v"
        )
        e2 = pin_blocks(e2, 16)
        m2 = e2.count()
        if m2 == m:
            out = grouped_sum(
                e.map_batches(explode, batch_format="pandas"), ["node"], ["d"]
            )
            return out.map_batches(
                lambda b: b.rename(columns={"d": "core_degree"}),
                batch_format="pandas",
            )
        e, m = e2, m2
    raise RuntimeError(
        f"k_core did not converge in {max_rounds} peel rounds — raise max_rounds"
    )


def sssp_hops(
    edges: Dataset,
    sources: Dataset,
    max_hops: int,
    src_col: str = "subject",
    dst_col: str = "object",
    weight_col: str = "w",
    node_col: str = "node",
    driver_threshold: int = 250_000,
) -> Dataset:
    """Bounded-hop weighted shortest paths over the UNDIRECTED simple
    graph: (node, cost) = min total weight over paths of <= ``max_hops``
    edges from any source (sources at cost 0).  Weights are int64 and
    min is exact, so the result is unique regardless of partitioning —
    the ``bfs_levels`` determinism contract, weighted.  Parallel edges
    collapse to their MIN weight; self-loops drop.

    Two execution shapes, gated like ``bfs_levels``:

    - distinct edge count <= ``driver_threshold``: collect the provably
      small edge table once and relax on the driver (each distributed
      round costs ~1-2s of fixed scheduling — at small m that IS the
      runtime).
    - above: delta-based Bellman-Ford — each round expands only the
      nodes whose cost improved last round through one bucketed hash
      join, folds candidates with a coarse-partition grouped MIN, and
      detects improvements with one outer join against the label table.
      All per-round state (labels, frontier) is node-sized and stays
      distributed; blocks are pinned so lineage does not re-execute
      geometrically.
    """
    from .agg import grouped_min
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        w = b[weight_col].astype("int64")
        keep = a != c
        a, c, w = a[keep], c[keep], w[keep]
        return pd.DataFrame(
            {"u": np.minimum(a, c), "v": np.maximum(a, c), "w": w}
        )

    # undirected weighted simple graph: min weight per normalized pair,
    # then both directions
    uw = grouped_min(
        edges.map_batches(norm, batch_format="pandas"), ["u", "v"], ["w"]
    )

    def both(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": pd.concat([b.u, b.v], ignore_index=True),
                "nbr": pd.concat([b.v, b.u], ignore_index=True),
                "w": pd.concat([b.w, b.w], ignore_index=True).astype("int64"),
            }
        )

    ue = uw.map_batches(both, batch_format="pandas").materialize()

    if ue.count() <= 2 * driver_threshold:  # ue holds both directions
        edf = ue.to_pandas()
        sdf = sources.to_pandas()
        cost: dict[str, int] = {str(s): 0 for s in sdf[node_col]}
        frontier = dict(cost)
        for _ in range(max_hops):
            if not frontier:
                break
            f = pd.DataFrame(
                {"node": list(frontier), "cost": list(frontier.values())}
            )
            hop = edf.merge(f, on="node")
            if not len(hop):
                break
            cand = (hop["cost"] + hop["w"]).groupby(hop["nbr"].to_numpy()).min()
            frontier = {
                n: int(c)
                for n, c in cand.items()
                if n not in cost or c < cost[n]
            }
            cost.update(frontier)
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "node": list(cost),
                    "cost": pd.Series(list(cost.values()), dtype="int64"),
                }
            )
        )

    def as_label(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b[node_col].astype(str), "cost": np.int64(0)})

    labels = pin_blocks(sources.map_batches(as_label, batch_format="pandas"), 16)
    frontier = labels

    for _ in range(max_hops):
        if frontier.count() == 0:
            break
        hops = bucketed_hash_join(frontier, ue, "node").map_batches(
            lambda b: pd.DataFrame(
                {"node": b.nbr, "cost": (b.cost + b.w).astype("int64")}
            ),
            batch_format="pandas",
        )
        cand = grouped_min(hops, ["node"], ["cost"])
        # improvements only: candidates strictly below the current label
        # (or unlabeled).  cost columns collide -> _l/_r suffixes.
        merged = bucketed_hash_join(cand, labels, "node", join_type="left outer")
        frontier = pin_blocks(
            merged.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "node": b["node"],
                        "cost": b["cost_l"].astype("int64"),
                    }
                )[b["cost_r"].isna().to_numpy() | (b["cost_l"] < b["cost_r"]).to_numpy()],
                batch_format="pandas",
            ),
            16,
        )
        labels = pin_blocks(
            grouped_min(labels.union(frontier), ["node"], ["cost"]), 16
        )
    return labels


def hits_fixed(
    edges: Dataset,
    iters: int = 2,
    scale: int = 10**9,
    src_col: str = "subject",
    dst_col: str = "object",
) -> pd.DataFrame:
    """Fixed-iteration HITS (hubs & authorities, Kleinberg 1999) in
    integer fixed-point arithmetic — the link-analysis companion to
    :func:`pagerank_fixed` for DIRECTED web link graphs.

    Per iteration (ALL integer ops, floor division — bit-exact at any
    partitioning and exactly reproducible by the SQL oracle)::

        auth_raw[v] = sum(hub[u]  for (u, v) in E)
        auth[v]     = auth_raw[v] * scale // max(auth_raw)
        hub_raw[u]  = sum(auth[v] for (u, v) in E)
        hub[u]      = hub_raw[u]  * scale // max(hub_raw)

    (classic HITS L2-normalizes — a float; the max-rescale keeps the
    same fixed-point ORDERING exactly in integers).  Two exchanges per
    iteration, each a streaming map over the pinned distinct-edge
    Dataset emitting per-batch partial sums (map-side combine) into a
    node-sized grouped_sum.  Node-sized state broadcasts per iteration —
    the pagerank_fixed partitioning assumption (module docstring) holds.
    """
    from .agg import grouped_sum
    from .dedup import pin_blocks

    ded = pin_blocks(distinct_edges(edges, src_col, dst_col), target_blocks=64)
    deg = degree_stats(ded, src_col, dst_col, assume_distinct=True).to_pandas()
    if len(deg) == 0 or "node" not in deg.columns:
        return pd.DataFrame(
            {
                "node": pd.Series([], dtype=object),
                "auth_scaled": pd.Series([], dtype="int64"),
                "hub_scaled": pd.Series([], dtype="int64"),
            }
        )
    nodes = sorted(deg["node"].astype(str))
    hub = {v: scale for v in nodes}
    auth = {v: 0 for v in nodes}

    def _sweep(state_ref, key_col, sum_col):
        # one streaming pass: per-batch partial sums of the broadcast
        # state over one endpoint, keyed by the other
        def partial(b: pd.DataFrame, _ref=state_ref) -> pd.DataFrame:
            state = ray.get(_ref)
            contrib = b[sum_col].astype(str).map(state).astype("int64")
            sums = contrib.groupby(b[key_col].astype(str).to_numpy()).sum()
            return pd.DataFrame(
                {"node": sums.index.to_numpy(), "s": sums.to_numpy()}
            )

        agg = grouped_sum(
            ded.map_batches(partial, batch_format="pandas"), ["node"], ["s"]
        ).to_pandas()
        return dict(zip(agg["node"].astype(str), agg["s"].astype("int64")))

    def _rescale(raw: dict) -> dict:
        mx = max(raw.values(), default=0)
        if mx <= 0:
            return {v: 0 for v in nodes}
        # python-int product: raw * scale can exceed int64
        return {v: (int(raw.get(v, 0)) * scale) // int(mx) for v in nodes}

    for _ in range(iters):
        auth = _rescale(_sweep(ray.put(hub), dst_col, src_col))
        hub = _rescale(_sweep(ray.put(auth), src_col, dst_col))

    return pd.DataFrame(
        {
            "node": nodes,
            "auth_scaled": pd.Series([auth[v] for v in nodes], dtype="int64"),
            "hub_scaled": pd.Series([hub[v] for v in nodes], dtype="int64"),
        }
    )


_WALK_MOD = 2_147_483_648  # 2^31: keeps every hash operand < 2^63
_WALK_A = 1_103_515_245
_WALK_B = 12_345
_WALK_C = 2_654_435_761


def _walk_hash(node: np.ndarray, step: int) -> np.ndarray:
    """Deterministic per-(node, step) pseudo-random draw, identical in
    the SQL oracle: ((node % 2^31) * A + step * B + C) % 2^31."""
    return ((node % _WALK_MOD) * _WALK_A + step * _WALK_B + _WALK_C) % _WALK_MOD


def random_walks(
    edges: Dataset,
    sources: Dataset,
    length: int,
    src_col: str = "subject",
    dst_col: str = "object",
    node_col: str = "node",
    num_parts: int = 64,
) -> Dataset:
    """Deterministic random walks (the DeepWalk/node2vec sampling stage)
    over the UNDIRECTED simple graph with INTEGER node ids: one walk of
    ``length`` steps per source; at step t the walk at node u moves to
    its ``_walk_hash(u, t) % deg(u)``-th neighbor in ascending-id order.
    Fully deterministic (no RNG state), so the result is reproducible at
    any partitioning AND by the SQL oracle.  A walk stops early at an
    isolated node.

    Shuffle shape: the ranked adjacency (node, idx, nbr, deg) is built
    with ONE coarse hash(node) exchange and pinned; each step is ONE
    bucketed hash join of the walk state against it (state rows fan out
    deg(u) wide, then filter to the drawn neighbor — for graphs with
    very hot nodes, swap the filter for a composite (node, idx) join
    key to make the exchange walk-sized instead of degree-sized).
    Output: (start, step, node) rows, step 0 = the source itself.
    """
    from .dedup import pin_blocks
    from .join import bucketed_hash_join, hash_bucket

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype("int64")
        c = b[dst_col].astype("int64")
        keep = (a != c).to_numpy()
        return pd.DataFrame(
            {"u": np.minimum(a, c)[keep], "v": np.maximum(a, c)[keep]}
        )

    ded = distinct_edges(edges.map_batches(norm, batch_format="pandas"), "u", "v")

    def both(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": pd.concat([b.u, b.v], ignore_index=True).astype("int64"),
                "nbr": pd.concat([b.v, b.u], ignore_index=True).astype("int64"),
            }
        )

    ue = ded.map_batches(both, batch_format="pandas")

    # ranked adjacency: one coarse hash(node) exchange; idx/deg never
    # leave their partition (the window_rank pattern)
    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b["node"].to_numpy(), num_parts))

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["node", "nbr"])
        grp = g.groupby("node", sort=False)
        return pd.DataFrame(
            {
                "node": g["node"].to_numpy(),
                "idx": grp.cumcount().to_numpy().astype("int64"),
                "nbr": g["nbr"].to_numpy(),
                "deg": grp["nbr"].transform("size").to_numpy().astype("int64"),
            }
        )

    adj = pin_blocks(
        ue.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(rank_part, batch_format="pandas"),
        16,
    )

    def as_state(b: pd.DataFrame) -> pd.DataFrame:
        s = b[node_col].astype("int64")
        return pd.DataFrame({"start": s, "node": s})

    state = sources.map_batches(as_state, batch_format="pandas")
    outputs = [
        state.map_batches(
            lambda b: b.assign(step=np.int64(0))[["start", "step", "node"]],
            batch_format="pandas",
        )
    ]

    for t in range(1, length + 1):
        hop = bucketed_hash_join(state, adj, "node")

        def draw(b: pd.DataFrame, _t=t) -> pd.DataFrame:
            k = _walk_hash(b["node"].to_numpy().astype("int64"), _t) % b[
                "deg"
            ].to_numpy().astype("int64")
            pick = b[b["idx"].to_numpy() == k]
            return pd.DataFrame(
                {
                    "start": pick["start"].astype("int64"),
                    "node": pick["nbr"].astype("int64"),
                }
            )

        state = pin_blocks(hop.map_batches(draw, batch_format="pandas"), 16)
        outputs.append(
            state.map_batches(
                lambda b, _t=t: b.assign(step=np.int64(_t))[
                    ["start", "step", "node"]
                ],
                batch_format="pandas",
            )
        )

    out = outputs[0]
    for o in outputs[1:]:
        out = out.union(o)
    return out


def clustering_coeff(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
    broadcast_threshold: int = 1_000_000,
) -> Dataset:
    """Per-node local clustering coefficient of the UNDIRECTED simple
    graph as EXACT integers: (node, n_tri, n_wedges) with
    coefficient = n_tri / n_wedges (divide at the edge — no float
    crosses a partition; n_wedges = deg*(deg-1)//2).

    Same degree-oriented wedge shape as :func:`triangle_count` — each
    triangle is found ONCE at its order-minimal corner — but the wedge
    carries its three nodes, and a closed wedge credits ALL of them
    (map-side combine + one grouped_sum).  Closure membership is the
    broadcast edge-key set below ``broadcast_threshold`` edges, else a
    bucketed semi join; the final degree/triangle merge is one
    outer-safe bucketed join.
    """
    from itertools import combinations

    from .agg import grouped_sum
    from .join import bucketed_hash_join, hash_bucket

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        lo, hi = a.where(a < c, c), c.where(a < c, a)
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out.u != out.v]

    e = distinct_edges(
        edges.map_batches(norm, batch_format="pandas"), "u", "v"
    ).materialize()
    m = e.count()

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([b.u, b.v], ignore_index=True)
        g = nodes.value_counts()
        return pd.DataFrame({"node": g.index, "d": g.to_numpy().astype("int64")})

    deg = grouped_sum(e.map_batches(explode, batch_format="pandas"), ["node"], ["d"])

    if m <= broadcast_threshold:
        dd = deg.to_pandas()
        deg_ref = ray.put(dict(zip(dd["node"], dd["d"])))

        def orient_bcast(b: pd.DataFrame) -> pd.DataFrame:
            dm = ray.get(deg_ref)
            du, dv = b.u.map(dm), b.v.map(dm)
            u_first = (du < dv) | ((du == dv) & (b.u < b.v))
            return pd.DataFrame(
                {"s": b.u.where(u_first, b.v), "t": b.v.where(u_first, b.u)}
            )

        oriented = e.map_batches(orient_bcast, batch_format="pandas")
        ed = e.to_pandas()
        ekey_ref = ray.put(set(ed["u"] + "\x1f" + ed["v"]))
    else:
        with_du = bucketed_hash_join(
            e,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "u", "d": "du"}),
                batch_format="pandas",
            ),
            "u",
        )
        with_dv = bucketed_hash_join(
            with_du,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "v", "d": "dv"}),
                batch_format="pandas",
            ),
            "v",
        )

        def orient(b: pd.DataFrame) -> pd.DataFrame:
            u_first = (b.du < b.dv) | ((b.du == b.dv) & (b.u < b.v))
            return pd.DataFrame(
                {"s": b.u.where(u_first, b.v), "t": b.v.where(u_first, b.u)}
            )

        oriented = with_dv.map_batches(orient, batch_format="pandas")
        ekey_ref = None

    oriented = oriented.materialize()

    # wedges with their corner (coarse-partition pattern; \x1f key —
    # see triangle_count for both rationales)
    def wedges_part(g: pd.DataFrame):
        import pyarrow as pa

        corners: list[str] = []
        ps: list[str] = []
        qs: list[str] = []
        for s, grp in g.groupby("s", sort=False):
            nbrs = sorted(grp.t)
            for p, q in combinations(nbrs, 2):
                corners.append(s)
                ps.append(p)
                qs.append(q)
        return pa.table(
            {
                "corner": pa.array(corners, pa.string()),
                "p": pa.array(ps, pa.string()),
                "q": pa.array(qs, pa.string()),
                "pq": pa.array(
                    [f"{p}\x1f{q}" for p, q in zip(ps, qs)], pa.string()
                ),
            }
        )

    w = (
        oriented.map_batches(
            lambda b: b.assign(__part=hash_bucket(b.s.to_numpy(), _NUM_PARTS)),
            batch_format="pandas",
        )
        .groupby("__part")
        .map_groups(wedges_part, batch_format="pandas")
    )

    if ekey_ref is not None:

        def close_bcast(b: pd.DataFrame) -> pd.DataFrame:
            ek = ray.get(ekey_ref)
            return b[[k in ek for k in b["pq"]]]

        closed = w.map_batches(close_bcast, batch_format="pandas")
    else:
        from .join import bucketed_semi_join

        # re-normalize: oriented pairs are (degree, node)-ordered, wedge
        # keys are id-ordered
        ekeys = oriented.map_batches(
            lambda b: pd.DataFrame(
                {"pq": np.where(b.s < b.t, b.s + "\x1f" + b.t, b.t + "\x1f" + b.s)}
            ),
            batch_format="pandas",
        )
        closed = bucketed_semi_join(w, ekeys, "pq")

    def credit(b: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([b["corner"], b["p"], b["q"]], ignore_index=True)
        g = nodes.value_counts()
        return pd.DataFrame(
            {"node": g.index, "n_tri": g.to_numpy().astype("int64")}
        )

    ntri = grouped_sum(
        closed.map_batches(credit, batch_format="pandas"), ["node"], ["n_tri"]
    )
    merged = bucketed_hash_join(deg, ntri, "node", join_type="left outer")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        d = b["d"].astype("int64")
        return pd.DataFrame(
            {
                "node": b["node"],
                "n_tri": b["n_tri"].fillna(0).astype("int64"),
                "n_wedges": (d * (d - 1) // 2).astype("int64"),
            }
        )

    return merged.map_batches(finish, batch_format="pandas")


def _tarjan_scc(edges_df: pd.DataFrame) -> pd.DataFrame:
    """Iterative Tarjan over a collected edge frame (the driver path of
    :func:`scc`): (node, scc_id) with scc_id = the component's MIN node
    (string order — node ids are strings engine-wide, like
    :func:`bfs_levels`)."""
    adj: dict[str, list[str]] = {}
    nodes: set[str] = set()
    for u, v in zip(edges_df["u"], edges_df["v"]):
        nodes.add(u)
        nodes.add(v)
        if u != v:
            adj.setdefault(u, []).append(v)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: dict[str, str] = {}
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            nbrs = adj.get(node, ())
            for j in range(pi, len(nbrs)):
                w = nbrs[j]
                if w not in index:
                    work[-1] = (node, j + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                cid = min(comp)
                for w in comp:
                    out[w] = cid
    return pd.DataFrame(
        {"node": list(out), "scc_id": list(out.values())}
    ).astype({"node": str, "scc_id": str})


def scc(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
    driver_threshold: int = 250_000,
    max_rounds: int = 50,
) -> Dataset:
    """Strongly connected components of the DIRECTED simple graph:
    (node, scc_id) for every edge endpoint, scc_id = the component's
    minimum node id (node ids compare as strings engine-wide).  The
    directed sibling of the ``dup_clusters``/``kg_components`` WCC —
    what link-graph analysis runs to find mutually-reachable crawl
    neighborhoods (the web's SCC "bowtie" core).

    Below ``driver_threshold`` distinct edges the table is provably
    small: collect once and run iterative Tarjan (linear, exact) — the
    bfs_levels/k_core gating pattern.  Above it, the distributed
    FW-BW-Trim coloring algorithm (Orzan 2004; Hong et al. 2013; the
    Slota et al. multistep variant), every step built from this
    engine's exchange primitives:

    1. TRIM to fixpoint: a node with no in-edges or no out-edges in the
       active subgraph is a singleton SCC (degree tables via map-side
       combined grouped_sum; removal via bucketed endpoint semi joins).
    2. COLOR: forward min-label propagation to fixpoint — color(v) =
       min active node that reaches v (frontier-driven: one bucketed
       join + grouped MIN per round; only changed labels expand).
    3. COLLECT: color-class roots (color(v) == v) backward-BFS along
       REVERSED same-color edges; every node reaching its root inside
       its color class is in the root's SCC (the FW-BW theorem).
    4. Assign, remove, repeat on the leftovers.

    Labels/colors are mins of node ids — associative, exact, identical
    at any partitioning.  Rounds are diameter-bounded per fixpoint;
    ``max_rounds`` RAISES on non-convergence rather than returning a
    superset (the dup_clusters contract).  Worst case: a long pure
    chain trims from both ends only (documented, like simhash's
    degenerate corpora) — real web graphs trim and color in a handful
    of rounds."""
    from .agg import grouped_min, grouped_sum
    from .dedup import pin_blocks
    from .join import bucketed_anti_join, bucketed_hash_join, bucketed_semi_join

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        u = b[src_col].astype(str)
        v = b[dst_col].astype(str)
        return pd.DataFrame({"u": u, "v": v})

    e = pin_blocks(
        distinct_edges(edges.map_batches(norm, batch_format="pandas"), "u", "v"),
        16,
    )
    m = e.count()
    if m <= driver_threshold:
        edf = e.to_pandas() if m else pd.DataFrame({"u": [], "v": []})
        return ray.data.from_pandas(_tarjan_scc(edf))

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"node": pd.concat([b.u, b.v], ignore_index=True).unique()}
        )
        return out.assign(__part=_part_of(out["node"].to_numpy()))

    active_nodes = pin_blocks(
        e.map_batches(endpoints, batch_format="pandas")
        .groupby("__part")
        .map_groups(
            lambda g: g[["node"]].drop_duplicates(), batch_format="pandas"
        ),
        16,
    )
    # self-loops never affect SCC membership; drop them from the walkable set
    active_edges = pin_blocks(e.filter(lambda r: r["u"] != r["v"]), 16)
    assigned: list[Dataset] = []

    def _sizes() -> tuple[int, int]:
        return active_nodes.count(), active_edges.count()

    n_active, m_active = _sizes()
    for _ in range(max_rounds):
        if n_active == 0:
            break
        # ---- 1. trim to fixpoint -------------------------------------
        for _trim in range(max_rounds):
            if m_active == 0:
                # no edges left: every active node is a singleton SCC
                assigned.append(
                    active_nodes.map_batches(
                        lambda b: pd.DataFrame(
                            {"node": b.node, "scc_id": b.node}
                        ),
                        batch_format="pandas",
                    )
                )
                active_nodes = active_nodes.limit(0)
                n_active = 0
                break
            outdeg = grouped_sum(
                active_edges.map_batches(
                    lambda b: pd.DataFrame({"node": b.u.unique()}).assign(
                        d=np.int64(1)
                    ),
                    batch_format="pandas",
                ),
                ["node"],
                ["d"],
            ).map_batches(
                lambda b: b[["node"]].assign(has_out=np.int64(1)),
                batch_format="pandas",
            )
            indeg = grouped_sum(
                active_edges.map_batches(
                    lambda b: pd.DataFrame({"node": b.v.unique()}).assign(
                        d=np.int64(1)
                    ),
                    batch_format="pandas",
                ),
                ["node"],
                ["d"],
            ).map_batches(
                lambda b: b[["node"]].assign(has_in=np.int64(1)),
                batch_format="pandas",
            )
            core = bucketed_semi_join(
                bucketed_semi_join(active_nodes, outdeg, "node"), indeg, "node"
            )
            core = pin_blocks(core.select_columns(["node"]), 16)
            n_core = core.count()
            if n_core == n_active:
                break
            trimmed = bucketed_anti_join(active_nodes, core, "node")
            assigned.append(
                trimmed.map_batches(
                    lambda b: pd.DataFrame({"node": b.node, "scc_id": b.node}),
                    batch_format="pandas",
                )
            )
            active_nodes, n_active = core, n_core
            active_edges = pin_blocks(
                bucketed_semi_join(
                    bucketed_semi_join(
                        active_edges,
                        active_nodes.map_batches(
                            lambda b: b.rename(columns={"node": "u"}),
                            batch_format="pandas",
                        ),
                        "u",
                    ),
                    active_nodes.map_batches(
                        lambda b: b.rename(columns={"node": "v"}),
                        batch_format="pandas",
                    ),
                    "v",
                ),
                16,
            )
            m_active = active_edges.count()
        if n_active == 0:
            break
        # ---- 2. forward min-label coloring to fixpoint ----------------
        labels = pin_blocks(
            active_nodes.map_batches(
                lambda b: pd.DataFrame({"node": b.node, "color": b.node}),
                batch_format="pandas",
            ),
            16,
        )
        frontier = labels
        for _color in range(max_rounds * 4):
            if frontier.count() == 0:
                break
            cand = bucketed_hash_join(
                frontier.map_batches(
                    lambda b: pd.DataFrame({"u": b.node, "color": b.color}),
                    batch_format="pandas",
                ),
                active_edges,
                "u",
            ).map_batches(
                lambda b: pd.DataFrame({"node": b.v, "color": b.color}),
                batch_format="pandas",
            )
            new_labels = pin_blocks(
                grouped_min(labels.union(cand), ["node"], ["color"]), 16
            )
            # changed labels only: join new against old, keep strict improvements
            frontier = bucketed_hash_join(
                new_labels,
                labels.map_batches(
                    lambda b: b.rename(columns={"color": "old_color"}),
                    batch_format="pandas",
                ),
                "node",
            ).filter(lambda r: r["color"] < r["old_color"]).select_columns(
                ["node", "color"]
            )
            frontier = pin_blocks(frontier, 16)
            labels = new_labels
        else:
            raise RuntimeError(
                f"scc coloring did not converge in {max_rounds * 4} rounds"
            )
        # ---- 3. roots + backward reach within color class -------------
        roots = labels.filter(lambda r: r["node"] == r["color"]).select_columns(
            ["node"]
        )
        # same-color edge set, reversed: (v, u) pairs where color(u)==color(v)
        eu = bucketed_hash_join(
            active_edges,
            labels.map_batches(
                lambda b: pd.DataFrame({"u": b.node, "cu": b.color}),
                batch_format="pandas",
            ),
            "u",
        )
        ec = bucketed_hash_join(
            eu,
            labels.map_batches(
                lambda b: pd.DataFrame({"v": b.node, "cv": b.color}),
                batch_format="pandas",
            ),
            "v",
        ).filter(lambda r: r["cu"] == r["cv"]).select_columns(["u", "v"])
        ec_rev = pin_blocks(
            ec.map_batches(
                lambda b: pd.DataFrame({"u": b.v, "v": b.u}), batch_format="pandas"
            ),
            16,
        )
        reach = pin_blocks(
            roots.map_batches(
                lambda b: pd.DataFrame({"node": b.node, "scc_id": b.node}),
                batch_format="pandas",
            ),
            16,
        )
        frontier = reach
        for _back in range(max_rounds * 4):
            if frontier.count() == 0:
                break
            cand = bucketed_hash_join(
                frontier.map_batches(
                    lambda b: pd.DataFrame({"u": b.node, "scc_id": b.scc_id}),
                    batch_format="pandas",
                ),
                ec_rev,
                "u",
            ).map_batches(
                lambda b: pd.DataFrame({"node": b.v, "scc_id": b.scc_id}),
                batch_format="pandas",
            )
            # a node has exactly one color hence at most one root: min = the root
            new_reach = pin_blocks(
                grouped_min(reach.union(cand), ["node"], ["scc_id"]), 16
            )
            frontier = pin_blocks(
                bucketed_anti_join(new_reach, reach, "node"), 16
            )
            reach = new_reach
        else:
            raise RuntimeError(
                f"scc backward sweep did not converge in {max_rounds * 4} rounds"
            )
        assigned.append(reach)
        # ---- 4. remove settled nodes, keep going ----------------------
        active_nodes = pin_blocks(
            bucketed_anti_join(active_nodes, reach, "node"), 16
        )
        n_active = active_nodes.count()
        if n_active:
            active_edges = pin_blocks(
                bucketed_semi_join(
                    bucketed_semi_join(
                        active_edges,
                        active_nodes.map_batches(
                            lambda b: b.rename(columns={"node": "u"}),
                            batch_format="pandas",
                        ),
                        "u",
                    ),
                    active_nodes.map_batches(
                        lambda b: b.rename(columns={"node": "v"}),
                        batch_format="pandas",
                    ),
                    "v",
                ),
                16,
            )
            m_active = active_edges.count()
    else:
        raise RuntimeError(f"scc did not converge in {max_rounds} FW-BW rounds")

    if not assigned:
        return ray.data.from_pandas(
            pd.DataFrame(
                {"node": pd.Series([], dtype=str), "scc_id": pd.Series([], dtype=str)}
            )
        )
    out = assigned[0]
    for part in assigned[1:]:
        out = out.union(part)
    return out


def khop_per_source(
    edges: Dataset,
    sources: Dataset,
    max_depth: int,
    src_col: str = "subject",
    dst_col: str = "object",
    node_col: str = "node",
    driver_threshold: int = 250_000,
    directed: bool = False,
) -> Dataset:
    """Per-seed bounded-hop closeness statistics over the UNDIRECTED
    simple graph (``directed=True`` keeps edge direction — the causal/
    citation reach variant): for every source, the number of OTHER
    nodes within
    ``max_depth`` hops and the sum of their hop distances — the exact
    integer sufficient statistics behind closeness / harmonic / Lin
    centrality, evaluated the way centrality is done at scale: for a
    SEED SAMPLE, not all n nodes (per-round state is
    |seeds| x reach-sized, bounded by construction, never n^2).

    Same two execution shapes as :func:`bfs_levels` (driver BFS below
    ``driver_threshold`` distinct edges, else per-round bucketed joins)
    except the label table is keyed by (start, node) so distances keep
    their seed identity.  Distances are integer minima — the result is
    unique at any partitioning or round interleave.

    Returns one row per seed: (start, n_reach, dist_sum); isolated
    seeds report (0, 0)."""
    from .agg import grouped_min, grouped_sum
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    if directed:

        def one_way(b: pd.DataFrame) -> pd.DataFrame:
            a = b[src_col].astype(str)
            c = b[dst_col].astype(str)
            keep = a != c
            return pd.DataFrame({"node": a[keep], "nbr": c[keep]})

        ue = distinct_edges(
            edges.map_batches(one_way, batch_format="pandas"), "node", "nbr"
        ).materialize()
    else:
        ue = _undirected_distinct(edges, src_col, dst_col).materialize()

    # the undirected ue holds both directions of each edge
    if ue.count() <= (driver_threshold if directed else 2 * driver_threshold):
        from collections import deque

        edf = ue.to_pandas()
        adj: dict[str, list[str]] = {}
        for u, v in zip(edf["node"], edf["nbr"]):
            adj.setdefault(u, []).append(v)
        rows = []
        for s in sources.to_pandas()[node_col]:
            s = str(s)
            dist = {s: 0}
            q = deque([s])
            while q:
                u = q.popleft()
                d = dist[u]
                if d >= max_depth:
                    continue
                for nb in adj.get(u, ()):
                    if nb not in dist:
                        dist[nb] = d + 1
                        q.append(nb)
            rows.append((s, len(dist) - 1, sum(dist.values())))
        out = pd.DataFrame(rows, columns=["start", "n_reach", "dist_sum"])
        out["n_reach"] = out["n_reach"].astype("int64")
        out["dist_sum"] = out["dist_sum"].astype("int64")
        return ray.data.from_pandas(out)

    def as_label(b: pd.DataFrame) -> pd.DataFrame:
        s = b[node_col].astype(str)
        return pd.DataFrame({"start": s, "node": s, "dist": np.int64(0)})

    labels = pin_blocks(sources.map_batches(as_label, batch_format="pandas"), 16)
    frontier = labels

    for depth in range(1, max_depth + 1):
        if frontier.count() == 0:
            break
        hops = bucketed_hash_join(
            frontier.select_columns(["start", "node"]), ue, "node"
        ).map_batches(
            lambda b, d=depth: pd.DataFrame(
                {"start": b.start, "node": b.nbr, "dist": np.int64(d)}
            ),
            batch_format="pandas",
        )
        new_labels = pin_blocks(
            grouped_min(labels.union(hops), ["start", "node"], ["dist"]), 16
        )
        frontier = new_labels.filter(lambda r, d=depth: r["dist"] == d)
        labels = new_labels

    def stats_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "start": b["start"],
                "n_reach": (b["dist"] > 0).astype("int64"),
                "dist_sum": b["dist"].astype("int64"),
            }
        )
        return (
            d.groupby("start", sort=False)[["n_reach", "dist_sum"]]
            .sum()
            .reset_index()
        )

    return grouped_sum(
        labels.map_batches(stats_partial, batch_format="pandas"),
        ["start"],
        ["n_reach", "dist_sum"],
    )


def earliest_arrival_per_source(
    edges: Dataset,
    sources: Dataset,
    max_hops: int,
    src_col: str = "node",
    dst_col: str = "nbr",
    ts_col: str = "ts",
    node_col: str = "node",
    t0_col: str = "t0",
    driver_threshold: int = 250_000,
) -> Dataset:
    """Time-respecting reachability over a DIRECTED temporal graph:
    per seed, the earliest-arrival relaxation over paths whose edge
    timestamps are nondecreasing and start at/after the seed's t0 —
    the crawl-frontier question "what could this fetch have led to".
    An edge (u, v, ts) is traversable from a state with arrival a iff
    ts >= a; the new arrival at v is ts.

    Min-arrival relaxation is exact here because an earlier arrival
    enables a superset of future edges: any valid path's prefix arrival
    dominates the stored minimum, so keeping ONE state per (seed, node)
    per round preserves both reachability and the true earliest arrival
    within <= max_hops edges (the bounded-Bellman-Ford argument of
    :func:`sssp_hops`, with the ts-gate replacing the weight sum).

    Returns per seed: (start, n_reach, latest_us) — nodes reached
    (excluding the seed) and the max over reached nodes' earliest
    arrivals (= the seed's t0 when nothing is reachable).  Same
    driver/distributed gate as the other traversals; distributed state
    is |seeds| x reach-sized, keyed (start, node)."""
    from .agg import grouped_min, grouped_sum
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    ded = pin_blocks(
        edges.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b[src_col].astype(str),
                    "nbr": b[dst_col].astype(str),
                    "ts": b[ts_col].astype("int64"),
                }
            ).drop_duplicates(),
            batch_format="pandas",
        ),
        64,
    )

    sdf_prep = sources.map_batches(
        lambda b: pd.DataFrame(
            {"start": b[node_col].astype(str), "t0": b[t0_col].astype("int64")}
        ),
        batch_format="pandas",
    )

    if ded.count() <= driver_threshold:
        edf = ded.to_pandas()
        state = sdf_prep.to_pandas().rename(columns={"t0": "t"})
        state["node"] = state["start"]
        labels = state.copy()
        frontier = state
        for _ in range(max_hops):
            if not len(frontier):
                break
            hop = frontier.merge(edf, on="node")
            hop = hop[hop["ts"].to_numpy() >= hop["t"].to_numpy()]
            if not len(hop):
                break
            cand = (
                hop.groupby(["start", "nbr"], sort=False)["ts"]
                .min()
                .reset_index()
                .rename(columns={"nbr": "node", "ts": "t"})
            )
            merged = cand.merge(
                labels, on=["start", "node"], how="left", suffixes=("", "_old")
            )
            improved = merged["t_old"].isna() | (
                merged["t"] < merged["t_old"]
            )
            frontier = merged.loc[improved, ["start", "node", "t"]]
            labels = (
                pd.concat([labels, frontier], ignore_index=True)
                .groupby(["start", "node"], sort=False)["t"]
                .min()
                .reset_index()
            )
        out = labels.assign(
            n_reach=(labels["node"] != labels["start"]).astype("int64"),
        )
        agg = (
            out.groupby("start", sort=False)
            .agg(n_reach=("n_reach", "sum"), latest_us=("t", "max"))
            .reset_index()
        )
        agg["n_reach"] = agg["n_reach"].astype("int64")
        agg["latest_us"] = agg["latest_us"].astype("int64")
        return ray.data.from_pandas(agg.sort_values("start").reset_index(drop=True))

    def as_label(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "start": b["start"],
                "node": b["start"],
                "t": b["t0"].astype("int64"),
            }
        )

    labels = pin_blocks(sdf_prep.map_batches(as_label, batch_format="pandas"), 16)
    frontier = labels

    for _ in range(max_hops):
        if frontier.count() == 0:
            break
        hops = bucketed_hash_join(frontier, ded, "node").map_batches(
            lambda b: pd.DataFrame(
                {
                    "start": b["start"],
                    "node": b["nbr"],
                    "t": b["ts"].astype("int64"),
                }
            )[(b["ts"].to_numpy() >= b["t"].to_numpy())],
            batch_format="pandas",
        )
        cand = grouped_min(hops, ["start", "node"], ["t"]).map_batches(
            lambda b: b.assign(__sn=b["start"] + "\x1f" + b["node"]),
            batch_format="pandas",
        )
        keyed_labels = labels.map_batches(
            lambda b: pd.DataFrame(
                {"__sn": b["start"] + "\x1f" + b["node"], "t": b["t"]}
            ),
            batch_format="pandas",
        )
        merged = bucketed_hash_join(cand, keyed_labels, "__sn", join_type="left outer")
        frontier = pin_blocks(
            merged.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "start": b["start"],
                        "node": b["node"],
                        "t": b["t_l"].astype("int64"),
                    }
                )[b["t_r"].isna().to_numpy() | (b["t_l"] < b["t_r"]).to_numpy()],
                batch_format="pandas",
            ),
            16,
        )
        labels = pin_blocks(
            grouped_min(labels.union(frontier), ["start", "node"], ["t"]), 16
        )

    def stats_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "start": b["start"],
                "n_reach": (b["node"] != b["start"]).astype("int64"),
                "latest_us": b["t"].astype("int64"),
            }
        )
        g = d.groupby("start", sort=False).agg(
            n_reach=("n_reach", "sum"), latest_us=("latest_us", "max")
        )
        return g.reset_index()

    from .agg import grouped_max

    part = labels.map_batches(stats_partial, batch_format="pandas")
    n_sum = grouped_sum(part.select_columns(["start", "n_reach"]), ["start"], ["n_reach"])
    t_max = grouped_max(part.select_columns(["start", "latest_us"]), ["start"], ["latest_us"])
    return bucketed_hash_join(n_sum, t_max, "start")


def four_clique_counts(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
) -> Dataset:
    """Per-node 4-clique (K4) membership counts over the UNDIRECTED
    simple graph — the next motif up from triangles, same
    degree-orientation discipline so no clique is found twice and the
    oriented out-degrees stay O(sqrt m)-bounded:

    1. orient every edge low→high by (degree, node) total order (two
       bucketed degree-attach joins);
    2. oriented wedges (a→b, a→c) per source partition (out-degree
       bounded by orientation);
    3. triangles = wedges semi-joined against oriented edges on (b, c);
    4. each K4 is exactly one (triangle of its three lowest nodes,
       top node d) with a→d, b→d, c→d all oriented edges — one join on
       a plus two composite-key semi joins;
    5. flat-map the 4 corners, one grouped count.

    Returns (node, n_k4) for nodes in at least one K4.  All exchanges
    bucketed; candidate volume after step 4's first join is bounded by
    Σ (triangles per a) × outdeg(a) — the standard k-clique listing
    bound."""
    from .agg import grouped_sum
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    und = _undirected_distinct(edges, src_col, dst_col)

    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("node", sort=False).size().reset_index(name="deg")
        out["deg"] = out["deg"].astype("int64")
        return out

    deg = grouped_sum(
        und.map_batches(deg_partial, batch_format="pandas"), ["node"], ["deg"]
    )

    with_du = bucketed_hash_join(und, deg, "node")

    def key_u(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"u": b["node"], "du": b["deg"].astype("int64"), "node": b["nbr"]}
        )

    both_deg = bucketed_hash_join(
        with_du.map_batches(key_u, batch_format="pandas"), deg, "node"
    )

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        du = b["du"].to_numpy(dtype=np.int64)
        dv = b["deg"].to_numpy(dtype=np.int64)
        u = b["u"].to_numpy()
        v = b["node"].to_numpy()
        fwd = (du < dv) | ((du == dv) & (u < v))
        return pd.DataFrame({"a": u[fwd], "b": v[fwd], "da": du[fwd], "db": dv[fwd]})

    oe = pin_blocks(both_deg.map_batches(orient, batch_format="pandas"), 64)

    def tag_part(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__part"] = _part_of(b["a"].to_numpy())
        return b

    def wedges_part(g: pd.DataFrame):
        # many source nodes per partition (hash(a) groups — one Ray group
        # per PARTITION, not per node); within: sort by (a, db, b) and
        # emit i<j out-neighbor pairs per a-segment with repeat+arange,
        # the _doc_sim_edges construction — no per-node scheduling
        order = np.lexsort(
            (g["b"].to_numpy(), g["db"].to_numpy(), g["a"].to_numpy())
        )
        a = g["a"].to_numpy()[order]
        nb = g["b"].to_numpy()[order]
        n = len(a)
        if n < 2:
            return pd.DataFrame(
                {"a": pd.Series([], dtype=object),
                 "b": pd.Series([], dtype=object),
                 "c": pd.Series([], dtype=object)}
            )
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = a[1:] != a[:-1]
        seg_id = np.cumsum(new) - 1
        seg_end = np.empty(n, dtype=np.int64)
        ends = np.flatnonzero(np.concatenate((new[1:], [True]))) + 1
        seg_end = ends[seg_id]
        cnt = seg_end - np.arange(n) - 1
        i_idx = np.repeat(np.arange(n), cnt)
        j_idx = (
            np.concatenate(
                [np.arange(i + 1, e) for i, e in zip(np.arange(n), seg_end) if e > i + 1]
            )
            if cnt.sum()
            else np.array([], dtype=np.int64)
        )
        return pd.DataFrame({"a": a[i_idx], "b": nb[i_idx], "c": nb[j_idx]})

    wed = (
        oe.map_batches(tag_part, batch_format="pandas")
        .groupby("__part")
        .map_groups(
            lambda g: wedges_part(g.drop(columns="__part")), batch_format="pandas"
        )
    )

    oe_keys = oe.map_batches(
        lambda b: pd.DataFrame({"__bc": b["a"].astype(str) + "\x1f" + b["b"].astype(str)}),
        batch_format="pandas",
    )
    wed_keyed = wed.map_batches(
        lambda b: b.assign(__bc=b["b"].astype(str) + "\x1f" + b["c"].astype(str)),
        batch_format="pandas",
    )
    tri = pin_blocks(
        bucketed_hash_join(wed_keyed, oe_keys, "__bc").map_batches(
            lambda b: b[["a", "b", "c"]], batch_format="pandas"
        ),
        64,
    )

    # candidates: triangle x out-neighbor of a
    cand = bucketed_hash_join(
        tri,
        oe.map_batches(
            lambda b: pd.DataFrame({"a": b["a"], "d": b["b"]}), batch_format="pandas"
        ),
        "a",
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "a": b["a"],
                "b": b["b"],
                "c": b["c"],
                "d": b["d"],
                "__bd": b["b"].astype(str) + "\x1f" + b["d"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    step2 = bucketed_hash_join(cand, oe_keys.map_batches(
        lambda b: b.rename(columns={"__bc": "__bd"}), batch_format="pandas"
    ), "__bd").map_batches(
        lambda b: pd.DataFrame(
            {
                "a": b["a"],
                "b": b["b"],
                "c": b["c"],
                "d": b["d"],
                "__cd": b["c"].astype(str) + "\x1f" + b["d"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    k4 = bucketed_hash_join(step2, oe_keys.map_batches(
        lambda b: b.rename(columns={"__bc": "__cd"}), batch_format="pandas"
    ), "__cd")

    def corners(b: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate(
            [b["a"].to_numpy(), b["b"].to_numpy(), b["c"].to_numpy(), b["d"].to_numpy()]
        )
        d = pd.DataFrame({"node": nodes})
        out = d.groupby("node", sort=False).size().reset_index(name="n_k4")
        out["n_k4"] = out["n_k4"].astype("int64")
        return out

    return grouped_sum(
        k4.map_batches(corners, batch_format="pandas"), ["node"], ["n_k4"]
    )


def maximal_matching(
    edges: Dataset,
    src_col: str = "subject",
    dst_col: str = "object",
    max_rounds: int = 10,
    driver_threshold: int = 250_000,
) -> Dataset:
    """Deterministic maximal matching by the handshake rule: each round
    every node nominates its MINIMAL incident edge (by the edge's
    string key u\\x1f v — any total order works, it just must be the
    same one the oracle uses), an edge joins the matching iff BOTH its
    endpoints nominated it, matched nodes leave the graph.  The
    globally minimal surviving edge is always matched, so every round
    makes progress; symmetric tie-breaking needs no randomness — the
    deterministic cousin of Luby-style symmetry breaking, and the
    standard way to coarsen graphs for multilevel partitioning.

    Rounds = min(convergence, ``max_rounds``); at convergence the
    result is a maximal matching (no surviving edge has two unmatched
    endpoints).  Distributed rounds: one grouped MIN per direction +
    two bucketed semi joins, state node-sized, blocks pinned.  Returns
    (u, v) matched pairs."""
    from .agg import grouped_min
    from .dedup import pin_blocks
    from .join import bucketed_hash_join

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str)
        c = b[dst_col].astype(str)
        keep = a != c
        a, c = a[keep], c[keep]
        u = np.minimum(a, c)
        v = np.maximum(a, c)
        return pd.DataFrame({"u": u, "v": v, "ek": u + "\x1f" + v})

    live = pin_blocks(
        distinct_edges(
            edges.map_batches(norm, batch_format="pandas"), "u", "v"
        ).map_batches(
            lambda b: b.assign(ek=b["u"] + "\x1f" + b["v"]),
            batch_format="pandas",
        ),
        64,
    )

    if live.count() <= driver_threshold:
        edf = live.to_pandas()
        matched_pairs = []
        for _ in range(max_rounds):
            if not len(edf):
                break
            me: dict[str, str] = {}
            for u, v, ek in zip(edf["u"], edf["v"], edf["ek"]):
                if u not in me or ek < me[u]:
                    me[u] = ek
                if v not in me or ek < me[v]:
                    me[v] = ek
            m = edf[
                (edf["ek"].to_numpy() == edf["u"].map(me).to_numpy())
                & (edf["ek"].to_numpy() == edf["v"].map(me).to_numpy())
            ]
            if not len(m):
                break
            matched_pairs.append(m[["u", "v"]])
            gone = set(m["u"]) | set(m["v"])
            edf = edf[~edf["u"].isin(gone) & ~edf["v"].isin(gone)]
        out = (
            pd.concat(matched_pairs, ignore_index=True)
            if matched_pairs
            else pd.DataFrame({"u": pd.Series([], dtype=object), "v": pd.Series([], dtype=object)})
        )
        return ray.data.from_pandas(out)

    matched = []
    for _ in range(max_rounds):
        if live.count() == 0:
            break

        def both_dirs(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "node": pd.concat([b["u"], b["v"]], ignore_index=True),
                    "ek": pd.concat([b["ek"], b["ek"]], ignore_index=True),
                }
            )

        nominee = grouped_min(
            live.map_batches(both_dirs, batch_format="pandas"), ["node"], ["ek"]
        ).map_batches(
            lambda b: b.rename(columns={"ek": "me"}), batch_format="pandas"
        )
        with_u = bucketed_hash_join(
            live.map_batches(
                lambda b: b.rename(columns={"u": "node"}), batch_format="pandas"
            ),
            nominee,
            "node",
        ).map_batches(
            lambda b: pd.DataFrame(
                {"u": b["node"], "v": b["v"], "ek": b["ek"]}
            )[(b["ek"] == b["me"]).to_numpy()],
            batch_format="pandas",
        )
        m_round = pin_blocks(
            bucketed_hash_join(
                with_u.map_batches(
                    lambda b: b.rename(columns={"v": "node"}), batch_format="pandas"
                ),
                nominee,
                "node",
            ).map_batches(
                lambda b: pd.DataFrame({"u": b["u"], "v": b["node"]})[
                    (b["ek"] == b["me"]).to_numpy()
                ],
                batch_format="pandas",
            ),
            16,
        )
        if m_round.count() == 0:
            break
        matched.append(m_round)

        def gone_nodes(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"node": pd.concat([b["u"], b["v"]], ignore_index=True)}
            )

        gone = m_round.map_batches(gone_nodes, batch_format="pandas")
        from .join import bucketed_anti_join

        live = pin_blocks(
            bucketed_anti_join(
                bucketed_anti_join(
                    live.map_batches(
                        lambda b: b.rename(columns={"u": "node"}),
                        batch_format="pandas",
                    ),
                    gone,
                    "node",
                ).map_batches(
                    lambda b: b.rename(columns={"node": "u", "v": "node"}),
                    batch_format="pandas",
                ),
                gone,
                "node",
            ).map_batches(
                lambda b: b.rename(columns={"node": "v"}), batch_format="pandas"
            ),
            64,
        )

    if not matched:
        return ray.data.from_pandas(
            pd.DataFrame({"u": pd.Series([], dtype=object), "v": pd.Series([], dtype=object)})
        )
    out = matched[0]
    for part in matched[1:]:
        out = out.union(part)
    return out
