"""Reproducible operator stress harness behind the BASELINE.md
"Operator stress" numbers: synthesizes the large deterministic corpora
under /tmp and times the dedup / similarity / graph / window / embedding
families at 10-100x the sf0.1 bench scale.

Usage:
    python tools/stress.py docs       # 200k-doc dedup + similarity join
    python tools/stress.py docs1m    # 1M-doc exact dedup + minhash
    python tools/stress.py singletons # 10M ids + 100k pairs dup_clusters
    python tools/stress.py events    # 10M-event window family
    python tools/stress.py graph     # 1.6M-edge distributed graph paths
    python tools/stress.py embed     # 500k-vector IVF near-dup + ANN
    python tools/stress.py joins     # 10M x 1.5M keyed join family
    python tools/stress.py keys10m   # 10M distinct keys through grouped_sum

Corpora are content-deterministic (seeded numpy; rep-mutated copies of
the sf0.1 tables) and cached under /tmp — rerunning skips generation.
Each suite owns its Ray session and prints one timing line per operator.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

# self-sufficient invocation (`python tools/stress.py ...` from anywhere):
# the repo root must be importable in THIS process and in ray workers
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
os.environ["PYTHONPATH"] = (
    _ROOT + os.pathsep + os.environ["PYTHONPATH"]
    if os.environ.get("PYTHONPATH")
    else _ROOT
)


def _session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
        )
    from climatemind_ontology_processing_ray import runtime

    runtime.configure_data_context()
    import ray.data as rd

    return ray, rd


def _mutated_docs(path: str, reps: int, shards: int = 1) -> None:
    """reps x sf0.1 documents; every 4th word replaced with a rep token
    so near-duplicates stay WITHIN a rep (cross-rep Jaccard collapses)."""
    if os.path.isdir(path) and os.listdir(path):
        return
    if os.path.isfile(path):
        return
    base = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    per_shard = reps // shards

    def make(rep: int) -> pd.DataFrame:
        d = base.copy()
        d["doc_id"] = d["doc_id"] + rep * len(base)
        tok = f"r{rep}"
        d["text"] = [
            " ".join(tok if i % 4 == 3 else w for i, w in enumerate(t.split(" ")))
            for t in d["text"]
        ]
        return d

    if shards == 1:
        tbl = pa.Table.from_pandas(
            pd.concat([make(r) for r in range(reps)], ignore_index=True),
            preserve_index=False,
        )
        pq.write_table(tbl, path)
    else:
        os.makedirs(path, exist_ok=True)
        for s in range(shards):
            frames = [make(s * per_shard + r) for r in range(per_shard)]
            pq.write_table(
                pa.Table.from_pandas(
                    pd.concat(frames, ignore_index=True), preserve_index=False
                ),
                f"{path}/part{s}.parquet",
            )


def _t(label: str, fn):
    t0 = time.time()
    out = fn()
    print(f"{label}: {time.time() - t0:.1f}s ({out})")


def suite_docs() -> None:
    ray, rd = _session()
    p = "/tmp/stress_docs/docs.parquet"
    os.makedirs("/tmp/stress_docs", exist_ok=True)
    _mutated_docs(p, reps=40)
    ds = rd.read_parquet(p, columns=["doc_id", "text"])
    from climatemind_ontology_processing_ray.functions.dedup import (
        dup_clusters,
        exact_dedup,
        minhash_lsh_pairs,
        simhash_buckets,
    )
    from climatemind_ontology_processing_ray.functions.simjoin import similarity_join

    _t("exact_dedup @200k", lambda: f"{exact_dedup(ds, 'doc_id').count()} kept")
    t0 = time.time()
    pairs = minhash_lsh_pairs(ds, "doc_id").materialize()
    print(f"minhash_lsh @200k: {time.time() - t0:.1f}s ({pairs.count()} pairs)")
    _t(
        "dup_clusters @200k",
        lambda: f"{dup_clusters(pairs.map_batches(lambda b: b[['id_a', 'id_b']], batch_format='pandas'), id_col='doc_id').count()} rows",
    )
    _t(
        "similarity_join @200k",
        lambda: f"{similarity_join(ds, 'doc_id').count()} pairs",
    )
    _t("simhash @200k", lambda: f"{simhash_buckets(ds, 'doc_id').count()} pairs")


def suite_singletons() -> None:
    """dup_clusters driver fast path at the production shape: 10M corpus
    ids, 100k dup pairs.  The pair set resolves driver-side (union-find),
    singletons are emitted DISTRIBUTED via a broadcast member set — the
    assertion is that driver RSS stays flat (pair-bounded) instead of
    pulling the 10M-id column onto the driver (VERDICT r2 item 1)."""
    import resource

    ray, rd = _session()
    from climatemind_ontology_processing_ray.functions.dedup import dup_clusters

    n_ids, n_pairs = 10_000_000, 100_000
    p = "/tmp/stress_singleton_ids"
    if not (os.path.isdir(p) and os.listdir(p)):
        os.makedirs(p, exist_ok=True)
        for s in range(16):
            lo = s * (n_ids // 16)
            pq.write_table(
                pa.table({"doc_id": np.arange(lo, lo + n_ids // 16, dtype=np.int64)}),
                f"{p}/part{s}.parquet",
            )
    rng = np.random.RandomState(5)
    a = rng.randint(0, n_ids, n_pairs).astype(np.int64)
    b = rng.randint(0, n_ids, n_pairs).astype(np.int64)
    keep = a != b
    pairs = rd.from_arrow(
        pa.table({"id_a": np.minimum(a, b)[keep], "id_b": np.maximum(a, b)[keep]})
    )
    ids = rd.read_parquet(p)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    _t(
        "dup_clusters 10M ids + 100k pairs",
        lambda: f"{dup_clusters(pairs, ids, id_col='doc_id').count()} rows",
    )
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    print(f"driver peak RSS: {rss0} MiB before -> {rss1} MiB after (delta {rss1 - rss0} MiB)")


def suite_docs1m() -> None:
    ray, rd = _session()
    _mutated_docs("/tmp/stress_docs_1m", reps=200, shards=5)
    ds = rd.read_parquet("/tmp/stress_docs_1m", columns=["doc_id", "text"])
    from climatemind_ontology_processing_ray.functions.dedup import (
        exact_dedup,
        minhash_lsh_pairs,
    )

    _t("exact_dedup @1M", lambda: f"{exact_dedup(ds, 'doc_id').count()} kept")
    _t("minhash_lsh @1M", lambda: f"{minhash_lsh_pairs(ds, 'doc_id').count()} pairs")


def suite_events() -> None:
    ray, rd = _session()
    p = "/tmp/stress_events.parquet"
    if not os.path.exists(p):
        ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
        frames = []
        for rep in range(100):
            d = ev.copy()
            d["event_id"] = d["event_id"] + rep * len(ev)
            d["user_id"] = d["user_id"] + rep * 10_000
            frames.append(d)
        pq.write_table(
            pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False),
            p,
        )
    ds = rd.read_parquet(p, columns=["event_id", "user_id", "ts", "event_type"]).materialize()
    from climatemind_ontology_processing_ray.functions.windows import (
        funnel_counts,
        lead_lag,
        sessionize,
        window_rank,
    )

    _t("sessionize @10M", lambda: f"{sessionize(ds, 'ts', 'user_id', 1800).count()} rows")
    _t(
        "lead_lag @10M",
        lambda: f"{lead_lag(ds, 'user_id', 'ts', 'ts', tiebreak_cols=['event_id']).count()} rows",
    )
    _t(
        "funnel @10M",
        lambda: f"{len(funnel_counts(ds, 'user_id', 'ts', 'event_type', ['signup', 'view', 'purchase']))} steps",
    )
    _t(
        "window_rank @10M",
        lambda: f"{window_rank(ds, 'user_id', 'ts', tiebreak_cols=['event_id']).count()} rows",
    )


def suite_graph() -> None:
    ray, rd = _session()
    p = "/tmp/stress_docs/docs.parquet"
    os.makedirs("/tmp/stress_docs", exist_ok=True)
    _mutated_docs(p, reps=40)
    docs = rd.read_parquet(p, columns=["doc_id", "source", "n_chars"]).filter(
        lambda r: r["doc_id"] < 50000
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g.doc_id.to_numpy(), g.n_chars.to_numpy()))
        ids = g.doc_id.to_numpy()[order]
        chars = g.n_chars.to_numpy()[order]
        hi = np.searchsorted(chars, chars + 5, side="right")
        lo = np.arange(len(chars)) + 1
        cnt = np.maximum(hi - lo, 0)
        i_idx = np.repeat(np.arange(len(chars)), cnt)
        j_idx = (
            np.concatenate([np.arange(a, b) for a, b in zip(lo, hi) if b > a])
            if cnt.sum()
            else np.array([], dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "subject": np.minimum(ids[i_idx], ids[j_idx]),
                "object": np.maximum(ids[i_idx], ids[j_idx]),
            }
        )

    edges = docs.groupby("source").map_groups(pairs, batch_format="pandas").materialize()
    print(f"edge table: {edges.count()} edges")
    from climatemind_ontology_processing_ray.functions.graph_algo import (
        bfs_levels,
        k_core,
        triangle_count,
    )

    _t(
        "triangle_count join path",
        lambda: f"{triangle_count(edges, broadcast_threshold=0)} triangles",
    )
    _t(
        "k_core distributed",
        lambda: f"{k_core(edges, 4, driver_threshold=0).count()} core nodes",
    )
    srcs = rd.from_pandas(pd.DataFrame({"node": [str(i) for i in range(0, 50000, 50)]}))
    _t(
        "bfs_levels distributed",
        lambda: f"{bfs_levels(edges, srcs, 3, driver_threshold=0).count()} labeled",
    )


def suite_embed() -> None:
    ray, rd = _session()
    p = "/tmp/stress_emb.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(7)
        n, d = 500_000, 32
        centers = rng.normal(0, 1, (64, d))
        x = centers[rng.integers(0, 64, n)] + rng.normal(0, 0.3, (n, d))
        twin = rng.choice(n, 5000, replace=False)
        x[twin[2500:]] = x[twin[:2500]] + rng.normal(0, 0.001, (2500, d))
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(n), pa.int64()),
                    "embedding": pa.array(x.astype(np.float32).tolist(), pa.list_(pa.float32())),
                }
            ),
            p,
        )
    ds = rd.read_parquet(p)
    from climatemind_ontology_processing_ray.functions.ann import ivf_topk
    from climatemind_ontology_processing_ray.functions.dedup import embedding_neardup_pairs

    _t(
        "embedding_neardup ivf @500k",
        lambda: f"{embedding_neardup_pairs(ds, 'vec_id', 'embedding', threshold=0.999, method='ivf').count()} pairs",
    )
    q = np.random.default_rng(3).normal(0, 1, (16, 32))
    _t("ann_ivf @500k", lambda: f"{ivf_topk(ds, q, k=10).count()} rows")

    from climatemind_ontology_processing_ray.functions.cluster import semdedup

    def _semdedup():
        out = semdedup(
            ds, "vec_id", "embedding", k=64, iters=2, threshold=0.999
        ).to_pandas()
        return f"{int((~out['kept']).sum())} removed of {len(out)}"

    _t("semdedup @500k (k=64)", _semdedup)

    from climatemind_ontology_processing_ray.functions.pq import (
        pq_encode,
        pq_topk,
        pq_train,
    )

    def _pq():
        cents = pq_train(ds, num_subspaces=4, k=64, iters=2, quant=1000)
        n = pq_encode(ds, cents).count()
        top = pq_topk(ds, np.asarray(q), cents, k=10, quant=1000)
        return f"{n} code rows, {len(top)} adc hits"

    _t("pq train+encode+adc @500k (M=4,k=64)", _pq)

    from climatemind_ontology_processing_ray.functions.pq import ivfpq_topk, ivfpq_train

    def _ivfpq():
        coarse, pqc = ivfpq_train(
            ds, n_cells=64, coarse_iters=2, num_subspaces=4, pq_k=64,
            pq_iters=2, quant=1000,
        )
        top = ivfpq_topk(
            ds, np.asarray(q), coarse, pqc, k=10, nprobe=8, quant=1000
        )
        return f"{len(top)} pruned-adc hits"

    _t("ivfpq train+search @500k (64 cells, M=4,k=64, nprobe=8)", _ivfpq)

    from climatemind_ontology_processing_ray.functions.pq import (
        ivfpq_encode,
        ivfpq_search_codes,
    )

    def _ivfpq_stored():
        coarse, pqc = ivfpq_train(
            ds, n_cells=64, coarse_iters=2, num_subspaces=4, pq_k=64,
            pq_iters=2, quant=1000,
        )
        codes = ivfpq_encode(ds, coarse, pqc, quant=1000).materialize()
        t0 = time.perf_counter()
        top = ivfpq_search_codes(
            codes, np.asarray(q), coarse, pqc, k=10, nprobe=8, quant=1000
        )
        return (
            f"{len(top)} stored-adc hits; search-only "
            f"{time.perf_counter() - t0:.1f}s over {codes.count()} code rows"
        )

    _t("ivfpq encode-once + stored-code search @500k", _ivfpq_stored)


def suite_joins() -> None:
    ray, rd = _session()
    pe = "/tmp/stress_events.parquet"
    po = "/tmp/stress_orders.parquet"
    if not os.path.exists(pe):
        suite_events()  # builds the 10M-event corpus
    if not os.path.exists(po):
        o = pq.read_table(f"{SF}/orders.parquet").to_pandas()
        frames = []
        for rep in range(100):
            d = o.copy()
            d["o_orderkey"] = d["o_orderkey"] + rep * len(o)
            d["o_custkey"] = d["o_custkey"] + rep * 10_000
            frames.append(d)
        pq.write_table(
            pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False),
            po,
        )
    ev = rd.read_parquet(pe, columns=["event_id", "user_id", "ts"]).materialize()
    od = rd.read_parquet(po, columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "user_id"}), batch_format="pandas"
    ).materialize()
    from climatemind_ontology_processing_ray.functions.join import (
        asof_join,
        bucketed_anti_join,
        bucketed_hash_join,
        bucketed_semi_join,
    )

    _t("semi 10M x 1.5M", lambda: f"{bucketed_semi_join(ev, od, 'user_id').count()} rows")
    _t("anti 10M x 1.5M", lambda: f"{bucketed_anti_join(ev, od, 'user_id').count()} rows")
    _t(
        "asof 10M x 1.5M",
        lambda: f"{asof_join(ev, od, 'user_id', 'ts', right_ts_col='o_orderdate').count()} rows",
    )
    _t(
        "inner (199M-row fan-out)",
        lambda: f"{bucketed_hash_join(ev, od, 'user_id').count()} rows",
    )


def suite_hashshuffle() -> None:
    """Keep the `ShuffleStrategy.HASH_SHUFFLE` repro alive (VERDICT r2
    item 9 / BASELINE endurance notes: hung at 10M pages on ray 2.49
    under the tuned context while the sort-based default took 34s).

    Runs the KG pipeline on the bench corpus (default 1M pages,
    GRAFT_HS_PAGES to override) under BOTH strategies with a per-run
    wall-clock alarm, printing time or TIMEOUT — rerun on every Ray
    upgrade; if the hash run completes at 10M pages, flip the default
    for multi-node deployments."""
    import signal

    ray, rd = _session()
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    import bench
    from ray.data.context import ShuffleStrategy

    from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot
    from climatemind_ontology_processing_ray.pipelines.kg import (
        KGConfig,
        run_kg_pipeline,
    )

    n_pages = int(os.environ.get("GRAFT_HS_PAGES", "1000000"))
    pages_path = bench.prepare_pages(n_pages)
    snap = build_fixture_snapshot()
    n_blocks = min(1024, max(96, n_pages // 15_625))
    budget = int(os.environ.get("GRAFT_HS_TIMEOUT", "600"))
    ctx = rd.DataContext.get_current()
    for strategy in (ShuffleStrategy.SORT_SHUFFLE_PULL_BASED, ShuffleStrategy.HASH_SHUFFLE):
        ctx.shuffle_strategy = strategy
        t0 = time.time()

        def _alarm(*_a):
            raise TimeoutError

        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(budget)
        try:
            pages = rd.read_parquet(pages_path, override_num_blocks=n_blocks)
            n = run_kg_pipeline(pages, snap, KGConfig()).canonical_edges.count()
            print(f"{strategy} @{n_pages}: {time.time() - t0:.1f}s ({n} edges)")
        except TimeoutError:
            print(f"{strategy} @{n_pages}: TIMEOUT after {budget}s")
        finally:
            signal.alarm(0)
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED


def suite_keys10m() -> None:
    """VERDICT r4 fan-out criterion: >=10M DISTINCT keys through
    grouped_sum with bounded per-partition frames.  Partials are NOT
    pre-combined (every key unique), so the exchange carries all 10M rows;
    adaptive_parts must size the fan-out so each merge frame stays
    ~ROWS_PER_PART rows instead of 10M/64."""
    ray, rd = _session()
    p = "/tmp/stress_keys10m.parquet"
    if not os.path.exists(p):
        rng = np.random.RandomState(7)
        n = 10_000_000
        pq.write_table(
            pa.table(
                {
                    "k": np.arange(n, dtype=np.int64),
                    "v": rng.randint(0, 1000, size=n).astype(np.int64),
                }
            ),
            p,
        )
    from climatemind_ontology_processing_ray.functions.agg import grouped_sum
    from climatemind_ontology_processing_ray.functions.partitioning import (
        adaptive_parts,
    )

    ds = rd.read_parquet(p)
    parts = adaptive_parts(ds)
    print(f"adaptive fan-out: {parts} parts (~{10_000_000 // parts} rows/partition)")
    assert parts >= 64, parts

    import pandas as pd_

    max_seen = {"rows": 0}

    def measured(ds_):
        out = grouped_sum(ds_, ["k"], ["v"])
        got = out.count()
        return f"{got} groups"

    _t("grouped_sum 10M distinct keys", lambda: measured(ds))
    # bounded-frame check: per-partition row count == ceil(10M/parts)+-skew
    df = (
        ds.map_batches(
            lambda b: pd_.DataFrame(
                {
                    "part": pd_.util.hash_array(
                        b["k"].to_numpy(), categorize=False
                    )
                    % np.uint64(parts)
                }
            ),
            batch_format="pandas",
        )
        .groupby("part")
        .count()
        .to_pandas()
    )
    print(
        f"partition frame rows: max {df['count()'].max()}, "
        f"mean {df['count()'].mean():.0f} over {len(df)} parts"
    )


def suite_skew() -> None:
    """Hot-key join skew: 10M left rows with ONE key holding 30% of them
    joined to a 100k-row dimension.  bucketed_hash_join serializes the
    hot key's 3M rows in one bucket task; skew_join spreads them over 16
    salts.  Both must return identical row counts."""
    ray, rd = _session()
    p = "/tmp/stress_skew_left.parquet"
    if not os.path.exists(p):
        rng = np.random.RandomState(11)
        n = 10_000_000
        k = np.where(
            rng.rand(n) < 0.3, 0, rng.randint(1, 100_000, size=n)
        ).astype(np.int64)
        pq.write_table(
            pa.table({"k": k, "x": np.arange(n, dtype=np.int64)}), p
        )
    pdim = "/tmp/stress_skew_dim.parquet"
    if not os.path.exists(pdim):
        pq.write_table(
            pa.table(
                {
                    "k": np.arange(100_000, dtype=np.int64),
                    "label": np.arange(100_000, dtype=np.int64) % 97,
                }
            ),
            pdim,
        )
    from climatemind_ontology_processing_ray.functions.join import (
        bucketed_hash_join,
        skew_join,
    )

    left = rd.read_parquet(p).materialize()
    dim = rd.read_parquet(pdim).materialize()
    _t(
        "bucketed join, 30% hot key",
        lambda: f"{bucketed_hash_join(left, dim, 'k').count()} rows",
    )
    _t(
        "skew join (16 salts), 30% hot key",
        lambda: f"{skew_join(left, dim, 'k', num_salts=16).count()} rows",
    )


def suite_textops() -> None:
    """Round-4 text-pipeline additions at 1M docs: line-level dedup
    (RefinedWeb repeated-paragraph removal shape) and the bigram rarity
    LM surrogate — both open-vocabulary exchanges, no broadcast."""
    ray, rd = _session()
    _mutated_docs("/tmp/stress_docs_1m", reps=200, shards=5)
    ds = rd.read_parquet("/tmp/stress_docs_1m", columns=["doc_id", "text"])
    from climatemind_ontology_processing_ray.functions.dedup import line_dedup
    from climatemind_ontology_processing_ray.functions.text import rarity_score

    def to_lines(b):
        toks = b["text"].str.split(" ")
        b = b.copy()
        b["text"] = [
            "\n".join(" ".join(ws[i : i + 8]) for i in range(0, len(ws), 8))
            for ws in toks
        ]
        return b

    lines = ds.map_batches(to_lines, batch_format="pandas")
    _t("line_dedup @1M", lambda: f"{line_dedup(lines, 'doc_id').count()} docs")
    _t("rarity_score @1M", lambda: f"{rarity_score(ds).count()} docs")


def suite_knn() -> None:
    """knn_graph at 500k x 32-d, blocked by the generating cluster id
    (labels = IVF-style cells, ~7.8k vectors per all-pairs block — the
    strip-chunked in-block matmul's stress shape)."""
    ray, rd = _session()
    p = "/tmp/stress_emb_labeled.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(7)
        n, d = 500_000, 32
        centers = rng.normal(0, 1, (64, d))
        lab = rng.integers(0, 64, n)
        x = centers[lab] + rng.normal(0, 0.3, (n, d))
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(n), pa.int64()),
                    "embedding": pa.array(
                        x.astype(np.float32).tolist(), pa.list_(pa.float32())
                    ),
                    "label": pa.array(lab.astype(np.int32), pa.int32()),
                }
            ),
            p,
        )
    ds = rd.read_parquet(p)
    from climatemind_ontology_processing_ray.functions.ann import knn_graph

    _t(
        "knn_graph @500k (64 cells)",
        lambda: f"{knn_graph(ds, id_col='vec_id', vec_col='embedding', block_col='label', k=5).count()} edges",
    )


def suite_fuzzy() -> None:
    """fuzzy_join at 2M records / 512 blocks: names drawn from a 4k-word
    vocabulary as "adj noun" pairs, so the per-block DISTINCT-name count
    (~3.5k) exercises the char-bag prune + pair-lane DP at ~6M candidate
    pairs per block while the expansion stays output-sized."""
    ray, rd = _session()
    p = "/tmp/stress_fuzzy.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(13)
        n = 2_000_000
        alpha = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        words = np.array(
            [
                "".join(rng.choice(alpha, rng.integers(3, 9)))
                for _ in range(64)
            ]
        )
        name = np.char.add(
            np.char.add(words[rng.integers(0, 64, n)], " "),
            words[rng.integers(0, 64, n)],
        )
        pq.write_table(
            pa.table(
                {
                    "key": pa.array(np.arange(n), pa.int64()),
                    "name": pa.array(name.tolist(), pa.string()),
                    "block": pa.array(
                        rng.integers(0, 512, n).astype(np.int64), pa.int64()
                    ),
                }
            ),
            p,
        )
    ds = rd.read_parquet(p)
    from climatemind_ontology_processing_ray.functions.fuzzy import fuzzy_join
    from climatemind_ontology_processing_ray.functions.dsir import dsir_weights

    _t(
        "fuzzy_join @2M (512 blocks, d<=1)",
        lambda: f"{fuzzy_join(ds, 'key', 'name', 'block', max_dist=1).count()} pairs",
    )
    _mutated_docs("/tmp/stress_docs_1m", reps=200, shards=5)
    docs = rd.read_parquet("/tmp/stress_docs_1m", columns=["doc_id", "text"])

    def add_src(b):
        b = b.copy()
        b["source"] = np.where(b["doc_id"].to_numpy() % 10 == 0, "tgt", "raw")
        return b

    docs = docs.map_batches(add_src, batch_format="pandas")
    _t(
        "dsir_weights @1M",
        lambda: f"{dsir_weights(docs, 'doc_id', 'text', 'source', 'tgt').count()} docs",
    )
    from climatemind_ontology_processing_ray.functions.fuzzy import fuzzy_lookup

    # labels = real names with one mutated char, so matches actually
    # flow through the DP + row expansion (not just the prune)
    sample_names = (
        rd.read_parquet(p, columns=["name"]).limit(50).to_pandas()["name"].tolist()
    )
    labels = [("z" + n[1:]) for n in dict.fromkeys(sample_names)]
    _t(
        f"fuzzy_lookup @2M rows x {len(labels)} labels (d<=1, broadcast, no shuffle)",
        lambda: f"{fuzzy_lookup(ds, 'name', labels, max_dist=1).count()} matches",
    )


def suite_mergeedges() -> None:
    """Incremental canonical-edge merge at web scale: two canonical
    tables of 1M distinct triples each (600k keys overlap), merged with
    pipelines/api.py:merge_canonical_edges (adaptive coarse-partition
    Arrow merge — r4 verdict item 3's 'bounded per-partition frames at
    >=1M distinct triples' evidence).  Checks support sums and the
    sources union-top-k on the overlap."""
    ray, rd = _session()
    import pyarrow.compute as pc2

    from climatemind_ontology_processing_ray.pipelines.api import merge_canonical_edges

    def edge_table(start: int, n: int, tag: str) -> pa.Table:
        ids = np.arange(start, start + n, dtype=np.int64)
        return pa.table(
            {
                "subject": pa.array([f"s{i}" for i in ids], pa.string()),
                "object": pa.array([f"o{i % 977}" for i in ids], pa.string()),
                "predicate": pa.array(
                    ["causes" if i % 2 == 0 else "inhibits" for i in ids],
                    pa.string(),
                ),
                "support": pa.array(np.full(n, 3, np.int64), pa.int64()),
                "sources": pa.array(
                    [[f"http://{tag}/{i}"] for i in ids], pa.list_(pa.string())
                ),
            }
        )

    a = edge_table(0, 1_000_000, "a")
    b = edge_table(400_000, 1_000_000, "b")  # 600k-key overlap

    def run():
        out = merge_canonical_edges(
            rd.from_arrow(a).repartition(32), rd.from_arrow(b).repartition(32)
        )
        tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
        sup = tbl.column("support")
        n6 = pc2.sum(pc2.equal(sup, 6).cast(pa.int64())).as_py()
        n3 = pc2.sum(pc2.equal(sup, 3).cast(pa.int64())).as_py()
        assert tbl.num_rows == 1_400_000 and n6 == 600_000 and n3 == 800_000
        two_src = pc2.sum(
            pc2.equal(pc2.list_value_length(tbl.column("sources")), 2).cast(
                pa.int64()
            )
        ).as_py()
        assert two_src == 600_000
        return f"{tbl.num_rows} merged rows, {n6} overlapped"

    _t("merge_canonical_edges @1.4M distinct (600k overlap)", run)


def suite_sketch() -> None:
    """One-pass mergeable sketches at 20M rows: global and grouped
    DDSketch quantiles (only (group, bucket) partials ever move) vs the
    exact value-histogram pass on the same column."""
    ray, rd = _session()
    p = "/tmp/stress_sketch.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(31)
        n = 20_000_000
        pq.write_table(
            pa.table(
                {
                    "grp": pa.array(rng.integers(0, 200, n), pa.int64()),
                    "v": pa.array(
                        (np.exp(rng.normal(6, 2, n)) + 1).astype(np.int64),
                        pa.int64(),
                    ),
                }
            ),
            p,
        )
    ds = rd.read_parquet(p).materialize()
    from climatemind_ontology_processing_ray.functions.sketch import (
        ddsketch_quantiles,
        ddsketch_quantiles_grouped,
        exact_quantiles,
    )

    qs = [0.1, 0.5, 0.9, 0.99]
    _t(
        "ddsketch global @20M",
        lambda: f"{len(ddsketch_quantiles(ds, 'v', qs, rel_err=0.01))} rows",
    )
    _t(
        "ddsketch grouped @20M x 200 groups",
        lambda: f"{len(ddsketch_quantiles_grouped(ds, 'v', ['grp'], qs, rel_err=0.01))} rows",
    )
    _t("exact quantiles @20M", lambda: f"{len(exact_quantiles(ds, 'v', qs))} rows")


def suite_hashops() -> None:
    """The vectorized content-addressed hash family at 10-20M rows:
    HLL distinct sketch, count-min, deterministic/weighted sampling —
    all previously per-row hashlib loops, now one md5vec pass per batch
    (md5 once per dictionary-unique value)."""
    ray, rd = _session()
    p = "/tmp/stress_hashops.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(47)
        n = 20_000_000
        pq.write_table(
            pa.table(
                {
                    "id": pa.array(np.arange(n), pa.int64()),
                    "grp": pa.array(rng.integers(0, 50, n), pa.int64()),
                    # Zipf-ish key: many repeats, ~1.2M uniques
                    "key": pa.array(
                        (rng.zipf(1.3, n) % 2_000_000).astype(np.int64), pa.int64()
                    ),
                    "w": pa.array(rng.integers(0, 160, n), pa.int64()),
                }
            ),
            p,
        )
    ds = rd.read_parquet(p).materialize()
    from climatemind_ontology_processing_ray.functions.sample import (
        deterministic_sample,
        weighted_sample,
    )
    from climatemind_ontology_processing_ray.functions.sketch import (
        approx_distinct,
        count_min_sketch,
    )

    _t(
        "hll approx_distinct @20M x 50 groups",
        lambda: f"{len(approx_distinct(ds, 'key', ['grp']).to_pandas())} rows",
    )
    _t(
        "count_min_sketch @20M",
        lambda: f"{count_min_sketch(ds, 'key').sum()} total",
    )
    _t(
        "deterministic_sample 10%% @20M",
        lambda: f"{deterministic_sample(ds, 'id', 0.10).count()} kept",
    )
    _t(
        "weighted_sample cap=80 @20M",
        lambda: f"{weighted_sample(ds, 'id', 'w', 80).count()} kept",
    )


def suite_r5ops() -> None:
    """Round-5 additions at scale: BPE pair counting over 1M docs,
    token-budget mixture + URL blocklist over 10M rows, radius search
    over the 500k embedding corpus."""
    ray, rd = _session()
    _mutated_docs("/tmp/stress_docs_1m", reps=200, shards=5)
    docs = rd.read_parquet("/tmp/stress_docs_1m", columns=["doc_id", "text"])
    from climatemind_ontology_processing_ray.functions.text import bpe_pair_counts

    _t(
        "bpe_pair_counts @1M docs",
        lambda: f"{bpe_pair_counts(docs, top_k=50).count()} prefiltered rows",
    )

    p = "/tmp/stress_mix.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(11)
        n = 10_000_000
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(n), pa.int64()),
                    "source": pa.array(
                        np.char.add("s", (np.arange(n) % 1000).astype(str))
                    ),
                    "n_chars": pa.array(
                        rng.integers(50, 2000, n).astype(np.int64), pa.int64()
                    ),
                }
            ),
            p,
        )
    mix = rd.read_parquet(p)
    from climatemind_ontology_processing_ray.functions.sample import (
        token_budget_sample,
    )

    _t(
        "token_budget_sample budget=2M @10M rows x 1000 sources",
        lambda: f"{token_budget_sample(mix, 2_000_000).count()} kept",
    )

    from climatemind_ontology_processing_ray.functions.text import (
        prefix_blocklist_filter,
    )

    def add_urls(b):
        ids = b["doc_id"].to_numpy()
        host = np.array(
            ["a.example.com", "b.example.com", "spam.example.net"], dtype=object
        )[ids % 3]
        return b.assign(
            url="https://" + pd.Series(host, index=b.index) + "/p/" + ids.astype(str)
        )

    urls = mix.map_batches(add_urls, batch_format="pandas")
    _t(
        "prefix_blocklist_filter @10M urls x 3 rules",
        lambda: f"{prefix_blocklist_filter(urls, ['https://spam.example.net/']).count()} kept",
    )

    pe = "/tmp/stress_emb.parquet"
    from climatemind_ontology_processing_ray.functions.ann import radius_search

    if os.path.exists(pe):
        emb = rd.read_parquet(pe)
        qdf = emb.limit(16).to_pandas()
        qm = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
        _t(
            "radius_search 16 queries @500k x 32d",
            lambda: f"{radius_search(emb, qm, qdf['vec_id'].to_numpy(), 40 * 32768 * 32768).count()} hits",
        )
    else:
        print("radius_search: run `stress.py embed` first to build /tmp/stress_emb")




def suite_r6ops() -> None:
    """Final-session additions at scale: boolean retrieval (scan +
    sharded-index plans) and feature hashing over 1M docs; rolling
    quantile / grid resample / EWMA scans over 10M events x 1M keys;
    distributed SCC forced above the driver threshold (~320k edges)."""
    ray, rd = _session()
    _mutated_docs("/tmp/stress_docs_1m", reps=200, shards=5)
    docs = rd.read_parquet("/tmp/stress_docs_1m", columns=["doc_id", "text"])
    from climatemind_ontology_processing_ray.functions.classify import (
        hashed_features,
    )
    from climatemind_ontology_processing_ray.functions.search import (
        boolean_search,
        boolean_search_indexed,
    )

    terms = ["join", "hash", "vector"]
    _t(
        "boolean_search scan @1M docs",
        lambda: f"{boolean_search(docs, terms).count()} matches",
    )
    from climatemind_ontology_processing_ray.functions.text import inverted_index

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["postings"].str.split(",")
        n = ids.str.len().to_numpy()
        return pd.DataFrame(
            {
                "token": np.repeat(b["token"].to_numpy(), n),
                "doc_id": pd.to_numeric(
                    pd.Series(np.concatenate(ids.to_numpy()))
                ).astype("int64"),
            }
        )

    pairs = inverted_index(docs, shard_range=65_536).map_batches(
        explode, batch_format="pandas"
    )
    _t(
        "boolean_search_indexed (build sharded index + query) @1M docs",
        lambda: f"{boolean_search_indexed(pairs, terms).count()} matches",
    )
    _t(
        "hashed_features dim=64 @1M docs",
        lambda: f"{hashed_features(docs, dim=64).count()} (doc, bucket) rows",
    )

    p = "/tmp/stress_scan_events.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(23)
        n = 10_000_000
        pq.write_table(
            pa.table(
                {
                    "eid": pa.array(np.arange(n), pa.int64()),
                    "u": pa.array(
                        rng.integers(0, 1_000_000, n).astype(np.int64), pa.int64()
                    ),
                    "tus": pa.array(
                        np.int64(1_700_000_000_000_000)
                        + rng.integers(0, 30 * 86_400_000_000, n).astype(np.int64),
                        pa.int64(),
                    ),
                    "v": pa.array(
                        rng.integers(0, 100_000, n).astype(np.int64), pa.int64()
                    ),
                }
            ),
            p,
        )
    ev = rd.read_parquet(p).map_batches(
        lambda b: b.assign(ts=pd.to_datetime(b["tus"], unit="us")),
        batch_format="pandas",
    )
    from climatemind_ontology_processing_ray.functions.windows import (
        ewma_scan,
        resample_ffill,
        rolling_quantile_disc,
    )

    _t(
        "rolling_quantile_disc w=8 q=0.5 @10M rows x 1M keys",
        lambda: f"{rolling_quantile_disc(ev, 'u', ['tus', 'eid'], 'v', 8, ['eid']).count()} rows",
    )
    _t(
        "resample_ffill 1d grid @10M rows x 1M keys",
        lambda: f"{resample_ffill(ev, 'u', 'ts', 'v', 86_400, 'eid').count()} grid rows",
    )
    _t(
        "ewma_scan hist=16 @10M rows x 1M keys",
        lambda: f"{ewma_scan(ev, 'u', ['tus', 'eid'], 'v', 16, 1000).count()} keys",
    )

    # distributed SCC: the sf0.001 block-graph recipe over 300k nodes
    # (~320k distinct edges > the 250k driver threshold)
    from climatemind_ontology_processing_ray.functions.graph_algo import scc

    pg = "/tmp/stress_scc_edges.parquet"
    if not os.path.exists(pg):
        n = 300_000
        B = 16
        u = np.arange(n, dtype=np.int64)
        blk = u // B
        base = blk * B
        size = np.minimum(B, n - base)
        pos = u - base
        btype = blk % 3
        half = size // 2
        srcs, dsts = [], []

        def emit(mask, dst):
            srcs.append(u[mask])
            dsts.append(dst[mask])

        emit((btype == 0) & (pos + 1 < size), u + 1)
        emit((btype == 1) & (size >= 2), base + (pos + 1) % np.maximum(size, 1))
        emit(
            (btype == 1) & (size >= 2) & (u % 5 == 0),
            base + (pos + 7) % np.maximum(size, 1),
        )
        emit(
            (btype == 2) & (half >= 1) & (pos < half),
            base + (pos + 1) % np.maximum(half, 1),
        )
        emit(
            (btype == 2) & (pos >= half),
            base + half + (pos - half + 1) % np.maximum(size - half, 1),
        )
        emit((btype == 2) & (pos == 0) & (size > half) & (half >= 1), base + half)
        emit((blk % 2 == 0) & (pos == 0) & (base + B < n), base + B)
        pq.write_table(
            pa.table(
                {
                    "subject": pa.array(np.concatenate(srcs), pa.int64()),
                    "object": pa.array(np.concatenate(dsts), pa.int64()),
                }
            ),
            pg,
        )
    edges = rd.read_parquet(pg)
    _t(
        "scc distributed FW-BW-Trim @300k nodes / ~319k edges",
        lambda: f"{scc(edges).count()} assignments",
    )





def suite_r7ops() -> None:
    """Round-5 late-session additions at scale: the exclusive prefix-max
    watermark scan, k-gram sequence mining and CUSUM alerts over 10M
    events x 1M keys; CDC two-snapshot diff @10M; A-priori triples over
    5M basket rows."""
    ray, rd = _session()
    p = "/tmp/stress_scan_events.parquet"
    if not os.path.exists(p):
        rng = np.random.default_rng(23)
        n = 10_000_000
        pq.write_table(
            pa.table(
                {
                    "eid": pa.array(np.arange(n), pa.int64()),
                    "u": pa.array(
                        rng.integers(0, 1_000_000, n).astype(np.int64), pa.int64()
                    ),
                    "tus": pa.array(
                        np.int64(1_700_000_000_000_000)
                        + rng.integers(0, 30 * 86_400_000_000, n).astype(np.int64),
                        pa.int64(),
                    ),
                    "v": pa.array(
                        rng.integers(0, 100_000, n).astype(np.int64), pa.int64()
                    ),
                }
            ),
            p,
        )
    ev = rd.read_parquet(p)

    from climatemind_ontology_processing_ray.functions.windows import (
        cdc_two_snapshot_diff,
        cusum_alerts,
        global_exclusive_prefix_max,
        keyed_kgram_counts,
    )

    def add_akey(b: pd.DataFrame) -> pd.DataFrame:
        # uniform 32-bit arrival key (knuth-hash permutation of eid) —
        # stress exercises the scan shape, not the md5 oracle convention
        return b.assign(
            akey=(b["eid"].to_numpy().astype(np.uint64) * np.uint64(2654435761))
            & np.uint64(0xFFFFFFFF)
        )

    keyed = ev.map_batches(add_akey, batch_format="pandas")
    _t(
        "prefix_max watermark scan @10M",
        lambda: f"{global_exclusive_prefix_max(keyed, 'akey', 'eid', 'tus').count()} rows",
    )

    grams = ev.map_batches(
        lambda b: b.assign(sym=(b["v"] % 8).astype("int64")), batch_format="pandas"
    )
    _t(
        "keyed_kgram k=3 @10M x 1M keys",
        lambda: f"{keyed_kgram_counts(grams, 'u', 'tus', 'sym', k=3, tiebreak_cols=['eid']).count()} grams",
    )

    _t(
        "cusum_alerts @10M x 1M keys",
        lambda: f"{cusum_alerts(ev, 'u', 'tus', 'v', k=45_000, h=100_000, id_col='eid').count()} alerted",
    )

    typed = ev.map_batches(
        lambda b: b.assign(
            etype=np.where(b["v"] % 10 == 0, "error", "view")
        ),
        batch_format="pandas",
    )
    lo, hi = 1_700_000_000_000_000, 1_700_000_000_000_000 + 30 * 86_400_000_000
    t1 = lo + (hi - lo) * 3 // 5
    t2 = lo + (hi - lo) * 9 // 10
    _t(
        "cdc_two_snapshot_diff @10M x 1M keys",
        lambda: f"{cdc_two_snapshot_diff(typed, 'u', 'tus', 'eid', 'etype', 'error', t1, t2).count()} deltas",
    )

    from climatemind_ontology_processing_ray.functions.agg import basket_triple_counts

    baskets = rd.read_parquet(p, columns=["eid", "v"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "basket": (b["eid"] // 6).astype("int64"),
                "item": (b["v"] % 2000).astype("int64"),
            }
        )[: len(b) // 2],
        batch_format="pandas",
    )
    _t(
        "basket_triple_counts @5M rows (1.7M baskets x <=6 items)",
        lambda: f"{basket_triple_counts(baskets, 'basket', 'item', min_support=2).count()} triples",
    )


def suite_r8ops() -> None:
    """Round-5 stats-family additions at scale: the binned two-pass
    sorted scan (KS / Mann-Whitney / weighted median) over 10M rows,
    Gini over 1M key counts, global rank assignment @10M, and the
    3-category exact Kendall inversion count over a 1M-element
    permutation pair."""
    ray, rd = _session()
    p = "/tmp/stress_scan_events.parquet"  # shared with r7ops
    if not os.path.exists(p):
        rng = np.random.default_rng(23)
        n = 10_000_000
        pq.write_table(
            pa.table(
                {
                    "eid": pa.array(np.arange(n), pa.int64()),
                    "u": pa.array(
                        rng.integers(0, 1_000_000, n).astype(np.int64), pa.int64()
                    ),
                    "tus": pa.array(
                        np.int64(1_700_000_000_000_000)
                        + rng.integers(0, 30 * 86_400_000_000, n).astype(np.int64),
                        pa.int64(),
                    ),
                    "v": pa.array(
                        rng.integers(0, 100_000, n).astype(np.int64), pa.int64()
                    ),
                }
            ),
            p,
        )
    ev = rd.read_parquet(p)

    from climatemind_ontology_processing_ray.functions.agg import grouped_sum
    from climatemind_ontology_processing_ray.functions.stats import (
        gini_counts,
        kendall_inversions,
        ks_two_sample,
        mann_whitney,
        rank_permutation,
        weighted_median,
    )

    two = ev.map_batches(
        lambda b: pd.DataFrame(
            {
                "v": b["v"].astype("float64"),
                "g1": (b["u"] % 2 == 0).astype("int64"),
                "g2": (b["u"] % 2 == 1).astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    _t(
        "ks_two_sample @10M",
        lambda: f"ks_num={ks_two_sample(two, 'v', 'g1', 'g2').loc[0, 'ks_num']}",
    )
    _t(
        "mann_whitney @10M (100k-value ties)",
        lambda: f"r1x2={mann_whitney(two, 'v', 'g1', 'g2').loc[0, 'r1_times2']}",
    )

    wm = ev.map_batches(
        lambda b: pd.DataFrame(
            {
                "g": np.where(b["u"] % 3 == 0, "a", np.where(b["u"] % 3 == 1, "b", "c")),
                "v": b["v"].astype("float64"),
                "wt": (b["v"] % 7 + 1).astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    _t(
        "weighted_median @10M x 3 groups",
        lambda: f"{len(weighted_median(wm, 'g', 'v', 'wt'))} medians",
    )

    counts = grouped_sum(
        ev.map_batches(
            lambda b: b.groupby("u", sort=False)
            .size()
            .reset_index(name="n")
            .astype({"n": "int64"}),
            batch_format="pandas",
        ),
        ["u"],
        ["n"],
    )
    _t(
        "gini_counts @1M keys",
        lambda: f"gini_num={gini_counts(counts, 'n').loc[0, 'gini_num']}",
    )

    _t(
        "rank_permutation @10M",
        lambda: f"{rank_permutation(ev, 'v', 'eid', 'r').count()} ranked",
    )

    # 1M-element permutation pair: rb = knuth-permuted ra
    perm = rd.read_parquet(p, columns=["eid"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "ra": b["eid"].astype("int64") + 1,
                "rb": (
                    (b["eid"].to_numpy().astype(np.uint64) * np.uint64(2654435761))
                    % np.uint64(1_000_000)
                ).astype(np.int64)
                * 10
                + (b["eid"].to_numpy() % 10) + 1,
            }
        )[b["eid"].to_numpy() < 1_000_000],
        batch_format="pandas",
    )
    # rb above is not a strict permutation of 1..n; rank it into one first
    perm_ranked = rank_permutation(perm, "rb", "ra", "rb2")
    _t(
        "kendall_inversions @1M permutation",
        lambda: f"inv={kendall_inversions(perm_ranked, 'ra', 'rb2', 1_000_000)}",
    )



def suite_r9graph() -> None:
    """Round-5 graph additions at scale: K4 motif counting over a
    block-community graph (planted K4 density), and the per-seed
    traversals (khop closeness, temporal earliest-arrival) FORCED onto
    their distributed paths (driver_threshold=0) over a 1M-edge
    graph."""
    ray, rd = _session()
    rng = np.random.default_rng(31)

    # block-community graph: 100k nodes in blocks of 30, p=0.5 intra
    n_nodes, blk, p_edge = 99_990, 30, 0.5
    nb = n_nodes // blk
    us, vs = [], []
    base = np.arange(blk)
    ii, jj = np.triu_indices(blk, 1)
    for b in range(nb):
        mask = rng.random(len(ii)) < p_edge
        us.append((b * blk + ii[mask]).astype(np.int64))
        vs.append((b * blk + jj[mask]).astype(np.int64))
    edges = pd.DataFrame(
        {
            "subject": np.concatenate(us).astype(str),
            "object": np.concatenate(vs).astype(str),
        }
    )
    e_ds = rd.from_pandas(edges).repartition(64)

    from climatemind_ontology_processing_ray.functions.graph_algo import (
        earliest_arrival_per_source,
        four_clique_counts,
        khop_per_source,
    )

    _t(
        f"four_clique_counts @{len(edges)} edges (block communities)",
        lambda: f"{four_clique_counts(e_ds).count()} nodes in K4s",
    )

    # sparse random graph for the traversals: 200k nodes, 1M edges
    m = 1_000_000
    g2 = pd.DataFrame(
        {
            "subject": rng.integers(0, 200_000, m).astype(np.int64).astype(str),
            "object": rng.integers(0, 200_000, m).astype(np.int64).astype(str),
        }
    )
    g2 = g2[g2["subject"] != g2["object"]]
    g2_ds = rd.from_pandas(g2).repartition(64)
    seeds = rd.from_pandas(
        pd.DataFrame({"node": [str(i) for i in range(0, 200_000, 2000)]})
    )
    _t(
        "khop_per_source k=2 @1M edges x 100 seeds (distributed path)",
        lambda: f"{khop_per_source(g2_ds, seeds, 2, driver_threshold=0).count()} seeds",
    )

    tg = g2.assign(ts=rng.integers(0, 10**9, len(g2)).astype(np.int64)).rename(
        columns={"subject": "node", "object": "nbr"}
    )
    tseeds = rd.from_pandas(
        pd.DataFrame(
            {"node": [str(i) for i in range(0, 200_000, 2000)], "t0": np.int64(0)}
        )
    )
    _t(
        "earliest_arrival k=2 @1M temporal edges x 100 seeds (distributed path)",
        lambda: f"{earliest_arrival_per_source(rd.from_pandas(tg).repartition(64), tseeds, 2, driver_threshold=0).count()} seeds",
    )



def suite_r10curation() -> None:
    """Round-5 final-stretch ops at scale: per-user sequence build +
    lane-vectorized edit distance over ~100k adjacent user pairs
    (8M events), and greedy max-coverage rounds over 1M docs'
    bigram shingles (map-only rounds, no per-round exchange)."""
    ray, rd = _session()
    rng = np.random.default_rng(37)

    n_ev, n_users = 8_000_000, 100_000
    ev = pd.DataFrame(
        {
            "user_id": rng.integers(0, n_users, n_ev).astype(np.int64),
            "us": rng.integers(0, 10**9, n_ev).astype(np.int64),
            "event_id": np.arange(n_ev, dtype=np.int64),
            "ch": rng.choice(list("cepsv"), n_ev),
        }
    )
    ev_ds = rd.from_pandas(ev).repartition(64)

    from climatemind_ontology_processing_ray.functions.fuzzy import (
        _byte_matrix,
        levenshtein_pairs,
    )
    from climatemind_ontology_processing_ray.functions.join import (
        bucketed_hash_join,
        hash_bucket,
    )

    def run_seq_dp():
        def prep(b):
            b = b.copy()
            b["__part"] = hash_bucket(b["user_id"].to_numpy(), 256)
            return b

        def build(g):
            g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
            return (
                g.groupby("user_id", sort=False)["ch"].agg("".join)
                .reset_index()
                .rename(columns={"ch": "sq"})
            )

        seqs = (
            ev_ds.map_batches(prep, batch_format="pandas")
            .groupby("__part")
            .map_groups(
                lambda g: build(g.drop(columns="__part")), batch_format="pandas"
            )
        )
        left = seqs.map_batches(
            lambda b: pd.DataFrame(
                {"key": b["user_id"], "user_a": b["user_id"], "sq_a": b["sq"]}
            ),
            batch_format="pandas",
        )
        right = seqs.map_batches(
            lambda b: pd.DataFrame(
                {"key": b["user_id"] - 1, "user_b": b["user_id"], "sq_b": b["sq"]}
            ),
            batch_format="pandas",
        )

        def dist(b):
            if not len(b):
                return pd.DataFrame({"dist": pd.Series([], dtype="int64")})
            names = pd.concat(
                [b["sq_a"].astype(str), b["sq_b"].astype(str)], ignore_index=True
            )
            mat, lens = _byte_matrix(names)
            n = len(b)
            d = levenshtein_pairs(mat, lens, np.arange(n), n + np.arange(n))
            return pd.DataFrame({"dist": d.astype("int64")})

        return bucketed_hash_join(left, right, "key").map_batches(
            dist, batch_format="pandas"
        ).count()

    _t("session sequence DP @8M events x 100k adjacent pairs", lambda: f"{run_seq_dp()} pairs")

    from climatemind_ontology_processing_ray.functions.agg import grouped_sum
    from climatemind_ontology_processing_ray.functions.broadcast import cached_get
    from climatemind_ontology_processing_ray.functions.dedup import pin_blocks

    n_docs, toks_per_doc, vocab = 1_000_000, 12, 50_000
    docs = pd.DataFrame(
        {
            "doc_id": np.repeat(np.arange(n_docs, dtype=np.int64), toks_per_doc - 1),
            "tok": (
                rng.integers(0, vocab, n_docs * (toks_per_doc - 1)) * 100_000
                + rng.integers(0, vocab, n_docs * (toks_per_doc - 1))
            ).astype(np.int64),
        }
    )
    base = rd.from_pandas(docs).repartition(64).map_batches(
        lambda b: b.drop_duplicates().assign(one=np.int64(1)), batch_format="pandas"
    )
    toks = grouped_sum(base, ["doc_id", "tok"], ["one"])

    def run_cover():
        toksp = pin_blocks(
            toks.map_batches(
                lambda b: b.assign(__part=hash_bucket(b["doc_id"].to_numpy(), 64)),
                batch_format="pandas",
            )
            .groupby("__part")
            .map_groups(lambda g: g.drop(columns="__part"), batch_format="pandas"),
            64,
        )
        covered = set()
        chosen = []
        for rnd in range(1, 6):
            ref = ray.put(frozenset(covered))

            def local_best(b, _ref=ref):
                cov = cached_get(_ref)
                d = b[~b["tok"].isin(cov).to_numpy()]
                if not len(d):
                    return pd.DataFrame(
                        {"doc_id": pd.Series([], dtype="int64"),
                         "gain": pd.Series([], dtype="int64")}
                    )
                out = d.groupby("doc_id", sort=False).size().reset_index(name="gain")
                return out.sort_values(
                    ["gain", "doc_id"], ascending=[False, True]
                ).head(1).astype({"gain": "int64"})

            g = toksp.map_batches(local_best, batch_format="pandas").to_pandas()
            if not len(g):
                break
            g = g.sort_values(["gain", "doc_id"], ascending=[False, True])
            best = int(g["doc_id"].iloc[0])
            chosen.append(best)
            new = toksp.map_batches(
                lambda b, d=best: b[b["doc_id"].to_numpy() == d],
                batch_format="pandas",
            ).to_pandas()
            covered |= set(new["tok"])
        return len(chosen)

    _t("greedy_coverage 5 rounds @1M docs x 11 shingles", lambda: f"{run_cover()} chosen")



SUITES = {
    "r10curation": suite_r10curation,
    "r9graph": suite_r9graph,
    "r8ops": suite_r8ops,
    "r7ops": suite_r7ops,
    "r6ops": suite_r6ops,
    "r5ops": suite_r5ops,
    "hashops": suite_hashops,
    "docs": suite_docs,
    "mergeedges": suite_mergeedges,
    "sketch": suite_sketch,
    "fuzzy": suite_fuzzy,
    "textops": suite_textops,
    "knn": suite_knn,
    "docs1m": suite_docs1m,
    "singletons": suite_singletons,
    "events": suite_events,
    "graph": suite_graph,
    "embed": suite_embed,
    "joins": suite_joins,
    "keys10m": suite_keys10m,
    "skew": suite_skew,
    "hashshuffle": suite_hashshuffle,
}


def main() -> int:
    which = sys.argv[1:] or ["docs"]
    for name in which:
        SUITES[name]()
    import ray

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
