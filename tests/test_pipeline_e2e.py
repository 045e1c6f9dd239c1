"""End-to-end KG pipeline: P/R gate, determinism across parallelism,
canonicalization counts, adjacency schema (SURVEY §5.2 items 3-4)."""

import re

import pyarrow as pa
import pytest

from climatemind_ontology_processing_ray.ontology.oracle import precision_recall
from climatemind_ontology_processing_ray.pipelines.kg import (
    KGConfig,
    canonical_edges_to_artifacts,
    run_kg_pipeline,
)
from climatemind_ontology_processing_ray.sources.pages import generate_pages


@pytest.fixture(scope="module")
def pages_and_info(snapshot):
    return generate_pages(snapshot, 300, seed=13)


def _run(table, snapshot, num_blocks=4):
    import ray.data

    cfg = KGConfig()
    pages = ray.data.from_arrow(table).repartition(num_blocks)
    res = run_kg_pipeline(pages, snapshot, cfg)
    rows = res.canonical_edges.take_all()
    return rows, res


def test_precision_recall_gate(ray_session, snapshot, golden, pages_and_info):
    """The BASELINE.md correctness gate: P/R >= 0.95 vs the reference
    (oracle) edge set."""
    table, info = pages_and_info
    rows, _ = _run(table, snapshot)
    emitted = {(r["subject"], r["object"], r["predicate"]) for r in rows}
    p, r = precision_recall(emitted, golden)
    assert p >= 0.95, f"precision {p}"
    assert r >= 0.95, f"recall {r}"
    # false positives are exactly the labeled traps (within budget)
    assert (emitted - golden) <= info.trap_triples
    # why the trap FP is NOT filtered (NOTES round-3 analysis): the trap
    # has support=1, but so does a large fraction of GOLDEN edges (Zipf
    # support) — a support>=2 threshold would reject the trap at a
    # catastrophic recall cost, and no extraction-time signal separates
    # a false assertion from a true one.  Pin the premise so a fixture
    # change that invalidates the analysis fails loudly.
    support = {(r_["subject"], r_["object"], r_["predicate"]): r_["support"] for r_ in rows}
    golden_s1 = sum(1 for k, v in support.items() if k in golden and v == 1)
    assert golden_s1 >= 0.3 * len(golden & emitted), (
        "support>=2 became a viable trap filter — revisit NOTES analysis"
    )


def _kernel_edges(table, snapshot, cfg):
    """The front end and the final merge as driver-side kernels over the
    whole table, no Ray: extract -> lang/quality -> PageToTriplePartials
    -> one ``_merge_arrow``."""
    from climatemind_ontology_processing_ray.pipelines.kg import keep_pages
    from climatemind_ontology_processing_ray.stages.canonicalize import (
        TRIPLE_KEY,
        _merge_arrow,
    )
    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch
    from climatemind_ontology_processing_ray.stages.fused import PageToTriplePartials

    kept = keep_pages(extract_pages_batch(table), cfg.keep_langs, cfg.min_text_chars)
    partials = PageToTriplePartials(
        snapshot.to_json(), cfg.link_threshold, cfg.num_salts, cfg.sources_cap
    )(kept)
    return _merge_arrow(partials, TRIPLE_KEY, cfg.sources_cap).to_pylist()


def test_identical_edge_set_across_parallelism(ray_session, snapshot, pages_and_info):
    """The pipeline at 2 and 8 blocks and the driver-side kernel chain over
    the whole table give the same (key, support, sources) rows."""
    table, _ = pages_and_info
    rows_a, res = _run(table, snapshot, num_blocks=2)
    rows_b, _ = _run(table, snapshot, num_blocks=8)
    rows_k = _kernel_edges(table, snapshot, res.config)
    key = lambda r: (r["subject"], r["object"], r["predicate"])
    a = sorted(((key(r), r["support"], tuple(r["sources"])) for r in rows_a))
    b = sorted(((key(r), r["support"], tuple(r["sources"])) for r in rows_b))
    k = sorted(((key(r), r["support"], tuple(r["sources"])) for r in rows_k))
    assert a and a == b == k


def test_non_english_pages_contribute_nothing(ray_session, snapshot, pages_and_info):
    import ray.data

    table, _ = pages_and_info
    non_en = table.filter(pa.compute.not_equal(table.column("lang"), pa.scalar("en")))
    assert non_en.num_rows > 0
    rows, _ = _run(non_en, snapshot, num_blocks=2)
    assert rows == []


def test_support_counts_sources(ray_session, snapshot, pages_and_info):
    table, _ = pages_and_info
    rows, _ = _run(table, snapshot)
    for r in rows:
        assert r["support"] >= 1
        assert 1 <= len(r["sources"]) <= 8
        for u in r["sources"]:
            assert u.startswith("https://site-")


def test_mention_canonicalization_counts(ray_session, snapshot, pages_and_info):
    """Mention counts (per-block counts, fan-in, one final task) == naive
    single-process counts."""
    import ray.data

    from climatemind_ontology_processing_ray.stages import (
        MentionDetector,
        canonicalize_mentions,
        extract_pages_batch,
    )

    table, _ = pages_and_info
    extracted = (
        ray.data.from_arrow(table)
        .repartition(4)
        .map_batches(extract_pages_batch, batch_format="pyarrow")
    )
    mentions = extracted.map_batches(
        MentionDetector,
        fn_constructor_kwargs={"snapshot_json": snapshot.to_json()},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )
    mention_rows = mentions.take_all()
    naive: dict[str, int] = {}
    for r in mention_rows:
        naive[r["surface_norm"]] = naive.get(r["surface_norm"], 0) + 1

    counted = canonicalize_mentions(
        mentions, surface_index=snapshot.surface_index()
    ).take_all()
    got = {r["surface_norm"]: r["n_mentions"] for r in counted}
    assert got == naive
    # head-entity skew present (north_star): climate change is a head surface
    assert naive.get("climate change", 0) + naive.get("global warming", 0) > 50
    # labels attached via broadcast index
    by_norm = {r["surface_norm"]: r["node_label"] for r in counted}
    assert by_norm.get("climate change") == "global warming"


def test_adjacency_materialize(ray_session, snapshot, pages_and_info):
    from climatemind_ontology_processing_ray.stages import build_adjacency

    table, _ = pages_and_info
    _, res = _run(table, snapshot)
    adj = build_adjacency(res.canonical_edges).take_all()
    subjects = [r["subject"] for r in adj]
    assert len(subjects) == len(set(subjects))
    row = next(r for r in adj if r["subject"] == "global warming")
    objs = [e["object"] for e in row["edges"]]
    assert objs == sorted(objs)
    assert row["degree"] == len(objs)
    assert all(e["support"] >= 1 for e in row["edges"])


def test_adjacency_kernel_matches_pipeline_and_naive_grouping(
    ray_session, snapshot, pages_and_info
):
    """``adjacency_table`` on the driver (no Ray) equals the pipeline's
    ``build_adjacency`` rows and a naive Python grouping of the same
    canonical edges, with the written schema field by field."""
    from climatemind_ontology_processing_ray.stages.adjacency import (
        adjacency_table,
        build_adjacency,
    )

    table, _ = pages_and_info
    _, res = _run(table, snapshot)
    edges = pa.Table.from_pylist(res.canonical_edges.take_all())
    adj = adjacency_table(edges)

    edge_type = pa.struct(
        [
            ("object", pa.string()),
            ("predicate", pa.string()),
            ("sources", pa.list_(pa.string())),
            ("support", pa.int64()),
        ]
    )
    assert [(f.name, f.type) for f in adj.schema] == [
        ("subject", pa.string()),
        ("degree", pa.int64()),
        ("edges", pa.list_(edge_type)),
    ]
    assert [f.name for f in adj.schema.field("edges").type.value_type] == [
        "object", "predicate", "sources", "support"
    ]

    naive: dict[str, list[dict]] = {}
    for r in sorted(edges.to_pylist(), key=lambda r: (r["subject"], r["object"], r["predicate"])):
        naive.setdefault(r["subject"], []).append(
            {k: r[k] for k in ("object", "predicate", "sources", "support")}
        )
    expected = [
        {"subject": s, "degree": len(es), "edges": es} for s, es in sorted(naive.items())
    ]
    assert len(expected) > 1
    assert adj.to_pylist() == expected
    piped = build_adjacency(res.canonical_edges).take_all()
    assert sorted(piped, key=lambda r: r["subject"]) == expected


def test_artifact_pickles_are_a_function_of_the_edge_set(
    ray_session, snapshot, pages_and_info
):
    """The graph pickles do not depend on the edge table's row order, its
    chunking or the blocks of an edge Dataset: only on its rows."""
    import pickle

    import ray.data

    table, _ = pages_and_info
    edges = pa.Table.from_pylist(_kernel_edges(table, snapshot, KGConfig()))
    chunks = [edges.slice(i, 7) for i in range(0, edges.num_rows, 7)][::-1]
    reordered = pa.concat_tables(chunks)
    assert reordered.column("subject").num_chunks > 1
    assert not reordered.equals(edges)

    def dumps(edges) -> tuple[bytes, bytes]:
        art = canonical_edges_to_artifacts(edges, snapshot)
        return pickle.dumps(art.G), pickle.dumps(art.subgraphs)

    expected = dumps(edges.combine_chunks())
    assert dumps(reordered) == expected
    assert dumps(ray.data.from_arrow(chunks)) == expected


def test_driver_side_artifacts_from_pipeline_edges(
    ray_session, snapshot, golden, pages_and_info
):
    """Full lifecycle: distributed front end -> driver-side enrichment."""
    table, _ = pages_and_info
    _, res = _run(table, snapshot)
    art = canonical_edges_to_artifacts(res.canonical_edges, snapshot)
    root = art.G.nodes["increase in greenhouse effect"]
    assert root["mitigation solutions"]
    assert "downstream_adaptations" in art.subgraphs


def test_salting_spreads_hot_keys(ray_session):
    """White-box skew check: the salt hash of the triple partials spreads
    one hot key's urls over most salts, and a hot surface form counted
    over 8 blocks reaches one exact total (SURVEY §7.3)."""
    import pandas as pd
    import ray.data

    from climatemind_ontology_processing_ray.stages.canonicalize import _salt_of

    # 10k mentions of one head key from 200 distinct urls
    rows = [
        {"url": f"https://site-{i % 200}.example/p{i}", "surface_norm": "climate change"}
        for i in range(10_000)
    ]
    salts = {_salt_of(r["url"], 16) for r in rows}
    assert len(salts) > 8  # the hot key spreads over most of the 16 salts

    from climatemind_ontology_processing_ray.stages.canonicalize import (
        canonicalize_mentions,
    )

    ds = ray.data.from_items(rows).repartition(8)
    out = canonicalize_mentions(ds).take_all()
    assert out == [{"surface_norm": "climate change", "n_mentions": 10_000}]


def test_mention_spans_are_exact_page_offsets(ray_session, snapshot):
    import ray.data

    from climatemind_ontology_processing_ray.stages import MentionDetector
    from climatemind_ontology_processing_ray.stages.mentions import SENTENCE_ENDS

    text = (
        "Sea level rise worries experts.\nGlobal warming causes sea level rise. "
        "Does global warming cause drought? Yes! Drought, floods and sea level "
        "rise.\n\nGlobal warming."
    )
    ds = ray.data.from_items([{"url": "u", "extracted_text": text}])
    rows = ds.map_batches(
        MentionDetector,
        fn_constructor_kwargs={"snapshot_json": snapshot.to_json()},
        batch_format="pyarrow",
        concurrency=1,
    ).take_all()
    for r in rows:
        assert text.lower()[r["span_start"] : r["span_end"]] == r["surface"]
    assert {r["surface"] for r in rows} == {"sea level rise", "global warming"}
    sids = {r["span_start"]: r["sent_id"] for r in rows}
    assert sids[0] == 0  # first sentence
    # every sent_id is the naive count of terminators before the span
    low = text.lower()
    assert sids == {
        s: sum(low.count(c, 0, s) for c in SENTENCE_ENDS) for s in sids
    }
    assert len(set(sids.values())) >= 5


def test_skew_stress_partial_rows_bounded(ray_session, snapshot):
    """Zipf-heavy stress (SURVEY §7.1 item 5): a single hot triple repeated
    on most pages must enter the shuffle as at most (blocks x salts) partial
    rows, not one row per occurrence — the map-side combine bound."""
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch
    from climatemind_ontology_processing_ray.stages.fused import make_fused_partials_fn

    n_pages, n_blocks, n_salts = 600, 6, 8
    hot = "global warming causes sea level rise."
    table = pa.table(
        {
            "url": pa.array([f"https://s{i % 97}.example/{i}" for i in range(n_pages)]),
            "html": pa.array(
                [f"<p>{hot} Filler {i}.</p>".encode() for i in range(n_pages)],
                pa.binary(),
            ),
            "lang": pa.array(["en"] * n_pages),
        }
    )
    partials = (
        ray.data.from_arrow(table)
        .repartition(n_blocks)
        .map_batches(extract_pages_batch, batch_format="pyarrow")
        .map_batches(
            make_fused_partials_fn(snapshot_json=snapshot.to_json(), num_salts=n_salts),
            batch_format="pyarrow",
            batch_size=None,
        )
        .take_all()
    )
    hot_rows = [p for p in partials if p["subject"] == "global warming"]
    assert sum(p["support"] for p in hot_rows) == n_pages  # nothing lost
    assert len(hot_rows) <= n_blocks  # one partial row per block, not per page
    # and the salts spread those partials across reducers
    assert len({p["salt"] for p in hot_rows}) > 1


def test_extract_link_fn_matches_driver_kernels(ray_session, snapshot):
    """per_worker(ExtractLink, ...) (the task-based extract+link used by the
    provenance join in kg_edge_timespan) must emit exactly the rows of
    ``EntityLinker(TripleExtractor(batch))`` called on the driver."""
    import pandas as pd
    import ray.data

    from climatemind_ontology_processing_ray import stages as S
    from climatemind_ontology_processing_ray.stages.fused import ExtractLink, per_worker

    table, _ = generate_pages(snapshot, 64, seed=13)
    sj = snapshot.to_json()
    cols = ["subj_label", "obj_label", "predicate", "url"]

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)

    extracted = S.extract_pages_batch(table)
    kernels = S.EntityLinker(snapshot_json=sj, threshold=0.85)(
        S.TripleExtractor(snapshot_json=sj)(extracted)
    )
    piped = (
        ray.data.from_arrow(table)
        .repartition(4)
        .map_batches(S.extract_pages_batch, batch_format="pyarrow")
        .map_batches(per_worker(ExtractLink, sj, 0.85), batch_format="pyarrow")
    )
    assert kernels.num_rows > 0
    pd.testing.assert_frame_equal(
        norm(kernels.select(cols).to_pandas()),
        norm(piped.select_columns(cols).to_pandas()),
    )


def test_stats_describe_the_executed_front_end(ray_session, snapshot, pages_and_info):
    """``KGResult.stats()`` reports the front end that ran (its one fused
    operator, and no Repartition after it) and one line for the driver
    fold's rows and seconds."""
    import ray.data

    table, _ = pages_and_info
    pages = ray.data.from_arrow([table.slice(i, 75) for i in range(0, table.num_rows, 75)])
    res = run_kg_pipeline(pages, snapshot, KGConfig())
    text = res.stats()
    assert re.search(
        r"^Operator \d+ MapBatches\(keep\)->MapBatches\(extract_pages_batch\)->MapBatches\(fn\):",
        text,
        re.M,
    ), text
    assert "Repartition" not in text, text
    rows_in, rows_out, _ = res.fold
    assert rows_out == res.edges.num_rows > 0 and rows_in >= rows_out
    assert re.search(
        rf"^Driver fold: {rows_in} partial rows in, {rows_out} edges out in [0-9.]+s$", text, re.M
    ), text
