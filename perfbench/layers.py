"""The traced layer chain: each layer's public function called in-process,
in pipeline order, over the workload's own inputs, with one span around
every call.  Span self time is the layer's busy time; the same chain run
single-threaded is the baseline the Ray pipeline is compared against.

Layers a workload does not run keep their zero counts and times."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from climatemind_ontology_processing_ray.functions.partitioning import adaptive_parts
from climatemind_ontology_processing_ray.graph.enrich import build_enriched_graph
from climatemind_ontology_processing_ray.graph.tables import graph_to_datasets
from climatemind_ontology_processing_ray.graph.writers import write_all_artifacts
from climatemind_ontology_processing_ray.pipelines.kg import lang_filter
from climatemind_ontology_processing_ray.stages import canonicalize as canon
from climatemind_ontology_processing_ray.stages.adjacency import build_adjacency
from climatemind_ontology_processing_ray.stages.extract import _NUMERIC_GATE, extract_pages_batch
from climatemind_ontology_processing_ray.stages.fused import make_fused_partials_fn
from climatemind_ontology_processing_ray.stages.link import EntityLinker
from climatemind_ontology_processing_ray.stages.triples import TripleExtractor
from climatemind_ontology_processing_ray.state.checkpoint import CheckpointManager

from .spans import Tracer

# per-layer metric -> unit; the traced run prints exactly these
LAYER_UNITS = {
    "sources.read.rows": "rows",
    "sources.read.busy_s": "s",
    "stages.extract.rows_in": "rows",
    "stages.extract.html_mb_in": "MB",
    "stages.extract.busy_s": "s",
    "stages.extract.fast_path_ratio": "ratio",
    "pipelines.kg.lang_filter.rows_in": "rows",
    "pipelines.kg.lang_filter.rows_out": "rows",
    "stages.triples.pages_in": "rows",
    "stages.triples.triples_out": "rows",
    "stages.triples.busy_s": "s",
    "stages.triples.us_per_page": "us",
    "stages.link.rows_in": "rows",
    "stages.link.rows_out": "rows",
    "stages.link.link_ratio": "ratio",
    "stages.link.busy_s": "s",
    "stages.fused.busy_s": "s",
    "stages.fused.partial_rows_out": "rows",
    "stages.canonicalize.partial_agg.busy_s": "s",
    "stages.canonicalize.combine_ratio": "ratio",
    "stages.canonicalize.shuffle_rows_in": "rows",
    "stages.canonicalize.sort1_s": "s",
    "stages.canonicalize.sort2_s": "s",
    "stages.canonicalize.part_skew": "ratio",
    "stages.canonicalize.edges_out": "rows",
    "executor.tasks": "count",
    "executor.remote_busy_s": "s",
    "executor.overhead_s": "s",
    "stages.adjacency.busy_s": "s",
    "stages.adjacency.subjects_out": "rows",
    "state.checkpoint.write_s": "s",
    "state.checkpoint.bytes_written": "bytes",
    "state.checkpoint.hits": "count",
    "state.checkpoint.misses": "count",
    "state.checkpoint.read_s": "s",
    "graph.enrich.busy_s": "s",
    "graph.enrich.nodes": "count",
    "graph.enrich.edges": "count",
    "graph.writers.busy_s": "s",
    "graph.writers.bytes_written": "bytes",
    "graph.tables.busy_s": "s",
    "graph.tables.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.slowdown": "ratio",
    "host.raw_wall_s": "s",
}

# per-layer busy metric -> the span whose self time it reports
BUSY_SPANS = {
    "sources.read.busy_s": "sources.read",
    "stages.extract.busy_s": "stages.extract",
    "stages.triples.busy_s": "stages.triples",
    "stages.link.busy_s": "stages.link",
    "stages.fused.busy_s": "stages.fused",
    "stages.canonicalize.partial_agg.busy_s": "stages.canonicalize.partial_agg",
    "stages.adjacency.busy_s": "stages.adjacency",
    "state.checkpoint.write_s": "state.checkpoint.write",
    "state.checkpoint.read_s": "state.checkpoint.read",
    "graph.enrich.busy_s": "graph.enrich",
    "graph.writers.busy_s": "graph.writers",
    "graph.tables.busy_s": "graph.tables",
}

_SKEWED_BATCH_ROWS = 10_000  # about one Ray read block of the linked table


def _batches(tbl: pa.Table, rows: int) -> list[pa.Table]:
    return [pa.Table.from_batches([b]) for b in tbl.to_batches(max_chunksize=rows)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def _python_path_rows(batch: pa.Table) -> int:
    """Rows ``extract_pages_batch`` sends to the frozen Python extractor:
    those holding a numeric character entity other than ``&#39;``, or the
    whole batch when its html is not valid UTF-8."""
    try:
        html = batch.column("html").cast(pa.string())
    except pa.ArrowInvalid:
        return batch.num_rows
    return sum(1 for s in html.to_pylist() if s and _NUMERIC_GATE.search(s))


def _collect(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")


def page_layers(tr: Tracer, m: dict, pages_dir: str, snap, cfg) -> dict[str, pa.Table]:
    """sources -> extract -> lang filter -> triples -> link -> partial agg,
    and the fused stage over the same filtered pages.  Returns the tables
    the default pipeline checkpoints (``extracted``, ``partials``)."""
    snapshot_json = snap.to_json()
    with tr.span("sources.read"):
        pages = pq.read_table(pages_dir)
    m["sources.read.rows"] = pages.num_rows

    extracted, slow_rows = [], 0
    for b in _batches(pages, cfg.batch_size):
        m["stages.extract.rows_in"] += b.num_rows
        m["stages.extract.html_mb_in"] += b.column("html").nbytes / 1e6
        slow_rows += _python_path_rows(b)
        with tr.span("stages.extract"):
            extracted.append(extract_pages_batch(b))
    m["stages.extract.fast_path_ratio"] = 1.0 - _ratio(slow_rows, pages.num_rows)

    m["pipelines.kg.lang_filter.rows_in"] = sum(t.num_rows for t in extracted)
    with tr.span("pipelines.kg.lang_filter"):
        kept = _collect(lang_filter(rd.from_arrow(extracted), cfg.keep_langs, cfg.min_text_chars))
    m["pipelines.kg.lang_filter.rows_out"] = kept.num_rows
    kept_batches = _batches(kept, cfg.batch_size)

    with tr.span("stages.triples.init"):
        extractor = TripleExtractor(snapshot_json=snapshot_json)
    with tr.span("stages.link.init"):
        linker = EntityLinker(snapshot_json=snapshot_json, threshold=cfg.link_threshold)
    linked = []
    for b in kept_batches:
        with tr.span("stages.triples"):
            triples = extractor(b)
        with tr.span("stages.link"):
            linked.append(linker(triples))
        m["stages.triples.pages_in"] += b.num_rows
        m["stages.triples.triples_out"] += triples.num_rows
        m["stages.link.rows_out"] += linked[-1].num_rows
    m["stages.link.rows_in"] = m["stages.triples.triples_out"]
    m["stages.link.link_ratio"] = _ratio(m["stages.link.rows_out"], m["stages.link.rows_in"])
    partial_agg(tr, linked, cfg)

    fused = make_fused_partials_fn(
        snapshot_json=snapshot_json,
        threshold=cfg.link_threshold,
        num_salts=cfg.num_salts,
        sources_cap=cfg.sources_cap,
    )
    with tr.span("stages.fused.init"):
        fused(kept.slice(0, 0))  # builds the per-process extractor + linker
    partials = []
    for b in kept_batches:
        with tr.span("stages.fused"):
            partials.append(fused(b))
    partials_tbl = pa.concat_tables(partials)
    m["stages.fused.partial_rows_out"] = partials_tbl.num_rows
    shuffle_layer(m, partials_tbl, m["stages.link.rows_out"], pages.num_rows, cfg.sources_cap)
    return {"extracted": kept, "partials": partials_tbl}


def partial_agg(tr: Tracer, linked: list[pa.Table], cfg) -> pa.Table:
    """The map-side combine over linked-triple batches."""
    out = []
    for b in linked:
        with tr.span("stages.canonicalize.partial_agg"):
            out.append(canon.partial_triple_agg_arrow(b, cfg.num_salts, cfg.sources_cap))
    return pa.concat_tables(out)


def shuffle_layer(
    m: dict, partials: pa.Table, linked_rows: int, source_rows: int, sources_cap: int
) -> None:
    """The rows that reach the salted exchange: the map-side partials after
    ``canonicalize_partials``' streaming fan-in combine (``_merge_arrow``
    over ``_FANIN_ROWS``-row batches on the salted key).  Reports their
    count, linked rows over that count, and their skew over the exchange's
    ``__part`` ids (max over mean), with the fan-out the pipeline derives
    from the row count of its source, ``source_rows``."""
    salted_key = canon.TRIPLE_KEY + ["salt"]
    shuffled = partials
    if partials.num_rows:
        shuffled = pa.concat_tables(
            canon._merge_arrow(b, salted_key, sources_cap)
            for b in _batches(partials.combine_chunks(), canon._FANIN_ROWS)
        )
    m["stages.canonicalize.shuffle_rows_in"] = shuffled.num_rows
    m["stages.canonicalize.combine_ratio"] = _ratio(linked_rows, shuffled.num_rows)
    num_parts = adaptive_parts(rows=source_rows)
    if shuffled.num_rows == 0:
        return
    tagged = canon._part_tag_arrow(shuffled, salted_key, num_parts)
    counts = np.bincount(tagged.column("__part").to_numpy(), minlength=num_parts)
    m["stages.canonicalize.part_skew"] = float(counts.max() / counts.mean())


def linked_layers(tr: Tracer, m: dict, linked_dir: str, cfg) -> None:
    """sources -> partial agg -> exchange statistics, for a linked table."""
    with tr.span("sources.read"):
        linked = pq.read_table(linked_dir)
    m["sources.read.rows"] = linked.num_rows
    partials = partial_agg(tr, _batches(linked, _SKEWED_BATCH_ROWS), cfg)
    shuffle_layer(m, partials, linked.num_rows, linked.num_rows, cfg.sources_cap)


def publish_layers(
    tr: Tracer, m: dict, work_dir: str, snap, stage_tables: dict[str, pa.Table]
) -> None:
    """Checkpoint write + resume read of the pipeline's stage tables, then
    adjacency, enrichment, reference writers and graph tables over the
    canonical edges."""
    ckpt_dir = os.path.join(work_dir, "trace-ckpt")
    out_dir = os.path.join(work_dir, "trace-graph")
    for d in (ckpt_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
    cold = CheckpointManager(ckpt_dir, "perfbench")
    for name, tbl in stage_tables.items():
        with tr.span("state.checkpoint.write"):
            cold.stage(name, lambda t=tbl: rd.from_arrow(t))
    m["state.checkpoint.bytes_written"] = _dir_bytes(ckpt_dir)
    warm = CheckpointManager(ckpt_dir, "perfbench")
    for name in stage_tables:
        with tr.span("state.checkpoint.read"):
            _collect(warm.stage(name, lambda: rd.from_arrow(stage_tables[name])))
    m["state.checkpoint.misses"] = len(cold.misses)
    m["state.checkpoint.hits"] = len(warm.hits)

    edges = stage_tables["canonical_edges"]
    with tr.span("stages.adjacency"):
        adjacency = build_adjacency(rd.from_arrow(edges)).materialize()
    m["stages.adjacency.subjects_out"] = adjacency.count()

    triples = list(zip(*(edges.column(c).to_pylist() for c in canon.TRIPLE_KEY)))
    with tr.span("graph.enrich"):
        art = build_enriched_graph(triples, snap)
    m["graph.enrich.nodes"] = art.G.number_of_nodes()
    m["graph.enrich.edges"] = art.G.number_of_edges()
    with tr.span("graph.writers"):
        paths = write_all_artifacts(art, out_dir)
    m["graph.writers.bytes_written"] = sum(os.path.getsize(p) for p in paths.values())
    nodes_dir = os.path.join(out_dir, "nodes")
    with tr.span("graph.tables"):
        graph_to_datasets(art)["nodes"].write_parquet(nodes_dir)
    m["graph.tables.bytes_written"] = _dir_bytes(nodes_dir)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
