"""Public API surface (SURVEY §2.9).

Reference equivalents:

- ``process_pages``  ~ ``processOntology(onto_path, output_folder_path)``
  (process_new_ontology_file.py:10-26): full lifecycle — distributed front
  end over the pages table, adjacency Parquet partitions, then the
  driver-side enrichment + every reference output file.
- ``output_edges``   ~ ``outputEdges(onto_path, output_path, source)``
  (make_network.py:22-45): standalone canonical-edge extraction with the
  optional ``source`` restriction (edges of the component reachable from a
  start node — the reference restricts its DFS roots the same way,
  network_class.py:138-139).

Neither calls ray.init(); the session belongs to the caller.
"""

from __future__ import annotations

import os

from ray.data import Dataset

from ..graph.enrich import GraphArtifacts
from ..graph.writers import write_all_artifacts
from ..ontology.fixture import build_fixture_snapshot
from ..ontology.schema import OntologySnapshot
from ..stages.adjacency import build_adjacency
from .kg import KGConfig, canonical_edges_to_artifacts, run_kg_pipeline


def _load_snapshot(snapshot: OntologySnapshot | str | None) -> OntologySnapshot:
    """Accepts a snapshot object, a path to a snapshot JSON, or a path to
    an OWL RDF/XML file (the reference's native input format,
    ``make_network.py:34``) — sniffed by content, not extension."""
    if snapshot is None:
        return build_fixture_snapshot()
    if isinstance(snapshot, str):
        with open(snapshot, "rb") as f:
            head = f.read(256).lstrip()
        if head.startswith(b"<"):
            from ..ontology.owl_io import parse_owl

            return parse_owl(snapshot)
        return OntologySnapshot.load(snapshot)
    return snapshot


def output_edges(
    pages: Dataset,
    snapshot: OntologySnapshot | str | None = None,
    cfg: KGConfig | None = None,
    source: str | None = None,
) -> Dataset:
    """Canonical (subject, object, predicate, support, sources) edges; with
    ``source``, only edges of the component reachable from that node."""
    snap = _load_snapshot(snapshot)
    res = run_kg_pipeline(pages, snap, cfg)
    edges = res.canonical_edges
    if source is None:
        return edges

    # driver-side reachability on the ontology-sized edge table, then a
    # broadcast semi-join filter (the reference's `-source` DFS-root
    # restriction, make_network.py:72-76)
    import ray

    rows = edges.select_columns(["subject", "object"]).to_pandas()
    adj: dict[str, list[str]] = {}
    for s, o in zip(rows["subject"], rows["object"]):
        adj.setdefault(s, []).append(o)
    reach = {source}
    stack = [source]
    while stack:
        for nb in adj.get(stack.pop(), ()):
            if nb not in reach:
                reach.add(nb)
                stack.append(nb)
    reach_ref = ray.put(reach)

    def keep(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep_set = pa.array(sorted(ray.get(reach_ref)), pa.string())
        return batch.filter(pc.is_in(batch.column("subject"), value_set=keep_set))

    return edges.map_batches(keep, batch_format="pyarrow")


def extract_mentions(
    pages: Dataset,
    snapshot: OntologySnapshot | str | None = None,
    cfg: KGConfig | None = None,
) -> Dataset:
    """The mentions table of SURVEY §1.3: pages -> extracted text -> mention
    rows (url, sent_id, surface, surface_norm, node_label, span_start/end)
    via the A1 automaton actor pool."""
    import ray

    from ..stages.extract import extract_pages_batch
    from ..stages.mentions import MentionDetector
    from .kg import lang_filter

    cfg = cfg or KGConfig()
    snap = _load_snapshot(snapshot)
    snapshot_json = snap.to_json()
    extracted = lang_filter(
        pages.map_batches(
            extract_pages_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=cfg.batch_size,
        ),
        cfg.keep_langs,
        cfg.min_text_chars,
    )
    return extracted.map_batches(
        MentionDetector,
        fn_constructor_kwargs={"snapshot_json": snapshot_json},
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        concurrency=cfg.extractor_concurrency,
        num_cpus=cfg.actor_num_cpus,
    )


def merge_canonical_edges(existing: Dataset, new: Dataset, sources_cap: int = 8) -> Dataset:
    """Incremental ingest: merge a new crawl batch's canonical edges into an
    existing canonical edge table (support counts add, source sets union).

    Because canonicalization is a sum/union aggregation, processing a corpus
    in k batches and merging equals processing it at once (tested).  The
    merge is the canonicalization exchange itself
    (stages/canonicalize.py: canonicalize_partials): canonical rows are
    partials with one row per key.
    """
    from ..stages.canonicalize import TRIPLE_KEY, canonicalize_partials

    cols = TRIPLE_KEY + ["support", "sources"]
    unioned = existing.select_columns(cols).union(new.select_columns(cols))
    return canonicalize_partials(unioned, sources_cap)


def process_pages(
    pages: Dataset,
    output_dir: str,
    snapshot: OntologySnapshot | str | None = None,
    cfg: KGConfig | None = None,
    emit_mentions: bool = False,
) -> tuple[GraphArtifacts, dict[str, str]]:
    """Full lifecycle: front end -> adjacency partitions -> driver-side
    enrichment -> all reference output files under ``output_dir``.
    ``emit_mentions`` additionally materializes the mentions table
    (SURVEY §1.3) as Parquet."""
    import shutil

    snap = _load_snapshot(snapshot)
    os.makedirs(output_dir, exist_ok=True)
    res = run_kg_pipeline(pages, snap, cfg)
    # web-scale outputs: canonical edges + adjacency partitions (Parquet).
    # Parquet dirs are cleared first: Ray's writer ADDS uniquely-named part
    # files, so a rerun into a stale dir would otherwise duplicate rows.
    edges_dir = os.path.join(output_dir, "canonical_edges")
    adjacency_dir = os.path.join(output_dir, "adjacency")
    for d in (edges_dir, adjacency_dir, os.path.join(output_dir, "nodes"),
              os.path.join(output_dir, "mentions")):
        shutil.rmtree(d, ignore_errors=True)
    res.canonical_edges.write_parquet(edges_dir)

    import ray.data

    canonical = ray.data.read_parquet(edges_dir)
    build_adjacency(canonical).write_parquet(adjacency_dir)
    # ontology-sized back end + reference file outputs
    art = canonical_edges_to_artifacts(canonical, snap)
    paths = write_all_artifacts(art, output_dir)
    paths["canonical_edges"] = edges_dir
    paths["adjacency"] = adjacency_dir
    # graph tables in the data plane (nested Arrow schemas)
    from ..graph.tables import graph_to_datasets

    tables = graph_to_datasets(art)
    nodes_dir = os.path.join(output_dir, "nodes")
    tables["nodes"].write_parquet(nodes_dir)
    paths["nodes"] = nodes_dir
    if emit_mentions:
        mentions_dir = os.path.join(output_dir, "mentions")
        extract_mentions(pages, snap, cfg).write_parquet(mentions_dir)
        paths["mentions"] = mentions_dir
    return art, paths
