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

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.data import Dataset

from ..graph.enrich import GraphArtifacts
from ..graph.writers import write_all_artifacts
from ..ontology.fixture import build_fixture_snapshot
from ..ontology.schema import OntologySnapshot
from ..stages.adjacency import adjacency_table
from .kg import (
    KGConfig,
    KGResult,
    canonical_edges_to_artifacts,
    edge_table,
    extract_pages,
    run_kg_pipeline,
)


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

    # driver-side reachability on the ontology-sized edge table, collected
    # once, then the same table filtered on the driver (the reference's
    # `-source` DFS-root restriction, make_network.py:72-76)
    table = edge_table(edges)
    adj: dict[str, list[str]] = {}
    for s, o in zip(table.column("subject").to_pylist(), table.column("object").to_pylist()):
        adj.setdefault(s, []).append(o)
    reach = {source}
    stack = [source]
    while stack:
        for nb in adj.get(stack.pop(), ()):
            if nb not in reach:
                reach.add(nb)
                stack.append(nb)
    keep = pc.is_in(table.column("subject"), value_set=pa.array(sorted(reach), pa.string()))
    return ray.data.from_arrow(table.filter(keep))


def extract_mentions(
    pages: Dataset,
    snapshot: OntologySnapshot | str | None = None,
    cfg: KGConfig | None = None,
) -> Dataset:
    """The mentions table of SURVEY §1.3: pages -> extracted text -> mention
    rows (url, sent_id, surface, surface_norm, node_label, span_start/end)
    via the A1 automaton, built once per worker."""
    from ..stages.fused import per_worker
    from ..stages.mentions import MentionDetector

    cfg = cfg or KGConfig()
    snap = _load_snapshot(snapshot)
    return extract_pages(pages, cfg).map_batches(
        per_worker(MentionDetector, snap.to_json()),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def merge_canonical_edges(existing: Dataset, new: Dataset, sources_cap: int = 8) -> Dataset:
    """Incremental ingest: merge a new crawl batch's canonical edges into an
    existing canonical edge table (support counts add, source sets union).

    Because canonicalization is a sum/union aggregation, processing a corpus
    in k batches and merging equals processing it at once (tested).  The
    merge is the canonicalization reduction itself
    (stages/canonicalize.py: canonicalize_partials): canonical rows are
    partials with one row per key.
    """
    from ..stages.canonicalize import TRIPLE_KEY, canonicalize_partials

    cols = TRIPLE_KEY + ["support", "sources"]
    unioned = existing.select_columns(cols).union(new.select_columns(cols))
    return canonicalize_partials(unioned, sources_cap)


# every name a publish owns under output_dir: a commit replaces each one,
# and removes the ones its set lacks (e.g. mentions/ after emit_mentions)
_OUTPUTS = (
    "canonical_edges",
    "adjacency",
    "nodes",
    "mentions",
    "output.csv",
    "Climate_Mind_DiGraph.gpickle",
    "Climate_Mind_Digraph_Test_Ont.json",
    "graphs_for_visualization.pickle",
)


def _publish_key(res: KGResult, emit_mentions: bool) -> str | None:
    """What the published outputs depend on: the ``canonical_edges``
    checkpoint (its run key, which folds in the corpus and ontology
    fingerprints, and its file md5s), ``emit_mentions`` and the package
    version.  ``None`` without a checkpoint."""
    from .. import __version__

    m = res.checkpoints.manifest("canonical_edges")
    if m is None:
        return None
    payload = {
        "edges_key": m["key"],
        "edges_md5": sorted((f["path"], f["md5"]) for f in m["files"]),
        "emit_mentions": emit_mentions,
        "version": __version__,
    }
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_table(table: pa.Table, out_dir: str) -> str:
    """One driver-side table as a one-file Parquet directory."""
    os.makedirs(out_dir)
    pq.write_table(table, os.path.join(out_dir, "part-0.parquet"))
    return out_dir


def process_pages(
    pages: Dataset,
    output_dir: str,
    snapshot: OntologySnapshot | str | None = None,
    cfg: KGConfig | None = None,
    emit_mentions: bool = False,
) -> tuple[GraphArtifacts, dict[str, str]]:
    """Full lifecycle: front end -> driver-side back end -> all reference
    output files under ``output_dir``.  ``emit_mentions`` additionally
    materializes the mentions table (SURVEY §1.3) as Parquet.

    The back end works on one driver-side Arrow table of canonical edges
    (the graph is ontology-sized), read from the ``canonical_edges``
    checkpoint or else collected once.  ``art``, the adjacency lists and
    the node table are built from it and written with pyarrow; only
    ``mentions/`` runs a Ray job of its own.

    Publish is one checkpointed, kill-safe stage (``state/publish.py``).
    Every output (``canonical_edges/``, ``adjacency/``, ``nodes/``, the
    optional ``mentions/``, ``output.csv``, the two pickles and the JSON)
    is written under ``<output_dir>/_publish.tmp/``, sealed by a
    ``_PUBLISH.json`` written there last, then committed: the old
    ``<output_dir>/_PUBLISH.json`` goes first, each staged entry replaces
    its old one (an owned entry the new set lacks is removed), and the
    manifest moves in last.  ``_PUBLISH.json`` holds the publish key (the
    ``canonical_edges`` checkpoint's run key and file md5s,
    ``emit_mentions`` and the package version), the returned ``paths``
    relative to ``output_dir``, and each file's size and md5.

    On start, a publish a kill interrupted is repaired: a sealed staging
    directory is committed, any other is deleted.  With a checkpoint dir,
    a run whose ``canonical_edges`` stage is a checkpoint hit and whose
    ``_PUBLISH.json`` has the same key, with every listed file matching
    its size and md5, writes nothing: it returns ``art`` and the
    published paths.  Without a checkpoint dir every run publishes."""
    from ..graph.tables import nodes_table
    from ..state import publish

    snap = _load_snapshot(snapshot)
    os.makedirs(output_dir, exist_ok=True)
    publish.repair(output_dir)
    res = run_kg_pipeline(pages, snap, cfg)
    key = _publish_key(res, emit_mentions)
    if key is not None:
        edges = edge_table(res.checkpoints.read_table("canonical_edges"))
    else:
        edges = edge_table(res.canonical_edges)
    art = canonical_edges_to_artifacts(edges, snap)
    if key is not None and "canonical_edges" in res.checkpoints.hits:
        manifest = publish.verify(output_dir, key)
        if manifest is not None:
            return art, publish.resolve(output_dir, manifest)

    staging = publish.staging_dir(output_dir)  # repair left none behind
    os.makedirs(staging)
    paths = {
        "canonical_edges": _write_table(edges, os.path.join(staging, "canonical_edges")),
        "adjacency": _write_table(adjacency_table(edges), os.path.join(staging, "adjacency")),
    }
    paths.update(write_all_artifacts(art, staging))
    paths["nodes"] = _write_table(nodes_table(art), os.path.join(staging, "nodes"))
    if emit_mentions:
        paths["mentions"] = os.path.join(staging, "mentions")
        extract_mentions(pages, snap, cfg).write_parquet(paths["mentions"])
    publish.seal(staging, key, paths, _OUTPUTS)
    return art, publish.resolve(output_dir, publish.commit(output_dir))
