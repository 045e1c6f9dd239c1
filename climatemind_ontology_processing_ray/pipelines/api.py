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

import networkx as nx
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Dataset

from ..graph.enrich import GraphArtifacts
from ..graph.writers import write_all_artifacts
from ..ontology.fixture import build_fixture_snapshot
from ..ontology.schema import OntologySnapshot
from ..stages.adjacency import adjacency_table
from ..stages.canonicalize import as_dataset
from .kg import (
    KGConfig,
    _digest_block,
    canonical_edges_to_artifacts,
    extract_pages,
    run_kg_pipeline,
)


def _load_snapshot(snapshot: OntologySnapshot | str | None) -> OntologySnapshot:
    """Accepts a snapshot object, a path to a snapshot JSON, or a path to
    an OWL RDF/XML file (the reference's native input format,
    ``make_network.py:34``) — sniffed by content (after any UTF-8 BOM),
    not extension."""
    if snapshot is None:
        return build_fixture_snapshot()
    if isinstance(snapshot, str):
        with open(snapshot, "rb") as f:
            head = f.read(256).removeprefix(b"\xef\xbb\xbf").lstrip()
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
    if source is None:
        return res.canonical_edges

    # driver-side reachability on the ontology-sized edge table the fold
    # collected, then the same table filtered on the driver (the
    # reference's `-source` DFS-root restriction, make_network.py:72-76)
    table = res.edges
    g = nx.DiGraph(
        zip(table.column("subject").to_pylist(), table.column("object").to_pylist())
    )
    reach = {source} | (nx.descendants(g, source) if source in g else set())
    keep = pc.is_in(table.column("subject"), value_set=pa.array(sorted(reach), pa.string()))
    return as_dataset(table.filter(keep))


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
    merge is the canonicalization fold itself
    (stages/canonicalize.py: canonicalize_partials): canonical rows are
    partials with one row per key.
    """
    from ..stages.canonicalize import canonicalize_partials

    return canonicalize_partials(existing.union(new), sources_cap)


# every output name: the first commit into a dir holding real entries at
# the names removes them before it links the names (state/publish.py)
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


def _publish_key(edges_key: str, edges: pa.Table, emit_mentions: bool) -> str:
    """What the published outputs depend on: the ``canonical_edges``
    checkpoint's run key (which folds in the corpus, ontology and config
    fingerprints that ``mentions`` also depends on), a digest of every cell
    of the edge table (blind to row order and to the checkpoint's file
    names, which carry a per-write uuid), ``emit_mentions`` and the
    package version."""
    from .. import __version__

    payload = {
        "edges_key": edges_key,
        "edges_digest": _digest_block(edges).column("digest")[0].as_py(),
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

    The back end works on the one driver-side Arrow table of canonical
    edges that ``run_kg_pipeline`` returns (the graph is ontology-sized):
    the driver fold's output, read back from the ``canonical_edges``
    checkpoint when there is one.  ``art``, the adjacency lists and
    the node table are built from it and written with pyarrow; only
    ``mentions/`` runs a Ray job of its own.

    Publish is one checkpointed, kill-safe stage (``state/publish.py``).
    Every output (``canonical_edges/``, ``adjacency/``, ``nodes/``, the
    optional ``mentions/``, ``output.csv``, the two pickles and the JSON)
    is written into a fresh set, ``<output_dir>/_sets/<id>/``, sealed by a
    ``_PUBLISH.json`` written there last, then committed: each output name
    at the top of ``output_dir`` is a relative symlink through
    ``<output_dir>/_current``, and one ``os.replace`` of ``_current``
    makes the new set live.  ``_PUBLISH.json`` (itself such a link) holds
    the publish key (the ``canonical_edges`` checkpoint's run key, a digest
    of the edge table's cells, ``emit_mentions`` and the package version),
    the returned ``paths`` relative to ``output_dir``, and each file's
    size and md5.  The returned paths are the ``<output_dir>/<name>``
    links, so every read goes through the live set.

    On start, what a kill left is repaired: sets ``_current`` does not
    name and links that no longer resolve are deleted.  With a checkpoint
    dir, a run whose ``_PUBLISH.json`` has the same key, with every listed
    file matching its size and md5, writes nothing: it returns ``art`` and
    the published paths.  That holds also when the checkpoints were
    cleared and recomputed to the same edges.  Without a checkpoint dir
    every run publishes.  An output dir needs a filesystem with symlinks."""
    from ..graph.tables import nodes_table
    from ..state import publish

    snap = _load_snapshot(snapshot)
    os.makedirs(output_dir, exist_ok=True)
    publish.repair(output_dir)
    res = run_kg_pipeline(pages, snap, cfg)
    edges = res.edges
    ckpt = res.checkpoints.manifest("canonical_edges")
    key = None if ckpt is None else _publish_key(ckpt["key"], edges, emit_mentions)
    art = canonical_edges_to_artifacts(edges, snap)
    if key is not None:
        manifest = publish.verify(output_dir, key)
        if manifest is not None:
            return art, publish.resolve(output_dir, manifest)

    staging = publish.new_set(output_dir)
    paths = {
        "canonical_edges": _write_table(edges, os.path.join(staging, "canonical_edges")),
        "adjacency": _write_table(adjacency_table(edges), os.path.join(staging, "adjacency")),
    }
    paths.update(write_all_artifacts(art, staging))
    paths["nodes"] = _write_table(nodes_table(art), os.path.join(staging, "nodes"))
    if emit_mentions:
        paths["mentions"] = os.path.join(staging, "mentions")
        extract_mentions(pages, snap, cfg).write_parquet(paths["mentions"])
    publish.seal(staging, key, paths)
    return art, publish.resolve(output_dir, publish.commit(output_dir, staging, _OUTPUTS))
