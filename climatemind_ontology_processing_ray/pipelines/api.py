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

import dataclasses
import hashlib
import json
import os

import networkx as nx
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Dataset
from ray.data.datasource import FilenameProvider

from ..graph.enrich import GraphArtifacts
from ..graph.writers import write_all_artifacts
from ..ontology.fixture import build_fixture_snapshot
from ..ontology.schema import OntologySnapshot
from ..stages.adjacency import adjacency_table
from ..stages.canonicalize import SOURCES_CAP, as_dataset
from .kg import KGConfig, canonical_edges_to_artifacts, extract_pages, run_kg_pipeline


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
    pages: Dataset, snapshot: OntologySnapshot | str | None = None
) -> Dataset:
    """The mentions table of SURVEY §1.3: pages -> extracted text -> mention
    rows (url, sent_id, surface, surface_norm, node_label, span_start/end)
    via the A1 automaton, built once per worker."""
    from ..stages.fused import per_worker
    from ..stages.mentions import MentionDetector

    snap = _load_snapshot(snapshot)
    return extract_pages(pages).map_batches(
        per_worker(MentionDetector, snap.to_json()), batch_format="pyarrow"
    )


def merge_canonical_edges(
    existing: Dataset, new: Dataset, sources_cap: int = SOURCES_CAP
) -> Dataset:
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


def _publish_key(edges_key: str, edges_digest: str, emit_mentions: bool) -> str:
    """What the published outputs depend on: the ``canonical_edges``
    checkpoint's run key (which folds in the corpus, ontology and config
    fingerprints that ``mentions`` also depends on), the digest of every
    cell of the edge table that its manifest records (``_digest_block``,
    computed once, when the stage was written), ``emit_mentions`` and the
    package version.  The digest is blind to row order and to how rows
    fall into parts, so a checkpoint dir cleared and recomputed to the
    same edges keeps the key."""
    from .. import __version__

    payload = {
        "edges_key": edges_key,
        "edges_digest": edges_digest,
        "emit_mentions": emit_mentions,
        "version": __version__,
    }
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_table(table: pa.Table, out_dir: str) -> str:
    """One driver-side table as a one-file Parquet directory."""
    os.makedirs(out_dir)
    pq.write_table(table, os.path.join(out_dir, "part-0.parquet"))
    return out_dir


class _PartNames(FilenameProvider):
    """Part names from the write task and block alone, no per-write uuid:
    two writes of the same blocks give the same names."""

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"part-{task_index:06}-{block_index:06}.parquet"


_ART_FIELDS = tuple(f.name for f in dataclasses.fields(GraphArtifacts))


class _LazyArtifacts(GraphArtifacts):
    """``GraphArtifacts`` that ``build()`` makes on the first field read."""

    def __init__(self, build):
        self._build = build

    def __getattr__(self, name):
        build = self.__dict__.get("_build")
        if build is None or name not in _ART_FIELDS:
            raise AttributeError(name)
        self.__dict__.update(vars(build()))
        del self.__dict__["_build"]
        return self.__dict__[name]

    def __reduce__(self):
        return GraphArtifacts, tuple(getattr(self, name) for name in _ART_FIELDS)


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
    the publish key (``_publish_key``: the ``canonical_edges`` checkpoint's
    run key and the cell digest its manifest records, ``emit_mentions``
    and the package version), the returned ``paths`` relative to
    ``output_dir``, and each file's size and md5.  The returned paths are
    the ``<output_dir>/<name>`` links, so every read goes through the live
    set; ``mentions/`` parts are named by write task and block, so a
    publish of the same corpus writes the same names.

    On start, what a kill left is repaired: sets ``_current`` does not
    name and links that no longer resolve are deleted.  With a checkpoint
    dir, a run whose ``_PUBLISH.json`` has the same key, with every listed
    file matching its size and md5, writes nothing, and on a
    ``canonical_edges`` hit it reads only manifests and the published
    files' bytes: no checkpoint part, no cell digest and no graph.  It
    returns the published paths and an ``art`` built on its first field
    read, from the verified set's ``canonical_edges/``.  That holds also
    when the checkpoints were cleared and recomputed to the same edges.
    Otherwise ``art`` is built before the outputs are written.  Without a
    checkpoint dir every run publishes.  An output dir needs a filesystem
    with symlinks."""
    from ..graph.tables import nodes_table
    from ..state import publish

    snap = _load_snapshot(snapshot)
    os.makedirs(output_dir, exist_ok=True)
    publish.repair(output_dir)
    res = run_kg_pipeline(pages, snap, cfg)
    ckpt = res.checkpoints.manifest("canonical_edges")
    key = None if ckpt is None else _publish_key(ckpt["key"], ckpt["digest"], emit_mentions)
    manifest = None if key is None else publish.verify(output_dir, key)
    if manifest is not None:
        paths = publish.resolve(output_dir, manifest)
        # the verified set itself, not the names a later publish relinks
        edges_dir = os.path.realpath(paths["canonical_edges"])
        art = _LazyArtifacts(
            lambda: canonical_edges_to_artifacts(pq.read_table(edges_dir), snap)
        )
        return art, paths

    edges = res.edges
    art = canonical_edges_to_artifacts(edges, snap)
    staging = publish.new_set(output_dir)
    paths = {
        "canonical_edges": _write_table(edges, os.path.join(staging, "canonical_edges")),
        "adjacency": _write_table(adjacency_table(edges), os.path.join(staging, "adjacency")),
    }
    paths.update(write_all_artifacts(art, staging))
    paths["nodes"] = _write_table(nodes_table(art), os.path.join(staging, "nodes"))
    if emit_mentions:
        paths["mentions"] = os.path.join(staging, "mentions")
        extract_mentions(pages, snap).write_parquet(
            paths["mentions"], filename_provider=_PartNames(), mode="overwrite"
        )
    publish.seal(staging, key, paths)
    return art, publish.resolve(output_dir, publish.commit(output_dir, staging, _OUTPUTS))
