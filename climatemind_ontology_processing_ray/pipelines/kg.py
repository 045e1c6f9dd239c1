"""End-to-end KG construction pipeline (SURVEY §3.4 lifecycle).

    read_parquet(pages)
      -> lang filter                        vectorized pyarrow predicate
                                            (``keep_pages``) on the raw
                                            pages: other languages are
                                            never extracted
      -> map_batches(extract_pages_batch)   stateless tasks, zero-copy Arrow,
                                            html column dropped immediately
      -> map_batches(PageToTriplePartials)  stateless tasks, per-worker
                                            automaton + index: extract,
                                            link and map-side combine
      => checkpoint ``partials``            the blocks stream to the driver
                                            (``iter_batches``), written
                                            through on the way; a hit
                                            streams the checkpoint's row
                                            groups instead
      -> driver fold (``fold_partials``)    merged into one row per key (no
                                            exchange and no operator after
                                            the front end: the key space is
                                            ontology-sized)
      => checkpoint ``canonical_edges``     (a hit skips everything above)
      -> driver-side back end               ontology-sized (SURVEY §7.0 (c)):
                                            enrichment, adjacency, outputs
                                            (``pipelines/api.py``)

The first three steps fuse into one operator, with the read when it
does not split (``runtime.configure_data_context`` sets its floor, and
the maps take whole blocks), and the
pipeline is at most one Ray Data execution: that operator, consumed by
the fold (an in-memory or transformed corpus with a checkpoint dir adds
one digest pass, ``corpus_fingerprint``).  Both checkpoints are written
on the driver by ``CheckpointManager.stream``; with or without a
checkpoint dir the fold consumes the same stream.  ``run_kg_pipeline``
runs it at call time and returns the canonical edges as a driver-side
table (``KGResult.edges``) and as a one-block Dataset
(``KGResult.canonical_edges``, the reference's step-method surface,
SURVEY §2.9).  Extracted text is not checkpointed: no resume reads it,
and a rerun recomputes it from the pages.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset, Schema
from ray.data._internal.datasource.parquet_datasource import ParquetDatasource

from ..graph.enrich import GraphArtifacts, build_enriched_graph
from ..ontology.schema import OntologySnapshot
from ..stages.canonicalize import (
    NUM_SALTS, SOURCES_CAP, TRIPLE_KEY, _empty_canonical, as_dataset, fold_partials,
)
from ..stages.fused import make_fused_partials_fn
from ..stages.link import LINK_THRESHOLD
from ..state.checkpoint import CheckpointManager
from .. import stages as S


# the checkpoint format's tag, the first part of every run key: a new tag
# makes every checkpoint written under an older one miss (v2: parts keep
# Arrow's ``item`` list naming)
RUN_KEY = "v2"
KEEP_LANGS = ("en",)  # the languages whose pages the engine reads


@dataclass
class KGConfig:
    checkpoint_dir: str | None = None
    # the engine's fixed recipe: constants, not fields, readable as
    # ``cfg.<name>`` because perfbench and the operator registry read them
    # there (whole read blocks per map, no text-length gate)
    batch_size: ClassVar[int | None] = None
    link_threshold: ClassVar[float] = LINK_THRESHOLD
    num_salts: ClassVar[int] = NUM_SALTS
    sources_cap: ClassVar[int] = SOURCES_CAP
    keep_langs: ClassVar[tuple[str, ...]] = KEEP_LANGS
    min_text_chars: ClassVar[int] = 0


@dataclass
class KGResult:
    # the canonical edge table, collected on the driver by the fold (or
    # read from the ``canonical_edges`` checkpoint)
    edges: pa.Table
    checkpoints: CheckpointManager
    snapshot: OntologySnapshot
    config: KGConfig = field(default_factory=KGConfig)
    # the executed front-end Dataset; None when a checkpoint hit spared it
    front_end: Dataset | None = None
    # (rows in, rows out, seconds) of the driver fold; None when
    # ``canonical_edges`` was a hit
    fold: tuple[int, int, float] | None = None

    @functools.cached_property
    def canonical_edges(self) -> Dataset:
        """``edges`` as a one-block, materialized Dataset."""
        return as_dataset(self.edges)

    def stats(self) -> str:
        """Per-operator wall/cpu/memory breakdown of the executed front end
        (Ray Data ``Dataset.stats()``) — the observability hook used to tune
        read block sizes — and one line for the driver fold.  A cold
        run over a Parquet read of at least as many files as 2 x the
        cluster's CPUs shows one operator, ``ReadParquet->MapBatches(keep)->
        MapBatches(extract_pages_batch)->MapBatches(fn)``, of one task per
        read block; a read of fewer files splits and shows as its own
        operator (``ReadParquet->SplitBlocks(k)``) ahead of the map."""
        if self.front_end is None:
            front = "Front end: not run (checkpoint hit)"
        else:
            front = self.front_end.stats()
        if self.fold is None:
            fold = "Driver fold: not run (canonical_edges checkpoint hit)"
        else:
            rows_in, rows_out, seconds = self.fold
            fold = f"Driver fold: {rows_in} partial rows in, {rows_out} edges out in {seconds:.3f}s"
        return f"{front}\n{fold}"


def keep_pages(
    batch: pa.Table, keep_langs: tuple[str, ...], min_text_chars: int = 0
) -> pa.Table:
    """The lang/quality kernel over extracted pages: keep the rows whose
    ``lang`` is in ``keep_langs`` and whose extracted text has at least
    ``min_text_chars`` characters (0 disables)."""
    mask = pc.is_in(batch.column("lang"), value_set=pa.array(list(keep_langs), pa.string()))
    if min_text_chars:
        mask = pc.and_(
            mask,
            pc.greater_equal(
                pc.utf8_length(batch.column("extracted_text")),
                pa.scalar(min_text_chars),
            ),
        )
    return batch.filter(mask)


def lang_filter(
    extracted: Dataset, keep_langs: tuple[str, ...], min_text_chars: int = 0
) -> Dataset:
    def keep(batch: pa.Table) -> pa.Table:
        return keep_pages(batch, keep_langs, min_text_chars)

    return extracted.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def extract_pages(pages: Dataset) -> Dataset:
    """pages -> lang filter -> extracted text, lazy: the front of the one
    front-end operator (and of ``api.extract_mentions``).  The language
    mask reads only ``lang``, so it runs on the raw pages and pages in
    other languages are never extracted.  The maps take whole blocks: Ray
    does not fuse a read into a map that asks for a row count."""
    return lang_filter(pages, KEEP_LANGS).map_batches(
        S.extract_pages_batch, batch_format="pyarrow", zero_copy_batch=True
    )


_DIGEST_MOD = 1 << 128
# a length prefix no cell can have: a null hashes apart from every value
_NULL_CELL = b"\xff" * 8


def _digest_block(batch: pa.Table) -> pa.Table:
    """One row: the block's row count, its schema and the sum mod 2**128 of
    each row's 128-bit blake2b over its length-prefixed cells (a null cell
    is a prefix alone, ``_NULL_CELL``).  A sum is blind to row order and
    to how rows fall into blocks."""
    total = 0
    for row in zip(*(c.to_pylist() for c in batch.columns)):
        h = hashlib.blake2b(digest_size=16)
        for v in row:
            if v is None:
                h.update(_NULL_CELL)
                continue
            if isinstance(v, str):
                v = v.encode()
            elif not isinstance(v, bytes):
                v = repr(v).encode()
            h.update(len(v).to_bytes(8, "little"))
            h.update(v)
        total += int.from_bytes(h.digest(), "little")
    return pa.table(
        {
            "rows": [batch.num_rows],
            "digest": [str(total % _DIGEST_MOD)],
            "schema": [str(Schema(batch.schema))],
        }
    )


def corpus_fingerprint(pages: Dataset) -> str:
    """The corpus part of the run key.  A plan that is a plain Parquet
    read alone (no row filter, column selection, schema, path column or
    block transform) is fingerprinted by its file list plus each file's
    (size, mtime in ns).  Any other plan (in-memory, mapped, limited, or a
    read with such an option) by its schema and a row-order-independent
    digest of every cell: one pass of ``_digest_block`` tasks, combined on
    the driver (the schema comes from the same pass: ``Dataset.schema()``
    would run a mapped plan again)."""
    src = getattr(pages._logical_plan.dag, "_datasource", None)
    if isinstance(src, ParquetDatasource) and not (
        src._to_batches_kwargs or src._data_columns is not None or src._block_udf
        or src._read_schema is not None or src._include_paths
    ):
        stats = []
        for f in sorted(pages.input_files()):
            try:
                st = os.stat(f)
                stats.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
            except OSError:
                stats.append(f)
        if stats:
            return "|".join(stats)
    parts = pages.map_batches(
        _digest_block, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    rows = sum(r["rows"] for r in parts)
    total = sum(int(r["digest"]) for r in parts) % _DIGEST_MOD
    schema = "|".join(sorted({r["schema"] for r in parts if r["rows"]}))
    return f"schema={schema}|rows={rows}|{total:032x}"


def run_kg_pipeline(
    pages: Dataset, snap: OntologySnapshot, cfg: KGConfig | None = None
) -> KGResult:
    """Run the pipeline at call time: the front end is one Ray Data
    execution (none when the checkpoints hit), and the driver fold turns
    its partials into the canonical edge table, returned as
    ``KGResult.edges``."""
    cfg = cfg or KGConfig()
    # the snapshot is ~100 KB JSON: shipped inline in the task fn's closure
    # (self-contained; for genuinely large snapshots switch to ray.put)
    snapshot_json = snap.to_json()
    # guard against stale-checkpoint reuse: fold a fingerprint of the input
    # corpus, the ontology snapshot and the recipe values that change the
    # output into the manifest key, so a different corpus, ontology or
    # recipe recomputes instead of resuming (and, through the publish key,
    # does not return another run's published outputs).  ``num_salts``
    # does not change the canonical edges and stays out; the 0 is the
    # retired text-length gate, kept so that earlier keys still match.
    # Only computed when checkpointing is on — without it the pages are
    # read once, by the front end.
    if cfg.checkpoint_dir:
        output_cfg = (KEEP_LANGS, 0, cfg.link_threshold, cfg.sources_cap)
        fp = hashlib.sha1(
            (corpus_fingerprint(pages) + snapshot_json + repr(output_cfg)).encode()
        ).hexdigest()[:12]
    else:
        fp = "nockpt"
    ckpt = CheckpointManager(cfg.checkpoint_dir, f"{RUN_KEY}:{fp}")

    # stateless tasks with per-worker cached state: fuses with the
    # read/extract/filter chain into ONE operator (see fused.py)
    front_end = extract_pages(pages).map_batches(
        make_fused_partials_fn(
            snapshot_json=snapshot_json,
            threshold=cfg.link_threshold,
            num_salts=cfg.num_salts,
            sources_cap=cfg.sources_cap,
        ),
        batch_format="pyarrow",
    )
    fold = None

    def fold_partials_stage() -> pa.Table:
        """``fold_partials`` over the ``partials`` stage's blocks (the
        front end's, or the checkpoint's row groups on a hit), recording
        its rows in and out and its own seconds (time spent waiting on a
        block excluded)."""
        nonlocal fold
        rows_in, waited = 0, 0.0

        def counted():
            nonlocal rows_in, waited
            it = ckpt.stream(
                "partials",
                lambda: front_end.iter_batches(batch_format="pyarrow", batch_size=None),
            )
            while True:
                t0 = time.perf_counter()
                block = next(it, None)
                waited += time.perf_counter() - t0
                if block is None:
                    return
                rows_in += block.num_rows
                yield block

        t0 = time.perf_counter()
        table = fold_partials(counted(), cfg.sources_cap)
        fold = (rows_in, table.num_rows, time.perf_counter() - t0 - waited)
        return table

    # a ``canonical_edges`` hit never opens ``partials``
    edges = edge_table(ckpt.stage_table("canonical_edges", fold_partials_stage))
    return KGResult(
        edges=edges,
        checkpoints=ckpt,
        snapshot=snap,
        config=cfg,
        front_end=front_end if "partials" in ckpt.misses else None,
        fold=fold,
    )


def edge_table(edges: Dataset | pa.Table) -> pa.Table:
    """The canonical edges as one driver-side table (a Dataset is collected
    in one Ray Data execution: ``iter_batches``, not ``to_arrow_refs``,
    which re-runs a lazy plan for its schema).  Tables without columns (a
    zero-row checkpoint stage, a schemaless empty block) are dropped; no
    rows at all give a typed empty."""
    if isinstance(edges, Dataset):
        tables = list(edges.iter_batches(batch_format="pyarrow", batch_size=None))
    else:
        tables = [edges]
    tables = [t for t in tables if t.num_columns]
    return pa.concat_tables(tables) if tables else _empty_canonical(TRIPLE_KEY)


def canonical_edges_to_artifacts(
    canonical_edges: Dataset | pa.Table, snap: OntologySnapshot, min_support: int = 1
) -> GraphArtifacts:
    """Driver-side back end: collect the (ontology-sized) canonical edge
    table and run the reference enrichment recipe on it.  The triples are
    sorted first, and the table is converted in one piece (equal strings
    of a column become one object), so the graph and its pickle bytes are
    a function of the edge set, not of row order or block layout."""
    cols = ["subject", "object", "predicate", "support"]
    rows_df = edge_table(canonical_edges).select(cols).to_pandas()
    triples = sorted(
        (s, o, p)
        for s, o, p, sup in zip(
            rows_df["subject"], rows_df["object"],
            rows_df["predicate"], rows_df["support"],
        )
        if sup >= min_support
    )
    return build_enriched_graph(triples, snap)
