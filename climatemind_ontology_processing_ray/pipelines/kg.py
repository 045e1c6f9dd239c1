"""End-to-end KG construction pipeline (SURVEY §3.4 lifecycle).

    read_parquet(pages)
      -> map_batches(extract_pages_batch)   stateless tasks, zero-copy Arrow,
                                            html column dropped immediately
      -> lang filter                        vectorized pyarrow predicate
                                            (``keep_pages``)
      -> map_batches(PageToTriplePartials)  stateless tasks, per-worker
                                            automaton + index: extract,
                                            link and map-side combine
      => checkpoint ``partials``
      -> canonicalize_partials              fan-in combine in tasks, then
                                            ONE final merge task (no
                                            exchange: the key space is
                                            ontology-sized, and the task
                                            gets <= ceil(partial rows /
                                            fan-in rows) rows per key)
      => checkpoint ``canonical_edges``
      -> driver-side back end               ontology-sized (SURVEY §7.0 (c)):
                                            enrichment, adjacency, outputs
                                            (``pipelines/api.py``)

The first three steps fuse into one operator, with or without
checkpointing.  The two stage boundaries (``partials``,
``canonical_edges``) are Dataset -> Dataset steps (the reference's
step-method surface, SURVEY §2.9), optionally checkpointed via
CheckpointManager.  Extracted text is not checkpointed: no resume reads
it, and a rerun recomputes it from the pages.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..graph.enrich import GraphArtifacts, build_enriched_graph
from ..ontology.schema import OntologySnapshot
from ..stages.canonicalize import TRIPLE_KEY, _empty_canonical, canonicalize_partials
from ..stages.fused import make_fused_partials_fn
from ..state.checkpoint import CheckpointManager
from .. import stages as S


@dataclass
class KGConfig:
    batch_size: int = 1024
    link_threshold: float = 0.85
    num_salts: int = 16
    sources_cap: int = 8
    keep_langs: tuple[str, ...] = ("en",)
    checkpoint_dir: str | None = None
    run_key: str = "v1"
    # quality gate: pages whose extracted text is shorter are dropped with
    # the language filter (0 disables)
    min_text_chars: int = 0
    # extension surface (SURVEY §2.9): inject custom extractor/linker
    # callable classes (same constructor/__call__ contract as the defaults);
    # they run inside the one front-end operator (stages/fused.py)
    triple_extractor_cls: type | None = None
    entity_linker_cls: type | None = None


@dataclass
class KGResult:
    canonical_edges: Dataset
    checkpoints: CheckpointManager
    snapshot: OntologySnapshot
    config: KGConfig = field(default_factory=KGConfig)

    def stats(self) -> str:
        """Per-operator wall/cpu/memory breakdown of the executed pipeline
        (Ray Data ``Dataset.stats()``) — the observability hook used to tune
        block and batch sizes."""
        return self.canonical_edges.stats()


def keep_pages(
    batch: pa.Table, keep_langs: tuple[str, ...], min_text_chars: int = 0
) -> pa.Table:
    """The lang/quality kernel over extracted pages: keep the rows whose
    extraction succeeded, whose ``lang`` is in ``keep_langs`` and whose
    extracted text has at least ``min_text_chars`` characters (0 disables)."""
    mask = pc.and_(
        pc.is_in(batch.column("lang"), value_set=pa.array(list(keep_langs), pa.string())),
        batch.column("extract_ok"),
    )
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


def extract_pages(pages: Dataset, cfg: KGConfig) -> Dataset:
    """pages -> extracted text -> lang/quality filter, lazy: the front of
    the one front-end operator (and of ``api.extract_mentions``)."""
    ds = pages.map_batches(
        S.extract_pages_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=cfg.batch_size,
    )
    return lang_filter(ds, cfg.keep_langs, cfg.min_text_chars)


_DIGEST_MOD = 1 << 128


def _digest_block(batch: pa.Table) -> pa.Table:
    """One row: the block's row count and the sum mod 2**128 of each row's
    128-bit blake2b over its length-prefixed cells.  A sum is blind to row
    order and to how rows fall into blocks."""
    total = 0
    for row in zip(*(c.to_pylist() for c in batch.columns)):
        h = hashlib.blake2b(digest_size=16)
        for v in row:
            if isinstance(v, str):
                v = v.encode()
            elif not isinstance(v, bytes):
                v = repr(v).encode()
            h.update(len(v).to_bytes(8, "little"))
            h.update(v)
        total += int.from_bytes(h.digest(), "little")
    return pa.table({"rows": [batch.num_rows], "digest": [str(total % _DIGEST_MOD)]})


def corpus_digest(pages: Dataset) -> str:
    """Row-order-independent digest of every cell of ``pages``: one pass of
    ``_digest_block`` tasks, combined on the driver."""
    parts = pages.map_batches(
        _digest_block, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    rows = sum(r["rows"] for r in parts)
    total = sum(int(r["digest"]) for r in parts) % _DIGEST_MOD
    return f"rows={rows}|{total:032x}"


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def run_kg_pipeline(
    pages: Dataset, snap: OntologySnapshot, cfg: KGConfig | None = None
) -> KGResult:
    """Run the distributed front end; the returned canonical edge Dataset is
    lazy unless checkpointing forced stage materialization."""
    cfg = cfg or KGConfig()
    extractor_cls = cfg.triple_extractor_cls or S.TripleExtractor
    linker_cls = cfg.entity_linker_cls or S.EntityLinker
    # the snapshot is ~100 KB JSON: shipped inline in the task fn's closure
    # (self-contained; for genuinely large snapshots switch to ray.put)
    snapshot_json = snap.to_json()
    # guard against stale-checkpoint reuse: fold a fingerprint of the input
    # corpus, the ontology snapshot and the config fields that change the
    # output into the manifest key, so a different corpus, ontology or
    # config under the same run_key recomputes instead of resuming (and,
    # through the publish key, does not return another run's published
    # outputs).  For file-backed Datasets the corpus fingerprint covers the
    # file list plus each file's (size, mtime in ns); for in-memory /
    # transformed Datasets (``input_files()`` empty — from_arrow,
    # from_pandas, mapped sources) it is a digest of the full content, one
    # pass over the rows (``corpus_digest``).  ``batch_size`` and
    # ``num_salts`` do not change the canonical edges and stay out.  Only
    # computed when checkpointing is on — the no-checkpoint path stays
    # fully lazy.
    if cfg.checkpoint_dir:
        try:
            files = sorted(pages.input_files())
        except Exception:
            files = []
        if files:
            stats = []
            for f in files:
                try:
                    st = os.stat(f)
                    stats.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
                except OSError:
                    stats.append(f)
            corpus_fp = "|".join(stats)
        else:
            corpus_fp = f"schema={pages.schema()}|{corpus_digest(pages)}"
        output_cfg = (
            tuple(cfg.keep_langs),
            cfg.min_text_chars,
            cfg.link_threshold,
            cfg.sources_cap,
            _qualname(extractor_cls),
            _qualname(linker_cls),
        )
        fp = hashlib.sha1(
            (corpus_fp + snapshot_json + repr(output_cfg)).encode()
        ).hexdigest()[:12]
    else:
        fp = "nockpt"
    ckpt = CheckpointManager(cfg.checkpoint_dir, f"{cfg.run_key}:{fp}")

    # stateless tasks with per-worker cached state: fuses with the
    # read/extract/filter chain into ONE operator (see fused.py)
    partials = ckpt.stage(
        "partials",
        lambda: extract_pages(pages, cfg).map_batches(
            make_fused_partials_fn(
                snapshot_json=snapshot_json,
                threshold=cfg.link_threshold,
                num_salts=cfg.num_salts,
                sources_cap=cfg.sources_cap,
                extractor_cls=extractor_cls,
                linker_cls=linker_cls,
            ),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        ),
    )
    canonical = ckpt.stage(
        "canonical_edges",
        lambda: canonicalize_partials(partials, cfg.sources_cap),
    )
    return KGResult(canonical_edges=canonical, checkpoints=ckpt, snapshot=snap, config=cfg)


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
