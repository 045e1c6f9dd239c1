"""End-to-end KG construction pipeline (SURVEY §3.4 lifecycle).

    read_parquet(pages)
      -> map_batches(extract_pages_batch)   stateless tasks, zero-copy Arrow,
                                            html column dropped immediately
      -> lang filter                        vectorized pyarrow predicate
      -> map_batches(TripleExtractor)       actor pool (automaton state)
      -> map_batches(EntityLinker)          actor pool (broadcast index)
      -> canonicalize_triples               map-side + fan-in combines, then
                                            ONE groupby exchange
      -> (optional) adjacency materialize + parquet sinks
      -> driver-side graph enrichment       ontology-sized (SURVEY §7.0 (c))

Each stage is an independently-invocable Dataset -> Dataset function (the
reference's step-method surface, SURVEY §2.9), optionally checkpointed at
stage boundaries via CheckpointManager.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..graph.enrich import GraphArtifacts, build_enriched_graph
from ..ontology.schema import OntologySnapshot
from ..state.checkpoint import CheckpointManager
from .. import stages as S


@dataclass
class KGConfig:
    batch_size: int = 1024
    # actor pools: (min, max) autoscaling bounds; sized so extract / shuffle
    # stages are not starved (concurrency x num_cpus < cluster CPUs)
    extractor_concurrency: tuple[int, int] | int = (2, 8)
    linker_concurrency: tuple[int, int] | int = (2, 4)
    actor_num_cpus: float = 1.0
    link_threshold: float = 0.85
    num_salts: int = 16
    sources_cap: int = 8
    keep_langs: tuple[str, ...] = ("en",)
    checkpoint_dir: str | None = None
    run_key: str = "v1"
    # quality gate: pages whose extracted text is shorter are dropped with
    # the language filter (0 disables)
    min_text_chars: int = 0
    # fused=True runs triple extraction + linking + map-side combine in ONE
    # actor-pool stage (fewer operator boundaries -> less per-block executor
    # overhead); False keeps the stages as separate operators.  Outputs are
    # identical — the fused stage composes the same implementations.
    fused: bool = True
    # extension surface (SURVEY §2.9): inject custom extractor/linker
    # callable classes (same constructor/__call__ contract as the defaults).
    # Custom classes force the unfused (actor-pool) path.
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
        block sizes and pool widths."""
        return self.canonical_edges.stats()


def lang_filter(
    extracted: Dataset, keep_langs: tuple[str, ...], min_text_chars: int = 0
) -> Dataset:
    langs = pa.array(list(keep_langs), pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_in(batch.column("lang"), value_set=langs),
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

    return extracted.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


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


def run_kg_pipeline(
    pages: Dataset, snap: OntologySnapshot, cfg: KGConfig | None = None
) -> KGResult:
    """Run the distributed front end; the returned canonical edge Dataset is
    lazy unless checkpointing forced stage materialization."""
    cfg = cfg or KGConfig()
    # guard against stale-checkpoint reuse: fold a fingerprint of the input
    # corpus and the ontology snapshot into the manifest key, so a different
    # corpus or ontology under the same run_key recomputes instead of
    # resuming (and, through the publish key, does not return another
    # corpus's published outputs).  For file-backed Datasets the
    # fingerprint covers the file list plus each file's (size, mtime); for
    # in-memory / transformed Datasets (``input_files()`` empty — from_arrow,
    # from_pandas, mapped sources) it is a digest of the full content, one
    # pass over the rows (``corpus_digest``).  Only computed when
    # checkpointing is on — the no-checkpoint path stays fully lazy.
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
                    stats.append(f"{f}:{st.st_size}:{int(st.st_mtime)}")
                except OSError:
                    stats.append(f)
            corpus_fp = "|".join(stats)
        else:
            corpus_fp = f"schema={pages.schema()}|{corpus_digest(pages)}"
        fp = hashlib.sha1(
            (corpus_fp + snap.to_json()).encode()
        ).hexdigest()[:12]
    else:
        fp = "nockpt"
    ckpt = CheckpointManager(cfg.checkpoint_dir, f"{cfg.run_key}:{fp}")
    # the snapshot is ~100 KB JSON: shipped inline in constructor kwargs.
    # (An ObjectRef broadcast also works but makes actor RESTARTS depend on
    # the driver keeping the ref alive — ray-project/ray#53727; inline args
    # are self-contained.  For genuinely large snapshots switch to ray.put.)
    snapshot_json = snap.to_json()

    def _extracted() -> Dataset:
        ds = pages.map_batches(
            S.extract_pages_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=cfg.batch_size,
        )
        return lang_filter(ds, cfg.keep_langs, cfg.min_text_chars)

    extracted = ckpt.stage("extracted", _extracted)

    custom = cfg.triple_extractor_cls or cfg.entity_linker_cls
    if cfg.fused and not custom:
        from ..stages.fused import make_fused_partials_fn

        def _partials() -> Dataset:
            # stateless tasks with per-worker cached state: fuses with the
            # read/extract/filter chain into ONE operator (see fused.py)
            return extracted.map_batches(
                make_fused_partials_fn(
                    snapshot_json=snapshot_json,
                    threshold=cfg.link_threshold,
                    num_salts=cfg.num_salts,
                    sources_cap=cfg.sources_cap,
                ),
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
            )

        from ..stages.canonicalize import canonicalize_partials

        partials = ckpt.stage("partials", _partials)
        canonical = ckpt.stage(
            "canonical_edges",
            lambda: canonicalize_partials(partials, cfg.sources_cap),
        )
        return KGResult(
            canonical_edges=canonical, checkpoints=ckpt, snapshot=snap, config=cfg
        )

    def _linked() -> Dataset:
        triples = extracted.map_batches(
            cfg.triple_extractor_cls or S.TripleExtractor,
            fn_constructor_kwargs={"snapshot_json": snapshot_json},
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=cfg.extractor_concurrency,
            num_cpus=cfg.actor_num_cpus,
        )
        return triples.map_batches(
            cfg.entity_linker_cls or S.EntityLinker,
            fn_constructor_kwargs={
                "snapshot_json": snapshot_json,
                "threshold": cfg.link_threshold,
            },
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=cfg.linker_concurrency,
            num_cpus=cfg.actor_num_cpus,
        )

    linked = ckpt.stage("linked", _linked)

    canonical = ckpt.stage(
        "canonical_edges",
        lambda: S.canonicalize_triples(
            linked, num_salts=cfg.num_salts, sources_cap=cfg.sources_cap
        ),
    )
    return KGResult(canonical_edges=canonical, checkpoints=ckpt, snapshot=snap, config=cfg)


def canonical_edges_to_artifacts(
    canonical_edges: Dataset | pa.Table, snap: OntologySnapshot, min_support: int = 1
) -> GraphArtifacts:
    """Driver-side back end: collect the (ontology-sized) canonical edge
    table and run the reference enrichment recipe on it.  The triples are
    sorted first, so the graph (and its pickles) is a function of the edge
    set, not of the row order the exchange left."""
    cols = ["subject", "object", "predicate", "support"]
    if isinstance(canonical_edges, Dataset):
        rows_df = canonical_edges.select_columns(cols).to_pandas()
    else:
        rows_df = canonical_edges.select(cols).to_pandas()
    triples = sorted(
        (s, o, p)
        for s, o, p, sup in zip(
            rows_df["subject"], rows_df["object"],
            rows_df["predicate"], rows_df["support"],
        )
        if sup >= min_support
    )
    return build_enriched_graph(triples, snap)
