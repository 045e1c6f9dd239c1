"""The three workloads.  Each one makes its inputs from the seed
(``prepare``), runs one pipeline through the package's public API per call
of ``run`` and checks that run's outputs.  ``run`` returns the timings and
counts of that one closed-loop iteration plus a list of failed checks, and
keeps the iteration's executed Datasets and wall time (``last_datasets``,
``last_wall``) for the Ray Data per-operator stats."""

from __future__ import annotations

import itertools
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from climatemind_ontology_processing_ray.ontology.oracle import precision_recall
from climatemind_ontology_processing_ray.ontology.vocab import (
    CAUSES,
    EXPOSURE,
    INHIBITS,
    IS_A,
    MYTH_ABOUT,
    POPULATION,
)
from climatemind_ontology_processing_ray.pipelines.api import process_pages
from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline
from climatemind_ontology_processing_ray.sources.pages import generate_pages
from climatemind_ontology_processing_ray.stages.canonicalize import canonicalize_triples

from .spans import Tracer, written_datasets


class Clock:
    """Wall seconds of the ``with`` body."""

    def __enter__(self) -> "Clock":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0


PR_FLOOR = 0.95
ROWS_PER_FILE = 2_500
# generate_pages draws each golden edge's (heavy-tailed) support once per
# call, so one call's triple count varies ~17% between seeds; summing
# independent 500-page shards keeps a corpus's work within a few percent
SHARD_PAGES = 500
EDGE_KEY = ["subject", "object", "predicate"]
LINKED_KEY = ["subj_label", "obj_label", "predicate"]
HEAD_SHARE = 0.22  # least share of linked rows on the one head triple


@dataclass(frozen=True)
class Sizes:
    pages: int  # crawl_ingest corpus
    publish_pages: int  # publish_resume corpus: a cold + warm pair per iteration
    linked_rows: int


FULL = Sizes(pages=10_000, publish_pages=5_000, linked_rows=100_000)
SMOKE = Sizes(pages=600, publish_pages=600, linked_rows=6_000)


def _consume(tr: Tracer, ds) -> pa.Table:
    """Pull every output block to the driver (inside the timed region)."""
    with tr.span("executor.consume"):
        blocks = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(blocks, promote_options="default")


def _edge_keys(edges: pa.Table) -> set[tuple[str, str, str]]:
    return set(zip(*(edges.column(c).to_pylist() for c in EDGE_KEY)))


def _support_sum(edges: pa.Table) -> int:
    return int(pc.sum(edges.column("support")).as_py() or 0)


def write_corpus(out_dir: str, snap, n_pages: int, seed: int) -> None:
    """Pages Parquet corpus from ``sources.pages.generate_pages``: shards of
    ``SHARD_PAGES`` pages with seeds ``(seed, first page)``, traps only in
    the first (the trap budget is corpus-wide), in files of
    ``ROWS_PER_FILE`` rows."""
    shards = [
        generate_pages(
            snap,
            min(SHARD_PAGES, n_pages - start),
            seed=(seed, start),
            trap_fraction=0.02 if start == 0 else 0.0,
        )[0]
        for start in range(0, n_pages, SHARD_PAGES)
    ]
    corpus = pa.concat_tables(shards)
    os.makedirs(out_dir)
    for i, start in enumerate(range(0, n_pages, ROWS_PER_FILE)):
        pq.write_table(
            corpus.slice(start, ROWS_PER_FILE), os.path.join(out_dir, f"pages-{i:05d}.parquet")
        )


class _PagesWorkload:
    """Shared corpus set-up: a pages Parquet corpus from the seed."""

    name = ""

    def __init__(self, work_dir: str, seed: int, sizes: Sizes, snap, golden):
        self.work_dir = work_dir
        self.seed = seed
        self.snap = snap
        self.golden = golden
        self.n_pages = sizes.pages
        self.cfg = KGConfig()
        self.pages_dir = ""
        self.last_edges: pa.Table | None = None
        self.last_datasets: list = []
        self.last_wall = 0.0

    def prepare(self, tag: int) -> None:
        if self.pages_dir:
            shutil.rmtree(self.pages_dir, ignore_errors=True)
        self.pages_dir = os.path.join(self.work_dir, f"pages-{tag}")
        write_corpus(self.pages_dir, self.snap, self.n_pages, self.seed)

    def _check_edges(self, edges: pa.Table, errors: list[str]) -> tuple[float, float]:
        p, r = precision_recall(_edge_keys(edges), self.golden)
        if p < PR_FLOOR or r < PR_FLOOR:
            errors.append(f"{self.name}: precision {p:.4f} recall {r:.4f} below {PR_FLOOR}")
        return p, r


class CrawlIngest(_PagesWorkload):
    name = "crawl_ingest"

    def run(self, tr: Tracer) -> dict:
        """One ``run_kg_pipeline`` (default fused path, no checkpoint) over
        the corpus, consumed on the driver."""
        errors: list[str] = []
        with Clock() as clock, tr.span(self.name):
            with tr.span("sources.read_parquet"):
                pages = rd.read_parquet(self.pages_dir)
            with tr.span("pipelines.kg.run_kg_pipeline"):
                res = run_kg_pipeline(pages, self.snap, self.cfg)
            edges = _consume(tr, res.canonical_edges)
        self.last_datasets = [res.canonical_edges]
        self.last_wall = clock.wall
        self.last_edges = edges
        p, r = self._check_edges(edges, errors)
        triples = _support_sum(edges)
        return {
            "wall_s": clock.wall,
            # no checkpoint: a restart recomputes everything
            "resume_s": clock.wall,
            "pages": self.n_pages,
            "triples": triples,
            "linked_rows": triples,
            "precision": p,
            "recall": r,
            "errors": errors,
        }


def _manifests(root: str) -> dict[str, tuple[int, int, int]]:
    """Identity of every ``_MANIFEST.json`` under ``root``: (inode,
    mtime_ns, size).  A rewrite goes through a tmp dir and a rename, so it
    changes the inode even within one mtime tick."""
    out = {}
    for dirpath, _, files in os.walk(root):
        if "_MANIFEST.json" in files:
            st = os.stat(os.path.join(dirpath, "_MANIFEST.json"))
            out[os.path.relpath(dirpath, root)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class PublishResume(_PagesWorkload):
    name = "publish_resume"

    def __init__(self, work_dir: str, seed: int, sizes: Sizes, snap, golden):
        super().__init__(work_dir, seed, sizes, snap, golden)
        self.n_pages = sizes.publish_pages
        self._iteration = itertools.count()

    def _publish(self, tr: Tracer, out_dir: str, span: str) -> tuple[Clock, str]:
        # the cold run's executions are its stage checkpoints and outputs,
        # all written with write_parquet
        with written_datasets() as self.last_datasets, Clock() as clock, tr.span(span):
            with tr.span("sources.read_parquet"):
                pages = rd.read_parquet(self.pages_dir)
            with tr.span("pipelines.api.process_pages"):
                _, paths = process_pages(
                    pages,
                    os.path.join(out_dir, "kg"),
                    self.snap,
                    KGConfig(checkpoint_dir=os.path.join(out_dir, "ckpt")),
                )
        return clock, paths["canonical_edges"]

    def run(self, tr: Tracer) -> dict:
        errors: list[str] = []
        out_dir = os.path.join(self.work_dir, f"publish-{next(self._iteration)}")
        try:
            cold, edges_dir = self._publish(tr, out_dir, "publish_resume.cold")
            cold_datasets = self.last_datasets
            cold_edges = pq.read_table(edges_dir)
            before = _manifests(os.path.join(out_dir, "ckpt"))
            warm, edges_dir = self._publish(tr, out_dir, "publish_resume.warm")
            warm_edges = pq.read_table(edges_dir)
            after = _manifests(os.path.join(out_dir, "ckpt"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.last_datasets, self.last_wall = cold_datasets, cold.wall
        if not before:
            errors.append("publish_resume: cold run wrote no _MANIFEST.json")
        elif before != after:
            errors.append("publish_resume: warm run rewrote a _MANIFEST.json")
        key = lambda t: sorted(zip(*(t.column(c).to_pylist() for c in EDGE_KEY + ["support"])))
        if key(cold_edges) != key(warm_edges):
            errors.append("publish_resume: warm edges differ from cold edges")
        self.last_edges = cold_edges
        p, r = self._check_edges(cold_edges, errors)
        triples = _support_sum(cold_edges)
        return {
            "wall_s": cold.wall,
            "resume_s": warm.wall,
            "pages": self.n_pages,
            "triples": triples,
            "linked_rows": triples,
            "precision": p,
            "recall": r,
            "errors": errors,
        }


PREDICATES = (CAUSES, EXPOSURE, INHIBITS, IS_A, MYTH_ABOUT, POPULATION)


def make_linked_table(
    labels: list[str],
    n_rows: int,
    seed: int,
    distinct: int = 20_000,
) -> pa.Table:
    """Linked-triple rows ``(url, subj_label, obj_label, predicate)``:
    ``distinct`` triples over the labels, each present at least once, with
    Zipf-skewed subjects and at least ``HEAD_SHARE`` of all rows on one head
    triple.  About ten rows per url."""
    rng = np.random.default_rng(seed)
    labels_a = np.array(sorted(labels), dtype=object)
    preds = np.array(PREDICATES, dtype=object)
    n_l, n_p = len(labels_a), len(preds)
    keys = np.arange(n_l * n_l * n_p)
    keys = keys[keys // (n_l * n_p) != keys // n_p % n_l]  # no self loops
    uni = rng.choice(keys, size=min(distinct, len(keys)), replace=False)
    subj, obj, pred = uni // (n_l * n_p), uni // n_p % n_l, uni % n_p
    rank = rng.permutation(n_l)  # Zipf rank of each subject label
    weight = 1.0 / (1.0 + rank[subj]) ** 1.1
    weight /= weight.sum()
    n_head = int(np.ceil(HEAD_SHARE * n_rows))
    n_rest = n_rows - len(uni) - n_head
    if n_rest < 0:
        raise ValueError(f"{n_rows} rows cannot hold {len(uni)} distinct triples")
    idx = rng.permutation(
        np.concatenate(
            [
                np.arange(len(uni)),
                np.full(n_head, int(np.argmax(weight))),
                rng.choice(len(uni), size=n_rest, p=weight),
            ]
        )
    )
    n_pages = max(1, n_rows // 10)
    urls = np.array(
        [f"https://site-{i % 997}.example/{(i * 2654435761 + seed) % 2**32:08x}" for i in range(n_pages)],
        dtype=object,
    )
    return pa.table(
        {
            "url": pa.array(urls[rng.integers(0, n_pages, n_rows)], pa.string()),
            "subj_label": pa.array(labels_a[subj[idx]], pa.string()),
            "obj_label": pa.array(labels_a[obj[idx]], pa.string()),
            "predicate": pa.array(preds[pred[idx]], pa.string()),
        }
    )


class SkewedCanonicalize:
    """``canonicalize_triples`` over a generated linked-triple table."""

    name = "skewed_canonicalize"
    row_groups = 10

    def __init__(self, work_dir: str, seed: int, sizes: Sizes, snap, golden):
        self.work_dir = work_dir
        self.seed = seed
        self.sizes = sizes
        self.labels = snap.labels()
        self.cfg = KGConfig()
        self.linked_dir = ""
        self.table: pa.Table | None = None
        self.reference: dict | None = None
        self.last_edges: pa.Table | None = None
        self.last_datasets: list = []
        self.last_wall = 0.0

    def prepare(self, tag: int) -> None:
        if self.linked_dir:
            shutil.rmtree(self.linked_dir, ignore_errors=True)
        self.linked_dir = os.path.join(self.work_dir, f"linked-{tag}")
        n = self.sizes.linked_rows
        self.table = make_linked_table(self.labels, n, self.seed, distinct=min(20_000, n // 5))
        os.makedirs(self.linked_dir)
        pq.write_table(
            self.table,
            os.path.join(self.linked_dir, "linked.parquet"),
            row_group_size=-(-n // self.row_groups),
        )
        self.reference = None
        self.n_urls = pc.count_distinct(self.table.column("url")).as_py()

    def _reference(self) -> dict:
        """Per triple: (row count, ``sources_cap`` smallest distinct urls),
        from a pyarrow ``group_by`` over the input table."""
        if self.reference is None:
            agg = self.table.group_by(LINKED_KEY).aggregate(
                [("url", "count"), ("url", "distinct")]
            )
            cap = self.cfg.sources_cap
            self.reference = {
                (s, o, p): (n, tuple(sorted(urls)[:cap]))
                for s, o, p, n, urls in zip(
                    *(agg.column(c).to_pylist() for c in LINKED_KEY + ["url_count", "url_distinct"])
                )
            }
        return self.reference

    def run(self, tr: Tracer) -> dict:
        errors: list[str] = []
        with Clock() as clock, tr.span(self.name):
            with tr.span("sources.read_parquet"):
                linked = rd.read_parquet(self.linked_dir)
            with tr.span("stages.canonicalize.canonicalize_triples"):
                out = canonicalize_triples(
                    linked, num_salts=self.cfg.num_salts, sources_cap=self.cfg.sources_cap
                )
            edges = _consume(tr, out)
        self.last_datasets = [out]
        self.last_wall = clock.wall
        self.last_edges = edges
        ref = self._reference()
        got = {
            (s, o, p): (n, tuple(src))
            for s, o, p, n, src in zip(
                *(edges.column(c).to_pylist() for c in EDGE_KEY + ["support", "sources"])
            )
        }
        if len(got) != edges.num_rows:
            errors.append("skewed_canonicalize: duplicate canonical keys")
        wrong = sum(1 for k, v in got.items() if ref.get(k) != v)
        if wrong or len(got) != len(ref):
            errors.append(
                f"skewed_canonicalize: {wrong} edges differ from the group_by reference "
                f"({len(got)} emitted, {len(ref)} expected)"
            )
        p, r = precision_recall(set(got), set(ref))
        return {
            "wall_s": clock.wall,
            # no checkpoint: a restart recomputes everything
            "resume_s": clock.wall,
            "pages": self.n_urls,  # source pages whose triples were canonicalized
            "triples": _support_sum(edges),
            "linked_rows": self.table.num_rows,
            "precision": p,
            "recall": r,
            "errors": errors,
        }


WORKLOADS = {w.name: w for w in (CrawlIngest, SkewedCanonicalize, PublishResume)}
