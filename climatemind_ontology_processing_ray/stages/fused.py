"""The front end's one UDF: triple extraction + entity linking + map-side
combine, run as stateless tasks with per-worker state.

The streaming executor pays a scheduling/queueing cost per operator
boundary per block; at high block counts that overhead dominates the
(cheap, vectorized) per-page work.  ``PageToTriplePartials`` composes the
extractor, the linker and ``partial_triple_agg_arrow`` inside one
``__call__``, and ``per_worker`` builds it once per worker process, so the
executor fuses it with its upstream tasks and the pipeline plan is

    read -> [extract -> lang filter -> THIS] (one fused operator)
         -> fan-in combine -> one final merge task

The extractor and linker classes are parameters (the extension surface,
SURVEY §2.9): a custom class runs inside the same operator.
"""

from __future__ import annotations

import pyarrow as pa

from .canonicalize import partial_triple_agg_arrow
from .link import EntityLinker
from .triples import TripleExtractor

# process-global cache: one instance per (class, args) per worker process —
# the task-based equivalent of actor __init__ state.
_WORKER_CACHE: dict = {}


def per_worker(build, *args):
    """A stateless ``map_batches`` fn that calls ``build(*args)`` on each
    batch, building it once per worker process.  The state here (an
    automaton, an index) is cheap and read-only, so the cache gives
    actor-``__init__`` amortization while the stage runs as plain tasks,
    which the executor fuses with the upstream read/extract/filter."""
    key = (build, *args)

    def fn(batch: pa.Table) -> pa.Table:
        inst = _WORKER_CACHE.get(key)
        if inst is None:
            inst = _WORKER_CACHE[key] = build(*args)
        return inst(batch)

    return fn


class ExtractLink:
    """pages(extracted_text) -> linked triple rows: ``extractor_cls`` then
    ``linker_cls``, each with the default classes' constructor contract."""

    def __init__(
        self,
        snapshot_json: str,
        threshold: float = 0.85,
        extractor_cls: type = TripleExtractor,
        linker_cls: type = EntityLinker,
    ):
        self.extractor = extractor_cls(snapshot_json=snapshot_json)
        self.linker = linker_cls(snapshot_json=snapshot_json, threshold=threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.linker(self.extractor(batch))


class PageToTriplePartials(ExtractLink):
    """pages(extracted_text) -> map-side combined triple partials."""

    def __init__(
        self,
        snapshot_json: str,
        threshold: float = 0.85,
        num_salts: int = 16,
        sources_cap: int = 8,
        extractor_cls: type = TripleExtractor,
        linker_cls: type = EntityLinker,
    ):
        super().__init__(snapshot_json, threshold, extractor_cls, linker_cls)
        self.num_salts = num_salts
        self.sources_cap = sources_cap

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Arrow end-to-end: extractor and linker hand over Arrow tables
        # and the map-side combine is the Arrow hash-aggregate
        linked = super().__call__(batch)
        return partial_triple_agg_arrow(linked, self.num_salts, self.sources_cap)


def make_fused_partials_fn(
    snapshot_json: str,
    threshold: float = 0.85,
    num_salts: int = 16,
    sources_cap: int = 8,
    extractor_cls: type = TripleExtractor,
    linker_cls: type = EntityLinker,
):
    """``PageToTriplePartials`` as a stateless task fn (``per_worker``)."""
    return per_worker(
        PageToTriplePartials,
        snapshot_json, threshold, num_salts, sources_cap, extractor_cls, linker_cls,
    )


def make_extract_link_fn(snapshot_json: str, threshold: float = 0.85):
    """Extract+link WITHOUT the map-side combine, as a stateless task fn —
    for consumers that need the per-mention linked rows themselves (e.g.
    the per-edge provenance join in `kg_edge_timespan`, which joins linked
    rows back to pages on url BEFORE any aggregation)."""
    return per_worker(ExtractLink, snapshot_json, threshold)
