"""The front end's one UDF: triple extraction + entity linking + map-side
combine, run as stateless tasks with per-worker state.

The streaming executor pays a scheduling/queueing cost per operator
boundary per block; at high block counts that overhead dominates the
(cheap, vectorized) per-page work.  ``PageToTriplePartials`` composes the
extractor, the linker and ``partial_triple_agg_arrow`` inside one
``__call__``, and ``per_worker`` builds it once per worker process, so the
executor fuses it with its upstream tasks and the pipeline plan is

    read -> [lang filter -> extract -> THIS] (one fused operator)
         => driver fold of the partial blocks (no operator after this one)

A custom front end is a composition, not a config knob (SURVEY §2.9): a
UDF that turns extracted pages into triple partials (say a
``TripleExtractor`` subclass, then ``EntityLinker`` and
``partial_triple_agg_arrow``) runs as
``extract_pages(pages, cfg).map_batches(per_worker(MyUDF, ...))``, and
``canonicalize_partials`` folds its output on the driver.
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
    """pages(extracted_text) -> linked triple rows
    (url, subj_surface, obj_surface, predicate, subj_label, obj_label)."""

    def __init__(self, snapshot_json: str, threshold: float = 0.85):
        self.extractor = TripleExtractor(snapshot_json=snapshot_json)
        self.linker = EntityLinker(snapshot_json=snapshot_json, threshold=threshold)

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
    ):
        super().__init__(snapshot_json, threshold)
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
):
    """``PageToTriplePartials`` as a stateless task fn (``per_worker``)."""
    return per_worker(PageToTriplePartials, snapshot_json, threshold, num_salts, sources_cap)
