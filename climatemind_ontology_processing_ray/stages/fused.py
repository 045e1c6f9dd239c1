"""Fused fast path: one actor-pool stage doing triple extraction + entity
linking + map-side combine.

The streaming executor pays a scheduling/queueing cost per operator
boundary per block; at high block counts that overhead dominates the
(cheap, vectorized) per-page work.  This stage composes the SAME
component implementations (TripleExtractor, EntityLinker,
partial_triple_agg_arrow) inside one ``__call__`` so the pipeline plan is

    read -> [extract -> lang filter -> THIS] (one fused operator)
         -> fan-in combine + tag -> one groupby exchange

instead of one operator per component.  The unfused stages remain
available and independently invocable (KGConfig(fused=False)); outputs
are identical.
"""

from __future__ import annotations

import pyarrow as pa

from .canonicalize import partial_triple_agg_arrow
from .link import EntityLinker
from .triples import TripleExtractor


class PageToTriplePartials:
    def __init__(
        self,
        snapshot_ref=None,
        snapshot_json: str | None = None,
        threshold: float = 0.85,
        num_salts: int = 16,
        sources_cap: int = 8,
    ):
        self.extractor = TripleExtractor(snapshot_ref, snapshot_json)
        self.linker = EntityLinker(snapshot_ref, snapshot_json, threshold)
        self.num_salts = num_salts
        self.sources_cap = sources_cap

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Arrow end-to-end: extractor and linker hand over Arrow tables
        # and the map-side combine is the Arrow hash-aggregate — no
        # pandas conversion anywhere on the fused hot path (r4 verdict)
        triples = self.extractor(batch)
        linked = self.linker(triples)
        return partial_triple_agg_arrow(linked, self.num_salts, self.sources_cap)


# process-global cache: one PageToTriplePartials per (ref, params) per
# worker process — the task-based equivalent of actor __init__ state.
_WORKER_CACHE: dict = {}


def make_fused_partials_fn(
    snapshot_ref=None,
    snapshot_json: str | None = None,
    threshold: float = 0.85,
    num_salts: int = 16,
    sources_cap: int = 8,
):
    """Stateless-task variant of PageToTriplePartials.

    The automaton/index state here is cheap (<1s) and read-only, so a
    per-worker-process cache gives actor-__init__ amortization while
    letting the stage run as plain tasks — which the executor FUSES with
    the upstream read/extract/filter into a single operator (no extra
    block hand-off per batch).  Use the actor-pool stages instead
    (KGConfig(fused=False)) when linker state is heavy (a real model).
    """
    import hashlib

    key = (
        snapshot_ref.hex()
        if hasattr(snapshot_ref, "hex")
        else hashlib.sha1((snapshot_json or "").encode()).hexdigest(),
        threshold,
        num_salts,
        sources_cap,
    )

    def fn(batch: pa.Table) -> pa.Table:
        inst = _WORKER_CACHE.get(key)
        if inst is None:
            inst = PageToTriplePartials(
                snapshot_ref, snapshot_json, threshold, num_salts, sources_cap
            )
            _WORKER_CACHE[key] = inst
        return inst(batch)

    return fn


def make_extract_link_fn(
    snapshot_ref=None,
    snapshot_json: str | None = None,
    threshold: float = 0.85,
):
    """Stateless-task extract+link WITHOUT the map-side combine — for
    consumers that need the per-mention linked rows themselves (e.g.
    the per-edge provenance join in `kg_edge_timespan`, which joins
    linked rows back to pages on url BEFORE any aggregation).  Same
    worker-process cache as :func:`make_fused_partials_fn`, so the
    executor fuses read -> extract -> filter -> this into one operator
    and the automaton/index state is built once per worker instead of
    once per actor-pool actor."""
    import hashlib

    key = (
        "xl",
        snapshot_ref.hex()
        if hasattr(snapshot_ref, "hex")
        else hashlib.sha1((snapshot_json or "").encode()).hexdigest(),
        threshold,
    )

    def fn(batch: pa.Table) -> pa.Table:
        inst = _WORKER_CACHE.get(key)
        if inst is None:
            inst = (
                TripleExtractor(snapshot_ref, snapshot_json),
                EntityLinker(snapshot_ref, snapshot_json, threshold),
            )
            _WORKER_CACHE[key] = inst
        extractor, linker = inst
        return linker(extractor(batch))

    return fn
