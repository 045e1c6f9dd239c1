"""Canonicalization reductions (SURVEY §7.3).

The key space is bounded by the ontology: canonical edges are keyed on
(subject, object, predicate) over linked node labels, so there are at most
labels² × predicates of them (SURVEY §7.0 (c)), and mention counts are
keyed on the ontology's surface forms.  Both reductions therefore share
one shape, with no exchange, no ``Sort``, no salt and no operator after
the map:

1. **map-side combine** (:func:`partial_triple_agg_arrow`, fused into the
   front end's tasks) — one partial row per key per upstream batch.  A
   head key ("climate change" appears on >=20% of pages) shrinks from one
   row per occurrence to one row per batch.  All per-page work stays in
   these parallel tasks.
2. **driver fold** (:func:`_fold`) — the partial blocks stream to the
   driver (``iter_batches``, or the ``partials`` checkpoint's row
   groups) and are merged (:func:`_merge_arrow`) into one accumulator of
   one row per key.  Blocks are buffered until they hold as many rows as
   the accumulator, so the work is linear in partial rows and no merge
   input exceeds 2 × the distinct keys + one block
   (``tests/test_canonicalize.py::test_hot_key_reducer_rows_bounded``).

:func:`fold_partials` is the pure ``Iterable[pa.Table] -> pa.Table``
kernel; ``canonicalize_partials`` / ``canonicalize_triples`` /
``canonicalize_mentions`` are thin wiring around it that return the
result as a one-block, materialized Dataset (:func:`as_dataset`).  Every
merge is associative (support and counts are sums; sources keep the
``sources_cap`` smallest distinct urls, a top-k monoid), so the output
rows do not depend on block boundaries or arrival order;
:func:`_merge_arrow` emits its rows sorted by key (the mentions fold is
sorted by ``surface_norm``), so neither does their order.  Every grouping
here is pyarrow's hash ``group_by``: the map-side combine, the merge and
the mention counts.  The triple partials still carry a ``salt`` column (a
hash of the first source url); nothing here reads it.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data import Dataset

TRIPLE_KEY = ["subject", "object", "predicate"]


def _salt_vec(values, num_salts: int) -> np.ndarray:
    """Vectorized deterministic salt: fixed-key SipHash over the string
    column (pd.util.hash_array iterates in C; no PYTHONHASHSEED
    dependence, no per-row Python — replaces the round-3 per-row crc32).
    Salt assignment is pure partitioning: every downstream merge groups
    on the real key, and the sources cap keeps the lexicographically
    smallest urls under ANY partitioning (each partial keeps its own
    smallest ``cap``, and a globally-smallest url is always among its
    partition's smallest), so outputs are salt-invariant."""
    arr = np.asarray(values, dtype=object)
    return (pd.util.hash_array(arr, categorize=False) % np.uint64(num_salts)).astype(
        np.int32
    )


def _salt_of(value: str, num_salts: int) -> int:
    return int(_salt_vec([value], num_salts)[0])


def _topk_sources(
    g_of_url: np.ndarray, urls, ngroups: int, cap: int
) -> pa.ListArray:
    """Per-group DISTINCT-ascending-top-``cap`` urls -> ``list<string>``
    column of length ``ngroups`` — the sources monoid, fully vectorized
    (one Arrow sort over the exploded (group, url) pairs + numpy
    segment ops; no per-group Python).  Groups with no urls get ``[]``."""
    pairs = pa.table(
        {"g": pa.array(g_of_url, pa.int64()), "u": urls}
    ).sort_by([("g", "ascending"), ("u", "ascending")])
    gs = pairs.column("g").to_numpy()
    us = pairs.column("u").combine_chunks()
    m = len(gs)
    keep = np.ones(m, dtype=bool)
    if m > 1:
        same_g = gs[1:] == gs[:-1]
        same_u = pc.equal(us.slice(1), us.slice(0, m - 1)).to_numpy(
            zero_copy_only=False
        )
        keep[1:] = ~(same_g & same_u.astype(bool))
    kidx = np.flatnonzero(keep)
    gk = gs[kidx]
    if len(gk):
        starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
        counts = np.diff(np.r_[starts, len(gk)])
        rank = np.arange(len(gk)) - np.repeat(starts, counts)
        sel = kidx[rank < cap]
    else:
        sel = kidx
    vals = us.take(pa.array(sel, pa.int64()))
    per_group = np.bincount(gs[sel], minlength=ngroups) if len(sel) else np.zeros(
        ngroups, dtype=np.int64
    )
    offsets = np.zeros(ngroups + 1, dtype=np.int32)
    np.cumsum(per_group, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), vals)


def _empty_canonical(keys: list[str]) -> pa.Table:
    """Typed empty output (subject/object/predicate string, salt int32,
    support int64, sources list<string>) for the empty-input cases: a
    zero-row ``_merge_arrow`` or ``partial_triple_agg_arrow`` call,
    ``kg.edge_table`` with no block that has columns, and perfbench's
    ``_part_tag_arrow``.  A typed empty keeps downstream concat/union
    schemas aligned."""
    cols = {
        k: pa.array([], pa.int32() if k == "salt" else pa.string()) for k in keys
    }
    cols["support"] = pa.array([], pa.int64())
    cols["sources"] = pa.array([], pa.list_(pa.string()))
    return pa.table(cols)


def _merge_arrow(tbl: pa.Table, keys: list[str], sources_cap: int) -> pa.Table:
    """Arrow-native in-partition merge, sorted by ``keys``: one hash
    ``group_by`` sums ``support`` and lists each group's row indices
    (pyarrow 16's ``hash_list`` has no ``list<string>`` kernel), and those
    rows' ``sources`` merge via the vectorized :func:`_topk_sources`.
    Output columns: ``keys``, support (int64), sources (list<string>); a
    typed empty for an empty table or one missing a column."""
    if tbl.num_rows == 0 or (
        {"support", "sources", *keys} - set(tbl.column_names)
    ):
        return _empty_canonical(keys)
    groups = (
        tbl.select(keys + ["support"])
        .append_column("row", pa.array(np.arange(tbl.num_rows), pa.int64()))
        .group_by(keys, use_threads=False)
        .aggregate([("support", "sum"), ("row", "list")])
        .sort_by([(k, "ascending") for k in keys])
    )
    rows = groups.column("row_list").combine_chunks()
    g_of_row = pc.list_parent_indices(rows).to_numpy()
    src = tbl.column("sources").take(pc.list_flatten(rows)).combine_chunks()
    urls = pc.list_flatten(src)
    g_of_url = g_of_row[pc.list_parent_indices(src).to_numpy()]
    out = {k: groups.column(k) for k in keys}
    out["support"] = groups.column("support_sum")
    out["sources"] = _topk_sources(g_of_url, urls, groups.num_rows, sources_cap)
    return pa.table(out)


# only perfbench's traced shuffle_layer calls this; it goes with salt (ROADMAP item 2)
def _part_tag_arrow(batch: pa.Table, cols: list[str], num_parts: int) -> pa.Table:
    """Append the partition-id column without leaving Arrow: per-column
    fixed-key hash (pd.util.hash_array — Cython, PYTHONHASHSEED-free, the
    functions/join.py:hash_bucket kernel) combined with a polynomial mix.
    Only the key columns are touched; support/sources ride along
    zero-copy."""
    if batch.num_rows == 0 or (set(cols) - set(batch.column_names)):
        # empty groupby partitions can arrive schemaless; a typed empty
        # in the SAME column order as the non-empty path keeps block
        # schemas aligned across the exchange
        return _empty_canonical(cols).append_column(
            "__part", pa.array([], pa.int32())
        )
    # keys-first column order == _empty_canonical's, for schema stability
    batch = batch.select(cols + [c for c in batch.column_names if c not in cols])
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for c in cols:
        arr = batch.column(c).to_numpy(zero_copy_only=False)
        if arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
        h = h * np.uint64(0x9E3779B97F4A7C15) + pd.util.hash_array(
            arr, categorize=False
        )
    return batch.append_column(
        "__part", pa.array((h % np.uint64(num_parts)).astype(np.int32))
    )


def partial_triple_agg_arrow(
    batch: pa.Table, num_salts: int = 16, sources_cap: int = 8
) -> pa.Table:
    """Arrow-native map-side combine: linked triple rows -> one partial
    row per (subject, object, predicate) per batch, salted by first
    (ascending) source url.  The extractor/linker hand over Arrow, and the
    partial leaves as Arrow."""
    tbl = pa.table(
        {
            "subject": batch.column("subj_label"),
            "object": batch.column("obj_label"),
            "predicate": batch.column("predicate"),
            "url": batch.column("url"),
        }
    )
    if tbl.num_rows == 0:
        return _empty_canonical(TRIPLE_KEY + ["salt"]).select(
            TRIPLE_KEY + ["support", "sources", "salt"]
        )
    agg = tbl.group_by(TRIPLE_KEY, use_threads=False).aggregate(
        [("url", "list"), ("url", "count")]
    )
    ul = agg.column("url_list").combine_chunks()
    urls = pc.list_flatten(ul)
    g_of_url = pc.list_parent_indices(ul).to_numpy()
    sources = _topk_sources(g_of_url, urls, agg.num_rows, sources_cap)
    # every group has >= 1 url, so offsets[:-1] index each group's first
    # (lexicographically smallest) source — the salt key
    first_urls = sources.values.take(sources.offsets.slice(0, agg.num_rows))
    salt = _salt_vec(first_urls.to_numpy(zero_copy_only=False), num_salts)
    return pa.table(
        {
            "subject": agg.column("subject"),
            "object": agg.column("object"),
            "predicate": agg.column("predicate"),
            "support": pc.cast(agg.column("url_count"), pa.int64()),
            "sources": sources,
            "salt": pa.array(salt, pa.int32()),
        }
    )


# only perfbench's traced shuffle_layer reads this; it goes with salt (ROADMAP item 2)
_FANIN_ROWS = 16_384


def _fold(tables: Iterable[pa.Table], merge: Callable[[pa.Table], pa.Table]) -> pa.Table:
    """Streaming fold of an associative ``merge`` over ``tables``: blocks
    are buffered until the buffer holds at least as many rows as the
    accumulator, then the accumulator and the buffer are merged in one
    call.  A merge's input is thus at most twice its buffered rows, and at
    most twice the accumulator plus one block: the work is linear in the
    rows read, and with an accumulator of one row per key the memory is
    bounded by the key space, not by the stream.  Empty and schemaless
    blocks are skipped; no rows at all give ``merge`` of an empty table."""
    acc: pa.Table | None = None
    buf: list[pa.Table] = []
    buffered = 0
    for t in tables:
        if not t.num_rows:
            continue
        buf.append(t)
        buffered += t.num_rows
        if buffered >= (acc.num_rows if acc is not None else 0):
            acc = merge(pa.concat_tables(buf if acc is None else [acc, *buf]))
            buf, buffered = [], 0
    if buf:
        acc = merge(pa.concat_tables([acc, *buf]))
    return acc if acc is not None else merge(pa.table({}))


def fold_partials(tables: Iterable[pa.Table], sources_cap: int = 8) -> pa.Table:
    """Partial (or already canonical) edge tables -> one canonical edge
    table, sorted by (subject, object, predicate): :func:`_fold` with
    :func:`_merge_arrow`.  Neither the rows nor their order depend on how
    the input falls into tables."""
    cols = TRIPLE_KEY + ["support", "sources"]
    return _fold(
        (t.select(cols) for t in tables if t.num_rows),
        lambda t: _merge_arrow(t, TRIPLE_KEY, sources_cap),
    )


def as_dataset(table: pa.Table) -> Dataset:
    """A driver-side table as a one-block, already materialized Dataset:
    iterating it runs no Ray Data execution (a plain ``from_arrow``
    Dataset starts an ``Input`` execution each time it is iterated).
    ``materialize`` of a ``from_arrow`` Dataset takes Ray's shortcut for
    in-memory sources, so it runs none either.  ``ray.data.from_blocks``
    would skip ``from_arrow``'s remote metadata task, but with it Ray
    2.49 failed internal checks (task manager, reference counter) and
    aborted the driver later in the same session."""
    return ray.data.from_arrow(table).materialize()


def canonicalize_partials(partials: Dataset, sources_cap: int = 8) -> Dataset:
    """Partial (or already canonical) edge rows -> canonical edge table:
    :func:`fold_partials` on the driver over the blocks of ``partials`` as
    they stream in (one Ray Data execution), returned as a one-block
    Dataset."""
    blocks = partials.iter_batches(batch_format="pyarrow", batch_size=None)
    return as_dataset(fold_partials(blocks, sources_cap))


def canonicalize_triples(
    linked: Dataset,
    num_salts: int = 16,
    sources_cap: int = 8,
) -> Dataset:
    """linked triples -> canonical edge table.

    Output schema = the reference's ``output.csv`` columns
    (``make_network.py:41-45``) plus aggregation columns::

        subject, object, predicate, support (int64), sources (list<string>)

    ``support`` counts supporting (url, sentence) extractions — the G1
    exact-dedup capability with provenance kept; ``sources`` keeps up to
    ``sources_cap`` distinct source urls (G5 grouped set-union semantics,
    ``make_graph_class.py:336-350``).
    """

    partials = linked.map_batches(
        lambda b: partial_triple_agg_arrow(b, num_salts, sources_cap),
        batch_format="pyarrow",
    )
    return canonicalize_partials(partials, sources_cap)


def _count_merge(batch: pa.Table) -> pa.Table:
    """Sum ``n_mentions`` per ``surface_norm``; a typed empty for a
    schemaless block."""
    if batch.num_rows == 0 or "n_mentions" not in batch.column_names:
        return pa.table(
            {"surface_norm": pa.array([], pa.string()), "n_mentions": pa.array([], pa.int64())}
        )
    agg = batch.group_by("surface_norm", use_threads=False).aggregate(
        [("n_mentions", "sum")]
    )
    return agg.select(["surface_norm", "n_mentions_sum"]).rename_columns(
        ["surface_norm", "n_mentions"]
    )


def canonicalize_mentions(
    mentions: Dataset, surface_index: dict[str, str] | None = None
) -> Dataset:
    """mention rows -> per-surface-form counts, keyed on ``surface_norm``
    (an ontology surface form, so the key space is ontology-sized).

    Output: surface_norm, n_mentions (int64) and — when ``surface_index``
    is given — node_label (nullable), sorted by surface_norm, as a
    one-block Dataset.  Each block is counted with a pyarrow ``group_by``
    in tasks, then the counts are summed by :func:`_fold` with
    :func:`_count_merge` on the driver.  ``node_label`` is functionally
    dependent on ``surface_norm``, so it is looked up in the
    (ontology-sized) ``surface_index`` after the fold.
    """

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by("surface_norm", use_threads=False).aggregate(
            [([], "count_all")]
        )
        return agg.select(["surface_norm", "count_all"]).rename_columns(
            ["surface_norm", "n_mentions"]
        )

    partials = mentions.map_batches(partial, batch_format="pyarrow", batch_size=None)
    blocks = partials.iter_batches(batch_format="pyarrow", batch_size=None)
    out = _fold(blocks, _count_merge).sort_by("surface_norm")
    if surface_index is not None:
        labels = [surface_index.get(s) for s in out.column("surface_norm").to_pylist()]
        out = out.append_column("node_label", pa.array(labels, pa.string()))
    return as_dataset(out)
