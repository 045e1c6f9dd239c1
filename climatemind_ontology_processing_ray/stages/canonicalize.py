"""Canonicalization exchanges (SURVEY §7.3; north_star "groupby-aggregate
shuffle on normalized surface-form keys with explicit salting for
head-entity skew").

Canonical edges come from ONE exchange keyed on (subject, object,
predicate).  Head-entity skew is handled by combining before it, not by a
salted second exchange:

1. **map-side combine** (:func:`partial_triple_agg_arrow`, fused into the
   front end) — one partial row per key per upstream batch.  A head key
   ("climate change" appears on >=20% of pages) shrinks from one row per
   occurrence to one row per batch.
2. **fan-in combine** — one ``map_batches(batch_size=fanin_rows)`` merges
   the partials again and tags each row with its hash partition
   ``__part``.  Any key, however hot, enters the exchange as at most one
   row per fan-in batch: its one reducer receives at most
   ``ceil(partial rows / fanin_rows)`` rows for it when upstream blocks
   pack evenly into batches, and each combine task adds at most one short
   batch otherwise
   (``tests/test_canonicalize.py::test_hot_key_reducer_rows_bounded``).
3. **exchange** — ``groupby("__part").map_groups`` merges each partition
   with the same Arrow kernel, :func:`_merge_arrow`.

Every merge is associative (support is a sum; sources keep the
``sources_cap`` smallest distinct urls, a top-k monoid), so the output rows
do not depend on batch boundaries, fan-in size or partition count (their
order does).  The
partials still carry a ``salt`` column (a hash of the first source url);
nothing in the exchange reads it.

:func:`canonicalize_mentions` keeps a two-phase salted ``Sum`` aggregation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset
from ray.data.aggregate import Sum

from .partitioning import adaptive_parts

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
    support int64, sources list<string>) — empty groupby partitions can
    hand merge fns schemaless blocks; a typed empty keeps downstream
    concat/union schemas aligned."""
    cols = {
        k: pa.array([], pa.int32() if k == "salt" else pa.string()) for k in keys
    }
    cols["support"] = pa.array([], pa.int64())
    cols["sources"] = pa.array([], pa.list_(pa.string()))
    return pa.table(cols)


def _group_codes(col: pa.Array) -> np.ndarray:
    """Integer group-identity codes for one key column: dictionary codes
    for strings (pyarrow hashes each distinct value ONCE), raw values for
    ints — so multi-key grouping below is pure numpy over ints, with no
    per-row string compares."""
    if pa.types.is_integer(col.type):
        return col.to_numpy(zero_copy_only=False).astype(np.int64)
    return pc.dictionary_encode(col).indices.to_numpy().astype(np.int64)


def _merge_arrow(tbl: pa.Table, keys: list[str], sources_cap: int) -> pa.Table:
    """Arrow-native in-partition merge (support sum + sources top-k): no
    Arrow->pandas->Arrow copies, no object-dtype strings.  Grouping =
    per-column dictionary codes + one numpy lexsort (pyarrow's hash
    aggregate has no list<string> gather kernel); support merges with an
    exact int64 reduceat; sources merge via the vectorized
    :func:`_topk_sources`."""
    if tbl.num_rows == 0 or (
        {"support", "sources", *keys} - set(tbl.column_names)
    ):
        return _empty_canonical(keys)
    tbl = tbl.select(keys + ["support", "sources"])
    n = tbl.num_rows
    codes = [_group_codes(tbl.column(k).combine_chunks()) for k in keys]
    order = np.lexsort(codes[::-1])
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for c in codes:
        cs = c[order]
        new[1:] |= cs[1:] != cs[:-1]
    gid_sorted = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    ngroups = len(starts)
    support = np.add.reduceat(
        tbl.column("support").to_numpy(zero_copy_only=False)[order], starts
    ).astype(np.int64)
    gid_of_row = np.empty(n, dtype=np.int64)
    gid_of_row[order] = gid_sorted
    src = tbl.column("sources").combine_chunks()
    urls = pc.list_flatten(src)
    parent = pc.list_parent_indices(src).to_numpy()
    g_of_url = (
        gid_of_row[parent] if len(parent) else np.zeros(0, dtype=np.int64)
    )
    rep = pa.array(order[starts], pa.int64())  # one representative row/group
    out = {k: tbl.column(k).take(rep) for k in keys}
    out["support"] = pa.array(support, pa.int64())
    out["sources"] = _topk_sources(g_of_url, urls, ngroups, sources_cap)
    return pa.table(out)


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


# fan-in batch size: Ray bundles upstream partial blocks until a combine
# task holds this many rows, so the exchange sees FEW large blocks instead
# of one tiny block per upstream task, and a hot key at most one row per
# batch.  Sized so several combine tasks stream DURING the extract stage
# instead of one combine acting as a pseudo-barrier after it (measured at
# 16 cpus: 65k rows = 1 task waiting on ~all upstream blocks added ~1-2s
# of serial tail; 16k rows = ~4 overlapped tasks).
_FANIN_ROWS = 16_384


def exchange_rows(
    partials: Dataset,
    sources_cap: int = 8,
    fanin_rows: int = _FANIN_ROWS,
    num_parts: int | None = None,
) -> Dataset:
    """The rows that enter the canonicalization exchange: partials merged
    per ``fanin_rows``-row batch and tagged with their ``__part`` out of
    ``num_parts`` (default: scaled to the input row estimate,
    ``stages/partitioning.py``)."""
    if num_parts is None:
        num_parts = adaptive_parts(partials)

    def combine_and_tag(b: pa.Table) -> pa.Table:
        return _part_tag_arrow(
            _merge_arrow(b, TRIPLE_KEY, sources_cap), TRIPLE_KEY, num_parts
        )

    # num_cpus=0.5 keeps this stage UNFUSED from the upstream heavy map
    # (fusion would bundle the extractor's inputs up to fanin_rows pages
    # per task, wrecking its task granularity)
    return partials.map_batches(
        combine_and_tag,
        batch_format="pyarrow",
        batch_size=fanin_rows,
        num_cpus=0.5,
    )


def canonicalize_partials(
    partials: Dataset,
    sources_cap: int = 8,
    fanin_rows: int = _FANIN_ROWS,
    num_parts: int | None = None,
) -> Dataset:
    """Partial (or already canonical) edge rows -> canonical edge table:
    the fan-in combine of :func:`exchange_rows`, then one sort-based
    ``groupby("__part")`` whose reducers merge with :func:`_merge_arrow`.
    Arrow end to end; the output rows (not their order) never depend on
    ``fanin_rows`` or ``num_parts``."""

    def merge(g: pa.Table) -> pa.Table:
        return _merge_arrow(g, TRIPLE_KEY, sources_cap)

    return (
        exchange_rows(partials, sources_cap, fanin_rows, num_parts)
        .groupby("__part")
        .map_groups(merge, batch_format="pyarrow")
    )


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


def canonicalize_mentions(
    mentions: Dataset,
    num_salts: int = 16,
    surface_index: dict[str, str] | None = None,
) -> Dataset:
    """mention rows -> per-surface-form counts: the mention-canonicalization
    shuffle keyed on ``surface_norm``.

    Output: surface_norm, n_mentions (int64) and — when the (small,
    broadcast) ``surface_index`` is given — node_label (nullable).
    Pure ``Sum`` aggregation; partial counts are pre-combined per batch so
    the exchange carries at most (#blocks x #salts) rows per key, and the
    salted stage splits each hot key over ``num_salts`` reducers.
    ``node_label`` is functionally dependent on ``surface_norm``, so it is
    re-attached after aggregation by broadcast lookup instead of being
    shuffled alongside every row.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "surface_norm": batch["surface_norm"],
                "salt": _salt_vec(batch["url"].to_numpy(dtype=object), num_salts),
            }
        )
        return (
            df.groupby(["surface_norm", "salt"], sort=False)
            .size()
            .rename("partial_count")
            .reset_index()
        )

    partials = mentions.map_batches(partial, batch_format="pandas")
    salted = partials.groupby(["surface_norm", "salt"]).aggregate(
        Sum("partial_count", alias_name="salted_count")
    )
    final = salted.groupby("surface_norm").aggregate(
        Sum("salted_count", alias_name="n_mentions")
    )
    if surface_index is None:
        return final

    import ray

    index_ref = ray.put(surface_index)

    def attach(batch: pd.DataFrame) -> pd.DataFrame:
        # one get per (few, post-exchange) block of an ontology-sized dict
        idx = ray.get(index_ref)
        batch["node_label"] = [idx.get(s) for s in batch["surface_norm"]]
        return batch

    return final.map_batches(attach, batch_format="pandas")
