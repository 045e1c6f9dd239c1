"""Large x large joins.

Every join in the KG pipeline proper is broadcast-small-side (SURVEY
§2.4: nothing exceeds big x ontology-sized), but a general engine needs a
both-sides-large join.  This is the portable partitioned hash join from
the Ray guide: tag each side, align schemas, bucket by key hash, union,
one groupby(bucket) shuffle, then a pandas merge per bucket.

Bucket assignment is vectorized: ``pandas.util.hash_array`` (Cython
SipHash with a fixed key, deterministic across processes) replaces the
former per-row ``zlib.crc32(str(k))`` Python loop, so the tagging stage
stays C-speed even on string keys.

Shared non-key columns (present on BOTH sides) are kept and suffixed
``_l`` / ``_r`` (pandas-merge style) — they are renamed at tagging time so
the two sides never collide in the unioned schema.

Skew note: a hot key lands in one bucket; raise ``num_buckets`` or
pre-salt the hot key's rows into sub-buckets (same pattern as
canonicalize.py) when a key's row count exceeds a worker's heap.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

def _quiet_size_estimator() -> None:
    """Empty join/filter buckets are routine (one-sided keys); ray's
    sampling size estimator warns on every SIZE-0 object column it meets
    ("Error calculating size for column ..." — np.vectorize rejects empty
    input).  Workers re-run their logging dictConfig per task, so a
    module-level setLevel does not stick — each bucket UDF calls this
    instead (the block build that triggers the estimator runs in the same
    task, after the UDF returns)."""
    logging.getLogger("ray.data._internal.pandas_block").setLevel(logging.ERROR)


def _adaptive_buckets(left, right, rows_per_bucket: int | None = None) -> int:
    """Join fan-out ∝ the larger side's row estimate (free from read /
    materialized metadata; functions/partitioning.py) — per-bucket frames
    stay merge-sized as inputs grow instead of a fixed 32-way fan-out.

    ``rows_per_bucket`` tunes granularity per join kind: the Arrow hash
    join works well at the exchange default (~16k rows/bucket), but the
    pandas per-bucket kinds (asof, interval) are dominated by the sort
    exchange's per-reduce-partition fetch cost, which grows with bucket
    COUNT at fixed data (interleaved 10M x 15M asof: 32 buckets 27s,
    58 buckets 48-64s, 916 buckets 107-152s) — so they ask for ~512k-row
    buckets (10-30 at stress shape, matching the measured optimum, while
    per-bucket frames stay worker-heap-sized at any scale)."""
    from .partitioning import adaptive_parts, estimate_rows

    rows = max(
        (r for r in (estimate_rows(left), estimate_rows(right)) if r is not None),
        default=None,
    )
    if rows_per_bucket is None:
        return adaptive_parts(rows=rows, default=32)
    return adaptive_parts(rows=rows, rows_per_part=rows_per_bucket, default=32)


def hash_bucket(values, num_buckets: int) -> np.ndarray:
    """Deterministic vectorized bucket id for an arbitrary key array.

    ``pd.util.hash_array`` uses a fixed hash key (no PYTHONHASHSEED
    dependence) and runs in Cython for both numeric and object dtypes.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in ("U", "S"):
        # hash_array rejects numpy fixed-width string dtypes (e.g. a
        # python list of grams asarray'd to '<U12') — box to object
        arr = arr.astype(object)
    hashed = pd.util.hash_array(arr, categorize=False)
    return (hashed % np.uint64(num_buckets)).astype(np.int32)


def _plan_columns(
    left_names: list[str], right_names: list[str], key: str
) -> tuple[dict[str, str], dict[str, str]]:
    """Per-side rename maps: shared non-key columns get _l/_r suffixes."""
    shared = {n for n in left_names if n in right_names and n != key}
    l_map = {n: (f"{n}_l" if n in shared else n) for n in left_names}
    r_map = {n: (f"{n}_r" if n in shared else n) for n in right_names}
    return l_map, r_map


def _settled(ds: Dataset) -> tuple[Dataset, object]:
    """``ds`` and its schema, read without an early-stopped execution.
    ``Dataset.schema()`` on an unexecuted plan runs it under ``limit(1)``
    and cancels the tasks still in flight, and in ray 2.49 such a cancel
    can race the task's completion and abort the driver process
    (``Check failed: it != submissible_tasks_.end()`` in the core
    worker).  A plan whose schema is unknown runs to completion once
    instead; the join then reads those blocks rather than running the
    plan again.  The schema is the first non-empty block's."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        ds = ds.materialize()
        sch = ds.schema()
    return ds, sch


def _union_types(l_sch, r_sch, l_map, r_map) -> dict:
    """Renamed-column -> Arrow type for the aligned union schema, so the
    side that lacks a column emits TYPED nulls.  Untyped ``pa.nulls``
    (type null) makes every left block's schema differ from every right
    block's, and the sort exchange then re-coerces per block."""
    out = {}
    for sch, m in ((l_sch, l_map), (r_sch, r_map)):
        names = list(sch.names)
        types = list(getattr(sch, "types", []) or [])
        for name, typ in zip(names, types):
            if isinstance(typ, pa.DataType):
                out.setdefault(m[name], typ)
            else:
                # pandas-backed schemas carry numpy dtypes; numeric ones
                # map 1:1 to Arrow.  object stays untyped (could be str
                # or list) — join_bucket handles the residual null type.
                try:
                    out.setdefault(m[name], pa.from_numpy_dtype(typ))
                except (pa.ArrowNotImplementedError, TypeError, ValueError):
                    pass
    return out


def _with_schema(
    batch: pa.Table,
    side: str,
    rename: dict[str, str],
    all_names: list[str],
    key: str,
    num_buckets: int,
    types: dict | None = None,
) -> pa.Table:
    cols = {}
    n = batch.num_rows
    present = {rename[name]: batch.column(name) for name in batch.column_names}
    for name in all_names:
        cols[name] = present.get(
            name, pa.nulls(n, (types or {}).get(name))
        )
    # int8 side flag (0=left, 1=right): the column rides the all-to-all
    # shuffle on every row and is compared per row in every bucket UDF —
    # a string column costs ~8x the bytes and a python-object compare
    cols["__side"] = pa.array(np.full(n, 0 if side == "l" else 1, np.int8))
    cols["__bucket"] = pa.array(
        hash_bucket(batch.column(key).to_numpy(zero_copy_only=False), num_buckets),
        pa.int32(),
    )
    return pa.table(cols)


def bucketed_hash_join(
    left: Dataset,
    right: Dataset,
    key: str,
    num_buckets: int | None = None,
    join_type: str = "inner",
) -> Dataset:
    """Join of two large Datasets on ``key`` — ``inner`` (default),
    ``left outer`` or ``full outer`` (hash-bucketing is outer-safe: an
    unmatched row meets its would-be partners, or nobody, in its own
    bucket, so per-bucket outer joins compose exactly).

    Output columns = union of both sides' columns: the shared ``key`` kept
    once, and any other column present on both sides emitted twice as
    ``<name>_l`` / ``<name>_r``.  One all-to-all shuffle (the groupby on
    bucket); fan-out scales with the larger side's row estimate.
    """
    if join_type not in ("inner", "left outer", "full outer"):
        raise ValueError(f"unsupported join_type {join_type!r}")
    if num_buckets is None:
        # ~64k input rows/bucket: the measured optimum for the Arrow
        # bucket join's sort exchange at the 10M x 15M stress shape
        # (256 buckets 47.9s vs 128 at 69.9s — too-coarse wave
        # quantization — and 916 at 70.9s — per-reduce fetch overhead)
        num_buckets = _adaptive_buckets(left, right, rows_per_bucket=65_536)
    left, l_sch = _settled(left)
    right, r_sch = _settled(right)
    l_map, r_map = _plan_columns(list(l_sch.names), list(r_sch.names), key)
    l_names = list(l_map.values())
    r_names = list(r_map.values())
    all_names = l_names + [n for n in r_names if n not in l_names]
    types = _union_types(l_sch, r_sch, l_map, r_map)

    l_tagged = left.map_batches(
        lambda b: _with_schema(b, "l", l_map, all_names, key, num_buckets, types),
        batch_format="pyarrow",
    )
    r_tagged = right.map_batches(
        lambda b: _with_schema(b, "r", r_map, all_names, key, num_buckets, types),
        batch_format="pyarrow",
    )
    unioned = l_tagged.union(r_tagged)

    l_other = [n for n in l_names if n != key]
    r_other = [n for n in r_names if n != key and n not in l_names]
    # pa.Table.join column order: left side's columns, then right non-keys
    all_names_out = [key] + l_other + r_other

    def join_bucket(g: pa.Table) -> pa.Table:
        # Arrow-native per-bucket join (VERDICT r3 item 7): the pandas
        # round-trip (block -> frames -> merge -> block) capped the
        # fan-out join at ~1.3M rows/s; pa.Table.join hash-joins the
        # bucket zero-copy.  Null keys never match (SQL semantics,
        # matching the DuckDB oracles; pandas merge matched NaN==NaN).
        _quiet_size_estimator()
        import pyarrow.compute as pc

        side = g.column("__side")
        l = g.filter(pc.equal(side, 0)).select([key] + l_other)
        r = g.filter(pc.equal(side, 1)).select([key] + r_other)
        # A one-sided bucket (object-dtype fill columns never promoted by
        # a concat with the other side) can still carry null-typed fields,
        # which pa.Table.join rejects.  Such a column is all-null here, so
        # drop it, join, and re-attach nulls at the joined length.
        null_l = [n for n in l_other if pa.types.is_null(l.schema.field(n).type)]
        null_r = [n for n in r_other if pa.types.is_null(r.schema.field(n).type)]
        if null_l or null_r:
            l = l.drop_columns(null_l)
            r = r.drop_columns(null_r)
            out = l.join(r, keys=key, join_type=join_type)
            for name in null_l + null_r:
                out = out.append_column(
                    name, pa.nulls(out.num_rows, types.get(name) or pa.string())
                )
            return out.select(all_names_out)
        return l.join(r, keys=key, join_type=join_type)

    return unioned.groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


def _bucketed_membership_join(
    left: Dataset, right: Dataset, key: str, num_buckets: int, keep_matches: bool
) -> Dataset:
    """Shared core of semi/anti join: the right side is pruned to its key
    column (per-batch distinct — membership needs nothing else), both
    sides bucket by key hash, and one groupby(bucket) co-locates each
    key; left rows are filtered by membership per bucket."""
    left, l_sch = _settled(left)
    l_map, _ = _plan_columns(list(l_sch.names), [key], key)
    l_names = list(l_map.values())
    types = _union_types(l_sch, l_sch, l_map, l_map)

    def key_only(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {key: pc.unique(b.column(key))}
        n = len(cols[key])
        for name in l_names:
            if name != key:
                cols[name] = pa.nulls(n, types.get(name))
        t = pa.table(cols).select(l_names)
        return t

    l_tagged = left.map_batches(
        lambda b: _with_schema(b, "l", l_map, l_names, key, num_buckets),
        batch_format="pyarrow",
    )
    r_tagged = right.select_columns([key]).map_batches(
        lambda b: _with_schema(key_only(b), "r", {n: n for n in l_names}, l_names, key, num_buckets),
        batch_format="pyarrow",
    )
    unioned = l_tagged.union(r_tagged)
    l_other = [n for n in l_names if n != key]

    def filter_bucket(g: pa.Table) -> pa.Table:
        # Arrow-native so left columns keep their exact types: the right
        # side's null-padded rows would force pandas to upcast int64 ->
        # float64 for the whole group frame, leaking floats into the
        # anti/semi output even though only left rows survive.
        import pyarrow.compute as pc

        side = g.column("__side")
        l = g.filter(pc.equal(side, 0)).select([key] + l_other)
        r_keys = pc.unique(g.filter(pc.equal(side, 1)).column(key))
        member = pc.is_in(l.column(key), value_set=r_keys)
        return l.filter(member if keep_matches else pc.invert(member))

    return unioned.groupby("__bucket").map_groups(filter_bucket, batch_format="pyarrow")


def bucketed_semi_join(
    left: Dataset, right: Dataset, key: str, num_buckets: int | None = None
) -> Dataset:
    """Left rows whose key EXISTS in right (big x big semi join: one
    shuffle, right shipped as distinct keys only).  For ontology-sized
    right sides prefer the broadcast lookup (SURVEY §2.4)."""
    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right)
    return _bucketed_membership_join(left, right, key, num_buckets, True)


def bucketed_anti_join(
    left: Dataset, right: Dataset, key: str, num_buckets: int | None = None
) -> Dataset:
    """Left rows whose key does NOT exist in right (NOT EXISTS)."""
    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right)
    return _bucketed_membership_join(left, right, key, num_buckets, False)


def skew_join(
    left: Dataset,
    right: Dataset,
    key: str,
    num_buckets: int | None = None,
    num_salts: int = 16,
    hot_keys: set | None = None,
    sample_rows: int = 250_000,
    hot_frac: float = 0.01,
) -> Dataset:
    """Inner join robust to hot keys (the salted-join scale pattern).

    ``bucketed_hash_join`` sends every row of a key to ONE bucket, so a
    key holding 30% of the left side serializes 30% of the join in a
    single task.  Here hot keys' left rows spread round-robin over
    ``num_salts`` salts and the matching right rows REPLICATE across all
    salts; the exchange hashes (key, salt), so a hot key occupies up to
    ``num_salts`` buckets instead of one.  Join equality inside a bucket
    is on (key, salt), which is exactly key-equality because right-side
    hot rows exist at every salt.

    Output is identical to ``bucketed_hash_join`` for ANY choice of hot
    set (salting only rebalances partitions), so hot-key detection can be
    a bounded driver-side sample of the left side: keys above
    ``hot_frac`` of ``sample_rows`` sampled rows are salted.  Pass
    ``hot_keys`` explicitly to skip the sampling pass (e.g. reuse one
    detection across the many joins of a pipeline).

    Right-side replication assumes hot keys are rare and the right side's
    rows per hot key are bounded (the dimension side) — the classic skew
    assumption; document holds for num_salts * sum(right rows of hot
    keys) extra exchange rows.
    """
    import ray

    from .broadcast import cached_get

    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right)
    left, l_sch = _settled(left)
    right, r_sch = _settled(right)
    if hot_keys is None:
        sample = left.limit(sample_rows).select_columns([key]).to_pandas()
        counts = sample[key].value_counts()
        hot_keys = set(counts[counts >= max(2, int(len(sample) * hot_frac))].index)
    hot_ref = ray.put(frozenset(hot_keys))

    l_map, r_map = _plan_columns(list(l_sch.names), list(r_sch.names), key)
    l_names = list(l_map.values())
    r_names = list(r_map.values())
    all_names = l_names + [n for n in r_names if n not in l_names]
    types = _union_types(l_sch, r_sch, l_map, r_map)
    l_other = [n for n in l_names if n != key]
    r_other = [n for n in r_names if n != key and n not in l_names]
    all_names_out = [key] + l_other + r_other

    def tag(b: pd.DataFrame, side: str) -> pd.DataFrame:
        hot = cached_get(hot_ref)
        rename = l_map if side == "l" else r_map
        b = b.rename(columns=rename)
        # SQL inner-join null semantics (pandas merge would match NaN==NaN)
        b = b[b[key].notna()]
        for name in all_names:
            if name not in b.columns:
                b[name] = None
        b = b[all_names]
        is_hot = b[key].isin(hot).to_numpy()
        if side == "l":
            # round-robin within the batch; any assignment is correct
            salt = np.where(is_hot, np.arange(len(b)) % num_salts, 0)
            b = b.assign(__salt=salt.astype("int16"))
        else:
            cold = b[~is_hot].assign(__salt=np.int16(0))
            hot_rows = b[is_hot]
            reps = [hot_rows.assign(__salt=np.int16(s)) for s in range(num_salts)]
            b = pd.concat([cold] + reps, ignore_index=True)
        h = pd.util.hash_array(b[key].to_numpy())
        bucket = (h + b["__salt"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(num_buckets)
        return b.assign(
            __side=np.int8(0 if side == "l" else 1),
            __bucket=bucket.astype(np.int32),
        )

    l_tagged = left.map_batches(lambda b: tag(b, "l"), batch_format="pandas")
    r_tagged = right.map_batches(lambda b: tag(b, "r"), batch_format="pandas")
    unioned = l_tagged.union(r_tagged)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _quiet_size_estimator()
        l = g[g["__side"] == 0][[key, "__salt"] + l_other]
        r = g[g["__side"] == 1][[key, "__salt"] + r_other]
        out = l.merge(r, on=[key, "__salt"], how="inner")
        return out[all_names_out]

    return unioned.groupby("__bucket").map_groups(join_bucket, batch_format="pandas")


def asof_join(
    left: Dataset,
    right: Dataset,
    key: str,
    ts_col: str,
    right_ts_col: str | None = None,
    num_buckets: int | None = None,
) -> Dataset:
    """As-of join (SURVEY §2.4 notes the reference has none; a general
    engine needs it): for each left row, attach the latest right row with
    the same key whose timestamp is <= the left timestamp.

    Pattern from the Ray guide: bucket both sides by key hash, one groupby
    shuffle co-locates a key's rows, ``pd.merge_asof`` runs per bucket over
    ts-sorted frames.  Left rows with no earlier right row keep nulls.
    Shared non-key columns are suffixed ``_l`` / ``_r`` like
    :func:`bucketed_hash_join` (``ts_col`` counts as left-only unless the
    right side reuses the same name).
    """
    right_ts_col = right_ts_col or ts_col
    if num_buckets is None:
        num_buckets = _adaptive_buckets(left, right, rows_per_bucket=524_288)
    left, l_sch = _settled(left)
    right, r_sch = _settled(right)
    l_map, r_map = _plan_columns(list(l_sch.names), list(r_sch.names), key)
    l_names = list(l_map.values())
    r_names = list(r_map.values())
    all_names = l_names + [n for n in r_names if n not in l_names]
    ts_l = l_map[ts_col]
    ts_r = r_map[right_ts_col]
    types = _union_types(l_sch, r_sch, l_map, r_map)

    l_tagged = left.map_batches(
        lambda b: _with_schema(b, "l", l_map, all_names, key, num_buckets, types),
        batch_format="pyarrow",
    )
    r_tagged = right.map_batches(
        lambda b: _with_schema(b, "r", r_map, all_names, key, num_buckets, types),
        batch_format="pyarrow",
    )
    unioned = l_tagged.union(r_tagged)
    r_other = [n for n in r_names if n != key and n not in l_names]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _quiet_size_estimator()
        l = g[g["__side"] == 0][l_names].sort_values(ts_l, kind="mergesort")
        r = g[g["__side"] == 1][[key, ts_r] + [c for c in r_other if c != ts_r]]
        r = r.sort_values(ts_r, kind="mergesort")
        if len(l) == 0:
            return pd.DataFrame(columns=l_names + r_other)
        return pd.merge_asof(
            l,
            r,
            left_on=ts_l,
            right_on=ts_r,
            by=key,
            direction="backward",
        )

    return unioned.groupby("__bucket").map_groups(join_bucket, batch_format="pandas")


def _int64_view(col: pd.Series) -> np.ndarray:
    """Canonical int64 view of a point/bound column.  Datetimes normalize
    to ns epoch FIRST — pandas arithmetic freely mixes datetime64[us] and
    [ns] columns, and a raw astype would compare epochs in different
    units (1000x apart)."""
    arr = col.to_numpy()
    if arr.dtype.kind in "mM":
        arr = arr.astype("datetime64[ns]" if arr.dtype.kind == "M" else "timedelta64[ns]")
    return arr.astype("int64", copy=False)


def _expand_interval_bins(
    b: pd.DataFrame, lo_col: str, hi_col: str, bin_width: int
) -> pd.DataFrame:
    """Replicate each interval row to every time bin it overlaps
    ([lo, hi) half-open; hi == lo still covers lo's bin).  Vectorized:
    np.repeat + concatenated per-row aranges — no Python row loop."""
    lo = _int64_view(b[lo_col])
    hi = _int64_view(b[hi_col])
    lo_bin = lo // bin_width
    hi_bin = np.maximum(hi - 1, lo) // bin_width
    counts = (hi_bin - lo_bin + 1).astype(np.int64)
    out = b.loc[b.index.repeat(counts)].reset_index(drop=True)
    # bin id = lo_bin + offset-within-row: global arange minus each row's start
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(counts.sum()) - np.repeat(starts, counts)
    out["__bin"] = np.repeat(lo_bin, counts) + offsets
    return out


def interval_join(
    points: Dataset,
    intervals: Dataset,
    *,
    t_col: str,
    lo_col: str,
    hi_col: str,
    key: str | None = None,
    bin_width: int | None = None,
    num_buckets: int | None = None,
) -> Dataset:
    """Range join: each point row pairs with every interval row whose
    ``[lo, hi)`` window contains the point's ``t`` (SURVEY custom-operator
    note: the reference has no range join; a general engine needs one).

    Two scale shapes, picked by ``key``:

    - **Equality-prefix path** (``key`` given): both sides bucket by
      hash(key) — the same one-shuffle co-location as
      :func:`bucketed_hash_join` — and each bucket runs a vectorized
      pandas merge on ``key`` + range-predicate filter.  Per-bucket cost
      is bounded by per-key point x interval density, the usual
      equality-prefix range-join contract.

    - **Keyless binned path** (``bin_width`` given, units of the int64
      view of ``t``): intervals are replicated to every ``bin_width``-wide
      time bin they overlap; each point lands in exactly one bin, so every
      qualifying (point, interval) pair meets exactly once — no post-join
      dedup.  Replication factor = interval_len / bin_width + 1: size
      ``bin_width`` to the typical interval length.  Bins are coarsened to
      ``num_buckets`` partitions by bin hash; the merge inside a
      partition is on the exact bin id.

    Timestamps are handled via their int64 epoch view on both sides.
    Shared non-``key`` columns are suffixed ``_l`` (points) / ``_r``
    (intervals) like :func:`bucketed_hash_join`.
    """
    if (key is None) == (bin_width is None):
        raise ValueError("exactly one of key / bin_width must be given")
    if num_buckets is None:
        num_buckets = _adaptive_buckets(points, intervals, rows_per_bucket=524_288)
    join_key = key if key is not None else "__bin"
    points, l_sch = _settled(points)
    intervals, r_sch = _settled(intervals)
    l_map, r_map = _plan_columns(list(l_sch.names), list(r_sch.names), join_key)
    l_names = list(l_map.values())
    r_names = list(r_map.values())
    t_l, lo_r, hi_r = l_map[t_col], r_map[lo_col], r_map[hi_col]

    if key is None:
        points = points.map_batches(
            lambda b: b.assign(__bin=_int64_view(b[t_col]) // bin_width),
            batch_format="pandas",
        )
        intervals = intervals.map_batches(
            lambda b: _expand_interval_bins(b, lo_col, hi_col, bin_width),
            batch_format="pandas",
        )
        l_map["__bin"] = r_map["__bin"] = "__bin"
        l_names.append("__bin")
        r_names.append("__bin")

    all_names = l_names + [n for n in r_names if n not in l_names]
    l_tagged = points.map_batches(
        lambda b: _with_schema(b, "l", l_map, all_names, join_key, num_buckets),
        batch_format="pyarrow",
    )
    r_tagged = intervals.map_batches(
        lambda b: _with_schema(b, "r", r_map, all_names, join_key, num_buckets),
        batch_format="pyarrow",
    )
    unioned = l_tagged.union(r_tagged)
    l_keep = [n for n in l_names if n != "__bin"]
    r_other = [n for n in r_names if n != join_key and n not in l_names]
    out_cols = l_keep + [n for n in r_other if n != "__bin"]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _quiet_size_estimator()
        l = g[g["__side"] == 0][[join_key] + [c for c in l_names if c != join_key]]
        r = g[g["__side"] == 1][[join_key] + r_other]
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame(columns=out_cols)
        m = l.merge(r, on=join_key, how="inner")
        t, lo, hi = _int64_view(m[t_l]), _int64_view(m[lo_r]), _int64_view(m[hi_r])
        return m[(t >= lo) & (t < hi)][out_cols]

    return unioned.groupby("__bucket").map_groups(join_bucket, batch_format="pandas")
