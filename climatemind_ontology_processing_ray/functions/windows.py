"""Stream-shaped windowed aggregation over an ordered, partitioned log
(the Ray-guide pattern: Ray Data has no event-time watermarks, so windows
are computed per key inside ``map_groups`` over ts-sorted groups, and
tumbling/sliding windows are a vectorized floor/flat-map on the ts
column).

The reference has no streaming features (SURVEY §2.8); these operators
are part of the training-data toolbox (events table).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data import Dataset
from ray.data.aggregate import Sum


def tumbling_window(
    ds: Dataset,
    ts_col: str,
    window_sec: int,
    key_cols: list[str],
    value_col: str,
) -> Dataset:
    """Per (key..., window_start_epoch): count + sum(value).  Pre-combined
    per batch, then one groupby shuffle.  window_start is epoch-aligned
    seconds (int64)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        epoch = (b[ts_col] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)
        b = b.assign(window_start=(epoch // window_sec * window_sec).astype("int64"))
        return (
            b.groupby(key_cols + ["window_start"], sort=False)
            .agg(n=(value_col, "size"), total=(value_col, "sum"))
            .reset_index()
        )

    # coarse-partition exchange, NOT groupby().aggregate(Sum): the native
    # path folds per key in Python inside AggregateMap — at thousands of
    # window keys per combined block that fold dominated the query
    # (events_hourly 3.8s / events_sliding 7.1s at sf0.01, ~0.6s after)
    from .agg import grouped_sum

    return grouped_sum(
        ds.map_batches(partial, batch_format="pandas"),
        key_cols + ["window_start"],
        ["n", "total"],
    )


def sliding_window(
    ds: Dataset,
    ts_col: str,
    window_sec: int,
    step_sec: int,
    key_cols: list[str],
    value_col: str,
) -> Dataset:
    """Sliding windows: each event lands in window_sec/step_sec windows
    (flat-map expansion inside the partial combine), then one groupby."""
    assert window_sec % step_sec == 0
    n_windows = window_sec // step_sec

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        epoch = (b[ts_col] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)
        frames = []
        for i in range(n_windows):
            start = ((epoch - i * step_sec) // window_sec * window_sec + i * step_sec)
            f = b[key_cols + [value_col]].assign(window_start=start.astype("int64"))
            frames.append(f)
        expanded = pd.concat(frames, ignore_index=True)
        return (
            expanded.groupby(key_cols + ["window_start"], sort=False)
            .agg(n=(value_col, "size"), total=(value_col, "sum"))
            .reset_index()
        )

    from .agg import grouped_sum  # see tumbling_window: avoids per-key fold

    return grouped_sum(
        ds.map_batches(partial, batch_format="pandas"),
        key_cols + ["window_start"],
        ["n", "total"],
    )


def sessionize(
    ds: Dataset,
    ts_col: str,
    key_col: str,
    gap_sec: int,
    order_cols: list[str] | None = None,
) -> Dataset:
    """Per-key session stats with an inactivity gap (ordered-log pattern:
    the groupby shuffle co-locates a key's events; ordering happens inside
    the group).  Output: key, n_events, n_sessions."""

    from .join import hash_bucket

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), 64))

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        # coarse-partition + ONE vectorized pass, never one Ray group per
        # key (the per-key fold trap, functions/agg.py): session breaks
        # are rows whose gap to the previous row exceeds gap_sec OR that
        # start a new key
        g = g.sort_values([key_col] + (order_cols or [ts_col]), kind="mergesort")
        new_key = ~g[key_col].eq(g[key_col].shift())
        gaps = g[ts_col].diff().dt.total_seconds()
        new_sess = new_key | (gaps > gap_sec)
        agg = g.assign(__ns=new_sess).groupby(key_col, sort=False)["__ns"].agg(
            ["size", "sum"]
        )
        return pd.DataFrame(
            {
                key_col: agg.index,
                "n_events": agg["size"].to_numpy().astype("int64"),
                "n_sessions": agg["sum"].to_numpy().astype("int64"),
            }
        )

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        stats, batch_format="pandas"
    )


def running_aggregate(
    ds: Dataset,
    key_col: str,
    order_col: str,
    value_col: str,
) -> Dataset:
    """Per-key ORDERED cumulative aggregates (the window-function family
    the engine lacked): running sum and row number of ``value_col`` over
    rows ordered by (order_col, and any tie broken deterministically by
    the full sort key).

    One hash-partition shuffle on the key; inside each partition the
    per-key sort + cumsum is vectorized pandas (groupby().cumsum()), not
    one Ray group per key.  Output: all input columns + running_total
    (float64), rn (int64).
    """
    from .join import hash_bucket

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col], 64).astype(np.int64))

    def cum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort")
        g = g.assign(
            running_total=g.groupby(key_col, sort=False)[value_col].cumsum(),
            rn=g.groupby(key_col, sort=False).cumcount() + 1,
        )
        g["rn"] = g["rn"].astype("int64")
        return g.drop(columns="__part")

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        cum, batch_format="pandas"
    )


def grouped_topk(
    ds: Dataset,
    key_col: str,
    order_col: str,
    k: int,
    ascending: bool = False,
) -> Dataset:
    """Top-k rows per key by ``order_col`` (ties broken by the stable sort
    on the remaining row order — callers wanting full determinism should
    order on a unique column).  Same coarse-partition pattern as
    :func:`running_aggregate`: one shuffle, vectorized per-partition
    ``groupby().head(k)``.
    """
    from .join import hash_bucket

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col], 64).astype(np.int64))

    def head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], ascending=[True, ascending], kind="mergesort")
        return g.groupby(key_col, sort=False).head(k).drop(columns="__part")

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        head, batch_format="pandas"
    )


def lead_lag(
    ds: Dataset,
    key_col: str,
    order_col: str,
    target_col: str,
    tiebreak_cols: list[str] | None = None,
    num_parts: int = 64,
) -> Dataset:
    """Per-key LEAD/LAG of ``target_col`` over rows ordered by
    (order_col, tiebreak...): adds ``prev_<target>`` / ``next_<target>``
    (null at the partition edges).  Same shape as
    :func:`running_aggregate`: one hash-partition shuffle on the key,
    vectorized per-partition sort + ``groupby().shift(±1)`` — never one
    Ray group per key."""
    from .join import hash_bucket

    order = [key_col, order_col] + (tiebreak_cols or [])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def shift(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        grp = g.groupby(key_col, sort=False)[target_col]
        g = g.assign(**{
            f"prev_{target_col}": grp.shift(1),
            f"next_{target_col}": grp.shift(-1),
        })
        return g.drop(columns="__part")

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        shift, batch_format="pandas"
    )


def funnel_counts(
    ds: Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
) -> pd.DataFrame:
    """Ordered-funnel analysis: a key reaches step i when a ``steps[i]``
    event occurs AT/AFTER the timestamp at which it reached step i-1
    (first-touch semantics — each step anchors on the EARLIEST qualifying
    event).  Returns the cumulative per-step key counts as a small
    (len(steps))-row frame: step label ``<i>_<name>``, n_keys.

    One COARSE hash(key) shuffle co-locates a key's events (64
    partitions, per-partition pandas groupby — never one Ray group per
    key, the engine's measured per-key fold trap); per-key depth is a
    short scan; depth counts emit once per partition before a
    (<= len(steps))-key native aggregate — driver state is steps-sized.

    Shuffle-volume pruning: only the (key, ts, type) columns ride the
    exchange, and NON-step events — which matter only for the distinct
    key count at depth 0 — are deduped to one row per key per batch
    before shuffling."""
    from .join import hash_bucket

    ds = ds.select_columns([key_col, ts_col, type_col])
    step_set = set(steps)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        is_step = b[type_col].isin(step_set)
        if not is_step.all():
            b = pd.concat(
                [b[is_step], b[~is_step].drop_duplicates(key_col)],
                ignore_index=True,
            )
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), 64))

    def depth_counts(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per partition: len(steps) passes, each a filtered
        # groupby-min (keys' anchors attached by index lookup) — no
        # per-key Python scan
        counts = [0] * (len(steps) + 1)
        n_total = g[key_col].nunique()
        cur = None  # Series: key -> anchor ts of the last completed step
        survivors = n_total
        for i, step in enumerate(steps):
            m = g[g[type_col] == step]
            if cur is not None:
                m = m[m[key_col].isin(cur.index)]
                anchors = cur.reindex(m[key_col]).to_numpy()
                m = m[m[ts_col].to_numpy() >= anchors]
            nxt = m.groupby(key_col, sort=False)[ts_col].min()
            counts[i] += survivors - len(nxt)  # keys stuck at depth i
            cur = nxt
            survivors = len(nxt)
        counts[len(steps)] += survivors
        return pd.DataFrame(
            {"depth": range(len(steps) + 1), "n": pd.array(counts, dtype="int64")}
        )

    counts = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(depth_counts, batch_format="pandas")
        .groupby("depth")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    by_depth = dict(zip(counts["depth"], counts["n"]))
    rows = []
    for i, name in enumerate(steps, start=1):
        n = sum(v for d, v in by_depth.items() if d >= i)
        rows.append({"step": f"{i}_{name}", "n_keys": int(n)})
    return pd.DataFrame(rows)


def ntile(
    ds: Dataset,
    key_col: str,
    order_col: str,
    n_tiles: int,
    tiebreak_cols: list[str] | None = None,
    num_parts: int = 64,
) -> Dataset:
    """Per-key NTILE(n) bucketing (the SQL window function, exact
    semantics: the first ``n_rows % n`` tiles get ``ceil(n_rows/n)``
    members, the rest ``floor``).  Same shape as :func:`window_rank` —
    one coarse hash(key) shuffle, vectorized per-partition sort +
    cumcount, tile ids derived with pure integer arithmetic so the
    result is bit-reproducible.  Adds an int64 ``tile`` column
    (1-indexed).  A total order (``tiebreak_cols``) makes the assignment
    deterministic."""
    from .join import hash_bucket

    order = [key_col, order_col] + (tiebreak_cols or [])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        rn = grp.cumcount().to_numpy()  # 0-indexed within key
        n = grp[order_col].transform("size").to_numpy()
        q, big = n // n_tiles, n % n_tiles  # per-row (vectorized)
        cut = big * (q + 1)  # rows below cut sit in the big tiles
        in_big = rn < cut
        tile = np.where(
            in_big,
            rn // np.maximum(q + 1, 1),
            big + (rn - cut) // np.maximum(q, 1),
        )
        return g.assign(tile=(tile + 1).astype("int64")).drop(columns="__part")

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(tiles, batch_format="pandas")
    )


def window_fractions(
    ds: Dataset,
    key_col: str,
    order_col: str,
    num_parts: int = 64,
) -> Dataset:
    """Per-key distribution window functions in exact integer micros:

    - ``pr_micro`` — FLOOR(PERCENT_RANK() * 1e6) computed as
      ``(rank-1) * 10^6 // (n-1)`` (0 when the key has one row),
    - ``cd_micro`` — FLOOR(CUME_DIST() * 1e6) computed as
      ``rows_le * 10^6 // n`` (``rows_le`` counts every row whose
      order value is <= the current one, i.e. the RANGE-frame count).

    Pure integer arithmetic — no float percent ever crosses a partition
    or an engine boundary, so the result hash-matches the SQL window
    oracle bit-for-bit.  Same shape as :func:`window_rank`: one coarse
    hash(key) exchange, vectorized per-partition rank math."""
    from .join import hash_bucket

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def fractions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        n = grp[order_col].transform("size").to_numpy().astype("int64")
        rnk = grp[order_col].rank(method="min").to_numpy().astype("int64")
        # rows_le = rank of the LAST member of the tie run = max-rank
        rows_le = grp[order_col].rank(method="max").to_numpy().astype("int64")
        pr = np.where(n > 1, (rnk - 1) * 1_000_000 // np.maximum(n - 1, 1), 0)
        cd = rows_le * 1_000_000 // n
        return g.assign(
            pr_micro=pr.astype("int64"), cd_micro=cd.astype("int64")
        ).drop(columns="__part")

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        fractions, batch_format="pandas"
    )


def window_rank(
    ds: Dataset,
    key_col: str,
    order_col: str,
    tiebreak_cols: list[str] | None = None,
    ascending: bool = True,
    num_parts: int = 64,
) -> Dataset:
    """Per-key ranking window functions in one pass: adds

    - ``rn``   — ROW_NUMBER() over (order_col, tiebreak...) — unique,
      deterministic only if the tiebreak makes the order total,
    - ``rnk``  — RANK() over ``order_col`` alone (ties share the rank,
      gaps after tie runs),
    - ``drnk`` — DENSE_RANK() over ``order_col`` alone (no gaps).

    Same shape as :func:`lead_lag`: one coarse hash(key) shuffle
    (``num_parts`` partitions), then a vectorized per-partition sort +
    ``groupby().cumcount()/rank()`` — never one Ray group per key (the
    engine's measured per-key fold trap, functions/agg.py).  Rank state
    never leaves a partition, so the result is identical at any
    parallelism."""
    from .join import hash_bucket

    order = [key_col, order_col] + (tiebreak_cols or [])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        asc = [True] + [ascending] * (len(order) - 1)
        g = g.sort_values(order, ascending=asc, kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        g = g.assign(
            rn=(grp.cumcount() + 1).astype("int64"),
            rnk=grp[order_col]
            .rank(method="min", ascending=ascending)
            .astype("int64"),
            drnk=grp[order_col]
            .rank(method="dense", ascending=ascending)
            .astype("int64"),
        )
        return g.drop(columns="__part")

    return ds.map_batches(tag, batch_format="pandas").groupby("__part").map_groups(
        ranks, batch_format="pandas"
    )


def session_first(
    ds: Dataset,
    ts_col: str,
    key_cols: list[str],
    gap_us: int,
    out_cols: list[str],
    num_parts: int | None = None,
) -> Dataset:
    """Streaming rate-limit dedup (event throttling): keep only the FIRST
    event of every per-key session, where a session breaks when the gap
    to the key's PREVIOUS event exceeds ``gap_us`` microseconds.  The
    alerting/notification dedup primitive: "emit at most one event per
    key per quiet period".

    Gaps compare as exact int64 MICROSECONDS (timestamp ns // 1000), so
    the result is bit-stable against a SQL ``LAG(epoch_us(ts))`` window —
    no float seconds ever cross the engine boundary.

    Shape: one coarse hash exchange on the key columns (a key's events
    co-locate), then ONE vectorized sort + shift per partition — the
    ``sessionize`` discipline, never a Ray group per key."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        if len(key_cols) == 1:
            kv = b[key_cols[0]].to_numpy()
        else:
            s = b[key_cols[0]].astype(str)
            for k in key_cols[1:]:
                s = s + "\x00" + b[k].astype(str)
            kv = s.to_numpy()
        return b.assign(__part=hash_bucket(kv, num_parts))

    def first_of_session(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g[out_cols]
        g = g.sort_values(key_cols + [ts_col] + out_cols, kind="mergesort")
        new_key = np.zeros(len(g), dtype=bool)
        new_key[0] = True
        for k in key_cols:
            new_key |= ~g[k].eq(g[k].shift()).to_numpy()
        # exact integer microseconds, unit-safe against datetime64[ns|us]
        us = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        gap = np.empty(len(us), dtype=np.int64)
        gap[0] = gap_us + 1
        gap[1:] = us[1:] - us[:-1]
        return g.loc[new_key | (gap > gap_us), out_cols]

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(first_of_session, batch_format="pandas")
    )


def cdc_snapshot(
    ds: Dataset,
    key_col: str,
    ts_col: str,
    id_col: str,
    type_col: str,
    delete_value: str,
    out_cols: list[str],
    num_parts: int | None = None,
) -> Dataset:
    """Changelog compaction (CDC latest-wins upsert): reduce an event log
    to its current snapshot — the latest row per key by (ts, id), with
    keys whose latest row is a ``delete_value`` tombstone dropped
    entirely.  The Iceberg/Hudi-style merge-on-read compaction primitive.

    One coarse hash exchange on the key; per partition a single
    vectorized sort + keep-last — never a Ray group per key.  Latest-wins
    is decided by (ts, id) so ties are deterministic."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        last = g[~g[key_col].duplicated(keep="last")]
        return last.loc[last[type_col] != delete_value, out_cols]

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(latest, batch_format="pandas")
    )


def rolling_sum(
    ds: Dataset,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    window: int,
    keep_cols: list[str],
    out_col: str = "roll",
    num_parts: int = 64,
) -> Dataset:
    """Per-key ROWS-window rolling sum (``SUM(v) OVER (PARTITION BY key
    ORDER BY ... ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``) —
    the streaming-feature primitive (recent-activity signals, smoothed
    counters).

    One hash(key) exchange; inside each coarse partition the whole frame
    is ONE vectorized pass (never a group per key): sort by (key, order),
    cumulative-sum the value, and difference the cumsum against the
    per-row window start clamped to the key segment's first row.
    ``value_col`` must already be integer (callers quantize floats with
    the floor(x*q+0.5) rule so both sides are order-exact)."""
    from .join import hash_bucket

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort").reset_index(
            drop=True
        )
        v = g[value_col].to_numpy().astype(np.int64)
        cs = np.cumsum(v)
        n = len(g)
        idx = np.arange(n)
        new_key = np.ones(n, dtype=bool)
        if n > 1:
            kv = g[key_col].to_numpy()
            new_key[1:] = kv[1:] != kv[:-1]
        seg_id = np.cumsum(new_key) - 1
        seg_start = np.flatnonzero(new_key)[seg_id]
        start = np.maximum(seg_start, idx - window + 1)
        prev = np.where(start > 0, cs[start - 1], 0)
        out = g[keep_cols].copy()
        out[out_col] = cs - prev
        return out

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(roll, batch_format="pandas")
    )


def windowed_active_users(
    ds: Dataset,
    ts_col: str,
    key_col: str,
    window_days: int = 7,
) -> Dataset:
    """Sliding-window distinct actives (the WAU/DAU family):
    for every day present in the log, the count of DISTINCT keys seen in
    the ``window_days``-day window ending that day.

    COUNT(DISTINCT) over overlapping windows doesn't pre-aggregate as a
    sum, so the shape is: map-side (day, key) dedup per batch →
    flat-map each presence row to the <= ``window_days`` window labels
    it participates in (filtered to days actually present — the tiny
    day set is collected once and broadcast in the closure) → ONE
    exact pair-partitioned distinct count
    (:func:`.agg.grouped_count_distinct`).  Exchange volume is
    presence-rows × window_days, already deduped per batch — never raw
    events.  Output: (window_day: 'YYYY-MM-DD', wau)."""
    import pyarrow as pa

    from .agg import grouped_count_distinct

    def presence(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "__day": b[ts_col].dt.floor("D"),
                key_col: b[key_col],
            }
        )
        return out.drop_duplicates()

    pres = ds.map_batches(presence, batch_format="pandas")
    # the distinct-day set is calendar-bounded (tiny): per-block uniques
    # collected on the driver — no exchange
    day_parts = pres.map_batches(
        lambda b: pd.DataFrame({"__day": b["__day"].unique()}),
        batch_format="pandas",
    ).to_pandas()
    days = set(pd.to_datetime(day_parts["__day"].unique()).tolist())

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for off in range(window_days):
            w = b["__day"] + pd.Timedelta(days=off)
            keep = w.isin(days)
            if keep.any():
                frames.append(
                    pd.DataFrame(
                        {
                            "window_day": w[keep].dt.strftime("%Y-%m-%d"),
                            key_col: b[key_col][keep],
                        }
                    )
                )
        if not frames:
            return pd.DataFrame({"window_day": pd.Series([], dtype=str),
                                 key_col: pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    expanded = pres.map_batches(expand, batch_format="pandas")
    return grouped_count_distinct(expanded, "window_day", key_col, out_col="wau")


def rolling_quantile_disc(
    ds: Dataset,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    window: int,
    keep_cols: list[str],
    q: float = 0.5,
    out_col: str = "roll_q",
    num_parts: int | None = None,
) -> Dataset:
    """Per-key trailing ROWS-window DISCRETE quantile
    (``QUANTILE_DISC(v, q) OVER (PARTITION BY key ORDER BY ...
    ROWS window-1 PRECEDING)``) — the robust (order-statistic) sibling
    of :func:`rolling_sum` for streaming features: rolling median /
    p90 latency, spike-resistant smoothing.

    The picked element is an EXACT copy of an input value (discrete
    quantile: element at index floor(q*(n-1)) of the sorted window — the
    DuckDB convention), so float columns hash-compare bit-identically.
    One hash(key) exchange; inside a partition rows are grouped by
    their window LENGTH (1..window — short lengths only at key-segment
    heads), and each length class is one ``np.sort`` over a strided
    (rows, L) matrix — vectorized, never a loop per key or per row."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort").reset_index(
            drop=True
        )
        v = g[value_col].to_numpy()
        n = len(g)
        out_v = np.empty(n, dtype=v.dtype)
        if n:
            idx = np.arange(n)
            new_key = np.ones(n, dtype=bool)
            kv = g[key_col].to_numpy()
            new_key[1:] = kv[1:] != kv[:-1]
            seg_start = np.flatnonzero(new_key)[np.cumsum(new_key) - 1]
            wlen = np.minimum(idx - seg_start + 1, window)
            for L in np.unique(wlen):
                rows = np.flatnonzero(wlen == L)
                mat = v[rows[:, None] - np.arange(int(L))[::-1][None, :]]
                mat.sort(axis=1)
                out_v[rows] = mat[:, int(np.floor(q * (int(L) - 1)))]
        out = g[keep_cols].copy()
        out[out_col] = out_v
        return out

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(roll, batch_format="pandas")
    )


def resample_ffill(
    ds: Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    step_sec: int,
    tiebreak_col: str,
    out_ts_col: str = "grid_ts",
    num_parts: int | None = None,
) -> Dataset:
    """Resample an irregular per-key event stream onto a fixed
    epoch-aligned time grid with FORWARD FILL: for every grid instant
    ``g`` (multiples of ``step_sec`` between the key's first and last
    event), emit the value of the key's last event at or before ``g``
    ("last" by (ts, tiebreak) — ties are deterministic).  The classic
    time-series densification step before windowed feature extraction.

    One hash(key) exchange.  The kernel never searches: after sorting
    (key, ts, tiebreak), each EVENT owns the grid interval
    [ceil(ts/step), ceil(next_ts/step)) (last event: through
    floor(ts_last/step)), so the output materializes as one
    repeat + cumsum-arange expansion — fully vectorized, and an event
    with zero owned grid points (superseded within the same step)
    costs nothing.  Values are copied, never recomputed, so float
    columns hash-compare exactly."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    step_us = step_sec * 1_000_000

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tiebreak_col], kind="mergesort")
        g = g.reset_index(drop=True)
        n = len(g)
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype=g[key_col].dtype),
                out_ts_col: pd.Series([], dtype="int64"),
                value_col: pd.Series([], dtype=g[value_col].dtype if n else "float64"),
            }
        )
        if not n:
            return empty
        ts = (g[ts_col] - pd.Timestamp(0)) // pd.Timedelta(microseconds=1)
        ts = ts.to_numpy()
        kv = g[key_col].to_numpy()
        last_in_key = np.ones(n, dtype=bool)
        last_in_key[:-1] = kv[:-1] != kv[1:]
        gfirst = -(-ts // step_us)  # ceil
        glast = np.empty(n, dtype=np.int64)
        glast[:-1] = -(-ts[1:] // step_us) - 1  # next event's first slot - 1
        glast[last_in_key] = ts[last_in_key] // step_us  # floor at segment end
        cnt = np.maximum(glast - gfirst + 1, 0)
        total = int(cnt.sum())
        if not total:
            return empty
        rows = np.repeat(np.arange(n), cnt)
        within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        grid = (np.repeat(gfirst, cnt) + within) * step_us
        out = pd.DataFrame(
            {
                key_col: kv[rows],
                out_ts_col: grid.astype("int64"),
                value_col: g[value_col].to_numpy()[rows],
            }
        )
        out[key_col] = out[key_col].astype(g[key_col].dtype)
        return out

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(expand, batch_format="pandas")
    )


def ewma_scan(
    ds: Dataset,
    key_col: str,
    order_cols: list[str],
    value_int_col: str,
    history: int,
    scale: int,
    num: int = 1,
    den: int = 4,
    out_col: str = "ewma",
    num_parts: int | None = None,
) -> Dataset:
    """Bounded-history integer-exact EWMA per key: over each key's LAST
    ``history`` rows (ordered by ``order_cols``), run the fixed-point
    recurrence

        s_1 = v_1 * scale
        s_t = ((den - num) * s_{t-1} + num * v_t * scale) // den

    and emit the final state — the streaming-feature smoother
    (recent-activity level per user/host) in exact integers, so the
    result is identical at any partitioning and SQL-checkable (a
    depth-``history`` recursion, never corpus-depth).  ``value_int_col``
    must be a non-negative integer column (callers quantize floats
    first); ``//`` is floor division and DuckDB's ``//`` truncates, so
    negatives would diverge between engine and oracle.

    One hash(key) exchange.  The kernel's only loop is over the
    ``history`` TIME STEPS (the recurrence's inherent sequential
    depth); each step updates every key in the partition at once on
    aligned numpy lanes."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort").reset_index(
            drop=True
        )
        n = len(g)
        if not n:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype="int64"),
                    out_col: pd.Series([], dtype="int64"),
                }
            )
        kv = g[key_col].to_numpy()
        v = g[value_int_col].to_numpy().astype(np.int64)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = kv[1:] != kv[:-1]
        seg_id = np.cumsum(new_key) - 1
        seg_start = np.flatnonzero(new_key)
        seg_end = np.append(seg_start[1:], n)  # exclusive
        seg_len = seg_end - seg_start
        # last `history` rows of each segment, aligned so lane t holds
        # every key's t-th kept row
        kept_len = np.minimum(seg_len, history)
        first_kept = seg_end - kept_len
        s = v[first_kept] * scale
        for t in range(1, int(kept_len.max()) if n else 0):
            live = kept_len > t
            idx = first_kept[live] + t
            s[live] = ((den - num) * s[live] + num * v[idx] * scale) // den
        return pd.DataFrame(
            {
                key_col: kv[seg_start].astype("int64"),
                out_col: s.astype("int64"),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(scan, batch_format="pandas")
    )


def interval_coverage(
    ds: Dataset,
    key_col: str,
    start_col: str,
    end_col: str,
    order_cols: list[str],
    num_parts: int | None = None,
) -> Dataset:
    """Per-key union coverage of (possibly overlapping, variable-width)
    intervals — the gaps-and-islands analytic: merge overlapping
    [start, end) intervals into islands and emit
    ``(key, n_islands, covered)`` where ``covered`` is the summed
    island length.  Uptime/session-coverage accounting in exact int64.

    One hash(key) exchange; the kernel is one sort + one segment-wise
    running max (pandas groupby.cummax, C-vectorized): an interval
    starts a new island iff its start exceeds the running max end of
    everything before it in its key segment.  Island stats then fold as
    grouped sums over island heads — no per-key or per-island Python
    loop."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort").reset_index(
            drop=True
        )
        n = len(g)
        if not n:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=g[key_col].dtype),
                    "n_islands": pd.Series([], dtype="int64"),
                    "covered": pd.Series([], dtype="int64"),
                }
            )
        start = g[start_col].to_numpy().astype(np.int64)
        end = g[end_col].to_numpy().astype(np.int64)
        kv = g[key_col].to_numpy()
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = kv[1:] != kv[:-1]
        seg_id = np.cumsum(new_key) - 1
        run_end = (
            pd.Series(end).groupby(pd.Series(seg_id), sort=False).cummax().to_numpy()
        )
        prev_run_end = np.empty(n, dtype=np.int64)
        prev_run_end[1:] = run_end[:-1]
        new_island = new_key | (start > prev_run_end)
        island_id = np.cumsum(new_island) - 1
        # island extent: min start = start at the island head (sorted);
        # max end = run_end at the island's last row
        heads = np.flatnonzero(new_island)
        last = np.append(heads[1:], n) - 1
        lengths = run_end[last] - start[heads]
        frame = pd.DataFrame(
            {
                key_col: kv[heads],
                "n_islands": np.int64(1),
                "covered": lengths.astype(np.int64),
            }
        )
        out = (
            frame.groupby(key_col, sort=False)
            .agg(n_islands=("n_islands", "sum"), covered=("covered", "sum"))
            .reset_index()
        )
        out[key_col] = out[key_col].astype(g[key_col].dtype)
        out["n_islands"] = out["n_islands"].astype("int64")
        out["covered"] = out["covered"].astype("int64")
        return out

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(islands, batch_format="pandas")
    )


def keyed_kgram_counts(
    ds: Dataset,
    key_col: str,
    order_col: str,
    target_col: str,
    k: int = 3,
    tiebreak_cols: list[str] | None = None,
    num_parts: int = 64,
) -> Dataset:
    """Per-key contiguous k-gram counts of ``target_col`` over rows
    ordered by (order_col, tiebreaks) within each key — the order-k
    generalization of :func:`lead_lag`'s bigram transitions (sequence
    mining over user event streams; reference analogue: the edge-pair
    traversal statistics of SURVEY §2.6, re-expressed as a window op).

    One hash(key) exchange co-locates each key's full sequence; k-gram
    formation is vectorized ``groupby().shift(-i)`` (ends null out, so
    grams never cross keys); each partition emits category^k-bounded
    count partials, reduced by one small :func:`grouped_sum`.  Scale
    shape: raw rows move exactly once, the reduce moves only distinct
    gram tuples per partition."""
    from .agg import grouped_sum
    from .join import hash_bucket

    order = [key_col, order_col] + (tiebreak_cols or [])
    gram_cols = [f"g{i + 1}" for i in range(k)]

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        grp = g.groupby(key_col, sort=False)[target_col]
        cols = {gram_cols[0]: g[target_col].reset_index(drop=True)}
        for i in range(1, k):
            cols[gram_cols[i]] = grp.shift(-i).reset_index(drop=True)
        d = pd.DataFrame(cols)
        # a key's j-th row has shift(-i) non-null iff j+i is in range, so
        # the LAST gram column nulls exactly the truncated window tails
        d = d[d[gram_cols[-1]].notna()]
        if len(d) == 0:
            empty = pd.DataFrame({c: pd.Series([], dtype=object) for c in gram_cols})
            empty["n"] = pd.Series([], dtype="int64")
            return empty
        out = d.groupby(gram_cols, sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    parts = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(partial, batch_format="pandas")
    )
    return grouped_sum(parts, gram_cols, ["n"])


def global_exclusive_prefix_max(
    ds: Dataset,
    akey_col: str,
    tiebreak_col: str,
    val_col: str,
    key_bits: int = 32,
    num_buckets: int = 256,
    out_col: str = "prefix_max",
) -> Dataset:
    """Exclusive running MAX of ``val_col`` over the GLOBAL order
    (akey_col, tiebreak_col) — the distributed scan primitive behind
    streaming-watermark semantics (an event is late iff its time is
    below the max event-time of everything that arrived before it).

    Requires ``akey_col`` to be uniform unsigned ints of ``key_bits``
    bits (hash-derived arrival keys are), so contiguous arrival ranges
    are exactly the top-bits buckets: pass 1 reduces each bucket to its
    max (one tiny num_buckets-row table, map-side combined), the driver
    takes the exclusive cummax over bucket ids (num_buckets scalars —
    never data-sized), and pass 2 re-shuffles rows once by bucket and
    combines the broadcast bucket prefix with a vectorized in-bucket
    exclusive cummax.  Two pruned scans of the input, no global sort.
    ``out_col`` is NaN for the globally-first row (empty prefix)."""
    import ray

    if num_buckets & (num_buckets - 1):
        raise ValueError("num_buckets must be a power of two")
    shift = key_bits - int(num_buckets).bit_length() + 1

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = (b[akey_col].to_numpy(dtype=np.uint64) >> np.uint64(shift)).astype(
            "int64"
        )
        return b

    def bucket_max_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {"__bucket": pd.Series([], dtype="int64"), "bmax": pd.Series([], dtype="int64")}
            )
        out = b.groupby("__bucket", sort=False)[val_col].max().reset_index(name="bmax")
        out["bmax"] = out["bmax"].astype("int64")
        return out

    tagged = ds.map_batches(tag, batch_format="pandas")
    # pass 1: per-bucket maxima — each block emits <= num_buckets partial
    # rows, the reduce is num_buckets-sized regardless of data volume
    bmax = (
        tagged.map_batches(bucket_max_partial, batch_format="pandas")
        .groupby("__bucket")
        .max("bmax")
        .to_pandas()
    )
    col = "max(bmax)" if "max(bmax)" in bmax.columns else "bmax"
    lo = np.iinfo(np.int64).min
    prefix = np.full(num_buckets, lo, dtype=np.int64)
    if len(bmax):
        ids = bmax["__bucket"].to_numpy(dtype=np.int64)
        vals = bmax[col].to_numpy(dtype=np.int64)
        dense = np.full(num_buckets, lo, dtype=np.int64)
        dense[ids] = vals
        np.maximum.accumulate(dense, out=dense)
        prefix[1:] = dense[:-1]  # exclusive: bucket b sees maxima of buckets < b
    prefix_ref = ray.put(prefix)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        from .broadcast import cached_get

        pref = cached_get(prefix_ref)
        g = g.sort_values([akey_col, tiebreak_col], kind="mergesort")
        v = g[val_col].to_numpy(dtype=np.int64)
        cum = np.empty(len(v), dtype=np.int64)
        if len(v):
            cum[0] = lo
            if len(v) > 1:
                np.maximum.accumulate(v[:-1], out=cum[1:])
            base = pref[int(g["__bucket"].iloc[0])]
            cum = np.maximum(cum, base)
        out = g.drop(columns="__bucket").copy()
        out[out_col] = pd.array(cum, dtype="Int64")
        out.loc[out[out_col] == lo, out_col] = pd.NA
        return out

    return tagged.groupby("__bucket").map_groups(scan, batch_format="pandas")


def cdc_two_snapshot_diff(
    ds: Dataset,
    key_col: str,
    ts_col: str,
    id_col: str,
    type_col: str,
    delete_value: str,
    t1: int,
    t2: int,
    num_parts: int | None = None,
) -> Dataset:
    """Snapshot DELTA between two changelog watermarks: classify every
    key whose compacted state at t2 differs from its state at t1 as
    added / changed / removed (the incremental companion to
    :func:`cdc_snapshot` — what a downstream sync would apply to move
    a materialized view from t1 to t2).

    One hash(key) exchange serves BOTH snapshots: a key's full history
    co-locates, each partition takes vectorized keep-last at ts<=t1 and
    ts<=t2 and joins the two one-row-per-key frames locally.  Missing /
    tombstoned states carry the -1 sentinel so the output is dense
    int64 (no nullable-int hashing ambiguity).  Unchanged keys emit
    nothing — the output is delta-sized, not corpus-sized."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")

        def latest_upto(t: int) -> pd.DataFrame:
            s = g[g[ts_col] <= t]
            last = s[~s[key_col].duplicated(keep="last")]
            live = (last[type_col] != delete_value).to_numpy()
            return pd.DataFrame(
                {
                    key_col: last[key_col].to_numpy(),
                    "sid": np.where(live, last[id_col].to_numpy(), -1).astype(
                        "int64"
                    ),
                }
            )

        m = latest_upto(t1).merge(
            latest_upto(t2), on=key_col, how="outer", suffixes=("_1", "_2")
        )
        old = m["sid_1"].fillna(-1).astype("int64").to_numpy()
        new = m["sid_2"].fillna(-1).astype("int64").to_numpy()
        keep = (old != new) & ~((old == -1) & (new == -1))
        out = pd.DataFrame(
            {
                key_col: m[key_col].to_numpy()[keep],
                "change": np.where(
                    old[keep] == -1,
                    "added",
                    np.where(new[keep] == -1, "removed", "changed"),
                ),
                "old_id": old[keep],
                "new_id": new[keep],
            }
        )
        out[key_col] = out[key_col].astype(g[key_col].dtype)
        return out

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(diff, batch_format="pandas")
    )


def cusum_alerts(
    ds: Dataset,
    key_col: str,
    order_col: str,
    val_col: str,
    k: int,
    h: int,
    id_col: str,
    num_parts: int | None = None,
) -> Dataset:
    """One-sided CUSUM change-point detection per key: the classic
    monitoring recurrence S_i = max(0, S_{i-1} + (x_i - k)) with alert
    at S_i >= h — computed WITHOUT the sequential loop via the closed
    form S_i = C_i - min(0, min_{j<=i} C_j) (C = running sum of x - k),
    which is one cumsum + one cummin: fully vectorized per key, any
    sequence length, exact integers throughout.

    One hash(key) exchange co-locates each key's ordered stream; output
    is one row per ALERTED key: (key, max_cusum, first_alert) where
    first_alert is the smallest ``id_col`` whose statistic crossed h."""
    from .join import hash_bucket
    from .partitioning import adaptive_parts

    if num_parts is None:
        num_parts = adaptive_parts(ds)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__part=hash_bucket(b[key_col].to_numpy(), num_parts))

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col, id_col], kind="mergesort")
        x = g[val_col].to_numpy(dtype=np.int64) - k
        cum = pd.Series(x, index=g.index).groupby(g[key_col], sort=False).cumsum()
        cmin = cum.groupby(g[key_col], sort=False).cummin()
        stat = cum.to_numpy() - np.minimum(0, cmin.to_numpy())
        d = pd.DataFrame(
            {
                key_col: g[key_col].to_numpy(),
                "stat": stat,
                "id": g[id_col].to_numpy(),
            }
        )
        alerted = d[d["stat"] >= h]
        if len(alerted) == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=g[key_col].dtype),
                    "max_cusum": pd.Series([], dtype="int64"),
                    "first_alert": pd.Series([], dtype="int64"),
                }
            )
        mx = d.groupby(key_col, sort=False)["stat"].max()
        first = alerted.groupby(key_col, sort=False)["id"].min()
        out = pd.DataFrame(
            {
                key_col: first.index,
                "max_cusum": mx.loc[first.index].to_numpy().astype("int64"),
                "first_alert": first.to_numpy().astype("int64"),
            }
        )
        return out.reset_index(drop=True)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__part")
        .map_groups(stats, batch_format="pandas")
    )
