"""Exact-integer order statistics over distributed data.

The primitive here is a *binned two-pass sorted scan*: rank/ECDF-style
statistics need prefix sums over the global value order, but a global
sort is an all-to-all exchange whose output order Ray does not expose
to per-block functions.  Instead:

- pass 1 histograms the value column into ``num_bins`` fixed-width bins
  (map-side ``np.bincount`` partials, one tiny ``num_bins``-row reduce);
  the driver takes exclusive cumulative sums over the bin table — the
  per-bin *global offsets* (how much mass sits strictly below each bin);
- pass 2 re-shuffles rows once by bin (``groupby(bin).map_groups``);
  each bin sorts locally, combines its broadcast offset with a
  vectorized local cumulative sum, and emits a constant-size partial;
- the driver folds the ≤ ``num_bins`` partials into the final scalar.

Equal values always share a bin (binning is a function of the value),
so distinct-value grouping — where every ECDF/rank statistic is
evaluated — never straddles a bin boundary.  Two pruned scans of the
input, no global sort, driver state bounded by ``num_bins``.

Scale note: fixed-width bins inherit the value distribution's skew
(unlike the hash-key buckets of
``windows.global_exclusive_prefix_max``); ``num_bins`` bounds the
partition count, not the largest partition.  A production variant over
pathologically skewed columns would derive edges from a driver-side
sample of quantiles — the two-pass structure is unchanged.

All statistics are reported as exact integers (numerator/denominator
pairs or doubled rank sums) so oracle comparison never touches a float.
Reference: the engine-side statistics have no counterpart in
/root/reference (its analytics end at ontology-sized NetworkX graphs);
these extend SURVEY §2.8's engine-addition family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from .agg import grouped_sum

_I64_MAX = 2**63 - 1



def _auto_bins(ds: Dataset, num_bins: int | None) -> int:
    """Resolve the bin count: explicit wins; else scale with the input
    (adaptive_parts' plan-metadata row estimate — never an execution),
    clamped so driver state stays tiny and per-bin chunks stay vector-
    friendly.  Small inputs get few bins (per-group scheduling overhead
    dominates tiny tables); huge inputs cap at 4096."""
    if num_bins is not None:
        return num_bins
    from .partitioning import adaptive_parts

    return adaptive_parts(ds, rows_per_part=2048, floor=8, cap=4096, default=256)


def _bin_edges(ds: Dataset, val_col: str, num_bins: int) -> tuple[float, float, float]:
    """Global (lo, hi, width) of ``val_col`` — one pruned Min/Max pass."""
    from ray.data.aggregate import Max, Min

    b = ds.aggregate(Min(val_col), Max(val_col))
    if not b or b.get(f"min({val_col})") is None:
        return 0.0, 0.0, 1.0
    lo = float(b[f"min({val_col})"])
    hi = float(b[f"max({val_col})"])
    width = (hi - lo) / num_bins if hi > lo else 1.0
    return lo, hi, width


def _tagger(val_col: str, lo: float, width: float, num_bins: int):
    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        v = b[val_col].to_numpy(dtype=np.float64)
        if np.isnan(v).any():
            # a NaN cast to int64 lands in a platform-dependent bin
            raise ValueError(f"column {val_col!r} holds NaN; it has no bin")
        binned = np.clip(((v - lo) / width).astype(np.int64), 0, num_bins - 1)
        b["__bin"] = binned
        return b

    return tag


def _two_group_scan(
    ds: Dataset,
    val_col: str,
    g1_col: str,
    g2_col: str,
    num_bins: int,
    local_fn,
) -> pd.DataFrame:
    """Shared KS / Mann-Whitney skeleton: per distinct value of
    ``val_col`` the local pass sees (sorted values, c1, c2 tie counts)
    plus the exclusive global offsets (f1_off, f2_off) and group totals
    (n1, n2); ``local_fn`` returns one partial row per bin."""
    import ray

    from .broadcast import cached_get
    from .dedup import pin_blocks

    # pin once: the min/max pass, the histogram pass and the scan pass
    # all consume this input — without the lineage cut each consumer
    # re-executes the whole upstream plan (measured 3-5x wall on
    # computed inputs; the re-run tag map is trivial by comparison)
    ds = pin_blocks(ds, 64)
    lo, hi, width = _bin_edges(ds, val_col, num_bins)
    tagged = ds.map_batches(
        _tagger(val_col, lo, width, num_bins), batch_format="pandas"
    )

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "__bin": pd.Series([], dtype="int64"),
                    "c1": pd.Series([], dtype="int64"),
                    "c2": pd.Series([], dtype="int64"),
                }
            )
        binned = b["__bin"].to_numpy()
        c1 = np.bincount(binned, weights=b[g1_col].to_numpy(), minlength=num_bins)
        c2 = np.bincount(binned, weights=b[g2_col].to_numpy(), minlength=num_bins)
        nz = (c1 != 0) | (c2 != 0)
        return pd.DataFrame(
            {
                "__bin": np.flatnonzero(nz).astype(np.int64),
                "c1": c1[nz].astype(np.int64),
                "c2": c2[nz].astype(np.int64),
            }
        )

    hist = grouped_sum(
        tagged.map_batches(hist_partial, batch_format="pandas"),
        ["__bin"],
        ["c1", "c2"],
    ).to_pandas()
    dense1 = np.zeros(num_bins, dtype=np.int64)
    dense2 = np.zeros(num_bins, dtype=np.int64)
    if len(hist):
        ids = hist["__bin"].to_numpy(dtype=np.int64)
        dense1[ids] = hist["c1"].to_numpy(dtype=np.int64)
        dense2[ids] = hist["c2"].to_numpy(dtype=np.int64)
    n1, n2 = int(dense1.sum()), int(dense2.sum())
    off1 = np.concatenate(([0], np.cumsum(dense1)[:-1]))
    off2 = np.concatenate(([0], np.cumsum(dense2)[:-1]))
    off_ref = ray.put((off1, off2, n1, n2))

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        o1, o2, tn1, tn2 = cached_get(off_ref)
        g = g.sort_values(val_col, kind="mergesort")
        v = g[val_col].to_numpy(dtype=np.float64)
        # distinct-value tie groups (bin-local by construction)
        new = np.empty(len(v), dtype=bool)
        if len(v):
            new[0] = True
            new[1:] = v[1:] != v[:-1]
        seg = np.cumsum(new) - 1
        nseg = int(seg[-1]) + 1 if len(v) else 0
        c1 = np.bincount(seg, weights=g[g1_col].to_numpy(), minlength=nseg).astype(
            np.int64
        )
        c2 = np.bincount(seg, weights=g[g2_col].to_numpy(), minlength=nseg).astype(
            np.int64
        )
        bin_id = int(g["__bin"].iloc[0])
        return local_fn(
            bin_id, v[new], c1, c2, int(o1[bin_id]), int(o2[bin_id]), tn1, tn2
        )

    parts = (
        tagged.groupby("__bin").map_groups(scan, batch_format="pandas").to_pandas()
    )
    parts.attrs["n1"] = n1
    parts.attrs["n2"] = n2
    return parts


def ks_two_sample(
    ds: Dataset,
    val_col: str,
    g1_col: str,
    g2_col: str,
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact two-sample Kolmogorov-Smirnov distance as a rational:
    ``D = ks_num / (n1 * n2)`` with ``ks_num = max over distinct values
    of |F1*n2 - F2*n1|`` (F = cumulative group counts).  Products are
    bounded by n1*n2 and asserted < 2^63."""

    num_bins = _auto_bins(ds, num_bins)

    def local(bin_id, vals, c1, c2, o1, o2, n1, n2):
        if len(vals) == 0:
            return pd.DataFrame({"ks_num": pd.Series([], dtype="int64")})
        f1 = o1 + np.cumsum(c1)
        f2 = o2 + np.cumsum(c2)
        assert n1 * n2 <= _I64_MAX, "KS numerator exceeds int64"
        d = np.abs(f1 * n2 - f2 * n1).max()
        return pd.DataFrame({"ks_num": [int(d)]})

    parts = _two_group_scan(ds, val_col, g1_col, g2_col, num_bins, local)
    ks = int(parts["ks_num"].max()) if len(parts) else 0
    return pd.DataFrame(
        {
            "ks_num": pd.Series([ks], dtype="int64"),
            "n1": pd.Series([parts.attrs["n1"]], dtype="int64"),
            "n2": pd.Series([parts.attrs["n2"]], dtype="int64"),
        }
    )


def mann_whitney(
    ds: Dataset,
    val_col: str,
    g1_col: str,
    g2_col: str,
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact Mann-Whitney rank statistics with midrank tie handling,
    doubled to stay integral: ``r1_times2 = 2 * (sum of group-1
    midranks)`` and ``u1_times2 = r1_times2 - n1*(n1+1)``.  Per distinct
    value the midrank*2 is ``2*F_before + t + 1`` (F_before = pooled
    count strictly below, t = pooled tie count)."""

    num_bins = _auto_bins(ds, num_bins)

    def local(bin_id, vals, c1, c2, o1, o2, n1, n2):
        if len(vals) == 0:
            return pd.DataFrame({"r2_part": pd.Series([], dtype="int64")})
        t = c1 + c2
        f_before = (o1 + o2) + np.concatenate(([0], np.cumsum(t)[:-1]))
        contrib = c1 * (2 * f_before + t + 1)
        return pd.DataFrame({"r2_part": [int(contrib.sum())]})

    parts = _two_group_scan(ds, val_col, g1_col, g2_col, num_bins, local)
    n1, n2 = parts.attrs["n1"], parts.attrs["n2"]
    r1_times2 = int(parts["r2_part"].sum()) if len(parts) else 0
    assert 2 * (n1 + n2) * (n1 + n2) <= _I64_MAX, "rank sum exceeds int64"
    return pd.DataFrame(
        {
            "r1_times2": pd.Series([r1_times2], dtype="int64"),
            "u1_times2": pd.Series([r1_times2 - n1 * (n1 + 1)], dtype="int64"),
            "n1": pd.Series([n1], dtype="int64"),
            "n2": pd.Series([n2], dtype="int64"),
        }
    )


def gini_counts(
    counts: Dataset,
    count_col: str,
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact-rational Gini coefficient of a per-key frequency table
    (``counts`` = one row per key, already reduced):
    ``gini = gini_num / gini_den`` with, over counts sorted ascending,
    ``gini_num = 2*Σ i*c_i - (k+1)*Σ c_i`` and ``gini_den = k*Σ c_i``
    (i = 1-based global rank).  Ties in c make Σ i*c_i invariant to
    their ordering, so the within-bin sort needs no tiebreak.  Same
    binned scan: pass 1 bins the counts and the driver's exclusive
    cumsum of per-bin key-counts yields each bin's starting global
    rank."""
    import ray

    from .broadcast import cached_get

    from .dedup import pin_blocks

    num_bins = _auto_bins(counts, num_bins)
    counts = pin_blocks(counts, 64)  # three consumers, one lineage cut
    lo, hi, width = _bin_edges(counts, count_col, num_bins)
    tagged = counts.map_batches(
        _tagger(count_col, lo, width, num_bins), batch_format="pandas"
    )

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "__bin": pd.Series([], dtype="int64"),
                    "k": pd.Series([], dtype="int64"),
                    "tot": pd.Series([], dtype="int64"),
                }
            )
        binned = b["__bin"].to_numpy()
        k = np.bincount(binned, minlength=num_bins)
        tot = np.bincount(binned, weights=b[count_col].to_numpy(), minlength=num_bins)
        nz = k != 0
        return pd.DataFrame(
            {
                "__bin": np.flatnonzero(nz).astype(np.int64),
                "k": k[nz].astype(np.int64),
                "tot": tot[nz].astype(np.int64),
            }
        )

    hist = grouped_sum(
        tagged.map_batches(hist_partial, batch_format="pandas"),
        ["__bin"],
        ["k", "tot"],
    ).to_pandas()
    dense_k = np.zeros(num_bins, dtype=np.int64)
    if len(hist):
        dense_k[hist["__bin"].to_numpy(dtype=np.int64)] = hist["k"].to_numpy(
            dtype=np.int64
        )
    k_total = int(dense_k.sum())
    total = int(hist["tot"].sum()) if len(hist) else 0
    rank_off = np.concatenate(([0], np.cumsum(dense_k)[:-1]))
    off_ref = ray.put(rank_off)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        off = cached_get(off_ref)
        c = np.sort(g[count_col].to_numpy(dtype=np.int64), kind="mergesort")
        i = int(off[int(g["__bin"].iloc[0])]) + 1 + np.arange(len(c), dtype=np.int64)
        s = int((i * c).sum())
        return pd.DataFrame({"s_part": pd.Series([s], dtype="int64")})

    parts = (
        tagged.groupby("__bin").map_groups(scan, batch_format="pandas").to_pandas()
    )
    s_total = int(parts["s_part"].sum()) if len(parts) else 0
    assert abs(2 * s_total) <= _I64_MAX and k_total * total <= _I64_MAX, (
        "gini terms exceed int64"
    )
    return pd.DataFrame(
        {
            "gini_num": pd.Series([2 * s_total - (k_total + 1) * total], dtype="int64"),
            "gini_den": pd.Series([k_total * total], dtype="int64"),
            "k": pd.Series([k_total], dtype="int64"),
            "total": pd.Series([total], dtype="int64"),
        }
    )


def weighted_quantiles(
    ds: Dataset,
    group_col: str,
    val_col: str,
    weight_col: str,
    quantiles: list[tuple[int, int]],
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact lower weighted quantiles per group: for each rational
    q = qn/qd, the smallest value v with qd * W(<= v) >= qn * W_total
    (integer weights and integer cross-multiplied tests — no float in
    any comparison).  Two passes: a per-(group, bin) weight histogram
    locates every (group, q) crossing bin driver-side (groups x
    num_bins state — assumes small group cardinality, the usual shape
    for per-segment quantiles), then ONLY candidate-bin rows re-shuffle
    for the local exact scans — the second exchange is bins-sized, not
    data-sized.  Values are input doubles bit-copied through (the
    rolling-median convention), one output row per (group, qn, qd)."""
    import ray

    from .broadcast import cached_get
    from .dedup import pin_blocks

    num_bins = _auto_bins(ds, num_bins)
    ds = pin_blocks(ds, 64)  # three consumers, one lineage cut
    lo, hi, width = _bin_edges(ds, val_col, num_bins)
    tagged = ds.map_batches(
        _tagger(val_col, lo, width, num_bins), batch_format="pandas"
    )

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    group_col: pd.Series([], dtype=object),
                    "__bin": pd.Series([], dtype="int64"),
                    "w": pd.Series([], dtype="int64"),
                }
            )
        out = (
            b.groupby([group_col, "__bin"], sort=False)[weight_col]
            .sum()
            .reset_index(name="w")
        )
        out["w"] = out["w"].astype("int64")
        return out

    hist = grouped_sum(
        tagged.map_batches(hist_partial, batch_format="pandas"),
        [group_col, "__bin"],
        ["w"],
    ).to_pandas()
    # per (group, q): crossing bin + exclusive weight offset + total
    cand: dict[object, dict[tuple[int, int], tuple[int, int, int]]] = {}
    for g, gh in hist.groupby(group_col, sort=False):
        gh = gh.sort_values("__bin")
        bins = gh["__bin"].to_numpy(dtype=np.int64)
        w = gh["w"].to_numpy(dtype=np.int64)
        tot = int(w.sum())
        cum = np.cumsum(w)
        per_q = {}
        for qn, qd in quantiles:
            j = int(np.searchsorted(qd * cum, qn * tot))
            per_q[(qn, qd)] = (
                int(bins[j]),
                int(cum[j - 1]) if j else 0,
                tot,
            )
        cand[g] = per_q
    cand_ref = ray.put(cand)

    def keep_candidates(b: pd.DataFrame) -> pd.DataFrame:
        c = cached_get(cand_ref)
        gv = b[group_col].to_numpy()
        bv = b["__bin"].to_numpy()
        keep = np.zeros(len(b), dtype=bool)
        # vectorized per GROUP (small cardinality by contract), not per row
        for g, per_q in c.items():
            bins = np.fromiter({t[0] for t in per_q.values()}, dtype=np.int64)
            keep |= (gv == g) & np.isin(bv, bins)
        return b[keep]

    def local(g: pd.DataFrame) -> pd.DataFrame:
        c = cached_get(cand_ref)
        key = g[group_col].iloc[0]
        this_bin = int(g["__bin"].iloc[0])
        g = g.sort_values(val_col, kind="mergesort")
        cumw = np.cumsum(g[weight_col].to_numpy(dtype=np.int64))
        vals = g[val_col].to_numpy()
        rows = []
        for (qn, qd), (bn, w_before, tot) in c[key].items():
            if bn != this_bin:
                continue
            idx = int(np.searchsorted(qd * (w_before + cumw), qn * tot))
            rows.append((key, qn, qd, float(vals[idx])))
        return pd.DataFrame(
            rows, columns=[group_col, "qn", "qd", "wq"]
        )

    out = (
        tagged.map_batches(keep_candidates, batch_format="pandas")
        .groupby([group_col, "__bin"])
        .map_groups(local, batch_format="pandas")
        .to_pandas()
    )
    out["qn"] = out["qn"].astype("int64")
    out["qd"] = out["qd"].astype("int64")
    return out.sort_values([group_col, "qn", "qd"]).reset_index(drop=True)


def weighted_median(
    ds: Dataset,
    group_col: str,
    val_col: str,
    weight_col: str,
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact lower weighted median per group — the q = 1/2 case of
    :func:`weighted_quantiles` (kept as the named operator; see there
    for the two-pass structure and exactness argument)."""
    out = weighted_quantiles(
        ds, group_col, val_col, weight_col, [(1, 2)], num_bins
    )
    out = out.rename(columns={"wq": "wmedian"})[[group_col, "wmedian"]]
    return out.sort_values(group_col).reset_index(drop=True)


def rank_permutation(
    ds: Dataset,
    val_col: str,
    tie_col: str,
    out_col: str,
    num_bins: int | None = None,
) -> Dataset:
    """Attach the 1-based GLOBAL rank of every row under the total order
    (``val_col``, ``tie_col``) — a permutation, since the tiebreak makes
    the order strict.  Binned two-pass: the value histogram's exclusive
    cumsum gives each bin's starting rank; each bin then sorts locally
    and adds its offset.  The output stays distributed (one extra int64
    column), so downstream rank statistics never materialize the table
    driver-side."""
    import ray

    from .broadcast import cached_get

    from .dedup import pin_blocks

    num_bins = _auto_bins(ds, num_bins)
    ds = pin_blocks(ds, 64)  # three consumers, one lineage cut
    lo, hi, width = _bin_edges(ds, val_col, num_bins)
    tagged = ds.map_batches(
        _tagger(val_col, lo, width, num_bins), batch_format="pandas"
    )

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "__bin": pd.Series([], dtype="int64"),
                    "k": pd.Series([], dtype="int64"),
                }
            )
        k = np.bincount(b["__bin"].to_numpy(), minlength=num_bins)
        nz = k != 0
        return pd.DataFrame(
            {
                "__bin": np.flatnonzero(nz).astype(np.int64),
                "k": k[nz].astype(np.int64),
            }
        )

    hist = grouped_sum(
        tagged.map_batches(hist_partial, batch_format="pandas"), ["__bin"], ["k"]
    ).to_pandas()
    dense = np.zeros(num_bins, dtype=np.int64)
    if len(hist):
        dense[hist["__bin"].to_numpy(dtype=np.int64)] = hist["k"].to_numpy(
            dtype=np.int64
        )
    off = np.concatenate(([0], np.cumsum(dense)[:-1]))
    off_ref = ray.put(off)

    def local_rank(g: pd.DataFrame) -> pd.DataFrame:
        o = cached_get(off_ref)
        base = int(o[int(g["__bin"].iloc[0])])
        g = g.sort_values([val_col, tie_col], kind="mergesort")
        out = g.drop(columns="__bin").copy()
        out[out_col] = base + 1 + np.arange(len(g), dtype=np.int64)
        return out

    return tagged.groupby("__bin").map_groups(local_rank, batch_format="pandas")


def kendall_inversions(
    ds: Dataset,
    ra_col: str,
    rb_col: str,
    n: int,
    num_bins: int | None = None,
) -> int:
    """Exact inversion count between two rank PERMUTATIONS (strict
    1..n ranks, no ties): the number of pairs ordered oppositely by the
    two rankings — Kendall's tau is ``1 - 4*inv / (n*(n-1))``.

    Decomposition over uniform rank-a / rank-b bins (uniform because
    the inputs are permutations), three disjoint pair categories:

    - same rank-a bin: local pairwise count inside one
      ``groupby(bin_a)`` pass (k^2/2 vectorized comparisons per bin,
      k = n/num_bins — the num_bins knob trades local work for driver
      matrix size);
    - different rank-a bins, different rank-b bins: driver-side from
      the num_bins x num_bins co-occurrence matrix M (suffix-prefix
      cumsum fold, no data movement);
    - different rank-a bins, same rank-b bin: local pairwise count of
      bin-a-label inversions inside one ``groupby(bin_b)`` pass.

    Two bounded exchanges + one matrix reduce; exact at any
    partitioning.  int64-safe while n^2 < 2^63 (asserted)."""
    assert n * n <= _I64_MAX, "inversion count exceeds int64"
    if num_bins is None:
        # k = n/B per-bin chunk ~2048 keeps the local pairwise pass at
        # ~4M vectorized comparisons; B <= 512 bounds the driver matrix
        num_bins = max(8, min(512, n // 2048 or 8))

    from .dedup import pin_blocks

    ds = pin_blocks(ds, 64)  # three consumers, one lineage cut

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__ba"] = (b[ra_col].to_numpy(dtype=np.int64) - 1) * num_bins // max(n, 1)
        b["__bb"] = (b[rb_col].to_numpy(dtype=np.int64) - 1) * num_bins // max(n, 1)
        return b

    tagged = ds.map_batches(tag, batch_format="pandas")

    # co-occurrence matrix M[bin_a][bin_b] (sparse partials, tiny reduce)
    def m_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "__cell": pd.Series([], dtype="int64"),
                    "m": pd.Series([], dtype="int64"),
                }
            )
        flat = b["__ba"].to_numpy() * num_bins + b["__bb"].to_numpy()
        m = np.bincount(flat, minlength=num_bins * num_bins)
        nz = m != 0
        return pd.DataFrame(
            {
                "__cell": np.flatnonzero(nz).astype(np.int64),
                "m": m[nz].astype(np.int64),
            }
        )

    mdf = grouped_sum(
        tagged.map_batches(m_partial, batch_format="pandas"), ["__cell"], ["m"]
    ).to_pandas()
    M = np.zeros(num_bins * num_bins, dtype=np.int64)
    if len(mdf):
        M[mdf["__cell"].to_numpy(dtype=np.int64)] = mdf["m"].to_numpy(dtype=np.int64)
    M = M.reshape(num_bins, num_bins)

    # category B: different bin_a AND different bin_b.
    # prefix_a[q] = sum of rows p < q; for each q: sum over s of
    # (mass of prefix rows in rank-b bins > s) * M[q][s]
    inv_b = 0
    prefix = np.zeros(num_bins, dtype=np.int64)
    for q in range(num_bins):
        suffix_gt = np.concatenate((np.cumsum(prefix[::-1])[::-1][1:], [0]))
        inv_b += int((suffix_gt * M[q]).sum())
        prefix += M[q]

    def pair_inv(sort_col: str, cmp_col: str):
        def local(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(sort_col, kind="mergesort")
            x = g[cmp_col].to_numpy(dtype=np.int64)
            # pairs (i earlier, j later) with x_i > x_j: earlier rows are
            # the ROW axis, so keep the strict upper triangle (j > i)
            inv = int(np.triu(x[:, None] > x[None, :], 1).sum())
            return pd.DataFrame({"inv": pd.Series([inv], dtype="int64")})

        return local

    inv_a = int(
        tagged.groupby("__ba")
        .map_groups(pair_inv(ra_col, rb_col), batch_format="pandas")
        .to_pandas()["inv"]
        .sum()
    )
    inv_c = int(
        tagged.groupby("__bb")
        .map_groups(pair_inv(rb_col, "__ba"), batch_format="pandas")
        .to_pandas()["inv"]
        .sum()
    )
    return inv_a + inv_b + inv_c


def trimmed_sum(
    ds: Dataset,
    group_col: str,
    val_col: str,
    trim_num: int,
    trim_den: int,
    num_bins: int | None = None,
) -> pd.DataFrame:
    """Exact trimmed sum/count per group over an INTEGER value column:
    drop the k = floor(n * trim_num/trim_den) smallest and largest
    values (by value order; ties resolve by position within the sorted
    bin, which is well-defined because only COUNTS matter — equal
    values are interchangeable) and report the exact sum and count of
    the middle n-2k.  The trimmed mean is sum/count at the caller.

    Two passes like :func:`weighted_quantiles`, but the second exchange
    is even smaller: interior bins contribute their FULL per-bin sums
    (already known driver-side from the (group, bin) histogram), so
    only the two boundary bins per group re-shuffle for the exact
    partial-bin scan."""
    import ray

    from .broadcast import cached_get
    from .dedup import pin_blocks

    num_bins = _auto_bins(ds, num_bins)
    ds = pin_blocks(ds, 64)
    lo, hi, width = _bin_edges(ds, val_col, num_bins)
    tagged = ds.map_batches(
        _tagger(val_col, lo, width, num_bins), batch_format="pandas"
    )

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    group_col: pd.Series([], dtype=object),
                    "__bin": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                    "s": pd.Series([], dtype="int64"),
                }
            )
        d = b.groupby([group_col, "__bin"], sort=False)[val_col].agg(
            ["size", "sum"]
        )
        out = d.reset_index().rename(columns={"size": "cnt", "sum": "s"})
        out["cnt"] = out["cnt"].astype("int64")
        out["s"] = out["s"].astype("int64")
        return out

    hist = grouped_sum(
        tagged.map_batches(hist_partial, batch_format="pandas"),
        [group_col, "__bin"],
        ["cnt", "s"],
    ).to_pandas()

    # driver: per group locate the low/high boundary bins; interior
    # contribution = full bin sums between them
    plan: dict[object, dict] = {}
    for g, gh in hist.groupby(group_col, sort=False):
        gh = gh.sort_values("__bin")
        bins = gh["__bin"].to_numpy(dtype=np.int64)
        cnt = gh["cnt"].to_numpy(dtype=np.int64)
        sums = gh["s"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        k = n * trim_num // trim_den
        keep_n = n - 2 * k
        if keep_n <= 0:
            plan[g] = {"lo_bin": -1, "hi_bin": -1, "skip_lo": 0, "take_hi": 0,
                       "interior": 0, "count": 0}
            continue
        cum = np.cumsum(cnt)
        # low boundary: bin containing the (k+1)-th value
        jl = int(np.searchsorted(cum, k + 1))
        # high boundary: bin containing the (n-k)-th value
        jh = int(np.searchsorted(cum, n - k))
        skip_lo = k - (int(cum[jl - 1]) if jl else 0)  # values to drop inside lo bin
        take_hi = (n - k) - (int(cum[jh - 1]) if jh else 0)  # values to keep inside hi bin
        if jl == jh:
            interior = 0
        else:
            interior = int(sums[jl + 1 : jh].sum())
        plan[g] = {
            "lo_bin": int(bins[jl]),
            "hi_bin": int(bins[jh]),
            "skip_lo": int(skip_lo),
            "take_hi": int(take_hi),
            "interior": interior,
            "count": int(keep_n),
        }
    plan_ref = ray.put(plan)

    def keep_boundary(b: pd.DataFrame) -> pd.DataFrame:
        c = cached_get(plan_ref)
        gv = b[group_col].to_numpy()
        bv = b["__bin"].to_numpy()
        keep = np.zeros(len(b), dtype=bool)
        for g, p in c.items():
            keep |= (gv == g) & ((bv == p["lo_bin"]) | (bv == p["hi_bin"]))
        return b[keep]

    def boundary_local(g: pd.DataFrame) -> pd.DataFrame:
        c = cached_get(plan_ref)
        key = g[group_col].iloc[0]
        p = c[key]
        this_bin = int(g["__bin"].iloc[0])
        v = np.sort(g[val_col].to_numpy(dtype=np.int64), kind="mergesort")
        part = 0
        if this_bin == p["lo_bin"] and this_bin == p["hi_bin"]:
            part = int(v[p["skip_lo"] : p["take_hi"]].sum())
        elif this_bin == p["lo_bin"]:
            part = int(v[p["skip_lo"] :].sum())
        elif this_bin == p["hi_bin"]:
            part = int(v[: p["take_hi"]].sum())
        return pd.DataFrame(
            {group_col: [key], "part": pd.Series([part], dtype="int64")}
        )

    parts = (
        tagged.map_batches(keep_boundary, batch_format="pandas")
        .groupby([group_col, "__bin"])
        .map_groups(boundary_local, batch_format="pandas")
        .to_pandas()
    )
    if len(parts) == 0:  # every group fully trimmed -> no boundary rows
        parts = pd.DataFrame({group_col: [], "part": []})
    agg = parts.groupby(group_col, sort=True)["part"].sum()
    rows = []
    for g, p in plan.items():
        boundary = int(agg.get(g, 0))
        rows.append((g, p["interior"] + boundary, p["count"]))
    out = pd.DataFrame(rows, columns=[group_col, "trimmed_sum", "n_kept"])
    out["trimmed_sum"] = out["trimmed_sum"].astype("int64")
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)
