"""Product quantization (PQ) over an embedding column — the
compressed-index path for similarity search at 100 TB.

Brute-force ANN ships every float vector through every query batch;
IVF prunes which vectors get scored but still stores them whole.  PQ
(Jégou et al. 2011, "Product Quantization for Nearest Neighbor
Search") stores each vector as M small codes — one k-means codeword id
per dimension-subspace — so a trillion-vector index fits in RAM-scale
storage and distance evaluation becomes M table lookups (asymmetric
distance computation, ADC).

Everything here is exact-integer so the DuckDB oracle can replay it
bit-for-bit at any partitioning (same discipline as
:mod:`.cluster` — see that module's docstring for the quantization /
FLOOR-update / lowest-index-tie rules):

- vectors quantize to int64 once; a subspace is a column slice of the
  quantized matrix, so subspace training is exactly per-subspace
  integer Lloyd,
- all M subspaces train in the SAME ``map_batches`` pass per Lloyd
  iteration (one scan trains the whole codebook — M× fewer passes than
  calling :func:`.cluster.kmeans_centroids` per subspace),
- ADC distances are exact int64 sums of per-subspace squared-L2
  lookups; top-k ties break on ascending vec_id.

Scale shape: training is an (M·k·dsub)-int mini-reduce per iteration;
encoding is a stateless one-pass ``map_batches``; search broadcasts
only the (nq × M × k) int lookup tables and reduces k-bounded local
top-k partials — no shuffle anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset

from .cluster import _assign, _batch_matrix, init_centroids, quantize


def _subspace_bounds(d: int, num_subspaces: int) -> list[tuple[int, int]]:
    if d % num_subspaces != 0:
        raise ValueError(f"dim {d} not divisible by {num_subspaces} subspaces")
    dsub = d // num_subspaces
    return [(m * dsub, (m + 1) * dsub) for m in range(num_subspaces)]


def pq_train(
    ds: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    *,
    num_subspaces: int = 4,
    k: int = 16,
    iters: int = 2,
    quant: int = 1000,
) -> np.ndarray:
    """Train the PQ codebook: an (M, k, d/M) int64 centroid tensor.

    Init = the k smallest-id vectors (shared across subspaces — the SQL
    oracle's ``ids`` CTE picks the same rows once).  Each Lloyd
    iteration is ONE pass emitting (subspace, cluster, count, sum)
    partials for every subspace; empty clusters keep their previous
    centroid (FLOOR-division update, matching ``_sql_kmeans_ctes``).
    """
    full_init = init_centroids(ds, id_col, vec_col, k, quant)
    bounds = _subspace_bounds(full_init.shape[1], num_subspaces)
    cents = np.stack([full_init[:, lo:hi] for lo, hi in bounds])  # (M, k, dsub)

    for _ in range(iters):
        cref = ray.put(cents)

        def partial_sums(batch: pa.Table, *, _cref=cref) -> pa.Table:
            c = ray.get(_cref)
            x = _batch_matrix(batch, vec_col, quant)
            ms, cls, ns, ss = [], [], [], []
            for m, (lo, hi) in enumerate(bounds):
                a = _assign(x[:, lo:hi], c[m])
                counts = np.bincount(a, minlength=k).astype(np.int64)
                sums = np.zeros((k, hi - lo), dtype=np.int64)
                np.add.at(sums, a, x[:, lo:hi])
                ms.append(np.full(k, m, dtype=np.int64))
                cls.append(np.arange(k, dtype=np.int64))
                ns.append(counts)
                ss.extend(sums)
            return pa.table(
                {
                    "m": pa.array(np.concatenate(ms), pa.int64()),
                    "cl": pa.array(np.concatenate(cls), pa.int64()),
                    "n": pa.array(np.concatenate(ns), pa.int64()),
                    "s": pa.array(ss, pa.list_(pa.int64())),
                }
            )

        parts = ds.map_batches(partial_sums, batch_format="pyarrow").to_pandas()
        new = cents.copy()
        for m in range(num_subspaces):
            sub = parts[parts["m"] == m]
            dsub = bounds[m][1] - bounds[m][0]
            counts = np.zeros(k, dtype=np.int64)
            sums = np.zeros((k, dsub), dtype=np.int64)
            for cl, n, s in zip(sub["cl"], sub["n"], sub["s"]):
                counts[cl] += n
                sums[cl] += np.asarray(s, dtype=np.int64)
            nonempty = counts > 0
            new[m][nonempty] = np.floor_divide(
                sums[nonempty], counts[nonempty, None]
            )
        cents = new

    return cents


def _encode_matrix(x: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(n, d) int matrix → (n, M) int codes (argmin per subspace,
    lowest-index ties)."""
    num_subspaces = cents.shape[0]
    bounds = _subspace_bounds(x.shape[1], num_subspaces)
    codes = np.empty((x.shape[0], num_subspaces), dtype=np.int64)
    for m, (lo, hi) in enumerate(bounds):
        codes[:, m] = _assign(x[:, lo:hi], cents[m])
    return codes


def pq_encode(
    ds: Dataset,
    cents: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    *,
    quant: int = 1000,
) -> Dataset:
    """One-pass encode: (id_col, m, code) — long format, M rows per
    vector (the compare-friendly layout; a production sink would keep
    the (n, M) uint8 matrix as a fixed-size-list column instead)."""
    cref = ray.put(cents)
    num_subspaces = cents.shape[0]

    def encode(batch: pa.Table, *, _cref=cref) -> pa.Table:
        c = ray.get(_cref)
        x = _batch_matrix(batch, vec_col, quant)
        codes = _encode_matrix(x, c)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(ids)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, num_subspaces), pa.int64()),
                "m": pa.array(np.tile(np.arange(num_subspaces), n), pa.int64()),
                "code": pa.array(codes.ravel(), pa.int64()),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def pq_topk(
    ds: Dataset,
    queries: np.ndarray,
    cents: np.ndarray,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 10,
    quant: int = 1000,
) -> pd.DataFrame:
    """Asymmetric-distance top-k per query over PQ codes.

    The driver precomputes the (nq, M, k) int64 lookup tables (exact
    squared-L2 from each quantized query subvector to every codeword)
    and broadcasts them once; each batch encodes its vectors and sums M
    gathers — no float, no shuffle, k-bounded partials.  Output:
    (query_id, vec_id, dist2, rnk), k rows per query, ties on
    ascending vec_id (identical to the SQL oracle's ROW_NUMBER).
    """
    q = quantize(np.asarray(queries, dtype=np.float64), quant)
    num_subspaces = cents.shape[0]
    bounds = _subspace_bounds(q.shape[1], num_subspaces)
    # (nq, M, k) exact int distances query-subvector → codeword
    luts = np.empty((q.shape[0], num_subspaces, cents.shape[1]), dtype=np.int64)
    for m, (lo, hi) in enumerate(bounds):
        diff = q[:, None, lo:hi] - cents[m][None, :, :]  # (nq, k, dsub)
        luts[:, m, :] = (diff * diff).sum(axis=2)
    ctx = ray.put((cents, luts))

    def local_topk(batch: pa.Table, *, _ctx=ctx) -> pd.DataFrame:
        c, tables = ray.get(_ctx)
        x = _batch_matrix(batch, vec_col, quant)
        codes = _encode_matrix(x, c)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        nq = tables.shape[0]
        # (nq, n) ADC distances: sum over subspaces of LUT gathers
        dist = np.zeros((nq, len(ids)), dtype=np.int64)
        for m in range(codes.shape[1]):
            dist += tables[:, m, :][:, codes[:, m]]
        out_q, out_id, out_d = [], [], []
        kk = min(k, len(ids))
        for qi in range(nq):
            order = np.lexsort((ids, dist[qi]))[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_id.append(ids[order])
            out_d.append(dist[qi][order])
        return pd.DataFrame(
            {
                "query_id": np.concatenate(out_q),
                id_col: np.concatenate(out_id),
                "dist2": np.concatenate(out_d),
            }
        )

    cand = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    cand = cand.sort_values(
        ["query_id", "dist2", id_col], kind="mergesort"
    ).reset_index(drop=True)
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rnk"] = out.groupby("query_id").cumcount().astype(np.int64) + 1
    return out[["query_id", id_col, "dist2", "rnk"]]


def ivfpq_train(
    ds: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    *,
    n_cells: int = 16,
    coarse_iters: int = 2,
    num_subspaces: int = 4,
    pq_k: int = 16,
    pq_iters: int = 2,
    quant: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Train the composed IVF+PQ index (Jégou et al. 2011 §IV): the
    coarse quantizer is the integer Lloyd of :func:`.cluster.
    kmeans_centroids`; the PQ codebook is trained on RESIDUALS
    ``x - c_cell(x)`` (residuals are far more compressible than raw
    vectors — the whole point of the composition).  Returns
    ``(coarse (n_cells, d) int64, pq_cents (M, pq_k, d/M) int64)``.

    Everything stays exact-integer: vectors quantize once; residuals
    are int differences; PQ training reuses :func:`pq_train` with
    ``quant=1`` over the already-int residual column.  The residual
    projection is materialized ONCE (it is re-scanned pq_iters+1 times
    by training) — at open scale this is the encode pass an IVF+PQ
    build does anyway."""
    from .cluster import kmeans_centroids

    coarse = kmeans_centroids(ds, id_col, vec_col, k=n_cells,
                              iters=coarse_iters, quant=quant)
    cref = ray.put(coarse)

    def residuals(batch: pa.Table, *, _cref=cref) -> pa.Table:
        from .broadcast import cached_get

        c = cached_get(_cref)
        x = _batch_matrix(batch, vec_col, quant)
        r = x - c[_assign(x, c)]
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "residual": pa.array(list(r), pa.list_(pa.int64())),
            }
        )

    res_ds = ds.map_batches(
        residuals, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    pq_cents = pq_train(
        res_ds,
        id_col,
        "residual",
        num_subspaces=num_subspaces,
        k=pq_k,
        iters=pq_iters,
        quant=1,  # residuals are already exact ints
    )
    return coarse, pq_cents


def ivfpq_encode(
    ds: Dataset,
    coarse: np.ndarray,
    pq_cents: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    *,
    quant: int = 1000,
) -> Dataset:
    """Encode-once stored-index layout: one row per vector carrying its
    coarse cell + M residual PQ codes (``codes`` as a fixed-size
    ``list<int64>``).  This is what a 100-TB deployment PERSISTS — the
    float vectors are read exactly once; every later query scans M
    small ints per row (:func:`ivfpq_search_codes`) instead of d
    floats.  Stateless one-pass ``map_batches``; write with
    ``write_parquet`` partitioned by cell for probe-pruned reads."""
    ctx = ray.put((coarse, pq_cents))
    M = pq_cents.shape[0]

    def encode(batch: pa.Table, *, _ctx=ctx) -> pa.Table:
        from .broadcast import cached_get

        cm, pqc = cached_get(_ctx)
        x = _batch_matrix(batch, vec_col, quant)
        a = _assign(x, cm)
        codes = _encode_matrix(x - cm[a], pqc)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cell": pa.array(a.astype(np.int64), pa.int64()),
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.ravel(), pa.int64()), M
                ),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def ivfpq_search_codes(
    codes_ds: Dataset,
    queries: np.ndarray,
    coarse: np.ndarray,
    pq_cents: np.ndarray,
    *,
    id_col: str = "vec_id",
    k: int = 10,
    nprobe: int = 4,
    quant: int = 1000,
) -> pd.DataFrame:
    """ADC top-k over a STORED :func:`ivfpq_encode` table — the repeated-
    query path: no float vector is touched; per batch the work is an
    ``isin``-style cell mask + M integer LUT gathers.  Identical output
    contract (and identical results) to :func:`ivfpq_topk` run over the
    raw vectors, since both derive (cell, codes) by the same exact-int
    assignment — tested."""
    q = quantize(np.asarray(queries, dtype=np.float64), quant)
    nq, d = q.shape
    M, pq_k = pq_cents.shape[0], pq_cents.shape[1]
    bounds = _subspace_bounds(d, M)
    n_cells = coarse.shape[0]
    qf, cf = q.astype(np.float64), coarse.astype(np.float64)
    d2q = (
        (qf * qf).sum(axis=1)[:, None]
        - 2.0 * (qf @ cf.T)
        + (cf * cf).sum(axis=1)[None, :]
    )
    probe = np.argsort(d2q, axis=1, kind="stable")[:, :nprobe]
    luts = np.empty((nq, nprobe, M, pq_k), dtype=np.int64)
    for qi in range(nq):
        qres = q[qi][None, :] - coarse[probe[qi]]
        for m, (lo, hi) in enumerate(bounds):
            diff = qres[:, None, lo:hi] - pq_cents[m][None, :, :]
            luts[qi, :, m, :] = (diff * diff).sum(axis=2)
    ctx = ray.put((probe, luts))

    def local_topk(batch: pa.Table, *, _ctx=ctx) -> pd.DataFrame:
        from .broadcast import cached_get

        pr, tables = cached_get(_ctx)
        cells = batch.column("cell").to_numpy(zero_copy_only=False)
        codes_col = batch.column("codes")
        if isinstance(codes_col, pa.ChunkedArray):
            codes_col = codes_col.combine_chunks()
        codes = codes_col.values.to_numpy(zero_copy_only=False).reshape(
            len(cells), M
        )
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        out_q, out_id, out_d = [], [], []
        for qi in range(pr.shape[0]):
            slot = np.full(n_cells, -1, dtype=np.int64)
            slot[pr[qi]] = np.arange(pr.shape[1])
            s = slot[cells]
            sel = s >= 0
            if not sel.any():
                continue
            ss = s[sel]
            dist = np.zeros(len(ss), dtype=np.int64)
            for m in range(M):
                dist += tables[qi, ss, m, codes[sel, m]]
            cids = ids[sel]
            order = np.lexsort((cids, dist))[: min(k, len(ss))]
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_id.append(cids[order])
            out_d.append(dist[order])
        if not out_q:
            return pd.DataFrame(
                {
                    "query_id": np.array([], dtype=np.int64),
                    id_col: np.array([], dtype=np.int64),
                    "dist2": np.array([], dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "query_id": np.concatenate(out_q),
                id_col: np.concatenate(out_id),
                "dist2": np.concatenate(out_d),
            }
        )

    cand = codes_ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if len(cand) == 0:
        return pd.DataFrame(
            {
                "query_id": pd.Series([], dtype="int64"),
                id_col: pd.Series([], dtype="int64"),
                "dist2": pd.Series([], dtype="int64"),
                "rnk": pd.Series([], dtype="int64"),
            }
        )
    cand = cand.sort_values(
        ["query_id", "dist2", id_col], kind="mergesort"
    ).reset_index(drop=True)
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rnk"] = out.groupby("query_id").cumcount().astype(np.int64) + 1
    return out[["query_id", id_col, "dist2", "rnk"]]


def ivfpq_topk(
    ds: Dataset,
    queries: np.ndarray,
    coarse: np.ndarray,
    pq_cents: np.ndarray,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 10,
    nprobe: int = 4,
    quant: int = 1000,
) -> pd.DataFrame:
    """IVF-pruned ADC scan — the one-operator 100-TB ANN story: each
    query visits only its ``nprobe`` closest coarse cells, and within
    them distances come from M integer LUT gathers over the residual PQ
    codes (never a float vector).  Broadcast = coarse matrix + codebook
    + the (nq, nprobe, M, pq_k) int64 LUTs (LUT m for probed cell j is
    the exact squared-L2 from the query RESIDUAL ``(q - c_j)`` subvector
    to every codeword).  Partials are k-bounded per (query, block); the
    driver merge is k x blocks.  Output: (query_id, vec_id, dist2, rnk)
    with ties on ascending vec_id — deterministic at any partitioning;
    the distances are approximate BY DESIGN (PQ reconstruction error),
    so correctness is a recall contract, not a value hash."""
    q = quantize(np.asarray(queries, dtype=np.float64), quant)
    nq, d = q.shape
    M = pq_cents.shape[0]
    pq_k = pq_cents.shape[1]
    bounds = _subspace_bounds(d, M)
    n_cells = coarse.shape[0]
    # probed cells: exact int L2, stable argsort -> lowest cell id ties
    qf, cf = q.astype(np.float64), coarse.astype(np.float64)
    d2q = (
        (qf * qf).sum(axis=1)[:, None]
        - 2.0 * (qf @ cf.T)
        + (cf * cf).sum(axis=1)[None, :]
    )
    probe = np.argsort(d2q, axis=1, kind="stable")[:, :nprobe]
    # residual LUTs: (nq, nprobe, M, pq_k)
    luts = np.empty((nq, nprobe, M, pq_k), dtype=np.int64)
    for qi in range(nq):
        qres = q[qi][None, :] - coarse[probe[qi]]  # (nprobe, d)
        for m, (lo, hi) in enumerate(bounds):
            diff = qres[:, None, lo:hi] - pq_cents[m][None, :, :]
            luts[qi, :, m, :] = (diff * diff).sum(axis=2)
    ctx = ray.put((coarse, pq_cents, probe, luts))

    def local_topk(batch: pa.Table, *, _ctx=ctx) -> pd.DataFrame:
        from .broadcast import cached_get

        cm, pqc, pr, tables = cached_get(_ctx)
        x = _batch_matrix(batch, vec_col, quant)
        a = _assign(x, cm)
        codes = _encode_matrix(x - cm[a], pqc)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        out_q, out_id, out_d = [], [], []
        for qi in range(pr.shape[0]):
            slot = np.full(n_cells, -1, dtype=np.int64)
            slot[pr[qi]] = np.arange(pr.shape[1])
            s = slot[a]
            sel = s >= 0
            if not sel.any():
                continue
            ss = s[sel]
            dist = np.zeros(len(ss), dtype=np.int64)
            for m in range(M):
                dist += tables[qi, ss, m, codes[sel, m]]
            cids = ids[sel]
            order = np.lexsort((cids, dist))[: min(k, len(ss))]
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_id.append(cids[order])
            out_d.append(dist[order])
        if not out_q:
            return pd.DataFrame(
                {
                    "query_id": np.array([], dtype=np.int64),
                    id_col: np.array([], dtype=np.int64),
                    "dist2": np.array([], dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "query_id": np.concatenate(out_q),
                id_col: np.concatenate(out_id),
                "dist2": np.concatenate(out_d),
            }
        )

    cand = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if len(cand) == 0:
        return pd.DataFrame(
            {
                "query_id": pd.Series([], dtype="int64"),
                id_col: pd.Series([], dtype="int64"),
                "dist2": pd.Series([], dtype="int64"),
                "rnk": pd.Series([], dtype="int64"),
            }
        )
    cand = cand.sort_values(
        ["query_id", "dist2", id_col], kind="mergesort"
    ).reset_index(drop=True)
    out = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rnk"] = out.groupby("query_id").cumcount().astype(np.int64) + 1
    return out[["query_id", id_col, "dist2", "rnk"]]


def ivfpq_store(
    codes_ds: Dataset, out_dir: str, num_partitions: int = 16
) -> dict:
    """Persist an :func:`ivfpq_encode` table cell-partitioned via the
    range-partitioned sink (functions/partitioned_sink.py): one directory per
    cell range with a row-count manifest, so a search touching nprobe
    cells reads ONLY their covering partitions — the storage-layer data
    skipping a 10^12-vector index needs (the in-memory
    :func:`ivfpq_search_codes` still scans every block it is given).

    The M-wide ``codes`` list is stored as M plain int64 columns
    (``code0..code{M-1}``): column-per-subquantizer is the natural
    Parquet layout for ADC (each LUT gather reads one column), and it
    keeps the sink's pandas tag stage extension-dtype-free (a
    fixed-size-list column round-tripped through a pandas block embeds
    a ``numpy.ndarray(...)`` dtype string in the Parquet pandas
    metadata that pyarrow cannot re-parse on read)."""
    from .partitioned_sink import write_range_partitioned

    def split_codes(b: pa.Table) -> pa.Table:
        codes = b.column("codes")
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        m = codes.type.list_size
        flat = codes.values.to_numpy(zero_copy_only=False).reshape(-1, m)
        cols = {
            name: b.column(name)
            for name in b.column_names
            if name != "codes"
        }
        for j in range(m):
            cols[f"code{j}"] = pa.array(flat[:, j], pa.int64())
        return pa.table(cols)

    return write_range_partitioned(
        codes_ds.map_batches(
            split_codes, batch_format="pyarrow", zero_copy_batch=True
        ),
        out_dir,
        "cell",
        num_partitions=num_partitions,
    )


def ivfpq_search_stored(
    out_dir: str,
    queries: np.ndarray,
    coarse: np.ndarray,
    pq_cents: np.ndarray,
    *,
    id_col: str = "vec_id",
    k: int = 10,
    nprobe: int = 4,
    quant: int = 1000,
) -> pd.DataFrame:
    """ADC top-k over a cell-partitioned :func:`ivfpq_store` directory,
    reading only the partitions that can contain the probed cells
    (manifest-pruned ranges over contiguous cell runs).  Returns exactly
    what :func:`ivfpq_search_codes` returns over the full table — the
    extra rows a covering partition may contribute belong to unprobed
    cells and are masked out per query inside the scan."""
    from .partitioned_sink import read_key_range

    q = quantize(np.asarray(queries, dtype=np.float64), quant)
    qf, cf = q.astype(np.float64), coarse.astype(np.float64)
    d2q = (
        (qf * qf).sum(axis=1)[:, None]
        - 2.0 * (qf @ cf.T)
        + (cf * cf).sum(axis=1)[None, :]
    )
    probe = np.argsort(d2q, axis=1, kind="stable")[:, :nprobe]
    cells = np.unique(probe)
    # contiguous cell runs -> one pruned range read per run
    runs: list[tuple[int, int]] = []
    lo = prev = int(cells[0])
    for c in cells[1:]:
        c = int(c)
        if c == prev + 1:
            prev = c
            continue
        runs.append((lo, prev))
        lo = prev = c
    runs.append((lo, prev))
    parts = [read_key_range(out_dir, lo, hi) for lo, hi in runs]
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)

    M = pq_cents.shape[0]

    def to_arrow(b: pd.DataFrame, *, _M=M) -> pa.Table:
        # rebuild the M-wide codes list from the stored code0..code{M-1}
        # int columns (see ivfpq_store); handles the zero-row batches a
        # clipped covering partition can contribute
        if len(b) == 0:
            flat = np.array([], dtype=np.int64)
            ids = cells_np = flat
        else:
            flat = np.stack(
                [b[f"code{j}"].to_numpy().astype(np.int64) for j in range(_M)],
                axis=1,
            ).reshape(-1)
            ids = b[id_col].to_numpy().astype(np.int64)
            cells_np = b["cell"].to_numpy().astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cell": pa.array(cells_np, pa.int64()),
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(flat, pa.int64()), _M
                ),
            }
        )

    arrow_ds = ds.map_batches(to_arrow, batch_format="pandas")
    return ivfpq_search_codes(
        arrow_ds, queries, coarse, pq_cents,
        id_col=id_col, k=k, nprobe=nprobe, quant=quant,
    )
