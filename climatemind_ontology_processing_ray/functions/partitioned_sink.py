"""Range-partitioned Parquet sink with manifest-pruned reads.

The north_star's "sorted groupby materializing adjacency-list
partitions" made durable: output is split into key RANGES (one
directory per range, hive-style), each with its row count in a
manifest, so

- a failed run resumes by skipping completed ranges (the resumable-
  output rule: never one giant file),
- a point/range lookup reads ONLY the covering partitions (data
  skipping at the storage layer — at 10^12-document scale an adjacency
  probe must not scan the corpus),
- downstream jobs that join on the same key can align partitioning.

Boundaries come from a deterministic sample of the key column
(``functions/sample.deterministic_sample`` — content-addressed, so the
layout is stable across reruns and parallelism).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from ray.data import Dataset

MANIFEST = "_RANGE_MANIFEST.json"


def _boundaries(ds: Dataset, key_col: str, num_partitions: int) -> list:
    """num_partitions-1 split points from a deterministic key sample."""
    from .sample import deterministic_sample

    sample = list(
        deterministic_sample(
            ds.select_columns([key_col]), id_col=key_col, frac=0.3
        ).to_pandas()[key_col]
    )
    if not sample:
        return []
    qs = np.linspace(0, 1, num_partitions + 1)[1:-1]
    sample = sorted(sample)
    return sorted({sample[min(int(q * len(sample)), len(sample) - 1)] for q in qs})


def write_range_partitioned(
    ds: Dataset,
    out_dir: str,
    key_col: str,
    num_partitions: int = 16,
) -> dict:
    """Write ``ds`` under ``out_dir`` as one directory per key range.

    Returns (and persists) the manifest::

        {"key_col": ..., "boundaries": [...],
         "partitions": {"<id>": {"rows": n}}}

    Range id r covers keys in [boundaries[r-1], boundaries[r]) with the
    usual open ends.  Layout uses hive partitioning (``__range=<id>/``),
    written by Ray's parallel parquet writer.
    """
    import shutil

    bounds = _boundaries(ds, key_col, num_partitions)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__range"] = np.searchsorted(
            np.array(bounds, dtype=object), b[key_col].to_numpy(), side="right"
        ).astype(np.int32) if bounds else np.int32(0)
        return b

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    tagged = ds.map_batches(tag, batch_format="pandas")
    tagged.write_parquet(out_dir, partition_cols=["__range"])

    import pyarrow.parquet as pq

    partitions: dict[str, dict] = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("__range="):
            continue
        rid = name.split("=", 1)[1]
        rows = 0
        for f in os.listdir(os.path.join(out_dir, name)):
            if f.endswith(".parquet"):
                rows += pq.read_metadata(os.path.join(out_dir, name, f)).num_rows
        partitions[rid] = {"rows": rows}
    manifest = {
        "key_col": key_col,
        # native JSON values (str/int/float keys) so range pruning
        # compares in KEY order, not string order
        "boundaries": list(bounds),
        "partitions": partitions,
    }
    with open(os.path.join(out_dir, MANIFEST), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def _dir_rows(path: str) -> int:
    """Rows over the Parquet files in ``path``; -1 if one is unreadable
    (e.g. cut short by a kill)."""
    import pyarrow.parquet as pq

    try:
        return sum(
            pq.read_metadata(os.path.join(path, f)).num_rows
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
    except (OSError, ValueError):  # pyarrow.ArrowInvalid is a ValueError
        return -1


def _repair_partitions(out_dir: str, manifest: dict) -> None:
    """Finish or undo a compaction swap a kill interrupted.  A missing
    partition directory is replaced by its staged ``.compact.tmp`` when
    that holds the manifest's row count (roll forward), else by its
    ``.old`` copy; then stale ``.old`` / ``.compact.tmp`` dirs go."""
    import shutil

    for rid, meta in manifest["partitions"].items():
        part_dir = os.path.join(out_dir, f"__range={rid}")
        staging, old = part_dir + ".compact.tmp", part_dir + ".old"
        if not os.path.isdir(part_dir):
            if os.path.isdir(staging) and _dir_rows(staging) == int(meta["rows"]):
                os.replace(staging, part_dir)
            elif os.path.isdir(old):
                os.replace(old, part_dir)
        if os.path.isdir(part_dir):
            shutil.rmtree(staging, ignore_errors=True)
            shutil.rmtree(old, ignore_errors=True)


def _covering_ranges(manifest: dict, lo, hi) -> list[str]:
    """Partition ids whose key range intersects [lo, hi] (inclusive)."""
    bounds = manifest["boundaries"]
    ids = sorted(int(r) for r in manifest["partitions"])
    out = []
    for rid in ids:
        range_lo = bounds[rid - 1] if rid > 0 else None
        range_hi = bounds[rid] if rid < len(bounds) else None
        if range_hi is not None and lo >= range_hi:
            continue
        if range_lo is not None and hi < range_lo:
            continue
        out.append(str(rid))
    return out


def read_key_range(out_dir: str, lo, hi) -> Dataset:
    """Dataset over only the partitions that can contain keys in
    [lo, hi] (manifest-pruned; never scans the rest)."""
    import ray.data as rd

    with open(os.path.join(out_dir, MANIFEST)) as f:
        manifest = json.load(f)
    _repair_partitions(out_dir, manifest)
    dirs = [
        os.path.join(out_dir, f"__range={rid}")
        for rid in _covering_ranges(manifest, lo, hi)
        if manifest["partitions"][rid]["rows"] > 0
    ]
    key_col = manifest["key_col"]
    # a LIST of paths must be files, not directories (ray 2.49 reader)
    files = [
        os.path.join(d, f)
        for d in dirs
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    if not files:
        return rd.from_items([])
    ds = rd.read_parquet(files)

    def clip(b: pd.DataFrame) -> pd.DataFrame:
        if "__range" in b.columns:  # hive column, if the reader recovers it
            b = b.drop(columns="__range")
        keys = b[key_col]
        return b[(keys >= lo) & (keys <= hi)]

    return ds.map_batches(clip, batch_format="pandas")


def lookup_key(out_dir: str, key) -> Dataset:
    """Point lookup: reads the single covering partition."""
    return read_key_range(out_dir, key, key)


def compact_partitions(
    out_dir: str,
    target_rows_per_file: int = 1_000_000,
) -> dict:
    """Compact each range partition's small Parquet files into
    ~``target_rows_per_file``-row files — the operational answer to the
    small-files problem a long-running ingest accumulates (every
    incremental batch appends files; a 100-TB store with million-file
    partitions pays metadata + open() costs on every read).

    Per range: read the partition (parallel), coalesce to
    ceil(rows / target) blocks, write to a staging dir and swap it in
    with two renames (old -> ``.old``, staged -> live).  Row counts are
    re-verified against the manifest before the swap (a mismatch aborts
    that range).  A kill between the renames leaves no live directory;
    the next call (or read) repairs it first (``_repair_partitions``),
    so a crash mid-compact leaves either the old or the new complete
    layout, never a mix.
    Returns {range_id: {"files_before": n, "files_after": m}}."""
    import shutil

    import ray.data as rd

    with open(os.path.join(out_dir, MANIFEST)) as f:
        manifest = json.load(f)
    _repair_partitions(out_dir, manifest)
    report: dict[str, dict] = {}
    for rid, meta in sorted(manifest["partitions"].items()):
        part_dir = os.path.join(out_dir, f"__range={rid}")
        files = [f for f in os.listdir(part_dir) if f.endswith(".parquet")]
        rows = int(meta["rows"])
        n_out = max(1, -(-rows // target_rows_per_file))
        if len(files) <= n_out:
            report[rid] = {
                "files_before": len(files),
                "files_after": len(files),
            }
            continue
        staging = part_dir + ".compact.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        ds = rd.read_parquet(part_dir).repartition(n_out)
        ds.write_parquet(staging)
        got = _dir_rows(staging)
        if got != rows:
            shutil.rmtree(staging, ignore_errors=True)
            report[rid] = {
                "files_before": len(files),
                "files_after": len(files),
                "aborted": f"row mismatch {got} != {rows}",
            }
            continue
        old = part_dir + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.replace(part_dir, old)
        os.replace(staging, part_dir)
        shutil.rmtree(old, ignore_errors=True)
        report[rid] = {
            "files_before": len(files),
            "files_after": sum(
                1 for f in os.listdir(part_dir) if f.endswith(".parquet")
            ),
        }
    return report
