"""Stage-boundary checkpointing with per-partition lineage.

The reference's only resume point is the ``output.csv`` handoff between
its two phases (``process_new_ontology_file.py:20-26``); this generalizes
it (north_rule: "resumable from checkpoint with per-partition lineage +
metrics so a killed run restarts from the last completed stage").

The KG pipeline checkpoints two stages, ``partials`` (the fused front
end's map-side partials) and ``canonical_edges``; extracted text is
recomputed from the pages, since no resume reads it.  Layout per stage::

    <root>/<stage>/part-*.parquet        (written to <stage>.tmp, then renamed)
    <root>/<stage>/_MANIFEST.json        {stage, key, rows, files:[{path, rows, md5}], ...}

A stage without rows has no part files (Ray writes none) and a manifest
with ``rows: 0`` and ``files: []``; a hit on it is an empty Dataset and
``read_table`` gives a table with no rows and no columns.

A stage whose manifest matches the run key is *not* recomputed — it is
re-read with ``ray.data.read_parquet`` (hit counters exposed for tests).
The atomic tmp-dir rename means a kill mid-write leaves no manifest and
the stage re-runs cleanly.

The last stage, publish (``pipelines/api.py:process_pages``), is keyed on
the ``canonical_edges`` manifest (its run key, which folds in the corpus
and ontology fingerprints, and its file md5s), ``emit_mentions`` and the
package version.  It reads the canonical edges once on the driver with
``read_table("canonical_edges")`` (pyarrow, no Ray job) and builds every
output from that table.  Its outputs are staged and committed under one
``<output_dir>/_PUBLISH.json`` (``state/publish.py``); a run whose
``canonical_edges`` stage is a hit and whose published manifest has the
same key and verifies file by file writes nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .publish import file_md5


def _read(stage_dir: str, manifest: dict) -> "ray.data.Dataset":
    """A completed stage as a Dataset; a stage without rows lists no
    files and reads as an empty Dataset."""
    if not manifest["files"]:
        return ray.data.from_items([])
    return ray.data.read_parquet(stage_dir)


class CheckpointManager:
    def __init__(self, root: str | None, run_key: str = "default"):
        self.root = root
        self.run_key = run_key
        self.hits: list[str] = []
        self.misses: list[str] = []
        if root:
            os.makedirs(root, exist_ok=True)

    def _paths(self, stage: str) -> tuple[str, str, str]:
        stage_dir = os.path.join(self.root, stage)
        return stage_dir, stage_dir + ".tmp", os.path.join(stage_dir, "_MANIFEST.json")

    def stage(
        self, stage: str, compute: Callable[[], "ray.data.Dataset"]
    ) -> "ray.data.Dataset":
        """Return the stage's Dataset, from checkpoint if complete.

        With no checkpoint root the stage stays fully lazy (pure streaming
        execution, no materialization)."""
        if not self.root:
            self.misses.append(stage)
            return compute()
        stage_dir, tmp_dir, manifest_path = self._paths(stage)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path) as f:
                    manifest = json.load(f)
                if manifest.get("key") == self.run_key and manifest.get("complete"):
                    self.hits.append(stage)
                    return _read(stage_dir, manifest)
            except (OSError, json.JSONDecodeError):
                pass
        self.misses.append(stage)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(stage_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ds = compute()
        ds.write_parquet(tmp_dir)
        # Ray writes no file (and no directory) for a Dataset without
        # rows: the stage is then recorded with no files
        os.makedirs(tmp_dir, exist_ok=True)
        elapsed = time.perf_counter() - t0
        files = []
        total = 0
        for name in sorted(os.listdir(tmp_dir)):
            if not name.endswith(".parquet"):
                continue
            fpath = os.path.join(tmp_dir, name)
            n = pq.read_metadata(fpath).num_rows
            files.append({"path": name, "rows": n, "md5": file_md5(fpath)})
            total += n
        manifest = {
            "stage": stage,
            "key": self.run_key,
            "complete": True,
            "rows": total,
            "elapsed_sec": round(elapsed, 3),
            "rows_per_sec": round(total / elapsed, 1) if elapsed > 0 else None,
            "files": files,  # per-partition lineage record
        }
        with open(os.path.join(tmp_dir, "_MANIFEST.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        os.rename(tmp_dir, stage_dir)  # atomic finalize
        return _read(stage_dir, manifest)

    def manifest(self, stage: str) -> dict | None:
        if not self.root:
            return None
        _, _, manifest_path = self._paths(stage)
        if not os.path.exists(manifest_path):
            return None
        with open(manifest_path) as f:
            return json.load(f)

    def read_table(self, stage: str) -> pa.Table:
        """A completed stage's rows, read on the driver with pyarrow (no
        Ray job): the files its manifest lists (none: a table with no
        rows and no columns)."""
        stage_dir, _, _ = self._paths(stage)
        files = [os.path.join(stage_dir, f["path"]) for f in self.manifest(stage)["files"]]
        return pq.read_table(files)

    def lineage(self) -> "list[dict]":
        """Flat per-partition lineage/metrics table across all completed
        stages under this root: one record per checkpointed parquet
        partition (stage, run key, file, rows, md5, plus the stage's
        elapsed seconds and throughput).  The queryable audit surface the
        north_rule asks for — load with ``ray.data.from_items`` or pandas
        to join against outputs."""
        rows: list[dict] = []
        if not self.root:
            return rows
        for stage in sorted(os.listdir(self.root)):
            m = self.manifest(stage)
            if not m:
                continue
            for f in m.get("files", []):
                rows.append(
                    {
                        "stage": m["stage"],
                        "run_key": m["key"],
                        "file": f["path"],
                        "rows": f["rows"],
                        "md5": f.get("md5"),
                        "stage_elapsed_sec": m.get("elapsed_sec"),
                        "stage_rows_per_sec": m.get("rows_per_sec"),
                    }
                )
        return rows
