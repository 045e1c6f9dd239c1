"""Stage-boundary checkpointing with per-partition lineage.

The reference's only resume point is the ``output.csv`` handoff between
its two phases (``process_new_ontology_file.py:20-26``); this generalizes
it (north_rule: "resumable from checkpoint with per-partition lineage +
metrics so a killed run restarts from the last completed stage").

The KG pipeline checkpoints two stages, ``partials`` (the fused front
end's map-side partials, written by Ray with ``Dataset.write_parquet``:
:meth:`CheckpointManager.stage`) and ``canonical_edges`` (the driver fold
of the ``partials`` table, written with ``pq.write_table``:
:meth:`CheckpointManager.stage_table`); extracted text is recomputed from
the pages, since no resume reads it.  Layout per stage, the same for both
writers::

    <root>/<stage>/part-*.parquet        (written to <stage>.tmp, then renamed)
    <root>/<stage>/_MANIFEST.json        {stage, key, rows, files:[{path, rows, md5}], ...}

A stage without rows has no part files and a manifest with ``rows: 0``
and ``files: []``; a hit on it is an empty Dataset (``stage``) or a
table with no rows and no columns (``stage_table``, ``read_table``).

A stage whose manifest matches the run key is *not* recomputed — it is
re-read, with ``ray.data.read_parquet`` (``stage``) or pyarrow on the
driver (``stage_table``); hit counters are exposed for tests.  The atomic
tmp-dir rename means a kill mid-write leaves no manifest and the stage
re-runs cleanly.

The last stage, publish (``pipelines/api.py:process_pages``), is keyed on
the ``canonical_edges`` manifest's run key (which folds in the corpus,
ontology and config fingerprints), a digest of the edge table's cells,
``emit_mentions`` and the package version.  It builds every output from
the driver-side table that ``stage_table("canonical_edges", ...)``
returned (pyarrow, no Ray job).  Its outputs are staged and committed
under one ``<output_dir>/_PUBLISH.json`` (``state/publish.py``); a run
whose published manifest has the same key and verifies file by file
writes nothing.
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

    def ensure(self, stage: str, write: Callable[[str], None]) -> bool:
        """Make the stage complete under the run key and say whether it
        already was (a hit).  On a miss, ``write(tmp_dir)`` writes its
        parquet files, the manifest records them, and the tmp dir is
        renamed into place."""
        stage_dir, tmp_dir, manifest_path = self._paths(stage)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path) as f:
                    manifest = json.load(f)
                if manifest.get("key") == self.run_key and manifest.get("complete"):
                    self.hits.append(stage)
                    return True
            except (OSError, json.JSONDecodeError):
                pass
        self.misses.append(stage)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(stage_dir, ignore_errors=True)
        t0 = time.perf_counter()
        write(tmp_dir)
        # a stage without rows leaves no file (Ray not even the
        # directory): it is then recorded with no files
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
        return False

    def stage(
        self, stage: str, compute: Callable[[], "ray.data.Dataset"]
    ) -> "ray.data.Dataset":
        """Return the stage's Dataset, from checkpoint if complete; a miss
        runs ``compute()`` as one ``write_parquet``.

        With no checkpoint root the stage stays fully lazy (pure streaming
        execution, no materialization)."""
        if not self.root:
            self.misses.append(stage)
            return compute()
        self.ensure(stage, lambda tmp: compute().write_parquet(tmp))
        return _read(self._paths(stage)[0], self.manifest(stage))

    def stage_table(self, stage: str, compute: Callable[[], pa.Table]) -> pa.Table:
        """The driver-side counterpart of :meth:`stage`: ``compute()``
        returns a ``pa.Table``, which a miss writes with
        ``pq.write_table`` under the same tmp-dir + rename protocol and
        manifest.  Hit or miss, the stage comes back as :meth:`read_table`
        reads it, so a warm run sees the same table as the cold one.  With
        no checkpoint root it is ``compute()``."""
        if not self.root:
            self.misses.append(stage)
            return compute()

        def write(tmp_dir: str) -> None:
            table = compute()
            os.makedirs(tmp_dir)
            if table.num_rows:
                pq.write_table(table, os.path.join(tmp_dir, "part-0.parquet"))

        self.ensure(stage, write)
        return self.read_table(stage)

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
