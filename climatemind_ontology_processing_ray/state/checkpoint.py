"""Stage-boundary checkpointing with per-partition lineage.

The reference's only resume point is the ``output.csv`` handoff between
its two phases (``process_new_ontology_file.py:20-26``); this generalizes
it (north_rule: "resumable from checkpoint with per-partition lineage +
metrics so a killed run restarts from the last completed stage").

The KG pipeline checkpoints two stages: ``partials`` (the fused front
end's map-side partials, as their blocks stream to the driver fold) and
``canonical_edges`` (the fold's output); extracted text is recomputed from
the pages, since no resume reads it.  One writer persists both, on the
driver with pyarrow: :meth:`CheckpointManager.stream` passes a stage's
blocks on to its consumer and writes each non-empty block as one part
file.  Layout per stage::

    <root>/<stage>/part-*.parquet        (written to <stage>.tmp, then renamed)
    <root>/<stage>/_MANIFEST.json        {stage, key, rows, files:[{path, rows, md5}], ...}

The ``canonical_edges`` manifest also records ``digest``, the cell digest
of the stage's table (``_digest_block``), computed once, as the stage is
written by :meth:`CheckpointManager.stage_table`.

A stage without rows has no part files and a manifest with ``rows: 0``
and ``files: []``.  Parts keep Arrow's list naming (a list's item field is
``item``, not Parquet's ``element``), so a part reads back as the type it
was written with: a hit yields the tables a miss yielded, and a run
publishes the same bytes with a checkpoint dir as without one.

A stage whose manifest matches the run key is *not* recomputed: ``stream``
yields its files row group by row group (none for a stage without rows);
hit counters are exposed for tests.  The manifest is written only once the
stream is exhausted, then the tmp dir is renamed into place, so a kill (or
a consumer that stops early) mid-stream leaves no manifest and the stage
re-runs cleanly.

The run key (``pipelines/kg.py``) is a format tag, ``RUN_KEY``, and a
fingerprint of the corpus, the ontology and the output config.  The last
stage, publish (``pipelines/api.py:process_pages``), is keyed on the
``canonical_edges`` manifest: its run key and its recorded ``digest``,
plus ``emit_mentions`` and the package version.  A hit of
``stage_table`` reads no part file until its table is asked for, so a
run whose published manifest has the same key and verifies file by file
reads only manifests and writes nothing.  Otherwise publish builds every
output from the stage's driver-side table (pyarrow, no Ray job), writes
them as one set under ``<output_dir>/_sets/<id>/``, sealed by the set's
``_PUBLISH.json``, and makes it live by one rename of the
``<output_dir>/_current`` link, through which every output name links
(``state/publish.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Callable, Iterable, Iterator

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data import Schema

from .publish import file_md5

_DIGEST_MOD = 1 << 128
# a length prefix no cell can have: a null hashes apart from every value
_NULL_CELL = b"\xff" * 8


def _digest_block(batch: pa.Table) -> pa.Table:
    """One row: the block's row count, its schema and the sum mod 2**128 of
    each row's 128-bit blake2b over its length-prefixed cells (a null cell
    is a prefix alone, ``_NULL_CELL``).  A sum is blind to row order and
    to how rows fall into blocks."""
    total = 0
    for row in zip(*(c.to_pylist() for c in batch.columns)):
        h = hashlib.blake2b(digest_size=16)
        for v in row:
            if v is None:
                h.update(_NULL_CELL)
                continue
            if isinstance(v, str):
                v = v.encode()
            elif not isinstance(v, bytes):
                v = repr(v).encode()
            h.update(len(v).to_bytes(8, "little"))
            h.update(v)
        total += int.from_bytes(h.digest(), "little")
    return pa.table(
        {
            "rows": [batch.num_rows],
            "digest": [str(total % _DIGEST_MOD)],
            "schema": [str(Schema(batch.schema))],
        }
    )


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

    def manifest(self, stage: str) -> dict | None:
        """The stage's manifest, if it has a readable one."""
        if not self.root:
            return None
        try:
            with open(self._paths(stage)[2]) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None

    def _hit(self, stage: str) -> dict | None:
        """The stage's manifest if the stage is complete under the run key."""
        m = self.manifest(stage)
        return m if m and m.get("key") == self.run_key and m.get("complete") else None

    def stream(
        self, stage: str, blocks: Callable[[], Iterable[pa.Table]]
    ) -> Iterator[pa.Table]:
        """The stage's blocks, lazily: nothing is read, run or recorded
        until the first one is asked for.  A hit yields the stage's files
        row group by row group.  A miss yields ``blocks()``, writing each
        non-empty block as one part file into the tmp dir; once they are
        exhausted the manifest records the files and the tmp dir is renamed
        into place.  With no checkpoint root it is ``blocks()``."""
        return self._stream(stage, blocks, digest=False)

    def _read(self, stage: str, manifest: dict) -> Iterator[pa.Table]:
        """The row groups of the stage's files, in manifest order."""
        for f in manifest["files"]:
            with pq.ParquetFile(os.path.join(self._paths(stage)[0], f["path"])) as part:
                for i in range(part.num_row_groups):
                    yield part.read_row_group(i)

    def _stream(
        self, stage: str, blocks: Callable[[], Iterable[pa.Table]], digest: bool
    ) -> Iterator[pa.Table]:
        """:meth:`stream`; with ``digest``, a miss also records the sum of
        its blocks' ``_digest_block`` digests, the digest of their
        concatenation, as the manifest's ``digest``."""
        if not self.root:
            self.misses.append(stage)
            yield from blocks()
            return
        stage_dir, tmp_dir, _ = self._paths(stage)
        manifest = self._hit(stage)
        if manifest:
            self.hits.append(stage)
            yield from self._read(stage, manifest)
            return
        self.misses.append(stage)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(stage_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        t0 = time.perf_counter()
        files = []  # per-partition lineage record
        cells = 0
        for block in blocks():
            if block.num_rows:
                name = f"part-{len(files):05d}.parquet"
                path = os.path.join(tmp_dir, name)
                pq.write_table(block, path, use_compliant_nested_type=False)
                files.append({"path": name, "rows": block.num_rows, "md5": file_md5(path)})
                if digest:
                    cells += int(_digest_block(block).column("digest")[0].as_py())
            yield block
        elapsed = time.perf_counter() - t0
        total = sum(f["rows"] for f in files)
        manifest = {
            "stage": stage,
            "key": self.run_key,
            "complete": True,
            "rows": total,
            "elapsed_sec": round(elapsed, 3),
            "rows_per_sec": round(total / elapsed, 1) if elapsed > 0 else None,
            "files": files,
        }
        if digest:
            manifest["digest"] = str(cells % _DIGEST_MOD)
        with open(os.path.join(tmp_dir, "_MANIFEST.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        os.rename(tmp_dir, stage_dir)  # atomic finalize

    def stage(
        self, stage: str, compute: Callable[[], "ray.data.Dataset"]
    ) -> "ray.data.Dataset":
        """The stage as a Dataset read from its checkpoint with
        ``ray.data.read_parquet`` (no files: an empty Dataset); a miss first
        streams ``compute()``'s blocks through :meth:`stream`'s writer.
        With no checkpoint root it is ``compute()``, fully lazy."""
        if not self.root:
            self.misses.append(stage)
            return compute()
        if self._hit(stage):
            self.hits.append(stage)
        else:
            blocks = lambda: compute().iter_batches(batch_format="pyarrow", batch_size=None)
            for _ in self.stream(stage, blocks):
                pass
        if not self.manifest(stage)["files"]:
            return ray.data.from_items([])
        return ray.data.read_parquet(self._paths(stage)[0])

    def stage_table(
        self, stage: str, compute: Callable[[], pa.Table]
    ) -> Callable[[], pa.Table]:
        """The one table ``compute()`` returns, checkpointed, behind a
        loader.  A miss runs ``compute()`` now and writes its table through
        :meth:`stream`'s writer, with the table's cell digest in the
        manifest (``digest``); the loader returns the table.  A hit is
        recorded now and reads nothing: the loader reads the stage's files
        (a stage without rows: no rows and no columns)."""
        manifest = self._hit(stage)
        if not manifest:
            (table,) = self._stream(stage, lambda: [compute()], digest=True)
            return lambda: table
        self.hits.append(stage)

        def load() -> pa.Table:
            tables = list(self._read(stage, manifest))
            return pa.concat_tables(tables) if tables else pa.table({})

        return load

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
