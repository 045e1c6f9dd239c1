"""Range-partitioned sink: pruned reads, key-order correctness, layout."""

import json
import os

import pandas as pd
import pytest

import ray.data as rd

from climatemind_ontology_processing_ray.functions.partitioned_sink import (
    lookup_key,
    read_key_range,
    write_range_partitioned,
)
from climatemind_ontology_processing_ray.functions.partitioned_sink import (
    MANIFEST,
    _covering_ranges,
)


class Killed(Exception):
    """Stands in for a process kill at an injected point."""


def _store(tmp_path, df, key, parts=4):
    out = str(tmp_path / "store")
    manifest = write_range_partitioned(
        rd.from_pandas(df).repartition(3), out, key, num_partitions=parts
    )
    return out, manifest


class TestRangePartitionedSink:
    def test_roundtrip_and_range_read(self, ray_session, tmp_path):
        df = pd.DataFrame(
            {"k": [f"key{i:03d}" for i in range(100)], "v": range(100)}
        )
        out, manifest = _store(tmp_path, df, "k")
        assert sum(p["rows"] for p in manifest["partitions"].values()) == 100

        got = read_key_range(out, "key010", "key019").to_pandas()
        assert sorted(got.k) == [f"key{i:03d}" for i in range(10, 20)]

    def test_pruning_skips_partitions(self, ray_session, tmp_path):
        df = pd.DataFrame(
            {"k": [f"key{i:03d}" for i in range(100)], "v": range(100)}
        )
        out, manifest = _store(tmp_path, df, "k")
        assert len(manifest["partitions"]) > 1
        # a narrow probe must cover fewer partitions than exist
        covered = _covering_ranges(manifest, "key000", "key001")
        assert 0 < len(covered) < len(manifest["partitions"])

    def test_point_lookup_and_misses(self, ray_session, tmp_path):
        df = pd.DataFrame({"k": list("bdfh"), "v": [1, 2, 3, 4]})
        out, _ = _store(tmp_path, df, "k", parts=2)
        assert lookup_key(out, "d").to_pandas().v.tolist() == [2]
        assert len(lookup_key(out, "z").to_pandas()) == 0

    def test_integer_keys_numeric_order(self, ray_session, tmp_path):
        # 2 < 10 numerically but "10" < "2" as strings: pruning must use
        # KEY order (native JSON boundaries), not string order
        df = pd.DataFrame({"k": [1, 2, 3, 9, 10, 11, 100], "v": range(7)})
        out, _ = _store(tmp_path, df, "k", parts=3)
        got = read_key_range(out, 9, 100).to_pandas()
        assert sorted(got.k) == [9, 10, 11, 100]

    def test_manifest_on_disk(self, ray_session, tmp_path):
        df = pd.DataFrame({"k": list("abc"), "v": [1, 2, 3]})
        out, manifest = _store(tmp_path, df, "k", parts=2)
        with open(os.path.join(out, MANIFEST)) as f:
            assert json.load(f) == manifest


class TestCompaction:
    def test_compact_reduces_files_preserves_rows(self, ray_session, tmp_path):
        import os

        import ray.data as rd

        from climatemind_ontology_processing_ray.functions.partitioned_sink import (
            compact_partitions,
            read_key_range,
            write_range_partitioned,
        )

        df = pd.DataFrame(
            {"k": [f"key{i:04d}" for i in range(400)], "v": range(400)}
        )
        out = str(tmp_path / "store")
        # many small blocks -> many small files per range
        write_range_partitioned(
            rd.from_pandas(df).repartition(16), out, "k", num_partitions=4
        )
        before = read_key_range(out, "key0000", "key9999").to_pandas()
        n_files_before = sum(
            1
            for d in os.listdir(out)
            if d.startswith("__range=")
            for f in os.listdir(os.path.join(out, d))
            if f.endswith(".parquet")
        )
        report = compact_partitions(out, target_rows_per_file=10_000)
        n_files_after = sum(
            1
            for d in os.listdir(out)
            if d.startswith("__range=")
            for f in os.listdir(os.path.join(out, d))
            if f.endswith(".parquet")
        )
        assert n_files_after < n_files_before
        assert all(m["files_after"] <= m["files_before"] for m in report.values())
        # identical content after the swap, through the pruned reader
        after = read_key_range(out, "key0000", "key9999").to_pandas()
        pd.testing.assert_frame_equal(
            before.sort_values("k").reset_index(drop=True)[["k", "v"]],
            after.sort_values("k").reset_index(drop=True)[["k", "v"]],
        )
        # point lookups still hit
        from climatemind_ontology_processing_ray.functions.partitioned_sink import lookup_key

        assert lookup_key(out, "key0123").to_pandas().v.tolist() == [123]

    @pytest.mark.parametrize("staged_complete", [True, False])
    def test_kill_between_swap_renames_is_repaired(
        self, ray_session, tmp_path, monkeypatch, staged_complete
    ):
        """A kill after ``part -> part.old`` but before ``staged -> part``
        leaves no live partition directory.  The next read or compaction
        repairs it: the staged set rolls forward when it holds the
        manifest's rows, else ``.old`` is restored.  Either way every row
        is found and no ``.old`` / ``.compact.tmp`` dir is left."""
        from climatemind_ontology_processing_ray.functions.partitioned_sink import (
            compact_partitions,
        )

        df = pd.DataFrame({"k": [f"key{i:04d}" for i in range(400)], "v": range(400)})
        out = str(tmp_path / "store")
        write_range_partitioned(rd.from_pandas(df).repartition(16), out, "k", num_partitions=4)

        real_replace = os.replace

        def killed(src, dst):
            if str(src).endswith(".compact.tmp"):
                raise Killed("between the two renames")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(Killed):
            compact_partitions(out, target_rows_per_file=10_000)
        monkeypatch.setattr(os, "replace", real_replace)

        live = sorted(d for d in os.listdir(out) if d.startswith("__range="))
        broken = [d for d in live if d.endswith(".old")]
        assert len(broken) == 1  # the first range lost its live dir
        rid_dir = os.path.join(out, broken[0][: -len(".old")])
        assert not os.path.exists(rid_dir)
        staged = rid_dir + ".compact.tmp"
        if not staged_complete:  # a staged set cut short by the kill
            victim = sorted(f for f in os.listdir(staged) if f.endswith(".parquet"))[0]
            os.remove(os.path.join(staged, victim))

        got = read_key_range(out, "key0000", "key9999").to_pandas()
        assert sorted(got.v) == list(range(400))
        compact_partitions(out, target_rows_per_file=10_000)
        assert sorted(read_key_range(out, "key0000", "key9999").to_pandas().v) == list(range(400))
        assert not [d for d in os.listdir(out) if d.endswith((".old", ".tmp"))]
