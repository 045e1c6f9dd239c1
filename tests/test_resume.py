"""Checkpoint/resume: killed runs restart from the last completed stage
(FIXTURES.md §6 kill_matrix; north_rule resumability)."""

import os

import pytest

from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline
from climatemind_ontology_processing_ray.sources.pages import generate_pages

STAGES = ["partials", "canonical_edges"]


def _run(table, snapshot, ckpt_dir):
    import ray.data

    cfg = KGConfig(
        batch_size=64,
        checkpoint_dir=ckpt_dir,
        run_key="test-run",
    )
    pages = ray.data.from_arrow(table).repartition(4)
    res = run_kg_pipeline(pages, snapshot, cfg)
    rows = res.canonical_edges.take_all()
    key = lambda r: (r["subject"], r["object"], r["predicate"])
    return sorted((key(r), r["support"]) for r in rows), res.checkpoints


@pytest.fixture(scope="module")
def table(snapshot):
    t, _ = generate_pages(snapshot, 200, seed=21)
    return t


def test_fresh_run_then_full_resume(ray_session, snapshot, table, tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("ckpt"))
    out1, mgr1 = _run(table, snapshot, ckpt)
    assert mgr1.hits == [] and mgr1.misses == STAGES
    # manifests carry per-partition lineage
    m = mgr1.manifest("canonical_edges")
    assert m["complete"] and m["rows"] == len(out1)
    assert all("rows" in f for f in m["files"])

    out2, mgr2 = _run(table, snapshot, ckpt)
    assert mgr2.hits == STAGES and mgr2.misses == []
    assert out1 == out2  # byte-equivalent results without recompute

    # flat per-partition lineage/metrics table across all stages
    lineage = mgr2.lineage()
    assert {r["stage"] for r in lineage} == set(STAGES)
    for r in lineage:
        assert r["md5"] and r["rows"] >= 0 and r["stage_elapsed_sec"] > 0
    canon_rows = sum(r["rows"] for r in lineage if r["stage"] == "canonical_edges")
    assert canon_rows == len(out1)


def test_kill_mid_stage_recovers(ray_session, snapshot, table, tmp_path_factory):
    """A stage killed mid-write (manifest absent) is recomputed; earlier
    completed stages are not."""
    import shutil

    ckpt = str(tmp_path_factory.mktemp("ckpt2"))
    out1, _ = _run(table, snapshot, ckpt)
    # simulate kill during canonical_edges write: wipe its finalized dir
    shutil.rmtree(os.path.join(ckpt, "canonical_edges"))
    out2, mgr = _run(table, snapshot, ckpt)
    assert mgr.hits == ["partials"]
    assert mgr.misses == ["canonical_edges"]
    assert out1 == out2


def test_stale_run_key_recomputes(ray_session, snapshot, table, tmp_path_factory):
    import ray.data

    ckpt = str(tmp_path_factory.mktemp("ckpt3"))
    _run(table, snapshot, ckpt)
    cfg = KGConfig(
        batch_size=64,
        checkpoint_dir=ckpt,
        run_key="DIFFERENT",
    )
    pages = ray.data.from_arrow(table).repartition(4)
    res = run_kg_pipeline(pages, snapshot, cfg)
    res.canonical_edges.take_all()
    assert res.checkpoints.hits == []


def test_task_failure_retried(ray_session, snapshot, table, tmp_path_factory):
    """Fault tolerance: a UDF that crashes once per worker process is
    retried (retry_exceptions) and the pipeline completes with correct,
    complete output."""
    import os

    import pyarrow as pa
    import ray
    import ray.data

    marker_dir = str(tmp_path_factory.mktemp("crash_markers"))

    def flaky_identity(batch: pa.Table) -> pa.Table:
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("crashed once")
            raise RuntimeError("injected one-shot failure")
        return batch

    ds = ray.data.from_arrow(table).repartition(4)
    out = ds.map_batches(
        flaky_identity,
        batch_format="pyarrow",
        retry_exceptions=True,
        max_retries=3,
    ).take_all()
    assert len(out) == table.num_rows


def test_changed_ontology_invalidates_checkpoints(
    ray_session, snapshot, table, tmp_path_factory
):
    """Same run_key but a different ontology snapshot must NOT resume from
    the old checkpoints (input fingerprint folded into the manifest key)."""
    import copy

    import ray.data

    from climatemind_ontology_processing_ray.ontology.fixture import (
        build_fixture_snapshot,
    )

    ckpt = str(tmp_path_factory.mktemp("ckpt4"))
    _run(table, snapshot, ckpt)
    other = build_fixture_snapshot(extra_chain_nodes=5)  # different ontology
    cfg = KGConfig(
        batch_size=64,
        checkpoint_dir=ckpt,
        run_key="test-run",
    )
    pages = ray.data.from_arrow(table).repartition(4)
    res = run_kg_pipeline(pages, other, cfg)
    res.canonical_edges.take_all()
    assert res.checkpoints.hits == []


def test_in_memory_corpus_fingerprint_covers_every_row(
    ray_session, snapshot, table, tmp_path_factory
):
    """An in-memory corpus is fingerprinted by a digest of all its rows:
    a corpus that differs from the checkpointed one only after row 64
    does not resume, and the same rows in another order do."""
    import pyarrow as pa

    ckpt = str(tmp_path_factory.mktemp("ckpt5"))
    _run(table, snapshot, ckpt)
    permuted = table.take(list(range(table.num_rows))[::-1])
    _, mgr = _run(permuted, snapshot, ckpt)
    assert mgr.hits == STAGES
    other_rows, _ = generate_pages(snapshot, 200, seed=22)
    late = pa.concat_tables([table.slice(0, 150), other_rows.slice(150, 50)])
    assert late.slice(0, 64).equals(table.slice(0, 64))
    _, mgr = _run(late, snapshot, ckpt)
    assert mgr.hits == []


def test_output_config_invalidates_checkpoints(
    ray_session, snapshot, table, tmp_path_factory
):
    """The run key folds in the config fields that change the output: a
    custom extractor class, then a changed ``link_threshold``, run into the
    default run's checkpoint dir do not resume its stages and return the
    edges of their own config."""
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    class OnlyCausesExtractor(TripleExtractor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            return out.filter(
                pa.compute.equal(out.column("predicate"), pa.scalar("causes_or_promotes"))
            )

    def run(ckpt, **changes):
        cfg = KGConfig(batch_size=64, checkpoint_dir=ckpt, run_key="test-run", **changes)
        res = run_kg_pipeline(ray.data.from_arrow(table).repartition(4), snapshot, cfg)
        rows = res.canonical_edges.take_all()
        key = lambda r: (r["subject"], r["object"], r["predicate"])
        return sorted((key(r), r["support"]) for r in rows), res.checkpoints

    ckpt = str(tmp_path_factory.mktemp("ckpt_cfg"))
    default, _ = run(ckpt)
    assert {k[2] for k, _ in default} != {"causes_or_promotes"}

    custom, mgr = run(ckpt, triple_extractor_cls=OnlyCausesExtractor)
    assert {"partials", "canonical_edges"} <= set(mgr.misses)
    assert custom and {k[2] for k, _ in custom} == {"causes_or_promotes"}

    strict, mgr = run(ckpt, link_threshold=0.95)
    assert {"partials", "canonical_edges"} <= set(mgr.misses)
    fresh, _ = run(str(tmp_path_factory.mktemp("ckpt_strict")), link_threshold=0.95)
    assert strict == fresh


def test_file_fingerprint_sees_subsecond_rewrite(ray_session, snapshot, table, tmp_path):
    """A pages file rewritten in place at the same size within the same
    whole second (its mtime differs only in nanoseconds) does not resume
    the old checkpoints."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    path = str(tmp_path / "pages.parquet")
    ckpt = str(tmp_path / "ckpt")
    cfg = KGConfig(batch_size=64, checkpoint_dir=ckpt, run_key="test-run")

    def write(t: pa.Table) -> None:
        pq.write_table(
            t, path, compression="none", use_dictionary=False, write_statistics=False
        )

    def run():
        res = run_kg_pipeline(ray.data.read_parquet(path), snapshot, cfg)
        res.canonical_edges.take_all()
        return res.checkpoints

    write(table)
    assert run().misses == STAGES
    before = os.stat(path)
    text = table.column("text").to_pylist()
    text[0] = ("X" if text[0][0] != "X" else "Y") + text[0][1:]
    write(table.set_column(table.column_names.index("text"), "text", pa.array(text)))
    sec, ns = divmod(before.st_mtime_ns, 10**9)
    mtime_ns = sec * 10**9 + (ns + 1 if ns < 10**9 - 1 else ns - 1)
    os.utime(path, ns=(before.st_atime_ns, mtime_ns))
    after = os.stat(path)
    assert after.st_size == before.st_size
    assert int(after.st_mtime) == int(before.st_mtime)
    assert after.st_mtime_ns != before.st_mtime_ns
    assert run().misses == STAGES


# --------------------------------------------------------------------- #
# publish: staged, committed under one manifest, skipped on a matching
# resume, repaired after a kill (state/publish.py)
# --------------------------------------------------------------------- #


class Killed(Exception):
    """Stands in for a process kill at an injected point."""


def _publish(table, snapshot, out, ckpt, emit_mentions=False):
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages

    cfg = KGConfig(
        batch_size=64,
        checkpoint_dir=ckpt,
        run_key="test-run",
    )
    pages = ray.data.from_arrow(table).repartition(4)
    return process_pages(pages, out, snapshot=snapshot, cfg=cfg, emit_mentions=emit_mentions)


def _patch_writers(monkeypatch, write) -> None:
    """Route both publish writers through ``write``: the driver-side table
    writer (edges, adjacency, nodes) and ``Dataset.write_parquet``
    (mentions, checkpoints)."""
    import ray.data

    from climatemind_ontology_processing_ray.pipelines import api

    monkeypatch.setattr(api, "_write_table", write)
    monkeypatch.setattr(ray.data.Dataset, "write_parquet", write)


def _outputs(out: str) -> dict:
    """Every published entry: a file's bytes, a Parquet dir's sorted rows
    (Ray names part files uniquely per run)."""
    import pyarrow.parquet as pq

    from climatemind_ontology_processing_ray.state import publish

    got = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == publish.MANIFEST:
            continue
        if os.path.isdir(path):
            got[name] = sorted(map(repr, pq.read_table(path).to_pylist()))
        else:
            with open(path, "rb") as f:
                got[name] = f.read()
    return got


def _identity(out: str) -> dict:
    """(inode, mtime_ns) of every file under ``out``."""
    ids = {}
    for d, _, names in os.walk(out):
        for name in names:
            st = os.stat(os.path.join(d, name))
            ids[os.path.relpath(os.path.join(d, name), out)] = (st.st_ino, st.st_mtime_ns)
    return ids


def _published_key(out: str) -> str | None:
    import json

    from climatemind_ontology_processing_ray.state import publish

    path = os.path.join(out, publish.MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        key = json.load(f)["key"]
    assert publish.verify(out, key) is not None, "published manifest does not verify"
    return key


@pytest.fixture(scope="module")
def published(ray_session, snapshot, table, tmp_path_factory):
    """A checkpoint dir and three uninterrupted publishes from it: ``old``
    (no mentions), ``new`` (with mentions) and ``old_again`` (a second
    run without mentions into a fresh dir)."""
    root = tmp_path_factory.mktemp("publish")
    ckpt = str(root / "ckpt")
    runs = {}
    for name, mentions in (("old", False), ("new", True), ("old_again", False)):
        out = str(root / name)
        art, paths = _publish(table, snapshot, out, ckpt, emit_mentions=mentions)
        runs[name] = {"out": out, "art": art, "paths": paths, "key": _published_key(out)}
    runs["ckpt"] = ckpt
    return runs


def test_publish_outputs_are_a_function_of_the_edge_set(published):
    """Two cold publishes of one checkpoint give byte-identical files
    (the graph pickles included) and row-identical Parquet dirs."""
    assert _outputs(published["old"]["out"]) == _outputs(published["old_again"]["out"])
    assert published["old"]["key"] == published["old_again"]["key"]
    assert published["old"]["key"] != published["new"]["key"]


def test_warm_publish_is_skipped(published, snapshot, table, monkeypatch):
    """A warm run with a checkpoint runs no publish job: every published
    file keeps its inode and mtime, the same paths come back and the
    graph equals the cold run's."""
    import networkx as nx

    out = published["old"]["out"]
    before = _identity(out)

    def no_write(*a, **k):
        raise AssertionError("a skipped publish wrote a table")

    _patch_writers(monkeypatch, no_write)
    art, paths = _publish(table, snapshot, out, published["ckpt"])
    assert _identity(out) == before
    assert paths == published["old"]["paths"]
    assert nx.utils.graphs_equal(art.G, published["old"]["art"].G)


@pytest.mark.parametrize("damage", ["delete", "alter", "extra_file"])
def test_damaged_output_forces_republish(
    published, snapshot, table, tmp_path, damage
):
    """A deleted, altered or added file under the published entries fails
    verification, so the next run publishes again and restores them."""
    import shutil

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out)
    if damage == "delete":
        os.remove(os.path.join(out, "output.csv"))
    elif damage == "alter":
        with open(os.path.join(out, "Climate_Mind_DiGraph.gpickle"), "ab") as f:
            f.write(b"\0")
    else:
        edges_dir = os.path.join(out, "canonical_edges")
        first = sorted(os.listdir(edges_dir))[0]
        shutil.copy(os.path.join(edges_dir, first), os.path.join(edges_dir, "dup.parquet"))
    _publish(table, snapshot, out, published["ckpt"])
    assert _published_key(out) == published["old"]["key"]
    assert _outputs(out) == _outputs(published["old"]["out"])


def test_flipping_emit_mentions_republishes(published, snapshot, table, tmp_path):
    """``emit_mentions`` is part of the publish key; turning it off again
    removes the stale ``mentions/``."""
    import shutil

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out)
    _, paths = _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)
    assert "mentions" in paths and os.listdir(paths["mentions"])
    assert _published_key(out) == published["new"]["key"]
    assert _outputs(out) == _outputs(published["new"]["out"])
    _, paths = _publish(table, snapshot, out, published["ckpt"], emit_mentions=False)
    assert "mentions" not in paths and not os.path.exists(os.path.join(out, "mentions"))
    assert _outputs(out) == _outputs(published["old"]["out"])


def test_without_checkpoint_every_run_publishes(ray_session, snapshot, table, tmp_path):
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages
    from climatemind_ontology_processing_ray.state import publish

    cfg = KGConfig(batch_size=64)
    out = str(tmp_path)
    manifests = []
    for _ in range(2):
        process_pages(ray.data.from_arrow(table).repartition(4), out, snapshot=snapshot, cfg=cfg)
        manifests.append(_identity(out)[publish.MANIFEST])
        assert publish.verify(out, None) is not None
    assert manifests[0] != manifests[1]


# a kill at each step of a publish that replaces ``old`` by ``new``:
# after each staged output (edges, adjacency and nodes by the table
# writer, the reference files, mentions by ``Dataset.write_parquet``), at
# each rename (staged manifest seal, the 8 entry moves, the
# manifest move) and after the commit before staging cleanup
KILL_POINTS = (
    [("staged_write", n) for n in range(1, 6)]
    + [("move", n) for n in range(1, 11)]
    + [("cleanup", 1)]
)


@pytest.mark.parametrize("point,n", KILL_POINTS)
def test_killed_publish_leaves_one_complete_set(
    published, snapshot, table, tmp_path, monkeypatch, point, n
):
    """After a kill at any publish step ``_PUBLISH.json`` is absent or
    verifies (and names the old or the new set); the next run repairs
    without manual cleanup and ends byte-identical to an uninterrupted
    run, with no staging directory left."""
    import shutil

    import ray.data

    from climatemind_ontology_processing_ray.pipelines import api
    from climatemind_ontology_processing_ray.state import publish

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out)
    calls = {"n": 0}

    def count_then_kill():
        calls["n"] += 1
        if calls["n"] == n:
            raise Killed(f"{point} {n}")

    if point == "staged_write":
        real_table, real_write = api._write_table, ray.data.Dataset.write_parquet
        real_artifacts = api.write_all_artifacts

        def write_table(*a, **k):
            path = real_table(*a, **k)
            count_then_kill()
            return path

        def write(self, *a, **k):
            real_write(self, *a, **k)
            count_then_kill()

        def artifacts(*a, **k):
            paths = real_artifacts(*a, **k)
            count_then_kill()
            return paths

        monkeypatch.setattr(api, "_write_table", write_table)
        monkeypatch.setattr(ray.data.Dataset, "write_parquet", write)
        monkeypatch.setattr(api, "write_all_artifacts", artifacts)
    elif point == "move":
        real_move = publish._move

        def move(src, dst):
            count_then_kill()
            real_move(src, dst)

        monkeypatch.setattr(publish, "_move", move)
    else:
        real_remove = publish._remove

        def remove(path):
            if path == publish.staging_dir(out):
                count_then_kill()
            real_remove(path)

        monkeypatch.setattr(publish, "_remove", remove)

    with pytest.raises(Killed):
        _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)
    monkeypatch.undo()

    assert _published_key(out) in (None, published["old"]["key"], published["new"]["key"])
    if point == "cleanup" or (point == "move" and n > 1):
        # the staged set was sealed: the next run rolls it forward (or
        # finds it committed), then finds it matching, so it writes no
        # table at all
        def no_write(*a, **k):
            raise AssertionError("a sealed staged set was not rolled forward")

        _patch_writers(monkeypatch, no_write)
    _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)
    monkeypatch.undo()
    assert not os.path.exists(publish.staging_dir(out))
    assert _published_key(out) == published["new"]["key"]
    assert _outputs(out) == _outputs(published["new"]["out"])


def test_cold_publish_writes_only_the_checkpoints(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """A cold checkpointed publish without mentions runs the two
    checkpoint writes and no Ray Data job after them: the back end works
    on the driver-side edge table.  The warm run writes no Dataset."""
    import ray.data

    calls = []
    real_write = ray.data.Dataset.write_parquet

    def write(self, path, *a, **k):
        calls.append(os.path.basename(path))
        return real_write(self, path, *a, **k)

    def no_collect(*a, **k):
        raise AssertionError("a checkpointed publish collected a Dataset")

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", write)
    monkeypatch.setattr(ray.data.Dataset, "to_arrow_refs", no_collect)
    monkeypatch.setattr(ray.data.Dataset, "to_pandas", no_collect)
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    _publish(table, snapshot, out, ckpt)
    assert calls == ["partials.tmp", "canonical_edges.tmp"]
    calls.clear()
    _publish(table, snapshot, out, ckpt)
    assert calls == []


def test_uncheckpointed_publish_runs_one_execution(
    ray_session, snapshot, table, tmp_path, ray_executions
):
    """Plan guard: without a checkpoint dir, ``process_pages`` collects the
    canonical edges in exactly one Ray Data execution (``to_arrow_refs``
    re-runs a lazy plan for its schema)."""
    _publish(table, snapshot, str(tmp_path / "out"), None)
    assert len(ray_executions) == 1, ray_executions


@pytest.mark.parametrize("case", ["no_english_page", "link_threshold_above_1"])
def test_empty_stages_checkpoint_and_publish(
    ray_session, snapshot, table, tmp_path, case
):
    """A run whose stages have no rows (no English page, or a link
    threshold no match reaches) checkpoints them as zero-row stages: the
    cold and the warm ``run_kg_pipeline`` and ``process_pages`` complete
    with no edges, and the warm runs hit every stage."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages

    if case == "no_english_page":
        table = table.filter(pc.not_equal(table.column("lang"), "en"))
        assert table.num_rows
        changes = {}
    else:
        changes = {"link_threshold": 1.01}
    cfg = KGConfig(
        batch_size=64, checkpoint_dir=str(tmp_path / "ckpt"), run_key="test-run", **changes
    )
    out = str(tmp_path / "out")

    def pages():
        return ray.data.from_arrow(table).repartition(4)

    for warm in (False, True):
        res = run_kg_pipeline(pages(), snapshot, cfg)
        assert res.canonical_edges.take_all() == []
        assert res.checkpoints.hits == (STAGES if warm else [])
        assert res.checkpoints.read_table("canonical_edges").num_rows == 0
        art, paths = process_pages(pages(), out, snapshot=snapshot, cfg=cfg)
        assert art.G.number_of_edges() == 0
        for name in ("canonical_edges", "adjacency"):
            assert pq.read_table(paths[name]).num_rows == 0
        assert _published_key(out) is not None
