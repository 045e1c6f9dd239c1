"""Checkpoint/resume: killed runs restart from the last completed stage
(FIXTURES.md §6 kill_matrix; north_rule resumability)."""

import os

import pytest

from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline
from climatemind_ontology_processing_ray.sources.pages import generate_pages

# in the order a run opens them: ``partials`` is opened only by the fold
# that a ``canonical_edges`` miss runs
STAGES = ["canonical_edges", "partials"]


def _run(table, snapshot, ckpt_dir):
    import ray.data

    cfg = KGConfig(checkpoint_dir=ckpt_dir)
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
    # the ``canonical_edges`` hit never opens ``partials``
    assert mgr2.hits == ["canonical_edges"] and mgr2.misses == []
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


def test_stale_run_key_recomputes(
    ray_session, snapshot, table, tmp_path_factory, monkeypatch
):
    """Checkpoints written under an older format tag miss under the
    current one (and the rerun's edges equal the first run's)."""
    from climatemind_ontology_processing_ray.pipelines import kg

    ckpt = str(tmp_path_factory.mktemp("ckpt3"))
    with monkeypatch.context() as m:
        m.setattr(kg, "RUN_KEY", "v1")
        old, mgr = _run(table, snapshot, ckpt)
    assert mgr.manifest("canonical_edges")["key"].startswith("v1:")
    out, mgr = _run(table, snapshot, ckpt)
    assert mgr.hits == [] and mgr.misses == STAGES
    assert mgr.manifest("canonical_edges")["key"].startswith(f"{kg.RUN_KEY}:")
    assert out == old


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
    """Same config but a different ontology snapshot must NOT resume from
    the old checkpoints (input fingerprint folded into the manifest key)."""
    import copy

    import ray.data

    from climatemind_ontology_processing_ray.ontology.fixture import (
        build_fixture_snapshot,
    )

    ckpt = str(tmp_path_factory.mktemp("ckpt4"))
    _run(table, snapshot, ckpt)
    other = build_fixture_snapshot(extra_chain_nodes=5)  # different ontology
    cfg = KGConfig(checkpoint_dir=ckpt)
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
    assert mgr.hits == ["canonical_edges"]
    other_rows, _ = generate_pages(snapshot, 200, seed=22)
    late = pa.concat_tables([table.slice(0, 150), other_rows.slice(150, 50)])
    assert late.slice(0, 64).equals(table.slice(0, 64))
    _, mgr = _run(late, snapshot, ckpt)
    assert mgr.hits == []


def test_digest_tells_a_null_from_the_string_none():
    """``_digest_block`` hashes a null cell apart from every value: a
    ``url`` that changes from null to ``"None"`` changes the digest, so a
    corpus fingerprinted by its rows does not resume from the other's
    checkpoint."""
    import pyarrow as pa

    from climatemind_ontology_processing_ray.pipelines.kg import _digest_block

    def digest(urls):
        return _digest_block(pa.table({"url": pa.array(urls, pa.string())}))

    assert not digest([None, "x"]).equals(digest(["None", "x"]))
    assert digest([None, "x"]).equals(digest(["x", None]))


def test_output_config_invalidates_checkpoints(
    ray_session, snapshot, table, tmp_path_factory, monkeypatch
):
    """The run key folds in the recipe values that change the output: a
    changed ``KGConfig.link_threshold``, run into the default run's
    checkpoint dir, does not resume its stages and returns the edges of
    its own recipe."""
    import ray.data

    def run(ckpt):
        cfg = KGConfig(checkpoint_dir=ckpt)
        res = run_kg_pipeline(ray.data.from_arrow(table).repartition(4), snapshot, cfg)
        rows = res.canonical_edges.take_all()
        key = lambda r: (r["subject"], r["object"], r["predicate"])
        return sorted((key(r), r["support"]) for r in rows), res.checkpoints

    ckpt = str(tmp_path_factory.mktemp("ckpt_cfg"))
    run(ckpt)
    monkeypatch.setattr(KGConfig, "link_threshold", 0.95)
    strict, mgr = run(ckpt)
    assert {"partials", "canonical_edges"} <= set(mgr.misses)
    fresh, _ = run(str(tmp_path_factory.mktemp("ckpt_strict")))
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
    cfg = KGConfig(checkpoint_dir=ckpt)

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

    cfg = KGConfig(checkpoint_dir=ckpt)
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
    """Every published entry, read through its name: a file's bytes, a
    Parquet dir's sorted rows (Ray names part files uniquely per run).
    ``_``-prefixed names (the manifest, the sets, ``_current``) and names
    that do not resolve are skipped."""
    import pyarrow.parquet as pq

    got = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.startswith("_") or not os.path.exists(path):
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


def _published_files(out: str):
    """(path relative to ``out``, path) of every file read through the
    output names: the walk follows their links and skips the top-level
    ``_``-prefixed dirs (``_sets``, ``_current``), whose set ids are
    random."""
    for d, dirs, names in os.walk(out, followlinks=True):
        if d == out:
            dirs[:] = [x for x in dirs if not x.startswith("_")]
        for name in names:
            yield os.path.relpath(os.path.join(d, name), out), os.path.join(d, name)


def _file_md5s(out: str) -> dict:
    """md5 of every published file but ``_PUBLISH.json``."""
    from climatemind_ontology_processing_ray.state import publish

    return {
        rel: publish.file_md5(path)
        for rel, path in _published_files(out)
        if rel != publish.MANIFEST
    }


def test_checkpoint_does_not_change_published_bytes(published, snapshot, table, tmp_path):
    """A cold checkpointed publish, a warm one (its edges read back from
    the checkpoint) and an uncheckpointed one write the same bytes: a
    checkpoint part reads back as the type it was written with."""
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages

    out = str(tmp_path / "nockpt")
    pages = ray.data.from_arrow(table).repartition(4)
    process_pages(pages, out, snapshot=snapshot, cfg=KGConfig())
    plain = _file_md5s(out)
    assert "canonical_edges/part-0.parquet" in plain and "adjacency/part-0.parquet" in plain
    assert _file_md5s(published["old"]["out"]) == plain
    assert _file_md5s(published["old_again"]["out"]) == plain


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


def test_warm_hit_reads_only_manifests(ray_session, snapshot, table, tmp_path, monkeypatch):
    """A warm run whose ``canonical_edges`` checkpoint hits and whose
    publish verifies digests no cell, opens no checkpoint part file and
    builds no graph; ``art`` builds the graph once, on its first field
    read, from the published edges, and pickles to the bytes of the cold
    run's eagerly built ``art``."""
    import pickle

    import pyarrow.parquet as pq
    import ray.data

    from climatemind_ontology_processing_ray.pipelines import kg
    from climatemind_ontology_processing_ray.pipelines.api import process_pages
    from climatemind_ontology_processing_ray.state import checkpoint

    path = str(tmp_path / "pages.parquet")
    pq.write_table(table, path)
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    cfg = KGConfig(checkpoint_dir=ckpt)
    cold, _ = process_pages(ray.data.read_parquet(path), out, snapshot, cfg)

    digests, opened, builds = [], [], []

    def spy(calls, real):
        def call(*a, **k):
            calls.append(a[0] if isinstance(a[0], str) else None)
            return real(*a, **k)

        return call

    monkeypatch.setattr(checkpoint, "_digest_block", spy(digests, checkpoint._digest_block))
    monkeypatch.setattr(kg, "_digest_block", spy(digests, kg._digest_block))
    monkeypatch.setattr(pq, "ParquetFile", spy(opened, pq.ParquetFile))
    monkeypatch.setattr(pq, "read_table", spy(opened, pq.read_table))
    monkeypatch.setattr(kg, "build_enriched_graph", spy(builds, kg.build_enriched_graph))
    managers = _managers(monkeypatch)
    before = _identity(out)

    art, paths = process_pages(ray.data.read_parquet(path), out, snapshot, cfg)
    assert (managers[-1].hits, managers[-1].misses) == (["canonical_edges"], [])
    assert digests == [] and builds == []
    assert not [p for p in opened if p is None or p.startswith(ckpt)], opened
    assert _identity(out) == before

    assert pickle.dumps(art.G) == pickle.dumps(cold.G)
    assert pickle.dumps(art.subgraphs) == pickle.dumps(cold.subgraphs)
    assert len(builds) == 1 and digests == []
    assert not [p for p in opened if p is None or p.startswith(ckpt)], opened
    assert os.path.realpath(os.path.join(out, "canonical_edges")) in opened
    assert art.adaptation_nodes == cold.adaptation_nodes
    assert pickle.dumps(pickle.loads(pickle.dumps(art)).B) == pickle.dumps(cold.B)
    assert len(builds) == 1


def _edges_digest(path: str) -> str:
    import pyarrow.parquet as pq

    from climatemind_ontology_processing_ray.state.checkpoint import _digest_block

    return _digest_block(pq.read_table(path)).column("digest")[0].as_py()


def test_manifest_records_the_published_edges_digest(
    ray_session, snapshot, table, tmp_path
):
    """The ``canonical_edges`` manifest's ``digest`` is the cell digest of
    the published edge table after a cold run, a warm run, and a run that
    recomputed a cleared checkpoint dir."""
    import shutil

    from climatemind_ontology_processing_ray.state import checkpoint

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    for clear in (False, False, True):
        if clear:
            shutil.rmtree(ckpt)
        _, paths = _publish(table, snapshot, out, ckpt)
        manifest = checkpoint.CheckpointManager(ckpt).manifest("canonical_edges")
        assert manifest["digest"] == _edges_digest(paths["canonical_edges"])


def test_cleared_checkpoint_does_not_republish(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """The publish key is a function of the edge table, not of the
    checkpoint's file names (which carry a per-write uuid): after the
    checkpoint dir is cleared, a rerun recomputes the checkpoints and
    leaves every published file, ``_PUBLISH.json`` included, with its
    inode and mtime."""
    import shutil

    from climatemind_ontology_processing_ray.pipelines import api

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    _publish(table, snapshot, out, ckpt)
    before, key = _identity(out), _published_key(out)
    shutil.rmtree(ckpt)

    def no_write(*a, **k):
        raise AssertionError("a skipped publish wrote a table")

    monkeypatch.setattr(api, "_write_table", no_write)
    _publish(table, snapshot, out, ckpt)
    assert os.listdir(ckpt), "the rerun did not recompute the checkpoints"
    assert _identity(out) == before
    assert _published_key(out) == key


@pytest.mark.parametrize("damage", ["delete", "alter", "extra_file"])
def test_damaged_output_forces_republish(
    published, snapshot, table, tmp_path, damage
):
    """A deleted, altered or added file under the published entries fails
    verification, so the next run publishes again and restores them."""
    import shutil

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out, symlinks=True)
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
    shutil.copytree(published["old"]["out"], out, symlinks=True)
    _, paths = _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)
    assert "mentions" in paths and os.listdir(paths["mentions"])
    assert _published_key(out) == published["new"]["key"]
    assert _outputs(out) == _outputs(published["new"]["out"])
    _, paths = _publish(table, snapshot, out, published["ckpt"], emit_mentions=False)
    assert "mentions" not in paths and not os.path.exists(os.path.join(out, "mentions"))
    assert _outputs(out) == _outputs(published["old"]["out"])


def test_mentions_part_names_are_a_function_of_the_corpus(
    published, snapshot, table, tmp_path
):
    """Two publishes of one corpus with ``emit_mentions`` list the same
    files in ``_PUBLISH.json``: ``mentions/`` parts are named by write task
    and block, with no per-write uuid, and have the same md5s."""
    import json

    from climatemind_ontology_processing_ray.state import publish

    out = str(tmp_path / "out")
    _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)

    def files(out):
        with open(os.path.join(out, publish.MANIFEST)) as f:
            return json.load(f)["files"]

    got = files(out)
    assert [name for name in got if name.startswith("mentions" + os.sep)]
    assert got == files(published["new"]["out"])


def test_checkpoint_of_the_previous_format_recomputes(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """A checkpoint dir written under ``v2``, whose manifests record no
    cell digest, misses: the next run recomputes both stages and publishes
    the same files, and the run after it is a warm skip."""
    import json

    from climatemind_ontology_processing_ray.pipelines import kg

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    with monkeypatch.context() as m:
        m.setattr(kg, "RUN_KEY", "v2")
        _publish(table, snapshot, out, ckpt)
    path = os.path.join(ckpt, "canonical_edges", "_MANIFEST.json")
    with open(path) as f:
        manifest = json.load(f)
    del manifest["digest"]
    with open(path, "w") as f:
        json.dump(manifest, f)
    old_key, old_md5s = _published_key(out), _file_md5s(out)

    managers = _managers(monkeypatch)
    _, paths = _publish(table, snapshot, out, ckpt)
    assert (managers[-1].hits, managers[-1].misses) == ([], STAGES)
    manifest = managers[-1].manifest("canonical_edges")
    assert manifest["key"].startswith(f"{kg.RUN_KEY}:") and kg.RUN_KEY != "v2"
    assert manifest["digest"] == _edges_digest(paths["canonical_edges"])
    assert _published_key(out) != old_key
    assert _file_md5s(out) == old_md5s

    before = _identity(out)
    _publish(table, snapshot, out, ckpt)
    assert (managers[-1].hits, managers[-1].misses) == (["canonical_edges"], [])
    assert _identity(out) == before


def test_earlier_layout_converts_once(published, snapshot, table, tmp_path):
    """A dir in the earlier layout (real entries at the names, a real
    ``_PUBLISH.json``, a leftover ``_publish.tmp/``) is converted by its
    first publish: every name becomes a link, the outputs equal an
    uninterrupted publish, the staging dir goes and a foreign file stays."""
    import shutil

    from climatemind_ontology_processing_ray.state import publish

    src, out = published["old"]["out"], str(tmp_path / "out")
    os.makedirs(os.path.join(out, "_publish.tmp", "canonical_edges"))
    for name in os.listdir(src):
        if name == publish.MANIFEST or not name.startswith("_"):
            copy = shutil.copytree if os.path.isdir(os.path.join(src, name)) else shutil.copy
            copy(os.path.join(src, name), os.path.join(out, name))
    with open(os.path.join(out, "notes.txt"), "w") as f:
        f.write("not an output")
    assert not any(os.path.islink(os.path.join(out, name)) for name in os.listdir(out))

    _, paths = _publish(table, snapshot, out, published["ckpt"], emit_mentions=True)
    rel = {k: os.path.relpath(p, out) for k, p in paths.items()}
    new_out = published["new"]["out"]
    assert rel == {k: os.path.relpath(p, new_out) for k, p in published["new"]["paths"].items()}
    names = {publish.MANIFEST} | {r.split(os.sep)[0] for r in rel.values()}
    assert all(os.path.islink(os.path.join(out, name)) for name in names)
    assert _published_key(out) == published["new"]["key"]
    got = _outputs(out)
    with open(os.path.join(out, "notes.txt")) as f:
        assert f.read() == "not an output"
    del got["notes.txt"]
    assert got == _outputs(new_out)
    assert not os.path.lexists(os.path.join(out, "_publish.tmp"))
    assert len(os.listdir(os.path.join(out, publish.SETS))) == 1


def test_publish_into_a_copy_made_through_the_links(published, snapshot, table, tmp_path):
    """A copy that follows the links holds a real ``_current/`` and real
    entries at the names; publishing into it converts it to links, and
    later publishes into it work too."""
    import shutil

    from climatemind_ontology_processing_ray.state import publish

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out)
    assert not os.path.islink(os.path.join(out, publish.CURRENT))
    for emit_mentions, want in ((True, "new"), (False, "old")):
        _publish(table, snapshot, out, published["ckpt"], emit_mentions=emit_mentions)
        assert os.path.islink(os.path.join(out, publish.CURRENT))
        assert os.path.islink(os.path.join(out, publish.MANIFEST))
        assert _published_key(out) == published[want]["key"]
        assert _outputs(out) == _outputs(published[want]["out"])
        assert len(os.listdir(os.path.join(out, publish.SETS))) == 1


def test_without_checkpoint_every_run_publishes(ray_session, snapshot, table, tmp_path):
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages
    from climatemind_ontology_processing_ray.state import publish

    cfg = KGConfig()
    out = str(tmp_path)
    manifests = []
    for _ in range(2):
        process_pages(ray.data.from_arrow(table).repartition(4), out, snapshot=snapshot, cfg=cfg)
        manifests.append(_identity(out)[publish.MANIFEST])
        assert publish.verify(out, None) is not None
    assert manifests[0] != manifests[1]


# a kill at each step of publishing ``new`` over ``old`` and then ``old``
# again: ``staged_write`` after each staged output of the first publish
# (edges, adjacency and nodes by the table writer, the reference files,
# mentions by ``Dataset.write_parquet``); ``move`` before each of the 10
# filesystem changes the two commits make (each: the seal's rename, the
# links, the ``_current`` swap, then repair's removals: ``old -> new``
# links ``mentions``, ``new -> old`` removes its dangling link);
# ``cleanup`` right after the first swap and again in the next run's
# repair, before it removes the replaced set
KILL_POINTS = (
    [("staged_write", n) for n in range(1, 6)]
    + [("move", n) for n in range(1, 11)]
    + [("cleanup", 1)]
)
_SEQUENCE = (("new", True), ("old", False))


def _kill_fs_change(monkeypatch, out: str, n: int) -> None:
    """Kill before the ``n``-th filesystem change under ``out`` (a rename,
    link or removal)."""
    import shutil

    calls = {"n": 0}

    def killing(real):
        def change(path, *a, **k):
            if any(str(p).startswith(out + os.sep) for p in (path, *a)):
                calls["n"] += 1
                if calls["n"] == n:
                    raise Killed(f"filesystem change {n}")
            return real(path, *a, **k)

        return change

    for mod, name in ((os, "replace"), (os, "symlink"), (os, "remove"), (shutil, "rmtree")):
        monkeypatch.setattr(mod, name, killing(getattr(mod, name)))


def _kill_staged_write(monkeypatch, n: int) -> None:
    """Kill right after the ``n``-th staged output is written."""
    import ray.data

    from climatemind_ontology_processing_ray.pipelines import api

    calls = {"n": 0}

    def count_then_kill():
        calls["n"] += 1
        if calls["n"] == n:
            raise Killed(f"staged write {n}")

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


def _assert_one_complete_set(published, out: str, src: str, dst: str) -> str:
    """The names read as the ``src`` or the ``dst`` set in full, and
    ``_PUBLISH.json`` verifies for that set; returns which one."""
    key = _published_key(out)
    assert key in (published[src]["key"], published[dst]["key"])
    got = src if key == published[src]["key"] else dst
    assert _outputs(out) == _outputs(published[got]["out"])
    return got


@pytest.mark.parametrize("point,n", KILL_POINTS)
def test_killed_publish_leaves_one_complete_set(
    published, snapshot, table, tmp_path, monkeypatch, point, n
):
    """Right after a kill at any publish step the names read as one
    complete set, the old or the new, whose ``_PUBLISH.json`` verifies;
    the next run repairs without manual cleanup and ends byte-identical
    to an uninterrupted run, with one set and no leftover."""
    import shutil

    from climatemind_ontology_processing_ray.state import publish

    out = str(tmp_path / "out")
    shutil.copytree(published["old"]["out"], out, symlinks=True)
    if point == "staged_write":
        _kill_staged_write(monkeypatch, n)
    else:
        _kill_fs_change(monkeypatch, out, n if point == "move" else 5)
    done = 0
    with pytest.raises(Killed):
        for _, emit in _SEQUENCE:
            _publish(table, snapshot, out, published["ckpt"], emit_mentions=emit)
            done += 1
    monkeypatch.undo()
    src, (dst, mentions) = "old" if done == 0 else "new", _SEQUENCE[done]
    got = _assert_one_complete_set(published, out, src, dst)

    if point == "cleanup":
        # the first swap is done: the next run's repair is killed before
        # it removes the replaced set
        assert got == dst
        _kill_fs_change(monkeypatch, out, 1)
        with pytest.raises(Killed):
            _publish(table, snapshot, out, published["ckpt"], emit_mentions=mentions)
        monkeypatch.undo()
        assert _assert_one_complete_set(published, out, src, dst) == dst
    if got == dst:
        # the swap was done: the next run finds the set published, so it
        # writes no table at all
        def no_write(*a, **k):
            raise AssertionError("a committed set was published again")

        _patch_writers(monkeypatch, no_write)
    _publish(table, snapshot, out, published["ckpt"], emit_mentions=mentions)
    monkeypatch.undo()
    assert _published_key(out) == published[dst]["key"]
    assert _outputs(out) == _outputs(published[dst]["out"])
    assert len(os.listdir(os.path.join(out, publish.SETS))) == 1
    assert sorted(name for name in os.listdir(out) if name.startswith("_")) == [
        publish.MANIFEST,
        publish.CURRENT,
        publish.SETS,
    ]
    assert all(os.path.exists(os.path.join(out, name)) for name in os.listdir(out))


def test_cold_publish_writes_only_the_checkpoints(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """A checkpointed publish without mentions writes no Dataset, cold or
    warm: both checkpoints are written on the driver as the front end's
    blocks stream to the fold, and the fold, the ``canonical_edges``
    checkpoint and the back end work on driver-side tables."""
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
    assert calls == []
    _publish(table, snapshot, out, ckpt)
    assert calls == []
    assert sorted(os.listdir(ckpt)) == sorted(STAGES)


def test_uncheckpointed_publish_runs_one_execution(
    ray_session, snapshot, table, tmp_path, ray_executions
):
    """Plan guard: without a checkpoint dir, ``process_pages`` collects the
    canonical edges in exactly one Ray Data execution (``to_arrow_refs``
    re-runs a lazy plan for its schema)."""
    _publish(table, snapshot, str(tmp_path / "out"), None)
    assert len(ray_executions) == 1, ray_executions


def test_checkpointed_publish_runs_one_execution(
    ray_session, snapshot, table, tmp_path, ray_executions
):
    """Plan guard: over a Parquet corpus, a cold checkpointed
    ``process_pages`` runs one Ray Data execution, the front end streamed
    to the fold and written through as ``partials``.  The warm run runs
    none."""
    import pyarrow.parquet as pq
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages

    path = str(tmp_path / "pages.parquet")
    pq.write_table(table, path)
    cfg = KGConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    for runs in (1, 0):
        ray_executions.clear()
        process_pages(ray.data.read_parquet(path), str(tmp_path / "out"), snapshot, cfg)
        assert len(ray_executions) == runs, ray_executions


def _file_bytes(out: str) -> dict:
    """Every published file, by relative path."""
    got = {}
    for rel, path in _published_files(out):
        with open(path, "rb") as f:
            got[rel] = f.read()
    return got


def _managers(monkeypatch) -> list:
    """Every ``CheckpointManager`` built while the patch holds."""
    from climatemind_ontology_processing_ray.state import checkpoint

    made = []
    real_init = checkpoint.CheckpointManager.__init__

    def init(self, *a, **k):
        real_init(self, *a, **k)
        made.append(self)

    monkeypatch.setattr(checkpoint.CheckpointManager, "__init__", init)
    return made


def _kill_stage_write(monkeypatch, stage: str, after: int) -> None:
    """Kill the checkpoint writer right after it wrote the ``after``-th
    part file of ``stage``, the last one half done.  ``partials`` then sees
    its blocks only once the front end has run to completion, so the kill
    leaves no Ray task in flight."""
    import pyarrow.parquet as pq

    from climatemind_ontology_processing_ray.state import checkpoint

    real_write, real_stream = pq.write_table, checkpoint.CheckpointManager.stream
    written = []

    def killed_write(tbl, where, *a, **k):
        if os.path.basename(os.path.dirname(where)) != stage + ".tmp":
            return real_write(tbl, where, *a, **k)
        written.append(where)
        if len(written) < after:
            return real_write(tbl, where, *a, **k)
        real_write(tbl.slice(0, tbl.num_rows // 2), where, *a, **k)
        raise Killed(f"{stage} write {after}")

    def stream(self, name, blocks):
        drained = (lambda: list(blocks())) if name == "partials" else blocks
        return real_stream(self, name, drained)

    monkeypatch.setattr(checkpoint.pq, "write_table", killed_write)
    monkeypatch.setattr(checkpoint.CheckpointManager, "stream", stream)


def test_killed_canonical_edges_write_resumes_from_partials(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """A kill inside the write of the ``canonical_edges`` stage (its part
    file half done) leaves no ``canonical_edges`` manifest and the
    ``partials`` checkpoint complete; the next run hits ``partials``,
    leaves it untouched, recomputes only ``canonical_edges`` and publishes
    the same bytes as a fresh run."""
    from climatemind_ontology_processing_ray.state import checkpoint

    fresh = str(tmp_path / "fresh")
    _publish(table, snapshot, fresh, str(tmp_path / "fresh_ckpt"))

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    _kill_stage_write(monkeypatch, "canonical_edges", after=1)
    with pytest.raises(Killed):
        _publish(table, snapshot, out, ckpt)
    monkeypatch.undo()

    assert not os.path.exists(os.path.join(ckpt, "canonical_edges", "_MANIFEST.json"))
    partials = _identity(os.path.join(ckpt, "partials"))
    manifest = checkpoint.CheckpointManager(ckpt).manifest("partials")
    assert manifest["complete"] and manifest["files"]

    managers = _managers(monkeypatch)
    _publish(table, snapshot, out, ckpt)
    assert (managers[-1].hits, managers[-1].misses) == (["partials"], ["canonical_edges"])
    assert _identity(os.path.join(ckpt, "partials")) == partials
    assert _file_bytes(out) == _file_bytes(fresh)


def test_killed_partials_write_recomputes(
    ray_session, snapshot, table, tmp_path, monkeypatch
):
    """A kill after the writer put k of the n ``partials`` blocks on disk
    leaves the k part files in ``partials.tmp`` and no manifest; the next
    run recomputes ``partials`` (and ``canonical_edges``) and publishes the
    same bytes as a fresh run."""
    from climatemind_ontology_processing_ray.state import checkpoint

    fresh, fresh_ckpt = str(tmp_path / "fresh"), str(tmp_path / "fresh_ckpt")
    _publish(table, snapshot, fresh, fresh_ckpt)
    n = len(checkpoint.CheckpointManager(fresh_ckpt).manifest("partials")["files"])
    assert n >= 2
    k = n // 2

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    _kill_stage_write(monkeypatch, "partials", after=k)
    with pytest.raises(Killed):
        _publish(table, snapshot, out, ckpt)
    monkeypatch.undo()

    assert not os.path.exists(os.path.join(ckpt, "partials", "_MANIFEST.json"))
    assert len(os.listdir(os.path.join(ckpt, "partials.tmp"))) == k
    assert not os.path.exists(os.path.join(ckpt, "canonical_edges"))

    managers = _managers(monkeypatch)
    _publish(table, snapshot, out, ckpt)
    assert (managers[-1].hits, managers[-1].misses) == ([], STAGES)
    assert sorted(os.listdir(ckpt)) == sorted(STAGES)
    assert len(checkpoint.CheckpointManager(ckpt).manifest("partials")["files"]) == n
    assert _file_bytes(out) == _file_bytes(fresh)


def test_resumed_fold_is_bounded(ray_session, snapshot, table, tmp_path, monkeypatch):
    """A resume from ``partials`` folds the checkpoint's row groups as they
    stream in: no merge input exceeds 2 x the distinct keys + the largest
    part file, and the edges equal the cold run's."""
    import shutil

    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.stages import canonicalize

    pages = pa.concat_tables([table] * 8)  # many blocks over one key space
    ckpt = str(tmp_path / "ckpt")
    cfg = KGConfig(checkpoint_dir=ckpt)
    cold = run_kg_pipeline(ray.data.from_arrow(pages).repartition(16), snapshot, cfg)
    files = cold.checkpoints.manifest("partials")["files"]
    distinct, largest = cold.edges.num_rows, max(f["rows"] for f in files)
    assert sum(f["rows"] for f in files) > 2 * distinct + largest

    shutil.rmtree(os.path.join(ckpt, "canonical_edges"))
    merges = []
    real = canonicalize._merge_arrow

    def spy(tbl, keys, sources_cap):
        merges.append(tbl.num_rows)
        return real(tbl, keys, sources_cap)

    monkeypatch.setattr(canonicalize, "_merge_arrow", spy)
    warm = run_kg_pipeline(ray.data.from_arrow(pages).repartition(16), snapshot, cfg)
    assert warm.checkpoints.hits == ["partials"]
    assert len(merges) > 1
    assert max(merges) <= 2 * distinct + largest, (merges, distinct, largest)
    assert warm.edges.equals(cold.edges)


def test_transformed_parquet_read_does_not_reuse_plain_read_checkpoints(
    ray_session, snapshot, table, tmp_path
):
    """Only a plan that is the file read alone is fingerprinted by its
    files: a limited read and then the full read of the same file, into
    one checkpoint dir, do not share checkpoints, and the full read
    returns the edges of an uncheckpointed run."""
    import pyarrow.parquet as pq
    import ray.data

    path = str(tmp_path / "pages.parquet")
    pq.write_table(table, path)
    cfg = KGConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    limited = run_kg_pipeline(ray.data.read_parquet(path).limit(50), snapshot, cfg)
    full = run_kg_pipeline(ray.data.read_parquet(path), snapshot, cfg)
    assert full.checkpoints.hits == [] and full.checkpoints.misses == STAGES
    plain = run_kg_pipeline(ray.data.read_parquet(path), snapshot, KGConfig())
    assert full.edges.equals(plain.edges)
    assert limited.edges.num_rows < full.edges.num_rows


def test_filtered_parquet_read_does_not_reuse_plain_read_checkpoints(
    ray_session, snapshot, table, tmp_path
):
    """A read with a row filter is not the plain read of the same files:
    after a checkpointed full read, the filtered read into the same
    checkpoint dir hits nothing and returns the edges of an uncheckpointed
    filtered run, not the full corpus's."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    path = str(tmp_path / "pages.parquet")
    pq.write_table(table, path)
    cut = sorted(table.column("url").to_pylist())[table.num_rows // 2]

    def filtered():
        return ray.data.read_parquet(path, filter=pc.field("url") < cut)

    cfg = KGConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    full = run_kg_pipeline(ray.data.read_parquet(path), snapshot, cfg)
    half = run_kg_pipeline(filtered(), snapshot, cfg)
    assert half.checkpoints.hits == [] and half.checkpoints.misses == STAGES
    plain = run_kg_pipeline(filtered(), snapshot, KGConfig())
    assert half.edges.equals(plain.edges)
    support = lambda res: pc.sum(res.edges.column("support")).as_py()
    assert support(half) < support(full)


def test_mapped_corpus_fingerprint_runs_no_schema_execution(
    ray_session, snapshot, table, ray_executions, tmp_path
):
    """A cold checkpointed run over a mapped corpus runs two Ray Data
    executions, the digest pass and the front end: the fingerprint takes
    the schema from the digest pass, not from ``Dataset.schema()``, which
    would run the mapped plan under ``limit=1``."""
    import ray.data

    pages = ray.data.from_arrow(table).map_batches(lambda b: b, batch_format="pyarrow")
    cfg = KGConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    run_kg_pipeline(pages, snapshot, cfg)
    assert len(ray_executions) == 2, ray_executions
    assert not any("limit=1" in name for run in ray_executions for name in run), ray_executions


def test_stage_dataset_cold_then_warm(ray_session, tmp_path):
    """``CheckpointManager.stage``: a cold run writes the stage and its
    manifest, a warm run hits without computing, and both read back the
    input's rows."""
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.state.checkpoint import CheckpointManager

    rows = pa.table({"k": list(range(300)), "v": [str(i) for i in range(300)]})
    ckpt = str(tmp_path / "ckpt")
    cold = CheckpointManager(ckpt, "key")
    got = cold.stage("t", lambda: ray.data.from_arrow(rows).repartition(3))
    assert cold.misses == ["t"] and os.path.exists(os.path.join(ckpt, "t", "_MANIFEST.json"))
    assert cold.manifest("t")["rows"] == rows.num_rows
    assert sorted(got.take_all(), key=lambda r: r["k"]) == rows.to_pylist()

    def no_compute():
        raise AssertionError("a hit computed the stage")

    warm = CheckpointManager(ckpt, "key")
    got = warm.stage("t", no_compute)
    assert warm.hits == ["t"] and warm.misses == []
    assert sorted(got.take_all(), key=lambda r: r["k"]) == rows.to_pylist()


@pytest.mark.parametrize("case", ["no_english_page", "link_threshold_above_1"])
def test_empty_stages_checkpoint_and_publish(
    ray_session, snapshot, table, tmp_path, monkeypatch, case
):
    """A run whose stages have no rows (no English page, or a link
    threshold no match reaches) checkpoints them as zero-row stages: the
    cold and the warm ``run_kg_pipeline`` and ``process_pages`` complete
    with no edges, and the warm runs hit ``canonical_edges``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import process_pages

    if case == "no_english_page":
        table = table.filter(pc.not_equal(table.column("lang"), "en"))
        assert table.num_rows
    else:
        monkeypatch.setattr(KGConfig, "link_threshold", 1.01)
    cfg = KGConfig(checkpoint_dir=str(tmp_path / "ckpt"))
    out = str(tmp_path / "out")

    def pages():
        return ray.data.from_arrow(table).repartition(4)

    for warm in (False, True):
        res = run_kg_pipeline(pages(), snapshot, cfg)
        assert res.canonical_edges.take_all() == []
        assert res.checkpoints.hits == (["canonical_edges"] if warm else [])
        for stage in STAGES:
            manifest = res.checkpoints.manifest(stage)
            assert manifest["rows"] == 0 and manifest["files"] == []
        art, paths = process_pages(pages(), out, snapshot=snapshot, cfg=cfg)
        assert art.G.number_of_edges() == 0
        for name in ("canonical_edges", "adjacency"):
            assert pq.read_table(paths[name]).num_rows == 0
        assert _published_key(out) is not None
