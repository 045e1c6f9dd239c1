"""Public API (process_pages / output_edges) and CLI surface."""

import os
import pickle

import pytest

from climatemind_ontology_processing_ray.pipelines.api import output_edges, process_pages
from climatemind_ontology_processing_ray.pipelines.kg import KGConfig
from climatemind_ontology_processing_ray.sources.pages import generate_pages

CFG = KGConfig(batch_size=64)


def test_process_pages_full_outputs(ray_session, snapshot, tmp_path):
    import ray.data

    table, _ = generate_pages(snapshot, 200, seed=13)
    pages = ray.data.from_arrow(table).repartition(4)
    art, paths = process_pages(
        pages, str(tmp_path), snapshot=snapshot, cfg=CFG, emit_mentions=True
    )
    assert os.path.exists(paths["edges_csv"])
    assert os.listdir(paths["mentions"])
    assert os.path.exists(paths["gpickle"])
    assert os.path.exists(paths["subgraphs"])
    assert os.listdir(paths["adjacency"])  # parquet partition dir
    assert os.listdir(paths["canonical_edges"])
    with open(paths["subgraphs"], "rb") as f:
        subs = pickle.load(f)
    assert subs["downstream_adaptations"].number_of_nodes() > 10
    assert art.G.nodes["increase in greenhouse effect"]["mitigation solutions"]


def test_output_edges_source_restriction(ray_session, snapshot, ray_executions):
    """The ``source`` restriction keeps the component reachable from it and
    runs the front end (the executions that read the pages) once."""
    import ray.data

    table, _ = generate_pages(snapshot, 200, seed=13)
    pages = ray.data.from_arrow(table).repartition(4)
    all_edges = output_edges(pages, snapshot=snapshot, cfg=CFG).take_all()
    ray_executions.clear()
    scoped = output_edges(
        pages, snapshot=snapshot, cfg=CFG, source="sea level rise"
    ).take_all()
    front_end = [r for r in ray_executions if any("extract_pages_batch" in n for n in r)]
    assert len(front_end) == 1, ray_executions
    assert 0 < len(scoped) < len(all_edges)
    subjects = {r["subject"] for r in scoped}
    assert "burning of fossil fuels" not in subjects  # upstream of source
    assert "sea level rise" in subjects


def test_cli_synth_and_edges(tmp_path):
    import subprocess
    import sys

    out_dir = str(tmp_path / "pages")
    r = subprocess.run(
        [
            sys.executable,
            "-m",
            "climatemind_ontology_processing_ray",
            "synth",
            "--out",
            out_dir,
            "--pages",
            "120",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr
    assert os.path.exists(os.path.join(out_dir, "pages-00000.parquet"))


@pytest.mark.parametrize("custom", ["extractor", "linker"])
def test_custom_extractor_extension(ray_session, snapshot, tmp_path, custom):
    """SURVEY §2.9 extension surface: a user-injected extractor or linker
    class runs inside the one front-end operator, under the same
    checkpoint stages as the default."""
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.kg import run_kg_pipeline
    from climatemind_ontology_processing_ray.stages.link import EntityLinker
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    def only_causes(out: pa.Table) -> pa.Table:
        return out.filter(
            pa.compute.equal(out.column("predicate"), pa.scalar("causes_or_promotes"))
        )

    class OnlyCausesExtractor(TripleExtractor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            return only_causes(super().__call__(batch))

    class OnlyCausesLinker(EntityLinker):
        def __call__(self, batch: pa.Table) -> pa.Table:
            return only_causes(super().__call__(batch))

    table, _ = generate_pages(snapshot, 150, seed=13)
    pages = ray.data.from_arrow(table).repartition(2)
    if custom == "extractor":
        classes = {"triple_extractor_cls": OnlyCausesExtractor}
    else:
        classes = {"entity_linker_cls": OnlyCausesLinker}
    cfg = KGConfig(batch_size=64, checkpoint_dir=str(tmp_path), **classes)
    res = run_kg_pipeline(pages, snapshot, cfg)
    rows = res.canonical_edges.take_all()
    assert rows and all(r["predicate"] == "causes_or_promotes" for r in rows)
    assert res.checkpoints.misses == ["partials", "canonical_edges"]
    assert sorted(os.listdir(tmp_path)) == ["canonical_edges", "partials"]


def test_worker_cache_keys_on_custom_classes(snapshot):
    """One process serving the default and a custom front end builds each
    once: the per-worker cache key holds the extractor and linker classes."""
    import pyarrow as pa

    from climatemind_ontology_processing_ray.stages.extract import extract_pages_batch
    from climatemind_ontology_processing_ray.stages.fused import make_fused_partials_fn
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    class OnlyCausesExtractor(TripleExtractor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            return out.filter(
                pa.compute.equal(out.column("predicate"), pa.scalar("causes_or_promotes"))
            )

    table, _ = generate_pages(snapshot, 50, seed=13)
    batch = extract_pages_batch(table)
    sj = snapshot.to_json()
    default = make_fused_partials_fn(snapshot_json=sj)(batch)
    custom = make_fused_partials_fn(snapshot_json=sj, extractor_cls=OnlyCausesExtractor)(batch)
    assert set(default.column("predicate").to_pylist()) != {"causes_or_promotes"}
    assert set(custom.column("predicate").to_pylist()) == {"causes_or_promotes"}


def test_incremental_merge_equals_full_run(ray_session, snapshot):
    """Processing the corpus in two batches then merging canonical edges is
    identical (supports included) to processing it at once."""
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.api import merge_canonical_edges
    from climatemind_ontology_processing_ray.pipelines.kg import run_kg_pipeline

    table, _ = generate_pages(snapshot, 300, seed=13)
    half = table.num_rows // 2

    def canon(t):
        res = run_kg_pipeline(
            ray.data.from_arrow(t).repartition(4), snapshot, CFG
        )
        return res.canonical_edges

    full = canon(table).take_all()
    merged = merge_canonical_edges(
        canon(table.slice(0, half)), canon(table.slice(half))
    ).take_all()
    key = lambda r: (r["subject"], r["object"], r["predicate"])
    a = sorted((key(r), r["support"], tuple(r["sources"])) for r in full)
    b = sorted((key(r), r["support"], tuple(r["sources"])) for r in merged)
    assert a == b


def test_cli_process_end_to_end(tmp_path):
    import subprocess
    import sys

    pages_dir = str(tmp_path / "pages")
    out_dir = str(tmp_path / "out")
    env_cmd = [sys.executable, "-m", "climatemind_ontology_processing_ray"]
    r1 = subprocess.run(
        env_cmd + ["synth", "--out", pages_dir, "--pages", "150"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        env_cmd + ["process", "--pages", pages_dir, "--out", out_dir, "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert r2.returncode == 0, r2.stderr
    assert os.path.exists(os.path.join(out_dir, "output.csv"))
    assert os.path.exists(os.path.join(out_dir, "graphs_for_visualization.pickle"))
    assert os.listdir(os.path.join(out_dir, "adjacency"))
    assert os.listdir(os.path.join(out_dir, "nodes"))


def test_process_pages_rerun_is_idempotent(ray_session, snapshot, tmp_path):
    """Rerunning into the same output dir must not duplicate parquet rows
    (Ray's writer adds uniquely-named files; dirs are cleared first)."""
    import ray.data

    table, _ = generate_pages(snapshot, 150, seed=13)
    out = str(tmp_path)
    for _ in range(2):
        pages = ray.data.from_arrow(table).repartition(2)
        _, paths = process_pages(pages, out, snapshot=snapshot, cfg=CFG)
    n = ray.data.read_parquet(paths["canonical_edges"]).count()
    assert n == 97


def test_driver_contract_owns_no_ray_session():
    """The driver calls ray.init() itself before importing __ray_entry__:
    nothing in the package's query/pipeline surface may init or shutdown
    Ray (bench.py, CLI entry points and the test fixture are the only
    session owners)."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    offenders = []
    surface = [root / "__ray_entry__.py"] + sorted(
        (root / "climatemind_ontology_processing_ray").rglob("*.py")
    )
    allowed = {"__main__.py"}  # CLI owns its session by design
    for path in surface:
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in ("init", "shutdown")
                and isinstance(f.value, ast.Name)
                and f.value.id == "ray"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"ray session calls inside the driver surface: {offenders}"


def test_kg_core_imports_nothing_from_the_registry():
    """The KG core imports nothing from the operator registry
    (``functions/``, ``pipelines/queries``).  ``sinks/`` is left out: it
    still imports ``functions.sample``, no KG pipeline module imports
    ``sinks``, and moving ``sample`` into the core is still open."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "climatemind_ontology_processing_ray"
    core = [pkg / "pipelines" / "kg.py", pkg / "pipelines" / "api.py", pkg / "runtime.py"]
    for sub in ("stages", "state", "graph", "ontology", "sources"):
        core += sorted((pkg / sub).rglob("*.py"))
    offenders = []
    for path in core:
        parts = path.relative_to(pkg.parent).with_suffix("").parts
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # resolve a relative import against the module's package
                base = list(parts[: len(parts) - node.level]) if node.level else []
                base += [node.module] if node.module else []
                names = [".".join(base + [a.name]) for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                dotted = "." + name + "."
                if ".functions." in dotted or ".pipelines.queries." in dotted:
                    offenders.append(f"{path.relative_to(pkg)}:{node.lineno} {name}")
    assert not offenders, f"KG core imports from the registry: {offenders}"


_PICKLES_SCRIPT = """
import os, random, sys
import pyarrow as pa
from climatemind_ontology_processing_ray.graph.writers import write_all_artifacts
from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot, golden_edge_set
from climatemind_ontology_processing_ray.pipelines.kg import canonical_edges_to_artifacts

snap = build_fixture_snapshot()
edges = sorted(golden_edge_set(snap))
random.Random(int(sys.argv[2])).shuffle(edges)
table = pa.table({
    "subject": [e[0] for e in edges],
    "object": [e[1] for e in edges],
    "predicate": [e[2] for e in edges],
    "support": [1] * len(edges),
})
os.makedirs(sys.argv[1])
write_all_artifacts(canonical_edges_to_artifacts(table, snap), sys.argv[1])
"""


def test_graph_pickles_are_byte_stable(tmp_path):
    """Both graph pickles are a function of the edge set: the same edges
    in two row orders, enriched in processes with different hash seeds,
    give byte-identical ``Climate_Mind_DiGraph.gpickle`` and
    ``graphs_for_visualization.pickle``."""
    import subprocess
    import sys

    for run, (order_seed, hash_seed) in enumerate(((1, "1"), (2, "2"))):
        r = subprocess.run(
            [sys.executable, "-c", _PICKLES_SCRIPT, str(tmp_path / f"run{run}"), str(order_seed)],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert r.returncode == 0, r.stderr
    for name in ("Climate_Mind_DiGraph.gpickle", "graphs_for_visualization.pickle"):
        with open(tmp_path / "run0" / name, "rb") as a, open(tmp_path / "run1" / name, "rb") as b:
            assert a.read() == b.read()
