"""Public API (process_pages / output_edges) and CLI surface."""

import ast
import json
import os
import pathlib
import pickle

import pytest

from climatemind_ontology_processing_ray.pipelines.api import output_edges, process_pages
from climatemind_ontology_processing_ray.pipelines.kg import KGConfig
from climatemind_ontology_processing_ray.sources.pages import generate_pages

CFG = KGConfig()
ROOT = pathlib.Path(__file__).resolve().parent.parent


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
        cwd=ROOT,
    )
    assert r.returncode == 0, r.stderr
    assert os.path.exists(os.path.join(out_dir, "pages-00000.parquet"))


def test_custom_extractor_extension(ray_session, snapshot):
    """SURVEY §2.9 extension surface, by composition: a ``TripleExtractor``
    subclass inside a user UDF, run with ``per_worker`` over
    ``extract_pages`` and reduced by ``canonicalize_partials``."""
    import pyarrow as pa
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.kg import extract_pages
    from climatemind_ontology_processing_ray.stages.canonicalize import (
        canonicalize_partials,
        partial_triple_agg_arrow,
    )
    from climatemind_ontology_processing_ray.stages.fused import per_worker
    from climatemind_ontology_processing_ray.stages.link import EntityLinker
    from climatemind_ontology_processing_ray.stages.triples import TripleExtractor

    class OnlyCausesExtractor(TripleExtractor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            return out.filter(
                pa.compute.equal(out.column("predicate"), pa.scalar("causes_or_promotes"))
            )

    class OnlyCausesPartials:
        def __init__(self, snapshot_json: str):
            self.extractor = OnlyCausesExtractor(snapshot_json)
            self.linker = EntityLinker(snapshot_json)

        def __call__(self, batch: pa.Table) -> pa.Table:
            return partial_triple_agg_arrow(self.linker(self.extractor(batch)))

    table, _ = generate_pages(snapshot, 150, seed=13)
    pages = ray.data.from_arrow(table).repartition(2)
    partials = extract_pages(pages).map_batches(
        per_worker(OnlyCausesPartials, snapshot.to_json()), batch_format="pyarrow"
    )
    rows = canonicalize_partials(partials).take_all()
    assert rows and all(r["predicate"] == "causes_or_promotes" for r in rows)


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
        capture_output=True, text=True, cwd=ROOT,
    )
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        env_cmd + ["process", "--pages", pages_dir, "--out", out_dir, "--num-cpus", "4"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr
    summary = json.loads(r2.stdout.splitlines()[-1])
    assert summary["outputs"]["edges_csv"] == os.path.join(out_dir, "output.csv")
    assert summary["n_edges"] > 0 and "lineage_records" not in summary
    assert os.path.exists(os.path.join(out_dir, "output.csv"))
    assert os.path.exists(os.path.join(out_dir, "graphs_for_visualization.pickle"))
    assert os.listdir(os.path.join(out_dir, "adjacency"))
    assert os.listdir(os.path.join(out_dir, "nodes"))


def test_cli_uses_a_running_session_and_its_ontology(ray_session, snapshot, tmp_path, capsys):
    """Run in-process with a session already up, the CLI leaves it up;
    ``edges --ontology`` writes the CSV ``output_edges`` gives on that
    snapshot, and ``process`` prints one JSON summary line.  Run again
    into the same dirs, ``process`` rewrites no file and prints the same
    node and edge counts, read from the graph it builds on demand."""
    import copy

    import pyarrow.parquet as pq
    import ray

    from climatemind_ontology_processing_ray.__main__ import main
    from climatemind_ontology_processing_ray.graph.writers import read_edges_csv

    pages, onto, csv_path = (str(tmp_path / f) for f in ("p.parquet", "s.json", "e.csv"))
    pq.write_table(generate_pages(snapshot, 150, seed=13)[0], pages)
    narrowed = copy.deepcopy(snapshot)
    del narrowed.individuals["sea level rise"]
    narrowed.save(onto)

    assert main(["edges", "--pages", pages, "--out", csv_path, "--ontology", onto]) == 0
    assert ray.is_initialized()
    rows = output_edges(ray.data.read_parquet(pages), onto).take_all()
    got = read_edges_csv(csv_path)
    assert got == sorted({(r["subject"], r["object"], r["predicate"]) for r in rows})
    assert got and not any("sea level rise" in (s, o) for s, o, _ in got)

    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")

    def process():
        capsys.readouterr()
        assert main(["process", "--pages", pages, "--out", out, "--checkpoint-dir", ckpt]) == 0
        assert ray.is_initialized()
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    def identity():
        return {
            os.path.join(d, name): (st.st_ino, st.st_mtime_ns)
            for d, _, names in os.walk(out)
            for name in names
            for st in [os.stat(os.path.join(d, name))]
        }

    summary = process()
    assert summary["lineage_records"] > 0
    assert summary["outputs"]["edges_csv"] == os.path.join(out, "output.csv")
    assert summary["n_nodes"] > 0 and summary["n_edges"] > 0
    before = identity()
    assert process() == summary
    assert identity() == before


def test_cli_attaches_to_ray_address(monkeypatch):
    """With ``RAY_ADDRESS`` set (as ``ray job submit`` does) the CLI
    attaches with a bare ``ray.init()``: no local address, no CPU count."""
    import ray

    from climatemind_ontology_processing_ray.__main__ import main

    calls: list[tuple] = []

    def init(*args, **kwargs):
        calls.append((args, kwargs))
        raise RuntimeError("recorded ray.init")

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", init)
    monkeypatch.setenv("RAY_ADDRESS", "auto")
    with pytest.raises(RuntimeError, match="recorded ray.init"):
        main(["process", "--pages", "p", "--out", "o", "--num-cpus", "3"])
    assert calls == [((), {})]


def test_every_session_owner_configures_the_data_context():
    """Every repo file that calls ``ray.init`` also calls
    ``configure_data_context``, so no entry point runs the engine without
    its executor settings (see ``runtime.py``)."""
    calls = {
        path.relative_to(ROOT).as_posix(): _calls(path)
        for path in sorted(ROOT.rglob("*.py"))
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    }
    owners = [name for name, called in calls.items() if "ray.init" in called]
    assert {"climatemind_ontology_processing_ray/__main__.py", "tests/conftest.py"} <= set(owners)
    offenders = [name for name in owners if "configure_data_context" not in calls[name]]
    assert not offenders, f"ray.init without configure_data_context: {offenders}"


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


def _calls(path: pathlib.Path) -> set[str]:
    """The names a file calls: ``f`` for ``f(...)``, and both ``attr`` and
    ``name.attr`` for ``name.attr(...)``."""
    called = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                called.add(f.id)
            elif isinstance(f, ast.Attribute):
                called.add(f.attr)
                if isinstance(f.value, ast.Name):
                    called.add(f"{f.value.id}.{f.attr}")
    return called


def test_driver_contract_owns_no_ray_session():
    """The driver calls ray.init() itself before importing __ray_entry__:
    nothing in the package's query/pipeline surface may init or shutdown
    Ray (bench.py, CLI entry points and the test fixture are the only
    session owners)."""
    surface = [ROOT / "__ray_entry__.py"] + sorted(
        (ROOT / "climatemind_ontology_processing_ray").rglob("*.py")
    )
    offenders = [
        path.name
        for path in surface
        if path.name != "__main__.py"  # CLI owns its session by design
        and _calls(path) & {"ray.init", "ray.shutdown"}
    ]
    assert not offenders, f"ray session calls inside the driver surface: {offenders}"


def test_kg_core_imports_nothing_from_the_registry():
    """The KG core imports nothing from the operator registry
    (``functions/``, ``pipelines/queries``)."""
    pkg = ROOT / "climatemind_ontology_processing_ray"
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
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert r.returncode == 0, r.stderr
    for name in ("Climate_Mind_DiGraph.gpickle", "graphs_for_visualization.pickle"):
        with open(tmp_path / "run0" / name, "rb") as a, open(tmp_path / "run1" / name, "rb") as b:
            assert a.read() == b.read()
