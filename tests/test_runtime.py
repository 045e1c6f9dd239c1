"""The executor settings of ``runtime.configure_data_context``: the heavy
map is not starved, a split read does not stall the scheduling loop, and
a read of enough files fuses into the front end.  All rely on ray 2.49
executor internals, so a Ray upgrade that drops a hook fails here
instead of running unbounded."""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pyarrow.parquet as pq

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One process with its own 1-CPU session: 4 Parquet files read as 8 blocks
# (each read task splits its file in two) into an identity map.  A first,
# uncounted run starts the worker; the second prints the executor-loop
# ``ray.wait`` calls that ran out their 0.1 s timeout with fewer refs ready
# than were passed, and the two context settings.
_STALL_SCRIPT = r"""
import json, sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data
from ray.data._internal.execution.backpressure_policy import (
    ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
)

from climatemind_ontology_processing_ray.runtime import configure_data_context

ctx = ray.data.DataContext.get_current()
ctx.enable_progress_bars = False
configure_data_context()

out = sys.argv[1]
for i in range(4):
    pq.write_table(pa.table({"x": list(range(i * 1000, (i + 1) * 1000))}), f"{out}/f{i}.parquet")

def run():
    return ray.data.read_parquet(out, override_num_blocks=8).map_batches(lambda b: b).count()

run()
stalls = 0
real_wait = ray.wait

def wait(refs, *args, **kwargs):
    global stalls
    ready, rest = real_wait(refs, *args, **kwargs)
    if kwargs.get("timeout") == 0.1 and len(ready) < len(refs):
        stalls += 1
    return ready, rest

ray.wait = wait
rows = run()
ray.wait = real_wait
print(json.dumps({
    "rows": rows,
    "stalls": stalls,
    "policies": [p.__name__ for p in ctx.get_config(ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY, [])],
    "gen_buffer": ctx._max_num_blocks_in_streaming_gen_buffer,
}))
ray.shutdown()
"""


def test_split_read_does_not_stall_the_executor_loop(tmp_path):
    """No executor-loop ``ray.wait`` runs out its 0.1 s timeout on a split
    read, and the admission cap and the generator-buffer setting are in
    the context."""
    r = subprocess.run(
        [sys.executable, "-c", _STALL_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT)},
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout.strip().splitlines()[-1])
    assert got["rows"] == 4000
    assert "_ClusterCpuAdmission" in got["policies"], got
    assert got["gen_buffer"] is None, got
    assert got["stalls"] == 0, got


def test_heavy_map_is_not_starved(ray_session):
    """The engine's pipeline shape (read -> heavy map -> lighter fan-in map
    -> ``repartition(1)`` -> one merge task) runs the heavy map's tasks
    side by side: at least 4 of them overlap at some instant on the
    session's 8 CPUs.  Ray Data's per-operator reservation runs them
    nearly one at a time."""
    import ray.data

    def heavy(batch):
        start = time.time()
        time.sleep(0.15)
        return {"start": [start], "end": [time.time()]}

    rows = (
        ray.data.range(32, override_num_blocks=32)
        .map_batches(heavy, batch_size=None)
        .map_batches(lambda b: b, batch_size=None, num_cpus=0.5)
        .repartition(1)
        .map_batches(lambda b: b, batch_size=None)
        .take_all()
    )
    assert len(rows) == 32
    # an end sorts before a start at the same instant
    events = sorted([(r["start"], 1) for r in rows] + [(r["end"], -1) for r in rows])
    running = peak = 0
    for _, step in events:
        running += step
        peak = max(peak, running)
    assert peak >= 4, peak


def test_cold_front_end_is_one_operator(ray_session, snapshot, tmp_path):
    """A read of as many files as the read is sized at (2 x the session's
    8 CPUs) fuses into the front end: with the default ``KGConfig()`` a
    cold run of 3,000 pages in 16 Parquet files is one operator,
    ``ReadParquet->...``.  Its edge table equals the one from the same
    rows in 64-row in-memory blocks and the one from the same rows in 4
    files, whose read splits and stays its own operator: the edges do not
    depend on the block layout."""
    import ray.data

    from climatemind_ontology_processing_ray.pipelines.kg import KGConfig, run_kg_pipeline
    from climatemind_ontology_processing_ray.sources.pages import generate_pages

    table, _ = generate_pages(snapshot, 3000, seed=7)

    def write(n_files: int) -> str:
        out = tmp_path / f"files{n_files}"
        out.mkdir()
        rows = -(-table.num_rows // n_files)
        for i in range(n_files):
            pq.write_table(table.slice(i * rows, rows), out / f"pages-{i:02d}.parquet")
        return str(out)

    def operators(res) -> list[str]:
        return re.findall(r"^Operator \d+ (\S+):", res.stats(), re.M)

    sixteen = write(16)
    fused = run_kg_pipeline(ray.data.read_parquet(sixteen), snapshot, KGConfig())
    ops = operators(fused)
    assert len(ops) == 1 and ops[0].startswith("ReadParquet->"), fused.stats()
    assert fused.edges.num_rows > 0

    blocks = [table.slice(i, 64) for i in range(0, table.num_rows, 64)]
    batched = run_kg_pipeline(ray.data.from_arrow(blocks), snapshot, KGConfig())
    split = run_kg_pipeline(ray.data.read_parquet(write(4)), snapshot, KGConfig())
    assert len(operators(split)) == 2, split.stats()
    assert fused.edges.equals(batched.edges)
    assert fused.edges.equals(split.edges)
