"""The benchmark's own tests: span self time, the host slowdown and its
probe, input generation, metric names and units against BENCHMARK.json,
smoke runs of every workload in both modes, and failure without the package.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench.spans import Tracer  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _bench()[section]}


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, inner1, inner2 = tr.spans
    assert inner1["parent"] == outer["id"] and outer["parent"] is None
    st = tr.self_times()
    children = sum(s["end"] - s["start"] for s in (inner1, inner2))
    assert st["outer"] == pytest.approx(outer["end"] - outer["start"] - children)
    assert st["inner"] == pytest.approx(children)


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("x"):
        pass
    assert tr.spans == [] and tr.self_times() == {}


def test_host_slowdown_brackets_the_interval():
    from perfbench.spans import HostProbe

    ref = HostProbe.REF_S
    assert HostProbe.slowdown(ref, ref) == pytest.approx(1.0)
    assert HostProbe.slowdown(ref, 3 * ref) == pytest.approx(2.0 ** HostProbe.EXPONENT)
    assert HostProbe.slowdown(0.5 * ref, 0.5 * ref) < 1.0


def test_probe_after_an_iteration_ignores_work_it_left_running(monkeypatch):
    """A package-free iteration that returns with Ray tasks still running
    must not make the host look slower: the probe waits until the session's
    CPUs are free before it starts its clock, so the slowdown after the
    iteration matches the one before it (without the wait the probe would
    queue behind 1.2 s of leftover work, ~13x its quiet time)."""
    import ray

    from perfbench.run import _init_ray
    from perfbench.spans import HostProbe, descendants, stop_processes

    def busy(seconds: float) -> None:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    # _init_ray exports PYTHONPATH; undo that when the test ends
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    _init_ray(1)
    try:
        probe = HostProbe()
        before = probe.sample()
        leftover = [ray.remote(num_cpus=1)(busy).remote(0.3) for _ in range(4)]
        after = probe.sample()
        assert ray.wait(leftover, num_returns=len(leftover), timeout=0)[1] == []
        assert HostProbe.slowdown(after, after) < 1.25 * HostProbe.slowdown(before, before)
    finally:
        pids = descendants()
        ray.shutdown()
        stop_processes(pids)


def test_linked_table_is_seeded_and_skewed():
    from perfbench.workloads import make_linked_table

    labels = [f"label {i}" for i in range(74)]
    a = make_linked_table(labels, 20_000, seed=3, distinct=2_000)
    assert a.equals(make_linked_table(labels, 20_000, seed=3, distinct=2_000))
    assert not a.equals(make_linked_table(labels, 20_000, seed=4, distinct=2_000))
    counts = a.group_by(["subj_label", "obj_label", "predicate"]).aggregate([("url", "count")])
    assert counts.num_rows == 2_000
    assert max(counts.column("url_count").to_pylist()) >= 0.2 * a.num_rows


def test_metric_names_and_units_match_benchmark_json():
    from perfbench.layers import BUSY_SPANS, LAYER_UNITS
    from perfbench.run import E2E_UNITS
    from perfbench.workloads import WORKLOADS

    bench = _bench()
    assert E2E_UNITS == _units("end_to_end")
    assert LAYER_UNITS == _units("per_layer")
    assert set(BUSY_SPANS) <= set(LAYER_UNITS)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["crawl_ingest", "skewed_canonicalize", "publish_resume"])
def test_smoke_run_prints_every_metric(workload, trace):
    p = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", str(trace), "--smoke"])
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    p = _run(["--workload", "crawl_ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
             cwd=str(tmp_path))
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
