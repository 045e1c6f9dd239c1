"""KG-construction benchmark.

    python3 perfbench/run.py --workload crawl_ingest --seed 1 --seconds 15 --trace 0

One closed-loop client in this process runs one pipeline at a time against
the package's public API for ``--seconds`` seconds, checks every run's
outputs and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced iterations (their median difference is the
tracing overhead), reads Ray Data per-operator stats from the last timed
iteration and runs the in-process layer chain of ``layers.py``; it reports
the per-layer metrics and writes every span to ``.perfbench/traces/``.
Either way the line before the result, on stderr, is a JSON object of the
raw (not host-normalized) medians and every raw time and probe sample.
``--smoke`` shrinks every input for a quick functional check.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# the package under test; without it the benchmark fails here, before any result
import climatemind_ontology_processing_ray  # noqa: E402,F401

SETUP_REPS = 3
# end-to-end metric -> unit; the untraced run prints exactly these
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pages_per_s": "pages/s",
    "triples_per_s": "triples/s",
    "linked_rows_per_s": "rows/s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
    "edge_precision": "ratio",
    "edge_recall": "ratio",
}


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    return ap.parse_args(argv)


def _nproc() -> int:
    """The core count ``nproc`` reports: ``OMP_NUM_THREADS`` when set (as
    on hosts that give each tenant one core of a shared VM), else the
    cores this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def _ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout when its socket paths
    (``<temp>/session_<date>_<pid>/sockets/plasma_store``, 107 bytes at
    most) fit; else Ray's default."""
    tmp = os.path.join(ROOT, ".perfbench", "ray")
    return tmp if len(tmp.encode()) + 64 <= 107 else None


def _init_ray(ncpu: int) -> None:
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    temp_dir = _ray_temp_dir()
    ray.init(
        address="local",
        num_cpus=ncpu,
        object_store_memory=400 * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # keep the small pool of idle workers alive between iterations: with
        # the default soft limit (= num_cpus) Ray kills and respawns workers
        # for every 0.5-CPU exchange task, which on a 1-CPU host made the
        # skewed workload vary 1.7-3.9 s per run instead of 1.3-1.8 s
        _system_config={
            "num_workers_soft_limit": max(4, 2 * ncpu),
            "idle_worker_killing_time_threshold_ms": 600_000,
        },
        **({"_temp_dir": temp_dir} if temp_dir else {}),
    )
    import ray.data

    from climatemind_ontology_processing_ray.runtime import configure_data_context

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    configure_data_context()
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _measure(wl, seconds: float, tracer, probe, before: float, alternate: bool):
    """Closed loop for ``seconds``, each iteration bracketed by host-speed
    probes (``before`` is the latest sample): (outcomes, each with its
    ``slowdown``; attempted; failed; peak RSS MB)."""
    from perfbench.spans import RssSampler

    outcomes = []
    attempted = failed = 0
    with RssSampler() as rss:
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < seconds:
            tracer.enabled = alternate and attempted % 2 == 1
            tracer.run_id = attempted
            attempted += 1
            try:
                out = wl.run(tracer)
            except Exception:
                out = None
                failed += 1
                traceback.print_exc()
            after = probe.sample()
            slowdown, before = probe.slowdown(before, after), after
            if out is None:
                continue
            if out["errors"]:
                failed += 1
                print("\n".join(out["errors"]), file=sys.stderr)
            out["slowdown"] = slowdown
            out["traced"] = tracer.enabled
            outcomes.append(out)
    return outcomes, attempted, failed, rss.peak_mb


def _end_to_end(outcomes: list[dict], setup_s: float, peak_mb: float) -> dict:
    """Medians over the run's iterations of quiet-host times and rates:
    each iteration's times divided, and rates multiplied, by its own host
    slowdown.  ``setup_s`` comes normalized the same way."""
    med = lambda key: statistics.median(o[key] / o["slowdown"] for o in outcomes)
    rate = lambda key: statistics.median(o[key] * o["slowdown"] / o["wall_s"] for o in outcomes)
    values = {
        "setup_s": setup_s,
        "wall_s": med("wall_s"),
        "pages_per_s": rate("pages"),
        "triples_per_s": rate("triples"),
        "linked_rows_per_s": rate("linked_rows"),
        "resume_s": med("resume_s"),
        "peak_rss_mb": peak_mb,
        "edge_precision": min(o["precision"] for o in outcomes),
        "edge_recall": min(o["recall"] for o in outcomes),
    }
    return {k: _metric(values[k], u) for k, u in E2E_UNITS.items()}


def _raw(outcomes: list[dict], raw_setups: list[float], init_s: float, probe) -> dict:
    """Medians before host normalization, next to every raw time."""
    return {
        "raw_setup_s": init_s + statistics.median(raw_setups),
        "raw_wall_s": statistics.median(o["wall_s"] for o in outcomes) if outcomes else None,
        "raw_resume_s": statistics.median(o["resume_s"] for o in outcomes) if outcomes else None,
        "slowdown": statistics.median(o["slowdown"] for o in outcomes) if outcomes else None,
        "ray_init_s": init_s,
        "setups_s": raw_setups,
        "walls_s": [o["wall_s"] for o in outcomes],
        "resumes_s": [o["resume_s"] for o in outcomes],
        "slowdowns": [o["slowdown"] for o in outcomes],
        "probes_s": probe.samples_s,
    }


def _per_layer(wl, tracer, outcomes: list[dict], work_dir: str) -> tuple[dict, dict]:
    """Executor stats from the last timed iteration, then the traced layer
    chain."""
    from perfbench import layers
    from perfbench.spans import executor_stats

    m = {k: 0.0 for k in layers.LAYER_UNITS}
    ex = executor_stats(wl.last_datasets)
    sorts = ex["sorts"] + [0.0, 0.0]
    m["executor.tasks"] = ex["tasks"]
    m["executor.remote_busy_s"] = ex["remote_busy_s"]
    m["executor.overhead_s"] = wl.last_wall - ex["remote_busy_s"]
    m["stages.canonicalize.sort1_s"], m["stages.canonicalize.sort2_s"] = sorts[:2]
    m["stages.canonicalize.edges_out"] = wl.last_edges.num_rows

    tracer.enabled = True
    tracer.run_id = "layers"
    with tracer.span("layer_chain"):
        if wl.name == "skewed_canonicalize":
            layers.linked_layers(tracer, m, wl.linked_dir, wl.cfg)
        else:
            tables = layers.page_layers(tracer, m, wl.pages_dir, wl.snap, wl.cfg)
            if wl.name == "publish_resume":
                tables["canonical_edges"] = wl.last_edges
                layers.publish_layers(tracer, m, work_dir, wl.snap, tables)
    self_s = tracer.self_times()
    for metric, span in layers.BUSY_SPANS.items():
        m[metric] = self_s.get(span, 0.0)
    m["stages.triples.us_per_page"] = (
        1e6 * m["stages.triples.busy_s"] / m["stages.triples.pages_in"]
        if m["stages.triples.pages_in"]
        else 0.0
    )
    walls = {
        traced: [o["wall_s"] / o["slowdown"] for o in outcomes if o["traced"] == traced]
        for traced in (False, True)
    }
    m["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False])
        if walls[True] and walls[False]
        else 0.0
    )
    m["trace.spans"] = len(tracer.spans)
    m["host.slowdown"] = statistics.median(o["slowdown"] for o in outcomes)
    m["host.raw_wall_s"] = statistics.median(
        [o["wall_s"] for o in outcomes if not o["traced"]] or [o["wall_s"] for o in outcomes]
    )
    metrics = {k: _metric(m[k], u) for k, u in layers.LAYER_UNITS.items()}
    ray_stats = "\n".join(ds.stats() for ds in wl.last_datasets)
    return metrics, {"ray_stats": ray_stats, "executor": ex, "wall_s": wl.last_wall}


def main(argv=None) -> int:
    args = _parse_args(argv)
    import ray

    from perfbench.spans import HostProbe, Tracer, descendants, stop_processes
    from perfbench.workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    ncpu = _nproc()
    # a plain SIGTERM would skip the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer(enabled=False)
    try:
        t0 = time.perf_counter()
        _init_ray(ncpu)
        init_s = time.perf_counter() - t0

        from climatemind_ontology_processing_ray.ontology import (
            build_fixture_snapshot,
            golden_edge_set,
        )

        snap = build_fixture_snapshot()
        wl = WORKLOADS[args.workload](
            work_dir, args.seed, SMOKE if args.smoke else FULL, snap, golden_edge_set(snap)
        )
        # set-up = inputs from the seed + one warm-up pipeline; repeated in
        # fresh directories and reported as Ray start-up + the median, each
        # interval in quiet-host seconds by the host probes around it
        probe = HostProbe()
        before = probe.sample()
        init_n = init_s / probe.slowdown(before, before)
        setups, raw_setups = [], []
        for rep in range(1 if args.smoke else SETUP_REPS):
            t0 = time.perf_counter()
            wl.prepare(rep)
            wl.run(tracer)
            raw_setups.append(time.perf_counter() - t0)
            after = probe.sample()
            setups.append(raw_setups[-1] / probe.slowdown(before, after))
            before = after
        setup_s = init_n + statistics.median(setups)

        outcomes, attempted, failed, peak_mb = _measure(
            wl, args.seconds, tracer, probe, before, alternate=bool(args.trace)
        )
        raw = _raw(outcomes, raw_setups, init_s, probe)
        if not outcomes:
            metrics = {}
        elif args.trace:
            metrics, extra = _per_layer(wl, tracer, outcomes, work_dir)
            tracer.write(
                os.path.join(ROOT, ".perfbench", "traces", f"{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, **raw, **extra},
            )
        else:
            metrics = _end_to_end(outcomes, setup_s, peak_mb)
    finally:
        pids = descendants()
        ray.shutdown()
        stop_processes(pids)
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(raw), file=sys.stderr, flush=True)
    result = {
        "correct": failed == 0 and bool(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
