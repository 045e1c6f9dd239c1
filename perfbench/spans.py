"""Measurement plumbing owned by the benchmark: in-memory spans, a
host-speed probe, a process-tree RSS sampler, Ray Data per-operator
stats, and process-tree clean-up.  Nothing here is imported by the package under test."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time

RSS_INTERVAL_S = 0.25
STOP_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 10.0
# Ray's resource view lags task submission and completion by up to its
# 100 ms report period, so "free" must hold this long to count
DRAIN_QUIET_S = 0.25


class Tracer:
    """Spans kept in memory (name, start, end, parent, run id) and written
    out once, when the benchmark exits.  A disabled tracer records nothing,
    so traced and untraced iterations run the same code."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans
        cover (spans are opened by one thread, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {"spans": self.spans, "self_time_s": self.self_times(), **extra},
                f,
                indent=1,
            )


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields follow the last ')'
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":
            continue
        kids.setdefault(int(fields[1]), []).append(int(name))
    return kids


def descendants() -> list[int]:
    """Live (non-zombie) descendants of this process."""
    kids = _children_map()
    todo, out = [os.getpid()], []
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _noop(x):
    return x


class HostProbe:
    """How much slower this shared host runs right now than when quiet.

    On a host whose cores are shared with other tenants the speed of the
    same code drifts by up to 2x over minutes, which no run length averages
    away.  ``sample()`` times 30 round trips of a no-op Ray task
    (scheduling, IPC and interpreter speed; no package code).  A timed
    interval is bracketed by a sample just before and one just after it,
    and ``slowdown(before, after)`` is their mean over the quiet-host
    reference, to the power ``EXPONENT``; the interval's time divided by it
    reads as quiet-host seconds.  A sample first waits until every CPU of
    the session is free again, so Ray work the interval left running
    (tasks still finishing, a lingering executor) does not slow the probe
    and get divided out as host noise.

    The exponent was fitted on the tuning host by regressing log iteration
    wall on log bracketing probe time over 8 minutes of interleaved
    iterations of all three workloads: the slope was 0.28-0.35 on each.  A
    pure-Python loop probe, or one probe before the interval only, tracked
    the iterations' speed clearly worse.
    """

    ROUND_TRIPS = 30
    REF_S = 0.090
    EXPONENT = 0.35

    def __init__(self):
        import ray

        self._ray = ray
        self._task = ray.remote(num_cpus=0.5)(_noop)
        ray.get(self._task.remote(0))  # registers the function with the workers
        self.samples_s: list[float] = []

    def drain(self) -> None:
        """Wait (at most ``DRAIN_TIMEOUT_S``) until no task has held a CPU
        for ``DRAIN_QUIET_S``."""
        total = self._ray.cluster_resources().get("CPU", 0.0)
        now = time.monotonic()
        deadline, free_since = now + DRAIN_TIMEOUT_S, now
        while now < deadline and now - free_since < DRAIN_QUIET_S:
            time.sleep(0.01)
            now = time.monotonic()
            if self._ray.available_resources().get("CPU", 0.0) < total:
                free_since = now

    def sample(self) -> float:
        self.drain()
        t0 = time.perf_counter()
        for i in range(self.ROUND_TRIPS):
            self._ray.get(self._task.remote(i))
        self.samples_s.append(time.perf_counter() - t0)
        return self.samples_s[-1]

    @classmethod
    def slowdown(cls, before: float, after: float) -> float:
        return ((before + after) / 2 / cls.REF_S) ** cls.EXPONENT


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class RssSampler:
    """Samples the RSS sum of this process and its descendants (Ray's
    raylet, GCS and workers) every ``RSS_INTERVAL_S`` seconds on one mostly
    sleeping thread; the process list is refreshed every tenth tick."""

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pids: list[int] = []
        tick = 0
        while not self._stop.is_set():
            if tick % 10 == 0:
                pids = [os.getpid(), *descendants()]
            tick += 1
            self.peak_mb = max(self.peak_mb, sum(_rss_mb(p) for p in pids))
            self._stop.wait(RSS_INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


@contextlib.contextmanager
def written_datasets():
    """Collects every Dataset whose ``write_parquet`` is called inside the
    block, in call order.  A pipeline that checkpoints its stages executes
    each one as a write, so these are its executions."""
    from ray.data import Dataset

    write = Dataset.write_parquet
    out: list = []

    def recording_write(self, *args, **kwargs):
        out.append(self)
        return write(self, *args, **kwargs)

    Dataset.write_parquet = recording_write
    try:
        yield out
    finally:
        Dataset.write_parquet = write


def _stats_summary(ds):
    # a written Dataset keeps its execution's stats on the write plan
    return (ds._write_ds or ds)._get_stats_summary()


def executor_stats(datasets: list) -> dict:
    """Per-operator Ray Data stats of executed Datasets: task count and
    summed remote wall time over all operators, and the remote wall time
    of each all-to-all Sort (the groupby exchanges), in plan order."""
    seen: set[int] = set()
    order = []

    def walk(s) -> None:
        for p in s.parents:
            walk(p)
        if id(s) not in seen:
            seen.add(id(s))
            order.append(s)

    for ds in datasets:
        walk(_stats_summary(ds))
    tasks, busy, sorts, ops = 0, 0.0, [], []
    for s in order:
        if not s.operators_stats:
            continue
        op_busy = sum((o.wall_time or {}).get("sum", 0.0) for o in s.operators_stats)
        op_tasks = sum(int((o.task_rows or {}).get("count", 0)) for o in s.operators_stats)
        tasks += op_tasks
        busy += op_busy
        if s.base_name == "Sort":
            sorts.append(op_busy)
        ops.append({"operator": s.base_name, "tasks": op_tasks, "remote_busy_s": op_busy})
    return {"tasks": tasks, "remote_busy_s": busy, "sorts": sorts, "operators": ops}


def stop_processes(pids: list[int]) -> None:
    """Wait for ``pids`` to end (reaping our own children), then kill any
    still alive after ``STOP_TIMEOUT_S`` seconds and wait for those too."""

    def alive() -> list[int]:
        while True:
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        live = []
        for p in pids:
            try:
                with open(f"/proc/{p}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                        live.append(p)
            except OSError:
                pass
        return live

    deadline = time.monotonic() + STOP_TIMEOUT_S
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in alive():
        with contextlib.suppress(OSError):
            os.kill(p, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
