"""Engine-level Ray Data context configuration.

``configure_data_context()`` applies the engine's tuned execution
settings to the CURRENT process's ``ray.data.DataContext``.  It never
calls ``ray.init`` — the session belongs to the caller.  Every session
owner applies it after ``ray.init``, the CLI (``__main__.py``) included.
It sets three things, all ray 2.49 executor internals.

1. ``op_resource_reservation_enabled = False``.  Ray Data's per-operator
   reservation starves the heavy map on this engine's pipeline shape
   (read -> heavy fused map, whose partial blocks stream to a fold on the
   driver; until the fold, a fan-in map -> ``repartition(1)`` -> one merge
   task followed it) at low CPU counts.  On the 400k-page KG corpus 8 CPUs ran
   the fused map effectively serial (35.7 s wall for 33.7 CPU-seconds;
   whole pipeline 40.3 s); without it, 8.6 s at 8 CPUs, 13.0 s at 4 and
   4.9 s at 16, with no measured regression at 32 CPUs.  A sleep-UDF
   model of that shape (32 tasks sleeping 0.15 s, on a 1-core host)
   takes 5.9 s with the reservation vs 1.5 s without at 4 logical CPUs,
   and 3.6 vs 0.8-0.9 s at 8.

2. ``_ClusterCpuAdmission``, a backpressure policy that admits a task
   only while the CPUs of the tasks in flight plus the new task's stay
   within ``ADMISSION_FACTOR`` (2) x the cluster's CPUs.  With the
   reservation off every operator's budget is unlimited, so without a cap
   the executor submits every ready task at once and they queue in the
   raylet.  The scheduling loop's ``ray.wait`` returns when every active
   task is done or after 0.1 s, so with a queue it runs out that timeout
   on nearly every pass; a split read task parked on its generator
   buffer (3. below) holds its CPU meanwhile.  On 1 CPU that was 6
   timeouts (0.6 s) of a 0.82 s ``skewed_canonicalize`` iteration and
   12-14 of a 1.41 s ``crawl_ingest`` one.  2 x keeps one queued task
   per CPU, so the raylet starts a successor without waiting for the
   next pass.  In the sleep-UDF model at 4 logical CPUs (medians of 9
   runs, two sessions each) a 1 x cap took 2.07-2.26 s, 2 x 1.53-2.03 s
   and no cap 1.48-1.70 s; runs spread 1.4-3.4 s on the one core, so 2 x
   against no cap is not resolved there.

3. ``_max_num_blocks_in_streaming_gen_buffer = None``.  With the
   reservation off the executor drains every task's outputs on each loop
   pass, so the 2-block generator buffer bounds no memory; it only makes
   a task that yields more blocks pause while it still holds its CPU.
   The admission cap now bounds the tasks in flight.  On the split read
   of ``tests/test_runtime.py`` (1 CPU) neither setting gives 4
   timeouts, the cap alone 1, the buffer off alone and both 0.  On
   ``skewed_canonicalize`` an earlier measurement had the cap alone
   leave 4 timeouts an iteration, and the buffer off alone leave 1-10
   and raise ``crawl_ingest`` peak RSS by 10%.

On the benchmark (1 CPU, 10 alternating pairs per workload) the two
settings took ``skewed_canonicalize`` from 0.91 to 0.45 s a run,
``crawl_ingest`` from 1.55 to 1.19 s and ``publish_resume`` from 1.03
to 0.85 s, with the same task counts.
"""

from __future__ import annotations

from ray.data._internal.execution.backpressure_policy import (
    ENABLED_BACKPRESSURE_POLICIES,
    ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
    BackpressurePolicy,
)

# tasks in flight, in CPUs, per CPU of the cluster: one running and one
# queued, so a finished task's successor is already at the raylet
ADMISSION_FACTOR = 2


class _ClusterCpuAdmission(BackpressurePolicy):
    """Admit a task only while the CPUs in use plus its own stay within
    ``ADMISSION_FACTOR`` x the cluster's CPUs."""

    def can_add_input(self, op) -> bool:
        rm = self._resource_manager
        wanted = rm.get_global_usage().cpu + op.incremental_resource_usage().cpu
        return wanted <= ADMISSION_FACTOR * rm.get_global_limits().cpu


def configure_data_context() -> None:
    import logging

    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
    ctx._max_num_blocks_in_streaming_gen_buffer = None
    ctx.set_config(
        ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
        [*ENABLED_BACKPRESSURE_POLICIES, _ClusterCpuAdmission],
    )
    # Two known-benign ray 2.49 log artifacts, silenced narrowly:
    # - streaming_executor_state warns "RefBundle with a different schema"
    #   whenever a sort/groupby partition is EMPTY (untyped empty block) —
    #   routine for sparse keys, not a defect of this engine's operators.
    # - transform_pyarrow warns "Failed to hash the schemas" when a block
    #   schema carries dict-typed (map/struct) fields, e.g. adjacency
    #   lists; hashing is only used for an internal dedup fast path.
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).setLevel(logging.ERROR)
    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)
    # - pandas_block warns "Error calculating size for column" when a
    #   SIZE-0 object column hits the sampling size estimator
    #   (np.vectorize rejects empty input) — empty join/filter buckets
    #   are routine; the block's true size is 0 anyway.
    logging.getLogger("ray.data._internal.pandas_block").setLevel(
        logging.ERROR
    )
