"""Engine-level Ray Data context configuration.

``configure_data_context()`` applies the engine's tuned execution
settings to the CURRENT process's ``ray.data.DataContext``.  It never
calls ``ray.init`` — the session belongs to the caller.  Every session
owner applies it after ``ray.init``, the CLI (``__main__.py``) included.

Why ``op_resource_reservation_enabled = False``: ray 2.49's streaming
executor reserves a resource quota per operator; on pipelines shaped
like this engine's (read -> heavy fused map -> lighter operators: two
sorts when this was measured, a fan-in map and one merge task today)
the reservation starves the heavy map at low CPU counts — measured on
the 400k-page KG corpus: 8 CPUs ran the fused map effectively SERIAL
(35.7s wall for 33.7 CPU-seconds; whole pipeline 40.3s).  Disabling the
reservation restores expected scaling: 8.6s at 8 CPUs, 13.0s at 4,
4.9s at 16 — a 3-4.7x wall-time win at constrained parallelism with no
measured regression at 32 CPUs (and the constrained-object-store
endurance run still completes, see BASELINE.md).
"""

from __future__ import annotations


def configure_data_context() -> None:
    import logging

    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
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
