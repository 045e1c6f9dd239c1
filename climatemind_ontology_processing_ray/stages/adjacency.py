"""Adjacency-list materialization: the final sorted-groupby output stage
(north_star "sorted groupby materializing adjacency-list partitions
equivalent to ClimateMind's make_graph/make_network outputs").

Output schema (SURVEY §1.3 "adjacency partitions")::

    subject: string,
    degree: int64,
    edges: list<struct<object: string, predicate: string,
                       sources: list<string>, support: int64>>

One row per subject, subjects ascending; each edge list is ordered by
(object, predicate), so output rows are parallelism-independent.
:func:`adjacency_table` is the kernel; :func:`build_adjacency` runs it
per subject group over a Dataset.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

_EDGE_FIELDS = ["object", "predicate", "sources", "support"]


def adjacency_table(edges: pa.Table) -> pa.Table:
    """Canonical edges (subject, object, predicate, support, sources) ->
    one adjacency row per subject: sort by (subject, object, predicate),
    then cut the edge structs into lists at the subject run ends."""
    edges = edges.sort_by([(c, "ascending") for c in ("subject", "object", "predicate")])
    runs = pc.run_end_encode(edges.column("subject").combine_chunks())
    offsets = pa.concat_arrays([pa.array([0], pa.int32()), runs.run_ends])
    items = pa.StructArray.from_arrays(
        [edges.column(c).combine_chunks() for c in _EDGE_FIELDS], names=_EDGE_FIELDS
    )
    return pa.table(
        {
            "subject": runs.values,
            "degree": pc.cast(pc.subtract(offsets[1:], offsets[:-1]), pa.int64()),
            "edges": pa.ListArray.from_arrays(offsets, items),
        }
    )


def build_adjacency(canonical_edges: Dataset) -> Dataset:
    return canonical_edges.groupby("subject").map_groups(
        adjacency_table, batch_format="pyarrow"
    )
