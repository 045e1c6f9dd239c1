"""Data-scaled exchange fan-out (VERDICT r3 item 3).

A fixed 64-way hash partition bounds nothing: at 10^12 rows each
partition's merge frame is ~1.5e10 rows.  Every coarse-partition exchange
(`grouped_sum`, dedup buckets, simjoin postings, canonicalize, bucketed
joins) now sizes its fan-out from the INPUT row count with a floor (tiny
tables should not pay 64 groups of scheduling) and a ceiling (bounds
per-group scheduling bookkeeping; rows_per_part keeps per-partition frames
vectorization-sized).

Row counts come free — never from executing the pipeline:

1. ``Dataset._meta_count()``: known for reads and materialized datasets;
2. else the plan's source ``Read`` op metadata (an ESTIMATE under
   row-count-changing transforms like filter/flat_map, which is fine —
   fan-out needs the order of magnitude, not exactness);
3. else the round-3 constant (64).

Partition count never changes RESULTS — these are all key-hashed
exchanges whose per-partition merges group by the real key — only the
shape of the shuffle, so callers may also pass an explicit count.
"""

from __future__ import annotations

DEFAULT_PARTS = 64
# 16k rows/part: at 1M input rows fan-out reaches ~61 parts (≈2x a 32-CPU
# node, so the merge wave keeps every core busy — measured: 65k rows/part
# gave 16 parts at 1M rows and exact_dedup regressed 6.3->14.5s on idle
# cores), while per-partition frames stay vectorization-sized at any
# scale and tiny tables still hit the floor.
ROWS_PER_PART = 16_384
PART_FLOOR = 8
PART_CAP = 65_536


def estimate_rows(ds) -> int | None:
    """Best-effort row count of a Dataset WITHOUT executing it (private
    Ray APIs behind try/except; None when nothing is known)."""
    try:
        n = ds._meta_count()
        if n is not None:
            return int(n)
    except Exception:
        pass
    try:
        op = ds._plan._logical_plan.dag
        while op.input_dependencies:
            op = op.input_dependencies[0]
        n = op.infer_metadata().num_rows
        return int(n) if n is not None else None
    except Exception:
        return None


def adaptive_parts(
    ds=None,
    *,
    rows: int | None = None,
    rows_per_part: int = ROWS_PER_PART,
    floor: int = PART_FLOOR,
    cap: int = PART_CAP,
    default: int = DEFAULT_PARTS,
) -> int:
    """Exchange fan-out ∝ input rows, clamped to [floor, cap]; ``default``
    when the size is unknowable (mid-pipeline with no read source)."""
    if rows is None and ds is not None:
        rows = estimate_rows(ds)
    if rows is None:
        return default
    return max(floor, min(cap, -(-int(rows) // rows_per_part)))
