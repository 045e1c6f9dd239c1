"""The canonicalization exchange (stages/canonicalize.py): the hot-key
bound of the map-side + fan-in combines, output invariance under fan-in
size and partition count, incremental merge, and the one-Sort plan."""

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from climatemind_ontology_processing_ray.stages.canonicalize import (
    TRIPLE_KEY,
    _FANIN_ROWS,
    canonicalize_partials,
    canonicalize_triples,
    exchange_rows,
    partial_triple_agg_arrow,
)

HOT = ("global warming", "sea level rise", "causes_or_promotes")
N_BLOCKS, HOT_PER_BLOCK, COLD_PER_BLOCK, COLD_KEYS_PER_BLOCK = 48, 150, 100, 24
SOURCES_CAP = 8


@pytest.fixture(scope="module")
def linked_blocks():
    """Linked triple rows in 48 blocks of 250: 60% on one hot triple, the
    rest over exactly 24 cold triples per block (a pool of 200), urls from
    60 sites — so every block combines to exactly 25 partial rows."""
    rng = np.random.default_rng(5)
    blocks = []
    for b in range(N_BLOCKS):
        cold = [(b * 7 + j % COLD_KEYS_PER_BLOCK) % 200 for j in range(COLD_PER_BLOCK)]
        subj = [HOT[0]] * HOT_PER_BLOCK + [f"cause {c % 37}" for c in cold]
        obj = [HOT[1]] * HOT_PER_BLOCK + [f"effect {c}" for c in cold]
        pred = [HOT[2]] * HOT_PER_BLOCK + [
            "causes_or_promotes" if c % 3 else "is_inhibited_or_prevented_or_blocked_or_slowed_by"
            for c in cold
        ]
        urls = [f"https://site-{u}.example/p" for u in rng.integers(0, 60, len(subj))]
        blocks.append(
            pa.table(
                {"url": urls, "subj_label": subj, "obj_label": obj, "predicate": pred}
            )
        )
    return blocks


def _partials(blocks):
    import ray.data

    return ray.data.from_arrow(blocks).map_batches(
        lambda b: partial_triple_agg_arrow(b, 16, SOURCES_CAP),
        batch_format="pyarrow",
        batch_size=None,
    )


def _tables(ds) -> list[pa.Table]:
    """The Dataset's blocks; an empty reducer may emit a schemaless one."""
    import ray

    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]


def _rows(ds) -> list[tuple]:
    tbl = pa.concat_tables(_tables(ds))
    return sorted(
        zip(
            *(tbl.column(c).to_pylist() for c in TRIPLE_KEY),
            tbl.column("support").to_pylist(),
            map(tuple, tbl.column("sources").to_pylist()),
        )
    )


def _hot_rows(ds) -> pa.Table:
    tbl = pa.concat_tables(_tables(ds))
    mask = pc.and_(
        pc.and_(pc.equal(tbl["subject"], HOT[0]), pc.equal(tbl["object"], HOT[1])),
        pc.equal(tbl["predicate"], HOT[2]),
    )
    return tbl.filter(mask)


def _reference(blocks) -> list[tuple]:
    """Support and the 8 smallest distinct urls per triple, from a pyarrow
    ``group_by`` over all linked rows."""
    agg = (
        pa.concat_tables(blocks)
        .group_by(["subj_label", "obj_label", "predicate"])
        .aggregate([("url", "count"), ("url", "distinct")])
    )
    return sorted(
        (s, o, p, n, tuple(sorted(urls)[:SOURCES_CAP]))
        for s, o, p, n, urls in zip(
            *(
                agg.column(c).to_pylist()
                for c in ["subj_label", "obj_label", "predicate", "url_count", "url_distinct"]
            )
        )
    )


def test_hot_key_reducer_rows_bounded(ray_session, linked_blocks):
    """Skew bound of the single exchange: with many fan-in batches, a triple
    on 60% of the rows reaches its one reducer as at most
    ceil(partial rows / fanin_rows) rows — one per fan-in batch, not one
    per upstream block or per occurrence — and the output still equals the
    group_by reference."""
    fanin_rows = 100  # 4 partial blocks of 25 rows per fan-in batch
    partials = _partials(linked_blocks).materialize()
    partial_rows = partials.count()
    assert partial_rows == N_BLOCKS * (COLD_KEYS_PER_BLOCK + 1)

    # without the fan-in the map-side combine alone sends one row per block
    assert _hot_rows(partials).num_rows == N_BLOCKS

    hot = _hot_rows(exchange_rows(partials, SOURCES_CAP, fanin_rows))
    assert len(set(hot.column("__part").to_pylist())) == 1  # one reducer
    assert hot.num_rows <= math.ceil(partial_rows / fanin_rows)
    assert sum(hot.column("support").to_pylist()) == N_BLOCKS * HOT_PER_BLOCK

    out = _rows(canonicalize_partials(partials, SOURCES_CAP, fanin_rows))
    assert out == _reference(linked_blocks)


def test_output_invariant_to_fanin_and_parts(ray_session, linked_blocks):
    """Same sorted edge rows at any partition count and fan-in size, and an
    incremental merge of two halves equals one pass over their union."""
    from climatemind_ontology_processing_ray.pipelines.api import merge_canonical_edges

    partials = _partials(linked_blocks).materialize()
    expected = _reference(linked_blocks)
    for num_parts in (1, 8, 64):
        for fanin_rows in (60, _FANIN_ROWS):
            got = _rows(
                canonicalize_partials(partials, SOURCES_CAP, fanin_rows, num_parts)
            )
            assert got == expected, (num_parts, fanin_rows)

    half = N_BLOCKS // 2
    a = canonicalize_partials(_partials(linked_blocks[:half]), SOURCES_CAP)
    b = canonicalize_partials(_partials(linked_blocks[half:]), SOURCES_CAP)
    one_pass = _rows(canonicalize_partials(partials, SOURCES_CAP))
    assert _rows(merge_canonical_edges(a, b, SOURCES_CAP)) == one_pass == expected


def test_canonicalize_plan_has_one_sort(ray_session, linked_blocks):
    """Plan guard: canonicalization runs exactly one Sort (one exchange
    barrier)."""
    import ray.data

    out = canonicalize_triples(ray.data.from_arrow(linked_blocks)).materialize()
    sorts = re.findall(r"^Operator \d+ Sort\b", out.stats(), re.M)
    assert len(sorts) == 1, out.stats()
