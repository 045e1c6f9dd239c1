"""The canonicalization reductions (stages/canonicalize.py): the merge
kernel against a pure-Python oracle, the hot-key and state bound of the
driver fold, output invariance under block boundaries, incremental merge,
and plans with no Sort or Repartition."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from climatemind_ontology_processing_ray.stages.canonicalize import (
    TRIPLE_KEY,
    _merge_arrow,
    _salt_of,
    canonicalize_mentions,
    canonicalize_partials,
    canonicalize_triples,
    fold_partials,
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
    """The Dataset's blocks, collected in one execution; an empty block may
    be schemaless."""
    return [
        t
        for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_columns
    ]


def _rows(ds) -> list[tuple]:
    return _table_rows(pa.concat_tables(_tables(ds)))


def _table_rows(tbl: pa.Table) -> list[tuple]:
    return sorted(
        zip(
            *(tbl.column(c).to_pylist() for c in TRIPLE_KEY),
            tbl.column("support").to_pylist(),
            map(tuple, tbl.column("sources").to_pylist()),
        )
    )


def _hot_rows(tbl: pa.Table) -> pa.Table:
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


def test_hot_key_reducer_rows_bounded(monkeypatch, linked_blocks):
    """State bound of the driver fold, seen by a spy on its merge: with a
    triple on 60% of the rows, every merge returns one row per key (the
    hot triple once), no merge input exceeds 2 x the distinct keys + the
    largest block, and the output equals the group_by reference."""
    from climatemind_ontology_processing_ray.stages import canonicalize

    tables = [partial_triple_agg_arrow(b, 16, SOURCES_CAP) for b in linked_blocks]
    assert sum(t.num_rows for t in tables) == N_BLOCKS * (COLD_KEYS_PER_BLOCK + 1)
    # the map-side combine alone sends one hot row per block
    assert sum(_hot_rows(t).num_rows for t in tables) == N_BLOCKS
    distinct = len(_reference(linked_blocks))
    largest = max(t.num_rows for t in tables)

    merges = []
    real = canonicalize._merge_arrow

    def spy(tbl, keys, sources_cap):
        out = real(tbl, keys, sources_cap)
        merges.append((tbl.num_rows, out))
        return out

    monkeypatch.setattr(canonicalize, "_merge_arrow", spy)
    out = fold_partials(tables, SOURCES_CAP)
    assert len(merges) > 1
    for rows_in, acc in merges:
        assert rows_in <= 2 * distinct + largest, (rows_in, distinct, largest)
        keys = set(zip(*(acc.column(c).to_pylist() for c in TRIPLE_KEY)))
        assert len(keys) == acc.num_rows
        assert _hot_rows(acc).num_rows == 1
    assert sum(_hot_rows(out).column("support").to_pylist()) == N_BLOCKS * HOT_PER_BLOCK
    assert _table_rows(out) == _reference(linked_blocks)


def test_output_invariant_to_blocks_and_parts(ray_session, linked_blocks):
    """The same sorted edge rows however the partials fall into blocks
    (per upstream block, one table, one row per table, or streamed from a
    Dataset), and an incremental merge of two halves equals one pass over
    their union."""
    from climatemind_ontology_processing_ray.pipelines.api import merge_canonical_edges

    partials = _partials(linked_blocks).materialize()
    expected = _reference(linked_blocks)
    tables = _tables(partials)
    one_row = [t.slice(i, 1) for t in tables for i in range(t.num_rows)]
    for blocks in (tables, [pa.concat_tables(tables)], one_row):
        assert _table_rows(fold_partials(blocks, SOURCES_CAP)) == expected, len(blocks)
    assert _rows(canonicalize_partials(partials, SOURCES_CAP)) == expected

    half = N_BLOCKS // 2
    a = canonicalize_partials(_partials(linked_blocks[:half]), SOURCES_CAP)
    b = canonicalize_partials(_partials(linked_blocks[half:]), SOURCES_CAP)
    assert _rows(merge_canonical_edges(a, b, SOURCES_CAP)) == expected


def test_canonicalize_plans_have_no_sort(ray_session, linked_blocks, ray_executions):
    """Plan guard: each canonicalization is one Ray Data execution that
    runs no Sort and no Repartition; the merge is the driver fold."""
    import ray.data

    edges = canonicalize_triples(ray.data.from_arrow(linked_blocks))
    mentions = ray.data.from_arrow(
        [b.select(["url"]).append_column("surface_norm", b["subj_label"]) for b in linked_blocks]
    )
    counts = canonicalize_mentions(mentions)
    assert len(ray_executions) == 2, ray_executions
    operators = [name for run in ray_executions for name in run]
    assert not [n for n in operators if "Sort" in n or "Repartition" in n], ray_executions

    assert _rows(edges) == _reference(linked_blocks)
    naive = pc.value_counts(pa.concat_tables(linked_blocks)["subj_label"])
    assert counts.take_all() == [
        {"surface_norm": s, "n_mentions": n}
        for s, n in sorted(
            zip(naive.field("values").to_pylist(), naive.field("counts").to_pylist())
        )
    ]


def test_output_order_is_independent_of_block_order(ray_session, linked_blocks):
    """Canonical edges leave the fold sorted by (subject, object,
    predicate): the same partial blocks arriving in either order give
    equal tables, so the published ``canonical_edges/`` bytes do not
    depend on which block lands first."""
    a, b = linked_blocks[: N_BLOCKS // 2], linked_blocks[N_BLOCKS // 2 :]
    ab, ba = (
        pa.concat_tables(_tables(canonicalize_partials(_partials(bs), SOURCES_CAP)))
        for bs in (a + b, b + a)
    )
    assert ab.equals(ba)
    keys = list(zip(*(ab.column(c).to_pylist() for c in TRIPLE_KEY)))
    assert keys == sorted(keys)


def _merge_oracle(rows: list[dict], keys: list[str], cap: int) -> pa.Table:
    """``_merge_arrow`` in plain Python: per key, the support sum and the
    ``cap`` smallest distinct non-null urls in ascending order, rows
    sorted by key."""
    groups: dict[tuple, tuple[int, set]] = {}
    for r in rows:
        support, urls = groups.get(tuple(r[k] for k in keys), (0, set()))
        valid = {u for u in r["sources"] if u is not None}
        groups[tuple(r[k] for k in keys)] = (support + r["support"], urls | valid)
    out = sorted(groups.items())
    cols = {
        k: pa.array([key[i] for key, _ in out], pa.int32() if k == "salt" else pa.string())
        for i, k in enumerate(keys)
    }
    cols["support"] = pa.array([support for _, (support, _) in out], pa.int64())
    cols["sources"] = pa.array(
        [sorted(urls)[:cap] for _, (_, urls) in out],
        pa.list_(pa.string()),
    )
    return pa.table(cols)


def _random_partials(rng, n: int, element_lists: bool) -> pa.Table:
    """``n`` partial rows over a few keys (empty and non-ASCII strings, an
    int32 salt), 0-3 urls per row, every column in two chunks; the sources
    list's item field is named ``element`` (as Parquet names it) or
    ``item``."""
    words = ["", "a", "b", "é", "ß", "bé", "climate change", "Z"]
    split = int(rng.integers(0, n + 1))

    def col(values, typ):
        return pa.chunked_array([pa.array(values[:split], typ), pa.array(values[split:], typ)])

    item = pa.field("element" if element_lists else "item", pa.string())
    return pa.table(
        {
            "subject": col([str(w) for w in rng.choice(words, n)], pa.string()),
            "object": col([str(w) for w in rng.choice(words[:4], n)], pa.string()),
            "predicate": col([str(w) for w in rng.choice(["causes", "is_a"], n)], pa.string()),
            "salt": col([int(x) for x in rng.integers(-3, 4, n)], pa.int32()),
            "support": col([int(x) for x in rng.integers(0, 5, n)], pa.int64()),
            "sources": col(
                [
                    [f"https://u{int(u)}.example" for u in rng.integers(0, 12, int(rng.integers(0, 4)))]
                    for _ in range(n)
                ],
                pa.list_(item),
            ),
        }
    )


def _by_key(tbl: pa.Table, keys: list[str]) -> pa.Table:
    return tbl.sort_by([(k, "ascending") for k in keys])


def test_merge_arrow_matches_python_oracle():
    """``_merge_arrow``, sorted by key, equals the oracle, schema included
    (``sources`` is ``list<item: string>`` whatever the input's item
    name), on random tables with and without the int32 salt key and for
    caps 1, 3 and 8; ``_merge_arrow`` leaves its rows in hash-group order,
    so ``fold_partials`` over the table cut into tables and fed in a
    shuffled order equals the oracle row for row; a table without rows or
    missing a column gives the typed empty."""
    rng = np.random.default_rng(11)
    for i in range(240):
        tbl = _random_partials(rng, int(rng.integers(0, 301)), element_lists=bool(i % 2))
        keys = TRIPLE_KEY + (["salt"] if i % 3 == 0 else [])
        cap = (1, 3, 8)[i % 3]
        want = _merge_oracle(tbl.to_pylist(), keys, cap)
        got = _by_key(_merge_arrow(tbl, keys, cap), keys)
        assert got.schema.equals(want.schema), (i, got.schema)
        assert got.equals(want), i
        if keys == TRIPLE_KEY:
            cuts = np.sort(rng.integers(0, tbl.num_rows + 1, int(rng.integers(1, 6))))
            pieces = [tbl.slice(a, b - a) for a, b in zip([0, *cuts], [*cuts, tbl.num_rows])]
            shuffled = [pieces[j] for j in rng.permutation(len(pieces))]
            assert fold_partials(shuffled, cap).equals(want), i
    tbl = _random_partials(rng, 50, element_lists=False)
    for keys in (TRIPLE_KEY, TRIPLE_KEY + ["salt"]):
        assert _merge_arrow(tbl.drop_columns(["sources"]), keys, 8).equals(
            _merge_oracle([], keys, 8)
        )


def _random_linked(rng, n: int) -> pa.Table:
    """``n`` linked triple rows in two chunks: few keys (empty and
    non-ASCII labels), repeated and non-ASCII urls, and one null url."""
    words = ["", "a", "é", "ß", "climate change"]
    urls = [f"https://ü{int(u)}.example" for u in rng.integers(0, 6, n)]
    if n:
        urls[int(rng.integers(0, n))] = None
    split = int(rng.integers(0, n + 1))

    def col(values):
        return pa.chunked_array([values[:split], values[split:]], pa.string())

    return pa.table(
        {
            "url": col(urls),
            "subj_label": col([str(w) for w in rng.choice(words, n)]),
            "obj_label": col([str(w) for w in rng.choice(words[:3], n)]),
            "predicate": col([str(w) for w in rng.choice(["causes", "is_a"], n)]),
        }
    )


def test_map_side_combine_matches_python_oracle():
    """``partial_triple_agg_arrow``, sorted by key, equals the merge oracle
    over the batch's rows as one-url partials (support 1, or 0 for the
    null url, which no ``sources`` keeps), schema aside from the trailing
    int32 ``salt``, for caps 1, 3 and 8 and for a zero-row batch; every
    row's salt is the salt of its first source, or of ``""`` when it has
    none."""
    rng = np.random.default_rng(23)
    for i in range(60):
        batch = _random_linked(rng, 0 if i == 0 else int(rng.integers(1, 200)))
        units = [
            {
                "subject": r["subj_label"],
                "object": r["obj_label"],
                "predicate": r["predicate"],
                "support": int(r["url"] is not None),
                "sources": [r["url"]],
            }
            for r in batch.to_pylist()
        ]
        for cap in (1, 3, 8):
            got = partial_triple_agg_arrow(batch, 16, cap)
            assert got.column_names == TRIPLE_KEY + ["support", "sources", "salt"]
            assert got.schema.field("salt").type == pa.int32()
            want = _merge_oracle(units, TRIPLE_KEY, cap)
            assert _by_key(got, TRIPLE_KEY).drop_columns(["salt"]).equals(want), (i, cap)
            for sources, salt in zip(
                got.column("sources").to_pylist(), got.column("salt").to_pylist()
            ):
                assert salt == _salt_of(sources[0] if sources else "", 16), (i, cap)


def _linked(urls: list) -> pa.Table:
    """Linked rows of one triple, one per url."""
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "subj_label": ["global warming"] * n,
            "obj_label": ["sea level rise"] * n,
            "predicate": ["causes_or_promotes"] * n,
        }
    )


def test_null_urls_are_not_sources():
    """A null url counts toward no ``support`` and is no source: three
    rows ``[None, None, "a"]`` on one triple give support 1 and sources
    ``["a"]``; a triple whose urls are all null gives support 0, sources
    ``[]`` and the salt of ``""``, in the map-side combine and in the
    fold."""
    for urls, support, sources in (
        ([None, None, "a"], 1, ["a"]),
        ([None, "b", None, "a", "b"], 3, ["a", "b"]),
        ([None, None], 0, []),
    ):
        got = partial_triple_agg_arrow(_linked(urls), 16, SOURCES_CAP)
        assert got.column("support").to_pylist() == [support], urls
        assert got.column("sources").to_pylist() == [sources], urls
        assert got.column("salt").to_pylist() == [_salt_of((sources or [""])[0], 16)], urls
        folded = fold_partials([got, got], SOURCES_CAP)
        assert folded.column("support").to_pylist() == [2 * support], urls
        assert folded.column("sources").to_pylist() == [sources], urls
