"""NDJSON (JSON-lines) pages source — the crawl-dump interchange shape.

Web-crawl corpora commonly arrive as newline-delimited JSON (one page
object per line: Common-Crawl WET/CDX exports, scraper output).  This
source reads NDJSON with ``ray.data.read_json`` (streamed, one block per
file chunk — the same parallel-read shape as the parquet path) and
coerces each batch to the engine's pages contract
(``sources/pages.py``):

    url: string, warc_ts: timestamp[us], html: binary,
    text: string, lang: string

Coercions are per-batch and vectorized: ISO-8601 ``warc_ts`` strings →
timestamp[us]; ``html`` JSON strings (JSON cannot carry raw bytes) →
utf-8 binary; absent optional columns materialize as nulls so every
downstream stage sees one schema regardless of which fields a given
crawl export includes.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data
from ray.data import Dataset

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _parse_iso_ts(col):
    """ISO-8601 string → timestamp[us], accepting the variants crawl
    exports actually emit: plain ``YYYY-MM-DDTHH:MM:SS``, fractional
    seconds (finer than µs truncates), a ``Z`` suffix, and numeric zone
    offsets (normalized to UTC wall time).  Arrow's native ISO cast covers
    a column of naive strings, or one of zone-bearing strings; anything
    else (a mixed batch, sub-µs fractions, garbage) takes one per-value
    pandas pass that nulls, rather than raises on, unrecognized rows (and,
    in such a batch, rows outside pandas' nanosecond range, years
    1677-2262) so one odd record cannot fail the whole read."""
    try:
        return col.cast(pa.timestamp("us"))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        pass
    try:
        return col.cast(pa.timestamp("us", "UTC")).cast(pa.timestamp("us"))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        pass
    import pandas as pd

    parsed = pd.to_datetime(col.to_pandas(), utc=True, errors="coerce", format="mixed")
    return pa.Array.from_pandas(parsed.dt.tz_localize(None)).cast(
        pa.timestamp("us"), safe=False
    )


def _coerce(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    cols = {}
    names = set(batch.column_names)
    for field in PAGES_SCHEMA:
        if field.name not in names:
            cols[field.name] = pa.nulls(n, field.type)
            continue
        col = batch.column(field.name)
        if field.name == "warc_ts" and pa.types.is_string(col.type):
            col = _parse_iso_ts(col)
        elif field.name == "html" and pa.types.is_string(col.type):
            col = col.cast(pa.binary())
        cols[field.name] = col.cast(field.type)
    return pa.table(cols, schema=PAGES_SCHEMA)


def read_pages_jsonl(paths: str | list[str]) -> Dataset:
    """Pages Dataset from NDJSON file(s), coerced to the pages contract.
    Column pruning happens post-parse (JSON is row-major; there is no
    column projection to push down), so keep crawl exports pre-split by
    field group if the html payload dominates."""
    ds = ray.data.read_json(paths)
    return ds.map_batches(_coerce, batch_format="pyarrow", zero_copy_batch=True)
