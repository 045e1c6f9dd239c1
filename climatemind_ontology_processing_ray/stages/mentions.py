"""Mention detection: a stateful callable (SURVEY §2.3 A1).

The reference resolves labels with a linear ``onto.search_one(label=...)``
scan per node (``make_graph_class.py:114``).  Here the ontology's surface
forms are compiled ONCE into a single longest-first regex alternation
(C-speed scan, equivalent to an Aho-Corasick automaton for this
vocabulary size) in ``__init__``; ``__call__`` then scans each batch.

Use as::

    pages.map_batches(
        per_worker(MentionDetector, snap.to_json()),   # stages/fused.py
        batch_format="pyarrow", batch_size=512,
    )

so the pattern is built once per worker process, never per batch.
"""

from __future__ import annotations

import re
from typing import Iterable

import pyarrow as pa

from ..ontology.schema import OntologySnapshot, normalize_surface

# the one sentence boundary every stage uses: a terminator or a newline
SENTENCE_ENDS = ".!?\n"


def sentence_id(low: str, pos: int) -> int:
    """Index of the sentence holding offset ``pos``: the number of
    sentence terminators before it."""
    return (
        low.count(".", 0, pos)
        + low.count("!", 0, pos)
        + low.count("?", 0, pos)
        + low.count("\n", 0, pos)
    )


def build_surface_pattern(surface_forms: Iterable[str]) -> re.Pattern:
    """Longest-first, word-boundary alternation over lowercased variants."""
    variants = sorted({v.lower() for v in surface_forms if v}, key=len, reverse=True)
    if not variants:
        return re.compile(r"(?!x)x")  # matches nothing
    alts = "|".join(re.escape(v) for v in variants)
    return re.compile(rf"(?<![a-z0-9])(?:{alts})(?![a-z0-9])")


def snapshot_surface_pattern(snap: OntologySnapshot) -> re.Pattern:
    """The surface pattern over every individual's surface forms (its
    label when it lists none)."""
    forms: set[str] = set()
    for node in snap.individuals.values():
        forms.update(node.get("surface_forms") or [node["label"]])
    return build_surface_pattern(forms)


class MentionDetector:
    """pages(extracted_text) -> mention rows.

    Output schema: url, sent_id (int32), surface, surface_norm,
    node_label (nullable), span_start, span_end (int32).
    """

    def __init__(self, snapshot_json: str):
        snap = OntologySnapshot.from_json(snapshot_json)
        self.pattern = snapshot_surface_pattern(snap)
        self.index = snap.surface_index()

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("extracted_text").to_pylist()
        out_url, out_sid, out_surface, out_norm, out_label = [], [], [], [], []
        out_start, out_end = [], []
        for url, text in zip(urls, texts):
            # single whole-page scan: spans are exact page offsets; sent_id
            # counts sentence terminators before the match
            low = (text or "").lower()
            for m in self.pattern.finditer(low):
                norm = normalize_surface(m.group(0))
                s = m.start()
                out_url.append(url)
                out_sid.append(sentence_id(low, s))
                out_surface.append(m.group(0))
                out_norm.append(norm)
                out_label.append(self.index.get(norm))
                out_start.append(s)
                out_end.append(m.end())
        return pa.table(
            {
                "url": pa.array(out_url, pa.string()),
                "sent_id": pa.array(out_sid, pa.int32()),
                "surface": pa.array(out_surface, pa.string()),
                "surface_norm": pa.array(out_norm, pa.string()),
                "node_label": pa.array(out_label, pa.string()),
                "span_start": pa.array(out_start, pa.int32()),
                "span_end": pa.array(out_end, pa.int32()),
            }
        )
