"""Mention detection: a stateful callable (SURVEY §2.3 A1).

The reference resolves labels with a linear ``onto.search_one(label=...)``
scan per node (``make_graph_class.py:114``).  Here the ontology's surface
forms are compiled ONCE, in ``__init__``, into one regex shaped as their
prefix trie: nested groups, one branch per distinct next character, the
longer continuation tried before the end of a form.  Forms that share a
prefix share its comparison, so ``re`` tests one branch per character at
each text position instead of retrying every form (shared-prefix
evaluation, as in an Aho-Corasick automaton); the first match found at a
position is the longest form there that the word-boundary guards accept.
``__call__`` then scans each batch.

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


_END = ""  # trie key marking the end of a surface form


def _trie_regex(node: dict) -> str:
    """Regex for the forms below a trie node.  Single-child chains are one
    literal; each branch tries its continuations before its own end (the
    greedy ``?``), so backtracking meets longer forms first."""
    branches = []
    for ch in sorted(k for k in node if k != _END):
        run, child = ch, node[ch]
        while len(child) == 1 and _END not in child:
            ((nxt, child),) = child.items()
            run += nxt
        branches.append(re.escape(run) + _trie_regex(child))
    if not branches:
        return ""
    body = branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"
    if _END in node:
        return body + "?" if len(branches) > 1 else f"(?:{body})?"
    return body


def build_surface_pattern(surface_forms: Iterable[str]) -> re.Pattern:
    """Word-boundary pattern over the lowercased variants, compiled as
    their prefix trie.  At each position it matches the longest variant
    the guards accept, as a longest-first alternation of the same
    variants would."""
    trie: dict = {}
    for v in {v.lower() for v in surface_forms if v}:
        node = trie
        for ch in v:
            node = node.setdefault(ch, {})
        node[_END] = {}
    if not trie:
        return re.compile(r"(?!x)x")  # matches nothing
    return re.compile(rf"(?<![a-z0-9]){_trie_regex(trie)}(?![a-z0-9])")


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
            # counts sentence terminators before the match, kept as a
            # running count since matches arrive in offset order
            low = (text or "").lower()
            sid = prev = 0
            for m in self.pattern.finditer(low):
                norm = normalize_surface(m.group(0))
                s = m.start()
                sid += sum(low.count(c, prev, s) for c in SENTENCE_ENDS)
                prev = s
                out_url.append(url)
                out_sid.append(sid)
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
