"""Causal-pattern triple extraction (SURVEY §2.2 "new-engine-only" stage c).

A stateful stage sharing the mention automaton: adjacent mention pairs in
the same sentence whose connecting text matches a causal connective emit
one pre-link triple row (implemented as a single whole-page scan — a
sentence boundary inside the gap disqualifies the pair, equivalent to
per-sentence pairing).  The connective table mirrors the
reference's two dominant predicates (``causes_or_promotes`` and
``is_inhibited_or_prevented_or_blocked_or_slowed_by``,
``make_graph_class.py:423``, ``:460``) plus the remaining reference edge
types (myth/exposure/population/is_a, SURVEY §1.2 edge-type table).

Inhibition connectives read solution-first ("X can prevent Y"), so the
emitted triple is (subject=Y, object=X, INHIBITS) — the reference's
problem->solution edge direction (``make_graph_class.py:459-461``).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..ontology.schema import OntologySnapshot
from ..ontology.vocab import CAUSES, EXPOSURE, INHIBITS, IS_A, MYTH_ABOUT, POPULATION
from .mentions import SENTENCE_ENDS, snapshot_surface_pattern

# connective text (lowercased, stripped) -> (predicate, subject_first)
CONNECTIVES: dict[str, tuple[str, bool]] = {
    "causes": (CAUSES, True),
    "leads to": (CAUSES, True),
    "contributes to": (CAUSES, True),
    "promotes": (CAUSES, True),
    "can prevent": (INHIBITS, False),
    "inhibits": (INHIBITS, False),
    "slows": (INHIBITS, False),
    "reduces": (INHIBITS, False),
    "is a myth about": (MYTH_ABOUT, True),
    "has exposure dependency of": (EXPOSURE, True),
    "affects the population of": (POPULATION, True),
    "is a kind of": (IS_A, True),
}

_GAP_STRIP = " \t,;:"

# RE2 prefilter: the pages whose text may hold a connective once lowered.
# RE2's case folding maps onto each ASCII letter every character whose
# str.lower() yields that letter (U+212A, the Kelvin sign, included),
# except U+0130, whose lower() is "i" + U+0307: it is added to each "i" by
# hand.  So the filter keeps a superset of the pages the scan below uses.
_CONNECTIVE_RE = "(?i)" + "|".join(
    re.escape(c).replace("i", "[i\u0130]") for c in CONNECTIVES
)


class TripleExtractor:
    """pages(extracted_text) -> pre-link triple rows.

    Output schema: url, subj_surface, obj_surface, predicate.
    """

    def __init__(self, snapshot_json: str):
        self.pattern = snapshot_surface_pattern(OntologySnapshot.from_json(snapshot_json))

    # connectives are short; gaps longer than this can't match
    _MAX_GAP = max(len(c) for c in CONNECTIVES) + 8

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.select(["url", "extracted_text"]).filter(
            pc.match_substring_regex(batch.column("extracted_text"), pattern=_CONNECTIVE_RE)
        )
        urls = batch.column("url").to_pylist()
        texts = batch.column("extracted_text").to_pylist()
        o_url, o_subj, o_obj, o_pred = [], [], [], []
        max_gap = self._MAX_GAP
        for url, text in zip(urls, texts):
            low = (text or "").lower()
            # single whole-page scan; a sentence boundary ('.', '!', '?',
            # newline) inside the gap disqualifies the pair, which is
            # exactly the per-sentence pairing without the per-sentence
            # regex loop (hot-path optimization; semantics unchanged)
            mentions = self.pattern.finditer(low)
            prev = next(mentions, None)
            for m2 in mentions:
                m1, prev = prev, m2
                gap = low[m1.end() : m2.start()]
                if len(gap) > max_gap or any(c in gap for c in SENTENCE_ENDS):
                    continue
                hit = CONNECTIVES.get(gap.strip(_GAP_STRIP))
                if hit is None:
                    continue
                predicate, subject_first = hit
                a, b = m1.group(0), m2.group(0)
                subj, obj = (a, b) if subject_first else (b, a)
                o_url.append(url)
                o_subj.append(subj)
                o_obj.append(obj)
                o_pred.append(predicate)
        return pa.table(
            {
                "url": pa.array(o_url, pa.string()),
                "subj_surface": pa.array(o_subj, pa.string()),
                "obj_surface": pa.array(o_obj, pa.string()),
                "predicate": pa.array(o_pred, pa.string()),
            }
        )
