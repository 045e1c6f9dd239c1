"""Entity linking: a stateful stage resolving surface forms to ontology
node labels (SURVEY §2.3 A2), its index built once per worker
(``stages/fused.py``).

The reference links by exact label equality (``onto.search_one``,
``make_graph_class.py:114``); here linking is: normalize the surface
(``normalize_surface``, the rule the snapshot's surface index is keyed
on), exact-match against that index (score 1.0), fall back to a
de-pluralized match (score 0.9), otherwise abstain.  Rows where either
endpoint abstains or scores below the threshold are dropped.

The guard against unknown-entity causal sentences is the extractor's
surface pattern, not this stage: the pattern matches only the snapshot's
surface forms, the forms the index is built from, so on the engine path
every surface is an exact hit and no row is dropped here
(``tests/test_extract.py::test_every_pattern_form_is_an_exact_link``).
The fallback and the threshold only act on surfaces from another
extractor.  IRIs are not carried here: the node table (``nodes/``) takes
them from the snapshot.
"""

from __future__ import annotations

import pyarrow as pa

from ..ontology.schema import OntologySnapshot, normalize_surface

LINK_THRESHOLD = 0.85  # the least link score that keeps a row


class EntityLinker:
    """pre-link triples -> linked triples.

    Adds subj_label, obj_label and filters to rows where both endpoints
    link at >= threshold.
    """

    def __init__(self, snapshot_json: str, threshold: float = LINK_THRESHOLD):
        self.index = OntologySnapshot.from_json(snapshot_json).surface_index()
        self.threshold = threshold

    def _link(self, surface: str) -> tuple[str | None, float]:
        norm = normalize_surface(surface)
        label = self.index.get(norm)
        if label is not None:
            return label, 1.0
        if norm.endswith("s"):
            label = self.index.get(norm[:-1])
            if label is not None:
                return label, 0.9
        return None, 0.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj_surfaces = batch.column("subj_surface").to_pylist()
        obj_surfaces = batch.column("obj_surface").to_pylist()
        # memoized per-batch lookups (surfaces repeat heavily under Zipf skew)
        cache: dict[str, tuple[str | None, float]] = {}
        keep_idx, s_label, o_label = [], [], []
        for i, (ss, os_) in enumerate(zip(subj_surfaces, obj_surfaces)):
            ls = cache.get(ss)
            if ls is None:
                ls = self._link(ss)
                cache[ss] = ls
            lo = cache.get(os_)
            if lo is None:
                lo = self._link(os_)
                cache[os_] = lo
            if (
                ls[0] is not None
                and lo[0] is not None
                and ls[1] >= self.threshold
                and lo[1] >= self.threshold
            ):
                keep_idx.append(i)
                s_label.append(ls[0])
                o_label.append(lo[0])
        out = batch.take(pa.array(keep_idx, pa.int64()))
        out = out.append_column("subj_label", pa.array(s_label, pa.string()))
        out = out.append_column("obj_label", pa.array(o_label, pa.string()))
        return out
