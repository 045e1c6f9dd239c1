"""Ontology snapshot: the small side-input of the KG pipeline.

The reference keeps the ontology as a live owlready2 world and queries it
with per-node linear scans (``search_one``, ``make_graph_class.py:114``).
At web scale the ontology is a *small side input*: parsed once on the
driver, snapshotted to plain tables, shipped as JSON inside the front
end's task fn and indexed once per worker process (``stages/fused.py``
``per_worker``).

The snapshot models exactly the content the reference consumes:

- individuals with label/iri/comment (``make_graph_class.py:124-127``),
  direct classes + ancestor closure (``:129-158``), annotation properties
  and data properties (``:160-170``);
- the class hierarchy rooted at ``climate mind`` whose direct children are
  the "superclasses" used as dynamic attribute keys
  (``make_graph_class.py:94-95``, ``:147-158``);
- object-property assertions on individuals and on classes — the edge
  sources walked by the reference DFS (``network_class.py:121-156``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable

from .vocab import ANNOTATION_PROPS, CLIMATE_MIND, PERSONAL_VALUES_19, EXTRA_DATA_PROPS

_WS = re.compile(r"\s+")


def normalize_surface(s: str) -> str:
    """Canonical key for a mention surface form.

    Lowercase, hyphens/underscores to spaces, whitespace collapsed, outer
    punctuation stripped.  This is the canonicalization-shuffle key
    (north_star: "groupby-aggregate shuffle on normalized surface-form
    keys"); it must be a pure function so keys agree across actors.
    """
    s = s.lower().replace("-", " ").replace("_", " ")
    s = _WS.sub(" ", s).strip(" .,;:!?\"'()")
    return s


@dataclass
class OntologySnapshot:
    """In-memory ontology snapshot (driver-side; broadcast to actors)."""

    # label -> node record. Record keys: label, iri, comment, direct_classes
    # (tuple[str]), properties (dict[str, list[str]]), data_properties
    # (dict[str, int|float|bool|None]), surface_forms (tuple[str]).
    individuals: dict[str, dict]
    # class label -> tuple of parent class labels (upward edges).
    class_parents: dict[str, tuple[str, ...]]
    # object-property assertions on individuals: (subject_label, raw_predicate, object_label)
    obj_edges: list[tuple[str, str, str]] = field(default_factory=list)
    # object-property assertions on classes (walked by the reference class
    # DFS, network_class.py:73-77): (class_label, raw_predicate, individual_label)
    class_obj_edges: list[tuple[str, str, str]] = field(default_factory=list)
    # classes whose "parents" include an individual — the reference emits an
    # is_a edge for these (network_class.py:79-81, :109-110).
    class_individual_parents: list[tuple[str, str]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # class hierarchy
    # ------------------------------------------------------------------ #

    def class_ancestors(self, cls: str) -> set[str]:
        """Ancestor closure of a class, including itself (owlready2
        ``ancestors()`` semantics as consumed at ``make_graph_class.py:138``)."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            if c not in self.class_parents and c != CLIMATE_MIND:
                # not a class label (mirrors `thing in onto.classes()`
                # filtering in listify, ontology_processing_utils.py:61-63)
                continue
            seen.add(c)
            stack.extend(self.class_parents.get(c, ()))
        return seen

    def class_descendants(self, cls: str) -> set[str]:
        """Descendant closure including self (``super_class.descendants()``
        at ``make_graph_class.py:149``)."""
        children: dict[str, list[str]] = {}
        for c, parents in self.class_parents.items():
            for p in parents:
                children.setdefault(p, []).append(c)
        seen: set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(children.get(c, ()))
        return seen

    def superclasses(self) -> list[str]:
        """Direct subclasses of ``climate mind`` — the dynamic attribute key
        namespace (``make_graph_class.py:94-95``)."""
        return sorted(
            c for c, parents in self.class_parents.items() if CLIMATE_MIND in parents
        )

    def node_all_classes(self, label: str) -> list[str]:
        """Deduplicated ancestor-closure class list for a node with
        ``climate mind`` removed (``make_graph_class.py:135-144``).
        Returned sorted for determinism (the reference's ``list(set(...))``
        order is hash-seed-dependent)."""
        node = self.individuals[label]
        out: set[str] = set()
        for c in node["direct_classes"]:
            if c in self.class_parents:
                out |= self.class_ancestors(c)
        out.discard(CLIMATE_MIND)
        return sorted(out)

    # ------------------------------------------------------------------ #
    # surface forms / broadcast tables
    # ------------------------------------------------------------------ #

    def surface_index(self) -> dict[str, str]:
        """normalized surface form -> canonical node label.

        Collisions resolve to the lexicographically-smallest label so the
        index is deterministic regardless of iteration order.
        """
        idx: dict[str, str] = {}
        for label, node in self.individuals.items():
            for sf in node.get("surface_forms", ()) or (label,):
                key = normalize_surface(sf)
                if key and (key not in idx or label < idx[key]):
                    idx[key] = label
        return idx

    def labels(self) -> list[str]:
        return sorted(self.individuals)

    # ------------------------------------------------------------------ #
    # (de)serialization — snapshot is small; JSON keeps nested values exact
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        return json.dumps(
            {
                "individuals": self.individuals,
                "class_parents": {k: list(v) for k, v in self.class_parents.items()},
                "obj_edges": self.obj_edges,
                "class_obj_edges": self.class_obj_edges,
                "class_individual_parents": self.class_individual_parents,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "OntologySnapshot":
        d = json.loads(s)
        return cls(
            individuals=d["individuals"],
            class_parents={k: tuple(v) for k, v in d["class_parents"].items()},
            obj_edges=[tuple(e) for e in d["obj_edges"]],
            class_obj_edges=[tuple(e) for e in d["class_obj_edges"]],
            class_individual_parents=[tuple(e) for e in d["class_individual_parents"]],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "OntologySnapshot":
        with open(path) as f:
            return cls.from_json(f.read())


def empty_data_properties() -> dict:
    """A fully-null data_properties record with every key the reference
    projects (``make_graph_class.py:168-170``; SURVEY §1.2)."""
    d: dict = {k: None for k in PERSONAL_VALUES_19}
    d.update({k: None for k in EXTRA_DATA_PROPS})
    return d


def empty_properties() -> dict:
    """All annotation-property keys with empty url lists
    (``make_graph_class.py:164-166``)."""
    return {k: [] for k in ANNOTATION_PROPS}
