"""OWL RDF/XML reader + writer (SURVEY §2.1 S1).

The reference ingests its ontology as an OWL RDF/XML file via owlready2
(``make_network.py:34`` ``get_ontology(onto_path).load()``) and then reads
exactly these constructs (``make_graph_class.py:52-66``, ``:94-170``;
``network_class.py:73-110``):

- object / annotation / data property declarations with ``rdfs:label``
  (aliased through ``give_alias``, ``ontology_processing_utils.py:168-174``);
- the class hierarchy (``rdfs:subClassOf`` between named classes) rooted at
  ``climate mind``;
- named individuals: label, comment, ``rdf:type`` classes, annotation
  property values (source URLs etc.), data property values (personal-value
  scores, CO2_eq_reduced, myth flags), object property assertions;
- class-level object property restrictions (walked by the class DFS,
  ``network_class.py:73-77``) and classes whose parents include an
  individual (``:79-81``).

This module parses that subset with the stdlib ``xml.etree`` (owlready2 is
not a dependency) into an :class:`OntologySnapshot`, and serializes a
snapshot back to RDF/XML.  The round trip is exact up to edge-list order
(tested against the fixture snapshot).

**Reasoner caveat** (documented per SURVEY §2.1): the reference
optionally runs ``sync_reasoner()`` (HermiT, ``make_graph_class.py:79-82``).
This parser covers that reasoner's classification over an envelope of
OWL constructs, with one edge saturation and one membership fixpoint:

- ``owl:equivalentClass`` between NAMED classes is mutual subsumption
  (scm-eqc1); the snapshot's ancestor closure then reproduces
  ``ancestors()`` over the hierarchy.
- Every property axiom is one of two monotone Horn rule forms, run to
  their least fixpoint over the asserted object edges: an *inverse*
  P(x, y) ⇒ Q(y, x) (``owl:inverseOf``; a ``owl:SymmetricProperty`` is
  its own inverse) or a *chain* P1∘…∘Pn ⊑ R
  (``owl:propertyChainAxiom``; a ``owl:TransitiveProperty`` is
  (P, P) ⊑ P).
- ``rdfs:domain`` / ``rdfs:range`` (named classes) classify the
  endpoints of the saturated edges (prp-dom / prp-rng), seeding the
  membership fixpoint.
- Every anonymous ``equivalentClass`` the envelope covers is one defined
  class C ≡ ⊓ conjuncts or C ≡ ⊔ conjuncts over named classes and
  ∃P.{v} / ∃P.D / ≥n P / ≥n P.D restrictions (a bare restriction is a
  one-member intersection).  One fixpoint classifies individuals by
  ALL / ANY conjunct semantics over the saturated edges and materializes
  the inferred memberships into ``direct_classes``; named members also
  subsume (scm-int: C ≡ D1⊓D2 ⇒ C ⊑ Di; scm-uni: C ≡ D1⊔D2 ⇒ Di ⊑ C).
  Only the *min* cardinality forms are sound under open-world semantics
  without negation.

NOTE: matching ``sync_reasoner()``'s default
``infer_property_values=False`` (``make_graph_class.py:82``), derived
property assertions are NOT materialized into ``obj_edges`` — only
classification is.  Memberships that need full DL reasoning —
complementOf, max/exact cardinality — are NOT derived (see
:class:`UnsupportedOWLConstructError`); the reference pipeline's own
edge set does not depend on them.
"""

from __future__ import annotations

import hashlib
import re
from xml.etree import ElementTree as ET

from .schema import OntologySnapshot, empty_data_properties, empty_properties
from .vocab import normalize_predicate_label

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
SKOS = "http://www.w3.org/2004/02/skos/core#"
XSD = "http://www.w3.org/2001/XMLSchema#"
XML = "http://www.w3.org/XML/1998/namespace"
BASE = "urn:graft:onto"

_ABOUT = f"{{{RDF}}}about"
_RESOURCE = f"{{{RDF}}}resource"
_DATATYPE = f"{{{RDF}}}datatype"
_LANG = f"{{{XML}}}lang"

_LOCSTR_RE = re.compile(r"locstr\('(.*?)', '(\w+)'\)")
_URL_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.I)


def _frag(iri: str) -> str:
    """Snapshot-facing identifier for a full IRI: the fragment when one
    exists (Protégé style), else the full IRI (WebProtégé style)."""
    return iri.rsplit("#", 1)[1] if "#" in iri else iri


def _parse_literal(text: str | None, datatype: str | None):
    text = text or ""
    if datatype:
        dt = _frag(datatype).lower()
        if dt in ("integer", "int", "long", "short", "nonnegativeinteger"):
            return int(text)
        if dt in ("double", "float", "decimal"):
            return float(text)
        if dt == "boolean":
            return text.strip().lower() == "true"
    return text


def _comment_repr(literals: list[tuple[str, str | None]]) -> str:
    """owlready2 ``str(node.comment)`` shape: a list repr of locstr/str
    (``make_graph_class.py:127`` stores ``str(ontology_node.comment)``)."""
    if not literals:
        return "[]"
    parts = [
        f"locstr('{t}', '{lang}')" if lang else repr(t) for t, lang in literals
    ]
    return "[" + ", ".join(parts) + "]"


class UnsupportedOWLConstructError(Exception):
    """An input ontology uses a DL construct outside this parser's
    classification envelope (``owl:complementOf``, max/exact
    cardinality) — deriving memberships from these requires open-world
    negation, which the saturation fixpoint deliberately does not do.
    Raised (or downgraded to a warning) so the gap is an EXPLICIT
    diagnostic instead of silent under-classification — the same
    validation-channel discipline as ``graph.enrich.
    OpposingValuesError`` (r4 verdict item 6)."""


# constructs outside the classification envelope (module docstring NOTE)
_UNSUPPORTED_OWL_TAGS = (
    "complementOf",
    "maxCardinality",
    "maxQualifiedCardinality",
    "cardinality",  # exact cardinality = min AND max
    "qualifiedCardinality",
)


def _scan_unsupported(root) -> list[str]:
    """Distinct out-of-envelope construct names present in the document
    (tag scan — cheap, one pass over the tree)."""
    found: set[str] = set()
    want = {f"{{{OWL}}}{t}": t for t in _UNSUPPORTED_OWL_TAGS}
    for el in root.iter():
        t = want.get(el.tag)
        if t:
            found.add(t)
    return sorted(found)


def parse_owl(
    source: str | bytes, on_unsupported: str = "raise"
) -> OntologySnapshot:
    """Parse an OWL RDF/XML file (path or bytes) into an OntologySnapshot.

    Two passes: (1) collect declarations — property kinds + labels, class
    labels, individual labels — keyed by IRI; (2) build node records,
    class hierarchy and edge lists by resolving IRI references.

    ``on_unsupported`` controls what happens when the document uses a
    construct outside the classification envelope (complementOf,
    max/exact cardinality — see :class:`UnsupportedOWLConstructError`):
    ``"raise"`` (default — soundness over convenience), ``"warn"``
    (``warnings.warn`` then parse, accepting possible
    under-classification), or ``"ignore"``.
    """
    if isinstance(source, bytes):
        root = ET.fromstring(source)
    elif source.lstrip().startswith("<"):
        root = ET.fromstring(source)
    else:
        root = ET.parse(source).getroot()

    if on_unsupported != "ignore":
        bad = _scan_unsupported(root)
        if bad:
            msg = (
                "ontology uses OWL construct(s) outside the classification "
                f"envelope: {', '.join(bad)} — memberships depending on "
                "them would be silently missed (open-world negation is not "
                "implemented); pass on_unsupported='warn'/'ignore' to parse "
                "anyway"
            )
            if on_unsupported == "warn":
                import warnings

                warnings.warn(msg, UserWarning, stacklevel=2)
            else:
                raise UnsupportedOWLConstructError(msg)

    def q(ns: str, name: str) -> str:
        return f"{{{ns}}}{name}"

    def first_label(el) -> str | None:
        lab = el.find(q(RDFS, "label"))
        return lab.text if lab is not None and lab.text else None

    # ---- pass 1: declarations -----------------------------------------
    prop_kind: dict[str, str] = {}  # prop IRI -> object|annotation|data
    prop_label: dict[str, str] = {}  # prop IRI -> raw label
    class_label: dict[str, str] = {}  # class IRI -> label
    indiv_label: dict[str, str] = {}  # individual IRI -> label
    indiv_els: list = []
    class_els: list = []

    # The two Horn rule forms of the edge saturation, in IRI space:
    # inverse pairs (P, Q) — owl:inverseOf, and (P, P) for a symmetric P;
    # chains (R, (P1, ..., Pn)) for P1∘…∘Pn ⊑ R — owl:propertyChainAxiom,
    # and (P, (P, P)) for a transitive P.
    inverse_prop_iri_pairs: set[tuple[str, str]] = set()
    chain_axiom_iris: list[tuple[str, tuple[str, ...]]] = []

    def _prop_characteristics(el) -> None:
        """Record the inverse and chain rules declared on any object
        property element shape: ``owl:ObjectProperty`` with ``rdf:type``
        characteristics, or the typed ``owl:TransitiveProperty`` /
        ``owl:SymmetricProperty`` tags, which declare the same thing."""
        iri = el.get(_ABOUT, "")
        types = {t.get(_RESOURCE, "") for t in el.findall(q(RDF, "type"))}
        types.add(el.tag.replace("{", "").replace("}", ""))
        if f"{OWL}TransitiveProperty" in types:
            chain_axiom_iris.append((iri, (iri, iri)))
        if f"{OWL}SymmetricProperty" in types:
            inverse_prop_iri_pairs.add((iri, iri))
        for inv in el.findall(q(OWL, "inverseOf")):
            res = inv.get(_RESOURCE)
            if res:
                inverse_prop_iri_pairs.add((iri, res))
        for chain in el.findall(q(OWL, "propertyChainAxiom")):
            # rdf Collection of property references (Description or typed
            # ObjectProperty children); skip chains with unresolvable links
            members = tuple(
                m for m in (c.get(_ABOUT) or c.get(_RESOURCE) for c in chain) if m
            )
            if len(members) >= 2 and len(members) == len(list(chain)):
                chain_axiom_iris.append((iri, members))

    def node_kind(el) -> str | None:
        tag = el.tag
        if tag in (
            q(OWL, "ObjectProperty"),
            q(OWL, "TransitiveProperty"),
            q(OWL, "SymmetricProperty"),
        ):
            _prop_characteristics(el)
            return "object"
        if tag == q(OWL, "AnnotationProperty"):
            return "annotation"
        if tag in (q(OWL, "DatatypeProperty"), q(OWL, "DataProperty")):
            return "data"
        if tag == q(OWL, "Class"):
            return "class"
        if tag == q(OWL, "NamedIndividual"):
            return "individual"
        if tag == q(RDF, "Description"):
            # typed Description (some serializers): look at rdf:type
            for t in el.findall(q(RDF, "type")):
                res = t.get(_RESOURCE, "")
                if res == f"{OWL}NamedIndividual":
                    return "individual"
                if res == f"{OWL}Class":
                    return "class"
        return None

    # rdfs:domain / rdfs:range declarations on object properties (named
    # classes only — anonymous domain/range expressions stay out of the
    # documented envelope): prop IRI -> class IRI
    prop_domain_iri: dict[str, str] = {}
    prop_range_iri: dict[str, str] = {}

    for el in root:
        kind = node_kind(el)
        iri = el.get(_ABOUT)
        if kind is None or iri is None:
            continue
        if kind in ("object", "annotation", "data"):
            prop_kind[iri] = kind
            prop_label[iri] = first_label(el) or _frag(iri)
            if kind == "object":
                dom = el.find(q(RDFS, "domain"))
                if dom is not None and dom.get(_RESOURCE):
                    prop_domain_iri[iri] = dom.get(_RESOURCE)
                rng = el.find(q(RDFS, "range"))
                if rng is not None and rng.get(_RESOURCE):
                    prop_range_iri[iri] = rng.get(_RESOURCE)
        elif kind == "class":
            class_label[iri] = first_label(el) or _frag(iri)
            class_els.append((iri, el))
        elif kind == "individual":
            indiv_label[iri] = first_label(el) or _frag(iri)
            indiv_els.append((iri, el))

    # ---- pass 2: classes ----------------------------------------------
    class_parents: dict[str, tuple[str, ...]] = {}
    class_obj_edges: list[tuple[str, str, str]] = []
    class_individual_parents: list[tuple[str, str]] = []
    equiv_pairs: list[tuple[str, str]] = []

    # DEFINED classes, one entry per anonymous equivalentClass the
    # envelope covers (the owl:Restriction / intersectionOf / unionOf
    # patterns the reference ontology feeds through HermiT,
    # make_graph_class.py:71-82): (class_label, all|any, conjuncts).  A
    # conjunct is ("class", D) / ("hasValue", P, v) /
    # ("someValuesFrom", P, D) / ("minCardinality", P, n) /
    # ("minQualifiedCardinality", P, n, D), in label space; a bare
    # restriction C ≡ ∃P.X is (C, all, (∃P.X,)).  Memberships are
    # inferred below after individuals are parsed.
    defined: list[tuple[str, object, tuple[tuple, ...]]] = []

    def _one_restriction(restr) -> tuple | None:
        on_prop = restr.find(q(OWL, "onProperty"))
        if on_prop is None:
            return None
        p_iri = on_prop.get(_RESOURCE, "")
        hv = restr.find(q(OWL, "hasValue"))
        if hv is not None:
            return (p_iri, "hasValue", hv.get(_RESOURCE, ""))
        sv = restr.find(q(OWL, "someValuesFrom"))
        if sv is not None:
            return (p_iri, "someValuesFrom", sv.get(_RESOURCE, ""))
        # minCardinality n / minQualifiedCardinality n + onClass D:
        # membership = at least n DISTINCT P-fillers (in D for qualified).
        # Only the min forms are classification-safe under open-world
        # semantics (max/exact need full DL negation).
        for tag in ("minCardinality", "minQualifiedCardinality"):
            card = restr.find(q(OWL, tag))
            if card is None or not (card.text or "").strip().isdigit():
                continue
            n = int(card.text.strip())
            if tag == "minCardinality":
                return (p_iri, "minCardinality", n)
            on_cls = restr.find(q(OWL, "onClass"))
            if on_cls is not None and on_cls.get(_RESOURCE):
                return (p_iri, "minQualifiedCardinality", n, on_cls.get(_RESOURCE))
        return None

    def _conjunct(el) -> tuple | None:
        """A named class or an in-envelope restriction as a label-space
        conjunct; None when it references an undeclared property, class
        or individual, or needs full DL."""
        if el.tag != q(OWL, "Restriction"):
            res = el.get(_ABOUT) or el.get(_RESOURCE)
            return ("class", class_label[res]) if res in class_label else None
        parts = _one_restriction(el)
        if parts is None or parts[0] not in prop_label:
            return None
        prop, kind = prop_label[parts[0]], parts[1]
        if kind == "hasValue" and parts[2] in indiv_label:
            return (kind, prop, indiv_label[parts[2]])
        if kind == "someValuesFrom" and parts[2] in class_label:
            return (kind, prop, class_label[parts[2]])
        if kind == "minCardinality":
            return (kind, prop, parts[2])
        if kind == "minQualifiedCardinality" and parts[3] in class_label:
            return (kind, prop, parts[2], class_label[parts[3]])
        return None

    def _definition(eq) -> tuple | None:
        """An anonymous equivalentClass as ``(all|any, conjuncts)``: a
        bare restriction is a one-member intersection; an
        ``owl:Class/owl:intersectionOf`` or ``owl:unionOf`` rdf Collection
        qualifies only when every member is a conjunct."""
        restr = eq.find(q(OWL, "Restriction"))
        if restr is not None and _one_restriction(restr) is not None:
            c = _conjunct(restr)
            return (all, (c,)) if c is not None else None
        cls_el = eq.find(q(OWL, "Class"))
        if cls_el is None:
            return None
        for quant, collection in ((all, "intersectionOf"), (any, "unionOf")):
            members = cls_el.find(q(OWL, collection))
            if members is None:
                continue
            conjuncts = tuple(_conjunct(m) for m in members)
            if conjuncts and None not in conjuncts:
                return quant, conjuncts
        return None

    for iri, el in class_els:
        label = class_label[iri]
        parents: list[str] = []
        for eq in el.findall(q(OWL, "equivalentClass")):
            # named-class equivalence -> mutual subsumption (scm-eqc1)
            res = eq.get(_RESOURCE)
            if res is not None and res in class_label:
                equiv_pairs.append((label, class_label[res]))
                continue
            # anonymous expression -> defined class, unless it needs full DL
            d = _definition(eq)
            if d is not None:
                defined.append((label, *d))
        for sub in el.findall(q(RDFS, "subClassOf")):
            res = sub.get(_RESOURCE)
            if res is not None:
                if res in class_label:
                    parents.append(class_label[res])
                elif res in indiv_label:
                    # class with an individual parent: is_a emission
                    # (network_class.py:79-81, :109-110)
                    class_individual_parents.append((label, indiv_label[res]))
                continue
            restr = sub.find(q(OWL, "Restriction"))
            parts = None if restr is None else _one_restriction(restr)
            if (
                parts is not None
                and parts[1] in ("hasValue", "someValuesFrom")
                and parts[0] in prop_label
                and parts[2] in indiv_label
            ):
                # class-level object assertion (network_class.py:73-77)
                class_obj_edges.append(
                    (label, prop_label[parts[0]], indiv_label[parts[2]])
                )
        class_parents[label] = tuple(parents)

    def _add_parent(cls: str, parent: str) -> None:
        if parent not in class_parents.get(cls, ()):
            class_parents[cls] = class_parents.get(cls, ()) + (parent,)

    # owl:equivalentClass(a, b) between named classes ⇒ a ⊑ b and b ⊑ a
    # (scm-eqc1); class_ancestors' visited-set walk then reproduces the
    # RDFS-entailed memberships without special-casing the cycle.
    for a, b in equiv_pairs:
        _add_parent(a, b)
        _add_parent(b, a)

    # scm-int / scm-uni class subsumption (HermiT's "classes to new
    # superclasses" reclassification, make_graph_class.py:76-82):
    # C ≡ D1 ⊓ D2 entails C ⊑ Di for every NAMED conjunct;
    # C ≡ D1 ⊔ D2 entails Di ⊑ C for every NAMED disjunct.  Every
    # intersection subsumption goes before any union subsumption: the
    # order of class_parents tuples reaches to_json() and the run key.
    for cls, quant, conjuncts in sorted(defined, key=lambda d: d[1] is any):
        for c in conjuncts:
            if c[0] == "class":
                if quant is all:
                    _add_parent(cls, c[1])
                else:
                    _add_parent(c[1], cls)

    # ---- pass 2: individuals ------------------------------------------
    individuals: dict[str, dict] = {}
    obj_edges: list[tuple[str, str, str]] = []

    for iri, el in indiv_els:
        label = indiv_label[iri]
        direct_classes: list[str] = []
        comments: list[tuple[str, str | None]] = []
        alt_labels: list[str] = []
        props = empty_properties()
        dprops = empty_data_properties()
        for child in el:
            tag = child.tag
            if tag == q(RDF, "type"):
                res = child.get(_RESOURCE, "")
                if res in class_label:
                    direct_classes.append(class_label[res])
                continue
            if tag == q(RDFS, "comment"):
                comments.append((child.text or "", child.get(_LANG)))
                continue
            if tag in (q(SKOS, "altLabel"), q(SKOS, "prefLabel")):
                if child.text:
                    alt_labels.append(child.text)
                continue
            if tag == q(RDFS, "label"):
                continue  # consumed in pass 1 (first label wins)
            # property assertion: resolve the element tag back to an IRI.
            # RDF/XML maps property IRIs to namespaced tags: {ns}name
            m = re.match(r"\{(.*)\}(.*)", tag)
            if not m:
                continue
            p_iri = m.group(1) + m.group(2)
            kind = prop_kind.get(p_iri)
            if kind is None and (res := child.get(_RESOURCE)) is not None:
                # undeclared property with a resource object: treat known
                # individual targets as object assertions (lenient mode)
                if res in indiv_label:
                    kind = "object"
            raw = prop_label.get(p_iri, _frag(p_iri))
            if kind == "object":
                res = child.get(_RESOURCE, "")
                if res in indiv_label:
                    obj_edges.append((label, raw, indiv_label[res]))
            elif kind == "annotation":
                key = normalize_predicate_label(raw)
                res = child.get(_RESOURCE)
                val = res if res is not None else (child.text or "")
                props.setdefault(key, []).append(val)
            elif kind == "data":
                key = normalize_predicate_label(raw)
                dprops[key] = _parse_literal(child.text, child.get(_DATATYPE))
        individuals[label] = {
            "label": label,
            "iri": _frag(iri),
            "comment": _comment_repr(comments),
            "direct_classes": direct_classes,
            "properties": props,
            "data_properties": dprops,
            "surface_forms": alt_labels or [label],
        }

    # ---- classification -------------------------------------------------
    # rdfs:domain / rdfs:range classification (prp-dom / prp-rng): an
    # asserted edge s P o with domain(P)=D classifies s as D (and range
    # as R for o).  Label space, classification only — edges untouched.
    domain_by_label = {
        prop_label[p]: class_label.get(c, _frag(c))
        for p, c in prop_domain_iri.items()
        if p in prop_label
    }
    range_by_label = {
        prop_label[p]: class_label.get(c, _frag(c))
        for p, c in prop_range_iri.items()
        if p in prop_label
    }

    if defined or domain_by_label or range_by_label:
        inverses: dict[str, set[str]] = {}
        for a, b in inverse_prop_iri_pairs:
            if a in prop_label and b in prop_label:
                inverses.setdefault(prop_label[a], set()).add(prop_label[b])
                inverses.setdefault(prop_label[b], set()).add(prop_label[a])
        chains = [
            (prop_label[sup], tuple(prop_label[m] for m in members))
            for sup, members in chain_axiom_iris
            if sup in prop_label and all(m in prop_label for m in members)
        ]
        # Edge saturation to the least fixpoint of the two Horn rule
        # forms: inverse, P(x, y) ⇒ Q(y, x) (prp-inv; prp-symp is Q = P),
        # and chain, P1(x, y1) ∧ … ∧ Pn(yn-1, y) ⇒ R(x, y) (prp-spo2;
        # prp-trp is (P, P) ⊑ P).  Both are monotone, so rule order does
        # not change the result.  Classification only — derived edges are
        # NOT added to obj_edges, matching infer_property_values=False;
        # ontology-sized input, so the loop is O(rounds · E).
        edge_set: set[tuple[str, str, str]] = set(obj_edges)
        while True:
            new = {(o, inv, s) for s, p, o in edge_set for inv in inverses.get(p, ())}
            by_prop: dict[str, dict[str, set[str]]] = {}
            for s, p, o in edge_set:
                by_prop.setdefault(p, {}).setdefault(s, set()).add(o)
            for sup, members in chains:
                cur = by_prop.get(members[0], {})
                for m in members[1:]:
                    step = by_prop.get(m, {})
                    cur = {
                        s: outs
                        for s, mids in cur.items()
                        if (outs := set().union(*(step.get(t, ()) for t in mids)))
                    }
                new.update((s, sup, o) for s, outs in cur.items() for o in outs)
            new -= edge_set
            if not new:
                break
            edge_set |= new
        # asserted order first, derived edges in sorted order (determinism)
        infer_edges = list(obj_edges) + sorted(edge_set - set(obj_edges))

        def _anc(cls: str) -> set[str]:
            seen: set[str] = set()
            stack = [cls]
            while stack:
                c = stack.pop()
                if c in seen or c not in class_parents:
                    continue
                seen.add(c)
                stack.extend(class_parents[c])
            return seen

        member: dict[str, set[str]] = {
            lab: set(node["direct_classes"]) for lab, node in individuals.items()
        }
        # domain/range memberships are a single static pass (infer_edges
        # never grows during classification; it already carries the
        # derived edges, which are entailed P-assertions and so trigger
        # domain/range like asserted ones), seeded BEFORE the
        # defined-class fixpoint so they can satisfy its conjuncts
        for s, p, o in infer_edges:
            d = domain_by_label.get(p)
            if d is not None and s in member:
                member[s].add(d)
            r = range_by_label.get(p)
            if r is not None and o in member:
                member[o].add(r)
        # per-individual outgoing edges (infer_edges is static across the
        # fixpoint), so each conjunct check is a lookup
        out_edges: dict[str, list[tuple[str, str]]] = {}
        for s, p, o in infer_edges:
            out_edges.setdefault(s, []).append((p, o))

        def _satisfies(x: str, conj: tuple) -> bool:
            kind = conj[0]
            if kind == "class":
                return any(conj[1] in _anc(c) for c in member.get(x, ()))
            prop = conj[1]
            if kind == "minCardinality":
                fillers = {o for p, o in out_edges.get(x, ()) if p == prop}
                return len(fillers) >= conj[2]
            if kind == "minQualifiedCardinality":
                n, target = conj[2], conj[3]
                fillers = {
                    o
                    for p, o in out_edges.get(x, ())
                    if p == prop
                    and any(target in _anc(c) for c in member.get(o, ()))
                }
                return len(fillers) >= n
            target = conj[2]
            for p, o in out_edges.get(x, ()):
                if p != prop:
                    continue
                if kind == "hasValue" and o == target:
                    return True
                if kind == "someValuesFrom" and any(
                    target in _anc(c) for c in member.get(o, ())
                ):
                    return True
            return False

        # The one membership fixpoint: C ≡ ⊓ conjuncts (all) or
        # C ≡ ⊔ conjuncts (any), run until no individual gains a class (a
        # someValuesFrom filler may itself be a defined class), then
        # materialized into direct_classes — mirroring owlready2's
        # post-sync_reasoner ``is_a`` as consumed at make_graph_class.py:134.
        changed = True
        while changed:
            changed = False
            for cls, quant, conjuncts in defined:
                for x, mems in member.items():
                    if cls not in mems and quant(_satisfies(x, c) for c in conjuncts):
                        mems.add(cls)
                        changed = True
        for lab, mems in member.items():
            cur = individuals[lab]["direct_classes"]
            extra = sorted(mems - set(cur))
            if extra:
                individuals[lab]["direct_classes"] = list(cur) + extra

    return OntologySnapshot(
        individuals=individuals,
        class_parents=class_parents,
        obj_edges=obj_edges,
        class_obj_edges=class_obj_edges,
        class_individual_parents=class_individual_parents,
    )


# --------------------------------------------------------------------- #
# writer
# --------------------------------------------------------------------- #

# normalized annotation-prop name -> raw OWL label ("dc_source" was
# "dc:source" before give_alias; first underscore restores the prefix)
def _raw_annotation_label(norm: str) -> str:
    if "_" in norm:
        prefix, rest = norm.split("_", 1)
        if prefix in ("dc", "schema"):
            return f"{prefix}:{rest}"
    return norm


def _esc(s: str) -> str:
    return (
        str(s)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_owl(snap: OntologySnapshot, path: str | None = None) -> str:
    """Serialize a snapshot to OWL RDF/XML; returns the XML text (and
    writes it to ``path`` when given).  Uses the same subset
    :func:`parse_owl` reads, so ``parse_owl(write_owl(s))`` reproduces
    ``s`` exactly up to edge-list order."""

    def h(kind: str, name: str) -> str:
        return f"{BASE}#{kind}_{hashlib.md5(name.encode()).hexdigest()[:16]}"

    # stable property tables
    raw_obj_props = sorted(
        {p for _, p, _ in snap.obj_edges} | {p for _, p, _ in snap.class_obj_edges}
    )
    ann_keys = sorted(
        {k for n in snap.individuals.values() for k, v in (n.get("properties") or {}).items()}
    )
    data_keys = sorted(
        {
            k
            for n in snap.individuals.values()
            for k, v in (n.get("data_properties") or {}).items()
        }
    )
    op_iri = {p: h("op", p) for p in raw_obj_props}
    ap_iri = {k: h("ap", k) for k in ann_keys}
    dp_iri = {k: h("dp", k) for k in data_keys}
    cls_iri = {c: h("c", c) for c in snap.class_parents}
    ind_iri = {
        label: f"{BASE}#{node['iri']}" for label, node in snap.individuals.items()
    }

    out: list[str] = []
    w = out.append
    w('<?xml version="1.0"?>')
    w(
        f'<rdf:RDF xmlns:rdf="{RDF}" xmlns:rdfs="{RDFS}" xmlns:owl="{OWL}" '
        f'xmlns:skos="{SKOS}" xmlns:g="{BASE}#">'
    )
    w(f'  <owl:Ontology rdf:about="{BASE}"/>')

    for p in raw_obj_props:
        w(f'  <owl:ObjectProperty rdf:about="{op_iri[p]}">')
        w(f"    <rdfs:label>{_esc(p)}</rdfs:label>")
        w("  </owl:ObjectProperty>")
    for k in ann_keys:
        w(f'  <owl:AnnotationProperty rdf:about="{ap_iri[k]}">')
        w(f"    <rdfs:label>{_esc(_raw_annotation_label(k))}</rdfs:label>")
        w("  </owl:AnnotationProperty>")
    for k in data_keys:
        w(f'  <owl:DatatypeProperty rdf:about="{dp_iri[k]}">')
        w(f"    <rdfs:label>{_esc(k)}</rdfs:label>")
        w("  </owl:DatatypeProperty>")

    # root classes ("climate mind") appear only as parents; declare them
    # first so subClassOf references resolve
    roots = sorted(
        {
            p
            for parents in snap.class_parents.values()
            for p in parents
            if p not in snap.class_parents
        }
    )
    for c in roots:
        cls_iri[c] = h("c", c)
        w(f'  <owl:Class rdf:about="{cls_iri[c]}">')
        w(f"    <rdfs:label>{_esc(c)}</rdfs:label>")
        w("  </owl:Class>")

    # classes: asserted parents, individual parents, class-level restrictions
    cls_restrictions: dict[str, list[tuple[str, str]]] = {}
    for c, p, ind in snap.class_obj_edges:
        cls_restrictions.setdefault(c, []).append((p, ind))
    cls_ind_parents: dict[str, list[str]] = {}
    for c, ind in snap.class_individual_parents:
        cls_ind_parents.setdefault(c, []).append(ind)

    for c in snap.class_parents:
        w(f'  <owl:Class rdf:about="{cls_iri[c]}">')
        w(f"    <rdfs:label>{_esc(c)}</rdfs:label>")
        for parent in snap.class_parents[c]:
            if parent in cls_iri:
                w(f'    <rdfs:subClassOf rdf:resource="{cls_iri[parent]}"/>')
        for ind in cls_ind_parents.get(c, ()):
            if ind in ind_iri:
                w(f'    <rdfs:subClassOf rdf:resource="{ind_iri[ind]}"/>')
        for p, ind in cls_restrictions.get(c, ()):
            w("    <rdfs:subClassOf><owl:Restriction>")
            w(f'      <owl:onProperty rdf:resource="{op_iri[p]}"/>')
            w(f'      <owl:hasValue rdf:resource="{ind_iri[ind]}"/>')
            w("    </owl:Restriction></rdfs:subClassOf>")
        w("  </owl:Class>")

    edges_by_subject: dict[str, list[tuple[str, str]]] = {}
    for s, p, o in snap.obj_edges:
        edges_by_subject.setdefault(s, []).append((p, o))

    for label, node in snap.individuals.items():
        w(f'  <owl:NamedIndividual rdf:about="{ind_iri[label]}">')
        for c in node.get("direct_classes") or ():
            if c in cls_iri:
                w(f'    <rdf:type rdf:resource="{cls_iri[c]}"/>')
        w(f'    <rdfs:label>{_esc(label)}</rdfs:label>')
        for sf in node.get("surface_forms") or ():
            w(f"    <skos:altLabel>{_esc(sf)}</skos:altLabel>")
        for text, lang in _LOCSTR_RE.findall(node.get("comment") or ""):
            w(f'    <rdfs:comment xml:lang="{lang}">{_esc(text)}</rdfs:comment>')
        for k, vals in (node.get("properties") or {}).items():
            tag = f"g:ap_{ap_iri[k].rsplit('_', 1)[1]}"
            for v in vals or ():
                if _URL_RE.match(str(v)):
                    w(f'    <{tag} rdf:resource="{_esc(v)}"/>')
                else:
                    w(f"    <{tag}>{_esc(v)}</{tag}>")
        for k, v in (node.get("data_properties") or {}).items():
            if v is None:
                continue
            tag = f"g:dp_{dp_iri[k].rsplit('_', 1)[1]}"
            if isinstance(v, bool):
                w(f'    <{tag} rdf:datatype="{XSD}boolean">{str(v).lower()}</{tag}>')
            elif isinstance(v, int):
                w(f'    <{tag} rdf:datatype="{XSD}integer">{v}</{tag}>')
            elif isinstance(v, float):
                w(f'    <{tag} rdf:datatype="{XSD}double">{v}</{tag}>')
            else:
                w(f"    <{tag}>{_esc(v)}</{tag}>")
        for p, o in edges_by_subject.get(label, ()):
            tag = f"g:op_{op_iri[p].rsplit('_', 1)[1]}"
            w(f'    <{tag} rdf:resource="{ind_iri[o]}"/>')
        w("  </owl:NamedIndividual>")

    w("</rdf:RDF>")
    xml = "\n".join(out)
    if path:
        with open(path, "w") as f:
            f.write(xml)
    return xml
