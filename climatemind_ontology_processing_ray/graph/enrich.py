"""Driver-side graph back end: ontology-sized enrichment of the canonical
edge table.

The canonical climate graph is O(10^2)-O(10^3) nodes no matter how many
documents fed it (SURVEY §7.0), so — exactly like the reference — the
enrichment runs in one process on the driver over the (small) canonical
edge table produced by the distributed front end.  Distributing this
would buy nothing and risk diverging from reference semantics.

Reference recipe reproduced here (make_graph.py:28-67):
  add edges -> node attributes -> edge source intersection -> node source
  removal -> acyclic copy -> mitigations -> adaptations -> visualization
  subgraphs -> myths -> causal sources -> test-ontology filter.

Determinism note: the reference materializes several ``list(set(...))``
values whose order depends on the Python hash seed (e.g.
``make_graph_class.py:141``, ``:463``).  Everywhere the reference's order
is hash-dependent or path-enumeration-dependent we substitute an explicit
sort so outputs are byte-stable across processes and parallelism levels
(SURVEY §7.4 "reference-faithful ordering").  First-occurrence orders
that *are* well defined in the reference (``OrderedDict.fromkeys``
dedups) are preserved as first-occurrence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx

from ..ontology.schema import OntologySnapshot
from ..ontology.vocab import (
    CAUSES,
    CLIMATE_MIND,
    FEEDBACK_LOOP_CLASS,
    GREENHOUSE_GAS_CLASS,
    INHIBITS,
    MYTH_ABOUT,
    NON_TEST_ONT,
    PERSONAL_VALUES_10_GROUPS,
    PERSONAL_VALUES_19,
    ROOT_CAUSE_CLASS,
    ROOT_NODE,
    SOURCE_TYPES,
    VALID_TEST_ONT,
)

Triple = tuple[str, str, str]


class OpposingValuesError(Exception):
    """Raised when a value vector holds both 1 and -1
    (make_graph_class.py:289-290) — a data-validation failure."""


def collapse_values(values: Iterable[int | None]) -> int | None:
    """Collapse a {1, 0, -1, None} vector to one value
    (``compute``, make_graph_class.py:268-291): all-None -> None, any 1 ->
    1, any -1 -> -1, both -> :class:`OpposingValuesError`."""
    vals = list(values)
    if all(v is None for v in vals):
        return None
    has_one = any(v == 1 for v in vals)
    has_neg = any(v == -1 for v in vals)
    if has_one and has_neg:
        raise OpposingValuesError("vector holds opposing values 1 and -1")
    return 1 if has_one else (-1 if has_neg else 0)


def personal_value_vectors(dp: dict) -> tuple[list, list]:
    """(personal_values_19, personal_values_10) in the fixed orders of
    make_graph_class.py:186-206 and :252-263."""
    pv19 = [dp.get(k) for k in PERSONAL_VALUES_19]
    pv10 = [
        collapse_values([dp.get(k) for k in group]) if len(group) > 1 else dp.get(group[0])
        for group in PERSONAL_VALUES_10_GROUPS
    ]
    return pv19, pv10


_URL_RE = re.compile(
    r"^(?:https?|ftp)://"
    r"(?:\S+(?::\S*)?@)?"
    r"(?:localhost|\d{1,3}(?:\.\d{1,3}){3}|[a-zA-Z0-9](?:[a-zA-Z0-9-]*[a-zA-Z0-9])?"
    r"(?:\.[a-zA-Z0-9](?:[a-zA-Z0-9-]*[a-zA-Z0-9])?)+)"
    r"(?::\d{2,5})?"
    r"(?:[/?#]\S*)?$"
)


def is_valid_url(url: str) -> bool:
    """RFC-ish URL syntax predicate (role of ``validators.url`` at
    process_causal_sources.py:61; that package is not in this sandbox)."""
    return isinstance(url, str) and bool(_URL_RE.match(url))


def _induced_copy(graph: nx.DiGraph, nodes: Iterable[str]) -> nx.DiGraph:
    """``graph.subgraph(nodes).copy()`` built in ``graph``'s node and edge
    order.  networkx iterates a small induced view in the order of a set
    of its nodes, which follows the hash seed, so the copy's node and
    predecessor order (and its pickle bytes) would differ between
    processes."""
    keep = set(nodes)
    out = graph.__class__()
    out.graph.update(graph.graph)
    out.add_nodes_from((n, d) for n, d in graph.nodes(data=True) if n in keep)
    out.add_edges_from(
        (u, v, d) for u, v, d in graph.edges(data=True) if u in keep and v in keep
    )
    return out


def custom_bfs(
    graph: nx.DiGraph,
    start_node: str,
    direction: str = "forward",
    edge_type: str = CAUSES,
) -> nx.DiGraph:
    """Typed-edge BFS returning a copy of the induced subgraph of reached
    nodes (ontology_processing_utils.py:7-41 semantics): reachability over
    the ``edge_type`` edges (all edges for ``"any"``) along ``direction``
    (``"forward"``, ``"reverse"``, or ``"any"`` for either)."""
    view = graph
    if edge_type != "any":
        view = nx.subgraph_view(graph, filter_edge=lambda u, v: graph[u][v]["type"] == edge_type)
    if direction == "any":
        view = view.to_undirected(as_view=True)
    reach = nx.ancestors if direction == "reverse" else nx.descendants
    return _induced_copy(graph, reach(view, start_node) | {start_node})


def _dedup_keep_first(items: Iterable) -> list:
    """First-occurrence dedup (the reference's ``OrderedDict.fromkeys``
    idiom, e.g. make_graph_class.py:453-455)."""
    return list(dict.fromkeys(items))


@dataclass
class GraphArtifacts:
    """Everything the reference pipeline materializes."""

    G: nx.DiGraph  # fully enriched graph (reference: Climate_Mind_DiGraph.gpickle)
    B: nx.DiGraph  # acyclic copy
    test_graph: nx.DiGraph  # test-ontology filtered copy (…_Test_Ont.json)
    subgraphs: dict[str, nx.DiGraph] = field(default_factory=dict)  # visualization pickle
    mitigation_solutions: list[str] = field(default_factory=list)
    upstream_nodes: list[str] = field(default_factory=list)
    adaptation_nodes: list[str] = field(default_factory=list)


# --------------------------------------------------------------------- #
# build steps
# --------------------------------------------------------------------- #


def _attach_node_attributes(G: nx.DiGraph, snap: OntologySnapshot) -> None:
    """Node attribute projection (make_graph_class.py:113-304): basic info,
    class sets, dynamic superclass keys, properties, data properties,
    personal-value vectors, political vector.  Opposing value vectors
    raise :class:`OpposingValuesError`, as in the reference
    (make_graph_class.py:289-290)."""
    superclasses = snap.superclasses()
    desc = {sc: snap.class_descendants(sc) for sc in superclasses}

    for node in list(G.nodes):
        rec = snap.individuals.get(node)
        if rec is None:
            # label that never linked to the ontology: keep a minimal record
            G.add_node(node, label=node, iri=None, comment="", **{
                "direct classes": [], "all classes": []},
                properties={}, data_properties={},
                personal_values_10=[None] * 10, personal_values_19=[None] * 19,
                political_value=[None, None])
            continue
        attrs: dict = {
            "label": rec["label"],
            "iri": rec["iri"],
            "comment": str(rec["comment"]),
            "direct classes": list(rec["direct_classes"]),
            "all classes": snap.node_all_classes(node),
        }
        # dynamic superclass-named keys (make_graph_class.py:147-158).  The
        # reference's "merge" branch compares a ThingClass against string
        # keys and so never fires — later direct classes overwrite earlier
        # ones; we reproduce that observed overwrite semantics.
        for c in rec["direct_classes"]:
            ancestors = snap.class_ancestors(c)
            for sc in superclasses:
                if c in desc[sc]:
                    to_add = sorted(a for a in ancestors if a != CLIMATE_MIND)
                    attrs[sc] = to_add
        attrs["properties"] = {k: list(v) for k, v in rec["properties"].items()}
        attrs["data_properties"] = dict(rec["data_properties"])
        pv19, pv10 = personal_value_vectors(attrs["data_properties"])
        attrs["personal_values_19"] = pv19
        attrs["personal_values_10"] = pv10
        attrs["political_value"] = [
            attrs["data_properties"].get("conservative"),
            attrs["data_properties"].get("liberal"),
        ]
        G.add_node(node, **attrs)


def _set_edge_properties(G: nx.DiGraph) -> dict:
    """Promote source URLs shared by both endpoints onto the edge
    (make_graph_class.py:306-354).  Returns {(node, prop): set(urls)} to
    strip from nodes afterwards."""
    to_remove: dict[tuple[str, str], set] = {}
    for a, b in G.edges:
        edge_props: dict = {}
        if G[a][b]["type"] != INHIBITS:
            a_props = G.nodes[a].get("properties") or {}
            b_props = G.nodes[b].get("properties") or {}
            for prop in a_props:
                if prop not in SOURCE_TYPES:
                    continue
                inter = set(a_props.get(prop, ())) & set(b_props.get(prop, ()))
                if inter:
                    edge_props[prop] = sorted(inter)
                    to_remove.setdefault((a, prop), set()).update(inter)
                    to_remove.setdefault((b, prop), set()).update(inter)
        G[a][b]["properties"] = edge_props
    return to_remove


def _remove_edge_properties_from_nodes(G: nx.DiGraph, to_remove: dict) -> None:
    """make_graph_class.py:357-376 (sorted for determinism)."""
    for (node, prop), urls in to_remove.items():
        current = G.nodes[node]["properties"].get(prop, [])
        G.nodes[node]["properties"][prop] = sorted(set(current) - urls)


def _make_acyclic(G: nx.DiGraph) -> nx.DiGraph:
    """Copy with feedback-loop causes-edges removed
    (make_graph_class.py:395-431)."""
    B = G.copy()
    direct = nx.get_node_attributes(B, "direct classes")
    drop = [
        (n, nb)
        for n, classes in direct.items()
        if FEEDBACK_LOOP_CLASS in classes
        for nb in B.neighbors(n)
        if (
            GREENHOUSE_GAS_CLASS in direct.get(nb, ())
            or ROOT_CAUSE_CLASS in direct.get(nb, ())
        )
        and B[n][nb]["type"] == CAUSES
    ]
    B.remove_edges_from(drop)
    return B


def _get_mitigations(B: nx.DiGraph) -> tuple[list[str], list[str]]:
    """make_graph_class.py:433-464.

    ``nx.edge_dfs(B, root, orientation="reverse")`` traverses *every* edge
    whose target is reverse-reachable from the root (traversal crosses all
    edge types); nodes are collected only from the causes-typed edges among
    them.  We compute the reverse-reachable set directly.
    """
    if ROOT_NODE not in B:
        return [], []
    rev_reach = nx.ancestors(B, ROOT_NODE) | {ROOT_NODE}
    upstream: list[str] = []
    for a, b in sorted(B.edges):
        if b in rev_reach and B[a][b]["type"] == CAUSES:
            upstream.append(a)
            upstream.append(b)
    upstream = _dedup_keep_first(upstream)
    mitigation = sorted(
        {
            end
            for _, end, t in B.out_edges(upstream, data="type")
            if t == INHIBITS
        }
    )
    return mitigation, upstream


def _add_mitigations(G: nx.DiGraph, mitigation_solutions: list[str]) -> None:
    """CO2-sorted solutions with null tail (make_graph_class.py:466-513).
    Tail (no CO2 value) keeps first-occurrence order of the input list."""
    with_co2 = {
        s: G.nodes[s]["data_properties"].get("CO2_eq_reduced")
        for s in mitigation_solutions
        if G.nodes[s]["data_properties"].get("CO2_eq_reduced")
    }
    no_co2 = [s for s in mitigation_solutions if s not in with_co2]
    ordered = sorted(with_co2, key=with_co2.get, reverse=True) + no_co2
    G.nodes[ROOT_NODE]["mitigation solutions"] = ordered
    for s in ordered:
        sources = _solution_sources(G.nodes[s])
        if sources:
            G.nodes[s]["solution sources"] = sources


def _solution_sources(node_attrs: dict) -> list[str]:
    """Flatten the 8 source-type lists, first-occurrence dedup
    (ontology_processing_utils.py:77-92)."""
    out: list[str] = []
    props = node_attrs.get("properties") or {}
    for st in SOURCE_TYPES:
        out.extend(props.get(st, ()))
    return _dedup_keep_first(out)


def _process_adaptations(G: nx.DiGraph, B: nx.DiGraph) -> list[str]:
    """make_graph_class.py:515-559.  Each effect downstream of the root
    gets the inhibitors of the nodes on its simple root->effect paths.

    On a DAG those nodes are exactly reach(root) ∩ coreach(effect), which
    replaces the reference's worst-case-exponential ``all_simple_paths``
    (SURVEY §2.6 T7).  ``_make_acyclic`` (matching the reference,
    make_graph_class.py:395-431) only removes feedback-loop ->
    greenhouse-gas/root-cause edges: that guarantees acyclicity for the
    reference's curated ontology but NOT for arbitrary web-extracted
    causal edges, where reach ∩ coreach over-counts.  On a cyclic B the
    reference's own ``all_simple_paths`` enumeration
    (make_graph_class.py:522-524) picks the nodes instead."""
    if ROOT_NODE not in B:
        return []
    # deterministic order: BFS layer then label
    bfs = [ROOT_NODE] + [v for _, v in nx.bfs_edges(B, ROOT_NODE, sort_neighbors=sorted)]
    order = {n: i for i, n in enumerate(bfs)}
    rank = lambda n: (order.get(n, 1 << 30), n)
    reach_root = nx.descendants(B, ROOT_NODE) | {ROOT_NODE}
    acyclic = nx.is_directed_acyclic_graph(B)

    total: list[str] = []
    for effect in sorted(reach_root, key=rank):
        if acyclic:
            on_path = reach_root & (nx.ancestors(B, effect) | {effect})
        else:
            on_path = {ROOT_NODE}.union(*nx.all_simple_paths(B, ROOT_NODE, effect))
        solutions: list[str] = []
        for n in sorted(on_path, key=rank):
            for nb in G.neighbors(n):  # reference scans the *full* graph G here
                if G[n][nb]["type"] == INHIBITS:
                    solutions.append(nb)
        solutions = _dedup_keep_first(solutions)
        G.nodes[effect]["adaptation solutions"] = solutions
        for s in solutions:
            # unguarded in the reference (make_graph_class.py:551-557):
            # empty source lists are still written
            G.nodes[s]["solution sources"] = _solution_sources(G.nodes[s])
        total.extend(solutions)
    return total


def _get_annotated(B: nx.DiGraph) -> nx.DiGraph:
    """Acyclic copy without myth nodes (make_graph_class.py:381-393; myth
    nodes carry the dynamic top-level "myth" superclass key)."""
    annotated = B.copy()
    annotated.remove_nodes_from(list(nx.get_node_attributes(B, "myth")))
    return annotated


def _annotate_visualization(annotated: nx.DiGraph) -> None:
    """cyto_classes flags (process_visualization.py:41-72; the
    risk_or_personal_value_node block at :59-72 is dead code — only the two
    observed appends are reproduced, SURVEY M15)."""
    for a, b, data in annotated.edges(data=True):
        flags: list[str] = []
        if "risk solution" in annotated.nodes[a] or "risk solution" in annotated.nodes[b]:
            flags.append("solution-edge")
        elif not data["properties"]:
            flags.append("edge-no-source")
        annotated.edges[a, b]["cyto_classes"] = flags
    for n, data in annotated.nodes(data=True):
        flags = []
        if "risk solution" in data:
            flags.append("risk-solution")
        if any(data.get("personal_values_10") or []):
            flags.append("personal-value")
        annotated.nodes[n]["cyto_classes"] = flags


def _get_subgraphs(
    annotated: nx.DiGraph,
    adaptation_nodes: list[str],
    mitigation_solutions: list[str],
) -> dict[str, nx.DiGraph]:
    """Named visualization subgraphs (process_visualization.py:75-132)."""
    if ROOT_NODE not in annotated:
        return {k: nx.DiGraph() for k in
                ("upstream_mitigations", "downstream_adaptations", "upstream", "downstream")}
    upstream = custom_bfs(annotated, ROOT_NODE, "reverse")
    downstream_adaptations = custom_bfs(annotated, ROOT_NODE, edge_type="any")
    downstream = custom_bfs(annotated, ROOT_NODE, edge_type=CAUSES)
    sub_adaptations = _induced_copy(annotated, adaptation_nodes)
    upstream_mitigations = _induced_copy(
        annotated, set(upstream.nodes) | set(mitigation_solutions)
    )  # union_subgraph semantics (ontology_processing_utils.py:44-59)

    out: dict[str, nx.DiGraph] = {
        "upstream_mitigations": upstream_mitigations,
        "downstream_adaptations": downstream_adaptations,
        "upstream": upstream,
        "downstream": downstream,
    }

    personal_values = [
        label
        for label, pv in annotated.nodes.data("personal_values_10", [None])
        if any(pv or [])
    ]
    # per-personal-value trees over the solution-reversed downstream graph
    # (process_visualization.py:117-132)
    reversed_g = downstream_adaptations.copy()
    for a, b, data in list(reversed_g.edges(data=True)):
        if sub_adaptations.has_node(b):
            reversed_g.add_edge(b, a, **data)
            reversed_g.remove_edge(a, b)
    for label in personal_values:
        if label in reversed_g:
            out[label] = custom_bfs(reversed_g, label, "reverse", "any")
        else:
            out[label] = nx.DiGraph()
    return out


def _process_myths(
    G: nx.DiGraph,
    downstream_adaptations: nx.DiGraph,
    upstream_nodes: list[str],
) -> None:
    """Myth annotation (process_myths.py:19-106)."""
    upstream_set = set(upstream_nodes)
    general: list[str] = []
    for myth in sorted(nx.get_node_attributes(G, "myth")):
        for nb in sorted(G.neighbors(myth)):
            if G[myth][nb]["type"] != MYTH_ABOUT:
                continue
            if "risk solution" in G.nodes[nb]:
                G.nodes[nb].setdefault("solution myths", []).append(myth)
            if downstream_adaptations.has_node(nb):
                G.nodes[nb].setdefault("impact myths", []).append(myth)
            if nb in upstream_set:
                general.append(myth)
        # myth sources: flattened + first-occurrence dedup (process_myths.py:58-78)
        G.nodes[myth]["myth sources"] = _solution_sources(G.nodes[myth])
    general = _dedup_keep_first(general)
    freq = {m: G.nodes[m]["data_properties"].get("myth_frequency") for m in general}
    general = sorted(general, key=lambda m: (freq[m] is None, -(freq[m] or 0.0), m))
    if ROOT_NODE in G:
        G.nodes[ROOT_NODE]["general myths"] = general


def _process_causal_sources(G: nx.DiGraph) -> None:
    """Causal-source URL collapse (process_causal_sources.py:21-67)."""
    for node in G.nodes:
        dicts = [
            G[p][node]["properties"]
            for p in sorted(G.predecessors(node))
            if G[p][node]["type"] == CAUSES and G[p][node]["properties"]
        ]
        if not dicts:
            continue
        urls: list[str] = []
        for d in dicts:
            for k in d:
                if k in SOURCE_TYPES:
                    urls.extend(d[k])
        urls = _dedup_keep_first(urls)
        G.nodes[node]["causal sources"] = [u for u in urls if is_valid_url(u)]


def _test_ontology_filter(G: nx.DiGraph) -> nx.DiGraph:
    """Copy filtered to test-ontology nodes
    (ontology_processing_utils.py:145-165): for each edge endpoint, walk its
    direct classes in order — a valid class marks it test-ontology, an
    excluded class vetoes and stops the walk."""
    T = G.copy()
    for a, b in list(G.edges):
        for node in (a, b):
            if node not in T:
                continue
            keep = False
            for c in T.nodes[node].get("direct classes", ()):
                if c in VALID_TEST_ONT:
                    keep = True
                if c in NON_TEST_ONT:
                    keep = False
                    break
            if not keep:
                T.remove_node(node)
    return T


# --------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------- #


def build_enriched_graph(edges: Iterable[Triple], snap: OntologySnapshot) -> GraphArtifacts:
    """Run the full reference enrichment recipe (make_graph.py:28-67) over a
    canonical (subject, object, predicate) edge collection.  A node with
    opposing value vectors raises :class:`OpposingValuesError`, as in the
    reference."""
    G = nx.DiGraph()
    for s, o, p in edges:
        G.add_edge(s, o, type=p, properties=None)

    _attach_node_attributes(G, snap)
    to_remove = _set_edge_properties(G)
    _remove_edge_properties_from_nodes(G, to_remove)
    B = _make_acyclic(G)
    mitigation_solutions, upstream_nodes = _get_mitigations(B)
    if ROOT_NODE in G:
        _add_mitigations(G, mitigation_solutions)
    adaptation_nodes = _process_adaptations(G, B)

    annotated = _get_annotated(B)
    _annotate_visualization(annotated)
    subgraphs = _get_subgraphs(annotated, adaptation_nodes, mitigation_solutions)

    _process_myths(G, subgraphs["downstream_adaptations"], upstream_nodes)
    _process_causal_sources(G)
    test_graph = _test_ontology_filter(G)

    return GraphArtifacts(
        G=G,
        B=B,
        test_graph=test_graph,
        subgraphs=subgraphs,
        mitigation_solutions=mitigation_solutions,
        upstream_nodes=upstream_nodes,
        adaptation_nodes=_dedup_keep_first(adaptation_nodes),
    )
