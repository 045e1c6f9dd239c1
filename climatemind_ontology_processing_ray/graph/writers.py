"""Graph output writers (SURVEY §2.1 S2-S7).

The enriched graph is ontology-sized, so — like the reference — final
graph artifacts are driver-side files; so are the edge tables
(canonical edges, adjacency lists, nodes), Parquet directories written
with pyarrow from one driver-side edge table (``pipelines/api.py``).

Reference formats reproduced:
- edge CSV ``output.csv`` with columns subject,object,predicate
  (make_network.py:41-45)
- graph pickle ``Climate_Mind_DiGraph.gpickle``
  (ontology_processing_utils.py:177-195; nx.write_gpickle was removed in
  networkx 3.x — a plain pickle.dump of the DiGraph is the same bytes
  contract)
- JIT-style graph JSON ``Climate_Mind_Digraph_Test_Ont.json``
  (``json_graph.jit_data`` — removed from modern networkx; re-implemented:
  a list of {id, name, data, adjacencies:[{nodeTo, data}]})
- gexf/gml/graphml via networkx writers where the attribute types allow
- subgraph-dict pickle ``graphs_for_visualization.pickle``
  (process_visualization.py:22-33)
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import re
from typing import Iterable

import networkx as nx

from .enrich import GraphArtifacts

Triple = tuple[str, str, str]


def write_edges_csv(edges: Iterable[Triple], path: str) -> None:
    """subject,object,predicate CSV — the reference's output.csv contract."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["subject", "object", "predicate"])
        for s, o, p in sorted(set(edges)):
            w.writerow([s, o, p])


def read_edges_csv(path: str) -> list[Triple]:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        assert header == ["subject", "object", "predicate"], header
        return [tuple(row) for row in r]


def write_graph_pickle(G: nx.DiGraph, out_dir: str, fname: str = "Climate_Mind_DiGraph") -> str:
    path = os.path.join(out_dir, fname + ".gpickle")
    with open(path, "wb") as f:
        pickle.dump(G, f)
    return path


def _jit_data(G: nx.DiGraph) -> list[dict]:
    """JIT graph serialization (shape of networkx's removed
    ``json_graph.jit_data``)."""
    out = []
    for node, data in G.nodes(data=True):
        adjacencies = [
            {"nodeTo": nb, "data": G.edges[node, nb]} for nb in G.neighbors(node)
        ]
        out.append({"id": node, "name": node, "data": data, "adjacencies": adjacencies})
    return out


def write_graph_json(
    G: nx.DiGraph, out_dir: str, fname: str = "Climate_Mind_Digraph_Test_Ont"
) -> str:
    path = os.path.join(out_dir, fname + ".json")
    with open(path, "w") as f:
        json.dump(_jit_data(G), f, indent=4, default=str)
    return path


def write_subgraph_pickle(
    subgraphs: dict[str, nx.DiGraph], out_dir: str
) -> str:
    """graphs_for_visualization.pickle contract (process_visualization.py:22-33)."""
    path = os.path.join(out_dir, "graphs_for_visualization.pickle")
    with open(path, "wb") as f:
        pickle.dump(subgraphs, f)
    return path


def _stringify_attrs(G: nx.DiGraph, key=lambda k: k) -> nx.DiGraph:
    """gexf/gml/graphml only accept scalar attribute values — stringify the
    nested dict/list attributes (alternate formats are secondary exports,
    ontology_processing_utils.py:198-207); ``key`` renames attributes."""
    H = nx.DiGraph()
    for n, d in G.nodes(data=True):
        H.add_node(n, **{key(k): json.dumps(v, default=str) for k, v in d.items()})
    for a, b, d in G.edges(data=True):
        H.add_edge(a, b, **{key(k): json.dumps(v, default=str) for k, v in d.items()})
    return H


def write_graph_gexf(G: nx.DiGraph, out_dir: str, fname: str = "Climate_Mind_DiGraph") -> str:
    path = os.path.join(out_dir, fname + ".gexf")
    nx.write_gexf(_stringify_attrs(G), path)
    return path


def write_graph_graphml(G: nx.DiGraph, out_dir: str, fname: str = "Climate_Mind_DiGraph") -> str:
    path = os.path.join(out_dir, fname + ".graphml")
    nx.write_graphml(_stringify_attrs(G), path)
    return path


def write_graph_gml(G: nx.DiGraph, out_dir: str, fname: str = "Climate_Mind_DiGraph") -> str:
    """GML keys are ``[A-Za-z][A-Za-z0-9_]*``, so attribute names such as
    "direct classes" are written with underscores for spaces."""
    path = os.path.join(out_dir, fname + ".gml")
    nx.write_gml(_stringify_attrs(G, key=lambda k: re.sub(r"[^0-9A-Za-z_]", "_", k)), path)
    return path


def write_all_artifacts(art: GraphArtifacts, out_dir: str) -> dict[str, str]:
    """The reference's full output set (make_graph.py:47-67)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "edges_csv": os.path.join(out_dir, "output.csv"),
        "gpickle": write_graph_pickle(art.G, out_dir),
        "test_json": write_graph_json(art.test_graph, out_dir),
        "subgraphs": write_subgraph_pickle(art.subgraphs, out_dir),
    }
    write_edges_csv(
        [(s, o, d["type"]) for s, o, d in art.G.edges(data=True)], paths["edges_csv"]
    )
    return paths


def _deterministic_layout(
    G: nx.DiGraph, iterations: int = 120, size: float = 1000.0
) -> dict[str, tuple[float, float]]:
    """Fruchterman–Reingold force layout with DETERMINISTIC seeding: the
    initial position of each node is derived from the md5 of its name
    (no RNG anywhere), and the iteration count is fixed — two runs over
    the same graph emit byte-identical coordinates, so the HTML artifact
    is reproducible and diffable."""
    import hashlib

    import numpy as np

    nodes = sorted(G.nodes)
    n = len(nodes)
    if n == 0:
        return {}
    pos = np.empty((n, 2), dtype=np.float64)
    for i, name in enumerate(nodes):
        d = hashlib.md5(str(name).encode()).digest()
        pos[i, 0] = int.from_bytes(d[:4], "big") / 2**32
        pos[i, 1] = int.from_bytes(d[4:8], "big") / 2**32
    if n == 1:
        return {nodes[0]: (size / 2, size / 2)}
    idx = {name: i for i, name in enumerate(nodes)}
    edges = np.array(
        [(idx[u], idx[v]) for u, v in G.edges if u != v], dtype=np.int64
    ).reshape(-1, 2)
    k = 1.0 / np.sqrt(n)
    t = 0.1
    dt = t / (iterations + 1)
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(-1))
        np.fill_diagonal(dist, 1.0)
        dist = np.maximum(dist, 1e-9)
        disp = (delta * (k * k / dist**2)[:, :, None]).sum(axis=1)
        if len(edges):
            ed = pos[edges[:, 0]] - pos[edges[:, 1]]
            edist = np.maximum(np.sqrt((ed**2).sum(-1)), 1e-9)
            pull = ed * (edist / k)[:, None]
            np.add.at(disp, edges[:, 0], -pull)
            np.add.at(disp, edges[:, 1], pull)
        length = np.maximum(np.sqrt((disp**2).sum(-1)), 1e-9)
        pos += disp / length[:, None] * np.minimum(length, t)[:, None]
        t -= dt
    lo = pos.min(axis=0)
    span = np.maximum(pos.max(axis=0) - lo, 1e-9)
    pos = (pos - lo) / span * (size * 0.9) + size * 0.05
    return {name: (float(pos[i, 0]), float(pos[i, 1])) for name, i in idx.items()}


def write_graph_html(
    G: nx.DiGraph,
    out_dir: str,
    fname: str = "Climate_Mind_DiGraph",
    highlight_class: str | None = None,
) -> str:
    """Self-contained static HTML+SVG view of the enriched graph — the
    dependency-free stand-in for the reference's Dash/graphviz dashboard
    (visualize/visualize.py:421-545; not shippable here: no network, no
    graphviz).  Same visual contract where it applies: edges colored
    blue for causes_or_promotes and red for the inhibit predicate
    (visualize.py:156-215), nodes filled #aed9f6 when
    ``highlight_class`` appears in their "all classes" list
    (visualize.py:77-99), node names as hover tooltips.  Layout is the
    deterministic force embedding above, so output is byte-reproducible.
    The file is valid XHTML — parseable by any XML reader (tested)."""
    from xml.sax.saxutils import escape

    pos = _deterministic_layout(G)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<html xmlns="http://www.w3.org/1999/xhtml"><head>'
        "<title>graph</title></head><body>"
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">'
    ]
    for u, v, data in sorted(G.edges(data=True), key=lambda e: (e[0], e[1])):
        t = data.get("type", "")
        color = (
            "blue"
            if t == "causes_or_promotes"
            else "red"
            if t == "is_inhibited_or_prevented_or_blocked_or_slowed_by"
            else "black"
        )
        (x1, y1), (x2, y2) = pos[u], pos[v]
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="1"><title>'
            f"{escape(str(u))} -[{escape(t)}]-&gt; {escape(str(v))}</title></line>"
        )
    for name in sorted(G.nodes):
        x, y = pos[name]
        classes = G.nodes[name].get("all classes") or []
        fill = (
            "#aed9f6"
            if highlight_class is not None and highlight_class in classes
            else "white"
        )
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="{fill}" '
            f'stroke="black"><title>{escape(str(name))}</title></circle>'
        )
        parts.append(
            f'<text x="{x + 8:.2f}" y="{y + 4:.2f}" font-size="8" '
            f"font-family=\"sans-serif\">{escape(str(name))}</text>"
        )
    parts.append("</svg></body></html>")
    path = os.path.join(out_dir, fname + ".html")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(parts))
    return path
