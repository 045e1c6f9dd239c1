"""Graph output writers (SURVEY §2.1 S2-S5, S7).

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
- subgraph-dict pickle ``graphs_for_visualization.pickle``
  (process_visualization.py:22-33)
"""

from __future__ import annotations

import csv
import json
import os
import pickle
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

