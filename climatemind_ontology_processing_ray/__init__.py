"""climatemind_ontology_processing_ray — a Ray-Data-native knowledge-graph
construction engine.

A from-scratch re-expression of the capabilities of
ClimateMind/climatemind-ontology-processing (reference at /root/reference,
cited by file:line throughout) as an idiomatic Ray Data pipeline:

    pages (url, warc_ts, html, text, lang) Parquet
      -> lang filter                      [vectorized predicate on the raw
                                           pages: other languages are never
                                           extracted]
      -> map_batches(extract_pages_batch) [stateless, zero-copy Arrow]
      -> map_batches(PageToTriplePartials)
                                          [stateless tasks, one operator with
                                           the two above; automaton + ontology
                                           index built once per worker: causal
                                           triples, entity links, map-side
                                           combine]
      -> a fold of the partial blocks on the driver, on
         (subject,object,predicate): dedup + support/source aggregation,
         no exchange and no operator after the front end (the key space
         is ontology-sized, labels² x predicates; the fold holds one row
         per key)
      -> one driver-side canonical edge table: adjacency lists, node
         table and graph enrichment, mirroring the reference's
         make_graph/process_* semantics, all written with pyarrow.

Nothing here calls ray.init()/ray.shutdown(); sessions are owned by the
caller (bench.py, CLI, test fixture, or the evaluation driver).
"""

__version__ = "0.1.0"


def __getattr__(name):
    # lazy top-level convenience exports (keeps bare import light)
    if name in ("process_pages", "output_edges", "extract_mentions"):
        from .pipelines import api

        return getattr(api, name)
    if name in ("KGConfig", "run_kg_pipeline", "canonical_edges_to_artifacts"):
        from .pipelines import kg

        return getattr(kg, name)
    raise AttributeError(name)
