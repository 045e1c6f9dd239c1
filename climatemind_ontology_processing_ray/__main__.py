"""CLI entry point (the reference's argparse surface, SURVEY §2.9), and
the ``ray job submit`` entry (``ray job submit -- python -m ...``):

    python -m climatemind_ontology_processing_ray process --pages DIR --out DIR [--checkpoint-dir D]
    python -m climatemind_ontology_processing_ray edges   --pages DIR --out CSV [--source NODE]
    python -m climatemind_ontology_processing_ray synth   --out DIR --pages N

``process`` and ``edges`` also take ``--ontology`` (OWL or snapshot JSON)
and ``--num-cpus``.  A resubmitted ``process`` resumes from its stage
checkpoints.  The CLI uses a running Ray session and leaves it up; else it
attaches to ``RAY_ADDRESS`` (set by ``ray job submit``) or starts a local
session, and shuts down what it started.  The library never does either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _session(num_cpus: int) -> bool:
    """Bring up the Ray session and apply the engine's Data context.
    Returns True when this call started or attached the session, so the
    caller owns its shutdown."""
    import ray
    import ray.data

    from .runtime import configure_data_context

    owned = not ray.is_initialized()
    if owned and os.environ.get("RAY_ADDRESS"):
        ray.init()
    elif owned:
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    configure_data_context()
    return owned


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="climatemind_ontology_processing_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--pages", required=True, help="pages parquet file/dir")
    run.add_argument("--ontology", default=None, help="OWL or snapshot JSON path")
    run.add_argument("--num-cpus", type=int, default=8, help="local session only")

    pp = sub.add_parser("process", parents=[run], help="full pipeline: pages -> all outputs")
    pp.add_argument("--out", required=True, help="output directory")
    pp.add_argument("--checkpoint-dir", default=None)

    pe = sub.add_parser("edges", parents=[run], help="canonical edge extraction only")
    pe.add_argument("--out", required=True, help="output csv path")
    pe.add_argument("--source", default=None, help="restrict to component reachable from this node")

    ps = sub.add_parser("synth", help="generate the synthetic pages corpus")
    ps.add_argument("--out", required=True)
    ps.add_argument("--pages", type=int, default=10_000)
    ps.add_argument("--seed", type=int, default=13)

    args = p.parse_args(argv)

    if args.cmd == "synth":
        from .ontology.fixture import build_fixture_snapshot
        from .sources.pages import write_pages_parquet

        path = write_pages_parquet(args.out, build_fixture_snapshot(), args.pages, args.seed)
        print(path)
        return 0

    import ray

    owned = _session(args.num_cpus)
    try:
        pages = ray.data.read_parquet(args.pages)
        if args.cmd == "process":
            from .pipelines.api import process_pages
            from .pipelines.kg import KGConfig
            from .state.checkpoint import CheckpointManager

            art, paths = process_pages(
                pages, args.out, args.ontology, KGConfig(checkpoint_dir=args.checkpoint_dir)
            )
            summary = {
                "outputs": paths,
                "n_nodes": art.G.number_of_nodes(),
                "n_edges": art.G.number_of_edges(),
            }
            if args.checkpoint_dir:
                summary["lineage_records"] = len(CheckpointManager(args.checkpoint_dir).lineage())
            print(json.dumps(summary))
        elif args.cmd == "edges":
            from .graph.writers import write_edges_csv
            from .pipelines.api import output_edges
            from .pipelines.kg import edge_table

            t = edge_table(output_edges(pages, args.ontology, source=args.source))
            triples = zip(*(t.column(c).to_pylist() for c in ("subject", "object", "predicate")))
            write_edges_csv(triples, args.out)
            print(f"{t.num_rows} edges -> {args.out}")
    finally:
        if owned:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
