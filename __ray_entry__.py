"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library code) calls ``ray.init``/``ray.shutdown``.

- ``entry()`` — flagship KG-construction pipeline on sf0.001: synthesized
  Common-Crawl-style pages -> extract -> one fused triple/link/combine
  operator -> driver fold of its partials -> canonical edge table.
- ``queries()`` — one entry per implemented operator/pipeline (SURVEY §2
  + the training-data operator set); each takes ``sf_dir``.
- ``oracle_sql()`` — DuckDB equivalents for every SQL-expressible entry.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# the package lives next to this file; make imports robust to any driver CWD
# (PYTHONPATH additionally covers Ray workers spawned after this import)
_REPO_ROOT = os.path.dirname(os.path.abspath(__file__))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)
if _REPO_ROOT not in os.environ.get("PYTHONPATH", ""):
    os.environ["PYTHONPATH"] = (
        _REPO_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)


def _configure() -> None:
    from climatemind_ontology_processing_ray.runtime import configure_data_context

    configure_data_context()


def entry() -> Any:
    _configure()
    from climatemind_ontology_processing_ray.pipelines.queries import (
        q_kg_canonical_edges,
    )

    return q_kg_canonical_edges("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    _configure()
    from climatemind_ontology_processing_ray.pipelines.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    from climatemind_ontology_processing_ray.pipelines.queries import (
        oracle_sql as _o,
    )

    return _o()
