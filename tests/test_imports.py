"""Every module of the package imports: a deleted module or name that is
still imported or re-exported somewhere fails here, not on the first
path that happens to reach it."""

import importlib
import pkgutil

import climatemind_ontology_processing_ray as pkg


def test_every_module_imports():
    names = sorted(
        m.name
        for m in pkgutil.walk_packages(
            pkg.__path__, prefix=pkg.__name__ + ".", onerror=_raise
        )
    )
    assert f"{pkg.__name__}.pipelines.kg" in names  # the walk found the tree
    for name in names:
        importlib.import_module(name)


def _raise(name):
    # walk_packages calls this inside its `except` when a subpackage fails
    # to import; without it an ImportError is skipped silently: re-raise
    raise
