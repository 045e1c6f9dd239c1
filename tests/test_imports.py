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


def test_perfbench_core_names_resolve():
    """The core names that ``perfbench/`` uses exist, read from its source
    with ``ast`` (the benchmark's own tests import it and run in a process
    of their own): every package import resolves, every attribute read on
    an imported core module (``canon.<attr>``) exists, every attribute read
    on ``cfg`` / ``self.cfg`` exists on ``KGConfig()``, and every keyword
    argument passed to an imported core callable is in its signature."""
    import ast
    import inspect
    from pathlib import Path

    from climatemind_ontology_processing_ray.pipelines.kg import KGConfig

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sources = sorted(bench.glob("*.py"))
    assert sources
    cfg = KGConfig()
    checked = {"names": 0, "module_attrs": 0, "cfg_attrs": 0, "keywords": 0}
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # local name -> core module or object
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == pkg.__name__:
                        importlib.import_module(a.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] != pkg.__name__:
                    continue
                module = importlib.import_module(node.module)
                for a in node.names:
                    if hasattr(module, a.name):
                        obj = getattr(module, a.name)
                    else:
                        obj = importlib.import_module(f"{node.module}.{a.name}")
                    bound[a.asname or a.name] = obj
                    checked["names"] += 1
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                obj = bound.get(node.value.id)
                if inspect.ismodule(obj):
                    assert hasattr(obj, node.attr), f"{where}: {node.value.id}.{node.attr}"
                    checked["module_attrs"] += 1
            if isinstance(node, ast.Attribute) and (
                (isinstance(node.value, ast.Name) and node.value.id == "cfg")
                or (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "cfg"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                )
            ):
                assert hasattr(cfg, node.attr), f"{where}: cfg.{node.attr}"
                checked["cfg_attrs"] += 1
            if isinstance(node, ast.Call) and node.keywords:
                func = node.func
                if isinstance(func, ast.Name):
                    obj = bound.get(func.id)
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    obj = getattr(bound.get(func.value.id), func.attr, None)
                else:
                    obj = None
                if obj is None or inspect.ismodule(obj) or not callable(obj):
                    continue
                params = inspect.signature(obj).parameters
                if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                    continue
                for kw in node.keywords:
                    if kw.arg is not None:
                        assert kw.arg in params, f"{where}: {kw.arg}= to {obj.__name__}"
                        checked["keywords"] += 1
    assert all(checked.values()), checked


def test_config_surface_is_one_field_and_defaults_name_their_constants():
    """``KGConfig`` has one settable field, ``checkpoint_dir``; the recipe
    values are constants that it exposes as class attributes, and every
    core default of ``sources_cap``, ``num_salts`` and ``threshold`` is
    written as the constant of its module (read from the source with
    ``ast``, so a literal equal to it fails too)."""
    import ast
    import dataclasses
    import inspect
    import textwrap

    import pytest

    from climatemind_ontology_processing_ray.pipelines import api, kg
    from climatemind_ontology_processing_ray.stages import canonicalize as canon
    from climatemind_ontology_processing_ray.stages import fused, link

    assert [f.name for f in dataclasses.fields(kg.KGConfig)] == ["checkpoint_dir"]
    with pytest.raises(TypeError):
        kg.KGConfig(batch_size=64)
    cfg = kg.KGConfig()
    assert (cfg.batch_size, cfg.min_text_chars, cfg.keep_langs) == (None, 0, kg.KEEP_LANGS)
    assert (cfg.sources_cap, cfg.num_salts, cfg.link_threshold) == (
        canon.SOURCES_CAP, canon.NUM_SALTS, link.LINK_THRESHOLD,
    )
    constants = {
        "sources_cap": "SOURCES_CAP",
        "num_salts": "NUM_SALTS",
        "threshold": "LINK_THRESHOLD",
    }
    callables = [
        canon.partial_triple_agg_arrow,
        canon.fold_partials,
        canon.canonicalize_partials,
        canon.canonicalize_triples,
        link.EntityLinker.__init__,
        fused.ExtractLink.__init__,
        fused.PageToTriplePartials.__init__,
        fused.make_fused_partials_fn,
        api.merge_canonical_edges,
    ]
    checked = 0
    for fn in callables:
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        args = node.args.posonlyargs + node.args.args
        defaults = dict(zip([a.arg for a in args][-len(node.args.defaults):], node.args.defaults))
        defaults.update(
            (a.arg, d) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d
        )
        for name, default in defaults.items():
            if name in constants:
                where = f"{fn.__qualname__}({name}=)"
                assert isinstance(default, ast.Name), where
                assert default.id == constants[name], where
                checked += 1
    assert checked == 15, checked
