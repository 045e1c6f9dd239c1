import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver instructions)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    from climatemind_ontology_processing_ray.runtime import configure_data_context

    configure_data_context()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def snapshot():
    from climatemind_ontology_processing_ray.ontology import build_fixture_snapshot

    return build_fixture_snapshot()


@pytest.fixture(scope="session")
def golden(snapshot):
    from climatemind_ontology_processing_ray.ontology import golden_edge_set

    return golden_edge_set(snapshot)


@pytest.fixture
def ray_executions(monkeypatch):
    """Every Ray Data execution the test starts, as the names of its
    physical operators (counted at ``StreamingExecutor.execute``)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs: list[list[str]] = []
    real = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        names, stack = [], [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        runs.append(names)
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return runs
