"""Oracle + enrichment semantics pinned to the cited reference lines."""

import pickle

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from climatemind_ontology_processing_ray.graph.enrich import (
    OpposingValuesError,
    build_enriched_graph,
    collapse_values,
    custom_bfs,
    is_valid_url,
)
from climatemind_ontology_processing_ray.ontology.vocab import (
    CAUSES,
    INHIBITS,
    normalize_predicate_label,
)

GOLDEN_PICKLE = (
    "/root/reference/ontology_processing/output/graphs_for_visualization.pickle"
)


def test_normalize_predicate_label():
    # give_alias rules, ontology_processing_utils.py:168-174
    assert normalize_predicate_label("causes/promotes") == "causes_or_promotes"
    assert (
        normalize_predicate_label("is inhibited or prevented or blocked or slowed by")
        == "is_inhibited_or_prevented_or_blocked_or_slowed_by"
    )
    assert normalize_predicate_label("dc:source") == "dc_source"


class TestCollapseValues:
    # compute() laws, make_graph_class.py:268-291
    def test_all_none(self):
        assert collapse_values([None, None]) is None

    def test_any_one(self):
        assert collapse_values([0, None, 1]) == 1

    def test_any_neg_one(self):
        assert collapse_values([None, -1, 0]) == -1

    def test_zero(self):
        assert collapse_values([0, None]) == 0

    def test_conflict_raises(self):
        with pytest.raises(OpposingValuesError):
            collapse_values([1, -1])

    @given(st.lists(st.sampled_from([1, 0, -1, None]), min_size=1, max_size=6))
    def test_laws(self, vals):
        has1, hasm1 = 1 in vals, -1 in vals
        if has1 and hasm1:
            with pytest.raises(OpposingValuesError):
                collapse_values(vals)
        else:
            out = collapse_values(vals)
            if all(v is None for v in vals):
                assert out is None
            elif has1:
                assert out == 1
            elif hasm1:
                assert out == -1
            else:
                assert out == 0


def test_url_validator():
    # role of validators.url at process_causal_sources.py:61
    assert is_valid_url("https://www.ipcc.ch/report/ar6/wg1/")
    assert is_valid_url("http://localhost:8080/x")
    assert not is_valid_url("not a real url")
    assert not is_valid_url("www.noscheme.com")
    assert not is_valid_url("")


def test_golden_edges_cover_reference_predicates(golden):
    preds = {p for _, _, p in golden}
    assert {
        "causes_or_promotes",
        "is_inhibited_or_prevented_or_blocked_or_slowed_by",
        "is_a_myth_about",
        "has_exposure_dependency_of",
        "population_affected",
        "is_a",
    } <= preds


def test_golden_edges_deduplicated(golden):
    assert len(golden) == len(set(golden))  # make_network.py:44


class TestEnrichment:
    @pytest.fixture(scope="class")
    def art(self, snapshot, golden):
        return build_enriched_graph(golden, snapshot)

    def test_feedback_edge_removed(self, art):
        # make_graph_class.py:395-431: permafrost thaw (feedback loop) ->
        # increase in atmospheric methane (greenhouse gas) causes edge cut in B
        assert art.G.has_edge("permafrost thaw", "increase in atmospheric methane")
        assert not art.B.has_edge("permafrost thaw", "increase in atmospheric methane")

    def test_mitigation_sort_null_tail(self, art):
        # make_graph_class.py:466-495: CO2-valued sorted desc, null-CO2 appended
        ordered = art.G.nodes["increase in greenhouse effect"]["mitigation solutions"]
        co2 = [
            art.G.nodes[s]["data_properties"].get("CO2_eq_reduced") for s in ordered
        ]
        valued = [c for c in co2 if c]
        assert valued == sorted(valued, reverse=True)
        # nulls all at the tail
        first_null = next((i for i, c in enumerate(co2) if not c), len(co2))
        assert all(not c for c in co2[first_null:])

    def test_edge_property_intersection(self, art):
        # make_graph_class.py:306-354: IPCC url on both endpoints -> edge
        e = art.G["burning of fossil fuels"]["increase in atmospheric co2"]
        assert "https://www.ipcc.ch/report/ar6/wg1/" in e["properties"]["dc_source"]
        # and removed from the node side (make_graph_class.py:357-376)
        assert (
            "https://www.ipcc.ch/report/ar6/wg1/"
            not in art.G.nodes["burning of fossil fuels"]["properties"]["dc_source"]
        )

    def test_inhibit_edges_get_no_properties(self, art):
        # make_graph_class.py:320-323
        for a, b, d in art.G.edges(data=True):
            if d["type"] == INHIBITS:
                assert d["properties"] == {}

    def test_causal_sources_url_filtered(self, art):
        # process_causal_sources.py:61: invalid url shared on the
        # methane edge must not survive
        for _, attrs in art.G.nodes(data=True):
            for url in attrs.get("causal sources", []):
                assert is_valid_url(url)

    def test_myth_annotations(self, art):
        root = art.G.nodes["increase in greenhouse effect"]
        assert root["general myths"] == ["myth that co2 is plant food"]
        assert (
            "myth that wind turbines harm health"
            in art.G.nodes["onshore wind energy"]["solution myths"]
        )
        assert (
            "myth that sea levels are not rising"
            in art.G.nodes["sea level rise"]["impact myths"]
        )
        assert art.G.nodes["myth that co2 is plant food"]["myth sources"]

    def test_adaptation_solutions_via_reach_coreach(self, art):
        # T7 replacement: nodes on any simple path == reach ∩ coreach on a DAG.
        # brute-force check on the acyclic graph
        assert "sea wall construction" in art.G.nodes["coastal flooding"].get(
            "adaptation solutions", []
        )
        for effect in ["coastal flooding", "increase in heat related illness"]:
            paths = list(
                nx.all_simple_paths(art.B, "increase in greenhouse effect", effect)
            )
            on_path = sorted({n for p in paths for n in p})
            reach = set(nx.descendants(art.B, "increase in greenhouse effect")) | {
                "increase in greenhouse effect"
            }
            coreach = set(nx.ancestors(art.B, effect)) | {effect}
            assert on_path == sorted(reach & coreach)

    def test_myths_removed_from_annotated_subgraphs(self, art):
        for g in art.subgraphs.values():
            for n in g.nodes:
                assert "myth" not in g.nodes[n]

    def test_test_ontology_filter(self, art):
        # valid test-ontology individuals survive; solution/excluded removed
        assert "importance of security" in art.test_graph
        assert "onshore wind energy" not in art.test_graph
        assert "global warming" not in art.test_graph

    def test_node_schema_matches_shipped_golden_pickle(self, art):
        """Node/edge attribute key conformance vs the real shipped output
        (FIXTURES.md §5)."""
        with open(GOLDEN_PICKLE, "rb") as f:
            shipped = pickle.load(f)
        g = shipped["downstream_adaptations"]
        _, ref_attrs = next(iter(g.nodes(data=True)))
        base_keys = {
            "label",
            "iri",
            "comment",
            "direct classes",
            "all classes",
            "properties",
            "data_properties",
            "personal_values_10",
            "personal_values_19",
            "political_value",
            "cyto_classes",
        }
        assert base_keys <= set(ref_attrs)  # sanity on the shipped artifact
        ours = art.subgraphs["downstream_adaptations"]
        _, our_attrs = next(iter(ours.nodes(data=True)))
        assert base_keys <= set(our_attrs)
        # edge schema: type + properties + cyto_classes
        for a, b, d in list(ours.edges(data=True))[:5]:
            assert {"type", "properties", "cyto_classes"} <= set(d)
        # vector shapes match the reference contract
        assert len(our_attrs["personal_values_10"]) == 10
        assert len(our_attrs["personal_values_19"]) == 19
        assert len(our_attrs["political_value"]) == 2

    def test_custom_bfs_direction_and_type(self, art):
        up = custom_bfs(art.B, "increase in greenhouse effect", "reverse", CAUSES)
        assert "burning of fossil fuels" in up
        assert "global warming" not in up


def test_adaptations_on_a_cyclic_graph_follow_simple_paths():
    """On a graph with a cycle, reach(root) ∩ coreach(effect) over-counts
    the nodes on simple root->effect paths; each effect's adaptation
    solutions are the inhibitors of exactly the nodes on those paths."""
    from climatemind_ontology_processing_ray.graph.enrich import _process_adaptations
    from climatemind_ontology_processing_ray.ontology.vocab import ROOT_NODE

    G = nx.DiGraph()
    G.add_edge(ROOT_NODE, "a", type=CAUSES)
    G.add_edge("a", "b", type=CAUSES)
    G.add_edge("b", "c", type=CAUSES)
    G.add_edge("c", "a", type=CAUSES)  # the cycle a -> b -> c -> a
    for n in (ROOT_NODE, "a", "b", "c"):
        G.add_edge(n, f"stop {n}", type=INHIBITS)
    B = G.copy()
    assert not nx.is_directed_acyclic_graph(B)

    reach = nx.descendants(B, ROOT_NODE) | {ROOT_NODE}
    assert "c" in reach & (nx.ancestors(B, "b") | {"b"})  # over-counted for b
    _process_adaptations(G, B)
    for effect in reach:
        on_path = {ROOT_NODE}.union(*nx.all_simple_paths(B, ROOT_NODE, effect))
        expected = {nb for n in on_path for nb in G[n] if G[n][nb]["type"] == INHIBITS}
        assert sorted(G.nodes[effect]["adaptation solutions"]) == sorted(expected)
    assert "stop c" not in G.nodes["b"]["adaptation solutions"]


def test_opposing_value_vectors_abort_the_build(snapshot, golden):
    """A node with opposing value vectors aborts the build (reference
    behavior, make_graph_class.py:289-290)."""
    import copy

    bad = copy.deepcopy(snapshot)
    rec = bad.individuals["coastal flooding"]
    rec["data_properties"]["universalism_concern"] = 1
    rec["data_properties"]["universalism_nature"] = -1
    with pytest.raises(OpposingValuesError):
        build_enriched_graph(golden, bad)
