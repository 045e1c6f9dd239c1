"""OWL RDF/XML reader/writer (SURVEY §2.1 S1): the reference's native
ontology input format (make_network.py:34 get_ontology(path).load()),
parsed dependency-free into an OntologySnapshot."""

import os

import pytest

from climatemind_ontology_processing_ray.ontology.fixture import build_fixture_snapshot
from climatemind_ontology_processing_ray.ontology.oracle import golden_edge_set
from climatemind_ontology_processing_ray.ontology.owl_io import parse_owl, write_owl
from climatemind_ontology_processing_ray.ontology.vocab import CLIMATE_MIND


@pytest.fixture(scope="module")
def roundtrip():
    snap = build_fixture_snapshot()
    xml = write_owl(snap)
    return snap, parse_owl(xml)


def test_roundtrip_individuals_exact(roundtrip):
    snap, back = roundtrip
    assert set(back.individuals) == set(snap.individuals)
    for label, node in snap.individuals.items():
        got = back.individuals[label]
        assert got["iri"] == node["iri"]
        assert got["comment"] == node["comment"]
        assert list(got["direct_classes"]) == list(node["direct_classes"])
        assert got["properties"] == node["properties"]
        assert got["data_properties"] == node["data_properties"]
        assert list(got["surface_forms"]) == list(node["surface_forms"])


def test_roundtrip_class_hierarchy(roundtrip):
    snap, back = roundtrip
    # the parser keeps the root class as an explicit (parentless) entry
    expected = dict(snap.class_parents)
    expected[CLIMATE_MIND] = ()
    assert back.class_parents == expected
    assert back.superclasses() == snap.superclasses()
    for c in snap.class_parents:
        assert back.class_ancestors(c) == snap.class_ancestors(c)


def test_roundtrip_edges(roundtrip):
    snap, back = roundtrip
    assert sorted(back.obj_edges) == sorted(snap.obj_edges)
    assert sorted(back.class_obj_edges) == sorted(snap.class_obj_edges)
    assert sorted(back.class_individual_parents) == sorted(
        snap.class_individual_parents
    )


def test_roundtrip_golden_edge_set(roundtrip):
    """The end goal: the DFS-equivalent edge set derived from the parsed
    OWL equals the one from the original snapshot (reference parity,
    network_class.py:121-156)."""
    snap, back = roundtrip
    assert golden_edge_set(back) == golden_edge_set(snap)


def test_parse_protege_style_document():
    """A hand-written Protégé/WebProtégé-flavoured file: raw 'dc:source'
    labels, fragment-less individual IRIs, xsd-typed literals."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="http://webprotege.stanford.edu/">
  <owl:ObjectProperty rdf:about="http://webprotege.stanford.edu/Rcauses">
    <rdfs:label>causes/promotes</rdfs:label>
  </owl:ObjectProperty>
  <owl:AnnotationProperty rdf:about="http://webprotege.stanford.edu/Rsource">
    <rdfs:label>dc:source</rdfs:label>
  </owl:AnnotationProperty>
  <owl:DatatypeProperty rdf:about="http://webprotege.stanford.edu/Rscore">
    <rdfs:label>universalism_concern</rdfs:label>
  </owl:DatatypeProperty>
  <owl:Class rdf:about="http://webprotege.stanford.edu/Rcm">
    <rdfs:label>climate mind</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://webprotege.stanford.edu/Rissue">
    <rdfs:label>climate issue</rdfs:label>
    <rdfs:subClassOf rdf:resource="http://webprotege.stanford.edu/Rcm"/>
  </owl:Class>
  <owl:NamedIndividual rdf:about="http://webprotege.stanford.edu/RA">
    <rdf:type rdf:resource="http://webprotege.stanford.edu/Rissue"/>
    <rdfs:label xml:lang="en">ocean warming</rdfs:label>
    <rdfs:comment xml:lang="en">heat uptake</rdfs:comment>
    <wp:Rsource rdf:resource="https://example.org/src"/>
    <wp:Rscore rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">1</wp:Rscore>
    <wp:Rcauses rdf:resource="http://webprotege.stanford.edu/RB"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="http://webprotege.stanford.edu/RB">
    <rdf:type rdf:resource="http://webprotege.stanford.edu/Rissue"/>
    <rdfs:label>sea level rise</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    assert set(snap.individuals) == {"ocean warming", "sea level rise"}
    node = snap.individuals["ocean warming"]
    assert node["iri"] == "http://webprotege.stanford.edu/RA"
    assert node["comment"] == "[locstr('heat uptake', 'en')]"
    assert node["direct_classes"] == ["climate issue"]
    assert node["properties"]["dc_source"] == ["https://example.org/src"]
    assert node["data_properties"]["universalism_concern"] == 1
    assert snap.obj_edges == [
        ("ocean warming", "causes/promotes", "sea level rise")
    ]
    assert snap.class_parents["climate issue"] == ("climate mind",)


def test_reasoner_inferences_not_derived():
    """Documented gap (VERDICT 'what's missing' #2): asserted-hierarchy
    ancestors are reproduced; DL-reasoner-only memberships are not."""
    snap = build_fixture_snapshot()
    back = parse_owl(write_owl(snap))
    # asserted closure works
    assert "personal value" in back.class_ancestors("security societal")
    # no equivalent-class / inferred memberships appear out of thin air
    assert back.individuals["global warming"]["direct_classes"] == [
        "environmental impact"
    ]


def test_equivalent_class_memberships_match_rdfs_fixpoint():
    """owl:equivalentClass between NAMED classes is normalized to mutual
    subsumption at parse time, so class_ancestors reproduces the
    RDFS-entailed memberships (rules scm-eqc1 + scm-sco) that HermiT would
    infer for this fragment (make_graph_class.py:79-82 sync_reasoner)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#A">
    <rdfs:label>class a</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#B">
    <rdfs:label>class b</rdfs:label>
    <owl:equivalentClass rdf:resource="urn:x#A"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#C">
    <rdfs:label>class c</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#B"/>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#n1">
    <rdf:type rdf:resource="urn:x#C"/>
    <rdfs:label>node one</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)

    # fixpoint oracle over the raw axioms: seed sub⊑sup from subClassOf,
    # add both directions for each equivalence (scm-eqc1), then close
    # under transitivity (scm-sco) until no change.
    sub = {
        ("class a", "climate mind"),
        ("class b", "class a"),
        ("class a", "class b"),
        ("class c", "class b"),
    }
    changed = True
    while changed:
        changed = False
        for (x, y) in list(sub):
            for (y2, z) in list(sub):
                if y == y2 and (x, z) not in sub:
                    sub.add((x, z))
                    changed = True
    for cls in ("class a", "class b", "class c", "climate mind"):
        entailed = {cls} | {z for (x, z) in sub if x == cls}
        assert snap.class_ancestors(cls) == entailed, cls

    # membership projection: x ∈ C entails x ∈ B, A (climate mind removed)
    assert snap.node_all_classes("node one") == ["class a", "class b", "class c"]

    # round trip: equivalence survives as mutual subsumption
    back = parse_owl(write_owl(snap))
    assert back.class_ancestors("class c") == snap.class_ancestors("class c")


def test_restriction_defined_class_memberships():
    """Restriction-DEFINED classes classify individuals (the HermiT
    entailment the reference relies on, make_graph_class.py:71-82):
    C ≡ ∃P.{v} makes every x with P(x, v) a member of C; C ≡ ∃P.D makes
    every x with a P-edge to a D-member (up to ancestors) a member of C —
    chained to fixpoint.  Memberships land in direct_classes and flow
    through node_all_classes."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pcauses">
    <rdfs:label>causes/promotes</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Impact">
    <rdfs:label>impact</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#WarmingDriver">
    <rdfs:label>warming driver</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pcauses"/>
        <owl:hasValue rdf:resource="urn:x#warming"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="urn:x#ImpactCause">
    <rdfs:label>impact cause</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pcauses"/>
        <owl:someValuesFrom rdf:resource="urn:x#Impact"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#co2">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>co2 increase</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#warming"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#warming">
    <rdf:type rdf:resource="urn:x#Impact"/>
    <rdfs:label>warming</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#deforest">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>deforestation</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#drought"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#drought">
    <rdf:type rdf:resource="urn:x#Impact"/>
    <rdfs:label>drought</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # hand-derived expected memberships:
    # co2 increase causes warming  -> WarmingDriver (hasValue) AND
    #   warming ∈ Impact           -> ImpactCause  (someValuesFrom)
    assert sorted(snap.individuals["co2 increase"]["direct_classes"]) == [
        "climate mind",
        "impact cause",
        "warming driver",
    ]
    # deforestation causes drought (∈ Impact) -> ImpactCause only
    assert sorted(snap.individuals["deforestation"]["direct_classes"]) == [
        "climate mind",
        "impact cause",
    ]
    # targets themselves gain nothing
    assert snap.individuals["warming"]["direct_classes"] == ["impact"]
    # the inferred membership changes `all classes` (node_all_classes)
    assert snap.node_all_classes("co2 increase") == [
        "impact cause",
        "warming driver",
    ]
    # and survives the writer round trip (materialized as rdf:type)
    back = parse_owl(write_owl(snap))
    assert sorted(back.individuals["co2 increase"]["direct_classes"]) == [
        "climate mind",
        "impact cause",
        "warming driver",
    ]


def test_restriction_membership_chains_to_fixpoint():
    """A someValuesFrom filler that is ITSELF a defined class: membership
    derived in round 1 must feed round 2 (C2 ≡ ∃P.C1 where C1 ≡ ∃P.Impact)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>causes/promotes</rdfs:label></owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Impact">
    <rdfs:label>impact</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#C1">
    <rdfs:label>level one</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass><owl:Restriction>
      <owl:onProperty rdf:resource="urn:x#P"/>
      <owl:someValuesFrom rdf:resource="urn:x#Impact"/>
    </owl:Restriction></owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="urn:x#C2">
    <rdfs:label>level two</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass><owl:Restriction>
      <owl:onProperty rdf:resource="urn:x#P"/>
      <owl:someValuesFrom rdf:resource="urn:x#C1"/>
    </owl:Restriction></owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#z">
    <rdf:type rdf:resource="urn:x#Impact"/><rdfs:label>zz</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#y">
    <rdf:type rdf:resource="urn:x#cm"/><rdfs:label>yy</rdfs:label>
    <wp:P rdf:resource="urn:x#z"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#x">
    <rdf:type rdf:resource="urn:x#cm"/><rdfs:label>xx</rdfs:label>
    <wp:P rdf:resource="urn:x#y"/>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # y causes z (Impact) -> y in C1 (round 1); x causes y (now C1) -> x in C2
    assert "level one" in snap.individuals["yy"]["direct_classes"]
    assert "level two" in snap.individuals["xx"]["direct_classes"]
    assert "level two" not in snap.individuals["yy"]["direct_classes"]


def test_owl_file_feeds_pipeline(ray_session, tmp_path):
    """process surface: an .owl file path is accepted end-to-end
    (make_network.py:22-45 outputEdges parity via output_edges)."""
    import ray.data as rd

    from climatemind_ontology_processing_ray.pipelines.api import output_edges
    from climatemind_ontology_processing_ray.pipelines.kg import KGConfig
    from climatemind_ontology_processing_ray.sources.pages import generate_pages

    snap = build_fixture_snapshot()
    owl_path = os.path.join(tmp_path, "fixture.owl")
    write_owl(snap, owl_path)
    table, _ = generate_pages(snap, 300, seed=13)
    pages = rd.from_arrow(table)
    edges = output_edges(
        pages,
        snapshot=owl_path,
        cfg=KGConfig(),
    ).to_pandas()
    got = {(r.subject, r.object, r.predicate) for r in edges.itertuples()}
    golden = golden_edge_set(snap)
    # near-total recall at 300 pages; precision within the trap budget
    assert len(got & golden) / len(golden) > 0.9


def test_load_snapshot_sniffs_owl_after_a_utf8_bom(tmp_path):
    """An OWL file that starts with a UTF-8 byte-order mark is sniffed as
    OWL, not JSON, and loads to the plain file's snapshot."""
    from climatemind_ontology_processing_ray.pipelines.api import _load_snapshot

    xml = write_owl(build_fixture_snapshot())
    plain, bom = tmp_path / "plain.owl", tmp_path / "bom.owl"
    plain.write_text(xml, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + xml.encode("utf-8"))
    assert _load_snapshot(str(bom)).to_json() == parse_owl(str(plain)).to_json()


def test_intersection_defined_class_memberships():
    """intersectionOf in equivalentClass (the next pattern after bare
    restrictions, reference make_graph_class.py:71-82 behavior envelope):
    C ≡ D ⊓ ∃P.{v} classifies exactly the individuals satisfying ALL
    conjuncts, changing `all classes`; partial satisfaction does not."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pcauses">
    <rdfs:label>causes/promotes</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Human">
    <rdfs:label>human driver</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#Impact">
    <rdfs:label>impact</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#HumanWarmingCause">
    <rdfs:label>human warming cause</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Class>
        <owl:intersectionOf rdf:parseType="Collection">
          <rdf:Description rdf:about="urn:x#Human"/>
          <owl:Restriction>
            <owl:onProperty rdf:resource="urn:x#Pcauses"/>
            <owl:someValuesFrom rdf:resource="urn:x#Impact"/>
          </owl:Restriction>
        </owl:intersectionOf>
      </owl:Class>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#factory">
    <rdf:type rdf:resource="urn:x#Human"/>
    <rdfs:label>factory emissions</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#warming"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#volcano">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>volcano</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#warming"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#bicycle">
    <rdf:type rdf:resource="urn:x#Human"/>
    <rdfs:label>bicycle lobby</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#warming">
    <rdf:type rdf:resource="urn:x#Impact"/>
    <rdfs:label>warming</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # both conjuncts -> member (and visible in the hierarchy closure)
    assert "human warming cause" in snap.individuals["factory emissions"][
        "direct_classes"
    ]
    # one conjunct each -> NOT members
    assert "human warming cause" not in snap.individuals["volcano"]["direct_classes"]
    assert "human warming cause" not in snap.individuals["bicycle lobby"][
        "direct_classes"
    ]
    assert "human warming cause" in snap.node_all_classes("factory emissions")


def test_union_defined_class_memberships_and_subsumption():
    """unionOf in equivalentClass (reference make_graph_class.py:71-82
    behavior envelope): C ≡ D1 ⊔ ∃P.{v} classifies individuals
    satisfying ANY disjunct, and each NAMED disjunct is reclassified
    under C (scm-uni: Di ⊑ C)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pcauses">
    <rdfs:label>causes/promotes</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Flood">
    <rdfs:label>flooding</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#Hazard">
    <rdfs:label>coastal hazard</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Class>
        <owl:unionOf rdf:parseType="Collection">
          <rdf:Description rdf:about="urn:x#Flood"/>
          <owl:Restriction>
            <owl:onProperty rdf:resource="urn:x#Pcauses"/>
            <owl:hasValue rdf:resource="urn:x#erosion"/>
          </owl:Restriction>
        </owl:unionOf>
      </owl:Class>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#surge">
    <rdf:type rdf:resource="urn:x#Flood"/>
    <rdfs:label>storm surge</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#wavecut">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>wave action</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#erosion"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#drought">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>drought</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#erosion">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>erosion</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # EITHER disjunct -> member
    assert "coastal hazard" in snap.individuals["storm surge"]["direct_classes"]
    assert "coastal hazard" in snap.individuals["wave action"]["direct_classes"]
    # neither -> not a member
    assert "coastal hazard" not in snap.individuals["drought"]["direct_classes"]
    # scm-uni: the named disjunct itself is subsumed by the union class
    assert "coastal hazard" in snap.class_ancestors("flooding")


def test_transitive_property_restriction_membership():
    """owl:TransitiveProperty + C ≡ ∃P.{v}: membership follows the
    transitive closure of P (HermiT classification), but closure edges
    are NOT materialized into obj_edges (sync_reasoner's default
    infer_property_values=False, reference make_graph_class.py:82)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pupstream">
    <rdfs:label>is upstream of</rdfs:label>
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#TransitiveProperty"/>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#SeaFeeder">
    <rdfs:label>sea feeder</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pupstream"/>
        <owl:hasValue rdf:resource="urn:x#sea"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#glacier">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>glacier</rdfs:label>
    <wp:Pupstream rdf:resource="urn:x#river"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#river">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>river</rdfs:label>
    <wp:Pupstream rdf:resource="urn:x#sea"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#pond">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>pond</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#sea">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>sea</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # direct assertion -> member; 2-hop closure -> ALSO a member
    assert "sea feeder" in snap.individuals["river"]["direct_classes"]
    assert "sea feeder" in snap.individuals["glacier"]["direct_classes"]
    assert "sea feeder" not in snap.individuals["pond"]["direct_classes"]
    # closure edges are classification-only: obj_edges stays asserted
    assert ("glacier", "is upstream of", "sea") not in snap.obj_edges
    assert len([e for e in snap.obj_edges if e[1] == "is upstream of"]) == 2


def test_domain_range_classification_and_fixpoint_composition():
    """rdfs:domain / rdfs:range on an object property classify the edge
    endpoints (prp-dom / prp-rng), and a domain-inferred membership can
    satisfy a someValuesFrom conjunct in the same fixpoint."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pdrives">
    <rdfs:label>drives</rdfs:label>
    <rdfs:domain rdf:resource="urn:x#Driverish"/>
    <rdfs:range rdf:resource="urn:x#Impactish"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="urn:x#Pnear">
    <rdfs:label>near</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Driverish">
    <rdfs:label>driver</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#Impactish">
    <rdfs:label>impact</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#NearDriver">
    <rdfs:label>near a driver</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pnear"/>
        <owl:someValuesFrom rdf:resource="urn:x#Driverish"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#co2">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>co2 rise</rdfs:label>
    <wp:Pdrives rdf:resource="urn:x#heat"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#heat">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>heat stress</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#town">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>town</rdfs:label>
    <wp:Pnear rdf:resource="urn:x#co2"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#farm">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>farm</rdfs:label>
    <wp:Pnear rdf:resource="urn:x#heat"/>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # prp-dom: the edge source gains the domain class
    assert "driver" in snap.individuals["co2 rise"]["direct_classes"]
    # prp-rng: the edge target gains the range class
    assert "impact" in snap.individuals["heat stress"]["direct_classes"]
    # composition: town is near co2, whose Driverish membership is ONLY
    # domain-inferred -> someValuesFrom fires off the seeded membership
    assert "near a driver" in snap.individuals["town"]["direct_classes"]
    # heat is an impact, not a driver -> farm stays out
    assert "near a driver" not in snap.individuals["farm"]["direct_classes"]
    # classification only: no new edges materialized
    assert all(p in ("drives", "near") for _, p, _ in snap.obj_edges)


def test_symmetric_and_inverse_property_classification():
    """owl:SymmetricProperty / owl:inverseOf derive mirrored assertions
    for classification (prp-symp / prp-inv) and compose with hasValue
    restrictions and rdfs:domain — but the mirrored edges are NOT
    materialized into obj_edges (infer_property_values=False)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Padj">
    <rdfs:label>borders</rdfs:label>
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#SymmetricProperty"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="urn:x#Pfeeds">
    <rdfs:label>feeds</rdfs:label>
    <owl:inverseOf rdf:resource="urn:x#Pfedby"/>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="urn:x#Pfedby">
    <rdfs:label>fed by</rdfs:label>
    <rdfs:domain rdf:resource="urn:x#Sink"/>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Sink">
    <rdfs:label>sink</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#SeaToucher">
    <rdfs:label>sea toucher</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Padj"/>
        <owl:hasValue rdf:resource="urn:x#sea"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#sea">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>sea</rdfs:label>
    <wp:Padj rdf:resource="urn:x#coast"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#coast">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>coast</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#river">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>river</rdfs:label>
    <wp:Pfeeds rdf:resource="urn:x#lake"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#lake">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>lake</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # symmetric: sea borders coast (asserted) => coast borders sea
    # (derived) => coast satisfies ∃borders.{sea}
    assert "sea toucher" in snap.individuals["coast"]["direct_classes"]
    # the subject of the asserted edge does NOT satisfy ∃borders.{sea}
    # via symmetry alone (sea borders coast, not itself)
    assert "sea toucher" not in snap.individuals["sea"]["direct_classes"]
    # inverse: river feeds lake => lake "fed by" river => domain(fed by)
    # classifies lake as a sink
    assert "sink" in snap.individuals["lake"]["direct_classes"]
    assert "sink" not in snap.individuals["river"]["direct_classes"]
    # derived mirrors are classification-only
    assert ("coast", "borders", "sea") not in snap.obj_edges
    assert ("lake", "fed by", "river") not in snap.obj_edges


def test_property_chain_classification():
    """owl:propertyChainAxiom (prp-spo2): hasParent∘hasParent ⊑
    hasGrandparent derives the composed assertion for classification —
    the grandchild satisfies ∃hasGrandparent.{gran} — without adding the
    derived edge to obj_edges (infer_property_values=False).  The chain
    also composes with rdfs:domain on the superproperty."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Ppar">
    <rdfs:label>has parent</rdfs:label>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="urn:x#Pgp">
    <rdfs:label>has grandparent</rdfs:label>
    <rdfs:domain rdf:resource="urn:x#Descendant"/>
    <owl:propertyChainAxiom rdf:parseType="Collection">
      <owl:ObjectProperty rdf:about="urn:x#Ppar"/>
      <owl:ObjectProperty rdf:about="urn:x#Ppar"/>
    </owl:propertyChainAxiom>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Descendant">
    <rdfs:label>descendant</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#GranKin">
    <rdfs:label>gran kin</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pgp"/>
        <owl:hasValue rdf:resource="urn:x#gran"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#kid">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>kid</rdfs:label>
    <wp:Ppar rdf:resource="urn:x#mum"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#mum">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>mum</rdfs:label>
    <wp:Ppar rdf:resource="urn:x#gran"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#gran">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>gran</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # kid hasParent mum hasParent gran => kid hasGrandparent gran
    assert "gran kin" in snap.individuals["kid"]["direct_classes"]
    # domain(hasGrandparent) classifies the chain subject too
    assert "descendant" in snap.individuals["kid"]["direct_classes"]
    # one-hop subjects do NOT satisfy the chain
    assert "gran kin" not in snap.individuals["mum"]["direct_classes"]
    # derived assertions are never materialized as edges
    assert ("kid", "has grandparent", "gran") not in snap.obj_edges


def test_min_cardinality_classification():
    """minCardinality / minQualifiedCardinality equivalentClass
    restrictions classify by distinct-filler count (min forms only —
    open-world-sound)."""
    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:ObjectProperty rdf:about="urn:x#Pcauses">
    <rdfs:label>causes</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#Hazard">
    <rdfs:label>hazard</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#Flood">
    <rdfs:label>flood</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#Hazard"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#MultiCause">
    <rdfs:label>multi cause</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pcauses"/>
        <owl:minCardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2</owl:minCardinality>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="urn:x#HazardSource">
    <rdfs:label>hazard source</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="urn:x#Pcauses"/>
        <owl:minQualifiedCardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2</owl:minQualifiedCardinality>
        <owl:onClass rdf:resource="urn:x#Hazard"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
  <owl:NamedIndividual rdf:about="urn:x#co2">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>co2</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#heat"/>
    <wp:Pcauses rdf:resource="urn:x#rain"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#soot">
    <rdf:type rdf:resource="urn:x#cm"/>
    <rdfs:label>soot</rdfs:label>
    <wp:Pcauses rdf:resource="urn:x#heat"/>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#heat">
    <rdf:type rdf:resource="urn:x#Hazard"/>
    <rdfs:label>heat</rdfs:label>
  </owl:NamedIndividual>
  <owl:NamedIndividual rdf:about="urn:x#rain">
    <rdf:type rdf:resource="urn:x#Flood"/>
    <rdfs:label>rain</rdfs:label>
  </owl:NamedIndividual>
</rdf:RDF>"""
    snap = parse_owl(xml)
    # two distinct fillers => member; one filler => not
    assert "multi cause" in snap.individuals["co2"]["direct_classes"]
    assert "multi cause" not in snap.individuals["soot"]["direct_classes"]
    # qualified: rain ∈ Flood ⊑ Hazard counts via the ancestor walk
    assert "hazard source" in snap.individuals["co2"]["direct_classes"]
    assert "hazard source" not in snap.individuals["soot"]["direct_classes"]


def test_unsupported_constructs_raise_explicit_diagnostic():
    """complementOf / max-exact cardinality are OUTSIDE the classification
    envelope (open-world negation): parse_owl must surface an explicit
    diagnostic instead of silently under-classifying (r4 verdict item 6),
    with warn/ignore downgrades for callers who accept the gap."""
    import warnings

    import pytest

    from climatemind_ontology_processing_ray.ontology.owl_io import (
        UnsupportedOWLConstructError,
    )

    xml = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="urn:t#safe"><rdfs:label>safe thing</rdfs:label>
    <owl:equivalentClass>
      <owl:Class><owl:complementOf rdf:resource="urn:t#risky"/></owl:Class>
    </owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="urn:t#risky"><rdfs:label>risky thing</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:t#couple"><rdfs:label>couple</rdfs:label>
    <rdfs:subClassOf><owl:Restriction>
      <owl:onProperty rdf:resource="urn:t#hasMember"/>
      <owl:maxCardinality rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger">2</owl:maxCardinality>
    </owl:Restriction></rdfs:subClassOf>
  </owl:Class>
</rdf:RDF>"""
    with pytest.raises(UnsupportedOWLConstructError) as ei:
        parse_owl(xml)
    assert "complementOf" in str(ei.value)
    assert "maxCardinality" in str(ei.value)

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        snap = parse_owl(xml, on_unsupported="warn")
    assert any("complementOf" in str(w.message) for w in rec)
    assert "safe thing" in snap.class_labels() if hasattr(snap, "class_labels") else True

    snap2 = parse_owl(xml, on_unsupported="ignore")
    assert snap2 is not None

    # in-envelope documents parse unchanged under the default
    clean = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="urn:t#plain"><rdfs:label>plain</rdfs:label></owl:Class>
</rdf:RDF>"""
    assert parse_owl(clean) is not None


# ---- encoding equivalences of the one classification fixpoint ---------

_HEAD = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:wp="urn:x#">
  <owl:Class rdf:about="urn:x#cm"><rdfs:label>climate mind</rdfs:label></owl:Class>
"""


def _individuals(edges: dict[str, list[str]]) -> str:
    """One NamedIndividual per key, typed climate mind, with a wp:P edge
    to each listed individual."""
    return "".join(
        f'<owl:NamedIndividual rdf:about="urn:x#{s}">'
        f'<rdf:type rdf:resource="urn:x#cm"/><rdfs:label>{s}</rdfs:label>'
        + "".join(f'<wp:P rdf:resource="urn:x#{o}"/>' for o in outs)
        + "</owl:NamedIndividual>\n"
        for s, outs in edges.items()
    )


def _direct_classes(xml: str) -> dict[str, list[str]]:
    return {
        lab: node["direct_classes"] for lab, node in parse_owl(xml).individuals.items()
    }


_HAS_SEA = """  <owl:Class rdf:about="urn:x#C"><rdfs:label>reaches sea</rdfs:label>
    <owl:equivalentClass><owl:Restriction>
      <owl:onProperty rdf:resource="urn:x#P"/>
      <owl:hasValue rdf:resource="urn:x#sea"/>
    </owl:Restriction></owl:equivalentClass>
  </owl:Class>
"""


def test_transitive_property_is_the_chain_p_p_sub_p():
    """owl:TransitiveProperty P classifies exactly like the property
    chain (P, P) ⊑ P: both are the chain rule form of the saturation."""
    edges = _individuals({"glacier": ["river"], "river": ["lake"], "lake": ["sea"], "sea": [], "pond": []})
    transitive = (
        _HEAD
        + '<owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>flows to</rdfs:label>'
        '<rdf:type rdf:resource="http://www.w3.org/2002/07/owl#TransitiveProperty"/>'
        "</owl:ObjectProperty>\n"
        + _HAS_SEA + edges + "</rdf:RDF>"
    )
    chain = (
        _HEAD
        + '<owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>flows to</rdfs:label>'
        '<owl:propertyChainAxiom rdf:parseType="Collection">'
        '<owl:ObjectProperty rdf:about="urn:x#P"/><owl:ObjectProperty rdf:about="urn:x#P"/>'
        "</owl:propertyChainAxiom></owl:ObjectProperty>\n"
        + _HAS_SEA + edges + "</rdf:RDF>"
    )
    got = _direct_classes(transitive)
    assert got == _direct_classes(chain)
    # the 3-hop closure classifies; the unconnected pond does not
    assert "reaches sea" in got["glacier"]
    assert "reaches sea" not in got["pond"]


def test_symmetric_property_is_its_own_inverse():
    """owl:SymmetricProperty P classifies exactly like P owl:inverseOf P:
    both are the inverse rule form of the saturation."""
    edges = _individuals({"sea": ["coast"], "coast": [], "bay": ["sea"], "hill": []})
    symmetric = (
        _HEAD
        + '<owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>borders</rdfs:label>'
        '<rdf:type rdf:resource="http://www.w3.org/2002/07/owl#SymmetricProperty"/>'
        "</owl:ObjectProperty>\n"
        + _HAS_SEA + edges + "</rdf:RDF>"
    )
    self_inverse = (
        _HEAD
        + '<owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>borders</rdfs:label>'
        '<owl:inverseOf rdf:resource="urn:x#P"/></owl:ObjectProperty>\n'
        + _HAS_SEA + edges + "</rdf:RDF>"
    )
    got = _direct_classes(symmetric)
    assert got == _direct_classes(self_inverse)
    assert "reaches sea" in got["coast"]  # mirrored edge
    assert "reaches sea" in got["bay"]  # asserted edge
    assert "reaches sea" not in got["hill"]


def test_bare_restriction_is_a_one_member_intersection():
    """C ≡ ∃P.D classifies exactly like C ≡ ⊓(∃P.D): a bare restriction
    is one defined-class rule with a single conjunct, including when
    the filler is itself a defined class (the fixpoint chains)."""
    def restr(v: str) -> str:
        return (
            '<owl:Restriction><owl:onProperty rdf:resource="urn:x#P"/>'
            f'<owl:someValuesFrom rdf:resource="urn:x#{v}"/></owl:Restriction>'
        )

    classes = {"Wet": "Sea", "Wetter": "Wet"}
    decls = (
        '<owl:ObjectProperty rdf:about="urn:x#P"><rdfs:label>feeds</rdfs:label></owl:ObjectProperty>\n'
        '<owl:Class rdf:about="urn:x#Sea"><rdfs:label>sea class</rdfs:label></owl:Class>\n'
    )
    edges = _individuals({"spring": ["river"], "river": ["ocean"], "ocean": [], "rock": []})
    edges = edges.replace(
        '<rdfs:label>ocean</rdfs:label>',
        '<rdfs:label>ocean</rdfs:label><rdf:type rdf:resource="urn:x#Sea"/>',
    )

    def doc(wrap) -> str:
        defs = "".join(
            f'<owl:Class rdf:about="urn:x#{c}"><rdfs:label>{c.lower()}</rdfs:label>'
            f"<owl:equivalentClass>{wrap(restr(v))}</owl:equivalentClass></owl:Class>\n"
            for c, v in classes.items()
        )
        return _HEAD + decls + defs + edges + "</rdf:RDF>"

    bare = _direct_classes(doc(lambda r: r))
    one_member = _direct_classes(
        doc(
            lambda r: '<owl:Class><owl:intersectionOf rdf:parseType="Collection">'
            f"{r}</owl:intersectionOf></owl:Class>"
        )
    )
    assert bare == one_member
    assert "wet" in bare["river"] and "wetter" in bare["spring"]
    assert "wet" not in bare["rock"]


def test_intersection_subsumptions_precede_union_subsumptions():
    """class_parents order (it reaches to_json() and the run key): named
    equivalences first, then every intersection subsumption C ⊑ Di, then
    every union subsumption Di ⊑ C — even when the union comes first in
    the document."""
    xml = (
        _HEAD
        + """  <owl:Class rdf:about="urn:x#U"><rdfs:label>u</rdfs:label>
    <owl:equivalentClass><owl:Class><owl:unionOf rdf:parseType="Collection">
      <rdf:Description rdf:about="urn:x#A"/><rdf:Description rdf:about="urn:x#D"/>
    </owl:unionOf></owl:Class></owl:equivalentClass>
  </owl:Class>
  <owl:Class rdf:about="urn:x#A"><rdfs:label>a</rdfs:label>
    <rdfs:subClassOf rdf:resource="urn:x#cm"/>
    <owl:equivalentClass><owl:Class><owl:intersectionOf rdf:parseType="Collection">
      <rdf:Description rdf:about="urn:x#B"/><rdf:Description rdf:about="urn:x#C"/>
    </owl:intersectionOf></owl:Class></owl:equivalentClass>
    <owl:equivalentClass rdf:resource="urn:x#E"/>
  </owl:Class>
  <owl:Class rdf:about="urn:x#B"><rdfs:label>b</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#C"><rdfs:label>c</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#D"><rdfs:label>d</rdfs:label></owl:Class>
  <owl:Class rdf:about="urn:x#E"><rdfs:label>e</rdfs:label></owl:Class>
</rdf:RDF>"""
    )
    parents = parse_owl(xml).class_parents
    assert parents["a"] == ("climate mind", "e", "b", "c", "u")
    assert parents["d"] == ("u",)
    assert parents["e"] == ("a",)
