"""Shared vocabulary of the climate-ontology schema.

Predicate names, annotation source types, personal-value ordering and
test-ontology class sets mirror the reference's content model:

- predicate normalization rule: reference ``give_alias``
  (``ontology_processing_utils.py:168-174``) — ``/`` -> ``_or_``,
  `` `` -> ``_``, ``:`` -> ``_`` applied to the raw OWL property label.
- source types: ``ontology_processing_utils.py:65-75``.
- 19 personal values, hard-coded alphabetical order:
  ``make_graph_class.py:186-206``.
- test-ontology valid/excluded class sets:
  ``ontology_processing_utils.py:94-142``.
"""

from __future__ import annotations


def normalize_predicate_label(label: str) -> str:
    """Normalize a raw property label to its canonical predicate name.

    Same rewrite rule as the reference's ``give_alias``
    (``ontology_processing_utils.py:168-174``): ``/`` becomes ``_or_``,
    spaces and ``:`` become ``_``.  Applied to predicates, annotation
    property names and data property names alike.
    """
    return label.replace("/", "_or_").replace(" ", "_").replace(":", "_")


# Raw OWL-style property labels (pre-normalization) and their canonical names.
RAW_CAUSES = "causes/promotes"
RAW_INHIBITS = "is inhibited or prevented or blocked or slowed by"
RAW_MYTH_ABOUT = "is a myth about"
RAW_EXPOSURE = "has exposure dependency of"
RAW_POPULATION = "population affected"

CAUSES = normalize_predicate_label(RAW_CAUSES)  # "causes_or_promotes"
INHIBITS = normalize_predicate_label(RAW_INHIBITS)
MYTH_ABOUT = normalize_predicate_label(RAW_MYTH_ABOUT)  # "is_a_myth_about"
EXPOSURE = normalize_predicate_label(RAW_EXPOSURE)
POPULATION = normalize_predicate_label(RAW_POPULATION)
IS_A = "is_a"

# Annotation source types (ontology_processing_utils.py:65-75).
SOURCE_TYPES = (
    "dc_source",
    "schema_academicBook",
    "schema_academicSourceNoPaywall",
    "schema_academicSourceWithPaywall",
    "schema_governmentSource",
    "schema_mediaSource",
    "schema_mediaSourceForConservatives",
    "schema_organizationSource",
)

# Additional annotation properties observed on nodes in the shipped golden
# pickle (graphs_for_visualization.pickle; SURVEY §1.2).
EXTRA_ANNOTATION_PROPS = (
    "schema_longDescription",
    "schema_shortDescription",
    "schema_mythClaim",
    "schema_mythRebuttal",
)
ANNOTATION_PROPS = SOURCE_TYPES + EXTRA_ANNOTATION_PROPS

# The 19 personal values, order fixed (make_graph_class.py:186-206).
PERSONAL_VALUES_19 = (
    "achievement",
    "benevolence_caring",
    "benevolence_dependability",
    "conformity_interpersonal",
    "conformity_rules",
    "face",
    "hedonism",
    "humility",
    "power_dominance",
    "power_resources",
    "security_personal",
    "security_societal",
    "self-direction_autonomy_of_action",
    "self-direction_autonomy_of_thought",
    "stimulation",
    "tradition",
    "universalism_concern",
    "universalism_nature",
    "universalism_tolerance",
)

# 10-value collapse groups (make_graph_class.py:208-263): each 10-vector slot
# is either a single 19-value or the `compute()` collapse of 2-3 of them.
PERSONAL_VALUES_10_GROUPS = (
    ("achievement",),
    ("benevolence_caring", "benevolence_dependability"),
    ("conformity_interpersonal", "conformity_rules"),
    ("hedonism",),
    ("power_dominance", "power_resources"),
    ("security_personal", "security_societal"),
    ("self-direction_autonomy_of_action", "self-direction_autonomy_of_thought"),
    ("stimulation",),
    ("tradition",),
    ("universalism_concern", "universalism_nature", "universalism_tolerance"),
)

# Scalar data properties beyond the 19 values (SURVEY §1.2).
EXTRA_DATA_PROPS = ("conservative", "liberal", "CO2_eq_reduced", "myth_frequency", "myth")

# Test-ontology class filter sets (ontology_processing_utils.py:94-142).
VALID_TEST_ONT = frozenset(
    {
        "test ontology",
        "personal value",
        "achievement",
        "benevolence",
        "benevolence caring",
        "benevolence dependability",
        "conformity",
        "conformity interpersonal",
        "conformity rules",
        "face",
        "hedonism",
        "humility",
        "power",
        "power dominance",
        "power resources",
        "security",
        "security personal",
        "security societal",
        "self-direction",
        "self-direction autonomy of action",
        "self-direction autonomy of thought",
        "stimulation",
        "tradition",
        "universalism",
        "universalism concern",
        "universalism nature",
        "universalism tolerance",
    }
)

NON_TEST_ONT = frozenset(
    {
        "value uncategorized (to do)",
        "risk solution",
        "adaptation",
        "geoengineering",
        "indirect adaptation",
        "indirect geoengineering",
        "indirect mitigration",
        "carbon pricing",
        "carbon tax",
        "emissions trading",
        "mitigation",
        "solution to indirect adaptation barrier",
        "solution to indirect mitigation barrier",
        "solution uncategorized (to do)",
    }
)

ROOT_NODE = "increase in greenhouse effect"
CLIMATE_MIND = "climate mind"
FEEDBACK_LOOP_CLASS = "feedback loop"
GREENHOUSE_GAS_CLASS = "increase in atmospheric greenhouse gas"
ROOT_CAUSE_CLASS = "root cause linked to humans"
