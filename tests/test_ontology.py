import pytest
from hypothesis import given, strategies as st

from ontoenrich.ontology import (
    Axiom,
    Concept,
    Evidence,
    Instance,
    Ontology,
    OntologyParseError,
    OntologyValidationError,
    RelationKind,
    UnknownConceptError,
    canonicalize_axiom,
    load_ontology,
    parse_ontology,
    save_ontology,
)

from helpers import has_axiom

TWO_CONCEPTS = """\
# two concepts, one with many senses
C\tconcept\tconcept\t1
C\torganization\torganization\t7
"""

SMALL = """\
C\tcity\tcity\t1
C\tentity\tentity\t1
C\tisland\tisland\t1
C\tjava\tJava\t2
C\tland\tland\t1
I\tjakarta\tJakarta\tcity
A\thypernymy\tentity\tland\toriginal
A\thypernymy\tisland\tjava#1\toriginal
A\thypernymy\tland\tisland\toriginal
"""


@pytest.fixture
def small():
    return parse_ontology(SMALL)


def test_load_two_concepts(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text(TWO_CONCEPTS, encoding="utf-8")
    onto = load_ontology(path)
    assert len(onto.concepts) == 2
    assert onto.concepts["organization"].senses == tuple(range(1, 8))


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    onto = load_ontology(path)
    assert not onto.concepts and not onto.instances and not onto.axioms


def test_dangling_axiom_reference_rejected():
    text = SMALL + "A\trelated-to\tjava\tatlantis\toriginal\n"
    with pytest.raises(OntologyValidationError):
        parse_ontology(text)


def test_malformed_line_reports_lineno():
    with pytest.raises(OntologyParseError, match="line 2"):
        parse_ontology("C\ta\ta\t1\nC\tb\tb\n")


def test_unknown_relation_rejected():
    with pytest.raises(OntologyParseError, match="unknown relation"):
        parse_ontology("C\ta\ta\t1\nC\tb\tb\t1\nA\tfriend-of\ta\tb\toriginal\n")


# A comment and a blank line are skipped but counted: the record under test is line 5.
_PARSE_BASE = "# two concepts\nC\ta\ta\t1\n\nC\tb\tb\t2\n"
# record -> (error class, message after the "<source>: line 5: " prefix)
_PARSE_ERRORS = {
    "A\trelated-to\t#1\tb\toriginal": (OntologyParseError, "bad reference '#1'"),
    "A\trelated-to\ta\tb#one\toriginal": (OntologyParseError, "bad sense in 'b#one'"),
    "C\tc\tc\tmany": (OntologyParseError, "bad sense count 'many'"),
    "C\tc\tc\t0": (OntologyParseError, "sense count must be >= 1"),
    "C\tc\tc": (OntologyParseError, "C record needs 4 fields"),
    "G\ta": (OntologyParseError, "G record needs 3 fields"),
    "I\ti\ti\ta\textra": (OntologyParseError, "I record needs 4 fields"),
    "A\trelated-to\ta\tb": (OntologyParseError, "A record needs 5 fields (7 with evidence)"),
    "A\trelated-to\ta\tb\toriginal\tsyn-same": (
        OntologyParseError, "A record needs 5 fields (7 with evidence)"),
    "A\trelated-to\ta\tb\tinvented": (OntologyParseError, "unknown provenance 'invented'"),
    "A\trelated-to\ta\tb\tenriched\tsyn-same\tmany": (
        OntologyParseError, "bad evidence hits 'many'"),
    "X\ta": (OntologyParseError, "unknown record kind 'X'"),
    "C\ta\tother\t1": (OntologyValidationError, "duplicate concept id 'a'"),
}


@pytest.mark.parametrize("record", sorted(_PARSE_ERRORS))
def test_parse_error_names_its_source_and_line(record):
    error, message = _PARSE_ERRORS[record]
    with pytest.raises(ValueError) as raised:
        parse_ontology(_PARSE_BASE + record + "\nC\tz\tz\t1\n", source="onto.tsv")
    assert type(raised.value) is error
    assert str(raised.value) == f"onto.tsv: line 5: {message}"


@pytest.mark.parametrize("name", ["hyponymy", "holonymy"])
def test_uncanonicalized_axiom_rejected(name):
    # parse_ontology canonicalizes each axiom; a direct build must do so first.
    with pytest.raises(OntologyValidationError,
                       match=f"^{name} axioms must be canonicalized before storage$"):
        Ontology([Concept("a", "a"), Concept("b", "b")], (),
                 [Axiom(RelationKind(name), "a", "b")])


def test_duplicate_concept_id_rejected():
    with pytest.raises(OntologyValidationError, match="duplicate"):
        parse_ontology("C\ta\ta\t1\nC\ta\tother\t1\n")


def test_contains_term_case_and_whitespace(small):
    assert small.contains_term("Java").id == "java"
    assert small.contains_term("JAVA").id == "java"
    assert small.contains_term("jawa") is None
    assert small.contains_term("") is None


def test_labels_hold_no_empty_label():
    reef = Concept("reef", "Coral  Reef")
    onto = Ontology([reef], [Instance("blank", " ", "reef"), Instance("atoll", "coral reef", "reef")])
    assert onto.labels == {"coral reef": reef}
    assert onto.contains_term("") is None and onto.contains_term(" ") is None


def test_contains_term_matches_instances(small):
    match = small.contains_term("jakarta")
    assert isinstance(match, Instance)
    assert match.id == "jakarta"


def test_semantic_paths_single_sense(small):
    paths = small.semantic_paths_from("island")
    assert len(paths) == 1
    assert [cid for cid, _ in paths[0]] == ["island", "land", "entity"]


def test_semantic_paths_root_concept(small):
    paths = small.semantic_paths_from("entity")
    assert len(paths) == 1
    assert paths[0] == (("entity", 1),)


def test_semantic_paths_seven_senses():
    lines = ["C\torganization\torganization\t7", "C\tgroup\tgroup\t1"]
    for sense in range(1, 8):
        lines.append(f"A\thypernymy\tgroup\torganization#{sense}\toriginal")
    onto = parse_ontology("\n".join(lines) + "\n")
    paths = onto.semantic_paths_from("organization")
    assert len(paths) == 7
    assert all(p[-1] == ("group", 1) for p in paths)


def test_semantic_paths_unknown_concept(small):
    with pytest.raises(UnknownConceptError):
        small.semantic_paths_from("atlantis")


def test_add_axiom_idempotent(small):
    jawa = small.with_additions(concepts=[Concept("jawa", "jawa")])
    axiom = Axiom(RelationKind.RELATED_TO, "jawa", "java", object_sense=1)
    once = jawa.with_additions(axioms=[axiom])
    twice = once.with_additions(axioms=[axiom])
    assert len(once.axioms) == len(jawa.axioms) + 1
    assert twice.to_text() == once.to_text()


def test_add_axiom_enriched_provenance(small):
    corp = small.with_additions(concepts=[Concept("corporate-body", "corporate body")])
    enriched = corp.with_additions(axioms=[
        Axiom(
            RelationKind.HYPONYMY,
            "corporate-body",
            "java",
            object_sense=2,
            provenance="enriched",
            evidence=Evidence("hypo-isa", 80700),
        )
    ])
    # stored in the hypernymy direction, found from either
    assert has_axiom(enriched, RelationKind.HYPONYMY, "corporate-body", "java", object_sense=2)
    assert has_axiom(enriched, RelationKind.HYPERNYMY, "java", "corporate-body", subject_sense=2)
    stored = [a for a in enriched.axioms if a.provenance == "enriched"]
    assert stored[0].relation is RelationKind.HYPERNYMY
    assert stored[0].evidence == Evidence("hypo-isa", 80700)


def test_add_axiom_unknown_subject(small):
    with pytest.raises(OntologyValidationError):
        small.with_additions(axioms=[Axiom(RelationKind.RELATED_TO, "ghost", "java")])


def test_sense_out_of_range_rejected(small):
    with pytest.raises(OntologyValidationError):
        small.with_additions(
            axioms=[Axiom(RelationKind.RELATED_TO, "island", "java", object_sense=5)]
        )


def test_self_loop_rejected_for_non_synonymy(small):
    with pytest.raises(OntologyValidationError):
        small.with_additions(axioms=[Axiom(RelationKind.RELATED_TO, "island", "island")])


def test_hypernymy_cycle_rejected():
    text = (
        "C\ta\ta\t1\nC\tb\tb\t1\n"
        "A\thypernymy\ta\tb\toriginal\nA\thypernymy\tb\ta\toriginal\n"
    )
    with pytest.raises(OntologyValidationError, match="cycle"):
        parse_ontology(text)


def test_deep_hypernymy_chain_loads_and_walks_to_its_root():
    # Deeper than the interpreter's recursion limit: no check recurses per level.
    depth = 5000
    lines = [f"C\tc{n}\tc{n}\t1\n" for n in range(depth)]
    lines += [f"A\thypernymy\tc{n + 1}\tc{n}\toriginal\n" for n in range(depth - 1)]
    (path,) = parse_ontology("".join(lines)).semantic_paths_from("c0")
    assert path == tuple((f"c{n}", 1) for n in range(depth))


def test_holonymy_normalized_to_meronymy():
    onto = parse_ontology(
        "C\twheel\twheel\t1\nC\tcar\tcar\t1\nA\tholonymy\tcar\twheel\toriginal\n"
    )
    assert onto.axioms[0].relation is RelationKind.MERONYMY
    assert has_axiom(onto, RelationKind.HOLONYMY, "car", "wheel")
    assert has_axiom(onto, RelationKind.MERONYMY, "wheel", "car")


def test_round_trip_is_byte_identical(tmp_path, small):
    first = tmp_path / "first.tsv"
    second = tmp_path / "second.tsv"
    save_ontology(small, first)
    save_ontology(load_ontology(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_bundled_fixture_is_canonical(tmp_path, mini_ontology_path):
    out = tmp_path / "resaved.tsv"
    save_ontology(load_ontology(mini_ontology_path), out)
    assert out.read_bytes() == mini_ontology_path.read_bytes()


def test_duplicate_axiom_lines_collapse():
    text = SMALL + "A\trelated-to\tisland\tjava#1\toriginal\n" * 2
    onto = parse_ontology(text)
    related = [a for a in onto.axioms if a.relation is RelationKind.RELATED_TO]
    assert len(related) == 1


def held(onto):
    """Everything an ontology answers with: its text, records, paths and labels."""
    labels = [r.label for r in (*onto.concepts.values(), *onto.instances.values())]
    return (
        onto.to_text(), onto.axioms, dict(onto.concepts), dict(onto.instances),
        {cid: onto.semantic_paths_from(cid) for cid in onto.concepts},
        {label: onto.contains_term(label) for label in labels},
    )


def test_with_additions_equals_fresh_build(small):
    concepts = [Concept("jawa", "jawa"), Concept("corporate-body", "corporate body")]
    instances = [Instance("bandung", "Bandung", "city")]
    enriched = dict(provenance="enriched", evidence=Evidence("p", 1))
    axioms = [
        # the key of a base axiom, given as is and as its hyponymy inverse
        Axiom(RelationKind.HYPERNYMY, "island", "java", object_sense=1, **enriched),
        Axiom(RelationKind.HYPONYMY, "land", "entity", **enriched),
        # one key twice among the additions
        Axiom(RelationKind.RELATED_TO, "jawa", "java", object_sense=2, **enriched),
        Axiom(RelationKind.RELATED_TO, "jawa", "java", object_sense=2, provenance="enriched",
              evidence=Evidence("q", 2)),
        Axiom(RelationKind.HYPONYMY, "corporate-body", "java", object_sense=2, **enriched),
        Axiom(RelationKind.HOLONYMY, "island", "bandung", **enriched),
    ]
    added = small.with_additions(concepts, instances, axioms)
    fresh = Ontology(
        [*small.concepts.values(), *concepts],
        [*small.instances.values(), *instances],
        [*small.axioms, *map(canonicalize_axiom, axioms)],
    )
    assert held(added) == held(fresh)
    by_key = {a.key: a for a in added.axioms}
    assert by_key["hypernymy", "island", 1, "java", 1].provenance == "original"
    assert by_key["hypernymy", "entity", 1, "land", 1].provenance == "original"
    assert by_key["related-to", "jawa", 1, "java", 2].evidence == Evidence("p", 1)
    assert by_key["hypernymy", "java", 2, "corporate-body", 1].provenance == "enriched"
    assert by_key["meronymy", "bandung", 1, "island", 1].provenance == "enriched"
    assert len(added.axioms) == len(small.axioms) + 3


@given(st.data())
def test_property_first_axiom_of_a_key_is_kept(data):
    ids = ["a", "b", "c", "d"]
    onto = Ontology([Concept(i, i, (1, 2)) for i in ids])
    axioms = data.draw(st.lists(st.builds(
        Axiom,
        relation=st.sampled_from([RelationKind.RELATED_TO, RelationKind.SYNONYMY]),
        subject=st.sampled_from(ids), object=st.sampled_from(ids),
        subject_sense=st.sampled_from([1, 2]), object_sense=st.sampled_from([1, 2]),
        provenance=st.sampled_from(["original", "enriched"]),
        evidence=st.builds(Evidence, st.just("p"), st.integers(0, 3)),
    ).filter(lambda a: (a.subject, a.subject_sense) != (a.object, a.object_sense)), max_size=12))
    split = data.draw(st.integers(0, len(axioms)))
    base = onto.with_additions(axioms=axioms[:split])
    first: dict[tuple, Axiom] = {}
    for axiom in axioms:
        first.setdefault(axiom.key, axiom)
    assert base.with_additions(axioms=axioms[split:]).axioms == tuple(
        first[key] for key in sorted(first)
    )


_C = Concept
_I = Instance


def _hyper(parent, child, **senses):
    return Axiom(RelationKind.HYPERNYMY, parent, child, **senses)


# (base records, added records, message): each must fail a fresh Ontology of
# the union and the same ontology reached by with_additions.
_INVALID = {
    "empty label": (([_C("a", "a")], [], []), ([_C("b", " ")], [], []), "empty label"),
    "bad senses": (([_C("a", "a")], [], []), ([_C("b", "b", (1, 3))], [], []), "senses must be"),
    "duplicate concept": (([_C("a", "a")], [], []), ([_C("a", "other")], [], []),
                          "duplicate concept id 'a'"),
    "duplicate instance": (([_C("a", "a")], [_I("i", "i", "a")], []),
                           ([], [_I("i", "j", "a")], []), "duplicate id 'i'"),
    "instance of unknown concept": (([_C("a", "a")], [], []), ([], [_I("i", "i", "z")], []),
                                    "unknown concept 'z'"),
    "undeclared id": (([_C("a", "a")], [], []),
                      ([], [], [Axiom(RelationKind.RELATED_TO, "a", "ghost")]),
                      "undeclared id 'ghost'"),
    "sense out of range": (([_C("a", "a"), _C("b", "b", (1, 2))], [], []),
                           ([], [], [_hyper("a", "b", object_sense=5)]), "sense 5 of 'b'"),
    "instance sense": (([_C("a", "a")], [_I("i", "i", "a")], []),
                       ([], [], [Axiom(RelationKind.RELATED_TO, "i", "a", subject_sense=2)]),
                       "instance 'i' has no sense 2"),
    "self loop": (([_C("a", "a")], [], []), ([], [], [_hyper("a", "a")]),
                  "identical endpoints 'a'"),
    "cycle between base concepts": (([_C("a", "a"), _C("b", "b")], [], [_hyper("a", "b")]),
                                    ([], [], [Axiom(RelationKind.HYPONYMY, "a", "b")]),
                                    "hypernymy cycle"),
}


@pytest.mark.parametrize("name", sorted(_INVALID))
def test_validation_errors_raised_through_with_additions(name):
    (concepts, instances, axioms), (more_c, more_i, more_a), message = _INVALID[name]
    with pytest.raises(OntologyValidationError, match=message) as fresh:
        Ontology(concepts + more_c, instances + more_i,
                 axioms + [canonicalize_axiom(a) for a in more_a])
    base = Ontology(concepts, instances, axioms)
    with pytest.raises(OntologyValidationError) as added:
        base.with_additions(more_c, more_i, more_a)
    assert str(added.value) == str(fresh.value)


def test_categories_round_trip(tmp_path):
    text = "C\tbook\tbook\t1\nG\tbook\tnoun,verb\n"
    onto = parse_ontology(text)
    assert onto.concepts["book"].categories == frozenset({"noun", "verb"})
    path = tmp_path / "o.tsv"
    save_ontology(onto, path)
    assert "G\tbook\tnoun,verb" in path.read_text()


_IDENT = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@st.composite
def ontologies(draw):
    ids = draw(st.lists(_IDENT, min_size=2, max_size=6, unique=True))
    concepts = [Concept(i, i, tuple(range(1, draw(st.integers(1, 3)) + 1))) for i in ids]
    onto = Ontology(concepts)
    # chain a few hypernymy links without creating cycles: parent earlier in list
    axioms = []
    for idx in range(1, len(concepts)):
        if draw(st.booleans()):
            parent = concepts[draw(st.integers(0, idx - 1))]
            child = concepts[idx]
            axioms.append(
                Axiom(
                    RelationKind.HYPERNYMY,
                    parent.id,
                    child.id,
                    subject_sense=draw(st.sampled_from(parent.senses)),
                    object_sense=draw(st.sampled_from(child.senses)),
                )
            )
    return onto.with_additions(axioms=axioms)


@given(ontologies())
def test_property_save_load_fixpoint(onto):
    text = onto.to_text()
    assert parse_ontology(text).to_text() == text


@given(ontologies(), st.integers(1, 3))
def test_property_add_axiom_idempotent(onto, times):
    ids = sorted(onto.concepts)
    axiom = Axiom(RelationKind.RELATED_TO, ids[0], ids[-1])
    if ids[0] == ids[-1]:
        return
    enriched = onto
    for _ in range(times):
        enriched = enriched.with_additions(axioms=[axiom])
    assert enriched.to_text() == onto.with_additions(axioms=[axiom]).to_text()


@given(ontologies())
def test_property_paths_terminate(onto):
    for cid in onto.concepts:
        for path in onto.semantic_paths_from(cid):
            assert len(path) <= len(onto.concepts) * 3
            assert path[0][0] == cid
