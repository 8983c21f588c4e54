from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich import placement
from ontoenrich.hitcounts import SnapshotTable, pair_key
from ontoenrich.ontology import (
    Concept,
    Evidence,
    Instance,
    Ontology,
    RelationKind,
    load_ontology,
    parse_ontology,
    save_ontology,
)
from ontoenrich.patterns import (
    FALLBACK_MARKER,
    RelationSuggestion,
    SideMasks,
    default_catalogue,
    extract_relation,
)
from ontoenrich.placement import (
    MAX_PATH_DEPTH,
    ConflictingDecisionError,
    PairOrderError,
    PlacementDecision,
    UnresolvedSenseError,
    disambiguate_sense,
    enrich_ontology,
    place_all,
    write_enrichment_report,
)
from ontoenrich.relatedness import (
    DistanceConfig,
    RelatednessMatrix,
    SelectionConfig,
    relatedness_matrix,
    select_candidates,
)

from helpers import has_axiom, place_one, reference_sense_scores, tuple_key_order

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def onto():
    return load_ontology(FIXTURES / "mini_ontology.tsv")


@pytest.fixture(scope="module")
def snapshot():
    return SnapshotTable.load(FIXTURES / "snapshots" / "worked_examples.tsv")


def suggest(miss, target, relation=RelationKind.RELATED_TO, group=FALLBACK_MARKER, hits=0):
    return RelationSuggestion(
        missing_term=miss,
        ontology_term=target,
        relation=relation,
        winning_group=group,
        winner_hits=hits,
        hits=(),
    )


def test_case1_single_sense_target(onto, snapshot):
    decision = place_one(suggest("notion", "concept"), onto, snapshot)
    assert decision.case == "case1"
    assert decision.senses == (1,)
    assert decision.target_concept == "concept"


def test_case2_seven_sense_target_steered_to_social_group(onto, snapshot):
    suggestion = suggest(
        "corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700
    )
    decision = place_one(suggestion, onto, snapshot)
    assert decision.case == "case2"
    assert decision.senses == (2,)
    paths = onto.semantic_paths_from("organization")
    assert len(paths) == 7
    assert "social group" in [onto.concepts[cid].label for cid, _ in paths[1][:MAX_PATH_DEPTH]]


def test_case2_exact_tie_returns_both_senses():
    onto = parse_ontology(
        "C\tentity\tentity\t1\n"
        "C\tfielda\tfielda\t1\n"
        "C\tfieldb\tfieldb\t1\n"
        "C\tpitch\tpitch\t2\n"
        "A\thypernymy\tentity\tfielda\toriginal\n"
        "A\thypernymy\tentity\tfieldb\toriginal\n"
        "A\thypernymy\tfielda\tpitch#1\toriginal\n"
        "A\thypernymy\tfieldb\tpitch#2\toriginal\n"
    )
    table = SnapshotTable.from_pairs(
        [
            ("slome", 50), ("pitch", 200), ("fielda", 100), ("fieldb", 100), ("entity", 400),
            (pair_key("slome", "fielda"), 10), (pair_key("slome", "fieldb"), 10),
            (pair_key("slome", "pitch"), 20), (pair_key("slome", "entity"), 5),
        ],
        total_docs=1000,
    )
    skipped = set()
    paths = onto.semantic_paths_from("pitch")
    assert disambiguate_sense("slome", paths, onto, table, DistanceConfig(), 1.0,
                              skipped) == (1, 2)
    assert skipped == set()


def test_case2_path_scores_add_left_to_right(monkeypatch):
    # Sense 1 climbs t, a, b and sense 2 climbs t, b, a. Added left to right,
    # their means are 0.23333333333333336 and 0.2333333333333333; under the
    # compensated sum() of Python 3.12 and later both are 0.23333333333333336,
    # a tie.
    onto = parse_ontology(
        "C\tt\tt\t2\nC\ta\ta\t2\nC\tb\tb\t2\n"
        "A\thypernymy\ta#1\tt#1\toriginal\nA\thypernymy\tb#1\ta#1\toriginal\n"
        "A\thypernymy\tb#2\tt#2\toriginal\nA\thypernymy\ta#2\tb#2\toriginal\n"
    )
    table = SnapshotTable.from_pairs([("new", 5), ("t", 5), ("a", 5), ("b", 5)], total_docs=10)
    related = {"t": 0.1, "a": 0.2, "b": 0.4}
    monkeypatch.setattr(placement, "distance_from_counts", lambda t_miss, label, *_: label)
    monkeypatch.setattr(placement, "relatedness", lambda label, _: related[label])
    assert ((0.1 + 0.2) + 0.4) / 3 > ((0.1 + 0.4) + 0.2) / 3
    paths = onto.semantic_paths_from("t")
    assert [[cid for cid, _ in path] for path in paths] == [["t", "a", "b"], ["t", "b", "a"]]
    assert disambiguate_sense("new", paths, onto, table, DistanceConfig(), 1.0, set()) == (1,)


def test_case2_rejects_a_single_path():
    # and an empty path list, which is checked before any path is read
    onto = parse_ontology("C\tt\tt\t1\nC\ta\ta\t1\nA\thypernymy\ta\tt\toriginal\n")
    table = SnapshotTable.from_pairs([("new", 5), ("t", 5), ("a", 5)], total_docs=10)
    paths = onto.semantic_paths_from("t")
    assert paths == [(("t", 1), ("a", 1))]
    for given in (paths, []):
        with pytest.raises(ValueError, match=f"^{len(given)} sense paths given; "
                                             "disambiguation needs 2 or more$"):
            disambiguate_sense("new", given, onto, table, DistanceConfig(), 1.0, set())


def test_case2_all_labels_unusable_raises(onto):
    table = SnapshotTable.from_pairs([("corporate body", 10)], total_docs=100)
    with pytest.raises(UnresolvedSenseError):
        disambiguate_sense("corporate body", onto.semantic_paths_from("organization"), onto,
                           table, DistanceConfig(), 1.0, set())


COMPOSITE_SUGGESTIONS = [
    suggest("polder", "island"),
    suggest("polder", "Java"),
    suggest("polder", "organization"),
]


def composite_table(polder_island: int) -> SnapshotTable:
    return SnapshotTable.from_pairs(
        [
            ("polder", 1000),
            ("island", 300), ("land", 200), ("object", 500), ("entity", 600),
            ("java", 400), ("beverage", 50), ("food", 150),
            ("organization", 700), ("social group", 80), ("group", 650),
            ("abstraction", 90), ("act", 640), ("event", 660),
            ("unit", 100), ("structure", 110), ("artifact", 120),
            ("arrangement", 130), ("condition", 140), ("state", 150),
            ("plan", 160), ("idea", 170),
            (pair_key("polder", "island"), polder_island),
            (pair_key("polder", "java"), 20),
            (pair_key("polder", "social group"), 40),
        ],
        total_docs=100_000,
    )


def test_case3_composite_one_term_three_targets(onto):
    decisions, failures = place_all(
        COMPOSITE_SUGGESTIONS, onto, composite_table(300), DistanceConfig(), 1.0
    )
    assert failures == []
    assert len(decisions) == 3
    assert all(d.case == "case3-composite" for d in decisions)
    subcases = {d.target_concept: d.subcase for d in decisions}
    assert subcases["island"] == "case1"
    assert subcases["java"] == "case2"
    assert subcases["organization"] == "case2"


def test_joint_count_above_a_label_count_raises_as_in_the_matrix_stage(onto):
    # island (300 hits) is on a path of Java; a joint count of 500 with it is
    # a provider fault, not a label to skip.
    table = composite_table(500)
    with pytest.raises(ValueError) as matrix_error:
        relatedness_matrix(["polder"], ["island"], table)
    with pytest.raises(ValueError) as placement_error:
        place_all(COMPOSITE_SUGGESTIONS, onto, table, DistanceConfig(), 1.0)
    assert str(placement_error.value) == str(matrix_error.value) == (
        "provider reports joint count 500 above min individual count for ('polder', 'island')"
    )


def test_place_all_records_unresolved_sense(onto):
    table = SnapshotTable.from_pairs([("corporate body", 10)], total_docs=100)
    decisions, failures = place_all(
        [suggest("corporate body", "organization")], onto, table, DistanceConfig(), 1.0
    )
    assert decisions == []
    assert len(failures) == 1
    assert "usable" in failures[0].reason


def test_place_all_warns_once_for_skipped_labels(onto, caplog):
    table = SnapshotTable.from_pairs([("corporate body", 10), ("polity", 10)], total_docs=100)
    suggestions = [suggest("corporate body", "organization"), suggest("polity", "organization")]
    with caplog.at_level("DEBUG", logger="ontoenrich.placement"):
        _, failures = place_all(suggestions, onto, table, DistanceConfig(), 1.0)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    debug = [r for r in caplog.records if r.levelname == "DEBUG"]
    assert len(failures) == 2
    path_labels = {
        onto.concepts[cid].label
        for path in onto.semantic_paths_from("organization") for cid, _ in path[:MAX_PATH_DEPTH]
    }
    labels = sorted(label for label in path_labels
                    if not 0 < table.hits(label) < table.total_docs())
    assert labels == sorted(path_labels)  # the table counts no label
    assert warnings == [
        f"sense scoring skips {len(labels)} labels with unusable hit counts: "
        + ", ".join(repr(label) for label in labels)
    ]
    assert sorted(r.args[0] for r in debug) == labels  # one line per label


def test_per_decision_records_keep_no_instance_dict(onto, snapshot):
    # A default run keeps one suggestion, decision and axiom per pair.
    suggestions = [
        suggest("corporate body", "atlantis"),
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
    ]
    decisions, failures = place_all(suggestions, onto, snapshot, DistanceConfig(), 1.0)
    enriched = enrich_ontology(onto, decisions, failures)
    axiom = next(a for a in enriched.axioms if a.provenance == "enriched")
    records = [suggestions[0], decisions[0], failures[0], axiom, axiom.evidence]
    assert [type(r).__name__ for r in records] == [
        "RelationSuggestion", "PlacementDecision", "PlacementFailure", "Axiom", "Evidence",
    ]
    assert not any(hasattr(r, "__dict__") for r in records)


def test_place_all_records_unknown_target(onto, snapshot):
    decisions, failures = place_all([suggest("polder", "atlantis")], onto, snapshot,
                                   DistanceConfig(), 1.0)
    assert decisions == []
    assert [f.reason for f in failures] == ["target term 'atlantis' is not in the ontology"]


def test_place_all_records_instance_target(onto, snapshot):
    decisions, failures = place_all([suggest("polder", "Jakarta")], onto, snapshot,
                                   DistanceConfig(), 1.0)
    assert decisions == []
    assert [f.reason for f in failures] == [
        "target term 'Jakarta' resolves to an instance, which cannot anchor placement"
    ]


def test_enrich_adds_concept_and_related_to_axiom(onto, snapshot):
    decision = place_one(suggest("jawa", "Java"), onto, snapshot)
    assert decision.case == "case2" and decision.senses == (1,)
    enriched = enrich_ontology(onto, [decision])
    assert "jawa" in enriched.concepts
    assert has_axiom(enriched, RelationKind.RELATED_TO, "jawa", "java", object_sense=1)
    # conservativity: every original record survives verbatim
    original_lines = set(onto.to_text().splitlines())
    enriched_lines = set(enriched.to_text().splitlines())
    assert original_lines <= enriched_lines


def test_enrich_ronaldo_under_sport_sense_of_football(onto, snapshot):
    decision = place_one(suggest("Ronaldo", "football"), onto, snapshot)
    assert decision.senses == (1,)  # the sport sense, not the ball sense
    enriched = enrich_ontology(onto, [decision])
    assert has_axiom(enriched, RelationKind.RELATED_TO, "ronaldo", "football", object_sense=1)


def test_enrich_is_idempotent_and_double_run_stable(tmp_path, onto, snapshot):
    decision = place_one(suggest("jawa", "Java"), onto, snapshot)
    once = enrich_ontology(onto, [decision])
    twice = enrich_ontology(once, [decision])
    first, second = tmp_path / "once.tsv", tmp_path / "twice.tsv"
    save_ontology(once, first)
    save_ontology(twice, second)
    assert first.read_bytes() == second.read_bytes()


def test_enrich_empty_decisions_is_identity(tmp_path, onto):
    enriched = enrich_ontology(onto, [])
    before, after = tmp_path / "before.tsv", tmp_path / "after.tsv"
    save_ontology(onto, before)
    save_ontology(enriched, after)
    assert before.read_bytes() == after.read_bytes()


def test_enrich_hyponymy_stored_in_hypernymy_direction(onto, snapshot):
    suggestion = suggest(
        "corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700
    )
    decision = place_one(suggestion, onto, snapshot)
    enriched = enrich_ontology(onto, [decision])
    assert has_axiom(
        enriched, RelationKind.HYPONYMY, "corporate-body", "organization", object_sense=2
    )
    line = (
        "A\thypernymy\torganization#2\tcorporate-body\tenriched\thypo-isa\t80700"
    )
    assert line in enriched.to_text().splitlines()
    # hypernymy stays acyclic with the new leaf attached
    paths = enriched.semantic_paths_from("corporate-body")
    assert [cid for cid, _ in paths[0][:2]] == ["corporate-body", "organization"]


def test_enrich_instance_of_adds_instance_not_concept(onto, snapshot):
    suggestion = suggest(
        "Bandung", "city", RelationKind.INSTANCE_OF, "inst-of", 1200
    )
    decision = place_one(suggestion, onto, snapshot)
    enriched = enrich_ontology(onto, [decision])
    assert "bandung" in enriched.instances
    assert "bandung" not in enriched.concepts
    assert enriched.instances["bandung"].concept_id == "city"
    assert has_axiom(enriched, RelationKind.INSTANCE_OF, "bandung", "city")


def test_enrich_instance_of_two_targets_anchors_at_the_least_id(onto):
    # A new instance hangs from the least target id of its instance-of
    # decisions, in whichever order the decisions come.
    decisions = [
        PlacementDecision(suggest("Bandung", label, RelationKind.INSTANCE_OF, "inst-of", 9),
                          cid, (1,), "case3-composite", "case1")
        for label, cid in [("capital city", "capital-city"), ("centre", "centre"),
                           ("city", "city")]
    ]
    for ordered in (decisions, decisions[::-1]):
        enriched = enrich_ontology(onto, ordered)
        assert enriched.instances["bandung"].concept_id == "capital-city"
        assert all(has_axiom(enriched, RelationKind.INSTANCE_OF, "bandung", d.target_concept)
                   for d in ordered)


def test_enrich_conflicting_relations_rejected(onto, snapshot):
    first = place_one(suggest("polder", "island"), onto, snapshot)
    second = place_one(
        suggest("polder", "island", RelationKind.HYPONYMY, "hypo-isa", 5), onto, snapshot
    )
    with pytest.raises(ConflictingDecisionError):
        enrich_ontology(onto, [first, second])


def test_enrich_conflict_across_terms_naming_one_concept_rejected(onto, snapshot):
    # "Java" and "java" are two terms, but both keep the ontology's id "java".
    first = place_one(suggest("Java", "island"), onto, snapshot)
    second = place_one(
        suggest("java", "island", RelationKind.MERONYMY, "mero", 5), onto, snapshot
    )
    with pytest.raises(ConflictingDecisionError, match="'java', 'island', 1"):
        enrich_ontology(onto, [first, second])


def test_enriched_axioms_trace_back_to_suggestions(onto, snapshot):
    suggestions = [
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
        suggest("jawa", "Java"),
    ]
    decisions, failures = place_all(suggestions, onto, snapshot, DistanceConfig(), 1.0)
    assert not failures
    enriched = enrich_ontology(onto, decisions)
    added = [a for a in enriched.axioms if a.provenance == "enriched"]
    assert len(added) == len(decisions) == 2
    by_pattern = {d.suggestion.winning_group: d for d in decisions}
    for axiom in added:
        decision = by_pattern[axiom.evidence.pattern_id]
        assert axiom.evidence.hits == decision.suggestion.winner_hits


def test_enriched_axioms_share_one_evidence_per_pattern_and_count(onto, snapshot):
    suggestions = [
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
        suggest("jawa", "Java"),
        suggest("notion", "concept"),
    ]
    decisions, failures = place_all(suggestions, onto, snapshot, DistanceConfig(), 1.0)
    assert not failures
    enriched = enrich_ontology(onto, decisions)
    added = [a for a in enriched.axioms if a.provenance == "enriched"]
    assert len(added) == 3
    fallback = [a.evidence for a in added if a.relation is RelationKind.RELATED_TO]
    assert fallback == [Evidence(FALLBACK_MARKER, 0)] * 2
    assert fallback[0] is fallback[1]


def test_report_export(tmp_path, onto, snapshot):
    decision = place_one(suggest("jawa", "Java"), onto, snapshot)
    out = tmp_path / "report.tsv"
    write_enrichment_report([decision], [], out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("term\ttarget")
    assert any(line.startswith("jawa\tjava\t1\trelated-to\tcase2") for line in lines)
    assert lines[-1] == "# case2 ties: 0"


def test_new_concept_id_collision_gets_suffix(snapshot):
    onto = Ontology(
        [
            Concept("plain", "plain", (1,)),
            Concept("polder", "reclaimed lowland", (1,)),
        ]
    )
    table = SnapshotTable.from_pairs(
        [("polder", 10), ("plain", 20), (pair_key("polder", "plain"), 5)], 100
    )
    decision = place_one(suggest("Polder", "plain"), onto, table)
    enriched = enrich_ontology(onto, [decision])
    # "polder" id is taken by a concept with a different label
    assert [a.subject for a in enriched.axioms if a.provenance == "enriched"] == ["polder-2"]
    assert enriched.concepts["polder-2"].label == "Polder"


def test_new_terms_sharing_a_slug_get_distinct_ids(onto, snapshot):
    # "marsh cat" and "marsh-cat" both slug to "marsh-cat"; the second term
    # in pair order takes the next free suffix, and relations that differ
    # between the two terms are not a conflict.
    decisions = [
        place_one(suggest("marsh cat", "concept"), onto, snapshot),
        place_one(suggest("marsh-cat", "concept", RelationKind.HYPONYMY, "hypo-isa", 3),
                  onto, snapshot),
    ]
    enriched = enrich_ontology(onto, decisions)
    assert enriched.concepts["marsh-cat"].label == "marsh cat"
    assert enriched.concepts["marsh-cat-2"].label == "marsh-cat"
    assert has_axiom(enriched, RelationKind.RELATED_TO, "marsh-cat", "concept")
    assert has_axiom(enriched, RelationKind.HYPONYMY, "marsh-cat-2", "concept")


# Target labels and the concept ids they resolve to: the ids sort unlike
# the labels, and "Lamp" and "lamp" tie under lower().
_REPORT_TARGETS = {"armchair": "seat", "desk": "table", "lamp": "Lamp", "Lantern": "lamp"}


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.sampled_from(["Desk", "chair", "lamp", "desk lamp"]), max_size=4,
                   unique_by=str.lower),
    data=st.data(),
)
def test_property_report_order_equals_tuple_key_sort(tmp_path_factory, terms, data):
    # Decisions in pair order, as place_all makes them: each term's targets
    # by lowered label. winner_hits numbers each, so the written order names them.
    decisions = []
    for term in sorted(terms, key=str.lower):
        targets = data.draw(st.lists(st.sampled_from(sorted(_REPORT_TARGETS)), unique=True))
        for target in sorted(targets, key=str.lower):
            decisions.append(PlacementDecision(suggest(term, target, hits=len(decisions)),
                                               _REPORT_TARGETS[target], (1,), "case1"))
    path = tmp_path_factory.mktemp("order") / "report.tsv"
    write_enrichment_report(decisions, [], path)
    written = [int(line.split("\t")[6]) for line in path.read_text("utf-8").splitlines()[1:-1]]
    expected = tuple_key_order(decisions, lambda d: d.suggestion.missing_term,
                               lambda d: d.target_concept)
    assert written == [decision.suggestion.winner_hits for decision in expected]


def test_report_orders_a_terms_lines_by_concept_id_not_label(tmp_path):
    # In pair order "bay" comes before "cove"; their ids sort the other way.
    onto = Ontology([Concept("zz-bay", "bay"), Concept("aa-cove", "cove")])
    table = SnapshotTable.from_pairs([], total_docs=10)
    decisions, failures = place_all([suggest("polder", "bay"), suggest("polder", "cove")],
                                    onto, table, DistanceConfig(), 1.0)
    assert [d.target_concept for d in decisions] == ["zz-bay", "aa-cove"] and not failures
    write_enrichment_report(decisions, failures, tmp_path / "report.tsv")
    lines = (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines()[1:-1]
    assert [line.split("\t")[1] for line in lines] == ["aa-cove", "zz-bay"]


def test_misordered_or_repeated_suggestions_raise():
    onto = Ontology([Concept("bay", "bay"), Concept("cove", "cove")])
    table = SnapshotTable.from_pairs([], total_docs=10)
    cases = {
        "target 'bay' follows 'cove'": [suggest("polder", "cove"), suggest("polder", "bay")],
        "target 'Bay' follows 'bay'": [suggest("polder", "bay"), suggest("polder", "Bay")],
        "missing term 'atoll' follows 'polder'": [suggest("polder", "bay"),
                                                  suggest("atoll", "bay")],
        "missing term 'Polder' follows 'polder'": [suggest("polder", "bay"),
                                                   suggest("Polder", "cove")],
        "missing term 'polder' follows 'reef'": [suggest("polder", "bay"), suggest("reef", "bay"),
                                                 suggest("polder", "cove")],
    }
    for message, suggestions in cases.items():
        with pytest.raises(PairOrderError, match=message):
            place_all(suggestions, onto, table, DistanceConfig(), 1.0)


_ROW_TERMS = ["atoll", "Atoll", "lagoon", "marsh cat", "Marsh-cat", "polder", "Sandbar"]
_COLUMN_TERMS = ["bay", "Bay", "cove", "island", "Java", "java", "reef", "sea lion", "Tide"]


@st.composite
def pair_order_runs(draw):
    """A matrix over mixed-case terms, unique under lower() and ordered as
    ``relatedness_matrix`` orders them, with tied cells; and an ontology in
    which each column term names a concept of one or two senses, an
    instance or nothing, under ids drawn to sort unlike the labels."""
    def side(pool):
        terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                              unique_by=str.lower))
        return tuple(sorted(terms, key=lambda t: (t.lower(), t)))

    rows, cols = side(_ROW_TERMS), side(_COLUMN_TERMS)
    values = st.sampled_from([0.2, 0.5, 0.5, 0.8])
    cells = tuple(tuple(draw(st.lists(values, min_size=len(cols), max_size=len(cols))))
                  for _ in rows)
    ids = draw(st.permutations([f"k{n}" for n in range(len(cols))]))
    concepts, instances = [Concept("anchor", "anchor")], []
    for term, cid in zip(cols, ids):
        kind = draw(st.sampled_from(["one", "one", "two", "instance", "absent"]))
        if kind == "instance":
            instances.append(Instance(cid, term, "anchor"))
        elif kind != "absent":
            concepts.append(Concept(cid, term, (1,) if kind == "one" else (1, 2)))
    # Every term counts in 5 of 100 documents and no pair co-occurs, so the
    # two senses of a concept tie and every pair falls back to related-to.
    table = SnapshotTable.from_pairs([(term, 5) for term in rows + cols], total_docs=100)
    return RelatednessMatrix(rows, cols, cells, 1.0), Ontology(concepts, instances), table


@settings(max_examples=150, deadline=None)
@given(run=pair_order_runs(), threshold=st.sampled_from([0.0, 0.5, 0.6]), data=st.data())
def test_property_pairs_keep_one_order_from_selection_to_the_report(tmp_path_factory, run,
                                                                    threshold, data):
    matrix, onto, table = run
    catalogue = default_catalogue()
    pair_key_order = (lambda s: s.missing_term, lambda s: s.ontology_term.lower())
    for top_k in (None, 1, 3):
        pairs = select_candidates(matrix, SelectionConfig(threshold, top_k)).pairs()
        sides = SideMasks(table.run_test())
        suggestions = [extract_relation(miss, target, table, catalogue, sides)
                       for miss, target in pairs]
        assert suggestions == tuple_key_order(suggestions, *pair_key_order)
        decisions, failures = place_all(suggestions, onto, table, DistanceConfig(), 1.0)
        placed = [d.suggestion for d in decisions]
        unplaced = [f.suggestion for f in failures]
        assert placed == tuple_key_order(placed, *pair_key_order)
        assert unplaced == tuple_key_order(unplaced, *pair_key_order)
        assert len(placed) + len(unplaced) == len(suggestions)

        path = tmp_path_factory.mktemp("report") / "report.tsv"
        write_enrichment_report(decisions, failures, path)
        lines = [line.split("\t") for line in path.read_text("utf-8").splitlines()[1:-1]]
        by_id = tuple_key_order(decisions, lambda d: d.suggestion.missing_term,
                                lambda d: d.target_concept)
        assert [tuple(line[:2]) for line in lines] == (
            [(d.suggestion.missing_term, d.target_concept) for d in by_id]
            + [(s.missing_term, s.ontology_term) for s in unplaced])

        if len(suggestions) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(suggestions) - 1), min_size=2,
                                      max_size=2, unique=True))
            swapped = list(suggestions)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            with pytest.raises(PairOrderError):
                place_all(swapped, onto, table, DistanceConfig(), 1.0)


POOL = [f"c{i:02d}" for i in range(12)]  # ids sort as their index does
# Hits in 100 docs: about one in nine counts 0, and one in nine 100.
COUNTS = st.sampled_from([*range(1, 100), *[0] * 12, *[100] * 12])


@settings(max_examples=300, deadline=None)
@given(
    senses=st.integers(2, 4),
    mirror=st.booleans(),
    cap=st.floats(0.0, 2.0),
    denominator=st.floats(0.05, 50.0),
    data=st.data(),
)
def test_property_sense_scoring_equals_reference(senses, mirror, cap, denominator, data):
    # Chains climb the pool in index order, so the hypernymy stays acyclic;
    # they share concepts, and the longest run past MAX_PATH_DEPTH. In mirror
    # mode sense 2 climbs the second half of the pool exactly as sense 1
    # climbs the first, over labels with the same counts: an exact tie.
    half = len(POOL) // 2
    chain = st.lists(st.sampled_from(range(len(POOL) // (1 + mirror))), min_size=1,
                     unique=True).map(sorted)
    chains = [data.draw(chain, label=f"chain {sense}") for sense in range(1, senses + 1)]
    if mirror:
        chains[1] = [half + i for i in chains[0]]
        chains[2:] = [[] for _ in chains[2:]]
    edges = set()
    for sense, steps in enumerate(chains, 1):
        nodes = [("t", sense), *((POOL[i], 1) for i in steps)]
        edges.update(zip(nodes[1:], nodes))  # (parent, child)
    parents: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for parent, child in edges:
        parents.setdefault(child, []).append(parent)
    onto = parse_ontology(
        f"C\tt\tt\t{senses}\n"
        + "".join(f"C\t{cid}\t{cid}\t1\n" for cid in POOL)
        + "".join(f"A\thypernymy\t{p}\t{c}" + (f"#{s}" if c == "t" else "") + "\toriginal\n"
                  for (p, _), (c, s) in sorted(edges))
    )

    hits = {label: data.draw(COUNTS, label=label) for label in ["novel", "t", *POOL]}
    if mirror:
        hits.update({POOL[half + i]: hits[POOL[i]] for i in range(half)})
    pair_hits = {
        label: data.draw(st.integers(0, min(hits["novel"], count)), label=f"novel & {label}")
        for label, count in hits.items() if label != "novel"
    }
    if mirror:
        pair_hits.update({POOL[half + i]: pair_hits[POOL[i]] for i in range(half)})
    table = SnapshotTable.from_pairs(
        [*hits.items(), *((pair_key("novel", label), f2) for label, f2 in pair_hits.items())],
        total_docs=100,
    )

    expected, expected_skipped = reference_sense_scores(
        "novel", "t", range(1, senses + 1), parents, {cid: cid for cid in ["t", *POOL]},
        hits, pair_hits, 100, cap, denominator, MAX_PATH_DEPTH,
    )
    skipped, paths = set(), onto.semantic_paths_from("t")
    scored = {sense: score for sense, (score, _) in expected.items() if score is not None}
    if not scored:
        with pytest.raises(UnresolvedSenseError):
            disambiguate_sense("novel", paths, onto, table, DistanceConfig(cap), denominator,
                               skipped)
        assert skipped == expected_skipped
        return
    winners = disambiguate_sense("novel", paths, onto, table, DistanceConfig(cap), denominator,
                                 skipped)
    assert skipped == expected_skipped
    best = max(scored.values())
    top = tuple(sorted(sense for sense, score in scored.items() if best - score <= 1e-9))
    # One sense clear of the rest by more than 1e-9, or senses whose counted
    # labels have the same counts in the same order, so equal floats: the
    # winners are exactly those. Other near-ties are left to float rounding.
    if len({expected[sense][1] for sense in top}) == 1:
        assert winners == top
