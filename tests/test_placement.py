from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich.hitcounts import SnapshotTable, pair_key
from ontoenrich.ontology import (
    Concept,
    Evidence,
    Ontology,
    RelationKind,
    load_ontology,
    parse_ontology,
    save_ontology,
)
from ontoenrich.patterns import FALLBACK_MARKER, RelationSuggestion
from ontoenrich.placement import (
    MAX_PATH_DEPTH,
    ConflictingDecisionError,
    PlacementDecision,
    UnresolvedSenseError,
    disambiguate_sense,
    enrich_ontology,
    place_all,
    write_enrichment_report,
)
from ontoenrich.relatedness import DistanceConfig, relatedness_matrix

from helpers import has_axiom, place_one, reference_sense_scores, tuple_key_order

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def onto():
    return load_ontology(FIXTURES / "mini_ontology.tsv")


@pytest.fixture(scope="module")
def snapshot():
    return SnapshotTable.load(FIXTURES / "snapshots" / "worked_examples.tsv")


def suggest(miss, target, relation=RelationKind.RELATED_TO, group=None, hits=0):
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
    assert disambiguate_sense("slome", "pitch", onto, table, DistanceConfig(), 1.0,
                              skipped) == (1, 2)
    assert skipped == set()


def test_case2_all_labels_unusable_raises(onto):
    table = SnapshotTable.from_pairs([("corporate body", 10)], total_docs=100)
    with pytest.raises(UnresolvedSenseError):
        disambiguate_sense("corporate body", "organization", onto, table, DistanceConfig(), 1.0,
                           set())


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
    assert len(debug) == 2 * len(labels)


def test_per_decision_records_keep_no_instance_dict(onto, snapshot):
    # A default run keeps one suggestion, decision and axiom per pair.
    suggestions = [
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
        suggest("corporate body", "atlantis"),
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
        suggest("jawa", "Java"),
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
    ]
    decisions, failures = place_all(suggestions, onto, snapshot, DistanceConfig(), 1.0)
    assert not failures
    enriched = enrich_ontology(onto, decisions)
    added = [a for a in enriched.axioms if a.provenance == "enriched"]
    assert len(added) == len(decisions) == 2
    by_pattern = {d.suggestion.winning_group or FALLBACK_MARKER: d for d in decisions}
    for axiom in added:
        decision = by_pattern[axiom.evidence.pattern_id]
        assert axiom.evidence.hits == decision.suggestion.winner_hits


def test_enriched_axioms_share_one_evidence_per_pattern_and_count(onto, snapshot):
    suggestions = [
        suggest("jawa", "Java"),
        suggest("notion", "concept"),
        suggest("corporate body", "organization", RelationKind.HYPONYMY, "hypo-isa", 80_700),
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
    # takes the next free suffix, and relations that differ between the two
    # terms are not a conflict.
    decisions = [
        place_one(suggest("marsh-cat", "concept", RelationKind.HYPONYMY, "hypo-isa", 3),
                  onto, snapshot),
        place_one(suggest("marsh cat", "concept"), onto, snapshot),
    ]
    enriched = enrich_ontology(onto, decisions)
    assert enriched.concepts["marsh-cat"].label == "marsh cat"
    assert enriched.concepts["marsh-cat-2"].label == "marsh-cat"
    assert has_axiom(enriched, RelationKind.RELATED_TO, "marsh-cat", "concept")
    assert has_axiom(enriched, RelationKind.HYPONYMY, "marsh-cat-2", "concept")


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(
        st.sampled_from(["Desk", "desk", "lamp", "desk lamp"]),
        st.sampled_from(["Lamp", "lamp", "chair"]),  # concept ids that tie under lower()
    ), max_size=12),
    data=st.data(),
)
def test_property_report_order_equals_tuple_key_sort(tmp_path_factory, pairs, data):
    # winner_hits numbers each decision, so the written order names them.
    decisions = [
        PlacementDecision(suggest(term, target, hits=number), target, (1,), "case1")
        for number, (term, target) in enumerate(pairs)
    ]
    decisions = data.draw(st.permutations(decisions))
    path = tmp_path_factory.mktemp("order") / "report.tsv"
    write_enrichment_report(decisions, [], path)
    written = [int(line.split("\t")[6]) for line in path.read_text("utf-8").splitlines()[1:-1]]
    expected = tuple_key_order(decisions, lambda d: d.term, lambda d: d.target_concept)
    assert written == [decision.suggestion.winner_hits for decision in expected]


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
    skipped = set()
    scored = {sense: score for sense, (score, _) in expected.items() if score is not None}
    if not scored:
        with pytest.raises(UnresolvedSenseError):
            disambiguate_sense("novel", "t", onto, table, DistanceConfig(cap), denominator,
                               skipped)
        assert skipped == expected_skipped
        return
    winners = disambiguate_sense("novel", "t", onto, table, DistanceConfig(cap), denominator,
                                 skipped)
    assert skipped == expected_skipped
    best = max(scored.values())
    top = tuple(sorted(sense for sense, score in scored.items() if best - score <= 1e-9))
    # One sense clear of the rest by more than 1e-9, or senses whose counted
    # labels have the same counts in the same order, so equal floats: the
    # winners are exactly those. Other near-ties are left to float rounding.
    if len({expected[sense][1] for sense in top}) == 1:
        assert winners == top
