"""Acceptance suite: one test per numbered criterion, with pinned tolerances.

Each test prints a ``acceptance criterion N: PASS/FAIL`` line via the hook in
conftest.py. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from pathlib import Path

import pytest

from ontoenrich.cli import main as cli_main
from ontoenrich.evaluation import enrichment_precision, load_judgments, precision_report
from ontoenrich.hitcounts import SnapshotTable, pair_key
from ontoenrich.ontology import RelationKind, load_ontology
from ontoenrich.patterns import SideMasks, default_catalogue, extract_relation
from ontoenrich.placement import enrich_ontology
from ontoenrich.relatedness import (
    DistanceConfig,
    drop_unusable_terms,
    ngram_hits_filter,
    relatedness_matrix,
)
from helpers import (
    build_index,
    cell,
    has_axiom,
    log2_distance,
    normalized_distance,
    oracle_matrix,
    place_one,
    scan_hits,
    scan_pair_hits,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MINI = FIXTURES / "mini_ontology.tsv"
SNAPSHOT = FIXTURES / "snapshots" / "worked_examples.tsv"
DESK = FIXTURES / "desk"


@pytest.mark.acceptance("1", "snapshot replay of the pattern arbitration worked example")
def test_c1_snapshot_replay_hyponymy_placement():
    started = time.perf_counter()
    snapshot = SnapshotTable.load(SNAPSHOT)
    onto = load_ontology(MINI)
    assert snapshot.pattern_hits("corporate body is an organization") == 80_700
    assert snapshot.pattern_hits("corporate body is a kind of organization") == 0
    assert snapshot.pattern_hits("corporate body is a part of an organization") == 0
    assert snapshot.pattern_hits("corporate body is an instance of an organization") == 0

    suggestion = extract_relation(
        "corporate body", "organization", snapshot, default_catalogue(),
        SideMasks(snapshot.run_test()),
    )
    assert suggestion.relation is RelationKind.HYPONYMY
    assert suggestion.winner_hits == 80_700

    decision = place_one(suggestion, onto, snapshot)
    assert decision.senses == (2,)  # the expert-designated social-group sense
    enriched = enrich_ontology(onto, [decision])
    assert has_axiom(
        enriched, RelationKind.HYPONYMY, "corporate-body", "organization", object_sense=2
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance("2", "related-to fallback for the three worked pairs")
def test_c2_related_to_fallback(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "out"
    code = cli_main(
        ["enrich", "--corpus", str(FIXTURES / "corpus_examples"), "--ontology", str(MINI),
         "--snapshot", str(SNAPSHOT), "--top-k", "1", "--out-dir", str(out)]
    )
    assert code == 0
    enriched = load_ontology(out / "enriched_ontology.tsv")
    assert has_axiom(enriched, RelationKind.RELATED_TO, "jawa", "java", object_sense=1)
    assert has_axiom(enriched, RelationKind.RELATED_TO, "hindu-buddhist", "indonesia")
    # attached under the sport sense of football, not the ball sense
    assert has_axiom(enriched, RelationKind.RELATED_TO, "ronaldo", "football", object_sense=1)
    assert not has_axiom(
        enriched, RelationKind.RELATED_TO, "ronaldo", "football", object_sense=2
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance("3", "positive-hit filter keeps exactly the countable terms")
def test_c3_hit_filter_exact():
    snapshot = SnapshotTable.load(SNAPSHOT)
    terms = [
        "Hindu-Buddhist",
        "Bears aided excellent",
        "animals generally diurnal",
        "areas most",
        "jawa",
    ]
    survivors = ngram_hits_filter(terms, snapshot)
    assert survivors == ["Hindu-Buddhist", "jawa"]
    assert all(snapshot.hits(term) > 0 for term in survivors)
    assert snapshot.hits("Hindu-Buddhist") == 128_000


@pytest.mark.acceptance("4", "distance and relatedness properties over 1000 random corpora")
def test_c4_relatedness_properties():
    started = time.perf_counter()

    # hand-derived case: f1 = 16 and 4, f2 = 2, N = 64
    hand = SnapshotTable.from_pairs(
        [("alpha", 16), ("beta", 4), (pair_key("alpha", "beta"), 2)], 64
    )
    assert normalized_distance("alpha", "beta", hand) == pytest.approx(0.75, abs=1e-12)

    # always-co-occurring pair scores distance 0, relatedness 1 in a positive batch
    together = SnapshotTable.from_pairs(
        [("a", 10), ("b", 10), ("c", 4),
         (pair_key("a", "b"), 10), (pair_key("a", "c"), 1)],
        100,
    )
    assert normalized_distance("a", "b", together) == 0.0
    batch = relatedness_matrix(["a"], ["b", "c"], together)
    assert batch.denominator > 0
    assert cell(batch, "a", "b") == 1.0

    rng = random.Random(404)
    vocab = ["java", "island", "sea", "reef", "tide", "palm", "bay"]
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 3000, "random corpus generator starved"
        docs = {}
        for i in range(rng.randint(2, 10)):
            tokens = rng.choices(vocab, k=rng.randint(1, 12))
            docs[f"d/{i}"] = " ".join(tokens)
        index = build_index(docs.items())
        usable = drop_unusable_terms(vocab, index)
        if len(usable) < 2:
            continue
        cut = max(1, len(usable) // 2)
        missing, known = usable[:cut], usable[cut:]
        matrix = relatedness_matrix(missing, known, index)
        for row in matrix.cells:
            for value in row:
                assert 0.0 <= value <= 1.0
        # log-base invariance on the first pair of the batch
        miss, term = matrix.missing_terms[0], matrix.ontology_terms[0]
        base_e = normalized_distance(miss, term, index)
        base_2 = log2_distance(
            index.hits(miss), index.hits(term), index.pair_hits(miss, term),
            index.total_docs(),
        )
        assert base_e == pytest.approx(base_2, abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1000
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"


@pytest.mark.acceptance("5", "index and matrix equal the brute-force scan oracle")
def test_c5_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(505)
    vocab = ["java", "island", "sea", "reef", "tide", "palm", "bay", "cove"]
    checked_matrices = 0
    for _ in range(350):
        doc_tokens = {}
        for i in range(rng.randint(1, 16)):
            doc_tokens[f"d/{i:02d}"] = rng.choices(vocab, k=rng.randint(1, 50))
        index = build_index((i, " ".join(t)) for i, t in doc_tokens.items())
        assert index.total_docs() == len(doc_tokens)
        for _ in range(4):
            phrase = " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
            other = " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
            assert index.hits(phrase) == scan_hits(doc_tokens, phrase)
            assert index.pair_hits(phrase, other) == scan_pair_hits(doc_tokens, phrase, other)
        usable = drop_unusable_terms(vocab, index)
        if len(usable) < 2:
            continue
        cut = max(1, len(usable) // 2)
        missing, known = usable[:cut], usable[cut:]
        matrix = relatedness_matrix(missing, known, index)
        expected = oracle_matrix(doc_tokens, missing, known)
        for (miss, term), value in expected.items():
            assert cell(matrix, miss, term) == pytest.approx(value, abs=1e-12)
        checked_matrices += 1
    elapsed = time.perf_counter() - started
    assert checked_matrices > 200
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


@pytest.mark.acceptance("6", "placement cases, conservativity and idempotence")
def test_c6_placement_cases(tmp_path):
    snapshot = SnapshotTable.load(SNAPSHOT)
    onto = load_ontology(MINI)
    catalogue = default_catalogue()
    sides = SideMasks(snapshot.run_test())

    # case 1: single-sense target
    one = extract_relation("notion", "concept", snapshot, catalogue, sides)
    d1 = place_one(one, onto, snapshot)
    assert (d1.case, d1.senses) == ("case1", (1,))

    # case 2: seven-sense target steered to one path
    two = extract_relation("corporate body", "organization", snapshot, catalogue, sides)
    d2 = place_one(two, onto, snapshot)
    assert d2.case == "case2"
    assert d2.senses == (2,)
    assert onto.concept("organization").senses == tuple(range(1, 8))

    # case 3: one term related to three targets
    from ontoenrich.placement import place_all

    table = SnapshotTable.from_pairs(
        [("polder", 1000), ("island", 300), ("land", 200), ("object", 500),
         ("entity", 600), ("java", 400), ("beverage", 50), ("food", 150),
         ("concept", 120), ("idea", 170), ("abstraction", 90),
         (pair_key("polder", "island"), 300), (pair_key("polder", "java"), 20)],
        100_000,
    )
    suggestions = [
        extract_relation("polder", target, table, catalogue, SideMasks(table.run_test()))
        for target in ["concept", "island", "Java"]  # pair order
    ]
    decisions, failures = place_all(suggestions, onto, table, DistanceConfig(), 1.0)
    assert failures == []
    assert len(decisions) == 3
    assert {d.case for d in decisions} == {"case3-composite"}

    # conservativity and double-run idempotence, byte for byte
    enriched_once = enrich_ontology(onto, [d1, d2])
    enriched_twice = enrich_ontology(enriched_once, [d1, d2])
    first, second = tmp_path / "once.tsv", tmp_path / "twice.tsv"
    first.write_text(enriched_once.to_text(), encoding="utf-8")
    second.write_text(enriched_twice.to_text(), encoding="utf-8")
    assert first.read_bytes() == second.read_bytes()
    assert set(onto.to_text().splitlines()) <= set(enriched_once.to_text().splitlines())


@pytest.mark.acceptance("7", "evaluation metrics against the bundled golden counts")
def test_c7_evaluation_goldens():
    expert = load_judgments(FIXTURES / "eval" / "expert.tsv")
    system = load_judgments(FIXTURES / "eval" / "system.tsv")

    animals_gold = expert["animals"]
    gold_rows = {row.domain: row for row in precision_report(expert, expert)}
    assert gold_rows["animals"].elimination == 1.0
    assert gold_rows["animals"].retention == 1.0
    assert enrichment_precision(animals_gold.placements, animals_gold.placements) == 1.0

    rows = {row.domain: row for row in precision_report(system, expert)}
    assert round(rows["animals"].elimination, 2) == 0.84
    assert round(rows["sports"].retention, 2) == 0.65
    placed = enrichment_precision(
        system["animals"].placements, animals_gold.placements
    )
    assert round(placed, 2) == 0.81


@pytest.mark.acceptance("8", "desk-scale end-to-end determinism under 60 seconds")
def test_c8_desk_scale_determinism(tmp_path):
    argv_base = [
        "enrich", "--corpus", str(DESK / "corpus"), "--ontology", str(DESK / "ontology.tsv"),
        "--gazetteer", str(DESK / "gazetteer.tsv"), "--top-k", "3",
    ]
    started = time.perf_counter()
    assert cli_main(argv_base + ["--out-dir", str(tmp_path / "a")]) == 0
    first_elapsed = time.perf_counter() - started
    assert cli_main(argv_base + ["--out-dir", str(tmp_path / "b")]) == 0

    names = ["enriched_ontology.tsv", "relatedness_matrix.tsv", "pattern_audit.tsv",
             "enrichment_report.tsv", "system_judgments.tsv", "manifest.tsv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    corpus_files = list((DESK / "corpus").rglob("*.txt"))
    assert len(corpus_files) == 500
    enriched = load_ontology(tmp_path / "a" / "enriched_ontology.tsv")
    assert has_axiom(enriched, RelationKind.HYPONYMY, "grolith", "lion")
    assert first_elapsed < 60.0, f"desk run took {first_elapsed:.1f}s"
