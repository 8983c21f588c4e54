from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich.evaluation import (
    DomainJudgments,
    enrichment_precision,
    load_judgments,
    precision_report,
    write_precision_report,
)

from helpers import naive_placement_matches

EVAL_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "eval"


@pytest.fixture(scope="module")
def golden():
    expert = load_judgments(EVAL_DIR / "expert.tsv")
    system = load_judgments(EVAL_DIR / "system.tsv")
    return system, expert


def judged(eliminated=(), retained=()) -> DomainJudgments:
    return DomainJudgments(frozenset(eliminated), frozenset(retained), {})


def row_of(system: DomainJudgments, expert: DomainJudgments):
    """The ``precision_report`` row of one domain judged as given."""
    (row,) = precision_report({"d": system}, {"d": expert})
    return row


def test_identical_sets_score_one():
    terms = {"a", "b", "c"}
    assert row_of(judged(eliminated=terms), judged(eliminated=terms)).elimination == 1.0
    assert row_of(judged(retained=terms), judged(retained=terms)).retention == 1.0
    placements = {("a", "t", 1): "related-to"}
    assert enrichment_precision(placements, placements) == 1.0


def test_disjoint_sets_score_zero():
    assert row_of(judged(eliminated={"a"}), judged(eliminated={"b"})).elimination == 0.0
    assert row_of(judged(retained={"a"}), judged(retained={"b"})).retention == 0.0


def test_empty_system_sets_are_undefined():
    assert row_of(judged(), judged(eliminated={"a"})).elimination is None
    assert row_of(judged(), judged(retained={"a"})).retention is None
    assert enrichment_precision({}, {("a", "t", 1): "r"}) is None


def test_sense_mismatch_counts_incorrect():
    system = {("a", "t", 2): "related-to"}
    expert = {("a", "t", 1): "related-to"}
    assert enrichment_precision(system, expert) == 0.0


def test_relation_agreement_configurable():
    system = {("a", "t", 1): "hyponymy"}
    expert = {("a", "t", 1): "related-to"}
    assert enrichment_precision(system, expert) == 0.0
    assert enrichment_precision(system, expert, require_relation=False) == 1.0


def test_error_rate_complements_precision(golden):
    system, expert = golden
    for row in precision_report(system, expert):
        if row.elimination is not None:
            assert row.elimination + row.elimination_error_rate == 1.0


def test_golden_animals_elimination(golden):
    system, expert = golden
    value = {row.domain: row for row in precision_report(system, expert)}["animals"].elimination
    assert len(system["animals"].eliminated) == 4221
    assert round(value, 2) == 0.84


def test_golden_sports_retention(golden):
    system, expert = golden
    value = {row.domain: row for row in precision_report(system, expert)}["sports"].retention
    assert len(expert["sports"].retained) == 213
    assert len(system["sports"].retained) == 323
    assert round(value, 2) == 0.65


def test_golden_animals_placement(golden):
    system, expert = golden
    value = enrichment_precision(
        system["animals"].placements, expert["animals"].placements
    )
    assert len(system["animals"].placements) == 100
    assert round(value, 2) == 0.81


def test_golden_extra_ratios(golden):
    system, expert = golden
    report = {row.domain: row for row in precision_report(system, expert)}
    assert round(report["animals"].retention, 2) == 0.57
    assert round(report["sports"].elimination, 2) == 0.96


def test_judgments_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("E\tanimals\tkept\tlion\n", encoding="utf-8")
    with pytest.raises(ValueError, match="verdict"):
        load_judgments(path)


def test_judgments_reject_a_bad_sense(tmp_path):
    path = tmp_path / "expert.tsv"
    path.write_text("X\tanimals\tmarsh cat\tanimal\t1\thyponymy\n"
                    "X\tanimals\tmarsh cat\tanimal\tfirst\thyponymy\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        load_judgments(path)
    assert str(error.value) == f"{path}: line 2: bad sense 'first'"


def test_judgments_reject_a_second_relation_for_one_placement(tmp_path):
    path = tmp_path / "expert.tsv"
    lines = [
        "X\tanimals\tmarsh cat\tanimal\t1\thyponymy",
        "X\tanimals\tMarsh  cat\tanimal\t1\thyponymy",  # the same placement again
        "X\tanimals\tmarsh cat\tanimal\t2\tsynonymy",   # another sense
        "X\tpets\tmarsh cat\tanimal\t1\tsynonymy",      # another domain
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    loaded = load_judgments(path)
    assert len(loaded["animals"].placements) == 2
    path.write_text("".join(line + "\n" for line in lines) + "X\tanimals\tmarsh cat\tanimal"
                    "\t1\tsynonymy\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        load_judgments(path)
    assert str(error.value) == (
        f"{path}: line 5: conflicting relation 'synonymy' for 'marsh cat' -> animal#1"
        " in 'animals': an earlier record gives 'hyponymy'"
    )


def test_report_covers_expert_domains_and_warns_on_extras(tmp_path, caplog):
    expert = tmp_path / "expert.tsv"
    system = tmp_path / "system.tsv"
    expert.write_text("E\tanimals\teliminated\tlion\n", encoding="utf-8")
    system.write_text(
        "E\tanimals\teliminated\tlion\nE\tfood\teliminated\tsweetroot\n", encoding="utf-8"
    )
    with caplog.at_level("WARNING"):
        rows = precision_report(load_judgments(system), load_judgments(expert))
    assert [row.domain for row in rows] == ["animals"]
    assert "food" in caplog.text


def test_report_file_format(tmp_path, golden):
    system, expert = golden
    out = tmp_path / "report.tsv"
    write_precision_report(precision_report(system, expert), out)
    text = out.read_text()
    assert "# elimination" in text and "# retention" in text and "# placement" in text
    assert "animals\t4989\t4221\t0.84\t0.16" in text
    assert "sports\t213\t323\t0.65" in text
    assert "animals\t100\t100\t0.81" in text


def test_report_undefined_markers(tmp_path):
    expert = tmp_path / "expert.tsv"
    system = tmp_path / "system.tsv"
    expert.write_text("E\tanimals\teliminated\tlion\n", encoding="utf-8")
    system.write_text("E\tanimals\tretained\tlion\n", encoding="utf-8")
    rows = precision_report(load_judgments(system), load_judgments(expert))
    out = tmp_path / "report.tsv"
    write_precision_report(rows, out)
    assert "undefined" in out.read_text()


_TERMS = st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=12)


@settings(max_examples=150, deadline=None)
@given(system=_TERMS, expert=_TERMS, seed=st.randoms())
def test_property_permutation_invariance(tmp_path_factory, system, expert, seed):
    # The report does not depend on the order of a judgments file's records.
    records = [f"E\td\teliminated\t{term}\n" for term in sorted(system)]
    path = tmp_path_factory.mktemp("judgments") / "system.tsv"
    gold = {"d": judged(eliminated=expert)}
    rows = []
    for _ in range(2):
        path.write_text("".join(records), encoding="utf-8")
        rows.append(precision_report(load_judgments(path), gold))
        seed.shuffle(records)
    assert rows[0] == rows[1]


# Each (term, target, sense) holds one relation, as a loaded judgments file gives it.
_PLACEMENTS = st.dictionaries(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["t1", "t2"]),
              st.integers(1, 3)),
    st.sampled_from(["related-to", "hyponymy"]),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(system=_PLACEMENTS, expert=_PLACEMENTS, require_relation=st.booleans())
def test_property_matcher_agrees_with_naive_oracle(system, expert, require_relation):
    value = enrichment_precision(system, expert, require_relation)
    if not system:
        assert value is None
        return
    matches = naive_placement_matches(system, expert, require_relation)
    assert value == matches / len(system)


@settings(max_examples=100, deadline=None)
@given(system=_TERMS, expert=_TERMS)
def test_property_precision_in_unit_interval(system, expert):
    value = row_of(judged(eliminated=system), judged(eliminated=expert)).elimination
    if system:
        assert 0.0 <= value <= 1.0
