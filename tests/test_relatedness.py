import math
import tracemalloc
from functools import reduce
from itertools import chain
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ontoenrich.hitcounts import SnapshotTable, pair_key
from ontoenrich.relatedness import (
    CandidateSet,
    DegenerateDenominatorError,
    DistanceConfig,
    RelatednessMatrix,
    SelectionConfig,
    distance_from_counts,
    drop_unusable_terms,
    ngram_hits_filter,
    relatedness,
    relatedness_matrix,
    select_candidates,
    write_matrix,
)
from helpers import (
    build_index,
    cell,
    log2_distance,
    normalized_distance,
    oracle_matrix,
    scan_hits,
    scan_pair_hits,
)
from test_desk_run import run_cli

SNAPSHOTS = Path(__file__).resolve().parent.parent / "fixtures" / "snapshots"


def snapshot_of(hits: dict[str, int], pairs: dict[tuple[str, str], int], total: int):
    entries = list(hits.items()) + [(pair_key(a, b), c) for (a, b), c in pairs.items()]
    return SnapshotTable.from_pairs(entries, total)


def test_distance_hand_case_from_fixture():
    # f1 = 16 and 4, f2 = 2, N = 64; equals 0.75 in any log base
    table = SnapshotTable.load(SNAPSHOTS / "distance_hand_case.tsv")
    value = normalized_distance("alpha", "beta", table)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert value == pytest.approx(log2_distance(16, 4, 2, 64), abs=1e-12)


def test_distance_always_cooccurring_pair_is_zero():
    table = snapshot_of({"a": 10, "b": 10}, {("a", "b"): 10}, 100)
    assert normalized_distance("a", "b", table) == 0.0


def test_distance_zero_cooccurrence_uses_cap():
    table = snapshot_of({"a": 16, "b": 4}, {}, 64)
    assert normalized_distance("a", "b", table) == 1.0
    cfg = DistanceConfig(zero_cooccurrence_cap=0.25)
    assert normalized_distance("a", "b", table, cfg) == 0.25


def test_distance_degenerate_denominator():
    table = snapshot_of({"a": 64, "b": 4}, {("a", "b"): 2}, 64)
    with pytest.raises(DegenerateDenominatorError):
        normalized_distance("a", "b", table)


def test_distance_rejects_zero_hits():
    table = snapshot_of({"a": 5}, {}, 64)
    with pytest.raises(ValueError, match="positive hit counts"):
        normalized_distance("a", "missing", table)


def test_distance_rejects_inconsistent_joint_count():
    table = snapshot_of({"a": 4, "b": 4}, {("a", "b"): 9}, 64)
    with pytest.raises(ValueError, match="joint count"):
        normalized_distance("a", "b", table)


def test_filter_keeps_positive_hits_only():
    table = snapshot_of({"Hindu-Buddhist": 128_000}, {}, 8_000_000_000)
    survivors = ngram_hits_filter(["Bears aided excellent", "Hindu-Buddhist"], table)
    assert survivors == ["Hindu-Buddhist"]


def test_filter_empty_input():
    table = snapshot_of({}, {}, 10)
    assert ngram_hits_filter([], table) == []


def test_filter_all_positive_keeps_input_order():
    # The run hands it terms partition_terms has sorted; it sorts no more.
    table = snapshot_of({"b": 1, "a": 2}, {}, 10)
    assert ngram_hits_filter(["b", "a"], table) == ["b", "a"]


@settings(max_examples=100, deadline=None)
@given(
    counts=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]), st.integers(0, 9), max_size=5
    )
)
def test_property_filter_sound(counts):
    table = snapshot_of(counts, {}, 100)
    terms = ["a", "b", "c", "d", "e"]
    survivors = ngram_hits_filter(terms, table)
    assert survivors == [term for term in terms if term in survivors]
    assert all(table.hits(term) > 0 for term in survivors)
    assert set(terms) - set(survivors) == {term for term in terms if table.hits(term) == 0}


def test_single_pair_matrix_is_zero_and_warns(caplog):
    table = snapshot_of({"a": 16, "b": 4}, {("a", "b"): 2}, 64)
    with caplog.at_level("WARNING"):
        matrix = relatedness_matrix(["a"], ["b"], table)
    assert cell(matrix, "a", "b") == 0.0
    assert "single-pair" in caplog.text


def test_zero_distance_pair_in_positive_batch_scores_one():
    table = snapshot_of(
        {"a": 10, "b": 10, "c": 4}, {("a", "b"): 10, ("a", "c"): 1}, 100
    )
    matrix = relatedness_matrix(["a"], ["b", "c"], table)
    assert cell(matrix, "a", "b") == 1.0
    assert 0.0 <= cell(matrix, "a", "c") < 1.0


def test_all_pairs_cooccur_everywhere_gives_all_ones():
    table = snapshot_of({"a": 10, "b": 10}, {("a", "b"): 10}, 100)
    matrix = relatedness_matrix(["a"], ["b"], table)
    assert cell(matrix, "a", "b") == 1.0
    assert matrix.denominator == 0.0


def test_matrix_matches_scan_oracle_on_synthetic_corpus():
    texts = {
        "d/1": "m1 k1 m2",
        "d/2": "m1 k1 k2",
        "d/3": "m1 k2 m2",
        "d/4": "m1 k1",
        "d/5": "m1 k2",
        "d/6": "m1 k2",
        "d/7": "k1",
        "d/8": "k2 m2",
    }
    index = build_index(texts.items())
    matrix = relatedness_matrix(["m1", "m2"], ["k1", "k2"], index)
    # frozen from the independent document-scan, base-2 oracle
    assert cell(matrix, "m1", "k1") == pytest.approx(0.762485835088762, abs=1e-12)
    assert cell(matrix, "m1", "k2") == pytest.approx(0.795100078891935, abs=1e-12)
    assert cell(matrix, "m2", "k1") == pytest.approx(0.664299829464188, abs=1e-12)
    assert cell(matrix, "m2", "k2") == pytest.approx(0.778114256555116, abs=1e-12)
    oracle = oracle_matrix({i: t.split() for i, t in texts.items()}, ["m1", "m2"], ["k1", "k2"])
    for (miss, term), expected in oracle.items():
        assert cell(matrix, miss, term) == pytest.approx(expected, abs=1e-12)


class CountingProvider:
    """Counts the calls of each provider method before delegating."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"hits": 0, "pair_hits": 0, "pattern_hits": 0, "total_docs": 0}

    def hits(self, phrase):
        self.calls["hits"] += 1
        return self.inner.hits(phrase)

    def pair_hits(self, a, b):
        self.calls["pair_hits"] += 1
        return self.inner.pair_hits(a, b)

    def pattern_hits(self, query):
        self.calls["pattern_hits"] += 1
        return self.inner.pattern_hits(query)

    def total_docs(self):
        self.calls["total_docs"] += 1
        return self.inner.total_docs()


def test_matrix_fetches_each_term_count_once():
    doc_tokens = {
        f"d/{i}": text.split()
        for i, text in enumerate([
            "m1 k1 k3", "m1 k1", "m2 k2 k3", "m3 k4", "m1 m2 k2", "k1 k2 k3 k4",
            "m3 k3", "m2", "k4", "filler",
        ])
    }
    rows, cols = ["m1", "m2", "m3"], ["k1", "k2", "k3", "k4"]
    entries = [(term, scan_hits(doc_tokens, term)) for term in rows + cols]
    entries += [
        (pair_key(miss, term), scan_pair_hits(doc_tokens, miss, term))
        for miss in rows for term in cols
    ]
    provider = CountingProvider(SnapshotTable.from_pairs(entries, len(doc_tokens)))
    matrix = relatedness_matrix(rows, cols, provider)
    assert provider.calls == {
        "hits": len(rows) + len(cols),
        "pair_hits": len(rows) * len(cols),
        "pattern_hits": 0,
        "total_docs": 1,
    }
    oracle = oracle_matrix(doc_tokens, rows, cols)
    for (miss, term), expected in oracle.items():
        assert cell(matrix, miss, term) == pytest.approx(expected, abs=1e-12)


def test_matrix_cells_share_one_float_per_distinct_distance():
    # No pair co-occurs, so every cell has the capped distance: 108,000 cells
    # keep a tuple slot each (8 B) and one shared float, not a float each.
    missing = [f"missing {i}" for i in range(300)]
    known = [f"known {j}" for j in range(360)]
    table = SnapshotTable.from_pairs([(term, 10) for term in missing + known], total_docs=1_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = relatedness_matrix(missing, known, table)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len({id(value) for row in matrix.cells for value in row}) == 1
    assert retained / (300 * 360) <= 10


_MISSING = [f"missing {i}" for i in range(300)]
_KNOWN = [f"known {j}" for j in range(360)]


def peak_bytes_per_cell(table) -> float:
    """The ``tracemalloc`` peak while ``relatedness_matrix`` builds the
    300 x 360 batch of ``_MISSING`` by ``_KNOWN`` over table, per cell."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        relatedness_matrix(_MISSING, _KNOWN, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (len(_MISSING) * len(_KNOWN))


def test_matrix_peak_memory_stays_below_a_dense_distance_matrix():
    # No pair co-occurs. A dense distance matrix beside the cells takes two
    # 8 B slots a cell; the batch keeps no distance but the cap.
    table = SnapshotTable.from_pairs([(term, 10) for term in _MISSING + _KNOWN], 1_000)
    assert peak_bytes_per_cell(table) <= 12


def test_matrix_peak_memory_keeps_one_float_per_distinct_distance():
    # Every pair co-occurs with one f2, so every cell has one distance, but
    # each is a float of its own (24 B) until it is interned. The kept
    # column numbers and distances take two 8 B slots a cell and the cells
    # one, each kept row freed as its cells are built. Holding every
    # distance float, dense or sparse, takes 40 B a cell or more; keeping
    # the kept rows to the end, 24 B and more.
    entries = [(term, 10) for term in _MISSING + _KNOWN]
    entries += [(pair_key(miss, term), 5) for miss in _MISSING for term in _KNOWN]
    table = SnapshotTable.from_pairs(entries, 1_000)
    assert peak_bytes_per_cell(table) <= 24


def dense_oracle(rows, cols, table, cfg=DistanceConfig()):
    """Every distance from ``distance_from_counts``, row by row, and their
    left-to-right sum in row-major order."""
    n = table.total_docs()
    distances = [
        [distance_from_counts(miss, term, table.hits(miss), table.hits(term),
                              table.pair_hits(miss, term), n, cfg) for term in cols]
        for miss in rows
    ]
    return distances, reduce(add, chain.from_iterable(distances), 0.0)


def test_matrix_denominator_is_the_row_major_chain_of_cap_runs_and_values():
    rows, cols, cap = ["m0", "m1"], ["k0", "k1", "k2", "k3"], 0.3
    table = snapshot_of(
        {"m0": 38, "m1": 56, "k0": 53, "k1": 50, "k2": 6, "k3": 18},
        {("m0", "k1"): 8, ("m0", "k2"): 4, ("m1", "k2"): 4}, 100,
    )
    cfg = DistanceConfig(cap)
    distances, chained = dense_oracle(rows, cols, table, cfg)
    # co-occurring cells between cap runs: cap d d cap / cap cap d cap
    assert [[value == cap for value in row] for row in distances] == [
        [True, False, False, True], [True, True, False, True]]
    flat = list(chain.from_iterable(distances))
    values = [value for value in flat if value != cap]
    other_orders = [
        reduce(add, [reduce(add, row, 0.0) for row in distances], 0.0),
        cap * (len(flat) - len(values)) + sum(values),
        cap * (len(flat) - len(values)) + reduce(add, values, 0.0),
        math.fsum(flat),
    ]
    assert all(total != chained for total in other_orders)
    matrix = relatedness_matrix(rows, cols, table, cfg)
    assert matrix.denominator.hex() == chained.hex()
    assert [[value.hex() for value in row] for row in matrix.cells] == [
        [relatedness(value, chained).hex() for value in row] for row in distances]


_EDGE_TEXTS = {
    "d/1": "m1 k1 k2",
    "d/2": "m1 k1",
    "d/3": "m2 k1 k2",
    "d/4": "m2 k2",
    "d/5": "m1",
    "d/6": "k1",
    "d/7": "m2 k1",
    "d/8": "m3 filler",
}


def assert_equals_oracle(matrix, texts, cap=1.0):
    rows, cols = list(matrix.missing_terms), list(matrix.ontology_terms)
    oracle = oracle_matrix({i: t.split() for i, t in texts.items()}, rows, cols, cap)
    for (miss, term), expected in oracle.items():
        assert cell(matrix, miss, term) == pytest.approx(expected, abs=1e-12)


def test_matrix_with_every_cell_cooccurring_holds_no_capped_cell():
    index = build_index(_EDGE_TEXTS.items())
    matrix = relatedness_matrix(["m1", "m2"], ["k1", "k2"], index)
    assert all(index.pair_hits(miss, term) for miss in ["m1", "m2"] for term in ["k1", "k2"])
    assert_equals_oracle(matrix, _EDGE_TEXTS)
    capped = relatedness(DistanceConfig().zero_cooccurrence_cap, matrix.denominator)
    assert capped not in set(chain.from_iterable(matrix.cells))


def test_matrix_row_with_no_cooccurring_cell_holds_the_cap_everywhere():
    index = build_index(_EDGE_TEXTS.items())
    matrix = relatedness_matrix(["m1", "m2", "m3"], ["k1", "k2"], index)
    assert_equals_oracle(matrix, _EDGE_TEXTS)
    capped = relatedness(DistanceConfig().zero_cooccurrence_cap, matrix.denominator)
    assert matrix.cells[2] == (capped, capped)
    assert capped not in matrix.cells[0] + matrix.cells[1]


def test_matrix_zero_cap_and_an_always_cooccurring_pair_share_one_float():
    texts = {"d/1": "a b c", "d/2": "a b", "d/3": "c e", "d/4": "d", "d/5": "e",
             "d/6": "filler"}
    index = build_index(texts.items())
    matrix = relatedness_matrix(["a", "e"], ["b", "c", "d"], index, DistanceConfig(0.0))
    assert_equals_oracle(matrix, texts, cap=0.0)
    # distance 0.0 at (a, b) from always co-occurring, the cap at the rest
    zero = [value for row in matrix.cells for value in row if value == 1.0]
    assert len(zero) == 4
    assert len({id(value) for value in zero}) == 1
    assert matrix.denominator > 0


def test_matrix_denominator_adds_left_to_right():
    # Ten capped cells of 0.1 add up to 0.9999999999999999 left to right;
    # math.fsum, and builtin sum from Python 3.12 on, give 1.0.
    known = [f"known {j}" for j in range(10)]
    table = SnapshotTable.from_pairs([(term, 10) for term in ["missing", *known]], 100)
    matrix = relatedness_matrix(["missing"], known, table, DistanceConfig(0.1))
    assert math.fsum([0.1] * 10) == 1.0
    assert matrix.denominator == 0.9999999999999999
    assert matrix.cells == ((1.0 - 0.1 / 0.9999999999999999,) * 10,)


def test_empty_sets_rejected():
    table = snapshot_of({"a": 4}, {}, 64)
    with pytest.raises(ValueError, match="empty"):
        relatedness_matrix([], ["a"], table)
    with pytest.raises(ValueError, match="empty"):
        relatedness_matrix(["a"], [], table)


@pytest.mark.parametrize("side", ["missing", "ontology"])
def test_case_duplicate_surfaces_rejected(side):
    table = snapshot_of({"reef": 4, "sea": 4}, {}, 64)  # checked before any count is read
    terms = {"missing": ["sea"], "ontology": ["sea"]}
    terms[side] = ["reef", "Reef", "sea"]
    with pytest.raises(ValueError, match=f"^{side} terms contain case-duplicate surfaces$"):
        relatedness_matrix(terms["missing"], terms["ontology"], table)


def test_drop_unusable_terms_warns(caplog):
    table = snapshot_of({"a": 4, "b": 0, "c": 64}, {}, 64)
    with caplog.at_level("DEBUG", logger="ontoenrich.relatedness"):
        kept = drop_unusable_terms(["a", "b", "c"], table)
    assert kept == ["a"]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    assert warnings == [
        "dropping 2 terms from the relatedness batch (hits 0 or >= total docs 64): 'b', 'c'"
    ]
    assert debug == [
        "dropping term 'b' from the relatedness batch (hits=0, total docs=64)",
        "dropping term 'c' from the relatedness batch (hits=64, total docs=64)",
    ]


DROP_UNUSABLE_SCRIPT = """
import logging, sys
from ontoenrich.hitcounts import SnapshotTable
from ontoenrich.relatedness import drop_unusable_terms
logging.basicConfig(format="%(message)s", stream=sys.stdout)
table = SnapshotTable.from_pairs([("java", 3)], 9)
print(drop_unusable_terms(["Java", "java", "JAVA", "Sea", "sea"], table))
"""


def test_drop_unusable_terms_orders_case_variants_alike_under_every_hash_seed():
    # Ordered by str.lower alone, case variants kept the order of their set,
    # which differs between these two seeds.
    outputs = {run_cli("-c", DROP_UNUSABLE_SCRIPT, seed=seed).stdout for seed in ("1", "2")}
    assert outputs == {
        "dropping 2 terms from the relatedness batch (hits 0 or >= total docs 9): "
        "'Sea', 'sea'\n['JAVA', 'Java', 'java']\n"
    }


def row_matrix(values: dict[str, float], miss: str = "jawa") -> RelatednessMatrix:
    cols = tuple(sorted(values, key=lambda t: (t.lower(), t)))
    cells = (tuple(values[c] for c in cols),)
    return RelatednessMatrix((miss,), cols, cells, denominator=1.0)


def test_select_candidates_threshold():
    matrix = row_matrix({"Java": 0.72, "island": 0.56, "Indonesia": 0.69})
    chosen = select_candidates(matrix, SelectionConfig(threshold=0.6))
    assert chosen.per_term["jawa"] == (("Indonesia", 0.69), ("Java", 0.72))


def test_select_candidates_threshold_zero_keeps_all():
    matrix = row_matrix({"Java": 0.72, "island": 0.56, "Indonesia": 0.69})
    chosen = select_candidates(matrix, SelectionConfig(threshold=0.0))
    assert len(chosen.per_term["jawa"]) == 3


def test_select_candidates_threshold_one_empty():
    matrix = row_matrix({"Java": 0.72, "island": 0.56})
    chosen = select_candidates(matrix, SelectionConfig(threshold=1.0))
    assert chosen.per_term["jawa"] == ()


def test_select_candidates_top_k_and_tie_order():
    matrix = row_matrix({"b": 0.7, "a": 0.7, "c": 0.9})
    chosen = select_candidates(matrix, SelectionConfig(threshold=0.5, top_k=2))
    # c, then a over b on the tie, written in column order.
    assert chosen.per_term["jawa"] == (("a", 0.7), ("c", 0.9))


SATURATION = "admits all"


def test_select_candidates_warns_once_when_threshold_admits_every_cell(caplog):
    matrix = RelatednessMatrix(("bay", "jawa"), ("island", "Java"), ((0.9, 0.8), (0.7, 0.95)), 1.0)
    with caplog.at_level("WARNING", logger="ontoenrich.relatedness"):
        chosen = select_candidates(matrix, SelectionConfig(threshold=0.5, top_k=1))
    assert chosen.pairs() == [("bay", "island"), ("jawa", "Java")]
    assert [r.getMessage() for r in caplog.records] == [
        "threshold 0.5 admits all 4 relatedness cells (smallest 0.700000): "
        "it rejects no candidate pair"
    ]


def test_select_candidates_no_saturation_warning_below_threshold_or_at_zero(caplog):
    cases = [
        (row_matrix({"Java": 0.72, "island": 0.56, "Indonesia": 0.69}), 0.6),  # one cell below
        (row_matrix({"Java": 0.72, "island": 0.56}), 0.0),  # a zero threshold admits by design
        (row_matrix({"Java": 0.72}), 0.5),  # a single cell is not a batch
    ]
    with caplog.at_level("WARNING", logger="ontoenrich.relatedness"):
        for matrix, threshold in cases:
            select_candidates(matrix, SelectionConfig(threshold))
    assert not [r for r in caplog.records if SATURATION in r.getMessage()]


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(threshold=1.2)
    with pytest.raises(ValueError):
        SelectionConfig(top_k=0)


@pytest.mark.parametrize(
    "config, kwargs",
    [
        (DistanceConfig, {"zero_cooccurrence_cap": float("nan")}),
        (DistanceConfig, {"zero_cooccurrence_cap": float("inf")}),
        (DistanceConfig, {"zero_cooccurrence_cap": -1.0}),
        (SelectionConfig, {"threshold": 1.5}),
        (SelectionConfig, {"threshold": float("nan")}),
        (SelectionConfig, {"top_k": 0}),
    ],
)
def test_settings_out_of_range_rejected_for_library_callers(config, kwargs):
    with pytest.raises(ValueError, match="must be"):
        config(**kwargs)


def test_write_matrix_format(tmp_path):
    matrix = row_matrix({"Java": 0.72})
    out = tmp_path / "matrix.tsv"
    write_matrix(matrix, out)
    assert out.read_text() == "term\tJava\njawa\t0.720000\n"


_COUNTS = st.integers(min_value=1, max_value=30)


@settings(max_examples=300, deadline=None)
@given(fa=_COUNTS, fb=_COUNTS, f2=st.integers(0, 30), extra=st.integers(1, 40))
def test_property_log_base_invariance(fa, fb, f2, extra):
    f2 = min(f2, fa, fb)
    n = max(fa, fb) + extra
    table = snapshot_of({"a": fa, "b": fb}, {("a", "b"): f2} if f2 else {}, n)
    value = normalized_distance("a", "b", table)
    assert value == pytest.approx(log2_distance(fa, fb, f2, n), abs=1e-9)
    assert value >= 0.0


@settings(max_examples=200, deadline=None)
@given(fa=_COUNTS, fb=_COUNTS, extra=st.integers(1, 40), f2_lo=st.integers(1, 30), f2_hi=st.integers(1, 30))
def test_property_distance_monotone_in_joint_count(fa, fb, extra, f2_lo, f2_hi):
    lo, hi = sorted((min(f2_lo, fa, fb), min(f2_hi, fa, fb)))
    n = max(fa, fb) + extra
    low = snapshot_of({"a": fa, "b": fb}, {("a", "b"): lo}, n)
    high = snapshot_of({"a": fa, "b": fb}, {("a", "b"): hi}, n)
    assert normalized_distance("a", "b", high) <= normalized_distance("a", "b", low) + 1e-12


_WORDS = ["java", "island", "sea", "reef", "tide", "palm"]


@st.composite
def corpora_with_terms(draw):
    n_docs = draw(st.integers(2, 12))
    texts = {}
    for i in range(n_docs):
        tokens = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
        texts[f"d/{i:02d}"] = " ".join(tokens)
    return texts


@settings(max_examples=150, deadline=None)
@given(corpora_with_terms())
def test_property_matrix_cells_in_unit_interval(texts):
    index = build_index(texts.items())
    usable = drop_unusable_terms(_WORDS, index)
    if len(usable) < 2:
        return
    missing, known = usable[: len(usable) // 2], usable[len(usable) // 2 :]
    matrix = relatedness_matrix(missing, known, index)
    for row in matrix.cells:
        for cell in row:
            assert 0.0 <= cell <= 1.0


def reference_matrix(rows, cols, provider, cfg=DistanceConfig()) -> RelatednessMatrix:
    """Cell by cell from ``distance_from_counts`` and ``relatedness``, rows and
    columns in the order given; raises what the first bad cell raises."""
    n = provider.total_docs()
    distances = [
        [
            distance_from_counts(
                miss, term, provider.hits(miss), provider.hits(term),
                provider.pair_hits(miss, term), n, cfg,
            )
            for term in cols
        ]
        for miss in rows
    ]
    denominator = 0.0
    for row in distances:
        for value in row:
            denominator += value
    cells = tuple(tuple(relatedness(value, denominator) for value in row) for row in distances)
    return RelatednessMatrix(tuple(rows), tuple(cols), cells, denominator)


@pytest.mark.parametrize(
    "hits, error, message",
    [
        pytest.param(
            {"a": 16, "d": 0, "b": 8, "c": 4}, ValueError,
            "term 'd' has 0 hits; a relatedness batch needs 0 < hits < 64, the collection size",
            id="row-term-with-zero-hits",
        ),
        pytest.param(
            {"a": 16, "d": 8, "b": 8, "c": 64}, DegenerateDenominatorError,
            "term 'c' has 64 hits; a relatedness batch needs 0 < hits < 64, the collection size",
            id="column-term-with-n-hits",
        ),
        pytest.param(
            {"a": 16, "d": 0, "b": 8, "c": 64}, ValueError,
            "term 'd' has 0 hits; a relatedness batch needs 0 < hits < 64, the collection size",
            id="bad-row-before-bad-column",
        ),
    ],
)
def test_matrix_rejects_an_unusable_term_by_name(hits, error, message):
    table = snapshot_of(hits, {("a", "b"): 2, ("a", "c"): 1, ("d", "b"): 1}, 64)
    with pytest.raises(ValueError) as raised:
        relatedness_matrix(["a", "d"], ["b", "c"], table)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_matrix_raises_on_a_joint_count_above_min_after_a_good_cell():
    table = snapshot_of({"a": 16, "d": 8, "b": 8, "c": 4},
                        {("a", "b"): 2, ("a", "c"): 5, ("d", "b"): 99}, 64)
    message = "provider reports joint count 5 above min individual count for ('a', 'c')"
    with pytest.raises(ValueError) as raised:
        relatedness_matrix(["a", "d"], ["b", "c"], table)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


_BASES = ["java", "island", "sea", "reef"]


@st.composite
def snapshot_batches(draw):
    """A table over a few terms, and a row and a column set drawn from them in
    either case, with no term on a side twice once lowercased. Small totals
    give ties; every joint count is at most the smaller hit count."""
    total = draw(st.integers(2, 9))
    hits = {base: draw(st.integers(1, total - 1)) for base in _BASES}
    disjoint = draw(st.booleans())  # with cap 0 every distance is 0
    joint = {
        (a, b): 0 if disjoint else draw(st.integers(0, min(hits[a], hits[b])))
        for i, a in enumerate(_BASES) for b in _BASES[i:]
    }
    cap = 0.0 if disjoint else draw(st.sampled_from([0.0, 0.5, 1.0]))

    def side():
        bases = draw(st.lists(st.sampled_from(_BASES), min_size=1, unique=True))
        return sorted(
            (draw(st.sampled_from([base, base.capitalize()])) for base in bases),
            key=lambda t: (t.lower(), t),
        )

    return snapshot_of(hits, joint, total), side(), side(), DistanceConfig(cap)


def reference_selection(matrix: RelatednessMatrix, threshold: float, top_k) -> CandidateSet:
    """Per row, the first top_k admitted cells by (-value, lowered term,
    term), listed in column order."""
    per_term = {}
    for miss, row in zip(matrix.missing_terms, matrix.cells):
        scored = [(n, t, v) for n, (t, v) in enumerate(zip(matrix.ontology_terms, row))
                  if v >= threshold]
        best = sorted(scored, key=lambda cell: (-cell[2], cell[1].lower(), cell[1]))[:top_k]
        per_term[miss] = tuple((t, v) for _, t, v in sorted(best))
    return CandidateSet(per_term)


def reference_write(matrix: RelatednessMatrix, path: Path) -> None:
    lines = ["\t".join(["term", *matrix.ontology_terms])]
    for miss, row in zip(matrix.missing_terms, matrix.cells):
        lines.append("\t".join([miss, *(f"{value:.6f}" for value in row)]))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(snapshot_batches(), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_property_matrix_and_selection_equal_cell_by_cell_reference(batch, threshold):
    table, rows, cols, cfg = batch
    matrix = relatedness_matrix(rows, cols, table, cfg)
    assert matrix == reference_matrix(rows, cols, table, cfg)
    for top_k in (None, 1, 3):
        chosen = select_candidates(matrix, SelectionConfig(threshold, top_k))
        assert chosen == reference_selection(matrix, threshold, top_k)


_CELL_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def tied_matrices(draw, values=_CELL_VALUES):
    """Matrices with case-variant column terms (``Java`` and ``java``) and
    cells drawn from a few values, so most rows hold ties."""
    cols = draw(st.lists(
        st.sampled_from(["java", "Java", "JAVA", "island", "Island", "sea"]),
        min_size=1, max_size=6, unique=True,
    ))
    rows = draw(st.lists(st.sampled_from(["jawa", "Jawa", "reef"]), min_size=1, unique=True))
    cells = tuple(
        tuple(draw(st.lists(values, min_size=len(cols), max_size=len(cols))))
        for _ in rows
    )
    return RelatednessMatrix(tuple(rows), tuple(cols), cells, denominator=1.0)


@settings(max_examples=300, deadline=None)
@given(tied_matrices(), st.sampled_from([0.0, 0.25, 0.75]))
def test_property_selection_breaks_ties_like_the_sort_key(matrix, threshold):
    for top_k in (None, 1, 3):
        chosen = select_candidates(matrix, SelectionConfig(threshold, top_k))
        assert chosen == reference_selection(matrix, threshold, top_k)


def written_examples(*rows):
    """Explicit matrices of the written-matrix property: one row per cells
    tuple, over as many columns as its first row has cells."""
    cols = ("Java", "island", "sea")[: len(rows[0])]
    misses = ("jawa", "reef", "sea")[: len(rows)]
    return example(drawn=RelatednessMatrix(misses, cols, rows, denominator=1.0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(tied_matrices(values=st.floats()), snapshot_batches()))
@written_examples((0.0, -0.0))
@written_examples((-0.0, 0.0))
@written_examples((0.0, 0.5), (-0.0, 0.5))
@written_examples((math.nan, 0.5, -math.nan))
@written_examples((math.inf, -math.inf))
def test_property_written_matrix_equals_joined_lines(tmp_path_factory, drawn):
    if not isinstance(drawn, RelatednessMatrix):
        table, rows, cols, cfg = drawn
        drawn = relatedness_matrix(rows, cols, table, cfg)
    out = tmp_path_factory.mktemp("matrix")
    write_matrix(drawn, out / "streamed.tsv")
    reference_write(drawn, out / "joined.tsv")
    assert (out / "streamed.tsv").read_bytes() == (out / "joined.tsv").read_bytes()
