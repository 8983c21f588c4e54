import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich import textpipe
from ontoenrich.hitcounts import CorpusIndex, EmptyCorpusError, SnapshotTable, pair_key
from ontoenrich.textpipe import default_stoplist

from helpers import (
    OffsetCodes,
    build_index,
    phrase_table,
    scan_hits,
    scan_pair_hits,
    scan_phrase_docs,
    walk_phrase_docs,
)

WORKED_SNAPSHOT = (
    Path(__file__).resolve().parent.parent / "fixtures" / "snapshots" / "worked_examples.tsv"
)


@pytest.fixture
def four_docs():
    return [
        ("d/1", "java island tropics"),
        ("d/2", "java island coffee"),
        ("d/3", "java volcano"),
        ("d/4", "sea coast reef"),
    ]


def test_hits_counts_documents_not_occurrences(four_docs):
    index = build_index(four_docs)
    assert index.hits("java") == 3  # frozen from the document-scan oracle
    doc_tokens = {doc_id: text.split() for doc_id, text in four_docs}
    assert index.hits("java") == scan_hits(doc_tokens, "java")


def test_absent_phrase_hits_zero(four_docs):
    assert build_index(four_docs).hits("atlantis rising") == 0


def test_pair_hits_is_posting_intersection(four_docs):
    index = build_index(four_docs)
    assert index.pair_hits("java", "island") == 2
    doc_tokens = {doc_id: text.split() for doc_id, text in four_docs}
    assert index.pair_hits("java", "island") == scan_pair_hits(doc_tokens, "java", "island")


def test_phrase_in_every_document_hits_total():
    index = build_index([("d/1", "tide pool"), ("d/2", "tide line")])
    assert index.hits("tide") == index.total_docs() == 2


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        build_index([])


def test_index_matches_are_case_insensitive(four_docs):
    index = build_index(four_docs)
    assert index.hits("Java Island") == index.hits("java island") == 2


def test_phrase_cannot_cross_punctuation():
    index = build_index([("d/1", "deep reef, shallow bay")])
    assert index.hits("reef shallow") == 0
    assert index.hits("shallow bay") == 1


def test_long_pattern_query_scans(four_docs):
    index = build_index([("d/1", "a corporate body is an organization with members")])
    assert index.pattern_hits("corporate body is an organization") == 1
    assert index.pattern_hits("corporate body is a kind of organization") == 0


def test_build_index_matches_scan_oracle():
    # Index phrases keep their stopwords, unlike mined terms.
    texts = {
        "islands/one.txt": "the java island of the tropics",
        "islands/two.txt": "java island coffee",
        "islands/three.txt": "java volcano of java",
        "seas/four.txt": "sea coast reef",
    }
    index = build_index(texts.items())
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    for phrase in ["java", "island", "java island", "sea coast reef", "missing", "of",
                   "the java", "island of the", "of the tropics", "volcano of java",
                   "the java island of the tropics"]:
        assert index.hits(phrase) == scan_hits(doc_tokens, phrase), phrase
    assert index.pair_hits("of", "java island") == scan_pair_hits(doc_tokens, "of", "java island")


def test_index_cuts_queries_at_its_own_punctuation(four_docs):
    cases = [
        (four_docs, default_stoplist().punctuation, {"java": 3, "java island": 2, "sea coast": 1}),
        # "Ⓐ" is a boundary but its lowercase "ⓐ" is not: a query is cut at
        # punctuation as given, before it is lowercased.
        (
            [("d/1", "java ⓐ reef")],
            frozenset("Ⓐ"),
            {"java Ⓐ reef": 0, "JAVA ⓐ REEF": 1},
        ),
        # "." is no boundary here, so "three." is one token
        (
            [("d/1", "one two three. four")],
            frozenset("|"),
            {"two three.": 1, "two three": 0, "three. four": 1},
        ),
        # nor is "|" here
        ([("d/1", "a|b c")], frozenset("."), {"a|b c": 1, "a": 0}),
    ]
    for docs, punctuation, expected in cases:
        index = CorpusIndex.build(phrase_table(docs, punctuation))
        assert {query: index.hits(query) for query in expected} == expected
    assert index.pair_hits("a|b", "c") == 1


def test_snapshot_known_term():
    table = SnapshotTable.load(WORKED_SNAPSHOT)
    assert table.hits("Hindu-Buddhist") == 128_000


def test_snapshot_absent_key_zero():
    table = SnapshotTable.load(WORKED_SNAPSHOT)
    assert table.hits("Bears aided excellent") == 0


def test_snapshot_pattern_hits():
    table = SnapshotTable.load(WORKED_SNAPSHOT)
    assert table.pattern_hits("corporate body is an organization") == 80_700
    assert table.pattern_hits("corporate body is a kind of organization") == 0


def test_snapshot_pair_hits_symmetric():
    table = SnapshotTable.load(WORKED_SNAPSHOT)
    assert table.pair_hits("jawa", "Java") == table.pair_hits("Java", "jawa") == 480_000


def test_snapshot_is_pure_function_of_file(tmp_path):
    path = tmp_path / "snap.tsv"
    SnapshotTable.from_pairs([("a", 3), (pair_key("a", "b"), 1)], 10).save(path)
    first, second = SnapshotTable.load(path), SnapshotTable.load(path)
    queries = ["a", "b", "c"]
    assert [first.hits(q) for q in queries] == [second.hits(q) for q in queries]
    assert first.pair_hits("a", "b") == second.pair_hits("a", "b") == 1


def test_snapshot_requires_header(tmp_path):
    path = tmp_path / "snap.tsv"
    path.write_text("H\tjava\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing N"):
        SnapshotTable.load(path)


def test_snapshot_bad_count_reports_line(tmp_path):
    path = tmp_path / "snap.tsv"
    path.write_text("N\t10\nH\tjava\tmany\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        SnapshotTable.load(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("N\t-5\nH\tjava\t3\n", "line 1: N must be a positive integer, got '-5'"),
        ("N\t0\n", "line 1: N must be a positive integer, got '0'"),
        ("N\tabc\n", "line 1: N must be a positive integer, got 'abc'"),
        ("N\t10\nH\tjava\t3\nN\t12\n", "line 3: second N record"),
        ("N\t10\nH\tJava\t3\nH\tjava \t4\n", "line 3: duplicate key 'java'"),
        ("N\t10\nH\tjava\t-3\n", "line 2: bad count '-3'"),
    ],
)
def test_snapshot_load_rejects_bad_records(tmp_path, text, message):
    path = tmp_path / "snap.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        SnapshotTable.load(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "pairs, total, message",
    [
        ([("java", 3)], -5, "total must be a positive integer, got -5"),
        ([("java", 3)], 0, "total must be a positive integer, got 0"),
        ([("Java", 3), ("java ", 4)], 10, "duplicate key 'java'"),
        ([("java", 3), ("Java Sea", -1)], 10, "negative count for 'Java Sea'"),
    ],
)
def test_snapshot_from_pairs_rejects_what_load_rejects(pairs, total, message):
    with pytest.raises(ValueError, match=message):
        SnapshotTable.from_pairs(pairs, total)


_WORDS = st.sampled_from(["java", "island", "sea", "reef", "tide", "palm", "bay", "cove"])


@st.composite
def small_corpora(draw):
    n_docs = draw(st.integers(1, 16))
    texts = {}
    for i in range(n_docs):
        tokens = draw(st.lists(_WORDS, min_size=1, max_size=50))
        texts[f"d/{i:02d}"] = " ".join(tokens)
    return texts


@settings(max_examples=120, deadline=None)
@given(small_corpora(), st.lists(_WORDS, min_size=1, max_size=3), st.lists(_WORDS, min_size=1, max_size=3))
def test_property_index_equals_scan_oracle(texts, phrase_a, phrase_b):
    index = build_index(texts.items())
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    a, b = " ".join(phrase_a), " ".join(phrase_b)
    assert index.hits(a) == scan_hits(doc_tokens, a)
    assert index.hits(b) == scan_hits(doc_tokens, b)
    assert index.pair_hits(a, b) == scan_pair_hits(doc_tokens, a, b)


@settings(max_examples=120, deadline=None)
@given(small_corpora(), _WORDS, _WORDS)
def test_property_provider_invariants(texts, a, b):
    index = build_index(texts.items())
    pair = index.pair_hits(a, b)
    assert 0 <= pair <= min(index.hits(a), index.hits(b)) <= index.total_docs()
    assert index.pair_hits(a, b) == index.pair_hits(b, a)


def assert_documents(table, ids: list[str], query: str, doc_ids: set[str]) -> None:
    """The table's documents for the query are increasing numbers of the
    documents named by doc_ids; ids names each number, in add order."""
    numbers = table.documents(query)
    assert all(a < b for a, b in zip(numbers, numbers[1:])), query
    assert {ids[n] for n in numbers} == doc_ids, query


_LONG_WORDS = st.sampled_from(["java", "Java", "sea", "reef", "the", "of", "is", "an"])
_MARKS = st.sampled_from([""] * 12 + [",", ".", "(", ")"])


@st.composite
def long_phrase_cases(draw):
    """Documents with punctuation tokens, and 4-12 token queries, half of them
    windows of a document's words (which match unless the window crosses
    punctuation)."""
    texts, words_of = {}, {}
    for i in range(draw(st.integers(1, 8))):
        words = draw(st.lists(_LONG_WORDS, min_size=12, max_size=30))
        marks = draw(st.lists(_MARKS, min_size=len(words), max_size=len(words)))
        texts[f"d/{i}"] = " ".join(f"{word} {mark}" for word, mark in zip(words, marks))
        words_of[f"d/{i}"] = words
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(4, 12))
        if draw(st.booleans()):
            words = words_of[draw(st.sampled_from(sorted(words_of)))]
            start = draw(st.integers(0, len(words) - length))
            queries.append(" ".join(words[start : start + length]))
        else:
            queries.append(" ".join(draw(st.lists(_LONG_WORDS, min_size=length, max_size=length))))
    return texts, queries


@settings(max_examples=200, deadline=None)
@given(long_phrase_cases())
def test_property_long_phrase_equals_scan_oracle(case):
    texts, queries = case
    table = phrase_table(texts.items())
    index = CorpusIndex(table)
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    for query in queries:
        assert index.hits(query) == scan_hits(doc_tokens, query)
        assert_documents(table, list(texts), query, scan_phrase_docs(doc_tokens, query))


_CASED_WORDS = st.sampled_from(["java", "Java", "JAVA", "sea", "Reef", "is", "a", "x", "y"])
_PREFIXES = st.sampled_from([""] * 60 + ["(", '"'])
_SUFFIXES = st.sampled_from([""] * 60 + [".", ",", ")", " ."])
_CASES = st.sampled_from([str.lower, str.upper, str.title, str])


def _punctuate(tokens: list[str], style: str, k: int) -> str:
    """One of ``java is a``, ``(java is a``, ``java is a.``, ``java, is a``
    and ``(java is) a``, for style plain, lead, trail, comma and paren."""
    tokens = list(tokens)
    if style == "lead":
        tokens[0] = "(" + tokens[0]
    elif style == "trail":
        tokens[-1] += "."
    elif style == "comma":
        tokens[k - 1] += ","
    elif style == "paren":
        tokens[0], tokens[k - 1] = "(" + tokens[0], tokens[k - 1] + ")"
    return " ".join(tokens)


@st.composite
def punctuated_query_cases(draw):
    """Documents with punctuation glued to words or standing alone, and 1-12
    token queries in mixed case with leading, trailing or inner punctuation;
    half of them are windows of a document's words, so that the first window
    of a long one has a posting."""
    texts, words_of = {}, {}
    for i in range(draw(st.integers(1, 6))):
        words = draw(st.lists(_CASED_WORDS, min_size=8, max_size=24))
        pieces = [draw(_PREFIXES) + word + draw(_SUFFIXES) for word in words]
        texts[f"d/{i}"] = " ".join(pieces)
        words_of[f"d/{i}"] = words
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 12))
        words = words_of[draw(st.sampled_from(sorted(words_of)))]
        if draw(st.booleans()) and length <= len(words):
            start = draw(st.integers(0, len(words) - length))
            tokens = [draw(_CASES)(word) for word in words[start : start + length]]
        else:
            tokens = draw(st.lists(_CASED_WORDS, min_size=length, max_size=length))
        styles = ["plain", "lead", "trail"] + (["comma", "paren"] if length > 1 else [])
        queries.append(_punctuate(
            tokens, draw(st.sampled_from(styles)), draw(st.integers(1, max(1, length - 1)))
        ))
    return texts, queries


@settings(max_examples=300, deadline=None)
@given(punctuated_query_cases())
def test_property_punctuated_queries_equal_walk_oracle(case):
    texts, queries = case
    table = phrase_table(texts.items())
    index = CorpusIndex(table)
    for query in queries:
        expected = walk_phrase_docs(texts, query, default_stoplist().punctuation)
        assert index.hits(query) == index.pattern_hits(query) == len(expected), query
        assert_documents(table, list(texts), query, expected)


# The first code of each UTF-8 width past one byte, the surrogates' first
# and the first code past them; the last, sys.maxunicode + 1, stands for
# codes that end at the last code point.
_CODE_BOUNDARIES = [0x80, 0x800, 0xD800, 0xE000, 0x10000, sys.maxunicode + 1]
_CODE_WORDS = st.sampled_from(
    ["java", "Java", "sea", "SEA", "reef", "tide", "palm", "bay", "is", "a"])


@st.composite
def coded_corpus_cases(draw):
    """Documents with punctuation tokens, 1-6 token queries in mixed case,
    half of them windows of a document's words, and where the table's codes
    start: up to 8 tokens below a boundary of ``_CODE_BOUNDARIES``, the rest
    at or above it."""
    texts, words_of = {}, {}
    for i in range(draw(st.integers(1, 6))):
        words = draw(st.lists(_CODE_WORDS, min_size=1, max_size=20))
        marks = draw(st.lists(_MARKS, min_size=len(words), max_size=len(words)))
        texts[f"d/{i}"] = " ".join(f"{word} {mark}" for word, mark in zip(words, marks))
        words_of[f"d/{i}"] = words
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 6))
        words = words_of[draw(st.sampled_from(sorted(words_of)))]
        if draw(st.booleans()) and length <= len(words):
            start = draw(st.integers(0, len(words) - length))
            tokens = [draw(_CASES)(word) for word in words[start : start + length]]
        else:
            tokens = draw(st.lists(_CODE_WORDS, min_size=length, max_size=length))
        queries.append(" ".join(tokens))
    distinct = len({word.lower() for words in words_of.values() for word in words})
    below = draw(st.integers(0, 8))
    offset = min(draw(st.sampled_from(_CODE_BOUNDARIES)) - 1 - below, sys.maxunicode - distinct)
    return texts, queries, distinct, offset


@settings(max_examples=300, deadline=None)
@given(coded_corpus_cases())
def test_property_documents_equal_oracles_across_code_widths(case):
    # Codes of 1-4 UTF-8 bytes, and surrogates, side by side in one text: a
    # query's codes match only whole tokens of one span.
    texts, queries, distinct, offset = case
    with mock.patch.object(textpipe, "_Codes", partial(OffsetCodes, offset)):
        table = phrase_table(texts.items())
    codes = sorted(map(ord, table._codes.values()))
    assert codes == list(range(offset + 1, offset + distinct + 1))
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    for query in queries:
        expected = scan_phrase_docs(doc_tokens, query)
        assert walk_phrase_docs(texts, query, default_stoplist().punctuation) == expected
        assert_documents(table, list(texts), query, expected)


@settings(max_examples=150, deadline=None)
@given(small_corpora(), st.lists(st.lists(_WORDS, min_size=1, max_size=5), min_size=1,
                                 max_size=4), punctuated_query_cases())
def test_property_hits_equal_before_and_after_the_pair_memo(texts, phrases, case):
    # Multi-token terms against the scan oracle, punctuated ones against the
    # walk oracle. Once pair_hits has memoized a phrase, hits answers it
    # from the memo's bitset, without looking its documents up again.
    punctuated_texts, queries = case
    punctuation = default_stoplist().punctuation
    for docs, terms, oracle in [
        (texts, [" ".join(words) for words in phrases],
         lambda term: scan_hits({d: text.split() for d, text in texts.items()}, term)),
        (punctuated_texts, queries,
         lambda term: len(walk_phrase_docs(punctuated_texts, term, punctuation))),
    ]:
        index = build_index(docs.items())
        before = [index.hits(term) for term in terms]
        for term in terms:
            index.pair_hits(term, terms[0])
        index._table = None  # a memoized phrase must not need the table
        assert [index.hits(term) for term in terms] == before == list(map(oracle, terms))


@pytest.mark.parametrize(
    "text, query, absent_windows",
    [
        ("a b c . b c d", "a b c d", 0),          # both windows, split by punctuation
        ("a b c , c d e", "a b c d e", 1),        # all windows but "b c d"
        ("x y x y y x y x", "x y x y x", 0),      # "x y x" twice in the query
        ("x y x . y x", "x y x y x", 1),          # "y x y" absent
    ],
)
def test_long_phrase_absent_though_its_windows_occur(text, query, absent_windows):
    index = build_index([("d/0", text), ("d/1", "filler")])
    tokens = query.split()
    windows = {" ".join(tokens[i : i + 3]) for i in range(len(tokens) - 2)}
    assert all(index.hits(token) == 1 for token in tokens)
    assert sum(index.hits(window) == 0 for window in windows) == absent_windows
    assert index.hits(query) == scan_hits({"d/0": text.split()}, query) == 0


@settings(max_examples=120, deadline=None)
@given(
    small_corpora(),
    st.lists(_WORDS, min_size=1, max_size=5),
    st.lists(_WORDS, min_size=1, max_size=5),
    st.lists(st.sampled_from(["hits a", "hits b", "pair a b", "pair b a"]), min_size=1, max_size=8),
)
def test_property_interleaved_queries_equal_scan_oracle(texts, phrase_a, phrase_b, calls):
    index = build_index(texts.items())
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    terms = {"a": " ".join(phrase_a), "b": " ".join(phrase_b)}
    for call in calls:
        kind, *names = call.split()
        args = [terms[name] for name in names]
        if kind == "hits":
            assert index.hits(*args) == scan_hits(doc_tokens, *args)
        else:
            assert index.pair_hits(*args) == scan_pair_hits(doc_tokens, *args)


@pytest.mark.parametrize("n_docs", [1, 7, 8, 9, 63, 64, 65, 1_000])
def test_pair_hits_equal_scan_oracle_at_bit_boundaries(n_docs):
    # Memoized bitsets hold bit n for document n: the terms sit in the first
    # and the last document, at the edges of a byte and of a 30-bit digit.
    texts = {}
    for i in range(n_docs):
        words = ["filler"]
        if i % 3 == 0:
            words.append("java island")
        if i % 2 == 0:
            words.append("coffee")
        if i == 0:
            words.append("tide")
        if i == n_docs - 1:
            words += ["java island coffee", "reef"]
        texts[f"d/{i:04d}"] = " . ".join(words)
    index = build_index(texts.items())
    doc_tokens = {doc_id: text.split() for doc_id, text in texts.items()}
    terms = ("java island", "coffee", "tide", "reef", "filler")
    for _ in range(2):  # the second round answers from a warm memo
        for a in terms:
            for b in terms:
                assert index.pair_hits(a, b) == scan_pair_hits(doc_tokens, a, b), (a, b)
    assert index.pair_hits("reef", "java island") == 1
    assert index.pair_hits("tide", "reef") == (n_docs == 1)


def test_pair_memo_retains_one_bitset_per_term():
    # 20 terms, each in every other one of 4,000 documents: a set of document
    # numbers per term kept about 131 KB each. An int of N bits takes a
    # 4-byte digit per 30 bits, plus its header and the memo's entry.
    n_docs = 4_000
    terms = [f"term{i}" for i in range(20)]
    every_other = " ".join(terms)
    index = build_index(
        (f"d/{i:04d}", every_other if i % 2 else "filler") for i in range(n_docs)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for term in terms:
            assert index.pair_hits(term, term) == n_docs // 2
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(terms) <= 4 * -(-n_docs // 30) + 64
