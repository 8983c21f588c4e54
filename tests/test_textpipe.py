from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich.ontology import load_ontology
from ontoenrich.textpipe import (
    Corpus,
    Document,
    Gazetteer,
    NGram,
    Stoplist,
    default_stoplist,
    load_corpus,
    parse_stoplist,
    partition_terms,
    split_spans,
    tokenize_corpus,
    tokenize_ngrams,
)

from helpers import walk_spans

MINI_ONTOLOGY = Path(__file__).resolve().parent.parent / "fixtures" / "mini_ontology.tsv"

JAVA_SENTENCE = "Java (Indonesian: Jawa) is an island of Indonesia"

JAVA_ARTICLE = """\
Java (Indonesian: Jawa) is a large island of Indonesia. The capital city
Jakarta lies on its northwestern coast. Powerful Hindu-Buddhist kingdoms and
Islamic sultanates once ruled here, and the island later became the core of
the colonial Dutch East Indies. Indonesia now counts a population of 130
million on Java, where economic and political life plays a dominant role.
"""


@pytest.fixture(scope="module")
def stoplist():
    return default_stoplist()


@pytest.fixture(scope="module")
def mini_onto(mini_ontology_path):
    return load_ontology(mini_ontology_path)


def test_strip_stopwords_drops_words_and_punctuation(stoplist):
    spans = split_spans(JAVA_SENTENCE, stoplist)
    tokens = [token for span in spans for token in span]
    assert tokens == ["Java", "Indonesian", "Jawa", "island", "Indonesia"]
    for banned in ["is", "an", "of", "(", ")", ":"]:
        assert banned not in tokens


def test_strip_stopwords_empty_text(stoplist):
    assert split_spans("", stoplist) == []


def test_strip_stopwords_only_stopwords(stoplist):
    assert split_spans("the of an a , . ( )", stoplist) == []


def test_spans_break_at_stopwords_and_punctuation(stoplist):
    spans = split_spans("its capital city, Jakarta.", stoplist)
    assert spans == [["capital", "city"], ["Jakarta"]]


def test_hyphenated_words_are_single_tokens(stoplist):
    spans = split_spans("powerful Hindu-Buddhist kingdoms", stoplist)
    assert spans == [["powerful", "Hindu-Buddhist", "kingdoms"]]


def test_tokenize_flat_three_tokens():
    grams = tokenize_ngrams([["java", "island", "indonesia"]])
    surfaces = {g.surface for g in grams}
    assert len(grams) == 6
    assert "java island indonesia" in surfaces
    assert "island indonesia" in surfaces


def test_tokenize_single_token():
    grams = tokenize_ngrams([["java"]])
    assert {g.surface for g in grams} == {"java"}


def test_tokenize_java_article_contains_expected_ngrams(stoplist):
    grams = tokenize_ngrams(split_spans(JAVA_ARTICLE, stoplist))
    keys = {g.key for g in grams}
    assert ("dutch", "east", "indies") in keys
    assert ("hindu-buddhist", "kingdoms") in keys
    assert ("capital", "city") in keys


def test_ngrams_never_cross_boundaries(stoplist):
    grams = tokenize_ngrams(split_spans("island of Indonesia", stoplist))
    assert {g.surface for g in grams} == {"island", "Indonesia"}


def test_partition_java_article(stoplist, mini_onto):
    grams = tokenize_ngrams(split_spans(JAVA_ARTICLE, stoplist))
    partition = partition_terms(grams, mini_onto, Gazetteer.empty())
    known = {k.ngram.surface.lower() for k in partition.known}
    missing = {m.surface.lower() for m in partition.missing}
    for surface in ["java", "island", "indonesia", "capital city", "dutch east indies"]:
        assert surface in known
    assert "jawa" in missing
    assert "hindu-buddhist" in missing


def test_partition_instance_match(stoplist, mini_onto):
    grams = tokenize_ngrams([["Jakarta"]])
    partition = partition_terms(grams, mini_onto, Gazetteer.empty())
    assert partition.known[0].source == "instance"
    assert partition.known[0].concept_id == "jakarta"


def test_partition_empty_input(mini_onto):
    partition = partition_terms([], mini_onto, Gazetteer.empty())
    assert partition.known == () and partition.missing == ()


def test_partition_all_in_gazetteer(mini_onto):
    gaz = Gazetteer.from_pairs([("zorbium", "mineral"), ("fennite", "mineral")])
    grams = tokenize_ngrams([["zorbium"]]) | tokenize_ngrams([["fennite"]])
    partition = partition_terms(grams, mini_onto, gaz)
    assert partition.missing == ()
    assert all(k.source == "gazetteer" for k in partition.known)


def test_partition_gazetteer_checked_before_ontology(mini_onto):
    gaz = Gazetteer.from_pairs([("Java", "location")])
    partition = partition_terms(tokenize_ngrams([["Java"]]), mini_onto, gaz)
    assert partition.known[0].source == "gazetteer"
    assert partition.known[0].kind == "location"


def test_pos_tag_two_categories(mini_onto):
    assert mini_onto.concepts["book"].categories == frozenset({"noun", "verb"})


def test_pos_tag_single_category(mini_onto):
    assert mini_onto.concepts["plays"].categories == frozenset({"verb"})


def test_pos_tag_unrecorded_is_empty(mini_onto):
    assert mini_onto.concepts["island"].categories == frozenset()


def test_corpus_loading(tmp_path):
    (tmp_path / "islands").mkdir()
    (tmp_path / "islands" / "a.txt").write_text("Java island", encoding="utf-8")
    (tmp_path / "islands" / "b.txt").write_text("Jawa island", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert [d.id for d in corpus.documents] == ["islands/a.txt", "islands/b.txt"]
    assert corpus.documents[0].domain == "islands"


def test_document_accounting_merges_sources(stoplist):
    corpus = Corpus(
        (
            Document("d/one", "d", "Java island"),
            Document("d/two", "d", "java coffee"),
        )
    )
    grams = tokenize_corpus(corpus, stoplist)
    java = next(g for g in grams if g.key == ("java",))
    assert java.doc_ids == {"d/one", "d/two"}


def test_stoplist_requires_words():
    with pytest.raises(ValueError):
        parse_stoplist("(\n)\n")


_WORDS = st.sampled_from(["java", "island", "sea", "reef", "tide", "palm", "Bay"])
_STOPS = st.sampled_from(["the", "of", "an"])


@st.composite
def texts(draw):
    parts = draw(st.lists(st.one_of(_WORDS, _STOPS), min_size=0, max_size=12))
    return " ".join(parts)


@given(texts())
def test_property_partition_totality(text):
    stoplist = default_stoplist()
    onto = load_ontology(MINI_ONTOLOGY)
    grams = tokenize_ngrams(split_spans(text, stoplist))
    partition = partition_terms(grams, onto, Gazetteer.empty())
    assert len(partition.known) + len(partition.missing) == len(grams)


@given(texts())
def test_property_tokenization_deterministic(text):
    stoplist = default_stoplist()
    first = {g.key for g in tokenize_ngrams(split_spans(text, stoplist))}
    second = {g.key for g in tokenize_ngrams(split_spans(text, stoplist))}
    assert first == second


@given(texts())
def test_property_no_ngram_crosses_stopword(text):
    stoplist = default_stoplist()
    spans = split_spans(text, stoplist)
    for gram in tokenize_ngrams(spans):
        joined = [tuple(t.lower() for t in span) for span in spans]
        n = len(gram.key)
        assert any(
            span[i : i + n] == gram.key
            for span in joined
            for i in range(len(span) - n + 1)
        )


_DEFAULT_WORDS = "\n".join(sorted(default_stoplist().words))
STOPLISTS = {
    "default": default_stoplist(),
    "no-punctuation": parse_stoplist(_DEFAULT_WORDS),
    "odd-punctuation": parse_stoplist(_DEFAULT_WORDS + "\n-\n]\n^\n\\\n"),
}


def test_stoplist_variants_punctuation():
    assert STOPLISTS["odd-punctuation"].punctuation == frozenset("-]^\\")
    no_punctuation = STOPLISTS["no-punctuation"]
    assert no_punctuation.punctuation == frozenset()
    assert split_spans("deep reef, (shallow) bay", no_punctuation) == [
        ["deep", "reef,", "(shallow)", "bay"]
    ]


# Pieces are joined without separators, so words, stopwords and punctuation
# also fuse into single raw tokens such as "The-reef]".
_PIECES = st.sampled_from(
    ["java", "Reef", "sea-bay", "Hindu-Buddhist", "the", "The", "OF", "aN", "-",
     " ", "\t", "\n", "\x1c", ",", ".", "(", ")", "[", "]", "^", "\\", "|", ":"]
)


@pytest.mark.parametrize("variant", sorted(STOPLISTS))
@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_property_split_spans_equals_character_walk(variant, text):
    stoplist = STOPLISTS[variant]
    assert split_spans(text, stoplist) == walk_spans(text, stoplist)
