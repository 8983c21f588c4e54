import hashlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich.hitcounts import CorpusIndex
from ontoenrich.ontology import Instance, load_ontology
from ontoenrich.textpipe import (
    MAX_NGRAM_LEN,
    TermPartition,
    default_stoplist,
    load_corpus,
    parse_stoplist,
    partition_terms,
    read_documents,
    tokenize_corpus,
)

from helpers import phrase_table, walk_terms

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


def mine(stoplist, *texts: str) -> dict[tuple[str, ...], str]:
    """Mined surfaces of one document per text, keyed by their lowercased tokens."""
    table = phrase_table([(f"d/{i}", text) for i, text in enumerate(texts)], stoplist.punctuation)
    return {tuple(surface.lower().split()): surface for surface in table.mined_terms(stoplist)}


def surfaces(stoplist, *texts: str) -> set[str]:
    return set(mine(stoplist, *texts).values())


def test_strip_stopwords_drops_words_and_punctuation(stoplist):
    grams = mine(stoplist, JAVA_SENTENCE)
    unigrams = [surface for key, surface in grams.items() if len(key) == 1]
    assert sorted(unigrams) == ["Indonesia", "Indonesian", "Java", "Jawa", "island"]
    for banned in ["is", "an", "of", "(", ")", ":"]:
        assert not any(banned in key for key in grams)


def test_strip_stopwords_empty_text(stoplist):
    table = phrase_table([], stoplist.punctuation)
    assert len(table) == 0 and list(table.mined_terms(stoplist)) == []


def test_strip_stopwords_only_stopwords(stoplist):
    assert mine(stoplist, "the of an a , . ( )") == {}


def test_spans_break_at_stopwords_and_punctuation(stoplist):
    assert surfaces(stoplist, "its capital city, Jakarta.") == {
        "capital", "city", "capital city", "Jakarta"
    }


def test_hyphenated_words_are_single_tokens(stoplist):
    grams = surfaces(stoplist, "powerful Hindu-Buddhist kingdoms")
    assert len(grams) == 6
    assert "powerful Hindu-Buddhist kingdoms" in grams


def test_tokenize_flat_three_tokens(stoplist):
    grams = surfaces(stoplist, "java island indonesia")
    assert len(grams) == 6
    assert {"java island indonesia", "island indonesia"} <= grams


def test_tokenize_single_token(stoplist):
    assert surfaces(stoplist, "java") == {"java"}


def test_tokenize_java_article_contains_expected_ngrams(stoplist):
    keys = mine(stoplist, JAVA_ARTICLE).keys()
    assert ("dutch", "east", "indies") in keys
    assert ("hindu-buddhist", "kingdoms") in keys
    assert ("capital", "city") in keys


def test_ngrams_never_cross_boundaries(stoplist):
    assert surfaces(stoplist, "island of Indonesia") == {"island", "Indonesia"}


def test_partition_java_article(stoplist, mini_onto):
    grams = mine(stoplist, JAVA_ARTICLE).values()
    partition = partition_terms(grams, mini_onto, frozenset())
    concepts = {surface.lower() for surface in partition.concepts}
    missing = {surface.lower() for surface in partition.missing}
    for surface in ["java", "island", "indonesia", "capital city", "dutch east indies"]:
        assert surface in concepts
    assert "jawa" in missing
    assert "hindu-buddhist" in missing
    assert "jakarta" not in concepts | missing  # an instance label
    for terms in (partition.concepts, partition.missing):
        assert list(terms) == sorted(terms, key=str.lower)


def test_partition_instance_match(mini_onto):
    partition = partition_terms(["Jakarta", "Java"], mini_onto, frozenset())
    assert partition == TermPartition(("Java",), ())


def test_partition_empty_input(mini_onto):
    assert partition_terms([], mini_onto, frozenset()) == TermPartition((), ())


def test_partition_all_in_gazetteer(mini_onto):
    gaz = frozenset({"zorbium", "fennite"})
    partition = partition_terms(["zorbium", "Fennite"], mini_onto, gaz)
    assert partition == TermPartition((), ())


def test_partition_gazetteer_checked_before_ontology(mini_onto):
    assert partition_terms(["Java"], mini_onto, frozenset()).concepts == ("Java",)
    gaz = frozenset({"java"})
    assert partition_terms(["Java"], mini_onto, gaz) == TermPartition((), ())


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
    assert load_corpus(tmp_path) == [
        ("islands/a.txt", str(tmp_path / "islands" / "a.txt")),
        ("islands/b.txt", str(tmp_path / "islands" / "b.txt")),
    ]

    # Symlinks to a domain or an article are followed; stray top-level files,
    # nested directories and broken links are skipped; names sort as strings.
    (tmp_path / "README").write_text("not a domain", encoding="utf-8")
    (tmp_path / "islands" / "nested").mkdir()
    (tmp_path / "islands" / "nested" / "c.txt").write_text("Bali island", encoding="utf-8")
    (tmp_path / "islands" / "B.txt").write_text("Sumatra island", encoding="utf-8")
    (tmp_path / "islands" / "é.txt").write_text("Flores island", encoding="utf-8")
    (tmp_path / "islands" / "link.txt").symlink_to(tmp_path / "islands" / "a.txt")
    (tmp_path / "islands" / "broken.txt").symlink_to(tmp_path / "ghost.txt")
    (tmp_path / "atolls").symlink_to(tmp_path / "islands", target_is_directory=True)
    ids = [doc_id for doc_id, _ in load_corpus(tmp_path)]
    expected = ["B.txt", "a.txt", "b.txt", "link.txt", "é.txt"]
    assert ids == [f"{domain}/{name}" for domain in ("atolls", "islands") for name in expected]


@pytest.mark.parametrize("name", ["sci\tence", "sci\nence", "sci\rence", "sci\x1cence", "science\n"])
def test_corpus_rejects_a_domain_name_that_breaks_a_judgments_field(tmp_path, name):
    # A domain is a field of system_judgments.tsv; a tab or line break in it
    # would make a file its own reader rejects.
    (tmp_path / name).mkdir()
    (tmp_path / name / "a.txt").write_text("Java island", encoding="utf-8")
    with pytest.raises(ValueError, match="has a tab or line break in its name") as error:
        load_corpus(tmp_path)
    assert repr(str(tmp_path / name)) in str(error.value)


def test_document_accounting_merges_sources(stoplist):
    table = phrase_table([("d/one", "Java island"), ("d/two", "java coffee")], stoplist.punctuation)
    assert table.postings["java"] == [0, 1]
    assert table.documents(("java",)) == [0, 1]
    # A mined term's documents are those the index answers from.
    index = CorpusIndex.build(table)
    for surface in table.mined_terms(stoplist):
        assert index.hits(surface) == len(table.documents(surface.lower().split())) > 0


def test_lowered_surface_splits_into_its_phrase(stoplist):
    # A run looks a mined surface's documents up by surface.lower().split().
    # "Σ" lowers to "ς" at a token end and to "σ" elsewhere, "İ" to two code
    # points and "ß" to itself; each token of the table is lowered alone.
    table = phrase_table(
        [("d/1", "ΟΔΟΣ İstanbul straße"), ("d/2", "ΣΑΣ ΟΔΟΣ, İstanbul ΣΟΣ Straße")],
        stoplist.punctuation,
    )
    mined = set(table.mined_terms(stoplist))
    assert {"ΟΔΟΣ İstanbul straße", "ΣΑΣ ΟΔΟΣ", "İstanbul ΣΟΣ Straße"} <= mined
    checked = 0
    for phrase in table.phrases:
        surface = " ".join(table.surfaces.get(phrase, phrase))
        if surface in mined:
            assert surface.lower().split() == list(phrase)
            assert table.documents(surface.lower().split()) == table.documents(phrase)
            checked += 1
    assert checked == len(mined)


@pytest.mark.parametrize("text", ["", "　\x1c \n"])
def test_document_rejects_text_of_only_whitespace(tmp_path, text):
    # U+3000 and U+001C are whitespace to str.isspace as they are to str.strip.
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "blank").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="^document 'd/blank' has empty text$"):
        list(read_documents(load_corpus(tmp_path), hashlib.sha256()))


def test_first_surface_follows_document_id_order(tmp_path, stoplist):
    # The domain "a" sorts before "a-b", but the id "a-b/..." before "a/...":
    # documents are numbered, and first surfaces taken, in id order.
    for domain, text in [("a", "desk lamp"), ("a-b", "Desk chair")]:
        (tmp_path / domain).mkdir()
        (tmp_path / domain / "doc.txt").write_text(text, encoding="utf-8")
    documents = read_documents(load_corpus(tmp_path), hashlib.sha256())
    table = tokenize_corpus(documents, stoplist.punctuation)
    assert table.doc_ids == ["a-b/doc.txt", "a/doc.txt"]
    assert table.documents(["desk"]) == [0, 1]
    mined = set(table.mined_terms(stoplist))
    assert "Desk" in mined and "desk" not in mined


def test_stoplist_requires_words():
    with pytest.raises(ValueError):
        parse_stoplist("(\n)\n")


_WORDS = st.sampled_from(["java", "island", "sea", "reef", "tide", "palm", "Bay"])
_STOPS = st.sampled_from(["the", "of", "an"])


@st.composite
def texts(draw):
    parts = draw(st.lists(st.one_of(_WORDS, _STOPS), min_size=1, max_size=12))
    return " ".join(parts)


@given(texts())
def test_property_partition_totality(text):
    stoplist = default_stoplist()
    onto = load_ontology(MINI_ONTOLOGY)
    grams = mine(stoplist, text).values()
    partition = partition_terms(grams, onto, frozenset())
    instances = [s for s in grams if isinstance(onto.contains_term(s), Instance)]
    assert sorted([*partition.concepts, *partition.missing, *instances]) == sorted(grams)


@given(texts())
def test_property_tokenization_deterministic(text):
    stoplist = default_stoplist()
    assert mine(stoplist, text) == mine(stoplist, text)


@given(texts())
def test_property_no_ngram_crosses_stopword(text):
    stoplist = default_stoplist()
    words = tuple(text.lower().split())
    for key in mine(stoplist, text):
        assert stoplist.words.isdisjoint(key)
        assert any(words[i : i + len(key)] == key for i in range(len(words)))


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
    assert ("reef,", "(shallow)", "bay") in mine(no_punctuation, "deep reef, (shallow) bay")


# Pieces are joined without separators, so words, stopwords and punctuation
# also fuse into single raw tokens such as "The-reef]".
_PIECES = st.sampled_from(
    ["java", "Java", "Reef", "reef", "sea-bay", "Hindu-Buddhist", "the", "The", "OF", "aN",
     "-", " ", "\t", "\n", "\x1c", ",", ".", "(", ")", "[", "]", "^", "\\", "|", ":"]
)


@pytest.mark.parametrize("variant", sorted(STOPLISTS))
@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=40).map("".join), min_size=1, max_size=3))
def test_property_mined_terms_equal_character_walk(variant, texts):
    stoplist = STOPLISTS[variant]
    # Ids sort against load order, so a first surface taken in id order shows.
    docs = [(f"d{9 - i}/doc", text) for i, text in enumerate(texts) if text.strip()]
    table = phrase_table(docs, stoplist.punctuation)
    got = {}
    for surface in table.mined_terms(stoplist):
        key = tuple(surface.lower().split())
        got[key] = (tuple(surface.split()), {table.doc_ids[n] for n in table.documents(key)})
    assert got == walk_terms(docs, stoplist, MAX_NGRAM_LEN)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=40).map("".join), min_size=1, max_size=6))
def test_property_postings_are_increasing_doc_numbers(texts):
    stoplist = default_stoplist()
    docs = [(f"d{9 - i}/doc", text) for i, text in enumerate(texts) if text.strip()]
    table = phrase_table(docs, stoplist.punctuation)
    assert table.doc_ids == [doc_id for doc_id, _ in docs]
    # Every phrase, stopwords included: the walk with no stopwords.
    cut = SimpleNamespace(words=frozenset(), punctuation=stoplist.punctuation)
    walked = walk_terms(docs, cut, MAX_NGRAM_LEN)
    assert table.phrases == walked.keys()
    assert len(table) == len(walked)
    for key, (_, doc_ids) in walked.items():
        assert {table.doc_ids[n] for n in table.documents(key)} == doc_ids
        assert CorpusIndex.build(table).hits(" ".join(key)) == len(doc_ids)
    assert table.postings.keys() == {key[0] for key in walked if len(key) == 1}
    for token, posting in table.postings.items():
        assert type(posting) is list and all(type(n) is int for n in posting)
        assert all(a < b for a, b in zip(posting, posting[1:]))
        assert {table.doc_ids[n] for n in posting} == walked[(token,)][1]
