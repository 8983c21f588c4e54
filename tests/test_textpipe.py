import hashlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ontoenrich.hitcounts import CorpusIndex
from ontoenrich.ontology import Instance, load_ontology
from ontoenrich.textpipe import (
    MAX_NGRAM_LEN,
    PhraseTable,
    TermPartition,
    default_stoplist,
    load_corpus,
    parse_stoplist,
    partition_terms,
    read_documents,
    tokenize_corpus,
)

from helpers import OffsetCodes, corpus_digest, phrase_table, walk_spans, walk_terms

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
    assert list(load_corpus(tmp_path)) == [
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


def test_articles_stream_in_sorted_id_order(tmp_path):
    # Ids sort as strings, so the domain "a" goes after "a-b" and "a.b" but
    # before "a0": domains are listed in the order of their name plus "/".
    for domain in ("a", "a-b", "a.b", "a0", "b"):
        (tmp_path / domain).mkdir()
        for name in ("-", "A", "a", "z"):
            (tmp_path / domain / name).write_text("Java island", encoding="utf-8")
    articles = load_corpus(tmp_path)
    assert iter(articles) is articles
    pairs = list(articles)
    assert len(pairs) == 20 and pairs == sorted(pairs)


def test_corpus_path_must_be_an_existing_directory(tmp_path):
    # load_corpus raises when called, before any article is taken; so it
    # does for a domain name that breaks a judgments field.
    (tmp_path / "file").write_text("Java island", encoding="utf-8")
    with pytest.raises(NotADirectoryError, match="^corpus path .*file is not a directory$"):
        load_corpus(tmp_path / "file")
    with pytest.raises(FileNotFoundError, match="^corpus directory .*ghost does not exist$"):
        load_corpus(tmp_path / "ghost")


@pytest.mark.parametrize("name", ["sci\tence", "sci\nence", "sci\rence", "sci\x1cence", "science\n"])
def test_corpus_rejects_a_domain_name_that_breaks_a_judgments_field(tmp_path, name):
    # A domain is a field of system_judgments.tsv; a tab or line break in it
    # would make a file its own reader rejects.
    (tmp_path / name).mkdir()
    (tmp_path / name / "a.txt").write_text("Java island", encoding="utf-8")
    with pytest.raises(ValueError, match="has a tab or line break in its name") as error:
        load_corpus(tmp_path)
    assert repr(str(tmp_path / name)) in str(error.value)


def test_domain_names_are_checked_before_any_document_is_read(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "b\tc").mkdir()
    (tmp_path / "b\tc" / "a.txt").write_text("Java island", encoding="utf-8")
    with pytest.raises(ValueError, match="has a tab or line break in its name"):
        list(read_documents(load_corpus(tmp_path), hashlib.sha256()))


def test_postings_pack_document_numbers_in_four_bytes():
    # Document numbers past 2**8 and 2**16; a one-token result is a
    # read-only view of its posting, a longer one a filtered list.
    numbers = range(70_000)
    table = phrase_table((f"d/{n}", "reef sea" if n % 3 else "reef") for n in numbers)
    assert list(table.documents("reef")) == list(numbers)
    assert list(table.documents("sea")) == table.documents("reef sea") == [
        n for n in numbers if n % 3]
    assert len(table.postings["reef"]) == 4 * len(numbers)
    assert len(table.postings["sea"]) == 4 * len(table.documents("reef sea"))
    with pytest.raises(TypeError):
        table.documents("reef")[0] = 1


def test_document_accounting_merges_sources(stoplist):
    table = phrase_table([("d/one", "Java island"), ("d/two", "java coffee")], stoplist.punctuation)
    assert memoryview(table.postings["java"]).cast("I").tolist() == [0, 1]
    assert list(table.documents("java")) == list(table.documents("JAVA")) == [0, 1]
    # A mined term's documents are those the index answers from.
    index = CorpusIndex.build(table)
    for surface in table.mined_terms(stoplist):
        assert index.hits(surface) == len(table.documents(surface)) > 0


def test_lowered_surface_splits_into_its_phrase(stoplist):
    # A run looks a mined surface's documents up by the surface, which
    # PhraseTable.documents lowers whole and splits, as it has no punctuation.
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
            assert table.documents(surface) == table.documents(" ".join(phrase))
            checked += 1
    assert checked == len(mined)


@pytest.mark.parametrize("text", ["", "　\x1c \n"])
def test_document_rejects_text_of_only_whitespace(tmp_path, text):
    # U+3000 and U+001C are whitespace to str.isspace as they are to str.strip.
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "blank").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="^document 'd/blank' has empty text$"):
        list(read_documents(load_corpus(tmp_path), hashlib.sha256()))


def _read_test_files() -> dict[str, bytes]:
    """Files around the 8 KiB and 64 KiB marks: a multi-byte character and a
    CRLF across 8,192 bytes, CRLF and lone CR line ends."""
    body = ("reef sea\r\njava tide\rpalm é bay €\n" * 3000).encode("utf-8")
    return {
        "d/8192": b"x" * 8192,
        "d/70000": (b"y" * 8191 + "é".encode("utf-8") + body)[:70_000],
        "d/crlf": b"z" * 8191 + b"\r\n" + body[:9000],
        "d/euro": b"w" * 8190 + "€".encode("utf-8") + b"\rtail\r",
        "d/small": b"reef sea\r\r\njava\r",
    }


# os.fstat's size as it is, and understated, as it is for a file that grew
# since, or one that reports no size; reading goes on to the end either way.
@pytest.mark.parametrize("stat_size", [None, 0, 100])
def test_read_documents_equals_text_mode_reading(tmp_path, monkeypatch, stat_size):
    files = _read_test_files()
    assert len(files["d/70000"]) == 70_000
    for doc_id, data in files.items():
        (tmp_path / doc_id).parent.mkdir(exist_ok=True)
        (tmp_path / doc_id).write_bytes(data)
    if stat_size is not None:
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=stat_size))
    digest = hashlib.sha256()
    got = list(read_documents(load_corpus(tmp_path), digest))
    expected = [(doc_id, Path(path).read_text(encoding="utf-8"))
                for doc_id, path in load_corpus(tmp_path)]
    assert got == expected
    assert [doc_id for doc_id, _ in got] == sorted(files)
    assert digest.hexdigest() == corpus_digest(expected)


@pytest.mark.parametrize("stat_size", [None, 0])
def test_read_documents_rejects_empty_and_undecodable_files(tmp_path, monkeypatch, stat_size):
    if stat_size is not None:
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=stat_size))
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "empty").write_bytes(b"")
    with pytest.raises(ValueError, match="^document 'd/empty' has empty text$"):
        list(read_documents(load_corpus(tmp_path), hashlib.sha256()))
    (tmp_path / "d" / "empty").unlink()
    # The offset is the byte's in the file, past both the 8 KiB and 64 KiB marks.
    (tmp_path / "d" / "bad").write_bytes(b"reef\r\n" * 12_000 + b"\xff sea")
    with pytest.raises(UnicodeDecodeError, match="byte 0xff in position 72000: "):
        list(read_documents(load_corpus(tmp_path), hashlib.sha256()))


def test_first_surface_follows_document_id_order(tmp_path, stoplist):
    # The domain "a" sorts before "a-b", but the id "a-b/..." before "a/...":
    # documents are numbered, and first surfaces taken, in id order.
    for domain, text in [("a", "desk lamp"), ("a-b", "Desk chair")]:
        (tmp_path / domain).mkdir()
        (tmp_path / domain / "doc.txt").write_text(text, encoding="utf-8")
    documents = read_documents(load_corpus(tmp_path), hashlib.sha256())
    table = tokenize_corpus(documents, stoplist.punctuation)
    ids = ["a-b/doc.txt", "a/doc.txt"]  # add order
    assert [ids[n] for n in table.documents("chair")] == ["a-b/doc.txt"]
    assert [ids[n] for n in table.documents("lamp")] == ["a/doc.txt"]
    assert table.domains == ["a-b", "a"]
    assert list(table.documents("desk")) == [0, 1]
    mined = set(table.mined_terms(stoplist))
    assert "Desk" in mined and "desk" not in mined


def test_each_lowercase_token_is_one_object():
    table = phrase_table([("d/0", "The reef, THE sea. İstanbul the reef"),
                          ("d/1", "the İSTANBUL reef; İstanbul THE")])
    shared: dict[str, str] = {}
    for token in [*(token for phrase in table.phrases for token in phrase), *table.postings]:
        assert shared.setdefault(token, token) is token, token
    assert shared.keys() == {"the", "reef", "sea", "i\u0307stanbul"}


def test_documents_of_one_domain_share_one_domain_string():
    # Each id is its own string object, and so is each split of it.
    table = phrase_table([("".join(["reef", "/", str(n)]), "sea") for n in range(3)])
    assert table.domains == ["reef"] * 3
    assert table.domains[0] is table.domains[1] is table.domains[2]


def test_codes_follow_first_appearance_in_document_order():
    # Codes count from 1 in the order tokens first occur, which no hash
    # seed changes; a text is its spans' codes joined by "\0", as UTF-8.
    docs = [("d/0", "The reef, THE sea. İstanbul the reef"),
            ("d/1", "the İSTANBUL bay; İstanbul THE")]
    table = phrase_table(docs)
    cut = SimpleNamespace(words=frozenset(), punctuation=default_stoplist().punctuation)
    spans = [walk_spans(text, cut) for _, text in docs]
    first = list(dict.fromkeys(token.lower() for doc in spans for span in doc for token in span))
    assert first == ["the", "reef", "sea", "i\u0307stanbul", "bay"]
    assert list(table._codes.items()) == [(token, chr(n)) for n, token in enumerate(first, 1)]
    assert table.texts == [
        b"\0".join(bytes(first.index(token.lower()) + 1 for token in span) for span in doc)
        for doc in spans]


@pytest.mark.parametrize("last", [0x7F, 0x7FF, 0xD7FF, 0xDBFF, 0xFFFF])
def test_codes_cross_utf8_width_boundaries(last):
    # Three tokens coded last .. last + 2: from 1 to 2 UTF-8 bytes, 2 to 3,
    # into the surrogates (encoded as "surrogatepass" does), from a high
    # surrogate to a low one, and from 3 bytes to 4.
    table = PhraseTable(frozenset(","))
    table._codes = OffsetCodes(last - 1)
    table.add("d", [["reef", "sea"], ["java", "reef"]])
    table.add("d", [["sea", "java", "reef"]])
    reef, sea, java = (chr(code) for code in range(last, last + 3))
    assert table._codes == {"reef": reef, "sea": sea, "java": java}
    assert table.texts == [(reef + sea + "\0" + java + reef).encode("utf-8", "surrogatepass"),
                           (sea + java + reef).encode("utf-8", "surrogatepass")]
    widths = [len(code.encode("utf-8", "surrogatepass")) for code in (reef, sea, java)]
    assert widths in ([1, 2, 2], [2, 3, 3], [3, 3, 3], [3, 4, 4])
    assert table.documents("reef sea") == [0]
    assert table.documents("sea java") == table.documents("sea java reef") == [1]  # not across "\0"
    assert table.documents("java reef") == [0, 1]


def test_the_token_past_the_last_code_is_an_error():
    table = PhraseTable(frozenset())
    table._codes = OffsetCodes(sys.maxunicode - 1)
    table.add("d", [["reef"]])
    assert table._codes == {"reef": chr(sys.maxunicode)}
    with pytest.raises(ValueError, match="^corpus has more than 1,114,111 distinct lowercase "
                                         "tokens, the number of token codes$"):
        table.add("d", [["reef", "sea"]])


def test_a_query_adds_no_code():
    table = phrase_table([("d/0", "The reef, sea java."), ("d/1", "İstanbul reef sea")])
    codes = dict(table._codes)
    for query in ["coral", "Coral reef", "reef coral sea", "REEF SEA", "İSTANBUL", "Reef Sea Java",
                  "sea java reef coral", ", . ;", "(", "", " ", "reef, sea", "\u212aava"]:
        table.documents(query)
    assert len(table._codes) == len(codes) and table._codes == codes


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
# also fuse into single raw tokens such as "The-reef]". Of the non-ASCII
# ones, İ lowercases to two code points and a word-final Σ to ς; ẞ lowercases
# to ß but ß uppercases to SS; ǅ is titlecase, Ⓐ is not alphanumeric, and
# the Kelvin sign lowercases to an ASCII k.
_PIECES = st.sampled_from(
    ["java", "Java", "Reef", "reef", "sea-bay", "Hindu-Buddhist", "the", "The", "OF", "aN",
     "İstanbul", "ΟΔΟΣ", "οδος", "Straße", "STRASSE", "ẞ", "ǅ", "Ⓐ", "\u212a",
     "-", " ", "\t", "\n", "\x1c", ",", ".", "(", ")", "[", "]", "^", "\\", "|", ":"]
)


# Spans that the window test must tell apart; ``PhraseTable.add`` skips a
# span only when the phrases seen before hold every one of its windows:
WINDOW_EXAMPLES = [
    # every 2-token window seen, the 3-token one new
    ["reef sea", "sea java", "reef sea java"],
    # a short span seen only inside a longer one, then a new short one
    ["reef sea java", "Sea Java", "java reef"],
    # a span of exactly MAX_NGRAM_LEN tokens, seen and then varied
    ["tide palm bay", "Tide PALM bay", "tide palm reef"],
    # MAX_NGRAM_LEN + 2 tokens, whose only new window is inside
    ["reef sea java", "java tide palm", "reef sea java tide palm"],
]


def _window_examples(test):
    for texts in WINDOW_EXAMPLES:
        test = example(texts=texts)(test)
    return test


@pytest.mark.parametrize("variant", sorted(STOPLISTS))
@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=40).map("".join), min_size=1, max_size=3))
@_window_examples
def test_property_mined_terms_equal_character_walk(variant, texts):
    stoplist = STOPLISTS[variant]
    # Ids sort against load order, so a first surface taken in id order shows.
    docs = [(f"d{9 - i}/doc", text) for i, text in enumerate(texts) if text.strip()]
    table = phrase_table(docs, stoplist.punctuation)
    ids = [doc_id for doc_id, _ in docs]  # add order
    got = {}
    for surface in table.mined_terms(stoplist):
        key = tuple(surface.lower().split())
        got[key] = (tuple(surface.split()), {ids[n] for n in table.documents(surface)})
    assert got == walk_terms(docs, stoplist, MAX_NGRAM_LEN)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=40).map("".join), min_size=1, max_size=6))
@_window_examples
def test_property_postings_are_increasing_doc_numbers(texts):
    stoplist = default_stoplist()
    docs = [(f"d{9 - i}/doc", text) for i, text in enumerate(texts) if text.strip()]
    table = phrase_table(docs, stoplist.punctuation)
    ids = [doc_id for doc_id, _ in docs]  # add order
    assert table.domains == [doc_id.split("/", 1)[0] for doc_id in ids]
    # Every phrase, stopwords included: the walk with no stopwords.
    cut = SimpleNamespace(words=frozenset(), punctuation=stoplist.punctuation)
    walked = walk_terms(docs, cut, MAX_NGRAM_LEN)
    assert table.phrases == walked.keys()
    assert len(table) == len(walked)
    for key, (_, doc_ids) in walked.items():
        assert {ids[n] for n in table.documents(" ".join(key))} == doc_ids
        assert CorpusIndex.build(table).hits(" ".join(key)) == len(doc_ids)
    assert table.postings.keys() == {key[0] for key in walked if len(key) == 1}
    for token, packed in table.postings.items():
        assert type(packed) is bytearray
        posting = memoryview(packed).cast("I").tolist()
        assert all(type(n) is int for n in posting)
        assert all(a < b for a, b in zip(posting, posting[1:]))
        assert {ids[n] for n in posting} == walked[(token,)][1]
