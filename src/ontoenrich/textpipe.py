"""Corpus ingestion and the text mining steps that feed the statistics:
one phrase table per corpus, the mined terms taken from it, and the
known/missing split against an ontology plus a gazetteer.

Each document is read once, split into spans at punctuation and numbered in
document-id order. One table holds every 1-3 token phrase inside a span, a
packed posting of document numbers per token, and each document's domain
and its text as token codes. ``PhraseTable.documents`` is the one path from
query text to document numbers: the corpus index and the run's term domains
both ask it, and no other module reads the table's phrases, postings, texts
or surfaces. The mined terms are the phrases with no stopword token, so they
never cross a stopword or a punctuation character. Hyphenated words stay
single tokens.
"""

from __future__ import annotations

import importlib.resources
import os
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ontology import Concept, Ontology, normalize_label, read_input, records

# Longest mined term in tokens, and the window a phrase query is tested by.
# The window tests write its value out, so change them with it:
# ``phrases.issuperset(zip(t, t[1:], t[2:]))`` for tokens t of at least
# MAX_NGRAM_LEN, and ``t in phrases`` for fewer.
MAX_NGRAM_LEN = 3


class Stoplist(NamedTuple):
    words: frozenset[str]          # case-folded word entries
    punctuation: frozenset[str]    # single-character separators


def parse_stoplist(text: str, source: str = "<string>") -> Stoplist:
    words, punct = set(), set()
    for _, line in records(text):
        entry = line.strip()
        if len(entry) == 1 and not entry.isalnum():
            punct.add(entry)
        else:
            words.add(entry.lower())
    if not words:
        raise ValueError(f"{source}: stoplist has no word entries")
    return Stoplist(frozenset(words), frozenset(punct))


def load_stoplist(path: str | Path, digest=None) -> Stoplist:
    return parse_stoplist(read_input(path, digest), str(path))


def default_stoplist() -> Stoplist:
    data = importlib.resources.files("ontoenrich").joinpath("data/stopwords.txt")
    return parse_stoplist(data.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _punctuation_pattern(punctuation: frozenset[str]) -> re.Pattern[str]:
    """A run of the punctuation characters; one that never matches for none."""
    if not punctuation:
        return re.compile("(?!)")
    return re.compile("[" + "".join(re.escape(ch) for ch in sorted(punctuation)) + "]+")


def punctuation_spans(text: str, punctuation: frozenset[str]) -> list[list[str]]:
    """Whitespace-separated tokens, cut into spans at punctuation characters."""
    return [tokens for piece in _punctuation_pattern(punctuation).split(text)
            if (tokens := piece.split())]


# A tab, and every character at which ``str.splitlines`` ends a line.
FIELD_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def load_corpus(root: str | Path) -> Iterator[tuple[str, str]]:
    """(doc id, path) of each article, in document-id order. Corpus layout:
    one subdirectory per domain, one text file per article, whose id is
    ``<domain>/<file name>``. A domain name is a field of the judgments
    file, so one that holds a tab or a line break is rejected.

    The root and every domain name are checked before it returns; the
    articles are then listed one domain at a time as they are taken, so no
    list of every path is built. Ids sort as strings, so the domains go in
    the order of ``name + "/"`` (``a-b/`` before ``a/``), each domain's
    files by name."""
    root = Path(root)
    if not root.is_dir():
        if root.exists():
            raise NotADirectoryError(f"corpus path {root} is not a directory")
        raise FileNotFoundError(f"corpus directory {root} does not exist")
    domains = [entry for entry in _sorted_entries(root) if entry.is_dir()]
    for domain_dir in domains:
        if not FIELD_BREAKS.isdisjoint(domain_dir.name):
            raise ValueError(
                f"corpus domain directory {domain_dir.path!r} has a tab or line break in its name"
            )
    domains.sort(key=lambda entry: entry.name + "/")
    return ((f"{domain_dir.name}/{article.name}", article.path)
            for domain_dir in domains
            for article in _sorted_entries(domain_dir.path) if article.is_file())


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_SIZE = 1 << 16  # reads after the first; they find the end at once unless the file grew


def read_documents(articles: Iterable[tuple[str, str]], digest) -> Iterator[tuple[str, str]]:
    """(doc id, text) of each (doc id, path), the file read as UTF-8 text
    with ``\\r\\n`` and a lone ``\\r`` turned into ``\\n``, as text mode reads
    it. Each id and text is fed to digest, prefixed by its UTF-8 byte length,
    so over ``load_corpus`` order the digest identifies the corpus by content.
    A text of only whitespace is rejected.

    A file is read with ``os.read`` into one buffer of its ``fstat`` size
    plus one byte, then until a read returns nothing, as ``FileIO.readall``
    does, but with no file object per document."""
    for doc_id, path in articles:
        fd = os.open(path, _READ_FLAGS)
        try:
            data = os.read(fd, os.fstat(fd).st_size + 1)
            while chunk := os.read(fd, _READ_SIZE):
                data += chunk
        finally:
            os.close(fd)
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            data = text.encode("utf-8")
        if not text or text.isspace():
            raise ValueError(f"document {doc_id!r} has empty text")
        for field in (doc_id.encode("utf-8"), data):
            digest.update(len(field).to_bytes(8, "big"))
            digest.update(field)
        yield doc_id, text


def _sorted_entries(directory: str | Path) -> list[os.DirEntry]:
    """Entries sorted by name; their ``is_dir``/``is_file`` follow symlinks as
    ``Path``'s do, mostly without a ``stat`` call."""
    with os.scandir(directory) as entries:
        return sorted(entries, key=lambda entry: entry.name)


class _Lowercase(dict):
    """Surface token -> its ``str.lower`` form, one object per distinct
    form: a token already lowercase maps to itself, and any other to the
    object its lowercase form maps to (``str.lower`` is idempotent)."""

    def __missing__(self, token: str) -> str:
        lower = token.lower()
        lower = token if lower == token else self[lower]
        self[token] = lower
        return lower


class _Codes(dict):
    """Lowercase token -> its code: ``chr(n)`` for the n-th distinct token
    met, counting from 1, so codes follow first appearance and not the hash
    seed. ``"\\0"`` is no token's code. Past the last code point the next
    token is an error, not a wider code."""

    def __missing__(self, token: str) -> str:
        number = len(self) + 1
        if number > sys.maxunicode:
            raise ValueError(
                f"corpus has more than {sys.maxunicode:,} distinct lowercase tokens,"
                " the number of token codes")
        code = self[token] = chr(number)
        return code


class PhraseTable:
    """A corpus as the index answers it, documents numbered in the order
    they were added (``load_corpus`` order in a run):
    ``phrases``, every lowercased 1..MAX_NGRAM_LEN token phrase inside a
    punctuation span; ``postings``, each lowercased token's strictly
    increasing document numbers, packed in a ``bytearray`` as native 4-byte
    unsigned integers (``memoryview`` format ``"I"``, half a list's slots
    and no ``int`` objects); ``texts``, each document's spans as token
    codes (one character per lowercase token, see ``_Codes``) joined by
    ``"\\0"`` and encoded as UTF-8 with ``"surrogatepass"``; ``domains``,
    each document's domain (``tokenize_corpus`` passes one string object
    per domain); and ``surfaces``, each phrase's first surface in that
    order where it is not the phrase itself. Each distinct lowercase token
    is one object, shared by every phrase and posting key that holds it, so
    its hash is computed once and tokens compare by identity.

    UTF-8 is self-synchronizing, so one code string's bytes occur in a
    text's bytes only on whole characters, and ``"\\0"`` is no code: a
    token run's codes are in a text exactly when one of its spans holds the
    run. A code past U+007F takes 2-4 bytes, but only where its token
    occurs.

    A one-token ``documents`` result is a read-only view of a posting, and a
    view pins its ``bytearray``: while one lives, an ``add`` that reaches
    that posting raises ``BufferError`` part way through. So a table is
    queried only once it is filled, as a run does."""

    def __init__(self, punctuation: frozenset[str]):
        self.punctuation = punctuation
        self.domains: list[str] = []
        self.texts: list[bytes] = []
        self.phrases: set[tuple[str, ...]] = set()
        self.postings: dict[str, bytearray] = {}
        self.surfaces: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._lower = _Lowercase()
        self._codes = _Codes()

    def __len__(self) -> int:
        return len(self.phrases)

    def add(self, domain: str, spans: Iterable[Sequence[str]]) -> None:
        number = len(self.domains)
        phrases, lower, code = self.phrases, self._lower.__getitem__, self._codes.__getitem__
        lowered_spans, coded_spans = [], []
        for span in spans:
            lowered = tuple(map(lower, span))
            lowered_spans.append(lowered)
            coded_spans.append("".join(map(code, lowered)))
            # A walk adds every phrase inside its span, so the set holds the
            # sub-phrases of what it holds: only a span with an unseen window
            # of MAX_NGRAM_LEN tokens (or unseen whole, when shorter) is walked.
            if (lowered in phrases if len(lowered) < MAX_NGRAM_LEN
                    else phrases.issuperset(zip(lowered, lowered[1:], lowered[2:]))):
                continue
            for length in range(1, MAX_NGRAM_LEN + 1):
                for start in range(len(lowered) - length + 1):
                    phrase = lowered[start : start + length]
                    if phrase in phrases:
                        continue
                    phrases.add(phrase)
                    if (surface := tuple(span[start : start + length])) != phrase:
                        self.surfaces[phrase] = surface
        postings, entry = self.postings, number.to_bytes(4, sys.byteorder)
        for token in set().union(*lowered_spans):  # a bytearray only for a new token
            posting = postings.get(token)
            if posting is None:
                postings[token] = bytearray(entry)
            else:
                posting += entry
        self.domains.append(domain)
        self.texts.append("\0".join(coded_spans).encode("utf-8", "surrogatepass"))

    def documents(self, query: str) -> Sequence[int]:
        """Increasing numbers of the documents that hold the query as one
        run of tokens inside a span, matched without case: for one token a
        read-only ``memoryview`` of its posting, for more a list of the
        rarest token's numbers whose text holds the run's codes, encoded as
        the text is; ``()`` for a query that punctuation cuts in two or that
        has a window of MAX_NGRAM_LEN tokens (the whole query, when shorter)
        outside ``phrases``. Punctuation is looked for in the query as given,
        since ``str.lower`` maps some, such as ``Ⓐ``, to characters that are
        not."""
        if self.punctuation.isdisjoint(query):
            tokens = query.lower().split()
        else:
            spans = punctuation_spans(query, self.punctuation)
            if len(spans) != 1:
                return ()
            tokens = [token.lower() for token in spans[0]]
        # The first window is tested alone: nearly every pattern query ends there.
        phrases = self.phrases
        if tuple(tokens[:MAX_NGRAM_LEN]) not in phrases or not phrases.issuperset(
                zip(tokens, tokens[1:], tokens[2:])):
            return ()
        rarest = min([self.postings[token] for token in tokens], key=len)
        numbers = memoryview(rarest).toreadonly().cast("I")
        if len(tokens) == 1:
            return numbers
        # get, not []: a query adds no code (each of its tokens has one here)
        needle = "".join(map(self._codes.get, tokens)).encode("utf-8", "surrogatepass")
        return [number for number in numbers if needle in self.texts[number]]

    def mined_terms(self, stoplist: Stoplist) -> Iterator[str]:
        """The first surfaces of the phrases with no stopword token; a
        surface's ``str.lower().split()`` is its phrase."""
        words, surfaces = stoplist.words, self.surfaces
        return (" ".join(surfaces.get(p, p)) for p in self.phrases if words.isdisjoint(p))


def tokenize_corpus(
    documents: Iterable[tuple[str, str]], punctuation: frozenset[str]
) -> PhraseTable:
    """Split each (doc id, text) at punctuation once and fill one phrase
    table, keeping each document's domain: the id up to its first ``/``, as
    ``load_corpus`` lays ids out."""
    table = PhraseTable(punctuation)
    for doc_id, text in documents:
        table.add(sys.intern(doc_id.split("/", 1)[0]), punctuation_spans(text, punctuation))
    return table


def load_gazetteer(path: str | Path, digest=None) -> frozenset[str]:
    """The normalized surfaces of known entities, standing in for a trained
    recognizer. Reads ``<surface>\\t<kind>`` lines, no surface twice once
    normalized; no run reads the kind, so it is not kept."""
    surfaces = set()
    for n, line in records(read_input(path, digest)):
        fields = line.strip().split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {n}: expected <surface>\\t<kind>")
        key = normalize_label(fields[0])
        if key in surfaces:
            raise ValueError(f"{path}: line {n}: duplicate key {key!r}")
        surfaces.add(key)
    return frozenset(surfaces)


class TermPartition(NamedTuple):
    """The mined surfaces a concept label knows and the missing ones, and
    how many were left out because the gazetteer holds them or an instance
    label knows them."""

    concepts: tuple[str, ...]
    missing: tuple[str, ...]
    gazetteer_entries: int
    instance_labels: int


def partition_terms(
    terms: Iterable[str], ontology: Ontology, gazetteer: frozenset[str]
) -> TermPartition:
    """Split mined surfaces into those a concept label knows and the missing
    ones, each sorted by ``str.lower``. A surface whose normalized form the
    gazetteer holds, looked up first, and an instance label are in neither;
    they are counted."""
    concepts, missing, labels = [], [], ontology.labels
    entries = instances = 0
    for surface in sorted(terms, key=str.lower):
        key = normalize_label(surface)
        if key in gazetteer:
            entries += 1
            continue
        match = labels.get(key)
        if match is None:
            missing.append(surface)
        elif isinstance(match, Concept):
            concepts.append(surface)
        else:
            instances += 1
    return TermPartition(tuple(concepts), tuple(missing), entries, instances)
