"""Corpus ingestion and the text mining steps that feed the statistics:
one phrase table per corpus, the mined terms taken from it, and the
known/missing split against an ontology plus a gazetteer.

Each document is read once, split into spans at punctuation and numbered in
document-id order. One table holds every 1-3 token phrase inside a span, a
posting list of document numbers per token and each document's lowercased
text; the corpus index also answers from it. The mined terms are the
phrases with no stopword token, so they never cross a stopword or a
punctuation character. Hyphenated words stay single tokens.
"""

from __future__ import annotations

import importlib.resources
import os
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ontology import Concept, Ontology, normalize_label, read_input, records

# Longest mined term in tokens; the corpus index answers this length from postings.
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
def _punctuation_pattern(punctuation: frozenset[str]) -> re.Pattern[str] | None:
    if not punctuation:
        return None
    return re.compile("[" + "".join(re.escape(ch) for ch in sorted(punctuation)) + "]+")


def punctuation_spans(text: str, punctuation: frozenset[str]) -> list[list[str]]:
    """Whitespace-separated tokens, cut into spans at punctuation characters."""
    pattern = _punctuation_pattern(punctuation)
    pieces = pattern.split(text) if pattern is not None else [text]
    return [tokens for piece in pieces if (tokens := piece.split())]


# A tab, and every character at which ``str.splitlines`` ends a line.
FIELD_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def load_corpus(root: str | Path) -> list[tuple[str, str]]:
    """(doc id, path) of each article, in document-id order. Corpus layout:
    one subdirectory per domain, one text file per article, whose id is
    ``<domain>/<file name>``. A domain name is a field of the judgments
    file, so one that holds a tab or a line break is rejected."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory {root} does not exist")
    articles = []
    for domain_dir in _sorted_entries(root):
        if not domain_dir.is_dir():
            continue
        if not FIELD_BREAKS.isdisjoint(domain_dir.name):
            raise ValueError(
                f"corpus domain directory {domain_dir.path!r} has a tab or line break in its name"
            )
        articles += [(f"{domain_dir.name}/{article.name}", article.path)
                     for article in _sorted_entries(domain_dir.path) if article.is_file()]
    return sorted(articles)


def read_documents(articles: Iterable[tuple[str, str]], digest) -> Iterator[tuple[str, str]]:
    """(doc id, text) of each (doc id, path), the file read as UTF-8 text
    with ``\\r\\n`` and a lone ``\\r`` turned into ``\\n``, as text mode reads
    it. Each id and text is fed to digest, prefixed by its UTF-8 byte length,
    so over ``load_corpus`` order the digest identifies the corpus by content.
    A text of only whitespace is rejected."""
    for doc_id, path in articles:
        with open(path, "rb", buffering=0) as handle:  # one read, no buffer
            data = handle.read()
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


class PhraseTable:
    """A corpus as the index answers it, documents numbered in the order
    they were added (``load_corpus`` order in a run):
    ``phrases``, every lowercased 1..MAX_NGRAM_LEN token phrase inside a
    punctuation span; ``postings``, each lowercased token's strictly
    increasing document numbers; ``texts``, each document's lowercased tokens
    joined by ``" "`` and spans by ``" \\n "``, padded with a space, so
    ``" a b "`` is in a text exactly when one span has ``a b``; and
    ``surfaces``, each phrase's first surface in that order where it is not
    the phrase itself."""

    def __init__(self, punctuation: frozenset[str]):
        self.punctuation = punctuation
        self.doc_ids: list[str] = []
        self.texts: list[str] = []
        self.phrases: set[tuple[str, ...]] = set()
        self.postings: dict[str, list[int]] = {}
        self.surfaces: dict[tuple[str, ...], tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.phrases)

    def add(self, doc_id: str, spans: Iterable[Sequence[str]]) -> None:
        number = len(self.doc_ids)
        phrases = self.phrases
        lowered_spans = []
        for span in spans:
            lowered = tuple(map(str.lower, span))
            lowered_spans.append(lowered)
            # A walk adds every phrase inside its span, so the set holds the
            # sub-phrases of what it holds: only a span with an unseen window
            # of MAX_NGRAM_LEN tokens (or unseen whole, when shorter) is walked.
            if lowered[:MAX_NGRAM_LEN] in phrases and phrases.issuperset(
                    zip(*[lowered[i:] for i in range(MAX_NGRAM_LEN)])):
                continue
            for length in range(1, MAX_NGRAM_LEN + 1):
                for start in range(len(lowered) - length + 1):
                    phrase = lowered[start : start + length]
                    if phrase in phrases:
                        continue
                    phrases.add(phrase)
                    if (surface := tuple(span[start : start + length])) != phrase:
                        self.surfaces[phrase] = surface
        postings = self.postings
        for token in set().union(*lowered_spans):
            postings.setdefault(token, []).append(number)
        self.doc_ids.append(doc_id)
        self.texts.append(" " + " \n ".join(map(" ".join, lowered_spans)) + " ")

    def documents(self, tokens: Sequence[str]) -> list[int]:
        """Numbers of the documents that hold the lowercased tokens as one
        run; every token must have a posting."""
        rarest = min([self.postings[token] for token in tokens], key=len)
        if len(tokens) == 1:
            return rarest
        needle = " " + " ".join(tokens) + " "
        return [number for number in rarest if needle in self.texts[number]]

    def mined_terms(self, stoplist: Stoplist) -> Iterator[str]:
        """The first surfaces of the phrases with no stopword token; a
        surface's ``str.lower().split()`` is its phrase."""
        words, surfaces = stoplist.words, self.surfaces
        return (" ".join(surfaces.get(p, p)) for p in self.phrases if words.isdisjoint(p))


def tokenize_corpus(
    documents: Iterable[tuple[str, str]], punctuation: frozenset[str]
) -> PhraseTable:
    """Split each (doc id, text) at punctuation once and fill one phrase table."""
    table = PhraseTable(punctuation)
    for doc_id, text in documents:
        table.add(doc_id, punctuation_spans(text, punctuation))
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
    concepts: tuple[str, ...]   # known by a concept label
    missing: tuple[str, ...]


def partition_terms(
    terms: Iterable[str], ontology: Ontology, gazetteer: frozenset[str]
) -> TermPartition:
    """Split mined surfaces into those a concept label knows and the missing
    ones, each sorted by ``str.lower``. A surface whose normalized form the
    gazetteer holds, looked up first, and an instance label are in neither."""
    concepts, missing = [], []
    for surface in sorted(terms, key=str.lower):
        if normalize_label(surface) in gazetteer:
            continue
        match = ontology.contains_term(surface)
        if match is None:
            missing.append(surface)
        elif isinstance(match, Concept):
            concepts.append(surface)
    return TermPartition(tuple(concepts), tuple(missing))
