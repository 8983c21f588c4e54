"""Corpus ingestion and the text mining steps that feed the statistics:
stopword removal, n-gram extraction within stopword-delimited spans, and the
known/missing split against an ontology plus a gazetteer.

N-grams never cross a removed stopword or a punctuation character: the text
is cut into spans at punctuation, then at stopwords, and 1-3 token n-grams
are emitted inside each span only. Hyphenated words stay single tokens.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .ontology import Ontology, normalize_label

# Longest mined term in tokens; the corpus index answers this length from postings.
MAX_NGRAM_LEN = 3


@dataclass(frozen=True)
class Stoplist:
    words: frozenset[str]          # case-folded word entries
    punctuation: frozenset[str]    # single-character separators

    def is_stopword(self, token: str) -> bool:
        return token.lower() in self.words


def parse_stoplist(text: str) -> Stoplist:
    words, punct = set(), set()
    for raw in text.splitlines():
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if len(entry) == 1 and not entry.isalnum():
            punct.add(entry)
        else:
            words.add(entry.lower())
    if not words:
        raise ValueError("stoplist has no word entries")
    return Stoplist(frozenset(words), frozenset(punct))


def load_stoplist(path: str | Path) -> Stoplist:
    return parse_stoplist(Path(path).read_text(encoding="utf-8"))


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


def split_spans(text: str, stoplist: Stoplist) -> list[list[str]]:
    """Cut text into token spans at punctuation, then at stopwords."""
    return [
        list(run)
        for span in punctuation_spans(text, stoplist.punctuation)
        for is_stop, run in groupby(span, key=stoplist.is_stopword)
        if not is_stop
    ]


def phrases(span: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Every run of 1..MAX_NGRAM_LEN tokens in the span, by length, then start."""
    tokens = tuple(span)
    for length in range(1, MAX_NGRAM_LEN + 1):
        for start in range(len(tokens) - length + 1):
            yield tokens[start : start + length]


@dataclass(eq=False)
class NGram:
    """1-3 word term; identity is the case-folded token tuple."""

    tokens: tuple[str, ...]
    doc_ids: set[str] = field(default_factory=set)

    def __post_init__(self):
        if not 1 <= len(self.tokens) <= MAX_NGRAM_LEN:
            raise ValueError(f"n-gram length must be 1..{MAX_NGRAM_LEN}")

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(t.lower() for t in self.tokens)

    @property
    def surface(self) -> str:
        return " ".join(self.tokens)

    def __eq__(self, other):
        return isinstance(other, NGram) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"NGram({self.surface!r})"


def tokenize_ngrams(
    spans: Sequence[Sequence[str]],
    doc_id: str | None = None,
) -> set[NGram]:
    """All unigrams, bigrams and trigrams inside each span.

    Duplicates merge, accumulating source document ids.
    """
    merged: dict[tuple[str, ...], NGram] = {}
    for span in spans:
        for tokens in phrases(span):
            gram = NGram(tokens)
            existing = merged.setdefault(gram.key, gram)
            if doc_id is not None:
                existing.doc_ids.add(doc_id)
    return set(merged.values())


@dataclass(frozen=True)
class Document:
    id: str
    domain: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"document {self.id!r} has empty text")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate document ids in corpus")


def load_corpus(root: str | Path) -> Corpus:
    """Corpus layout: one subdirectory per domain, one text file per article."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory {root} does not exist")
    documents = []
    for domain_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for article in sorted(p for p in domain_dir.iterdir() if p.is_file()):
            documents.append(
                Document(
                    id=f"{domain_dir.name}/{article.name}",
                    domain=domain_dir.name,
                    text=article.read_text(encoding="utf-8"),
                )
            )
    return Corpus(tuple(documents))


def tokenize_corpus(corpus: Corpus, stoplist: Stoplist) -> set[NGram]:
    """Merged n-gram set over all documents, with document accounting."""
    merged: dict[tuple[str, ...], NGram] = {}
    for doc in corpus.documents:
        for gram in tokenize_ngrams(split_spans(doc.text, stoplist), doc_id=doc.id):
            existing = merged.setdefault(gram.key, gram)
            if existing is not gram:
                existing.doc_ids.update(gram.doc_ids)
    return set(merged.values())


@dataclass(frozen=True)
class Gazetteer:
    """Flat surface-to-entity-kind lookup standing in for a trained recognizer."""

    entries: Mapping[str, str]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "Gazetteer":
        return cls({normalize_label(surface): kind for surface, kind in pairs})

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        pairs = []
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}: line {lineno}: expected <surface>\\t<kind>")
            pairs.append((fields[0], fields[1]))
        return cls.from_pairs(pairs)

    @classmethod
    def empty(cls) -> "Gazetteer":
        return cls({})

    def lookup(self, surface: str) -> str | None:
        return self.entries.get(normalize_label(surface))


@dataclass(frozen=True)
class KnownTerm:
    ngram: NGram
    source: str                 # "gazetteer", "concept" or "instance"
    concept_id: str | None = None
    kind: str | None = None     # gazetteer entity kind


@dataclass(frozen=True)
class TermPartition:
    known: tuple[KnownTerm, ...]
    missing: tuple[NGram, ...]


def partition_terms(
    ngrams: Iterable[NGram], ontology: Ontology, gazetteer: Gazetteer
) -> TermPartition:
    """Split n-grams into ontology/gazetteer-known and missing terms.

    The gazetteer is consulted first, then concept and instance labels.
    """
    known, missing = [], []
    for gram in sorted(ngrams, key=lambda g: g.key):
        kind = gazetteer.lookup(gram.surface)
        if kind is not None:
            known.append(KnownTerm(gram, "gazetteer", kind=kind))
            continue
        match = ontology.contains_term(gram.surface)
        if match is not None:
            known.append(KnownTerm(gram, match.kind, concept_id=match.id))
        else:
            missing.append(gram)
    return TermPartition(tuple(known), tuple(missing))
