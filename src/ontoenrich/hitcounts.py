"""Document hit-count providers: the substrate for all statistics.

Two interchangeable implementations of one contract:

* ``CorpusIndex`` answers exact contiguous-phrase queries over a local corpus
  (counts are document frequencies, not raw occurrence counts). It reads the
  ``textpipe.PhraseTable`` that mining filled, so each document is split once
  per run; a posting is the increasing list of the numbers of the documents
  that hold a token. Term, pair and pattern queries go through one lookup
  path, which answers nearly every pattern query from the phrase set's
  answer for its first window alone.
* ``SnapshotTable`` replays counts recorded in a file, so runs against
  external engines stay reproducible offline. Absent keys count 0.

Snapshot file format (UTF-8, tab-separated; exactly one N record, with a
positive total, and no key twice once normalized):

    N  <total-documents>
    H  <query string>  <count>

Pair co-occurrence entries use the key ``"<a>" "<b>"`` with both phrases
normalized and sorted, e.g. ``H\t"jawa" "java"\t480000``.

The file is read with ``ontology.records``: blank lines and lines whose
first non-blank character is ``#`` are skipped, and every error names the
file and line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence

from .ontology import normalize_label, read_input, records
from .textpipe import MAX_NGRAM_LEN, PhraseTable, punctuation_spans


class EmptyCorpusError(ValueError):
    """An index cannot be built over zero documents."""


class HitCountProvider(Protocol):
    def hits(self, phrase: str) -> int: ...

    def pair_hits(self, a: str, b: str) -> int: ...

    def pattern_hits(self, query: str) -> int: ...

    def total_docs(self) -> int: ...


def pair_key(a: str, b: str) -> str:
    """Canonical snapshot key for a co-occurrence query (symmetric)."""
    first, second = sorted((normalize_label(a), normalize_label(b)))
    return f'"{first}" "{second}"'


def _phrase_tokens(query: str, punctuation: frozenset[str]) -> list[str] | None:
    """Normalized tokens of a query that holds punctuation, or None when the
    query spans it."""
    spans = punctuation_spans(query, punctuation)
    if len(spans) != 1:
        return None
    return [token.lower() for token in spans[0]]


class CorpusIndex:
    """Inverted index of contiguous token phrases over a phrase table.

    ``hits``, ``pair_hits`` and ``pattern_hits`` share one lookup path. A
    query without punctuation is lowercased and split once; punctuation is
    looked for in the query as given, since ``str.lower`` maps a punctuation
    character such as ``Ⓐ`` to one that is not. A query answers 0 unless
    each of its ``MAX_NGRAM_LEN``-token windows (the whole query, when
    shorter) is in the table's phrase set; the first window is tested here,
    since that is how nearly every pattern query ends. Otherwise the table
    answers a single token from its posting and a longer query from its
    rarest token's posting, filtered by the documents' lowercased texts.
    ``pair_hits`` memoizes each term's documents as an ``int`` bitset (bit n
    set when document n holds the term), keyed by phrase string, so a batch
    of pairs looks each term up once and a pair costs one ``&`` and one
    ``bit_count``. A memoized term keeps about N/8 bytes for N documents,
    however many of them hold it (an ``int`` stores 30 bits per 4 bytes).
    """

    def __init__(self, table: PhraseTable):
        if not table.doc_ids:
            raise EmptyCorpusError("cannot index an empty corpus")
        self._table = table
        self._term_docs: dict[str, int] = {}  # pair_hits memo: phrase -> bitset

    @classmethod
    def build(cls, table: PhraseTable) -> "CorpusIndex":
        """Index over a table that ``textpipe.tokenize_corpus`` filled."""
        return cls(table)

    def _doc_numbers(self, phrase: str) -> Sequence[int]:
        table = self._table
        if table.punctuation.isdisjoint(phrase):
            tokens = phrase.lower().split()
        else:
            tokens = _phrase_tokens(phrase, table.punctuation)
            if tokens is None:
                return ()
        phrases = table.phrases
        if tuple(tokens[:MAX_NGRAM_LEN]) not in phrases or not phrases.issuperset(
                zip(*[tokens[i:] for i in range(MAX_NGRAM_LEN)])):
            return ()
        return table.documents(tokens)

    def hits(self, phrase: str) -> int:
        return len(self._doc_numbers(phrase))

    def _bitset(self, phrase: str) -> int:
        bits = bytearray((len(self._table.doc_ids) + 7) // 8)
        for number in self._doc_numbers(phrase):
            bits[number >> 3] |= 1 << (number & 7)
        return int.from_bytes(bits, "little")

    def pair_hits(self, a: str, b: str) -> int:
        memo = self._term_docs
        try:
            return (memo[a] & memo[b]).bit_count()
        except KeyError:
            for phrase in (a, b):
                if phrase not in memo:
                    memo[phrase] = self._bitset(phrase)
            return (memo[a] & memo[b]).bit_count()

    pattern_hits = hits

    def total_docs(self) -> int:
        return len(self._table.doc_ids)


def _count(text: str) -> int | None:
    """text as an integer >= 0, or None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 else None


class SnapshotTable(NamedTuple):
    """Replayable hit counts keyed by normalized query string."""

    entries: Mapping[str, int]
    declared_total: int

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]], total_docs: int) -> "SnapshotTable":
        """Table of the pairs; rejects what ``load`` rejects: a total below 1,
        a negative count, a key twice once normalized."""
        if total_docs < 1:
            raise ValueError(f"total must be a positive integer, got {total_docs!r}")
        entries = {}
        for query, count in pairs:
            if count < 0:
                raise ValueError(f"negative count for {query!r}")
            key = normalize_label(query)
            if key in entries:
                raise ValueError(f"duplicate key {key!r}")
            entries[key] = count
        return cls(entries, total_docs)

    @classmethod
    def load(cls, path: str | Path, digest=None) -> "SnapshotTable":
        """Read a snapshot file; one positive N record, and no key twice
        once normalized."""
        total = None
        entries: dict[str, int] = {}
        for n, line in records(read_input(path, digest)):
            fields = line.split("\t")
            if fields[0] == "N" and len(fields) == 2:
                if total is not None:
                    raise ValueError(f"{path}: line {n}: second N record")
                total = _count(fields[1])
                if not total:
                    raise ValueError(
                        f"{path}: line {n}: N must be a positive integer, got {fields[1]!r}"
                    )
            elif fields[0] == "H" and len(fields) == 3:
                count = _count(fields[2])
                if count is None:
                    raise ValueError(f"{path}: line {n}: bad count {fields[2]!r}")
                key = normalize_label(fields[1])
                if key in entries:
                    raise ValueError(f"{path}: line {n}: duplicate key {key!r}")
                entries[key] = count
            else:
                raise ValueError(f"{path}: line {n}: expected N or H record")
        if total is None:
            raise ValueError(f"{path}: missing N header record")
        return cls(entries, total)

    def save(self, path: str | Path) -> None:
        lines = [f"N\t{self.declared_total}"]
        for query in sorted(self.entries):
            lines.append(f"H\t{query}\t{self.entries[query]}")
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def hits(self, phrase: str) -> int:
        return self.entries.get(normalize_label(phrase), 0)

    def pair_hits(self, a: str, b: str) -> int:
        return self.entries.get(pair_key(a, b), 0)

    pattern_hits = hits

    def total_docs(self) -> int:
        return self.declared_total

    def run_test(self) -> Callable[[str], bool]:
        """A test of whether a query's normalized text is a contiguous
        whitespace-token run of a key that counts something. When it is not,
        every query whose normalized text holds it as such a run counts 0.
        The runs are built on each call and live as long as the test."""
        runs = set()
        for key, count in self.entries.items():
            if count:
                tokens = key.split()
                runs.update(" ".join(tokens[i:j]) for i in range(len(tokens))
                            for j in range(i + 1, len(tokens) + 1))
        return lambda query: normalize_label(query) in runs
