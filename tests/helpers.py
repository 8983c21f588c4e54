"""Test helpers of two kinds, kept apart in this file.

* Independent oracles freeze and cross-check expected values. They recount
  from first principles (document scans, set algebra, base-2 logs), so the
  implementations under test share no code path with them.
* Thin wrappers, at the end of the file, give tests a convenience the
  package does not export. Each one only feeds and reads package code that
  a run uses, and adds no arithmetic of its own, so it is no oracle: a test
  that goes through one checks the package code it calls.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

from ontoenrich.hitcounts import CorpusIndex, HitCountProvider
from ontoenrich.ontology import Axiom, Ontology, RelationKind, canonicalize_axiom
from ontoenrich.patterns import pluralize_term
from ontoenrich.placement import PlacementDecision, place_all
from ontoenrich.relatedness import DistanceConfig, RelatednessMatrix, distance_from_counts
from ontoenrich.textpipe import PhraseTable, _Codes, default_stoplist, tokenize_corpus

_SLOT_RE = re.compile(r"\{([XY])(:pl)?\}")
_VOWELS = "aeiou"


def walk_spans(text: str, stoplist) -> list[list[str]]:
    """Token spans cut at stopwords and punctuation, one character at a time."""
    spans: list[list[str]] = []
    current: list[str] = []

    def close():
        nonlocal current
        if current:
            spans.append(current)
            current = []

    def emit(piece: list[str]):
        if not piece:
            return
        token = "".join(piece)
        if token.lower() in stoplist.words:
            close()
        else:
            current.append(token)
        piece.clear()

    for raw in text.split():
        piece: list[str] = []
        for ch in raw:
            if ch in stoplist.punctuation:
                emit(piece)
                close()
            else:
                piece.append(ch)
        emit(piece)
    close()
    return spans


def walk_terms(docs: list[tuple[str, str]], stoplist, max_len: int) -> dict:
    """Key -> (first surface, doc ids) of every 1..max_len window of the
    ``walk_spans`` spans, over (doc id, text) pairs in the given order."""
    terms: dict[tuple[str, ...], tuple[tuple[str, ...], set[str]]] = {}
    for doc_id, text in docs:
        for span in walk_spans(text, stoplist):
            for n in range(1, max_len + 1):
                for i in range(len(span) - n + 1):
                    window = tuple(span[i : i + n])
                    key = tuple(token.lower() for token in window)
                    terms.setdefault(key, (window, set()))[1].add(doc_id)
    return terms


def _resolve_articles(query: str) -> str:
    tokens = query.split()
    resolved = []
    for i, token in enumerate(tokens):
        if token == "a(n)":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            resolved.append("an" if nxt[:1].lower() in _VOWELS else "a")
        else:
            resolved.append(token)
    return " ".join(resolved)


def reference_instantiate(t_miss: str, t_in: str, catalogue) -> list[tuple[str, str]]:
    """Pattern queries by a regex fill of each template, then whitespace
    collapse and ``a(n)`` resolution over the filled string. It shares
    ``pluralize_term`` with the package: it checks the fill, not the plural rule."""
    if not t_miss.strip() or not t_in.strip():
        raise ValueError("pattern instantiation needs two non-empty terms")

    def fill(match: re.Match) -> str:
        letter, plural = match.group(1), match.group(2)
        term = t_miss if letter == "X" else t_in
        return pluralize_term(term) if plural else term

    queries = []
    for template in catalogue:
        query = _SLOT_RE.sub(fill, template.template)
        queries.append((template.id, _resolve_articles(query)))
    return queries


def tuple_key_order(records, term, second) -> list:
    """The records stably sorted on ``(term(r).lower(), second(r))``, with a
    key tuple per record: the order the grouped writers must keep."""
    return sorted(records, key=lambda r: (term(r).lower(), second(r)))


def reference_pattern_audit(suggestions, catalogue, path) -> None:
    """The pattern audit built as one line list and written as one joined
    string, each pair's queries filled by ``reference_instantiate``; the
    streamed ``write_pattern_audit`` must match it byte for byte."""
    lines = ["missing_term\tontology_term\tpattern\tquery\thits"]
    ordered = tuple_key_order(
        suggestions, lambda s: s.missing_term, lambda s: s.ontology_term.lower()
    )
    for suggestion in ordered:
        queries = reference_instantiate(suggestion.missing_term, suggestion.ontology_term, catalogue)
        for (pattern_id, query), hits in zip(queries, suggestion.hits, strict=True):
            lines.append(
                f"{suggestion.missing_term}\t{suggestion.ontology_term}"
                f"\t{pattern_id}\t{query}\t{hits}"
            )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def group_sums(hits, catalogue) -> dict[str, int]:
    """Per-template hit counts summed per template group, catalogue order."""
    sums = dict.fromkeys(catalogue.groups, 0)
    for group, count in zip(catalogue.groups, hits, strict=True):
        sums[group] += count
    return sums


def corpus_digest(docs: Iterable[tuple[str, str]]) -> str:
    """sha256 of the (doc id, text) pairs sorted by id, each id and text
    prefixed by its UTF-8 byte length as 8 big-endian bytes."""
    digest = hashlib.sha256()
    for doc_id, text in sorted(docs):
        for field in (doc_id, text):
            data = field.encode("utf-8")
            digest.update(len(data).to_bytes(8, "big"))
            digest.update(data)
    return digest.hexdigest()


def scan_phrase_docs(doc_tokens: dict[str, list[str]], phrase: str) -> set[str]:
    """Documents containing the phrase as a contiguous token run (brute force)."""
    needle = phrase.lower().split()
    n = len(needle)
    found = set()
    for doc_id, tokens in doc_tokens.items():
        lowered = [t.lower() for t in tokens]
        if any(lowered[i : i + n] == needle for i in range(len(lowered) - n + 1)):
            found.add(doc_id)
    return found


def walk_phrase_docs(texts: dict[str, str], query: str, punctuation) -> set[str]:
    """Documents holding the query as a contiguous, case-folded token run of
    one punctuation span; a query that punctuation cuts in two, or that has
    no token, is in none. Queries and documents are cut by ``walk_spans``
    with no stopwords."""
    cut = SimpleNamespace(words=frozenset(), punctuation=punctuation)
    spans = walk_spans(query, cut)
    if len(spans) != 1:
        return set()
    needle = [token.lower() for token in spans[0]]
    n = len(needle)
    found = set()
    for doc_id, text in texts.items():
        for span in walk_spans(text, cut):
            lowered = [token.lower() for token in span]
            if any(lowered[i : i + n] == needle for i in range(len(lowered) - n + 1)):
                found.add(doc_id)
                break
    return found


def scan_hits(doc_tokens: dict[str, list[str]], phrase: str) -> int:
    return len(scan_phrase_docs(doc_tokens, phrase))


def scan_pair_hits(doc_tokens: dict[str, list[str]], a: str, b: str) -> int:
    return len(scan_phrase_docs(doc_tokens, a) & scan_phrase_docs(doc_tokens, b))


def log2_distance(fa: int, fb: int, f2: int, n: int, cap: float = 1.0) -> float:
    """Co-occurrence distance recomputed with base-2 logs."""
    if f2 == 0:
        return cap
    numerator = max(math.log2(fa), math.log2(fb)) - math.log2(f2)
    denominator = math.log2(n) - min(math.log2(fa), math.log2(fb))
    return numerator / denominator


def oracle_matrix(
    doc_tokens: dict[str, list[str]],
    missing: list[str],
    known: list[str],
    cap: float = 1.0,
) -> dict[tuple[str, str], float]:
    """Full relatedness matrix recounted by document scans and base-2 logs."""
    n = len(doc_tokens)
    distances = {}
    for miss in missing:
        for term in known:
            fa = scan_hits(doc_tokens, miss)
            fb = scan_hits(doc_tokens, term)
            f2 = scan_pair_hits(doc_tokens, miss, term)
            distances[(miss, term)] = log2_distance(fa, fb, f2, n, cap)
    denominator = sum(distances.values())
    if denominator == 0:
        return {pair: 1.0 for pair in distances}
    return {pair: 1.0 - d / denominator for pair, d in distances.items()}


def reference_sense_scores(
    t_miss: str,
    target: str,
    senses: Iterable[int],
    parents: dict[tuple[str, int], list[tuple[str, int]]],
    labels: dict[str, str],
    hits: dict[str, int],
    pair_hits: dict[str, int],
    n: int,
    cap: float,
    denominator: float,
    depth: int,
) -> tuple[dict[int, tuple[float | None, tuple]], set[str]]:
    """Sense scoring recomputed with base-2 logs, one label at a time.

    Each sense's path climbs from ``(target, sense)`` to the smallest of each
    node's hypernyms (``parents``) until a node has none. Of its first
    ``depth`` steps, a label counts when it and t_miss both have
    0 < hits < n, and the path scores the mean of 1 - distance / denominator
    over those labels (None when none counts). Returns, per sense, the score
    and the (hits, pair hits) of the counted labels in path order, plus the
    labels that did not count. ``pair_hits`` maps a label to its joint count
    with t_miss."""
    scores, skipped = {}, set()
    for sense in senses:
        path = [(target, sense)]
        while parents.get(path[-1]):
            path.append(min(parents[path[-1]]))
        values, profile = [], []
        for cid, _ in path[:depth]:
            label = labels[cid]
            fa, fb = hits.get(t_miss, 0), hits.get(label, 0)
            if 0 < fa < n and 0 < fb < n:
                f2 = pair_hits.get(label, 0)
                values.append(1.0 - log2_distance(fa, fb, f2, n, cap) / denominator)
                profile.append((fb, f2))
            else:
                skipped.add(label)
        scores[sense] = (sum(values) / len(values) if values else None, tuple(profile))
    return scores, skipped


def naive_placement_matches(system: dict, expert: dict, require_relation: bool = True) -> int:
    """O(n*m) pairwise matcher for placement precision over
    ``(term, target, sense) -> relation`` mappings."""
    count = 0
    for (term, target, sense), relation in system.items():
        for (gold_term, gold_target, gold_sense), gold_relation in expert.items():
            same = term == gold_term and target == gold_target and sense == gold_sense
            if same and (not require_relation or relation == gold_relation):
                count += 1
                break
    return count


# ---- thin wrappers over package code ---------------------------------------


def normalized_distance(
    a: str, b: str, provider: HitCountProvider, cfg: DistanceConfig = DistanceConfig()
) -> float:
    """``distance_from_counts`` fed with the provider's counts of a, b, the pair and N."""
    return distance_from_counts(
        a, b, provider.hits(a), provider.hits(b), provider.pair_hits(a, b),
        provider.total_docs(), cfg,
    )


def cell(matrix: RelatednessMatrix, missing_term: str, ontology_term: str) -> float:
    """The matrix cell in the row of missing_term and the column of ontology_term."""
    row = matrix.missing_terms.index(missing_term)
    return matrix.cells[row][matrix.ontology_terms.index(ontology_term)]


def phrase_table(
    docs: Iterable[tuple[str, str]], punctuation: frozenset[str] | None = None
) -> PhraseTable:
    """The table of in-memory (doc id, text) pairs, numbered in the given
    order and cut at punctuation, by default the default stoplist's."""
    if punctuation is None:
        punctuation = default_stoplist().punctuation
    return tokenize_corpus(docs, punctuation)


def build_index(docs: Iterable[tuple[str, str]]) -> CorpusIndex:
    """Index over the ``phrase_table`` of in-memory (doc id, text) pairs."""
    return CorpusIndex(phrase_table(docs))


def id_queries(miss: str, target: str, catalogue) -> list[tuple[str, str]]:
    """(pattern id, query) of every template for the pair, catalogue order."""
    return list(zip(catalogue.ids, catalogue.queries(miss, target), strict=True))


def place_one(suggestion, ontology: Ontology, provider: HitCountProvider) -> PlacementDecision:
    """The decision ``place_all`` makes for one suggestion, which takes its
    non-composite path, at the default distance cap and denominator 1.0
    (for any denominator above 0 the winning senses are the same, up to
    float rounding at near-ties); a placement failure fails the test."""
    decisions, failures = place_all([suggestion], ontology, provider, DistanceConfig(), 1.0)
    assert failures == [], failures[0].reason
    (decision,) = decisions
    return decision


def has_axiom(
    ontology: Ontology, relation: RelationKind, subject: str, object_: str,
    subject_sense: int = 1, object_sense: int = 1,
) -> bool:
    """Whether the ontology stores the axiom, given in either direction of an
    inverse pair (hyponymy for hypernymy, holonymy for meronymy)."""
    key = canonicalize_axiom(Axiom(relation, subject, object_, subject_sense, object_sense)).key
    return any(axiom.key == key for axiom in ontology.axioms)


class OffsetCodes(_Codes):
    """The phrase table's code map with codes counted from offset + 1, so a
    test reaches a code boundary without that many distinct tokens."""

    def __init__(self, offset: int):
        super().__init__()
        self.offset = offset

    def __len__(self) -> int:
        return super().__len__() + self.offset
