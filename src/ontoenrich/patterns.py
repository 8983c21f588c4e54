"""Relation arbitration from surface-pattern hit counts.

A catalogue of templates like ``{X} is a(n) {Y}`` is instantiated for each
candidate pair, every query string is submitted to a hit-count provider, and
the template group with the highest summed count names the relation between
the pair. Variants inside one group ("is a(n)", "is a kind of", the plural
forms) pool their counts before arbitration. When every query returns zero
the pair falls back to the weak "related-to" relation: the statistics already
vouched for the pair, the catalogue just cannot name the relation.

A catalogue is compiled once, when it is built, into a format line per
template: whitespace collapsed, ``{``/``}`` escaped, and each standalone
``a(n)`` resolved against the literal after it or, when a slot follows, left
as a field that takes its article from the first character of that slot's
term. ``PatternCatalogue.queries`` is the one query builder. When both terms
are normalized (single spaces, no edge whitespace) and have no token that is
a piece of ``a(n)`` (a piece glued to a slot's neighbour can complete one),
one format call on the joined lines and one split yield every query in
catalogue order. Mined terms are joined by single spaces, and the default
stoplist holds ``a``, so nearly all pairs qualify. Any other pair formats
each line on its own, then collapses whitespace and resolves each ``a(n)``
token against the token after it, so an ``a(n)`` that a term brings in, or
that a term's edge whitespace sets apart from a slot, is resolved too. A
catalogue works out each term's plural, article and whether it qualifies
once, the first time the term fills a slot, not once per pair.

A suggestion keeps its hit counts only, one per template in catalogue order;
a default desk run issues 89,100 queries, and all but 10 of its 8,100 pairs
count nothing. Every all-zero suggestion shares its catalogue's one zero
tuple, and only a pair that counts something sums its counts per group.
The audit rebuilds each pair's queries with ``PatternCatalogue.queries``
when it writes them, and streams them to its file line by line. It orders
the pairs with ``term_order``, which groups them by lowered missing term and
sorts each group alone, so no pair holds a sort key tuple.

Templates never contain negation operators; the catalogue loader rejects
them, so no negated query is ever issued. Pattern ids are unique within a
catalogue.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .hitcounts import HitCountProvider
from .ontology import RelationKind, normalize_label, records

NEGATION_WORDS = frozenset(
    {"no", "not", "never", "none", "neither", "nor", "cannot",
     "isn't", "aren't", "wasn't", "weren't", "can't", "won't", "don't"}
)

FALLBACK_MARKER = "related-to-fallback"

# Tie preference: more specific relations first; anything else alphabetical after.
_SPECIFICITY = {
    RelationKind.INSTANCE_OF: 0,
    RelationKind.HYPONYMY: 1,
    RelationKind.MERONYMY: 2,
    RelationKind.SYNONYMY: 3,
}

_SLOT_RE = re.compile(r"\{([XY])(:pl)?\}")


@dataclass(frozen=True)
class PatternTemplate:
    id: str
    relation: RelationKind
    group: str
    template: str

    def __post_init__(self):
        if sorted(letter for letter, _ in _SLOT_RE.findall(self.template)) != ["X", "Y"]:
            raise ValueError(
                f"pattern {self.id!r} must contain exactly one X and one Y slot"
            )
        lowered = {tok.lower() for tok in self.template.split()}
        banned = lowered & NEGATION_WORDS
        if banned:
            raise ValueError(f"pattern {self.id!r} contains negation {sorted(banned)}")
        if self.relation is RelationKind.RELATED_TO:
            raise ValueError("related-to is the fallback relation, not a pattern relation")


# Format fields of a compiled template line: the four slot values, then the
# article of X and of Y (pluralizing keeps a term's first character).
_SLOT_FIELDS = {("X", None): "{0}", ("X", ":pl"): "{1}", ("Y", None): "{2}", ("Y", ":pl"): "{3}"}
_ARTICLE_FIELDS = {"{0}": "{4}", "{1}": "{4}", "{2}": "{5}", "{3}": "{5}"}
# Tokens that are an "a(n)", or could make one glued to a template literal
# or to the other term, as "{X}(n)" does with X = "a".
_ARTICLE_PIECES = frozenset("a(n)"[i:j] for i in range(4) for j in range(i + 1, 5))


def _article(first_char: str) -> str:
    """The article an ``a(n)`` takes before a token starting with first_char."""
    return "an" if first_char.lower() in _VOWELS else "a"


def _resolve_articles(tokens: list[str], fields: Mapping[str, str] = {}) -> str:
    """The tokens joined by single spaces, each standalone ``a(n)`` resolved
    against the token after it: to the article field of the slot field that
    token opens with, else to the article of its first character."""
    for i, token in enumerate(tokens):
        if token == "a(n)":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            # A field opens with "{" and a digit; a literal brace is doubled.
            tokens[i] = fields.get(nxt[:3]) or _article(nxt[:1])
    return " ".join(tokens)


def _compile(template: PatternTemplate) -> str:
    """One format line for the template: ``{``/``}`` escaped, each slot left
    as its field, whitespace collapsed and each standalone ``a(n)`` resolved."""
    parts = _SLOT_RE.split(template.template)  # literal, letter, ":pl" or None, literal, ...
    line = parts[0].replace("{", "{{").replace("}", "}}")
    for letter, plural, literal in zip(parts[1::3], parts[2::3], parts[3::3]):
        line += _SLOT_FIELDS[letter, plural] + literal.replace("{", "{{").replace("}", "}}")
    return _resolve_articles(line.split(), _ARTICLE_FIELDS)


def _compilable(term: str) -> bool:
    """Whether a non-blank term fills a line as is: normalized, no ``a(n)`` piece."""
    words = term.split()
    return term == " ".join(words) and _ARTICLE_PIECES.isdisjoint(words)


class PatternCatalogue(tuple):
    """Templates in catalogue order, each compiled into a format line."""

    def __new__(cls, templates: Iterable[PatternTemplate]):
        self = super().__new__(cls, templates)
        self.ids = tuple(template.id for template in self)
        self.groups = tuple(template.group for template in self)
        self.zero_hits = (0,) * len(self)
        self._lines = tuple(_compile(template) for template in self)
        self._format = "\n".join(self._lines)
        self._slots: dict[str, tuple[str, str, bool]] = {}
        return self

    def _slot(self, term: str) -> tuple[str, str, bool]:
        """The term's plural, its article and whether it is ``_compilable``."""
        slot = self._slots.get(term)
        if slot is None:
            if not term.strip():
                raise ValueError("pattern instantiation needs two non-empty terms")
            slot = self._slots[term] = (
                pluralize_term(term), _article(term.lstrip()[:1]), _compilable(term)
            )
        return slot

    def queries(self, t_miss: str, t_in: str) -> list[str]:
        """Query string of every template for the pair, in catalogue order."""
        plural_miss, article_miss, compilable_miss = self._slot(t_miss)
        plural_in, article_in, compilable_in = self._slot(t_in)
        values = (t_miss, plural_miss, t_in, plural_in, article_miss, article_in)
        if self and compilable_miss and compilable_in:
            return self._format.format(*values).split("\n")
        return [_resolve_articles(line.format(*values).split()) for line in self._lines]


def parse_catalogue(text: str, source: str = "<string>") -> PatternCatalogue:
    templates = []
    groups: dict[str, RelationKind] = {}
    ids: set[str] = set()
    for n, line in records(text):
        fields = line.split("\t")
        if len(fields) != 5 or fields[0] != "P":
            raise ValueError(
                f"{source}: line {n}: expected P\\t<id>\\t<relation>\\t<group>\\t<template>"
            )
        _, pattern_id, relation_text, group, template = fields
        if pattern_id in ids:
            raise ValueError(f"{source}: line {n}: duplicate pattern id {pattern_id!r}")
        try:
            relation = RelationKind(relation_text)
        except ValueError:
            raise ValueError(f"{source}: line {n}: unknown relation {relation_text!r}") from None
        if groups.setdefault(group, relation) is not relation:
            raise ValueError(f"{source}: line {n}: group {group!r} mixes relations")
        ids.add(pattern_id)
        templates.append(PatternTemplate(pattern_id, relation, group, template))
    return PatternCatalogue(templates)


def load_catalogue(path: str | Path) -> PatternCatalogue:
    path = Path(path)
    return parse_catalogue(path.read_text(encoding="utf-8"), source=str(path))


def default_catalogue() -> PatternCatalogue:
    data = importlib.resources.files("ontoenrich").joinpath("data/patterns.tsv")
    return parse_catalogue(data.read_text(encoding="utf-8"))


_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = "aeiou"


def pluralize_word(word: str) -> str:
    """Naive English pluralization."""
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    if len(word) > 1 and word.endswith("y") and word[-2].lower() not in _VOWELS:
        return word[:-1] + "ies"
    return word + "s"


def pluralize_term(term: str) -> str:
    """Pluralize the head (last) word of a possibly multi-word term."""
    words = term.split()
    return " ".join(words[:-1] + [pluralize_word(words[-1])])


@dataclass(frozen=True, slots=True)
class RelationSuggestion:
    missing_term: str
    ontology_term: str
    relation: RelationKind
    winning_group: str | None          # None on the related-to fallback
    winner_hits: int
    hits: tuple[int, ...]              # one count per template, catalogue order


def extract_relation(
    t_miss: str,
    t_in: str,
    provider: HitCountProvider,
    catalogue: PatternCatalogue,
) -> RelationSuggestion:
    """Arbitrate one relation for a candidate pair from pattern hit counts."""
    hits = tuple(map(provider.pattern_hits, catalogue.queries(t_miss, t_in)))
    if not any(hits):  # nearly every pair: keep the catalogue's shared zero tuple
        return RelationSuggestion(
            missing_term=t_miss,
            ontology_term=t_in,
            relation=RelationKind.RELATED_TO,
            winning_group=None,
            winner_hits=0,
            hits=catalogue.zero_hits,
        )
    group_hits = dict.fromkeys(catalogue.groups, 0)
    for group, count in zip(catalogue.groups, hits):
        group_hits[group] += count
    best = max(group_hits.values())
    group_relation = {template.group: template.relation for template in catalogue}
    winner = min(
        (group for group, count in group_hits.items() if count == best),
        key=lambda g: (_SPECIFICITY.get(group_relation[g], 99), group_relation[g].value, g),
    )
    return RelationSuggestion(
        missing_term=t_miss,
        ontology_term=t_in,
        relation=group_relation[winner],
        winning_group=winner,
        winner_hits=best,
        hits=hits,
    )


def slug(surface: str) -> str:
    """Id for a new term: normalized label with hyphens for spaces and for
    ``#``, which an ontology file reads as a sense suffix."""
    return normalize_label(surface).replace(" ", "-").replace("#", "-")


def term_order(
    records: Iterable, term: Callable[..., str], second: Callable[..., str]
) -> Iterator:
    """The records in the order of a stable sort on ``(term(r).lower(),
    second(r))``: grouped by lowered term, each group sorted by ``second``
    alone, so no record holds a key tuple and each term is lowered once."""
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(term(record).lower(), []).append(record)
    for lowered in sorted(groups):
        yield from sorted(groups[lowered], key=second)


def write_pattern_audit(
    suggestions: Iterable[RelationSuggestion], catalogue: PatternCatalogue, path: str | Path
) -> None:
    """One line per issued query: pair, pattern, query string, hit count.
    Pairs are sorted case-insensitively; each pair's queries are rebuilt
    from the catalogue, and the lines are streamed to the file."""
    ordered = term_order(
        suggestions, attrgetter("missing_term"), lambda s: s.ontology_term.lower()
    )
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("missing_term\tontology_term\tpattern\tquery\thits\n")
        for suggestion in ordered:
            miss, target = suggestion.missing_term, suggestion.ontology_term
            queries = catalogue.queries(miss, target)
            for pattern_id, query, hits in zip(catalogue.ids, queries, suggestion.hits):
                out.write(f"{miss}\t{target}\t{pattern_id}\t{query}\t{hits}\n")
