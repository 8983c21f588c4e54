"""Relation arbitration from surface-pattern hit counts.

A catalogue of templates like ``{X} is a(n) {Y}`` is instantiated for each
candidate pair, every query string is submitted to a hit-count provider, and
the template group with the highest summed count names the relation between
the pair. Variants inside one group ("is a(n)", "is a kind of", the plural
forms) pool their counts before arbitration. When every query returns zero
the pair falls back to the weak "related-to" relation: the statistics already
vouched for the pair, the catalogue just cannot name the relation.

A catalogue is compiled once, when it is parsed, into one format string with
a line per template: whitespace collapsed, ``{``/``}`` escaped, and each
standalone ``a(n)`` resolved against the literal after it or, when a slot
follows, left as a field that takes its article from that slot's first
character. One format call and one split per pair then yield every query in
catalogue order. That holds when both terms are normalized (single spaces, no
edge whitespace) and have no token that is a piece of ``a(n)``, since a piece
glued to a slot's neighbour can complete one. Mined terms are joined by single
spaces, and the default stoplist holds ``a``, so nearly all qualify. Any other
pair takes the general path: each template's literal pieces joined with the
slot values, whitespace collapsed and each ``a(n)`` token resolved against the
token after it, so an ``a(n)`` that a term brings in is resolved too. Each
term is pluralized once per pair, not once per plural slot. A plain sequence
of templates is compiled on the fly.

A suggestion keeps each issued query as a plain ``(pattern id, query, hits)``
tuple, in catalogue order, and the audit streams them to its file line by
line: a default desk run issues 89,100 queries.

Templates never contain negation operators; the catalogue loader rejects
them, so no negated query is ever issued. Pattern ids are unique within a
catalogue.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .hitcounts import HitCountProvider
from .ontology import RelationKind, normalize_label

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
    # Compiled once: the literal text around the two slots, and the slot keys.
    _pieces: tuple[str, str, str] = field(init=False, repr=False, compare=False)
    _slots: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = _SLOT_RE.split(self.template)  # literal, letter, ":pl" or None, literal, ...
        letters = parts[1::3]
        if sorted(letters) != ["X", "Y"]:
            raise ValueError(
                f"pattern {self.id!r} must contain exactly one X and one Y slot"
            )
        lowered = {tok.lower() for tok in self.template.split()}
        banned = lowered & NEGATION_WORDS
        if banned:
            raise ValueError(f"pattern {self.id!r} contains negation {sorted(banned)}")
        if self.relation is RelationKind.RELATED_TO:
            raise ValueError("related-to is the fallback relation, not a pattern relation")
        object.__setattr__(self, "_pieces", tuple(parts[0::3]))
        object.__setattr__(self, "_slots", tuple(
            letter + (plural or "") for letter, plural in zip(letters, parts[2::3])
        ))

    def query(self, slot_values: Mapping[str, str]) -> str:
        """Query string for the values of ``X``, ``X:pl``, ``Y`` and ``Y:pl``:
        whitespace collapsed, each ``a(n)`` token resolved against the next token."""
        before, middle, after = self._pieces
        first, second = self._slots
        tokens = (before + slot_values[first] + middle + slot_values[second] + after).split()
        if "a(n)" in tokens:
            for i, token in enumerate(tokens):
                if token == "a(n)":
                    tokens[i] = _article(tokens[i + 1][:1] if i + 1 < len(tokens) else "")
        return " ".join(tokens)


# Format fields of a compiled template line: the four slot values, then the
# article of X and of Y (pluralizing keeps a term's first character).
_SLOT_FIELDS = {"X": "{0}", "X:pl": "{1}", "Y": "{2}", "Y:pl": "{3}"}
_ARTICLE_FIELDS = {"{0}": "{4}", "{1}": "{4}", "{2}": "{5}", "{3}": "{5}"}
# Tokens that are an "a(n)", or could make one glued to a template literal
# or to the other term, as "{X}(n)" does with X = "a".
_ARTICLE_PIECES = frozenset("a(n)"[i:j] for i in range(4) for j in range(i + 1, 5))


def _article(first_char: str) -> str:
    """The article an ``a(n)`` takes before a token starting with first_char."""
    return "an" if first_char.lower() in _VOWELS else "a"


def _compile(template: PatternTemplate) -> str:
    """One format line for the template: ``PatternTemplate.query`` with each
    slot left as its field, for normalized terms without an ``a(n)`` piece."""
    before, middle, after = (
        piece.replace("{", "{{").replace("}", "}}") for piece in template._pieces
    )
    first, second = (_SLOT_FIELDS[slot] for slot in template._slots)
    tokens = (before + first + middle + second + after).split()
    for i, token in enumerate(tokens):
        if token == "a(n)":
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            # A field opens with "{" and a digit; a literal brace is doubled.
            tokens[i] = _ARTICLE_FIELDS.get(nxt[:3]) or _article(nxt[:1])
    return " ".join(tokens)


def _compilable(term: str) -> bool:
    """Whether the term can fill a compiled format: normalized, no ``a(n)`` piece."""
    words = term.split()
    return bool(words) and term == " ".join(words) and _ARTICLE_PIECES.isdisjoint(words)


class PatternCatalogue(tuple):
    """Templates in catalogue order, compiled into one format with a line
    per template."""

    def __new__(cls, templates: Iterable[PatternTemplate]):
        self = super().__new__(cls, templates)
        self.ids = tuple(template.id for template in self)
        self.groups = tuple(template.group for template in self)
        self._format = "\n".join(_compile(template) for template in self)
        return self

    def queries(self, t_miss: str, t_in: str) -> list[str]:
        """Query string of every template for the pair, in catalogue order."""
        if self and _compilable(t_miss) and _compilable(t_in):
            return self._format.format(
                t_miss, pluralize_term(t_miss), t_in, pluralize_term(t_in),
                _article(t_miss[:1]), _article(t_in[:1]),
            ).split("\n")
        if not t_miss.strip() or not t_in.strip():
            raise ValueError("pattern instantiation needs two non-empty terms")
        slot_values = {
            "X": t_miss, "X:pl": pluralize_term(t_miss),
            "Y": t_in, "Y:pl": pluralize_term(t_in),
        }
        return [template.query(slot_values) for template in self]


def parse_catalogue(text: str, source: str = "<string>") -> PatternCatalogue:
    templates = []
    groups: dict[str, RelationKind] = {}
    ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5 or fields[0] != "P":
            raise ValueError(f"{source}: line {lineno}: expected P\\t<id>\\t<relation>\\t<group>\\t<template>")
        _, pattern_id, relation_text, group, template = fields
        if pattern_id in ids:
            raise ValueError(f"{source}: line {lineno}: duplicate pattern id {pattern_id!r}")
        try:
            relation = RelationKind(relation_text)
        except ValueError:
            raise ValueError(f"{source}: line {lineno}: unknown relation {relation_text!r}") from None
        if groups.setdefault(group, relation) is not relation:
            raise ValueError(
                f"{source}: line {lineno}: group {group!r} mixes relations"
            )
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


def _compiled(catalogue: Sequence[PatternTemplate]) -> PatternCatalogue:
    return catalogue if isinstance(catalogue, PatternCatalogue) else PatternCatalogue(catalogue)


def instantiate_patterns(
    t_miss: str,
    t_in: str,
    catalogue: Sequence[PatternTemplate],
) -> list[tuple[str, str]]:
    """Expand every template for the pair; returns (pattern id, query string)."""
    catalogue = _compiled(catalogue)
    return list(zip(catalogue.ids, catalogue.queries(t_miss, t_in)))


@dataclass(frozen=True)
class RelationSuggestion:
    missing_term: str
    ontology_term: str
    relation: RelationKind
    winning_group: str | None          # None on the related-to fallback
    winner_hits: int
    group_hits: Mapping[str, int]
    queries: tuple[tuple[str, str, int], ...]  # (pattern id, query, hits), catalogue order
    tied: bool = False


def extract_relation(
    t_miss: str,
    t_in: str,
    provider: HitCountProvider,
    catalogue: Sequence[PatternTemplate],
) -> RelationSuggestion:
    """Arbitrate one relation for a candidate pair from pattern hit counts."""
    catalogue = _compiled(catalogue)
    pattern_hits = provider.pattern_hits
    queries = tuple([
        (pattern_id, query, pattern_hits(query))
        for pattern_id, query in zip(catalogue.ids, catalogue.queries(t_miss, t_in))
    ])
    group_hits = dict.fromkeys(catalogue.groups, 0)
    for group, (_, _, count) in zip(catalogue.groups, queries):
        if count:
            group_hits[group] += count

    best = max(group_hits.values(), default=0)
    if best == 0:
        return RelationSuggestion(
            missing_term=t_miss,
            ontology_term=t_in,
            relation=RelationKind.RELATED_TO,
            winning_group=None,
            winner_hits=0,
            group_hits=group_hits,
            queries=queries,
        )
    group_relation = {template.group: template.relation for template in catalogue}
    winners = sorted(
        (group for group, count in group_hits.items() if count == best),
        key=lambda g: (_SPECIFICITY.get(group_relation[g], 99), group_relation[g].value, g),
    )
    return RelationSuggestion(
        missing_term=t_miss,
        ontology_term=t_in,
        relation=group_relation[winners[0]],
        winning_group=winners[0],
        winner_hits=best,
        group_hits=group_hits,
        queries=queries,
        tied=len(winners) > 1,
    )


def slug(surface: str) -> str:
    """Concept id for a new term: normalized label with hyphens for spaces."""
    return normalize_label(surface).replace(" ", "-")


def write_pattern_audit(suggestions: Iterable[RelationSuggestion], path: str | Path) -> None:
    """One line per issued query: pair, pattern, query string, hit count.
    Pairs are sorted case-insensitively; the lines are streamed to the file."""
    ordered = sorted(suggestions, key=lambda s: (s.missing_term.lower(), s.ontology_term.lower()))
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("missing_term\tontology_term\tpattern\tquery\thits\n")
        for suggestion in ordered:
            pair = f"{suggestion.missing_term}\t{suggestion.ontology_term}"
            for pattern_id, query, hits in suggestion.queries:
                out.write(f"{pair}\t{pattern_id}\t{query}\t{hits}\n")
