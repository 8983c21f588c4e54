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
term. ``PatternCatalogue.queries`` is the one query builder: it formats
each line with the pair's values, then collapses whitespace and resolves
each ``a(n)`` token against the token after it, so an ``a(n)`` that a term
brings in, or that a term's edge whitespace sets apart from a slot, is
resolved too. Side tests (below) settle nearly every pair without it. A term
is compilable when it is normalized (single spaces, no edge whitespace) and
has no token that is a piece of ``a(n)`` (a piece glued to a slot's
neighbour can complete one); mined terms are joined by single spaces, and
the default stoplist holds ``a``, so nearly all terms are. A catalogue works
out each term's plural, article and whether it is compilable once, the first
time the term fills a slot, not once per pair.

A suggestion keeps its hit counts only, one per template in catalogue order.
Every all-zero suggestion shares its catalogue's one zero tuple, and only a
pair that counts something sums its counts per group.

Each compiled line has two side lines: the tokens on X's side of every
token that holds a field of Y, and the same for Y. So a side query,
normalized, is a whitespace-token run of its pair's full query, normalized.
``SideMasks`` turns a term's side queries, the first time it fills a slot,
into a bit mask of the templates it leaves viable: those whose side query is
empty or passes the run's test. An index counts the documents that hold a
query as one contiguous token run, so a query never counts more than a run
of its tokens, and its test is the side query's count. A snapshot counts 0
for a key it lacks or holds with 0, and its test is whether the side query
is a token run of a non-zero key. A pair issues only the queries both masks
leave viable. ``SideMasks.suggest`` is where pairs are settled, a missing
term's pairs together: it takes the term's X mask once, and when that is 0
gives every target a related-to suggestion with the shared zero tuple,
taking no Y mask. Only the pairs both masks leave viable reach
``extract_relation``, so a settled pair builds no query. A default desk run
issues 59 of its 89,100 queries after 1,980 side tests, and 59 of its 8,100
pairs reach ``extract_relation``; 8,090 count nothing.

The audit writes the pairs in the order given, which in a run is the pair
order that ``relatedness.select_candidates`` sets and
``placement.place_all`` checks. It writes UTF-8 bytes to a file opened in
binary mode, so its lines end in ``\n`` on every platform. A line's format
fields are X's term, plural and article (0-2), then Y's (3-5). A pair takes
one of two paths. The zero block, compiled with the catalogue, has the zero
counts in it, X's fields and each of Y's as a ``%s``. The writer fills X's
fields once per run of pairs with one exact missing term (``%`` escaped),
encodes that block, holds it alone, and writes each such pair whose hits
are the shared zero tuple and whose target is compilable with one ``bytes``
``%`` format over the target's encoded values, worked out once per target.
Any other pair is joined by ``audit_lines`` from ``queries`` and encoded.
At seed 0 the ``corpus10x``, ``vocab4x`` and ``desk-allpairs`` benchmark
runs write 10 pairs each that way and 260, 890 and 8,090 by the zero block.

Templates never contain negation operators; the catalogue loader rejects
them, so no negated query is ever issued. Pattern ids are unique within a
catalogue.
"""

from __future__ import annotations

import functools
import importlib.resources
import re
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from .hitcounts import HitCountProvider
from .ontology import RelationKind, normalize_label, read_input, records

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


class PatternTemplate(NamedTuple("PatternTemplate", [
        ("id", str), ("relation", RelationKind), ("group", str), ("template", str)])):
    """A template with one X and one Y slot, no negation word and a
    relation other than the fallback; any other is rejected when built."""

    __slots__ = ()

    def __new__(cls, id: str, relation: RelationKind, group: str, template: str):
        if sorted(letter for letter, _ in _SLOT_RE.findall(template)) != ["X", "Y"]:
            raise ValueError(f"pattern {id!r} must contain exactly one X and one Y slot")
        banned = {tok.lower() for tok in template.split()} & NEGATION_WORDS
        if banned:
            raise ValueError(f"pattern {id!r} contains negation {sorted(banned)}")
        if relation is RelationKind.RELATED_TO:
            raise ValueError("related-to is the fallback relation, not a pattern relation")
        return super().__new__(cls, id, relation, group, template)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` checks as well."""
        return cls(*iterable)


# Format fields of a compiled template line: X's term, plural and article,
# then Y's (pluralizing keeps a term's first character).
_SLOT_FIELDS = {("X", None): "{0}", ("X", ":pl"): "{1}", ("Y", None): "{3}", ("Y", ":pl"): "{4}"}
_ARTICLE_FIELDS = {"{0}": "{2}", "{1}": "{2}", "{3}": "{5}", "{4}": "{5}"}
# Field numbers of X's and Y's term and plural, and of all of each slot's values.
_TERM_NUMBERS = (frozenset("01"), frozenset("34"))
_SLOT_NUMBERS = (frozenset("012"), frozenset("345"))
# A format field, or an escaped brace pair that looks like the start of one.
_FIELD_RE = re.compile(r"\{\{|\{(\d)\}")
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


def _escape(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _compile(template: PatternTemplate) -> str:
    """One format line for the template: ``{``/``}`` escaped, each slot left
    as its field, whitespace collapsed and each standalone ``a(n)`` resolved."""
    parts = _SLOT_RE.split(template.template)  # literal, letter, ":pl" or None, literal, ...
    line = _escape(parts[0])
    for letter, plural, literal in zip(parts[1::3], parts[2::3], parts[3::3]):
        line += _SLOT_FIELDS[letter, plural] + _escape(literal)
    return _resolve_articles(line.split(), _ARTICLE_FIELDS)


def _side_lines(line: str) -> list[str]:
    """The X and Y side lines of a compiled line: the run of tokens around
    the token that holds the slot's value, cut before each token that holds
    a field of the other slot; empty when the slot's token holds one."""
    tokens = line.split()
    fields = [frozenset(_FIELD_RE.findall(token)) for token in tokens]
    sides = []
    for term, other in zip(_TERM_NUMBERS, _SLOT_NUMBERS[::-1]):
        at = next(i for i, held in enumerate(fields) if held & term)
        cuts = [i for i, held in enumerate(fields) if held & other]
        if at in cuts:
            sides.append("")
            continue
        start = max([i + 1 for i in cuts if i < at], default=0)
        end = min([i for i in cuts if i > at], default=len(tokens))
        sides.append(" ".join(tokens[start:end]))
    return sides


def _compilable(term: str) -> bool:
    """Whether a non-blank term fills a line as is: normalized, no ``a(n)`` piece."""
    words = term.split()
    return term == " ".join(words) and _ARTICLE_PIECES.isdisjoint(words)


class PatternCatalogue(tuple):
    """Templates in catalogue order, each compiled into a format line and
    two side lines; the audit lines of all of them are also compiled once
    with zero counts."""

    def __new__(cls, templates: Iterable[PatternTemplate]):
        self = super().__new__(cls, templates)
        self.ids = tuple(template.id for template in self)
        self.groups = tuple(template.group for template in self)
        self.zero_hits = (0,) * len(self)
        self._lines = tuple(_compile(template) for template in self)
        sides = [_side_lines(line) for line in self._lines]
        self._side_formats = tuple("\n".join(side[slot] for side in sides) for slot in (0, 1))
        # The audit lines with zero counts, in two stages: X's fields stay,
        # each of Y's becomes a "%s", and a literal "%" is doubled. Y's field
        # n takes value n - 3 of the target's (term, plural, article).
        order: list[int] = []

        def zero_field(match: re.Match) -> str:
            if match[1] in _SLOT_NUMBERS[1]:
                order.append(int(match[1]) - 3)
                return "%s"
            return match[0]  # one of X's fields, or an escaped brace

        self._zero_block = _FIELD_RE.sub(zero_field, "".join(
            f"{{0}}\t{{3}}\t{_escape(pattern_id)}\t{line}\t0\n"
            for pattern_id, line in zip(self.ids, self._lines)
        ).replace("%", "%%"))
        self._zero_order = tuple(order)
        self._slots: dict[str, tuple[tuple[str, str, str], bool]] = {}
        return self

    def _slot(self, term: str) -> tuple[tuple[str, str, str], bool]:
        """The term's values (term, plural, article); whether it is ``_compilable``."""
        slot = self._slots.get(term)
        if slot is None:
            if not term.strip():
                raise ValueError("pattern instantiation needs two non-empty terms")
            slot = self._slots[term] = (
                (term, pluralize_term(term), _article(term.lstrip()[:1])), _compilable(term)
            )
        return slot

    def queries(self, t_miss: str, t_in: str) -> list[str]:
        """Query string of every template for the pair, in catalogue order."""
        values = self._slot(t_miss)[0] + self._slot(t_in)[0]
        return [_resolve_articles(line.format(*values).split()) for line in self._lines]

    def side_queries(self, term: str, slot: int) -> list[str] | None:
        """The side query of every template for the term in slot 0 (X) or 1
        (Y), in catalogue order. None when the catalogue is empty, or the
        term is not compilable or has no alphanumeric character: a side
        query of punctuation alone counts 0 where its pair's query may not."""
        values, compilable = self._slot(term)
        if not (self and compilable and any(map(str.isalnum, term))):
            return None
        return self._side_formats[slot].format(*values, *values).split("\n")

    def zero_block(self, t_miss: str) -> bytes | None:
        """The UTF-8 audit lines of an all-zero pair with t_miss in X, as a
        ``bytes`` ``%`` format over ``zero_values`` of its target; None when
        t_miss is not ``_compilable``."""
        values, compilable = self._slot(t_miss)
        if not compilable:
            return None
        return self._zero_block.format(*(value.replace("%", "%%") for value in values)).encode()

    def zero_values(self, t_in: str) -> tuple[bytes, ...] | None:
        """The UTF-8 values a ``zero_block`` takes for t_in in Y, each of
        the target's three encoded once; None when t_in is not
        ``_compilable``."""
        values, compilable = self._slot(t_in)
        if not compilable:
            return None
        encoded = [value.encode() for value in values]
        return tuple(encoded[n] for n in self._zero_order)

    def audit_lines(self, t_miss: str, t_in: str, hits: tuple[int, ...]) -> str:
        """One line per template: pair, pattern id, query string, hit count."""
        return "".join(
            f"{t_miss}\t{t_in}\t{pattern_id}\t{query}\t{count}\n"
            for pattern_id, query, count in zip(self.ids, self.queries(t_miss, t_in), hits)
        )


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


def load_catalogue(path: str | Path, digest=None) -> PatternCatalogue:
    return parse_catalogue(read_input(path, digest), source=str(path))


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


class RelationSuggestion(NamedTuple):
    missing_term: str
    ontology_term: str
    relation: RelationKind
    winning_group: str                 # FALLBACK_MARKER on the related-to fallback
    winner_hits: int
    hits: tuple[int, ...]              # one count per template, catalogue order


class SideMasks:
    """Per-run memo of the templates each term leaves viable in each slot.
    ``test`` tells whether a side query may count something; it must be
    true for each side query of every full query that counts something.
    It counts the side tests and the full queries it makes, how many of
    each counted something, and the pairs ``suggest`` settles without a
    full query."""

    def __init__(self, test: Callable[[str], object]):
        self._test = test
        self._masks: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.side_tests = self.side_nonzero = 0
        self.full_queries = self.full_nonzero = self.settled = 0

    def _mask(self, term: str, slot: int, catalogue: PatternCatalogue) -> int:
        """Bit n set when template n's side query for the term is empty or
        passes the test; every bit when the term has no side queries."""
        mask = self._masks[slot].get(term)
        if mask is None:
            queries = catalogue.side_queries(term, slot)
            if queries is None:
                mask = (1 << len(catalogue)) - 1
            else:
                passed = {"": True}  # an empty side query rules nothing out
                for query in queries:
                    if query not in passed:
                        passed[query] = bool(self._test(query))
                        self.side_tests += 1
                        self.side_nonzero += passed[query]
                mask = sum(1 << n for n, query in enumerate(queries) if passed[query])
            self._masks[slot][term] = mask
        return mask

    def hits(
        self, t_miss: str, t_in: str, provider: HitCountProvider, catalogue: PatternCatalogue
    ) -> tuple[int, ...]:
        """The pair's count per template: 0 without a query where either
        term's mask clears the template's bit."""
        viable = self._mask(t_miss, 0, catalogue) & self._mask(t_in, 1, catalogue)
        hits = tuple(
            provider.pattern_hits(query) if viable >> n & 1 else 0
            for n, query in enumerate(catalogue.queries(t_miss, t_in))
        )
        self.full_queries += viable.bit_count()
        self.full_nonzero += len(hits) - hits.count(0)
        return hits

    def suggest(self, t_miss: str, targets: list[str], provider: HitCountProvider,
                catalogue: PatternCatalogue,
                extract: Callable[..., RelationSuggestion]) -> list[RelationSuggestion]:
        """One suggestion per target of t_miss, in order: the term's X mask
        is taken once, and a target's Y mask only when X's leaves a template
        viable. A pair the masks leave no template is settled: it gets a
        related-to suggestion with the catalogue's ``zero_hits``, as
        ``extract_relation`` would give it. The others go to extract, which
        is ``extract_relation`` or a wrapper of it."""
        related, zero_hits = RelationKind.RELATED_TO, catalogue.zero_hits
        viable = self._mask(t_miss, 0, catalogue)
        suggestions = []
        for t_in in targets:
            if viable and viable & self._mask(t_in, 1, catalogue):
                suggestions.append(extract(t_miss, t_in, provider, catalogue, self))
            else:
                self.settled += 1
                suggestions.append(
                    RelationSuggestion(t_miss, t_in, related, FALLBACK_MARKER, 0, zero_hits))
        return suggestions


def extract_relation(
    t_miss: str,
    t_in: str,
    provider: HitCountProvider,
    catalogue: PatternCatalogue,
    sides: SideMasks,
) -> RelationSuggestion:
    """Arbitrate one relation for a candidate pair from pattern hit counts;
    a template either term's side test in ``sides`` rules out counts 0
    unqueried."""
    hits = sides.hits(t_miss, t_in, provider, catalogue)
    if not any(hits):  # nearly every pair: keep the catalogue's shared zero tuple
        return RelationSuggestion(t_miss, t_in, RelationKind.RELATED_TO, FALLBACK_MARKER, 0,
                                  catalogue.zero_hits)
    group_hits = dict.fromkeys(catalogue.groups, 0)
    for group, count in zip(catalogue.groups, hits):
        group_hits[group] += count
    best = max(group_hits.values())
    group_relation = {template.group: template.relation for template in catalogue}
    winner = min(
        (group for group, count in group_hits.items() if count == best),
        key=lambda g: (_SPECIFICITY.get(group_relation[g], 99), group_relation[g], g),
    )
    return RelationSuggestion(t_miss, t_in, group_relation[winner], winner, best, hits)


def slug(surface: str) -> str:
    """Id for a new term: normalized label with hyphens for spaces and for
    ``#``, which an ontology file reads as a sense suffix."""
    return normalize_label(surface).replace(" ", "-").replace("#", "-")


def write_pattern_audit(
    suggestions: Iterable[RelationSuggestion], catalogue: PatternCatalogue, path: str | Path
) -> None:
    """One line per template and pair: pair, pattern, query string, hit
    count, in UTF-8 with ``\n`` line ends. Pairs are written in the order
    given, each pair's lines streamed to the file. A pair of compilable
    terms whose hits are the catalogue's ``zero_hits`` fills its missing
    term's ``zero_block``, which is held while the pairs of that exact term
    follow one another, with its target's ``zero_values``, taken once per
    target; any other pair writes ``PatternCatalogue.audit_lines``."""
    zero_hits = catalogue.zero_hits
    zero_values = functools.cache(catalogue.zero_values)
    held_term = held = None
    with Path(path).open("wb") as out:
        out.write(b"missing_term\tontology_term\tpattern\tquery\thits\n")
        for s in suggestions:
            if s.hits is zero_hits:
                if s.missing_term != held_term:
                    held_term, held = s.missing_term, catalogue.zero_block(s.missing_term)
                values = None if held is None else zero_values(s.ontology_term)
                if values is not None:
                    out.write(held % values)
                    continue
            out.write(catalogue.audit_lines(s.missing_term, s.ontology_term, s.hits).encode())
