"""Hierarchy placement: choosing where a suggested term attaches.

Three cases, driven by the sense count of the target concept:

* case1 - the target has a single sense; attach directly.
* case2 - the target has several senses; score each sense's hypernymy path
  by the mean relatedness between the new term and the path's concept
  labels, and attach to every maximally scored sense (ties allowed).
* case3-composite - one term relates to several targets; each target is
  resolved as case1/case2 and every decision is tagged composite.

Every stage here reads the pairs in the one order that
``relatedness.select_candidates`` sets: by lowercased missing term, then
by lowercased target. ``place_all`` checks that order as it groups the
suggestions (a misordered or repeated pair raises ``PairOrderError``),
resolves each distinct target term to its concept, and a multi-sense one
to its sense paths, once per call, not once per suggestion, and builds
composite decisions directly; its decisions and failures keep the order.
``enrich_ontology`` then visits each placed term once, in one pass over
the decisions: it resolves the id the term is inserted under (the one the
ontology already names it by, else its slug made unique within the
ontology and the batch), checks that no two decisions disagree on the
relation for one id, target and sense, and emits the term's axioms and
returns the enriched ontology. The report's writer reads each line from a
decision and its suggestion in the order given, but orders each term's
lines by target concept id, which need not sort as the target labels do; a
decision with several senses is a case-2 tie, since only case 2 places a
term under more than one sense.

Path scoring takes the run's relatedness denominator D, so placement and
candidate selection speak the same scale. A path scores 1 - (mean distance
of its usable labels) / D, so for any D > 0 the winning senses do not
depend on D, up to float rounding at near-ties. A label is usable when it
and the new term both have 0 < hits < N, the rule of
``relatedness.drop_unusable_terms``; other labels are skipped and named in
one warning per ``place_all`` call. A path with no usable label cannot win,
and if no path has a usable label the sense is unresolved. A joint count
above a usable label's own count is a provider fault and raises, as it does
in the matrix stage.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import reduce
from itertools import groupby
from operator import add, attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .hitcounts import HitCountProvider
from .ontology import (
    RELATION_NAMES,
    Axiom,
    Concept,
    Evidence,
    Instance,
    Ontology,
    RelationKind,
)
from .patterns import FALLBACK_MARKER, RelationSuggestion, slug
from .relatedness import DistanceConfig, distance_from_counts, relatedness

logger = logging.getLogger(__name__)

# Path labels scored per sense, counted from the target.
MAX_PATH_DEPTH = 5

# Field readers of suggestions and decisions, for groupby, map and sort keys.
_SUGGESTION_TERM = attrgetter("missing_term")
_DECISION_TERM = attrgetter("suggestion.missing_term")
_TARGET_CONCEPT = attrgetter("target_concept")
_DECISION_RELATION = attrgetter("suggestion.relation")
_CASE_AND_SUBCASE = attrgetter("case", "subcase")
_SENSES = attrgetter("senses")


class UnresolvedSenseError(ValueError):
    """No sense path of the target had a usable label to score."""


class ConflictingDecisionError(ValueError):
    """Two decisions disagree on the relation for the same term, target and sense."""


class PlacementDecision(NamedTuple):
    suggestion: RelationSuggestion
    target_concept: str
    senses: tuple[int, ...]
    case: str                          # "case1", "case2" or "case3-composite"
    subcase: str | None = None         # case1/case2 inside a composite decision


def disambiguate_sense(
    t_miss: str,
    paths: Sequence[tuple[tuple[str, int], ...]],
    ontology: Ontology,
    provider: HitCountProvider,
    distance: DistanceConfig,
    denominator: float,
    skipped: set[str],
) -> tuple[int, ...]:
    """The maximally related sense(s) of a multi-sense target, given its
    ``Ontology.semantic_paths_from``, one path per sense.

    A path's score is the mean relatedness between the new term and its
    usable labels, summed left to right on every Python version. Each label
    without usable hit counts is added to skipped, and logged at DEBUG when
    it first joins it.
    """
    if len(paths) < 2:
        raise ValueError(f"{len(paths)} sense paths given; disambiguation needs 2 or more")
    target = paths[0][0][0]

    n = provider.total_docs()
    f_miss = provider.hits(t_miss)
    related: dict[str, float | None] = {}  # label -> relatedness; None if unusable
    scores: list[tuple[int, float]] = []
    for path in paths:
        values = []
        for cid, _ in path[:MAX_PATH_DEPTH]:
            label = ontology.concepts[cid].label
            if label not in related:
                f_label = provider.hits(label)
                if 0 < f_miss < n and 0 < f_label < n:
                    related[label] = relatedness(distance_from_counts(
                        t_miss, label, f_miss, f_label, provider.pair_hits(t_miss, label),
                        n, distance,
                    ), denominator)
                else:
                    related[label] = None
                    if label not in skipped:
                        skipped.add(label)
                        logger.debug("sense scoring skips label %r (hits=%d, total docs=%d)",
                                     label, f_label, n)
            if related[label] is not None:
                values.append(related[label])
        if values:  # not sum(): from Python 3.12 on it compensates float sums
            scores.append((path[0][1], reduce(add, values) / len(values)))

    if not scores:
        raise UnresolvedSenseError(
            f"no sense path of {target!r} has a label with usable hit counts"
        )
    best = max(score for _, score in scores)
    return tuple(sense for sense, score in scores if score == best)


def _target_concept(term: str, ontology: Ontology) -> Concept:
    """The concept a suggestion's target term names; LookupError otherwise."""
    match = ontology.contains_term(term)
    if match is None:
        raise LookupError(f"target term {term!r} is not in the ontology")
    if not isinstance(match, Concept):
        raise LookupError(
            f"target term {term!r} resolves to an instance, which cannot anchor placement"
        )
    return match


class PlacementFailure(NamedTuple):
    suggestion: RelationSuggestion
    reason: str


class PairOrderError(ValueError):
    """Suggestions that are not in pair order (see ``place_all``)."""


def place_all(
    suggestions: Sequence[RelationSuggestion],
    ontology: Ontology,
    provider: HitCountProvider,
    distance: DistanceConfig,
    denominator: float,
) -> tuple[list[PlacementDecision], list[PlacementFailure]]:
    """Place every suggestion; terms with several targets become composite.

    The suggestions must come in pair order, the order ``select_candidates``
    emits: each term's suggestions one after another, terms in strictly
    increasing lowercased order, and each term's targets in strictly
    increasing lowercased order. Anything else raises ``PairOrderError``.
    Decisions and failures keep that order.

    Each distinct target term is resolved to its concept, and a multi-sense
    concept to its sense paths, once per call.
    Sense paths are scored on the relatedness scale of ``denominator``.
    Sense-path labels skipped for unusable hit counts are summed up in one
    warning per call.
    """
    # The result stays a (decisions, failures) pair: perfbench/harness.py
    # ``trace`` unpacks it in ``_count_place``.
    # target -> (lowered, concept, its sense paths when it has several)
    targets: dict[str, tuple[str, Concept | LookupError, list | None]] = {}
    decisions, failures = [], []
    skipped: set[str] = set()  # sense-path labels without usable hit counts
    previous = None  # the term before, and its lowered form
    for term, run in groupby(suggestions, _SUGGESTION_TERM):
        lowered_term = term.lower()
        if previous is not None and lowered_term <= previous[1]:
            raise PairOrderError(f"suggestions are not in pair order: missing term {term!r} "
                                 f"follows {previous[0]!r}")
        previous = term, lowered_term
        group = list(run)
        composite = len(group) > 1
        last = None  # the lowered target before, within the term
        for suggestion in group:
            target = suggestion.ontology_term
            resolved = targets.get(target)
            if resolved is None:
                paths = None
                try:
                    concept = _target_concept(target, ontology)
                except LookupError as exc:
                    concept = exc
                else:
                    if len(concept.senses) > 1:
                        paths = ontology.semantic_paths_from(concept.id)
                resolved = targets[target] = (target.lower(), concept, paths)
            lowered, concept, paths = resolved
            if last is not None and lowered <= last:
                raise PairOrderError(f"suggestions are not in pair order: target {target!r} "
                                     f"follows {last!r} for missing term {term!r}")
            last = lowered
            if isinstance(concept, LookupError):
                failures.append(PlacementFailure(suggestion, str(concept)))
                continue
            if paths is None:
                senses, case = (1,), "case1"
            else:
                try:
                    senses = disambiguate_sense(term, paths, ontology, provider,
                                                distance, denominator, skipped)
                except UnresolvedSenseError as exc:
                    failures.append(PlacementFailure(suggestion, str(exc)))
                    continue
                case = "case2"
            case, subcase = ("case3-composite", case) if composite else (case, None)
            decisions.append(PlacementDecision(suggestion, concept.id, senses, case, subcase))
    if skipped:
        logger.warning(
            "sense scoring skips %d labels with unusable hit counts: %s",
            len(skipped), ", ".join(repr(label) for label in sorted(skipped)),
        )
    return decisions, failures


def _fresh_id(base: str, taken: set[str]) -> str:
    """The first of base, base-2, base-3, ... not in taken, which it joins."""
    new_id, counter = base, 2
    while new_id in taken:
        new_id, counter = f"{base}-{counter}", counter + 1
    taken.add(new_id)
    return new_id


def enrich_ontology(
    ontology: Ontology,
    decisions: Sequence[PlacementDecision],
    failures: Sequence[PlacementFailure] = (),
) -> Ontology:
    """Insert each placed term once and one axiom per decision and sense.

    The decisions come in ``place_all``'s order, so each term's decisions
    follow one another; terms are visited in that order. A term the
    ontology already names keeps its id; a new one takes its slug, suffixed
    with -2, -3, ... when the ontology or an earlier term of the batch holds
    it. A new term whose decisions place it as an instance becomes an
    instance of the least of their target ids. The input ontology is
    untouched (a new value is returned), re-running with the same decisions
    is a no-op, and new terms are single-sense leaves so the hypernymy
    structure stays acyclic. Two decisions that disagree on the relation for
    one id, target and sense raise ``ConflictingDecisionError``. With INFO
    enabled, logs one line that counts the decisions by case and by
    relation, the failures and the case-2 ties.
    """
    taken = {*ontology.concepts, *ontology.instances}
    # (id, target, sense) -> relation of each id the ontology already holds,
    # kept across terms, since two terms can name one such id.
    chosen: dict[str, dict[tuple[str, str, int], RelationKind]] = {}
    new_concepts: list[Concept] = []
    new_instances: list[Instance] = []
    new_axioms: list[Axiom] = []
    evidences: dict[tuple[str, int], Evidence] = {}  # one value per (pattern, hits)
    for term, run in groupby(decisions, _DECISION_TERM):
        group = list(run)
        existing = ontology.contains_term(term)
        if existing is not None:
            inserted_id = existing.id
            _check_agreement(inserted_id, group, chosen.setdefault(inserted_id, {}))
        else:
            inserted_id = _fresh_id(slug(term), taken)
            # A fresh id is this term's alone, so its decisions can disagree
            # only where two of them name one target.
            if len(set(map(_TARGET_CONCEPT, group))) < len(group):
                _check_agreement(inserted_id, group, {})
        anchor = None  # the least target of an instance-of decision
        for decision in group:
            suggestion = decision.suggestion
            relation, target = suggestion.relation, decision.target_concept
            if relation is RelationKind.INSTANCE_OF and (anchor is None or target < anchor):
                anchor = target
            cited = (suggestion.winning_group or FALLBACK_MARKER, suggestion.winner_hits)
            evidence = evidences.get(cited)
            if evidence is None:
                evidence = evidences[cited] = Evidence(*cited)
            for sense in decision.senses:
                new_axioms.append(Axiom(relation, inserted_id, target, 1, sense, "enriched",
                                        evidence))
        if existing is None:
            if anchor is None:
                new_concepts.append(Concept(inserted_id, term))
            else:
                new_instances.append(Instance(inserted_id, term, anchor))

    if logger.isEnabledFor(logging.INFO):
        cases = Counter(map(_CASE_AND_SUBCASE, decisions))
        named = {case if subcase is None else f"{case}/{subcase}": count
                 for (case, subcase), count in cases.items()}
        kinds = Counter(map(_DECISION_RELATION, decisions))
        widths = Counter(map(len, map(_SENSES, decisions)))  # senses per decision
        logger.info(
            "enrichment: %d decisions, by case (%s), by relation (%s), %d failures, "
            "%d case-2 ties", len(decisions),
            ", ".join(f"{case} {count}" for case, count in sorted(named.items())),
            ", ".join(f"{RELATION_NAMES[kind]} {count}" for kind, count in sorted(kinds.items())),
            len(failures), sum(count for width, count in widths.items() if width > 1),
        )
    return ontology.with_additions(new_concepts, new_instances, new_axioms)


def _check_agreement(
    inserted_id: str,
    group: Sequence[PlacementDecision],
    relations: dict[tuple[str, str, int], RelationKind],
) -> None:
    """Record each of group's (id, target, sense) in relations with its
    decision's relation; raise when one is already there with another."""
    for decision in group:
        relation = decision.suggestion.relation
        for sense in decision.senses:
            key = (inserted_id, decision.target_concept, sense)
            previous = relations.setdefault(key, relation)
            if previous is not relation:
                raise ConflictingDecisionError(
                    f"decisions disagree for {key}: {RELATION_NAMES[previous]} vs "
                    f"{RELATION_NAMES[relation]}"
                )


def write_enrichment_report(
    decisions: Sequence[PlacementDecision],
    failures: Sequence[PlacementFailure],
    path: str | Path,
) -> None:
    """One line per decision, then per failure, then the tie count; the
    lines are streamed to the file. Both come in ``place_all``'s order,
    which the report keeps, but for each term's decisions, which it orders
    by target concept id."""
    ties = 0
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("term\ttarget\tsenses\trelation\tcase\tpattern\thits\tstatus\n")
        for _, run in groupby(decisions, _DECISION_TERM):
            for decision in sorted(run, key=_TARGET_CONCEPT):
                suggestion, senses = decision.suggestion, decision.senses
                ties += len(senses) > 1
                out.write(
                    f"{suggestion.missing_term}\t{decision.target_concept}"
                    f"\t{','.join(map(str, senses))}"
                    f"\t{RELATION_NAMES[suggestion.relation]}\t{decision.case}"
                    f"\t{suggestion.winning_group or FALLBACK_MARKER}"
                    f"\t{suggestion.winner_hits}\tapplied\n"
                )
        for failure in failures:
            out.write(
                f"{failure.suggestion.missing_term}\t{failure.suggestion.ontology_term}"
                f"\t-\t{RELATION_NAMES[failure.suggestion.relation]}\t-\t-\t-"
                f"\tunresolved: {failure.reason}\n"
            )
        out.write(f"# case2 ties: {ties}\n")
