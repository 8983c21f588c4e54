"""Hierarchy placement: choosing where a suggested term attaches.

Three cases, driven by the sense count of the target concept:

* case1 - the target has a single sense; attach directly.
* case2 - the target has several senses; score each sense's hypernymy path
  by the mean relatedness between the new term and the path's concept
  labels, and attach to every maximally scored sense (ties allowed).
* case3-composite - one term relates to several targets; each target is
  resolved as case1/case2 and every decision is tagged composite.

``place_all`` resolves each distinct target term to its concept once per
call, not once per suggestion, and builds composite decisions directly.
``enrich_ontology`` then visits each placed term once: it resolves the id
the term is inserted under (the one the ontology already names it by, else
its slug made unique within the ontology and the batch), checks that no two
decisions disagree on the relation for one id, target and sense, and emits
the term's axioms and returns the enriched ontology. The report's writer
reads each line from a decision and its suggestion, grouped by lowered term
(``patterns.term_order``); a decision with several senses is a case-2 tie,
since only case 2 places a term under more than one sense.

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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Sequence

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
from .patterns import FALLBACK_MARKER, RelationSuggestion, slug, term_order
from .relatedness import DistanceConfig, distance_from_counts, relatedness

logger = logging.getLogger(__name__)

# Path labels scored per sense, counted from the target.
MAX_PATH_DEPTH = 5


class UnresolvedSenseError(ValueError):
    """No sense path of the target had a usable label to score."""


class ConflictingDecisionError(ValueError):
    """Two decisions disagree on the relation for the same term, target and sense."""


@dataclass(frozen=True, slots=True)
class PlacementDecision:
    suggestion: RelationSuggestion
    target_concept: str
    senses: tuple[int, ...]
    case: str                          # "case1", "case2" or "case3-composite"
    subcase: str | None = None         # case1/case2 inside a composite decision

    @property
    def term(self) -> str:
        return self.suggestion.missing_term


def disambiguate_sense(
    t_miss: str,
    target: str,
    ontology: Ontology,
    provider: HitCountProvider,
    distance: DistanceConfig,
    denominator: float,
    skipped: set[str],
) -> tuple[int, ...]:
    """The maximally related sense(s) of a multi-sense target.

    A path's score is the mean relatedness between the new term and its
    usable labels. Each label without usable hit counts is added to skipped.
    """
    concept = ontology.concept(target)
    if len(concept.senses) < 2:
        raise ValueError(f"{target!r} has a single sense; nothing to disambiguate")

    n = provider.total_docs()
    f_miss = provider.hits(t_miss)
    related: dict[str, float | None] = {}  # label -> relatedness; None if unusable
    scores: list[tuple[int, float]] = []
    for sense, path in zip(concept.senses, ontology.semantic_paths_from(target)):
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
                    skipped.add(label)
                    logger.debug(
                        "sense scoring skips label %r for %r (unusable hit counts)",
                        label, t_miss,
                    )
            if related[label] is not None:
                values.append(related[label])
        if values:
            scores.append((sense, sum(values) / len(values)))

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


@dataclass(frozen=True, slots=True)
class PlacementFailure:
    suggestion: RelationSuggestion
    reason: str


def place_all(
    suggestions: Sequence[RelationSuggestion],
    ontology: Ontology,
    provider: HitCountProvider,
    distance: DistanceConfig,
    denominator: float,
) -> tuple[list[PlacementDecision], list[PlacementFailure]]:
    """Place every suggestion; terms with several targets become composite.

    Each distinct target term is resolved to its concept once per call.
    Sense paths are scored on the relatedness scale of ``denominator``.
    Sense-path labels skipped for unusable hit counts are summed up in one
    warning per call.
    """
    by_term: dict[str, list[RelationSuggestion]] = {}
    targets: dict[str, Concept | LookupError] = {}
    for suggestion in suggestions:
        by_term.setdefault(suggestion.missing_term, []).append(suggestion)
        target = suggestion.ontology_term
        if target not in targets:
            try:
                targets[target] = _target_concept(target, ontology)
            except LookupError as exc:
                targets[target] = exc

    decisions, failures = [], []
    skipped: set[str] = set()  # sense-path labels without usable hit counts
    for term in sorted(by_term, key=str.lower):
        group = sorted(by_term[term], key=lambda s: s.ontology_term.lower())
        composite = len(group) > 1
        for suggestion in group:
            concept = targets[suggestion.ontology_term]
            if isinstance(concept, LookupError):
                failures.append(PlacementFailure(suggestion, str(concept)))
                continue
            if len(concept.senses) == 1:
                senses, case = (1,), "case1"
            else:
                try:
                    senses = disambiguate_sense(term, concept.id, ontology, provider,
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

    Terms are visited once each, case-insensitively ordered. A term the
    ontology already names keeps its id; a new one takes its slug, suffixed
    with -2, -3, ... when the ontology or an earlier term of the batch holds
    it. The input ontology is untouched (a new value is returned), re-running
    with the same decisions is a no-op, and new terms are single-sense leaves
    so the hypernymy structure stays acyclic. Logs one INFO line that counts
    the decisions by case and by relation, the failures and the case-2 ties.
    """
    by_term: dict[str, list[PlacementDecision]] = {}
    for decision in decisions:
        by_term.setdefault(decision.term, []).append(decision)

    taken = {*ontology.concepts, *ontology.instances}
    # (id, target, sense) -> relation, kept across terms for ids the ontology
    # already holds; a fresh id is one term's alone, so its dict goes with it.
    chosen: dict[str, dict[tuple[str, str, int], RelationKind]] = {}
    new_concepts: list[Concept] = []
    new_instances: list[Instance] = []
    new_axioms: list[Axiom] = []
    evidences: dict[tuple[str, int], Evidence] = {}  # one value per (pattern, hits)
    cases: Counter[str] = Counter()  # case, or case/subcase for a composite
    kinds: Counter[RelationKind] = Counter()
    for term in sorted(by_term, key=str.lower):
        group = sorted(by_term[term], key=lambda d: (d.target_concept, d.senses))
        existing = ontology.contains_term(term)
        if existing is not None:
            inserted_id = existing.id
            relations = chosen.setdefault(inserted_id, {})
        else:
            inserted_id = _fresh_id(slug(term), taken)
            relations = {}
            anchor = next(
                (d for d in group if d.suggestion.relation is RelationKind.INSTANCE_OF), None
            )
            if anchor is None:
                new_concepts.append(Concept(inserted_id, term))
            else:
                new_instances.append(Instance(inserted_id, term, anchor.target_concept))

        for decision in group:
            suggestion = decision.suggestion
            cited = (suggestion.winning_group or FALLBACK_MARKER, suggestion.winner_hits)
            evidence = evidences.get(cited)
            if evidence is None:
                evidence = evidences[cited] = Evidence(*cited)
            for sense in decision.senses:
                key = (inserted_id, decision.target_concept, sense)
                previous = relations.setdefault(key, suggestion.relation)
                if previous is not suggestion.relation:
                    raise ConflictingDecisionError(
                        f"decisions disagree for {key}: {RELATION_NAMES[previous]} vs "
                        f"{RELATION_NAMES[suggestion.relation]}"
                    )
                new_axioms.append(
                    Axiom(
                        relation=suggestion.relation,
                        subject=inserted_id,
                        object=decision.target_concept,
                        object_sense=sense,
                        provenance="enriched",
                        evidence=evidence,
                    )
                )
            cases[decision.case if decision.subcase is None
                  else f"{decision.case}/{decision.subcase}"] += 1
            kinds[suggestion.relation] += 1

    logger.info(
        "enrichment: %d decisions, by case (%s), by relation (%s), %d failures, "
        "%d case-2 ties", len(decisions),
        ", ".join(f"{case} {count}" for case, count in sorted(cases.items())),
        ", ".join(f"{RELATION_NAMES[kind]} {count}" for kind, count in sorted(kinds.items())),
        len(failures), sum(len(d.senses) > 1 for d in decisions),
    )
    return ontology.with_additions(new_concepts, new_instances, new_axioms)


def write_enrichment_report(
    decisions: Sequence[PlacementDecision],
    failures: Sequence[PlacementFailure],
    path: str | Path,
) -> None:
    """One line per decision, then per failure, then the tie count; the
    lines are streamed to the file."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("term\ttarget\tsenses\trelation\tcase\tpattern\thits\tstatus\n")
        ordered = term_order(decisions, attrgetter("term"), attrgetter("target_concept"))
        for decision in ordered:
            suggestion = decision.suggestion
            out.write(
                f"{suggestion.missing_term}\t{decision.target_concept}"
                f"\t{','.join(map(str, decision.senses))}"
                f"\t{RELATION_NAMES[suggestion.relation]}\t{decision.case}"
                f"\t{suggestion.winning_group or FALLBACK_MARKER}"
                f"\t{suggestion.winner_hits}\tapplied\n"
            )
        for failure in sorted(failures, key=lambda f: f.suggestion.missing_term.lower()):
            out.write(
                f"{failure.suggestion.missing_term}\t{failure.suggestion.ontology_term}"
                f"\t-\t{RELATION_NAMES[failure.suggestion.relation]}\t-\t-\t-"
                f"\tunresolved: {failure.reason}\n"
            )
        out.write(f"# case2 ties: {sum(len(d.senses) > 1 for d in decisions)}\n")
