"""Precision measurement against expert judgments.

Both the expert gold standard and a system's output use the same file format
(UTF-8, tab-separated):

    E  <domain>  <verdict: eliminated|retained>  <term>
    X  <domain>  <term>  <target-concept-id>  <sense>  <relation>

Three precision figures per domain: eliminated-term precision, retained-term
precision, and placement precision (a placement matches when term, target and
sense agree; relation agreement is required by default but can be waived).
A file gives each (domain, term) at most one verdict and each (domain, term,
target, sense) at most one relation: a second E or X record that contradicts
an earlier one is rejected, since it would let either answer count as
correct; an identical repeat is one judgment.
Empty system sets leave a metric undefined; undefined is reported as a
marker, never as 0 or 1.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple

from .ontology import normalize_label, records

logger = logging.getLogger(__name__)

UNDEFINED = "undefined"


# A placement's (term, target concept id, sense); judgments map each to one relation.
PlacementKey = tuple[str, str, int]


class DomainJudgments(NamedTuple):
    eliminated: frozenset[str]
    retained: frozenset[str]
    placements: Mapping[PlacementKey, str]


def load_judgments(path: str | Path) -> dict[str, DomainJudgments]:
    """The judgments of each domain a file covers, in domain order."""
    verdicts: dict[str, dict[str, str]] = {}
    relations: dict[str, dict[PlacementKey, str]] = {}
    for n, line in records(Path(path).read_text(encoding="utf-8")):
        fields = line.split("\t")
        if fields[0] == "E" and len(fields) == 4:
            _, domain, verdict, term = fields
            if verdict not in ("eliminated", "retained"):
                raise ValueError(f"{path}: line {n}: unknown verdict {verdict!r}")
            judged = verdicts.setdefault(domain, {})
            term = normalize_label(term)
            if judged.setdefault(term, verdict) != verdict:
                raise ValueError(
                    f"{path}: line {n}: conflicting verdict {verdict!r} for {term!r}"
                    f" in {domain!r}: an earlier record gives {judged[term]!r}"
                )
        elif fields[0] == "X" and len(fields) == 6:
            _, domain, term, target, sense_text, relation = fields
            try:
                sense = int(sense_text)
            except ValueError:
                raise ValueError(f"{path}: line {n}: bad sense {sense_text!r}") from None
            given = relations.setdefault(domain, {})
            key = (normalize_label(term), target, sense)
            if given.setdefault(key, relation) != relation:
                raise ValueError(
                    f"{path}: line {n}: conflicting relation {relation!r} for {key[0]!r}"
                    f" -> {target}#{sense} in {domain!r}: an earlier record gives"
                    f" {given[key]!r}"
                )
        else:
            raise ValueError(f"{path}: line {n}: expected E or X record")
    return {
        domain: DomainJudgments(
            frozenset(t for t, v in verdicts.get(domain, {}).items() if v == "eliminated"),
            frozenset(t for t, v in verdicts.get(domain, {}).items() if v == "retained"),
            relations.get(domain, {}),
        )
        for domain in sorted(set(verdicts) | set(relations))
    }


def _set_precision(system: Iterable[Hashable], expert: Iterable[Hashable]) -> float | None:
    system, expert = frozenset(system), frozenset(expert)
    if not system:
        return None
    return len(system & expert) / len(system)


def enrichment_precision(
    system: Mapping[PlacementKey, str],
    expert: Mapping[PlacementKey, str],
    require_relation: bool = True,
) -> float | None:
    """Share of system placements that agree with an expert placement: the
    set precision of their (key, relation) items, or of their keys alone
    when the relation is not required. A mapping gives a key one relation,
    so the items count each placement once."""
    if require_relation:
        return _set_precision(system.items(), expert.items())
    return _set_precision(system, expert)


class DomainPrecision(NamedTuple):
    domain: str
    expert_eliminated: int
    system_eliminated: int
    elimination: float | None
    expert_retained: int
    system_retained: int
    retention: float | None
    expert_placements: int
    system_placements: int
    enrichment: float | None

    @property
    def elimination_error_rate(self) -> float | None:
        if self.elimination is None:
            return None
        return 1.0 - self.elimination


def precision_report(
    system: Mapping[str, DomainJudgments],
    expert: Mapping[str, DomainJudgments],
    require_relation: bool = True,
) -> list[DomainPrecision]:
    """Per-domain metrics for every domain the expert file covers."""
    for domain in sorted(set(system) - set(expert)):
        logger.warning("system output covers domain %r the expert file does not", domain)
    rows = []
    empty = DomainJudgments(frozenset(), frozenset(), {})
    for domain in sorted(expert):
        gold = expert[domain]
        mine = system.get(domain, empty)
        rows.append(
            DomainPrecision(
                domain=domain,
                expert_eliminated=len(gold.eliminated),
                system_eliminated=len(mine.eliminated),
                elimination=_set_precision(mine.eliminated, gold.eliminated),
                expert_retained=len(gold.retained),
                system_retained=len(mine.retained),
                retention=_set_precision(mine.retained, gold.retained),
                expert_placements=len(gold.placements),
                system_placements=len(mine.placements),
                enrichment=enrichment_precision(
                    mine.placements, gold.placements, require_relation
                ),
            )
        )
    return rows


def _fmt(value: float | None) -> str:
    return UNDEFINED if value is None else f"{value:.2f}"


def write_precision_report(rows: list[DomainPrecision], path: str | Path) -> None:
    lines = ["# elimination", "domain\texpert\tsystem\tprecision\terror_rate"]
    for row in rows:
        lines.append(
            f"{row.domain}\t{row.expert_eliminated}\t{row.system_eliminated}"
            f"\t{_fmt(row.elimination)}\t{_fmt(row.elimination_error_rate)}"
        )
    lines += ["# retention", "domain\texpert\tsystem\tprecision"]
    for row in rows:
        lines.append(
            f"{row.domain}\t{row.expert_retained}\t{row.system_retained}"
            f"\t{_fmt(row.retention)}"
        )
    lines += ["# placement", "domain\texpert\tsystem\tprecision"]
    for row in rows:
        lines.append(
            f"{row.domain}\t{row.expert_placements}\t{row.system_placements}"
            f"\t{_fmt(row.enrichment)}"
        )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
