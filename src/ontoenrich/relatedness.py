"""Statistical relatedness between missing terms and ontology terms.

The building block is a normalized co-occurrence distance between two terms,
computed from their individual document frequencies f1, their joint frequency
f2, and the collection size N (all counts come from a hit-count provider):

    distance(a, b) = (max(log f1(a), log f1(b)) - log f2(a, b))
                     / (log N - min(log f1(a), log f1(b)))

The distance is 0 when two terms always occur together and grows as they
share fewer documents. It is a ratio of log differences, so the log base
cancels. When f2 is 0 the expression is undefined and a configurable cap is
substituted (default 1.0, the practical upper range on real corpora).

Relatedness then normalizes each pair's distance by the sum of distances
over the whole batch of (missing term, ontology term) pairs in a run:

    relatedness(m, t) = 1 - distance(m, t) / sum over all batch pairs

which lands every cell in [0, 1]; 1 means maximally related. ``relatedness``
is that formula, and sense placement scores its paths with it too.

The batch fetches N and takes log N once, and fetches f1, checks
0 < f1 < N and takes log f1 once per row and column term. A cell then needs
only its f2: one ``pair_hits`` call, the f2 <= min f1 check and log f2.
Each log takes the argument ``distance_from_counts`` gives it, so every
cell is the float that function returns. ``relatedness`` is taken once per
distinct distance, and every cell of that distance holds the same float
object: a batch has far fewer distinct distances than cells (under 2,000 of
108,000 on the ``vocab4x`` benchmark workload).

``DEFAULT_DISTANCE_CAP`` and ``DEFAULT_THRESHOLD`` are the defaults of the
cap and the threshold, which ``pipeline.RunConfig`` and the command line
take too. ``DistanceConfig`` and ``SelectionConfig`` check the valid range
of each run setting (the cap; the threshold and the per-term cap).
"""

from __future__ import annotations

import heapq
import logging
import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .hitcounts import HitCountProvider

logger = logging.getLogger(__name__)

DEFAULT_DISTANCE_CAP = 1.0
DEFAULT_THRESHOLD = 0.5


class DegenerateDenominatorError(ValueError):
    """A term occurs in at least as many documents as the collection holds."""


class DistanceConfig(NamedTuple("DistanceConfig", [("zero_cooccurrence_cap", float)])):
    """The distance of a pair that never co-occurs: finite and >= 0."""

    __slots__ = ()

    def __new__(cls, zero_cooccurrence_cap: float = DEFAULT_DISTANCE_CAP):
        if not (math.isfinite(zero_cooccurrence_cap) and zero_cooccurrence_cap >= 0):
            raise ValueError(
                f"distance cap must be finite and >= 0, got {zero_cooccurrence_cap}"
            )
        return super().__new__(cls, zero_cooccurrence_cap)


def distance_from_counts(
    a: str,
    b: str,
    fa: int,
    fb: int,
    f2: int,
    n: int,
    cfg: DistanceConfig = DistanceConfig(),
) -> float:
    """Co-occurrence distance from the hit counts of a, b, the pair and N."""
    if fa <= 0 or fb <= 0:
        raise ValueError(f"distance needs positive hit counts, got {a!r}={fa}, {b!r}={fb}")
    if n <= max(fa, fb):
        raise DegenerateDenominatorError(
            f"collection size {n} must exceed the hit counts of {a!r} and {b!r}"
        )
    if f2 == 0:
        return cfg.zero_cooccurrence_cap
    if f2 > min(fa, fb):
        raise ValueError(
            f"provider reports joint count {f2} above min individual count "
            f"for ({a!r}, {b!r})"
        )
    numerator = max(math.log(fa), math.log(fb)) - math.log(f2)
    denominator = math.log(n) - min(math.log(fa), math.log(fb))
    return numerator / denominator


def ngram_hits_filter(missing: Iterable[str], provider: HitCountProvider) -> list[str]:
    """Keep exactly the terms with a positive hit count, in their given order."""
    return [term for term in missing if provider.hits(term) > 0]


def drop_unusable_terms(terms: Iterable[str], provider: HitCountProvider) -> list[str]:
    """The usable terms (0 < hits < N), case-insensitively ordered.

    Warns once per call naming the dropped terms; per-term counts go to DEBUG.
    """
    kept, dropped = [], []
    n = provider.total_docs()
    for term in sorted(set(terms), key=str.lower):
        count = provider.hits(term)
        if 0 < count < n:
            kept.append(term)
        else:
            dropped.append(term)
            logger.debug(
                "dropping term %r from the relatedness batch (hits=%d, total docs=%d)",
                term, count, n,
            )
    if dropped:
        logger.warning(
            "dropping %d terms from the relatedness batch (hits 0 or >= total docs %d): %s",
            len(dropped), n, ", ".join(repr(term) for term in dropped),
        )
    return kept


class RelatednessMatrix(NamedTuple):
    missing_terms: tuple[str, ...]
    ontology_terms: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]
    denominator: float


def _sorted_unique(terms: Iterable[str], side: str) -> tuple[str, ...]:
    ordered = sorted(set(terms), key=lambda t: (t.lower(), t))
    lowered = [t.lower() for t in ordered]
    if len(set(lowered)) != len(lowered):
        raise ValueError(f"{side} terms contain case-duplicate surfaces")
    if not ordered:
        raise ValueError(f"{side} term set is empty")
    return tuple(ordered)


def relatedness_matrix(
    missing_terms: Iterable[str],
    ontology_terms: Iterable[str],
    provider: HitCountProvider,
    cfg: DistanceConfig = DistanceConfig(),
) -> RelatednessMatrix:
    """Batch relatedness: one row per missing term, one column per known term.

    All terms must already satisfy 0 < hits < total docs; the shared
    denominator is the ordered sum of the batch's pairwise distances.
    A term that does not fails as ``distance_from_counts`` does at the first
    bad cell in row-major order.
    """
    rows = _sorted_unique(missing_terms, "missing")
    cols = _sorted_unique(ontology_terms, "ontology")
    n = provider.total_docs()
    col_hits = [provider.hits(term) for term in cols]
    row_hits = [provider.hits(term) for term in rows]
    pair_hits = provider.pair_hits
    if all(0 < count < n for count in col_hits + row_hits):
        distances = _distances(rows, row_hits, cols, col_hits, n, pair_hits, cfg)
    else:  # distance_from_counts raises at the first cell of an unusable term
        distances = [
            [
                distance_from_counts(miss, term, f_miss, f_term, pair_hits(miss, term), n, cfg)
                for term, f_term in zip(cols, col_hits)
            ]
            for miss, f_miss in zip(rows, row_hits)
        ]
    denominator = 0.0
    for row in distances:
        for value in row:
            denominator += value
    if len(rows) * len(cols) == 1:
        logger.warning(
            "single-pair batch: relatedness is 0 by construction for (%r, %r)",
            rows[0], cols[0],
        )
    shared = {distance: relatedness(distance, denominator)
              for row in distances for distance in row}
    cells = tuple(tuple(map(shared.__getitem__, row)) for row in distances)
    return RelatednessMatrix(rows, cols, cells, denominator)


def _distances(rows, row_hits, cols, col_hits, n, pair_hits, cfg) -> list[list[float]]:
    """``distance_from_counts`` of every cell, for terms that all satisfy
    0 < hits < n: each log but log f2 is taken once per term, and the larger
    log and the denominator are picked per cell as that function picks them."""
    log, cap = math.log, cfg.zero_cooccurrence_cap
    log_n = log(n)
    columns = [(term, f, log(f), log_n - log(f)) for term, f in zip(cols, col_hits)]
    distances = []
    for miss, f_miss in zip(rows, row_hits):
        l_miss = log(f_miss)
        d_miss = log_n - l_miss
        row = []
        for term, f_term, l_term, d_term in columns:
            f2 = pair_hits(miss, term)
            if f2 == 0:
                row.append(cap)
            elif f2 > f_miss or f2 > f_term:
                row.append(distance_from_counts(miss, term, f_miss, f_term, f2, n, cfg))
            elif l_miss < l_term:
                row.append((l_term - log(f2)) / d_miss)
            else:
                row.append((l_miss - log(f2)) / d_term)
        distances.append(row)
    return distances


def relatedness(distance: float, denominator: float) -> float:
    """1 - distance / denominator, the relatedness of a pair whose batch
    distances sum to denominator; 1.0 when they sum to 0."""
    if denominator == 0.0:
        return 1.0
    return 1.0 - distance / denominator


class SelectionConfig(NamedTuple("SelectionConfig", [
        ("threshold", float), ("top_k", "int | None")])):
    """Candidate selection knobs: relatedness threshold and per-term cap."""

    __slots__ = ()

    def __new__(cls, threshold: float = DEFAULT_THRESHOLD, top_k: int | None = None):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        return super().__new__(cls, threshold, top_k)


class CandidateSet(NamedTuple):
    """Per missing term: ontology terms at or above the threshold, best first."""

    per_term: Mapping[str, tuple[tuple[str, float], ...]]

    def pairs(self) -> list[tuple[str, str]]:
        return [
            (miss, term)
            for miss in self.per_term
            for term, _ in self.per_term[miss]
        ]


def select_candidates(matrix: RelatednessMatrix, cfg: SelectionConfig) -> CandidateSet:
    """Per row, the cells at or above the threshold ordered by value, then by
    (lowercased term, term); with ``top_k``, the first k of that order.

    Warns once when a threshold above 0 admits every cell of a batch of more
    than one: batch normalization puts each cell at 1 - distance / sum of the
    batch's distances, so on a large batch the threshold rejects nothing."""
    threshold, top_k = cfg.threshold, cfg.top_k
    tie_keys = [(term.lower(), term) for term in matrix.ontology_terms]
    per_term = {}
    cells = admitted = 0
    for miss, row in zip(matrix.missing_terms, matrix.cells):
        scored = [(-value, key) for value, key in zip(row, tie_keys) if value >= threshold]
        cells += len(row)
        admitted += len(scored)
        if top_k is None:
            scored.sort()
        else:
            scored = heapq.nsmallest(top_k, scored)
        per_term[miss] = tuple((key[1], -negated) for negated, key in scored)
    if threshold > 0 and cells > 1 and admitted == cells:
        logger.warning(
            "threshold %r admits all %d relatedness cells (smallest %.6f): "
            "it rejects no candidate pair",
            threshold, cells, min(map(min, matrix.cells)),
        )
    return CandidateSet(per_term)


def write_matrix(matrix: RelatednessMatrix, path: str | Path) -> None:
    """Tab-separated export: header row of column terms, one row per missing
    term; the rows are streamed to the file."""
    row_format = "%s" + "\t%.6f" * len(matrix.ontology_terms) + "\n"
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("\t".join(["term", *matrix.ontology_terms]) + "\n")
        for miss, row in zip(matrix.missing_terms, matrix.cells):
            out.write(row_format % (miss, *row))
