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
0 < f1 < N and takes log f1 once per row and column term. A term outside
that range raises, naming itself, before any cell is computed; a run drops
such terms first (``drop_unusable_terms``). A row then takes
the f2 of all its cells in one ``map`` over ``pair_hits`` and is filled as
one dense list that starts as the cap in every cell: only a cell with
f2 > 0 runs Python code, for the f2 <= min f1 check, log f2 and the
division. Each log takes the argument ``distance_from_counts`` gives it, so
every cell is the float that function returns. The dense row is added to
the denominator at once, a left-to-right sum over the rows in order
(``reduce``, not ``sum``, which compensates float sums from Python 3.12 on),
and then only its co-occurring cells are kept: their column numbers and
their distances, one float per distinct distance. Once the denominator is
known, ``relatedness`` is taken once per distinct distance and once for the
cap, and each row of cells is a copy of the capped row with its
co-occurring cells set; every cell of one distance holds the same float
object, and each kept row is freed as its cells are built. So the batch
holds the distances of its co-occurring cells, never a dense distance
matrix, and past the provider's calls its Python work follows its
co-occurring cells and its distinct distances, not its cells: on the
``vocab4x`` benchmark workload 14,402 and 1,924 of 108,000.

``DEFAULT_DISTANCE_CAP`` and ``DEFAULT_THRESHOLD`` are the defaults of the
cap and the threshold, which the command line takes too. ``DistanceConfig``
and ``SelectionConfig`` check the valid range of each run setting (the cap;
the threshold and the per-term cap) when they are built, and a
``pipeline.RunConfig`` holds one of each.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, ge
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

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` checks as well."""
        return cls(*iterable)


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
    """The usable terms (0 < hits < N), ordered by (lowercased term, term),
    the matrix's order, so case variants keep one order on every hash seed.

    Warns once per call naming the dropped terms; per-term counts go to DEBUG.
    """
    kept, dropped = [], []
    n = provider.total_docs()
    for term in sorted(set(terms), key=lambda t: (t.lower(), t)):
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

    Every term must satisfy 0 < hits < total docs, as the terms that
    ``drop_unusable_terms`` keeps do. The first term that does not, rows
    before columns, raises: ``ValueError`` for hits <= 0,
    ``DegenerateDenominatorError`` for hits >= total docs. The shared
    denominator is the left-to-right sum of the batch's distances in
    row-major order.
    """
    rows = _sorted_unique(missing_terms, "missing")
    cols = _sorted_unique(ontology_terms, "ontology")
    n = provider.total_docs()
    col_hits = [provider.hits(term) for term in cols]
    row_hits = [provider.hits(term) for term in rows]
    for term, count in chain(zip(rows, row_hits), zip(cols, col_hits)):
        if not 0 < count < n:
            error = ValueError if count <= 0 else DegenerateDenominatorError
            raise error(f"term {term!r} has {count} hits; a relatedness batch needs "
                        f"0 < hits < {n}, the collection size")
    kept, denominator, distinct = _distances(
        rows, row_hits, cols, col_hits, n, provider.pair_hits, cfg)
    if len(rows) * len(cols) == 1:
        logger.warning(
            "single-pair batch: relatedness is 0 by construction for (%r, %r)",
            rows[0], cols[0],
        )
    cap = cfg.zero_cooccurrence_cap
    shared = {distance: relatedness(distance, denominator)
              for distance in chain((cap,), distinct)}
    capped = [shared[cap]] * len(cols)
    cells = []
    for i, (where, distances) in enumerate(kept):
        row = capped.copy()
        for j, value in zip(where, map(shared.__getitem__, distances)):
            row[j] = value
        cells.append(tuple(row))
        kept[i] = None
    return RelatednessMatrix(rows, cols, tuple(cells), denominator)


def _distances(rows, row_hits, cols, col_hits, n, pair_hits, cfg
               ) -> tuple[list[tuple[list[int], list[float]]], float, dict[float, float]]:
    """``distance_from_counts`` of every cell, for terms that all satisfy
    0 < hits < n: each log but log f2 is taken once per term, a row's joint
    counts are fetched in one pass, and only its cells with f2 > 0 pick the
    larger log and the denominator as that function picks them.

    Returns, per row, the column numbers and distances of its cells with
    f2 > 0 (every other cell is the cap); the left-to-right sum of all the
    cells in row-major order; and the distinct distances of those cells,
    each mapped to itself, the one float every kept cell of it holds."""
    log, cap = math.log, cfg.zero_cooccurrence_cap
    log_n = log(n)
    columns = [(f, log(f), log_n - log(f)) for f in col_hits]
    width = len(cols)
    numbers = list(range(width))
    total, seen, kept = 0.0, {}, []
    for miss, f_miss in zip(rows, row_hits):
        l_miss = log(f_miss)
        d_miss = log_n - l_miss
        joint = list(map(pair_hits, repeat(miss), cols))
        row = [cap] * width
        where = list(compress(numbers, joint))
        for j in where:
            f2 = joint[j]
            f_term, l_term, d_term = columns[j]
            if f2 > f_miss or f2 > f_term:
                row[j] = distance_from_counts(miss, cols[j], f_miss, f_term, f2, n, cfg)
            elif l_miss < l_term:
                row[j] = (l_term - log(f2)) / d_miss
            else:
                row[j] = (l_miss - log(f2)) / d_term
        total = reduce(add, row, total)
        values = list(compress(row, joint))
        kept.append((where, list(map(seen.setdefault, values, values))))
    return kept, total, seen


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

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` checks as well."""
        return cls(*iterable)


class CandidateSet(NamedTuple):
    """Per missing term: ontology terms at or above the threshold, in
    column order."""

    per_term: Mapping[str, tuple[tuple[str, float], ...]]

    def pairs(self) -> list[tuple[str, str]]:
        return [
            (miss, term)
            for miss in self.per_term
            for term, _ in self.per_term[miss]
        ]


def select_candidates(matrix: RelatednessMatrix, cfg: SelectionConfig) -> CandidateSet:
    """Per row, the cells at or above the threshold in column order; with
    ``top_k``, the best k of them by value, then by (lowercased term, term),
    still in column order. A matrix from ``relatedness_matrix`` orders its
    rows and columns by (lowercased term, term), so the pairs come out in
    the one order every later stage reads them in. Cells are not NaN.

    With ``top_k``, a row is sorted once: a bisect counts its admitted
    cells, and when there are more than k, the k-th largest value v splits
    them. One scan in C lists the cells at or above v. If they are more
    than k, v is tied: every cell above v is kept, and of the cells at v
    the ones first by their column's (lowercased term, term) rank, taken
    once per matrix. So a row's Python work is its cells at or above v.

    Logs one INFO line with the matrix shape, the denominator, the cells at
    or above the threshold and the candidate pairs. Warns once when a
    threshold above 0 admits every cell of a batch of more than one: batch
    normalization puts each cell at 1 - distance / sum of the batch's
    distances, so on a large batch the threshold rejects nothing."""
    threshold, top_k = cfg.threshold, cfg.top_k
    cols = matrix.ontology_terms
    if top_k is not None:
        order = sorted(range(len(cols)), key=lambda j: (cols[j].lower(), cols[j]))
        rank = dict(zip(order, range(len(cols))))  # column -> tie-break rank
    per_term = {}
    cells = admitted = pairs = 0
    for miss, row in zip(matrix.missing_terms, matrix.cells):
        cells += len(row)
        if top_k is not None:
            ranked = sorted(row)
            count = len(row) - bisect_left(ranked, threshold)
        if top_k is None or count <= top_k:
            chosen = tuple(compress(zip(cols, row), map(ge, row, repeat(threshold))))
            count = len(chosen)
        else:
            kth = ranked[-top_k]
            picked = list(compress(range(len(row)), map(ge, row, repeat(kth))))
            if len(picked) > top_k:  # ties at the k-th value: the first by rank
                above = [j for j in picked if row[j] > kth]
                tied = sorted((j for j in picked if row[j] == kth), key=rank.__getitem__)
                picked = sorted(above + tied[:top_k - len(above)])
            chosen = tuple(zip(map(cols.__getitem__, picked), map(row.__getitem__, picked)))
        admitted += count
        per_term[miss] = chosen
        pairs += len(chosen)
    logger.info(
        "selection: %d x %d matrix, denominator %.6f, %d of %d cells at or above "
        "threshold %r, %d candidate pairs", len(matrix.missing_terms), len(cols),
        matrix.denominator, admitted, cells, threshold, pairs,
    )
    if threshold > 0 and cells > 1 and admitted == cells:
        logger.warning(
            "threshold %r admits all %d relatedness cells (smallest %.6f): "
            "it rejects no candidate pair",
            threshold, cells, min(map(min, matrix.cells)),
        )
    return CandidateSet(per_term)


class _CellTexts(dict):
    """Cell value -> its ``%.6f`` text, formatted the first time it is asked
    for. A zero is formatted each time and never stored: ``0.0`` and ``-0.0``
    are one key with two texts."""

    def __missing__(self, value: float) -> str:
        text = "%.6f" % value
        if value:
            self[value] = text
        return text


def write_matrix(matrix: RelatednessMatrix, path: str | Path) -> None:
    """Tab-separated export: header row of column terms, one row per missing
    term; the rows are streamed to the file.

    Every cell goes through one ``_CellTexts`` map, so each distinct non-zero
    cell value is formatted once, when a row first holds it, and a row joins
    the texts of its cells. A NaN is a key of its own."""
    text = _CellTexts()
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("\t".join(["term", *matrix.ontology_terms]) + "\n")
        for miss, row in zip(matrix.missing_terms, matrix.cells):
            out.write("%s\t%s\n" % (miss, "\t".join(map(text.__getitem__, row))))
