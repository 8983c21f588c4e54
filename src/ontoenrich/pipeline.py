"""End-to-end batch runs: mine terms, filter, relate, arbitrate, place.

Every run is deterministic: identical configuration and inputs produce
byte-identical output files (fixed orderings, fixed float formatting, no
timestamps). A manifest records the run's knobs and a sha256 of each input.
Each stage takes one path whatever the batch holds: a run with no usable
missing term or no usable known term relates an empty matrix, so its
selection and pattern stages see 0 pairs and ``write_matrix`` writes the
matrix file's header alone.
No stage holds what no later stage reads. The corpus stage takes the
article list one domain at a time. Its phrase table keeps each document as
its domain, one string per domain, and its text as token codes, and the
term domains are read from it. A snapshot run drops the table once the
term domains are taken; an index run drops its own reference once the
index is built and the index once placement returns, so the enriched
ontology and the writers reuse that memory.
Creating the output directory and writing into it is the ``output`` stage;
an output directory that could not be created is rejected with the config.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

try:  # CPython 3.12+ built-in SHA-2: no OpenSSL libcrypto in the process
    from _sha2 import sha256
except ImportError:
    try:  # the same built-in module's name on CPython 3.10-3.11
        from _sha256 import sha256
    except ImportError:  # builds without built-in hashes, such as FIPS ones
        from hashlib import sha256

from . import __version__
# perfbench/harness.py ``trace`` times the stages by replacing the names
# imported below in this module's namespace, so the stages must call them by
# these names, not as attributes of their modules.
from .hitcounts import CorpusIndex, HitCountProvider, SnapshotTable
from .ontology import RELATION_NAMES, load_ontology, save_ontology
from .patterns import (
    PatternCatalogue,
    RelationSuggestion,
    SideMasks,
    default_catalogue,
    extract_relation,
    load_catalogue,
    write_pattern_audit,
)
from .placement import enrich_ontology, place_all, write_enrichment_report
from .relatedness import (
    DistanceConfig,
    RelatednessMatrix,
    SelectionConfig,
    drop_unusable_terms,
    ngram_hits_filter,
    relatedness_matrix,
    select_candidates,
    write_matrix,
)
from .textpipe import (
    FIELD_BREAKS,
    default_stoplist,
    load_corpus,
    load_gazetteer,
    load_stoplist,
    partition_terms,
    read_documents,
    tokenize_corpus,
)


logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


class ConfigError(ValueError):
    pass


def _require_inputs(**paths: Path | None) -> None:
    """Raise ConfigError for the first given input path that does not exist
    or is of the wrong kind: a corpus that is not a directory, or any other
    input that is one."""
    for name, path in paths.items():
        if path is None:
            continue
        if not Path(path).exists():
            raise ConfigError(f"{name} path {path} does not exist")
        if Path(path).is_dir() != (name == "corpus"):
            kind = "not a directory" if name == "corpus" else "a directory"
            raise ConfigError(f"{name} path {path} is {kind}")


def _require_output(out_dir: Path) -> None:
    """Raise ConfigError when out_dir, or the nearest of its parents that
    exists, is not a directory: the run could not write its outputs."""
    path = Path(out_dir)
    while not path.exists() and path.parent != path:
        path = path.parent
    if path.exists() and not path.is_dir():
        raise ConfigError(f"out-dir {out_dir}: {path} exists and is not a directory")


class RunConfig(NamedTuple):
    corpus: Path
    ontology: Path
    out_dir: Path
    selection: SelectionConfig
    distance: DistanceConfig
    snapshot: Path | None = None
    stopwords: Path | None = None
    gazetteer: Path | None = None
    patterns: Path | None = None

    def validate(self) -> None:
        """Reject a provider input whose name the manifest cannot hold in one
        field, a missing input and an unusable out_dir, before any input is
        read. The run settings checked themselves when they were built."""
        named = Path(self.corpus if self.snapshot is None else self.snapshot).name
        if not FIELD_BREAKS.isdisjoint(named):
            raise ConfigError(f"input name {named!r} has a tab or line break, "
                              "which the manifest's provider field cannot hold")
        _require_inputs(corpus=self.corpus, ontology=self.ontology, snapshot=self.snapshot,
                       stopwords=self.stopwords, gazetteer=self.gazetteer,
                       patterns=self.patterns)
        _require_output(self.out_dir)


@contextmanager
def _stage(stage: str):
    """Tag an ``Exception`` from the block with the stage; interrupts pass
    through. A block that ends normally logs its wall time at INFO."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc
    logger.info("stage %s: %.3f s", stage, time.perf_counter() - start)


def _suggest(config: RunConfig, matrix: RelatednessMatrix, provider: HitCountProvider,
             catalogue: PatternCatalogue) -> list[RelationSuggestion]:
    """One suggestion per candidate pair, in pair order, settled one missing
    term at a time by ``SideMasks.suggest``: only the pairs its side masks
    leave viable call ``extract_relation``, which perfbench's
    ``patterns.extract`` span wraps. The side masks go when it returns."""
    with _stage("extraction"):
        candidates = select_candidates(matrix, config.selection)
        # The index tests a side by its count, so a recorded or traced run
        # sees every side query; the snapshot's runs are freed with sides.
        sides = SideMasks(provider.pattern_hits if config.snapshot is None
                          else provider.run_test())
        suggestions = []
        for miss, row in candidates.per_term.items():
            suggestions += sides.suggest(miss, [term for term, _ in row], provider, catalogue,
                                         extract_relation)
        logger.info("patterns: %d pairs, %d side tests (%d non-zero), %d full queries "
                    "(%d non-zero), %d pairs settled without a full query", len(suggestions),
                    sides.side_tests, sides.side_nonzero, sides.full_queries,
                    sides.full_nonzero, sides.settled)
    return suggestions


def _write_manifest(config: RunConfig, input_sha256: dict[str, str], provider_id: str,
                    path: Path) -> None:
    """input_sha256 maps a manifest key to the sha256 of the bytes the run parsed."""
    top_k = config.selection.top_k
    entries = {
        "catalogue_sha256": "builtin", "gazetteer_sha256": "-", "snapshot_sha256": "-",
        "stopwords_sha256": "builtin",
        **input_sha256,
        "distance_cap": repr(config.distance.zero_cooccurrence_cap),
        "provider": provider_id,
        "threshold": repr(config.selection.threshold),
        "tool_version": __version__,
        "top_k": "unbounded" if top_k is None else str(top_k),
    }
    lines = [f"{key}\t{value}" for key, value in sorted(entries.items())]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_system_judgments(eliminated: list[str], retained: list[str],
                            term_domains: dict[str, set[str]], decisions, path: Path) -> None:
    """The E and X records, sorted. One pass puts each E record, and each
    term with decisions, in a bucket per (kind, domain); the buckets are
    written in the order of their line prefix ``kind\tdomain\t``. An E
    bucket's lines are formatted and sorted together. An X bucket is
    written one term at a time, in the order of ``term + "\t"``, each term's
    lines sorted without the ``X\tdomain\tterm\t`` prefix they share. A
    domain and a term hold no tab, so that order is the order of the sorted
    lines, and the writer holds one term's lines at a time."""
    buckets: dict[tuple[str, str], list] = {}
    for status, terms in (("eliminated", eliminated), ("retained", retained)):
        for surface in terms:
            for domain in term_domains[surface]:
                buckets.setdefault(("E", domain), []).append((status, surface))
    by_term: dict[str, list] = {}  # in pair order a term's decisions follow one another
    for term, group in groupby(decisions, attrgetter("suggestion.missing_term")):
        by_term.setdefault(term, []).extend(group)
    for term in by_term:
        for domain in term_domains[term]:
            buckets.setdefault(("X", domain), []).append(term)
    with path.open("w", encoding="utf-8") as out:
        for kind, domain in sorted(buckets, key=lambda bucket: "\t".join(bucket) + "\t"):
            if kind == "E":
                lines = [f"E\t{domain}\t{status}\t{surface}"
                         for status, surface in buckets[kind, domain]]
                lines.sort()
                out.writelines(line + "\n" for line in lines)
                continue
            for term in sorted(buckets[kind, domain], key=lambda term: term + "\t"):
                lines = [f"{d.target_concept}\t{sense}\t{RELATION_NAMES[d.suggestion.relation]}"
                         for d in by_term[term] for sense in d.senses]
                lines.sort()
                prefix = f"X\t{domain}\t{term}\t"
                out.write(prefix + ("\n" + prefix).join(lines) + "\n")


def _run(config: RunConfig, enrich: bool) -> Path:
    """Run the stages in order and write the command's outputs; with enrich
    False, stop after the relatedness matrix and write it and the manifest."""
    digests = {}  # input name -> digest of the bytes its loader parsed

    def digest(name: str):
        return digests.setdefault(name, sha256())

    with _stage("config"):
        config.validate()
        catalogue = (load_catalogue(config.patterns, digest("catalogue"))
                     if config.patterns is not None else default_catalogue())

    with _stage("ontology"):
        ontology = load_ontology(config.ontology, digest("ontology"))

    with _stage("corpus"):
        stoplist = (load_stoplist(config.stopwords, digest("stopwords"))
                    if config.stopwords else default_stoplist())
        gazetteer = (load_gazetteer(config.gazetteer, digest("gazetteer"))
                     if config.gazetteer else frozenset())
        table = tokenize_corpus(read_documents(load_corpus(config.corpus), digest("corpus")),
                                stoplist.punctuation)
        partition = partition_terms(table.mined_terms(stoplist), ontology, gazetteer)
        domains = table.domains
        term_domains = {
            surface: {domains[n] for n in table.documents(surface)}
            for surface in partition.missing
        }
    logger.info("corpus: %d documents, %d phrases, %d known terms, %d missing terms, "
                "%d gazetteer entries and %d instance labels left out", len(domains), len(table),
                len(partition.concepts), len(partition.missing), partition.gazetteer_entries,
                partition.instance_labels)

    with _stage("hits"):
        if config.snapshot is not None:
            del table  # the run needs no more of it than term_domains holds
            provider: HitCountProvider = SnapshotTable.load(config.snapshot, digest("snapshot"))
            provider_id = f"snapshot:{Path(config.snapshot).name}"
        else:
            # perfbench/harness.py ``record`` patches CorpusIndex.build to note
            # every query; the snapshot-allpairs workload's set-up needs that.
            provider = CorpusIndex.build(table)
            del table  # it lives on in the index, until placement is done with it
            provider_id = f"index:{Path(config.corpus).name},docs={provider.total_docs()}"

    with _stage("relatedness"):
        retained = ngram_hits_filter(partition.missing, provider)
        kept = set(retained)
        eliminated = [surface for surface in partition.missing if surface not in kept]

        t_in = drop_unusable_terms(partition.concepts, provider)
        t_miss = drop_unusable_terms(retained, provider)
        matrix = (relatedness_matrix(t_miss, t_in, provider, config.distance)
                  if t_miss and t_in else RelatednessMatrix((), (), (), 1.0, 0.0))
    logger.info("relatedness: %d retained and %d eliminated missing terms, %d known and %d "
                "missing terms dropped for unusable counts", len(retained), len(eliminated),
                len(partition.concepts) - len(t_in), len(retained) - len(t_miss))

    if enrich:
        suggestions = _suggest(config, matrix, provider, catalogue)
        with _stage("enrichment"):
            decisions, failures = place_all(suggestions, ontology, provider, config.distance,
                                            matrix.denominator)
            del provider  # placement is the last stage that reads hit counts
            enriched = enrich_ontology(ontology, decisions, failures)

    with _stage("output"):
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if enrich:
            save_ontology(enriched, out / "enriched_ontology.tsv")
        write_matrix(matrix, out / "relatedness_matrix.tsv")
        if enrich:
            write_pattern_audit(suggestions, catalogue, out / "pattern_audit.tsv")
            write_enrichment_report(decisions, failures, out / "enrichment_report.tsv")
            _write_system_judgments(eliminated, retained, term_domains, decisions,
                                    out / "system_judgments.tsv")
        input_sha256 = {f"{name}_sha256": hashed.hexdigest() for name, hashed in digests.items()}
        _write_manifest(config, input_sha256, provider_id, out / "manifest.tsv")
    return out


def run_enrichment(config: RunConfig) -> Path:
    """Full pipeline; returns the output directory it populated."""
    return _run(config, enrich=True)


def run_relatedness(config: RunConfig) -> Path:
    """Stop after the relatedness matrix; write matrix and manifest only."""
    return _run(config, enrich=False)


def run_eval(system_path: Path, expert_path: Path, out_dir: Path,
             require_relation: bool = True) -> Path:
    # Only this command reads judgments, so only it imports their module.
    from .evaluation import load_judgments, precision_report, write_precision_report

    with _stage("config"):
        _require_inputs(system=system_path, expert=expert_path)
        _require_output(out_dir)
    with _stage("evaluation"):
        system = load_judgments(system_path)
        expert = load_judgments(expert_path)
        rows = precision_report(system, expert, require_relation)
    with _stage("output"):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_precision_report(rows, out / "precision_report.tsv")
    return out
