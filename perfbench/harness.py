"""Run the ontoenrich CLI in this process with benchmark instrumentation.

    python3 perfbench/harness.py trace REPORT.json enrich --corpus ... --out-dir ...
    python3 perfbench/harness.py record SNAPSHOT.tsv enrich --corpus ... --out-dir ...

``trace`` wraps the public names ``ontoenrich.pipeline`` calls, and the
hit-count provider it builds, in timing spans, runs the command, and writes
per-span call counts, total and self time, plus per-module counters, to
REPORT.json. A name that no longer exists is listed under ``absent``.

``record`` wraps the ``CorpusIndex`` the run builds in a proxy that notes
every query and its count, runs the command, and saves the non-zero counts as
a hit-count snapshot that replays the same run without the index.

The package is imported from ``PYTHONPATH``; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from ontoenrich import cli, pipeline
from ontoenrich.hitcounts import SnapshotTable, pair_key
from ontoenrich.ontology import normalize_label

class Tracer:
    """Spans nest on a stack, so each span's self time excludes its children."""

    def __init__(self):
        self.spans: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self.top_level: list[tuple[float, float]] = []
        self.last_end: dict[str, float] = {}
        self._open: list[float] = []          # child time of each open span

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            start = perf_counter()
            self._open.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_level.append((start, end))
                stat = self.spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
                self.last_end[name] = end
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.add(f"{name} counters")
            return result

        return traced


def _patch(path: str, make_wrapper) -> bool:
    """Replace ``pipeline.<path>`` with make_wrapper(original); False if absent."""
    owner = pipeline
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
    except AttributeError:
        return False
    wrapped = make_wrapper(original)
    setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
    return True


class TracedProvider:
    """Times the provider calls; anything else passes through untimed."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.hits = tracer.wrap("hitcounts.hits", inner.hits)
        self.pair_hits = tracer.wrap("hitcounts.pair_hits", inner.pair_hits)
        self.pattern_hits = tracer.wrap(
            "hitcounts.pattern_hits", inner.pattern_hits,
            after=lambda t, args, hits: t.count("hitcounts.pattern_nonzero", hits > 0),
        )

    def total_docs(self) -> int:
        return self._inner.total_docs()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _count_select(tracer, args, candidates):
    matrix, cfg = args[0], args[1]
    cells = [value for row in matrix.cells for value in row]
    tracer.count("relatedness.cells", len(cells))
    tracer.count("relatedness.admitted", sum(value >= cfg.threshold for value in cells))
    tracer.count("relatedness.candidate_pairs", len(candidates.pairs()))


def _count_place(tracer, args, result):
    decisions, failures = result
    tracer.count("placement.decisions", len(decisions))
    tracer.count("placement.case2_decisions", sum(
        "case2" in (decision.case, decision.subcase) for decision in decisions
    ))
    tracer.count("placement.failures", len(failures))


# span name -> (names in ontoenrich.pipeline, counter hook)
TRACED = {
    "ontology.load": (("load_ontology",), None),
    "ontology.save": (("save_ontology",), None),
    "textpipe.load_corpus": (("load_corpus",), None),
    "textpipe.tokenize": (
        ("tokenize_corpus",), lambda t, args, ngrams: t.count("textpipe.ngrams", len(ngrams))
    ),
    "textpipe.partition": (
        ("partition_terms",),
        lambda t, args, partition: t.count("textpipe.missing_terms", len(partition.missing)),
    ),
    "relatedness.filter": (("ngram_hits_filter", "drop_unusable_terms"), None),
    "relatedness.matrix": (("relatedness_matrix",), None),
    "relatedness.select": (("select_candidates",), _count_select),
    "patterns.extract": (
        ("extract_relation",),
        lambda t, args, suggestion: t.count(
            "patterns.named", suggestion.relation.value != "related-to"
        ),
    ),
    "placement.place": (("place_all",), _count_place),
    "placement.enrich": (("enrich_ontology",), None),
}
PROVIDER_BUILDERS = ("CorpusIndex.build", "SnapshotTable.load")


def trace(report_path: Path, argv: list[str]) -> int:
    tracer = Tracer()
    for span, (paths, after) in TRACED.items():
        for path in paths:
            if not _patch(path, lambda fn, span=span, after=after: tracer.wrap(span, fn, after)):
                tracer.absent.add(path)

    def build(fn):
        timed = tracer.wrap("hitcounts.build", fn)
        return lambda *args, **kwargs: TracedProvider(timed(*args, **kwargs), tracer)

    for path in PROVIDER_BUILDERS:
        if not _patch(path, build):
            tracer.absent.add(path)

    # The writes after enrich_ontology returns go through names private to
    # the pipeline, so the write phase is timed from there to the run's end.
    run_end: list[float] = []
    original_run = getattr(cli, "run_enrichment", None)

    def run_enrichment(config):
        try:
            return original_run(config)
        finally:
            run_end.append(perf_counter())

    if original_run is None:
        tracer.absent.add("cli.run_enrichment")
    else:
        cli.run_enrichment = run_enrichment
    code = cli.main(argv)

    enrich_end = tracer.last_end.get("placement.enrich")
    write_s = run_end[0] - enrich_end if run_end and enrich_end is not None else None
    covered = sum(
        end - start for start, end in tracer.top_level
        if enrich_end is None or end <= enrich_end
    ) + (write_s or 0.0)
    report = {
        "spans": tracer.spans,
        "counts": tracer.counts,
        "absent": sorted(tracer.absent),
        "write_s": write_s,
        "covered_s": covered,
    }
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return code


class RecordingProvider:
    """Notes every query under its snapshot key; other provider methods fail."""

    def __init__(self, inner):
        self._inner = inner
        self.entries: dict[str, int] = {}
        self.queries = 0

    def _note(self, key: str, count: int) -> int:
        self.queries += 1
        if self.entries.setdefault(key, count) != count:
            raise RuntimeError(f"snapshot key {key!r} answered {count} and {self.entries[key]}")
        return count

    def hits(self, phrase: str) -> int:
        return self._note(normalize_label(phrase), self._inner.hits(phrase))

    def pair_hits(self, a: str, b: str) -> int:
        return self._note(pair_key(a, b), self._inner.pair_hits(a, b))

    def pattern_hits(self, query: str) -> int:
        return self._note(normalize_label(query), self._inner.pattern_hits(query))

    def total_docs(self) -> int:
        return self._inner.total_docs()


def record(snapshot_path: Path, argv: list[str]) -> int:
    recorders: list[RecordingProvider] = []

    def build(fn):
        def recording(*args, **kwargs):
            recorders.append(RecordingProvider(fn(*args, **kwargs)))
            return recorders[-1]
        return recording

    if not _patch("CorpusIndex.build", build):
        print("record: ontoenrich.pipeline.CorpusIndex.build is absent", file=sys.stderr)
        return 1
    code = cli.main(argv)
    if code != 0:
        return code
    if len(recorders) != 1:
        print(f"record: expected one index build, saw {len(recorders)}", file=sys.stderr)
        return 1
    (recorder,) = recorders
    nonzero = {key: count for key, count in recorder.entries.items() if count}
    SnapshotTable(nonzero, recorder.total_docs()).save(snapshot_path)
    print(f"record: {recorder.queries} queries, {len(recorder.entries)} keys, "
          f"{len(nonzero)} non-zero", file=sys.stderr)
    return 0


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] not in ("trace", "record"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    return trace(path, argv) if mode == "trace" else record(path, argv)


if __name__ == "__main__":
    sys.exit(main())
