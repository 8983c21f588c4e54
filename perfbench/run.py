#!/usr/bin/env python3
"""Benchmark of ``ontoenrich enrich``, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs ``src/``, ``scripts/`` and
``fixtures/desk`` next to ``BENCHMARK.json``, which names the workloads and
the metrics with their units.

Set-up generates the workload from the seed (``perfbench/gen.py``; seed 0 is
the committed desk corpus) and, for the snapshot workload, records the hit
counts of an index run. It runs three times, then, where it has no snapshot
to record, once more after every repeat; the fastest is reported as setup_s.
The generated files are written to disk once, outside the timing.
Each repeat then runs ``enrich`` in a fresh process under its own
``PYTHONHASHSEED`` until ``--seconds`` are used. A repeat fails if it exits
non-zero, if its outputs differ from the first repeat's, if a snapshot
replay differs from its recording run, or if the planted relations are not
exactly what it placed. With ``--trace 1`` traced repeats
(``perfbench/harness.py``) alternate with untraced ones and must write the
same bytes; per-module numbers are their medians.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Everything is written under ``.perfbench-work/`` and removed at exit.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
HARNESS = BENCH / "harness.py"
SPAWN = BENCH / "spawn.py"
WORK = ROOT / ".perfbench-work"

OUTPUT_FILES = (
    "enriched_ontology.tsv", "relatedness_matrix.tsv", "pattern_audit.tsv",
    "enrichment_report.tsv", "system_judgments.tsv", "manifest.tsv",
)
# The manifest names the provider, so a replay differs from its recording there.
REPLAYED_FILES = OUTPUT_FILES[:-1]

# A run must end within 180 s: children are killed once this much has passed.
DEADLINE_S = 170
MIN_REPEATS = 3          # untraced; their hashes are compared across hash seeds
MIN_TRACED = 2
SETUPS = 3               # before the repeats; one more after each repeat if cheap


@dataclass(frozen=True)
class Spec:
    doc_mult: int
    vocab_mult: int
    flags: tuple[str, ...] = ()
    snapshot: bool = False
    # A repeat fails unless it places exactly the planted relations. Not so
    # at 4x vocabulary: with the planted sentences as dense as in desk, a rare
    # invented term that shares a few documents with a planted term can outrank
    # its target in the top 3 (3 of seeds 1-10), so there it is only measured.
    all_planted: bool = True


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "corpus10x": Spec(doc_mult=10, vocab_mult=1, flags=("--top-k", "3")),
    "vocab4x": Spec(doc_mult=1, vocab_mult=4, flags=("--top-k", "3"), all_planted=False),
    "desk-allpairs": Spec(doc_mult=1, vocab_mult=1),
    "snapshot-allpairs": Spec(doc_mult=1, vocab_mult=1, snapshot=True),
}


@dataclass
class Repeat:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str
    problems: list[str] = field(default_factory=list)
    recall: float = 0.0
    precision: float = 0.0
    report: dict | None = None
    output_bytes: int = 0
    ref_wall_s: float = 0.0     # reference loop, mean of the timings around the repeat
    ref_cpu_s: float = 0.0


class SetupError(RuntimeError):
    pass


def _reference_work() -> int:
    # Random lookups in a table of some 20 MB plus small set operations, so
    # that, like the pipeline, it depends on cache and memory speed as well as
    # on the interpreter.
    rng = random.Random(7)
    keys = [f"k{rng.getrandbits(40):x}" for _ in range(100_000)]
    table = {key: {i % 97, i % 89} for i, key in enumerate(keys)}
    rng.shuffle(keys)
    probe = table[keys[0]]
    return sum(len(table[key] & probe) for key in keys)


def reference_time() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python workload.

    Timed before and after every repeat. On a shared host the speed of the
    machine drifts by up to 1.8x over seconds to minutes; a repeat's time
    divided by the reference time around it cancels much of that drift."""
    wall, cpu = time.perf_counter(), time.process_time()
    _reference_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def spawn(argv: list, env: dict[str, str], log: Path, deadline: float) -> Repeat:
    """Run one child to completion through spawn.py, killed at the deadline."""
    timeout = max(0.0, deadline - time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, SPAWN, str(timeout), log, "--", *argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout + 10)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"spawn.py exited {proc.returncode} without a result")
    ran = json.loads(stdout)
    return Repeat(**ran, stderr=log.read_text(encoding="utf-8", errors="replace"))


def child_env(hash_seed: int) -> dict[str, str]:
    # Python accepts PYTHONHASHSEED only in [0, 2**32 - 1]; any --seed must work.
    hash_seed %= 2**32
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(hash_seed)}


def enrich_args(inputs: Path, spec: Spec, out: Path, snapshot: Path | None = None) -> list:
    args = ["enrich", "--corpus", inputs / "corpus", "--ontology", inputs / "ontology.tsv",
            "--gazetteer", inputs / "gazetteer.tsv", *spec.flags, "--out-dir", out]
    if snapshot is not None:
        args += ["--snapshot", snapshot]
    return args


def record_snapshot(inputs: Path, spec: Spec, dest: Path, deadline: float) -> None:
    """Record the hit counts of an index run on inputs into dest/snapshot.tsv;
    the run's own outputs go to dest/reference."""
    argv = [sys.executable, HARNESS, "record", dest / "snapshot.tsv",
            *enrich_args(inputs, spec, dest / "reference")]
    dest.mkdir(parents=True)
    run = spawn(argv, child_env(0), dest / "record.log", deadline)
    if run.code != 0:
        raise SetupError(f"snapshot recording exited {run.code}:\n{run.stderr}")


def sha256s(out: Path, names) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).is_file() else None
        for name in names
    }


def planted_scores(report: Path, planted) -> tuple[float, float]:
    """Recall of the planted (term, target, relation, sense) placements, and the
    share of named (not related-to) placements that were planted."""
    truth = {(p.term, p.target, p.relation, str(p.sense)) for p in planted}
    named = set()
    for line in report.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split("\t")
        if len(fields) == 8 and fields[7] == "applied" and fields[3] != "related-to":
            named.add((fields[0], fields[1], fields[3], fields[2]))
    recall = len(truth & named) / len(truth)
    precision = len(truth & named) / len(named) if named else 0.0
    return recall, precision


def lower_quartile(values: list[float]) -> float:
    """Interference from other tenants only ever slows a repeat down, so the
    lower quartile is the least disturbed figure that still rests on more
    than one repeat (with 3 repeats it is the fastest)."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def fmt(values) -> str:
    return " ".join(f"{value:.3f}" for value in values) or "-"


def layer_metrics(repeat: Repeat) -> dict[str, float]:
    spans, counts = repeat.report["spans"], repeat.report["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "textpipe.load_corpus_s": total("textpipe.load_corpus"),
        "textpipe.tokenize_s": total("textpipe.tokenize"),
        "textpipe.partition_s": total("textpipe.partition"),
        "textpipe.ngrams": counts.get("textpipe.ngrams", 0),
        "textpipe.missing_terms": counts.get("textpipe.missing_terms", 0),
        "hitcounts.build_s": total("hitcounts.build"),
        "hitcounts.pattern_nonzero_ratio": ratio(
            counts.get("hitcounts.pattern_nonzero", 0), calls("hitcounts.pattern_hits")
        ),
        "relatedness.filter_s": total("relatedness.filter"),
        "relatedness.matrix_s": total("relatedness.matrix"),
        "relatedness.matrix_self_s": self_time("relatedness.matrix"),
        "relatedness.cells": counts.get("relatedness.cells", 0),
        "relatedness.admitted_ratio": ratio(
            counts.get("relatedness.admitted", 0), counts.get("relatedness.cells", 0)
        ),
        "relatedness.select_s": total("relatedness.select"),
        "relatedness.candidate_pairs": counts.get("relatedness.candidate_pairs", 0),
        "patterns.extract_s": total("patterns.extract"),
        "patterns.extract_self_s": self_time("patterns.extract"),
        "patterns.named_ratio": ratio(
            counts.get("patterns.named", 0), calls("patterns.extract")
        ),
        "placement.place_s": total("placement.place"),
        "placement.place_self_s": self_time("placement.place"),
        "placement.decisions": counts.get("placement.decisions", 0),
        "placement.case2_decisions": counts.get("placement.case2_decisions", 0),
        "placement.failures": counts.get("placement.failures", 0),
        "placement.enrich_s": total("placement.enrich"),
        "ontology.load_s": total("ontology.load"),
        "ontology.save_s": total("ontology.save"),
        "pipeline.write_s": repeat.report["write_s"] or 0.0,
        "pipeline.output_bytes": repeat.output_bytes,
        "pipeline.warning_lines": sum(
            line.startswith("WARNING") for line in repeat.stderr.splitlines()
        ),
        "pipeline.untraced_s": repeat.wall_s - repeat.report["covered_s"],
    }
    for call in ("hits", "pair_hits", "pattern_hits"):
        metrics[f"hitcounts.{call}_calls"] = calls(f"hitcounts.{call}")
        metrics[f"hitcounts.{call}_s"] = total(f"hitcounts.{call}")
    return metrics


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, declared: dict):
        import gen  # imports ontoenrich, so only once src/ is on sys.path

        self.gen = gen
        self.desk = gen.load_desk_generator()
        self.name, self.spec, self.seed = name, WORKLOADS[name], seed
        self.seconds, self.trace, self.declared = seconds, trace, declared
        self.work = WORK / name
        self.deadline = time.perf_counter() + DEADLINE_S
        self.inputs: Path | None = None
        self.snapshot: Path | None = None
        self.planted = ()
        self.reference: dict | None = None
        self.replay_reference: dict | None = None
        self.first = None
        self.setup_times: list[float] = []

    def set_up(self) -> None:
        """One set-up: generate the workload and, if it replays one, record
        its snapshot. Its seconds go to setup_times.

        Creating thousands of small files takes ten times longer in some
        periods than in others on a shared host, so the generated files are
        written once and not timed. Every set-up must generate the same files."""
        started = time.perf_counter()
        workload = self.gen.generate(self.desk.SEED + self.seed, self.spec.doc_mult,
                                     self.spec.vocab_mult, desk=self.desk)
        elapsed = time.perf_counter() - started
        if self.first is None:
            self.first, self.inputs, self.planted = workload, self.work / "inputs", workload.planted
            self.gen.write_workload(workload, self.inputs)
        elif workload != self.first:
            raise SetupError("the generator gave different workloads for one seed")
        if self.spec.snapshot:
            dest = self.work / f"record{len(self.setup_times)}"
            started = time.perf_counter()
            record_snapshot(self.inputs, self.spec, dest, self.deadline)
            elapsed += time.perf_counter() - started
            if self.snapshot is not None:
                shutil.rmtree(self.snapshot.parent)
            self.snapshot = dest / "snapshot.tsv"
            self.replay_reference = sha256s(dest / "reference", REPLAYED_FILES)
        self.setup_times.append(elapsed)

    def run_repeat(self, index: int, traced: bool) -> Repeat:
        out = self.work / f"out{index}"
        argv = [sys.executable]
        if traced:
            argv += [HARNESS, "trace", self.work / f"trace{index}.json"]
        else:
            argv += ["-m", "ontoenrich.cli"]
        argv += enrich_args(self.inputs, self.spec, out, self.snapshot)
        env = child_env(self.seed * 1009 + index + 1)
        repeat = spawn(argv, env, self.work / f"log{index}", self.deadline)
        self.check(repeat, out)
        if traced and repeat.code == 0:
            repeat.report = json.loads((self.work / f"trace{index}.json").read_text("utf-8"))
        # Outputs stay until the run ends: deleting them here would put file
        # system work next to the reference timing and the next repeat.
        return repeat

    def check(self, repeat: Repeat, out: Path) -> None:
        if repeat.code != 0:
            repeat.problems.append(f"exit code {repeat.code}")
            return
        hashes = sha256s(out, OUTPUT_FILES)
        missing = [name for name, digest in hashes.items() if digest is None]
        if missing:
            repeat.problems.append(f"missing outputs {missing}")
            return
        repeat.output_bytes = sum((out / name).stat().st_size for name in OUTPUT_FILES)
        repeat.recall, repeat.precision = planted_scores(
            out / "enrichment_report.tsv", self.planted
        )
        if self.spec.all_planted and (repeat.recall, repeat.precision) != (1.0, 1.0):
            repeat.problems.append(
                f"planted recall {repeat.recall}, precision {repeat.precision}"
            )
        if self.reference is None:
            self.reference = hashes
        differ = [name for name in OUTPUT_FILES if hashes[name] != self.reference[name]]
        if differ:
            repeat.problems.append(f"outputs differ from the first repeat: {differ}")
        if self.replay_reference is not None:
            differ = [name for name in REPLAYED_FILES
                      if hashes[name] != self.replay_reference[name]]
            if differ:
                repeat.problems.append(f"replay differs from the recording run: {differ}")

    def measure(self) -> tuple[list[Repeat], list[Repeat]]:
        untraced: list[Repeat] = []
        traced: list[Repeat] = []
        started = time.perf_counter()
        reference_time()  # the first call also pays for growing the heap
        ref_before = reference_time()
        while True:
            done = untraced + traced
            enough = len(untraced) >= MIN_REPEATS and (
                not self.trace or len(traced) >= MIN_TRACED
            )
            if enough:
                typical = statistics.median(r.wall_s for r in done)
                if time.perf_counter() - started + typical > self.seconds:
                    break
            if untraced and time.perf_counter() > self.deadline:
                break
            as_traced = self.trace and len(traced) < len(untraced)
            repeat = self.run_repeat(len(done), as_traced)
            ref_after = reference_time()
            repeat.ref_wall_s = (ref_before[0] + ref_after[0]) / 2
            repeat.ref_cpu_s = (ref_before[1] + ref_after[1]) / 2
            ref_before = ref_after
            (traced if as_traced else untraced).append(repeat)
            # The host's speed drifts over seconds, so set-up is also timed
            # between repeats, where it takes well under a second.
            if not self.spec.snapshot:
                self.set_up()
            for problem in repeat.problems:
                kind = "traced" if as_traced else "untraced"
                print(f"{self.name}: {kind} repeat {len(done)}: {problem}", file=sys.stderr)
        return untraced, traced

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        fixture_ok = self.gen.matches_desk_fixture(self.desk)
        if not fixture_ok:
            print("generator at 1x1 and the desk seed does not reproduce fixtures/desk",
                  file=sys.stderr)
        for _ in range(SETUPS):
            self.set_up()
        untraced, traced = self.measure()
        repeats = untraced + traced
        failed = sum(bool(r.problems) for r in repeats)
        timed = [r for r in untraced if r.code == 0] or untraced

        if self.trace:
            layers = [layer_metrics(r) for r in traced if r.report is not None]
            values = {
                name: statistics.median(m[name] for m in layers)
                for name in (layers[0] if layers else ())
            }
            if traced:
                values["trace.overhead_s"] = (
                    statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in timed)
                )
            absent = sorted({name for r in traced if r.report for name in r.report["absent"]})
            if absent:
                print(f"{self.name}: absent from the program: {absent}", file=sys.stderr)
            declared = self.declared["per_layer"]
        else:
            values = {
                "wall_ref": lower_quartile([r.wall_s / r.ref_wall_s for r in timed]),
                "cpu_ref": lower_quartile([r.cpu_s / r.ref_cpu_s for r in timed]),
                "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
                # Set-up samples are either fast or about twice as slow, as the
                # host's speed switches; the share of slow ones varies from run
                # to run and moves a median by up to 30%, the fastest by under 17%.
                "setup_s": min(self.setup_times),
                "success_rate": 1.0 - sum(bool(r.problems) for r in untraced) / len(untraced),
                "planted_recall": min(r.recall for r in untraced),
                "planted_precision": min(r.precision for r in untraced),
            }
            declared = self.declared["end_to_end"]
        metrics = {
            entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in declared
        }
        print(f"{self.name}: seed {self.seed}; set-up s {fmt(self.setup_times)}; "
              f"untraced wall s {fmt(r.wall_s for r in untraced)}; "
              f"reference wall s {fmt(r.ref_wall_s for r in untraced)}; "
              f"traced wall s {fmt(r.wall_s for r in traced)}", file=sys.stderr)
        return {
            "correct": fixture_ok and failed == 0,
            "attempted": len(repeats),
            "failed": failed,
            "metrics": metrics,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit on SIGTERM lets spawn kill the running child and the work dir go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [SRC / "ontoenrich", ROOT / "scripts" / "make_desk_corpus.py",
              ROOT / "fixtures" / "desk", ROOT / "BENCHMARK.json"]
    absent = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if absent:
        print(f"run from a full checkout; missing {absent}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH)]
    compileall.compile_dir(SRC, quiet=1)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), declared)
    try:
        result = bench.run()
    except SetupError as exc:
        print(f"{args.workload}: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another workload's run still uses it
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
