"""End-to-end gates on the desk corpus, run as separate CLI processes.

The desk generator plants ten relations whose pattern sentences it writes
into the corpus; a ``--top-k 3`` run must recover each with the planted
relation and sense, name no other relation, and write the same bytes under
different hash seeds. The six files of each standard run are pinned by
sha256: desk ``--top-k 3``, desk defaults, the worked examples, and the
seed-21 ``corpus10x`` and ``vocab4x`` benchmark workloads. The benchmark's
record and trace harnesses must see every provider call a run makes.
"""

import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ontoenrich
from ontoenrich.patterns import default_catalogue

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "fixtures" / "desk"
OUTPUTS = (
    "enriched_ontology.tsv", "relatedness_matrix.tsv", "pattern_audit.tsv",
    "enrichment_report.tsv", "system_judgments.tsv", "manifest.tsv",
)
HASH_SEEDS = ("1", "2")
# sha256 of each ``--top-k 3`` output; a change to any byte of them is a
# change to the output contract, not a refactor.
DESK_SHA256 = {
    "enriched_ontology.tsv": "55bfb93e918bc57bca850e8cbfdc80fefa24f81a0d5a041cd6d6ec74b3a1d27a",
    "relatedness_matrix.tsv": "d5dad41e002a4e168ca597ab66f91256b822c213be57961f5f227e076bff5290",
    "pattern_audit.tsv": "5352996cb041de9c4dcc24c3dcc8fe65849eaf7b3cebbf76d138b21834ca31da",
    "enrichment_report.tsv": "7a377ca002963a85a0ded49d150da1a871f9362d1ede7ecc1fa5d72b7032c9e6",
    "system_judgments.tsv": "b90bcaf5480eb7f5f6b60fac01194092dc44d3d91fed07c04029dd146eaea578",
    "manifest.tsv": "a8fc6d61b37f7830cdb01f8802499c5caf1a61d801a928f8f53c93370ed625c7",
}
# sha256 of each output of a run with the CLI defaults (no ``--top-k``):
# 8,100 pairs, every one through the pattern stage and into the audit.
DESK_DEFAULTS_SHA256 = {
    "enriched_ontology.tsv": "ebac28fbfa0b4a9db36a2001ab3273f06cffe1caff64ab6454d72018d8131dc7",
    "relatedness_matrix.tsv": "d5dad41e002a4e168ca597ab66f91256b822c213be57961f5f227e076bff5290",
    "pattern_audit.tsv": "42d90112d4c5cb80c052e6d761cae90ac532e9071c68cb3dd25bf827be761f58",
    "enrichment_report.tsv": "f1689790b0d6eae9fcf07f928b7ae2c34eaad53e617729ef4312a24b668f8e72",
    "system_judgments.tsv": "8212d44e3bbb78c68d0df1c3a92cf94ff60587824cbf98375970586137436be0",
    "manifest.tsv": "1252e168f00b6c5b6d7b2c322ca0048e5ba95f17125625f7c574f1e5631cd314",
}
# sha256 of each output of the worked-examples run (``EXAMPLES_ARGS``, ``--top-k 1``).
EXAMPLES_SHA256 = {
    "enriched_ontology.tsv": "c406414836725b9c910c63396894d27032c356ea20c2cbcc3763dfb0884b723c",
    "relatedness_matrix.tsv": "04468d907a8585ede13682b8f6ffdba3a04e6a7845debd87bd0426f2926214e3",
    "pattern_audit.tsv": "ee93abc215046f9544746a9cc93b618145677d69c729d9a46d305701c6b6e80a",
    "enrichment_report.tsv": "42bd292f2bd3216a0f6e8d15384b2b53fc98c37764889890675bda2c10c06ca4",
    "system_judgments.tsv": "2f455b7f04b7609d66a47e72216b23b15fb5f204230a28e1c7048dd1cd77e92f",
    "manifest.tsv": "d562e4fa8cc0480dc64e43eb1869e0862abf387f9bf8641bf4980f27685116f4",
}
# sha256 of each output of the benchmark's seed-21 ``corpus10x`` and ``vocab4x``
# workloads (``perfbench/gen.py``), run with ``--top-k 3``.
CORPUS10X_SHA256 = {
    "enriched_ontology.tsv": "9649ab15dc924fb4ff464b6490ab0c5ae0d0531f9d654f182e1b1419044b095c",
    "relatedness_matrix.tsv": "1f2288dfb8b2e6985935e049615df61a823c9e4687df414e1d769a15676db545",
    "pattern_audit.tsv": "c1c1417268f25e1121d60f1309f027fdeef0434ad65f457185dc32c79d5d28bb",
    "enrichment_report.tsv": "3cb0593232ad59ccac779b5c994d69df4a6bd792d632dce05841e6dbb44470b2",
    "system_judgments.tsv": "6f72b0923a9d5d6e2a13a0a5af10115fbc82eb3346e0d29194e96206ccb9c13c",
    "manifest.tsv": "04748fb8f52e3caa89954c36ffd47175ca0412a24c3a93c8be075e0e76d92c22",
}
VOCAB4X_SHA256 = {
    "enriched_ontology.tsv": "de940368485227131c8829e6077a6ccda79e8fa29399eb150f79dcbf5094f8e1",
    "relatedness_matrix.tsv": "04c9ca1119f2d3fd50e9186001ee5ede930a77d2eedbebb2a4f96c0fe162b159",
    "pattern_audit.tsv": "f64d7720598acd790ffbeac5194a1a2fc1ca55d8a7a35b3f356a59676678bbad",
    "enrichment_report.tsv": "e04d32b8f47d2c9ed6d8b0b49a9f356532537de03e1b6fa1108991293a9d02d5",
    "system_judgments.tsv": "cdccb86b883fcedf1937b6bae89696da7e79384a5f351763824d02d03474ec6e",
    "manifest.tsv": "49314a6805981f7bb3d1e9b11946c9a8e41ba643ed3a987851f0a904e456075d",
}


def planted_triples() -> set[tuple[str, str, str]]:
    """(term, target, relation) for every relation the desk generator plants."""
    spec = importlib.util.spec_from_file_location(
        "make_desk_corpus", ROOT / "scripts" / "make_desk_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    relation_of = {template.id: template.relation.value for template in default_catalogue()}
    return {
        (term, target, relation_of[pattern_id])
        for entries in module.PLANTED.values()
        for term, target, pattern_id, _ in entries
    }


DESK_DEFAULT_ARGS = ("--corpus", DESK / "corpus", "--ontology", DESK / "ontology.tsv",
                     "--gazetteer", DESK / "gazetteer.tsv")
DESK_ARGS = (*DESK_DEFAULT_ARGS, "--top-k", "3")
EXAMPLES_SNAPSHOT = ROOT / "fixtures" / "snapshots" / "worked_examples.tsv"
EXAMPLES_INPUTS = ("--corpus", ROOT / "fixtures" / "corpus_examples",
                   "--ontology", ROOT / "fixtures" / "mini_ontology.tsv")
EXAMPLES_ARGS = (*EXAMPLES_INPUTS, "--snapshot", EXAMPLES_SNAPSHOT)


def run_cli(*argv, seed: str = HASH_SEEDS[0], python: str = sys.executable
            ) -> subprocess.CompletedProcess:
    src = Path(ontoenrich.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
    return subprocess.run([python, *map(str, argv)], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True, timeout=300)


def other_interpreters() -> list[str]:
    """Each ``python3.N`` on the PATH, N >= 10 and not this interpreter's
    minor version, that runs ``-c pass``."""
    found = []
    for minor in range(10, 20):
        python = shutil.which(f"python3.{minor}")
        if minor != sys.version_info.minor and python and subprocess.run(
                [python, "-c", "pass"], capture_output=True, timeout=60).returncode == 0:
            found.append(python)
    return found


def pattern_funnel(stderr: str) -> tuple[int, ...]:
    """The pattern stage's ``-v`` line: pairs, side tests and how many were
    non-zero, full queries and how many were non-zero, settled pairs."""
    prefix = "INFO ontoenrich.pipeline: patterns: "
    (line,) = [line[len(prefix):] for line in stderr.splitlines() if line.startswith(prefix)]
    return tuple(map(int, re.fullmatch(
        r"(\d+) pairs, (\d+) side tests \((\d+) non-zero\), (\d+) full queries "
        r"\((\d+) non-zero\), (\d+) pairs settled without a full query", line).groups()))


def run_reporting_hashlib(out: Path, blocked: tuple[str, ...] = ()) -> bool:
    """Run desk ``--top-k 3`` through ``cli.main`` in a fresh interpreter in
    which the ``blocked`` modules cannot be imported, and return whether the
    run loaded ``_hashlib``, hashlib's OpenSSL backend."""
    block = "".join(f"sys.modules[{name!r}] = None; " for name in blocked)
    script = (f"import sys; {block}from ontoenrich import cli; code = cli.main(sys.argv[1:]); "
              "print('_hashlib' in sys.modules); sys.exit(code)")
    run = run_cli("-c", script, "enrich", *DESK_ARGS, "--out-dir", out)
    return run.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory) -> dict[str, Path]:
    runs = {}
    for seed in HASH_SEEDS:
        out = tmp_path_factory.mktemp(f"desk-hashseed-{seed}")
        run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "--out-dir", out, seed=seed)
        runs[seed] = out
    return runs


def test_desk_recovers_planted_relations(desk_runs):
    report = (desk_runs[HASH_SEEDS[0]] / "enrichment_report.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in report.splitlines()[1:] if not line.startswith("#")]
    named = {(term, target, senses, relation)
             for term, target, senses, relation, *_ in rows if relation != "related-to"}
    expected = {
        (term, target, "2" if (term, target) == ("slitherbyte", "python") else "1", relation)
        for term, target, relation in planted_triples()
    }
    assert len(expected) == 10
    assert named == expected


def test_desk_outputs_identical_across_hash_seeds(desk_runs):
    first, second = (desk_runs[seed] for seed in HASH_SEEDS)
    for name in OUTPUTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_desk_outputs_match_pinned_sha256(desk_runs):
    out = desk_runs[HASH_SEEDS[0]]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert got == DESK_SHA256


def test_desk_outputs_match_pinned_sha256_under_other_interpreters(tmp_path):
    # Float sums and orders must not depend on the Python version: the run
    # writes the pinned bytes under every other CPython found. The manifest
    # is left aside: it describes the run, not its results.
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other python3.N (N >= 10) starts on this PATH")
    pinned = {name: digest for name, digest in DESK_SHA256.items() if name != "manifest.tsv"}
    for python in pythons:
        out = tmp_path / Path(python).name
        run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "--out-dir", out, python=python)
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
        assert got == pinned, python


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter has no built-in sha256 module")
def test_run_hashes_without_loading_openssl(desk_runs, tmp_path):
    # OpenSSL's libcrypto costs every run about 3.5 MiB of peak RSS.
    assert not run_reporting_hashlib(tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (desk_runs[HASH_SEEDS[0]] / name).read_bytes()


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                    reason="this interpreter's hashlib has no OpenSSL backend")
def test_run_without_builtin_sha256_hashes_through_hashlib(desk_runs, tmp_path):
    assert run_reporting_hashlib(tmp_path, blocked=("_sha2", "_sha256"))
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (desk_runs[HASH_SEEDS[0]] / name).read_bytes()


def test_desk_default_outputs_match_pinned_sha256(tmp_path):
    run_cli("-m", "ontoenrich.cli", "enrich", *DESK_DEFAULT_ARGS, "--out-dir", tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert got == DESK_DEFAULTS_SHA256


def test_worked_examples_outputs_match_pinned_sha256(tmp_path):
    run_cli("-m", "ontoenrich.cli", "enrich", *EXAMPLES_ARGS, "--top-k", "1",
            "--out-dir", tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert got == EXAMPLES_SHA256


@pytest.mark.parametrize(("doc_mult", "vocab_mult", "expected"), [
    pytest.param(10, 1, CORPUS10X_SHA256, id="corpus10x"),
    pytest.param(1, 4, VOCAB4X_SHA256, id="vocab4x"),
])
def test_generated_workload_outputs_match_pinned_sha256(tmp_path, monkeypatch, doc_mult,
                                                         vocab_mult, expected):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")  # the benchmark's workload generator
    inputs = tmp_path / "inputs"
    desk = gen.load_desk_generator()
    gen.write_workload(gen.generate(desk.SEED + 21, doc_mult, vocab_mult, desk=desk), inputs)
    run_cli("-m", "ontoenrich.cli", "enrich", "--corpus", inputs / "corpus",
            "--ontology", inputs / "ontology.tsv", "--gazetteer", inputs / "gazetteer.tsv",
            "--top-k", "3", "--out-dir", tmp_path / "out")
    out = tmp_path / "out"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert got == expected


def test_verbose_run_logs_debug_lines_and_writes_the_same_files(desk_runs, tmp_path):
    run = run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "-v", "--out-dir", tmp_path)
    assert any(line.startswith("DEBUG ontoenrich.") for line in run.stderr.splitlines())
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (desk_runs[HASH_SEEDS[0]] / name).read_bytes()


def test_verbose_run_logs_each_stage_time_in_run_order(desk_runs, tmp_path):
    run = run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "-v", "--out-dir", tmp_path)
    prefix = "INFO ontoenrich.pipeline: stage "
    timed = [line[len(prefix):] for line in run.stderr.splitlines() if line.startswith(prefix)]
    assert [line.split(":")[0] for line in timed] == [
        "config", "ontology", "corpus", "hits", "relatedness", "extraction", "enrichment",
        "output",
    ]
    assert all(re.fullmatch(r"[a-z]+: \d+\.\d{3} s", line) for line in timed), timed
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (desk_runs[HASH_SEEDS[0]] / name).read_bytes()


def test_recorded_snapshot_replays_desk_run(tmp_path):
    # The benchmark records an index run's hit counts through a proxy that
    # offers only hits, pair_hits, pattern_hits and total_docs, then replays them.
    # The replay prunes from the snapshot's non-zero keys what the record
    # pruned from the index's counts, and a query the record left out must
    # count 0; the defaults case has 8,100 pairs.
    for case, args, pinned in [("top-k-3", DESK_ARGS, DESK_SHA256),
                               ("defaults", DESK_DEFAULT_ARGS, DESK_DEFAULTS_SHA256)]:
        snapshot, recorded, replayed = (tmp_path / f"{case}.snapshot", tmp_path / f"{case}-rec",
                                        tmp_path / f"{case}-rep")
        record = run_cli(ROOT / "perfbench" / "harness.py", "record", snapshot,
                         "enrich", *args, "-v", "--out-dir", recorded)
        replay = run_cli("-m", "ontoenrich.cli", "enrich", *args, "--snapshot", snapshot,
                         "-v", "--out-dir", replayed)
        got = {name: hashlib.sha256((recorded / name).read_bytes()).hexdigest()
               for name in OUTPUTS}
        assert got == pinned, case
        for name in OUTPUTS:
            if name != "manifest.tsv":  # the manifest names the provider
                assert (replayed / name).read_bytes() == (recorded / name).read_bytes(), name
        assert pattern_funnel(replay.stderr) == pattern_funnel(record.stderr), case
    pairs, side, _, full, _, _ = pattern_funnel(replay.stderr)
    assert (pairs, side, full) == (8_100, 1_980, 59)


def test_saturation_warning_agrees_with_traced_admitted_cells(tmp_path):
    # Every desk cell is above 0.9998, so the 0.5 threshold admits all 90 x 90.
    report_path = tmp_path / "trace.json"
    run = run_cli(ROOT / "perfbench" / "harness.py", "trace", report_path,
                  "enrich", *DESK_ARGS, "--out-dir", tmp_path / "out")
    counts = json.loads(report_path.read_text(encoding="utf-8"))["counts"]
    assert counts["relatedness.admitted"] == counts["relatedness.cells"] == 8_100
    assert [line for line in run.stderr.splitlines() if "admits all" in line] == [
        "WARNING ontoenrich.relatedness: threshold 0.5 admits all 8100 relatedness cells"
        " (smallest 0.999826): it rejects no candidate pair"
    ]


def test_traced_run_sees_every_traced_name_and_query(tmp_path):
    # perfbench's per-module metrics come from spans around public names of
    # ontoenrich.pipeline and around the provider; a refactor that renames
    # one, or issues queries past the provider, would blind them silently.
    # A snapshot's side tests are no provider queries, so the traced calls
    # are the full queries; the added key keeps one pair's templates viable.
    snapshot = tmp_path / "examples.snapshot"
    snapshot.write_text(EXAMPLES_SNAPSHOT.read_text(encoding="utf-8")
                        + "H\tjawa is an instance of a java\t500\n", encoding="utf-8")
    args = (*EXAMPLES_INPUTS, "--snapshot", snapshot)
    report_path, traced, plain = tmp_path / "trace.json", tmp_path / "traced", tmp_path / "plain"
    run = run_cli(ROOT / "perfbench" / "harness.py", "trace", report_path,
                  "enrich", *args, "-v", "--out-dir", traced)
    run_cli("-m", "ontoenrich.cli", "enrich", *args, "--out-dir", plain)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["absent"] == []
    for name in OUTPUTS:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    _, _, _, full, _, _ = pattern_funnel(run.stderr)
    calls, _, _ = report["spans"]["hitcounts.pattern_hits"]
    assert calls == full > 0


def test_verbose_funnel_counts_every_traced_pattern_query(tmp_path):
    report_path = tmp_path / "trace.json"
    run = run_cli(ROOT / "perfbench" / "harness.py", "trace", report_path,
                  "enrich", *DESK_ARGS, "-v", "--out-dir", tmp_path / "traced")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    pairs, side, side_nonzero, full, full_nonzero, settled = pattern_funnel(run.stderr)
    calls, _, _ = report["spans"]["hitcounts.pattern_hits"]
    assert side + full == calls
    assert side_nonzero + full_nonzero == report["counts"]["hitcounts.pattern_nonzero"]
    assert 0 < side_nonzero < side and 0 < full_nonzero < full
    assert pairs == report["counts"]["relatedness.candidate_pairs"] == 270
    assert 0 < settled < pairs
    # A target's Y mask is taken only when its term's X mask leaves a
    # template viable; taking every target's made 1,925 side tests here.
    assert (pairs, side, side_nonzero, full, full_nonzero, settled) == (
        270, 1_287, 25, 11, 10, 259)
    assert full < (pairs - settled) * len(default_catalogue())
    quiet = run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "--out-dir", tmp_path / "quiet")
    assert len(quiet.stderr.splitlines()) == 2


def test_verbose_placement_funnel_counts_every_traced_decision(tmp_path):
    report_path, out = tmp_path / "trace.json", tmp_path / "traced"
    run = run_cli(ROOT / "perfbench" / "harness.py", "trace", report_path,
                  "enrich", *DESK_ARGS, "-v", "--out-dir", out)
    counts = json.loads(report_path.read_text(encoding="utf-8"))["counts"]
    prefix = "INFO ontoenrich.placement: enrichment: "
    (funnel,) = [line[len(prefix):] for line in run.stderr.splitlines() if line.startswith(prefix)]
    decisions, cases, relations, failures, ties = re.fullmatch(
        r"(\d+) decisions, by case \((.*)\), by relation \((.*)\), (\d+) failures, "
        r"(\d+) case-2 ties", funnel).groups()
    by_case = {name: int(n) for name, n in (item.split(" ") for item in cases.split(", "))}
    by_relation = {name: int(n) for name, n in (item.split(" ") for item in relations.split(", "))}
    assert int(decisions) == sum(by_case.values()) == sum(by_relation.values())
    assert int(decisions) == counts["placement.decisions"] == 270
    assert sum(n for name, n in by_case.items() if "case2" in name) == (
        counts["placement.case2_decisions"]) > 0
    assert int(failures) == counts["placement.failures"]
    report = (out / "enrichment_report.tsv").read_text(encoding="utf-8").splitlines()
    assert report[-1] == f"# case2 ties: {ties}"
    applied = [line.split("\t") for line in report[1:-1] if line.endswith("\tapplied")]
    assert by_relation == Counter(row[3] for row in applied)
    cases_written = Counter()
    for name, n in by_case.items():
        cases_written[name.split("/")[0]] += n
    assert cases_written == Counter(row[4] for row in applied)
    quiet = run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "--out-dir", tmp_path / "quiet")
    assert len(quiet.stderr.splitlines()) == 2
