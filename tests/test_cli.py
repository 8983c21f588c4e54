import argparse
import hashlib
import json
import logging
import re
import shutil
import sys
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import pytest

from ontoenrich import pipeline, textpipe
from ontoenrich.cli import _CONFIG_KEYS, build_parser, main
from ontoenrich.evaluation import load_judgments
from ontoenrich.hitcounts import SnapshotTable
from ontoenrich.ontology import RelationKind, load_ontology
from ontoenrich.patterns import FALLBACK_MARKER, RelationSuggestion
from ontoenrich.placement import PlacementDecision, enrich_ontology
from ontoenrich.textpipe import load_corpus, read_documents

from helpers import OffsetCodes, build_index, corpus_digest, has_axiom, scan_hits
from test_desk_run import pattern_funnel, run_cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MINI = FIXTURES / "mini_ontology.tsv"
SNAPSHOT = FIXTURES / "snapshots" / "worked_examples.tsv"
DESK = FIXTURES / "desk"
DESK_ARGS = ("--corpus", DESK / "corpus", "--ontology", DESK / "ontology.tsv",
             "--gazetteer", DESK / "gazetteer.tsv")


def run(*argv) -> int:
    return main([str(a) for a in argv])


def manifest_of(out: Path) -> dict[str, str]:
    return dict(line.split("\t") for line in (out / "manifest.tsv").read_text().splitlines())


@pytest.fixture
def tiny_corpus(tmp_path):
    root = tmp_path / "corpus"
    (root / "islands").mkdir(parents=True)
    (root / "islands" / "one.txt").write_text("java island tropics", encoding="utf-8")
    (root / "islands" / "two.txt").write_text("java island coffee", encoding="utf-8")
    (root / "islands" / "three.txt").write_text("java volcano", encoding="utf-8")
    (root / "islands" / "four.txt").write_text("sea coast reef", encoding="utf-8")
    return root


def test_index_subcommand_is_gone(tmp_path, tiny_corpus, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("index", "--corpus", tiny_corpus, "--out-dir", tmp_path / "out")
    assert exit_info.value.code == 2
    assert "invalid choice: 'index'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_index_matches_scan_oracle(tiny_corpus):
    # The index enrich and relatedness build from a --corpus directory.
    index = build_index(read_documents(load_corpus(tiny_corpus), hashlib.sha256()))
    doc_tokens = {
        f"islands/{name}": (tiny_corpus / "islands" / name).read_text().split()
        for name in ["one.txt", "two.txt", "three.txt", "four.txt"]
    }
    assert index.total_docs() == len(doc_tokens)
    for phrase in ["java", "island", "java island", "sea coast reef", "missing"]:
        assert index.hits(phrase) == scan_hits(doc_tokens, phrase)


def test_index_empty_corpus_fails_with_hits_code(tmp_path, capsys):
    # No snapshot, so relatedness builds a corpus index, which rejects no documents.
    empty = tmp_path / "corpus"
    empty.mkdir()
    code = run(
        "relatedness", "--corpus", empty, "--ontology", MINI, "--out-dir", tmp_path / "out"
    )
    assert code == 5
    assert "cannot index an empty corpus" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_enrich_worked_examples_related_to(tmp_path):
    out = tmp_path / "out"
    code = run(
        "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--top-k", 1, "--out-dir", out,
    )
    assert code == 0
    enriched = load_ontology(out / "enriched_ontology.tsv")
    assert has_axiom(enriched, RelationKind.RELATED_TO, "jawa", "java", object_sense=1)
    assert has_axiom(enriched, RelationKind.RELATED_TO, "hindu-buddhist", "indonesia")
    for name in ["relatedness_matrix.tsv", "pattern_audit.tsv", "enrichment_report.tsv",
                 "system_judgments.tsv", "manifest.tsv"]:
        assert (out / name).exists()


def test_enrich_corporate_body_hyponymy(tmp_path):
    out = tmp_path / "out"
    code = run(
        "enrich", "--corpus", FIXTURES / "corpus_corp", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--top-k", 1, "--out-dir", out,
    )
    assert code == 0
    enriched = load_ontology(out / "enriched_ontology.tsv")
    assert has_axiom(
        enriched, RelationKind.HYPONYMY, "corporate-body", "organization", object_sense=2
    )


def test_enrich_threshold_one_leaves_ontology_unchanged(tmp_path):
    out = tmp_path / "out"
    code = run(
        "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--threshold", 1.0, "--out-dir", out,
    )
    assert code == 0
    enriched = (out / "enriched_ontology.tsv").read_text()
    assert enriched == load_ontology(MINI).to_text()


def test_enrich_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ["a", "b"]:
        out = tmp_path / name
        assert run(
            "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
            "--snapshot", SNAPSHOT, "--top-k", 1, "--out-dir", out,
        ) == 0
        outs.append(out)
    for name in ["enriched_ontology.tsv", "relatedness_matrix.tsv", "pattern_audit.tsv",
                 "enrichment_report.tsv", "system_judgments.tsv", "manifest.tsv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_enrich_terms_sharing_a_slug_both_inserted(tmp_path):
    # Mined "marsh-cat" and "marsh cat" slug alike; each gets its own id
    # instead of ending the run on a duplicate concept id.
    desk = tmp_path / "desk"
    shutil.copytree(FIXTURES / "desk", desk)
    for i in range(3):
        (desk / "corpus" / "animals" / f"marsh_{i}.txt").write_text(
            "The marsh-cat of the bear is known there. The marsh cat is near the eagle.\n",
            encoding="utf-8",
        )
    out = tmp_path / "out"
    assert run(
        "enrich", "--corpus", desk / "corpus", "--ontology", desk / "ontology.tsv",
        "--gazetteer", desk / "gazetteer.tsv", "--top-k", 3, "--out-dir", out,
    ) == 0
    enriched = load_ontology(out / "enriched_ontology.tsv")
    assert enriched.concepts["marsh-cat"].label == "marsh cat"
    assert enriched.concepts["marsh-cat-2"].label == "marsh-cat"


def test_enriched_ontology_with_a_hash_term_loads_again(tmp_path):
    corpus = tmp_path / "corpus" / "programming"
    corpus.mkdir(parents=True)
    for i in range(6):
        (corpus / f"c{i}.txt").write_text(
            "The c# language is known. A compiler of the c# language runs. c# is a language.\n",
            encoding="utf-8",
        )
    for i in range(3):
        (corpus / f"p{i}.txt").write_text(
            "The python program runs on the compiler. A loop is fine.\n", encoding="utf-8"
        )
    ontology = tmp_path / "ontology.tsv"
    ontology.write_text(
        "".join(f"C\t{c}\t{c}\t1\n" for c in ("compiler", "language", "loop", "program")),
        encoding="utf-8",
    )
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["enrich", "--corpus", tmp_path / "corpus", "--top-k", 1]
    assert run(*argv, "--ontology", ontology, "--out-dir", first) == 0
    enriched = load_ontology(first / "enriched_ontology.tsv")
    assert enriched.concepts["c-"].label == "c#"
    assert run(*argv, "--ontology", first / "enriched_ontology.tsv", "--out-dir", second) == 0


def test_system_judgments_written_per_bucket_equal_sorted_lines(tmp_path):
    # "a" sorts before "a-b", "ab" and "a b" as a domain; and "a\x01" sorts
    # before "a" as a line prefix, though not as a bare name. Bucket "ab"
    # does the same with terms: as a line, "reef\x01" comes before "reef"
    # and "reef bank" after it, though "reef\n" comes after "reef\x01\n";
    # and "Sea" comes before "reef", though not when lowercased.
    domains = ["a", "a-b", "ab", "a b", "a\x01"]
    term_domains = {"marsh cat": set(domains), "reef": {"ab", "a"}, "Reef": {"a b"},
                    "reef\x01": {"ab"}, "reef bank": {"ab"}, "Sea": {"ab"}}
    eliminated = ["reef", "reef\x01"]
    retained = ["marsh cat", "Reef", "reef bank", "Sea"]

    def decision(term, target, senses, relation):
        suggestion = RelationSuggestion(term, target, relation, FALLBACK_MARKER, 0, ())
        return PlacementDecision(suggestion, target, senses, "case2")

    # One term's decisions need not follow one another.
    decisions = [
        decision("marsh cat", "animal", (2, 1), RelationKind.HYPONYMY),
        decision("Reef", "coast", (1,), RelationKind.RELATED_TO),
        decision("reef bank", "shore", (1,), RelationKind.MERONYMY),
        decision("reef", "shore", (1,), RelationKind.RELATED_TO),
        decision("Sea", "water", (1,), RelationKind.RELATED_TO),
        decision("reef\x01", "coast", (1,), RelationKind.RELATED_TO),
        decision("reef bank", "coast", (2, 1), RelationKind.HYPONYMY),
        decision("reef", "coast", (3, 1), RelationKind.HYPONYMY),
    ]
    path = tmp_path / "system_judgments.tsv"
    pipeline._write_system_judgments(eliminated, retained, term_domains, decisions, path)
    lines = [
        f"E\t{domain}\t{status}\t{surface}"
        for status, terms in (("eliminated", eliminated), ("retained", retained))
        for surface in terms for domain in term_domains[surface]
    ] + [
        f"X\t{domain}\t{s.missing_term}\t{d.target_concept}\t{sense}\t{s.relation.value}"
        for d in decisions for s in [d.suggestion]
        for domain in term_domains[s.missing_term] for sense in d.senses
    ]
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in sorted(lines))
    assert len(load_judgments(path)) == len(domains)


# A streamed writer holds a sort order or one record's text, never its file:
# on desk defaults the peaks were 46 KiB for a 5,184 KiB audit, 29 KiB for a
# 598 KiB report, 40 KiB for a 494 KiB ontology and 107 KiB for a 408 KiB
# judgments file, which holds one term's lines at a time. A writer that
# builds its file as a list of lines holds more than the file's size.
STREAMED_PEAK_SHARE = 0.5


def test_writers_stream_their_files(tmp_path, monkeypatch):
    peaks = {}

    def traced(writer):
        def wrapper(*args):
            tracemalloc.start()
            try:
                writer(*args)
                peaks[args[-1].name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return wrapper

    for name in ("write_pattern_audit", "write_enrichment_report", "save_ontology",
                 "_write_system_judgments"):
        monkeypatch.setattr(pipeline, name, traced(getattr(pipeline, name)))
    out = tmp_path / "out"
    assert run("enrich", *DESK_ARGS, "--out-dir", out) == 0
    sizes = {name: (out / name).stat().st_size for name in peaks}
    assert sorted(peaks) == ["enriched_ontology.tsv", "enrichment_report.tsv", "pattern_audit.tsv",
                             "system_judgments.tsv"]
    assert {name: (peaks[name], sizes[name]) for name in peaks
            if peaks[name] >= STREAMED_PEAK_SHARE * sizes[name]} == {}


def test_manifest_records_run_knobs(tmp_path):
    out = tmp_path / "out"
    assert run(
        "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--threshold", 0.7, "--ngd-cap", 0.9,
        "--top-k", 2, "--out-dir", out,
    ) == 0
    manifest = manifest_of(out)
    assert manifest["threshold"] == "0.7"
    assert manifest["distance_cap"] == "0.9"
    assert manifest["top_k"] == "2"
    assert manifest["provider"] == "snapshot:worked_examples.tsv"
    assert manifest["catalogue_sha256"] == "builtin"
    assert len(manifest["ontology_sha256"]) == 64


def test_manifest_identifies_snapshot_by_content(tmp_path):
    manifests = []
    for name, text in [("a", SNAPSHOT.read_text()),
                       ("b", SNAPSHOT.read_text().replace("\t480000", "\t480001"))]:
        snapshot = tmp_path / name / SNAPSHOT.name
        snapshot.parent.mkdir()
        snapshot.write_text(text, encoding="utf-8")
        out = tmp_path / f"out-{name}"
        assert run(
            "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
            "--snapshot", snapshot, "--top-k", 1, "--out-dir", out,
        ) == 0
        manifests.append(manifest_of(out))
    first, second = manifests
    assert first["provider"] == second["provider"] == f"snapshot:{SNAPSHOT.name}"
    assert first["snapshot_sha256"] != second["snapshot_sha256"]
    assert first["snapshot_sha256"] == hashlib.sha256(SNAPSHOT.read_bytes()).hexdigest()
    assert first["corpus_sha256"] == second["corpus_sha256"]


def test_manifest_identifies_corpus_by_content(tmp_path, tiny_corpus):
    manifests = []
    for name in ("before", "after"):
        out = tmp_path / name
        assert run(
            "enrich", "--corpus", tiny_corpus, "--ontology", MINI, "--top-k", 1,
            "--out-dir", out,
        ) == 0
        manifests.append(manifest_of(out))
        (tiny_corpus / "islands" / "four.txt").write_text("sea coast reefs", encoding="utf-8")
    first, second = manifests
    assert first["provider"] == second["provider"]
    assert first["snapshot_sha256"] == second["snapshot_sha256"] == "-"
    assert first["corpus_sha256"] != second["corpus_sha256"]


def test_manifest_names_the_input_bytes_the_run_loaded(tmp_path, monkeypatch):
    # Every input file changes once all are loaded; the manifest still names
    # the bytes the run parsed.
    data = Path(pipeline.__file__).parent / "data"
    inputs = {"ontology": MINI, "snapshot": SNAPSHOT, "gazetteer": FIXTURES / "gazetteer.tsv",
              "stopwords": data / "stopwords.txt", "patterns": data / "patterns.tsv"}
    loaded = {}
    for flag, source in inputs.items():
        copy = tmp_path / flag / source.name
        copy.parent.mkdir()
        shutil.copyfile(source, copy)
        inputs[flag], loaded[flag] = copy, hashlib.sha256(copy.read_bytes()).hexdigest()
    hits_filter = pipeline.ngram_hits_filter

    def rewrite_inputs(*args):
        for path in inputs.values():
            path.write_text(path.read_text(encoding="utf-8") + "# rewritten\n", encoding="utf-8")
        return hits_filter(*args)

    monkeypatch.setattr(pipeline, "ngram_hits_filter", rewrite_inputs)
    flags = [arg for flag, path in inputs.items() for arg in (f"--{flag}", path)]
    assert run("enrich", "--corpus", FIXTURES / "corpus_examples", *flags, "--top-k", 1,
               "--out-dir", tmp_path / "out") == 0
    manifest = manifest_of(tmp_path / "out")
    for flag, path in inputs.items():
        key = "catalogue_sha256" if flag == "patterns" else f"{flag}_sha256"
        assert manifest[key] == loaded[flag] != hashlib.sha256(path.read_bytes()).hexdigest()


def test_snapshot_run_prunes_sides_that_are_no_token_run_of_a_nonzero_key(tmp_path,
                                                                          monkeypatch):
    # A snapshot counts 0 for a key it lacks or holds with 0, and each side
    # query of a pair, normalized, is a token run of the pair's full key.
    # This full query counts 500 though neither of its side queries has a
    # key: both are token runs of it. The key recorded with 0 has sides that
    # are no token run of a non-zero key, so its pair issues no full query.
    text = SNAPSHOT.read_text(encoding="utf-8") + (
        "H\tjawa is an instance of a java\t500\nH\tronaldo is a kind of football\t0\n"
    )
    snapshot = tmp_path / SNAPSHOT.name
    snapshot.write_text(text, encoding="utf-8")
    table = SnapshotTable.load(snapshot)
    assert table.pattern_hits("Jawa is an instance of") == 0
    assert table.pattern_hits("is an instance of a Java") == 0
    queries = []
    pattern_hits = SnapshotTable.pattern_hits
    monkeypatch.setattr(SnapshotTable, "pattern_hits",
                        lambda self, query: queries.append(query) or pattern_hits(self, query))
    out = tmp_path / "out"
    assert run("enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
               "--snapshot", snapshot, "--top-k", 1, "--out-dir", out) == 0
    audit = (out / "pattern_audit.tsv").read_text(encoding="utf-8").splitlines()
    assert "Jawa\tJava\tinst-of\tJawa is an instance of a Java\t500" in audit
    assert "Ronaldo\tfootball\thypo-kind\tRonaldo is a kind of football\t0" in audit
    assert "Jawa is an instance of a Java" in queries
    assert [query for query in queries if query.startswith("Ronaldo ")] == []
    report = (out / "enrichment_report.tsv").read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[3] for row in report if row.startswith("Jawa\t")] == ["instance-of"]


def test_manifest_corpus_digest_equals_oracle_over_id_order(tmp_path):
    # Ids sort "a-b/..." before "a/...". Line ends are read as text mode reads
    # them, so a CRLF or CR file is hashed with LF line ends.
    root = tmp_path / "corpus"
    files = {
        "a/cr.txt": (b"desk lamp\roffice chair\r\rfiling\r\r\n\r",
                     "desk lamp\noffice chair\n\nfiling\n\n\n"),
        "a/crlf.txt": (b"desk lamp\r\noffice chair\r\n", "desk lamp\noffice chair\n"),
        "a/plain.txt": (b"filing cabinet", "filing cabinet"),
        "a-b/\u00e9t\u00e9.txt": ("Caf\u00e9 \u0399\u03a3 \u0130stanbul stra\u00dfe".encode(),
                          "Caf\u00e9 \u0399\u03a3 \u0130stanbul stra\u00dfe"),
    }
    for doc_id, (data, _) in files.items():
        (root / doc_id).parent.mkdir(parents=True, exist_ok=True)
        (root / doc_id).write_bytes(data)
    out = tmp_path / "out"
    assert run("relatedness", "--corpus", root, "--ontology", MINI, "--out-dir", out) == 0
    expected = corpus_digest((doc_id, text) for doc_id, (_, text) in files.items())
    assert manifest_of(out)["corpus_sha256"] == expected


def test_blank_document_exits_corpus_code(tmp_path, tiny_corpus, capsys):
    (tiny_corpus / "islands" / "blank.txt").write_text(" \n\t", encoding="utf-8")
    code = run("enrich", "--corpus", tiny_corpus, "--ontology", MINI,
               "--out-dir", tmp_path / "out")
    assert code == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error [corpus] document 'islands/blank.txt' has empty text"]
    assert not (tmp_path / "out").exists()


def test_token_past_the_last_code_exits_corpus_code(tmp_path, tiny_corpus, capsys, monkeypatch):
    # tiny_corpus has 8 distinct tokens; codes from the third-last on leave room for 3.
    monkeypatch.setattr(textpipe, "_Codes", partial(OffsetCodes, sys.maxunicode - 3))
    code = run("enrich", "--corpus", tiny_corpus, "--ontology", MINI,
               "--out-dir", tmp_path / "out")
    assert code == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error [corpus] corpus has more than 1,114,111 distinct lowercase tokens,"
                      " the number of token codes"]
    assert not (tmp_path / "out").exists()


def test_undecodable_document_error_names_the_byte_offset_in_the_file(tmp_path, tiny_corpus,
                                                                         capsys):
    (tiny_corpus / "islands" / "bad.txt").write_bytes(b"sea\r\nreef \xff shore")
    code = run("enrich", "--corpus", tiny_corpus, "--ontology", MINI,
               "--out-dir", tmp_path / "out")
    assert code == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error [corpus] 'utf-8' codec can't decode byte 0xff in position 10: "
                      "invalid start byte"]


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "corpus": str(FIXTURES / "corpus_examples"),
                "ontology": str(MINI),
                "snapshot": str(SNAPSHOT),
                "threshold": 0.9,
                "top_k": 1,
            }
        ),
        encoding="utf-8",
    )
    assert run(
        "enrich", "--config", config, "--threshold", 0.5, "--out-dir", out
    ) == 0
    manifest = manifest_of(out)
    assert manifest["threshold"] == "0.5"  # flag beats config file
    assert manifest["top_k"] == "1"        # config file fills the gap


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        (b"{\"top_k\": ", "Expecting value"),
        (b"\xff{}", "codec can't decode byte 0xff"),
    ],
)
def test_unreadable_or_invalid_config_file_exits_config_code(tmp_path, capsys, content, reason):
    config = tmp_path / "run.json"
    if content is not None:
        config.write_bytes(content)
    assert run("enrich", "--config", config, "--out-dir", tmp_path / "o") == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1, errors
    assert errors[0].startswith(f"error [config] cannot read config file {config}: ")
    assert reason in errors[0]
    assert not (tmp_path / "o").exists()


def test_config_file_unknown_key_rejected(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"corpsu": "x"}), encoding="utf-8")
    assert run("enrich", "--config", config, "--out-dir", tmp_path / "o") == 2


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"threshold": "high"}, []),
        ({"threshold": None}, []),
        ({"threshold": True}, []),
        ({"ngd_cap": None}, []),
        ({"top_k": 2.7}, []),
        ({"top_k": "2"}, []),
        (["threshold", 0.5], []),
        (None, ["--threshold", 1.5]),
        (None, ["--threshold", -0.1]),
        (None, ["--top-k", 0]),
        (None, ["--ngd-cap", -1]),
        ({"snapshot": ""}, []),
        ({"snapshot": False}, []),
        ({"snapshot": 0}, []),
        ({"stopwords": ""}, []),
        ({"gazetteer": False}, []),
        ({"patterns": ["x"]}, []),
        (None, ["--snapshot", ""]),
        (None, ["--stopwords", ""]),
        (None, ["--corpus", ""]),
        (None, ["--out-dir", ""]),
        (None, ["--ngd-cap", "nan"]),
        (None, ["--ngd-cap", "inf"]),
        ({"ngd_cap": float("nan")}, []),
        ({"ngd_cap": float("inf")}, []),
    ],
)
def test_bad_knob_values_exit_config_code(tmp_path, capsys, config, flags):
    argv = ["enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
            "--out-dir", tmp_path / "o"]
    if not isinstance(config, dict) or "snapshot" not in config:
        argv += ["--snapshot", SNAPSHOT]  # a flag would override the config file's value
    argv += flags
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", path]
    assert run(*argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


RANGE_ERRORS = [
    ("threshold", "--threshold", 1.5, "threshold must be in [0, 1], got 1.5"),
    ("top_k", "--top-k", 0, "top_k must be >= 1, got 0"),
    ("ngd_cap", "--ngd-cap", -1, "distance cap must be finite and >= 0, got -1.0"),
]


@pytest.mark.parametrize("key, flag, value, message", RANGE_ERRORS)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_out_of_range_knob_prints_its_record_message(tmp_path, capsys, key, flag, value,
                                                     message, source):
    argv = ["enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
            "--snapshot", SNAPSHOT, "--out-dir", tmp_path / "o"]
    if source == "flag":
        argv += [flag, value]
    else:
        (tmp_path / "run.json").write_text(json.dumps({key: value}), encoding="utf-8")
        argv += ["--config", tmp_path / "run.json"]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error [config] {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["relatedness", "--corpus", "", "--ontology", MINI, "--out-dir", "o"],
        ["relatedness", "--corpus", "corpus", "--ontology", MINI, "--out-dir", ""],
        ["relatedness", "--corpus", "corpus", "--ontology", MINI, "--out-dir", "o",
         "--stopwords", ""],
        ["eval", "--system", "", "--expert", "expert.tsv", "--out-dir", "o"],
        ["eval", "--system", "expert.tsv", "--expert", "", "--out-dir", "o"],
        ["eval", "--system", "expert.tsv", "--expert", "expert.tsv", "--out-dir", ""],
        # missing input files
        ["relatedness", "--corpus", "ghost", "--ontology", MINI, "--out-dir", "o"],
        ["relatedness", "--corpus", "corpus", "--ontology", MINI, "--out-dir", "o",
         "--stopwords", "ghost.txt"],
        ["eval", "--system", "ghost.tsv", "--expert", "expert.tsv", "--out-dir", "o"],
        ["eval", "--system", "expert.tsv", "--expert", "ghost.tsv", "--out-dir", "o"],
    ],
)
def test_empty_path_flags_exit_config_code(tmp_path, tiny_corpus, monkeypatch, capsys, argv):
    (tmp_path / "expert.tsv").write_bytes((FIXTURES / "eval" / "expert.tsv").read_bytes())
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run(*argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written, not even into "."


def test_config_keys_match_run_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for name in ("enrich", "relatedness"):
        dests = [
            action.dest for action in subparsers.choices[name]._actions
            if action.dest not in ("help", "config", "verbose")
        ]
        assert sorted(dests) == sorted(_CONFIG_KEYS), name


def test_every_subcommand_takes_verbose():
    parser = build_parser()
    for argv in (["enrich", "-v"], ["relatedness", "--verbose"],
                 ["eval", "-v", "--system", "s", "--expert", "e", "--out-dir", "o"]):
        assert parser.parse_args(argv).verbose, argv
    assert not parser.parse_args(["enrich"]).verbose


def test_missing_required_flags_exit_config_code(tmp_path):
    assert run("enrich", "--out-dir", tmp_path / "o") == 2


def test_missing_ontology_file_exits_config_code(tmp_path):
    code = run(
        "enrich", "--corpus", FIXTURES / "corpus_examples",
        "--ontology", tmp_path / "ghost.tsv", "--out-dir", tmp_path / "o",
    )
    assert code == 2


def test_broken_ontology_exits_ontology_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("C\ta\ta\n", encoding="utf-8")
    code = run(
        "enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", bad,
        "--out-dir", tmp_path / "o",
    )
    assert code == 3


def test_empty_corpus_exits_hits_code(tmp_path):
    empty = tmp_path / "corpus"
    empty.mkdir()
    code = run(
        "enrich", "--corpus", empty, "--ontology", MINI, "--out-dir", tmp_path / "o"
    )
    assert code == 5


def test_domain_name_with_a_tab_exits_corpus_code(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "corpus_examples", corpus)
    domain = corpus / "sci\tence"
    domain.mkdir()
    (domain / "a.txt").write_text("Java island", encoding="utf-8")
    code = run("enrich", "--corpus", corpus, "--ontology", MINI, "--snapshot", SNAPSHOT,
               "--out-dir", tmp_path / "out")
    assert code == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [
        f"error [corpus] corpus domain directory {str(domain)!r}"
        " has a tab or line break in its name"
    ]
    assert not (tmp_path / "out").exists()


def test_corpus_name_with_a_tab_exits_config_code(tmp_path, capsys):
    # An index run's manifest names the corpus directory in its provider field.
    corpus = tmp_path / "cor\tpus"
    shutil.copytree(FIXTURES / "corpus_examples", corpus)
    code = run("enrich", "--corpus", corpus, "--ontology", MINI, "--out-dir", tmp_path / "out")
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [
        "error [config] input name 'cor\\tpus' has a tab or line break, "
        "which the manifest's provider field cannot hold"
    ]
    assert not (tmp_path / "out").exists()


def test_snapshot_name_with_a_tab_exits_config_code(tmp_path, capsys):
    # A snapshot run's manifest names the snapshot file in its provider field.
    snapshot = tmp_path / "worked\texamples.tsv"
    shutil.copy(SNAPSHOT, snapshot)
    code = run("enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
               "--snapshot", snapshot, "--out-dir", tmp_path / "out")
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [
        "error [config] input name 'worked\\texamples.tsv' has a tab or line break, "
        "which the manifest's provider field cannot hold"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["N\t-5\n", "N\tabc\n", "N\t9\nH\ta\t1\nH\tA\t2\n"])
def test_bad_snapshot_exits_hits_code(tmp_path, capsys, text):
    snapshot = tmp_path / "snap.tsv"
    snapshot.write_text(text, encoding="utf-8")
    code = run("enrich", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
               "--snapshot", snapshot, "--out-dir", tmp_path / "out")
    assert code == 5
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(f"error [hits] {snapshot}: line ")
    assert not (tmp_path / "out").exists()


def test_interrupt_is_not_a_stage_failure(tmp_path, tiny_corpus, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "load_corpus", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run("enrich", "--corpus", tiny_corpus, "--ontology", MINI, "--out-dir", tmp_path / "out")


def test_index_and_its_table_are_freed_before_enrichment(tmp_path, monkeypatch):
    # Placement is the last stage that reads the index, so the index and the
    # phrase table it answers from are gone before the axioms are built.
    build, refs, alive = pipeline.CorpusIndex.build, [], []

    def build_and_note(table):
        index = build(table)
        refs.extend([weakref.ref(index), weakref.ref(table)])
        return index

    def enrich(*args):
        alive.append([ref() is not None for ref in refs])
        return enrich_ontology(*args)

    monkeypatch.setattr(pipeline.CorpusIndex, "build", build_and_note)
    monkeypatch.setattr(pipeline, "enrich_ontology", enrich)
    assert run("enrich", *DESK_ARGS, "--top-k", 3, "--out-dir", tmp_path / "out") == 0
    assert alive == [[False, False]]


@pytest.mark.parametrize("command", ["enrich", "relatedness", "eval"])
def test_out_dir_that_is_a_file_exits_config_code(tmp_path, capsys, monkeypatch, command):
    # Rejected with the config, before any corpus is read; so is an out-dir
    # below a file.
    def no_corpus(path):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(pipeline, "load_corpus", no_corpus)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--system", FIXTURES / "eval" / "system.tsv",
                "--expert", FIXTURES / "eval" / "expert.tsv"]
    else:
        argv = [command, "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
                "--snapshot", SNAPSHOT]
    for out_dir in (taken, taken / "sub"):
        assert run(*argv, "--out-dir", out_dir) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error")]
        assert len(errors) == 1 and errors[0].startswith("error [config] "), err
        assert f"{taken} exists and is not a directory" in errors[0]
        assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command, flag", [
    *[("enrich", flag) for flag in
      ("corpus", "ontology", "snapshot", "stopwords", "gazetteer", "patterns")],
    ("relatedness", "corpus"), ("relatedness", "ontology"), ("relatedness", "snapshot"),
    ("eval", "system"), ("eval", "expert"),
])
def test_input_of_the_wrong_kind_exits_config_code(tmp_path, capsys, monkeypatch, command, flag):
    # A corpus must be a directory and every other input a file; either is
    # rejected with the config, before any input is read or --out-dir made.
    def no_corpus(path):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(pipeline, "load_corpus", no_corpus)
    a_directory = tmp_path / "a-directory"
    a_directory.mkdir()
    if command == "eval":
        inputs = {"system": FIXTURES / "eval" / "system.tsv",
                  "expert": FIXTURES / "eval" / "expert.tsv"}
    else:
        inputs = {"corpus": FIXTURES / "corpus_examples", "ontology": MINI}
    wrong = MINI if flag == "corpus" else a_directory
    inputs[flag] = wrong
    argv = [command, *(arg for key, path in inputs.items() for arg in (f"--{key}", path))]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    kind = "is not a directory" if flag == "corpus" else "is a directory"
    assert [line for line in err.splitlines() if line.startswith("error")] == [
        f"error [config] {flag} path {wrong} {kind}"
    ], err
    assert not (tmp_path / "out").exists()


def test_relatedness_subcommand_writes_matrix_only(tmp_path):
    out = tmp_path / "out"
    assert run(
        "relatedness", "--corpus", FIXTURES / "corpus_examples", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--out-dir", out,
    ) == 0
    assert (out / "relatedness_matrix.tsv").exists()
    assert (out / "manifest.tsv").exists()
    assert not (out / "enriched_ontology.tsv").exists()
    header = (out / "relatedness_matrix.tsv").read_text().splitlines()[0]
    assert header.startswith("term\t")


def test_relatedness_writes_the_matrix_and_manifest_enrich_writes(tmp_path):
    enriched, related = tmp_path / "enrich", tmp_path / "relatedness"
    assert run("enrich", *DESK_ARGS, "--top-k", 3, "--out-dir", enriched) == 0
    assert run("relatedness", *DESK_ARGS, "--top-k", 3, "--out-dir", related) == 0
    shared = ["manifest.tsv", "relatedness_matrix.tsv"]
    assert sorted(path.name for path in related.iterdir()) == shared
    for name in shared:
        assert (related / name).read_bytes() == (enriched / name).read_bytes(), name


def test_verbose_tie_count_equals_the_report_line(tmp_path, caplog):
    # Desk defaults place terms under tied senses; --top-k 3 places none.
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="ontoenrich.placement"):
        assert run("enrich", *DESK_ARGS, "-v", "--out-dir", out) == 0
    (funnel,) = [record.getMessage() for record in caplog.records
                 if record.getMessage().startswith("enrichment: ")]
    ties = int(re.search(r", (\d+) case-2 ties$", funnel).group(1))
    report = (out / "enrichment_report.tsv").read_text(encoding="utf-8").splitlines()
    assert report[-1] == f"# case2 ties: {ties}"
    applied = [line.split("\t") for line in report[1:-1] if line.endswith("\tapplied")]
    assert ties == sum("," in row[2] for row in applied) > 0


@pytest.fixture(scope="module")
def traced_desk(tmp_path_factory):
    """(stderr, counts, output directory) of a perfbench-traced desk
    ``--top-k 3 -v`` run."""
    work = tmp_path_factory.mktemp("traced")
    report_path, out = work / "trace.json", work / "out"
    traced = run_cli(FIXTURES.parent / "perfbench" / "harness.py", "trace", report_path,
                     "enrich", *DESK_ARGS, "--top-k", 3, "-v", "--out-dir", out)
    return traced.stderr, json.loads(report_path.read_text(encoding="utf-8"))["counts"], out


def funnel_line(stderr: str, prefix: str) -> str:
    (line,) = [line[len(prefix):] for line in stderr.splitlines() if line.startswith(prefix)]
    return line


def test_verbose_corpus_funnel_equals_traced_counters(traced_desk):
    stderr, counts, out = traced_desk
    funnel = funnel_line(stderr, "INFO ontoenrich.pipeline: corpus: ")
    docs, phrases, known, missing = map(int, re.fullmatch(
        r"(\d+) documents, (\d+) phrases, (\d+) known terms, (\d+) missing terms",
        funnel).groups())
    assert docs == len(list(load_corpus(DESK / "corpus"))) == 500
    assert manifest_of(out)["provider"] == f"index:corpus,docs={docs}"
    assert phrases == counts["textpipe.ngrams"]
    assert missing == counts["textpipe.missing_terms"]
    # Each missing term has one E line per domain it occurs in.
    judged = {line.split("\t")[3] for line in
              (out / "system_judgments.tsv").read_text(encoding="utf-8").splitlines()
              if line.startswith("E\t")}
    assert len(judged) == missing
    assert 0 < known < phrases
    # The line follows the corpus stage's own.
    lines = stderr.splitlines()
    stage = [i for i, line in enumerate(lines)
             if line.startswith("INFO ontoenrich.pipeline: stage corpus: ")]
    assert lines[stage[0] + 1] == "INFO ontoenrich.pipeline: corpus: " + funnel


def hit_filter_funnel(stderr: str, out: Path) -> tuple[int, int, int, int]:
    """The retained, eliminated, dropped known and dropped missing terms of
    a ``-v`` run's relatedness line, checked against its corpus line, the E
    lines and the matrix file's shape."""
    retained, eliminated, known_dropped, missing_dropped = map(int, re.fullmatch(
        r"(\d+) retained and (\d+) eliminated missing terms, (\d+) known and (\d+) missing "
        r"terms dropped for unusable counts",
        funnel_line(stderr, "INFO ontoenrich.pipeline: relatedness: ")).groups())
    known, missing = map(int, re.search(r"(\d+) known terms, (\d+) missing terms$",
                                        funnel_line(stderr, "INFO ontoenrich.pipeline: corpus: ")
                                        ).groups())
    judged = {"retained": set(), "eliminated": set()}
    for line in (out / "system_judgments.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("E\t"):
            _, _, verdict, term = line.split("\t")
            judged[verdict].add(term)
    assert (retained, eliminated) == (len(judged["retained"]), len(judged["eliminated"]))
    assert retained + eliminated == missing
    matrix = (out / "relatedness_matrix.tsv").read_text(encoding="utf-8").splitlines()
    assert (len(matrix) - 1, len(matrix[0].split("\t")) - 1) == (
        retained - missing_dropped, known - known_dropped)
    lines = stderr.splitlines()
    stage = [i for i, line in enumerate(lines)
             if line.startswith("INFO ontoenrich.pipeline: stage relatedness: ")]
    assert lines[stage[0] + 1].startswith("INFO ontoenrich.pipeline: relatedness: ")
    return retained, eliminated, known_dropped, missing_dropped


def test_verbose_hit_filter_funnel_equals_judgments_and_matrix(tmp_path, traced_desk):
    stderr, _, out = traced_desk
    assert hit_filter_funnel(stderr, out) == (90, 0, 0, 0)
    # Through a snapshot: 0 hits eliminates a missing term, and 0 or all of
    # the snapshot's documents drops a term of either side.
    corpus = tmp_path / "corpus"
    (corpus / "islands").mkdir(parents=True)
    (corpus / "islands" / "one.txt").write_text("Java, island, Indonesia, reef, zorbium, quelp",
                                                encoding="utf-8")
    snapshot = tmp_path / "snapshot.tsv"
    SnapshotTable.from_pairs([("java", 3), ("island", 10), ("indonesia", 0), ("reef", 2),
                              ("zorbium", 10), ("quelp", 0)], 10).save(snapshot)
    out = tmp_path / "out"
    small = run_cli("-m", "ontoenrich.cli", "enrich", "--corpus", corpus, "--ontology", MINI,
                    "--snapshot", snapshot, "-v", "--out-dir", out)
    assert hit_filter_funnel(small.stderr, out) == (2, 1, 2, 1)


@pytest.mark.parametrize("counts, dropped", [
    pytest.param({"java": 3, "island": 3, "zorbium": 10}, "0 known and 1 missing",
                 id="no-usable-missing-term"),
    pytest.param({"java": 10, "island": 0, "zorbium": 3}, "2 known and 0 missing",
                 id="no-usable-known-term"),
])
def test_empty_batch_writes_the_matrix_header_and_selects_no_pair(tmp_path, counts, dropped):
    # A batch without a usable term on one side is an empty matrix: the
    # selection and pattern stages run on it and see no pair.
    corpus = tmp_path / "corpus"
    (corpus / "islands").mkdir(parents=True)
    (corpus / "islands" / "one.txt").write_text("Java, island, zorbium", encoding="utf-8")
    snapshot = tmp_path / "snapshot.tsv"
    SnapshotTable.from_pairs(list(counts.items()), 10).save(snapshot)
    out = tmp_path / "out"
    result = run_cli("-m", "ontoenrich.cli", "enrich", "--corpus", corpus, "--ontology", MINI,
                     "--snapshot", snapshot, "-v", "--out-dir", out)
    assert (out / "relatedness_matrix.tsv").read_bytes() == b"term\n"
    assert funnel_line(result.stderr, "INFO ontoenrich.pipeline: relatedness: ") == (
        f"1 retained and 0 eliminated missing terms, {dropped} terms dropped for unusable counts")
    assert funnel_line(result.stderr, "INFO ontoenrich.relatedness: selection: ") == (
        "0 x 0 matrix, denominator 0.000000, 0 of 0 cells at or above threshold 0.5, "
        "0 candidate pairs")
    assert pattern_funnel(result.stderr) == (0, 0, 0, 0, 0, 0)
    assert (out / "pattern_audit.tsv").read_bytes() == (
        b"missing_term\tontology_term\tpattern\tquery\thits\n")


def test_verbose_relatedness_funnel_equals_traced_counters(tmp_path, traced_desk):
    stderr, counts, out = traced_desk
    funnel = funnel_line(stderr, "INFO ontoenrich.relatedness: selection: ")
    rows, cols, denominator, admitted, cells, threshold, pairs = re.fullmatch(
        r"(\d+) x (\d+) matrix, denominator (\d+\.\d{6}), (\d+) of (\d+) cells at or above "
        r"threshold (\S+), (\d+) candidate pairs", funnel).groups()
    matrix = (out / "relatedness_matrix.tsv").read_text(encoding="utf-8").splitlines()
    assert (int(rows), int(cols)) == (len(matrix) - 1, len(matrix[0].split("\t")) - 1)
    assert int(cells) == int(rows) * int(cols) == counts["relatedness.cells"]
    assert int(admitted) == counts["relatedness.admitted"]
    assert int(admitted) / int(cells) == counts["relatedness.admitted"] / counts["relatedness.cells"]
    assert int(pairs) == counts["relatedness.candidate_pairs"] == 270
    assert float(denominator) > 0 and threshold == "0.5"
    quiet = run_cli("-m", "ontoenrich.cli", "enrich", *DESK_ARGS, "--out-dir", tmp_path / "quiet")
    assert len(quiet.stderr.splitlines()) == 2


def test_patterns_subcommand_writes_audit_only(tmp_path, capsys):
    # The `patterns` subcommand is gone: `enrich` writes the same pattern_audit.tsv.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as refused:
        run(
            "patterns", "--corpus", FIXTURES / "corpus_corp", "--ontology", MINI,
            "--snapshot", SNAPSHOT, "--top-k", 1, "--out-dir", out,
        )
    assert refused.value.code == 2
    assert not out.exists()
    assert run(
        "enrich", "--corpus", FIXTURES / "corpus_corp", "--ontology", MINI,
        "--snapshot", SNAPSHOT, "--top-k", 1, "--out-dir", out,
    ) == 0
    audit = (out / "pattern_audit.tsv").read_text()
    assert "corporate body is an organization\t80700" in audit


def test_eval_identical_files_all_ones(tmp_path):
    out = tmp_path / "out"
    assert run(
        "eval", "--system", FIXTURES / "eval" / "expert.tsv",
        "--expert", FIXTURES / "eval" / "expert.tsv", "--out-dir", out,
    ) == 0
    report = (out / "precision_report.tsv").read_text()
    assert "animals\t4989\t4989\t1.00\t0.00" in report


def test_eval_bundled_goldens(tmp_path):
    out = tmp_path / "out"
    assert run(
        "eval", "--system", FIXTURES / "eval" / "system.tsv",
        "--expert", FIXTURES / "eval" / "expert.tsv", "--out-dir", out,
    ) == 0
    report = (out / "precision_report.tsv").read_text()
    assert "animals\t4989\t4221\t0.84\t0.16" in report
    assert "sports\t213\t323\t0.65" in report
    assert "animals\t100\t100\t0.81" in report


def test_eval_ignore_relation_counts_a_placement_that_differs_only_in_relation(tmp_path):
    system = tmp_path / "system.tsv"
    expert = tmp_path / "expert.tsv"
    system.write_text("X\tanimals\tmarsh cat\tanimal\t1\tsynonymy\n", encoding="utf-8")
    expert.write_text("X\tanimals\tmarsh cat\tanimal\t1\thyponymy\n", encoding="utf-8")
    for flags, precision in (([], "0.00"), (["--ignore-relation"], "1.00")):
        out = tmp_path / f"out{len(flags)}"
        assert run("eval", "--system", system, "--expert", expert, "--out-dir", out, *flags) == 0
        report = (out / "precision_report.tsv").read_text()
        assert report.endswith(f"# placement\ndomain\texpert\tsystem\tprecision\n"
                               f"animals\t1\t1\t{precision}\n")


def test_eval_empty_system_gives_undefined_markers(tmp_path):
    system = tmp_path / "system.tsv"
    system.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert run(
        "eval", "--system", system, "--expert", FIXTURES / "eval" / "expert.tsv",
        "--out-dir", out,
    ) == 0
    assert "undefined" in (out / "precision_report.tsv").read_text()


def test_eval_unparseable_file_exits_evaluation_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Z\tnope\n", encoding="utf-8")
    code = run(
        "eval", "--system", bad, "--expert", FIXTURES / "eval" / "expert.tsv",
        "--out-dir", tmp_path / "o",
    )
    assert code == 9
