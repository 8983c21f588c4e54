"""End-to-end gates on the desk corpus, run as separate CLI processes.

The desk generator plants ten relations whose pattern sentences it writes
into the corpus; a ``--top-k 3`` run must recover each with the planted
relation and sense, name no other relation, and write the same bytes under
different hash seeds.
"""

import importlib.util
import os
import subprocess
import sys
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


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory) -> dict[str, Path]:
    src = Path(ontoenrich.__file__).resolve().parent.parent
    runs = {}
    for seed in HASH_SEEDS:
        out = tmp_path_factory.mktemp(f"desk-hashseed-{seed}")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        subprocess.run(
            [sys.executable, "-m", "ontoenrich.cli", "enrich",
             "--corpus", DESK / "corpus", "--ontology", DESK / "ontology.tsv",
             "--gazetteer", DESK / "gazetteer.tsv", "--top-k", "3", "--out-dir", out],
            env=env, check=True, capture_output=True, timeout=300,
        )
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
