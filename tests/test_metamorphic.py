"""Metamorphic relations over whole runs: how the outputs of two related
runs must relate, with no second implementation to compare against.

k-fold copies. The distance uses the counts only through differences of
their logs, ``max log f1 - log f2`` over ``log N - min log f1``, so a corpus
that holds every document k times relates every pair as the original does:
the matrix and the judgments are the same bytes. Every hit count is k times
the original, so the files that write a pattern's count (the audit, the
report and the enriched ontology) differ in that field of the lines that
count something, and the manifest in the corpus digest and the document
count alone.
"""

import shutil
from pathlib import Path

import pytest

from ontoenrich.cli import main

from test_desk_run import DESK, DESK_DEFAULT_ARGS, EXAMPLES_INPUTS, OUTPUTS

# The hit field of each file that writes a pattern's count, by column.
HIT_FIELD = {"pattern_audit.tsv": 4, "enrichment_report.tsv": 6, "enriched_ontology.tsv": 6}
# name -> (corpus, other inputs, documents, lines per HIT_FIELD file that
# count something). Desk's 10 are the same with the defaults and --top-k 3.
# The worked examples, indexed, count no pattern, but they hold terms that
# occur in one document only, which a filter on the hits must keep at every k.
INPUTS = {
    "desk": (DESK / "corpus", DESK_DEFAULT_ARGS[2:], 500, 10),
    "examples": (EXAMPLES_INPUTS[1], EXAMPLES_INPUTS[2:], 2, 0),
}
FLAGS = {"defaults": (), "top-k-3": ("--top-k", "3")}
CASES = [("desk", "defaults"), ("desk", "top-k-3"), ("examples", "defaults")]


def k_fold(corpus: Path, root: Path, k: int) -> Path:
    """A copy of corpus under root, of the same name, that holds each
    document k times: the original and k - 1 copies beside it."""
    folded = root / corpus.name
    for document in sorted(corpus.glob("*/*")):
        domain = folded / document.parent.name
        domain.mkdir(parents=True, exist_ok=True)
        for copy in range(k):
            shutil.copyfile(document, domain / f"{document.name}{'' if copy == 0 else copy}")
    return folded


def outputs(out: Path, corpus: Path, inputs, flags) -> dict[str, list[str]]:
    argv = ["enrich", "--corpus", corpus, *inputs, *flags, "--out-dir", out]
    assert main(list(map(str, argv))) == 0
    return {name: (out / name).read_text(encoding="utf-8").splitlines() for name in OUTPUTS}


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict[tuple[str, str], dict[str, list[str]]]:
    root = tmp_path_factory.mktemp("original")
    return {(name, flags): outputs(root / f"{name}-{flags}", INPUTS[name][0], INPUTS[name][1],
                                   FLAGS[flags])
            for name, flags in CASES}


@pytest.mark.parametrize("name, flags", CASES)
@pytest.mark.parametrize("k", [2, 3])
def test_k_fold_copies_scale_every_count_and_nothing_else(tmp_path, originals, name, flags, k):
    corpus, inputs, documents, counted = INPUTS[name]
    original = originals[name, flags]
    folded = outputs(tmp_path / "out", k_fold(corpus, tmp_path, k), inputs, FLAGS[flags])

    for output in ("relatedness_matrix.tsv", "system_judgments.tsv"):
        assert folded[output] == original[output], output

    for output, field in HIT_FIELD.items():
        assert len(folded[output]) == len(original[output]), output
        changed = 0
        for before, after in zip(original[output], folded[output]):
            if before == after:
                continue
            changed += 1
            old, new = before.split("\t"), after.split("\t")
            assert int(new[field]) == k * int(old[field]) > 0, (output, before, after)
            assert new[:field] + new[field + 1:] == old[:field] + old[field + 1:], after
        assert changed == counted, output

    changed = {}
    for before, after in zip(original["manifest.tsv"], folded["manifest.tsv"], strict=True):
        key, old = before.split("\t")
        key_after, new = after.split("\t")
        assert key_after == key
        if new != old:
            changed[key] = (old, new)
    assert sorted(changed) == ["corpus_sha256", "provider"]
    provider = f"index:{corpus.name},docs="
    assert changed["provider"] == (f"{provider}{documents}", f"{provider}{documents * k}")
