"""Every line-based input format shares one record syntax: blank lines and
lines whose first non-blank character is ``#`` are skipped, and an error in
a record names the file and the line it is on."""

import pytest

from ontoenrich.evaluation import Judgments
from ontoenrich.hitcounts import SnapshotTable
from ontoenrich.ontology import load_ontology
from ontoenrich.patterns import load_catalogue
from ontoenrich.textpipe import load_gazetteer, load_stoplist

NOISE = ["", "  \t ", "  # note"]

# reader, how to compare what it loads, record lines, a bad record (None: every
# non-blank line is a valid entry)
READERS = {
    "ontology": (
        load_ontology, lambda onto: onto.to_text(),
        ["C\tlanguage\tlanguage\t1", "C\tc\tc\t2", "A\thypernymy\tlanguage\tc#2\toriginal"],
        "A\thypernymy\tlanguage\tc#x\toriginal",
    ),
    "catalogue": (
        load_catalogue, None,
        ["P\tp1\thyponymy\tisa\t{X} is a(n) {Y}", "P\tp2\tsynonymy\tsyn\t{X} or {Y}"],
        "P\tp3\thyponymy",
    ),
    "snapshot": (SnapshotTable.load, None, ["N\t10", "H\tjava\t3"], "H\tjava"),
    "gazetteer": (load_gazetteer, None, ["Java\tplace", "Jakarta\tcity"], "a\tb\tc"),
    "judgments": (
        Judgments.load, None,
        ["E\tanimals\tretained\tmarsh cat", "X\tanimals\tmarsh cat\tanimal\t1\thyponymy"],
        "Q\tx",
    ),
    "stoplist": (load_stoplist, None, ["the", "of", ".", ","], None),
}


def write(tmp_path, name, lines):
    path = tmp_path / f"{name}.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_and_comment_lines_load_as_absent(tmp_path, name):
    load, render, lines, _ = READERS[name]
    render = render or (lambda loaded: loaded)
    clean = load(write(tmp_path, "clean", lines))
    noisy = load(write(tmp_path, "noisy", lines[:1] + NOISE + lines[1:]))
    assert render(noisy) == render(clean)


@pytest.mark.parametrize("name", sorted(name for name in READERS if READERS[name][3]))
def test_bad_record_error_names_file_and_line(tmp_path, name):
    load, _, lines, bad = READERS[name]
    path = write(tmp_path, name, lines[:1] + NOISE + [bad] + lines[1:])
    with pytest.raises(ValueError) as error:
        load(path)
    assert str(error.value).startswith(f"{path}: line {len(NOISE) + 2}: ")


ONTOLOGY = ["C\tlanguage\tlanguage\t1", "C\tc\tc\t2", "G\tc\tnoun", "I\ti\tcee\tlanguage"]

# reader, valid record lines, a record that repeats one of their keys (or, in
# the ontology, names an id the lines do not declare)
REPEATS = {
    "ontology-concept": (load_ontology, ONTOLOGY, "C\tc\tc\t1"),
    "ontology-concept-named-by-instance": (load_ontology, ONTOLOGY, "C\ti\ti\t1"),
    "ontology-categories": (load_ontology, ONTOLOGY, "G\tc\tverb"),
    "ontology-categories-undeclared": (load_ontology, ONTOLOGY, "G\tzz\tnoun"),
    "ontology-instance": (load_ontology, ONTOLOGY, "I\ti\tother\tlanguage"),
    "ontology-instance-named-by-concept": (load_ontology, ONTOLOGY, "I\tc\tsea\tlanguage"),
    "catalogue": (
        load_catalogue, READERS["catalogue"][2], "P\tp1\tsynonymy\tsyn\t{X} and {Y}"
    ),
    "snapshot": (SnapshotTable.load, ["N\t10", "H\tJava\t3"], "H\tjava \t4"),
    "judgments-conflicting-verdict": (
        Judgments.load, READERS["judgments"][2], "E\tanimals\teliminated\tMarsh Cat"
    ),
    "judgments-conflicting-relation": (
        Judgments.load, READERS["judgments"][2], "X\tanimals\tMarsh Cat\tanimal\t1\tsynonymy"
    ),
    "gazetteer": (load_gazetteer, ["Java\tplace", "Jakarta\tcity"], "java \tcity"),
}


@pytest.mark.parametrize("name", sorted(REPEATS))
def test_repeated_key_error_names_file_and_line(tmp_path, name):
    load, lines, repeated = REPEATS[name]
    load(write(tmp_path, "valid", lines))
    path = write(tmp_path, name, lines + NOISE + [repeated])
    with pytest.raises(ValueError) as error:
        load(path)
    assert str(error.value).startswith(f"{path}: line {len(lines) + len(NOISE) + 1}: ")
