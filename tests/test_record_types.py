"""Every package record is a ``NamedTuple``. Besides its fields it iterates,
has a ``len``, indexes, and compares and hashes as the tuple of its fields:
two records of different types with equal fields compare equal, as a record
and a plain tuple do. No run relies on any of that. With each such tuple
behaviour of every record made to raise, the standard desk and worked-example
runs write their pinned bytes, an eval writes the same report and a placement
with failures is reported; and the package encodes no JSON."""

import ast
import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import ontoenrich
from ontoenrich import cli
from ontoenrich.hitcounts import SnapshotTable
from ontoenrich.ontology import RelationKind, load_ontology
from ontoenrich.patterns import FALLBACK_MARKER, PatternTemplate, RelationSuggestion
from ontoenrich.placement import place_all, write_enrichment_report
from ontoenrich.relatedness import DistanceConfig, SelectionConfig

from test_desk_run import DESK_ARGS, DESK_SHA256, EXAMPLES_ARGS, EXAMPLES_SHA256, OUTPUTS
from test_hygiene import PACKAGE, field_names, node_names, package_classes, parse

ROOT = Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module(f"ontoenrich.{module.name}")
           for module in pkgutil.iter_modules(ontoenrich.__path__)]
TUPLE_BEHAVIOURS = (
    "__iter__", "__len__", "__getitem__", "__contains__", "__add__", "__mul__",
    "__rmul__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
    "count", "index",
)


def record_classes() -> set[type]:
    return {
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
        and issubclass(value, tuple) and hasattr(value, "_fields")
    }


def test_every_declared_record_is_a_named_tuple():
    declared = {cls.name for _, cls in package_classes() if field_names(cls)}
    assert {cls.__name__ for cls in record_classes()} == declared


def poison_tuple_behaviours(monkeypatch) -> None:
    def raiser(name: str):
        def used(*args, **kwargs):
            raise AssertionError(f"a record's {name} was used")
        return used

    for cls in record_classes():
        for name in TUPLE_BEHAVIOURS:
            monkeypatch.setattr(cls, name, raiser(name))


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def test_runs_use_no_tuple_behaviour_of_a_record(tmp_path, monkeypatch):
    judged = ROOT / "fixtures" / "eval"
    eval_args = ("eval", "--system", judged / "system.tsv", "--expert", judged / "expert.tsv")
    assert run(*eval_args, "--out-dir", tmp_path / "eval-plain") == 0
    poison_tuple_behaviours(monkeypatch)

    assert run("enrich", *DESK_ARGS, "-v", "--out-dir", tmp_path / "desk") == 0
    assert digests(tmp_path / "desk") == DESK_SHA256
    assert run("enrich", *EXAMPLES_ARGS, "--top-k", "1", "--out-dir", tmp_path / "examples") == 0
    assert digests(tmp_path / "examples") == EXAMPLES_SHA256
    assert run(*eval_args, "--out-dir", tmp_path / "eval") == 0
    report = "precision_report.tsv"
    assert (tmp_path / "eval" / report).read_bytes() == (
        tmp_path / "eval-plain" / report).read_bytes()

    SnapshotTable.from_pairs([("corporate body", 10)], 100).save(tmp_path / "snapshot.tsv")
    table = SnapshotTable.load(tmp_path / "snapshot.tsv")
    onto = load_ontology(ROOT / "fixtures" / "mini_ontology.tsv")
    pairs = (("corporate body", "organization"), ("polder", "atlantis"))
    suggestions = [RelationSuggestion(term, target, RelationKind.RELATED_TO, FALLBACK_MARKER, 0, ())
                   for term, target in pairs]
    decisions, failures = place_all(suggestions, onto, table, DistanceConfig(), 1.0)
    assert (len(decisions), len(failures)) == (0, 2)
    write_enrichment_report(decisions, failures, tmp_path / "report.tsv")
    assert (tmp_path / "report.tsv").read_text(encoding="utf-8").count("\tunresolved: ") == 2


def test_package_encodes_no_json():
    encoders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if {"dump", "dumps", "JSONEncoder"} & set(node_names(node))
    ]
    assert encoders == []


@pytest.mark.parametrize(("record", "field", "value"), [
    (SelectionConfig(), "threshold", 2.0),
    (SelectionConfig(), "top_k", 0),
    (DistanceConfig(), "zero_cooccurrence_cap", -1.0),
    (PatternTemplate("p", RelationKind.HYPONYMY, "isa", "{X} is a(n) {Y}"), "template", "{X}"),
    (PatternTemplate("p", RelationKind.HYPONYMY, "isa", "{X} is a(n) {Y}"), "relation",
     RelationKind.RELATED_TO),
])
def test_replace_checks_as_the_constructor_does(record, field, value):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), field: value})
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: value})
    assert str(replaced.value) == str(built.value)
