"""Ontology model: labelled concepts with numbered senses, instances, and
relation axioms, plus a line-based serialization format.

File format (UTF-8, tab-separated, one record per line):

    C  <concept-id>  <label>  <sense-count>
    G  <concept-id>  <category,category,...>
    I  <instance-id>  <label>  <concept-id>
    A  <relation>  <subject-id>[#<sense>]  <object-id>[#<sense>]  <provenance>  [<pattern>  <hits>]

Axioms are stored in a canonical direction: hyponymy lines are converted to
hypernymy with the roles swapped, holonymy to meronymy, by
``canonicalize_axiom``, which also gives the stored key of either direction.
Saving writes records in a fixed order (concepts by id, categories,
instances, axioms by key), which makes save(load(f)) byte-identical for
canonically ordered input.

``records`` is the one line reader of every line-based input format in the
package: a blank line, or one whose first non-blank character is ``#``, is
skipped, and each record comes with its line number, which a reader puts in
the ``<source>: line <n>:`` prefix of an error only when it raises.
"""

from __future__ import annotations

from enum import Enum
from graphlib import CycleError, TopologicalSorter
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple


class OntologyParseError(ValueError):
    """A line in an ontology file could not be parsed."""


class OntologyValidationError(ValueError):
    """A structural invariant of the ontology does not hold."""


class UnknownConceptError(KeyError):
    """A lookup referenced a concept id that is not in the ontology."""


class RelationKind(str, Enum):
    SYNONYMY = "synonymy"
    HYPERNYMY = "hypernymy"
    HYPONYMY = "hyponymy"
    MERONYMY = "meronymy"
    HOLONYMY = "holonymy"
    INSTANCE_OF = "instance-of"
    RELATED_TO = "related-to"


# The output string of each relation, read once: ``Enum.value`` is a
# Python-level property.
RELATION_NAMES = {kind: kind.value for kind in RelationKind}


# Inverse pairs; the first member of each pair is the stored direction.
_CANONICAL_INVERSE = {
    RelationKind.HYPONYMY: RelationKind.HYPERNYMY,
    RelationKind.HOLONYMY: RelationKind.MERONYMY,
}


def normalize_label(surface: str) -> str:
    """Matching policy for labels and phrases: case-fold, collapse whitespace."""
    return " ".join(surface.split()).lower()


def records(text: str) -> Iterator[tuple[int, str]]:
    """``(n, line)`` for each line n (counted from 1) of text that is not
    blank and whose first non-blank character is not ``#``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def read_input(path: str | Path, digest=None) -> str:
    """The UTF-8 text of an input file, its bytes fed to digest when one is
    given: a manifest names the bytes a run parsed, not a later reading."""
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    return data.decode("utf-8")


class Concept(NamedTuple):
    id: str
    label: str
    senses: tuple[int, ...] = (1,)
    categories: frozenset[str] = frozenset()


class Instance(NamedTuple):
    id: str
    label: str
    concept_id: str


class Evidence(NamedTuple):
    pattern_id: str
    hits: int


class Axiom(NamedTuple):
    relation: RelationKind
    subject: str
    object: str
    subject_sense: int = 1
    object_sense: int = 1
    provenance: str = "original"
    evidence: Evidence | None = None

    @property
    def key(self) -> tuple:
        """Identity for deduplication: relation plus the ordered endpoints."""
        return (
            RELATION_NAMES[self.relation],
            self.subject,
            self.subject_sense,
            self.object,
            self.object_sense,
        )


_PROVENANCES = ("original", "enriched")
# The fields of ``Axiom.key``, in key order.
_KEY_FIELDS = ("relation", "subject", "subject_sense", "object", "object_sense")


def canonicalize_axiom(axiom: Axiom) -> Axiom:
    """Rewrite hyponymy/holonymy into the stored inverse direction."""
    inverse = _CANONICAL_INVERSE.get(axiom.relation)
    if inverse is None:
        return axiom
    return Axiom(inverse, axiom.object, axiom.subject, axiom.object_sense, axiom.subject_sense,
                 axiom.provenance, axiom.evidence)


class Ontology:
    """Immutable container; updates return new Ontology values."""

    def __init__(
        self,
        concepts: Iterable[Concept] = (),
        instances: Iterable[Instance] = (),
        axioms: Iterable[Axiom] = (),
    ):
        self._concepts: dict[str, Concept] = {}
        for c in concepts:
            if not normalize_label(c.label):
                raise OntologyValidationError(f"concept {c.id!r} has an empty label")
            if not c.senses or tuple(c.senses) != tuple(range(1, len(c.senses) + 1)):
                raise OntologyValidationError(
                    f"concept {c.id!r} senses must be 1..n, got {c.senses!r}"
                )
            if c.id in self._concepts:
                raise OntologyValidationError(f"duplicate concept id {c.id!r}")
            self._concepts[c.id] = c

        self._instances: dict[str, Instance] = {}
        for inst in instances:
            if inst.id in self._concepts or inst.id in self._instances:
                raise OntologyValidationError(f"duplicate id {inst.id!r}")
            if inst.concept_id not in self._concepts:
                raise OntologyValidationError(
                    f"instance {inst.id!r} references unknown concept {inst.concept_id!r}"
                )
            self._instances[inst.id] = inst

        # Label index: normalized label -> record; concepts shadow instances,
        # ties broken by id for determinism.
        self._by_label: dict[str, Concept | Instance] = {}
        for c in sorted(self._concepts.values(), key=lambda c: c.id, reverse=True):
            self._by_label[normalize_label(c.label)] = c
        for inst in sorted(self._instances.values(), key=lambda i: i.id):
            self._by_label.setdefault(normalize_label(inst.label), inst)

        checked: list[Axiom] = []
        for a in axioms:
            if a.relation in _CANONICAL_INVERSE:
                raise OntologyValidationError(
                    f"{RELATION_NAMES[a.relation]} axioms must be canonicalized before storage"
                )
            self._check_endpoint(a, a.subject, a.subject_sense)
            self._check_endpoint(a, a.object, a.object_sense)
            if a.relation is not RelationKind.SYNONYMY and (
                (a.subject, a.subject_sense) == (a.object, a.object_sense)
            ):
                raise OntologyValidationError(
                    f"{RELATION_NAMES[a.relation]} axiom with identical endpoints {a.subject!r}"
                )
            checked.append(a)
        # Stable sorts on ``Axiom.key``'s fields, last field first, then the
        # first of each run of equal keys: of axioms with one key, the first
        # in input order is kept. One field at a time, no axiom holds a key
        # tuple; a relation member orders and compares as its name.
        for field in reversed(_KEY_FIELDS):
            checked.sort(key=attrgetter(field))
        key = attrgetter(*_KEY_FIELDS)
        self._axioms: tuple[Axiom, ...] = tuple(next(run) for _, run in groupby(checked, key=key))

        # sense -> hypernym parents, for path traversal
        self._parents: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for a in self._axioms:
            if a.relation is RelationKind.HYPERNYMY:
                child = (a.object, a.object_sense)
                self._parents.setdefault(child, []).append((a.subject, a.subject_sense))
        for parents in self._parents.values():
            parents.sort()
        self._check_acyclic()

    def _check_endpoint(self, axiom: Axiom, ref: str, sense: int) -> None:
        concept = self._concepts.get(ref)
        if concept is not None:
            if sense not in concept.senses:
                raise OntologyValidationError(
                    f"axiom {axiom.key} uses sense {sense} of {ref!r}, "
                    f"which has {len(concept.senses)} sense(s)"
                )
            return
        if ref in self._instances:
            if sense != 1:
                raise OntologyValidationError(f"instance {ref!r} has no sense {sense}")
            return
        raise OntologyValidationError(f"axiom references undeclared id {ref!r}")

    def _check_acyclic(self) -> None:
        try:
            TopologicalSorter(self._parents).prepare()
        except CycleError as error:
            node = error.args[1][0]
            raise OntologyValidationError(
                f"hypernymy cycle through {node[0]!r}#{node[1]}"
            ) from None

    # ---- read API -------------------------------------------------------

    @property
    def concepts(self) -> Mapping[str, Concept]:
        return self._concepts

    @property
    def instances(self) -> Mapping[str, Instance]:
        return self._instances

    @property
    def axioms(self) -> tuple[Axiom, ...]:
        return self._axioms

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._concepts[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def contains_term(self, surface: str) -> Concept | Instance | None:
        """The concept or instance whose label the surface string matches."""
        key = normalize_label(surface)
        if not key:
            return None
        return self._by_label.get(key)

    def semantic_paths_from(self, concept_id: str) -> list[tuple[tuple[str, int], ...]]:
        """One hypernymy path per sense, in sense order: the tuple of
        ``(concept id, sense)`` steps from the sense up to its root, each
        step to the first of its hypernyms in (id, sense) order."""
        concept = self.concept(concept_id)
        paths = []
        for sense in concept.senses:
            steps = [(concept_id, sense)]
            while parents := self._parents.get(steps[-1]):
                steps.append(parents[0])
            paths.append(tuple(steps))
        return paths

    # ---- updates (return new values) ------------------------------------

    def with_additions(
        self,
        concepts: Iterable[Concept] = (),
        instances: Iterable[Instance] = (),
        axioms: Iterable[Axiom] = (),
    ) -> "Ontology":
        """New ontology with extra records, validated with the old ones in
        one pass; additions are canonicalized first."""
        return Ontology(
            chain(self._concepts.values(), concepts),
            chain(self._instances.values(), instances),
            chain(self._axioms, map(canonicalize_axiom, axioms)),
        )

    # ---- serialization ---------------------------------------------------

    def lines(self) -> Iterator[str]:
        """The records of the file format, each with its newline, in save order."""
        concepts = sorted(self._concepts.values(), key=lambda c: c.id)
        for c in concepts:
            yield f"C\t{c.id}\t{c.label}\t{len(c.senses)}\n"
        for c in concepts:
            if c.categories:
                yield f"G\t{c.id}\t{','.join(sorted(c.categories))}\n"
        for inst in sorted(self._instances.values(), key=lambda i: i.id):
            yield f"I\t{inst.id}\t{inst.label}\t{inst.concept_id}\n"
        # A reference names its sense only when its concept has several.
        several = {c.id for c in concepts if len(c.senses) > 1}
        for a in self._axioms:
            subject = f"{a.subject}#{a.subject_sense}" if a.subject in several else a.subject
            object_ = f"{a.object}#{a.object_sense}" if a.object in several else a.object
            evidence = a.evidence
            tail = "\n" if evidence is None else f"\t{evidence.pattern_id}\t{evidence.hits}\n"
            yield f"A\t{RELATION_NAMES[a.relation]}\t{subject}\t{object_}\t{a.provenance}{tail}"

    def to_text(self) -> str:
        return "".join(self.lines())


def _parse_ref(field_text: str, source: str, n: int) -> tuple[str, int]:
    if "#" in field_text:
        ref, _, sense_text = field_text.rpartition("#")
        try:
            sense = int(sense_text)
        except ValueError:
            raise OntologyParseError(f"{source}: line {n}: bad sense in {field_text!r}") from None
        if not ref:
            raise OntologyParseError(f"{source}: line {n}: bad reference {field_text!r}")
        return ref, sense
    return field_text, 1


def parse_ontology(text: str, source: str = "<string>") -> Ontology:
    """Ontology of the records in text; a concept or instance id declared
    twice, a second G record for a concept and a G record for an undeclared
    concept are rejected with the line of the offending record."""
    concepts: dict[str, Concept] = {}
    categories: dict[str, tuple[frozenset[str], int]] = {}  # concept id -> (categories, line)
    instances: dict[str, Instance] = {}
    axioms: list[Axiom] = []

    for n, line in records(text):
        fields = line.split("\t")
        kind = fields[0]
        if kind == "C":
            if len(fields) != 4:
                raise OntologyParseError(f"{source}: line {n}: C record needs 4 fields")
            _, cid, label, count_text = fields
            try:
                count = int(count_text)
            except ValueError:
                raise OntologyParseError(
                    f"{source}: line {n}: bad sense count {count_text!r}"
                ) from None
            if count < 1:
                raise OntologyParseError(f"{source}: line {n}: sense count must be >= 1")
            if cid in concepts:
                raise OntologyValidationError(f"{source}: line {n}: duplicate concept id {cid!r}")
            if cid in instances:
                raise OntologyValidationError(f"{source}: line {n}: duplicate id {cid!r}")
            concepts[cid] = Concept(cid, label, tuple(range(1, count + 1)))
        elif kind == "G":
            if len(fields) != 3:
                raise OntologyParseError(f"{source}: line {n}: G record needs 3 fields")
            if fields[1] in categories:
                raise OntologyValidationError(
                    f"{source}: line {n}: second G record for concept {fields[1]!r}"
                )
            cats = frozenset(c.strip() for c in fields[2].split(",") if c.strip())
            categories[fields[1]] = (cats, n)
        elif kind == "I":
            if len(fields) != 4:
                raise OntologyParseError(f"{source}: line {n}: I record needs 4 fields")
            if fields[1] in concepts or fields[1] in instances:
                raise OntologyValidationError(f"{source}: line {n}: duplicate id {fields[1]!r}")
            instances[fields[1]] = Instance(fields[1], fields[2], fields[3])
        elif kind == "A":
            if len(fields) not in (5, 7):
                raise OntologyParseError(
                    f"{source}: line {n}: A record needs 5 fields (7 with evidence)"
                )
            try:
                relation = RelationKind(fields[1])
            except ValueError:
                raise OntologyParseError(
                    f"{source}: line {n}: unknown relation {fields[1]!r}"
                ) from None
            subject, subject_sense = _parse_ref(fields[2], source, n)
            object_, object_sense = _parse_ref(fields[3], source, n)
            provenance = fields[4]
            if provenance not in _PROVENANCES:
                raise OntologyParseError(f"{source}: line {n}: unknown provenance {provenance!r}")
            evidence = None
            if len(fields) == 7:
                try:
                    evidence = Evidence(fields[5], int(fields[6]))
                except ValueError:
                    raise OntologyParseError(
                        f"{source}: line {n}: bad evidence hits {fields[6]!r}"
                    ) from None
            axioms.append(
                canonicalize_axiom(
                    Axiom(relation, subject, object_, subject_sense, object_sense,
                          provenance, evidence)
                )
            )
        else:
            raise OntologyParseError(f"{source}: line {n}: unknown record kind {kind!r}")

    merged = []
    for cid, concept in concepts.items():
        cats, _ = categories.pop(cid, (frozenset(), 0))
        merged.append(Concept(concept.id, concept.label, concept.senses, cats))
    if categories:
        cid, (_, n) = next(iter(categories.items()))  # the first in file order
        raise OntologyValidationError(
            f"{source}: line {n}: G record for undeclared concept {cid!r}"
        )
    return Ontology(merged, instances.values(), axioms)


def load_ontology(path: str | Path, digest=None) -> Ontology:
    return parse_ontology(read_input(path, digest), source=str(path))


def save_ontology(ontology: Ontology, path: str | Path) -> None:
    """Write ``ontology.to_text()``, streamed a record at a time."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.writelines(ontology.lines())
