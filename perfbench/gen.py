"""Workload generator: desk-shaped corpora at any seed and scale.

Reuses the tables and the pattern planting of ``scripts/make_desk_corpus.py``
(planted sentences are instantiated from the real pattern catalogue) and
draws fresh documents from the given seed. ``doc_mult`` scales the documents
per domain and the documents each planted sentence goes into, so the planted
signal keeps its density. ``vocab_mult`` grows every domain's known and
missing word lists with invented words; new known words become concepts
under their domain's root concept. With both multipliers at 1 and the desk
seed the output is ``fixtures/desk`` byte for byte.

The generator returns file contents in memory; ``write_workload`` puts them
on disk.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

from ontoenrich.ontology import Axiom, Concept, RelationKind
from ontoenrich.patterns import default_catalogue
from ontoenrich.textpipe import default_stoplist

ROOT = Path(__file__).resolve().parent.parent
DESK_SCRIPT = ROOT / "scripts" / "make_desk_corpus.py"

# Concept that invented known words of each domain attach under.
DOMAIN_ROOTS = {
    "animals": "animal", "food": "food", "places": "place", "programming": "construct",
    "science": "science", "sports": "sport", "universities": "institution",
}

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("", "n", "r", "l", "x", "m")


@dataclass(frozen=True)
class Planted:
    """A relation the generator planted: the pipeline should place exactly this."""

    term: str
    target: str
    relation: str
    sense: int


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]          # path relative to the workload dir -> text
    planted: tuple[Planted, ...]


def load_desk_generator():
    """The desk generator script as a private module object."""
    spec = importlib.util.spec_from_file_location("make_desk_corpus", DESK_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _invent_words(domain: str, kind: str, count: int, taken: set[str]) -> list[str]:
    # Seeded by name only: the vocabulary depends on the multiplier, not the
    # workload seed, so every seed draws documents over the same terms.
    rng = random.Random(f"{domain}:{kind}")
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(3))
        word += rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _vocabulary(desk, vocab_mult: int) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    known = {domain: list(words) for domain, words in desk.KNOWN.items()}
    missing = {domain: list(words) for domain, words in desk.MISSING.items()}
    if vocab_mult == 1:
        return known, missing
    taken = set(default_stoplist().words)
    for table in (known, missing):
        for words in table.values():
            taken.update(words)
    for pair in desk.BIGRAM_MISSING.values():
        taken.update(pair)
    for domain in sorted(known):
        for kind, table in (("known", known), ("missing", missing)):
            table[domain] += _invent_words(
                domain, kind, len(table[domain]) * (vocab_mult - 1), taken
            )
    return known, missing


def _planted_truth(desk, ontology) -> tuple[Planted, ...]:
    relation_of = {template.id: template.relation.value for template in default_catalogue()}
    truth = []
    for domain, entries in sorted(desk.PLANTED.items()):
        for miss, target, pattern_id, _ in entries:
            sense = 1
            if len(ontology.concept(target).senses) > 1:
                # the sense whose hypernym belongs to the planting domain
                (sense,) = {
                    axiom.object_sense
                    for axiom in ontology.axioms
                    if axiom.relation is RelationKind.HYPERNYMY
                    and axiom.object == target
                    and axiom.subject in desk.KNOWN[domain]
                }
            truth.append(Planted(miss, target, relation_of[pattern_id], sense))
    return tuple(truth)


def generate(seed: int, doc_mult: int = 1, vocab_mult: int = 1, desk=None) -> Workload:
    """Corpus, ontology and gazetteer of one workload, plus its planted truth."""
    if doc_mult < 1 or vocab_mult < 1:
        raise ValueError("multipliers must be >= 1")
    desk = desk or load_desk_generator()
    known, missing_words = _vocabulary(desk, vocab_mult)
    plants = {
        domain: [(sentence, n_docs * doc_mult) for sentence, n_docs in entries]
        for domain, entries in desk.planted_queries().items()
    }

    files: dict[str, str] = {}
    rng = random.Random(seed)
    # Same draw sequence as make_desk_corpus.build_documents.
    for domain in sorted(desk.DOCS_PER_DOMAIN):
        n_domain_docs = desk.DOCS_PER_DOMAIN[domain] * doc_mult
        planted_terms = {miss for miss, _, _, _ in desk.PLANTED[domain]}
        domain_known = known[domain]
        missing = [term for term in missing_words[domain] if term not in planted_terms]
        for i in range(n_domain_docs):
            sentences = []
            for _ in range(rng.randint(5, 8)):
                roll = rng.random()
                if roll < 0.62:
                    template = rng.choice(desk.SENTENCES)
                    sentences.append(template.format(
                        a=rng.choice(domain_known), b=rng.choice(domain_known),
                        m=rng.choice(missing),
                    ))
                elif roll < 0.9:
                    template = rng.choice(desk.PLAIN_SENTENCES)
                    sentences.append(template.format(
                        a=rng.choice(domain_known), b=rng.choice(domain_known),
                        c=rng.choice(domain_known),
                    ))
                else:
                    m1, m2 = desk.BIGRAM_MISSING[domain]
                    sentences.append(
                        desk.BIGRAM_SENTENCE.format(m1=m1, m2=m2, a=rng.choice(domain_known))
                    )
            for sentence, n_docs in plants[domain]:
                if i % max(2, n_domain_docs // n_docs) == 1 and sentence not in sentences:
                    sentences.append(sentence)
            files[f"corpus/{domain}/doc_{i:03d}.txt"] = " ".join(sentences) + "\n"

    ontology = desk.build_ontology()
    extra = sorted(
        (word, DOMAIN_ROOTS[domain])
        for domain, words in known.items()
        for word in words[len(desk.KNOWN[domain]):]
    )
    ontology = ontology.with_additions(
        concepts=[Concept(word, word, (1,)) for word, _ in extra],
        axioms=[Axiom(RelationKind.HYPERNYMY, parent, word) for word, parent in extra],
    )
    files["ontology.tsv"] = ontology.to_text()
    files["gazetteer.tsv"] = "".join(f"{surface}\t{kind}\n" for surface, kind in desk.GAZETTEER)
    return Workload(files, _planted_truth(desk, ontology))


def write_workload(workload: Workload, out_dir: Path) -> None:
    for parent in sorted({(out_dir / rel).parent for rel in workload.files}):
        parent.mkdir(parents=True, exist_ok=True)
    for rel, text in workload.files.items():
        (out_dir / rel).write_text(text, encoding="utf-8")


def matches_desk_fixture(desk=None) -> bool:
    """True when multipliers 1x1 at the desk seed reproduce fixtures/desk exactly."""
    desk = desk or load_desk_generator()
    expected = generate(desk.SEED, desk=desk).files
    fixture = desk.DESK
    on_disk = {
        path.relative_to(fixture).as_posix(): path.read_bytes()
        for path in fixture.rglob("*")
        if path.is_file()
    }
    return on_disk == {rel: text.encode("utf-8") for rel, text in expected.items()}
