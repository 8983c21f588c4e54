#!/usr/bin/env python3
"""Regenerate the 500-document desk corpus under fixtures/desk/.

Seven domain subdirectories of short articles built from a fixed seed, plus
a matching ontology and gazetteer. Sentences keep content words separated by
stopwords so mined n-grams stay controlled; a handful of invented terms per
domain supply the missing vocabulary, and planted pattern sentences (built
with the same instantiation code the extractor uses) give the arbitration
stage real wins. Re-running the script reproduces every file byte for byte.
"""

from __future__ import annotations

import random
from pathlib import Path

from ontoenrich.ontology import Axiom, Concept, Ontology, RelationKind, save_ontology
from ontoenrich.patterns import default_catalogue

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "fixtures" / "desk"
SEED = 20260808
N_DOCS = 500

KNOWN = {
    "animals": ["animal", "mammal", "bird", "fish", "reptile", "lion", "tiger",
                "bear", "wolf", "eagle", "salmon", "cobra", "den", "herd", "prey"],
    "food": ["food", "fruit", "vegetable", "grain", "bread", "cheese", "apple",
             "mango", "rice", "soup", "stew", "beet", "meal"],
    "places": ["country", "city", "village", "island", "coast", "harbor",
               "valley", "desert", "plain", "border", "region", "capital"],
    "programming": ["language", "compiler", "interpreter", "program", "algorithm",
                    "function", "variable", "loop", "array", "parser", "syntax",
                    "keyword", "python", "mouse"],
    "science": ["science", "physics", "chemistry", "biology", "atom", "molecule",
                "cell", "energy", "theory", "experiment", "laboratory", "measurement"],
    "sports": ["sport", "game", "team", "player", "coach", "league", "match",
               "stadium", "referee", "goal", "trophy", "season"],
    "universities": ["university", "college", "faculty", "professor", "student",
                     "library", "campus", "degree", "lecture", "seminar", "thesis", "exam"],
}

MISSING = {
    "animals": ["grolith", "snowpard", "ferrowl", "marshcat", "dunewolf",
                "cragbear", "mirefox", "thornstag", "velquail", "bramsel"],
    "food": ["sweetroot", "crispmelon", "smokeberry", "tangleaf", "curdcake",
             "glazenut", "briochet", "saltfig", "mellowbean", "charloaf"],
    "places": ["easthaven", "stormcliff", "windmere", "glenfort", "ashdale",
               "brinemoor", "suncrest", "farrowgate", "mistvale", "kragview"],
    "programming": ["loopscript", "bytewrench", "stackle", "forgelang", "quibble",
                    "codemesh", "slitherbyte", "parsecraft", "symtagle", "linkfold"],
    "science": ["quantarion", "heliobyte", "gravimer", "isotron", "fluxate",
                "spectrine", "neutrovar", "chemlace", "ionbrace", "thermule"],
    "sports": ["kickrounders", "goalsprint", "netclash", "ringdash", "puckfell",
               "courtello", "turfplay", "scrumble", "voltball", "racemark"],
    "universities": ["scholarion", "lectorium", "gradhall", "studyforge", "bursarion",
                     "tutorline", "examshed", "notaria", "credopoint", "alumnex"],
}

BIGRAM_MISSING = {
    "animals": ("crimson", "marshcat"),
    "food": ("golden", "smokeberry"),
    "places": ("silent", "windmere"),
    "programming": ("rapid", "bytewrench"),
    "science": ("twin", "heliobyte"),
    "sports": ("fierce", "ringdash"),
    "universities": ("grand", "lectorium"),
}

# (missing term, target, pattern id of the query to plant, docs to plant into)
PLANTED = {
    "animals": [("grolith", "lion", "hypo-isa", 7), ("snowpard", "herd", "mero-part", 6)],
    "food": [("sweetroot", "vegetable", "hypo-isa", 7), ("curdcake", "cheese", "syn-same", 6)],
    "places": [("easthaven", "city", "inst-of", 6)],
    "programming": [("slitherbyte", "python", "hypo-isa", 7), ("forgelang", "language", "hypo-isa", 6)],
    "science": [("quantarion", "atom", "mero-part", 7)],
    "sports": [("netclash", "game", "hypo-isa", 6)],
    "universities": [("scholarion", "college", "inst-of", 6)],
}

DOCS_PER_DOMAIN = {
    "animals": 72, "food": 71, "places": 72, "programming": 71,
    "science": 72, "sports": 71, "universities": 71,
}

GAZETTEER = [
    ("Atlas Review", "publication"),
    ("Kenner Institute", "organization"),
    ("North Basin", "location"),
]

SENTENCES = [
    "The {a} of the {b} is near the {m}.",
    "A {a} in the {b} was seen by the {m}.",
    "Some of the {m} can be found in the {a} by the {b}.",
    "The {m} was the {a} of each {b}.",
    "Most of the {a} in this {b} will be near a {m}.",
    "The {a} and the {b} are in the {m}.",
    "Each {a} of that {b} has been a {m}.",
]

PLAIN_SENTENCES = [
    "The {a} of the {b} is in the {c}.",
    "A {a} near the {b} was seen with the {c}.",
    "The {a} and the {b} are by the {c}.",
]

BIGRAM_SENTENCE = "The {m1} {m2} of the {a} is known there."


def build_ontology() -> Ontology:
    concepts: dict[str, tuple[str, int]] = {}

    def add(cid: str, label: str | None = None, senses: int = 1):
        concepts[cid] = (label or cid, senses)

    for cid in ["entity", "living-thing", "abstraction", "artifact", "construct",
                "place", "group", "person", "activity", "matter", "institution",
                "device"]:
        add(cid, cid.replace("-", " "))
    add("python", "python", 2)
    add("mouse", "mouse", 2)
    for domain, words in KNOWN.items():
        for word in words:
            if word not in concepts:
                add(word)

    parents = {
        "living-thing": "entity", "abstraction": "entity", "artifact": "entity",
        "construct": "abstraction", "place": "entity", "group": "entity",
        "person": "living-thing", "activity": "entity", "matter": "entity",
        "institution": "group", "device": "artifact",
        "animal": "living-thing", "mammal": "animal", "bird": "animal",
        "fish": "animal", "reptile": "animal", "lion": "mammal", "tiger": "mammal",
        "bear": "mammal", "wolf": "mammal", "eagle": "bird", "salmon": "fish",
        "cobra": "reptile", "den": "place", "herd": "group", "prey": "animal",
        "food": "entity", "fruit": "food", "vegetable": "food", "grain": "food",
        "bread": "food", "cheese": "food", "apple": "fruit", "mango": "fruit",
        "rice": "grain", "soup": "food", "stew": "food", "beet": "vegetable",
        "meal": "food",
        "country": "place", "city": "place", "village": "place", "island": "place",
        "coast": "place", "harbor": "place", "valley": "place", "desert": "place",
        "plain": "place", "border": "place", "region": "place", "capital": "place",
        "language": "construct", "compiler": "artifact", "interpreter": "artifact",
        "program": "artifact", "algorithm": "construct", "function": "construct",
        "variable": "construct", "loop": "construct", "array": "construct",
        "parser": "artifact", "syntax": "construct", "keyword": "construct",
        "science": "abstraction", "physics": "science", "chemistry": "science",
        "biology": "science", "atom": "matter", "molecule": "matter", "cell": "matter",
        "energy": "abstraction", "theory": "abstraction", "experiment": "activity",
        "laboratory": "place", "measurement": "abstraction",
        "sport": "activity", "game": "activity", "team": "group", "player": "person",
        "coach": "person", "league": "group", "match": "activity", "stadium": "place",
        "referee": "person", "goal": "artifact", "trophy": "artifact",
        "season": "abstraction",
        "university": "institution", "college": "institution", "faculty": "group",
        "professor": "person", "student": "person", "library": "place",
        "campus": "place", "degree": "abstraction", "lecture": "activity",
        "seminar": "activity", "thesis": "construct", "exam": "activity",
    }

    axioms = [
        Axiom(RelationKind.HYPERNYMY, parent, child)
        for child, parent in sorted(parents.items())
    ]
    axioms.append(Axiom(RelationKind.HYPERNYMY, "reptile", "python", object_sense=1))
    axioms.append(Axiom(RelationKind.HYPERNYMY, "language", "python", object_sense=2))
    axioms.append(Axiom(RelationKind.HYPERNYMY, "mammal", "mouse", object_sense=1))
    axioms.append(Axiom(RelationKind.HYPERNYMY, "device", "mouse", object_sense=2))

    return Ontology(
        [Concept(cid, label, tuple(range(1, n + 1))) for cid, (label, n) in sorted(concepts.items())],
        instances=[],
        axioms=axioms,
    )


def planted_queries() -> dict[str, list[tuple[str, int]]]:
    """Domain -> [(sentence, docs to plant into)]; built with the real templates."""
    catalogue = default_catalogue()
    planted: dict[str, list[tuple[str, int]]] = {}
    for domain, entries in PLANTED.items():
        sentences = []
        for miss, target, pattern_id, n_docs in entries:
            queries = dict(zip(catalogue.ids, catalogue.queries(miss, target)))
            sentences.append((f"A {queries[pattern_id]}.", n_docs))
        planted[domain] = sentences
    return planted


def build_documents() -> dict[str, list[str]]:
    rng = random.Random(SEED)
    plants = planted_queries()
    docs: dict[str, list[str]] = {}
    for domain in sorted(DOCS_PER_DOMAIN):
        # planted terms occur only in their planted sentences, so their
        # co-occurrence stays concentrated on the intended target
        planted_terms = {miss for miss, _, _, _ in PLANTED[domain]}
        known = KNOWN[domain]
        missing = [term for term in MISSING[domain] if term not in planted_terms]
        texts = []
        for i in range(DOCS_PER_DOMAIN[domain]):
            sentences = []
            for _ in range(rng.randint(5, 8)):
                roll = rng.random()
                if roll < 0.62:
                    template = rng.choice(SENTENCES)
                    sentences.append(
                        template.format(
                            a=rng.choice(known), b=rng.choice(known), m=rng.choice(missing)
                        )
                    )
                elif roll < 0.9:
                    template = rng.choice(PLAIN_SENTENCES)
                    sentences.append(
                        template.format(
                            a=rng.choice(known), b=rng.choice(known), c=rng.choice(known)
                        )
                    )
                else:
                    m1, m2 = BIGRAM_MISSING[domain]
                    sentences.append(BIGRAM_SENTENCE.format(m1=m1, m2=m2, a=rng.choice(known)))
            for sentence, n_docs in plants[domain]:
                if i % max(2, DOCS_PER_DOMAIN[domain] // n_docs) == 1 and sentence not in sentences:
                    sentences.append(sentence)
            texts.append(" ".join(sentences) + "\n")
        docs[domain] = texts
    return docs


def main() -> None:
    corpus_dir = DESK / "corpus"
    if corpus_dir.exists():
        for path in sorted(corpus_dir.rglob("*")):
            if path.is_file():
                path.unlink()
    DESK.mkdir(parents=True, exist_ok=True)
    save_ontology(build_ontology(), DESK / "ontology.tsv")

    gaz_lines = [f"{surface}\t{kind}" for surface, kind in GAZETTEER]
    (DESK / "gazetteer.tsv").write_text("".join(l + "\n" for l in gaz_lines), "utf-8")

    total = 0
    for domain, texts in build_documents().items():
        domain_dir = corpus_dir / domain
        domain_dir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            (domain_dir / f"doc_{i:03d}.txt").write_text(text, encoding="utf-8")
            total += 1
    print(f"wrote {total} documents under {corpus_dir}")


if __name__ == "__main__":
    main()
