import itertools
import operator
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ontoenrich import patterns
from ontoenrich.hitcounts import SnapshotTable
from ontoenrich.ontology import RelationKind, normalize_label
from ontoenrich.patterns import (
    FALLBACK_MARKER,
    NEGATION_WORDS,
    PatternCatalogue,
    PatternTemplate,
    RelationSuggestion,
    SideMasks,
    default_catalogue,
    extract_relation,
    parse_catalogue,
    pluralize_term,
    pluralize_word,
    slug,
    write_pattern_audit,
)
from ontoenrich.textpipe import default_stoplist

from helpers import (
    build_index,
    group_sums,
    id_queries,
    reference_instantiate,
    reference_pattern_audit,
    tuple_key_order,
    walk_phrase_docs,
)


@pytest.fixture(scope="module")
def catalogue():
    return default_catalogue()


def snapshot_of(patterns: dict[str, int], total: int = 8_000_000_000) -> SnapshotTable:
    return SnapshotTable.from_pairs(list(patterns.items()), total)


def extract(miss: str, target: str, table: SnapshotTable, catalogue) -> RelationSuggestion:
    """``extract_relation`` pruned as a snapshot run prunes it."""
    return extract_relation(miss, target, table, catalogue, SideMasks(table.run_test()))


def test_instantiation_produces_expected_query_strings(catalogue):
    queries = set(catalogue.queries("corporate body", "organization"))
    assert "corporate body is an organization" in queries
    assert "corporate body is a kind of organization" in queries
    assert "corporate body is a part of an organization" in queries
    assert "corporate body is an instance of an organization" in queries


def test_instantiation_includes_plural_variant(catalogue):
    queries = set(catalogue.queries("corporate body", "organization"))
    assert "corporate bodies are organizations" in queries


def test_instantiation_article_against_consonant(catalogue):
    queries = set(catalogue.queries("jawa", "peninsula"))
    assert "jawa is a peninsula" in queries


def test_instantiation_empty_catalogue():
    assert PatternCatalogue([]).queries("a", "b") == []


def test_instantiation_rejects_empty_terms(catalogue):
    with pytest.raises(ValueError):
        catalogue.queries("", "organization")


def test_no_negated_query_is_ever_issued(catalogue):
    for query in catalogue.queries("corporate body", "organization"):
        assert not set(query.lower().split()) & NEGATION_WORDS


def test_catalogue_rejects_negation_templates():
    with pytest.raises(ValueError, match="negation"):
        PatternTemplate("bad", RelationKind.HYPONYMY, "g", "{X} is not a {Y}")


def test_catalogue_rejects_missing_slots():
    with pytest.raises(ValueError, match="slot"):
        PatternTemplate("bad", RelationKind.HYPONYMY, "g", "{X} is a thing")


def test_catalogue_rejects_duplicate_ids():
    text = (
        "P\ta\thyponymy\tg\t{X} is a {Y}\n"
        "P\ta\tmeronymy\th\t{X} is part of {Y}\n"
    )
    with pytest.raises(ValueError, match="line 2: duplicate pattern id 'a'"):
        parse_catalogue(text)


def test_catalogue_rejects_unknown_relations():
    text = (
        "P\ta\thyponymy\tg\t{X} is a {Y}\n"
        "P\tb\tsiblinghood\th\t{X} is a sibling of {Y}\n"
    )
    with pytest.raises(ValueError, match="^<string>: line 2: unknown relation 'siblinghood'$"):
        parse_catalogue(text)


def test_catalogue_rejects_mixed_relation_groups():
    text = (
        "P\ta\thyponymy\tg\t{X} is a {Y}\n"
        "P\tb\tmeronymy\tg\t{X} is part of {Y}\n"
    )
    with pytest.raises(ValueError, match="mixes relations"):
        parse_catalogue(text)


@pytest.mark.parametrize(
    ("word", "plural"),
    [
        ("body", "bodies"),
        ("organization", "organizations"),
        ("class", "classes"),
        ("box", "boxes"),
        ("church", "churches"),
        ("dish", "dishes"),
        ("key", "keys"),
        ("dog", "dogs"),
    ],
)
def test_pluralize_word(word, plural):
    assert pluralize_word(word) == plural


def test_pluralize_term_pluralizes_head_word():
    assert pluralize_term("corporate body") == "corporate bodies"


def test_extract_hyponymy_from_dominant_pattern(catalogue):
    provider = snapshot_of({"corporate body is an organization": 80_700})
    suggestion = extract("corporate body", "organization", provider, catalogue)
    assert suggestion.relation is RelationKind.HYPONYMY
    assert suggestion.winning_group == "hypo-isa"
    assert suggestion.winner_hits == 80_700
    sums = group_sums(suggestion.hits, catalogue)
    assert sums["hypo-isa"] == 80_700
    assert all(count == 0 for group, count in sums.items() if group != "hypo-isa")


def test_extract_all_zero_falls_back_to_related_to(catalogue):
    provider = snapshot_of({})
    for pair in [("jawa", "Java"), ("Hindu-Buddhist", "Indonesia")]:
        suggestion = extract(*pair, provider, catalogue)
        assert suggestion.relation is RelationKind.RELATED_TO
        assert suggestion.winning_group == FALLBACK_MARKER
        assert suggestion.winner_hits == 0


def test_all_zero_pairs_share_the_catalogue_zero_values(catalogue):
    provider = snapshot_of({})
    first = extract("jawa", "Java", provider, catalogue)
    second = extract("Hindu-Buddhist", "Indonesia", provider, catalogue)
    assert first.hits is second.hits is catalogue.zero_hits
    # equal to a suggestion built from fresh zero values
    assert first == RelationSuggestion(
        missing_term="jawa",
        ontology_term="Java",
        relation=RelationKind.RELATED_TO,
        winning_group=FALLBACK_MARKER,
        winner_hits=0,
        hits=(0,) * len(catalogue),
    )


def test_fallback_suggestions_retain_at_most_512_bytes_each():
    # A default desk run keeps 8,090 related-to fallbacks until the audit is written.
    catalogue = default_catalogue()
    provider = snapshot_of({})
    pairs = [(f"missing term {i}", f"known {j}") for i in range(40) for j in range(50)]
    sides = SideMasks(provider.run_test())
    for miss, target in pairs:  # the catalogue keeps slot values per term, so warm them first
        catalogue.queries(miss, target)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        suggestions = [extract_relation(miss, target, provider, catalogue, sides)
                       for miss, target in pairs]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(suggestions) == 2_000
    assert all(s.relation is RelationKind.RELATED_TO for s in suggestions)
    assert retained / len(suggestions) <= 512


def test_catalogue_derives_each_term_slot_values_once(monkeypatch):
    catalogue = default_catalogue()
    plurals = []
    monkeypatch.setattr(
        patterns, "pluralize_term", lambda term: plurals.append(term) or pluralize_term(term)
    )
    for miss in ("jawa", "corporate body", "a(n) apple"):
        for target in ("island", "organization"):
            assert catalogue.queries(miss, target) == [
                query for _, query in reference_instantiate(miss, target, catalogue)
            ]
    assert sorted(plurals) == ["a(n) apple", "corporate body", "island", "jawa", "organization"]
    for blank_pair in [("jawa", " "), ("", "island")]:
        with pytest.raises(ValueError, match="two non-empty terms"):
            catalogue.queries(*blank_pair)


def test_variant_counts_sum_within_group(catalogue):
    # two meronymy variants together outweigh one big hyponymy count
    provider = snapshot_of(
        {
            "engine is a part of a car": 60,
            "engine is part of a car": 50,
            "engine is a car": 100,
        }
    )
    suggestion = extract("engine", "car", provider, catalogue)
    assert suggestion.relation is RelationKind.MERONYMY
    assert suggestion.winner_hits == 110
    assert group_sums(suggestion.hits, catalogue)["mero-part"] == 110


def test_tie_prefers_more_specific_relation(catalogue):
    provider = snapshot_of(
        {
            "rex is a dog": 7,
            "rex is an instance of a dog": 7,
        }
    )
    suggestion = extract("rex", "dog", provider, catalogue)
    assert suggestion.relation is RelationKind.INSTANCE_OF
    assert suggestion.winning_group == "inst-of"
    sums = group_sums(suggestion.hits, catalogue)
    assert sums["inst-of"] == sums["hypo-isa"] == suggestion.winner_hits == 7


def test_winner_count_is_group_maximum(catalogue):
    provider = snapshot_of({"jawa is an island": 12, "jawa is a kind of island": 3})
    suggestion = extract("jawa", "island", provider, catalogue)
    assert suggestion.winner_hits == max(group_sums(suggestion.hits, catalogue).values()) == 15


def test_slug():
    assert slug("Corporate  Body") == "corporate-body"
    # An ontology file reads "c#" as concept "c" with sense "", so "#" goes too.
    assert slug("C#") == "c-"


def test_audit_export(tmp_path, catalogue):
    provider = snapshot_of({"corporate body is an organization": 80_700})
    suggestion = extract("corporate body", "organization", provider, catalogue)
    out = tmp_path / "audit.tsv"
    write_pattern_audit([suggestion], catalogue, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "missing_term\tontology_term\tpattern\tquery\thits"
    assert any("corporate body is an organization\t80700" in line for line in lines)
    assert len(lines) == 1 + len(suggestion.hits) == 1 + len(catalogue)


# Terms that collide on case, with the ASCII and non-ASCII case folds that
# str.lower treats unevenly ("İ" lowers to two code points, "ẞ" to "ß"); terms
# that hold format syntax of either stage of the zero block; and terms that
# are not compilable (a double space, edge whitespace, an "a(n)" piece).
_AUDIT_TERMS = st.sampled_from(
    ["jawa", "Jawa", "JAWA", "java", "Église", "église", "ÉGLISE", "straße", "STRASSE",
     "Straẞe", "İstanbul", "istanbul", "ǅemal", "日本", "naïve bay", "Naïve Bay",
     "{", "}", "{0}", "{x} bay", "100%", "%s", "50%s off", "%%(y)s",
     "naïve  bay", " jawa", "jawa\t", "(n)", "rex a(n)"]
)
# The default catalogue; one whose ids and literals hold "%", "%s", braces
# and a literal glued to a slot, which a term's "a(n)" piece can complete;
# and the empty catalogue and a one-template one, whose zero blocks take the
# fewest of a target's values.
_AUDIT_CATALOGUES = (
    default_catalogue(),
    parse_catalogue(
        "P\tpct-%s{0}\thyponymy\tisa\t{X} is 100% a(n) {Y} {0} %s\n"
        "P\tglued\thyponymy\tisa\t{X} is a{Y}\n"
        "P\tpct-pl\tmeronymy\tpart\t%d {X:pl} {{are}} parts of {Y:pl}%\n"
    ),
    parse_catalogue(""),
    parse_catalogue("P\tisa\thyponymy\tisa\t{X} is a(n) {Y}\n"),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_streamed_audit_equals_joined_audit(tmp_path_factory, data):
    catalogue = data.draw(st.sampled_from(_AUDIT_CATALOGUES))
    size = len(catalogue)
    # The shared zero tuple takes the zero block; an equal tuple that is not
    # it, and any other counts, take audit_lines.
    hits = st.one_of(
        st.just(catalogue.zero_hits),
        st.just(tuple([0] * size)),
        st.lists(st.integers(0, 10**9), min_size=size, max_size=size).map(tuple),
    )
    suggestions = data.draw(st.lists(
        st.builds(
            RelationSuggestion,
            missing_term=_AUDIT_TERMS,
            ontology_term=_AUDIT_TERMS,
            relation=st.just(RelationKind.RELATED_TO),
            winning_group=st.just(FALLBACK_MARKER),
            winner_hits=st.just(0),
            hits=hits,
        ),
        max_size=8,
    ))
    # The writer takes pairs in the order given, which in a run is the pair
    # order: sorted here by the key the reference sorts by.
    suggestions = tuple_key_order(
        suggestions, lambda s: s.missing_term, lambda s: s.ontology_term.lower()
    )
    out = tmp_path_factory.mktemp("audit")
    write_pattern_audit(suggestions, catalogue, out / "streamed.tsv")
    reference_pattern_audit(suggestions, catalogue, out / "joined.tsv")
    assert (out / "streamed.tsv").read_bytes() == (out / "joined.tsv").read_bytes()


# Surfaces and targets that tie under str.lower, so the order of tied pairs
# shows whether the writer keeps the order it is given.
_ORDER_TERMS = st.sampled_from(["Desk", "desk", "lamp", "Lamp", "desk lamp"])


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_ORDER_TERMS, _ORDER_TERMS), max_size=12), data=st.data())
def test_property_audit_order_equals_tuple_key_sort(tmp_path_factory, pairs, data):
    catalogue = parse_catalogue("P\tp\thyponymy\tisa\t{X} is a(n) {Y}\n")
    # One template, so one line per pair; its hit count numbers the pair.
    suggestions = [
        RelationSuggestion(miss, target, RelationKind.RELATED_TO, FALLBACK_MARKER, 0, (number,))
        for number, (miss, target) in enumerate(pairs)
    ]
    # In pair order, with pairs that tie under lower() in drawn order: the
    # writer keeps the order it is given, ties included.
    expected = tuple_key_order(
        data.draw(st.permutations(suggestions)),
        lambda s: s.missing_term, lambda s: s.ontology_term.lower(),
    )
    path = tmp_path_factory.mktemp("order") / "audit.tsv"
    write_pattern_audit(expected, catalogue, path)
    written = [int(line.split("\t")[-1]) for line in path.read_text("utf-8").splitlines()[1:]]
    assert written == [suggestion.hits[0] for suggestion in expected]


_TERMS = st.sampled_from(["jawa", "corporate body", "engine", "rex", "bay"])
_TARGETS = st.sampled_from(["organization", "island", "car", "dog"])


@settings(max_examples=120, deadline=None)
@given(
    miss=_TERMS,
    target=_TARGETS,
    counts=st.lists(st.integers(0, 100), min_size=11, max_size=11),
)
def test_property_arbitration_picks_maximal_group(miss, target, counts):
    catalogue = default_catalogue()
    queries = catalogue.queries(miss, target)
    provider = snapshot_of({query: count for query, count in zip(queries, counts)})
    suggestion = extract(miss, target, provider, catalogue)
    # one hit count per template, in catalogue order
    assert len(suggestion.hits) == len(catalogue)
    assert suggestion.hits == tuple(provider.pattern_hits(query) for query in queries)
    sums = group_sums(suggestion.hits, catalogue)
    best = max(sums.values())
    if best == 0:
        assert suggestion.relation is RelationKind.RELATED_TO
    else:
        assert suggestion.winner_hits == best == sums[suggestion.winning_group]


# Slots glued to punctuation and to "a(n)", slots in Y-then-X order, a
# trailing "a(n)", two "a(n)" in a row, runs of whitespace in a template, and
# literal braces with an "a(n)" before one.
ODD_CATALOGUE = PatternCatalogue([
    PatternTemplate("odd-glued", RelationKind.HYPONYMY, "odd-1", "({X}) a(n) {Y:pl}'s"),
    PatternTemplate("odd-article", RelationKind.MERONYMY, "odd-2", "a(n){X} is a(n) {Y} a(n)"),
    PatternTemplate("odd-order", RelationKind.SYNONYMY, "odd-3", "\t {Y:pl}  a(n)  a(n) {X:pl} "),
    PatternTemplate("odd-bare", RelationKind.INSTANCE_OF, "odd-4", "{X}{Y}"),
    PatternTemplate("odd-brace", RelationKind.HYPONYMY, "odd-5", "{Z} {X} a(n) {{Y:pl}} a(n) {}"),
])


_TERM_WORDS = st.sampled_from(
    ["apple", "Orange", "body", "Idea", "box", "key", "Unit", "y", "a(n)", "A(N)", "a(n)x",
     "{Y}", "Église"]
)
_GAPS = st.sampled_from([" ", "  ", "\t", " \n "])
_EDGES = st.sampled_from(["", " ", "\t "])


@st.composite
def pattern_terms(draw):
    """Terms with runs of whitespace, vowel and consonant starts, upper case
    and ``a(n)`` tokens; blank when no word is drawn. Half are normalized,
    as mined terms are."""
    text = draw(_EDGES)
    for i, word in enumerate(draw(st.lists(_TERM_WORDS, max_size=4))):
        text += (draw(_GAPS) if i else "") + word
    text += draw(_EDGES)
    return " ".join(text.split()) if draw(st.booleans()) else text


@pytest.mark.parametrize("name", ["default", "odd"])
def test_property_instantiation_equals_regex_fill(name):
    catalogue = default_catalogue() if name == "default" else ODD_CATALOGUE

    @settings(max_examples=300, deadline=None)
    @given(miss=pattern_terms(), target=pattern_terms())
    def check(miss, target):
        if not miss.strip() or not target.strip():
            for instantiate in (id_queries, reference_instantiate):
                with pytest.raises(ValueError):
                    instantiate(miss, target, catalogue)
            return
        assert id_queries(miss, target, catalogue) == reference_instantiate(
            miss, target, catalogue
        )

    check()


def test_mined_terms_take_the_compiled_format(catalogue):
    queries = dict(id_queries("corporate body", "organization", catalogue))
    assert queries["inst-of"] == "corporate body is an instance of an organization"


# Templates with Y before X, slots glued to literals and to each other,
# punctuation in literals, "a(n)" before either slot and plural slots.
PRUNE_TEMPLATES = [
    "{X} is a(n) {Y}", "{Y:pl} such as {X:pl}", "{X}'s {Y}", "{X}-{Y}",
    "a(n) {X} is like a(n) {Y}.", "{Y}, {X}", "{X} {Y:pl}",
]
_PREFIXES = st.sampled_from(["", "a(n) ", ", ", "the ", "("])
_MIDDLES = st.sampled_from([" ", "", "'s ", "-", " is a(n) ", " such as ", ", ", ") "])
_SUFFIXES = st.sampled_from(["", ".", " today", "'s", ")"])
_PLURAL = st.sampled_from(["", ":pl"])
# Mined-like terms, terms that are not compilable (an "a(n)" piece, runs of
# whitespace, edge whitespace) and terms of or with punctuation.
_PRUNE_TERMS = st.sampled_from(
    ["apple", "Apple", "orange", "idea", "desk lamp", "box", "body", "a(n) apple", "apple a",
     "desk  lamp", " box", ",", "(apple"]
)
_PRUNE_WORDS = st.sampled_from(
    ["apple", "apples", "Apple", "orange", "oranges", "idea", "ideas", "desk", "lamp", "lamps",
     "box", "boxes", "body", "bodies", "is", "a", "an", "such", "as", "like", "the", "today",
     ",", ".", "(", ")", "'s", "-"]
)


@st.composite
def prune_templates(draw):
    first, second = draw(st.permutations(["X", "Y"]))
    return (draw(_PREFIXES) + "{" + first + draw(_PLURAL) + "}" + draw(_MIDDLES)
            + "{" + second + draw(_PLURAL) + "}" + draw(_SUFFIXES))


@st.composite
def pruning_runs(draw):
    """A catalogue, 1-6 pairs and 1-5 documents of words and the pairs'
    planted queries. A glued template has empty sides, so only a catalogue
    without one can settle a pair."""
    templates = draw(st.lists(st.sampled_from(PRUNE_TEMPLATES), min_size=1, unique=True))
    templates += draw(st.lists(prune_templates(), max_size=3))
    catalogue = PatternCatalogue(
        PatternTemplate(f"p{n}", RelationKind.HYPONYMY, f"g{n}", template)
        for n, template in enumerate(templates)
    )
    pairs = draw(st.lists(st.tuples(_PRUNE_TERMS, _PRUNE_TERMS), min_size=1, max_size=6))
    planted = st.sampled_from(
        [query for pair in pairs for _, query in reference_instantiate(*pair, catalogue)]
    )
    docs = draw(st.lists(
        st.lists(st.one_of(_PRUNE_WORDS, planted), min_size=1, max_size=8).map(" ".join),
        min_size=1, max_size=5,
    ))
    return catalogue, pairs, {f"d/{n}": text for n, text in enumerate(docs)}


def suggest_pairs(sides: SideMasks, pairs, provider, catalogue, extract=extract_relation):
    """The suggestions of pairs in order, as a run makes them: one
    ``SideMasks.suggest`` call per run of pairs with one missing term."""
    suggestions = []
    for miss, group in itertools.groupby(pairs, key=operator.itemgetter(0)):
        suggestions += sides.suggest(miss, [target for _, target in group], provider,
                                     catalogue, extract)
    assert len(suggestions) == len(pairs)
    return suggestions


def test_property_pruned_hits_equal_unpruned_and_document_scan():
    # Side-query pruning is exact for a provider of document frequencies:
    # per pair, SideMasks.suggest gives the same counts as every query
    # issued, and as a scan, and a pair that counts nothing shares the zero
    # tuple the audit writer looks for by identity.
    punctuation = default_stoplist().punctuation
    seen = set()

    @settings(max_examples=250, deadline=None)
    @given(run=pruning_runs())
    def check(run):
        catalogue, pairs, texts = run
        index = build_index(texts.items())
        sides = SideMasks(index.pattern_hits)
        suggestions = suggest_pairs(sides, pairs, index, catalogue)
        for (miss, target), suggestion in zip(pairs, suggestions):
            pruned = suggestion.hits
            unpruned = tuple(map(index.pattern_hits, catalogue.queries(miss, target)))
            scanned = tuple(len(walk_phrase_docs(texts, query, punctuation))
                            for _, query in reference_instantiate(miss, target, catalogue))
            assert pruned == unpruned == scanned, (miss, target)
            assert any(pruned) or pruned is catalogue.zero_hits, (miss, target)
            seen.add("counted" if any(pruned) else "zero")
        if sides.settled:
            seen.add("settled")
        if sides.full_queries < (len(pairs) - sides.settled) * len(catalogue):
            seen.add("template pruned")

    check()
    assert seen == {"counted", "zero", "settled", "template pruned"}


def test_property_per_term_settling_equals_per_pair_extraction():
    # SideMasks.suggest gives each pair what extract_relation gives it with
    # nothing pruned, for the index's test and for a snapshot's. It takes a
    # target's Y mask only for a term whose X mask leaves a template viable,
    # settles exactly the pairs the two masks leave none, and sends the
    # others to extract, which queries the templates both leave viable.
    # Every pair that counts nothing shares the zero tuple the audit writer
    # looks for by identity.
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(run=pruning_runs())
    def check(run):
        catalogue, pairs, texts = run
        index = build_index(texts.items())
        entries = {}
        for miss, target in pairs:
            for query in catalogue.queries(miss, target):
                entries.setdefault(normalize_label(query), index.pattern_hits(query))
        table = SnapshotTable.from_pairs(entries.items(), index.total_docs())
        for provider, test in ((index, index.pattern_hits), (table, table.run_test())):
            unpruned = SideMasks(lambda query: True)
            expected = [extract_relation(miss, target, provider, catalogue, unpruned)
                        for miss, target in pairs]
            sides, extracted = SideMasks(test), []

            def extract(*args):
                extracted.append(args[:2])
                return extract_relation(*args)

            suggestions = suggest_pairs(sides, pairs, provider, catalogue, extract)
            assert suggestions == expected
            assert all(s.hits is catalogue.zero_hits for s in suggestions if not any(s.hits))
            x_masks, y_masks = sides._masks
            assert set(x_masks) == {miss for miss, _ in pairs}
            assert set(y_masks) == {target for miss, target in pairs if x_masks[miss]}
            viable = [(miss, target) for miss, target in pairs
                      if x_masks[miss] and x_masks[miss] & y_masks[target]]
            assert extracted == viable
            assert sides.settled == len(pairs) - len(viable)
            assert sides.full_queries == sum(
                (x_masks[miss] & y_masks[target]).bit_count() for miss, target in viable)
            if extracted:
                seen.add("extracted")
            if not all(x_masks.values()):
                seen.add("term settled")
            if sides.settled > sum(not x_masks[miss] for miss, _ in pairs):
                seen.add("target settled")

    check()
    assert seen == {"term settled", "target settled", "extracted"}


# Terms and literals whose lowering is not a plain per-character map: "Σ"
# lowers by its neighbours (Final_Sigma), "İ" to two code points, and "ß"
# lowers to itself but case-folds to "ss".
_CASE_TEMPLATES = ["{X} İs a(n) {Y}", "{Y:pl} ΣΑΣ {X}", "{X}ß {Y}", "straße {X}'s {Y:pl}"]
_SNAPSHOT_TERMS = st.sampled_from(
    ["apple", "Apple", "desk lamp", "box", "a(n) apple", "apple a", "desk  lamp", " box", ",",
     "(apple", "ΟΔΟΣ", "Σ", "ΣΑΣ plan", "İstanbul", "istanbul", "straße", "STRAẞE", "Straße box"]
)


def test_property_snapshot_pruned_hits_equal_unpruned():
    # A snapshot prunes with the token runs of its non-zero keys: per pair,
    # SideMasks.suggest gives the same counts as every query issued, and a
    # pair that counts nothing shares the zero tuple.
    seen = set()

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def check(data):
        templates = data.draw(st.lists(st.sampled_from(PRUNE_TEMPLATES + _CASE_TEMPLATES),
                                       min_size=1, unique=True))
        templates += data.draw(st.lists(prune_templates(), max_size=3))
        catalogue = PatternCatalogue(
            PatternTemplate(f"p{n}", RelationKind.HYPONYMY, f"g{n}", template)
            for n, template in enumerate(templates)
        )
        pairs = data.draw(st.lists(st.tuples(_SNAPSHOT_TERMS, _SNAPSHOT_TERMS),
                                   min_size=1, max_size=6))
        full = [query for pair in pairs for query in catalogue.queries(*pair)]
        # Keys: whole full queries, token runs of them and other words, in
        # any case, counted 0 as often as not.
        tokens = st.sampled_from(full).map(str.split)
        run = tokens.flatmap(lambda words: st.tuples(
            st.just(words), st.integers(0, len(words) - 1), st.integers(1, len(words))
        )).map(lambda drawn: " ".join(drawn[0][drawn[1]:drawn[1] + drawn[2]]))
        keys = data.draw(st.lists(
            st.tuples(st.one_of(st.sampled_from(full), run, _PRUNE_WORDS),
                      st.sampled_from([str, str.upper, str.title]), st.integers(0, 2)),
            max_size=10,
        ))
        entries = {}
        for key, case, count in keys:
            entries.setdefault(normalize_label(case(key)), count)
        table = SnapshotTable.from_pairs(entries.items(), 1_000)
        sides = SideMasks(table.run_test())
        suggestions = suggest_pairs(sides, pairs, table, catalogue)
        for (miss, target), suggestion in zip(pairs, suggestions):
            pruned = suggestion.hits
            unpruned = tuple(map(table.pattern_hits, catalogue.queries(miss, target)))
            assert pruned == unpruned, (miss, target)
            assert any(pruned) or pruned is catalogue.zero_hits, (miss, target)
            seen.add("counted" if any(pruned) else "zero")
        if sides.settled:
            seen.add("settled")
        if sides.full_queries < (len(pairs) - sides.settled) * len(catalogue):
            seen.add("template pruned")

    check()
    assert seen == {"counted", "zero", "settled", "template pruned"}
