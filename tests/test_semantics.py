import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt import semantics, sexpr
from hybridmt.chunker import parse_token_line
from hybridmt.featstruct import FeatStruct
from hybridmt.parser import parse
from hybridmt.rulebase import load_rulebase
from hybridmt.semantics import (
    HARD_FLOOR,
    UNKNOWN_RELATION_SCORE,
    Instance,
    MeaningGraph,
    SemanticsError,
    SplError,
    Taxonomy,
    TaxonomyError,
    analyze,
    infer,
    parse_spl,
    rank_candidates,
    root_candidates,
    score_assertions,
    serialize_spl,
    to_assertions,
)

from conftest import fixture_path
from oracles import graph_signature, isomorphic

SPL_SAMPLE = """
(|h-709| / |have as a goal|
 :SENSER (|c-710| / |company/business|
         :Q-MOD (|n-711| / |new~virgin|))
 :PHENOMENON (|f-712| / |found, launch|
              :TEMPORAL-LOCATING (|c-713| / |calendar month| :MONTH-INDEX 2)
              :AGENT |c-710|)
 :THEME |c-710|)
"""


@pytest.fixture(scope="module")
def taxonomy():
    return Taxonomy.parse(sexpr.read_text(fixture_path("taxonomy.txt")))


@pytest.fixture(scope="module")
def rb():
    return load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        syn_lexicon_file=fixture_path("syn_lexicon.tsv"),
        sem_lexicon_file=fixture_path("sem_lexicon.tsv"),
    )


# -- taxonomy ----------------------------------------------------------

def test_taxonomy_isa_reflexive_transitive(taxonomy):
    assert taxonomy.isa("named person", "named person")
    assert taxonomy.isa("named person", "animate")
    assert taxonomy.isa("named person", "entity")
    assert taxonomy.isa("named person", "thing")
    assert not taxonomy.isa("entity", "named person")
    assert not taxonomy.isa("named person", "event")


def test_taxonomy_disjoint_symmetric_and_inherited(taxonomy):
    assert taxonomy.disjoint("event", "entity")
    assert taxonomy.disjoint("entity", "event")
    # subtypes inherit the declaration
    assert taxonomy.disjoint("ingest", "company/business")
    assert not taxonomy.disjoint("ingest", "calendar month")


def test_taxonomy_multiword_concepts_protected(taxonomy):
    assert "have as a goal" in taxonomy.parents
    assert taxonomy.parents["have as a goal"] == {"event"}


def test_taxonomy_relation_levels(taxonomy):
    assert taxonomy.relations["senser"].level == 0
    assert taxonomy.relations["agent"].level == 1
    assert taxonomy.penalty_for(taxonomy.relations["agent"]) == pytest.approx(0.1)
    assert taxonomy.penalty_for(taxonomy.relations["q-mod"]) == pytest.approx(0.3)


def test_taxonomy_rejects_undeclared_relation_concepts():
    with pytest.raises(TaxonomyError) as err:
        Taxonomy.parse("concept a\nrelation r domain a range zz\n", "t.txt")
    assert str(err.value) == "t.txt: relation r: range concept 'zz' is not declared"


@pytest.mark.parametrize(
    "line, message",
    [
        ("concept |a", "unterminated |atom|"),
        ('concept "a', "unterminated string at line 1"),
        ("concept (a)", "expected words and |multi word| names"),
        ("disjoint a", "expected 'disjoint A B'"),
        ("thing a", "unknown directive 'thing'"),
        ("relation r domain a", "expected 'relation R domain D range G"),
        ("relation r domain a range a color 1", "bad relation option 'color'"),
    ],
)
def test_taxonomy_rejects_a_malformed_line(line, message):
    with pytest.raises(TaxonomyError) as exc:
        Taxonomy.parse("concept a\n" + line + "\n", "t.txt")
    assert str(exc.value).startswith("t.txt:2: ")
    assert message in str(exc.value)


def test_taxonomy_rejects_isa_cycle():
    with pytest.raises(TaxonomyError) as err:
        Taxonomy.parse("concept zz isa b\nconcept b isa zz\n", "t.txt")
    assert str(err.value) == "t.txt: is-a cycle through 'zz'"


@pytest.mark.parametrize("penalty", ["7", "nan", "inf", "0", "-0.5", "1.0001"])
def test_taxonomy_rejects_a_penalty_outside_zero_one(penalty):
    text = "concept a\nrelation r domain a range a relax 1 penalty %s\n" % penalty
    with pytest.raises(TaxonomyError, match=r"^<string>:2: penalty .* not in \(0, 1\]"):
        Taxonomy.parse(text)


@pytest.mark.parametrize(
    "options, message",
    [
        ("relax 3", r"relax level 3 has no default penalty"),
        ("relax -1", r"relax level -1 is negative"),
        ("penalty 0.5", r"penalty on a relation of relax level 0"),
        ("penalty 0.5 relax 0", r"penalty on a relation of relax level 0"),
    ],
)
def test_taxonomy_rejects_a_relax_level_it_cannot_score(options, message):
    # each of these once scored a relaxable violation HARD_FLOOR, silently
    text = "concept a\nrelation r domain a range a %s\n" % options
    with pytest.raises(TaxonomyError, match=r"^<string>:2: " + message):
        Taxonomy.parse(text)


def test_taxonomy_relax_level_without_a_default_takes_its_explicit_penalty():
    tax = Taxonomy.parse(
        "concept thing\nconcept a isa thing\nconcept b isa thing\n"
        "relation r domain a range a relax 3 penalty 0.5\n"
    )
    assert score_assertions([("a", "r", "b")], tax) == 0.5


@pytest.mark.parametrize("penalty, score", [("1", 1.0), ("0.25", 0.25)])
def test_taxonomy_penalty_in_range_scores_a_relaxed_violation(penalty, score):
    tax = Taxonomy.parse(
        "concept thing\nconcept a isa thing\nconcept b isa thing\n"
        "relation r domain a range a relax 1 penalty %s\n" % penalty
    )
    assert score_assertions([("a", "r", "b")], tax) == score


def _reference_ancestors(parents, c):
    """Reference for ``Taxonomy.ancestors``: a fresh walk per query."""
    out, todo = set(), [c]
    while todo:
        cur = todo.pop()
        if cur in out:
            continue
        out.add(cur)
        todo.extend(parents.get(cur, ()))
    return out


def _reference_cycle_message(parents):
    """Reference for the cycle check of ``Taxonomy.validate``: a
    depth-first search that records no ancestors."""
    state = {}

    def visit(c):
        if state.get(c) == 2:
            return None
        if state.get(c) == 1:
            return "is-a cycle through %r" % c
        state[c] = 1
        for p in parents.get(c, ()):
            found = visit(p)
            if found:
                return found
        state[c] = 2
        return None

    for c in list(parents):
        found = visit(c)
        if found:
            return found
    return None


_DECLARED = ["c0", "c1", "c2", "c3", "c4"]
_NAMED = _DECLARED + ["u0", "u1"]  # u0 and u1 are parents no line declares


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_NAMED), max_size=3, unique=True),
        min_size=len(_DECLARED),
        max_size=len(_DECLARED),
    ),
    st.lists(st.tuples(st.sampled_from(_NAMED), st.sampled_from(_NAMED)), max_size=4),
)
def test_taxonomy_closure_answers_as_a_walk_per_query(parent_lists, pairs):
    lines, parents = [], {}
    for name, listed in zip(_DECLARED, parent_lists):
        lines.append("concept %s isa %s" % (name, ",".join(listed)) if listed else "concept " + name)
        parents.setdefault(name, set()).update(p for p in listed if p)
    lines += ["disjoint %s %s" % pair for pair in pairs]
    text = "\n".join(lines) + "\n"
    cycle = _reference_cycle_message(parents)
    if cycle is not None:
        with pytest.raises(TaxonomyError, match="is-a cycle through"):
            Taxonomy.parse(text)
        # over the very same parent sets, the walk names the same concept
        same = Taxonomy()
        same.parents = parents
        with pytest.raises(TaxonomyError) as err:
            same.validate()
        assert str(err.value) == cycle
        return
    tax = Taxonomy.parse(text)
    declared_pairs = {frozenset(pair) for pair in pairs}
    queries = _NAMED + ["nowhere"]
    for a in queries:
        above_a = _reference_ancestors(parents, a)
        for b in queries:
            above_b = _reference_ancestors(parents, b)
            assert tax.isa(a, b) == (b in above_a)
            assert tax.disjoint(a, b) == any(
                frozenset((x, y)) in declared_pairs for x in above_a for y in above_b
            )


# -- SPL ---------------------------------------------------------------

def test_spl_sample_parses():
    g = parse_spl(SPL_SAMPLE)
    nodes = g.nodes()
    assert len(nodes) == 5
    assert g.root.concept == "have as a goal"
    # senser and theme share one filler, which is also the agent below
    company = g.root.roles["senser"]
    assert g.root.roles["theme"] is company
    assert g.root.roles["phenomenon"].roles["agent"] is company
    month = g.root.roles["phenomenon"].roles["temporal-locating"]
    assert month.attributes["month-index"] == "2"


def test_spl_roundtrip_isomorphic():
    g = parse_spl(SPL_SAMPLE)
    text = serialize_spl(g)
    back = parse_spl(text)
    assert isomorphic(g, back)
    assert serialize_spl(back) == text


def test_spl_rejects_duplicates():
    with pytest.raises(SplError):
        parse_spl("(|a| / |c| :X (|a| / |c|))")
    with pytest.raises(SplError):
        parse_spl("(|a| / |c| :X 1 :X 2)")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a b)", "expected (|id| / |concept| ...), got ['a', 'b']"),
        ("((a) / b)", "instance id and concept must be atoms"),
        ("(a / b :agent)", "instance 'a' has a role without a filler"),
        ("(a / b agent c)", "expected :ROLE in instance 'a', got 'agent'"),
        ("(a / b\n :agent (c / d)))", "unbalanced ')' at line 2"),
    ],
)
def test_spl_rejects_a_malformed_instance(text, message):
    with pytest.raises(SplError) as exc:
        parse_spl(text)
    assert message in str(exc.value)


def test_spl_bare_atom_is_attribute_unless_defined():
    g = parse_spl("(|a| / |c| :SIZE 3 :SELF |a|)")
    assert g.root.attributes["size"] == "3"
    assert g.root.roles["self"] is g.root


def _random_graph(rng):
    n = rng.randint(1, 7)
    nodes = [Instance("n-%d" % i, rng.choice("abcde")) for i in range(n)]
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        parent.roles["r%d" % i] = nodes[i]
    # extra reentrant edges, always from earlier to later nodes
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i < j:
            nodes[i].roles.setdefault("x%d" % j, nodes[j])
    for node in nodes:
        if rng.random() < 0.4:
            node.attributes["k"] = str(rng.randint(0, 9))
    return MeaningGraph(nodes[0])


def test_spl_roundtrip_random_graphs():
    rng = random.Random(23)
    for _ in range(1000):
        g = _random_graph(rng)
        back = parse_spl(serialize_spl(g))
        assert isomorphic(g, back)


def test_graph_signature_ignores_ids():
    a = parse_spl("(|x| / |c| :R (|y| / |d|))")
    b = parse_spl("(|p| / |c| :R (|q| / |d|))")
    assert graph_signature(a) == graph_signature(b)
    c = parse_spl("(|p| / |c| :R (|q| / |e|))")
    assert graph_signature(a) != graph_signature(c)


# -- assertions and scoring ---------------------------------------------

def test_to_assertions_counts_role_edges():
    g = parse_spl(SPL_SAMPLE)
    triples = to_assertions(g)
    assert len(triples) == 6  # one triple per role edge
    assert ("have as a goal", "senser", "company/business") in triples
    assert ("have as a goal", "theme", "company/business") in triples
    assert ("found, launch", "agent", "company/business") in triples


def _reference_assertions(g):
    """Reference for ``to_assertions``: a depth-first walk that emits
    each role edge as it descends."""
    out, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for role in sorted(node.roles):
            child = node.roles[role]
            out.append((node.concept, role, child.concept))
            visit(child)

    visit(g.root)
    return out


# fixture-taxonomy concepts and relations, plus one of each it lacks
_SPL_CONCEPTS = [
    "thing", "entity", "event", "ingest", "food", "named person",
    "company/business", "calendar month", "found, launch", "nowhere",
]
_SPL_ROLES = [
    "senser", "theme", "phenomenon", "agent", "temporal-locating", "time", "q-mod", "mystery",
]


@st.composite
def _spl_graphs(draw):
    """A parsed SPL graph whose fillers are new instances, scalar
    attributes or back-references to an instance already written: an
    ancestor (a cycle) or a node of an earlier subtree (reentrancy)."""
    ids, ancestors = [], []

    def instance(depth):
        ident = "n%d" % len(ids)
        ids.append(ident)
        ancestors.append(ident)
        parts = ["|%s| / |%s|" % (ident, draw(st.sampled_from(_SPL_CONCEPTS)))]
        roles = st.lists(st.sampled_from(_SPL_ROLES), max_size=3 if depth < 3 else 0, unique=True)
        for role in draw(roles):
            earlier = [i for i in ids if i not in ancestors]
            kind = draw(st.sampled_from(["new", "ancestor", "earlier", "attribute"]))
            if kind == "new":
                filler = instance(depth + 1)
            elif kind == "ancestor":
                filler = "|%s|" % draw(st.sampled_from(ancestors))
            elif kind == "earlier" and earlier:
                filler = "|%s|" % draw(st.sampled_from(earlier))
            else:
                filler = "7"
            parts.append(":%s %s" % (role.upper(), filler))
        ancestors.pop()
        return "(%s)" % " ".join(parts)

    return parse_spl(instance(0))


@settings(max_examples=300, deadline=None)
@given(_spl_graphs())
def test_to_assertions_reads_the_triples_of_a_depth_first_walk(taxonomy, g):
    triples = to_assertions(g)
    reference = _reference_assertions(g)
    assert sorted(triples) == sorted(reference)
    assert score_assertions(triples, taxonomy) == score_assertions(reference, taxonomy)


def test_score_satisfied_assertion(taxonomy):
    s = score_assertions([("ingest", "senser", "named person")], taxonomy)
    assert s == pytest.approx(1.0)


def test_score_relaxed_assertion(taxonomy):
    s = score_assertions([("ingest", "agent", "calendar month")], taxonomy)
    assert s == pytest.approx(0.1)


def test_score_disjoint_assertion(taxonomy):
    s = score_assertions([("ingest", "senser", "found, launch")], taxonomy)
    assert s == pytest.approx(HARD_FLOOR)


def test_score_unknown_relation_warns(taxonomy):
    s = score_assertions([("ingest", "mystery-role", "food")], taxonomy)
    assert s == UNKNOWN_RELATION_SCORE == 0.5


def test_score_empty_assertions_is_one(taxonomy):
    assert score_assertions([], taxonomy) == 1.0


def test_score_order_invariant_bit_for_bit(taxonomy):
    triples = [
        ("ingest", "agent", "calendar month"),
        ("ingest", "senser", "named person"),
        ("thing", "q-mod", "thing"),
        ("ingest", "mystery", "food"),
    ]
    rng = random.Random(31)
    reference = score_assertions(triples, taxonomy)
    assert reference > 0.0
    for _ in range(50):
        shuffled = triples[:]
        rng.shuffle(shuffled)
        assert score_assertions(shuffled, taxonomy) == reference


def test_score_never_underflows_to_zero(taxonomy):
    triples = [("ingest", "senser", "found, launch")] * 100
    assert score_assertions(triples, taxonomy) > 0.0


def test_rank_candidates_stable_descending():
    a = semantics.SemCandidate(None, 0.5)
    b = semantics.SemCandidate(None, 0.9)
    c = semantics.SemCandidate(None, 0.5)
    ranked = rank_candidates([a, b, c])
    assert ranked == [b, a, c]  # ties keep input order


# -- analysis ----------------------------------------------------------

DEMO = "kaisha/N wa/HA nigatsu/DATE ni/NI hossoku/VN wo/WO keikaku/V"


def test_analyze_demo_graph_structure(rb):
    forest = parse(parse_token_line(DEMO), rb)
    analyses = analyze(forest, rb)
    candidates = root_candidates(forest, analyses)
    assert len(candidates) == 1
    g = candidates[0].graph
    assert g.root.concept == "have as a goal"
    company = g.root.roles["senser"]
    assert company.concept == "company/business"
    assert g.root.roles["theme"] is company
    phen = g.root.roles["phenomenon"]
    assert phen.concept == "found, launch"
    assert phen.roles["agent"] is company
    month = phen.roles["temporal-locating"]
    assert month.concept == "calendar month"
    assert month.attributes["month-index"] == "2"


def test_analyze_candidate_count_is_sense_product(rb):
    noisy = load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        syn_lexicon_file=fixture_path("syn_lexicon.tsv"),
        sem_lexicon_file=fixture_path("sem_lexicon.tsv"),
    )
    noisy.sem_lexicon["kaisha"].append("food")
    noisy.sem_lexicon["hossoku"].append("ingest")
    forest = parse(parse_token_line(DEMO), noisy)
    candidates = root_candidates(forest, analyze(forest, noisy))
    assert len(candidates) == 4  # 2 senses x 2 senses


def test_analyze_missing_sense_propagates_emptiness(rb):
    sparse = load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        syn_lexicon_file=fixture_path("syn_lexicon.tsv"),
        sem_lexicon_file=fixture_path("sem_lexicon.tsv"),
    )
    del sparse.sem_lexicon["keikaku"]
    forest = parse(parse_token_line(DEMO), sparse)
    assert root_candidates(forest, analyze(forest, sparse)) == []


# -- inference ---------------------------------------------------------

def test_infer_identity_without_triggers():
    g = parse_spl(SPL_SAMPLE)
    out = infer(g)
    assert isomorphic(g, out)
    assert out.root is not g.root  # works on a copy


def test_infer_topic_insertion():
    g = parse_spl("(|e| / ingest :THEME (|f| / food) :TIME (|t| / time :TOPIC +))")
    out = infer(g)
    # agent is the first unfilled priority role
    assert out.root.roles["agent"].concept == "time"
    assert "topic" not in out.root.roles["agent"].attributes


def test_infer_topic_respects_filled_roles():
    g = parse_spl(
        "(|e| / ingest :AGENT (|p| / |named person|) :TIME (|t| / time :TOPIC +))"
    )
    out = infer(g)
    assert out.root.roles["agent"].concept == "named person"
    assert out.root.roles["theme"].concept == "time"


def test_infer_rel_mod_rewrite():
    g = parse_spl(
        "(|w| / |rc-modified-object|"
        " :HEAD (|p| / |named person|)"
        " :REL-MOD (|e| / ingest :GAP agent :THEME (|f| / food)))"
    )
    out = infer(g)
    assert out.root.concept == "named person"
    clause = out.root.roles["rel-mod"]
    assert clause.concept == "ingest"
    assert clause.roles["agent"] is out.root
    assert "gap" not in clause.attributes


# infer turns a relative clause into a cycle: the head keeps a rel-mod
# edge to the clause, and the clause's gap role points back at the head
RELATIVE_CLAUSE = (
    "(|w-1| / |rc-modified-object| :HEAD (|c-2| / |company/business|)"
    " :REL-MOD (|f-3| / |found, launch| :GAP theme))"
)


def test_a_cyclic_meaning_graph_serializes_and_asserts_both_edges():
    g = infer(parse_spl(RELATIVE_CLAUSE))
    clause = g.root.roles["rel-mod"]
    assert clause.roles["theme"] is g.root
    text = serialize_spl(g)
    assert text == (
        "(|c-2| / |company/business| :REL-MOD (|f-3| / |found, launch| :THEME |c-2|))"
    )
    assert isomorphic(g, parse_spl(text))
    assert to_assertions(g) == [
        ("company/business", "rel-mod", "found, launch"),
        ("found, launch", "theme", "company/business"),
    ]


def test_infer_idempotent():
    g = parse_spl("(|e| / ingest :TIME (|t| / time :TOPIC +))")
    once = infer(g)
    twice = infer(once)
    assert graph_signature(once) == graph_signature(twice)


def test_root_candidates_skip_options_without_a_meaning_graph():
    atom = FeatStruct.atom
    options = [
        FeatStruct.complex({"cat": atom("v")}),
        FeatStruct.complex({"sem": FeatStruct.complex({"agent": FeatStruct.complex({})})}),
        FeatStruct.complex({"sem": atom("ingest")}),
        FeatStruct.complex({"sem": FeatStruct.complex({"instance": atom("ingest")})}),
    ]
    forest = types.SimpleNamespace(roots=[7])
    analyses = {7: options}.__getitem__
    (candidate,) = root_candidates(forest, analyses)
    assert candidate.graph.root.concept == "ingest"
    with pytest.raises(SemanticsError):
        semantics.graph_from_featstruct(options[2].features["sem"])


def test_no_assertions_score_exactly_one(taxonomy):
    assert score_assertions([], taxonomy) == 1.0
