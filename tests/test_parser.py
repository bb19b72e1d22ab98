import functools
import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from oracles import enumerate_trees, parse_featstruct
from hybridmt import featstruct, parser
from hybridmt.chunker import Token, parse_token_line
from hybridmt.parser import (
    ParseError,
    barrier_regions,
    count_trees,
    dump_forest,
    fragment_cover,
    lexical_entries,
    parse,
)
from hybridmt.featstruct import (
    EquationSet,
    FeatStruct,
    apply_equations,
    canonical,
    parse_equations,
    subsumes,
)
from hybridmt.pipeline import Pipeline, load_config
from hybridmt.posteditor import dump_tree
from hybridmt.realizer import RealizeError
from hybridmt.semantics import serialize_spl
from hybridmt.rulebase import LexiconEntry, RuleKey, load_rulebase, parse_rule_file
from hybridmt.sexpr import parse_all

TOY = parse_rule_file(
    """
((S -> A))
((S -> B))
((S -> S S))
""",
    "syntax",
)

TOY_RULES = {
    "S": [("A",), ("B",), ("S", "S")],
}


def _oracle_counts(tags, rules=TOY_RULES, barrier=None):
    """Exhaustive CFG derivation counting over ``rules`` (LHS -> RHS
    tuples of any length).  ``barrier`` is an optional (category, lo, hi)
    region that no constituent of that category may strictly cross."""
    n = len(tags)
    memo = {}

    def count(cat, i, j):
        key = (cat, i, j)
        if key in memo:
            return memo[key]
        memo[key] = 0  # cycle guard; the grammars have no unary cycles
        total = 0
        if barrier is not None and cat == barrier[0]:
            lo, hi = barrier[1:]
            overlap = i < hi and lo < j
            if overlap and not (i <= lo and hi <= j) and not (lo <= i and j <= hi):
                return 0
        if j == i + 1 and tags[i] == cat:
            total += 1
        for rhs in rules.get(cat, ()):
            total += cover(rhs, i, j)
        memo[key] = total
        return total

    def cover(rhs, i, j):
        """Ways to cover [i, j) with the categories of rhs in order."""
        if len(rhs) == 1:
            return count(rhs[0], i, j)
        return sum(count(rhs[0], i, k) * cover(rhs[1:], k, j) for k in range(i + 1, j))

    return count("S", 0, n)


def _tokens(tags):
    return [Token("w%d" % i, t) for i, t in enumerate(tags)]


def test_tree_counts_match_exhaustive_oracle():
    for n in range(1, 9):
        for tags in itertools.product("AB", repeat=n):
            forest = parse(_tokens(tags), TOY)
            got = sum(count_trees(forest, r) for r in forest.roots)
            assert got == _oracle_counts(tags), tags


def test_enumerate_trees_agrees_with_count():
    forest = parse(_tokens("AABBA"), TOY)
    (root,) = forest.roots
    n = count_trees(forest, root)
    trees = enumerate_trees(forest, root, cap=10_000)
    assert len(trees) == n
    assert len(set(trees)) == n


def test_packing_shares_spans():
    # the forest for n tokens stays polynomial even though the tree
    # count is the (n-1)-th Catalan number
    forest = parse(_tokens("A" * 10), TOY)
    (root,) = forest.roots
    assert count_trees(forest, root) == 4862  # Catalan(9)
    assert len(forest.constituents) < 200


def test_equal_structures_from_two_derivations_pack():
    # each solution is a new object, so only mutual subsumption packs
    # the two S constituents over 0..3
    grammar = parse_rule_file(
        """
((S -> A A) ((X0 f) = v1))
((S -> S A) ((X0 f) = v1))
((S -> A S) ((X0 f) = v1))
""",
        "syntax",
    )
    forest = parse(_tokens("AAA"), grammar)
    (root,) = forest.roots
    assert len(forest[root].derivations) == 2
    assert count_trees(forest, root) == 2


def test_barrier_blocks_crossing_constituents():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(2, 7)
        tags = [rng.choice("AB") for _ in range(n)]
        lo = rng.randrange(n)
        hi = rng.randrange(lo + 1, n + 1)
        tokens = _tokens(tags)
        tokens.insert(hi, Token.end("S"))
        tokens.insert(lo, Token.begin("S"))
        regions = barrier_regions(tokens)
        assert regions == [("S", lo, hi)]
        forest = parse(tokens, TOY)
        for c in forest:
            if c.category != "S":
                continue
            overlap = c.start < hi and lo < c.end
            contains = c.start <= lo and hi <= c.end
            contained = lo <= c.start and c.end <= hi
            assert not (overlap and not contains and not contained), (
                tags,
                lo,
                hi,
                c,
            )


def test_barrier_only_blocks_its_own_category():
    tokens = _tokens("AB")
    tokens.insert(1, Token.end("NP"))
    tokens.insert(0, Token.begin("NP"))
    forest = parse(tokens, TOY)
    # NP barrier over token 0 does not stop the S parse 0..2
    assert forest.roots


def test_fragment_cover_full_parse():
    forest = parse(_tokens("AB"), TOY)
    cover = fragment_cover(forest)
    assert cover == [forest.roots[0]]


def test_fragment_cover_greedy_leftmost_longest():
    grammar = parse_rule_file("((S -> A B))", "syntax")
    forest = parse(_tokens("ABX"), grammar)
    cover = fragment_cover(forest, category_order=("S",))
    pieces = [(forest[i].category, (forest[i].start, forest[i].end)) for i in cover]
    assert pieces == [("S", (0, 2)), ("X", (2, 3))]


def test_unknown_words_become_constituents():
    forest = parse(parse_token_line("mystery"), TOY)
    consts = [c for c in forest if c.start == 0]
    assert [c.category for c in consts] == [parser.UNKNOWN_CATEGORY]
    cover = fragment_cover(forest)
    assert [forest[i].category for i in cover] == [parser.UNKNOWN_CATEGORY]


def test_lexical_entries_prefer_tag_match():
    rb = parse_rule_file("", "syntax")
    rb.syn_lexicon["x"] = []
    from hybridmt.rulebase import LexiconEntry

    rb.syn_lexicon["x"] = [LexiconEntry("x", "N"), LexiconEntry("x", "V")]
    assert [c for c, _ in lexical_entries(Token("x", "V"), rb)] == ["V"]
    assert [c for c, _ in lexical_entries(Token("x", ""), rb)] == ["N", "V"]


def test_parse_sees_rules_added_after_an_earlier_parse():
    rb = parse_rule_file("((S -> A))", "syntax")
    assert parse(_tokens("AC"), rb).roots == []
    parse_rule_file("((S -> S C)) ((C -> D))", "syntax", rb)
    assert len(parse(_tokens("AC"), rb).roots) == 1
    assert len(parse(_tokens("AD"), rb).roots) == 1


def test_parse_sees_equations_added_to_a_backbone_after_an_earlier_parse():
    # (S -> S S) has no equations at the first parse and has some at the
    # second, so its derivations must no longer pack without a solve
    rb = parse_rule_file("((S -> A)) ((S -> S S))", "syntax")
    assert len(parse(_tokens("AAAA"), rb).roots) == 1
    parse_rule_file("((S -> S S) ((X0 f) = v1))", "syntax", rb)
    fresh = parse_rule_file("((S -> A)) ((S -> S S)) ((S -> S S) ((X0 f) = v1))", "syntax")
    forest = parse(_tokens("AAAA"), rb)
    assert dump_forest(forest) == dump_forest(parse(_tokens("AAAA"), fresh))
    assert len(forest.roots) == 2


def test_edge_cap_truncates():
    forest = parse(_tokens("A" * 12), TOY, edge_cap=20)
    assert forest.truncated


def test_empty_input_raises():
    with pytest.raises(ParseError):
        parse([], TOY)
    with pytest.raises(ParseError):
        parse([Token.begin("S"), Token.end("S")], TOY)


def test_dump_forest_lists_every_constituent():
    forest = parse(_tokens("AB"), TOY)
    lines = dump_forest(forest).splitlines()
    assert len(lines) == len(forest.constituents)
    root = forest[forest.roots[0]]
    root_line = lines[forest.roots[0]]
    assert root_line.startswith("%d\tS\t0\t2\t" % root.id)
    assert "(S -> S S)" in root_line


# ---------------------------------------------------------------------
# Equation-free rules skip the solver; packing looks up spans
# ---------------------------------------------------------------------

FS_FEATS = ("a", "b", "c")
FS_ATOMS = ("v1", "v2", "v3")


@st.composite
def _feat_structs(draw):
    """Acyclic structures with atoms, *OR* and *NOT* leaves, empty nodes,
    and features that reuse an earlier finished node (a #n= tag)."""
    finished = []

    def node(depth):
        kinds = ["atom", "or", "not", "empty", "reuse"]
        if depth < 3:
            kinds += ["complex", "complex"]
        kind = draw(st.sampled_from(kinds))
        if kind == "reuse" and finished:
            return draw(st.sampled_from(finished))
        if kind == "atom":
            fs = FeatStruct.atom(draw(st.sampled_from(FS_ATOMS)))
        elif kind == "or":
            fs = FeatStruct.disjunction(draw(st.sets(st.sampled_from(FS_ATOMS), min_size=2)))
        elif kind == "not":
            fs = FeatStruct.negation(draw(st.sets(st.sampled_from(FS_ATOMS), min_size=1)))
        elif kind == "complex":
            feats = draw(st.lists(st.sampled_from(FS_FEATS), min_size=1, max_size=3, unique=True))
            fs = FeatStruct.complex({f: node(depth + 1) for f in feats})
        else:
            fs = FeatStruct()
        finished.append(fs)
        return fs

    return node(0)


def _path(var, feats):
    return "(%s)" % " ".join([var] + list(feats))


@st.composite
def _equation_sets(draw, arity):
    """Equation sets over X0..X<arity>, empty and non-empty ones mixed."""
    variables = ["X%d" % i for i in range(arity + 1)]
    feats = st.lists(st.sampled_from(FS_FEATS), max_size=2)
    paths = st.builds(_path, st.sampled_from(variables), feats)
    # left-hand sides favour X0, so that more solutions build an X0
    targets = st.builds(_path, st.sampled_from(["X0"] * arity + variables[1:]), feats)
    values = st.one_of(
        paths,
        st.sampled_from(FS_ATOMS),
        st.sampled_from(["(*OR* v1 v2)", "(*NOT* v1)", "(*NOT* v2 v3)"]),
    )
    equation = st.tuples(targets, st.sampled_from(["=", "=", "=c"]), values).map(
        lambda parts: "(%s %s %s)" % parts
    )
    texts = draw(
        st.lists(
            st.one_of(st.just([]), st.lists(equation, min_size=1, max_size=4)),
            min_size=1,
            max_size=4,
        )
    )
    sets = []
    for eqs in texts:
        exprs = parse_all(" ".join(eqs))
        sets.append(EquationSet(parse_equations(exprs)))
    return sets


def _children_and_sets(arity):
    return st.tuples(
        st.lists(_feat_structs(), min_size=arity, max_size=arity), _equation_sets(arity)
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(_children_and_sets))
def test_solve_rule_matches_apply_equations_per_set(case):
    children, sets = case
    bindings = {"X0": FeatStruct.empty()}
    bindings.update(("X%d" % i, fs) for i, fs in enumerate(children, 1))

    def want(cap):
        return [
            canonical(sol["X0"])
            for eqset in sets
            for sol in apply_equations(bindings, eqset.equations, cap)
        ]

    # a second call, with equal but distinct children, and a call with
    # cap 1 must each give what a cold apply_equations gives, so nothing
    # an earlier call left behind can leak into a later one
    copies = [parse_featstruct(canonical(fs)) for fs in children]
    for structures, cap in ((children, 64), (copies, 64), (children, 1)):
        with pytest.MonkeyPatch.context() as mp:
            capped = functools.partial(apply_equations, solution_cap=cap)
            mp.setattr(featstruct, "apply_equations", capped)
            got = [canonical(fs) for fs in parser._solve_rule(sets, structures)]
        assert got == want(cap)


@st.composite
def _graftable_cases(draw):
    """Children drawn from a small shared pool, some wrapped so that one
    pooled subgraph recurs under another variable, and a graftable set
    over them: distinct X0 left-hand paths, some nested, where a path
    that others extend takes a child path; child paths present, missing
    or through an atom, and atom leaves."""
    arity = draw(st.integers(1, 3))
    structures = st.one_of(_feat_structs(), st.just(FeatStruct.empty()))
    pool = draw(st.lists(structures, min_size=1, max_size=3))
    feats = st.sampled_from(FS_FEATS)
    children = []
    for _ in range(arity):
        fs = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            wrap = draw(st.lists(feats, min_size=1, max_size=2, unique=True))
            fs = FeatStruct.complex({f: fs for f in wrap})
        children.append(fs)
    # X0 features include two that no child has, which a copy can take
    lhs_steps = st.lists(st.sampled_from(FS_FEATS + ("d", "e")), min_size=1, max_size=2)
    kept = []
    for _ in range(draw(st.integers(1, 5))):
        lhs = tuple(draw(lhs_steps))
        if kept and draw(st.booleans()):
            lhs = draw(st.sampled_from(kept)) + lhs
        if lhs not in kept:
            kept.append(lhs)
    # a few child paths per set, so that some recur and some nest
    children_vars = st.sampled_from(["X%d" % i for i in range(1, arity + 1)])
    child_paths = st.builds(_path, children_vars, st.lists(feats, max_size=3))
    sources = st.sampled_from(draw(st.lists(child_paths, min_size=1, max_size=3)))
    values = st.one_of(sources, st.sampled_from(FS_ATOMS + ("(*OR* v1 v2)",)))
    equations = []
    for lhs in kept:
        extended = any(len(k) > len(lhs) and k[: len(lhs)] == lhs for k in kept)
        if not extended:
            value = draw(values)
        elif draw(st.booleans()):
            value = draw(sources)
        else:
            # a path the child has, so that more extended nodes get copied
            index = draw(st.integers(1, arity))
            node, steps = children[index - 1], []
            while node.features and draw(st.booleans()):
                steps.append(draw(st.sampled_from(sorted(node.features))))
                node = node.features[steps[-1]]
            value = _path("X%d" % index, steps)
        equations.append("(%s = %s)" % (_path("X0", lhs), value))
    return children, _equation_set(" ".join(equations))


def _equation_set(text):
    exprs = parse_all(text)
    return EquationSet(parse_equations(exprs))


def _solver_x0s(eqset, children):
    bindings = {"X0": FeatStruct.empty()}
    bindings.update(("X%d" % i, fs) for i, fs in enumerate(children, 1))
    return [canonical(sol["X0"]) for sol in apply_equations(bindings, eqset.equations)]


@settings(max_examples=600, deadline=None)
@given(_graftable_cases())
def test_grafted_x0_equals_the_full_solvers_on_shared_children(case):
    children, eqset = case
    assert eqset.plan is not None
    before = [canonical(fs) for fs in children]
    want = _solver_x0s(eqset, children)
    # fails exactly when the solver has no solution, too
    assert [canonical(fs) for fs in parser._solve_rule([eqset], children)] == want
    assert [canonical(fs) for fs in children] == before


def _grafted(text, *children):
    eqset = _equation_set(text)
    got = [canonical(fs) for fs in parser._solve_rule([eqset], children)]
    assert got == _solver_x0s(eqset, children)
    return got


SG = "((syn ((n sg))))"


def test_one_structure_bound_to_two_variables_is_not_aliased():
    child = parse_featstruct(SG)
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X2 syn))", child, child)
    assert got == ["((a ((n sg))) (b ((n sg))))"]


def test_one_child_path_named_twice_is_reentrant():
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X1 syn))", parse_featstruct(SG))
    assert got == ["((a #1=((n sg))) (b #1#))"]


def test_a_missing_child_path_gets_one_empty_node():
    child = parse_featstruct(SG)
    assert _grafted("((X0 a) = (X1 syn num))", child) == ["((a ()))"]
    got = _grafted("((X0 a) = (X1 syn num)) ((X0 b) = (X1 syn num))", child)
    assert got == ["((a #1=()) (b #1#))"]
    got = _grafted("((X0 a) = (X1 syn num)) ((X0 b) = (X2 syn num))", child, child)
    assert got == ["((a ()) (b ()))"]


def test_a_missing_path_under_a_grafted_subgraph_grows_it():
    child = parse_featstruct(SG)
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X1 syn num))", child)
    assert got == ["((a ((n sg) (num #1=()))) (b #1#))"]
    got = _grafted("((X0 b) = (X1 syn num)) ((X0 a) = (X1 syn))", child)
    assert got == ["((a ((n sg) (num #1=()))) (b #1#))"]
    # the grown node is reached through a reentrant path, not a prefix
    reentrant = parse_featstruct("((f #1=((g v1))) (h #1#))")
    got = _grafted("((X0 a) = (X1 f)) ((X0 b) = (X1 h k))", reentrant)
    assert got == ["((a ((g v1) (k #1=()))) (b #1#))"]
    got = _grafted("((X0 a) = (X1 syn num)) ((X0 b) = (X1 syn num pl))", child)
    assert got == ["((a ((pl #1=()))) (b #1#))"]


def test_a_path_through_an_atom_has_no_solution():
    assert _grafted("((X0 a) = (X1 syn n x))", parse_featstruct(SG)) == []
    atom = FeatStruct.atom("v1")
    assert _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X2 n))", parse_featstruct(SG), atom) == []


def test_a_longer_left_hand_path_extends_a_copy_of_the_childs_node():
    child = parse_featstruct("((syn ((n sg) (p ((q v1))))))")
    before = canonical(child)
    eqset = _equation_set("((X0 syn) = (X1 syn)) ((X0 syn topic) = plus)")
    assert eqset.plan is not None
    (x0,) = parser._solve_rule([eqset], [child])
    assert canonical(x0) == "((syn ((n sg) (p ((q v1))) (topic plus))))"
    assert x0["syn"] is not child["syn"]
    assert x0["syn"]["p"] is child["syn"]["p"]
    assert canonical(child) == before
    # two levels: the copy of X2's node holds a copy of X1's
    eqset = _equation_set("((X0 s) = (X2 syn)) ((X0 s m) = (X1 syn)) ((X0 s m k) = v2)")
    (x0,) = parser._solve_rule([eqset], [child, parse_featstruct("((syn ((n pl))))")])
    assert canonical(x0) == "((s ((m ((k v2) (n sg) (p ((q v1))))) (n pl))))"
    assert x0["s"]["m"]["p"] is child["syn"]["p"]
    assert canonical(child) == before


def test_an_extended_atom_or_residue_goes_to_the_solver():
    text = "((X0 a) = (X1 syn)) ((X0 a x) = v1)"
    assert _grafted(text, parse_featstruct("((syn v2))")) == []
    # the solver walks into the residue's node without unifying it, and
    # the residue stays on the node, where canonical does not show it
    residue = parse_featstruct("((syn (*NOT* v1)))")
    assert _grafted(text, residue) == ["((a ((x v1))))"]
    (x0,) = parser._solve_rule([_equation_set(text)], [residue])
    assert x0["a"].forbidden == {"v1"}


def test_a_longer_path_to_a_feature_the_child_has_goes_to_the_solver():
    got = _grafted("((X0 a) = (X1 syn)) ((X0 a n) = (*OR* sg pl))", parse_featstruct(SG))
    assert got == ["((a ((n sg))))"]


def test_an_extended_node_held_twice_in_x0_goes_to_the_solver():
    child = parse_featstruct(SG)
    # through another left-hand path
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X1 syn)) ((X0 a x) = v1)", child)
    assert got == ["((a #1=((n sg) (x v1))) (b #1#))"]
    # through another left-hand path, which a longer path extends too
    text = "((X0 a) = (X1 syn)) ((X0 b) = (X1 syn)) ((X0 a x) = v1) ((X0 b y) = v2)"
    assert _grafted(text, child) == ["((a #1=((n sg) (x v1) (y v2))) (b #1#))"]
    # inside another subgraph X0 shares
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = X1) ((X0 a x) = v1)", child)
    assert got == ["((a #1=((n sg) (x v1))) (b ((syn #1#))))"]
    # inside a subgraph of another variable bound to the same structure
    got = _grafted("((X0 a) = (X1 syn)) ((X0 b) = (X2 syn)) ((X0 a x) = v1)", child, child)
    assert got == ["((a ((n sg) (x v1))) (b ((n sg))))"]
    # through reentrancy in the child
    reentrant = parse_featstruct("((f #1=((g v1))) (h ((k #1#))))")
    got = _grafted("((X0 a) = (X1 f)) ((X0 b) = (X1 h)) ((X0 a x) = v1)", reentrant)
    assert got == ["((a #1=((g v1) (x v1))) (b ((k #1#))))"]


def test_extending_a_node_grown_for_a_missing_path_goes_to_the_solver():
    # the solver grows X1 at (syn num) and then closes a cycle through it
    text = "((X0 a) = (X1 syn num)) ((X0 a x) = (X1 syn num))"
    assert _grafted(text, parse_featstruct(SG)) == []


def test_a_missing_path_stopping_at_a_copied_node_goes_to_the_solver():
    got = _grafted(
        "((X0 a) = (X1 syn)) ((X0 a x) = v1) ((X0 b) = (X1 syn num))", parse_featstruct(SG)
    )
    assert got == ["((a ((n sg) (num #1=()) (x v1))) (b #1#))"]


def test_grafted_x0_shares_the_childs_structure():
    rule = load_rulebase(gloss_file=fixture_path("gloss.rules")).rules[RuleKey("NP", ("N",))]
    child = parse_featstruct("((gloss ((head cat) (num sg))))")
    (x0,) = parser._solve_rule(rule.gloss_sets, [child])
    assert x0["gloss"] is child["gloss"]


REPEATED_WORD_GRAMMAR = """
((NP -> N) ((X0 syn) = (X1 syn)))
((S -> NP NP) ((X0 a) = (X1 syn)) ((X0 b) = (X2 syn)))
((S -> N N) ((X0 a) = (X1 syn)) ((X0 b) = (X1 syn)) ((X0 c) = (X2 syn)) ((X0 d) = plus))
"""

# dump_forest of ``neko neko`` under REPEATED_WORD_GRAMMAR, recorded
# before X0 shared its children's structure
REPEATED_WORD_FOREST = """\
0	N	0	1		((syn ((n sg))))
1	N	1	2		((syn ((n sg))))
2	NP	1	2	(NP -> N):1	((syn ((n sg))))
3	NP	0	1	(NP -> N):0	((syn ((n sg))))
4	S	0	2	(S -> NP NP):3,2	((a ((n sg))) (b ((n sg))))
5	S	0	2	(S -> N N):0,1	((a #1=((n sg))) (b #1#) (c ((n sg))) (d plus))
"""


def test_a_line_repeating_one_word_keeps_its_forest():
    # both words are one lexicon structure, and the NPs graft it again
    grammar = parse_rule_file(REPEATED_WORD_GRAMMAR, "syntax")
    grammar.syn_lexicon["neko"] = [LexiconEntry("neko", "N", parse_featstruct(SG))]
    forest = parse([Token("neko", "N"), Token("neko", "N")], grammar)
    assert dump_forest(forest) == REPEATED_WORD_FOREST


@settings(max_examples=300, deadline=None)
@given(_feat_structs())
def test_subsumes_is_reflexive(fs):
    # packing relies on it: a constituent whose structure is the very
    # object already installed over its span packs without a check
    assert subsumes(fs, fs)


CFG_CATEGORIES = ("S", "T", "A", "B")


@st.composite
def _equation_free_grammars(draw):
    """Unary, binary and ternary rules over CFG_CATEGORIES as (lhs, rhs)
    pairs.  A unary rule X -> Y exists only where X comes before Y in a
    drawn order, so there is no unary cycle."""
    order = draw(st.permutations(CFG_CATEGORIES))
    unary = [(x, (y,)) for i, x in enumerate(order) for y in order[i + 1 :]]
    category = st.sampled_from(CFG_CATEGORIES)
    # left-hand sides lean to S and T, so that more tag strings parse
    lhs = st.sampled_from(("S", "S", "T") + CFG_CATEGORIES)
    binary = st.tuples(lhs, st.tuples(category, category))
    ternary = st.tuples(lhs, st.tuples(category, category, category))
    rules = set(draw(st.lists(st.sampled_from(unary), max_size=4)))
    rules |= set(draw(st.lists(binary, max_size=8)))
    rules |= set(draw(st.lists(ternary, max_size=3)))
    return sorted(rules)


@settings(max_examples=300, deadline=None)
@given(
    _equation_free_grammars(),
    st.lists(st.sampled_from(CFG_CATEGORIES), min_size=1, max_size=7),
    st.data(),
)
def test_equation_free_tree_counts_match_oracle(rules, tags, data):
    grammar = parse_rule_file(
        " ".join("((%s -> %s))" % (lhs, " ".join(rhs)) for lhs, rhs in rules), "syntax"
    )
    tokens = _tokens(tags)
    barrier = None
    if data.draw(st.booleans(), label="barrier"):
        lo = data.draw(st.integers(0, len(tags) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(tags)), label="hi")
        category = data.draw(st.sampled_from(CFG_CATEGORIES), label="category")
        tokens.insert(hi, Token.end(category))
        tokens.insert(lo, Token.begin(category))
        barrier = (category, lo, hi)
    by_lhs = {}
    for lhs, rhs in rules:
        by_lhs.setdefault(lhs, []).append(rhs)
    forest = parse(tokens, grammar)
    got = sum(count_trees(forest, r) for r in forest.roots)
    assert got == _oracle_counts(tags, by_lhs, barrier)


# ---------------------------------------------------------------------
# Forest equality on seeded random grammars
# ---------------------------------------------------------------------

FOREST_CATEGORIES = ("S", "T", "A", "B", "C")
FOREST_LEXICAL = ("A", "B", "C")
# equation sets a drawn rule may carry; each entry lists the highest
# child variable it names.  The last *OR* entry gives two solutions
# that differ only in X1, so both pack into one constituent.
FOREST_EQUATIONS = (
    (0, ""),
    (1, "((X0 f) = (X1 f))"),
    (0, "((X0 f) = v1)"),
    (2, "((X0 f) = (X2 f)) ((X0 h) = (X1 h))"),
    (1, "((X1 f) =c v1)"),
    (0, "(*OR* (((X0 f) = v1)) (((X0 f) = v2)))"),
    (1, "(*OR* (((X0 g) = v1)) (((X0 g) = v1) ((X1 h) = v2)))"),
)
FOREST_EDGE_CAPS = (3, 12, 40) + (parser.DEFAULT_EDGE_CAP,) * 3


def _forest_case(seed):
    """A seeded grammar with unary, binary, ternary and 4-ary rules (two
    of them sharing a right-hand side), a lexicon, a token line with an
    optional barrier, and an edge cap."""
    rng = random.Random(seed)
    order = list(FOREST_CATEGORIES)
    rng.shuffle(order)
    rules = [
        (x, (y,))
        for i, x in enumerate(order)
        for y in order[i + 1 :]
        if rng.random() < 0.3
    ]
    for arity, count in ((2, rng.randint(2, 7)), (3, rng.randint(0, 3)), (4, rng.randint(0, 2))):
        for _ in range(count):
            lhs = rng.choice(("S", "S", "S", "T") + FOREST_CATEGORIES)
            rhs = tuple(rng.choice(("S",) + FOREST_CATEGORIES) for _ in range(arity))
            rules.append((lhs, rhs))
    shared = rng.choice(rules)
    rules.append((rng.choice([c for c in ("S", "T") if c != shared[0]]), shared[1]))
    text = []
    for lhs, rhs in rules:
        eqs = [e for top, e in FOREST_EQUATIONS if top <= len(rhs)]
        text.append("((%s -> %s) %s)" % (lhs, " ".join(rhs), rng.choice(eqs)))
    grammar = parse_rule_file(" ".join(text), "syntax")
    for cat in FOREST_LEXICAL:
        for suffix, features in (("1", "((f v1))"), ("2", "((f v2) (h v2))")):
            word = cat.lower() + suffix
            grammar.syn_lexicon[word] = [LexiconEntry(word, cat, parse_featstruct(features))]
    n = rng.randint(1, 9)
    tokens = []
    for _ in range(n):
        cat = rng.choice(FOREST_LEXICAL)
        tokens.append(Token(cat.lower() + rng.choice("12"), cat))
    if rng.random() < 0.4:
        lo = rng.randrange(n)
        hi = rng.randint(lo + 1, n)
        category = rng.choice(FOREST_CATEGORIES)
        tokens.insert(hi, Token.end(category))
        tokens.insert(lo, Token.begin(category))
    return grammar, tokens, rng.choice(FOREST_EDGE_CAPS)


def _forest_digest(forest):
    text = "%sroots %r truncated %r\n" % (dump_forest(forest), forest.roots, forest.truncated)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# first 16 hex digits of the sha256 of each seed's dump_forest, roots
# and truncated flag, recorded from the parser that enumerated child
# sequences recursively: a faster inner loop must build the same forests
FOREST_DIGESTS = (
    "ccdd61093e0f39af", "dd8a1ddbc00e99b8", "d8d378faf21d2992", "2b14ad593b2162f2",
    "8e9d4dc05574f92c", "18a028867240b0da", "9028fec3452a96fa", "b29f95652ae22e06",
    "df3f701965d047a3", "adb155a255246cea", "2078ec075c79d44f", "de0e504073391c27",
    "69ab97829e8d62e3", "e42e8688cdf857df", "ee58a210f0838035", "c675296b36f07ef0",
    "d57a8a7beb02405d", "0b4376b00427bb25", "311a790805ed4f5a", "d6102bdc82e481cd",
    "d170d25ecfda467e", "e36361be1ca4c048", "affa213b964c363f", "a1695a7af9920340",
    "2f305edeadb44b3b", "0c929fa0d4b3737f", "7f8113c2c108947e", "ea2ca030c1a36282",
    "7f7e2bf62ed68454", "2e191608c4c07571", "376eb13f9597d119", "519b322387b05bc0",
    "6c1ce0d7ba17003c", "9ff893066044b456", "aea7834333eb8669", "7178a46528d2aeac",
    "41b974f5db1cb3d6", "c675296b36f07ef0", "1a1f7074a7aa635c", "d43c5ac703fe40a9",
    "901c78923c42c123", "da26d9756a49aa8b", "81e0da84e1ae3808", "93286eba78448291",
    "35b41ebc114f1092", "a91599b74613d2a0", "64ba65555aa69ce3", "4ed8b585d8e7d419",
    "84ab4c1188652a0e", "0018e7dcc3c28c9d", "14a78e76a474574c", "a6fe9a074a37bffb",
    "0884f36575155bee", "7d06c5280ef61c0d", "ca70bce524bc0ab0", "3108a339d82e3f16",
    "320e15a92f49c945", "dbc925a060edf54e", "f6c53e81b6bb7493", "406120e94e69c354",
    "334e73ce180dc330", "554c487a60977a4a", "39ae215d3cf158ca", "7e25482fc2cb0999",
    "7b434ede6e2e8278", "9bdaf5986b21ccec", "0018e7dcc3c28c9d", "003a1d8b87b7405b",
    "0986bc944fe23630", "442f906e5a15af49", "d87b483dd73cee09", "c116e17db465aa84",
    "003a1d8b87b7405b", "f814ccd3e534c463", "22d0026984cc7a84", "7b434ede6e2e8278",
    "42d233db09bccecf", "3be4cdf4e9528736", "0ec0cd9966c974c4", "0cc7ec3439bdd5c4",
    "6ecdc964ba781d2e", "da53cf5a593be5de", "9972e48e4bc23865", "9d32b2fc8987c66c",
    "a5cfb67ce31a5d42", "6c1b9e49702fb4b3", "53d4818f72a13b17", "d57a8a7beb02405d",
    "3e344257bf6ed7e4", "866362fb3bd2e84b", "2875eb816e091960", "502b37df19932561",
    "7d36111835b87e16", "62d3decc70c0af4c", "85bd7c293ded2f75", "67c019bf9ca75fec",
    "21d5fce56c8994a9", "84eb2ec0466a44bb", "2845a8ba7b1e0212", "e55a672a37dd92db",
    "e261a9cbd512ced6", "58e324feac567595", "17127240041f78ca", "bb125acd23225553",
    "0018e7dcc3c28c9d", "cb4474a1e592b91f", "8028578ed6555e24", "7ef3c0b2cb4500d5",
    "a7e9ab62d6319645", "04c5cee889b85ee3", "ebb3726c68935f84", "5325d8418fc22e77",
    "1afcafd64dd9100f", "acc3c5f2f4908854", "ec92d4c631ff063f", "ac5b723fe6d6e3c9",
    "77fc1629faa0e451", "c675296b36f07ef0", "67a4a041fbb5f933", "b0e3bfad5ddabbf3",
    "9b55d943291755ff", "064b9e9574647a20", "102d70df3d9a8784", "2bc199397e5b4ca8",
    "e2bf714b3e1f4fac", "edba9a9278f3f9cd", "7f84cd720d0871b2", "f943220b43c17cd0",
    "5efc6d94c0eedcf4", "701ebd1d8318a7ad", "7cc0a83ddda385e2", "6226f323d3558e59",
    "8de934c4f8f120fc", "bb828ce2337db0b7", "adc5ed4c2ec58dae", "e4c7b18139781447",
    "340b7e1d33de4b58", "36b6552ff9db4536", "e3cbf9e469eaeb41", "02695ef97ef69141",
    "debfe7143921a65f", "d57a8a7beb02405d", "62fe90fa3d6e2b7f", "54f7e5f33d4448d9",
    "4b3ca09c9ecd4f2f", "2de41af1760c0e0c", "2e2437135beef64a", "e5c463fe2255cc73",
    "91d00438d5e9af34", "97df8bd919ab8855",
)


def test_forests_of_random_grammars_equal_recorded_digests():
    changed = []
    for seed, want in enumerate(FOREST_DIGESTS):
        grammar, tokens, edge_cap = _forest_case(seed)
        forest = parse(tokens, grammar, root_categories=("S", "T"), edge_cap=edge_cap)
        if _forest_digest(forest)[:16] != want:
            changed.append(seed)
    assert changed == []


def _barrier_line(tags, category, lo, hi):
    tokens = _tokens(tags)
    tokens.insert(hi, Token.end(category))
    tokens.insert(lo, Token.begin(category))
    return tokens


# grammars whose rules have no equations, or mix such rules with rules
# that have them, on lines whose forests pack many derivations per cell
CAP_SWEEP_CASES = {
    "toy": (TOY, _tokens("ABBABAABBA")),
    "toy-barrier": (TOY, _barrier_line("ABBABAABBA", "S", 3, 7)),
    # an equation-free rule beside equation rules with its right-hand
    # side or its left-hand side; X0 = X2 gives an empty structure that
    # packs with the equation-free rule's
    "shared-sides": (
        parse_rule_file(
            """
((S -> A)) ((S -> B)) ((S -> S S))
((T -> S S) ((X0 f) = v1))
((S -> S A) (X0 = X2))
((S -> A S) ((X0 f) = v1))
""",
            "syntax",
        ),
        _tokens("AABAAB"),
    ),
    # one backbone with an empty and a non-empty equation set
    "mixed-sets": (
        parse_rule_file(
            "((S -> A)) ((S -> B)) ((S -> S S)) ((S -> S S) ((X0 f) = v1))", "syntax"
        ),
        _tokens("ABAABA"),
    ),
    # one backbone given two empty equation sets
    "two-empty-sets": (
        parse_rule_file("((S -> A)) ((S -> B)) ((S -> S S)) ((S -> S S))", "syntax"),
        _barrier_line("ABBABAAB", "S", 2, 5),
    ),
    # three rules on one binary right-hand side, the equation-free one
    # between two with equations, and a ternary right-hand side shared
    # by an equation-free rule and one with equations: some cap stops
    # inside a sequence at each rule position
    "three-rules-one-side": (
        parse_rule_file(
            """
((S -> A)) ((S -> B))
((R -> S S) ((X0 f) = v1))
((S -> S S))
((T -> S S) (X0 = X1))
((S -> S S S))
((T -> S S S) ((X0 g) = v2))
""",
            "syntax",
        ),
        _barrier_line("ABAABBA", "S", 2, 5),
    ),
    # equation-free unary rules and unary rules with equations on one
    # child category, and a unary rule over a category that binary rules
    # build, so that some cap stops inside a unary closure at each rule
    "unary-shared-child": (
        parse_rule_file(
            """
((S -> A)) ((T -> A) ((X0 f) = v1)) ((U -> A) (X0 = X1))
((S -> B)) ((T -> S)) ((S -> S S)) ((S -> U S) ((X0 f) = v1))
""",
            "syntax",
        ),
        _barrier_line("ABAAB", "S", 1, 3),
    ),
}

# per case: the first edge cap that does not truncate, and the first 16
# hex digits of the sha256 over the forest digests at caps 1 up to it;
# recorded from the parser that solved and installed every derivation
CAP_SWEEP_DIGESTS = {
    "toy": (175, "57d9954a4d68cfc6"),
    "toy-barrier": (94, "017cdf6a420dcede"),
    "shared-sides": (179, "3932bc7756d48864"),
    "mixed-sets": (91, "63868547756916e8"),
    "two-empty-sets": (57, "8665ed3bf8dca87f"),
    "three-rules-one-side": (167, "b8154cb2f148c1d9"),
    "unary-shared-child": (56, "40c89446aae8b484"),
}


def _cap_sweep(grammar, tokens):
    sweep = hashlib.sha256()
    cap = 0
    while True:
        cap += 1
        forest = parse(tokens, grammar, root_categories=("S", "T"), edge_cap=cap)
        sweep.update(_forest_digest(forest).encode("ascii"))
        if not forest.truncated:
            return cap, sweep.hexdigest()[:16]


def test_forests_at_every_edge_cap_equal_recorded_digests():
    got = {name: _cap_sweep(*case) for name, case in CAP_SWEEP_CASES.items()}
    assert got == CAP_SWEEP_DIGESTS


# equation sets whose left-hand paths nest, each with the highest child
# variable it names: X0 extends a copy of a child's f, two levels deep,
# over a feature the child may have, through a node X0 holds twice,
# over a missing child path, or next to a missing path under the copy
NESTED_EQUATIONS = (
    (0, ""),
    (1, "((X0 f) = (X1 f))"),
    (1, "((X0 f) = (X1 f)) ((X0 f k) = v1)"),
    (2, "((X0 f) = (X1 f)) ((X0 f h) = (X2 h))"),
    (2, "((X0 f) = (X2 f)) ((X0 f g) = (X1 f g))"),
    (2, "((X0 f) = (X1 f)) ((X0 f m) = (X2 f)) ((X0 f m n) = v2)"),
    (1, "((X0 f) = (X1 f)) ((X0 h) = (X1 f)) ((X0 f k) = v1)"),
    (1, "((X0 f) = (X1 h)) ((X0 f k) = v2)"),
    (2, "((X0 f) = (X1 f)) ((X0 f k) = v1) ((X0 h) = (X2 f m))"),
)
# lexicon structures with f complex, reentrant, atomic, a residue or missing
NESTED_LEXICON = (
    "((f ((g v1))) (h v2))",
    "((f ((g v2) (k v2))) (h ((g v1))))",
    "((f #1=((g v1))) (h #1#))",
    "((f (*NOT* v1)))",
    "((f v1))",
    "((h v1))",
)


def _nested_forest_case(seed):
    """A seeded grammar whose rules carry NESTED_EQUATIONS, a lexicon
    whose words draw from one pool of structures (so some words share
    one), and a token line with one word repeated."""
    rng = random.Random(seed)
    order = list(FOREST_CATEGORIES)
    rng.shuffle(order)
    rules = [
        (x, (y,))
        for i, x in enumerate(order)
        for y in order[i + 1 :]
        if rng.random() < 0.3
    ]
    for arity, count in ((2, rng.randint(2, 6)), (3, rng.randint(0, 2))):
        for _ in range(count):
            lhs = rng.choice(("S", "S", "T") + FOREST_CATEGORIES)
            rhs = tuple(rng.choice(("S",) + FOREST_CATEGORIES) for _ in range(arity))
            rules.append((lhs, rhs))
    text = []
    for lhs, rhs in rules:
        eqs = [e for top, e in NESTED_EQUATIONS if top <= len(rhs)]
        text.append("((%s -> %s) %s)" % (lhs, " ".join(rhs), rng.choice(eqs)))
    grammar = parse_rule_file(" ".join(text), "syntax")
    pool = [parse_featstruct(fs) for fs in NESTED_LEXICON]
    words = []
    for cat in FOREST_LEXICAL:
        for suffix in "12":
            word = cat.lower() + suffix
            grammar.syn_lexicon[word] = [LexiconEntry(word, cat, rng.choice(pool))]
            words.append(Token(word, cat))
    line = [rng.choice(words) for _ in range(rng.randint(1, 6))]
    line.insert(rng.randint(0, len(line)), rng.choice(line))
    return grammar, line


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forests_with_nested_left_hand_paths_equal_the_full_solvers(seed):
    grammar, tokens = _nested_forest_case(seed)
    forest = parse(tokens, grammar, root_categories=("S", "T"))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(featstruct, "graft", lambda plan, children: None)
        mp.setattr(
            featstruct,
            "apply_equations",
            lambda *args: calls.append(args) or apply_equations(*args),
        )
        solved = parse(tokens, grammar, root_categories=("S", "T"))
    # the solver ran wherever a rule with equations derived a constituent
    solving = {
        key for key, rule in grammar.rules.items() if any(s.equations for s in rule.syntax_sets)
    }
    assert calls or not any(d[0] in solving for c in solved for d in c.derivations)
    assert dump_forest(forest) == dump_forest(solved)
    assert (forest.roots, forest.truncated) == (solved.roots, solved.truncated)


def test_packed_solutions_of_one_application_record_it_once():
    # the two solutions differ only in X1, so both X0s reach install and
    # the second packs into the constituent the first one made
    grammar = parse_rule_file(
        "((S -> A B) (*OR* (((X0 g) = v1)) (((X0 g) = v1) ((X1 h) = v2))))", "syntax"
    )
    (rule,) = grammar.rules.values()
    empty = FeatStruct.empty()
    assert len(parser._solve_rule(rule.syntax_sets, [empty, empty])) == 2
    forest = parse(_tokens("AB"), grammar)
    (root,) = forest.roots
    assert forest[root].derivations == [(rule.key, 0, 1)]


def _cyclic_garbage(run):
    """Objects that only the cyclic collector frees after ``run()``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["gloss", "interlingua"])
def test_chunking_the_batch_leaves_no_reference_cycles(name, request):
    # pattern matching searches by recursion
    pipe = request.getfixturevalue(name + "_pipeline")
    with open(fixture_path("batch50.txt"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    assert _cyclic_garbage(lambda: [pipe.chunk(line) for line in lines]) == 0


def test_toy_parse_leaves_no_reference_cycles():
    tokens = _tokens("ABBAB")
    assert _cyclic_garbage(lambda: parse(tokens, TOY)) == 0


def test_pipeline_parse_leaves_no_reference_cycles(gloss_pipeline):
    tokens = gloss_pipeline.chunk("john/N wa/HA ima/ADV tabetai/V")
    assert _cyclic_garbage(lambda: gloss_pipeline.parse(tokens)) == 0


def test_parses_with_equations_leave_no_reference_cycles():
    # packing calls subsumes and the solver's dedup calls canonical
    for seed in range(40):
        grammar, tokens, edge_cap = _forest_case(seed)
        garbage = _cyclic_garbage(
            lambda: parse(tokens, grammar, root_categories=("S", "T"), edge_cap=edge_cap)
        )
        assert garbage == 0, seed


def _batch_forests(pipe):
    """The forest of each ``batch50.txt`` line under ``pipe``, chunked
    and parsed before any garbage is counted."""
    with open(fixture_path("batch50.txt"), encoding="utf-8") as fh:
        return [pipe.parse(pipe.chunk(line)) for line in fh if line.strip()]


def test_glossing_the_batch_leaves_no_reference_cycles(gloss_pipeline):
    # composition memoises through itself and flattening recurses
    forests = _batch_forests(gloss_pipeline)
    assert _cyclic_garbage(lambda: [gloss_pipeline.gloss(f) for f in forests]) == 0


def test_analyzing_the_batch_leaves_no_reference_cycles(interlingua_pipeline):
    forests = _batch_forests(interlingua_pipeline)
    assert _cyclic_garbage(lambda: [interlingua_pipeline.analyze(f) for f in forests]) == 0


def _batch_candidates(pipe):
    """The candidates of each ``batch50.txt`` line that has one."""
    candidates = [pipe.analyze(f) for f in _batch_forests(pipe)]
    return [c for c in candidates if c]


def test_ranking_the_batch_leaves_no_reference_cycles(interlingua_pipeline):
    candidates = _batch_candidates(interlingua_pipeline)
    assert candidates
    assert _cyclic_garbage(lambda: [interlingua_pipeline.rank(c) for c in candidates]) == 0


def test_realizing_the_batch_leaves_no_reference_cycles(interlingua_pipeline):
    best = [interlingua_pipeline.rank(c)[0].graph for c in _batch_candidates(interlingua_pipeline)]

    def realize_all():
        for graph in best:
            try:
                interlingua_pipeline.realize(graph)
            except RealizeError:
                pass

    assert _cyclic_garbage(realize_all) == 0


@pytest.mark.parametrize("config", ["gloss.cfg", "interlingua.cfg"])
def test_loading_a_pipeline_leaves_no_reference_cycles(config):
    # the taxonomy's is-a walk and the article tree's reader recurse
    path = fixture_path(config)
    assert _cyclic_garbage(lambda: Pipeline(load_config(path))) == 0


def test_dumping_and_training_the_article_tree_leave_no_reference_cycles(gloss_pipeline):
    assert _cyclic_garbage(lambda: dump_tree(gloss_pipeline.tree)) == 0
    assert _cyclic_garbage(gloss_pipeline.train_postedit) == 0


def test_serializing_the_batch_candidates_leaves_no_reference_cycles(interlingua_pipeline):
    graphs = [c.graph for cs in _batch_candidates(interlingua_pipeline) for c in cs]
    assert graphs
    assert _cyclic_garbage(lambda: [serialize_spl(g) for g in graphs]) == 0


def test_counting_trees_leaves_no_reference_cycles():
    forest = parse(_tokens("ABBABAAB"), TOY)
    assert _cyclic_garbage(lambda: [count_trees(forest, r) for r in forest.roots]) == 0


def test_random_forests_list_roots_in_order_and_derive_every_phrase():
    several = 0
    for seed in range(len(FOREST_DIGESTS)):
        grammar, tokens, edge_cap = _forest_case(seed)
        forest = parse(tokens, grammar, root_categories=("S", "T"), edge_cap=edge_cap)
        # parse lists the roots in forest order without sorting them
        ids = [c.id for c in forest]
        assert ids == sorted(ids)
        assert forest.roots == sorted(forest.roots)
        several += len(forest.roots) > 1
        # composition hands a constituent with no derivation to its leaf
        # function, which reads the token: only lexical ones may get there
        for c in forest:
            assert c.token is not None or c.derivations
    assert several > 10


# the FOREST_EQUATIONS entry whose two solutions stay apart: the two
# constituents it makes of one derivation are one tree to enumerate_trees
APART = "(*OR* (((X0 f) = v1)) (((X0 f) = v2)))"


@st.composite
def _tiling_grammars(draw):
    """A grammar with S and T on the left, and whether it uses APART: a
    unary rule over each lexical category and at most one between S and
    T, binary and ternary rules, some right-hand sides given both
    left-hand sides, and each backbone one entry of FOREST_EQUATIONS,
    equation-free or not."""
    phrase = st.sampled_from(("S", "T"))
    backbones = set(draw(st.sampled_from([[], [("S", ("T",))], [("T", ("S",))]])))
    category = st.sampled_from(("S", "S", "T") + FOREST_LEXICAL)
    sides = [(cat,) for cat in FOREST_LEXICAL]
    sides += draw(st.lists(st.tuples(category, category), min_size=1, max_size=5))
    sides += draw(st.lists(st.tuples(category, category, category), max_size=2))
    for rhs in sides:
        backbones.update((lhs, rhs) for lhs in draw(st.sets(phrase, min_size=1)))
    text = []
    for lhs, rhs in sorted(backbones):
        eqs = [e for top, e in FOREST_EQUATIONS if top <= len(rhs)]
        text.append("((%s -> %s) %s)" % (lhs, " ".join(rhs), draw(st.sampled_from(eqs))))
    grammar = parse_rule_file(" ".join(text), "syntax")
    for cat in FOREST_LEXICAL:
        for suffix, features in (("1", "((f v1))"), ("2", "((f v2) (h v2))")):
            word = cat.lower() + suffix
            grammar.syn_lexicon[word] = [LexiconEntry(word, cat, parse_featstruct(features))]
    return grammar, any(APART in rule for rule in text)


@settings(max_examples=200, deadline=None)
@given(
    _tiling_grammars(),
    st.lists(
        st.tuples(st.sampled_from(FOREST_LEXICAL), st.sampled_from("12")), min_size=1, max_size=6
    ),
    st.sampled_from(FOREST_EDGE_CAPS),
    st.data(),
)
def test_every_derivation_is_one_flat_tuple_whose_children_tile_its_span(
    grammar_apart, words, edge_cap, data
):
    grammar, apart = grammar_apart
    tokens = [Token(cat.lower() + suffix, cat) for cat, suffix in words]
    if data.draw(st.booleans(), label="barrier"):
        lo = data.draw(st.integers(0, len(words) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(words)), label="hi")
        category = data.draw(st.sampled_from(FOREST_CATEGORIES), label="category")
        tokens.insert(hi, Token.end(category))
        tokens.insert(lo, Token.begin(category))
    forest = parse(tokens, grammar, root_categories=("S", "T"), edge_cap=edge_cap)
    for c in forest:
        for derivation in c.derivations:
            key, ids = derivation[0], derivation[1:]
            assert isinstance(key, RuleKey) and key.lhs == c.category
            assert len(ids) == len(key.rhs)
            children = [forest[i] for i in ids]
            assert [child.category for child in children] == list(key.rhs)
            ends = [c.start] + [child.end for child in children]
            assert [child.start for child in children] == ends[:-1]
            assert ends[-1] == c.end
    # parse hands each new constituent a list of its own
    assert len({id(c.derivations) for c in forest}) == len(forest.constituents)
    # a derivation recorded twice counts twice but is one tree
    for root in forest.roots if not apart else ():
        count = count_trees(forest, root)
        assert len(enumerate_trees(forest, root, cap=1000)) == min(count, 1000)


def test_enumerate_trees_stops_at_its_cap():
    forest = parse(_tokens("AABBA"), TOY)
    (root,) = forest.roots
    every = enumerate_trees(forest, root, cap=10_000)
    assert len(every) == 14
    assert enumerate_trees(forest, root, cap=5) == every[:5]


# ---------------------------------------------------------------------
# Work in proportion to the chart
# ---------------------------------------------------------------------

class _CountingDict(dict):
    """A dict that counts its lookups (``get``, ``in`` and ``[]``)."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        self.lookups += 1
        return dict.__contains__(self, key)

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)


class _CountingIndex(dict):
    """A chart index whose category maps are ``_CountingDict``s: each
    counts the lookups made in it with a start."""

    def __setitem__(self, category, starting):
        # the parser only ever installs a fresh, empty map
        dict.__setitem__(self, category, _CountingDict())


def _seeded_batch_line(seed, tokens):
    """``batch50.txt`` lines drawn with a seed and joined until the line
    has at least ``tokens`` tokens."""
    with open(fixture_path("batch50.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rng = random.Random(seed)
    picked, count = [], 0
    while count < tokens:
        line = rng.choice(lines)
        picked.append(line)
        count += len(line.split())
    return " ".join(picked)


# (start, right-hand side) probes of the chart per constituent: each
# probe reads the constituents of the right-hand side's first category
# at a start, from that category's map in the by-start index.  A
# constituent of the shipped grammar spans at most 7 tokens, so a
# bounded number of lengths can hold one.
PROBES_PER_CONSTITUENT = 12


def test_chart_probes_grow_with_the_constituents_not_the_line(gloss_pipeline, monkeypatch):
    forests = []

    class ProbedForest(parser.ParseForest):
        def __init__(self, *args):
            super().__init__(*args)
            self._by_start = _CountingIndex()
            forests.append(self)

    monkeypatch.setattr(parser, "ParseForest", ProbedForest)
    for seed, tokens in enumerate((100, 300, 1000)):
        forests.clear()
        forest = gloss_pipeline.parse(gloss_pipeline.chunk(_seeded_batch_line(seed, tokens)))
        assert forests == [forest]
        probes = sum(starting.lookups for starting in forest._by_start.values())
        assert probes <= PROBES_PER_CONSTITUENT * len(forest.constituents), (tokens, probes)


@st.composite
def _short_category_grammars(draw):
    """Equation-free rules whose left-hand sides are S and T only, so
    that A, B and C stay one tag long and a right-hand side of them
    cannot cover a long span: the span bound skips it there.  Unary
    rules run from S to T or T to S, never both."""
    unary = draw(st.sampled_from([[], [("S", ("T",))], [("T", ("S",))]]))
    category = st.sampled_from(("S", "T", "A", "B", "C"))
    lhs = st.sampled_from(("S", "S", "T"))
    unary += draw(st.lists(st.tuples(lhs, st.tuples(st.sampled_from("ABC"))), max_size=3))
    binary = st.tuples(lhs, st.tuples(category, category))
    ternary = st.tuples(lhs, st.tuples(category, category, category))
    rules = set(unary)
    rules |= set(draw(st.lists(binary, min_size=1, max_size=6)))
    rules |= set(draw(st.lists(ternary, max_size=3)))
    return sorted(rules)


@settings(max_examples=200, deadline=None)
@given(
    _short_category_grammars(),
    st.lists(st.sampled_from("ABC"), min_size=1, max_size=20),
    st.data(),
)
def test_span_bound_keeps_every_tree_of_grammars_with_short_categories(rules, tags, data):
    grammar = parse_rule_file(
        " ".join("((%s -> %s))" % (lhs, " ".join(rhs)) for lhs, rhs in rules), "syntax"
    )
    tokens = _tokens(tags)
    barrier = None
    if data.draw(st.booleans(), label="barrier"):
        lo = data.draw(st.integers(0, len(tags) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(tags)), label="hi")
        category = data.draw(st.sampled_from(("S", "T")), label="category")
        tokens = _barrier_line(tags, category, lo, hi)
        barrier = (category, lo, hi)
    by_lhs = {}
    for lhs, rhs in rules:
        by_lhs.setdefault(lhs, []).append(rhs)
    forest = parse(tokens, grammar)
    got = sum(count_trees(forest, r) for r in forest.roots)
    assert got == _oracle_counts(tags, by_lhs, barrier)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("XYZ"), st.integers(0, 12), st.integers(0, 12)).map(
            lambda r: (r[0], min(r[1:]), max(r[1:]))
        ),
        max_size=12,
    ),
    st.sampled_from("XYZ"),
    st.integers(0, 11),
    st.integers(1, 12),
)
def test_indexed_barrier_check_agrees_with_every_region(regions, category, start, length):
    end = start + length
    want = any(
        cat == category and parser._crosses(start, end, rs, re) for cat, rs, re in regions
    )
    index = parser.barrier_index(regions)
    assert parser.crosses_barrier(index, category, start, end) == want
