import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt import parser
from hybridmt.chunker import Token, parse_token_line
from hybridmt.parser import (
    ParseError,
    barrier_regions,
    count_trees,
    dump_forest,
    enumerate_trees,
    fragment_cover,
    lexical_entries,
    parse,
)
from hybridmt.featstruct import (
    FeatStruct,
    apply_equations,
    canonical,
    parse_equations,
    parse_featstruct,
    subsumes,
)
from hybridmt.rulebase import EquationSet, parse_rule_file
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
    pieces = [(forest[i].category, forest[i].span) for i in cover]
    assert pieces == [("S", (0, 2)), ("X", (2, 3))]


def test_unknown_words_become_constituents():
    forest = parse(parse_token_line("mystery"), TOY)
    consts = forest.at(0)
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
        sets.append(EquationSet(parse_equations(exprs), exprs))
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
        got = [canonical(fs) for fs in parser._solve_rule(sets, structures, cap)]
        assert got == want(cap)


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
