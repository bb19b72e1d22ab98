import itertools
import re
from collections import Counter

import pytest

from hybridmt import glosser, lattice_lm as wl, sexpr
from hybridmt.chunker import Token, parse_token_line
from hybridmt.featstruct import FeatStruct, canonical
from hybridmt.glosser import (
    GlossError,
    flatten_gloss,
    gloss_forest,
    gloss_leaf,
    ing_form,
    parse_irregulars,
    past_form,
    participle_form,
    realize_verbgroup,
    third_singular_form,
)
from hybridmt.parser import count_trees, parse
from hybridmt.rulebase import parse_rule_file, load_rulebase

from conftest import fixture_path
from oracles import alternate_all, concat_all, from_phrase, path_words


@pytest.fixture(scope="module")
def irregulars():
    return parse_irregulars(sexpr.read_text(fixture_path("irregulars.tsv")))


# -- morphology --------------------------------------------------------

def test_regular_morphology():
    assert past_form("walk") == "walked"
    assert past_form("smile") == "smiled"
    assert past_form("try") == "tried"
    assert past_form("play") == "played"
    assert third_singular_form("walk") == "walks"
    assert third_singular_form("pass") == "passes"
    assert third_singular_form("try") == "tries"
    assert third_singular_form("go") == "goes"
    assert ing_form("walk") == "walking"
    assert ing_form("smile") == "smiling"
    assert ing_form("see") == "seeing"
    assert ing_form("die") == "dying"


def test_irregular_morphology(irregulars):
    assert irregulars["eat"] == ("ate", "eaten", "eats")
    assert past_form("eat", irregulars) == "ate"
    assert participle_form("eat", irregulars) == "eaten"
    assert third_singular_form("eat", irregulars) == "eats"
    # words missing from the table fall back to the regular rules
    assert past_form("walk", irregulars) == "walked"


def test_load_irregulars_bad_row_names_file_and_line(tmp_path):
    path = tmp_path / "irregulars.tsv"
    path.write_text("# base past participle 3sg\neat\tate\teaten\teats\ngo\twent\n")
    with pytest.raises(GlossError, match=r"irregulars\.tsv:3: irregular verb row"):
        parse_irregulars(path.read_text(encoding="utf-8"), str(path))


# realize_verbgroup output for every flag set of "eat", one row per set
_EAT_GROUPS = {
    (): [["eat"]],
    ("negative",): [["does", "do"], ["not"], ["eat"]],
    ("passive",): [["is", "are"], ["eaten"]],
    ("past",): [["ate"]],
    ("progressive",): [["is", "are"], ["eating"]],
    ("negative", "passive"): [["is", "are"], ["not"], ["eaten"]],
    ("negative", "past"): [["did"], ["not"], ["eat"]],
    ("negative", "progressive"): [["is", "are"], ["not"], ["eating"]],
    ("passive", "past"): [["was", "were"], ["eaten"]],
    ("passive", "progressive"): [["is", "are"], ["being"], ["eaten"]],
    ("past", "progressive"): [["was", "were"], ["eating"]],
    ("negative", "passive", "past"): [["was", "were"], ["not"], ["eaten"]],
    ("negative", "passive", "progressive"): [["is", "are"], ["not"], ["being"], ["eaten"]],
    ("negative", "past", "progressive"): [["was", "were"], ["not"], ["eating"]],
    ("passive", "past", "progressive"): [["was", "were"], ["being"], ["eaten"]],
    ("negative", "passive", "past", "progressive"): [
        ["was", "were"], ["not"], ["being"], ["eaten"]
    ],
}


def test_realize_analyze_roundtrip_all_flag_combos(irregulars):
    flags_all = sorted(glosser.SUPPORTED_FLAGS)
    combos = [
        c for r in range(len(flags_all) + 1) for c in itertools.combinations(flags_all, r)
    ]
    assert sorted(combos) == sorted(_EAT_GROUPS)
    for combo in combos:
        assert realize_verbgroup(["eat"], combo, irregulars) == _EAT_GROUPS[combo], combo


def test_realize_passive_past():
    groups = realize_verbgroup(["eat"], ["passive", "past"], {"eat": ("ate", "eaten", "eats")})
    assert groups == [["was", "were"], ["eaten"]]


# -- leaf glossing -----------------------------------------------------

@pytest.fixture(scope="module")
def rb():
    return load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        gloss_file=fixture_path("gloss.rules"),
        syn_lexicon_file=fixture_path("syn_lexicon.tsv"),
        bilingual_file=fixture_path("bilingual.tsv"),
    )


def test_gloss_leaf_single_translation(rb):
    fs = gloss_leaf(Token("ima", "ADV"), rb)
    assert str(fs.get(("gloss",)).atom_value) == "now"


def test_gloss_leaf_alternatives(rb):
    fs = gloss_leaf(Token("tabetai", "V"), rb)
    alts = {str(a) for a in fs.get(("gloss",)).allowed}
    assert alts == {"wants to eat", "want to eat"}


def test_gloss_rule_states_a_verb_group_base(rb):
    # a leaf's gloss is its translations; the rule makes them a base
    grammar = parse_rule_file("((VP -> V))", "syntax")
    parse_rule_file("((VP -> V) ((X0 gloss base) = (X1 gloss)))", "gloss", grammar)
    grammar.bilingual = rb.bilingual
    assert str(gloss_leaf(Token("keikaku", "V"), grammar).get(("gloss",)).atom_value) == "plans"
    forest = parse(parse_token_line("keikaku/V"), grammar, root_categories=("VP",))
    base = gloss_forest(forest, grammar).get(("gloss", "base"))
    assert str(base.atom_value) == "plans"


def test_gloss_leaf_unknown_word(rb):
    fs = gloss_leaf(Token("nandeyanen", "X"), rb)
    assert str(fs.get(("gloss",)).atom_value) == "nandeyanen"
    assert fs.get(("unknown",)).atom_value == "+"


def test_gloss_leaf_rejects_markers(rb):
    with pytest.raises(GlossError):
        gloss_leaf(Token.begin("NPT"), rb)


# -- forest glossing and flattening -------------------------------------

def _flatten_paths(lat):
    paths, truncated = wl.all_paths(lat)
    assert not truncated
    return {tuple(p) for p in paths}


def test_gloss_demo_sentence(rb, irregulars):
    tokens = parse_token_line("john/N wa/HA ima/ADV tabetai/V")
    forest = parse(tokens, rb)
    fs = gloss_forest(forest, rb)
    lat = flatten_gloss(fs, irregulars)
    assert _flatten_paths(lat) == {
        ("John", "wants", "to", "eat", "now"),
        ("John", "want", "to", "eat", "now"),
    }


def test_gloss_fragments_joined_with_separator(rb, irregulars):
    # no grammar rule covers N V, so two fragments are emitted
    tokens = parse_token_line("john/N tabetai/V")
    forest = parse(tokens, rb)
    fs = gloss_forest(forest, rb)
    lat = flatten_gloss(fs, irregulars)
    for path in _flatten_paths(lat):
        assert glosser.FRAGMENT_SEPARATOR in path


def test_gloss_forest_missing_backbone_raises():
    grammar = parse_rule_file("((S -> A B))", "syntax")
    grammar.bilingual["x"] = []
    forest = parse(parse_token_line("x/A y/B"), grammar)
    with pytest.raises(GlossError) as err:
        gloss_forest(forest, grammar)
    assert "S" in str(err.value)


def test_gloss_forest_names_the_backbones_where_glossing_failed():
    # NP has no gloss rule and VP's rule needs a tense the verb's atom
    # gloss lacks; S, whose children have no gloss, is neither
    grammar = parse_rule_file("((S -> NP VP)) ((NP -> N)) ((VP -> V))", "syntax")
    parse_rule_file(
        "((S -> NP VP) ((X0 gloss) = (X2 gloss)))"
        " ((VP -> V) ((X0 gloss base) = (X1 gloss tense)))",
        "gloss",
        grammar,
    )
    grammar.bilingual = {"neko": [], "taberu": []}
    forest = parse(parse_token_line("neko/N taberu/V"), grammar)
    with pytest.raises(GlossError) as err:
        gloss_forest(forest, grammar)
    assert str(err.value) == (
        "no gloss rules for backbones: (NP -> N); no gloss solution for backbones: (VP -> V)"
    )


def test_flatten_ops_concatenate():
    fs = FeatStruct.complex(
        {
            "gloss": FeatStruct.complex(
                {
                    "op1": FeatStruct.atom("the"),
                    "op2": FeatStruct.atom("black cat"),
                }
            )
        }
    )
    assert _flatten_paths(flatten_gloss(fs)) == {("the", "black", "cat")}


def test_flatten_alts_branch():
    fs = FeatStruct.complex(
        {
            "gloss": FeatStruct.complex(
                {
                    "alt1": FeatStruct.atom("cat"),
                    "alt2": FeatStruct.atom("dog"),
                }
            )
        }
    )
    assert _flatten_paths(flatten_gloss(fs)) == {("cat",), ("dog",)}


def test_flatten_ops_must_be_consecutive():
    fs = FeatStruct.complex(
        {
            "gloss": FeatStruct.complex(
                {
                    "op1": FeatStruct.atom("a"),
                    "op3": FeatStruct.atom("b"),
                }
            )
        }
    )
    with pytest.raises(GlossError):
        flatten_gloss(fs)


def test_flatten_applies_tmp_flags(irregulars):
    fs = FeatStruct.complex(
        {
            "gloss": FeatStruct.complex({"base": FeatStruct.atom("eat")}),
            "tmp": FeatStruct.complex({"past": FeatStruct.atom("+")}),
        }
    )
    assert _flatten_paths(flatten_gloss(fs, irregulars)) == {("ate",)}


def test_flatten_empty_node_is_epsilon():
    fs = FeatStruct.complex(
        {
            "gloss": FeatStruct.complex(
                {
                    "op1": FeatStruct.atom("hi"),
                    "op2": FeatStruct.empty(),
                }
            )
        }
    )
    assert _flatten_paths(flatten_gloss(fs)) == {("hi",)}


@pytest.mark.parametrize(
    "base",
    [FeatStruct.empty(), FeatStruct.complex({"tense": FeatStruct.atom("eat")})],
    ids=["empty", "complex"],
)
def test_flatten_rejects_a_verb_group_base_that_is_no_atom(base):
    node = FeatStruct.complex({"base": base})
    with pytest.raises(GlossError) as err:
        flatten_gloss(FeatStruct.complex({"gloss": node}))
    assert str(err.value) == "verb group base is not an atom: %s" % canonical(node)


# -- composition reuse, duplicates and the alternative cap ------------------

SHARED_LEAF_GRAMMAR = """
((S -> A B))
((S -> A BB))
((BB -> B))
((S -> AA B))
((AA -> A))
"""

# (S -> A BB) glosses like (S -> A B), and (AA -> A) glosses A as "other"
SHARED_LEAF_GLOSS = """
((S -> A B) ((X0 gloss op1) = (X1 gloss)) ((X0 gloss op2) = (X2 gloss)))
((S -> A BB) ((X0 gloss op1) = (X1 gloss)) ((X0 gloss op2) = (X2 gloss)))
((BB -> B) ((X0 gloss) = (X1 gloss)))
((AA -> A) ((X0 gloss) = other))
((S -> AA B) ((X0 gloss op1) = (X1 gloss)) ((X0 gloss op2) = (X2 gloss)))
"""


def test_cover_keeps_distinct_options_once_and_glosses_shared_leaves_once(monkeypatch):
    grammar = parse_rule_file(SHARED_LEAF_GRAMMAR, "syntax")
    parse_rule_file(SHARED_LEAF_GLOSS, "gloss", grammar)
    forest = parse(parse_token_line("x/A y/B"), grammar)
    (root,) = forest.roots
    # three derivations over two leaves, each leaf under two of them
    assert len(forest[root].derivations) == 3
    leaf_calls = []
    real_leaf = glosser.gloss_leaf

    def counting_leaf(token, *args):
        leaf_calls.append(token.surface)
        return real_leaf(token, *args)

    monkeypatch.setattr(glosser, "gloss_leaf", counting_leaf)
    fs = gloss_forest(forest, grammar)
    # each leaf is glossed once and then read back from the memo
    assert sorted(leaf_calls) == ["x", "y"]
    # the (S -> A BB) option repeats (S -> A B)'s and is dropped
    assert sorted(fs.features) == ["alt1", "alt2"]
    assert _flatten_paths(flatten_gloss(fs)) == {("x", "y"), ("other", "y")}


def test_cover_options_stop_at_the_alternative_cap():
    grammar = parse_rule_file("((S -> A)) ((S -> S S))", "syntax")
    parse_rule_file(
        """
((S -> A) ((X0 gloss) = (X1 gloss)))
((S -> S S) ((X0 gloss op1) = (X1 gloss)) ((X0 gloss op2) = (X2 gloss)))
""",
        "gloss",
        grammar,
    )
    # 429 bracketings of eight words, each a different op nesting
    forest = parse(parse_token_line(" ".join(["a/A"] * 8)), grammar)
    (root,) = forest.roots
    assert count_trees(forest, root) == 429
    looked_up = []

    class CountingRules(dict):
        def get(self, key, default=None):
            looked_up.append(key)
            return super().get(key, default)

    grammar.rules = CountingRules(grammar.rules)
    fs = gloss_forest(forest, grammar)
    assert sorted(fs.features) == sorted("alt%d" % i for i in range(1, glosser.ALTERNATIVE_CAP + 1))
    # a constituent holding its cap of options glosses no further derivation
    assert len(looked_up) < sum(len(c.derivations) for c in forest)
    assert _flatten_paths(flatten_gloss(fs)) == {("a",) * 8}


# -- flattening starts at the top node -----------------------------------

_OP_RE = re.compile(r"^op([0-9]+)$")
_ALT_RE = re.compile(r"^alt([0-9]+)$")


def _from_groups(groups):
    return concat_all([alternate_all([from_phrase(p) for p in sorted(set(g))]) for g in groups])


def _flatten_unwrapping_the_top(gloss, irregulars=None):
    """``flatten_gloss`` as it was when it unwrapped the top node's
    ``gloss`` and ``tmp`` features before building, on the pairwise
    lattice algebra: the reference that starting at the top node and
    building in one pass must equal."""

    def build(node, tmp):
        if node.is_atomic:
            return _from_groups([[str(a) for a in node.allowed]])
        if node.is_empty:
            return wl.WordLattice(2, [(0, 1, wl.EPS)])
        feats = node.features
        if "base" in feats:
            bases = [str(a) for a in feats["base"].allowed]
            return _from_groups(
                realize_verbgroup(bases, glosser._tmp_flags(node) | tmp, irregulars)
            )
        ops = sorted(
            ((int(m.group(1)), f) for f in feats if (m := _OP_RE.match(f))),
        )
        if ops:
            numbers = [n for n, _ in ops]
            if numbers != list(range(1, len(numbers) + 1)):
                raise GlossError("op features must be consecutive from op1")
            return concat_all([build(feats[f], tmp) for _, f in ops])
        alts = sorted(
            ((int(m.group(1)), f) for f in feats if (m := _ALT_RE.match(f))),
        )
        if alts:
            return alternate_all([build(feats[f], tmp) for _, f in alts])
        if "gloss" in feats:
            tmp_node = feats.get("tmp", FeatStruct.empty())
            return build(feats["gloss"], tmp | glosser._tmp_flags(tmp_node))
        raise GlossError("cannot flatten node")

    top_tmp = set()
    if gloss.is_complex and "tmp" in gloss.features:
        top_tmp = glosser._tmp_flags(gloss.features["tmp"])
    body = gloss.features.get("gloss", gloss) if gloss.is_complex else gloss
    return build(body, top_tmp)


def _assert_flattens_like_the_reference(fs, irregulars=None):
    try:
        want = Counter(path_words(_flatten_unwrapping_the_top(fs, irregulars)))
    except GlossError:
        with pytest.raises(GlossError):
            flatten_gloss(fs, irregulars)
        return
    assert Counter(path_words(flatten_gloss(fs, irregulars))) == want


def _gloss_of(feats):
    return FeatStruct.complex({"gloss": FeatStruct.complex(feats)})


# the structures the flattening tests above build by hand
HAND_BUILT_GLOSSES = [
    _gloss_of({"op1": FeatStruct.atom("the"), "op2": FeatStruct.atom("black cat")}),
    _gloss_of({"alt1": FeatStruct.atom("cat"), "alt2": FeatStruct.atom("dog")}),
    _gloss_of({"op1": FeatStruct.atom("a"), "op3": FeatStruct.atom("b")}),
    FeatStruct.complex(
        {
            "gloss": FeatStruct.complex({"base": FeatStruct.atom("eat")}),
            "tmp": FeatStruct.complex({"past": FeatStruct.atom("+")}),
        }
    ),
    _gloss_of({"op1": FeatStruct.atom("hi"), "op2": FeatStruct.empty()}),
]


def test_hand_built_glosses_flatten_like_the_top_unwrap(rb, irregulars):
    structures = list(HAND_BUILT_GLOSSES)
    for line in ("john/N wa/HA ima/ADV tabetai/V", "john/N tabetai/V"):
        structures.append(gloss_forest(parse(parse_token_line(line), rb), rb))
    for fs in structures:
        _assert_flattens_like_the_reference(fs, irregulars)


@pytest.mark.parametrize("name", ["gloss_pipeline", "interlingua_pipeline"])
def test_batch_glosses_flatten_like_the_top_unwrap(request, name):
    pipe = request.getfixturevalue(name)
    with open(fixture_path("batch50.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 50
    for line in lines:
        fs = gloss_forest(
            pipe.parse(pipe.chunk(line)), pipe.rb, category_order=pipe.cfg.category_order
        )
        _assert_flattens_like_the_reference(fs, pipe.irregulars)


def test_passive_of_a_regular_verb_takes_the_regular_participle(irregulars):
    groups = realize_verbgroup(["walk"], ["passive"], irregulars)
    assert groups == [["is", "are"], ["walked"]]


# -- rule-stated verb groups through the pipeline -------------------------

# the toy verb grammar of the CI verb-group step: the lexical rule makes
# the verb's gloss a base, and each suffix rule sets one tmp flag
VERB_SUFFIXES = {"TA": "past", "NAI": "negative", "RARE": "passive", "TEIRU": "progressive"}
VERB_BASES = {"taberu": ["eat", "consume"], "miru": ["see", "watch", "try"]}
VERB_STACKS = [
    (), ("TA",), ("NAI",), ("RARE",), ("TEIRU",), ("NAI", "TA"), ("RARE", "TA"),
    ("RARE", "NAI"), ("RARE", "NAI", "TA"), ("TEIRU", "NAI"), ("RARE", "TEIRU", "TA"),
]


@pytest.fixture(scope="module")
def verb_pipeline(tmp_path_factory):
    from hybridmt.pipeline import Pipeline, load_config

    d = tmp_path_factory.mktemp("verbs")
    rules = ["((VP -> V))", "((S -> N WO VP))"]
    gloss = ["((VP -> V) ((X0 gloss base) = (X1 gloss)))"]
    for suffix, flag in VERB_SUFFIXES.items():
        rules.append("((VP -> VP %s))" % suffix)
        gloss.append(
            "((VP -> VP %s) ((X0 gloss) = (X1 gloss)) ((X0 tmp) = (X1 tmp)) ((X0 tmp %s) = +))"
            % (suffix, flag)
        )
    gloss.append("((S -> N WO VP) ((X0 gloss op1) = (X1 gloss)) ((X0 gloss op2) = (X3)))")
    syn = ["%s\tV" % v for v in VERB_BASES] + ["sushi\tN", "wo\tWO"]
    syn += ["%s\t%s" % (s.lower(), s) for s in VERB_SUFFIXES]
    bil = ["%s\tV\t%s" % (v, "|".join(b)) for v, b in VERB_BASES.items()] + ["sushi\tN\tsushi"]
    files = {
        "toy.rules": rules,
        "toy.gloss": gloss,
        "syn.tsv": syn,
        "bil.tsv": bil,
        "irr.tsv": ["eat\tate\teaten\teats", "see\tsaw\tseen\tsees"],
        "toy.cfg": [
            "grammar = toy.rules", "gloss_rules = toy.gloss", "syn_lexicon = syn.tsv",
            "bilingual = bil.tsv", "irregulars = irr.tsv", "root_categories = S,VP",
        ],
    }
    for name, lines in files.items():
        (d / name).write_text("".join(line + "\n" for line in lines))
    return Pipeline(load_config(str(d / "toy.cfg")))


@pytest.mark.parametrize("stack", VERB_STACKS, ids=lambda s: "+".join(s) or "bare")
@pytest.mark.parametrize("verb", sorted(VERB_BASES))
def test_rule_stated_verb_groups_gloss_to_the_realized_groups(verb_pipeline, verb, stack):
    pipe = verb_pipeline
    flags = {VERB_SUFFIXES[s] for s in stack}
    groups = realize_verbgroup(VERB_BASES[verb], flags, pipe.irregulars)
    want = set(itertools.product(*groups))
    words = " ".join(["%s/V" % verb] + ["%s/%s" % (s.lower(), s) for s in stack])
    for prefix, line in (((), words), (("sushi",), "sushi/N wo/WO " + words)):
        got = _flatten_paths(pipe.gloss(pipe.parse(pipe.chunk(line))))
        assert got == {prefix + p for p in want}, line
