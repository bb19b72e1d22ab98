import itertools

import pytest

from hybridmt import glosser, lattice_lm as wl
from hybridmt.chunker import Token, parse_token_line
from hybridmt.featstruct import FeatStruct
from hybridmt.glosser import (
    GlossError,
    VerbGroupSpec,
    analyze_verbgroup,
    flatten_gloss,
    gloss_forest,
    gloss_leaf,
    ing_form,
    load_irregulars,
    past_form,
    participle_form,
    realize_verbgroup,
    third_singular_form,
)
from hybridmt.parser import parse
from hybridmt.rulebase import parse_rule_file, load_rulebase

from conftest import fixture_path


@pytest.fixture(scope="module")
def irregulars():
    return load_irregulars(fixture_path("irregulars.tsv"))


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
        load_irregulars(str(path))


def test_realize_analyze_roundtrip_all_flag_combos(irregulars):
    flags_all = sorted(glosser.SUPPORTED_FLAGS)
    for r in range(len(flags_all) + 1):
        for combo in itertools.combinations(flags_all, r):
            spec = VerbGroupSpec(["eat"], combo)
            groups = realize_verbgroup(spec, irregulars)
            got = analyze_verbgroup(groups, ["eat"], irregulars)
            assert got == frozenset(combo), combo


def test_realize_passive_past():
    groups = realize_verbgroup(VerbGroupSpec(["eat"], ["passive", "past"]),
                               {"eat": ("ate", "eaten", "eats")})
    assert groups == [["was", "were"], ["eaten"]]


def test_realize_unsupported_flag_warns():
    warnings = []
    groups = realize_verbgroup(
        VerbGroupSpec(["eat"], ["future"]), warn=warnings.append
    )
    assert groups == [["eat"]]
    assert warnings and "future" in warnings[0]


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


def test_gloss_leaf_verbal_category(rb):
    fs = gloss_leaf(Token("keikaku", "V"), rb, verbal_categories=frozenset(["V"]))
    base = fs.get(("gloss", "base"))
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
