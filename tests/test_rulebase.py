import re

import pytest

from hybridmt.rulebase import (
    RuleBase,
    RuleBaseError,
    RuleKey,
    load_rulebase,
    parse_rule_file,
)

from conftest import fixture_path
from oracles import validate_rulebase

SIMPLE = """
((S -> NP VP)
 ((X0 head) = (X2 head))
 ((X2 subject) = X1))

((NP -> N)
 (X0 = X1))
"""


def test_parse_rule_file_backbones():
    rb = parse_rule_file(SIMPLE, "syntax")
    assert RuleKey("S", ("NP", "VP")) in rb.rules
    assert RuleKey("NP", ("N",)) in rb.rules
    rule = rb.rules[RuleKey("S", ("NP", "VP"))]
    assert len(rule.sets("syntax")) == 1
    assert rule.sets("gloss") == []


def test_rule_key_identity():
    a = RuleKey("S", ("NP", "VP"))
    b = RuleKey("S", ("NP", "VP"))
    assert a == b and hash(a) == hash(b)
    assert a.arity == 2
    assert a != RuleKey("S", ("NP",))


def test_same_backbone_multiple_kinds():
    rb = RuleBase()
    parse_rule_file("((NP -> N) (X0 = X1))", "syntax", rb)
    parse_rule_file("((NP -> N) ((X0 gloss) = (X1 gloss)))", "gloss", rb)
    assert len(rb.rules) == 1
    rule = rb.rules[RuleKey("NP", ("N",))]
    assert len(rule.sets("syntax")) == 1
    assert len(rule.sets("gloss")) == 1


def test_parse_index_sorted():
    rb = parse_rule_file(
        "((B -> X Y)) ((A -> X Y) (X0 = X1)) ((C -> X)) ((A -> W X))", "syntax"
    )
    longer, unary, uses = rb.parse_index()
    # sides in the order of their first rule, each one's rules in key order
    assert [rhs for rhs, _rules in longer] == [("X", "Y"), ("W", "X")]
    assert [(r.key.lhs, free) for r, free in longer[0][1]] == [("A", False), ("B", True)]
    assert [r.key.lhs for r, _free in unary["X"]] == ["C"]
    assert uses == {"X": [0, 1], "Y": [0], "W": [1]}


def test_parse_rejects_malformed():
    with pytest.raises(RuleBaseError):
        parse_rule_file("((S NP VP))", "syntax")
    with pytest.raises(RuleBaseError):
        parse_rule_file("(42)", "syntax")


@pytest.mark.parametrize(
    "text, message",
    [
        ("((S -> A))\n((S -> B)))", "unbalanced ')' at line 2"),
        ('((S -> A)\n ((X0 f) = "a\nb"))\n((S -> "B))', "unterminated string at line 4"),
        ("((S -> A))\n\n((S -> |B))", "unterminated |atom| at line 3"),
        ("((S -> A))\n((S -> B)", "unbalanced '(': 1 open at end of input"),
    ],
)
def test_rule_file_reading_error_names_the_file_and_the_line(text, message):
    with pytest.raises(RuleBaseError) as exc:
        parse_rule_file(text, "syntax", filename="g.rules")
    assert str(exc.value) == "g.rules: " + message


def test_syn_lexicon_reading_error_names_the_row_and_the_line_in_its_column(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("neko\tN\n\ninu\tN\t((syn ((num sg)))))\n", encoding="utf-8")
    with pytest.raises(RuleBaseError) as exc:
        load_rulebase(syn_lexicon_file=str(path))
    assert str(exc.value) == "%s:3: unbalanced ')' at line 1" % path


@pytest.mark.parametrize(
    "equation, message",
    [
        # equations
        ("()", "malformed equation: []"),
        ("(X0 a b)", "malformed equation: ['X0', 'a', 'b']"),
        ("(foo = X1)", "expected a variable or path, got 'foo'"),
        ("((foo bar) = X1)", "path must start with a rule variable"),
        ("((X0 (a)) = X1)", "path steps must be atoms"),
        ("(is (X1 a) (X1 b))", "existence test takes one path"),
        ("(*OR* x)", "block group must be a list of equations"),
        ("(*OR*)", "empty *OR* block"),
        # feature structures on the right of an equation
        ("((X0 a) = (*OR*))", "*OR* leaf must list atoms"),
        ("((X0 a) = (*NOT* (a)))", "*NOT* must list atoms"),
        ("((X0 a) = (b))", "expected (feature value) pair, got 'b'"),
        ("((X0 a) = (((f) v)))", "feature name must be an atom"),
        ("((X0 a) = ((f v w)))", "feature f has 2 values"),
        ("((X0 a) = ((f v) (f w)))", "duplicate feature f"),
        ("((X0 a) = ((f #1#)))", "undefined reentrancy tag #1#"),
    ],
)
def test_rule_file_rejects_malformed_equation_syntax(equation, message):
    with pytest.raises(RuleBaseError) as exc:
        parse_rule_file("((S -> A) %s)" % equation, "syntax", filename="g.rules")
    assert str(exc.value).startswith("g.rules: rule (S -> A): ")
    assert message in str(exc.value)


def test_load_rulebase_fixture_files():
    rb = load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        gloss_file=fixture_path("gloss.rules"),
        syn_lexicon_file=fixture_path("syn_lexicon.tsv"),
        bilingual_file=fixture_path("bilingual.tsv"),
        sem_lexicon_file=fixture_path("sem_lexicon.tsv"),
        compound_file=fixture_path("compounds.tsv"),
    )
    assert RuleKey("NP", ("N",)) in rb.rules
    assert rb.syn_lexicon["nigatsu"][0].pos == "DATE"
    assert "wants to eat" in rb.bilingual["tabetai"][0].translations
    assert "company/business" in rb.sem_lexicon["kaisha"]
    assert rb.compounds["shinkaisha"] == "N"


def test_load_rulebase_missing_file():
    with pytest.raises(RuleBaseError):
        load_rulebase(grammar_file=fixture_path("no-such-file.rules"))


@pytest.mark.parametrize(
    "argument", ["syn_lexicon_file", "bilingual_file", "sem_lexicon_file", "compound_file"]
)
def test_load_rulebase_names_a_missing_lexicon_file(argument):
    path = fixture_path("no-such-lexicon.tsv")
    with pytest.raises(RuleBaseError, match="^missing lexicon file: %s$" % re.escape(path)):
        load_rulebase(**{argument: path})


def test_syn_lexicon_features_column_of_two_expressions_names_file_and_line(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("john\tN\nkaisha\tN\t((a b)) ((c d))\n")
    want = "^%s:2: expected exactly one expression, got 2$" % re.escape(str(path))
    with pytest.raises(RuleBaseError, match=want):
        load_rulebase(syn_lexicon_file=str(path))


def test_syn_lexicon_features_column():
    rb = load_rulebase(syn_lexicon_file=fixture_path("syn_lexicon.tsv"))
    entry = rb.syn_lexicon["nigatsu"][0]
    month = entry.features.get(("syn", "month-index"))
    assert month.atom_value == "2"


def test_bilingual_alternatives_split():
    rb = load_rulebase(bilingual_file=fixture_path("bilingual.tsv"))
    assert rb.bilingual["tabetai"][0].translations == [
        "wants to eat",
        "want to eat",
    ]


def test_validate_reports_missing_counterpart():
    rb = RuleBase()
    parse_rule_file("((S -> NP VP) (X0 = X1))", "syntax", rb)
    report = validate_rulebase(rb, "gloss")
    assert any("missing gloss" in line for line in report)
    report2 = validate_rulebase(rb, "interlingua")
    assert any("missing semantics" in line for line in report2)


def test_validate_reports_out_of_range_variable():
    rb = RuleBase()
    parse_rule_file("((NP -> N) (X0 = X2))", "syntax", rb)
    report = validate_rulebase(rb, "interlingua")
    assert any("X2" in line and "arity 1" in line for line in report)


def test_validate_clean_fixture():
    rb = load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        gloss_file=fixture_path("gloss.rules"),
    )
    for mode in ("gloss", "interlingua"):
        assert validate_rulebase(rb, mode) == []


def test_validate_rejects_bad_mode():
    with pytest.raises(ValueError):
        validate_rulebase(RuleBase(), "syntax")


def test_shipped_sets_that_only_collect_child_values_get_a_graft_plan():
    rb = load_rulebase(
        grammar_file=fixture_path("grammar.rules"),
        sem_file=fixture_path("sem.rules"),
        gloss_file=fixture_path("gloss.rules"),
    )
    solver = sorted(
        (kind, repr(key))
        for key, rule in rb.rules.items()
        for kind in ("syntax", "semantics", "gloss")
        for eqset in rule.sets(kind)
        if eqset.plan is None
    )
    # every shipped set grafts: where left-hand paths nest, as with
    # (X0 syn topic) under (X0 syn) and in three sem sets, X0 extends a
    # copy of the child's node at the shorter path
    assert solver == []
