import pytest

from hybridmt import lattice_lm as wl, sexpr
from hybridmt.realizer import (
    DEFAULT_PREPOSITIONS,
    MONTH_NAMES,
    RealizeError,
    parse_gen_lexicon,
    realize,
)
from hybridmt.semantics import parse_spl

from conftest import fixture_path

DEMO_SPL = """
(|h-1| / |have as a goal|
 :SENSER (|c-2| / |company/business|)
 :PHENOMENON (|f-3| / |found, launch|
              :TEMPORAL-LOCATING (|m-4| / |calendar month| :MONTH-INDEX 2)
              :AGENT |c-2|)
 :THEME |c-2|)
"""


@pytest.fixture(scope="module")
def lex():
    return parse_gen_lexicon(sexpr.read_text(fixture_path("gen_lexicon.tsv")))


def _paths(lat):
    paths, truncated = wl.all_paths(lat)
    assert not truncated
    return {tuple(p) for p in paths}


# -- lexicon -----------------------------------------------------------

def test_parse_gen_lexicon_strips_pipes(lex):
    assert "have as a goal" in lex
    assert lex["have as a goal"].lemma == "plan"
    assert lex["have as a goal"].category == "verb"


def test_parse_gen_lexicon_countability_and_preps():
    table = parse_gen_lexicon(
        "water\twater\tnoun\t-\n"
        "trip\ttrip\tnoun\t+\ttemporal-locating=during;location=in\n"
    )
    assert table["water"].countable is False
    assert table["trip"].countable is True
    assert table["trip"].preps == {"temporal-locating": "during", "location": "in"}


def test_parse_gen_lexicon_rejects_bad_rows():
    with pytest.raises(RealizeError):
        parse_gen_lexicon("onlyone\tcolumns\n")
    with pytest.raises(RealizeError):
        parse_gen_lexicon("c\tlemma\tadverbial\n")
    with pytest.raises(RealizeError):
        parse_gen_lexicon("c\tlemma\tnoun\t+\tnot-a-pair\n")


# -- realization -------------------------------------------------------

def test_demo_realization_branches_over_prepositions(lex):
    lat = realize(parse_spl(DEMO_SPL), lex)
    want = {
        ("The", "company", "plans", "the", "launching", p, "February", ".")
        for p in DEFAULT_PREPOSITIONS
    }
    assert _paths(lat) == want


def test_realize_deterministic(lex):
    a = wl.dump_lattice(realize(parse_spl(DEMO_SPL), lex))
    b = wl.dump_lattice(realize(parse_spl(DEMO_SPL), lex))
    assert a == b


def test_default_article_and_tense(lex):
    lat = realize(parse_spl("(|e| / ingest :AGENT (|p| / |named person|))"), lex)
    assert _paths(lat) == {("The", "John", "eats", ".")}


def test_indefinite_article(lex):
    lat = realize(
        parse_spl("(|c| / |company/business| :DEFINITENESS indefinite)"), lex
    )
    assert _paths(lat) == {("A", "company", ".")}


def test_past_tense(lex):
    from hybridmt.glosser import parse_irregulars

    irregulars = parse_irregulars(sexpr.read_text(fixture_path("irregulars.tsv")))
    lat = realize(
        parse_spl("(|e| / ingest :TENSE past :AGENT (|p| / |named person|))"),
        lex,
        irregulars=irregulars,
    )
    assert _paths(lat) == {("The", "John", "ate", ".")}


def test_event_argument_realized_as_clause(lex):
    lat = realize(
        parse_spl(
            "(|h| / |have as a goal|"
            " :SENSER (|c| / |company/business|)"
            " :PHENOMENON (|e| / ingest))"
        ),
        lex,
    )
    assert _paths(lat) == {("The", "company", "plans", "to", "eat", ".")}


def test_month_names_table(lex):
    assert MONTH_NAMES[1] == "February"
    lat = realize(parse_spl("(|e| / ingest :AGENT (|m| / |calendar month| :MONTH-INDEX 12))"), lex)
    assert _paths(lat) == {("December", "eats", ".")}


def test_month_index_out_of_range(lex):
    with pytest.raises(RealizeError):
        realize(parse_spl("(|m| / |calendar month| :MONTH-INDEX 13)"), lex)


def test_preferred_preposition_suppresses_branching():
    table = parse_gen_lexicon(
        "ingest\teat\tverb\t+\ttemporal-locating=during\n"
        "|calendar month|\tmonth\tnoun\t+\n"
        "|named person|\tJohn\tnoun\t+\n"
    )
    lat = realize(
        parse_spl(
            "(|e| / ingest :AGENT (|p| / |named person|)"
            " :TEMPORAL-LOCATING (|m| / |calendar month|))"
        ),
        table,
    )
    assert _paths(lat) == {("The", "John", "eats", "during", "the", "month", ".")}


def test_missing_entries_listed_sorted(lex):
    with pytest.raises(RealizeError) as err:
        realize(parse_spl("(|a| / zzz :R (|b| / aaa))"), lex)
    assert "aaa, zzz" in str(err.value)


def test_reentrant_filler_realized_once(lex):
    lat = realize(parse_spl(DEMO_SPL), lex)
    for path in _paths(lat):
        assert path.count("company") == 1


def test_single_noun_graph(lex):
    lat = realize(parse_spl("(|c| / |company/business|)"), lex)
    assert _paths(lat) == {("The", "company", ".")}


def test_unrealizable_root_category():
    table = parse_gen_lexicon("big\tbig\tadjective\n")
    with pytest.raises(RealizeError):
        realize(parse_spl("(|b| / big)"), table)


def test_lemma_on_every_path(lex):
    lat = realize(parse_spl(DEMO_SPL), lex)
    for path in _paths(lat):
        assert "plans" in path
        assert path[-1] == "."
        assert path[0][0].isupper()


ADJECTIVE_LEX = (
    "|have as a goal|\tplan\tverb\n"
    "ingest\teat\tverb\n"
    "|domestic cat|\tcat\tnoun\t+\n"
    "|calendar month|\tmonth\tnoun\t+\n"
    "black\tblack\tadjective\n"
    "quick\tquick\tadjective\n"
)


def test_adjective_precedes_its_noun():
    lat = realize(
        parse_spl("(|e| / ingest :AGENT (|c| / |domestic cat| :COLOR (|b| / black)))"),
        parse_gen_lexicon(ADJECTIVE_LEX),
    )
    assert _paths(lat) == {("The", "black", "cat", "eats", ".")}


def test_adjective_on_a_clause_or_month_is_not_realized():
    lat = realize(
        parse_spl(
            "(|h| / |have as a goal|"
            " :SENSER (|c| / |domestic cat|)"
            " :PHENOMENON (|e| / ingest :MANNER (|q| / quick)))"
        ),
        parse_gen_lexicon(ADJECTIVE_LEX),
    )
    assert _paths(lat) == {("The", "cat", "plans", "to", "eat", ".")}
    lat = realize(
        parse_spl("(|m| / |calendar month| :MONTH-INDEX 2 :COLOR (|b| / black))"),
        parse_gen_lexicon(ADJECTIVE_LEX),
    )
    assert _paths(lat) == {("February", ".")}


def test_parse_gen_lexicon_skips_empty_preposition_items():
    table = parse_gen_lexicon("trip\ttrip\tnoun\t+\ttemporal-locating=during;;location=in;\n")
    assert table["trip"].preps == {"temporal-locating": "during", "location": "in"}
