from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt import sexpr
from hybridmt.sexpr import QuotedString, dump, parse_all

# the syntax has no escape for "|" inside a pipe-quoted symbol
_symbols = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="|"), min_size=1
)
_atoms = st.one_of(
    _symbols,
    st.text(st.characters(blacklist_categories=("Cs",))).map(QuotedString),
    st.sampled_from(["", "(", ")", QuotedString("("), QuotedString(")")]),
)
_exprs = st.recursive(_atoms, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


def _typed(expr):
    if isinstance(expr, list):
        return [_typed(e) for e in expr]
    return (type(expr).__name__, str(expr))


@settings(max_examples=300, deadline=None)
@given(_exprs)
def test_dump_parse_roundtrip_keeps_atom_types(expr):
    assert [_typed(e) for e in parse_all(dump(expr))] == [_typed(expr)]


def _needs_pipes_by_character(atom):
    """The character-loop definition of when an atom prints pipe-quoted."""
    if atom == "":
        return True
    return any(c.isspace() or c in '()"|;' for c in atom)


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        st.one_of(
            st.characters(blacklist_categories=("Cs",)),
            # delimiters and ASCII and Unicode whitespace
            st.sampled_from(list('()"|; \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000')),
        )
    )
)
def test_needs_pipes_matches_character_loop(atom):
    assert sexpr._needs_pipes(atom) == _needs_pipes_by_character(atom)


def test_records_skip_blank_and_comment_lines_and_locate_the_rest():
    text = "a\tb\n\n   \n# note\n  # indented note\n\tc # not a comment\n"
    assert list(sexpr.records(text, "f.tsv")) == [
        ("f.tsv:1", "a\tb"),
        ("f.tsv:6", "\tc # not a comment"),
    ]
