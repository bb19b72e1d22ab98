from hypothesis import given, settings
from hypothesis import strategies as st

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
