import pytest
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


# The character-loop reader that ``parse_all`` replaced, kept as its
# reference.  It counted lines outside atoms only; the regular-expression
# reader counts every newline before the offending character.
_DELIMS = set('()"|;')
_OPEN, _CLOSE = object(), object()


def _reference_tokenize(text):
    line, i, n = 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            yield (_OPEN if ch == "(" else _CLOSE), line
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= n:
                raise sexpr.SexprError("unterminated string at line %d" % line)
            yield QuotedString("".join(buf)), line
            i = j + 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise sexpr.SexprError("unterminated |atom| at line %d" % line)
            yield text[i + 1 : j], line
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS:
                j += 1
            yield text[i:j], line
            i = j


def _reference_parse_all(text):
    stack = [[]]
    for tok, line in _reference_tokenize(text):
        if tok is _OPEN:
            stack.append([])
        elif tok is _CLOSE:
            if len(stack) == 1:
                raise sexpr.SexprError("unbalanced ')' at line %d" % line)
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise sexpr.SexprError("unbalanced '(': %d open at end of input" % (len(stack) - 1))
    return stack[0]


def _outcome(read, text):
    """Typed expressions, or the error message with its line number
    split off."""
    try:
        return [_typed(e) for e in read(text)], None
    except sexpr.SexprError as err:
        message, _, line = str(err).partition(" at line ")
        return message, int(line) if line else None


def _offending_line(text):
    """1 plus the newlines before the first character the reader cannot
    take: an unmatched ')' or the quote opening an unterminated atom."""
    depth, i = 0, 0
    while i < len(text):
        ch = text[i]
        if ch == ";":
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
            continue
        if ch == '"':
            j = i + 1
            while j < len(text) and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= len(text):
                return text.count("\n", 0, i) + 1
            i = j
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                return text.count("\n", 0, i) + 1
            i = j
        elif ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                return text.count("\n", 0, i) + 1
            depth -= 1
        i += 1
    return None


_READER_TEXT = st.text(
    st.one_of(
        st.sampled_from(list('()"|;\\\n \t\r\x0b\x0c\x1c\x85\xa0 　')),
        st.characters(whitelist_categories=("Ll", "Lu", "Lo")),
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(_READER_TEXT)
def test_reader_matches_the_character_loop_reference(text):
    got, line = _outcome(parse_all, text)
    want, _ = _outcome(_reference_parse_all, text)
    assert got == want
    assert line == _offending_line(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('"a\nb" )', "unbalanced ')' at line 2"),
        ('|a\nb|\n\n)', "unbalanced ')' at line 4"),
        ('(x ; note\n "a\n  b"\n)\n"open', "unterminated string at line 5"),
        ('x\n|open\n', "unterminated |atom| at line 2"),
    ],
)
def test_error_line_counts_every_newline_before_the_offending_character(text, message):
    with pytest.raises(sexpr.SexprError) as err:
        parse_all(text)
    assert str(err.value) == message


def test_a_trailing_comment_reads_as_nothing():
    assert parse_all("(a) ; b c") == [["a"]]
    assert parse_all("; only\n;; comments") == []
