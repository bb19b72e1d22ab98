"""Parenthesized-expression reader and printer.

All knowledge files (grammar rules, chunk patterns, feature structures,
meaning-graph text) share one surface syntax: nested parenthesized lists
of atoms.  Atoms come in three spellings:

  - bare symbols        (NP, *OR*, ta-form, op1, =c)
  - quoted strings      ("John", "wants")
  - pipe-quoted symbols (|have as a goal|, |found, launch|)

Quoted strings are kept distinct from symbols via the ``QuotedString``
subclass so downstream code can tell target-language text apart from
grammar symbols.  Lines may carry ``;`` comments.

``parse_all`` takes every token of a text from one pass of one regular
expression and sorts each by its text alone.  Only when it is about to
raise does it walk the tokens again, with their offsets, to the one at
fault: an error names the line of the offending character, counting
every newline before it, newlines inside a quoted atom included.

``read_text`` opens a knowledge file; only ``pipeline`` and
``rulebase.load_rulebase`` call it, and every resource parser takes the
text and a filename.  ``records`` yields a line-oriented file's record
lines (lexicons, taxonomy, generation lexicon, irregular verbs, word
lists, config), each with the ``file:line`` that prefixes its errors.
"""

import re


class SexprError(ValueError):
    """Malformed parenthesized input; carries a position message."""


class QuotedString(str):
    """An atom that was written with double quotes."""

    __slots__ = ()


# an atom holding whitespace or a delimiter prints pipe-quoted
_PIPED_CHAR = re.compile(r'[\s()"|;]')
# Space and ``;`` comments, then one token in the one group: a
# parenthesis, a "string" in which a backslash escapes the next character,
# a |symbol|, a bare symbol, or the lone opening quote of an unterminated
# string or |symbol|.  At the end of the text the empty ``\Z`` stands in
# for the token, so the skip never gives back part of a comment to be read
# as a symbol.
_TOKEN = re.compile(
    r'\s*(?:;[^\n]*\s*)*'
    r'(\(|\)|"[^"\\]*(?:\\.[^"\\]*)*"|\|[^|]*\||[^\s()"|;]+|["|]|\Z)',
    re.S,
)
_ESCAPED = re.compile(r"\\(.)", re.S)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _raise_at_first_bad_token(text):
    """Walk the tokens again, with their offsets, to the first one that
    ``parse_all`` cannot take, and raise its error."""
    depth = 0
    for match in _TOKEN.finditer(text):
        token = match.group(1)
        if token == "(":
            depth += 1
        elif token == ")":
            if not depth:
                raise SexprError("unbalanced ')' at line %d" % _line_of(text, match.start(1)))
            depth -= 1
        elif token == '"' or token == "|":
            raise SexprError(
                "unterminated %s at line %d"
                % ("string" if token == '"' else "|atom|", _line_of(text, match.start(1)))
            )


def parse_all(text):
    """Parse every top-level expression in ``text`` into nested lists."""
    # ``top`` is the list being filled; ``stack`` holds the ones it is in
    stack = []
    top = []
    for token in _TOKEN.findall(text):
        if token == "(":
            stack.append(top)
            top = []
        elif token == ")":
            if not stack:
                _raise_at_first_bad_token(text)
            done = top
            top = stack.pop()
            top.append(done)
        elif token:  # "" is the end of the text
            first = token[0]
            if first == '"':
                if len(token) == 1:
                    _raise_at_first_bad_token(text)
                token = token[1:-1]
                top.append(QuotedString(_ESCAPED.sub(r"\1", token) if "\\" in token else token))
            elif first == "|":
                if len(token) == 1:
                    _raise_at_first_bad_token(text)
                top.append(token[1:-1])
            else:
                top.append(token)
    if stack:
        raise SexprError("unbalanced '(': %d open at end of input" % len(stack))
    return top


def parse_one(text):
    exprs = parse_all(text)
    if len(exprs) != 1:
        raise SexprError("expected exactly one expression, got %d" % len(exprs))
    return exprs[0]


def read_text(path):
    """The whole text of a UTF-8 knowledge file."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def records(text, filename="<string>"):
    """Yield ``(where, line)`` per record line, ``where`` being
    ``"filename:lineno"``; blank lines and lines whose first non-blank
    character is ``#`` are skipped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        head = line.lstrip()
        if head and head[0] != "#":
            yield "%s:%d" % (filename, lineno), line


def _needs_pipes(atom):
    return atom == "" or _PIPED_CHAR.search(atom) is not None


def dump(expr):
    """Render a nested-list expression back to text (single line)."""
    if isinstance(expr, QuotedString):
        return '"%s"' % str(expr).replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(expr, str):
        return "|%s|" % expr if _needs_pipes(expr) else expr
    return "(" + " ".join(dump(e) for e in expr) + ")"
