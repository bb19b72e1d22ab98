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

The line-oriented knowledge files (lexicons, taxonomy, generation
lexicon, irregular verbs, word lists, config) are read here too:
``read_text`` opens one and ``records`` yields its record lines, each
with the ``file:line`` that prefixes that row's errors.
"""

import re


class SexprError(ValueError):
    """Malformed parenthesized input; carries a position message."""


class QuotedString(str):
    """An atom that was written with double quotes."""

    __slots__ = ()


_DELIMS = set('()"|;')
# an atom holding whitespace or a delimiter prints pipe-quoted
_PIPED_CHAR = re.compile(r"[\s%s]" % re.escape("".join(sorted(_DELIMS))))
# bare parentheses are structure; these equal no atom, not even |(|
OPEN, CLOSE = object(), object()


def tokenize(text):
    """Yield (token, line, col) triples; bare parens yield OPEN/CLOSE."""
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "()":
            yield (OPEN if ch == "(" else CLOSE), start_line, start_col
            i += 1
            col += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= n:
                raise SexprError("unterminated string at line %d" % start_line)
            yield QuotedString("".join(buf)), start_line, start_col
            col += j + 1 - i
            i = j + 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SexprError("unterminated |atom| at line %d" % start_line)
            yield text[i + 1 : j], start_line, start_col
            col += j + 1 - i
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS:
                j += 1
            yield text[i:j], start_line, start_col
            col += j - i
            i = j


def parse_all(text):
    """Parse every top-level expression in ``text`` into nested lists."""
    stack = [[]]
    for tok, line, _col in tokenize(text):
        if tok is OPEN:
            stack.append([])
        elif tok is CLOSE:
            if len(stack) == 1:
                raise SexprError("unbalanced ')' at line %d" % line)
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SexprError("unbalanced '(': %d open at end of input" % (len(stack) - 1))
    return stack[0]


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
