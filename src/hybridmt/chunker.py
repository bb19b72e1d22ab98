"""Pre-parsing transformations: resegmentation, pattern matching and
phrase-barrier insertion.

The chunker never deletes or reorders real tokens; it may merge adjacent
tokens (numbers, dictionary compounds) and insert
barrier pseudo-tokens such as ``BEGIN-NP``/``END-NP`` that the parser
uses to forbid constituents from straddling phrase boundaries.

Patterns come from a parenthesized pattern file.  Two entry forms:

  (VP-BEGIN == (is TOPIC-LEAD))                ; category alias
  (VP (VP-BEGIN < ANY1+ > VP-END) :left <<VP :right VP>>)

Pattern elements are a tag literal (``HA``), a one-or-more quantified
tag (``N+``), the wildcard ``ANY1+``, anchor delimiters ``<`` ``>``, or
the tail symbol ``~`` (skip to the next comma or the end of the
sentence).  ``:left``/``:right`` directives insert begin/end markers at
the match edges, or around the anchor region when anchors are present.
``chunk`` tries the patterns in file order at each position and keeps
the first match.  A pattern is a flat sequence of elements, so one
``match_table`` per pattern and line holds its longest match from
every start, at one step per element per token: nothing backtracks.
``match_pattern`` lets an element accept a whole span claimed under a
name the element accepts, but ``chunk`` keeps no claims: each would
start where its left-to-right scan has already been, so a pattern
cannot yet use another pattern's span.
"""

from . import sexpr


class PatternError(ValueError):
    """Malformed chunk pattern, rejected at load time."""


class TokenError(ValueError):
    """A token line item that makes no token, such as ``/N``."""


class Token:
    __slots__ = ("surface", "tag", "marker", "marker_cat", "marker_side")

    def __init__(self, surface, tag="", marker=False, marker_cat=None, marker_side=None):
        self.surface = surface
        self.tag = tag
        self.marker = marker
        self.marker_cat = marker_cat
        self.marker_side = marker_side

    @staticmethod
    def begin(cat):
        return Token("BEGIN-%s" % cat, "MARKER", True, cat, "begin")

    @staticmethod
    def end(cat):
        return Token("END-%s" % cat, "MARKER", True, cat, "end")

    def __eq__(self, other):
        return isinstance(other, Token) and (
            self.surface,
            self.tag,
            self.marker,
            self.marker_cat,
            self.marker_side,
        ) == (other.surface, other.tag, other.marker, other.marker_cat, other.marker_side)

    def __repr__(self):
        if self.marker:
            return "<%s>" % self.surface
        return "%s/%s" % (self.surface, self.tag)


def parse_token_line(line):
    """Parse ``surface/POS`` tokens; bare BEGIN-X/END-X words are markers.
    An item with an empty surface (``/`` or ``/N``) is a ``TokenError``
    naming the item and its 1-based position."""
    tokens = []
    for position, item in enumerate(line.split(), 1):
        if "/" in item:
            surface, _, tag = item.rpartition("/")
            if not surface:
                raise TokenError("item %d %r: token surface must be non-empty" % (position, item))
            tokens.append(Token(surface, tag))
        elif item.startswith("BEGIN-") and len(item) > 6:
            tokens.append(Token.begin(item[6:]))
        elif item.startswith("END-") and len(item) > 4:
            tokens.append(Token.end(item[4:]))
        else:
            tokens.append(Token(item))
    return tokens


def render_token_line(tokens):
    return " ".join(
        "%s/%s" % (t.surface, t.tag) if t.tag and not t.marker else t.surface for t in tokens
    )


# ---------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------

class ChunkPattern:
    def __init__(self, name, elements, left_label=None, right_label=None):
        self.name = name
        self.elements = list(elements)
        self.left_label = left_label
        self.right_label = right_label
        anchors = [e for e in elements if e in ("<", ">")]
        if anchors not in ([], ["<", ">"]):
            raise PatternError("pattern %s: at most one < > anchor region" % name)
        for e in elements:
            if e.endswith("+") and e != "ANY1+" and len(e) == 1:
                raise PatternError("pattern %s: bare quantifier" % name)
        if "~" in elements and elements.index("~") != len(elements) - 1:
            raise PatternError("pattern %s: ~ must be the last element" % name)

    def __repr__(self):
        return "ChunkPattern(%s)" % self.name


def _marker_label(raw):
    # accept <<VP, VP>>, or a plain label
    if raw.startswith("<<"):
        return raw[2:]
    if raw.endswith(">>"):
        return raw[:-2]
    return raw


class PatternSet:
    """Ordered patterns plus category alias definitions."""

    def __init__(self):
        self.patterns = []
        self.aliases = {}
        self._closures = {}

    def expand(self, name):
        """Alias closure: all tags/pattern names a given element accepts.
        Each name's closure is resolved once per pattern set, on its
        first query, so the aliases must be complete by then."""
        closure = self._closures.get(name)
        if closure is None:
            out, todo = set(), [name]
            while todo:
                item = todo.pop()
                if item not in out:
                    out.add(item)
                    todo.extend(self.aliases.get(item, ()))
            closure = self._closures[name] = frozenset(out)
        return closure


def load_patterns(text, filename="<string>"):
    try:
        exprs = sexpr.parse_all(text)
    except sexpr.SexprError as err:
        raise PatternError("%s: %s" % (filename, err))
    pset = PatternSet()
    for expr in exprs:
        if not isinstance(expr, list) or len(expr) < 2 or not isinstance(expr[0], str):
            raise PatternError("%s: malformed pattern entry %r" % (filename, expr))
        name = expr[0]
        if expr[1] == "==":
            alias = expr[2] if len(expr) == 3 and isinstance(expr[2], list) else []
            if len(alias) != 2 or alias[0] != "is" or not isinstance(alias[1], str):
                raise PatternError("%s: alias must be (NAME == (is CAT))" % filename)
            pset.aliases.setdefault(name, set()).add(alias[1])
            continue
        if not isinstance(expr[1], list):
            raise PatternError("%s: pattern %s needs an element list" % (filename, name))
        elements = expr[1]
        if not all(isinstance(e, str) for e in elements):
            raise PatternError("%s: pattern %s has non-atomic elements" % (filename, name))
        left = right = None
        rest = expr[2:]
        while rest:
            label = rest[1] if len(rest) >= 2 and isinstance(rest[1], str) else None
            if rest[0] == ":left" and label is not None:
                left = _marker_label(label)
            elif rest[0] == ":right" and label is not None:
                right = _marker_label(label)
            else:
                raise PatternError("%s: bad directive %r in %s" % (filename, rest[0], name))
            rest = rest[2:]
        try:
            pset.patterns.append(ChunkPattern(name, elements, left, right))
        except PatternError as err:
            raise PatternError("%s: %s" % (filename, err)) from None
    return pset


# ---------------------------------------------------------------------
# Resegmentation
# ---------------------------------------------------------------------

class CompoundDictionary(dict):
    """Compound surface -> POS that holds the length of its longest
    surface, so ``resegment`` never scans it.  Every way of adding an
    entry (construction, item assignment, ``update``, ``setdefault``,
    ``|=``) keeps the length.  It never shrinks: after a deletion it is
    an upper bound, which stops no match."""

    longest = 0

    def __init__(self, *args, **kwargs):
        super().__init__()
        if args or kwargs:
            self.update(*args, **kwargs)

    def __setitem__(self, surface, pos):
        super().__setitem__(surface, pos)
        self.longest = max(self.longest, len(surface))

    def update(self, *args, **kwargs):
        for surface, pos in dict(*args, **kwargs).items():
            self[surface] = pos

    def setdefault(self, surface, pos=None):
        if surface not in self:
            self[surface] = pos
        return self[surface]

    def __ior__(self, other):
        self.update(other)
        return self


def resegment(tokens, compounds=None):
    """Merge digit runs and dictionary compounds.

    Maximal adjacent digit runs become one number token; then the
    longest adjacent run whose concatenation appears in the compound
    dictionary is merged, longest match first, scanning left to right.
    ``compounds`` is a ``CompoundDictionary``: it holds the length of
    its longest surface, so no run grows past it.
    """
    if compounds is None:
        compounds = CompoundDictionary()
    longest = compounds.longest

    merged = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if not t.marker and t.surface.isdigit():
            j = i
            while j < len(tokens) and not tokens[j].marker and tokens[j].surface.isdigit():
                j += 1
            merged.append(Token("".join(tok.surface for tok in tokens[i:j]), "NUMBER"))
            i = j
        else:
            merged.append(t)
            i += 1

    out = []
    i = 0
    while i < len(merged):
        if merged[i].marker:
            out.append(merged[i])
            i += 1
            continue
        best = None
        run = ""
        for j in range(i, len(merged)):
            if merged[j].marker:
                break
            run += merged[j].surface
            if len(run) > longest:
                break
            if j > i and run in compounds:
                best = (j + 1, compounds[run])
        if best is not None:
            end, pos = best
            out.append(Token("".join(t.surface for t in merged[i:end]), pos))
            i = end
        else:
            out.append(merged[i])
            i += 1
    return out


# ---------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------

def _longer(a, b):
    """The match that ends further; ``a`` keeps a tie."""
    return b if b is not None and (a is None or b[0] > a[0]) else a


def match_table(pattern, tokens, pset, spans=None):
    """The longest match of ``pattern`` from every start: a list, indexed
    by start, of ``(end, anchor_start, anchor_end)`` or None.

    ``spans`` maps a start to earlier ``(end, name)`` claims, each one
    step for an element that accepts ``name``: a single element tries
    the claims before the token, a ``+`` element the token before the
    first claim.  Of the matches that tie on their end, the one whose
    elements step furthest, first to last, keeps its anchors.

    One row per element, last element first, holds the longest match of
    the elements from it on, filled in one right-to-left sweep from the
    row after it.  A ``+`` element's run from a position is one step,
    then its run from where that step ends.  So no element costs more
    than one step per token, and ``PatternSet.expand`` is read once per
    element.
    """
    spans = spans or {}
    n = len(tokens)
    best = [(pos, None, None) for pos in range(n + 1)]
    for element in reversed(pattern.elements):
        row = [None] * (n + 1)
        if element in ("<", ">"):
            for pos, got in enumerate(best):
                if got is not None:
                    row[pos] = (got[0], pos, got[2]) if element == "<" else (got[0], None, pos)
        elif element == "~":
            stop = n
            for pos in range(n, -1, -1):
                if pos < n and tokens[pos].tag == "COMMA":
                    stop = pos
                row[pos] = best[stop]
        elif element == "ANY1+":
            # one or more of anything, markers included
            run = None
            for pos in range(n, -1, -1):
                row[pos] = run
                run = _longer(run, best[pos])
        else:
            quantified = element.endswith("+")
            accepted = pset.expand(element[:-1] if quantified else element)
            for pos in range(n - 1, -1, -1):
                token = tokens[pos]
                fits = not token.marker and token.tag in accepted
                claims = ()
                if pos in spans:
                    claims = [end for end, name in spans[pos] if name in accepted]
                if quantified:
                    step = pos + 1 if fits else (claims[0] if claims else None)
                    if step is not None:
                        row[pos] = _longer(row[step], best[step])
                    continue
                got = None
                for end in claims:
                    got = _longer(got, best[end])
                if fits:
                    got = _longer(got, best[pos + 1])
                row[pos] = got
        best = row
    return best


def match_pattern(pattern, tokens, start, pset, spans=None):
    """The ``match_table`` entry of ``start``: the longest span the
    pattern accepts from there, as ``(end, anchor_start, anchor_end)``,
    or None."""
    if not 0 <= start <= len(tokens):
        raise IndexError("start index out of bounds")
    return match_table(pattern, tokens, pset, spans)[start]


def chunk(tokens, pset):
    """Apply patterns left to right, first match wins, non-overlapping.

    Each pattern's ``match_table`` is built once per line; the scan then
    takes, at each start, the first pattern in file order whose match
    ends past it, and goes on from that end.  A claim would only ever
    start where the scan has already been, so none is kept.

    Barrier directives insert marker tokens at the match edges (or
    around the anchor region).  Non-marker tokens pass through unchanged
    and in order.
    """
    tables = [(pattern, match_table(pattern, tokens, pset)) for pattern in pset.patterns]
    inserts = {}  # index -> [marker tokens]
    pos = 0
    while pos < len(tokens):
        for pattern, table in tables:
            got = table[pos]
            if got is not None and got[0] > pos:
                end, astart, aend = got
                if pattern.left_label:
                    left_at = astart if astart is not None else pos
                    inserts.setdefault(left_at, []).append(Token.begin(pattern.left_label))
                if pattern.right_label:
                    right_at = aend if aend is not None else end
                    inserts.setdefault(right_at, []).insert(0, Token.end(pattern.right_label))
                pos = end
                break
        else:
            pos += 1

    out = []
    for i, token in enumerate(tokens):
        out.extend(inserts.get(i, ()))
        out.append(token)
    out.extend(inserts.get(len(tokens), ()))
    return out
