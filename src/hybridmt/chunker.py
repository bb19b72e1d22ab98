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
the first match.  ``match_pattern`` lets an element accept a whole
span claimed under a name the element accepts, but ``chunk`` records
each claim at its start, which its left-to-right scan has already
passed, so a pattern cannot yet use another pattern's span.
"""

from . import sexpr


class PatternError(ValueError):
    """Malformed chunk pattern, rejected at load time."""


class TokenError(ValueError):
    """A token line item that makes no token, such as ``/N``."""


class Token:
    __slots__ = ("surface", "tag", "marker", "marker_cat", "marker_side")

    def __init__(self, surface, tag="", marker=False, marker_cat=None, marker_side=None):
        if not surface:
            raise ValueError("token surface must be non-empty")
        if marker and not marker_cat:
            raise ValueError("marker tokens must carry a category")
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

def match_pattern(pattern, tokens, start, pset, spans=None):
    """Longest span accepted by the pattern starting at ``start``.

    Returns ``(end, anchor_start, anchor_end)`` or None.  ``spans`` maps
    a start index to earlier ``(end, name)`` matches usable as single
    elements.
    """
    if spans is None:
        spans = {}
    if not 0 <= start <= len(tokens):
        raise IndexError("start index out of bounds")
    return _walk(pattern.elements, tokens, pset, spans, start, 0, None, None, None)


def _walk(elements, tokens, pset, spans, pos, elem_index, anchor_start, anchor_end, best):
    """``match_pattern``'s search from ``pos`` with ``elements[elem_index:]``
    left: ``best``, the ``(end, anchor_start, anchor_end)`` found so far,
    or a match found here that ends further (the first found keeps a
    tie).  It is a module-level function, so unlike a closure that calls
    itself it leaves no reference cycle."""
    if elem_index == len(elements):
        if best is None or pos > best[0]:
            return (pos, anchor_start, anchor_end)
        return best
    element = elements[elem_index]
    if element == "<":
        return _walk(elements, tokens, pset, spans, pos, elem_index + 1, pos, anchor_end, best)
    if element == ">":
        return _walk(elements, tokens, pset, spans, pos, elem_index + 1, anchor_start, pos, best)
    if element == "~":
        end = pos
        while end < len(tokens) and tokens[end].tag != "COMMA":
            end += 1
        return _walk(
            elements, tokens, pset, spans, end, len(elements), anchor_start, anchor_end, best
        )
    if element == "ANY1+":
        # one or more of anything (markers included); try longest first
        for end in range(len(tokens), pos, -1):
            best = _walk(
                elements, tokens, pset, spans, end, elem_index + 1, anchor_start, anchor_end, best
            )
        return best
    quantified = element.endswith("+")
    base = element[:-1] if quantified else element
    # a whole earlier span labeled with an accepted name counts as
    # one element
    accepted = pset.expand(base)
    if quantified:
        ends = []
        cur = pos
        while True:
            if cur < len(tokens) and not tokens[cur].marker and tokens[cur].tag in accepted:
                cur += 1
                ends.append(cur)
                continue
            extended = False
            for end, name in spans.get(cur, []):
                if name in accepted:
                    cur = end
                    ends.append(cur)
                    extended = True
                    break
            if not extended:
                break
        ends.reverse()
    else:
        ends = [end for (end, name) in spans.get(pos, []) if name in accepted]
        if pos < len(tokens) and not tokens[pos].marker and tokens[pos].tag in accepted:
            ends.append(pos + 1)
    for end in ends:
        best = _walk(
            elements, tokens, pset, spans, end, elem_index + 1, anchor_start, anchor_end, best
        )
    return best


def chunk(tokens, pset):
    """Apply patterns left to right, first match wins, non-overlapping.

    Barrier directives insert marker tokens at the match edges (or
    around the anchor region).  Non-marker tokens pass through unchanged
    and in order.
    """
    matches = []  # (start, end, pattern, anchor_start, anchor_end)
    spans = {}  # start -> [(end, name)]
    pos = 0
    while pos < len(tokens):
        hit = None
        for pattern in pset.patterns:
            got = match_pattern(pattern, tokens, pos, pset, spans)
            if got is not None and got[0] > pos:
                hit = (pattern, got)
                break
        if hit is None:
            pos += 1
            continue
        pattern, (end, astart, aend) = hit
        matches.append((pos, end, pattern, astart, aend))
        spans.setdefault(pos, []).append((end, pattern.name))
        pos = end

    inserts = {}  # index -> [marker tokens]
    for start, end, pattern, astart, aend in matches:
        left_at = astart if astart is not None else start
        right_at = aend if aend is not None else end
        if pattern.left_label:
            inserts.setdefault(left_at, []).append(Token.begin(pattern.left_label))
        if pattern.right_label:
            inserts.setdefault(right_at, []).insert(0, Token.end(pattern.right_label))

    out = []
    for i, token in enumerate(tokens):
        for marker in inserts.get(i, ()):
            out.append(marker)
        out.append(token)
    for marker in inserts.get(len(tokens), ()):
        out.append(marker)
    return out
