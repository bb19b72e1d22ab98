"""Reference implementations that the tests check the product against.

Nothing in ``src/hybridmt`` or ``bench/`` calls these.  Each is the
plain or pairwise form of a job the product does in one pass, written
without the product's private helpers, so that the two stay independent:
``from_phrase``, ``concat`` and ``alternate`` are the pairwise lattice
algebra, and ``concat_all`` and ``alternate_all`` their left folds,
whose lattices spell the same paths as those ``lattice_lm.layout``
writes with fewer nodes; ``path_words`` lists those paths without
deduplicating them; ``out_edges`` and ``topological_order`` list and
order a lattice's edges without ``lattice_lm._edge_pass``,
``enumerate_trees`` unpacks the forest that ``count_trees`` only
counts, and ``match_pattern`` and ``chunk`` search each start of a
chunk pattern by backtracking where ``chunker.match_table`` fills one
table for every start.
"""

from functools import reduce

from hybridmt import sexpr
from hybridmt.chunker import Token
from hybridmt.featstruct import parse_featstruct_expr
from hybridmt.lattice_lm import EPS, WordLattice


# -- feature structures and rules ------------------------------------------

def parse_featstruct(text):
    """Parse the textual feature-structure syntax (paper-style parens)."""
    return parse_featstruct_expr(sexpr.parse_one(text))


def validate_rulebase(rb, mode):
    """Report syntax backbones missing their gloss/semantic counterpart.
    A set naming a variable beyond its backbone never gets this far:
    ``rulebase.parse_rule_file`` rejects it."""
    if mode not in ("gloss", "interlingua"):
        raise ValueError("mode must be 'gloss' or 'interlingua'")
    wanted = "gloss" if mode == "gloss" else "semantics"
    return [
        "missing %s rule for backbone %r" % (wanted, key)
        for key in sorted(rb.rules)
        if rb.rules[key].syntax_sets and not rb.rules[key].sets(wanted)
    ]


# -- parse forests ----------------------------------------------------------

def enumerate_trees(forest, cid, cap=1000):
    """Unpack derivation trees below one constituent.

    Trees are ``(category, (start, end), rule-or-None, child trees)``
    tuples, in derivation-list order, children expanded left to right.
    """
    if not 0 <= cid < len(forest.constituents):
        raise KeyError("unknown constituent id %r" % cid)

    def expand(const, budget):
        span = (const.start, const.end)
        if const.token is not None or not const.derivations:
            return [(const.category, span, None, ())]
        trees = []
        for rule_key, *child_ids in const.derivations:
            partial = [()]
            for child_id in child_ids:
                child_trees = expand(forest[child_id], budget)
                partial = [
                    p + (t,) for p in partial for t in child_trees
                ][:budget]
            for children in partial:
                trees.append((const.category, span, rule_key, children))
                if len(trees) >= budget:
                    return trees
        return trees

    out, seen = [], set()
    for tree in expand(forest[cid], cap):
        if tree not in seen:
            seen.add(tree)
            out.append(tree)
        if len(out) >= cap:
            break
    return out


# -- meaning graphs ---------------------------------------------------------

def graph_signature(g):
    """Canonical text ignoring instance ids; equal iff isomorphic."""
    numbers = {}

    def emit(node):
        known = numbers.get(id(node))
        if known is not None:
            return "#%d" % known
        numbers[id(node)] = len(numbers) + 1
        parts = ["#%d" % numbers[id(node)], "|%s|" % node.concept]
        for name in sorted(node.attributes):
            parts.append("%s=%s" % (name, node.attributes[name]))
        for role in sorted(node.roles):
            parts.append("%s:%s" % (role, emit(node.roles[role])))
        return "(%s)" % " ".join(parts)

    return emit(g.root)


def isomorphic(a, b):
    return graph_signature(a) == graph_signature(b)


# -- word lattices ----------------------------------------------------------

def from_word(word):
    return WordLattice(2, [(0, 1, word)])


def from_phrase(phrase):
    """Split a multiword string on spaces into an edge sequence."""
    words = phrase.split()
    if not words:
        return WordLattice(2, [(0, 1, EPS)])
    return WordLattice(len(words) + 1, [(i, i + 1, w) for i, w in enumerate(words)])


def _shifted(edges, offset):
    return [(src + offset, dst + offset, label) for src, dst, label in edges]


def concat(a, b):
    """Splice a's sink to b's source with an epsilon edge."""
    edges = list(a.edges)
    edges.append((a.sink, a.node_count, EPS))
    edges.extend(_shifted(b.edges, a.node_count))
    return WordLattice(a.node_count + b.node_count, edges)


def alternate(a, b):
    """Fresh source/sink with epsilon edges around both operands."""
    edges = [(0, 1, EPS), (0, 1 + a.node_count, EPS)]
    edges.extend(_shifted(a.edges, 1))
    edges.extend(_shifted(b.edges, 1 + a.node_count))
    sink = 1 + a.node_count + b.node_count
    edges.append((a.sink + 1, sink, EPS))
    edges.append((b.sink + 1 + a.node_count, sink, EPS))
    return WordLattice(sink + 1, edges)


def concat_all(lattices):
    return reduce(concat, lattices)


def alternate_all(lattices):
    return reduce(alternate, lattices)


def path_words(lattice):
    """The word sequence of every source-sink path, one per path, so a
    sequence that two paths spell is listed twice; ``lattice_lm.all_paths``
    lists each sequence once."""
    out = out_edges(lattice)

    def walk(node):
        if node == lattice.sink:
            return [()]
        return [
            (() if label is EPS else (label,)) + rest
            for dst, label in out[node]
            for rest in walk(dst)
        ]

    return walk(lattice.source)


def out_edges(lattice):
    """Each node's (dst, label) out-edges, in edge order."""
    out = [[] for _ in range(lattice.node_count)]
    for src, dst, label in lattice.edges:
        out[src].append((dst, label))
    return out


def topological_order(lattice):
    """Nodes in an order where every edge goes forward (Kahn's
    algorithm, first in first out), or None when the edges make a
    cycle."""
    indegree = [0] * lattice.node_count
    for _src, dst, _label in lattice.edges:
        indegree[dst] += 1
    out = out_edges(lattice)
    order = [node for node in range(lattice.node_count) if indegree[node] == 0]
    for node in order:  # the list grows as nodes become free
        for dst, _label in out[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    return order if len(order) == lattice.node_count else None


# -- chunk patterns ---------------------------------------------------------

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
