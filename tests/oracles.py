"""Reference implementations that the tests check the product against.

Nothing in ``src/hybridmt`` or ``bench/`` calls these.  Each is the
plain or pairwise form of a job the product does in one pass, written
without the product's private helpers, so that the two stay independent:
``from_phrase``, ``concat`` and ``alternate`` are the pairwise lattice
algebra that ``lattice_lm.layout`` writes in one pass, and
``concat_all`` and ``alternate_all`` their left folds;
``topological_order`` orders a lattice without
``lattice_lm._edge_pass``, and ``enumerate_trees`` unpacks the forest
that ``count_trees`` only counts.
"""

from functools import reduce

from hybridmt import sexpr
from hybridmt.featstruct import parse_featstruct_expr
from hybridmt.lattice_lm import EPS, WordLattice
from hybridmt.rulebase import arity_errors


# -- feature structures and rules ------------------------------------------

def parse_featstruct(text):
    """Parse the textual feature-structure syntax (paper-style parens)."""
    return parse_featstruct_expr(sexpr.parse_one(text))


def validate_rulebase(rb, mode):
    """Report syntax backbones missing their gloss/semantic counterpart,
    then equations referencing out-of-range variables."""
    if mode not in ("gloss", "interlingua"):
        raise ValueError("mode must be 'gloss' or 'interlingua'")
    wanted = "gloss" if mode == "gloss" else "semantics"
    lines = [
        "missing %s rule for backbone %r" % (wanted, key)
        for key in sorted(rb.rules)
        if rb.rules[key].syntax_sets and not rb.rules[key].sets(wanted)
    ]
    return lines + arity_errors(rb)


# -- parse forests ----------------------------------------------------------

def enumerate_trees(forest, cid, cap=1000):
    """Unpack derivation trees below one constituent.

    Trees are ``(category, (start, end), rule-or-None, child trees)``
    tuples, in derivation-list order, children expanded left to right.
    """
    if cid not in forest.constituents:
        raise KeyError("unknown constituent id %r" % cid)

    def expand(const, budget):
        span = (const.start, const.end)
        if const.lexical or not const.derivations:
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


def topological_order(lattice):
    """Nodes in an order where every edge goes forward (Kahn's
    algorithm, first in first out), or None when the edges make a
    cycle."""
    indegree = [0] * lattice.node_count
    for _src, dst, _label in lattice.edges:
        indegree[dst] += 1
    out = lattice.out_edges()
    order = [node for node in range(lattice.node_count) if indegree[node] == 0]
    for node in order:  # the list grows as nodes become free
        for dst, _label in out[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    return order if len(order) == lattice.node_count else None
