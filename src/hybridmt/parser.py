"""Bottom-up chart parser producing a packed parse forest.

Constituents are built shortest-span-first under the syntax equation
sets of the rulebase.  Constituents with the same category and span
whose feature structures mutually subsume each other are packed into a
single entry carrying multiple derivations.  Chunker barrier markers of
category C forbid any C constituent from strictly crossing the marked
region.  When no full parse exists the forest still contains lexical
constituents for every position, so a left-to-right fragment cover
always exists.  ``compose`` builds feature structures bottom-up over a
forest; the glosser and the semantic analyzer both use it.
"""

from . import sexpr
from .featstruct import FeatStruct, apply_equations, canonical, subsumes

__all__ = [
    "Constituent",
    "ParseForest",
    "ParseError",
    "parse",
    "enumerate_trees",
    "compose",
    "fragment_cover",
    "dump_forest",
]

UNKNOWN_CATEGORY = "UNKNOWN"
DEFAULT_EDGE_CAP = 100_000


class ParseError(ValueError):
    pass


class Constituent:
    __slots__ = ("id", "category", "start", "end", "fs", "derivations", "lexical", "token")

    def __init__(self, cid, category, start, end, fs, lexical=False, token=None):
        self.id = cid
        self.category = category
        self.start = start
        self.end = end
        self.fs = fs
        self.derivations = []  # [(RuleKey, (child ids...))]
        self.lexical = lexical
        self.token = token

    @property
    def span(self):
        return (self.start, self.end)

    def __repr__(self):
        return "<%d %s %d:%d>" % (self.id, self.category, self.start, self.end)


class ParseForest:
    def __init__(self, token_count, tokens):
        self.constituents = {}
        self.token_count = token_count
        self.tokens = tokens  # non-marker tokens, by position
        self.roots = []
        self.truncated = False
        self._by_start = {}  # (start, category) -> [Constituent]
        self._at_start = {}  # start -> [Constituent]

    def add(self, const):
        self.constituents[const.id] = const
        self._by_start.setdefault((const.start, const.category), []).append(const)
        self._at_start.setdefault(const.start, []).append(const)

    def at(self, start, category=None):
        if category is None:
            return self._at_start.get(start, [])
        return self._by_start.get((start, category), [])

    def __getitem__(self, cid):
        return self.constituents[cid]

    def __iter__(self):
        return iter(self.constituents.values())


def barrier_regions(tokens):
    """Pair BEGIN/END markers into (category, start, end) regions over
    non-marker token positions."""
    regions = []
    stacks = {}
    pos = 0
    for token in tokens:
        if not token.marker:
            pos += 1
        elif token.marker_side == "begin":
            stacks.setdefault(token.marker_cat, []).append(pos)
        else:
            stack = stacks.get(token.marker_cat)
            if stack:
                regions.append((token.marker_cat, stack.pop(), pos))
    return regions


def _crosses(start, end, rstart, rend):
    overlap = start < rend and rstart < end
    contains = start <= rstart and rend <= end
    contained = rstart <= start and end <= rend
    return overlap and not contains and not contained


def lexical_entries(token, rb, unknown_category=UNKNOWN_CATEGORY):
    """Category/feature alternatives for one token.

    Lexicon entries matching the token's POS tag win; with no lexicon
    coverage the tag itself is the category, and untagged unknown words
    become UNKNOWN constituents (the glosser passes them through).
    """
    entries = rb.syn_lexicon.get(token.surface, []) if rb is not None else []
    if token.tag:
        tagged = [e for e in entries if e.pos == token.tag]
        if tagged:
            entries = tagged
    if entries:
        return [(e.pos, e.features) for e in entries]
    category = token.tag if token.tag else unknown_category
    return [(category, FeatStruct.empty())]


def parse(
    tokens,
    rb,
    root_categories=("S",),
    edge_cap=DEFAULT_EDGE_CAP,
    solution_cap=64,
    unknown_category=UNKNOWN_CATEGORY,
):
    """Parse a chunked token sequence into a packed forest."""
    if not tokens:
        raise ParseError("empty input")
    words = [t for t in tokens if not t.marker]
    if not words:
        raise ParseError("input contains only markers")
    n = len(words)
    regions = barrier_regions(tokens)
    forest = ParseForest(n, words)
    rules_by_rhs = rb.rules_by_rhs()
    next_id = [0]
    edges = [0]

    def blocked(category, start, end):
        return any(
            cat == category and _crosses(start, end, rs, re)
            for cat, rs, re in regions
        )

    def install(category, start, end, fs, derivation=None, lexical=False, token=None):
        """Pack or add; returns the constituent if it is new, else None."""
        if blocked(category, start, end):
            return None
        for existing in forest.at(start, category):
            if existing.end != end:
                continue
            if subsumes(existing.fs, fs) and subsumes(fs, existing.fs):
                if derivation is not None and derivation not in existing.derivations:
                    existing.derivations.append(derivation)
                return None
        const = Constituent(next_id[0], category, start, end, fs, lexical, token)
        next_id[0] += 1
        if derivation is not None:
            const.derivations.append(derivation)
        forest.add(const)
        return const

    def child_sequences(rhs, start, end):
        """All ways to cover [start, end) with adjacent rhs constituents."""
        if not rhs:
            return [()] if start == end else []
        out = []
        for c in forest.at(start, rhs[0]):
            if c.end > end:
                continue
            if len(rhs) == 1 and c.end != end:
                continue
            for rest in child_sequences(rhs[1:], c.end, end):
                out.append((c,) + rest)
        return out

    def apply_rule(rule, children):
        nonlocal_edges_ok = edges[0] < edge_cap
        if not nonlocal_edges_ok:
            forest.truncated = True
            return []
        edges[0] += 1
        bindings = {"X0": FeatStruct.empty()}
        for i, child in enumerate(children, 1):
            bindings["X%d" % i] = child.fs
        produced = []
        for eqset in rule.syntax_sets:
            for sol in apply_equations(bindings, eqset.equations, solution_cap):
                produced.append(sol["X0"])
        return produced

    for token_pos, token in enumerate(words):
        for category, fs in lexical_entries(token, rb, unknown_category):
            install(category, token_pos, token_pos + 1, fs, lexical=True, token=token)

    for length in range(1, n + 1):
        # non-unary rules first (children are strictly shorter)
        if length >= 2:
            for start in range(0, n - length + 1):
                end = start + length
                for rhs, rules in rules_by_rhs.items():
                    if len(rhs) < 2:
                        continue
                    for children in child_sequences(list(rhs), start, end):
                        for rule in rules:
                            derivation = (rule.key, tuple(c.id for c in children))
                            for fs in apply_rule(rule, children):
                                install(rule.key.lhs, start, end, fs, derivation)
        # unary closure over this span length
        agenda = [c for c in forest if c.end - c.start == length]
        while agenda:
            child = agenda.pop()
            for rhs, rules in rules_by_rhs.items():
                if len(rhs) != 1 or rhs[0] != child.category:
                    continue
                for rule in rules:
                    derivation = (rule.key, (child.id,))
                    for fs in apply_rule(rule, (child,)):
                        fresh = install(rule.key.lhs, child.start, child.end, fs, derivation)
                        if fresh is not None:
                            agenda.append(fresh)
        if forest.truncated:
            break

    forest.roots = sorted(
        (
            c.id
            for c in forest
            if c.start == 0 and c.end == n and c.category in root_categories
        ),
    )
    return forest


def enumerate_trees(forest, cid, cap=1000):
    """Unpack derivation trees below one constituent.

    Trees are ``(category, (start, end), rule-or-None, child trees)``
    tuples, in derivation-list order, children expanded left to right.
    """
    if cid not in forest.constituents:
        raise KeyError("unknown constituent id %r" % cid)

    def expand(const, budget):
        if const.lexical or not const.derivations:
            return [(const.category, const.span, None, ())]
        trees = []
        for rule_key, child_ids in const.derivations:
            partial = [()]
            for child_id in child_ids:
                child_trees = expand(forest[child_id], budget)
                partial = [
                    p + (t,) for p in partial for t in child_trees
                ][:budget]
            for children in partial:
                trees.append((const.category, const.span, rule_key.as_tuple(), children))
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


def count_trees(forest, cid):
    """Product-sum recurrence over the packed forest."""
    memo = {}

    def count(i):
        if i in memo:
            return memo[i]
        const = forest[i]
        if const.lexical or not const.derivations:
            memo[i] = 1
            return 1
        total = 0
        for _rule, child_ids in const.derivations:
            product = 1
            for child_id in child_ids:
                product *= count(child_id)
            total += product
        memo[i] = total
        return total

    return count(cid)


def compose(forest, leaf, equation_sets, cap, solution_cap):
    """Bottom-up feature-structure composition over the packed forest.

    Returns a memoised ``compute(cid)`` giving the first ``cap`` distinct
    X0 solutions in derivation order.  A leaf or underived constituent
    takes ``leaf(const)``; a derivation contributes the solutions of
    each set in ``equation_sets(rule_key)`` over the capped cross
    product of its children's options, and is skipped when that is
    empty or a child has no option.
    """
    memo = {}

    def compute(cid):
        if cid in memo:
            return memo[cid]
        const = forest[cid]
        if const.lexical or not const.derivations:
            memo[cid] = leaf(const)[:cap]
            return memo[cid]
        results, seen = [], set()
        for rule_key, child_ids in const.derivations:
            sets = equation_sets(rule_key)
            if not sets:
                continue
            child_options = [compute(child_id) for child_id in child_ids]
            if not all(child_options):
                continue
            combos = [()]
            for options in child_options:
                combos = [c + (o,) for c in combos for o in options][:cap]
            for combo in combos:
                bindings = {"X0": FeatStruct.empty()}
                for pos, child_fs in enumerate(combo, 1):
                    bindings["X%d" % pos] = child_fs
                for eqset in sets:
                    for sol in apply_equations(bindings, eqset.equations, solution_cap):
                        fs = sol["X0"]
                        key = canonical(fs)
                        if key not in seen:
                            seen.add(key)
                            results.append(fs)
            if len(results) >= cap:
                break
        memo[cid] = results[:cap]
        return memo[cid]

    return compute


def fragment_cover(forest, category_order=()):
    """Root id if a full parse exists, else a greedy leftmost-longest
    sequence of non-overlapping constituents covering every position."""
    if forest.roots:
        return [forest.roots[0]]
    order = {cat: i for i, cat in enumerate(category_order)}

    cover = []
    pos = 0
    while pos < forest.token_count:
        candidates = forest.at(pos)
        if not candidates:
            raise ParseError("no constituent starts at position %d" % pos)
        best = min(
            candidates,
            key=lambda c: (-c.end, order.get(c.category, len(order)), c.id),
        )
        cover.append(best.id)
        pos = best.end
    return cover


def dump_forest(forest):
    """One line per constituent:
    ``id TAB category TAB start TAB end TAB derivations TAB features``."""
    lines = []
    for cid in sorted(forest.constituents):
        c = forest[cid]
        derivs = ";".join(
            "%s:%s" % (sexpr.dump([key.lhs, "->", *key.rhs]), ",".join(map(str, kids)))
            for key, kids in c.derivations
        )
        lines.append(
            "\t".join(
                [str(c.id), c.category, str(c.start), str(c.end), derivs, canonical(c.fs)]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
