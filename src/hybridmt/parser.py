"""Bottom-up chart parser producing a packed parse forest.

Constituents are built shortest-span-first under the syntax equation
sets of the rulebase.  Constituents with the same category and span
whose feature structures mutually subsume each other are packed into a
single entry carrying multiple derivations.  Chunker barrier markers of
category C forbid any C constituent from strictly crossing the marked
region.  When no full parse exists the forest still contains lexical
constituents for every position, so a left-to-right fragment cover
always exists.  ``Composition`` builds feature structures bottom-up
over a forest; the glosser and the semantic analyzer both use it.
"""

from bisect import bisect_left, bisect_right

from . import sexpr
# apply_equations is unused here but kept: the benchmark tracer wraps it by this name
from .featstruct import FeatStruct, apply_equations, canonical, subsumes  # noqa: F401
from .rulebase import tagged_entries

UNKNOWN_CATEGORY = "UNKNOWN"
DEFAULT_EDGE_CAP = 100_000


class ParseError(ValueError):
    pass


class Constituent:
    __slots__ = ("id", "category", "start", "end", "fs", "derivations", "token")

    def __init__(self, cid, category, start, end, fs, derivations, token=None):
        self.id = cid
        self.category = category
        self.start = start
        self.end = end
        self.fs = fs
        # [(RuleKey, child id, ...)], the list ``parse`` handed over: one
        # flat tuple per derivation is one tracked container, not two
        self.derivations = derivations
        self.token = token

    def __repr__(self):
        return "<%d %s %d:%d>" % (self.id, self.category, self.start, self.end)


class ParseForest:
    def __init__(self, token_count):
        self.constituents = []  # a constituent's id is its index
        self.token_count = token_count
        self.roots = []
        self.truncated = False
        # both indexes are filled by ``parse`` as it installs, each list
        # in insertion order.  They are keyed by category first, so the
        # parse looks up a category's map once per length and probes it
        # with an int per cell.
        self._by_start = {}  # category -> {start: [Constituent]}
        self._by_end = {}  # category -> {end: {start: [Constituent]}}

    def __getitem__(self, cid):
        return self.constituents[cid]

    def __iter__(self):
        return iter(self.constituents)


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


def barrier_index(regions):
    """category -> (sorted endpoints, the (start, end) region of each)
    over ``regions``, for ``crosses_barrier``."""
    index = {}
    for category, rstart, rend in regions:
        index.setdefault(category, []).extend([(rstart, rstart, rend), (rend, rstart, rend)])
    for category, ends in index.items():
        ends.sort()
        index[category] = ([p for p, _, _ in ends], [(rs, re) for _, rs, re in ends])
    return index


def crosses_barrier(index, category, start, end):
    """Whether a ``category`` constituent over [start, end) crosses one
    of its regions in ``barrier_index``'s ``index``.  A region crosses
    the span only if one of its endpoints lies strictly inside it, so
    only the regions of those endpoints are checked."""
    entry = index.get(category)
    if entry is None:
        return False
    points, regions = entry
    lo = bisect_right(points, start)
    hi = bisect_left(points, end, lo)
    return any(_crosses(start, end, rs, re) for rs, re in regions[lo:hi])


def lexical_entries(token, rb):
    """Category/feature alternatives for one token.

    Lexicon entries matching the token's POS tag win; with no lexicon
    coverage the tag itself is the category, and untagged unknown words
    become UNKNOWN constituents (the glosser passes them through).
    """
    entries = tagged_entries(rb.syn_lexicon, token)
    if entries:
        return [(e.pos, e.features) for e in entries]
    category = token.tag if token.tag else UNKNOWN_CATEGORY
    return [(category, FeatStruct.empty())]


def parse(tokens, rb, root_categories=("S",), edge_cap=DEFAULT_EDGE_CAP):
    """Parse a chunked token sequence into a packed forest.

    Spans are filled shortest first.  At each length of two or more,
    every cell (start, end) tries each right-hand side of two or more
    categories that can reach the length; then the unary closure runs
    over the constituents of the length, its agenda ``by_length`` taking
    up what it installs itself.  A right-hand side can reach a length
    only if the longest constituents of its categories so far sum to at
    least that: its children are strictly shorter, so all of them are
    built.  The bound only skips cells where no child sequence exists.
    A length that no right-hand side reaches ends the parse, as no
    constituent of it, and so none longer, can be built.

    The unit of work is an application: one cell and one right-hand
    side, with its rules and child sequences, or one constituent and
    the unary rules over its category.  ``apply`` runs every one.  Each
    (child sequence, rule) pair is one edge, and ``edge_cap`` bounds
    the edges.  An application is charged sequences x rules at once.
    When that fits in the edges left, every rule keeps every sequence.
    Otherwise the application is cut: it takes the edges left, and with
    ``q, e = divmod(edges left, rules)`` rule j keeps the first
    ``q + (j < e)`` sequences, which are the pairs a count in sequence
    order would reach.  A cut application sets ``forest.truncated``, and
    the parse stops after that span length.
    An equation-free rule fills a cell in one step: its derivations all
    have the empty X0, so they pack into one constituent (a shared
    forest keeps one node per category and span, Billot & Lang 1989).

    A derivation is the flat tuple ``(rule key, child id, ...)``, so the
    forest holds one tracked container per derivation and the cyclic
    collector has half as many to count and scan.  A list of them is
    handed over, not copied: a new constituent keeps the list it was
    installed with.
    """
    if not tokens:
        raise ParseError("empty input")
    words = [t for t in tokens if not t.marker]
    if not words:
        raise ParseError("input contains only markers")
    n = len(words)
    barriers = barrier_index(barrier_regions(tokens))
    forest = ParseForest(n)
    constituents, by_start, by_end = forest.constituents, forest._by_start, forest._by_end
    by_length = [[] for _ in range(n + 1)]
    longer_rules, unary_rules, uses = rb.parse_index()
    longest = {}  # category -> length of its longest constituent so far
    # per right-hand side of ``longer_rules``: the sum of its categories'
    # longest, the longest span it can cover so far
    reaches = [0] * len(longer_rules)
    edges_left = max(edge_cap, 0)
    empty = FeatStruct.empty()  # the X0 of every equation-free rule

    def install(category, start, end, fs, derivations, token=None):
        """Pack ``derivations`` into a constituent or add one with
        them, unless a barrier forbids it.  A new constituent keeps the
        list itself, so the caller must not keep or hand on the list."""
        if barriers and crosses_barrier(barriers, category, start, end):
            return
        ends = by_end.get(category)
        if ends is None:
            # a category has both maps or neither
            ends = by_end[category] = {}
            by_start[category] = {}
        ending = ends.get(end)
        for existing in ending.get(start, ()) if ending else ():
            # subsumption is reflexive, so one shared structure packs at once
            if existing.fs is fs or (subsumes(existing.fs, fs) and subsumes(fs, existing.fs)):
                # an application happens once and installs its solutions
                # back to back, so only the last entry can be this one
                held = existing.derivations
                if held and derivations and derivations[0] is held[-1]:
                    held += derivations[1:]
                else:
                    held += derivations
                return
        const = Constituent(len(constituents), category, start, end, fs, derivations, token)
        constituents.append(const)
        by_start[category].setdefault(start, []).append(const)
        if ending is None:
            ending = ends[end] = {}
        ending.setdefault(start, []).append(const)
        if category in unary_rules:
            by_length[end - start].append(const)
        # constituents come shortest first, so this is the longest yet,
        # and a right-hand side reaches as much further per occurrence of
        # the category
        grown = end - start - longest.get(category, 0)
        if grown:
            longest[category] = end - start
            for i in uses.get(category, ()):
                reaches[i] += grown
        return const

    def apply(start, end, rules, derivations):
        """Install what ``rules``, one right-hand side's (rule,
        equation-free) pairs, derive over [start, end); ``derivations``
        are the first rule's (key, child id, ...), one per child
        sequence, in a list this call may hand over.

        The edge cap is charged once, and rule j keeps the first
        ``q + (j < e)`` sequences: all of them (``e`` is 0) unless the
        cap cuts the application.  The rules take sequence 0 in order:
        an equation-free rule installs every derivation it keeps at
        once, as they all have the empty X0 and pack together; a rule
        with equations solves sequence 0 at once.  Only if a rule has
        equations are sequences 1.. solved after, in (sequence, rule)
        order.  Each (sequence, rule) edge hands all its solutions one
        derivation tuple, which ``install`` records once."""
        nonlocal edges_left
        q = len(derivations)
        wanted = q * len(rules)
        if wanted <= edges_left:
            edges_left -= wanted
            e = 0
        else:
            # the pair (sequence i, rule j) is edge i * len(rules) + j of
            # the application, and only the first ``edges_left`` are charged
            q, e = divmod(edges_left, len(rules))
            edges_left = 0
            forest.truncated = True
        solving = ()  # (rule, its derivations, kept) of each rule with equations
        child_structures = None
        for j, (rule, free) in enumerate(rules):
            kept = q + (j < e)
            if not kept:
                break
            own = [(rule.key,) + d[1:] for d in derivations[:kept]] if j else derivations
            if free:
                # each equation set is empty and solves to the empty X0,
                # and no other rule here has this left-hand side, so all
                # pack into one constituent, in sequence order; a second
                # set would only pack the same derivations again
                if rule.syntax_sets:
                    install(rule.key.lhs, start, end, empty, own[:kept] if kept < len(own) else own)
                continue
            if child_structures is None:
                child_structures = [constituents[c].fs for c in own[0][1:]]
            for fs in _solve_rule(rule.syntax_sets, child_structures):
                install(rule.key.lhs, start, end, fs, [own[0]])
            solving += ((rule, own, kept),)
        if solving:
            # kept shrinks with j, so the first rule here keeps the most
            for i in range(1, solving[0][2]):
                child_structures = [constituents[c].fs for c in derivations[i][1:]]
                for rule, own, kept in solving:
                    if i == kept:
                        break
                    for fs in _solve_rule(rule.syntax_sets, child_structures):
                        install(rule.key.lhs, start, end, fs, [own[i]])

    def close_unary(agenda):
        """Apply the unary rules to the constituents of one length,
        taking up what they install too."""
        while agenda:
            child = agenda.pop()
            rules = unary_rules[child.category]
            apply(child.start, child.end, rules, [(rules[0][0].key, child.id)])

    for token_pos, token in enumerate(words):
        for category, fs in lexical_entries(token, rb):
            install(category, token_pos, token_pos + 1, fs, [], token)

    close_unary(by_length[1])
    for length in range(2, n + 1):
        if forest.truncated:
            break
        reachable = [side for side, reach in zip(longer_rules, reaches) if reach >= length]
        if not reachable:
            # nothing of this length can be built, so no category's
            # longest grows and no longer length is reachable either
            break
        # per reachable right-hand side: its rules, the first rule's key
        # and the maps of its first and last categories, looked up once
        # per length.  A map made later in the length holds only
        # constituents of the length, and no child is that long.
        sides = []
        for rhs, rules in reachable:
            starting = by_start.get(rhs[0])
            if starting is None:
                continue
            ending = by_end.get(rhs[-1])
            if ending is not None:
                sides.append((rhs, rules, rules[0][0].key, starting, ending))
        for start in range(n - length + 1):
            end = start + length
            for rhs, rules, key, starting, ending in sides:
                # on real grammars most have no first child here; skip them cheaply
                firsts = starting.get(start)
                if firsts is None:
                    continue
                lasts = ending.get(end)
                if lasts is None:
                    continue
                if len(rhs) == 2:
                    derivations = [(key, a.id, b.id) for a in firsts for b in lasts.get(a.end, ())]
                else:
                    derivations = _derivations(by_start, rhs, key, firsts, lasts, end)
                if derivations:
                    apply(start, end, rules, derivations)
        close_unary(by_length[length])

    # ids ascend in install order, so the roots come out sorted
    forest.roots = [
        c.id for c in forest if c.start == 0 and c.end == n and c.category in root_categories
    ]
    return forest


def _derivations(by_start, rhs, key, firsts, lasts, end):
    """(key, child id, ...) of every way to cover a span with adjacent
    ``rhs`` constituents, three or more, the leftmost child varying
    slowest: ``firsts`` start the span and ``lasts`` (start ->
    constituents) end at ``end``."""
    partial = [((key, c.id), c.end) for c in firsts if c.end < end]
    for category in rhs[1:-1]:
        starting = by_start.get(category)
        if starting is None:
            return []
        partial = [
            (ids + (c.id,), c.end)
            for ids, pos in partial
            for c in starting.get(pos, ())
            if c.end < end
        ]
    return [ids + (c.id,) for ids, pos in partial for c in lasts.get(pos, ())]


def count_trees(forest, cid):
    """Product-sum recurrence over the packed forest."""
    return _count_trees(forest, cid, {})


def _count_trees(forest, i, memo):
    if i in memo:
        return memo[i]
    const = forest[i]
    if const.token is not None or not const.derivations:
        memo[i] = 1
        return 1
    total = 0
    for derivation in const.derivations:
        product = 1
        for child_id in derivation[1:]:
            product *= _count_trees(forest, child_id, memo)
        total += product
    memo[i] = total
    return total


def _solve_rule(equation_sets, child_structures):
    """X0 of every solution of every equation set, in order, with
    X1..Xn bound to ``child_structures``."""
    produced = []
    for eqset in equation_sets:
        produced += eqset.solve(child_structures)
    return produced


class Composition:
    """Bottom-up feature-structure composition over the packed forest.

    A memoised callable giving, for a constituent id, the first ``cap``
    distinct X0 solutions in derivation order.  A leaf or underived
    constituent takes ``leaf(const)``; a derivation contributes the
    solutions of each set in ``equation_sets(rule_key)`` over the capped
    cross product of its children's options, and is skipped when that
    is empty or a child has no option.  It recurses through ``self``,
    so unlike a closure that calls itself it is no reference cycle and
    is freed with its last reference.
    """

    __slots__ = ("forest", "leaf", "equation_sets", "cap", "memo")

    def __init__(self, forest, leaf, equation_sets, cap):
        self.forest = forest
        self.leaf = leaf
        self.equation_sets = equation_sets
        self.cap = cap
        self.memo = {}

    def __call__(self, cid):
        memo, cap = self.memo, self.cap
        if cid in memo:
            return memo[cid]
        const = self.forest[cid]
        if const.token is not None or not const.derivations:
            memo[cid] = self.leaf(const)[:cap]
            return memo[cid]
        # dedup keys start with a second candidate: one has nothing to
        # be a duplicate of
        results, seen = [], None
        for derivation in const.derivations:
            sets = self.equation_sets(derivation[0])
            if not sets:
                continue
            child_options = [self(child_id) for child_id in derivation[1:]]
            if not all(child_options):
                continue
            combos = [()]
            for options in child_options:
                combos = [c + (o,) for c in combos for o in options][:cap]
            for combo in combos:
                for fs in _solve_rule(sets, combo):
                    if results:
                        if seen is None:
                            seen = {canonical(results[0])}
                        key = canonical(fs)
                        if key in seen:
                            continue
                        seen.add(key)
                    results.append(fs)
            if len(results) >= cap:
                break
        memo[cid] = results[:cap]
        return memo[cid]


def fragment_cover(forest, category_order=()):
    """Root id if a full parse exists, else a greedy leftmost-longest
    sequence of non-overlapping constituents covering every position.
    Every position starts one: its lexical constituents span one token,
    which no barrier region strictly crosses."""
    if forest.roots:
        return [forest.roots[0]]
    order = {cat: i for i, cat in enumerate(category_order)}
    # start -> (-end, category order, id) of its best constituent
    best = {}
    for c in forest:
        key = (-c.end, order.get(c.category, len(order)), c.id)
        known = best.get(c.start)
        if known is None or key < known:
            best[c.start] = key

    cover = []
    pos = 0
    while pos < forest.token_count:
        neg_end, _order, cid = best[pos]
        cover.append(cid)
        pos = -neg_end
    return cover


def dump_forest(forest):
    """One line per constituent:
    ``id TAB category TAB start TAB end TAB derivations TAB features``."""
    lines = []
    for c in forest:
        derivs = ";".join(
            "%s:%s" % (sexpr.dump([d[0].lhs, "->", *d[0].rhs]), ",".join(map(str, d[1:])))
            for d in c.derivations
        )
        lines.append(
            "\t".join(
                [str(c.id), c.category, str(c.start), str(c.end), derivs, canonical(c.fs)]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
