"""Word lattices, the trigram language model, and exact extraction.

A word lattice is an acyclic word graph with a unique source (node 0)
and sink (last node); each source-to-sink path is one candidate
sentence.  Every lattice ``layout`` builds (every gloss and realizer
lattice) is numbered forward, each edge from a lower node id to a
higher one, so validation, path counting and decoding sweep the ids in
turn; only a lattice with a backward edge, from ``parse_lattice`` or
built by hand, gets its order from Kahn's algorithm.  The trigram model
is trained with two start symbols and one end symbol per sentence,
Good-Turing discounting of low counts (r* = (r+1) * N_{r+1} / N_r below
the cutoff, applied only where it lowers the count) and Katz-style
backoff to bigram, unigram and finally a small out-of-vocabulary
reserve, so every query has strictly positive probability.  Extraction
is exact dynamic programming over (node, last-two-words) states, not a
beam, run over the lattice's own edges: an epsilon edge carries a
node's states on unchanged, so a lattice whose only cycle is made of
epsilon edges is as undecodable as any other cyclic one.
"""

import math
from collections import Counter
from itertools import chain, zip_longest

EPS = None
BOS = "<s>"
EOS = "</s>"
OOV = "<unk>"


class LatticeError(ValueError):
    pass


class WordLattice:
    """Nodes 0..n-1; node 0 is the source, node n-1 the sink.  Edges are
    (src, dst, label) with label None for epsilon, and run forward
    (src < dst) in every lattice ``layout`` builds; one with a backward
    edge costs a topological sort."""

    def __init__(self, node_count, edges):
        self.node_count = node_count
        self.edges = list(edges)

    @property
    def source(self):
        return 0

    @property
    def sink(self):
        return self.node_count - 1

    def validate(self):
        _check_shape(self.node_count, self.edges)
        source, sink = self.source, self.sink
        if any(dst == source or src == sink for src, dst, _label in self.edges):
            raise LatticeError("source must have no in-edges, sink no out-edges")
        out, order = _edge_pass(self)
        if order is None:
            raise LatticeError("lattice contains a cycle")
        # reach flows forward along the order and backward against it
        fwd, back = {source}, {sink}
        for node in order:
            if node in fwd:
                fwd.update(dst for dst, _label in out[node])
        for node in reversed(order):
            if any(dst in back for dst, _label in out[node]):
                back.add(node)
        for node in range(self.node_count):
            if node not in fwd or node not in back:
                raise LatticeError("node %d is not on any source-sink path" % node)
        return self


def _check_shape(node_count, edges):
    """A distinct source and sink, and every edge between nodes."""
    if node_count < 2:
        raise LatticeError("lattice needs distinct source and sink")
    for src, dst, _label in edges:
        if not (0 <= src < node_count and 0 <= dst < node_count):
            raise LatticeError("edge endpoint out of range")


def _edge_pass(lattice):
    """(out-edge lists, topological node order or None on a cycle): the
    node ids in turn if the pass over the edges finds them all forward,
    else the order Kahn's algorithm gives."""
    node_count = lattice.node_count
    out = [[] for _ in range(node_count)]
    forward = True
    for src, dst, label in lattice.edges:
        out[src].append((dst, label))
        if src >= dst:
            forward = False
    if forward:
        return out, range(node_count)
    indeg = [0] * node_count
    for src, dst, _label in lattice.edges:
        indeg[dst] += 1
    stack = [node for node in range(node_count) if indeg[node] == 0]
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        for dst, _label in out[node]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                stack.append(dst)
    return out, (order if len(order) == node_count else None)


# ---------------------------------------------------------------------
# Lattice algebra
# ---------------------------------------------------------------------

def layout(term):
    """The word lattice of a term, written as one edge list: a phrase
    (a string split on spaces into an edge sequence, or one epsilon
    edge if it has no words), a concatenation (a tuple of terms, each
    sink spliced to the next source by an epsilon edge) or an
    alternation (a list of terms, folded left as pairs that each get a
    fresh source and sink with epsilon edges around both); a one-term
    tuple or list is that term.  Nodes are numbered and edges ordered as
    that pairwise algebra would, so every edge runs forward."""
    edges = []
    return WordLattice(_lay(term, edges, 0), edges)


def _lay(term, edges, start):
    """Append the edges of ``term`` with its source at node ``start``;
    return the node after its sink."""
    if isinstance(term, str):
        words = term.split() or [EPS]
        for node, word in enumerate(words, start):
            edges.append((node, node + 1, word))
        return start + len(words) + 1
    if len(term) == 1:
        return _lay(term[0], edges, start)
    if isinstance(term, tuple):
        end = _lay(term[0], edges, start)
        for part in term[1:]:
            edges.append((end - 1, end, EPS))
            end = _lay(part, edges, end)
        return end
    # step i of the fold over k operands has its source at node
    # start+k-1-i; the steps' source edges, outermost first, precede
    # operand 0 in slots filled once step i's operand has its node ids
    last = len(term) - 1
    slots = len(edges)
    edges.extend([None] * (2 * last))
    end = _lay(term[0], edges, start + last)
    for i in range(1, last + 1):
        source, slot = start + last - i, slots + 2 * (last - i)
        edges[slot] = (source, source + 1, EPS)
        edges[slot + 1] = (source, end, EPS)
        sink = _lay(term[i], edges, end)
        edges.append((end - 1, sink, EPS))
        edges.append((sink - 1, sink, EPS))
        end = sink + 1
    return end


def groups_term(groups):
    """The groups in order, each an alternation of its distinct phrases, sorted."""
    return tuple(sorted(set(group)) for group in groups)


def all_paths(lattice, cap=10_000):
    """Distinct epsilon-free word sequences of all source-sink paths.

    Returns (paths, truncated); paths are tuples in deterministic
    depth-first order, deduplicated.
    """
    out = _edge_pass(lattice)[0]
    seen = set()
    paths = []
    truncated = False
    stack = [(lattice.source, ())]
    while stack:
        node, words = stack.pop()
        if node == lattice.sink:
            if words not in seen:
                if len(paths) >= cap:
                    truncated = True
                    break
                seen.add(words)
                paths.append(words)
            continue
        for dst, label in reversed(out[node]):
            stack.append((dst, words if label is EPS else words + (label,)))
    return paths, truncated


# ---------------------------------------------------------------------
# Lattice file format
# ---------------------------------------------------------------------

def dump_lattice(lattice):
    lines = ["N %d" % lattice.node_count]
    for src, dst, label in lattice.edges:
        lines.append("E %d %d %s" % (src, dst, "<eps>" if label is EPS else label))
    return "\n".join(lines) + "\n"


def parse_lattice(text):
    node_count = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "N" and node_count is not None:
            raise LatticeError("line %d: repeated N header" % lineno)
        try:
            if parts[0] == "N" and len(parts) == 2:
                node_count = int(parts[1])
                continue
            if parts[0] == "E" and len(parts) == 4:
                label = EPS if parts[3] == "<eps>" else parts[3]
                edges.append((int(parts[1]), int(parts[2]), label))
                continue
        except ValueError:
            pass
        raise LatticeError("line %d: bad lattice line %r" % (lineno, line))
    if node_count is None:
        raise LatticeError("missing N header")
    _check_shape(node_count, edges)
    return WordLattice(node_count, edges)


# ---------------------------------------------------------------------
# Trigram model
# ---------------------------------------------------------------------

class TrigramModel:
    """Counts plus Good-Turing discounts and Katz backoff weights.

    ``unigrams`` maps a word to its count; ``bigram_rows`` maps a word v
    to its row {w: count of (v, w)} and ``trigram_rows`` a pair (u, v) to
    its row {w: count of (u, v, w)}, which is how every query and every
    backoff weight reads them.  The model keeps the mappings it is
    given, so they must not change afterwards.  Probabilities are
    derived deterministically from the counts, and every floating-point
    sum over them runs in sorted order whatever order the rows were
    filled in, so persisting and reloading the counts reproduces the
    model bit for bit.  Katz backoff weights are computed lazily, once
    per context, from that context's row alone.
    """

    def __init__(self, unigrams, bigram_rows, trigram_rows, k=5):
        self.unigrams = unigrams
        self.bigram_rows = bigram_rows
        self.trigram_rows = trigram_rows
        self.k = k
        self.warnings = []
        self._build()

    def _build(self):
        self.vocabulary = set(self.unigrams)
        self.vocabulary.discard(BOS)
        self.total = sum(
            c for w, c in self.unigrams.items() if w != BOS
        )
        # per order, every count the model holds -> that count's r*
        self._adjusted = (None,) + tuple(
            self._gt_discounts(self._counts(order), order) for order in (1, 2, 3)
        )
        # a counted word stands for itself, any other word for <unk>
        self._symbols = {w: w for w in (*self.unigrams, EOS, OOV)}
        # a row's sum is its context's backoff denominator
        self.bigram_ctx = {v: sum(row.values()) for v, row in self.bigram_rows.items()}
        self.trigram_ctx = {ctx: sum(row.values()) for ctx, row in self.trigram_rows.items()}
        self._unigram_dist = None
        self._alpha_bi = {}
        self._alpha_tri = {}

    def _counts(self, order):
        """Every count of one order, row by row."""
        if order == 1:
            return self.unigrams.values()
        rows = self.bigram_rows if order == 2 else self.trigram_rows
        return chain.from_iterable(row.values() for row in rows.values())

    def _gt_discounts(self, counts, order):
        """Map each raw count r among ``counts`` to its adjusted count r*:
        (r+1) * N_{r+1} / N_r for 1 <= r < k where that lies in (0, r),
        else r.  A discount never raises a count, so no context's seen
        mass exceeds one and Katz backoff can normalize (Katz 1987)."""
        n_r = Counter(counts)
        adjusted = {r: float(r) for r in n_r}
        for r in range(1, self.k):
            if n_r.get(r, 0) == 0:
                continue
            nxt = n_r.get(r + 1, 0)
            if nxt == 0:
                self.warnings.append(
                    "order %d: N_%d is zero; count %d left undiscounted"
                    % (order, r + 1, r)
                )
                continue
            r_star = (r + 1) * nxt / n_r[r]
            if not 0 < r_star < r:
                self.warnings.append(
                    "order %d: r* = %g is not below %d; count %d left undiscounted"
                    % (order, r_star, r, r)
                )
                continue
            adjusted[r] = r_star
        return adjusted

    def adjusted_count(self, order, r):
        # a count no table holds has N_r = 0, so it is never discounted
        return self._adjusted[order].get(r, float(r))

    def reserved_mass(self, order):
        """Count mass set aside for unseen events of one order."""
        if order == 1:
            counts = [c for w, c in self.unigrams.items() if w != BOS]
        else:
            counts = list(self._counts(order))
        return sum(counts) - sum(self.adjusted_count(order, c) for c in counts)

    # -- probability levels --------------------------------------------

    def _unigram(self):
        if self._unigram_dist is not None:
            return self._unigram_dist
        dist = {}
        if self.total == 0:
            # degenerate model: uniform over the reserved symbols
            for w in (EOS, OOV):
                dist[w] = 1.0 / 2
        else:
            adjusted = self._adjusted[1]
            mass = 0.0
            for w in sorted(self.unigrams):
                if w == BOS:
                    continue
                p = adjusted[self.unigrams[w]] / self.total
                dist[w] = p
                mass += p
            dist[OOV] = max(1.0 - mass, 1e-12)
        self._unigram_dist = dist
        return dist

    def prob_unigram(self, w):
        dist = self._unigram()
        return dist.get(w, dist[OOV])

    def _map(self, w):
        return self._symbols.get(w, OOV)

    def prob_bigram(self, w, v):
        return self._bigram(self._map(w), self._map(v))

    def prob(self, w, history):
        """P(w | u, v): strictly positive for any query."""
        u, v = history
        symbols = self._symbols
        w, u, v = symbols.get(w, OOV), symbols.get(u, OOV), symbols.get(v, OOV)
        context = (u, v)
        ctx = self.trigram_ctx.get(context, 0)
        if ctx == 0:
            return self._bigram(w, v)
        c = self.trigram_rows[context].get(w, 0)
        if c > 0:
            return self._adjusted[3][c] / ctx
        alpha = self._alpha_tri.get(context)
        if alpha is None:
            alpha = self._trigram_alpha(context, ctx)
        return alpha * self._bigram(w, v)

    # The cores take symbols that ``_map`` has already mapped.  Their
    # sums run over a row in sorted word order, not fill order, so a
    # reloaded model sums alike, and as plain loops: left to right from 0.

    def _bigram(self, w, v):
        dist = self._unigram_dist or self._unigram()
        ctx = self.bigram_ctx.get(v, 0)
        if ctx == 0:
            return dist.get(w, dist[OOV])
        row = self.bigram_rows[v]
        c = row.get(w, 0)
        if c > 0:
            return self._adjusted[2][c] / ctx
        alpha = self._alpha_bi.get(v)
        if alpha is None:
            adjusted, oov = self._adjusted[2], dist[OOV]
            seen_mass = seen_lower = 0
            for x in sorted(row):
                seen_mass += adjusted[row[x]] / ctx
                seen_lower += dist.get(x, oov)
            alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
            self._alpha_bi[v] = alpha
        return alpha * dist.get(w, dist[OOV])

    def _trigram_alpha(self, context, ctx):
        """The Katz weight of a counted trigram context, with ``ctx``
        its summed count; computed once per context."""
        v = context[1]
        row, adjusted, symbols = self.trigram_rows[context], self._adjusted[3], self._symbols
        adjusted_bi, bi_row = self._adjusted[2], self.bigram_rows.get(v, {})
        ctx_bi = self.bigram_ctx.get(v, 0)
        seen_mass = seen_lower = 0
        for x in sorted(row):
            seen_mass += adjusted[row[x]] / ctx
            # a count table need not list a trigram's event as a
            # unigram, so the event is mapped like a queried word
            w = symbols.get(x, OOV)
            c = bi_row.get(w, 0)
            # a counted bigram is read as ``_bigram`` would read it
            seen_lower += adjusted_bi[c] / ctx_bi if c > 0 else self._bigram(w, v)
        alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
        self._alpha_tri[context] = alpha
        return alpha

    # -- persistence -----------------------------------------------------

    def dump(self):
        lines = ["#k\t%d" % self.k, "#vocab\t%d" % len(self.vocabulary)]
        for w in sorted(self.unigrams):
            lines.append("1\t%s\t%d" % (w, self.unigrams[w]))
        # sorted contexts, then sorted words: the order of the sorted
        # n-grams
        for v in sorted(self.bigram_rows):
            row = self.bigram_rows[v]
            for w in sorted(row):
                lines.append("2\t%s\t%s\t%d" % (v, w, row[w]))
        for (u, v) in sorted(self.trigram_rows):
            row = self.trigram_rows[(u, v)]
            for w in sorted(row):
                lines.append("3\t%s\t%s\t%s\t%d" % (u, v, w, row[w]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text, filename="<string>"):
        """Parse ``dump`` output in one pass, straight into rows.  Lines
        whose first column is not ``#k``, ``#vocab``, ``1``, ``2`` or
        ``3`` are ignored, and so is a bare ``#vocab``; such a line with
        the wrong column count, a non-integer count, a count below 1, a
        second ``#k`` or an n-gram an earlier line already counted
        raises LatticeError naming ``filename`` and its line number, as
        does a ``#vocab`` that is not the number of words the unigram
        lines give (``<s>`` aside)."""
        k, k_line = 5, None
        vocab_line = vocab = None
        uni, bi, tri = {}, {}, {}
        try:
            for lineno, line in enumerate(text.splitlines(), 1):
                cols = line.split("\t")
                tag = cols[0]
                # unpacking a line of the wrong width raises ValueError
                if tag == "3":
                    _tag, u, v, w, c = cols
                    row = tri.get((u, v))
                    if row is None:
                        row = tri[(u, v)] = {}
                elif tag == "2":
                    _tag, v, w, c = cols
                    row = bi.get(v)
                    if row is None:
                        row = bi[v] = {}
                elif tag == "1":
                    _tag, w, c = cols
                    row = uni
                elif tag == "#k":
                    _tag, c = cols
                    k = int(c)
                    if k < 1 or k_line:
                        raise ValueError
                    k_line = lineno
                    continue
                elif tag == "#vocab" and len(cols) > 1:
                    _tag, c = cols
                    vocab, vocab_line = int(c), lineno
                    continue
                else:
                    continue
                count = int(c)
                # a count below 1 would give probabilities outside
                # [0, 1]; a repeat would silently replace a count
                if count < 1 or w in row:
                    raise ValueError
                row[w] = count
        except ValueError:
            raise _bad_model_line("%s:%d" % (filename, lineno), cols) from None
        model = TrigramModel(uni, bi, tri, k=k)
        if vocab_line and vocab != len(model.vocabulary):
            raise LatticeError(
                "%s:%d: #vocab %d differs from the %d words of the unigram lines"
                % (filename, vocab_line, vocab, len(model.vocabulary))
            )
        return model


# first column of a model line -> its column count
_MODEL_LINE_WIDTH = {"#k": 2, "#vocab": 2, "1": 3, "2": 4, "3": 5}


def _bad_model_line(where, cols):
    """The error for a model line that ``load`` rejected."""
    tag = cols[0]
    width = _MODEL_LINE_WIDTH[tag]
    if len(cols) != width:
        return LatticeError(
            "%s: %r needs %d tab-separated columns, got %d" % (where, tag, width, len(cols))
        )
    try:
        count = int(cols[-1])
    except ValueError:
        return LatticeError("%s: count %r is not an integer" % (where, cols[-1]))
    if tag == "#k":
        if count >= 1:
            return LatticeError("%s: repeated #k" % where)
        return LatticeError("%s: cutoff k %r is below 1" % (where, cols[-1]))
    if count < 1:
        return LatticeError("%s: count %r is below 1" % (where, cols[-1]))
    # a well-formed n-gram line is rejected only for repeating one
    return LatticeError("%s: duplicate n-gram %r" % (where, " ".join(cols[1:-1])))


def train_trigram(sentences, k=5):
    """Count a tokenized corpus (iterable of token lists or strings)."""
    if k < 1:
        raise ValueError("cutoff k must be >= 1")
    uni, bi, tri = Counter(), {}, {}
    for sent in sentences:
        toks = sent.split() if isinstance(sent, str) else list(sent)
        if not toks:
            continue
        padded = [BOS, BOS] + toks + [EOS]
        # n-grams predicting the start symbol are never counted; BOS is
        # context only, or backoff mass would leak onto it
        for i in range(2, len(padded)):
            u, v, w = padded[i - 2], padded[i - 1], padded[i]
            uni[w] += 1
            row = bi.setdefault(v, {})
            row[w] = row.get(w, 0) + 1
            row = tri.setdefault((u, v), {})
            row[w] = row.get(w, 0) + 1
        uni[BOS] += 2
    return TrigramModel(uni, bi, tri, k=k)


def score_sequence(model, words):
    """Sentence log-probability with boundary padding."""
    h1, h2 = BOS, BOS
    total = 0.0
    for w in words:
        total += math.log(model.prob(w, (h1, h2)))
        h1, h2 = h2, model._map(w)
    total += math.log(model.prob(EOS, (h1, h2)))
    return total


# ---------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------

def _words(entry):
    """The word sequence an entry ends, read back along its chain."""
    words = []
    while entry[2] is not None:
        words.append(entry[1])
        entry = entry[2]
    words.reverse()
    return tuple(words)


def _chain(entry):
    """The entries of a chain, from ``entry`` back to the source's."""
    while entry is not None:
        yield entry
        entry = entry[2]


def _tails(a, b):
    """The words entries ``a`` and ``b`` add after the last entry their
    chains share.  Both chains are read back in step until one reaches
    an entry the other passed; every chain ends at the source's one
    entry, so they meet, and the work is the distance to where they do,
    not the length of the sentence."""
    a_at, b_at = {}, {}  # id(entry) -> its place in the path read so far
    a_path, b_path = [], []
    for x, y in zip_longest(_chain(a), _chain(b)):
        if x is not None:
            a_at[id(x)] = len(a_path)
            a_path.append(x)
            if id(x) in b_at:
                shared = id(x)
                break
        if y is not None:
            b_at[id(y)] = len(b_path)
            b_path.append(y)
            if id(y) in a_at:
                shared = id(y)
                break
    return (
        tuple(e[1] for e in reversed(a_path[: a_at[shared]])),
        tuple(e[1] for e in reversed(b_path[: b_at[shared]])),
    )


def _push(entries, n, entry):
    """Insert into a best-first list of at most n entries, ordered by
    score descending, then words ascending.  Equal word sequences have
    equal scores, so the tie check is also the duplicate check.  Two
    tied entries share every word before the last entry their chains
    share, so ``_tails`` compares only the words after it: the order
    and the duplicates are those of the whole sequences."""
    score = entry[0]
    for i, other in enumerate(entries):
        if score > other[0]:
            break
        if score == other[0]:
            mine, theirs = _tails(entry, other)
            if mine == theirs:
                return
            if mine < theirs:
                break
    else:
        if len(entries) < n:
            entries.append(entry)
        return
    entries.insert(i, entry)
    del entries[n:]


def _decode(lattice, model, n):
    """Exact n-best over (node, last-two-words) states.

    A state holds at most n entries (score, word, previous entry), best
    first, so extending one costs the same at any sentence length; word
    sequences are rebuilt from the chains only at the sink, and where
    two scores tie only the words after the two chains meet are read.
    One pass over the edges gives the out-edge lists
    and the topological order (the node ids themselves when every edge
    runs forward), and states move along the lattice's own edges in
    that order: a word edge extends each entry and shifts the
    history, an epsilon edge carries the entries to its target under
    the same history, so the empty path reaches the sink as its
    (``<s>``, ``<s>``) state.  A cycle, even one of epsilon edges only
    or one the source never reaches, is an error.

    A node's states are made when its first entry arrives and dropped
    once its out-edges are done.  A new state takes what ``_push`` would
    build into an empty list: the extended entry of a one-entry source,
    or a copy of the list an epsilon edge carries.  ``_push`` merges into
    a state that has entries, the one place ties and duplicates arise.
    Scores add up left to right from 0.0, as in ``score_sequence``, and
    each distinct (h1, h2, symbol) query calls ``model.prob`` once per
    decode.
    """
    out, order = _edge_pass(lattice)
    if order is None:
        raise LatticeError("cannot decode a cyclic lattice")
    symbol_of, prob, log = model._map, model.prob, math.log
    # symbol -> {(h1, h2): log prob}
    rows = {}
    # node -> {(h1, h2): entries}, None until an entry arrives
    states = [None] * lattice.node_count
    states[lattice.source] = {(BOS, BOS): [(0.0, None, None)]}
    sink = lattice.sink
    for node in order:
        here = states[node]
        # nothing the sink reaches can reach it back
        if here is None or node == sink:
            continue
        # the entry chains keep what later states need of this node
        states[node] = None
        for dst, word in out[node]:
            there = states[dst]
            if there is None:
                there = states[dst] = {}
            if word is EPS:
                for hist, entries in here.items():
                    target = there.get(hist)
                    if target is None:
                        there[hist] = entries[:]
                    else:
                        for entry in entries:
                            _push(target, n, entry)
                continue
            symbol = symbol_of(word)
            row = rows.get(symbol)
            if row is None:
                row = rows[symbol] = {}
            for hist, entries in here.items():
                lp = row.get(hist)
                if lp is None:
                    lp = row[hist] = log(prob(word, hist))
                key = (hist[1], symbol)
                target = there.get(key)
                if target is None:
                    if len(entries) == 1:
                        entry = entries[0]
                        there[key] = [(entry[0] + lp, word, entry)]
                        continue
                    target = there[key] = []
                for entry in entries:
                    _push(target, n, (entry[0] + lp, word, entry))

    finals = []
    row = rows.get(EOS, {})
    for hist, entries in (states[sink] or {}).items():
        lp = row.get(hist)
        if lp is None:
            lp = log(prob(EOS, hist))
        for entry in entries:
            finals.append((entry[0] + lp, _words(entry)))
    finals.sort(key=lambda item: (-item[0], item[1]))
    # a word sequence fixes its (h1, h2) state and ``_push`` keeps it
    # once per state, so no sequence reaches the sink twice
    return [(list(seq), score) for score, seq in finals[:n]]


def best_path(lattice, model):
    """Most likely complete path: (word sequence, log score)."""
    results = _decode(lattice, model, 1)
    if not results:
        raise LatticeError("lattice has no complete path")
    return results[0]


def top_n(lattice, model, n):
    if n < 1:
        raise ValueError("n must be >= 1")
    return _decode(lattice, model, n)
