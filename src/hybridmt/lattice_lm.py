"""Word lattices, the trigram language model, and exact extraction.

A word lattice is an acyclic word graph with a unique source (node 0)
and sink (last node); each source-to-sink path is one candidate
sentence.  The trigram model is trained with two start symbols and one
end symbol per sentence, Good-Turing discounting of low counts
(r* = (r+1) * N_{r+1} / N_r below the cutoff) and Katz-style backoff to
bigram, unigram and finally a small out-of-vocabulary reserve, so every
query has strictly positive probability.  Extraction is exact dynamic
programming over (node, last-two-words) states, not a beam.
"""

import math
from collections import Counter

__all__ = [
    "WordLattice",
    "LatticeError",
    "from_word",
    "from_phrase",
    "concat",
    "alternate",
    "all_paths",
    "TrigramModel",
    "train_trigram",
    "score_sequence",
    "best_path",
    "top_n",
]

EPS = None
BOS = "<s>"
EOS = "</s>"
OOV = "<unk>"


class LatticeError(ValueError):
    pass


class WordLattice:
    """Nodes 0..n-1; node 0 is the source, node n-1 the sink.  Edges are
    (src, dst, label) with label None for epsilon."""

    def __init__(self, node_count, edges):
        self.node_count = node_count
        self.edges = list(edges)

    @property
    def source(self):
        return 0

    @property
    def sink(self):
        return self.node_count - 1

    def out_edges(self):
        out = [[] for _ in range(self.node_count)]
        for src, dst, label in self.edges:
            out[src].append((dst, label))
        return out

    def validate(self):
        if self.node_count < 2:
            raise LatticeError("lattice needs distinct source and sink")
        indeg = [0] * self.node_count
        outdeg = [0] * self.node_count
        for src, dst, _label in self.edges:
            if not (0 <= src < self.node_count and 0 <= dst < self.node_count):
                raise LatticeError("edge endpoint out of range")
            indeg[dst] += 1
            outdeg[src] += 1
        if indeg[self.source] or outdeg[self.sink]:
            raise LatticeError("source must have no in-edges, sink no out-edges")
        order = topological_order(self)
        if order is None:
            raise LatticeError("lattice contains a cycle")
        fwd = reachable_from(self, self.source)
        back = reachable_from(self.reversed(), self.sink)
        for node in range(self.node_count):
            if node not in fwd or node not in back:
                raise LatticeError("node %d is not on any source-sink path" % node)
        return self

    def reversed(self):
        return WordLattice(
            self.node_count,
            [(dst, src, label) for src, dst, label in self.edges],
        )


def topological_order(lattice):
    indeg = [0] * lattice.node_count
    out = lattice.out_edges()
    for src, dst, _ in lattice.edges:
        indeg[dst] += 1
    stack = sorted(n for n in range(lattice.node_count) if indeg[n] == 0)
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        for dst, _label in out[node]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                stack.append(dst)
    return order if len(order) == lattice.node_count else None


def reachable_from(lattice, start):
    out = lattice.out_edges()
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        for dst, _label in out[node]:
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


# ---------------------------------------------------------------------
# Lattice algebra
# ---------------------------------------------------------------------

def from_word(word):
    return WordLattice(2, [(0, 1, word)])


def from_phrase(phrase):
    """Split a multiword string on spaces into an edge sequence."""
    words = phrase.split()
    if not words:
        return WordLattice(2, [(0, 1, EPS)])
    edges = [(i, i + 1, w) for i, w in enumerate(words)]
    return WordLattice(len(words) + 1, edges)


def _shift(edges, offset):
    return [(s + offset, d + offset, w) for s, d, w in edges]


def concat(a, b):
    """Splice a's sink to b's source with an epsilon edge."""
    edges = list(a.edges)
    edges.append((a.sink, a.node_count, EPS))
    edges.extend(_shift(b.edges, a.node_count))
    return WordLattice(a.node_count + b.node_count, edges)


def alternate(a, b):
    """Fresh source/sink with epsilon edges around both operands."""
    edges = [(0, 1, EPS), (0, 1 + a.node_count, EPS)]
    edges.extend(_shift(a.edges, 1))
    edges.extend(_shift(b.edges, 1 + a.node_count))
    sink = 1 + a.node_count + b.node_count
    edges.append((a.sink + 1, sink, EPS))
    edges.append((b.sink + 1 + a.node_count, sink, EPS))
    return WordLattice(sink + 1, edges)


def concat_all(lattices):
    out = None
    for lat in lattices:
        out = lat if out is None else concat(out, lat)
    return out


def alternate_all(lattices):
    out = None
    for lat in lattices:
        out = lat if out is None else alternate(out, lat)
    return out


def all_paths(lattice, cap=10_000):
    """Distinct epsilon-free word sequences of all source-sink paths.

    Returns (paths, truncated); paths are tuples in deterministic
    depth-first order, deduplicated.
    """
    out = lattice.out_edges()
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


def eliminate_epsilon(lattice):
    """Word-labeled edges only; preserves the path multiset as word
    sequences."""
    out = lattice.out_edges()
    closures = []
    for node in range(lattice.node_count):
        seen, todo = {node}, [node]
        while todo:
            cur = todo.pop()
            for dst, label in out[cur]:
                if label is EPS and dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        closures.append(seen)
    sink = lattice.sink
    edges = []
    for node in range(lattice.node_count):
        for mid in closures[node]:
            for dst, label in out[mid]:
                if label is not EPS:
                    edges.append((node, dst, label))
                    # a path may finish through trailing epsilon edges
                    if dst != sink and sink in closures[dst]:
                        edges.append((node, sink, label))
    empty_path = sink in closures[lattice.source]
    return WordLattice(lattice.node_count, edges), empty_path


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
        if parts[0] == "N" and len(parts) == 2:
            node_count = int(parts[1])
        elif parts[0] == "E" and len(parts) == 4:
            label = EPS if parts[3] == "<eps>" else parts[3]
            edges.append((int(parts[1]), int(parts[2]), label))
        else:
            raise LatticeError("line %d: bad lattice line %r" % (lineno, line))
    if node_count is None:
        raise LatticeError("missing N header")
    return WordLattice(node_count, edges)


# ---------------------------------------------------------------------
# Trigram model
# ---------------------------------------------------------------------

class TrigramModel:
    """Counts plus Good-Turing discounts and Katz backoff weights.

    Probabilities are derived deterministically from the count tables,
    so persisting and reloading the counts reproduces the model bit for
    bit.
    """

    def __init__(self, unigrams, bigrams, trigrams, k=5, warnings=None):
        self.unigrams = Counter(unigrams)
        self.bigrams = Counter(bigrams)
        self.trigrams = Counter(trigrams)
        self.k = k
        self.warnings = list(warnings or [])
        self._build()

    def _build(self):
        self.vocabulary = set(self.unigrams)
        self.vocabulary.discard(BOS)
        self.total = sum(
            c for w, c in self.unigrams.items() if w != BOS
        )
        self._discount = {}
        for order, table in ((1, self.unigrams), (2, self.bigrams), (3, self.trigrams)):
            self._discount[order] = self._gt_discounts(table, order)
        # context sums are the backoff denominators
        self.bigram_ctx = Counter()
        for (u, v), c in self.bigrams.items():
            self.bigram_ctx[u] += c
        self.trigram_ctx = Counter()
        for (u, v, w), c in self.trigrams.items():
            self.trigram_ctx[(u, v)] += c
        self._unigram_dist = None
        self._alpha_bi = {}
        self._alpha_tri = {}

    def _gt_discounts(self, table, order):
        """Map raw count r -> adjusted count r* for 1 <= r < k."""
        if not table:
            return {}
        n_r = Counter(table.values())
        adjusted = {}
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
            adjusted[r] = (r + 1) * nxt / n_r[r]
        return adjusted

    def adjusted_count(self, order, r):
        if 1 <= r < self.k:
            return self._discount[order].get(r, float(r))
        return float(r)

    def reserved_mass(self, order):
        """Count mass set aside for unseen events of one order."""
        table = (None, self.unigrams, self.bigrams, self.trigrams)[order]
        total = sum(table.values())
        if order == 1:
            total -= self.unigrams.get(BOS, 0)
        kept = sum(
            self.adjusted_count(order, c)
            for key, c in table.items()
            if not (order == 1 and key == BOS)
        )
        return total - kept

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
            mass = 0.0
            for w, c in self.unigrams.items():
                if w == BOS:
                    continue
                p = self.adjusted_count(1, c) / self.total
                dist[w] = p
                mass += p
            dist[OOV] = max(1.0 - mass, 1e-12)
        self._unigram_dist = dist
        return dist

    def prob_unigram(self, w):
        dist = self._unigram()
        return dist.get(w, dist[OOV])

    def _map(self, w):
        return w if w in self.unigrams or w in (EOS, OOV) else OOV

    def prob_bigram(self, w, v):
        v, w = self._map(v), self._map(w)
        ctx = self.bigram_ctx.get(v, 0)
        if ctx == 0:
            return self.prob_unigram(w)
        c = self.bigrams.get((v, w), 0)
        if c > 0:
            return self.adjusted_count(2, c) / ctx
        alpha = self._alpha_bi.get(v)
        if alpha is None:
            seen_mass = sum(
                self.adjusted_count(2, c2) / ctx
                for (u2, w2), c2 in self.bigrams.items()
                if u2 == v
            )
            seen_lower = sum(
                self.prob_unigram(w2)
                for (u2, w2), c2 in self.bigrams.items()
                if u2 == v
            )
            alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
            self._alpha_bi[v] = alpha
        return alpha * self.prob_unigram(w)

    def prob(self, w, history):
        """P(w | u, v): strictly positive for any query."""
        u, v = history
        u, v, w = self._map(u), self._map(v), self._map(w)
        ctx = self.trigram_ctx.get((u, v), 0)
        if ctx == 0:
            return self.prob_bigram(w, v)
        c = self.trigrams.get((u, v, w), 0)
        if c > 0:
            return self.adjusted_count(3, c) / ctx
        alpha = self._alpha_tri.get((u, v))
        if alpha is None:
            followers = [
                (w3, c3)
                for (u3, v3, w3), c3 in self.trigrams.items()
                if (u3, v3) == (u, v)
            ]
            seen_mass = sum(self.adjusted_count(3, c3) / ctx for _w3, c3 in followers)
            seen_lower = sum(self.prob_bigram(w3, v) for w3, _c3 in followers)
            alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
            self._alpha_tri[(u, v)] = alpha
        return alpha * self.prob_bigram(w, v)

    # -- persistence -----------------------------------------------------

    def dump(self):
        lines = ["#k\t%d" % self.k, "#vocab\t%d" % len(self.vocabulary)]
        for w in sorted(self.unigrams):
            lines.append("1\t%s\t%d" % (w, self.unigrams[w]))
        for (u, v) in sorted(self.bigrams):
            lines.append("2\t%s\t%s\t%d" % (u, v, self.bigrams[(u, v)]))
        for (u, v, w) in sorted(self.trigrams):
            lines.append("3\t%s\t%s\t%s\t%d" % (u, v, w, self.trigrams[(u, v, w)]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text):
        k = 5
        uni, bi, tri = Counter(), Counter(), Counter()
        for line in text.splitlines():
            if not line.strip():
                continue
            cols = line.split("\t")
            if cols[0] == "#k":
                k = int(cols[1])
            elif cols[0].startswith("#"):
                continue
            elif cols[0] == "1":
                uni[cols[1]] = int(cols[2])
            elif cols[0] == "2":
                bi[(cols[1], cols[2])] = int(cols[3])
            elif cols[0] == "3":
                tri[(cols[1], cols[2], cols[3])] = int(cols[4])
        return TrigramModel(uni, bi, tri, k=k)


def train_trigram(sentences, k=5):
    """Count a tokenized corpus (iterable of token lists or strings)."""
    if k < 1:
        raise ValueError("cutoff k must be >= 1")
    uni, bi, tri = Counter(), Counter(), Counter()
    for sent in sentences:
        toks = sent.split() if isinstance(sent, str) else list(sent)
        if not toks:
            continue
        padded = [BOS, BOS] + toks + [EOS]
        # n-grams predicting the start symbol are never counted; BOS is
        # context only, or backoff mass would leak onto it
        for i in range(2, len(padded)):
            uni[padded[i]] += 1
            bi[(padded[i - 1], padded[i])] += 1
            tri[(padded[i - 2], padded[i - 1], padded[i])] += 1
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

def _decode(lattice, model, n):
    """Exact n-best over (node, last-two-words) states."""
    words_only, empty_ok = eliminate_epsilon(lattice)
    order = topological_order(words_only)
    if order is None:
        raise LatticeError("cannot decode a cyclic lattice")
    out = words_only.out_edges()
    # state table: node -> {(h1, h2): [(score, seq)] top-n}
    states = {lattice.source: {(BOS, BOS): [(0.0, ())]}}

    def push(bucket, hist, score, seq):
        cands = bucket.setdefault(hist, [])
        for i, (s, q) in enumerate(cands):
            if q == seq:
                if score > s:
                    cands[i] = (score, seq)
                break
        else:
            cands.append((score, seq))
        cands.sort(key=lambda item: (-item[0], item[1]))
        del cands[n:]

    for node in order:
        here = states.get(node)
        if not here:
            continue
        for dst, word in out[node]:
            bucket = states.setdefault(dst, {})
            symbol = model._map(word)
            for (h1, h2), cands in here.items():
                logp = math.log(model.prob(word, (h1, h2)))
                for score, seq in cands:
                    push(bucket, (h2, symbol), score + logp, seq + (word,))

    finals = []
    sink_states = states.get(lattice.sink, {})
    for (h1, h2), cands in sink_states.items():
        logp = math.log(model.prob(EOS, (h1, h2)))
        for score, seq in cands:
            finals.append((score + logp, seq))
    if empty_ok:
        finals.append((math.log(model.prob(EOS, (BOS, BOS))), ()))
    finals.sort(key=lambda item: (-item[0], item[1]))
    results, seen = [], set()
    for score, seq in finals:
        if seq in seen:
            continue
        seen.add(seq)
        results.append((list(seq), score))
        if len(results) >= n:
            break
    return results


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
