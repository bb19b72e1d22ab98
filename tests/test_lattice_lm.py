import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt import lattice_lm
from hybridmt.lattice_lm import (
    BOS,
    EOS,
    EPS,
    OOV,
    LatticeError,
    TrigramModel,
    WordLattice,
    all_paths,
    best_path,
    dump_lattice,
    layout,
    parse_lattice,
    score_sequence,
    top_n,
    train_trigram,
)

from conftest import fixture_path, ngram_rows
from oracles import (
    alternate,
    alternate_all,
    concat,
    concat_all,
    from_phrase,
    from_word,
    out_edges,
    topological_order,
)


def _read(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


def _paths(lat):
    paths, truncated = all_paths(lat)
    assert not truncated
    return set(paths)


def _random_lattice(rng, depth=0):
    """Random algebra term; returns (lattice, exact path set)."""
    words = ["a", "b", "c", "d"]
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.5:
            w = rng.choice(words)
            return from_word(w), {(w,)}
        phrase = " ".join(rng.choice(words) for _ in range(rng.randint(0, 3)))
        return from_phrase(phrase), {tuple(phrase.split())}
    left, lp = _random_lattice(rng, depth + 1)
    right, rp = _random_lattice(rng, depth + 1)
    if rng.random() < 0.5:
        return concat(left, right), {a + b for a in lp for b in rp}
    return alternate(left, right), lp | rp


# -- algebra -----------------------------------------------------------

def test_from_word_and_phrase():
    assert _paths(from_word("cat")) == {("cat",)}
    assert _paths(from_phrase("the black cat")) == {("the", "black", "cat")}
    assert _paths(from_phrase("")) == {()}


def test_concat_and_alternate():
    lat = concat(from_word("a"), alternate(from_word("b"), from_word("c")))
    assert _paths(lat) == {("a", "b"), ("a", "c")}
    lat2 = alternate_all([from_word(w) for w in "xyz"])
    assert _paths(lat2) == {("x",), ("y",), ("z",)}
    lat3 = concat_all([from_word(w) for w in "xyz"])
    assert _paths(lat3) == {("x", "y", "z")}


def test_algebra_path_oracle_random():
    rng = random.Random(3)
    for _ in range(200):
        lat, want = _random_lattice(rng)
        lat.validate()
        assert _paths(lat) == want


def eliminate_epsilon(lattice):
    """Word-labeled edges only, plus whether the empty path is there;
    preserves the path multiset as word sequences.  The reference
    decoder below runs on this lattice, so that it reaches its answer
    without ever carrying a state along an epsilon edge."""
    out = out_edges(lattice)
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


def test_eliminate_epsilon_preserves_paths():
    rng = random.Random(5)
    for _ in range(200):
        lat, want = _random_lattice(rng)
        stripped, empty_ok = eliminate_epsilon(lat)
        assert all(label is not EPS for _s, _d, label in stripped.edges)
        got = _paths(stripped)
        if empty_ok:
            got = got | {()}
        assert got == want


def test_validate_rejects_broken_lattices():
    with pytest.raises(LatticeError):
        WordLattice(1, []).validate()
    with pytest.raises(LatticeError):
        WordLattice(3, [(0, 2, "x"), (1, 1, "y")]).validate()  # cycle edge
    with pytest.raises(LatticeError):
        WordLattice(3, [(0, 2, "x")]).validate()  # node 1 off-path


@pytest.mark.parametrize(
    "node_count, edges, message",
    [
        (1, [], "lattice needs distinct source and sink"),
        (0, [], "lattice needs distinct source and sink"),
        (2, [(0, 5, "x")], "edge endpoint out of range"),
    ],
)
def test_parse_lattice_rejects_what_validate_rejects(node_count, edges, message):
    lattice = WordLattice(node_count, edges)
    with pytest.raises(LatticeError, match=message):
        lattice.validate()
    with pytest.raises(LatticeError, match=message):
        parse_lattice(dump_lattice(lattice))


def _reference_validate_message(node_count, edges):
    """Reference for ``WordLattice.validate``: the message it raises, or
    None, from a degree count, a cycle search and two separate reaches."""
    indeg, outdeg = [0] * node_count, [0] * node_count
    for src, dst, _label in edges:
        indeg[dst] += 1
        outdeg[src] += 1
    if indeg[0] or outdeg[node_count - 1]:
        return "source must have no in-edges, sink no out-edges"
    left = {(src, dst) for src, dst, _label in edges}
    live = set(range(node_count))
    while live:
        free = {n for n in live if not any(dst == n for src, dst in left)}
        if not free:
            return "lattice contains a cycle"
        live -= free
        left = {(src, dst) for src, dst in left if src not in free}

    def reach(start, pairs):
        seen, todo = {start}, [start]
        while todo:
            node = todo.pop()
            for src, dst in pairs:
                if src == node and dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        return seen

    fwd = reach(0, [(src, dst) for src, dst, _label in edges])
    back = reach(node_count - 1, [(dst, src) for src, dst, _label in edges])
    for node in range(node_count):
        if node not in fwd or node not in back:
            return "node %d is not on any source-sink path" % node
    return None


@st.composite
def edge_lists(draw):
    """2-7 nodes; mostly forward edges, sometimes the full chain, plus
    self-loops, back edges, edges into the source and out of the sink."""
    nodes = draw(st.integers(2, 7))
    pairs = [(i, i + 1) for i in range(nodes - 1)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, nodes - 2))
        pairs.append((src, draw(st.integers(src + 1, nodes - 1))))
    node = st.integers(0, nodes - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=2))
    edges = [(src, dst, draw(st.sampled_from(["x", "y", EPS]))) for src, dst in pairs]
    return nodes, draw(st.permutations(edges))


@settings(max_examples=500, deadline=None)
@given(edge_lists())
def test_validate_raises_what_the_reference_raises(case):
    node_count, edges = case
    want = _reference_validate_message(node_count, edges)
    lattice = WordLattice(node_count, edges)
    if want is None:
        assert lattice.validate() is lattice
    else:
        with pytest.raises(LatticeError) as err:
            lattice.validate()
        assert str(err.value) == want


def test_topological_order_none_on_cycle():
    assert topological_order(WordLattice(3, [(0, 1, "x"), (1, 0, EPS), (1, 2, "y")])) is None


def test_lattice_file_roundtrip():
    lat = concat(from_phrase("a b"), alternate(from_word("c"), from_phrase("")))
    text = dump_lattice(lat)
    back = parse_lattice(text)
    assert back.node_count == lat.node_count
    assert back.edges == lat.edges
    assert dump_lattice(back) == text


# -- Good-Turing arithmetic --------------------------------------------

def test_gt_adjusted_counts_by_hand():
    # six singletons, three doubles, one triple:
    # r*(1) = 2 * N_2 / N_1 = 2 * 3 / 6 = 1.0
    # r*(2) = 3 * N_3 / N_2 = 3 * 1 / 3 = 1.0
    uni = {"w%d" % i: 1 for i in range(6)}
    uni.update({"x%d" % i: 2 for i in range(3)})
    uni["y"] = 3
    model = TrigramModel(uni, {}, {}, k=5)
    assert model.adjusted_count(1, 1) == pytest.approx(2 * 3 / 6)
    assert model.adjusted_count(1, 2) == pytest.approx(3 * 1 / 3)
    # N_4 = 0: count 3 stays undiscounted, with a warning
    assert model.adjusted_count(1, 3) == 3.0
    assert any("N_4 is zero" in w for w in model.warnings)
    # counts at or above the cutoff are reliable and untouched
    assert model.adjusted_count(1, 7) == 7.0


def test_gt_leaves_a_count_that_would_rise_undiscounted():
    # one singleton, three doubles: r*(1) = 2 * 3 / 1 = 6 is above 1
    model = TrigramModel({"a": 1, "b": 2, "c": 2, "d": 2}, {}, {}, k=2)
    assert model.adjusted_count(1, 1) == 1.0
    assert any("r* = 6 is not below 1" in w for w in model.warnings)


def test_reserved_mass_by_hand():
    uni = {"w%d" % i: 1 for i in range(6)}
    uni.update({"x%d" % i: 2 for i in range(3)})
    uni["y"] = 3
    model = TrigramModel(uni, {}, {}, k=5)
    # total 15; kept = 6*1.0 + 3*1.0 + 3 = 12
    assert model.reserved_mass(1) == pytest.approx(3.0)


def test_trained_model_normalizes(gloss_pipeline):
    model = train_trigram(
        [l for l in _read("lm_corpus.txt").splitlines() if l.strip()]
    )
    events = sorted(model.vocabulary) + [OOV]
    histories = [(BOS, BOS)]
    for v in sorted(model.vocabulary)[:8]:
        histories.append((BOS, v))
        histories.append((v, v))
    for u, v in sorted(model.trigram_ctx)[:30]:
        histories.append((u, v))
    for hist in histories:
        total = sum(model.prob(w, hist) for w in events)
        assert abs(total - 1.0) < 1e-6, hist


def test_probabilities_strictly_positive():
    model = TrigramModel.load(_read("lm.model"))
    rng = random.Random(9)
    words = sorted(model.vocabulary) + [OOV, "zzz-unseen"]
    for _ in range(500):
        w = rng.choice(words)
        hist = (rng.choice(words), rng.choice(words))
        assert model.prob(w, hist) > 0.0


def test_bos_never_predicted():
    model = TrigramModel.load(_read("lm.model"))
    assert BOS not in model._unigram()
    assert BOS not in model.vocabulary


def test_persistence_roundtrip_bit_identical():
    model = train_trigram(["a b c", "a b d", "b c"], k=3)
    back = TrigramModel.load(model.dump())
    assert back.dump() == model.dump()
    for w in ("a", "b", "c", "d", EOS, OOV):
        for hist in ((BOS, BOS), (BOS, "a"), ("a", "b"), ("x", "y")):
            assert back.prob(w, hist) == model.prob(w, hist)


def test_empty_model_uniform_over_reserved_symbols():
    model = train_trigram([])
    assert model.prob_unigram(EOS) == pytest.approx(0.5)
    assert model.prob_unigram(OOV) == pytest.approx(0.5)
    assert model.prob_unigram("anything") == pytest.approx(0.5)


def test_grammatical_order_preferred():
    # a dedicated corpus where the attested order must beat scrambled
    # articles
    corpus = [
        "joyful lovely days shine",
        "joyful lovely days glow",
        "joyful lovely days pass",
    ]
    model = train_trigram(corpus)
    good = score_sequence(model, ["joyful", "lovely", "days"])
    bad = score_sequence(model, ["the", "an", "the"])
    assert good > bad


# -- extraction --------------------------------------------------------

def test_best_path_matches_exhaustive_oracle():
    model = TrigramModel.load(_read("lm.model"))
    rng = random.Random(17)
    for _ in range(200):
        lat, want = _random_lattice(rng)
        scored = sorted(
            ((score_sequence(model, list(p)), p) for p in want),
            key=lambda item: (-item[0], item[1]),
        )
        got_words, got_score = best_path(lat, model)
        assert got_score == pytest.approx(scored[0][0])
        results = top_n(lat, model, 3)
        want_top = [s for s, _p in scored[:3]]
        got_top = [s for _w, s in results[: len(want_top)]]
        assert got_top == pytest.approx(want_top)


def test_best_path_through_trailing_epsilon():
    # alternation at the very end leaves only epsilon edges into the sink
    lat = alternate(from_phrase("wants to eat"), from_phrase("want to eat"))
    model = TrigramModel.load(_read("lm.model"))
    words, _score = best_path(lat, model)
    assert words == ["wants", "to", "eat"]


def test_best_path_no_path_raises():
    model = train_trigram(["a b"])
    dead = WordLattice(4, [(0, 1, "a"), (2, 3, "b")])
    with pytest.raises(LatticeError):
        best_path(dead, model)


def test_top_n_validates_n():
    model = train_trigram(["a"])
    with pytest.raises(ValueError):
        top_n(from_word("a"), model, 0)


# -- n-best properties on random lattices ---------------------------------

def _reference_decode(lattice, model, n):
    """The decoder before back-pointer states: every candidate carries
    its whole word tuple, and a push re-sorts its bucket."""
    words_only, empty_ok = eliminate_epsilon(lattice)
    order = topological_order(words_only)
    if order is None:
        raise LatticeError("cannot decode a cyclic lattice")
    out = out_edges(words_only)
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


SEEN_WORDS = ["a", "b", "c", "d"]
# "x" and "y" are never trained, so both score as <unk> and tie
LABELS = SEEN_WORDS + ["x", "y", EPS]


@st.composite
def small_models(draw):
    sentence = st.lists(st.sampled_from(SEEN_WORDS), min_size=1, max_size=5)
    corpus = draw(st.lists(sentence, min_size=1, max_size=10))
    return train_trigram(corpus, k=draw(st.sampled_from([1, 3, 5])))


@st.composite
def small_lattices(draw, labels=LABELS):
    """2-8 nodes; every node has an edge to a later one, so each node
    reaches the sink, plus extra edges and parallel duplicates."""
    nodes = draw(st.integers(2, 8))
    label = st.sampled_from(labels)
    edges = [
        (i, draw(st.integers(i + 1, nodes - 1)), draw(label)) for i in range(nodes - 1)
    ]
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, nodes - 2))
        edges.append((src, draw(st.integers(src + 1, nodes - 1)), draw(label)))
    for _ in range(draw(st.integers(0, 3))):
        edges.append(draw(st.sampled_from(edges)))
    return WordLattice(nodes, draw(st.permutations(edges)))


# half epsilon, so most paths run through chains of epsilon edges
EPSILON_DENSE = LABELS[:-1] + [EPS] * (len(LABELS) - 1)


@st.composite
def epsilon_lattices(draw):
    """``small_lattices`` with half its labels epsilon, plus an
    all-epsilon source-to-sink path, a parallel copy of one of that
    path's edges and one more epsilon edge into the sink."""
    lattice = draw(small_lattices(EPSILON_DENSE))
    sink = lattice.sink
    hops = sorted(draw(st.sets(st.integers(0, sink)).map(lambda s: s | {0, sink})))
    path = [(a, b, EPS) for a, b in zip(hops, hops[1:])]
    extra = [draw(st.sampled_from(path)), (draw(st.integers(0, sink - 1)), sink, EPS)]
    return WordLattice(lattice.node_count, draw(st.permutations(lattice.edges + path + extra)))


@st.composite
def direct_models(draw):
    """Count tables given straight to ``TrigramModel``, with no ``<s>``
    unigram, so that ``<s>`` maps to ``<unk>`` like any unseen word,
    while the bigram and trigram tables may still key on raw ``<s>``."""
    context = st.sampled_from(SEEN_WORDS + [BOS, OOV])
    event = st.sampled_from(SEEN_WORDS + [EOS, OOV])
    counts = st.integers(1, 6)
    uni = draw(st.dictionaries(st.sampled_from(SEEN_WORDS + [EOS, OOV]), counts, max_size=6))
    bi = draw(st.dictionaries(st.tuples(context, event), counts, max_size=20))
    tri = draw(st.dictionaries(st.tuples(context, context, event), counts, max_size=40))
    return TrigramModel(uni, ngram_rows(bi), ngram_rows(tri), k=draw(st.sampled_from([1, 3, 5])))


NBEST = settings(max_examples=300, deadline=None)


@NBEST
@given(st.one_of(small_lattices(), epsilon_lattices()), small_models(), st.integers(1, 5))
def test_top_n_equals_reference_decoder(lattice, model, n):
    assert top_n(lattice, model, n) == _reference_decode(lattice, model, n)


@NBEST
@given(
    st.one_of(small_lattices(), epsilon_lattices()),
    st.one_of(small_models(), direct_models()),
    st.integers(1, 5),
)
def test_top_n_equals_ranked_enumeration(lattice, model, n):
    paths, truncated = all_paths(lattice)
    assert not truncated
    ranked = sorted(((score_sequence(model, p), p) for p in paths), key=lambda item: (-item[0], item[1]))
    got = top_n(lattice, model, n)
    assert got == [(list(p), score) for score, p in ranked[:n]]
    for words, score in got:
        assert score == score_sequence(model, words)


@NBEST
@given(st.one_of(small_models(), direct_models()))
def test_map_keeps_counted_words_and_sends_the_rest_to_unk(model):
    # direct models may lack a <s> unigram, so <s> maps to <unk> there
    for w in SEEN_WORDS + [BOS, EOS, OOV, "x", "zzz-unseen"]:
        assert model._map(w) == (w if w in model.unigrams or w in (EOS, OOV) else OOV)


class TableModel:
    """P(w | h1, h2) from a table, 0.5 elsewhere; every word is its own
    symbol."""

    def __init__(self, table):
        self.table = table

    def _map(self, w):
        return w

    def prob(self, w, history):
        return self.table.get((*history, w), 0.5)


def test_extending_a_state_breaks_new_ties_by_words():
    # "b" starts 2 ulps ahead of "a", and adding log P(z) = log 1e-300
    # rounds both to one score, so "a x y z" must now come before "b x
    # y z".  "A x y z" ties with both and reaches the sink after them,
    # through the epsilon edge: a sink state left in the old [b, a]
    # order would keep "b" and drop "a" to make room for it.
    pb = math.nextafter(math.nextafter(0.3, 1), 1)
    model = TableModel(
        {(BOS, BOS, "a"): 0.3, (BOS, BOS, "b"): pb, (BOS, BOS, "A"): 0.3, ("x", "y", "z"): 1e-300}
    )
    lattice = WordLattice(9, [
        (0, 1, "A"), (1, 2, "x"), (2, 3, "y"), (3, 4, "z"), (4, 8, EPS),
        (0, 5, "a"), (0, 5, "b"), (5, 6, "x"), (6, 7, "y"), (7, 8, "z"),
    ])
    assert score_sequence(model, "b x y".split()) > score_sequence(model, "a x y".split())
    assert score_sequence(model, "b x y z".split()) == score_sequence(model, "a x y z".split())
    got = [words for words, _score in top_n(lattice, model, 2)]
    assert got == ["A x y z".split(), "a x y z".split()]


@st.composite
def rerouted_lattices(draw):
    """A drawn lattice concatenated, on either side, with two routes
    over one word or two epsilon routes, so that every word sequence
    reaches the sink along at least two routes."""
    lattice = draw(st.one_of(small_lattices(), epsilon_lattices()))
    phrase = draw(st.sampled_from(SEEN_WORDS + ["x", ""]))
    twin = alternate(from_phrase(phrase), from_phrase(phrase))
    if draw(st.booleans()):
        return concat(twin, lattice)
    return concat(lattice, twin)


@NBEST
@given(rerouted_lattices(), st.one_of(small_models(), direct_models()), st.integers(1, 6))
def test_top_n_lists_a_word_sequence_once_however_many_routes_reach_it(lattice, model, n):
    paths, truncated = all_paths(lattice)
    assert not truncated
    got = [tuple(words) for words, _score in top_n(lattice, model, n)]
    assert len(set(got)) == len(got) == min(n, len(paths))


@st.composite
def renumbered_lattices(draw):
    """A drawn lattice and a copy whose interior nodes carry permuted
    ids, so that edges may run from higher to lower ids."""
    lattice = draw(st.one_of(small_lattices(), epsilon_lattices()))
    sink = lattice.sink
    interior = draw(st.permutations(range(1, sink)))
    new_id = [0, *interior, sink]
    edges = [(new_id[src], new_id[dst], label) for src, dst, label in lattice.edges]
    return lattice, WordLattice(lattice.node_count, edges)


@NBEST
@given(renumbered_lattices(), st.one_of(small_models(), direct_models()), st.integers(1, 5))
def test_top_n_is_the_same_under_any_interior_numbering(case, model, n):
    lattice, renumbered = case
    assert top_n(renumbered, model, n) == top_n(lattice, model, n)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 4, "a"), (1, 2, "b"), (2, 1, "c"), (2, 4, "d")],
        [(0, 4, "a"), (1, 2, EPS), (2, 3, EPS), (3, 1, EPS)],
        [(0, 4, "a"), (3, 3, "b")],
    ],
)
def test_best_path_rejects_a_cycle_the_source_never_reaches(edges):
    model = train_trigram(["a b"])
    with pytest.raises(LatticeError, match="^cannot decode a cyclic lattice$"):
        best_path(WordLattice(5, edges), model)


@pytest.mark.parametrize("head_start", [[], [(0, 4, "h"), (0, 5, "h")]])
def test_epsilon_targets_do_not_share_the_entries_they_carry(head_start):
    # node 3's (x, a) entries cross epsilon edges to nodes 4 and 5, which
    # then take "c x a" and "e x a" respectively; a list the two held in
    # common would invent "c x a g" and "e x a f".  The edge order makes
    # node 3 go first, and ``head_start`` gives both targets a state
    # before it does.
    edges = head_start + [
        (0, 6, "c"), (0, 8, "e"), (0, 1, "b"), (1, 2, "x"), (2, 3, "a"),
        (3, 4, EPS), (3, 5, EPS), (6, 7, "x"), (7, 4, "a"), (8, 9, "x"), (9, 5, "a"),
        (4, 10, "f"), (5, 10, "g"),
    ]
    lattice = WordLattice(11, edges)
    model = train_trigram(["b x a f", "c x a g", "e x a"], k=1)
    paths, _truncated = all_paths(lattice)
    ranked = sorted(((score_sequence(model, p), p) for p in paths), key=lambda item: (-item[0], item[1]))
    assert top_n(lattice, model, 8) == [(list(p), score) for score, p in ranked]


# a phrase, a concatenation (tuple) or an alternation (list) of terms
layout_terms = st.recursive(
    st.sampled_from(["", "a", "b c", "x y d"]),
    lambda parts: st.one_of(
        st.lists(parts, min_size=1, max_size=4).map(tuple),
        st.lists(parts, min_size=1, max_size=4),
    ),
    max_leaves=12,
)


def _fold_term(term):
    """The pairwise algebra's lattice of a ``layout`` term."""
    if isinstance(term, str):
        return from_phrase(term)
    parts = [_fold_term(part) for part in term]
    return concat_all(parts) if isinstance(term, tuple) else alternate_all(parts)


@NBEST
@given(layout_terms)
def test_n_ary_algebra_dumps_what_the_pairwise_fold_dumps(term):
    lattice = layout(term)
    assert dump_lattice(lattice) == dump_lattice(_fold_term(term))
    assert all(src < dst for src, dst, _label in lattice.edges)


def test_top_n_lists_parallel_and_epsilon_routes_once():
    # "a b" has four routes: two parallel "a" edges, each followed by
    # "b" directly or through an epsilon detour
    lattice = WordLattice(
        5, [(0, 1, "a"), (0, 1, "a"), (1, 2, "b"), (1, 3, EPS), (3, 2, "b"), (2, 4, EPS), (0, 4, "c")]
    )
    model = train_trigram(["a b", "c"], k=1)
    got = [words for words, _score in top_n(lattice, model, 5)]
    assert sorted(got) == [["a", "b"], ["c"]]


def test_all_paths_stops_at_its_cap():
    lattice = concat(alternate(from_word("a"), from_word("b")), alternate(from_word("c"), from_word("d")))
    paths, truncated = all_paths(lattice, cap=3)
    assert truncated
    assert len(paths) == 3
    assert set(paths) < set(all_paths(lattice)[0])


def test_parse_lattice_rejects_text_without_a_node_count():
    with pytest.raises(LatticeError, match="^missing N header$"):
        parse_lattice("E 0 1 a\n")


def test_parse_lattice_rejects_a_repeated_node_count():
    # the last header used to win, joining two lattices into one
    with pytest.raises(LatticeError, match="^line 3: repeated N header$"):
        parse_lattice("N 2\nE 0 1 a\nN 3\nE 1 2 b\n")


def test_parse_lattice_skips_blank_and_comment_lines():
    lat = concat(from_word("a"), from_phrase("b c"))
    text = "# a lattice\n\n" + dump_lattice(lat).replace("\n", "\n\n", 1)
    back = parse_lattice(text)
    assert (back.node_count, back.edges) == (lat.node_count, lat.edges)


def test_training_skips_empty_sentences():
    with_empty = train_trigram(["a b", "", [], "b c"], k=1)
    assert with_empty.dump() == train_trigram(["a b", "b c"], k=1).dump()


def test_a_tie_reads_the_chains_back_only_to_where_they_meet(monkeypatch):
    # two words the model never saw in each slot tie there, and the two
    # tied entries extend the same entry: a tie must cost as much on a
    # chain of 800 slots as on one of 100
    model = train_trigram(["a b c"])
    chain = lattice_lm._chain
    visited = []

    def counting_chain(entry):
        for step in chain(entry):
            visited[-1] += 1
            yield step

    tails = lattice_lm._tails

    def counting_tails(a, b):
        visited.append(0)
        return tails(a, b)

    monkeypatch.setattr(lattice_lm, "_chain", counting_chain)
    monkeypatch.setattr(lattice_lm, "_tails", counting_tails)
    most = {}
    for slots in (100, 800):
        visited.clear()
        edges = [(i, i + 1, word % i) for i in range(slots) for word in ("p%d", "q%d")]
        words, _score = best_path(WordLattice(slots + 1, edges), model)
        assert words == ["p%d" % i for i in range(slots)]
        assert len(visited) >= slots
        most[slots] = max(visited)
    assert most[800] <= most[100] <= 6
