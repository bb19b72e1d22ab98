"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single
``ACCEPTANCE <n> PASS`` line once its assertions have held.
"""

import itertools
import random
import time

import pytest

import test_featstruct as fsoracle

from hybridmt import glosser, lattice_lm as wl, posteditor, semantics
from hybridmt.chunker import Token
from hybridmt.featstruct import unify
from hybridmt.parser import parse
from hybridmt.realizer import realize
from hybridmt.rulebase import LexiconEntry, parse_rule_file

from conftest import fixture_path
from oracles import alternate, concat, enumerate_trees, from_phrase, from_word, isomorphic

GLOSS_DEMO = "john/N wa/HA ima/ADV tabetai/V"
INTERLINGUA_DEMO = "kaisha/N wa/HA nigatsu/DATE ni/NI hossoku/VN wo/WO keikaku/V"


def _read(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


def _report(n, summary):
    print("ACCEPTANCE %d PASS: %s" % (n, summary))


# -- 1: unification algebra ----------------------------------------------

def test_criterion_01_unification_algebra():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        a, b, c = (fsoracle.random_fs(rng) for _ in range(3))
        # agreement with the disjunct-expansion brute-force oracle
        result = unify(a, b)
        expected = fsoracle.oracle_set(a, b)
        if result is None:
            assert expected == set()
        else:
            assert set(fsoracle.expand(result)) == expected
        # idempotence and commutativity
        assert unify(a, a) == a
        assert unify(a, b) == unify(b, a)
        # associativity up to isomorphism (FeatStruct equality is
        # isomorphism including reentrancy)
        left = unify(a, b)
        left = unify(left, c) if left is not None else None
        right = unify(b, c)
        right = unify(a, right) if right is not None else None
        assert left == right
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, "1000 random pairs, oracle + algebra laws, %.2fs" % elapsed)


# -- 2: parser oracle equivalence ----------------------------------------

_TOY_RULES = {"S": [("A",), ("B",), ("S", "S")]}
_LEXICON = {"ame": "A", "aki": "A", "asa": "A", "ban": "B", "bin": "B", "bun": "B"}


def _toy_grammar():
    rb = parse_rule_file("((S -> A)) ((S -> B)) ((S -> S S))", "syntax")
    for word, pos in _LEXICON.items():
        rb.syn_lexicon[word] = [LexiconEntry(word, pos)]
    return rb


def _oracle_trees(tags, cat, i, j, memo):
    key = (cat, i, j)
    if key in memo:
        return memo[key]
    memo[key] = []
    out = []
    if j == i + 1 and tags[i] == cat:
        out.append((cat, (i, j), None, ()))
    for rhs in _TOY_RULES.get(cat, ()):
        if len(rhs) == 1:
            for t in _oracle_trees(tags, rhs[0], i, j, memo):
                out.append((cat, (i, j), (cat, rhs), (t,)))
        else:
            for k in range(i + 1, j):
                for lt in _oracle_trees(tags, rhs[0], i, k, memo):
                    for rt in _oracle_trees(tags, rhs[1], k, j, memo):
                        out.append((cat, (i, j), (cat, rhs), (lt, rt)))
    memo[key] = out
    return out


def test_criterion_02_parser_oracle_and_barriers():
    rb = _toy_grammar()
    by_cat = {}
    for word, pos in sorted(_LEXICON.items()):
        by_cat.setdefault(pos, []).append(word)
    checked = 0
    for n in range(1, 9):
        for cats in itertools.product("AB", repeat=n):
            # deterministic word choice cycling through each category's
            # three lexicon words
            words = [by_cat[c][i % 3] for i, c in enumerate(cats)]
            tokens = [Token(w, "") for w in words]
            forest = parse(tokens, rb)
            got = set()
            for root in forest.roots:
                got.update(enumerate_trees(forest, root, cap=10_000))
            want = set(_oracle_trees(list(cats), "S", 0, n, {}))
            assert got == want, cats
            checked += 1
    # barrier property on randomized chunked inputs
    rng = random.Random(202)
    for _ in range(1000):
        n = rng.randint(2, 7)
        words = [rng.choice(sorted(_LEXICON)) for _ in range(n)]
        lo = rng.randrange(n)
        hi = rng.randrange(lo + 1, n + 1)
        tokens = [Token(w, "") for w in words]
        tokens.insert(hi, Token.end("S"))
        tokens.insert(lo, Token.begin("S"))
        forest = parse(tokens, rb)
        for c in forest:
            if c.category != "S":
                continue
            overlap = c.start < hi and lo < c.end
            contains = c.start <= lo and hi <= c.end
            contained = lo <= c.start and c.end <= hi
            assert not (overlap and not contains and not contained)
    _report(2, "%d exhaustive sentences + 1000 barrier inputs" % checked)


# -- 3: Good-Turing arithmetic -------------------------------------------

def test_criterion_03_good_turing_arithmetic():
    corpus = [l for l in _read("lm_corpus.txt").splitlines() if l.strip()]
    assert len(corpus) == 10
    model = wl.train_trigram(corpus)
    # every adjusted count matches the defining formula
    verified = 0
    bigram_counts = [c for row in model.bigram_rows.values() for c in row.values()]
    trigram_counts = [c for row in model.trigram_rows.values() for c in row.values()]
    for order, counts in ((1, model.unigrams.values()), (2, bigram_counts), (3, trigram_counts)):
        n_r = {}
        for c in counts:
            n_r[c] = n_r.get(c, 0) + 1
        for r in range(1, model.k):
            if n_r.get(r, 0) and n_r.get(r + 1, 0):
                want = (r + 1) * n_r[r + 1] / n_r[r]
                assert abs(model.adjusted_count(order, r) - want) < 1e-9
                verified += 1
    assert verified > 0
    # 100 sampled histories normalize over vocabulary + OOV
    events = sorted(model.vocabulary) + [wl.OOV]
    rng = random.Random(303)
    pool = sorted(model.vocabulary) + [wl.BOS, wl.OOV, "zzz-unseen"]
    histories = [(wl.BOS, wl.BOS)] + [
        (rng.choice(pool), rng.choice(pool)) for _ in range(99)
    ]
    for hist in histories:
        total = sum(model.prob(w, hist) for w in events)
        assert 1 - 1e-6 <= total <= 1 + 1e-6, hist
        for w in events:
            assert model.prob(w, hist) > 0.0
    _report(3, "%d adjusted counts exact, 100 histories sum to 1" % verified)


# -- 4: extraction exactness ---------------------------------------------

def test_criterion_04_extraction_exactness():
    model = wl.TrigramModel.load(_read("lm.model"))
    rng = random.Random(404)
    started = time.monotonic()
    for _ in range(500):
        lat, want = None, None
        while lat is None:
            lat, want = _random_lattice(rng)
            if len(want) > 10_000:
                lat = None
        scored = sorted(
            ((wl.score_sequence(model, list(p)), p) for p in want),
            key=lambda item: (-item[0], item[1]),
        )
        words, score = wl.best_path(lat, model)
        assert score == pytest.approx(scored[0][0], abs=1e-9)
        got = wl.top_n(lat, model, 5)
        want_scores = [s for s, _p in scored[:5]]
        assert [s for _w, s in got] == pytest.approx(want_scores, abs=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(4, "500 random lattices, best/top-5 exact, %.2fs" % elapsed)


def _random_lattice(rng, depth=0):
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


# -- 5: worked example, gloss path ---------------------------------------

def test_criterion_05_gloss_worked_example(gloss_pipeline):
    pipe = gloss_pipeline
    forest = pipe.parse(pipe.chunk(GLOSS_DEMO))
    fs = glosser.gloss_forest(forest, pipe.rb, category_order=pipe.cfg.category_order)
    lat = glosser.flatten_gloss(fs, pipe.irregulars)
    paths, truncated = wl.all_paths(lat)
    assert not truncated
    rendered = {" ".join(p) for p in paths}
    assert rendered == {"John wants to eat now", "John want to eat now"}
    words, _score = wl.best_path(lat, pipe.lm)
    assert " ".join(words) == "John wants to eat now"
    trace = pipe.translate_line(GLOSS_DEMO)
    assert trace.error is None and trace.output == "John wants to eat now"
    _report(5, "gloss lattice paths and extraction match")


# -- 6: worked example, interlingua path ----------------------------------

def test_criterion_06_interlingua_worked_example(interlingua_pipeline):
    pipe = interlingua_pipeline
    forest = pipe.parse(pipe.chunk(INTERLINGUA_DEMO))
    analyses = semantics.analyze(forest, pipe.rb)
    candidates = semantics.root_candidates(forest, analyses)
    assert len(candidates) == 1
    g = candidates[0].graph
    assert g.root.concept == "have as a goal"
    company = g.root.roles["senser"]
    assert g.root.roles["theme"] is company  # reentrancy
    phen = g.root.roles["phenomenon"]
    assert phen.roles["temporal-locating"].attributes["month-index"] == "2"
    # SPL text round-trip
    back = semantics.parse_spl(semantics.serialize_spl(g))
    assert isomorphic(g, back)
    # end-to-end
    trace = pipe.translate_line(INTERLINGUA_DEMO)
    assert trace.error is None
    assert trace.output == "The company plans the launching in February ."
    _report(6, "graph structure, SPL round-trip and exact output")


# -- 7: semantic ranking properties ---------------------------------------

def test_criterion_07_ranking_properties():
    taxonomy = semantics.Taxonomy.parse(_read("taxonomy.txt"))
    clean = [
        ("ingest", "senser", "named person"),
        ("ingest", "theme", "food"),
    ]
    relaxed = clean + [("ingest", "agent", "calendar month")]  # level-1
    base = semantics.score_assertions(clean, taxonomy)
    twin = semantics.score_assertions(relaxed, taxonomy)
    assert base > 0.0 and twin > 0.0
    assert twin == 0.1 * base  # exactly one level-1 penalty
    # positivity on random assertion lists
    rng = random.Random(707)
    concepts = ["ingest", "named person", "food", "calendar month", "event"]
    roles = ["senser", "theme", "agent", "q-mod", "mystery"]
    scores = []
    for _ in range(200):
        triples = [
            (rng.choice(concepts), rng.choice(roles), rng.choice(concepts))
            for _ in range(rng.randint(0, 6))
        ]
        s = semantics.score_assertions(triples, taxonomy)
        assert s > 0.0
        scores.append(s)
    # ranking invariant under common positive scaling
    cands = [semantics.SemCandidate(None, s) for s in scores]
    ranked = semantics.rank_candidates(cands)
    scaled = [semantics.SemCandidate(c, 7.5 * c.score) for c in cands]
    reranked = semantics.rank_candidates(scaled)
    assert [c.graph for c in reranked] == ranked
    _report(7, "positivity, exact 0.1x level-1 penalty, scale invariance")


# -- 8: defaults -----------------------------------------------------------

def test_criterion_08_generation_defaults(gloss_pipeline):
    lex = __import__("hybridmt.realizer", fromlist=["parse_gen_lexicon"]).parse_gen_lexicon(
        _read("gen_lexicon.tsv")
    )
    g = semantics.parse_spl("(|e| / ingest :AGENT (|c| / |company/business|))")
    paths, _ = wl.all_paths(realize(g, lex))
    assert {" ".join(p) for p in paths} == {"The company eats ."}
    # ("the" | "a") . "moon" resolves to "the moon" under the fixture LM
    lat = concat(
        alternate(from_word("the"), from_word("a")), from_word("moon")
    )
    words, _score = wl.best_path(lat, gloss_pipeline.lm)
    assert words == ["the", "moon"]
    _report(8, 'article "the" + present tense defaults, "the moon" preferred')


# -- 9: posteditor ---------------------------------------------------------

def _synthetic_article_corpus():
    # labels are a deterministic function of the head noun
    the_nouns = ["cat", "dog", "moon", "river"]
    a_nouns = ["book", "tree", "apple", "owl"]
    null_nouns = ["water", "music", "snow", "rice"]
    templates = [
        "he saw NOUN yesterday",
        "she likes NOUN very much",
        "we found NOUN near home",
        "NOUN was there",
        "they want NOUN now",
    ]
    sentences = []
    for template in templates:
        for noun in the_nouns:
            sentences.append(template.replace("NOUN", "the " + noun))
        for noun in a_nouns:
            article = "an" if noun[0] in "aeiou" else "a"
            sentences.append(template.replace("NOUN", article + " " + noun))
        for noun in null_nouns:
            sentences.append(template.replace("NOUN", noun))
    nouns = set(the_nouns + a_nouns + null_nouns)
    return sentences, nouns


def test_criterion_09_posteditor_accuracy():
    # synthetic deterministic dataset: 100% held-out accuracy
    sentences, nouns = _synthetic_article_corpus()
    # hold out the last template so every noun is seen during training
    train, held = sentences[:-12], sentences[-12:]
    tree = posteditor.train_tree(posteditor.extract_instances(train, nouns))
    held_instances = posteditor.extract_instances(held, nouns)
    assert held_instances
    correct = sum(
        1
        for inst in held_instances
        if posteditor.classify(tree, inst.features) == inst.label
    )
    assert correct == len(held_instances)

    # realistic corpus: strictly above the always-"the" baseline
    corpus = [l for l in _read("article_corpus.txt").splitlines() if l.strip()]
    nouns2 = {w.strip() for w in _read("nouns.txt").splitlines() if w.strip()}
    train2 = [s for i, s in enumerate(corpus) if i % 5]
    held2 = [s for i, s in enumerate(corpus) if not i % 5]
    all_instances = posteditor.extract_instances(corpus, nouns2)
    assert len(all_instances) >= 400  # around 500 slots overall
    tree2 = posteditor.train_tree(posteditor.extract_instances(train2, nouns2))
    held_instances2 = posteditor.extract_instances(held2, nouns2)
    hits = sum(
        1
        for inst in held_instances2
        if posteditor.classify(tree2, inst.features) == inst.label
    )
    accuracy = hits / len(held_instances2)
    baseline = sum(1 for i in held_instances2 if i.label == "the") / len(held_instances2)
    assert accuracy > baseline

    # insertion never modifies non-slot bytes
    untouched = [
        "completely unrelated words",
        "the cat is already marked",
        "  odd   spacing kept  intact ",
    ]
    for line in untouched:
        assert posteditor.insert_articles(line, tree2, nouns2) == line
    inserted = posteditor.insert_articles("he saw cat", tree2, nouns2)
    tokens = inserted.split()
    assert [t for t in tokens if t not in posteditor.ARTICLES] == ["he", "saw", "cat"]
    _report(
        9,
        "synthetic 100%%, realistic %.3f > baseline %.3f on %d held-out slots"
        % (accuracy, baseline, len(held_instances2)),
    )


# -- 10: robustness batch ----------------------------------------------------

def test_criterion_10_robustness_batch(gloss_pipeline, interlingua_pipeline):
    lines = [l for l in _read("batch50.txt").splitlines() if l.strip()]
    assert len(lines) == 50
    for pipe in (gloss_pipeline, interlingua_pipeline):
        first = pipe.translate_batch(lines)
        assert len(first) == 50
        assert all(t.error is None for t in first)
        assert all(isinstance(t.output, str) and t.output for t in first)
        second = pipe.translate_batch(lines)
        assert [t.output for t in first] == [t.output for t in second]
    _report(10, "50-line batch, both paths, zero errors, byte-identical reruns")
