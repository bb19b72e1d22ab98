"""The trigram model's file format and its per-context count rows.

The property tests compare the model against a reference that flattens
the rows into whole n-gram tables and computes each Katz backoff weight
by scanning a whole table in sorted key order, the way the model did
before it read one context's row; the two must agree bit for bit, not
approximately.  A model loaded from its own dump with the n-gram lines
shuffled must also agree bit for bit, since rows fill in file order but
sum in sorted order.
"""

import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt.cli import main
from hybridmt.lattice_lm import (
    BOS,
    EOS,
    OOV,
    LatticeError,
    TrigramModel,
    train_trigram,
)
from hybridmt.pipeline import Pipeline, load_config

from conftest import FIXTURES, fixture_path, ngram_rows


# -- model file errors ---------------------------------------------------

@pytest.mark.parametrize(
    "line, message",
    [
        ("1\tfoo", "needs 3 tab-separated columns, got 2"),
        ("3\ta\tb", "needs 5 tab-separated columns, got 3"),
        ("#k", "needs 2 tab-separated columns, got 1"),
        ("2\ta\tb\t4\textra", "needs 4 tab-separated columns, got 5"),
        ("2\ta\tb\tfour", "count 'four' is not an integer"),
        ("#k\t2.5", "count '2.5' is not an integer"),
        # a count below 1 gives probabilities outside [0, 1]
        ("1\tc\t-3", "count '-3' is below 1"),
        ("2\ta\tb\t0", "count '0' is below 1"),
        ("3\t<s>\t<s>\ta\t-3", "count '-3' is below 1"),
        ("#k\t0", "cutoff k '0' is below 1"),
        ("#k\t-2", "cutoff k '-2' is below 1"),
        # a repeat would silently replace the earlier count
        ("1\ta\t5", "duplicate n-gram 'a'"),
        ("2\tb\ta\t4", "duplicate n-gram 'b a'"),
        ("3\tb\ta\tb\t2", "duplicate n-gram 'b a b'"),
        # a second #k would silently override the first
        ("#k\t4", "repeated #k"),
        # #vocab must count the words of the unigram lines, a and b,
        # which are checked once all of them are read
        ("#vocab\tmany", "count 'many' is not an integer"),
        ("#vocab\t2\t2", "needs 2 tab-separated columns, got 3"),
        ("#vocab\t9", "#vocab 9 differs from the 2 words of the unigram lines"),
    ],
)
def test_load_bad_line_names_its_line_number(line, message):
    text = "#k\t5\n1\ta\t3\n2\tb\ta\t1\n3\tb\ta\tb\t1\n%s\n1\tb\t2\n" % line
    with pytest.raises(LatticeError) as exc:
        TrigramModel.load(text)
    assert str(exc.value).startswith("<string>:5: ")
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "line",
    ["", "   ", " \t ", "#vocab\t2", "#vocab", "# a comment\twith\tcolumns", "4\ta\tb\tc\td\t1", "x"],
)
def test_load_ignores_blank_comment_and_unknown_lines(line):
    text = "#k\t3\n1\ta\t3\n1\tb\t2\n2\ta\tb\t2\n3\t<s>\ta\tb\t1\n"
    plain = TrigramModel.load(text)
    padded = TrigramModel.load(line + "\n" + text + line + "\n")
    assert padded.dump() == plain.dump()
    assert padded.k == 3


def test_cli_bad_model_file_exits_1(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / "lm.model").write_text("#k\t5\n1\ta\t3\n3\ta\tb\n")
    code = main(
        ["--config", str(fixtures / "gloss.cfg"), "translate", "--input", fixture_path("batch50.txt")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: %s:3: " % (fixtures / "lm.model"))


def test_pipeline_error_for_a_bad_model_names_the_file(tmp_path):
    model = tmp_path / "bad.model"
    model.write_text("#k\t5\n1\ta\tx\n")
    config = tmp_path / "lm.cfg"
    config.write_text("lm_model = bad.model\n")
    with pytest.raises(LatticeError) as exc:
        Pipeline(load_config(str(config)))
    assert str(exc.value) == "%s:2: count 'x' is not an integer" % model


# -- reference backoff by whole-table scan ---------------------------------

def _flat_tables(model):
    """The model's rows as flat tables {(v, w): count} and {(u, v, w): count}."""
    bigrams = {(v, w): c for v, row in model.bigram_rows.items() for w, c in row.items()}
    trigrams = {(*ctx, w): c for ctx, row in model.trigram_rows.items() for w, c in row.items()}
    return bigrams, trigrams


def _scan_prob_bigram(model, w, v):
    bigrams, _trigrams = _flat_tables(model)
    v, w = model._map(v), model._map(w)
    ctx = model.bigram_ctx.get(v, 0)
    if ctx == 0:
        return model.prob_unigram(w)
    c = bigrams.get((v, w), 0)
    if c > 0:
        return model.adjusted_count(2, c) / ctx
    seen_mass = sum(
        model.adjusted_count(2, c2) / ctx
        for (u2, _w2), c2 in sorted(bigrams.items())
        if u2 == v
    )
    seen_lower = sum(
        model.prob_unigram(w2) for (u2, w2) in sorted(bigrams) if u2 == v
    )
    alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
    return alpha * model.prob_unigram(w)


def _scan_prob(model, w, history):
    _bigrams, trigrams = _flat_tables(model)
    u, v = model._map(history[0]), model._map(history[1])
    w = model._map(w)
    ctx = model.trigram_ctx.get((u, v), 0)
    if ctx == 0:
        return _scan_prob_bigram(model, w, v)
    c = trigrams.get((u, v, w), 0)
    if c > 0:
        return model.adjusted_count(3, c) / ctx
    followers = [
        (w3, c3)
        for (u3, v3, w3), c3 in sorted(trigrams.items())
        if (u3, v3) == (u, v)
    ]
    seen_mass = sum(model.adjusted_count(3, c3) / ctx for _w3, c3 in followers)
    seen_lower = sum(_scan_prob_bigram(model, w3, v) for w3, _c3 in followers)
    alpha = max(1.0 - seen_mass, 1e-12) / max(1.0 - seen_lower, 1e-12)
    return alpha * _scan_prob_bigram(model, w, v)


# -- strategies ------------------------------------------------------------

alphabets = st.integers(4, 6).map(lambda n: "abcdef"[:n])


@st.composite
def count_tables(draw):
    """Independent random unigram/bigram/trigram tables: no consistency
    between orders is promised, so the rows hold arbitrary contexts."""
    words = list(draw(alphabets))
    context = st.sampled_from(words + [BOS])
    event = st.sampled_from(words + [EOS])
    counts = st.integers(1, 6)
    uni = draw(st.dictionaries(st.sampled_from(words + [BOS, EOS]), counts, max_size=8))
    bi = draw(st.dictionaries(st.tuples(context, event), counts, max_size=20))
    tri = draw(st.dictionaries(st.tuples(context, context, event), counts, max_size=40))
    return TrigramModel(uni, ngram_rows(bi), ngram_rows(tri), k=draw(st.integers(1, 5)))


@st.composite
def trained_models(draw):
    """Models counted from a random corpus, so every order agrees."""
    words = draw(alphabets)
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=6)
    corpus = draw(st.lists(sentence, min_size=1, max_size=12))
    return train_trigram(corpus, k=draw(st.integers(1, 5)))


def _symbols(model):
    return sorted(model.vocabulary) + [BOS, EOS, OOV, "zzz-unseen"]


def _histories(model, draw):
    symbol = st.sampled_from(_symbols(model))
    return [(BOS, BOS)] + draw(st.lists(st.tuples(symbol, symbol), min_size=1, max_size=10))


# -- properties ------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(st.one_of(count_tables(), trained_models()), st.data())
def test_indexed_backoff_equals_whole_table_scan(model, data):
    for hist in _histories(model, data.draw):
        for w in _symbols(model):
            assert model.prob(w, hist) == _scan_prob(model, w, hist)
            assert model.prob_bigram(w, hist[1]) == _scan_prob_bigram(model, w, hist[1])


@PROPERTY
@given(st.one_of(count_tables(), trained_models()))
def test_discounts_never_raise_a_count(model):
    for order in (1, 2, 3):
        for r in range(1, model.k):
            assert 0 < model.adjusted_count(order, r) <= r


@PROPERTY
@given(trained_models(), st.data())
def test_trained_model_normalizes(model, data):
    events = sorted(model.vocabulary) + [OOV]
    for hist in _histories(model, data.draw):
        total = sum(model.prob(w, hist) for w in events)
        assert abs(total - 1.0) <= 1e-9, hist
        bigram_total = sum(model.prob_bigram(w, hist[1]) for w in events)
        assert abs(bigram_total - 1.0) <= 1e-9, hist


@PROPERTY
@given(st.one_of(count_tables(), trained_models()), st.data())
def test_dump_load_roundtrip(model, data):
    back = TrigramModel.load(model.dump())
    assert back.k == model.k
    assert back.unigrams == model.unigrams
    assert back.bigram_rows == model.bigram_rows
    assert back.trigram_rows == model.trigram_rows
    for hist in _histories(model, data.draw):
        for w in _symbols(model):
            assert back.prob(w, hist) == model.prob(w, hist)


@PROPERTY
@given(st.one_of(count_tables(), trained_models()), st.integers(0, 2**32 - 1), st.data())
def test_rows_filled_in_any_line_order_give_the_same_model(model, seed, data):
    text = model.dump()
    lines = text.splitlines(keepends=True)
    # the #k and #vocab lines, then the n-gram lines in a seeded order
    ngrams = lines[2:]
    random.Random(seed).shuffle(ngrams)
    back = TrigramModel.load("".join(lines[:2] + ngrams))
    assert back.dump() == text
    for hist in _histories(model, data.draw):
        for w in _symbols(model):
            assert back.prob(w, hist) == model.prob(w, hist)
            assert back.prob_bigram(w, hist[1]) == model.prob_bigram(w, hist[1])
    for m in (model, back):
        for ctx_sums, rows in ((m.bigram_ctx, m.bigram_rows), (m.trigram_ctx, m.trigram_rows)):
            assert ctx_sums.keys() == rows.keys()
            for c, row in rows.items():
                assert row
                assert ctx_sums[c] == sum(row.values())
