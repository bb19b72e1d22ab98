"""The benchmark's workloads: inputs from a seed, set-up, one operation,
and the output checks.

Every job builds fresh set-up and then makes one pass over the inputs,
so lazy caches start cold, as they do in each ``hybridmt translate``
process.  See README.md for why each workload exists.
"""

import hashlib
import os
import random

from hybridmt import lattice_lm, parser, rulebase
from hybridmt.chunker import Token
from hybridmt.pipeline import Pipeline, _path_count, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

# A check enumerates a lattice's paths only below this many.
ENUMERATION_CAP = 2_000


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Inputs:
    def __init__(self, items, digest_parts, **extra):
        self.items = items
        self.digest = _sha(digest_parts)
        self.__dict__.update(extra)


def brute_force_best(lattice, model):
    """Best path found by scoring every path on its own, or None when
    the lattice has too many paths to enumerate."""
    if _path_count(lattice) > ENUMERATION_CAP:
        return None
    paths, _truncated = lattice_lm.all_paths(lattice, cap=ENUMERATION_CAP)
    neg, words = min((-lattice_lm.score_sequence(model, p), p) for p in paths)
    return list(words), -neg


# ---------------------------------------------------------------------
# gloss-batch / interlingua-batch
# ---------------------------------------------------------------------

class Batch:
    """``batch50.txt`` through a fresh ``Pipeline`` per job; one operation
    is one ``translate_line``."""

    per_input_median = True
    # The pipeline fills lazy caches as lines go through it, so a line's
    # time depends on the lines before it in the job.  Each job takes the
    # lines in a new seeded order, so that each line's median covers many
    # positions.
    shuffle_per_job = True
    setup_repeat = 1

    def __init__(self, config):
        self.config = os.path.join(FIXTURES, config)

    def make_inputs(self, seed):
        lines = [l.strip() for l in _read(os.path.join(FIXTURES, "batch50.txt")).splitlines()]
        items = [(i, line) for i, line in enumerate(lines) if line]
        cfg = load_config(self.config)
        resources = sorted(
            (key, value) for key, value in cfg.values.items()
            if isinstance(value, str) and cfg.path_of(key)
        )
        parts = [_read(self.config)] + [line for _i, line in items]
        parts += ["%s=%s" % (key, _read(path)) for key, path in resources]
        return Inputs(items, parts)

    def setup(self, inputs):
        return Pipeline(load_config(self.config))

    def op(self, pipe, item):
        index, line = item
        trace = pipe.translate_line(line, index)
        return trace, trace.error is not None

    def output_text(self, item, trace):
        body = trace.output if trace.error is None else "# error: " + trace.error
        return "%d\t%s\t%s" % (item[0], body, trace.notes.get("lm_score", ""))

    def check(self, inputs, pipe, outputs):
        return [
            "line %d: empty output" % item[0]
            for item, trace in zip(inputs.items, outputs)
            if trace.error is None and not trace.output.strip()
        ]


# ---------------------------------------------------------------------
# parse-ambiguous
# ---------------------------------------------------------------------

TOY_GRAMMAR = "((S -> A)) ((S -> B)) ((S -> S S))"
TOY_LEXICON = {"ame": "A", "aki": "A", "asa": "A", "ban": "B", "bin": "B", "bun": "B"}
# 15 distinct lengths spread evenly over 12..32.  With an odd count the
# median lands in the middle of one input's samples, and with a count
# of 5 mod 10 so does p90 (0.9 * 15 = 13.5).
PARSE_LENGTHS = tuple(12 + round(i * 20 / 14) for i in range(15))


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def toy_rulebase():
    rb = rulebase.parse_rule_file(TOY_GRAMMAR, "syntax")
    for word, pos in TOY_LEXICON.items():
        rb.syn_lexicon[word] = [rulebase.LexiconEntry(word, pos)]
    return rb


class ParseAmbiguous:
    """``S -> A | B | S S`` over seeded A/B words; one operation is one
    ``parser.parse``.  Every length-n input has Catalan(n-1) trees."""

    per_input_median = False
    shuffle_per_job = False
    # one set-up takes tens of microseconds: time a batch as one sample
    setup_repeat = 200

    def make_inputs(self, seed):
        rng = random.Random(seed)
        words = sorted(TOY_LEXICON)
        items = [tuple(rng.choice(words) for _ in range(n)) for n in PARSE_LENGTHS]
        parts = [TOY_GRAMMAR, repr(sorted(TOY_LEXICON.items()))] + [" ".join(s) for s in items]
        return Inputs(items, parts)

    def setup(self, inputs):
        return toy_rulebase()

    def op(self, rb, item):
        try:
            return parser.parse([Token(w, "") for w in item], rb), False
        except parser.ParseError:
            return None, True

    def output_text(self, item, forest):
        return parser.dump_forest(forest) if forest is not None else "# error"

    def check(self, inputs, rb, outputs):
        errors = []
        for words, forest in zip(inputs.items, outputs):
            want = catalan(len(words) - 1)
            got = [parser.count_trees(forest, r) for r in forest.roots] if forest else []
            if got != [want]:
                errors.append("length %d: trees %r, want [%d]" % (len(words), got, want))
        return errors


# ---------------------------------------------------------------------
# extract-large-lm
# ---------------------------------------------------------------------

# 15 lattices (see PARSE_LENGTHS for why 15) spread evenly over
# 100..700 nodes, and small ones whose paths a check can enumerate.
LATTICE_NODES = tuple(100 + round(i * 600 / 14) for i in range(15))
CHECK_LATTICE_NODES = (4, 5, 6, 7, 8, 9, 10, 12)
CORPUS_SHUFFLES = 8
# Substitutes per word slot (one slot in seven has one or two) and the
# share of optional slots.  Each substitute brings new trigram contexts,
# and every new context costs a Katz backoff scan, so these set how much
# of a job is the cold-cache cost; here most of it.
SUBSTITUTES = (0,) * 12 + (1, 2)
OPTIONAL_SHARE = 0.05


def seeded_lattice(rng, sentences, vocab, nodes):
    """A chain of words from the given corpus sentences; each slot has
    0-2 substitutes from the vocabulary and some slots are optional (an
    epsilon edge)."""
    edges = []
    node = 0
    while node < nodes - 1:
        for word in rng.choice(sentences):
            if node == nodes - 1:
                break
            edges.append((node, node + 1, word))
            for _ in range(rng.choice(SUBSTITUTES)):
                edges.append((node, node + 1, rng.choice(vocab)))
            if rng.random() < OPTIONAL_SHARE:
                edges.append((node, node + 1, lattice_lm.EPS))
            node += 1
    return lattice_lm.WordLattice(nodes, edges).validate()


class ExtractLargeLm:
    """A trigram model trained on ``article_corpus.txt`` plus seeded
    word-shuffled copies; each job loads it from its dump text (the
    set-up), so every job starts with cold Katz backoff caches.  One
    operation is one ``lattice_lm.best_path``."""

    per_input_median = False
    shuffle_per_job = False
    setup_repeat = 1

    def make_inputs(self, seed):
        rng = random.Random(seed)
        text = _read(os.path.join(FIXTURES, "article_corpus.txt"))
        sentences = [l.split() for l in text.splitlines() if l.strip()]
        corpus = list(sentences)
        for _ in range(CORPUS_SHUFFLES):
            for sentence in sentences:
                copy = list(sentence)
                rng.shuffle(copy)
                corpus.append(copy)
        dump = lattice_lm.train_trigram(corpus).dump()
        vocab = sorted({w for s in sentences for w in s})
        # each lattice draws on its own share of the corpus, so it pays
        # for its own new contexts rather than for what the lattices
        # before it in the job left unseen
        order = list(sentences)
        rng.shuffle(order)
        shares = [order[i::len(LATTICE_NODES)] for i in range(len(LATTICE_NODES))]
        items = [seeded_lattice(rng, share, vocab, n) for share, n in zip(shares, LATTICE_NODES)]
        small = [seeded_lattice(rng, sentences, vocab, n) for n in CHECK_LATTICE_NODES]
        parts = [dump] + [lattice_lm.dump_lattice(l) for l in items + small]
        return Inputs(items, parts, model_dump=dump, check_lattices=small)

    def setup(self, inputs):
        return lattice_lm.TrigramModel.load(inputs.model_dump)

    def op(self, model, lattice):
        try:
            return lattice_lm.best_path(lattice, model), False
        except lattice_lm.LatticeError:
            return None, True

    def output_text(self, lattice, result):
        if result is None:
            return "# error"
        words, score = result
        return "%s\t%r" % (" ".join(words), score)

    def check(self, inputs, model, outputs):
        errors = []
        for i, result in enumerate(outputs):
            if result is not None and lattice_lm.score_sequence(model, result[0]) != result[1]:
                errors.append("lattice %d: score is not the path's own score" % i)
        checked = 0
        for lattice in inputs.check_lattices:
            want = brute_force_best(lattice, model)
            if want is None:
                continue
            checked += 1
            got = lattice_lm.best_path(lattice, model)
            if got != want:
                errors.append("%d-node lattice: best_path %r, enumeration %r" % (
                    lattice.node_count, got, want))
        if not checked:
            errors.append("no check lattice was small enough to enumerate")
        return errors


WORKLOADS = {
    "gloss-batch": Batch("gloss.cfg"),
    "interlingua-batch": Batch("interlingua.cfg"),
    "parse-ambiguous": ParseAmbiguous(),
    "extract-large-lm": ExtractLargeLm(),
}
