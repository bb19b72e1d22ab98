"""Pipeline harness: configuration, stage wiring, tracing, training.

The translator is a chain of transformers (stages that may expand the
set of structures) and ranker-pruners (stages that score structures and
keep at most as many as they received).  Two paths share the front end:

  gloss path:        chunk - parse - gloss - flatten - extract - postedit
  interlingua path:  chunk - parse - analyze - infer - rank - realize -
                     extract - postedit

When interlingua analysis yields no root candidate, or the best one
cannot be realized, the sentence falls back to the gloss path, so any
input produces output.  Per-sentence failures become error records,
never process termination.
"""

import os

from . import chunker, glosser, lattice_lm, parser, posteditor, realizer, rulebase, semantics, sexpr


class ResourceError(ValueError):
    """A configured resource file is missing or unreadable."""


_DEFAULTS = {
    "path": "gloss",
    "root_categories": "S",
    "category_order": "",
}

_FILE_KEYS = (
    "grammar",
    "sem_rules",
    "gloss_rules",
    "syn_lexicon",
    "bilingual",
    "sem_lexicon",
    "compounds",
    "patterns",
    "taxonomy",
    "lm_model",
    "tree",
    "repairs",
    "exceptions",
    "gen_lexicon",
    "irregulars",
    "nouns",
    "lm_corpus",
    "article_corpus",
)


class PipelineConfig:
    def __init__(self, base_dir="."):
        self.values = dict(_DEFAULTS)
        self.base_dir = base_dir

    def set(self, key, value):
        if key in _FILE_KEYS:
            path = os.path.join(self.base_dir, value)
            if not os.path.isfile(path):
                raise ResourceError("config key %s: missing file %s" % (key, path))
            self.values[key] = path
        elif key == "path" and value not in ("gloss", "interlingua"):
            raise ResourceError("config key path must be gloss or interlingua, got %r" % value)
        elif key in _DEFAULTS:
            self.values[key] = value
        else:
            raise ResourceError("unknown config key %r" % key)

    def path_of(self, key):
        value = self.values.get(key)
        return value if isinstance(value, str) and key in _FILE_KEYS else None

    @property
    def root_categories(self):
        return tuple(c for c in self.values["root_categories"].split(",") if c)

    @property
    def category_order(self):
        return tuple(c for c in self.values["category_order"].split(",") if c)


def load_config(path):
    """Line-oriented ``key = value`` file; paths resolve relative to the
    config file's directory."""
    if not os.path.isfile(path):
        raise ResourceError("missing config file: %s" % path)
    cfg = PipelineConfig(base_dir=os.path.dirname(os.path.abspath(path)))
    for where, line in sexpr.records(sexpr.read_text(path), path):
        key, eq, value = line.partition("=")
        if not eq:
            raise ResourceError("%s: expected key = value" % where)
        try:
            cfg.set(key.strip(), value.strip())
        except ResourceError as err:
            raise ResourceError("%s: %s" % (where, err))
    return cfg


# ---------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------

class StageTrace:
    __slots__ = ("name", "kind", "n_in", "n_out")

    def __init__(self, name, kind, n_in, n_out):
        self.name = name
        self.kind = kind
        self.n_in = n_in
        self.n_out = n_out

    @property
    def pruned(self):
        return max(self.n_in - self.n_out, 0) if self.kind == "ranker-pruner" else 0


class SentenceTrace:
    def __init__(self, index):
        self.index = index
        self.stages = []
        self.notes = {}
        self.output = None
        self.error = None

    def stage(self, name, kind, n_in, n_out):
        self.stages.append(StageTrace(name, kind, n_in, n_out))


def format_trace(traces):
    """TSV trace file: stage rows, note rows and a result row per
    sentence."""
    lines = []
    for t in traces:
        for s in t.stages:
            lines.append(
                "%d\tstage\t%s\t%s\t%d\t%d\t%d" % (t.index, s.name, s.kind, s.n_in, s.n_out, s.pruned)
            )
        for key in sorted(t.notes):
            lines.append("%d\tnote\t%s\t%s" % (t.index, key, t.notes[key]))
        if t.error is not None:
            lines.append("%d\tresult\terror\t%s" % (t.index, t.error))
        else:
            lines.append("%d\tresult\tok\t%s" % (t.index, t.output))
    return "\n".join(lines) + ("\n" if lines else "")


_TRACE_COLUMNS = {"stage": 7, "note": 4, "result": 4}


def parse_trace(text):
    """The traces of ``format_trace`` text; a malformed row raises
    ValueError naming its line."""
    traces = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        kind = cols[1] if len(cols) > 1 else None
        if len(cols) != _TRACE_COLUMNS.get(kind) or kind == "result" and cols[2] not in ("ok", "error"):
            raise ValueError("trace line %d: not a stage, note or result row: %r" % (lineno, line))
        try:
            index = int(cols[0])
            counts = [int(c) for c in cols[4:]] if kind == "stage" else ()
        except ValueError as err:
            raise ValueError("trace line %d: %s" % (lineno, err)) from None
        t = traces.get(index)
        if t is None:
            t = traces[index] = SentenceTrace(index)
        if kind == "stage":
            t.stage(cols[2], cols[3], *counts[:2])
        elif kind == "note":
            t.notes[cols[2]] = cols[3]
        elif cols[2] == "error":
            t.error = cols[3]
        else:
            t.output = cols[3]
    return [traces[i] for i in sorted(traces)]


def run_trace_report(traces):
    """Aggregate per-stage totals and batch statistics."""
    if not traces:
        raise ValueError("report needs at least one translated sentence")
    totals = {}  # stage name -> [kind, in, out, pruned], first seen first
    for t in traces:
        for s in t.stages:
            row = totals.setdefault(s.name, [s.kind, 0, 0, 0])
            row[1] += s.n_in
            row[2] += s.n_out
            row[3] += s.pruned

    def mean(key):
        values = [float(t.notes[key]) for t in traces if key in t.notes]
        return sum(values) / len(values) if values else 0.0

    lines = ["sentences\t%d" % len(traces)]
    errors = sum(1 for t in traces if t.error is not None)
    lines.append("errors\t%d" % errors)
    lines.append("full-parse-rate\t%.4f" % mean("full_parse"))
    lines.append("avg-lattice-paths\t%.4f" % mean("paths"))
    lines.append("avg-candidates\t%.4f" % mean("candidates"))
    lines.append("stage\tkind\tin\tout\tpruned")
    for name, (kind, n_in, n_out, pruned) in totals.items():
        lines.append("%s\t%s\t%d\t%d\t%d" % (name, kind, n_in, n_out, pruned))
    return "\n".join(lines) + "\n"


def _path_count(lattice):
    """Exact number of source-to-sink paths (labels ignored)."""
    out, order = lattice_lm._edge_pass(lattice)
    if order is None:
        return 0
    counts = [0] * lattice.node_count
    counts[lattice.source] = 1
    for node in order:
        for dst, _label in out[node]:
            counts[dst] += counts[node]
    return counts[lattice.sink]


# ---------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------

class Pipeline:
    """Immutable resources plus per-sentence translation."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.rb = rulebase.load_rulebase(
            grammar_file=cfg.path_of("grammar"),
            sem_file=cfg.path_of("sem_rules"),
            gloss_file=cfg.path_of("gloss_rules"),
            syn_lexicon_file=cfg.path_of("syn_lexicon"),
            bilingual_file=cfg.path_of("bilingual"),
            sem_lexicon_file=cfg.path_of("sem_lexicon"),
            compound_file=cfg.path_of("compounds"),
        )
        problems = rulebase.arity_errors(self.rb)
        if problems:
            raise ResourceError(problems[0])
        if cfg.path_of("grammar"):
            self._check_categories()
        self.patterns = self._load("patterns", chunker.load_patterns, chunker.PatternSet())
        self.taxonomy = self._load("taxonomy", semantics.Taxonomy.parse, None)
        self.lm = self._load("lm_model", lattice_lm.TrigramModel.load, None)
        self.tree = self._load("tree", posteditor.parse_tree, None)
        self.repairs = self._load("repairs", posteditor.parse_repairs, [])
        self.exceptions = self._load("exceptions", posteditor.parse_word_list, set())
        self.gen_lexicon = self._load("gen_lexicon", realizer.parse_gen_lexicon, {})
        self.irregulars = self._load("irregulars", glosser.parse_irregulars, {})
        self.nouns = self._load("nouns", posteditor.parse_word_list, set())
        self.countability = {
            e.lemma: e.countable
            for e in self.gen_lexicon.values()
            if e.category == "noun"
        }

    def _check_categories(self):
        """A root or ordering category must occur in a syntax rule or as
        a syntactic lexicon POS, so a typo is an error, not a silent loss
        of every full parse."""
        known = {e.pos for entries in self.rb.syn_lexicon.values() for e in entries}
        for backbone, rule in self.rb.rules.items():
            if rule.syntax_sets:
                known.update((backbone.lhs, *backbone.rhs))
        for key in ("root_categories", "category_order"):
            for cat in getattr(self.cfg, key):
                if cat not in known:
                    raise ResourceError("config key %s: unknown category %r" % (key, cat))

    def _load(self, key, parse, default):
        """``parse(text, path)`` of a configured resource's file, else ``default``."""
        path = self.cfg.path_of(key)
        return parse(sexpr.read_text(path), path) if path else default

    # -- stages ------------------------------------------------------------

    def chunk(self, line):
        tokens = chunker.parse_token_line(line)
        tokens = chunker.resegment(tokens, self.rb.compounds)
        return chunker.chunk(tokens, self.patterns)

    def parse(self, tokens):
        return parser.parse(tokens, self.rb, root_categories=self.cfg.root_categories)

    def gloss(self, forest):
        gfs = glosser.gloss_forest(forest, self.rb, category_order=self.cfg.category_order)
        return glosser.flatten_gloss(gfs, self.irregulars)

    def analyze(self, forest):
        """Root meaning candidates, after inference."""
        analyses = semantics.analyze(forest, self.rb)
        candidates = semantics.root_candidates(
            forest, analyses, category_order=self.cfg.category_order
        )
        for c in candidates:
            c.graph = semantics.infer(c.graph)
        return candidates

    def rank(self, candidates):
        """Score by coherence; best first, at most ``CANDIDATE_CAP``."""
        if self.taxonomy is None:
            raise ResourceError("ranking requires a taxonomy")
        for c in candidates:
            c.score = semantics.score_assertions(
                semantics.to_assertions(c.graph), self.taxonomy
            )
        ranked = semantics.rank_candidates(candidates)
        return ranked[: semantics.CANDIDATE_CAP]

    def realize(self, graph):
        return realizer.realize(graph, self.gen_lexicon, irregulars=self.irregulars)

    def decode(self, lattice, n=None):
        """``best_path`` under the language model, or ``top_n`` when
        ``n`` is given."""
        if self.lm is None:
            raise ResourceError("decoding requires a trained language model (lm_model)")
        if n is None:
            return lattice_lm.best_path(lattice, self.lm)
        return lattice_lm.top_n(lattice, self.lm, n)

    def postedit(self, text):
        text = posteditor.apply_repairs(text, self.repairs)
        if self.tree is not None and self.nouns:
            text = posteditor.insert_articles(
                text, self.tree, self.nouns, self.exceptions, self.countability
            )
        return text

    # -- per-sentence paths ------------------------------------------------

    def _realized(self, forest, trace):
        """The best candidate's lattice, or None when no candidate
        survives or the best one cannot be realized."""
        candidates = self.analyze(forest)
        trace.stage("analyze", "transformer", len(forest.constituents), len(candidates))
        trace.notes["candidates"] = len(candidates)
        if not candidates:
            return None
        kept = self.rank(candidates)
        trace.stage("rank", "ranker-pruner", len(candidates), len(kept))
        best = kept[0]
        trace.notes["best_score"] = "%.6g" % best.score
        try:
            return self.realize(best.graph)
        except realizer.RealizeError:
            trace.notes["fallback"] = "realize-error"
            return None

    def translate_line(self, line, index=0):
        trace = SentenceTrace(index)
        try:
            tokens = self.chunk(line)
            trace.stage("chunk", "transformer", len(line.split()), len(tokens))
            forest = self.parse(tokens)
            trace.stage("parse", "transformer", len(tokens), len(forest.constituents))
            trace.notes["full_parse"] = 1 if forest.roots else 0
            lattice, stage, n_in = None, "realize", 1
            if self.cfg.values["path"] == "interlingua":
                lattice = self._realized(forest, trace)
            if lattice is None:
                lattice, stage, n_in = self.gloss(forest), "gloss", len(forest.constituents)
            n_paths = _path_count(lattice)
            trace.stage(stage, "transformer", n_in, n_paths)
            trace.notes["paths"] = n_paths
            words, score = self.decode(lattice)
            trace.stage("extract", "ranker-pruner", max(n_paths, 1), 1)
            trace.notes["lm_score"] = "%.6f" % score
            text = self.postedit(" ".join(words))
            trace.stage("postedit", "transformer", 1, 1)
            trace.output = text.rstrip("\n")
        except Exception as err:
            trace.error = "%s: %s" % (type(err).__name__, err)
        return trace

    def translate_batch(self, lines):
        traces = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            traces.append(self.translate_line(line.strip(), index))
        return traces

    # -- training ----------------------------------------------------------

    def _corpus(self, key, command):
        """The non-blank lines of a configured training corpus."""
        path = self.cfg.path_of(key)
        if path is None:
            raise ResourceError("%s requires the %s resource" % (command, key))
        return [l for l in sexpr.read_text(path).splitlines() if l.strip()]

    def train_lm(self):
        return lattice_lm.train_trigram(self._corpus("lm_corpus", "train-lm"))

    def train_postedit(self):
        sentences = self._corpus("article_corpus", "train-postedit")
        if not self.nouns:
            raise ResourceError("train-postedit requires the nouns resource")
        instances = posteditor.extract_instances(sentences, self.nouns, self.countability)
        if not instances:
            raise ResourceError("article corpus yielded no training instances")
        return posteditor.train_tree(instances)
