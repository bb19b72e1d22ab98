"""Pipeline harness: configuration, stage wiring, tracing, training.

The translator is a chain of transformers (stages that may expand the
set of structures) and ranker-pruners (stages that score structures and
keep at most as many as they received).  Two paths share the front end:

  gloss path:        chunk - parse - gloss - flatten - extract - postedit
  interlingua path:  chunk - parse - analyze - infer - rank - realize -
                     extract - postedit

When interlingua analysis yields no root candidate the sentence falls
back to the gloss path (configurable), so any input produces output.
Per-sentence failures become error records, never process termination.
"""

import os

from . import chunker, glosser, lattice_lm, parser, posteditor, realizer, rulebase, semantics

__all__ = [
    "PipelineConfig",
    "Pipeline",
    "ResourceError",
    "StageTrace",
    "SentenceTrace",
    "load_config",
    "run_trace_report",
    "format_trace",
    "parse_trace",
]


class ResourceError(ValueError):
    """A configured resource file is missing or unreadable."""


_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}

_DEFAULTS = {
    "path": "gloss",
    "root_categories": "S",
    "category_order": "",
    "verbal_categories": "V",
    "solution_cap": 64,
    "edge_cap": parser.DEFAULT_EDGE_CAP,
    "candidate_cap": 256,
    "gt_cutoff": 5,
    "fallback": True,
    "infer_before_rank": True,
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

_INT_KEYS = ("solution_cap", "edge_cap", "candidate_cap", "gt_cutoff")
_BOOL_KEYS = ("fallback", "infer_before_rank")


class PipelineConfig:
    def __init__(self, values=None, base_dir="."):
        self.values = dict(_DEFAULTS)
        self.base_dir = base_dir
        for key, value in (values or {}).items():
            self.set(key, value)

    def set(self, key, value):
        if key in _INT_KEYS:
            self.values[key] = int(value)
        elif key in _BOOL_KEYS:
            if str(value).lower() not in _BOOL:
                raise ResourceError("config key %s must be on or off" % key)
            self.values[key] = _BOOL[str(value).lower()]
        elif key in _FILE_KEYS:
            path = os.path.join(self.base_dir, value)
            if not os.path.exists(path):
                raise ResourceError("config key %s: missing file %s" % (key, path))
            self.values[key] = path
        elif key in _DEFAULTS:
            self.values[key] = value
        else:
            raise ResourceError("unknown config key %r" % key)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def path_of(self, key):
        value = self.values.get(key)
        return value if isinstance(value, str) and key in _FILE_KEYS else None

    @property
    def root_categories(self):
        return tuple(c for c in self.values["root_categories"].split(",") if c)

    @property
    def category_order(self):
        return tuple(c for c in self.values["category_order"].split(",") if c)

    @property
    def verbal_categories(self):
        return frozenset(c for c in self.values["verbal_categories"].split(",") if c)


def load_config(path):
    """Line-oriented ``key = value`` file; paths resolve relative to the
    config file's directory."""
    if not os.path.exists(path):
        raise ResourceError("missing config file: %s" % path)
    cfg = PipelineConfig(base_dir=os.path.dirname(os.path.abspath(path)))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ResourceError("%s:%d: expected key = value" % (path, lineno))
            key, _, value = line.partition("=")
            try:
                cfg.set(key.strip(), value.strip())
            except ResourceError as err:
                raise ResourceError("%s:%d: %s" % (path, lineno, err))
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


def parse_trace(text):
    traces = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        cols = line.split("\t")
        index = int(cols[0])
        t = traces.get(index)
        if t is None:
            t = traces[index] = SentenceTrace(index)
        if cols[1] == "stage":
            t.stage(cols[2], cols[3], int(cols[4]), int(cols[5]))
        elif cols[1] == "note":
            t.notes[cols[2]] = cols[3]
        elif cols[1] == "result":
            if cols[2] == "error":
                t.error = cols[3]
            else:
                t.output = cols[3]
    return [traces[i] for i in sorted(traces)]


def run_trace_report(traces):
    """Aggregate per-stage totals and batch statistics."""
    if not traces:
        raise ValueError("report needs at least one translated sentence")
    totals = {}
    order = []
    for t in traces:
        for s in t.stages:
            if s.name not in totals:
                totals[s.name] = [s.kind, 0, 0, 0]
                order.append(s.name)
            row = totals[s.name]
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
    for name in order:
        kind, n_in, n_out, pruned = totals[name]
        lines.append("%s\t%s\t%d\t%d\t%d" % (name, kind, n_in, n_out, pruned))
    return "\n".join(lines) + "\n"


def _path_count(lattice):
    """Exact number of source-to-sink paths (labels ignored)."""
    order = lattice_lm.topological_order(lattice)
    if order is None:
        return 0
    counts = [0] * lattice.node_count
    counts[lattice.source] = 1
    out = lattice.out_edges()
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
        self.patterns = chunker.PatternSet()
        if cfg.path_of("patterns"):
            self.patterns = chunker.load_patterns(
                _read(cfg.path_of("patterns")), cfg.path_of("patterns")
            )
        self.taxonomy = None
        if cfg.path_of("taxonomy"):
            self.taxonomy = semantics.Taxonomy.load(cfg.path_of("taxonomy"))
        self.lm = None
        if cfg.path_of("lm_model"):
            self.lm = lattice_lm.TrigramModel.load(_read(cfg.path_of("lm_model")))
        self.tree = None
        if cfg.path_of("tree"):
            self.tree = posteditor.parse_tree(_read(cfg.path_of("tree")))
        self.repairs = []
        if cfg.path_of("repairs"):
            self.repairs = posteditor.load_repairs(cfg.path_of("repairs"))
        self.exceptions = frozenset()
        if cfg.path_of("exceptions"):
            self.exceptions = frozenset(posteditor.load_exceptions(cfg.path_of("exceptions")))
        self.gen_lexicon = {}
        if cfg.path_of("gen_lexicon"):
            self.gen_lexicon = realizer.load_gen_lexicon(cfg.path_of("gen_lexicon"))
        self.irregulars = {}
        if cfg.path_of("irregulars"):
            self.irregulars = glosser.load_irregulars(cfg.path_of("irregulars"))
        self.nouns = set()
        if cfg.path_of("nouns"):
            with open(cfg.path_of("nouns"), encoding="utf-8") as fh:
                self.nouns = {w.strip().lower() for w in fh if w.strip()}
        self.countability = {
            e.lemma: e.countable
            for e in self.gen_lexicon.values()
            if e.category == "noun"
        }

    # -- stages ------------------------------------------------------------

    def chunk(self, line):
        tokens = chunker.parse_token_line(line)
        tokens = chunker.resegment(tokens, self.rb.compounds)
        return chunker.chunk(tokens, self.patterns)

    def parse(self, tokens):
        return parser.parse(
            tokens,
            self.rb,
            root_categories=self.cfg.root_categories,
            edge_cap=self.cfg.get("edge_cap"),
            solution_cap=self.cfg.get("solution_cap"),
        )

    def gloss(self, forest):
        gfs = glosser.gloss_forest(
            forest,
            self.rb,
            verbal_categories=self.cfg.verbal_categories,
            solution_cap=self.cfg.get("solution_cap"),
            category_order=self.cfg.category_order,
        )
        return glosser.flatten_gloss(gfs, self.irregulars)

    def analyze(self, forest):
        """Root meaning candidates, inferred when ``infer_before_rank``."""
        analyses = semantics.analyze(
            forest,
            self.rb,
            cap=self.cfg.get("candidate_cap"),
            solution_cap=self.cfg.get("solution_cap"),
        )
        candidates = semantics.root_candidates(forest, analyses)
        if self.cfg.get("infer_before_rank"):
            for c in candidates:
                c.graph = semantics.infer(c.graph)
        return candidates

    def rank(self, candidates):
        """Score by coherence; best first, at most ``candidate_cap``."""
        if self.taxonomy is None:
            raise ResourceError("ranking requires a taxonomy")
        for c in candidates:
            c.score = semantics.score_assertions(
                semantics.to_assertions(c.graph), self.taxonomy
            )
        ranked = semantics.rank_candidates(candidates)
        return ranked[: self.cfg.get("candidate_cap")]

    def realize(self, graph):
        return realizer.realize(graph, self.gen_lexicon, irregulars=self.irregulars)

    def postedit(self, text):
        text = posteditor.apply_repairs(text, self.repairs)
        if self.tree is not None and self.nouns:
            text = posteditor.insert_articles(
                text, self.tree, self.nouns, self.exceptions, self.countability
            )
        return text

    # -- per-sentence paths ------------------------------------------------

    def _front(self, line, trace):
        tokens = self.chunk(line)
        trace.stage("chunk", "transformer", len(line.split()), len(tokens))
        forest = self.parse(tokens)
        trace.stage("parse", "transformer", len(tokens), len(forest.constituents))
        trace.notes["full_parse"] = 1 if forest.roots else 0
        return forest

    def _finish(self, lattice, n_paths, trace):
        if self.lm is None:
            raise ResourceError("translation requires a trained language model (lm_model)")
        trace.notes["paths"] = n_paths
        words, score = lattice_lm.best_path(lattice, self.lm)
        trace.stage("extract", "ranker-pruner", max(n_paths, 1), 1)
        trace.notes["lm_score"] = "%.6f" % score
        text = self.postedit(" ".join(words))
        trace.stage("postedit", "transformer", 1, 1)
        return text.rstrip("\n")

    def _gloss_path(self, forest, trace):
        lattice = self.gloss(forest)
        n_paths = _path_count(lattice)
        trace.stage("gloss", "transformer", len(forest.constituents), n_paths)
        return self._finish(lattice, n_paths, trace)

    def _interlingua_path(self, forest, trace):
        candidates = self.analyze(forest)
        trace.stage("analyze", "transformer", len(forest.constituents), len(candidates))
        trace.notes["candidates"] = len(candidates)
        if not candidates:
            return None
        kept = self.rank(candidates)
        trace.stage("rank", "ranker-pruner", len(candidates), len(kept))
        best = kept[0]
        graph = best.graph if self.cfg.get("infer_before_rank") else semantics.infer(best.graph)
        trace.notes["best_score"] = "%.6g" % best.score
        lattice = self.realize(graph)
        n_paths = _path_count(lattice)
        trace.stage("realize", "transformer", 1, n_paths)
        return self._finish(lattice, n_paths, trace)

    def translate_line(self, line, index=0):
        trace = SentenceTrace(index)
        try:
            forest = self._front(line, trace)
            out = None
            if self.cfg.get("path") == "interlingua":
                try:
                    out = self._interlingua_path(forest, trace)
                except realizer.RealizeError:
                    if not self.cfg.get("fallback"):
                        raise
                    trace.notes["fallback"] = "realize-error"
                    out = None
                if out is None and not self.cfg.get("fallback"):
                    raise ResourceError("no interlingua candidate and fallback is off")
            if out is None:
                out = self._gloss_path(forest, trace)
            trace.output = out
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

    def train_lm(self):
        path = self.cfg.path_of("lm_corpus")
        if path is None:
            raise ResourceError("train-lm requires the lm_corpus resource")
        sentences = [l for l in _read(path).splitlines() if l.strip()]
        model = lattice_lm.train_trigram(sentences, k=self.cfg.get("gt_cutoff"))
        return model

    def train_postedit(self):
        path = self.cfg.path_of("article_corpus")
        if path is None:
            raise ResourceError("train-postedit requires the article_corpus resource")
        if not self.nouns:
            raise ResourceError("train-postedit requires the nouns resource")
        sentences = [l for l in _read(path).splitlines() if l.strip()]
        instances = posteditor.extract_instances(sentences, self.nouns, self.countability)
        if not instances:
            raise ResourceError("article corpus yielded no training instances")
        return posteditor.train_tree(instances)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()
