"""Per-layer tracing by wrapping public functions from outside.

Each public function is wrapped at the name its caller looks it up by:
``parser`` imports ``apply_equations`` and ``subsumes`` by name, so the
wrapper goes on ``parser.apply_equations`` as well as on
``featstruct.apply_equations``.  A span's self time is its duration
minus the spans it encloses, so the self times of all spans in one
operation add up to the root span.  The benchmark is single-threaded,
so one span stack serves the whole process.
"""

import time
from collections import Counter

from hybridmt import (
    featstruct,
    glosser,
    lattice_lm,
    parser,
    pipeline,
    posteditor,
    realizer,
    rulebase,
    semantics,
)


def _count_parse(counts, args, forest):
    counts["parser.calls"] += 1
    counts["parser.constituents"] += len(forest.constituents)
    counts["parser.derivations"] += sum(len(c.derivations) for c in forest)
    counts["parser.full_parses"] += 1 if forest.roots else 0
    counts["parser.truncated"] += 1 if forest.truncated else 0


def _count_chunk(counts, args, tokens):
    counts["chunker.markers"] += sum(1 for t in tokens if t.marker)


def _count_flatten(counts, args, lattice):
    counts["glosser.lattice_nodes"] += lattice.node_count


def _count_candidates(counts, args, candidates):
    counts["semantics.candidates"] += len(candidates)


def _count_realize(counts, args, lattice):
    counts["realizer.lattice_nodes"] += lattice.node_count


def _count_best_path(counts, args, result):
    counts["lattice_lm.lattice_nodes"] += args[0].node_count


def _count_articles(counts, args, text):
    counts["posteditor.articles_inserted"] += len(text.split()) - len(args[0].split())


def _count_apply_equations(counts, args, result):
    counts["featstruct.apply_equations.calls"] += 1


def _count_subsumes(counts, args, result):
    counts["featstruct.subsumes.calls"] += 1


# (owner, attribute, layer, counter on success, counter name on error)
SPANS = [
    (pipeline.Pipeline, "translate_line", "pipeline", None, None),
    (pipeline.Pipeline, "chunk", "chunker", _count_chunk, None),
    (parser, "parse", "parser", _count_parse, "parser.errors"),
    (featstruct, "apply_equations", "featstruct.apply_equations", _count_apply_equations, None),
    (parser, "apply_equations", "featstruct.apply_equations", _count_apply_equations, None),
    (glosser, "apply_equations", "featstruct.apply_equations", _count_apply_equations, None),
    (semantics, "apply_equations", "featstruct.apply_equations", _count_apply_equations, None),
    (featstruct, "subsumes", "featstruct.subsumes", _count_subsumes, None),
    (parser, "subsumes", "featstruct.subsumes", _count_subsumes, None),
    (glosser, "gloss_forest", "glosser", None, None),
    (glosser, "flatten_gloss", "glosser", _count_flatten, None),
    (semantics, "analyze", "semantics.analyze", None, None),
    (semantics, "root_candidates", "semantics.analyze", _count_candidates, None),
    (semantics, "infer", "semantics.rank", None, None),
    (semantics, "to_assertions", "semantics.rank", None, None),
    (semantics, "score_assertions", "semantics.rank", None, None),
    (semantics, "rank_candidates", "semantics.rank", None, None),
    (realizer, "realize", "realizer", _count_realize, "realizer.errors"),
    (lattice_lm, "best_path", "lattice_lm", _count_best_path, None),
    (posteditor, "apply_repairs", "posteditor", None, None),
    (posteditor, "insert_articles", "posteditor", _count_articles, None),
    (rulebase, "load_rulebase", "setup.rulebase", None, None),
    (rulebase, "parse_rule_file", "setup.rulebase", None, None),
    (lattice_lm.TrigramModel, "load", "setup.lm_load", None, None),
]


class Tracer:
    """Span self times (seconds) and counts since the last ``take``."""

    def __init__(self):
        self.stack = []
        self.seconds = Counter()
        self.counts = Counter()
        self.contexts = set()
        self._saved = []

    def take(self):
        """Return and reset what was recorded since the last call."""
        seconds, counts = self.seconds, self.counts
        counts["lattice_lm.distinct_contexts"] = len(self.contexts)
        self.seconds, self.counts, self.contexts = Counter(), Counter(), set()
        return seconds, counts

    def _wrap(self, fn, layer, on_result, error_name):
        stack = self.stack

        def span(*args, **kwargs):
            enclosed = [0.0]
            stack.append(enclosed)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(layer, start, enclosed)
                if error_name:
                    self.counts[error_name] += 1
                raise
            end = self._close(layer, start, enclosed)
            if on_result is not None:
                on_result(self.counts, args, result)
                if stack:
                    # counting is tracer work, not the enclosing layer's
                    stack[-1][0] += time.perf_counter() - end
            return result

        return span

    def _close(self, layer, start, enclosed):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - start
        self.seconds[layer] += duration - enclosed[0]
        if self.stack:
            self.stack[-1][0] += duration
        return end

    def _count_prob(self, fn):
        def prob(model, w, history):
            self.counts["lattice_lm.prob_calls"] += 1
            self.contexts.add(history)
            return fn(model, w, history)

        return prob

    def __enter__(self):
        for owner, name, layer, on_result, error_name in SPANS:
            raw = owner.__dict__[name]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, layer, on_result, error_name)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
        prob = lattice_lm.TrigramModel.__dict__["prob"]
        self._saved.append((lattice_lm.TrigramModel, "prob", prob))
        lattice_lm.TrigramModel.prob = self._count_prob(prob)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
        return False
