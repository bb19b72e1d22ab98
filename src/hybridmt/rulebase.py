"""Loading, indexing and validating the synchronized rule sets.

A grammar is a set of context-free backbones like ``(NP -> S NP)``, each
carrying up to three kinds of equation sets that share the backbone:
syntax equations (used by the parser), semantic equations (used by the
analyzer) and gloss equations (used by the glosser).  All three kinds
use one file format; which file a rule was loaded from decides its kind.
Each set is a ``featstruct.EquationSet``, which alone decides how it is
solved.  The reader rejects a set that names a variable beyond
``X0..Xn`` of its backbone's n categories, with the file's name, since
no solution could bind it.

Lexicons are flat tab-separated files:

  - syntactic lexicon:  ``surface TAB pos [TAB feature-structure]``
  - bilingual dictionary: ``surface TAB pos TAB alt1|alt2|...``
  - semantic lexicon:   ``surface TAB concept1|concept2``
  - compound dictionary: ``compound TAB pos``
"""

from operator import itemgetter

from . import sexpr
from .chunker import CompoundDictionary
from .featstruct import (
    EquationSet,
    FeatStruct,
    equation_variables,
    parse_equations,
    parse_featstruct_expr,
)


class RuleBaseError(ValueError):
    """A rule or lexicon file failed to parse; message carries file/line."""


class RuleKey(tuple):
    """Context-free backbone ``(lhs, rhs)``: LHS category, RHS category tuple."""

    __slots__ = ()

    def __new__(cls, lhs, rhs):
        return tuple.__new__(cls, (lhs, tuple(rhs)))

    lhs = property(itemgetter(0))
    rhs = property(itemgetter(1))

    @property
    def arity(self):
        return len(self.rhs)

    def __repr__(self):
        return "(%s -> %s)" % (self.lhs, " ".join(self.rhs))


class SynchronizedRule:
    """All equation sets sharing one backbone."""

    def __init__(self, key):
        self.key = key
        self.syntax_sets = []
        self.semantic_sets = []
        self.gloss_sets = []

    _KIND_SETS = {"syntax": "syntax_sets", "semantics": "semantic_sets", "gloss": "gloss_sets"}

    def sets(self, kind):
        return getattr(self, self._KIND_SETS[kind])


class LexiconEntry:
    def __init__(self, surface, pos, features=None, translations=()):
        self.surface = surface
        self.pos = pos
        self.features = features if features is not None else FeatStruct.empty()
        self.translations = translations

    def __repr__(self):
        return "LexiconEntry(%s/%s)" % (self.surface, self.pos)


def tagged_entries(lexicon, token):
    """The lexicon's entries for the token's surface; when any has the
    token's tag as its POS, only those."""
    entries = lexicon.get(token.surface, [])
    if token.tag:
        tagged = [e for e in entries if e.pos == token.tag]
        if tagged:
            return tagged
    return entries


class RuleBase:
    def __init__(self):
        self.rules = {}  # RuleKey -> SynchronizedRule
        self.syn_lexicon = {}  # surface -> [LexiconEntry]
        self.bilingual = {}  # surface -> [LexiconEntry]
        self.sem_lexicon = {}  # surface -> [concept]
        self.compounds = CompoundDictionary()  # compound surface -> pos
        self._parse_index = None

    def rule(self, key):
        """The rule of one backbone, made if new; the caller may add
        equation sets to it, so the parser's index is built again."""
        self._parse_index = None
        entry = self.rules.get(key)
        if entry is None:
            entry = self.rules[key] = SynchronizedRule(key)
        return entry

    def parse_index(self):
        """The parser's view of the rules: (right-hand side, [(rule,
        equation-free)]) pairs of two or more categories; the unary
        ones' lists by their one category; and each category's places in
        the first list, once per occurrence in a right-hand side.  Sides
        come in the order of their first rule, and each one's rules in
        key order.  A rule is equation-free when none of its syntax
        equation sets has an equation.  Built once, and again after a
        call to ``rule``."""
        if self._parse_index is None:
            index = {}
            for key, rule in self.rules.items():
                free = not any(s.equations for s in rule.syntax_sets)
                index.setdefault(key.rhs, []).append((rule, free))
            for rules in index.values():
                rules.sort(key=lambda pair: pair[0].key)
            longer = [(rhs, rules) for rhs, rules in index.items() if len(rhs) >= 2]
            uses = {}
            for i, (rhs, _rules) in enumerate(longer):
                for category in rhs:
                    uses.setdefault(category, []).append(i)
            self._parse_index = (
                longer,
                {rhs[0]: rules for rhs, rules in index.items() if len(rhs) == 1},
                uses,
            )
        return self._parse_index


def parse_rule_file(text, kind, rb=None, filename="<string>"):
    """Parse one rule file into (or onto) a RuleBase, rejecting a set
    that names a variable beyond its backbone."""
    if rb is None:
        rb = RuleBase()
    try:
        exprs = sexpr.parse_all(text)
    except sexpr.SexprError as err:
        raise RuleBaseError("%s: %s" % (filename, err))
    for i, expr in enumerate(exprs):
        if not isinstance(expr, list) or not expr or not isinstance(expr[0], list):
            raise RuleBaseError(
                "%s: rule %d must be ((LHS -> RHS...) equations...)" % (filename, i + 1)
            )
        head = expr[0]
        if len(head) < 3 or head[1] != "->" or list in map(type, head):
            raise RuleBaseError("%s: malformed backbone %r" % (filename, head))
        key = RuleKey(head[0], head[2:])
        try:
            equations = parse_equations(expr[1:])
        except sexpr.SexprError as err:
            raise RuleBaseError("%s: rule %r: %s" % (filename, key, err))
        # no solution binds a variable past the backbone's arity, or one
        # written with a leading zero (an empty set names none)
        beyond = equations and [
            v for v in equation_variables(equations)
            if int(v[1:]) > key.arity or v[1:] != str(int(v[1:]))
        ]
        if beyond:
            raise RuleBaseError(
                "%s: %s rule %r references %s beyond arity %d"
                % (filename, kind, key, max((int(v[1:]), v) for v in beyond)[1], key.arity)
            )
        rb.rule(key).sets(kind).append(EquationSet(equations))
    return rb


def _tsv_rows(text, filename):
    for where, line in sexpr.records(text, filename):
        yield where, line.split("\t")


def load_syn_lexicon(text, rb, filename="<string>"):
    for where, cols in _tsv_rows(text, filename):
        if len(cols) < 2:
            raise RuleBaseError("%s: need surface TAB pos" % where)
        surface, pos = cols[0], cols[1]
        features = FeatStruct.empty()
        if len(cols) > 2 and cols[2].strip():
            try:
                features = parse_featstruct_expr(sexpr.parse_one(cols[2]))
            except sexpr.SexprError as err:
                raise RuleBaseError("%s: %s" % (where, err))
        rb.syn_lexicon.setdefault(surface, []).append(
            LexiconEntry(surface, pos, features)
        )


def load_bilingual(text, rb, filename="<string>"):
    for where, cols in _tsv_rows(text, filename):
        alts = [a for a in cols[2].split("|") if a.strip()] if len(cols) > 2 else []
        if not alts:
            raise RuleBaseError("%s: need surface TAB pos TAB alt1|alt2|..." % where)
        rb.bilingual.setdefault(cols[0], []).append(
            LexiconEntry(cols[0], cols[1], translations=alts)
        )


def load_sem_lexicon(text, rb, filename="<string>"):
    for where, cols in _tsv_rows(text, filename):
        concepts = [c for c in cols[1].split("|") if c.strip()] if len(cols) > 1 else []
        if not concepts:
            raise RuleBaseError("%s: need surface TAB concept1|concept2" % where)
        rb.sem_lexicon.setdefault(cols[0], []).extend(concepts)


def load_compounds(text, rb, filename="<string>"):
    for where, cols in _tsv_rows(text, filename):
        if len(cols) < 2:
            raise RuleBaseError("%s: need compound TAB pos" % where)
        rb.compounds[cols[0]] = cols[1]


def load_rulebase(
    grammar_file=None,
    sem_file=None,
    gloss_file=None,
    syn_lexicon_file=None,
    bilingual_file=None,
    sem_lexicon_file=None,
    compound_file=None,
):
    """Load every configured resource file into one immutable RuleBase."""
    rb = RuleBase()
    for path, kind in (
        (grammar_file, "syntax"),
        (sem_file, "semantics"),
        (gloss_file, "gloss"),
    ):
        if path:
            parse_rule_file(sexpr.read_text(path), kind, rb, filename=path)
    for path, loader in (
        (syn_lexicon_file, load_syn_lexicon),
        (bilingual_file, load_bilingual),
        (sem_lexicon_file, load_sem_lexicon),
        (compound_file, load_compounds),
    ):
        if path:
            loader(sexpr.read_text(path), rb, path)
    return rb

