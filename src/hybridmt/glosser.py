"""Direct glossing: parse forest -> English word lattice.

Leaves get dictionary translations; gloss feature structures compose
bottom-up through the gloss equation sets of the rulebase, using ordered
``op1..opN`` features for concatenation and ``*or*`` leaves for word
alternatives.  Abstract ``tmp`` flags (passive, past, negative,
progressive) accumulated from source suffixes delay verb-group
realization until flattening, when ``realize_verbgroup(bases, flags)``
expands the atoms of a ``base`` node under its flags into auxiliary +
participle sequences from a fixed morphology table.

Flattening turns the structure into a word lattice: op features
concatenate in numeric order, ``*or*`` and ``alt1..altN`` nodes become
parallel sub-lattices, multiword strings split into edge sequences.
"""

import re

# apply_equations is unused here but kept: the benchmark tracer wraps it by this name
from .featstruct import FeatStruct, apply_equations, canonical  # noqa: F401
from .parser import Composition, fragment_cover
from .rulebase import tagged_entries
from . import sexpr
from .sexpr import QuotedString
from . import lattice_lm as wl

FRAGMENT_SEPARATOR = "##"
ALTERNATIVE_CAP = 64  # gloss alternatives kept per constituent
SUPPORTED_FLAGS = frozenset(["past", "passive", "negative", "progressive"])
_PART_RE = re.compile(r"^(op|alt)([0-9]+)$")


class GlossError(ValueError):
    pass


# ---------------------------------------------------------------------
# Morphology
# ---------------------------------------------------------------------

def parse_irregulars(text, filename="<string>"):
    """TSV rows ``base TAB past TAB participle TAB 3sg``."""
    table = {}
    for where, line in sexpr.records(text, filename):
        cols = line.split("\t")
        if len(cols) != 4:
            raise GlossError("%s: irregular verb row needs 4 columns: %r" % (where, line))
        table[cols[0]] = (cols[1], cols[2], cols[3])
    return table


def _regular_past(base):
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and len(base) > 1 and base[-2] not in "aeiou":
        return base[:-1] + "ied"
    return base + "ed"


def past_form(base, irregulars=None):
    if irregulars and base in irregulars:
        return irregulars[base][0]
    return _regular_past(base)


def participle_form(base, irregulars=None):
    if irregulars and base in irregulars:
        return irregulars[base][1]
    return _regular_past(base)


def third_singular_form(base, irregulars=None):
    if irregulars and base in irregulars:
        return irregulars[base][2]
    if base.endswith(("s", "x", "z", "ch", "sh", "o")):
        return base + "es"
    if base.endswith("y") and len(base) > 1 and base[-2] not in "aeiou":
        return base[:-1] + "ies"
    return base + "s"


def ing_form(base):
    if base.endswith("ie"):
        return base[:-2] + "ying"
    if base.endswith("e") and not base.endswith("ee"):
        return base[:-1] + "ing"
    return base + "ing"


def realize_verbgroup(bases, flags, irregulars=None):
    """Expand the distinct ``bases`` under the tense ``flags`` into a
    sequence of word-alternative groups.

    Returns a list of groups, each a list of single-word alternatives,
    e.g. passive+past over "eat" -> [["was", "were"], ["eaten"]].
    ``_flatten`` hands over atomic bases and ``SUPPORTED_FLAGS`` only.
    """
    bases = sorted(set(bases))
    past = "past" in flags
    if "passive" in flags or "progressive" in flags:
        groups = [["was", "were"] if past else ["is", "are"]]
        if "negative" in flags:
            groups.append(["not"])
        if "passive" in flags and "progressive" in flags:
            groups.append(["being"])
        if "passive" in flags:
            groups.append([participle_form(b, irregulars) for b in bases])
        else:
            groups.append([ing_form(b) for b in bases])
        return groups
    if "negative" in flags:
        aux = ["did"] if past else ["does", "do"]
        return [aux, ["not"], bases]
    if past:
        return [[past_form(b, irregulars) for b in bases]]
    return [bases]


# ---------------------------------------------------------------------
# Leaf glossing
# ---------------------------------------------------------------------

def gloss_leaf(token, rb):
    """Dictionary gloss for one token as a feature structure.

    Multiple translation alternatives become one ``*or*`` leaf; unknown
    tokens pass their surface through, flagged unknown.  A gloss rule
    that writes the leaf's gloss to ``base`` makes it a verb group, so
    inflection can wait for the full verb complex.
    """
    if token.marker:
        raise GlossError("marker tokens have no gloss")
    entries = tagged_entries(rb.bilingual, token)
    if not entries:
        return FeatStruct.complex(
            {
                "gloss": FeatStruct.atom(QuotedString(token.surface)),
                "unknown": FeatStruct.atom("+"),
            }
        )
    words = [QuotedString(w) for w in dict.fromkeys(t for e in entries for t in e.translations)]
    if len(words) == 1:
        return FeatStruct.complex({"gloss": FeatStruct.atom(words[0])})
    return FeatStruct.complex({"gloss": FeatStruct.disjunction(words)})


# ---------------------------------------------------------------------
# Forest glossing
# ---------------------------------------------------------------------

def _merge_alternatives(structures):
    if len(structures) == 1:
        return structures[0]
    return FeatStruct.complex({"alt%d" % i: fs for i, fs in enumerate(structures, 1)})


def gloss_forest(forest, rb, category_order=()):
    """Gloss the forest's fragment cover into one gloss structure.

    Fragments concatenate left to right with the ``##`` separator.
    When a cover constituent has no gloss, raises GlossError naming the
    backbones below it that have no gloss rules, and those whose gloss
    rules solve nothing although every child has a gloss.
    """

    def gloss_sets(rule_key):
        rule = rb.rules.get(rule_key)
        return rule.gloss_sets if rule is not None else ()

    compute = Composition(
        forest,
        lambda const: [gloss_leaf(const.token, rb)],
        gloss_sets,
        ALTERNATIVE_CAP,
    )
    pieces = []
    for cid in fragment_cover(forest, category_order):
        options = compute(cid)
        if not options:
            no_rules, no_solution = set(), set()
            stack, seen = [cid], {cid}
            while stack:
                for key, *children in forest[stack.pop()].derivations:
                    if not gloss_sets(key):
                        no_rules.add(key)
                        continue
                    empty = [c for c in children if not compute(c)]
                    if not empty:
                        no_solution.add(key)
                    for c in empty:
                        if c not in seen:
                            seen.add(c)
                            stack.append(c)
            raise GlossError(
                "; ".join(
                    "%s for backbones: %s" % (what, ", ".join(sorted(map(repr, keys))))
                    for what, keys in (("no gloss rules", no_rules), ("no gloss solution", no_solution))
                    if keys
                )
            )
        pieces.append(_merge_alternatives(options))
    if len(pieces) == 1:
        return pieces[0]
    parts = [pieces[0]]
    for piece in pieces[1:]:
        parts += [FeatStruct.atom(QuotedString(FRAGMENT_SEPARATOR)), piece]
    feats = {"op%d" % i: part for i, part in enumerate(parts, 1)}
    return FeatStruct.complex({"gloss": FeatStruct.complex(feats)})


# ---------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------

def _tmp_flags(node):
    feats = node.features
    return {f for f in SUPPORTED_FLAGS.intersection(feats) if feats[f].atom_value == "+"}


def flatten_gloss(gloss, irregulars=None):
    """Expand a gloss structure into a word lattice."""
    return wl.layout(_flatten(gloss, set(), irregulars))


def _flatten(node, tmp, irregulars):
    """The ``lattice_lm.layout`` term of ``node`` under the inherited
    tense flags ``tmp``; a module-level function, so the recursion
    makes no reference cycle."""
    allowed = node.allowed
    if allowed is not None:
        if len(allowed) == 1:
            return str(next(iter(allowed)))
        return sorted({str(a) for a in allowed})
    if node.is_empty:
        return ""
    feats = node.features
    if "base" in feats:
        bases = feats["base"].allowed
        if not bases:
            raise GlossError("verb group base is not an atom: %s" % canonical(node))
        groups = realize_verbgroup(map(str, bases), _tmp_flags(node) | tmp, irregulars)
        return wl.groups_term(groups)
    # one scan finds both kinds; op features win over alt features
    ops, alts = [], []
    for f in feats:
        m = _PART_RE.match(f)
        if m:
            (ops if m.group(1) == "op" else alts).append((int(m.group(2)), f))
    if ops:
        ops.sort()
        if [n for n, _ in ops] != list(range(1, len(ops) + 1)):
            raise GlossError("op features must be consecutive from op1")
        return tuple([_flatten(feats[f], tmp, irregulars) for _, f in ops])
    if alts:
        alts.sort()
        return [_flatten(feats[f], tmp, irregulars) for _, f in alts]
    if "gloss" in feats:
        tmp = tmp | _tmp_flags(feats.get("tmp", FeatStruct.empty()))
        return _flatten(feats["gloss"], tmp, irregulars)
    raise GlossError("cannot flatten node: %s" % canonical(node))
