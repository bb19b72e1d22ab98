"""Direct glossing: parse forest -> English word lattice.

Leaves get dictionary translations; gloss feature structures compose
bottom-up through the gloss equation sets of the rulebase, using ordered
``op1..opN`` features for concatenation and ``*or*`` leaves for word
alternatives.  Abstract ``tmp`` flags (passive, past, negative,
progressive) accumulated from source suffixes delay verb-group
realization until flattening, when a ``base`` node plus its flags expand
into auxiliary + participle sequences from a fixed morphology table.

Flattening turns the structure into a word lattice: op features
concatenate in numeric order, ``*or*`` and ``alt1..altN`` nodes become
parallel sub-lattices, multiword strings split into edge sequences.
"""

import re

# apply_equations is unused here but kept: the benchmark tracer wraps it by this name
from .featstruct import FeatStruct, apply_equations, canonical  # noqa: F401
from .parser import compose, fragment_cover
from .sexpr import QuotedString
from . import lattice_lm as wl

__all__ = [
    "GlossError",
    "VerbGroupSpec",
    "gloss_leaf",
    "gloss_forest",
    "realize_verbgroup",
    "analyze_verbgroup",
    "flatten_gloss",
    "load_irregulars",
    "FRAGMENT_SEPARATOR",
]

FRAGMENT_SEPARATOR = "##"
SUPPORTED_FLAGS = frozenset(["past", "passive", "negative", "progressive"])
_OP_RE = re.compile(r"^op([0-9]+)$")
_ALT_RE = re.compile(r"^alt([0-9]+)$")


class GlossError(ValueError):
    pass


class VerbGroupSpec:
    def __init__(self, bases, flags=()):
        self.bases = sorted(set(bases))
        if not self.bases:
            raise ValueError("verb group needs at least one base form")
        self.flags = frozenset(flags)


# ---------------------------------------------------------------------
# Morphology
# ---------------------------------------------------------------------

def load_irregulars(path):
    """TSV rows ``base TAB past TAB participle TAB 3sg``."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise GlossError("irregular verb row needs 4 columns: %r" % line)
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


def realize_verbgroup(spec, irregulars=None, warn=None):
    """Expand a verb group into a sequence of word-alternative groups.

    Returns a list of groups, each a list of single-word alternatives,
    e.g. passive+past over "eat" -> [["was", "were"], ["eaten"]].
    Unsupported flags fall back to the bases with a warning.
    """
    unknown = spec.flags - SUPPORTED_FLAGS
    if unknown:
        if warn is not None:
            warn("unsupported verb flags %s; using base forms" % sorted(unknown))
        return [list(spec.bases)]
    flags = spec.flags
    past = "past" in flags
    if "passive" in flags or "progressive" in flags:
        groups = [["was", "were"] if past else ["is", "are"]]
        if "negative" in flags:
            groups.append(["not"])
        if "passive" in flags and "progressive" in flags:
            groups.append(["being"])
        if "passive" in flags:
            groups.append([participle_form(b, irregulars) for b in spec.bases])
        else:
            groups.append([ing_form(b) for b in spec.bases])
        return groups
    if "negative" in flags:
        aux = ["did"] if past else ["does", "do"]
        return [aux, ["not"], list(spec.bases)]
    if past:
        return [[past_form(b, irregulars) for b in spec.bases]]
    return [list(spec.bases)]


def analyze_verbgroup(groups, bases, irregulars=None):
    """Inverse of realize_verbgroup for known bases; returns the flag set."""
    bases = sorted(set(bases))
    words = [g[0] for g in groups]
    flags = set()
    idx = 0
    if words[idx] in ("was", "were", "is", "are"):
        if words[idx] in ("was", "were"):
            flags.add("past")
        idx += 1
        if idx < len(words) and words[idx] == "not":
            flags.add("negative")
            idx += 1
        if idx < len(words) and words[idx] == "being":
            flags.add("being-marker")
            idx += 1
        head = words[idx]
        if head == ing_form(bases[0]):
            flags.add("progressive")
            if "being-marker" in flags:
                flags.discard("being-marker")
                flags.add("passive")
        else:
            flags.add("passive")
            if "being-marker" in flags:
                flags.discard("being-marker")
                flags.add("progressive")
        return frozenset(flags)
    if words[idx] in ("did", "does", "do"):
        if words[idx] == "did":
            flags.add("past")
        flags.add("negative")
        return frozenset(flags)
    if words[idx] == past_form(bases[0], irregulars) and words[idx] != bases[0]:
        return frozenset(["past"])
    return frozenset()


# ---------------------------------------------------------------------
# Leaf glossing
# ---------------------------------------------------------------------

def _string_leaf(alternatives):
    if len(alternatives) == 1:
        return FeatStruct.atom(QuotedString(alternatives[0]))
    return FeatStruct.disjunction(QuotedString(a) for a in alternatives)


def gloss_leaf(token, rb, verbal_categories=frozenset()):
    """Dictionary gloss for one token as a feature structure.

    Multiple translation alternatives become one ``*or*`` leaf; unknown
    tokens pass their surface through, flagged unknown.  Entries whose
    category is configured verbal populate base alternatives under a
    ``base`` node so inflection can wait for the full verb complex.
    """
    if token.marker:
        raise GlossError("marker tokens have no gloss")
    entries = rb.bilingual.get(token.surface, [])
    if token.tag:
        tagged = [e for e in entries if e.pos == token.tag]
        if tagged:
            entries = tagged
    if not entries:
        return FeatStruct.complex(
            {
                "gloss": FeatStruct.atom(QuotedString(token.surface)),
                "unknown": FeatStruct.atom("+"),
            }
        )
    alternatives = []
    for entry in entries:
        alternatives.extend(entry.translations)
    seen = set()
    alternatives = [a for a in alternatives if not (a in seen or seen.add(a))]
    pos = entries[0].pos
    if pos in verbal_categories:
        body = FeatStruct.complex({"base": _string_leaf(alternatives)})
    else:
        body = _string_leaf(alternatives)
    return FeatStruct.complex({"gloss": body})


# ---------------------------------------------------------------------
# Forest glossing
# ---------------------------------------------------------------------

def _merge_alternatives(structures):
    if len(structures) == 1:
        return structures[0]
    feats = {}
    for i, fs in enumerate(structures, 1):
        feats["alt%d" % i] = fs
    return FeatStruct.complex(feats)


def gloss_forest(forest, rb, verbal_categories=frozenset(),
                 solution_cap=64, alt_cap=64, category_order=()):
    """Gloss the forest's fragment cover into one gloss structure.

    Fragments concatenate left to right with the ``##`` separator.
    Raises GlossError naming missing gloss backbones when a cover
    constituent has no glossable derivation.
    """
    missing = set()

    def gloss_sets(rule_key):
        rule = rb.rules.get(rule_key)
        if rule is None or not rule.gloss_sets:
            missing.add(rule_key)
            return ()
        return rule.gloss_sets

    compute = compose(
        forest,
        lambda const: [gloss_leaf(const.token, rb, verbal_categories)],
        gloss_sets,
        alt_cap,
        solution_cap,
    )
    pieces = []
    for cid in fragment_cover(forest, category_order):
        options = compute(cid)
        if not options:
            raise GlossError(
                "no gloss rules for backbones: %s"
                % ", ".join(sorted(repr(k) for k in missing))
            )
        pieces.append(_merge_alternatives(options))
    if len(pieces) == 1:
        return pieces[0]
    feats = {}
    opn = 0
    for i, piece in enumerate(pieces):
        if i:
            opn += 1
            feats["op%d" % opn] = FeatStruct.atom(QuotedString(FRAGMENT_SEPARATOR))
        opn += 1
        feats["op%d" % opn] = piece
    return FeatStruct.complex({"gloss": FeatStruct.complex(feats)})


# ---------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------

def _tmp_flags(node):
    flags = set()
    for feat, value in node.features.items():
        if feat in SUPPORTED_FLAGS and value.atom_value == "+":
            flags.add(feat)
    return flags


def flatten_gloss(gloss, irregulars=None, warn=None):
    """Expand a gloss structure into a word lattice."""

    def leaf_lattice(node):
        alts = sorted(str(a) for a in node.allowed)
        lats = [wl.from_phrase(a) for a in alts]
        return wl.alternate_all(lats)

    def build(node, tmp):
        if node.is_atomic:
            return leaf_lattice(node)
        if node.is_empty:
            return wl.WordLattice(2, [(0, 1, wl.EPS)])
        feats = node.features
        if "base" in feats:
            spec = VerbGroupSpec(
                (str(a) for a in feats["base"].allowed),
                _tmp_flags(node) | tmp,
            )
            groups = realize_verbgroup(spec, irregulars, warn)
            lats = [
                wl.alternate_all([wl.from_phrase(w) for w in sorted(set(g))])
                for g in groups
            ]
            return wl.concat_all(lats)
        ops = sorted(
            ((int(m.group(1)), f) for f in feats if (m := _OP_RE.match(f))),
        )
        if ops:
            numbers = [n for n, _ in ops]
            if numbers != list(range(1, len(numbers) + 1)):
                raise GlossError("op features must be consecutive from op1")
            return wl.concat_all([build(feats[f], tmp) for _, f in ops])
        alts = sorted(
            ((int(m.group(1)), f) for f in feats if (m := _ALT_RE.match(f))),
        )
        if alts:
            return wl.alternate_all([build(feats[f], tmp) for _, f in alts])
        if "gloss" in feats:
            return build(feats["gloss"], tmp | _tmp_flags(feats.get("tmp", FeatStruct.empty())))
        raise GlossError("cannot flatten node: %s" % canonical(node))

    top_tmp = set()
    if gloss.is_complex and "tmp" in gloss.features:
        top_tmp = _tmp_flags(gloss.features["tmp"])
    body = gloss.features.get("gloss", gloss) if gloss.is_complex else gloss
    return build(body, top_tmp)
