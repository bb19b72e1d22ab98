"""Automated postediting: string repairs and article insertion.

English output produced from article-free source text lacks a, an and
the.  A decision tree trained on English text predicts, for every noun
phrase slot, one of the labels ``the``, ``a-an`` or ``null`` from
surface context features; insertion places "the" or "a"/"an" (chosen by
the vowel rule plus an exception list) before the head and never
touches non-slot text.  Slot detection uses a coarse noun-lexicon stub
rather than a parser, since the texts being repaired have no parse.

Repairs are literal string rewrites applied in rule order, one
left-to-right pass each, never re-triggering on their own output.
"""

import math

from . import sexpr

ARTICLES = ("a", "an", "the")
BOUNDARY = "<s>"
LABELS = ("a-an", "null", "the")
MAX_DEPTH = 10  # tests on a trained tree's longest root-to-leaf path
MIN_LEAF = 5  # a trained tree splits no node of fewer instances


class PosteditError(ValueError):
    pass


class ArticleInstance:
    __slots__ = ("label", "features")

    def __init__(self, label, features):
        self.label = label
        self.features = features


# ---------------------------------------------------------------------
# Slot detection and feature extraction
# ---------------------------------------------------------------------

def _is_noun(word, nouns):
    w = word.lower()
    if w in nouns:
        return w
    if w.endswith("s") and w[:-1] in nouns:
        return w[:-1]
    return None


def _number_guess(word):
    return "plural" if word.lower().endswith("s") else "singular"


def _find_slots(tokens, nouns):
    """(slot token index, head token index, label) triples.

    An article marks a labeled slot when a known noun follows within
    three tokens; a known noun with no preceding article is a bare slot
    labeled null.  A noun directly after an article is the first token
    that article's lookahead tries, so it never yields a bare slot.
    """
    slots = []
    claimed = set()
    for i, tok in enumerate(tokens):
        low = tok.lower()
        if low in ARTICLES:
            for j in range(i + 1, min(i + 4, len(tokens))):
                if _is_noun(tokens[j], nouns):
                    label = "the" if low == "the" else "a-an"
                    slots.append((i, j, label))
                    claimed.add(j)
                    break
    for j, tok in enumerate(tokens):
        if j in claimed or not _is_noun(tok, nouns):
            continue
        slots.append((j, j, "null"))
    slots.sort()
    return slots


def _slots(tokens, nouns, countability):
    """(slot token index, label, features) for every slot of ``tokens``.

    Context features are computed over the article-free text, so
    training and insertion give the tree the same kind of neighbours.
    """
    stripped = []
    position = []  # original index -> index in stripped
    for tok in tokens:
        position.append(len(stripped))
        if tok.lower() not in ARTICLES:
            stripped.append(tok)
    for slot_idx, head_idx, label in _find_slots(tokens, nouns):
        slot = position[slot_idx]
        lemma = _is_noun(tokens[head_idx], nouns)
        known = None if countability is None else countability.get(lemma)
        yield slot_idx, label, {
            "head": lemma,
            "l1": stripped[slot - 1].lower() if slot >= 1 else BOUNDARY,
            "l2": stripped[slot - 2].lower() if slot >= 2 else BOUNDARY,
            "r1": stripped[slot].lower() if slot < len(stripped) else BOUNDARY,
            "r2": stripped[slot + 1].lower() if slot + 1 < len(stripped) else BOUNDARY,
            "number": _number_guess(tokens[head_idx]),
            "initial": "yes" if slot == 0 else "no",
            "countable": "unknown" if known is None else ("yes" if known else "no"),
        }


def extract_instances(sentences, nouns, countability=None):
    """One labeled instance per detected article slot.

    ``sentences`` is an iterable of token lists or whitespace-separated
    strings; ``nouns`` is the noun-lexicon stub (lower-case lemmas);
    ``countability`` optionally maps lemma to a boolean.  Articles are
    removed from every context feature.
    """
    out = []
    for sent in sentences:
        tokens = sent.split() if isinstance(sent, str) else list(sent)
        out.extend(
            ArticleInstance(label, feats)
            for _slot, label, feats in _slots(tokens, nouns, countability)
        )
    return out


# ---------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------

class DecisionTree:
    """Binary tree of feature = value tests with distribution leaves."""

    __slots__ = ("feature", "value", "yes", "no", "dist")

    def __init__(self, feature=None, value=None, yes=None, no=None, dist=None):
        self.feature = feature
        self.value = value
        self.yes = yes
        self.no = no
        self.dist = dist

    @property
    def is_leaf(self):
        return self.dist is not None


def _entropy(counts):
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _distribution(instances):
    dist = {}
    for inst in instances:
        dist[inst.label] = dist.get(inst.label, 0) + 1
    return dist


def train_tree(instances):
    """Top-down induction with information-gain splits, at most
    ``MAX_DEPTH`` tests deep and splitting no node of fewer than
    ``MIN_LEAF`` instances.

    Deterministic: ties pick the first (feature, value) pair in sorted
    order; a (feature, value) test is never repeated below itself.
    """
    if not instances:
        raise PosteditError("cannot train a tree on zero instances")
    return _grow(list(instances), MAX_DEPTH, frozenset())


def _grow(items, depth_left, used):
    """The subtree over ``items``, at most ``depth_left`` tests deep,
    testing no (feature, value) pair in ``used``."""
    dist = _distribution(items)
    if depth_left <= 0 or len(items) < MIN_LEAF or len(dist) == 1:
        return DecisionTree(dist=dist)
    parent_h = _entropy(dist)
    candidates = sorted(
        {
            (feat, inst.features[feat])
            for inst in items
            for feat in inst.features
        }
        - used
    )
    best = None
    for feat, value in candidates:
        yes = [i for i in items if i.features.get(feat) == value]
        no = [i for i in items if i.features.get(feat) != value]
        if not yes or not no:
            continue
        gain = parent_h - (
            len(yes) / len(items) * _entropy(_distribution(yes))
            + len(no) / len(items) * _entropy(_distribution(no))
        )
        if best is None or gain > best[0] + 1e-12:
            best = (gain, feat, value, yes, no)
    if best is None or best[0] <= 1e-12:
        return DecisionTree(dist=dist)
    _gain, feat, value, yes, no = best
    used = used | {(feat, value)}
    return DecisionTree(
        feature=feat,
        value=value,
        yes=_grow(yes, depth_left - 1, used),
        no=_grow(no, depth_left - 1, used),
    )


def classify(tree, features):
    node = tree
    while not node.is_leaf:
        node = node.yes if features.get(node.feature) == node.value else node.no
    top = max(node.dist.values())
    return sorted(label for label, c in node.dist.items() if c == top)[0]


def dump_tree(tree):
    return sexpr.dump(_tree_expr(tree)) + "\n"


def _tree_expr(node):
    if node.is_leaf:
        return ["leaf"] + [[label, str(node.dist[label])] for label in sorted(node.dist)]
    return ["test", node.feature, node.value, _tree_expr(node.yes), _tree_expr(node.no)]


def parse_tree(text, filename="<string>"):
    """The tree ``dump_tree`` wrote; anything else is a PosteditError
    that names ``filename``."""
    try:
        return _tree_node(sexpr.parse_one(text))
    except (sexpr.SexprError, PosteditError) as err:
        raise PosteditError("%s: %s" % (filename, err))


def _tree_node(expr):
    """The tree of one node expression of a dump; an error names no file."""
    if not isinstance(expr, list) or not expr:
        raise PosteditError("malformed tree node %r" % (expr,))
    if expr[0] == "leaf":
        if len(expr) == 1:
            raise PosteditError("leaf with no label counts")
        dist = {}
        for pair in expr[1:]:
            if not isinstance(pair, list) or len(pair) != 2 or list in map(type, pair):
                raise PosteditError("malformed leaf entry %r" % (pair,))
            if pair[0] not in LABELS or pair[0] in dist:
                raise PosteditError("unknown or repeated article label %r" % (pair[0],))
            count = int(pair[1]) if pair[1].isdecimal() else 0
            if count < 1:
                raise PosteditError("leaf count %r is not a positive integer" % (pair[1],))
            dist[pair[0]] = count
        return DecisionTree(dist=dist)
    if expr[0] == "test" and len(expr) == 5 and list not in map(type, expr[1:3]):
        return DecisionTree(
            feature=expr[1], value=expr[2], yes=_tree_node(expr[3]), no=_tree_node(expr[4])
        )
    raise PosteditError("malformed tree node %r" % (expr,))


# ---------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------

def choose_allomorph(following_word, exceptions=frozenset()):
    """"a" or "an" by the initial-letter vowel rule; listed exception
    words invert the rule (hour -> an, university -> a)."""
    word = following_word.lower()
    vowel = word[:1] in "aeiou"
    if word in exceptions:
        vowel = not vowel
    return "an" if vowel else "a"


def insert_articles(text, tree, nouns, exceptions=frozenset(), countability=None):
    """Classify every bare slot and insert the predicted article.

    Nouns already preceded by an article are not slots, so the
    operation is idempotent; non-slot text is returned byte-identical.
    """
    out_lines = []
    for line in text.splitlines():
        tokens = line.split()
        inserts = {}
        for slot_idx, found, feats in _slots(tokens, nouns, countability):
            if found != "null":
                continue
            label = classify(tree, feats)
            if label == "the":
                inserts[slot_idx] = "the"
            elif label == "a-an":
                inserts[slot_idx] = choose_allomorph(tokens[slot_idx], exceptions)
        rebuilt = []
        for i, tok in enumerate(tokens):
            if i in inserts:
                rebuilt.append(inserts[i])
            rebuilt.append(tok)
        out_lines.append(" ".join(rebuilt) if inserts else line)
    return "\n".join(out_lines) + ("\n" if text.endswith("\n") else "")


def parse_word_list(text, filename="<string>"):
    """One lowercased word per line; blank and ``#`` lines are skipped."""
    return {line.strip().lower() for _where, line in sexpr.records(text, filename)}


# ---------------------------------------------------------------------
# Repairs
# ---------------------------------------------------------------------

def parse_repairs(text, filename="<string>"):
    """``pattern TAB replacement`` lines, with exactly one tab; empty
    replacement deletes.  Only blank lines are skipped: every other line
    is a rule, so a pattern may start with ``#``."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.count("\t") != 1:
            raise PosteditError(
                "%s:%d: need pattern TAB replacement, with one tab" % (filename, lineno)
            )
        pattern, replacement = line.split("\t")
        if not pattern:
            raise PosteditError("%s:%d: empty pattern" % (filename, lineno))
        rules.append((pattern, replacement))
    return rules


def apply_repairs(text, rules):
    """Each rule rewrites non-overlapping occurrences left to right in
    one pass; replacements are not rescanned by the same rule."""
    for pattern, replacement in rules:
        text = text.replace(pattern, replacement)
    return text
