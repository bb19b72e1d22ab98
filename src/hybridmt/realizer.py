"""Template-based generation: meaning graph -> English word lattice.

A fixed linearization template replaces a full generation grammar:
subject noun phrase, verb, object noun phrase, then the remaining roles
as prepositional phrases in declaration order.  Unspecified
definiteness defaults to the article "the" and unspecified tense to the
present.  Where the generation lexicon does not record a preferred
preposition for a relation, the lattice branches over a fixed
alternative set and the language model downstream picks the winner.
Reentrant fillers are realized once; later mentions are skipped.
"""

from . import lattice_lm as wl, sexpr
from .glosser import past_form, third_singular_form

DEFAULT_PREPOSITIONS = ("in", "on", "at", "for", "of")
SUBJECT_ROLES = ("senser", "agent", "theme")
OBJECT_ROLES = ("phenomenon", "theme")
MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
CATEGORIES = ("noun", "verb", "adjective", "preposition")


class RealizeError(ValueError):
    pass


class GenEntry:
    __slots__ = ("concept", "lemma", "category", "countable", "preps")

    def __init__(self, concept, lemma, category, countable, preps):
        self.concept = concept
        self.lemma = lemma
        self.category = category
        self.countable = countable
        self.preps = preps


def parse_gen_lexicon(text, filename="<string>"):
    """TSV rows ``concept TAB lemma TAB category [TAB countable?
    [TAB relation=prep;...]]``."""
    table = {}
    for where, line in sexpr.records(text, filename):
        cols = line.split("\t")
        if len(cols) < 3:
            raise RealizeError("%s: need concept TAB lemma TAB category" % where)
        countable = True
        if len(cols) > 3 and cols[3].strip():
            countable = cols[3].strip() != "-"
        preps = {}
        if len(cols) > 4 and cols[4].strip():
            for item in cols[4].split(";"):
                if not item.strip():
                    continue
                if "=" not in item:
                    raise RealizeError("%s: preposition entry must be relation=prep" % where)
                relation, prep = item.split("=", 1)
                preps[relation.strip().lower()] = prep.strip()
        concept = cols[0].strip()
        if len(concept) > 1 and concept.startswith("|") and concept.endswith("|"):
            concept = concept[1:-1]
        category = cols[2].strip().lower()
        if not cols[1]:
            raise RealizeError("%s: generation entry for %r has an empty lemma" % (where, concept))
        if category not in CATEGORIES:
            raise RealizeError("%s: entry %r: unknown category %r" % (where, concept, category))
        table[concept] = GenEntry(concept, cols[1], category, countable, preps)
    return table


def _verb_groups(node, entry, irregulars=None):
    tense = node.attributes.get("tense", "present")
    if tense == "past":
        return [[past_form(entry.lemma, irregulars)]]
    return [[third_singular_form(entry.lemma, irregulars)]]


def realize(g, lex, irregulars=None):
    """Linearize a meaning graph into a word lattice.

    Raises RealizeError listing every concept missing from the
    generation lexicon, and for graphs whose root is not realizable as
    an event or entity.
    """
    missing = sorted({n.concept for n in g.nodes() if n.concept not in lex})
    if missing:
        raise RealizeError("no generation entry for: %s" % ", ".join(missing))

    realized = set()
    groups = []  # each group is a list of alternative word strings
    root = g.root
    entry = lex[root.concept]
    if entry.category == "verb":
        realized.add(id(root))
        subject = None
        for role in SUBJECT_ROLES:
            if role in root.roles:
                subject = root.roles[role]
                break
        if subject is not None:
            _np_groups(subject, lex, groups, realized)
        groups.extend(_verb_groups(root, entry, irregulars))
        obj = None
        for role in OBJECT_ROLES:
            child = root.roles.get(role)
            if child is not None and id(child) not in realized:
                obj = child
                break
        if obj is not None:
            _np_groups(obj, lex, groups, realized)
        for role, child in root.roles.items():
            if id(child) in realized:
                continue
            _pp_groups(entry, role, child, lex, groups, realized)
    elif entry.category == "noun":
        _np_groups(root, lex, groups, realized)
    else:
        raise RealizeError(
            "graph root %r (%s) is not an event or entity" % (root.concept, entry.category)
        )

    groups.append(["."])
    groups[0] = sorted({alt[:1].upper() + alt[1:] for alt in groups[0]})
    return wl.layout(wl.groups_term(groups))


# The two phrase builders are module-level functions that take the
# lexicon, the groups so far and the ids of the instances realized: a
# pair of closures that call each other is a reference cycle.

def _pp_groups(head_entry, role, child, lex, groups, realized):
    prep = head_entry.preps.get(role)
    groups.append([prep] if prep else list(DEFAULT_PREPOSITIONS))
    _np_groups(child, lex, groups, realized)


def _np_groups(node, lex, groups, realized):
    realized.add(id(node))
    entry = lex[node.concept]
    if "month-index" in node.attributes:
        try:
            index = int(node.attributes["month-index"])
        except ValueError:
            raise RealizeError(
                "month index %r is not an integer" % node.attributes["month-index"]
            ) from None
        if not 1 <= index <= 12:
            raise RealizeError("month index %d out of range" % index)
        groups.append([MONTH_NAMES[index - 1]])
    elif entry.category == "verb":
        # clausal realization of an event argument
        groups.append(["to"])
        groups.append([entry.lemma])
    else:
        if node.attributes.get("definiteness") == "indefinite":
            groups.append(["a"])
        else:
            groups.append(["the"])
        for role, child in node.roles.items():
            if lex[child.concept].category == "adjective":
                realized.add(id(child))
                groups.append([lex[child.concept].lemma])
        groups.append([entry.lemma])
    for role, child in node.roles.items():
        if id(child) in realized:
            continue
        if lex[child.concept].category == "adjective":
            continue
        _pp_groups(entry, role, child, lex, groups, realized)
