"""Semantic analysis, minimal inference, and coherence ranking.

Analysis computes constituent meanings compositionally through the
semantic equation sets of the rulebase; a leaf gets one candidate per
sense in the semantic lexicon.  The meaning of a sentence is a rooted
graph of typed instances connected by role edges, with scalar attribute
edges such as a month index.  Candidate meanings are ranked by a
coherence score: every (head concept, relation, filler concept) triple
is checked against the taxonomy's selectional constraints, satisfied
triples score 1.0, relaxable violations score their level's penalty,
hard violations and disjointness conflicts score a small positive floor,
and the triple scores multiply.  No candidate ever scores zero.

Graphs serialize to and from SPL text:

  (|h-1| / |have as a goal|
   :SENSER (|c-2| / |company/business|)
   :THEME |c-2|)

Reentrant instances are written once and back-referenced by bare id.
"""

from . import sexpr
# apply_equations is unused here but kept: the benchmark tracer wraps it by this name
from .featstruct import FeatStruct, apply_equations, canonical  # noqa: F401
from .parser import Composition, fragment_cover

HARD_FLOOR = 1e-6
UNKNOWN_RELATION_SCORE = 0.5
DEFAULT_PENALTIES = {1: 0.1, 2: 0.3}
TOPIC_PRIORITY = ("agent", "theme", "senser")
WRAPPER_CONCEPT = "rc-modified-object"
CANDIDATE_CAP = 256  # meanings kept per constituent, and ranked per sentence


class TaxonomyError(ValueError):
    pass


class SplError(ValueError):
    pass


class SemanticsError(ValueError):
    pass


class _Relation:
    __slots__ = ("name", "domain", "range", "level", "penalty")

    def __init__(self, name, domain, range_, level=0, penalty=None):
        self.name = name
        self.domain = domain
        self.range = range_
        self.level = level
        self.penalty = penalty


class Taxonomy:
    """Concept inheritance network with relation constraints.

    Concepts may have multiple is-a parents; relations carry a domain
    concept, a range concept, a relaxation level (0 is a hard
    constraint) and an optional explicit penalty; disjointness is
    declared between concept pairs and inherited downward.
    """

    def __init__(self):
        self.parents = {}  # concept -> set of parents
        self.relations = {}  # name -> _Relation
        self.disjoint_pairs = set()  # frozenset({a, b})
        self.closure = {}  # concept -> frozenset of itself and its ancestors

    # -- queries -------------------------------------------------------

    def ancestors(self, c):
        """``c`` and everything above it, as ``validate`` recorded."""
        return self.closure.get(c) or frozenset((c,))

    def isa(self, c, d):
        """Reflexive transitive is-a."""
        return d in self.ancestors(c)

    def disjoint(self, a, b):
        for x in self.ancestors(a):
            for y in self.ancestors(b):
                if frozenset((x, y)) in self.disjoint_pairs:
                    return True
        return False

    def penalty_for(self, relation):
        if relation.penalty is not None:
            return relation.penalty
        return DEFAULT_PENALTIES.get(relation.level, HARD_FLOOR)

    # -- loading -------------------------------------------------------

    @staticmethod
    def parse(text, filename="<string>"):
        tax = Taxonomy()
        for where, line in sexpr.records(text, filename):
            try:
                fields = sexpr.parse_all(line)
            except sexpr.SexprError as err:
                raise TaxonomyError("%s: %s" % (where, err))
            if not fields or not all(isinstance(f, str) for f in fields):
                raise TaxonomyError("%s: expected words and |multi word| names" % where)
            if fields[0] == "concept":
                if len(fields) not in (2, 4) or (len(fields) == 4 and fields[2] != "isa"):
                    raise TaxonomyError("%s: expected 'concept C [isa P1,P2]'" % where)
                name = fields[1]
                parents = fields[3].split(",") if len(fields) == 4 else []
                tax.parents.setdefault(name, set()).update(p for p in parents if p)
            elif fields[0] == "relation":
                tax._parse_relation(fields[1:], where)
            elif fields[0] == "disjoint":
                if len(fields) != 3:
                    raise TaxonomyError("%s: expected 'disjoint A B'" % where)
                tax.disjoint_pairs.add(frozenset((fields[1], fields[2])))
            else:
                raise TaxonomyError("%s: unknown directive %r" % (where, fields[0]))
        try:
            tax.validate()
        except TaxonomyError as err:
            raise TaxonomyError("%s: %s" % (filename, err)) from None
        return tax

    def _parse_relation(self, fields, where):
        if len(fields) < 5 or fields[1] != "domain" or fields[3] != "range":
            raise TaxonomyError(
                "%s: expected 'relation R domain D range G [relax L] [penalty P]'"
                % where
            )
        name, domain, range_ = fields[0], fields[2], fields[4]
        options = {"relax": 0, "penalty": None}
        rest = fields[5:]
        while rest:
            if rest[0] not in options or len(rest) < 2:
                raise TaxonomyError("%s: bad relation option %r" % (where, rest[0]))
            try:
                options[rest[0]] = int(rest[1]) if rest[0] == "relax" else float(rest[1])
            except ValueError as err:
                raise TaxonomyError("%s: %s" % (where, err)) from None
            if rest[0] == "penalty" and not 0.0 < options["penalty"] <= 1.0:
                raise TaxonomyError("%s: penalty %s is not in (0, 1]" % (where, rest[1]))
            rest = rest[2:]
        level, penalty = options["relax"], options["penalty"]
        if level < 0:
            raise TaxonomyError("%s: relax level %d is negative" % (where, level))
        if level == 0 and penalty is not None:
            raise TaxonomyError(
                "%s: penalty on a relation of relax level 0, which is never relaxed" % where
            )
        if level > 0 and penalty is None and level not in DEFAULT_PENALTIES:
            raise TaxonomyError(
                "%s: relax level %d has no default penalty; give it one" % (where, level)
            )
        self.relations[name.lower()] = _Relation(name.lower(), domain, range_, level, penalty)

    def validate(self):
        for name, rel in self.relations.items():
            for side, concept in (("domain", rel.domain), ("range", rel.range)):
                if concept not in self.parents:
                    raise TaxonomyError(
                        "relation %s: %s concept %r is not declared" % (name, side, concept)
                    )
        # the is-a graph must be acyclic; the same walk records each
        # concept's ancestors (None while the concept is on the path)
        closure = {}
        for c in list(self.parents):
            _ancestors(c, self.parents, closure)
        self.closure = closure


def _ancestors(c, parents, closure):
    """``c`` and its ancestors, recorded in ``closure`` for every concept
    the walk reaches; an is-a cycle through ``c`` is an error."""
    if c in closure:
        if closure[c] is None:
            raise TaxonomyError("is-a cycle through %r" % c)
        return closure[c]
    closure[c] = None
    above = [_ancestors(p, parents, closure) for p in parents.get(c, ())]
    closure[c] = frozenset((c,)).union(*above)
    return closure[c]


# ---------------------------------------------------------------------
# Meaning graphs
# ---------------------------------------------------------------------

class Instance:
    """One typed node: role edges to other instances plus scalar
    attribute edges, both in insertion order."""

    __slots__ = ("id", "concept", "roles", "attributes")

    def __init__(self, ident, concept):
        self.id = ident
        self.concept = concept
        self.roles = {}  # role name (lower-case) -> Instance
        self.attributes = {}  # attribute name (lower-case) -> scalar string

    def __repr__(self):
        return "(|%s| / |%s|)" % (self.id, self.concept)


class MeaningGraph:
    def __init__(self, root):
        self.root = root

    def nodes(self):
        """Deterministic first-visit preorder, roles in sorted order."""
        out = []
        _preorder(self.root, set(), out)
        return out


# Each recursive graph walk in this module is a module-level function
# that takes what it needs: a closure that calls itself is a reference
# cycle, left for the cyclic collector on every call.

def _preorder(node, seen, out):
    if id(node) in seen:
        return
    seen.add(id(node))
    out.append(node)
    for role in sorted(node.roles):
        _preorder(node.roles[role], seen, out)


class SemCandidate:
    __slots__ = ("graph", "score")

    def __init__(self, graph, score=1.0):
        self.graph = graph
        self.score = score


# ---------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------

def _leaf_candidates(const, rb):
    token = const.token
    senses = rb.sem_lexicon.get(token.surface, [])
    out = []
    for concept in senses:
        sem = FeatStruct.complex({"instance": FeatStruct.atom(concept)})
        feats = {"sem": sem}
        # syntactic lexicon features ride along so rules can copy
        # attributes like a month index into the meaning
        for feat, value in const.fs.features.items():
            if feat != "sem":
                feats[feat] = value
        out.append(FeatStruct.complex(feats))
    return out


def analyze(forest, rb):
    """Candidate meanings of the forest's constituents, bottom-up.

    Returns a memoised function mapping a constituent id to a list of
    at most ``CANDIDATE_CAP`` feature structures (the rule variable X0
    of each solution); it analyzes only that constituent and what lies
    below it.  A leaf with no semantic lexicon entry gets an empty list,
    and emptiness propagates upward through derivations that need it.
    """

    def semantic_sets(rule_key):
        rule = rb.rules.get(rule_key)
        return rule.semantic_sets if rule is not None else ()

    return Composition(
        forest, lambda const: _leaf_candidates(const, rb), semantic_sets, CANDIDATE_CAP
    )


def graph_from_featstruct(sem):
    """Convert a ``sem`` feature value into a meaning graph.

    Shared feature nodes become reentrant instances; the ``instance``
    feature types a node, other atomic features become attributes and
    complex features become role edges.
    """
    if not sem.is_complex:
        raise SemanticsError("meaning must be a complex structure")
    return MeaningGraph(_instance_of(sem, {}))


def _instance_of(node, mapping):
    """The instance of one feature node; ``mapping`` takes the id of
    each node converted so far to its instance, and numbers them."""
    known = mapping.get(id(node))
    if known is not None:
        return known
    typed = node.features.get("instance")
    if typed is None or typed.atom_value is None:
        raise SemanticsError(
            "meaning node lacks a unique instance type: %s" % canonical(node)
        )
    concept = str(typed.atom_value)
    initial = next((ch for ch in concept if ch.isalnum()), "x")
    inst = Instance("%s-%d" % (initial.lower(), len(mapping) + 1), concept)
    mapping[id(node)] = inst
    for feat in sorted(node.features):
        if feat == "instance":
            continue
        child = node.features[feat]
        if child.is_complex:
            inst.roles[feat] = _instance_of(child, mapping)
        elif child.is_atomic:
            inst.attributes[feat] = str(child.atom_value or sorted(child.allowed)[0])
    return inst


def root_candidates(forest, analyses, category_order=()):
    """Meaning graphs for the forest roots (or the fragment cover's
    first constituent, chosen under ``category_order`` as the glosser
    chooses it, when no full parse exists); ``analyses`` is the function
    ``analyze`` returns."""
    cids = forest.roots or fragment_cover(forest, category_order)[:1]
    out = []
    for cid in cids:
        for fs in analyses(cid):
            sem = fs.features.get("sem")
            if sem is None:
                continue
            try:
                out.append(SemCandidate(graph_from_featstruct(sem)))
            except SemanticsError:
                continue
    return out


# ---------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------

def _copy_instance(node, mapping):
    """A copy of ``node`` and what it reaches; ``mapping`` takes the id
    of each instance copied so far to its copy."""
    known = mapping.get(id(node))
    if known is not None:
        return known
    dup = Instance(node.id, node.concept)
    mapping[id(node)] = dup
    for role, child in node.roles.items():
        dup.roles[role] = _copy_instance(child, mapping)
    dup.attributes = dict(node.attributes)
    return dup


def _rewrite(node, seen):
    """``infer``'s relative-clause step below ``node``; ``seen`` holds
    the ids of the instances visited."""
    if id(node) in seen:
        return node
    seen.add(id(node))
    for role in list(node.roles):
        node.roles[role] = _rewrite(node.roles[role], seen)
    if "head" in node.roles and "rel-mod" in node.roles:
        head = node.roles["head"]
        clause = node.roles["rel-mod"]
        gap = clause.attributes.pop("gap", None)
        if gap and gap not in clause.roles:
            clause.roles[gap] = head
        head.roles.setdefault("rel-mod", clause)
        return head
    return node


def infer(g):
    """Relative-clause reorganization and topic insertion.

    A wrapper instance carrying ``head`` and ``rel-mod`` roles is
    replaced by its head; the head keeps a rel-mod edge to the clause
    and fills the clause's recorded unfilled gap role.  A topic-marked
    instance is inserted into the first unfilled role of the root event
    in the priority order agent, theme, senser.  Untouched graphs come
    back unchanged; the operation is idempotent.
    """
    root = _rewrite(_copy_instance(g.root, {}), set())

    topic = None
    for node in MeaningGraph(root).nodes():
        if node.attributes.get("topic") == "+":
            topic = node
            break
    if topic is not None and topic is not root:
        for role in TOPIC_PRIORITY:
            if role not in root.roles:
                root.roles[role] = topic
                topic.attributes.pop("topic", None)
                break
    return MeaningGraph(root)


# ---------------------------------------------------------------------
# Assertions and scoring
# ---------------------------------------------------------------------

def to_assertions(g):
    """One (head concept, relation, filler concept) triple per role
    edge, node by node in ``g.nodes()`` order and each node's roles in
    sorted order.  Attribute edges carry scalar values and are not
    assertions."""
    return [
        (node.concept, role, node.roles[role].concept)
        for node in g.nodes()
        for role in sorted(node.roles)
    ]


def score_assertions(assertions, taxonomy):
    """Product of per-triple coherence factors; always in (0, 1]."""
    factors = []
    for head, relation, filler in assertions:
        rel = taxonomy.relations.get(relation.lower())
        if rel is None:
            factors.append(UNKNOWN_RELATION_SCORE)
            continue
        if taxonomy.isa(head, rel.domain) and taxonomy.isa(filler, rel.range):
            factors.append(1.0)
        elif taxonomy.disjoint(filler, rel.range) or taxonomy.disjoint(head, rel.domain):
            factors.append(HARD_FLOOR)
        elif rel.level >= 1:
            factors.append(max(taxonomy.penalty_for(rel), HARD_FLOOR))
        else:
            factors.append(HARD_FLOOR)
    # multiply smallest first so the result is order-invariant bit for bit
    score = 1.0
    for f in sorted(factors):
        score *= f
    # clamp against float underflow on very long assertion lists
    return max(score, 1e-300)


def rank_candidates(candidates):
    """Stable descending sort by score; the first is the interlingua."""
    return sorted(candidates, key=lambda c: -c.score)


# ---------------------------------------------------------------------
# SPL text format
# ---------------------------------------------------------------------

def parse_spl(text):
    try:
        expr = sexpr.parse_one(text)
    except sexpr.SexprError as err:
        raise SplError(str(err))
    instances = {}
    root = _parse_instance(expr, instances)
    return MeaningGraph(root)


def _parse_instance(expr, instances):
    if not isinstance(expr, list) or len(expr) < 3 or expr[1] != "/":
        raise SplError("expected (|id| / |concept| ...), got %r" % (expr,))
    ident, concept = expr[0], expr[2]
    if not isinstance(ident, str) or not isinstance(concept, str):
        raise SplError("instance id and concept must be atoms: %r" % (expr,))
    if ident in instances:
        raise SplError("duplicate instance id %r" % ident)
    inst = Instance(ident, concept)
    instances[ident] = inst
    rest = expr[3:]
    if len(rest) % 2:
        raise SplError("instance %r has a role without a filler" % ident)
    for i in range(0, len(rest), 2):
        role, filler = rest[i], rest[i + 1]
        if not isinstance(role, str) or not role.startswith(":") or len(role) < 2:
            raise SplError("expected :ROLE in instance %r, got %r" % (ident, role))
        name = role[1:].lower()
        if name in inst.roles or name in inst.attributes:
            raise SplError("duplicate role %s on instance %r" % (role, ident))
        if isinstance(filler, list):
            inst.roles[name] = _parse_instance(filler, instances)
        elif filler in instances:
            inst.roles[name] = instances[filler]  # back-reference
        else:
            inst.attributes[name] = str(filler)
    return inst


def serialize_spl(g):
    return _serialize_instance(g.root, set())


def _serialize_instance(node, seen):
    """``node`` in full the first time, and as its |id| once ``seen``."""
    if node.id in seen:
        return "|%s|" % node.id
    seen.add(node.id)
    parts = ["|%s| / |%s|" % (node.id, node.concept)]
    for name, value in node.attributes.items():
        parts.append(":%s %s" % (name.upper(), value))
    for role, child in node.roles.items():
        parts.append(":%s %s" % (role.upper(), _serialize_instance(child, seen)))
    return "(%s)" % " ".join(parts)
