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
from .featstruct import FeatStruct, apply_equations  # noqa: F401
from .parser import compose, fragment_cover

__all__ = [
    "Taxonomy",
    "TaxonomyError",
    "Instance",
    "MeaningGraph",
    "SemCandidate",
    "SplError",
    "SemanticsError",
    "analyze",
    "root_candidates",
    "graph_from_featstruct",
    "infer",
    "to_assertions",
    "score_assertions",
    "rank_candidates",
    "parse_spl",
    "serialize_spl",
    "isomorphic",
    "graph_signature",
]

HARD_FLOOR = 1e-6
UNKNOWN_RELATION_SCORE = 0.5
DEFAULT_PENALTIES = {1: 0.1, 2: 0.3}
TOPIC_PRIORITY = ("agent", "theme", "senser")
WRAPPER_CONCEPT = "rc-modified-object"


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
        self.penalties = dict(DEFAULT_PENALTIES)

    # -- queries -------------------------------------------------------

    def has_concept(self, c):
        return c in self.parents

    def ancestors(self, c):
        out, todo = set(), [c]
        while todo:
            cur = todo.pop()
            if cur in out:
                continue
            out.add(cur)
            todo.extend(self.parents.get(cur, ()))
        return out

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
        return self.penalties.get(relation.level, HARD_FLOOR)

    # -- loading -------------------------------------------------------

    @staticmethod
    def parse(text, filename="<string>"):
        tax = Taxonomy()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _split_taxonomy_line(line)
            where = "%s:%d" % (filename, lineno)
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
        tax.validate()
        return tax

    def _parse_relation(self, fields, where):
        if len(fields) < 5 or fields[1] != "domain" or fields[3] != "range":
            raise TaxonomyError(
                "%s: expected 'relation R domain D range G [relax L] [penalty P]'"
                % where
            )
        name, domain, range_ = fields[0], fields[2], fields[4]
        level, penalty = 0, None
        rest = fields[5:]
        while rest:
            if rest[0] == "relax" and len(rest) >= 2:
                level = int(rest[1])
            elif rest[0] == "penalty" and len(rest) >= 2:
                penalty = float(rest[1])
            else:
                raise TaxonomyError("%s: bad relation option %r" % (where, rest[0]))
            rest = rest[2:]
        self.relations[name.lower()] = _Relation(name.lower(), domain, range_, level, penalty)

    @staticmethod
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return Taxonomy.parse(fh.read(), filename=path)

    def validate(self):
        for name, rel in self.relations.items():
            for side, concept in (("domain", rel.domain), ("range", rel.range)):
                if concept not in self.parents:
                    raise TaxonomyError(
                        "relation %s: %s concept %r is not declared" % (name, side, concept)
                    )
        # the is-a graph must be acyclic
        state = {}

        def visit(c):
            if state.get(c) == 2:
                return
            if state.get(c) == 1:
                raise TaxonomyError("is-a cycle through %r" % c)
            state[c] = 1
            for p in self.parents.get(c, ()):
                visit(p)
            state[c] = 2

        for c in list(self.parents):
            visit(c)


def _split_taxonomy_line(line):
    """Whitespace split, but |...| protects multiword concept names."""
    fields, buf, piped = [], [], False
    for ch in line:
        if ch == "|":
            piped = not piped
        elif ch.isspace() and not piped:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if piped:
        raise TaxonomyError("unbalanced | in %r" % line)
    if buf:
        fields.append("".join(buf))
    return fields


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
        out, seen = [], set()

        def visit(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            out.append(node)
            for role in sorted(node.roles):
                visit(node.roles[role])

        visit(self.root)
        return out

    def validate(self):
        ids = set()
        for node in self.nodes():
            if node.id in ids:
                raise SemanticsError("duplicate instance id %r" % node.id)
            ids.add(node.id)
        # acyclicity over role edges
        state = {}

        def visit(node):
            if state.get(id(node)) == 2:
                return
            if state.get(id(node)) == 1:
                raise SemanticsError("cycle through instance %r" % node.id)
            state[id(node)] = 1
            for child in node.roles.values():
                visit(child)
            state[id(node)] = 2

        visit(self.root)
        return self


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
    if token is None:
        return []
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


def analyze(forest, rb, cap=256, solution_cap=64):
    """Candidate meanings for every constituent, bottom-up.

    Returns a dict mapping constituent id to a list of feature
    structures (the rule variable X0 of each solution).  A leaf with no
    semantic lexicon entry gets an empty list, and emptiness propagates
    upward through derivations that need it.
    """

    def semantic_sets(rule_key):
        rule = rb.rules.get(rule_key)
        return rule.semantic_sets if rule is not None else ()

    compute = compose(
        forest, lambda const: _leaf_candidates(const, rb), semantic_sets, cap, solution_cap
    )
    return {cid: compute(cid) for cid in forest.constituents}


def graph_from_featstruct(sem):
    """Convert a ``sem`` feature value into a meaning graph.

    Shared feature nodes become reentrant instances; the ``instance``
    feature types a node, other atomic features become attributes and
    complex features become role edges.
    """
    counter = [0]
    mapping = {}

    def convert(node):
        known = mapping.get(id(node))
        if known is not None:
            return known
        typed = node.features.get("instance")
        if typed is None or typed.atom_value is None:
            raise SemanticsError(
                "meaning node lacks a unique instance type: %s" % node.serialize()
            )
        concept = str(typed.atom_value)
        counter[0] += 1
        initial = next((ch for ch in concept if ch.isalnum()), "x")
        inst = Instance("%s-%d" % (initial.lower(), counter[0]), concept)
        mapping[id(node)] = inst
        for feat in sorted(node.features):
            if feat == "instance":
                continue
            child = node.features[feat]
            if child.is_complex:
                inst.roles[feat] = convert(child)
            elif child.is_atomic:
                inst.attributes[feat] = str(child.atom_value or sorted(child.allowed)[0])
        return inst

    if not sem.is_complex:
        raise SemanticsError("meaning must be a complex structure")
    return MeaningGraph(convert(sem))


def root_candidates(forest, analyses):
    """Meaning graphs for the forest roots (or the fragment cover's
    first constituent when no full parse exists)."""
    cids = forest.roots or fragment_cover(forest)[:1]
    out = []
    for cid in cids:
        for fs in analyses.get(cid, []):
            sem = fs.features.get("sem")
            if sem is None or not sem.is_complex:
                continue
            try:
                out.append(SemCandidate(graph_from_featstruct(sem)))
            except SemanticsError:
                continue
    return out


# ---------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------

def _copy_graph(g):
    mapping = {}

    def convert(node):
        known = mapping.get(id(node))
        if known is not None:
            return known
        dup = Instance(node.id, node.concept)
        mapping[id(node)] = dup
        for role, child in node.roles.items():
            dup.roles[role] = convert(child)
        dup.attributes = dict(node.attributes)
        return dup

    return MeaningGraph(convert(g.root))


def infer(g):
    """Relative-clause reorganization and topic insertion.

    A wrapper instance carrying ``head`` and ``rel-mod`` roles is
    replaced by its head; the head keeps a rel-mod edge to the clause
    and fills the clause's recorded unfilled gap role.  A topic-marked
    instance is inserted into the first unfilled role of the root event
    in the priority order agent, theme, senser.  Untouched graphs come
    back unchanged; the operation is idempotent.
    """
    g = _copy_graph(g)

    def rewrite(node, seen):
        if id(node) in seen:
            return node
        seen.add(id(node))
        for role in list(node.roles):
            node.roles[role] = rewrite(node.roles[role], seen)
        if "head" in node.roles and "rel-mod" in node.roles:
            head = node.roles["head"]
            clause = node.roles["rel-mod"]
            gap = clause.attributes.pop("gap", None)
            if gap and gap not in clause.roles:
                clause.roles[gap] = head
            head.roles.setdefault("rel-mod", clause)
            return head
        return node

    root = rewrite(g.root, set())

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
    edge, in deterministic traversal order.  Attribute edges carry
    scalar values and are not assertions."""
    out, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for role in sorted(node.roles):
            child = node.roles[role]
            out.append((node.concept, role, child.concept))
            visit(child)

    visit(g.root)
    return out


def score_assertions(assertions, taxonomy, warn=None):
    """Product of per-triple coherence factors; always in (0, 1]."""
    factors = []
    for head, relation, filler in assertions:
        rel = taxonomy.relations.get(relation.lower())
        if rel is None:
            if warn is not None:
                warn("unknown relation %r scored %.1f" % (relation, UNKNOWN_RELATION_SCORE))
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
    if not factors:
        return 1.0
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
        elif isinstance(filler, str) and filler in instances:
            inst.roles[name] = instances[filler]  # back-reference
        elif isinstance(filler, str):
            inst.attributes[name] = str(filler)
        else:
            raise SplError("bad filler %r for %s" % (filler, role))
    return inst


def serialize_spl(g):
    seen = set()

    def emit(node):
        if node.id in seen:
            return "|%s|" % node.id
        seen.add(node.id)
        parts = ["|%s| / |%s|" % (node.id, node.concept)]
        for name, value in node.attributes.items():
            parts.append(":%s %s" % (name.upper(), value))
        for role, child in node.roles.items():
            parts.append(":%s %s" % (role.upper(), emit(child)))
        return "(%s)" % " ".join(parts)

    return emit(g.root)


# ---------------------------------------------------------------------
# Graph comparison
# ---------------------------------------------------------------------

def graph_signature(g):
    """Canonical text ignoring instance ids; equal iff isomorphic."""
    numbers = {}

    def emit(node):
        known = numbers.get(id(node))
        if known is not None:
            return "#%d" % known
        numbers[id(node)] = len(numbers) + 1
        parts = ["#%d" % numbers[id(node)], "|%s|" % node.concept]
        for name in sorted(node.attributes):
            parts.append("%s=%s" % (name, node.attributes[name]))
        for role in sorted(node.roles):
            parts.append("%s:%s" % (role, emit(node.roles[role])))
        return "(%s)" % " ".join(parts)

    return emit(g.root)


def isomorphic(a, b):
    return graph_signature(a) == graph_signature(b)
