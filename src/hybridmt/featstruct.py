"""Feature structures and the unification/equation engine.

A feature structure is a rooted, edge-labeled directed acyclic graph.
Interior nodes map feature names to child nodes; interior nodes may be
shared (reentrancy).  Leaves carry one of:

  - an atom (``plus``, ``ta-form``, ``"John"``),
  - an atomic disjunction, written ``(*OR* a b c)``,
  - a negative residue, written ``(*NOT* a b)``: the value is not yet
    known but may never become one of the listed atoms.

Structures are immutable values; ``unify`` returns a fresh structure (or
``None`` on failure) and never mutates its inputs.  Grammar rules attach
equations over variables ``X0..Xn``; ``apply_equations`` solves an
equation list against variable bindings, expanding ``*OR*`` blocks into
alternative solutions and checking ``*XOR*`` blocks, existence tests and
``=c`` constraint equations.  An equation list that only collects child
values into X0 is solved by ``graft`` instead, which builds X0 around
the children's own nodes; where a longer left-hand path adds to a
child's node, X0 holds a copy of that node, which still shares the
node's children, and the longer path writes into the copy.

Sharing nodes between structures is sound only because nothing changes
a ``FeatStruct`` once it is built: unification works on mutable
``_MNode`` copies and freezes the result into new nodes, and ``graft``
fills in only the fresh X0 nodes and copies it is building.
"""

import re

from .sexpr import QuotedString, SexprError, dump

SOLUTION_CAP = 64  # solutions kept per equation list, *OR* expansion included

_VAR_RE = re.compile(r"^X[0-9]+$")
# canonical writes a tagged bare atom as one token, ``#1=v1``
_TAG_DEF_RE = re.compile(r"^#([0-9]+)=(.*)$")
_TAG_REF_RE = re.compile(r"^#([0-9]+)#$")


class UnboundVariableError(Exception):
    """An equation references a variable missing from its bindings."""


class _Fail(Exception):
    """Internal: unification failure."""


class _XorFail(Exception):
    """Internal: an exclusive-or block had 0 or >1 satisfiable groups."""


class FeatStruct:
    """One node of an immutable feature-structure graph.

    Exactly one of three kinds:

      - complex:  ``features`` is a non-empty dict of child nodes
      - atomic:   ``allowed`` is a non-empty frozenset of candidate atoms
                  (a plain atom is a singleton set)
      - empty:    no commitments yet; ``forbidden`` may carry a negative
                  residue (atoms the value may never take)

    ``forbidden`` is only retained while ``allowed`` is None; once a node
    is atomic the residue has already been subtracted.
    """

    __slots__ = ("features", "allowed", "forbidden")

    def __init__(self, features=None, allowed=None, forbidden=frozenset()):
        if features and allowed is not None:
            raise ValueError("node cannot be both complex and atomic")
        if allowed is not None and not allowed:
            raise ValueError("atomic disjunction must be non-empty")
        self.features = dict(features) if features else {}
        self.allowed = frozenset(allowed) if allowed is not None else None
        self.forbidden = frozenset(forbidden) if allowed is None else frozenset()

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty():
        return _EMPTY

    @staticmethod
    def atom(value):
        return FeatStruct(allowed=frozenset([value]))

    @staticmethod
    def disjunction(atoms):
        return FeatStruct(allowed=frozenset(atoms))

    @staticmethod
    def negation(atoms):
        return FeatStruct(forbidden=atoms)

    @staticmethod
    def complex(features):
        # the shared empty node would make every empty value of the
        # structure one reentrant node; each gets its own
        if any(v is _EMPTY for v in features.values()):
            features = {f: FeatStruct() if v is _EMPTY else v for f, v in features.items()}
        return FeatStruct(features=features)

    # -- predicates and access ----------------------------------------

    @property
    def is_complex(self):
        return bool(self.features)

    @property
    def is_atomic(self):
        return self.allowed is not None

    @property
    def is_empty(self):
        return not self.features and self.allowed is None

    @property
    def atom_value(self):
        """The atom, if this node is committed to exactly one."""
        if self.allowed is not None and len(self.allowed) == 1:
            return next(iter(self.allowed))
        return None

    def get(self, path):
        """Walk a feature path; None if any step is missing."""
        node, depth = _follow(self, path)
        return node if depth == len(path) else None

    def __getitem__(self, feat):
        return self.features[feat]

    def __contains__(self, feat):
        return feat in self.features

    # -- equality is isomorphism (including reentrancy) ---------------

    def __eq__(self, other):
        if not isinstance(other, FeatStruct):
            return NotImplemented
        return canonical(self) == canonical(other)

    def __hash__(self):
        return hash(canonical(self))

    def __repr__(self):
        return "FeatStruct(%s)" % canonical(self)


_EMPTY = FeatStruct()


# ---------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------

def _sorted_atoms(atoms):
    return sorted(atoms, key=lambda a: (isinstance(a, QuotedString), str(a)))


def canonical(fs):
    """Deterministic text form; equal strings iff isomorphic graphs.
    Reentrancy is written as numbered tags."""
    refcount = {}
    _count_refs(fs, refcount)
    return _emit(fs, refcount, {})


def _count_refs(node, refcount):
    refcount[id(node)] = refcount.get(id(node), 0) + 1
    if refcount[id(node)] == 1:
        for feat in node.features:
            _count_refs(node.features[feat], refcount)


def _emit(node, refcount, tags):
    if id(node) in tags:
        return "#%d#" % tags[id(node)]
    prefix = ""
    if refcount[id(node)] > 1:
        tags[id(node)] = len(tags) + 1
        prefix = "#%d=" % tags[id(node)]
    if node.allowed is not None:
        if len(node.allowed) == 1:
            body = dump(next(iter(node.allowed)))
        else:
            body = "(*OR* %s)" % " ".join(
                dump(a) for a in _sorted_atoms(node.allowed)
            )
    elif node.features:
        parts = []
        for feat in sorted(node.features):
            parts.append("(%s %s)" % (dump(feat), _emit(node.features[feat], refcount, tags)))
        body = "(%s)" % " ".join(parts)
    elif node.forbidden:
        body = "(*NOT* %s)" % " ".join(
            dump(a) for a in _sorted_atoms(node.forbidden)
        )
    else:
        body = "()"
    return prefix + body


# ---------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------

def _is_op(expr, name):
    return isinstance(expr, str) and not isinstance(expr, QuotedString) and expr.upper() == name


def parse_featstruct_expr(expr, tags=None):
    """Build a FeatStruct from a nested-list expression."""
    if tags is None:
        tags = {}
    if isinstance(expr, str):
        if not isinstance(expr, QuotedString):
            m = _TAG_REF_RE.match(expr)
            if m:
                try:
                    return tags[m.group(1)]
                except KeyError:
                    raise SexprError("undefined reentrancy tag #%s#" % m.group(1))
        return FeatStruct.atom(expr)
    if not expr:
        # a fresh node per ``()``: a shared one would make every empty
        # value in the structure one reentrant node
        return FeatStruct()
    head = expr[0]
    if _is_op(head, "*OR*"):
        atoms = expr[1:]
        if not atoms or not all(isinstance(a, str) for a in atoms):
            raise SexprError("*OR* leaf must list atoms")
        return FeatStruct.disjunction(atoms)
    if _is_op(head, "*NOT*"):
        atoms = expr[1:]
        if not atoms or not all(isinstance(a, str) for a in atoms):
            raise SexprError("*NOT* must list atoms")
        return FeatStruct.negation(atoms)
    # otherwise: a list of (feature value) pairs, possibly with #n= tags
    features = {}
    for pair in expr:
        if not isinstance(pair, list) or len(pair) < 2:
            raise SexprError("expected (feature value) pair, got %r" % (pair,))
        feat = pair[0]
        if not isinstance(feat, str):
            raise SexprError("feature name must be an atom: %r" % (feat,))
        rest = pair[1:]
        tagname = None
        if isinstance(rest[0], str) and not isinstance(rest[0], QuotedString):
            m = _TAG_DEF_RE.match(rest[0])
            if m:
                tagname = m.group(1)
                rest = ([m.group(2)] if m.group(2) else []) + rest[1:]
        if len(rest) != 1:
            raise SexprError("feature %s has %d values" % (feat, len(rest)))
        if feat in features:
            raise SexprError("duplicate feature %s" % feat)
        value = parse_featstruct_expr(rest[0], tags)
        if tagname is not None:
            tags[tagname] = value
        features[feat] = value
    return FeatStruct.complex(features)


# ---------------------------------------------------------------------
# Mutable working nodes for unification
# ---------------------------------------------------------------------

class _MNode:
    __slots__ = ("forward", "feats", "allowed", "forbidden")

    def __init__(self, allowed=None, forbidden=frozenset()):
        self.forward = None
        self.feats = {}
        self.allowed = allowed
        self.forbidden = forbidden


def _deref(n):
    while n.forward is not None:
        n = n.forward
    return n


def _thaw(fs, memo):
    node = memo.get(id(fs))
    if node is not None:
        return node
    node = _MNode(allowed=fs.allowed, forbidden=fs.forbidden)
    memo[id(fs)] = node
    for feat, child in fs.features.items():
        node.feats[feat] = _thaw(child, memo)
    return node


def _copy(n, memo):
    n = _deref(n)
    dup = memo.get(id(n))
    if dup is not None:
        return dup
    dup = _MNode(allowed=n.allowed, forbidden=n.forbidden)
    memo[id(n)] = dup
    for feat, child in n.feats.items():
        dup.feats[feat] = _copy(child, memo)
    return dup


def _munify(a, b):
    a, b = _deref(a), _deref(b)
    if a is b:
        return a
    a_complex, b_complex = bool(a.feats), bool(b.feats)
    a_atomic, b_atomic = a.allowed is not None, b.allowed is not None
    if a_complex and b_atomic or b_complex and a_atomic:
        raise _Fail("atom vs complex structure")
    if a_complex and b.forbidden or b_complex and a.forbidden:
        # a negative residue constrains an atomic value; a structure
        # can never satisfy it
        raise _Fail("negative residue vs complex structure")
    if a_atomic or b_atomic:
        allowed = a.allowed if a.allowed is not None else b.allowed
        if a.allowed is not None and b.allowed is not None:
            allowed = a.allowed & b.allowed
        allowed = allowed - a.forbidden - b.forbidden
        if not allowed:
            raise _Fail("empty atomic intersection")
        a.allowed, a.forbidden, a.feats = allowed, frozenset(), {}
        b.forward = a
        return a
    if a_complex or b_complex:
        if b_complex and not a_complex:
            a, b = b, a
        b.forward = a
        for feat, child in list(b.feats.items()):
            mine = a.feats.get(feat)
            if mine is None:
                a.feats[feat] = child
            else:
                _munify(mine, child)
        b.feats = {}
        return a
    # both empty: merge residues
    a.forbidden = a.forbidden | b.forbidden
    b.forward = a
    return a


def _freeze(n, memo=None, active=None):
    if memo is None:
        memo, active = {}, set()
    n = _deref(n)
    done = memo.get(id(n))
    if done is not None:
        return done
    if id(n) in active:
        raise _Fail("cyclic structure created by unification")
    active.add(id(n))
    features = {}
    for feat, child in n.feats.items():
        features[feat] = _freeze(child, memo, active)
    active.discard(id(n))
    fs = FeatStruct(features=features, allowed=n.allowed, forbidden=n.forbidden)
    memo[id(n)] = fs
    return fs


def unify(a, b):
    """Most general common specialization of ``a`` and ``b``, or None."""
    memo = {}
    ma, mb = _thaw(a, memo), _thaw(b, memo)
    try:
        return _freeze(_munify(ma, mb))
    except _Fail:
        return None


# ---------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------

def subsumes(a, b):
    """True iff every commitment (values and reentrancy) of a holds in b."""
    return _subsumes(a, b, {})


def _subsumes(na, nb, mapping):
    seen = mapping.get(id(na))
    if seen is not None:
        return seen is nb  # reentrancy in a must be mirrored in b
    mapping[id(na)] = nb
    if na.features:
        if not nb.features:
            return False
        for feat, child in na.features.items():
            other = nb.features.get(feat)
            if other is None or not _subsumes(child, other, mapping):
                return False
        return True
    if na.allowed is not None:
        return nb.allowed is not None and nb.allowed <= na.allowed
    if na.forbidden:
        if nb.allowed is not None:
            return not (nb.allowed & na.forbidden)
        if nb.features:
            return False
        return na.forbidden <= nb.forbidden
    return True


# ---------------------------------------------------------------------
# Equations
# ---------------------------------------------------------------------

class PathRef:
    """A rule variable plus a feature path under it, e.g. (X1 syn infl)."""

    __slots__ = ("var", "path")

    def __init__(self, var, path=()):
        self.var = var
        self.path = tuple(path)

    def __repr__(self):
        return "PathRef(%s %s)" % (self.var, " ".join(self.path))


class Assign:
    """Unifying equation: path = path, or path = value."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs  # PathRef or FeatStruct leaf/literal


class Constraint:
    """Check-only equation (``=c``): passes iff the path already holds a
    value compatible with the right-hand side, adding no structure."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs


class Exists:
    """Existence test: the path must already carry a value."""

    __slots__ = ("ref",)

    def __init__(self, ref):
        self.ref = ref


class OrBlock:
    """Disjunction over groups of equations; each satisfiable group
    contributes alternative solutions."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = groups


class XorBlock:
    """Exclusive-or: exactly one group may be satisfiable; its effects
    apply.  Anything else fails the whole rule application."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = groups


def _parse_pathref(expr):
    if isinstance(expr, str):
        if _VAR_RE.match(expr) and not isinstance(expr, QuotedString):
            return PathRef(expr)
        raise SexprError("expected a variable or path, got %r" % expr)
    if not expr or not isinstance(expr[0], str) or not _VAR_RE.match(expr[0]):
        raise SexprError("path must start with a rule variable: %r" % (expr,))
    if not all(isinstance(f, str) for f in expr[1:]):
        raise SexprError("path steps must be atoms: %r" % (expr,))
    return PathRef(expr[0], expr[1:])


def _parse_rhs(expr):
    if isinstance(expr, str):
        if not isinstance(expr, QuotedString) and _VAR_RE.match(expr):
            return PathRef(expr)
        return FeatStruct.atom(expr)
    if expr and isinstance(expr[0], str) and not isinstance(expr[0], QuotedString) \
            and _VAR_RE.match(expr[0]):
        return _parse_pathref(expr)
    return parse_featstruct_expr(expr)


def parse_equation(expr):
    if not isinstance(expr, list) or not expr:
        raise SexprError("malformed equation: %r" % (expr,))
    head = expr[0]
    if _is_op(head, "IS"):
        if len(expr) != 2:
            raise SexprError("existence test takes one path: %r" % (expr,))
        return Exists(_parse_pathref(expr[1]))
    if _is_op(head, "*OR*") or _is_op(head, "*XOR*"):
        groups = []
        for group in expr[1:]:
            if not isinstance(group, list):
                raise SexprError("block group must be a list of equations")
            groups.append([parse_equation(e) for e in group])
        if not groups:
            raise SexprError("empty %s block" % head)
        return OrBlock(groups) if _is_op(head, "*OR*") else XorBlock(groups)
    if len(expr) == 3 and expr[1] in ("=", "=c"):
        lhs = _parse_pathref(expr[0])
        rhs = _parse_rhs(expr[2])
        return Assign(lhs, rhs) if expr[1] == "=" else Constraint(lhs, rhs)
    raise SexprError("malformed equation: %r" % (expr,))


def parse_equations(exprs):
    return [parse_equation(e) for e in exprs]


def equation_variables(eqs):
    """All rule variables referenced anywhere in an equation list."""
    out = set()
    for eq in eqs:
        _add_variables(eq, out)
    return out


def _add_variables(eq, out):
    if isinstance(eq, (Assign, Constraint)):
        out.add(eq.lhs.var)
        if isinstance(eq.rhs, PathRef):
            out.add(eq.rhs.var)
    elif isinstance(eq, Exists):
        out.add(eq.ref.var)
    else:
        for group in eq.groups:
            for sub in group:
                _add_variables(sub, out)


# ---------------------------------------------------------------------
# Equation solving
# ---------------------------------------------------------------------

class _State:
    __slots__ = ("root", "deferred")

    def __init__(self, root, deferred):
        self.root = root
        self.deferred = deferred

    def clone(self):
        return _State(_copy(self.root, {}), list(self.deferred))


def _walk(root, ref, create):
    """Resolve a PathRef against the joint root node."""
    node = _deref(root)
    steps = (ref.var,) + ref.path
    for feat in steps:
        node = _deref(node)
        if node.allowed is not None:
            raise _Fail("path descends into an atom")
        child = node.feats.get(feat)
        if child is None:
            if not create:
                return None
            child = _MNode()
            node.feats[feat] = child
        node = child
    return _deref(node)


def _rhs_node(state, rhs):
    if isinstance(rhs, PathRef):
        return _walk(state.root, rhs, create=True)
    return _thaw(rhs, {})


def _node_has_value(node):
    return node is not None and (bool(node.feats) or node.allowed is not None)


def _check_exists(state, eq):
    try:
        return _node_has_value(_walk(state.root, eq.ref, create=False))
    except _Fail:
        return False


def _check_constraint(state, eq):
    try:
        lhs = _walk(state.root, eq.lhs, create=False)
    except _Fail:
        return False
    if not _node_has_value(lhs):
        return False
    # simulate the unification on a throwaway copy; pass iff it succeeds
    # without adding structure to the left-hand side (a cyclic one fails)
    memo = {}
    root_dup = _copy(state.root, memo)
    lhs_dup = memo[id(lhs)]
    dup_state = _State(root_dup, [])
    try:
        before = canonical(_freeze(lhs_dup))
        _munify(lhs_dup, _rhs_node(dup_state, eq.rhs))
        after = canonical(_freeze(_deref(lhs_dup)))
    except _Fail:
        return False
    return before == after


def _apply_seq(states, eqs, cap):
    for eq in eqs:
        if not states:
            return states
        if isinstance(eq, Assign):
            survivors = []
            for st in states:
                try:
                    lhs = _walk(st.root, eq.lhs, create=True)
                    _munify(lhs, _rhs_node(st, eq.rhs))
                    survivors.append(st)
                except _Fail:
                    pass
            states = survivors
        elif isinstance(eq, (Constraint, Exists)):
            for st in states:
                st.deferred.append(eq)
        elif isinstance(eq, OrBlock):
            expanded = []
            for st in states:
                for group in eq.groups:
                    if len(expanded) >= cap:
                        break
                    expanded.extend(_apply_seq([st.clone()], group, cap))
            states = expanded[:cap]
        else:  # XorBlock, the last of ``parse_equation``'s kinds
            expanded = []
            for st in states:
                satisfiable = []
                for index, group in enumerate(eq.groups):
                    # probe each group on a throwaway copy, judging only
                    # the tests the group itself introduces
                    trial = _apply_seq([_State(_copy(st.root, {}), [])], group, cap)
                    if any(_deferred_pass(t) for t in trial):
                        satisfiable.append(index)
                if len(satisfiable) != 1:
                    raise _XorFail(len(satisfiable))
                expanded.extend(_apply_seq([st], eq.groups[satisfiable[0]], cap))
            states = expanded[:cap]
    return states


def _deferred_pass(state):
    # existence tests first, then check-only =c equations last
    for eq in state.deferred:
        if isinstance(eq, Exists) and not _check_exists(state, eq):
            return False
    for eq in state.deferred:
        if isinstance(eq, Constraint) and not _check_constraint(state, eq):
            return False
    return True


def apply_equations(bindings, eqs, solution_cap=SOLUTION_CAP):
    """Solve an equation list against variable bindings.

    Returns a list of solutions, each a dict mapping every variable to
    its (possibly specialized) feature structure; structures within one
    solution share nodes where the equations made paths reentrant.  An
    empty list signals failure.
    """
    for var in equation_variables(eqs):
        if var not in bindings:
            raise UnboundVariableError(var)
    root = _MNode()
    for var, fs in bindings.items():
        # one memo per variable: binding the same structure to two
        # variables must not alias them
        root.feats[var] = _thaw(fs, {})
    try:
        states = _apply_seq([_State(root, [])], eqs, solution_cap)
    except _XorFail:
        return []
    # one state has nothing to be a duplicate of, so skip its canonical key
    dedup = len(states) > 1
    solutions, seen = [], set()
    for st in states:
        if not _deferred_pass(st):
            continue
        try:
            frozen = _freeze(st.root)
        except _Fail:
            continue
        if dedup:
            key = canonical(frozen)
            if key in seen:
                continue
            seen.add(key)
        solutions.append({var: frozen.features.get(var, _EMPTY) for var in bindings})
    return solutions


# ---------------------------------------------------------------------
# Grafting: an X0 that only collects child values shares them
# ---------------------------------------------------------------------

def graft_plan(eqs):
    """How ``graft`` builds X0 for an equation list, or None when only
    ``apply_equations`` can solve it.

    A list is graftable when every equation is ``(X0 p) = (Xi q)`` with
    i >= 1, or ``(X0 p) = leaf`` with an atom or ``*OR*`` leaf, no
    left-hand path p is empty or equal to another, and a p that is a
    prefix of another has a child path on its right.  The plan is the
    highest child index named and ``(p, i, q, adds)`` per equation, in
    path order so that a prefix comes before the paths it prefixes:
    i None and q the leaf's atoms for a leaf, and ``adds`` the features
    the longer paths add under p, or None when p prefixes none.
    """
    entries = []
    arity = 0
    for eq in eqs:
        if type(eq) is not Assign or eq.lhs.var != "X0" or not eq.lhs.path:
            return None
        rhs = eq.rhs
        if type(rhs) is PathRef:
            if rhs.var[1] == "0":  # X0, or X00 or X01, which no child binds
                return None
            index = int(rhs.var[1:])
            arity = max(arity, index)
            entries.append((eq.lhs.path, index, rhs.path))
        elif rhs.allowed is not None:
            entries.append((eq.lhs.path, None, rhs.allowed))
        else:
            return None
    entries.sort(key=lambda entry: entry[0])
    plan = []
    for k, (lhs, index, rhs) in enumerate(entries):
        # in sorted order the paths that lhs prefixes follow it straight
        adds = set()
        for longer, _, _ in entries[k + 1 :]:
            if longer[: len(lhs)] != lhs:
                break
            if len(longer) == len(lhs):
                return None
            adds.add(longer[len(lhs)])
        if adds and index is None:
            return None
        plan.append((lhs, index, rhs, frozenset(adds) if adds else None))
    return arity, plan


def graft(plan, children):
    """Solve a graftable equation list (see ``graft_plan``) with X0
    empty and X1.. bound to ``children``, sharing instead of copying.

    X0 is fresh nodes along the left-hand paths.  A leaf is the child's
    own node at q, a fresh atom node, or, where q is missing in the
    child, a fresh empty node (one per missing path and child node).
    Where longer left-hand paths add to p, X0 holds a copy of the
    child's node at q instead, whose features are the child's own
    nodes, and the longer paths write into the copy: no child node
    ever changes.  Returns ``[X0]``, ``[]`` when q descends into an
    atom, or None when ``apply_equations`` must decide.  The solver
    copies each variable apart, so a node shared through two variables
    is not reentrant there; it grows a child along a missing path,
    which X0 may share; and it adds to the child's node itself, which
    fails on an atom or a ``*NOT*`` residue, unifies a feature already
    there, shows wherever else X0 holds that node, and may close a
    cycle through a grown one.
    """
    arity, entries = plan
    if arity > len(children):
        raise UnboundVariableError("X%d" % arity)
    x0 = FeatStruct()
    shared = {}  # child index -> the child's nodes X0 shares
    grown = {}  # (child index, id of the last node found, missing steps) -> leaf
    copied = set()  # ids of the child nodes X0 holds a copy of
    for lhs, index, rhs, adds in entries:
        if index is None:
            leaf = FeatStruct(allowed=rhs)
        else:
            node, depth = _follow(children[index - 1], rhs)
            if node is None:
                return []
            if depth < len(rhs):
                if adds is not None:
                    return None
                leaf = grown.setdefault((index, id(node), rhs[depth:]), FeatStruct())
            elif adds is None:
                leaf = node
                shared.setdefault(index, []).append(node)
            else:
                if node.allowed is not None or node.forbidden or id(node) in copied \
                        or not adds.isdisjoint(node.features):
                    return None
                copied.add(id(node))
                leaf = FeatStruct(node.features)
                shared.setdefault(index, []).extend(node.features.values())
        parent = x0
        for feat in lhs[:-1]:
            child = parent.features.get(feat)
            if child is None:
                child = parent.features[feat] = FeatStruct()
            parent = child
        parent.features[lhs[-1]] = leaf
    if (len(shared) > 1 or grown or copied) and not _graft_agrees(shared, grown, copied):
        return None
    return [x0]


def _follow(node, path):
    """(last node found along ``path``, steps taken), or (None, 0) when
    the path descends into an atom."""
    for depth, feat in enumerate(path):
        if node.allowed is not None:
            return None, 0
        child = node.features.get(feat)
        if child is None:
            return node, depth
        node = child
    return node, len(path)


def _graft_agrees(shared, grown, copied):
    """True iff the grafted X0 is the one ``apply_equations`` builds: no
    node is shared through two variables, no child node X0 holds a copy
    of is also shared, no missing path stops inside a subgraph its own
    variable shares or at a copied node, and no missing path extends
    another one stopping at the same node."""
    # node id -> index of the variable sharing it, 0 for a copied node
    owner = dict.fromkeys(copied, 0)
    for index, nodes in shared.items():
        stack = list(nodes)
        while stack:
            node = stack.pop()
            held = owner.get(id(node))
            if held is None:
                owner[id(node)] = index
                stack.extend(node.features.values())
            elif held != index:
                return False
    for index, stop, steps in grown:
        if owner.get(stop) in (index, 0):
            return False
        for k in range(1, len(steps)):
            if (index, stop, steps[:k]) in grown:
                return False
    return True

