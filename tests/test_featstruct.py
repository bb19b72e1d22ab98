"""Unification algebra tests, including the disjunct-expansion oracle."""

import itertools
import random

import pytest

from hybridmt.featstruct import (
    EquationSet,
    FeatStruct,
    UnboundVariableError,
    apply_equations,
    canonical,
    graft_plan,
    parse_equation,
    parse_equations,
    subsumes,
    unify,
)
from hybridmt.sexpr import parse_all

from oracles import parse_featstruct

EMPTY = FeatStruct.empty()


# ---------------------------------------------------------------------
# Random structures and the ground-expansion oracle
# ---------------------------------------------------------------------

FEATS = "abcdefgh"
ATOMS = ["v1", "v2", "v3", "v4", "v5"]


def random_fs(rng, depth=0, max_depth=4):
    roll = rng.random()
    if depth >= max_depth or roll < 0.25 + 0.15 * depth:
        if rng.random() < 0.3:
            k = rng.randint(2, 3)
            return FeatStruct.disjunction(rng.sample(ATOMS, k))
        return FeatStruct.atom(rng.choice(ATOMS))
    nfeats = rng.randint(1, 3)
    feats = {}
    for feat in rng.sample(FEATS, nfeats):
        feats[feat] = random_fs(rng, depth + 1, max_depth)
    return FeatStruct.complex(feats)


def expand(fs):
    """All disjunction-free ground instances, as hashable trees."""
    if fs.is_atomic:
        return [("atom", a) for a in sorted(fs.allowed)]
    if fs.is_complex:
        names = sorted(fs.features)
        choices = [expand(fs.features[f]) for f in names]
        return [
            ("fs", tuple(zip(names, combo)))
            for combo in itertools.product(*choices)
        ]
    return [("empty",)]


def ground_unify(x, y):
    """Textbook unification of disjunction-free ground trees."""
    if x == ("empty",):
        return y
    if y == ("empty",):
        return x
    if x[0] == "atom" or y[0] == "atom":
        return x if x == y else None
    fx, fy = dict(x[1]), dict(y[1])
    merged = {}
    for feat in set(fx) | set(fy):
        if feat in fx and feat in fy:
            sub = ground_unify(fx[feat], fy[feat])
            if sub is None:
                return None
            merged[feat] = sub
        else:
            merged[feat] = fx.get(feat, fy.get(feat))
    return ("fs", tuple(sorted(merged.items())))


def oracle_set(a, b):
    out = set()
    for ga in expand(a):
        for gb in expand(b):
            g = ground_unify(ga, gb)
            if g is not None:
                out.add(g)
    return out


def test_unify_identity_element():
    f = parse_featstruct("((syn ((infl ta-form) (comp plus))))")
    assert unify(EMPTY, f) == f
    assert unify(f, EMPTY) == f


def test_unify_disjunction_intersection():
    a = parse_featstruct("((infl ta-form))")
    b = parse_featstruct("((infl (*OR* kihon ta-form rentai)))")
    assert unify(a, b) == a


def test_unify_distinct_atoms_fail():
    assert unify(parse_featstruct("((a x))"), parse_featstruct("((a y))")) is None


def test_unify_atom_vs_structure_fails():
    assert unify(parse_featstruct("((a x))"), parse_featstruct("((a ((b y))))")) is None


def test_unify_negation():
    neg = parse_featstruct("((form (*NOT* rentaidome)))")
    assert unify(neg, parse_featstruct("((form rentaidome))")) is None
    ok = unify(neg, parse_featstruct("((form kihon))"))
    assert ok.get(("form",)).atom_value == "kihon"


def test_negative_residue_survives_until_specialized():
    neg = parse_featstruct("((form (*NOT* rentaidome)))")
    other = parse_featstruct("((mood plain))")
    merged = unify(neg, other)
    assert merged is not None
    assert unify(merged, parse_featstruct("((form rentaidome))")) is None


def test_unify_preserves_reentrancy():
    a = parse_featstruct("((subj #1=((num sg))) (obj #1#))")
    b = parse_featstruct("((subj ((per 3))))")
    out = unify(a, b)
    # the constraint flows through the shared node to the other path
    assert out.get(("obj", "per")).atom_value == "3"
    assert out.get(("subj",)) is out.get(("obj",))


def test_empty_values_are_not_shared():
    # each () is its own node: unifying one must leave the other empty
    fs = parse_featstruct("((f ()) (g ()))")
    assert canonical(fs) == "((f ()) (g ()))"
    out = unify(fs, parse_featstruct("((f v1))"))
    assert out.get(("f",)).atom_value == "v1"
    assert out.get(("g",)) == EMPTY
    assert canonical(out) == "((f v1) (g ()))"


def test_canonical_text_of_a_shared_atom_parses_back():
    fs = parse_featstruct("((a #1= v1) (b #1#))")
    assert canonical(fs) == "((a #1=v1) (b #1#))"
    again = parse_featstruct(canonical(fs))
    assert canonical(again) == canonical(fs)
    assert again.get(("a",)) is again.get(("b",))


def test_complex_gives_each_empty_value_its_own_node():
    # FeatStruct.empty() is one shared node; complex must not alias it
    fs = FeatStruct.complex({"f": FeatStruct.empty(), "g": FeatStruct.empty()})
    assert canonical(fs) == "((f ()) (g ()))"
    out = unify(fs, parse_featstruct("((f v1))"))
    assert canonical(out) == "((f v1) (g ()))"
    assert FeatStruct.empty() is FeatStruct.empty()


def test_unify_does_not_mutate_inputs():
    a = parse_featstruct("((x ((y q))))")
    b = parse_featstruct("((x ((z r))) (w s))")
    ca, cb = canonical(a), canonical(b)
    unify(a, b)
    assert canonical(a) == ca and canonical(b) == cb


def test_unify_oracle_1000_random_pairs():
    rng = random.Random(20260823)
    for _ in range(1000):
        a = random_fs(rng)
        b = random_fs(rng)
        result = unify(a, b)
        expected = oracle_set(a, b)
        if result is None:
            assert expected == set()
        else:
            assert set(expand(result)) == expected


def test_unify_algebraic_properties():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = random_fs(rng), random_fs(rng), random_fs(rng)
        assert unify(a, a) == a
        ab, ba = unify(a, b), unify(b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba
        left = unify(a, b)
        left = unify(left, c) if left is not None else None
        right = unify(b, c)
        right = unify(a, right) if right is not None else None
        assert (left is None) == (right is None)
        if left is not None:
            assert left == right


# ---------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------

def test_subsumes_trivial():
    f = parse_featstruct("((a x) (b ((c y))))")
    assert subsumes(EMPTY, f)
    assert subsumes(f, f)
    assert not subsumes(f, EMPTY)


def test_subsumes_reentrancy():
    shared = parse_featstruct("((p #1=((n s))) (q #1#))")
    unshared = parse_featstruct("((p ((n s))) (q ((n s))))")
    assert subsumes(unshared, shared)
    assert not subsumes(shared, unshared)


def test_subsumes_agrees_with_unification():
    rng = random.Random(99)
    for _ in range(500):
        a, b = random_fs(rng), random_fs(rng)
        via_unify = unify(a, b) == b
        assert subsumes(a, b) == via_unify


# ---------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------

# as printed, with its paren typo corrected (op3 is a sister of op1/op2
# under gloss; the printed form closes the gloss list one paren early and
# carries one extra trailing paren)
GLOSS_SAMPLE = """
((gloss ((op1 "John")
         (op2 ((op1 (*or* "wants" "want"))
              (op2 ((op1 "to")
                   (op2 "eat")))))
        (op3 "now"))))
"""


def test_gloss_sample_parses():
    fs = parse_featstruct(GLOSS_SAMPLE)
    assert fs.get(("gloss", "op1")).atom_value == "John"
    assert fs.get(("gloss", "op2", "op1")).allowed == frozenset(["wants", "want"])
    assert fs.get(("gloss", "op2", "op2", "op1")).atom_value == "to"
    assert fs.get(("gloss", "op2", "op2", "op2")).atom_value == "eat"
    assert fs.get(("gloss", "op3")).atom_value == "now"


def test_serialize_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        fs = random_fs(rng)
        assert parse_featstruct(canonical(fs)) == fs


def test_roundtrip_with_reentrancy_tags():
    fs = parse_featstruct("((subj #1=((num sg) (per 3))) (obj #1#) (x y))")
    again = parse_featstruct(canonical(fs))
    assert again == fs
    assert again.get(("subj",)) is again.get(("obj",))


def test_pipe_atoms():
    fs = parse_featstruct("((instance |have as a goal|))")
    assert fs.get(("instance",)).atom_value == "have as a goal"
    assert parse_featstruct(canonical(fs)) == fs


# ---------------------------------------------------------------------
# Equations
# ---------------------------------------------------------------------

NP_RULE_EQS = """
((X1 syn infl) = (*OR* kihon ta-form rentai))
((X0 syn) = (X2 syn))
((X0 syn comp) = plus)
((X0 syn s-mod) = (X1 syn))
"""


def eqs_from(text):
    return parse_equations(parse_all(text))


def test_paper_np_rule_application():
    eqs = eqs_from(NP_RULE_EQS)
    bindings = {
        "X0": EMPTY,
        "X1": parse_featstruct("((syn ((infl ta-form))))"),
        "X2": parse_featstruct("((syn ((head noun))))"),
    }
    sols = apply_equations(bindings, eqs)
    assert len(sols) == 1
    x0 = sols[0]["X0"]
    assert x0.get(("syn", "head")).atom_value == "noun"
    assert x0.get(("syn", "comp")).atom_value == "plus"
    assert x0.get(("syn", "s-mod", "infl")).atom_value == "ta-form"


def test_paper_np_rule_infl_mismatch_fails():
    eqs = eqs_from(NP_RULE_EQS)
    bindings = {
        "X0": EMPTY,
        "X1": parse_featstruct("((syn ((infl meirei))))"),
        "X2": parse_featstruct("((syn ((head noun))))"),
    }
    assert apply_equations(bindings, eqs) == []


def test_empty_equation_list_vacuous():
    bindings = {"X0": EMPTY, "X1": parse_featstruct("((a b))")}
    sols = apply_equations(bindings, [])
    assert len(sols) == 1
    assert sols[0]["X1"] == bindings["X1"]


def test_unbound_variable_is_an_error():
    with pytest.raises(UnboundVariableError):
        apply_equations({"X0": EMPTY}, eqs_from("((X0 a) = (X7 b))"))


def test_or_block_multiplies_solutions():
    block = eqs_from("(*OR* (((X0 v) = p)) (((X0 v) = q)) (((X0 v) = r)))")
    sols = apply_equations({"X0": EMPTY}, block)
    got = {s["X0"].get(("v",)).atom_value for s in sols}
    assert got == {"p", "q", "r"}
    # block-expansion oracle: same solutions as three separate rule copies
    separate = set()
    for alt in ("p", "q", "r"):
        for s in apply_equations({"X0": EMPTY}, eqs_from("((X0 v) = %s)" % alt)):
            separate.add(canonical(s["X0"]))
    assert {canonical(s["X0"]) for s in sols} == separate


def test_or_block_drops_failing_groups():
    eqs = eqs_from("((X0 v) = p) (*OR* (((X0 v) = p)) (((X0 v) = q)))")
    sols = apply_equations({"X0": EMPTY}, eqs)
    assert len(sols) == 1


def test_or_groups_differing_only_in_x1_keep_both_solutions():
    # X0 is the same in both solutions; the dedup key is the whole root
    eqs = eqs_from("((X0 v) = p) (*OR* (((X1 w) = a)) (((X1 w) = b)))")
    sols = apply_equations({"X0": EMPTY, "X1": EMPTY}, eqs)
    assert [canonical(s["X1"]) for s in sols] == ["((w a))", "((w b))"]
    assert [canonical(s["X0"]) for s in sols] == ["((v p))", "((v p))"]


def test_solutions_deduplicated_and_capped():
    eqs = eqs_from("(*OR* (((X0 v) = p)) (((X0 v) = p)))")
    assert len(apply_equations({"X0": EMPTY}, eqs)) == 1
    big = eqs_from(
        "(*OR* %s)" % " ".join("(((X0 v) = a%d))" % i for i in range(100))
    )
    assert len(apply_equations({"X0": EMPTY}, big, solution_cap=10)) == 10


def test_xor_exactly_one_group():
    one_sat = eqs_from(
        "((X0 v) = p) (*XOR* (((X0 v) = p)) (((X0 v) = q)))"
    )
    assert len(apply_equations({"X0": EMPTY}, one_sat)) == 1
    both_sat = eqs_from("(*XOR* (((X0 v) = p)) (((X0 w) = q)))")
    assert apply_equations({"X0": EMPTY}, both_sat) == []
    none_sat = eqs_from(
        "((X0 v) = p) (*XOR* (((X0 v) = q)) (((X0 v) = r)))"
    )
    assert apply_equations({"X0": EMPTY}, none_sat) == []


def test_xor_randomized_k_groups():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(0, 3)
        groups, sat = [], 0
        for i in range(3):
            if sat < k and rng.random() < 0.6 or k - sat >= 3 - i:
                groups.append("(((X0 g%d) = yes))" % i)
                sat += 1
            else:
                groups.append("(((X0 blocked) = other%d))" % i)
        eqs = eqs_from("((X0 blocked) = fixed) (*XOR* %s)" % " ".join(groups))
        sols = apply_equations({"X0": EMPTY}, eqs)
        assert bool(sols) == (sat == 1)


def test_apply_equations_does_not_mutate_bindings():
    x1 = parse_featstruct("((syn ((infl ta-form))))")
    before = canonical(x1)
    apply_equations({"X0": EMPTY, "X1": x1}, eqs_from("((X0 syn) = (X1 syn))"))
    assert canonical(x1) == before


def test_negation_equation_in_rule():
    eqs = eqs_from("((X2 syn form) = (*NOT* rentaidome))")
    bad = {"X2": parse_featstruct("((syn ((form rentaidome))))")}
    good = {"X2": parse_featstruct("((syn ((form kihon))))")}
    assert apply_equations(bad, eqs) == []
    assert len(apply_equations(good, eqs)) == 1


def test_shared_paths_specialize_together():
    eqs = eqs_from("((X0 syn) = (X2 syn)) ((X0 syn comp) = plus)")
    sols = apply_equations(
        {"X0": EMPTY, "X2": parse_featstruct("((syn ((head n))))")}, eqs
    )
    assert sols[0]["X2"].get(("syn", "comp")).atom_value == "plus"
    assert sols[0]["X0"].get(("syn",)) is sols[0]["X2"].get(("syn",))


# ---------------------------------------------------------------------
# Test-only equations
# ---------------------------------------------------------------------

def test_evaluate_negation():
    test = parse_equation(parse_all("((X2 syn form) = (*NOT* rentaidome))")[0])
    assert not apply_equations(
        {"X2": parse_featstruct("((syn ((form rentaidome))))")}, [test]
    )
    assert apply_equations({"X2": parse_featstruct("((syn ((form kihon))))")}, [test])
    assert apply_equations({"X2": parse_featstruct("((syn ()))")}, [test])


def test_evaluate_test_needs_every_variable_bound():
    # a test is solved like any equation, so an unbound variable is an error
    test = parse_equation(parse_all("((X2 syn form) = (*NOT* rentaidome))")[0])
    with pytest.raises(UnboundVariableError):
        apply_equations({"X1": parse_featstruct("((syn ()))")}, [test])


def test_evaluate_existence():
    test = parse_equation(parse_all("(is (X1 syn head))")[0])
    assert apply_equations({"X1": parse_featstruct("((syn ((head noun))))")}, [test])
    assert not apply_equations({"X1": parse_featstruct("((syn ((infl x))))")}, [test])


def test_constraint_equation():
    # ((X1 map subject-role) =c X2) passes iff subject-role is already
    # filled and compatible
    test = parse_equation(parse_all("((X1 map subject-role) =c X2)")[0])
    filled = parse_featstruct("((map ((subject-role ((sem ((instance person))))))))")
    compatible = parse_featstruct("((sem ((instance person))))")
    incompatible = parse_featstruct("((sem ((instance rock))))")
    richer = parse_featstruct("((sem ((instance person))) (extra yes))")
    assert apply_equations({"X1": filled, "X2": compatible}, [test])
    assert not apply_equations({"X1": filled, "X2": incompatible}, [test])
    # compatible but would add structure: fails
    assert not apply_equations({"X1": filled, "X2": richer}, [test])
    unfilled = parse_featstruct("((map ()))")
    assert not apply_equations({"X1": unfilled, "X2": compatible}, [test])


def test_constraint_node_count_oracle():
    # =c never changes the bound structures: node counts are identical
    # before and after
    def node_count(fs, seen=None):
        if seen is None:
            seen = set()
        if id(fs) in seen:
            return 0
        seen.add(id(fs))
        return 1 + sum(node_count(c, seen) for c in fs.features.values())

    test = parse_equation(parse_all("((X1 map subject-role) =c X2)")[0])
    x1 = parse_featstruct("((map ((subject-role ((a b))))))")
    x2 = parse_featstruct("((a b))")
    n1, n2 = node_count(x1), node_count(x2)
    assert apply_equations({"X1": x1, "X2": x2}, [test])
    assert node_count(x1) == n1 and node_count(x2) == n2


def test_constraint_runs_after_structure_building():
    # the =c appears before the equation that fills the slot; it must
    # still pass because check-only equations are evaluated last
    eqs = eqs_from("((X1 has it) =c X0) ((X1 has it) = ok) ((X0) = ok)")
    assert len(apply_equations({"X0": EMPTY, "X1": EMPTY}, eqs)) == 1
    # but if the slot is never filled, the deferred check fails
    eqs2 = eqs_from("((X1 has it) =c X0) ((X0) = ok)")
    assert apply_equations({"X0": EMPTY, "X1": EMPTY}, eqs2) == []


def test_constraint_on_cyclic_structure_fails_the_solution():
    # (X0) = (X0 a) makes X0 contain itself; the =c check must drop the
    # solution, as freezing it would, not raise an internal error
    eqs = eqs_from("((X0) = (X0 a)) ((X0) =c v1)")
    assert apply_equations({"X0": EMPTY, "X1": FeatStruct.atom("v1")}, eqs) == []
    assert apply_equations({"X0": EMPTY}, eqs_from("((X0) = (X0 a))")) == []


@pytest.mark.parametrize(
    "text",
    [
        "((X0 a) = (X1 b))",
        "((X0 a) = X1)",
        "((X0 a b) = (X2 c)) ((X0 a c) = v1) ((X0 d) = (*OR* v1 v2))",
        "((X0 a) = (X1 b)) ((X0 c) = (X1 b))",
        "((X0 a) = (X1 b)) ((X0 a b) = v1)",  # X0 extends a copy of X1's b
    ],
)
def test_sets_that_only_collect_child_values_are_graftable(text):
    assert graft_plan(parse_equations(parse_all(text))) is not None


@pytest.mark.parametrize(
    "text",
    [
        "((X0 a) = (X1 b)) ((X0 a) = (X2 b))",  # one left-hand path twice
        "((X0 a) = v1) ((X0 a b) = v2)",  # a prefix whose right side is a leaf
        "(X0 = X1)",  # no left-hand path
        "((X1 a) = (X2 a))",  # a left-hand side on a child
        "((X0 a) = (X0 b))",  # X0 on the right
        "((X0 a) = (X00 b))",  # X00 is not X0; the rule reader rejects it
        "((X0 a) = (*NOT* v1))",
        "((X0 a) = ((b v1)))",
        "((X0 a) =c v1)",
        "(IS (X1 a))",
        "(*OR* (((X0 a) = v1)) (((X0 a) = v2)))",
        "(*XOR* (((X0 a) = v1)) (((X0 a) = v2)))",
    ],
)
def test_sets_the_full_solver_must_solve_have_no_graft_plan(text):
    assert graft_plan(parse_equations(parse_all(text))) is None


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_an_empty_set_solves_to_one_empty_x0(arity):
    children = [parse_featstruct("((syn ((n sg))))")] * arity
    (x0,) = EquationSet([]).solve(children)
    assert x0 is FeatStruct.empty()


def test_accessors_of_a_built_structure():
    fs = parse_featstruct("((syn ((head noun) (num (*or* sg pl)))))")
    assert fs.get(("syn", "head")).atom_value == "noun"
    assert fs.get(("syn", "num")).atom_value is None
    assert fs.get(("syn", "case")) is None
    assert fs.get(("sem", "instance")) is None
    assert "syn" in fs and "sem" not in fs
    assert fs["syn"] is fs.get(("syn",))


def _reference_get(fs, path):
    """Reference for ``FeatStruct.get``: one feature lookup per step."""
    node = fs
    for feat in path:
        child = node.features.get(feat)
        if child is None:
            return None
        node = child
    return node


def random_path(rng, fs):
    """Up to five steps, mostly along features ``fs`` has, so a path
    may end inside it, at an atom, through an atom or at a missing
    feature; the empty path is included."""
    path, node = [], fs
    for _ in range(rng.randint(0, 5)):
        feats = sorted(node.features) if node is not None else []
        feat = rng.choice(feats) if feats and rng.random() < 0.8 else rng.choice(FEATS)
        path.append(feat)
        node = node.features.get(feat) if node is not None else None
    return tuple(path)


def test_get_finds_what_a_step_by_step_walk_finds():
    rng = random.Random(37)
    for _ in range(500):
        fs = random_fs(rng)
        for _ in range(8):
            path = random_path(rng, fs)
            assert fs.get(path) is _reference_get(fs, path), (canonical(fs), path)


def test_subsumption_of_a_negated_atom():
    not_pl = parse_featstruct("((num (*not* pl)))")
    assert subsumes(not_pl, parse_featstruct("((num sg))"))
    assert not subsumes(not_pl, parse_featstruct("((num pl))"))
    assert not subsumes(not_pl, parse_featstruct("((num ((x y))))"))
    assert subsumes(not_pl, parse_featstruct("((num (*not* pl du)))"))
    assert not subsumes(parse_featstruct("((num (*not* pl du)))"), not_pl)


def test_existence_test_through_an_atom_fails():
    test = parse_equation(parse_all("(is (X1 syn head))")[0])
    assert not apply_equations({"X1": parse_featstruct("((syn noun))")}, [test])
