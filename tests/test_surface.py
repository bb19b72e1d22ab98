"""Every function, class and method in ``src/hybridmt`` has a caller.

A definition counts as used when its name is read somewhere in
``src/hybridmt`` or ``bench/*.py`` outside its own body, as a name or
an attribute, or when a benchmark script names it in a string (the
tracer wraps functions by name).  ``__all__`` entries and imports are
not uses.  Dunder methods are left out: the language calls them.  A
definition that only tests call stays only when ``KEPT`` says why.

The match is by name alone, so a method whose name some other used
method shares (``validate``, ``parse``) always counts as used.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hybridmt")

# name -> why it stays although no product or benchmark code calls it
KEPT = {
    "enumerate_trees": "tests check the packed forest against the trees it encodes",
    "isomorphic": "tests compare meaning graphs up to instance ids",
    "unify": "tests check graft and the equation solver against plain unification",
    "parse_featstruct": "tests build feature structures from text",
    "validate_rulebase": "tests check the shipped resources cover each other",
    "from_word": "tests build one-word lattices",
    "concat": "tests build lattices pairwise, the reference for concat_all",
    "alternate": "tests build lattices pairwise, the reference for alternate_all",
    "topological_order": "the reference decoder in tests orders its own lattice",
    "prob_unigram": "tests check the Katz backoff one order at a time",
    "prob_bigram": "tests check the Katz backoff one order at a time",
    "reserved_mass": "tests check that backed-off mass sums to one",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for module-level functions and classes and for
    the methods of module-level classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    defs.append((item.name, item))
    return defs


def _references(tree, strings):
    """(name, line) for every name and attribute read, plus every
    identifier-like string constant when ``strings`` is set.  The
    strings listed in ``__all__`` are skipped."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(id(c) for c in ast.walk(node.value))
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            refs.append((node.value, node.lineno))
    return refs


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def unreferenced(src=SRC, bench=os.path.join(ROOT, "bench")):
    """``module.name`` of each definition that nothing outside its own
    body refers to."""
    modules = {p: _parse(p) for p in sorted(glob.glob(os.path.join(src, "*.py")))}
    refs = []  # (name, path, line)
    for path, tree in modules.items():
        refs += [(n, path, line) for n, line in _references(tree, strings=False)]
    for path in sorted(glob.glob(os.path.join(bench, "*.py"))):
        refs += [(n, path, line) for n, line in _references(_parse(path), strings=True)]
    found = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            used = any(
                n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                for n, p, line in refs
            )
            if not used:
                module = os.path.splitext(os.path.basename(path))[0]
                found.append("%s.%s" % (module, name))
    return found


def test_every_definition_has_a_caller_or_a_reason():
    unused = unreferenced()
    extra = [q for q in unused if q.split(".")[1] not in KEPT]
    assert not extra, "no caller outside tests: " + ", ".join(extra)
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(q.split(".")[1] for q in unused) == sorted(KEPT)
