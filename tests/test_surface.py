"""Every function, class and method in ``src/hybridmt`` has a caller.

A definition counts as used when something in ``src/hybridmt`` or
``bench/*.py`` reads it outside its own body.  Writes and imports are
not reads, and dunder methods are left out: the language calls them.

A module-level function or class ``m.f`` is read by the name ``f`` in
``m`` itself or in a file that imports ``f`` from ``m``, and by the
attribute ``f`` of a name bound to module ``m``.

A method ``C.m`` is keyed by its class.  An attribute read ``r.m``
counts for ``C.m`` when its receiver ``r`` is ``self`` or ``cls``
inside ``C``, the class itself (``C`` or ``module.C``), a call of it
(``C(...)`` or ``C.ctor(...)``), or a local assigned only from one of
these.  A read through any other receiver counts only for a method
name that no other class in ``src/hybridmt`` defines and that the
builtin ``dict``, ``list``, ``set``, ``str`` and ``tuple`` do not
define, so ``entries.get(...)`` never keeps ``FeatStruct.get``.

A benchmark script may also name a definition in a string (the tracer
wraps functions by name): such a string reads every module-level
definition of that name and, under the rule for other receivers, a
method.  A definition that only tests call stays only when ``KEPT``
says why.
"""

import ast
import glob
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hybridmt")

# qualified name -> why it stays although no product or benchmark code reads it
KEPT = {
    "featstruct.unify": "tests check graft and the equation solver against plain unification",
    "featstruct.FeatStruct.get": "tests read a value by feature path",
    "chunker.CompoundDictionary.setdefault": "dict.setdefault would skip the longest surface",
    "chunker.match_pattern": "tests query one start; `chunk` reads every start from `match_table`",
    "lattice_lm.TrigramModel.prob_unigram": "tests check the Katz backoff one order at a time",
    "lattice_lm.TrigramModel.prob_bigram": "tests check the Katz backoff one order at a time",
    "lattice_lm.TrigramModel.reserved_mass": "tests check that backed-off mass sums to one",
}

BUILTIN_METHODS = set().union(*map(dir, (dict, list, set, str, tuple)))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name without the module, node) for module-level
    functions and classes and for the methods of module-level classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    defs.append(("%s.%s" % (node.name, item.name), item))
    return defs


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _imports(tree, modules):
    """(module aliases: local name -> package module, imported names:
    local name -> (package module, name))."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for a in node.names:
                if source in modules:
                    names[a.asname or a.name] = (source, a.name)
                elif a.name in modules:
                    aliases[a.asname or a.name] = a.name
    return aliases, names


def _bindings(scope):
    """Local name -> the expressions assigned to it in ``scope``; None
    stands for a binding that is not a plain assignment."""
    bound = {}
    if not isinstance(scope, ast.Module):
        for arg in ast.walk(scope.args):
            if isinstance(arg, ast.arg):
                bound.setdefault(arg.arg, []).append(None)
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, []).append(node.value)
                else:
                    todo.append(target)
            todo.append(node.value)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, []).append(None)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound


class _Reads(ast.NodeVisitor):
    """The keys every read in one file counts for: ``(module, name)``
    for a module-level definition, ``(class, method)`` for a method."""

    def __init__(self, index, module, tree, strings):
        self.index = index
        self.module = module
        self.aliases, self.names = _imports(tree, index.modules)
        self.strings = strings
        self.scopes = [_bindings(tree)]
        self.classes = []
        self.reads = []  # (key, line)

    def _scoped(self, node, bindings):
        self.scopes.append(bindings)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        self._scoped(node, _bindings(node))

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self._scoped(node, {})
        self.classes.pop()

    def _bound(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _module_of(self, expr):
        if isinstance(expr, ast.Name) and self._bound(expr.id) is None:
            return self.aliases.get(expr.id)
        return None

    def _class_ref(self, expr):
        """The class that ``expr`` names: ``C`` or ``module.C``."""
        if isinstance(expr, ast.Name) and self._bound(expr.id) is None:
            if expr.id in self.index.methods:
                return expr.id
        elif isinstance(expr, ast.Attribute):
            module = self._module_of(expr.value)
            if module is not None and expr.attr in self.index.methods:
                return expr.attr
        return None

    def _class_of(self, expr, seen=()):
        """The class whose method an attribute of ``expr`` is, or None."""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and self._class_ref(func.value):
                return self._class_ref(func.value)
            return self._class_ref(func)
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.classes:
                return self.classes[-1] if self.classes[-1] in self.index.methods else None
            values = self._bound(expr.id)
            if values is not None:
                if expr.id in seen or None in values:
                    return None
                found = {self._class_of(v, seen + (expr.id,)) for v in values}
                return found.pop() if len(found) == 1 else None
        return self._class_ref(expr)

    def _read_method(self, name, line, cls=None):
        if cls is not None and name in self.index.methods[cls]:
            self.reads.append(((cls, name), line))
            return
        owners = self.index.owners.get(name, ())
        if len(owners) == 1 and name not in BUILTIN_METHODS:
            self.reads.append(((owners[0], name), line))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            if node.id in self.names:
                self.reads.append((self.names[node.id], node.lineno))
            elif self.module is not None:
                self.reads.append(((self.module, node.id), node.lineno))

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load):
            return
        module = self._module_of(node.value)
        if module is not None:
            self.reads.append(((module, node.attr), node.lineno))
        else:
            self._read_method(node.attr, node.lineno, self._class_of(node.value))

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str) and node.value.isidentifier():
            for module in self.index.modules:
                self.reads.append(((module, node.value), node.lineno))
            self._read_method(node.value, node.lineno)


class _Index:
    """The package's modules, and the methods of each of its classes."""

    def __init__(self, trees):
        self.trees = trees
        self.modules = set(trees)
        self.methods = {}  # class -> {method}
        self.owners = {}  # method -> [class]
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                    self.methods[node.name] = names
                    for name in names:
                        self.owners.setdefault(name, []).append(node.name)


def unreferenced(src=SRC, bench=os.path.join(ROOT, "bench")):
    """``module.name`` or ``module.Class.method`` of each definition that
    nothing outside its own body reads."""
    paths = {
        os.path.splitext(os.path.basename(p))[0]: p
        for p in sorted(glob.glob(os.path.join(src, "*.py")))
    }
    index = _Index({module: _parse(path) for module, path in paths.items()})
    reads = {}  # key -> [(path, line)]
    files = [(p, index.trees[m], m, False) for m, p in paths.items()]
    files += [(p, _parse(p), None, True) for p in sorted(glob.glob(os.path.join(bench, "*.py")))]
    for path, tree, module, strings in files:
        visitor = _Reads(index, module, tree, strings)
        visitor.visit(tree)
        for key, line in visitor.reads:
            reads.setdefault(key, []).append((path, line))
    found = []
    for module, tree in index.trees.items():
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            key = (owner, name) if owner else (module, name)
            if not any(
                not (p == paths[module] and node.lineno <= line <= node.end_lineno)
                for p, line in reads.get(key, ())
            ):
                found.append("%s.%s" % (module, qualname))
    return found


def test_every_definition_has_a_caller_or_a_reason():
    unused = unreferenced()
    extra = [q for q in unused if q not in KEPT]
    assert not extra, "no caller outside tests: " + ", ".join(extra)
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(unused) == sorted(KEPT)


def _package(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(root / "pkg"), str(root / "bench")


def test_scan_keys_methods_by_class_and_functions_by_module(tmp_path):
    src, bench = _package(tmp_path, {
        "pkg/store.py": """
            class Store:
                def get(self, key):
                    return key

                def keys(self):
                    return []

                def size(self):
                    return len(self.keys())


            class Table:
                def get(self, key):
                    return key


            def get(key):
                return key


            def load():
                return Table()
        """,
        "pkg/use.py": """
            from . import store
            from .store import load


            def run(entries):
                fresh = store.Table()
                return entries.get(1), load().get(2), fresh.get(3), store.Store.size
        """,
        "bench/run.py": """
            from pkg import use

            use.run({})
        """,
    })
    # ``entries.get`` and ``load().get`` name no class, so they read
    # neither ``get`` method nor the function ``store.get``; ``fresh``
    # holds a ``Table``, and ``keys``, a dict method name too, is read
    # through ``self``
    assert unreferenced(src, bench) == ["store.Store.get", "store.get"]
