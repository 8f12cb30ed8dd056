"""Every optional parameter has a caller.

An optional parameter of a ``src/`` def must be passed by some call in
``src/``, the tests, the benchmarks, the ledger or the examples: by
keyword, by position, or through ``*``/``**``.  Tests count as callers,
because a value a test sets is configuration that something exercises;
a default nothing overrides is a constant, and belongs in the body.

Calls are matched to defs by name, so a call ``x.run(...)`` counts for
every def named ``run``, and ``Name(...)`` for the ``__init__`` that
class ``Name`` resolves to.  A ``super().method(...)`` call counts only
for the enclosing class's parents.  Dunder protocol methods other than
``__init__`` are called by Python, not by name, and are skipped; so are
defs local to a function body, which only that function reaches and
whose defaults bind a value at definition time.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "tests", "benchmarks", "ledger", "examples")

#: ``(path under src/repro, qualified name, parameter)`` kept without a
#: caller that passes them.
ALLOWED = {
    # Addresses are deployment settings, kept configurable though every
    # caller takes the default.
    ("core/session.py", "CoBrowsingSession.fanout_tree", "relay_port"),
    ("core/shard.py", "AgentPool.__init__", "relay_port"),
    ("core/shard.py", "AgentPool.__init__", "segment"),
    ("webserver/server.py", "OriginServer.__init__", "port"),
    ("webserver/mapservice.py", "MapService.__init__", "host_name"),
    ("webserver/shop.py", "ShopService.__init__", "host_name"),
    ("webserver/mapservice.py", "MapPageDriver.__init__", "origin"),
    # Exists only so ledger/layers.py can wrap it by name; its cache
    # argument mirrors serialize_node_cached's.
    ("html/serializer.py", "serialize_children_cached", "cache"),
}


def _parse(top):
    for directory, _dirs, files in os.walk(os.path.join(REPO, top)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), path)


def _base_names(node):
    return [
        base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        for base in node.bases
    ]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__") and name != "__init__"


class _Def:
    """One def: its optional parameters and which of them a call passes."""

    def __init__(self, where, qualname, node, is_method):
        self.where = where
        self.qualname = qualname
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        self.positional = [arg.arg for arg in positional][1 if is_method and not static else 0 :]
        self.optional = [arg.arg for arg in positional[len(positional) - len(args.defaults) :]]
        self.optional += [
            arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        self.passed = set()

    def mark(self, call):
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self.passed.update(self.positional[index:])
                break
            if index < len(self.positional):
                self.passed.add(self.positional[index])
        for keyword in call.keywords:
            if keyword.arg is None:
                self.passed.update(self.optional)
            else:
                self.passed.add(keyword.arg)


class _Class:
    def __init__(self, node):
        self.bases = _base_names(node)
        self.methods = {}


class _Surface:
    """Every def in ``src/`` and the class table calls resolve through."""

    def __init__(self):
        self.defs = []
        self.by_name = {}
        self.by_node = {}
        self.classes = {}
        self.trees = [(top, path, tree) for top in CALLER_DIRS for path, tree in _parse(top)]
        for top, path, tree in self.trees:
            where = os.path.relpath(path, os.path.join(REPO, "src", "repro"))
            self._collect(tree, top == "src", where, None, "")

    def _collect(self, node, checked, where, klass, prefix):
        """Record every class, and each def ``checked`` says to check."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                record = _Class(child)
                self.classes.setdefault(child.name, []).append(record)
                self._collect(child, checked, where, record, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if klass is not None:
                    klass.methods[child.name] = child
                if checked and not _is_dunder(child.name):
                    record = _Def(where, prefix + child.name, child, klass is not None)
                    self.defs.append(record)
                    self.by_name.setdefault(child.name, []).append(record)
                    self.by_node[child] = record
                # What a function body defines is local to it.
                self._collect(child, False, where, None, "")
            else:
                self._collect(child, checked, where, klass, prefix)

    def _resolve(self, class_names, method, seen=()):
        """The first ``method`` def on each named class's MRO."""
        found = []
        for name in class_names:
            if name in seen:
                continue
            for record in self.classes.get(name, []):
                node = record.methods.get(method)
                if node is None:
                    found.extend(self._resolve(record.bases, method, seen + (name,))[:1])
                elif node in self.by_node:
                    found.append(self.by_node[node])
        return found

    def _targets(self, call, enclosing_bases):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            return self._resolve(enclosing_bases, func.attr)
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return []
        by_name = self.by_name.get(name, []) if name != "__init__" else []
        return by_name + self._resolve([name], "__init__")

    def mark_calls(self):
        for _top, _path, tree in self.trees:
            self._mark(tree, [])

    def _mark(self, node, enclosing_bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                for target in self._targets(child, enclosing_bases):
                    target.mark(child)
            inner = _base_names(child) if isinstance(child, ast.ClassDef) else enclosing_bases
            self._mark(child, inner)

    def unpassed(self):
        return {
            (record.where, record.qualname, parameter)
            for record in self.defs
            for parameter in record.optional
            if parameter not in record.passed
        }


def test_every_optional_parameter_has_a_caller():
    surface = _Surface()
    surface.mark_calls()
    unpassed = surface.unpassed()
    assert sorted("%s: %s(%s=)" % key for key in unpassed - ALLOWED) == []
    # No allow-list entry outlives its reason.
    assert sorted("%s: %s(%s=)" % key for key in ALLOWED - unpassed) == []
