"""Every exported name is reached by a program path.

A name in a ``src/`` module's ``__all__`` must be referenced from a
program file: ``src/`` itself, the benchmarks, the ledger or the
examples.  Tests do not count, so a definition whose only caller is its
own unit test fails here.  A reference is an AST name, attribute or
import, or a string that is exactly the identifier (the ledger wraps
serializers by name).  A module's ``__all__`` and the package
``__init__`` files, which only re-export, are not references.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_DIRS = ("src", "benchmarks", "ledger", "examples")

#: Exports kept without a program caller.
ALLOWED = {
    # The reference envelope builder the wire tests compare against.
    "build_envelope",
    # Paper §4.1.2's per-participant and content-type cache decisions.
    "PerParticipantCachePolicy",
    "ContentTypeCachePolicy",
    # Inverses the tests use to build their inputs.
    "element_reference",
    "parse_request_bytes",
    "parse_response_bytes",
}


def _modules():
    for top in PROGRAM_DIRS:
        for directory, _dirs, files in os.walk(os.path.join(REPO, top)):
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        yield top, path, ast.parse(handle.read(), path)


def _exports(tree):
    """The module's ``__all__`` node and its names, or (None, [])."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return node, [element.value for element in node.value.elts]
    return None, []


def _references(tree, skip):
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_export_has_a_program_reference():
    referenced = set()
    exports = {}
    for top, path, tree in _modules():
        all_node, names = _exports(tree)
        if top == "src" and names:
            exports[os.path.relpath(path, REPO)] = names
        referenced.update(_references(tree, set(ast.walk(all_node)) if all_node else set()))
    unreached = [
        "%s: %s" % (path, name)
        for path, names in sorted(exports.items())
        for name in names
        if name not in referenced and name not in ALLOWED
    ]
    assert unreached == []
    # No allow-list entry outlives its reason.
    exported = {name for names in exports.values() for name in names}
    assert ALLOWED <= exported - referenced
