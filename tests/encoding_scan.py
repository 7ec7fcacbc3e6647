"""An AST scan for the guard tests that keep an encoding inside its owner.

``uses`` lists where a module names an attribute, as an attribute, a
variable or a string, together with the dotted name of the classes and
functions around each use, so a guard can allow a name in one module, or
in a few named functions, and nowhere else.
"""

import ast
import os

import symspec

SRC = os.path.dirname(symspec.__file__)

MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def parse(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def uses(tree, name, owner=None):
    """Sorted (line, scope) of every node naming ``name``; the scope is ""
    at module level.  With ``owner``, only the attribute ``owner.name``
    counts, such as ``sset.descend`` for owner "sset"."""
    found = []

    def names(node):
        if owner is not None:
            return (
                isinstance(node, ast.Attribute)
                and node.attr == name
                and isinstance(node.value, ast.Name)
                and node.value.id == owner
            )
        return (
            (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Constant) and node.value == name)
        )

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if names(node):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)
