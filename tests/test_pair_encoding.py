"""The smash product is the only owner of its pair encoding.

``SmashResult.pair_rep`` is read inside ``sset.py`` only.  Every other
module reaches the coordinate pairs through ``split``, ``form_of_pair``,
``map_out`` and the two vertex slices, so a new pair encoding changes
``sset.py`` and nothing else.
"""

import ast
import os

import pytest

import symspec

SRC = os.path.dirname(symspec.__file__)

OWNER = "sset.py"

OTHER_MODULES = sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != OWNER
)


def parse(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def pair_rep_lines(tree):
    """Lines naming pair_rep: as an attribute, a variable or a string."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "pair_rep")
        or (isinstance(node, ast.Name) and node.id == "pair_rep")
        or (isinstance(node, ast.Constant) and node.value == "pair_rep")
    )


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_module_does_not_name_pair_rep(module):
    assert pair_rep_lines(parse(module)) == []


def test_the_scan_covers_the_package():
    assert {"spectra.py", "symseq.py", "equivariant.py", "jsonio.py"} <= set(OTHER_MODULES)
    assert pair_rep_lines(parse(OWNER))


def test_the_scan_sees_pair_rep():
    tree = ast.parse(
        "def f(sm, c):\n"
        "    a = sm.pair_rep[c]\n"
        "    pair_rep = a\n"
        "    return getattr(sm, 'pair_rep')\n"
    )
    assert pair_rep_lines(tree) == [2, 3, 4]
