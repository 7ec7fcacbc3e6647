"""The smash product is the only owner of its pair encoding.

``SmashResult.pair_rep`` is read inside ``sset.py`` only.  Every other
module reaches the coordinate pairs through ``split``, ``form_of_pair``,
``map_out`` and the two vertex slices, so a new pair encoding changes
``sset.py`` and nothing else.
"""

import ast

import pytest

from encoding_scan import MODULES, parse, uses

OWNER = "sset.py"

OTHER_MODULES = [name for name in MODULES if name != OWNER]


def pair_rep_lines(tree):
    """Lines naming pair_rep: as an attribute, a variable or a string."""
    return [line for line, _ in uses(tree, "pair_rep")]


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


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_module_does_not_name_joint_pairs(module):
    # the jointly nondegenerate pairs reach other modules as smash cells,
    # or as their coordinate pairs through sset.smash_pairs
    assert uses(parse(module), "_joint_pairs") == []
    assert uses(parse(OWNER), "_joint_pairs")
