"""Maps out of a wedge of copies go through ``WedgeResult.map_out``.

``WedgeResult.part_of`` says which copy a wedge cell lies in.  Outside
``sset.py`` it is read only where a cell's coordinates are named:
``FreeOrbitSpace.cell_coords`` and ``TensorSequence.summand_of``.  The
tensor's own bookkeeping, ``wedges`` and ``part_index``, is read inside
``symseq.py`` only; other modules reach a summand through ``inclusion``
and ``summand_of``.  So no module but ``sset.py`` builds a map out of a
wedge cell by cell, and a new wedge encoding changes ``sset.py`` and the
two readers.
"""

import ast

import pytest

from encoding_scan import MODULES, parse, uses

PART_OF_READERS = {
    ("equivariant.py", "FreeOrbitSpace.cell_coords"),
    ("symseq.py", "TensorSequence.summand_of"),
}

TENSOR_OWNER = "symseq.py"


def scopes(module, name):
    return {(module, scope) for _, scope in uses(parse(module), name)}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "sset.py"])
def test_part_of_is_read_only_by_the_coordinate_readers(module):
    assert scopes(module, "part_of") <= PART_OF_READERS


@pytest.mark.parametrize("name", ["wedges", "part_index"])
@pytest.mark.parametrize("module", [m for m in MODULES if m != TENSOR_OWNER])
def test_tensor_wedges_are_read_only_in_symseq(module, name):
    assert scopes(module, name) == set()


def test_the_scan_finds_the_allowed_readers():
    found = scopes("equivariant.py", "part_of") | scopes("symseq.py", "part_of")
    assert found == PART_OF_READERS
    assert scopes("sset.py", "part_of")
    assert scopes(TENSOR_OWNER, "wedges") and scopes(TENSOR_OWNER, "part_index")


def test_the_scan_names_the_scope_of_each_use():
    tree = ast.parse(
        "class W:\n"
        "    def f(self, c):\n"
        "        return self.part_of[c]\n"
        "part_of = None\n"
        "def g(w):\n"
        "    return getattr(w, 'part_of')\n"
    )
    assert uses(tree, "part_of") == [(3, "W.f"), (4, ""), (6, "g")]
