"""``sset.smash`` reads each face of A ^ B off a partner table.

``test_face_rows.py`` pins the smash to ``oracle.smash_pair_loop`` byte for
byte.  Here: the order of ``sset.smash_pairs``, which
``SmashSpectrum.descend`` relies on; a base vertex whose id falls inside
the first run of cells; and the tables' common-degeneracy branch, which
the oracle comparison reaches only through pinched spaces.
"""

import random

from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import sset


def factor(r):
    """A corpus space, or now and then a pinched one, based at a random
    vertex."""
    if r.random() < 0.25:
        X = r.choice([corpus.pinched_triangle, corpus.pinched_tetrahedron])()
    else:
        X = corpus.random_space(r)
    return corpus.rebased(X, r.choice(X.cells[0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_smash_pairs_are_the_pairs_of_the_cells_in_cell_order(seed):
    r = random.Random(seed)
    A, B = factor(r), factor(r)
    sm = sset.smash(A, B)
    cells = [c for c in sm.space.cell_ids() if c != sm.space.basepoint]
    assert list(sset.smash_pairs(A, B)) == [sm.split(((), c)) for c in cells]


def test_the_base_vertex_inside_the_first_run():
    # A's first vertex off its base, B's base between B's other vertices:
    # the base vertex of A ^ B takes an id inside the first run of cells
    D1, D2 = sset.delta_plus(1), sset.delta_plus(2)
    A, B = corpus.rebased(D1, D1.cells[0][-1]), corpus.rebased(D2, D2.cells[0][2])
    sm, ref = sset.smash(A, B), oracle.smash_pair_loop(A, B)
    assert sm.space.basepoint == ref.space.basepoint == 2
    assert list(sm.pair_rep.items()) == list(ref.pair_rep.items())
    assert list(sm.id_of.items()) == list(ref.id_of.items())
    assert sm.space.cells == ref.space.cells
    assert list(sm.space.faces.items()) == list(ref.space.faces.items())


def outer_faces(space):
    """The faces with a nonempty word on a cell off the base: in a smash,
    exactly the faces whose coordinate pair shares a degeneracy."""
    bp = space.basepoint
    return [f for fs in space.faces.values() for f in fs if f[0] and f[1] != bp]


def test_pinched_spaces_reach_the_common_degeneracy_branch():
    pinched = [corpus.pinched_triangle(), corpus.pinched_tetrahedron()]
    for A in pinched:
        for B in pinched:
            sm = sset.smash(A, B)
            faces = outer_faces(sm.space)
            assert faces, (A, B)
            # each such face is the normalized pair of its coordinates
            for w, c in faces:
                fa, fb = sm.split((w, c))
                assert sm.form_of_pair(fa, fb) == (w, c)


def test_sphere_pairs_never_reach_it():
    S1 = sset.circle()
    for B in (sset.sphere(2), sset.sphere(4)):
        assert outer_faces(sset.smash(S1, B).space) == []
        assert outer_faces(sset.smash(B, S1).space) == []
