"""The face-row kernels against the code they replaced.

``PointedSimplicialSet.face_row`` builds a face row from its word's
``_row_template``; ``sset.smash`` reads its factors' rows through it,
``homology.normalized_chains`` zips each face table with signs made once
per dimension.  The references are ``oracle.smash_pair_loop`` and
``oracle.normalized_chains_per_face``; ``validate`` is compared with its
two references in ``test_sset.py``.
"""

import random

from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import homology as hl
from symspec import sset


def test_face_row_is_the_faces_one_by_one():
    spaces = corpus.space_menu() + [
        sset.sphere(3),
        sset.boundary_plus(3),
        corpus.pinched_triangle(),
        corpus.pinched_tetrahedron(),
    ]
    for X in spaces:
        for k in range(X.dim + 3):
            for f in X.forms(k):
                want = tuple([X.face(i, f) for i in range(k + 1)]) if k else ()
                assert tuple(X.face_row(f, k)) == want, (X, f)


def assert_smash_matches_the_pair_loop(A, B):
    sm, ref = sset.smash(A, B), oracle.smash_pair_loop(A, B)
    assert sm.space.cells == ref.space.cells, (A, B)
    assert sm.space.faces == ref.space.faces, (A, B)
    assert list(sm.space.faces) == list(ref.space.faces), (A, B)
    assert sm.space.basepoint == ref.space.basepoint, (A, B)
    assert list(sm.id_of.items()) == list(ref.id_of.items()), (A, B)
    assert list(sm.pair_rep.items()) == list(ref.pair_rep.items()), (A, B)


def factor(r):
    """A corpus space, or now and then a quotient with faces degenerate on
    non-base cells, whose face pairs can share degeneracies."""
    if r.random() < 0.25:
        return r.choice([corpus.pinched_triangle, corpus.pinched_tetrahedron])()
    return corpus.random_space(r)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_smash_matches_the_pair_loop_on_random_spaces(seed):
    r = random.Random(seed)
    A, B = factor(r), factor(r)
    # basepoints after other vertices in id order, on either side
    if r.random() < 0.5:
        A = corpus.rebased(A, r.choice(A.cells[0]))
    if r.random() < 0.5:
        B = corpus.rebased(B, r.choice(B.cells[0]))
    assert_smash_matches_the_pair_loop(A, B)


def test_smash_matches_the_pair_loop_on_the_sphere_tower_and_pinched_spaces():
    S1 = sset.circle()
    for B in (sset.sphere(2), sset.sphere(4), sset.sphere(5)):
        assert_smash_matches_the_pair_loop(S1, B)
        assert_smash_matches_the_pair_loop(B, S1)
    pinched = [corpus.pinched_triangle(), corpus.pinched_tetrahedron()]
    for A in pinched:
        for B in pinched:
            assert_smash_matches_the_pair_loop(A, B)


def assert_chains_match_the_per_face_loop(X):
    C, ref = hl.normalized_chains(X), oracle.normalized_chains_per_face(X)
    assert C.ranks == ref.ranks, X
    assert C.basis == ref.basis, X
    assert C.index == ref.index, X
    assert list(C.columns) == list(ref.columns), X
    for k, cols in ref.columns.items():
        # key order included
        assert [list(c.items()) for c in C.columns[k]] == [list(c.items()) for c in cols], (X, k)


def test_normalized_chains_match_the_per_face_loop():
    for X in corpus.homology_space_fixtures() + [sset.sphere(5), sset.sphere(6)]:
        assert_chains_match_the_per_face_loop(X)


def spheres_with_cancelling_faces():
    """Three 2-spheres x, y, u on the base vertex and three 3-cells with
    faces (x, x, y, x), (x, x, y, y) and (y, u, u, x): the first two faces
    of the first cancel before x comes back, all faces of the second
    cancel, and in the third u cancels between y and x."""
    pinch = ((0,), 0)
    x, y, u = ((), 1), ((), 2), ((), 3)
    faces = {c: (pinch,) * 3 for c in (1, 2, 3)}
    faces.update({4: (x, x, y, x), 5: (x, x, y, y), 6: (y, u, u, x)})
    X = sset.PointedSimplicialSet({0: [0], 2: [1, 2, 3], 3: [4, 5, 6]}, faces, 0, name="xyu")
    assert X.validate()
    return X


def test_normalized_chains_keep_the_order_of_faces_that_cancel():
    X = spheres_with_cancelling_faces()
    assert_chains_match_the_per_face_loop(X)
    cols = hl.normalized_chains(X).columns[3]
    assert [list(c.items()) for c in cols] == [[(0, -1), (1, 1)], [], [(1, 1), (0, -1)]]
