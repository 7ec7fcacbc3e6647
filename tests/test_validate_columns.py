"""``PointedSimplicialSet.validate`` checks a dimension at a time.

Each dimension's face tables are read as columns: one test of the face
counts, each distinct face form once, and each identity as one comparison
over all cells.  Only a dimension that fails there is scanned cell by cell,
to name the failure.  On spaces larger than ``test_sset.py``'s, broken at a
random cell of any dimension, the verdict is ``oracle.validate_per_cell``'s.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import equivariant as eq
from symspec import spectra as sp
from symspec import sset


def _verdict(check, X):
    try:
        return check(X)
    except sset.IdentityError as err:
        return err.cell, err.identity, err.lhs, err.rhs


@functools.lru_cache(maxsize=None)
def _spaces():
    tower = eq.SphereTower()
    D4 = sset.delta_plus(4)
    s = D4.subset_ids
    pairs = [
        (((), s[(0, 1, 2)]), ((), s[(2, 3, 4)])),
        (((), s[(0, 4)]), ((0,), s[(0,)])),
    ]
    XY = sp.smash_spectra(
        sp.free_F(1, sset.circle(), 3, tower), sp.free_F(0, sset.circle(), 3, tower)
    )
    return (
        tower.space(5),
        # degenerate faces on non-base cells
        sset.smash(corpus.pinched_tetrahedron(), sset.circle()).space,
        sset.quotient_by_pairs(D4, pairs).space,
        # a level of X ^_S Y built from its normal cells
        XY.space(3),
    )


def _others(X, k):
    """Forms a k-cell's face must not be: of another dimension, on a
    missing cell, or out of normal form."""
    out = [f for m in range(max(k - 2, 0), k + 1) for f in X.forms(m)]
    return out + [((), -1), ((0,) * k, X.basepoint), (tuple(range(k)), X.basepoint)]


def test_the_spaces_are_valid_and_of_the_kinds_named():
    S5, pinched, quotient, level = _spaces()
    for X in _spaces():
        assert X.validate() is oracle.validate_per_cell(X) is True
    assert {k: len(v) for k, v in S5.cells.items()} == {
        0: 1, 1: 1, 2: 30, 3: 150, 4: 240, 5: 120
    }
    base = pinched.basepoint
    assert any(
        f[0] and f[1] != base for c in pinched.cell_ids() for f in pinched.faces.get(c, ())
    )
    assert quotient.n_cells(4) == 1
    assert level.dim == 4


def test_the_columns_accept_a_valid_space_without_the_scan():
    # the scan names failures only: on a valid space every dimension holds
    # on its columns
    for X in _spaces() + tuple(corpus.space_menu()):
        assert all(X._dimension_holds(k, ids) for k, ids in X.cells.items()), X


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_broken_face_anywhere_gets_the_per_cell_verdict(data):
    X = data.draw(st.sampled_from(_spaces()))
    c = data.draw(st.sampled_from([c for c in X.cell_ids() if X.dim_of[c]] + [X.basepoint]))
    k = X.dim_of[c]
    fs = list(X.faces.get(c, ()))
    kind = data.draw(st.sampled_from(["face", "face", "face", "other", "drop", "add"]))
    if fs and kind in ("face", "other"):
        pool = list(X.forms(k - 1)) if kind == "face" else _others(X, k)
        fs[data.draw(st.integers(0, len(fs) - 1))] = data.draw(st.sampled_from(pool))
    elif fs and kind == "drop":
        del fs[data.draw(st.integers(0, len(fs) - 1))]
    else:
        fs.append(data.draw(st.sampled_from(_others(X, k))))
    Y = sset.PointedSimplicialSet(X.cells, {**X.faces, c: tuple(fs)}, X.basepoint)
    assert _verdict(sset.PointedSimplicialSet.validate, Y) == _verdict(
        oracle.validate_per_cell, Y
    )


def _top_cell_broken(change):
    """S^5 with the face table of its last top cell changed by ``change``,
    and that cell."""
    X = _spaces()[0]
    c = X.cells[5][-1]
    fs = list(X.faces[c])
    change(fs)
    return sset.PointedSimplicialSet(X.cells, {**X.faces, c: tuple(fs)}, X.basepoint), c


def _named(Y):
    got = _verdict(sset.PointedSimplicialSet.validate, Y)
    assert got == _verdict(oracle.validate_per_cell, Y)
    return got


def test_a_missing_face_on_the_last_top_cell():
    Y, c = _top_cell_broken(lambda fs: fs.pop())
    assert _named(Y) == (c, "a 5-cell has 6 faces", 5, 6)


def test_a_face_on_a_missing_cell():
    def change(fs):
        fs[2] = ((), 99999)

    Y, c = _top_cell_broken(change)
    assert _named(Y) == (c, "d_2 names a cell", ((), 99999), None)


def test_a_face_of_the_wrong_dimension():
    X = _spaces()[0]
    other = ((), X.cells[5][0])

    def change(fs):
        fs[1] = other

    Y, c = _top_cell_broken(change)
    assert _named(Y) == (c, "d_1 has dimension 4", 5, 4)


def test_a_face_out_of_normal_form():
    X = _spaces()[0]
    edge = X.cells[2][0]

    def change(fs):
        fs[3] = ((0, 1), edge)

    Y, c = _top_cell_broken(change)
    assert _named(Y) == (c, "d_3 in normal form", ((0, 1), edge), ((2, 0), edge))


def test_a_broken_identity():
    def change(fs):
        fs[1], fs[2] = fs[2], fs[1]

    Y, c = _top_cell_broken(change)
    assert _named(Y) == (c, "d_1 d_3 = d_2 d_1", ((), 175), ((), 145))


def test_a_vertex_with_faces():
    X = _spaces()[0]
    bp = X.basepoint
    Y = sset.PointedSimplicialSet(X.cells, {**X.faces, bp: (((), bp),)}, bp)
    assert _named(Y) == (bp, "a vertex has no faces", (((), bp),), ())


def test_a_basepoint_that_is_no_vertex():
    X = _spaces()[0]
    c = X.cells[5][-1]
    Y = sset.PointedSimplicialSet(X.cells, X.faces, c)
    assert _named(Y) == (c, "the basepoint is a vertex", 5, 0)


def test_the_first_of_two_broken_cells_is_named_whatever_the_kinds():
    # an identity broken at the first 4-cell, a face dropped at the last:
    # the columns see both, the scan names the first
    X = _spaces()[0]
    first, last = X.cells[4][0], X.cells[4][-1]
    fs = list(X.faces[first])
    fs[0], fs[1] = fs[1], fs[0]
    faces = {**X.faces, first: tuple(fs), last: X.faces[last][1:]}
    Y = sset.PointedSimplicialSet(X.cells, faces, X.basepoint)
    cell, identity, _, _ = _named(Y)
    assert cell == first and " = " in identity


def test_a_face_the_columns_cannot_read_is_left_to_the_scan():
    # an unhashable face at the last 3-cell after a missing face at the
    # first: the scan names the first, as before; alone, it raises TypeError
    X = _spaces()[0]
    first, last = X.cells[3][0], X.cells[3][-1]
    fs = list(X.faces[last])
    fs[0] = list(fs[0])
    faces = {**X.faces, last: tuple(fs)}
    with pytest.raises(TypeError):
        sset.PointedSimplicialSet(X.cells, faces, X.basepoint).validate()
    Y = sset.PointedSimplicialSet(X.cells, {**faces, first: ()}, X.basepoint)
    assert _verdict(sset.PointedSimplicialSet.validate, Y) == (
        first, "a 3-cell has 4 faces", 0, 4
    )
