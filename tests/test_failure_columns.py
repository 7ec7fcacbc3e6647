"""``SimplicialMap.failure`` checks a dimension at a time.

The images of a dimension's cells are checked as normal forms at once, their
face rows read off the target's tables, and all the cells' faces, each
distinct face mapped once, compared with those rows in one comparison.  Only
a dimension that fails there is scanned cell by cell, to name the failure.
On maps broken at a random cell, the verdict is ``oracle.failure_per_cell``'s.
"""

import functools

from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import sset


def _verdict(f, where=""):
    err = f.failure(where)
    return None if err is None else (err.cell, err.identity, err.lhs, err.rhs)


def _reference(f, where=""):
    err = oracle.failure_per_cell(f, where)
    return None if err is None else (err.cell, err.identity, err.lhs, err.rhs)


def _collapse(X):
    """X -> Delta[0]+ sending every non-base cell onto the non-base vertex,
    so every image of positive dimension is degenerate off the base."""
    D0 = sset.delta_plus(0)
    v = next(c for c in D0.cell_ids() if c != D0.basepoint)
    assign = {c: sset.base_form(v, X.dim_of[c]) for c in X.cell_ids()}
    return sset.SimplicialMap(X, D0, {**assign, X.basepoint: ((), D0.basepoint)})


@functools.lru_cache(maxsize=None)
def _maps():
    S1, S2 = sset.circle(), sset.sphere(2)
    D4 = sset.delta_plus(4)
    s = D4.subset_ids
    pinch = sset.quotient_by_pairs(D4, [(((), s[(0, 1, 2)]), ((1,), s[(0, 1)]))])
    return (
        sset.identity_map(sset.sphere(4)),
        # an isomorphism between two smash products
        sset.smash_swap(sset.smash(S1, S2), sset.smash(S2, S1)),
        # images on the base, and degenerate images off it
        sset.constant_map(sset.sphere(3), S2),
        _collapse(D4),
        pinch.projection,
        sset.all_maps(sset.boundary_plus(2), corpus.space_menu()[-1])[-1],
    )


def test_the_maps_are_valid_and_of_the_kinds_named():
    for f in _maps():
        assert _verdict(f) is _reference(f) is None
    kinds = [{bool(w) for w, _ in f.assign.values()} for f in _maps()]
    assert kinds[0] == kinds[1] == {False}
    assert all(True in kind for kind in kinds[2:5])


def test_the_columns_accept_a_valid_map_without_the_scan():
    # the scan names failures only: on a valid map every dimension holds on
    # its columns
    for f in _maps():
        assert all(f._dimension_holds(k, ids) for k, ids in f.source.cells.items()), f


def _others(X, k):
    """Forms an image of a k-cell must not be: of another dimension, on a
    missing cell, or out of normal form."""
    out = [g for m in (k - 1, k + 1) if m >= 0 for g in X.forms(m)]
    return out + [((), -1), ((0,) * k, X.basepoint), (tuple(range(k)), X.basepoint)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_broken_image_anywhere_gets_the_per_cell_verdict(data):
    f = data.draw(st.sampled_from(_maps()))
    X, Y = f.source, f.target
    c = data.draw(st.sampled_from(list(X.cell_ids())))
    k = X.dim_of[c]
    assign = dict(f.assign)
    kind = data.draw(st.sampled_from(["image", "image", "image", "other", "drop"]))
    if kind == "image":
        assign[c] = data.draw(st.sampled_from(Y.forms(k)))
    elif kind == "other":
        assign[c] = data.draw(st.sampled_from(_others(Y, k)))
    else:
        del assign[c]
    g = sset.SimplicialMap(X, Y, assign)
    assert _verdict(g, "at: ") == _reference(g, "at: ")


def _broken(f, changes):
    return sset.SimplicialMap(f.source, f.target, {**f.assign, **changes})


def test_a_swapped_image_names_its_first_face():
    f = _maps()[0]
    X = f.source
    c, d = X.cells[4][0], X.cells[4][1]
    g = _broken(f, {c: ((), d)})
    assert _verdict(g) == _reference(g)
    cell, identity, _, _ = _verdict(g)
    assert cell == c and identity.startswith("f(d_")


def test_a_degenerate_image_out_of_normal_form():
    f = _maps()[3]
    c = f.source.cells[2][0]
    g = _broken(f, {c: ((0, 1), f.assign[c][1])})
    assert _verdict(g) == _reference(g) == (c, "f(c) in normal form", ((0, 1), 1), ((2, 0), 1))


def test_the_first_of_two_broken_cells_is_named_whatever_the_kinds():
    # a wrong image at the last 3-cell, a missing one at the first: the
    # columns see both, the scan names the first
    f = _maps()[0]
    first, last = f.source.cells[3][0], f.source.cells[3][-1]
    assign = {**f.assign, last: ((), f.source.cells[3][1])}
    del assign[first]
    g = sset.SimplicialMap(f.source, f.target, assign)
    assert _verdict(g) == _reference(g) == (first, "f(c) is assigned", None, "a 3-form")


def test_an_image_the_columns_cannot_read_is_left_to_the_scan():
    # an unhashable image after a wrong one: the scan names the wrong one
    f = _maps()[1]
    X = f.source
    first, last = X.cells[2][0], X.cells[2][-1]
    g = _broken(f, {first: ((), -1), last: [(), f.assign[last][1]]})
    assert _verdict(g) == (first, "f(c) names a cell", ((), -1), None)
