"""The lifting search on the enumerator's value rows.

``sset.map_table`` gives every map A -> X as a column of images per cell,
``sset.all_maps`` zips its rows into maps, and ``modelcheck``'s
``has_lifting_property`` and ``find_lift`` compose and compare rows,
building a map only for an answer they hand back.  The charges and the
identity rule are pinned against the composing oracles in
``tests/test_column_tables.py``; these tests pin what gets built, and the
row order on spaces whose base vertex is not their first cell.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import symspec.modelcheck as mc
import symspec.sset as sset

import corpus
import oracle


@pytest.fixture
def built(monkeypatch):
    """The list of every ``SimplicialMap`` built while the test runs."""
    made = []
    init = sset.SimplicialMap.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(sset.SimplicialMap, "__init__", counted)
    return made


def collapse(D):
    """D -> Delta[0]+ sending every non-base simplex to the non-base vertex:
    for D = Delta[4]+, the map every benchmark ``check-lift`` runs against."""
    D0 = sset.delta_plus(0)
    v = next(c for c in D0.cell_ids() if c != D0.basepoint)
    assign = {c: sset.base_form(v, D.dim_of[c]) for c in D.cell_ids()}
    assign[D.basepoint] = ((), D0.basepoint)
    return sset.SimplicialMap(D, D0, assign)


def items(f):
    return None if f is None else list(f.assign.items())


def off_first(r, menu):
    """A menu space relabelled so that its base vertex is not its first cell."""
    X = corpus.relabelled(r.choice([X for X in menu if len(X.cells[0]) > 1]), r)
    assert next(X.cell_ids()) != X.basepoint
    return X


# ---------------------------------------------------------------------------
# what the search builds


def test_a_yes_builds_no_map(built):
    i = sset.subset_inclusion(sset.horn_plus(4, 1), sset.delta_plus(4))
    p = collapse(i.target)
    built.clear()
    out = mc.has_lifting_property(i, p)
    assert (out["verdict"], out["checked"]) == ("yes", 773794)
    assert built == []


def test_a_no_builds_its_two_witnesses(built):
    i = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    p = collapse(i.target)
    built.clear()
    out = mc.has_lifting_property(i, p)
    assert out["verdict"] == "no"
    witness = out["witness"]
    assert [id(f) for f in built] == [id(witness["top"]), id(witness["bottom"])]
    want = oracle.has_lifting_property_composing(i, p, mc.DEFAULT_LIFT_BUDGET)
    assert out["checked"] == want["checked"]
    for end in ("top", "bottom"):
        assert items(witness[end]) == items(want["witness"][end])


def test_find_lift_builds_only_the_lift_it_returns(built):
    i = sset.subset_inclusion(sset.horn_plus(2, 1), sset.delta_plus(2))
    p = collapse(i.target)
    h = sset.all_maps(i.target, p.source)[-1]
    top, bottom = h.compose(i), p.compose(h)
    # p.h is constant only for the constant h, whose h.i is not the top
    constant = sset.SimplicialMap(i.target, p.target, {
        c: p.target.base(k) for c, k in i.target.dim_of.items()
    })
    built.clear()
    got = mc.find_lift(i, p, top, bottom)
    assert got is not None and [id(f) for f in built] == [id(got)]
    assert items(got) == items(
        oracle.find_lift_composing(i, p, top, bottom, mc.DEFAULT_LIFT_BUDGET)
    )
    built.clear()
    assert mc.find_lift(i, p, top, constant) is None
    assert built == []


# ---------------------------------------------------------------------------
# the row order


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_all_maps_zips_the_rows_of_map_table(data):
    r = random.Random(data.draw(st.integers(0, 2 ** 16)))
    menu = corpus.space_menu()
    A, X = off_first(r, menu), off_first(r, menu)
    if data.draw(st.booleans()):
        A = sset.wedge([A, r.choice(menu)]).space
    keys, columns = sset.map_table(A, X)
    assert keys[0] == A.basepoint and sorted(keys) == sorted(A.cell_ids())
    assert len(columns) == len(keys) and len({len(col) for col in columns}) == 1
    zipped = [sset.SimplicialMap(A, X, zip(keys, row)) for row in zip(*columns)]
    got = sset.all_maps(A, X)
    assert all(f.source is A and f.target is X for f in got)
    assert [items(f) for f in got] == [items(f) for f in zipped]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rows_decide_as_the_oracle_where_the_base_is_not_first(data):
    """The rows of tops and lifts (keyed as ``map_table``) and of given maps
    and composites (keyed by ``dim_of``) are compared in one cell order."""
    r = random.Random(data.draw(st.integers(0, 2 ** 16)))
    menu = corpus.space_menu()
    i = corpus.random_subcomplex_inclusion(r, off_first(r, menu))
    Y, Z = off_first(r, menu), off_first(r, menu)
    p = r.choice(sset.all_maps(Y, Z))
    budget = data.draw(st.one_of(st.integers(1, 400), st.just(mc.DEFAULT_LIFT_BUDGET)))
    got = mc.has_lifting_property(i, p, budget)
    want = oracle.has_lifting_property_composing(i, p, budget)
    assert (got["verdict"], got["checked"]) == (want["verdict"], want["checked"])
    if want["witness"] is not None:
        for end in ("top", "bottom"):
            assert items(got["witness"][end]) == items(want["witness"][end])
    h = r.choice(sset.all_maps(i.target, p.source))
    top, bottom = h.compose(i), p.compose(h)
    found = mc.find_lift(i, p, top, bottom)
    assert found is not None and found.compose(i) == top and p.compose(found) == bottom
    assert items(found) == items(
        oracle.find_lift_composing(i, p, top, bottom, mc.DEFAULT_LIFT_BUDGET)
    )
