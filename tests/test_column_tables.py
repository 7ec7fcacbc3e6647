"""The map enumerator on column tables and the lifting search keyed by map
values, against the row-list join and the composing search they replaced
(``oracle.all_maps_rows``, ``oracle.has_lifting_property_composing`` and
``oracle.find_lift_composing``).

Same maps in the same order with the same assignment order, the same
charges and overruns, the same reports; and ``SimplicialMap.__eq__``'s
identity rule: a top or bottom on an equal but distinct copy of a space or
spectrum of the square is filled by no lift.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import symspec.equivariant as eq
import symspec.modelcheck as mc
import symspec.spectra as sp
import symspec.sset as sset

import corpus
import oracle


def sources():
    """Corpus spaces plus quotients whose faces carry degeneracy words on
    non-base cells, so the enumerator maps face columns through words."""
    pinch = corpus.pinched_triangle()
    return corpus.space_menu() + [
        pinch,
        corpus.pinched_tetrahedron(),
        sset.wedge([pinch, sset.circle()]).space,
        sset.smash(sset.circle(), sset.delta_plus(1)).space,
    ]


def targets():
    """Corpus spaces (S1 v S1 and S2 have several forms on one face row),
    plus a pinched triangle."""
    return corpus.space_menu() + [corpus.pinched_triangle()]


def copy_of(X):
    """A space equal to X cell for cell, but another object."""
    return sset.PointedSimplicialSet(X.cells, X.faces, X.basepoint, X.name)


def collapse(D):
    """D -> Delta[0]+ sending every non-base simplex to the non-base vertex."""
    D0 = sset.delta_plus(0)
    v = next(c for c in D0.cell_ids() if c != D0.basepoint)
    assign = {c: sset.base_form(v, D.dim_of[c]) for c in D.cell_ids()}
    assign[D.basepoint] = ((), D0.basepoint)
    return sset.SimplicialMap(D, D0, assign)


def _run(search, A, X, limit, spent=0):
    """(assignments as item lists, or None on an overrun; probes used)."""
    meter = sset.Budget(limit)
    meter.used = spent
    try:
        maps = search(A, X, meter)
    except sset.BudgetExceeded:
        return None, meter.used
    return [list(m.assign.items()) for m in maps], meter.used


def _report(res):
    witness = res["witness"]
    if witness is not None:
        witness = (list(witness["top"].assign.items()), list(witness["bottom"].assign.items()))
    return res["verdict"], res["checked"], witness


# ---------------------------------------------------------------------------
# the enumerator


def test_the_menus_reach_every_branch_of_the_column_join():
    worded = [
        A
        for A in sources()
        if any(w and t != A.basepoint for c in A.cell_ids() for w, t in A.faces.get(c, ()))
    ]
    assert {A.name for A in worded} >= {"pinch2", "pinch3"}
    several = [
        X
        for X in targets()
        if any(len(forms) > 1 for k in X.cells for forms in X.forms_by_row(k).values())
    ]
    assert {X.name for X in several} >= {"S1vS1", "S2"}
    # rows drop: two vertices of Delta[1]+ land on 4 vertex pairs of S0,
    # and only the 2 equal pairs have an edge
    assert len(sset.all_maps(sset.delta_plus(1), sset.zero_sphere())) == 2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_column_join_matches_the_row_join_oracle(data):
    """Same maps in the same order, each assignment in the same order, the
    same probes, and the same overrun at any limit, meters entering part
    spent."""
    r = random.Random(data.draw(st.integers(0, 2 ** 16)))
    A = data.draw(st.sampled_from(sources()))
    if data.draw(st.booleans()):
        A = sset.wedge([A, r.choice(corpus.space_menu())]).space
    X = data.draw(st.sampled_from(targets()))
    A, X = corpus.relabelled(A, r), corpus.relabelled(X, r)
    want = _run(oracle.all_maps_rows, A, X, 10 ** 9)
    assert _run(sset.all_maps, A, X, 10 ** 9) == want
    assert [list(m.assign.items()) for m in sset.all_maps(A, X)] == want[0]
    limit = data.draw(st.integers(0, want[1] + 1))
    spent = data.draw(st.integers(0, limit))
    assert _run(sset.all_maps, A, X, limit, spent) == _run(
        oracle.all_maps_rows, A, X, limit, spent
    )


@pytest.mark.parametrize("A, X", [
    (corpus.pinched_tetrahedron(), sset.wedge([sset.circle(), sset.circle()]).space),
    (sset.horn_plus(3, 1), corpus.pinched_triangle()),
])
def test_every_limit_overruns_where_the_row_join_does(A, X):
    used = _run(oracle.all_maps_rows, A, X, 10 ** 9)[1]
    for limit in range(used + 2):
        for spent in {0, limit // 2, limit}:
            assert _run(sset.all_maps, A, X, limit, spent) == _run(
                oracle.all_maps_rows, A, X, limit, spent
            ), (limit, spent)


# ---------------------------------------------------------------------------
# the lifting search


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_value_keyed_search_matches_the_composing_oracle(data):
    r = random.Random(data.draw(st.integers(0, 2 ** 16)))
    i = corpus.random_subcomplex_inclusion(r, data.draw(st.sampled_from(sources())))
    Y, Z = data.draw(st.sampled_from(targets())), data.draw(st.sampled_from(targets()))
    p = data.draw(st.sampled_from(sset.all_maps(Y, Z)))
    budget = data.draw(st.one_of(st.integers(1, 400), st.just(mc.DEFAULT_LIFT_BUDGET)))
    assert _report(mc.has_lifting_property(i, p, budget)) == _report(
        oracle.has_lifting_property_composing(i, p, budget)
    )
    if data.draw(st.booleans()):
        h = data.draw(st.sampled_from(sset.all_maps(i.target, p.source)))
        top, bottom = h.compose(i), p.compose(h)
    else:
        top = data.draw(st.sampled_from(sset.all_maps(i.source, p.source)))
        bottom = data.draw(st.sampled_from(sset.all_maps(i.target, p.target)))
    moved = data.draw(st.sampled_from(["none", "top source", "top target", "bottom source"]))
    if moved == "top source":
        top = sset.SimplicialMap(copy_of(top.source), top.target, top.assign)
    elif moved == "top target":
        top = sset.SimplicialMap(top.source, copy_of(top.target), top.assign)
    elif moved == "bottom source":
        bottom = sset.SimplicialMap(copy_of(bottom.source), bottom.target, bottom.assign)
    budget = data.draw(st.one_of(st.integers(0, 400), st.just(mc.DEFAULT_LIFT_BUDGET)))

    def lift(search):
        try:
            h = search(i, p, top, bottom, budget)
        except sset.BudgetExceeded:
            return "budget exceeded"
        return None if h is None else list(h.assign.items())

    assert lift(mc.find_lift) == lift(oracle.find_lift_composing)


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


def free_boundary_inclusion(n, k, tower, bound=2):
    """F_n of the boundary inclusion into Delta[k]+, with k = 0 meaning
    pt -> Delta[0]+."""
    if k:
        f = sset.subset_inclusion(sset.boundary_plus(k), sset.delta_plus(k))
    else:
        D0 = sset.delta_plus(0)
        f = sset.SimplicialMap(sset.point(), D0, {0: ((), D0.basepoint)})
    src, tgt = sp.free_F(n, f.source, bound, tower), sp.free_F(n, f.target, bound, tower)
    return sp.free_F_map(src, tgt, f)


# (n, k) whose F_n(boundary -> Delta[k]+) against lambda_0 answers at bound 2
# within the default budget; (0, 2) and (1, 2) exceed it
ANSWERING = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


@pytest.fixture(scope="module")
def spectrum_squares(tower):
    lam = sp.lambda_map(0, 2, tower)
    return {nk: (free_boundary_inclusion(*nk, tower), lam) for nk in ANSWERING}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_spectrum_squares_match_the_composing_oracle(spectrum_squares, data):
    i, p = spectrum_squares[data.draw(st.sampled_from(ANSWERING))]
    full = oracle.has_lifting_property_composing(i, p, mc.DEFAULT_LIFT_BUDGET)
    assert full["verdict"] != "budget exceeded"
    budget = data.draw(st.one_of(st.integers(1, full["checked"] + 1), st.just(10 ** 6)))
    got = mc.has_lifting_property(i, p, budget)
    want = oracle.has_lifting_property_composing(i, p, budget)
    assert (got["verdict"], got["checked"]) == (want["verdict"], want["checked"])
    if want["witness"] is not None:
        for end in ("top", "bottom"):
            assert got["witness"][end] == want["witness"][end]


# ---------------------------------------------------------------------------
# the identity rule


def _lift_cost(i, p):
    meter = sset.Budget(10 ** 9)
    lifts = mc.all_maps(i.target, p.source, meter)
    return meter.used, len(lifts)


def _charged_in_full(i, p, top, bottom):
    """find_lift's answer, after checking it charges the enumeration plus
    every lift: one probe less overruns."""
    enumeration, n_lifts = _lift_cost(i, p)
    with pytest.raises(sset.BudgetExceeded):
        mc.find_lift(i, p, top, bottom, enumeration + n_lifts - 1)
    return mc.find_lift(i, p, top, bottom, enumeration + n_lifts)


def test_find_lift_fills_no_square_on_a_copy_of_a_space():
    i = sset.subset_inclusion(sset.horn_plus(1, 0), sset.delta_plus(1))
    p = collapse(i.target)
    h = mc.find_lift(i, p, i, p)
    assert h is not None and h.compose(i) == i and p.compose(h) == p
    Map = sset.SimplicialMap
    squares = {
        "top on a copy of i.source": (Map(sset.horn_plus(1, 0), i.target, i.assign), p),
        "top on a copy of p.source": (Map(i.source, copy_of(i.target), i.assign), p),
        "bottom on a copy of i.target": (i, Map(copy_of(i.target), p.target, p.assign)),
        "bottom on a copy of p.target": (i, Map(i.target, copy_of(p.target), p.assign)),
    }
    for what, (top, bottom) in squares.items():
        assert top.assign == i.assign and bottom.assign == p.assign
        assert _charged_in_full(i, p, top, bottom) is None, what
        assert oracle.find_lift_composing(i, p, top, bottom, mc.DEFAULT_LIFT_BUDGET) is None


def _on_copy(f, source):
    """The spectrum map f, level for level, from the copy ``source`` of its source."""
    levels = [
        sset.SimplicialMap(source.space(n), g.target, g.assign)
        for n, g in enumerate(f.components)
    ]
    return sp.SpectrumMap(source, f.target, levels)


def test_find_lift_fills_no_square_on_a_copy_spectrum(tower):
    i = free_boundary_inclusion(1, 1, tower)
    p = sp.lambda_map(0, 2, tower)
    h = mc.all_maps(i.target, p.source)[-1]
    top, bottom = h.compose(i), p.compose(h)
    assert mc.find_lift(i, p, top, bottom) is not None
    copy = sp.free_F(1, i.source.K, 2, tower)
    assert copy.tower is i.source.tower and copy.space(1) is not i.source.space(1)
    for what, moved in {
        "copy spectrum, levels as they were": sp.SpectrumMap(copy, top.target, top.components),
        "copy spectrum and its levels": _on_copy(top, copy),
    }.items():
        assert _charged_in_full(i, p, moved, bottom) is None, what
        assert oracle.find_lift_composing(i, p, moved, bottom, mc.DEFAULT_LIFT_BUDGET) is None


def test_no_square_commutes_through_a_map_whose_levels_sit_off_its_source(tower):
    """i runs from a copy spectrum but its levels from the original's spaces:
    tops are enumerated on the copy's levels, so no p.top equals a bottom.i,
    every pair is one probe and no lift is tried."""
    j = free_boundary_inclusion(1, 1, tower)
    i = sp.SpectrumMap(sp.free_F(1, j.source.K, 2, tower), j.target, j.components)
    p = sp.lambda_map(0, 2, tower)
    got = mc.has_lifting_property(i, p)
    assert _report(got) == _report(
        oracle.has_lifting_property_composing(i, p, mc.DEFAULT_LIFT_BUDGET)
    )
    meter = sset.Budget(10 ** 9)
    tops = mc.all_maps(i.source, p.source, meter)
    bottoms = mc.all_maps(i.target, p.target, meter)
    mc.all_maps(i.target, p.source, meter)
    assert got["verdict"] == "yes"
    assert got["checked"] == meter.used + len(tops) * len(bottoms)


def test_a_level_that_cannot_follow_raises_as_compose_does(tower):
    j = free_boundary_inclusion(1, 1, tower)
    copy = sp.free_F(1, j.target.K, 2, tower)
    levels = [
        sset.SimplicialMap(g.source, copy.space(n), g.assign)
        for n, g in enumerate(j.components)
    ]
    i = sp.SpectrumMap(j.source, j.target, levels)
    p = sp.lambda_map(0, 2, tower)
    for decide in (mc.has_lifting_property, oracle.has_lifting_property_composing):
        with pytest.raises(sset.PreconditionError):
            decide(i, p, mc.DEFAULT_LIFT_BUDGET)


# ---------------------------------------------------------------------------
# the design


def test_the_lifting_search_hashes_and_composes_no_map(monkeypatch):
    calls = {"hash": 0, "compose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        sset.SimplicialMap, "__hash__", counted("hash", sset.SimplicialMap.__hash__)
    )
    monkeypatch.setattr(
        sset.SimplicialMap, "compose", counted("compose", sset.SimplicialMap.compose)
    )
    i = sset.subset_inclusion(sset.horn_plus(2, 1), sset.delta_plus(2))
    p = collapse(i.target)
    out = mc.has_lifting_property(i, p)
    assert calls == {"hash": 0, "compose": 0}
    assert isinstance(out, dict) and out["verdict"] == "yes" and out["checked"] > 0
    # the benchmark's tracer reads len(out) of both enumerators
    assert isinstance(sset.all_maps(i.source, p.source), list)
    assert isinstance(mc.all_maps(i.source, p.source), list)
    assert calls["hash"] == 0
