"""Latching, stable cofibration verdicts, lifting search, corner theorems."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import symspec.cli as cli
import symspec.equivariant as eq
import symspec.homology as hl
import symspec.jsonio as io
import symspec.modelcheck as mc
import symspec.spectra as sp
import symspec.sset as sset
import symspec.symseq as sq

import corpus
import oracle


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


def point_into(X, tower):
    pt = sp.point_spectrum(X.bound, tower)
    return sp.SpectrumMap(
        pt,
        X,
        [
            sset.constant_map(pt.space(n), X.space(n))
            for n in range(X.bound + 1)
        ],
    )


def genuine_collapse(n=1, src=None):
    """Delta[n]+ onto Delta[0]+ hitting the non-base vertex."""
    src, tgt = src or sset.delta_plus(n), sset.delta_plus(0)
    v = [c for c in tgt.cell_ids() if c != tgt.basepoint][0]
    assign = {src.basepoint: ((), tgt.basepoint)}
    for c in src.cell_ids():
        if c == src.basepoint:
            continue
        k = src.dim_of[c]
        assign[c] = (tuple(range(k - 1, -1, -1)), v)
    f = sset.SimplicialMap(src, tgt, assign)
    assert f.is_valid()
    return f


# ---------------------------------------------------------------------------
# latching


def test_latching_level_zero_is_always_a_point(tower):
    for X in (
        sp.sphere_spectrum(2, tower),
        sp.free_F(1, sset.circle(), 2, tower),
        sp.point_spectrum(2, tower),
    ):
        L, nat = mc.latching(X, 0)
        assert sset.is_pointlike(L.space)
        assert nat.target is X.space(0)


def test_latching_of_suspension_spectrum(tower):
    F = sp.free_F(0, sset.zero_sphere(), 3, tower)
    L, nat = mc.latching(F, 0)
    assert sset.is_pointlike(L.space)
    for n in (1, 2, 3):
        _, nat = mc.latching(F, n)
        assert nat.is_isomorphism()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_latching_of_free_spectrum_closed_form(tower, m):
    F = sp.free_F(m, sset.circle(), 3, tower)
    for n in range(4):
        L, nat = mc.latching(F, n)
        if n <= m:
            assert sset.is_pointlike(L.space)
        else:
            assert nat.is_isomorphism()


@pytest.mark.parametrize("K", ["S0", "S1"])
def test_latching_of_free_spectrum_is_a_point_exactly_through_its_degree(tower, K):
    space = sset.zero_sphere() if K == "S0" else sset.circle()
    for m in (0, 1, 2):
        F = sp.free_F(m, space, 3, tower)
        for n in range(4):
            L, nat = mc.latching(F, n)
            assert sset.is_pointlike(L.space) == (n <= m), (m, n)
            assert n <= m or nat.is_isomorphism(), (m, n)


def test_latching_map_validates_as_spectrum_map(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    _, nat = mc._latching_data(F)
    assert nat.validate()


@pytest.fixture(scope="module")
def valid_corpus(tower):
    """The corpus spectra that validate: all but the two broken on purpose."""
    valid = [X for X in corpus.spectrum_corpus(tower) if sp.validate_spectrum(X)["ok"]]
    assert len(valid) == 9
    return valid


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("corpus"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("cofibration"), st.integers(min_value=0, max_value=10 ** 6)),
    )
)
def test_latching_matches_the_three_smash_oracle(tower, valid_corpus, case):
    kind, k = case
    if kind == "corpus":
        spectra = [valid_corpus[k]]
    else:
        f = corpus.random_stable_cofibration(random.Random(k), tower)
        spectra = [f.source, f.target]
    for X in spectra:
        XB, nat = mc._latching_data(X)
        old_XB, old_nat = oracle.latching_by_three_smashes(X)
        for n in range(X.bound + 1):
            new, old, where = XB.level(n), old_XB.level(n), (case, X.name, n)
            assert new.space.cells == old.space.cells, where
            assert new.space.faces == old.space.faces, where
            assert new.space.basepoint == old.space.basepoint, where
            assert [g.assign for g in new.generators] == [
                g.assign for g in old.generators
            ], where
            assert nat.level(n).assign == old_nat.level(n).assign, where


@pytest.fixture(scope="module")
def reloaded_spectra(tower):
    """F_1S^1 and F_0S^1 ^ F_0S^1 at bound 3 after a JSON round trip: their
    sigma^3 is iterated from loaded structure maps, whose equivariance
    loading checks only for p <= 2."""
    F0 = sp.free_F(0, sset.circle(), 3, tower)
    return [
        io.load_spectrum(io.dump_spectrum(X), tower)
        for X in (sp.free_F(1, sset.circle(), 3, tower), sp.smash_spectra(F0, F0))
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("corpus"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("cofibration"), st.integers(min_value=0, max_value=10 ** 6)),
        st.tuples(st.just("reloaded"), st.integers(min_value=0, max_value=1)),
    )
)
@example(("reloaded", 0))
@example(("reloaded", 1))
def test_latching_matches_the_twist_oracle(tower, valid_corpus, reloaded_spectra, case):
    kind, k = case
    if kind == "corpus":
        spectra = [valid_corpus[k]]
    elif kind == "reloaded":
        spectra = [reloaded_spectra[k]]
    else:
        f = corpus.random_stable_cofibration(random.Random(k), tower)
        spectra = [f.source, f.target]
    for X in spectra:
        _, nat = mc._latching_data(X)
        _, old_nat = oracle.latching_comparison_by_twist(X)
        for n in range(X.bound + 1):
            assert nat.level(n).assign == old_nat.level(n).assign, (case, X.name, n)


@pytest.fixture
def smashes_built(monkeypatch):
    """The SmashSpectrum instances constructed while the test runs."""
    built = []
    init = sp.SmashSpectrum.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.SmashSpectrum, "__init__", counting)
    return built


def test_latching_builds_one_smash(tower, smashes_built):
    F = sp.free_F(1, sset.circle(), 3, tower)
    mc.latching(F, 2)
    assert len(smashes_built) == 1


def test_cofibration_check_builds_one_smash_per_endpoint(tower, smashes_built):
    F = sp.free_F(0, sset.zero_sphere(), 3, tower)
    mc.stable_cofibration_check(point_into(F, tower))
    assert len(smashes_built) == 2


@pytest.fixture
def count_tensors(monkeypatch):
    """Starts counting TensorSequence constructions; returns the running list."""

    def start():
        built = []
        init = sq.TensorSequence.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sq.TensorSequence, "__init__", counting)
        return built

    return start


def test_latching_builds_no_tensor(tower, count_tensors):
    F = sp.free_F(1, sset.circle(), 3, tower)
    built = count_tensors()
    mc.latching(F, 2)
    assert len(built) == 0


def test_cofibration_check_builds_no_tensor(tower, count_tensors):
    f = point_into(sp.free_F(0, sset.zero_sphere(), 3, tower), tower)
    built = count_tensors()
    mc.stable_cofibration_check(f)
    assert len(built) == 0


def test_the_cofibration_command_leaves_no_smash_holding_a_tensor(
    monkeypatch, capsys, smashes_built
):
    # both left factors are S-cofibrant, so the latching comparisons and the
    # smash of maps leave each X ^ Sbar from its normal cells
    for name in ("SYMSPEC_BOUND", "SYMSPEC_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    assert cli.main("cofibration free:0:sphere2 --bound 3".split()) == 0
    assert '"overall"' in capsys.readouterr().out
    assert len(smashes_built) == 2
    for XB in smashes_built:
        assert not {"T", "pairs", "quotients"} & set(vars(XB)), XB.name


def test_the_cofibration_check_builds_no_smash_of_a_block_without_normal_cells(
    tower, smashes_built
):
    # descend reads the coordinate pairs of a copy X_p ^ Y_q; it builds the
    # smash only for the blocks whose normal cells make up the levels
    F = sp.free_F(0, sset.sphere(2), 3, tower)
    mc.stable_cofibration_check(point_into(F, tower))
    assert len(smashes_built) == 2
    for XB in smashes_built:
        assert XB._forms is not None, XB.name
        normal = {(p, n - p) for n, cells in enumerate(XB._cells) for p, _, _ in cells}
        assert set(XB._smashes) <= normal, (XB.name, sorted(set(XB._smashes) - normal))


def test_latching_out_of_bound(tower):
    F = sp.free_F(0, sset.circle(), 2, tower)
    with pytest.raises(IndexError):
        mc.latching(F, 3)
    with pytest.raises(IndexError):
        mc.latching(F, -1)


def test_latching_carries_the_symmetric_action(tower):
    S = sp.sphere_spectrum(3, tower)
    L, nat = mc.latching(S, 3)
    assert L.n == 3 and len(L.generators) == 2
    L.validate()
    assert eq.is_equivariant(L, S.level(3), nat)


def test_latching_naturality_square(tower):
    K, L = sset.zero_sphere(), sset.circle()
    F = sp.free_F(1, K, 3, tower)
    G = sp.free_F(1, L, 3, tower)
    f = sp.free_F_map(F, G, sset.constant_map(K, L))
    FB, nat_f = mc._latching_data(F)
    GB, nat_g = mc._latching_data(G)
    Lf = sp.smash_map_spectra(FB, GB, f, sp.identity_spectrum_map(FB.Y))
    for n in range(4):
        left = f.level(n).compose(nat_f.level(n))
        right = nat_g.level(n).compose(Lf.level(n))
        assert left == right


# ---------------------------------------------------------------------------
# stable cofibrations


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("K", ["S0", "S1"])
def test_free_spectra_are_stably_cofibrant(tower, n, K):
    space = sset.zero_sphere() if K == "S0" else sset.circle()
    F = sp.free_F(n, space, 3, tower)
    rep = mc.stable_cofibration_check(point_into(F, tower))
    assert rep.overall
    assert rep.first_failure() is None
    assert all(lv["latching_built"] for lv in rep.levels)
    js = rep.to_json()
    assert js["overall"] is True and len(js["levels"]) == 4


def test_trivial_action_above_a_point_fails_freeness(tower):
    levels = [
        eq.trivial_action(sset.point(), 0),
        eq.trivial_action(sset.point(), 1),
        eq.trivial_action(sset.zero_sphere(), 2),
    ]

    def build(X, n):
        sm = sset.smash(tower.s1, X.space(n))
        return sm, sset.constant_map(sm.space, X.space(n + 1))

    bad = sp.SymmetricSpectrum(tower, levels, build, name="badX")
    assert sp.validate_spectrum(bad)["ok"]
    rep = mc.stable_cofibration_check(point_into(bad, tower))
    assert not rep.overall
    failure = rep.first_failure()
    assert failure["level"] == 2
    assert failure["monomorphism"] is True
    assert failure["acts_freely"] is False


def test_identity_is_a_stable_cofibration(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    rep = mc.stable_cofibration_check(sp.identity_spectrum_map(F))
    assert rep.overall


def test_corner_map_validates_as_spectrum_map(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    rep = mc.stable_cofibration_check(point_into(F, tower))
    rep.corner.validate()


def test_cofibrations_closed_under_cobase_change(tower):
    incl = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    W = sp.free_F(1, incl.source, 3, tower)
    U = sp.free_F(1, incl.target, 3, tower)
    f = sp.free_F_map(W, U, incl)
    assert mc.stable_cofibration_check(f).overall
    # push out along the fold of the two boundary points
    S0 = sset.zero_sphere()
    v = [c for c in S0.cell_ids() if c != S0.basepoint][0]
    fold = sset.SimplicialMap(
        incl.source,
        S0,
        {
            c: ((), S0.basepoint if c == incl.source.basepoint else v)
            for c in incl.source.cell_ids()
        },
    )
    assert fold.is_valid()
    Z = sp.free_F(1, S0, 3, tower)
    g = sp.free_F_map(W, Z, fold)
    _, _, leg2 = sp.pushout_spectrum(f, g)
    assert mc.stable_cofibration_check(leg2).overall


# ---------------------------------------------------------------------------
# maps out of pushouts against the cell-by-cell oracle


def corner_constructions(tower):
    """Every construction that maps out of a pushout, on the valid corpus.

    For each valid corpus spectrum X (the first nine; the rest are broken
    on purpose) and the next one Y: the latching corners of pt -> X and of
    the identity, the mapping cylinders of the identity and of X -> pt,
    and the pushout-product in all three arms.  Returns the maps, with
    the cylinders contributing r.
    """
    valid = corpus.spectrum_corpus(tower)[:9]
    ends = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    out = []
    for X, Y in zip(valid, valid[1:] + valid[:1]):
        unit, ident = point_into(X, tower), sp.identity_spectrum_map(X)
        pt = sp.point_spectrum(X.bound, tower)
        to_pt = sp.SpectrumMap(
            X,
            pt,
            [sset.constant_map(X.space(n), pt.space(n)) for n in range(X.bound + 1)],
        )
        out += [mc.latching_corner(unit), mc.latching_corner(ident)]
        out += [sp.mapping_cylinder(ident)[2], sp.mapping_cylinder(to_pt)[2]]
        out += [
            sp.pushout_product(ident.level(2), ends),
            sp.pushout_product(unit, ends),
            sp.pushout_product(unit, point_into(Y, tower)),
        ]
    return out


def assignments(h):
    """Every assignment of h and, for spectra, of its source's actions."""
    if isinstance(h, sset.SimplicialMap):
        return [h.assign]
    out = []
    for n, comp in enumerate(h.components):
        out.append(comp.assign)
        out += [g.assign for g in h.source.level(n).generators]
    return out


def test_maps_out_of_pushouts_match_the_cell_by_cell_oracle(monkeypatch):
    built = corner_constructions(eq.SphereTower())
    pushouts = [h.source for h in built if isinstance(h, sp.SpectrumMap)]
    for P in pushouts:
        for n in range(P.bound):
            assert P.sigma(n).assign == oracle.pushout_sigma(P, n).assign
    new = [assignments(h) for h in built]
    monkeypatch.setattr(sset, "descend", oracle.descend)
    monkeypatch.setattr(sset, "map_out_of_pushout", oracle.map_out_of_pushout)
    old = [assignments(h) for h in corner_constructions(eq.SphereTower())]
    assert len(new) == 63
    assert sum(len(a) for maps in new for a in maps) > 10000
    for got, want in zip(new, old):
        assert got == want


# ---------------------------------------------------------------------------
# map enumeration


def test_all_space_maps_counts_against_dense_oracle():
    cap = 3
    circ = sset.circle()
    got = mc.all_maps(circ, circ)
    assert len(got) == oracle.all_maps_dense(
        oracle.circle_dense(cap), oracle.circle_dense(cap), cap
    )
    bnd = sset.boundary_plus(1)
    d1 = sset.delta_plus(1)
    dense_bnd = oracle.subspace_dense(
        oracle.delta_dense(1, cap), lambda k, x: len(set(x)) == 1
    )
    got = mc.all_maps(bnd, d1)
    assert len(got) == oracle.all_maps_dense(
        dense_bnd, oracle.delta_dense(1, cap), cap
    )
    assert all(f.is_valid() for f in got)
    # deterministic order, no duplicates
    again = mc.all_maps(bnd, d1)
    assert [f.assign for f in got] == [f.assign for f in again]
    seen = {tuple(sorted(f.assign.items())) for f in got}
    assert len(seen) == len(got)


def test_all_spectrum_maps_on_small_spheres(tower):
    S = sp.sphere_spectrum(1, tower)
    maps = mc.all_maps(S, S)
    assert len(maps) == 2
    for f in maps:
        f.validate()
    kinds = {f.level(1).is_monomorphism() for f in maps}
    assert kinds == {True, False}  # the identity and the collapse


def test_enumeration_budget_is_enforced():
    circ = sset.circle()
    with pytest.raises(mc.BudgetExceeded):
        mc.all_maps(circ, circ, sset.Budget(1))


def _enumeration_run(search, A, X, meter, exceeded):
    try:
        maps = search(A, X, meter)
    except exceeded:
        return None, meter.used
    return [m.assign for m in maps], meter.used


def _report(res):
    witness = res["witness"]
    if witness is not None:
        witness = (witness["top"].assign, witness["bottom"].assign)
    return res["verdict"], res["checked"], witness


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_indexed_search_matches_the_scanning_oracle(data):
    menu = corpus.space_menu()
    X = data.draw(st.sampled_from(menu))
    i = corpus.random_subcomplex_inclusion(
        random.Random(data.draw(st.integers(0, 2 ** 16))), X
    )
    Y, Z = data.draw(st.sampled_from(menu)), data.draw(st.sampled_from(menu))
    p = data.draw(st.sampled_from(sset.all_maps(Y, Z)))
    for A, T in ((i.source, Y), (X, Z), (X, Y)):
        budget = data.draw(st.integers(1, 300))
        got = _enumeration_run(
            sset.all_maps, A, T, sset.Budget(budget), sset.BudgetExceeded
        )
        want = _enumeration_run(
            oracle.all_space_maps_scan, A, T, oracle.ScanBudget(budget),
            oracle.ScanBudgetExceeded,
        )
        assert got == want
        assert [m.assign for m in sset.all_maps(A, T)] == [
            m.assign for m in oracle.all_space_maps_scan(A, T)
        ]
    budget = data.draw(st.one_of(st.integers(1, 400), st.just(10 ** 6)))
    assert _report(mc.has_lifting_property(i, p, budget)) == _report(
        oracle.has_lifting_property_scan(i, p, budget)
    )


@pytest.mark.parametrize("verdict", ["yes", "no"])
def test_every_budget_matches_the_scanning_oracle(verdict):
    if verdict == "yes":
        i = sset.subset_inclusion(sset.horn_plus(2, 1), sset.delta_plus(2))
        p = genuine_collapse(2)
    else:
        i = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
        p = genuine_collapse()
    full = oracle.has_lifting_property_scan(i, p, mc.DEFAULT_LIFT_BUDGET)
    assert full["verdict"] == verdict
    for budget in range(1, full["checked"] + 2):
        got = mc.has_lifting_property(i, p, budget)
        want = oracle.has_lifting_property_scan(i, p, budget)
        assert _report(got) == _report(want), budget


@pytest.fixture(scope="module")
def large_enumeration_pairs():
    """Sources of the benchmark's lifting searches, too large for the scan."""
    sources = [sset.horn_plus(4, k) for k in range(5)]
    sources += [sset.boundary_plus(4), sset.delta_plus(4)]
    targets = [sset.delta_plus(4), sset.delta_plus(3)]
    return [(A, X) for A in sources for X in targets]


def _metered_run(search, A, X, limit, spent):
    meter = sset.Budget(limit)
    meter.used = spent
    return _enumeration_run(search, A, X, meter, sset.BudgetExceeded)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_component_join_matches_the_backtracking_oracle(large_enumeration_pairs, data):
    """Same maps, same order, same probes and same overrun as the search
    that visits every node; shared meters enter part spent."""
    r = random.Random(data.draw(st.integers(0, 2 ** 16)))
    kind = data.draw(st.sampled_from(["large", "menu", "wedge"]))
    if kind == "large":
        A, X = data.draw(st.sampled_from(large_enumeration_pairs))
    else:
        menu = corpus.space_menu()
        A = r.choice(menu)
        if kind == "wedge":
            A = sset.wedge([A, r.choice(menu)]).space
        A, X = corpus.relabelled(A, r), corpus.relabelled(r.choice(menu), r)
    meter, ours = sset.Budget(10 ** 9), sset.Budget(10 ** 9)
    want = oracle.all_maps_dfs(A, X, meter)
    got = sset.all_maps(A, X, ours)
    assert [list(m.assign.items()) for m in got] == [
        list(m.assign.items()) for m in want
    ]
    assert ours.used == meter.used
    limit = data.draw(st.integers(0, meter.used + 1))
    spent = data.draw(st.integers(0, limit))
    assert _metered_run(sset.all_maps, A, X, limit, spent) == _metered_run(
        oracle.all_maps_dfs, A, X, limit, spent
    )


# ---------------------------------------------------------------------------
# lifting properties


def test_lifting_against_identity_is_automatic():
    bnd = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    res = mc.has_lifting_property(bnd, sset.identity_map(sset.circle()))
    assert res["verdict"] == "yes" and res["witness"] is None


def test_reversed_endpoints_refute_lifting():
    bnd = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    p = genuine_collapse()
    res = mc.has_lifting_property(bnd, p)
    assert res["verdict"] == "no"
    top = res["witness"]["top"]
    vs = sorted(
        c for c in bnd.source.cell_ids() if c != bnd.source.basepoint
    )
    images = [top.assign[c] for c in vs]
    # the two boundary vertices land on the two simplex vertices, swapped
    d1 = sset.delta_plus(1)
    v0, v1 = d1.subset_ids[(0,)], d1.subset_ids[(1,)]
    assert images == [((), v1), ((), v0)]
    # determinism: the same witness twice
    res2 = mc.has_lifting_property(bnd, p)
    assert res2["witness"]["top"].assign == top.assign


def test_lifting_budget_exceeded_is_three_valued():
    bnd = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    res = mc.has_lifting_property(bnd, genuine_collapse(), budget=3)
    assert res["verdict"] == "budget exceeded"
    assert res["witness"] is None
    assert res["checked"] >= 3


def test_retract_argument_on_a_factorization():
    D1 = sset.delta_plus(1)
    p = genuine_collapse(src=D1)
    D0 = p.target
    v0 = D1.subset_ids[(0,)]
    x0 = sset.delta_plus(0)
    vx = [c for c in x0.cell_ids() if c != x0.basepoint][0]
    i = sset.SimplicialMap(
        x0, D1, {x0.basepoint: ((), D1.basepoint), vx: ((), v0)}
    )
    assert i.is_valid()
    f = p.compose(i)
    assert mc.has_lifting_property(f, p)["verdict"] == "yes"
    h = mc.find_lift(f, p, top=i, bottom=sset.identity_map(D0))
    assert h is not None
    assert h.compose(f) == i
    assert p.compose(h) == sset.identity_map(D0)


def test_spectrum_lifting_against_identity(tower):
    S = sp.sphere_spectrum(1, tower)
    pt = sp.point_spectrum(1, tower)
    i = point_into(S, tower)
    res = mc.has_lifting_property(i, sp.identity_spectrum_map(S))
    assert res["verdict"] == "yes"


def test_lifting_adjoint_to_hom_corner_surjectivity():
    bnd = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    fixtures = [
        (bnd, genuine_collapse()),
        (bnd, sset.identity_map(sset.delta_plus(1))),
        (
            sset.subset_inclusion(sset.horn_plus(1, 0), sset.delta_plus(1)),
            genuine_collapse(),
        ),
    ]
    for f, h in fixtures:
        direct = mc.has_lifting_property(f, h)["verdict"] == "yes"
        assert direct == _hom_corner_surjective(f, h), (f, h)


def _hom_corner_surjective(f, h):
    """Surjectivity of Hom(V,X) -> Hom(U,X) x_{Hom(U,Y)} Hom(V,Y)."""
    U, V = f.source, f.target
    X = h.source
    squares = []
    for u in mc.all_maps(U, X):
        hu = h.compose(u)
        for v in mc.all_maps(V, h.target):
            if v.compose(f) == hu:
                squares.append((u, v))
    cands = mc.all_maps(V, X)
    return all(
        any(
            d.compose(f) == u and h.compose(d) == v
            for d in cands
        )
        for u, v in squares
    )


# ---------------------------------------------------------------------------
# corner-map theorem instances


def test_theorem_check_on_two_free_unit_inclusions(tower):
    F = sp.free_F(1, sset.zero_sphere(), 3, tower)
    f = point_into(F, tower)
    rep = mc.pushout_product_theorem_check(f, f, sp.pushout_product(f, f))
    assert rep["corner_kind"] == "spectrum"
    assert rep["clauses"]["monomorphism"] == {
        "applicable": True,
        "confirmed": True,
    }
    assert rep["clauses"]["stable_cofibration"] == {
        "applicable": True,
        "confirmed": True,
    }
    assert rep["clauses"]["level_equivalence"]["applicable"] is False


def test_theorem_check_with_identity_confirms_everything(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    f = point_into(F, tower)
    g = sp.identity_spectrum_map(sp.sphere_spectrum(2, tower))
    rep = mc.pushout_product_theorem_check(f, g, sp.pushout_product(f, g))
    for clause in rep["clauses"].values():
        assert clause["applicable"] is True
        assert clause["confirmed"] is True


def test_theorem_check_mixed_spectrum_space(tower):
    F = sp.free_F(1, sset.circle(), 3, tower)
    f = point_into(F, tower)
    g = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    rep = mc.pushout_product_theorem_check(f, g, sp.pushout_product(f, g))
    assert rep["corner_kind"] == "spectrum"
    assert rep["corner_monomorphism"] is True
    assert rep["clauses"]["monomorphism"]["confirmed"] is True


def test_theorem_check_space_arm():
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    rep = mc.pushout_product_theorem_check(f, f, sp.pushout_product(f, f))
    assert rep["corner_kind"] == "space"
    assert rep["clauses"]["monomorphism"]["confirmed"] is True
    assert "stable_cofibration" not in rep["clauses"]


# ---------------------------------------------------------------------------
# level classification


def test_classify_identity(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    cls = mc.level_classify(sp.identity_spectrum_map(F))
    assert cls["monomorphism"] is True
    assert cls["homology_level_equivalence"] is True
    assert cls["monomorphism_failures"] == []
    assert cls["homology_failures"] == []


def test_classify_cylinder_retraction(tower):
    F = sp.free_F(1, sset.circle(), 2, tower)
    _, _, r, _ = sp.mapping_cylinder(sp.identity_spectrum_map(F))
    cls = mc.level_classify(r)
    assert cls["monomorphism"] is False
    assert cls["homology_level_equivalence"] is True


def test_classify_lambda(tower):
    lam = sp.lambda_map(0, 2, tower)
    cls = mc.level_classify(lam)
    assert cls["monomorphism"] is False
    assert 2 in cls["monomorphism_failures"]
    assert {"level": 2, "degree": 2} in cls["homology_failures"]
    assert cls["homology_level_equivalence"] is False


def test_classify_never_claims_weak_equivalence(tower):
    F = sp.free_F(0, sset.zero_sphere(), 1, tower)
    cls = mc.level_classify(sp.identity_spectrum_map(F))
    assert "weak_equivalence" not in cls
    assert all("weak" not in key for key in cls)
    assert cls["degree_range"][0] == 0


def test_classify_respects_max_degree(tower):
    F = sp.free_F(1, sset.circle(), 2, tower)
    cls = mc.level_classify(sp.identity_spectrum_map(F), max_degree=1)
    assert cls["degree_range"] == [0, 1]


# ---------------------------------------------------------------------------
# input checks that do not rely on assert


def test_mismatched_spectra_are_rejected_with_a_reason(tower):
    S1, S2 = sp.sphere_spectrum(1, tower), sp.sphere_spectrum(2, tower)
    with pytest.raises(ValueError, match="bound 1, target S has level bound 2"):
        mc.all_maps(S1, S2)
    other = sp.sphere_spectrum(1, eq.SphereTower())
    with pytest.raises(ValueError, match="different sphere towers"):
        mc.all_maps(S1, other)


def test_bound_mismatch_is_rejected_in_optimized_mode():
    src = os.path.dirname(os.path.dirname(mc.__file__))
    script = (
        "import symspec.equivariant as eq\n"
        "import symspec.modelcheck as mc\n"
        "import symspec.spectra as sp\n"
        "import symspec.sset as sset\n"
        "t = eq.SphereTower()\n"
        "A, X = sp.point_spectrum(1, t), sp.sphere_spectrum(2, t)\n"
        "f = sp.SpectrumMap(\n"
        "    A, X, [sset.constant_map(A.space(n), X.space(n)) for n in range(2)]\n"
        ")\n"
        "for call in (lambda: mc.latching_corner(f), lambda: mc.all_maps(A, X)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('rejected:', exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: latching corner: source pt has level bound 1, "
        "target S has level bound 2",
        "rejected: map enumeration: source pt has level bound 1, "
        "target S has level bound 2",
    ]
