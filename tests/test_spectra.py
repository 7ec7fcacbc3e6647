"""Spectrum-level constructions: structure maps, smash, free spectra."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import equivariant as eq
from symspec import jsonio
from symspec import spectra as sp
from symspec import sset
from symspec import symseq as sq


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


def nonbase_counts(space):
    out = {}
    for k, ids in space.cells.items():
        n = len([c for c in ids if c != space.basepoint])
        if n:
            out[k] = n
    return out


# ---------------------------------------------------------------------------
# validation


def test_sphere_validates_through_bound_five(tower):
    S = sp.sphere_spectrum(5, tower)
    assert sp.validate_spectrum(S) == {"ok": True, "failures": []}


def test_point_spectrum_validates(tower):
    assert sp.validate_spectrum(sp.point_spectrum(3, tower))["ok"]


def test_trivial_level_two_action_fails_at_sigma_squared(tower):
    S2 = sp.sphere_spectrum(2, tower)
    levels = [
        tower.action(0),
        tower.action(1),
        eq.trivial_action(tower.space(2), 2),
    ]
    mut = sp.SymmetricSpectrum(tower, levels, S2._builder, name="mutant")
    rep = sp.validate_spectrum(mut)
    assert not rep["ok"]
    first = rep["failures"][0]
    assert (first["p"], first["n"]) == (2, 0)


def test_validate_reports_failures_in_total_degree_order(tower):
    S2 = sp.sphere_spectrum(2, tower)
    levels = [
        tower.action(0),
        tower.action(1),
        eq.trivial_action(tower.space(2), 2),
    ]
    mut = sp.SymmetricSpectrum(tower, levels, S2._builder, name="mutant")
    keys = [(f["p"] + f["n"], f["p"]) for f in sp.validate_spectrum(mut)["failures"]]
    assert keys == sorted(keys)


def test_validate_says_why_a_level_action_fails(tower):
    S2 = sp.sphere_spectrum(2, tower)
    X2 = tower.space(2)
    levels = [
        tower.action(0),
        tower.action(1),
        eq.EquivariantSpace(X2, 2, [sset.constant_map(X2, X2)]),
    ]
    mut = sp.SymmetricSpectrum(tower, levels, S2._builder, name="mutant")
    first = sp.validate_spectrum(mut)["failures"][0]
    assert (first["p"], first["n"]) == (0, 2)
    assert first["reason"].startswith("level action invalid: ")
    assert "t_0 t_0 = 1" in first["reason"]


def test_an_unknown_generating_set_is_a_precondition_error():
    with pytest.raises(sset.PreconditionError, match="unknown generating set kind 'FI_nope'"):
        sp.generating_sets("FI_nope", 1, 1)


def test_validate_never_raises_on_tampered_sigma(tower):
    # twisting sigma_2 by a transposition breaks equivariance over Sigma_3
    S = sp.sphere_spectrum(3, tower)
    twist = tower.action(3).act(eq.transposition(3, 0))

    def bad_builder(X, n):
        sm, sig = S._builder(X, n)
        if n == 2:
            sig = twist.compose(sig)
        return sm, sig

    bad = sp.SymmetricSpectrum(tower, corpus.levels_of(S), bad_builder, name="tampered")
    rep = sp.validate_spectrum(bad)
    assert not rep["ok"]
    assert rep["failures"]


def test_quick_validation_agrees_on_good_and_bad(tower):
    S = sp.sphere_spectrum(3, tower)
    assert sp.validate_spectrum(S, quick=True)["ok"]
    levels = [
        tower.action(0),
        tower.action(1),
        eq.trivial_action(tower.space(2), 2),
        tower.action(3),
    ]
    mut = sp.SymmetricSpectrum(tower, levels, S._builder, name="mutant")
    assert not sp.validate_spectrum(mut, quick=True)["ok"]


def sigma_power_cases(tower):
    """S, F_0 S^1, F_1 S^1, F_0 S^1 ^ F_0 S^1 and a loaded free spectrum,
    all at bound 3."""
    F0 = sp.free_F(0, sset.circle(), 3, tower)
    loaded = sp.free_F(1, sset.zero_sphere(), 3, tower)
    text = jsonio.canonical(jsonio.dump_spectrum(loaded))
    return [
        sp.sphere_spectrum(3, tower),
        F0,
        sp.free_F(1, sset.circle(), 3, tower),
        sp.smash_spectra(F0, sp.free_F(0, sset.circle(), 3, tower)),
        jsonio.load_spectrum(json.loads(text), tower),
    ]


def test_sigma_power_matches_the_flattened_oracle(tower):
    for X in sigma_power_cases(tower):
        for p in range(1, X.bound + 1):
            for n in range(X.bound - p + 1):
                ref = oracle.sigma_power_flat(X, p, n)
                assert X.sigma_power(p, n).assign == ref.assign, (X.name, p, n)


def mutated_spectra(tower):
    """The broken and unusual spectra of the validator corpus, plus one with
    a trivial action on a sphere level."""
    S = sp.sphere_spectrum(3, tower)
    levels = [tower.action(0), tower.action(1), eq.trivial_action(tower.space(2), 2)]
    return [
        corpus.trivial_action_spectrum(tower),
        corpus.broken_equivariance_spectrum(tower),
        corpus.broken_shape_spectrum(tower),
        sp.SymmetricSpectrum(tower, levels + [tower.action(3)], S._builder, name="mutant"),
    ]


def test_validation_reports_match_the_flattened_sigma_power():
    reports = [sp.validate_spectrum(X) for X in mutated_spectra(eq.SphereTower())]
    flat = []
    for X in mutated_spectra(eq.SphereTower()):
        X.sigma_power = lambda p, n, X=X: oracle.sigma_power_flat(X, p, n)
        flat.append(sp.validate_spectrum(X))
    assert reports == flat
    assert [r["ok"] for r in reports] == [True, False, False, False]


def test_no_structure_map_at_the_top_level(tower):
    S = sp.sphere_spectrum(2, tower)
    with pytest.raises(AssertionError):
        S.sigma(2)


def test_spectrum_map_validate_catches_broken_square(tower):
    S = sp.sphere_spectrum(2, tower)
    twist = tower.action(2).act(eq.transposition(2, 0))
    comps = [
        sset.identity_map(S.space(0)),
        sset.identity_map(S.space(1)),
        twist,
    ]
    f = sp.SpectrumMap(S, S, comps)
    sq.SequenceMap(S, S, comps).validate()  # levelwise equivariant all the same
    with pytest.raises(AssertionError):
        f.validate()


_CORPUS = {}


def left_action_case(index):
    """Spectrum ``index`` of the bound-3 corpus and S (x) X, built once."""
    if not _CORPUS:
        tower = eq.SphereTower()
        for X in corpus.spectrum_corpus(tower):
            S = sp.sphere_spectrum(X.bound, tower)
            _CORPUS[len(_CORPUS)] = (X, sq.tensor(S.seq, X.seq))
    return _CORPUS[index]


def outcome(build):
    try:
        return build()
    except KeyError as exc:  # the corpus spectrum with a malformed sigma
        return type(exc)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10))
def test_left_action_map_matches_its_cellwise_oracle(index):
    X, T = left_action_case(index)
    got = outcome(lambda: sp.left_action_map(X, T))
    assert got == outcome(lambda: oracle.left_action_map_cellwise(X, T))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.booleans())
def test_module_sigma_matches_its_cellwise_oracle(index, inner):
    """sigma of the module S (x) X, or of X (x) Y under the smash X ^ Y."""
    Z, T = left_action_case(index)
    X = sp.sphere_spectrum(Z.bound, Z.tower)
    if inner and isinstance(Z, sp.SmashSpectrum):
        X, T = Z.X, Z.T
    for n in range(T.bound):
        sm = sset.smash(X.tower.s1, T.space(n))
        got = outcome(lambda: sm.map_out(T.space(n + 1), sp._module_sigma(X, T, n)))
        want = outcome(
            lambda: sm.map_out(T.space(n + 1), oracle.module_sigma_cellwise(X, T, n))
        )
        assert got == want


# ---------------------------------------------------------------------------
# bar sphere


def test_bar_sphere(tower):
    S = sp.sphere_spectrum(3, tower)
    bar = sp.bar_sphere(3, tower)
    assert sset.is_pointlike(bar.space(0))
    for n in range(1, 4):
        assert bar.space(n) is tower.space(n)
    assert sp.validate_spectrum(bar)["ok"]
    i = sp.bar_inclusion(bar, S)
    assert i.validate()
    for n in range(1, 4):
        assert i.level(n) == sset.identity_map(S.space(n))


# ---------------------------------------------------------------------------
# free spectra


def test_free_one_on_circle_is_a_wedge_of_spheres(tower):
    F = sp.free_F(1, sset.circle(), 4, tower)
    assert sset.is_pointlike(F.space(0))
    for n in range(1, 5):
        expected = {
            k: n * v for k, v in nonbase_counts(tower.space(n)).items()
        }
        assert nonbase_counts(F.space(n)) == expected
    assert sp.validate_spectrum(F)["ok"]


def test_free_two_has_point_levels_below_its_degree(tower):
    F = sp.free_F(2, sset.circle(), 3, tower)
    assert sset.is_pointlike(F.space(0))
    assert sset.is_pointlike(F.space(1))
    assert not sset.is_pointlike(F.space(2))


def test_free_zero_is_the_suspension_spectrum(tower):
    K = sset.delta_plus(1)
    F = sp.free_F(0, K, 3, tower)
    P = sp.prolong_smash(sp.sphere_spectrum(3, tower), K)
    iso = sp.suspension_free_iso(P, F)
    assert iso.is_isomorphism()
    assert iso.validate()


def test_free_degree_above_bound_errors(tower):
    with pytest.raises(IndexError):
        sp.free_F(3, sset.circle(), 2, tower)


def test_negative_free_degree_errors(tower):
    with pytest.raises(IndexError):
        sp.free_F(-1, sset.point(), 2, tower)
    with pytest.raises(IndexError):
        sq.free_G(-1, sset.point(), 2)


def test_free_map_of_monomorphism_is_levelwise_mono(tower):
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    src = sp.free_F(1, f.source, 3, tower)
    tgt = sp.free_F(1, f.target, 3, tower)
    Ff = sp.free_F_map(src, tgt, f)
    assert Ff.is_monomorphism()
    assert Ff.validate()


# ---------------------------------------------------------------------------
# smash of spectra


def test_smash_with_the_sphere_gives_back_the_factor(tower):
    S = sp.sphere_spectrum(2, tower)
    X = sp.free_F(1, sset.circle(), 2, tower)
    SX = sp.smash_spectra(S, X)
    assert sp.validate_spectrum(SX)["ok"]
    fwd, inv = sp.smash_unit_iso(SX)
    assert fwd.is_isomorphism() and inv.is_isomorphism()
    assert fwd.validate() and inv.validate()
    assert fwd.compose(inv) == sp.identity_spectrum_map(X)
    assert inv.compose(fwd) == sp.identity_spectrum_map(SX)


def test_smash_of_maps_respects_identities_and_the_bar_inclusion(tower):
    F = sp.free_F(1, sset.zero_sphere(), 2, tower)
    S = sp.sphere_spectrum(2, tower)
    XS = sp.smash_spectra(F, S)
    m = sp.smash_map_spectra(
        XS, XS, sp.identity_spectrum_map(F), sp.identity_spectrum_map(S)
    )
    assert m == sp.identity_spectrum_map(XS)
    assert m.validate()
    bar = sp.bar_sphere(2, tower)
    assert sp.bar_sphere(2, tower) is bar
    incl = sp.smash_map_spectra(
        sp.smash_spectra(F, bar), XS, sp.identity_spectrum_map(F),
        sp.bar_inclusion(bar, S),
    )
    assert incl.validate()


def test_smash_of_two_free_ones_is_free_two(tower):
    N = 3
    K, L = sset.circle(), sset.circle()
    X = sp.free_F(1, K, N, tower)
    Y = sp.free_F(1, L, N, tower)
    SXY = sp.smash_spectra(X, Y)
    sm_kl = sset.smash(K, L)
    big = sp.free_F(2, sm_kl.space, N, tower)
    iso = sp.smash_free_iso(SXY, big, sm_kl)
    assert iso.is_isomorphism()
    assert iso.validate()


FREE_MENU = [
    (m, kname, make)
    for m in range(3)
    for kname, make in (("S0", sset.zero_sphere), ("S1", sset.circle))
]


@pytest.mark.parametrize(
    "m,kname,kmake", FREE_MENU, ids=[f"F{m}({k})" for m, k, _ in FREE_MENU]
)
def test_smash_from_bimorphisms_matches_triple_tensor_coequalizer(
    tower, m, kname, kmake
):
    N = 3
    X = sp.free_F(m, kmake(), N, tower)
    for n, lname, lmake in FREE_MENU:
        Y = sp.free_F(n, lmake(), N, tower)
        new = sp.smash_spectra(X, Y)
        old = oracle.triple_tensor_smash(X, Y)
        case = (m, kname, n, lname)
        for lev in range(N + 1):
            a, b = new.quotients[lev], old.quotients[lev]
            assert a.space.cells == b.space.cells, (case, lev)
            assert a.space.faces == b.space.faces, (case, lev)
            assert a.space.basepoint == b.space.basepoint, (case, lev)
            assert a.class_of == b.class_of, (case, lev)
            assert [g.assign for g in new.level(lev).generators] == [
                g.assign for g in old.level(lev).generators
            ], (case, lev)
        for lev in range(N):
            assert new.sigma(lev).assign == old.sigma(lev).assign, (case, lev)


def constant_spectrum_map(A, B):
    return sp.SpectrumMap(
        A, B, [sset.constant_map(A.space(n), B.space(n)) for n in range(A.bound + 1)]
    )


def test_smash_structure_map_recheck_names_a_split_relation(tower):
    # without the level-2 relations, sigma from level 1 cannot descend; the
    # left factor F v Sbar is not S-cofibrant (L_2 Sbar -> Sbar_2 is not
    # injective), so the smash takes the quotient path and its re-check
    class Unrelated(sp.SmashSpectrum):
        def _relations(self, n):
            return [] if n == 2 else super()._relations(n)

    F = sp.free_F(0, sset.zero_sphere(), 2, tower)
    P = sp.point_spectrum(2, tower)
    X, _, _ = sp.pushout_spectrum(
        constant_spectrum_map(P, F), constant_spectrum_map(P, sp.bar_sphere(2, tower))
    )
    assert X.latching_forms is None
    S = Unrelated(X, F)
    S.sigma(0)
    with pytest.raises(sset.IdentityError, match=r"sigma\(t \^ a\) = sigma\(t \^ b\)"):
        S.sigma(1)


def test_smash_with_point_collapses(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    SP = sp.smash_spectra(X, sp.point_spectrum(2, tower))
    for n in range(3):
        assert sset.is_pointlike(SP.space(n))
    assert sp.validate_spectrum(SP)["ok"]


def test_smash_requires_equal_bounds(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    Y = sp.free_F(1, sset.circle(), 3, tower)
    with pytest.raises(AssertionError):
        sp.smash_spectra(X, Y)


def test_smash_and_pushout_preconditions_survive_optimized_mode():
    # without its checks, -O smashed bound 2 with bound 3 truncated to bound 2
    src = os.path.dirname(os.path.dirname(sp.__file__))
    script = (
        "import symspec.equivariant as eq\n"
        "import symspec.spectra as sp\n"
        "import symspec.sset as sset\n"
        "t = eq.SphereTower()\n"
        "X = sp.free_F(1, sset.circle(), 2, t)\n"
        "Y = sp.free_F(1, sset.circle(), 3, t)\n"
        "def unit(N):\n"
        "    P, F = sp.point_spectrum(N, t), sp.free_F(0, sset.circle(), N, t)\n"
        "    maps = [sset.constant_map(P.space(n), F.space(n)) for n in range(N + 1)]\n"
        "    return sp.SpectrumMap(P, F, maps)\n"
        "calls = [\n"
        "    lambda: sp.smash_spectra(X, Y),\n"
        "    lambda: sp.smash_spectra(X, sp.free_F(1, sset.circle(), 2)),\n"
        "    lambda: sp.pushout_spectrum(unit(2), unit(3)),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except sset.PreconditionError as exc:\n"
        "        print('rejected:', exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: smash needs equal bounds: 2, 3",
        "rejected: smash needs a shared circle",
        "rejected: a pushout needs legs with a common source",
    ]


def test_smash_commutativity_iso(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    Y = sp.free_F(0, sset.zero_sphere(), 2, tower)
    XY = sp.smash_spectra(X, Y)
    YX = sp.smash_spectra(Y, X)
    c1 = sp.smash_comm_iso(XY, YX)
    c2 = sp.smash_comm_iso(YX, XY)
    assert c1.is_isomorphism() and c1.validate()
    assert c2.compose(c1) == sp.identity_spectrum_map(XY)


def test_smash_associativity_iso(tower):
    N = 2
    X = sp.free_F(1, sset.circle(), N, tower)
    Y = sp.free_F(1, sset.zero_sphere(), N, tower)
    Z = sp.free_F(0, sset.zero_sphere(), N, tower)
    XY = sp.smash_spectra(X, Y)
    YZ = sp.smash_spectra(Y, Z)
    al = sp.smash_assoc_iso(sp.smash_spectra(XY, Z), sp.smash_spectra(X, YZ))
    assert al.is_isomorphism()
    assert al.validate()


def test_smash_level_dependence_is_local(tower):
    # changing the generating space only changes levels at and above the
    # free degree; the smash must agree below it, cell for cell
    Z = sp.sphere_spectrum(2, tower)
    A = sp.smash_spectra(sp.free_F(2, sset.zero_sphere(), 2, tower), Z)
    B = sp.smash_spectra(sp.free_F(2, sset.circle(), 2, tower), Z)
    for n in range(2):
        assert A.space(n).cells == B.space(n).cells
        assert A.space(n).faces == B.space(n).faces
    assert nonbase_counts(A.space(2)) != nonbase_counts(B.space(2))


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_by_the_zero_sphere_is_the_identity(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    P = sp.prolong_smash(X, sset.zero_sphere())
    assert sp.validate_spectrum(P)["ok"]
    fwd, inv = sp.prolong_unit_iso(P)
    assert fwd.validate() and inv.validate()
    assert fwd.compose(inv) == sp.identity_spectrum_map(X)
    assert inv.compose(fwd) == sp.identity_spectrum_map(P)


def test_prolong_matches_smash_with_the_free_zero_spectrum(tower):
    N = 2
    K = sset.circle()
    X = sp.free_F(1, sset.zero_sphere(), N, tower)
    P = sp.prolong_smash(X, K)
    F0 = sp.free_F(0, K, N, tower)
    SXF = sp.smash_spectra(X, F0)
    iso = sp.prolong_free_iso(P, SXF)
    assert iso.is_isomorphism()
    assert iso.validate()


# ---------------------------------------------------------------------------
# shift


def test_shift_zero_is_the_spectrum_itself(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    assert sp.shift(X, 0) is X


def test_shift_reindexes_with_first_letter_action(tower):
    S = sp.sphere_spectrum(3, tower)
    sh = sp.shift(S, 1)
    assert sh.bound == 2
    for n in range(3):
        assert sh.space(n) is tower.space(n + 1)
    for n in range(3):
        for i, g in enumerate(sh.level(n).generators):
            want = S.level(n + 1).act(
                eq.block_embed(eq.transposition(n, i), n + 1)
            )
            assert g == want
    assert sp.validate_spectrum(sh)["ok"]


def test_shift_twice_equals_shift_by_two(tower):
    X = sp.free_F(1, sset.circle(), 3, tower)
    a = sp.shift(sp.shift(X, 1), 1)
    b = sp.shift(X, 2)
    for n in range(2):
        assert a.space(n) is b.space(n)
        assert a.level(n).generators == b.level(n).generators
    assert a.sigma(0) == b.sigma(0)


def test_shift_beyond_bound_errors(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    with pytest.raises(IndexError):
        sp.shift(X, 3)


# ---------------------------------------------------------------------------
# lambda


def test_lambda_zero_level_one_is_the_identity(tower):
    lam = sp.lambda_map(0, 3, tower)
    assert lam.level(1).is_isomorphism()
    assert lam.validate()


def test_lambda_zero_folds_the_wedge_onto_the_sphere(tower):
    lam = sp.lambda_map(0, 3, tower)
    for n in range(1, 4):
        src = lam.source.space(n)
        expected = {
            k: n * v for k, v in nonbase_counts(tower.space(n)).items()
        }
        assert nonbase_counts(src) == expected
        hit = {form[1] for form in lam.level(n).assign.values()}
        assert set(tower.space(n).cell_ids()) <= hit


def test_lambda_one_validates(tower):
    assert sp.lambda_map(1, 3, tower).validate()


def test_lambda_out_of_bound_errors(tower):
    with pytest.raises(IndexError):
        sp.lambda_map(2, 2, tower)


# ---------------------------------------------------------------------------
# free extensions


def adjoint_case(kind, tower):
    """(F, Z, phi, the package's extension of phi) for a lambda map or a
    smash_free_iso input of criterion 01 at bound 3; phi is read back
    through the unit, so the case also checks the adjunction."""
    if kind[0] == "lambda":
        ext = sp.lambda_map(kind[1], kind[2], tower)
    else:
        _, m, n, kmake, lmake = kind
        K, L = kmake(), lmake()
        SXY = sp.smash_spectra(sp.free_F(m, K, 3, tower), sp.free_F(n, L, 3, tower))
        sm = sset.smash(K, L)
        ext = sp.smash_free_iso(SXY, sp.free_F(m + n, sm.space, 3, tower), sm)
    F = ext.source
    phi = ext.level(F.free_degree).compose(sp.free_unit_inclusion(F))
    return F, ext.target, phi, ext


ADJOINT_CASES = [("lambda", n, N) for N in range(1, 5) for n in range(N)] + [
    ("smash", m, n, kmake, lmake)
    for m in range(3)
    for n in range(3)
    if m + n <= 3
    for kmake in (sset.zero_sphere, sset.circle)
    for lmake in (sset.zero_sphere, sset.circle)
]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ADJOINT_CASES))
def test_free_extension_matches_its_summandwise_oracle(kind):
    F, Z, phi, ext = adjoint_case(kind, eq.SphereTower())
    assert sp.free_extension(F, Z, phi) == ext
    assert oracle.free_extension_summandwise(F, Z, phi) == ext


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(corpus.space_menu()) - 1), st.integers(0, 3), st.data())
def test_free_extension_of_the_unit_is_the_identity(index, N, data):
    r = data.draw(st.integers(0, N))
    F = sp.free_F(r, corpus.space_menu()[index], N, eq.SphereTower())
    assert sp.free_extension(F, F, sp.free_unit_inclusion(F)) == sp.identity_spectrum_map(F)


# ---------------------------------------------------------------------------
# mapping cylinder


def _cylinder_laws(f):
    Mf, i, r, s = sp.mapping_cylinder(f)
    assert r.compose(i) == f
    assert r.compose(s) == sp.identity_spectrum_map(f.target)
    assert i.is_monomorphism()
    assert i.validate() and r.validate() and s.validate()
    return Mf


def test_pushout_of_levelwise_maps_rejects_a_square_that_fails(tower):
    # G is the identity at level 0 and constant at level 1: not a spectrum
    # map, so the pushout's sigma cannot make the V square commute
    W = sp.free_F(0, sset.zero_sphere(), 1, tower)
    U = V = W
    F = sp.identity_spectrum_map(W)
    G = sp.SpectrumMap(
        W, V, [sset.identity_map(W.space(0)), sset.constant_map(W.space(1), V.space(1))]
    )
    P, _, _ = sp.pushout_spectrum(F, G)
    with pytest.raises(sset.IdentityError, match=r"g\(q\(c\)\) = f\(c\)") as info:
        P.sigma(0)
    # the failing cell is the non-base edge of S^1 ^ V_0, after S^1 ^ U_0's
    assert info.value.cell == 2


def test_cylinder_of_identity(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    _cylinder_laws(sp.identity_spectrum_map(X))


def test_cylinder_of_collapse(tower):
    X = sp.free_F(1, sset.circle(), 2, tower)
    P = sp.point_spectrum(2, tower)
    coll = sp.SpectrumMap(
        X, P, [sset.constant_map(X.space(n), P.space(n)) for n in range(3)]
    )
    _cylinder_laws(coll)


def test_cylinder_leg_of_lambda_zero_is_mono(tower):
    lam = sp.lambda_map(0, 2, tower)
    _, c0, _, _ = sp.mapping_cylinder(lam)
    assert c0.is_monomorphism()
    assert c0.validate()


# ---------------------------------------------------------------------------
# pushout product


def test_space_corner_of_boundary_squared(tower):
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    corner = sp.pushout_product(f, f)
    assert corner.is_valid()
    assert corner.is_monomorphism()
    img = {form[1] for form in corner.assign.values()}
    missed = sorted(
        corner.target.dim_of[c]
        for c in corner.target.cell_ids()
        if c not in img
    )
    # the diagonal edge and the two triangles of the square
    assert missed == [1, 2, 2]


def test_space_corner_with_the_two_point_unit(tower):
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    g = sset.constant_map(sset.point(), sset.zero_sphere())
    corner = sp.pushout_product(f, g)
    po = corner.corner_pushout
    back_u = sset.smash_runit(corner.corner_smashes["uy"])[1]
    back_v = sset.smash_runit(corner.corner_smashes["vy"])[1]
    assert corner.compose(po.leg2).compose(back_u) == back_v.compose(f)
    assert corner.is_monomorphism()


def test_spectrum_corner_of_the_cylinder_leg(tower):
    lam = sp.lambda_map(0, 2, tower)
    _, c0, _, _ = sp.mapping_cylinder(lam)
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    corner = sp.pushout_product(c0, f)
    assert corner.is_monomorphism()
    assert corner.validate()


def test_spectrum_corner_of_two_unit_inclusions_validates(tower):
    pt = sp.point_spectrum(2, tower)
    units = []
    for _ in range(2):
        F = sp.free_F(1, sset.zero_sphere(), 2, tower)
        f = sp.SpectrumMap(
            pt, F, [sset.constant_map(pt.space(n), F.space(n)) for n in range(3)]
        )
        assert f.validate()
        units.append(f)
    assert sp.pushout_product(*units).validate()


def test_spectrum_corner_with_the_two_point_unit(tower):
    lam = sp.lambda_map(0, 2, tower)
    _, c0, _, _ = sp.mapping_cylinder(lam)
    g = sset.constant_map(sset.point(), sset.zero_sphere())
    corner = sp.pushout_product(c0, g)
    leg2 = corner.corner_pushout.leg2
    back_u = sp.prolong_unit_iso(corner.corner_smashes["uy"])[1]
    back_v = sp.prolong_unit_iso(corner.corner_smashes["vy"])[1]
    assert corner.compose(leg2).compose(back_u) == back_v.compose(c0)


# ---------------------------------------------------------------------------
# generating sets


def test_boundary_generators_at_zero(tower):
    gens = sp.generating_sets("FI_boundary", 0, 0, tower=tower)
    assert len(gens) == 1
    f = gens[0]
    for n in range(f.source.bound + 1):
        assert sset.is_pointlike(f.source.space(n))
    assert f.is_monomorphism()


def test_boundary_generators_are_monomorphisms(tower):
    gens = sp.generating_sets("FI_boundary", 1, 2, tower=tower)
    assert len(gens) == 6
    assert all(g.is_monomorphism() for g in gens)


@pytest.mark.parametrize("N,R", [(0, 1), (1, 2), (2, 1)])
def test_horn_generator_count(tower, N, R):
    gens = sp.generating_sets("FI_horn", N, R, tower=tower)
    assert len(gens) == (N + 1) * sum(r + 1 for r in range(1, R + 1))


def test_cylinder_generating_set(tower):
    gens = sp.generating_sets("J_cylinder", 0, 1, tower=tower)
    horns = sp.generating_sets("FI_horn", 0, 1, tower=tower)
    assert len(gens) == len(horns) + 2
    for g in gens[len(horns):]:
        assert isinstance(g, sp.SpectrumMap)
        assert g.is_monomorphism()


def test_unknown_generating_set_kind(tower):
    with pytest.raises(ValueError):
        sp.generating_sets("nonsense", 0, 0, tower=tower)


# ---------------------------------------------------------------------------
# the sphere as a monoid


@pytest.fixture(scope="module")
def witness(tower):
    return sp.monoid_witness(sp.sphere_spectrum(4, tower))


def test_pairing_is_a_sequence_map(witness):
    assert witness.pairing_seq.validate()
    assert witness.unit_map.validate()


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pairing_matches_the_flattened_concatenation(N):
    witness = sp.monoid_witness(sp.sphere_spectrum(N, eq.SphereTower()))
    concat = oracle.sphere_pairing_by_concat(witness.sphere, witness.T)
    assert witness.pairing_seq == concat


def test_pairing_is_commutative_through_level_four(witness):
    tw = sq.twist_iso(witness.T, witness.T)
    assert witness.pairing_seq.compose(tw) == witness.pairing_seq


def test_pairing_unit_law(witness, tower):
    S = witness.sphere
    TU = sq.tensor(witness.unit_seq, S.seq)
    lhs = witness.pairing_seq.compose(
        sq.tensor_map(TU, witness.T, witness.unit_map, sq.identity_seq_map(S.seq))
    )
    assert lhs == sq.lunit_iso(TU)
