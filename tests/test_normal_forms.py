"""The smash of an S-cofibrant left factor is built from normal forms.

When every latching comparison L_pX -> X_p is injective, each class of
X (x) Y under the bimorphism relations holds exactly one normal cell: a
tensor cell whose X-coordinate has its root cell off L_pX.
``SmashSpectrum`` then builds each level from the normal cells in tensor
(dim, id) order, rewrites a face whose X-coordinate lies in L_pX through
X's latching normal form, and builds no tensor, pairs or closure until a
map out of X (x) Y is read.  The quotient path stays for every other left
factor and is the oracle here (``oracle.quotient_smash``): cells, faces,
basepoints, projections, generators, sigma and the descended latching
comparison must agree exactly.  The bound-4 outputs the benchmark does not
run are frozen by their stdout hashes.
"""

import contextlib
import hashlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import cli
from symspec import equivariant as eq
from symspec import jsonio
from symspec import spectra as sp
from symspec import sset
from symspec import symseq as sq

BOUND = 3


def constant_spectrum_map(A, B):
    return sp.SpectrumMap(
        A, B, [sset.constant_map(A.space(n), B.space(n)) for n in range(A.bound + 1)]
    )


def cone(f):
    """The mapping cone of f: its mapping cylinder with the end X collapsed."""
    _, i, _, _ = sp.mapping_cylinder(f)
    P = sp.point_spectrum(i.source.bound, i.source.tower)
    C, _, _ = sp.pushout_spectrum(i, constant_spectrum_map(i.source, P), name=f"C({f.source.name})")
    return C


_POOL = {}


def pool():
    """(tower, left factors, right factors), built once.

    The left factors are the valid S-cofibrant members of the corpus, the
    mapping cylinder of lambda_0 and the cones of lambda_0 and lambda_1,
    whose cells at level 1 and 2 have faces in the latching object; the
    right factors add the valid members that are not S-cofibrant."""
    if not _POOL:
        tower = eq.SphereTower()
        valid = [X for X in corpus.spectrum_corpus(tower, BOUND) if sp.validate_spectrum(X)["ok"]]
        lam0, lam1 = sp.lambda_map(0, BOUND, tower), sp.lambda_map(1, BOUND, tower)
        made = [sp.mapping_cylinder(lam0)[0], cone(lam0), cone(lam1)]
        left = [X for X in valid if X.latching_forms is not None] + made
        _POOL.update(tower=tower, left=left, right=valid + made)
        _POOL["quotient"] = [sp.bar_sphere(BOUND, tower), corpus.trivial_action_spectrum(tower, BOUND)]
    return _POOL["tower"], _POOL["left"], _POOL["right"]


def random_free(tower, seed):
    r = random.Random(seed)
    return sp.free_F(r.randint(0, 2), corpus.random_space(r, 3), BOUND, tower)


def factor(kind, k, side):
    tower, left, right = pool()
    if kind == "free":
        return random_free(tower, k)
    if kind == "quotient":
        return _POOL["quotient"][k % 2]
    spectra = left if side == "left" else right
    return spectra[k % len(spectra)]


def assert_same_smash(new, old, where):
    assert new._forms is not None and old._forms is None, where
    for n in range(new.bound + 1):
        a, b = new.space(n), old.space(n)
        assert (a.cells, a.faces, a.basepoint) == (b.cells, b.faces, b.basepoint), (where, n)
        assert new.quotients[n].class_of == old.quotients[n].class_of, (where, n)
        assert [g.assign for g in new.level(n).generators] == [
            g.assign for g in old.level(n).generators
        ], (where, n)
    for n in range(new.bound):
        assert new.sigma(n).assign == old.sigma(n).assign, (where, n)


cases = st.tuples(st.sampled_from(["pool", "free"]), st.integers(min_value=0, max_value=10**6))

# left factors on either path: S-cofibrant ones, and Sbar and the
# trivial-action spectrum, which are not
either = st.tuples(
    st.sampled_from(["pool", "free", "quotient"]), st.integers(min_value=0, max_value=10**6)
)


@settings(max_examples=40, deadline=None)
@given(cases, cases)
def test_the_normal_path_matches_the_quotient_path(left, right):
    X, Y = factor(*left, "left"), factor(*right, "right")
    assert X.latching_forms is not None, X.name
    assert_same_smash(sp.smash_spectra(X, Y), oracle.quotient_smash(X, Y), (X.name, Y.name))


@settings(max_examples=20, deadline=None)
@given(cases)
def test_the_latching_comparison_descends_alike_on_both_paths(left):
    X = factor(*left, "left")
    bar = sp.bar_sphere(X.bound, X.tower)
    new, old = sp.smash_spectra(X, bar), oracle.quotient_smash(X, bar)
    assert_same_smash(new, old, X.name)
    maps = [S.descend(X.latching_action, X) for S in (new, old)]
    assert [c.assign for c in maps[0].components] == [c.assign for c in maps[1].components]


def assert_same_components(new, old, where):
    assert type(new) is sp.SpectrumMap and new.source is old.source, where
    assert new.target is old.target, where
    assert [c.assign for c in new.components] == [c.assign for c in old.components], where


@settings(max_examples=20, deadline=None)
@given(either)
def test_the_latching_comparison_descends_as_through_the_tensor(left):
    X = factor(*left, "left")
    XB = sp.smash_spectra(X, sp.bar_sphere(X.bound, X.tower))
    new = XB.descend(X.latching_action, X)
    old = oracle.descend_through_tensor(XB, XB.T.map_out(X, X.latching_action), X)
    assert_same_components(new, old, X.name)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), either)
def test_a_smash_of_maps_descends_as_through_the_tensor(seed, other):
    tower, _, _ = pool()
    f = corpus.random_stable_cofibration(random.Random(seed), tower, BOUND)
    z = sp.identity_spectrum_map(factor(*other, "left"))
    for a, b in ((f, z), (z, f)):
        src = sp.smash_spectra(a.source, b.source)
        tgt = sp.smash_spectra(a.target, b.target)
        new = sp.smash_map_spectra(src, tgt, a, b)
        tm = sq.tensor_map(src.T, tgt.T, a, b)
        old = oracle.descend_through_tensor(src, tm, tgt, then=tgt.proj_seq)
        assert_same_components(new, old, (seed, src.name, tgt.name))


@settings(max_examples=20, deadline=None)
@given(either, either)
def test_the_unit_and_twist_descend_as_through_the_tensor(left, right):
    X, Y = factor(*left, "left"), factor(*right, "left")
    SX = sp.smash_spectra(sp.sphere_spectrum(X.bound, X.tower), X)
    fwd, inv = sp.smash_unit_iso(SX)
    lam = sp.left_action_map(X, SX.T)
    assert_same_components(fwd, oracle.descend_through_tensor(SX, lam, X), X.name)
    assert_same_components(inv, oracle.smash_unit_inverse_through_tensor(SX), X.name)
    XY, YX = sp.smash_spectra(X, Y), sp.smash_spectra(Y, X)
    tw = sq.twist_iso(XY.T, YX.T)
    old = oracle.descend_through_tensor(XY, tw, YX, then=YX.proj_seq)
    assert_same_components(sp.smash_comm_iso(XY, YX), old, (X.name, Y.name))


def test_the_cones_rewrite_faces_through_the_latching_normal_form():
    # a cell off L_pC with a face in L_pC: the smash must rewrite that face
    _, left, _ = pool()
    for C in left[-2:]:
        forms = C.latching_forms
        crossing = [
            (p, c)
            for p in range(C.bound + 1)
            for c, row in C.space(p).faces.items()
            if c not in forms[p] and any(f[1] in forms[p] for f in row)
        ]
        assert crossing, C.name


def test_a_left_factor_that_is_not_s_cofibrant_takes_the_quotient_path():
    tower = eq.SphereTower()
    Y = sp.free_F(0, sset.circle(), BOUND, tower)
    for X in (corpus.trivial_action_spectrum(tower, BOUND), sp.bar_sphere(BOUND, tower)):
        assert X.latching_forms is None, X.name
        XY = sp.smash_spectra(X, Y)
        assert {"T", "pairs", "quotients"} <= set(vars(XY)), X.name
        assert XY._forms is None
    YY = sp.smash_spectra(Y, Y)
    assert Y.latching_forms is not None
    assert not {"T", "pairs", "quotients"} & set(vars(YY))


def test_a_plain_smash_builds_no_tensor_pairs_or_closure(monkeypatch):
    tower = eq.SphereTower()
    X, Y = sp.free_F(1, sset.circle(), BOUND, tower), sp.free_F(0, sset.circle(), BOUND, tower)
    built = {"tensor": 0, "closure": 0}
    tensor_init, closure = sq.TensorSequence.__init__, sset.quotient_by_pairs

    def counting_tensor(self, *args, **kwargs):
        built["tensor"] += 1
        tensor_init(self, *args, **kwargs)

    def counting_closure(*args, **kwargs):
        built["closure"] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(sq.TensorSequence, "__init__", counting_tensor)
    monkeypatch.setattr(sset, "quotient_by_pairs", counting_closure)
    XY = sp.smash_spectra(X, Y)
    assert jsonio.dump_spectrum(XY)["type"] == "spectrum"
    assert built == {"tensor": 0, "closure": 0}
    assert not {"T", "pairs", "quotients"} & set(vars(XY))
    XY.quotients  # the projection: one tensor and its normal forms, no closure
    assert built == {"tensor": 1, "closure": 0}


def test_the_normal_path_checks_its_generators():
    # the face rewrite of the cone moves circles onto Y by Y.left_action,
    # which a sigma twisted by a transposition does not commute with; the
    # generators read on the normal cells then fail SimplicialMap.failure
    tower, left, _ = pool()
    XY = sp.smash_spectra(left[-2], corpus.broken_equivariance_spectrum(tower, BOUND))
    assert XY._forms is not None
    with pytest.raises(sset.IdentityError, match=r"t_0: f\(d_\d c\) = d_\d f\(c\)"):
        for n in range(XY.bound + 1):
            XY.level(n).generators


def test_a_map_out_of_the_tensor_still_descends_with_every_cell_checked():
    # the identity of X (x) Y into the tensor breaks the relations, which
    # only the cells off the normal ones (the chosen preimages) can show
    F = sp.free_F(0, sset.circle(), 2)
    for XY in (sp.smash_spectra(F, F), oracle.quotient_smash(F, F)):
        T = XY.T

        def identity(n, p, q, mu):
            return lambda fx, fy: T.include(n, p, q, mu, T.smashes[(p, q)].form_of_pair(fx, fy))

        with pytest.raises(sset.IdentityError, match=r"g\(q\(c\)\) = f\(c\)"):
            XY.descend(identity, T)


@settings(max_examples=20, deadline=None)
@given(cases)
def test_descend_on_coordinate_pairs_matches_the_check_on_built_copies(left):
    X = factor(*left, "left")
    XB = sp.smash_spectra(X, sp.bar_sphere(X.bound, X.tower))
    SX = sp.smash_spectra(sp.sphere_spectrum(X.bound, X.tower), X)
    for S, summand in ((XB, X.latching_action), (SX, X.left_action)):
        new = S.descend(summand, X)
        old = oracle.descend_checking_built_copies(S, summand, X)
        assert_same_components(new, old, (X.name, S.name))


def test_a_mismatch_on_a_copy_with_no_normal_cell_names_the_same_cell():
    # every cell of (F_0S^2)_1 lies in L_1, so the (1, 1) copies of level 2
    # of F_0S^2 ^ Sbar hold no normal cell: descend reads their pairs alone
    # and builds their smash only to name the failing cell
    tower = eq.SphereTower()
    X = sp.free_F(0, sset.sphere(2), 2, tower)

    def corrupted(n, p, q, mu):
        f = X.latching_action(n, p, q, mu)
        if (n, p) != (2, 1):
            return f
        return lambda fx, fs: sset.base_form(X.space(n).basepoint, X.space(p).form_dim(fx))

    XB = sp.smash_spectra(X, sp.bar_sphere(2, tower))
    assert all(p != 1 for p, _, _ in XB._cells[2])
    with pytest.raises(sset.IdentityError, match=r"g\(q\(c\)\) = f\(c\)") as new:
        XB.descend(corrupted, X)
    with pytest.raises(sset.IdentityError) as old:
        oracle.descend_checking_built_copies(XB, corrupted, X)
    new, old = new.value, old.value
    assert new.cell[0] == (1, 1, (0,)), new.cell
    assert (new.cell, new.identity, new.lhs, new.rhs) == (old.cell, old.identity, old.lhs, old.rhs)
    assert str(new) == str(old)


# the stdout of two bound-4 commands, recorded before the normal path
BOUND_FOUR = {
    "smash free:0:sphere1 free:0:sphere1 --bound 4": (
        939292,
        "887a5204ac41e870d96f0bf026f9253ae7e6c2f1270df3442591bf23ba7f6565",
    ),
    "cofibration free:0:sphere2 --bound 4": (
        443,
        "9f4f32119f3ab1ec34886aff270af9c742f76c1070faabf0cf350b200d0b3bfd",
    ),
}


@pytest.mark.parametrize("command", sorted(BOUND_FOUR))
def test_bound_four_outputs_keep_their_bytes(monkeypatch, command):
    for name in ("SYMSPEC_BOUND", "SYMSPEC_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    text = out.getvalue().encode("utf-8")
    assert code == 0
    assert (len(text), hashlib.sha256(text).hexdigest()) == BOUND_FOUR[command]
