"""Core simplicial machinery against the dense-model oracle.

Expected counts and map enumerations below were computed by tests/oracle.py
(full simplex tables, no normal forms) and frozen.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import sset


def nonbase_counts(space):
    out = {}
    for k, ids in space.cells.items():
        n = len(ids) - (1 if k == 0 else 0)
        if n:
            out[k] = n
    return out


# --- word calculus against the dense model -------------------------------


def dense_of_form(D, n, form):
    """Interpret a normal form over Delta[n]+ as a dense-model label."""
    word, cell = form
    # package ids for delta_plus(n): 0 = base, then subsets by (len, tuple)
    subsets = []
    for k in range(n + 1):
        subsets.extend(itertools.combinations(range(n + 1), k + 1))
    label = oracle.BASE if cell == 0 else subsets[cell - 1]
    k = 0 if label == oracle.BASE else len(label) - 1
    for j in reversed(word):
        label = D.degen[(k, j)][label]
        k += 1
    return label


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_face_calculus_matches_dense_model(data):
    n = data.draw(st.integers(0, 3))
    A = sset.delta_plus(n)
    D = oracle.delta_dense(n, n + 4)
    k = data.draw(st.integers(1, n + 3))
    forms = A.forms(k)
    form = data.draw(st.sampled_from(forms))
    i = data.draw(st.integers(0, k))
    got = dense_of_form(D, n, A.face(i, form))
    want = D.face[(k, i)][dense_of_form(D, n, form)]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degeneracy_calculus_matches_dense_model(data):
    n = data.draw(st.integers(0, 3))
    A = sset.delta_plus(n)
    D = oracle.delta_dense(n, n + 5)
    k = data.draw(st.integers(0, n + 3))
    form = data.draw(st.sampled_from(A.forms(k)))
    j = data.draw(st.integers(0, k))
    got = dense_of_form(D, n, A.degenerate(j, form))
    want = D.degen[(k, j)][dense_of_form(D, n, form)]
    assert got == want


def test_degenerate_image_criterion():
    # s_U x lies in the image of s_j exactly when j is a letter of U
    A = sset.delta_plus(2)
    for k in range(1, 5):
        for form in A.forms(k):
            for j in range(k):
                in_image = form == A.degenerate(j, A.face(j, form))
                assert in_image == (j in form[0])


# --- standard spaces -------------------------------------------------------


def test_standard_spaces_validate():
    spaces = [
        sset.point(),
        sset.zero_sphere(),
        sset.circle(),
        sset.delta_plus(0),
        sset.delta_plus(1),
        sset.delta_plus(2),
        sset.delta_plus(3),
        sset.boundary_plus(1),
        sset.boundary_plus(2),
        sset.boundary_plus(3),
        sset.horn_plus(1, 0),
        sset.horn_plus(2, 0),
        sset.horn_plus(2, 1),
        sset.horn_plus(3, 2),
    ]
    for X in spaces:
        assert X.validate()


def reordered_triangle():
    """Delta[2]+ with the face list of its 2-simplex reversed."""
    D2 = sset.delta_plus(2)
    faces = dict(D2.faces)
    faces[7] = tuple(reversed(faces[7]))
    return sset.PointedSimplicialSet(D2.cells, faces, D2.basepoint)


def test_validate_names_the_failing_identity():
    with pytest.raises(sset.IdentityError) as info:
        reordered_triangle().validate()
    err = info.value
    assert (err.cell, err.identity) == (7, "d_0 d_1 = d_0 d_0")
    # d_1 of the reversed list is the edge (0, 2), d_0 the edge (0, 1)
    assert (err.lhs, err.rhs) == (((), 3), ((), 2))


def test_validate_checks_face_counts_forms_and_the_basepoint():
    D1 = sset.delta_plus(1)
    bad = [
        ({**D1.faces, 3: D1.faces[3][:1]}, 0, "a 1-cell has 2 faces"),
        ({**D1.faces, 3: (((0,), 1), ((), 2))}, 0, "d_0 has dimension 0"),
        ({**D1.faces, 1: (((), 2),)}, 0, "a vertex has no faces"),
        (D1.faces, 3, "the basepoint is a vertex"),
    ]
    for faces, base, identity in bad:
        X = sset.PointedSimplicialSet(D1.cells, faces, base)
        with pytest.raises(sset.IdentityError) as info:
            X.validate()
        assert info.value.identity == identity
    X = sset.PointedSimplicialSet(
        sset.delta_plus(2).cells,
        {**sset.delta_plus(2).faces, 7: (((), 6), ((), 5), ((0, 1), 1))},
        0,
    )
    with pytest.raises(sset.IdentityError, match=r"d_2 in normal form"):
        X.validate()


def test_validate_names_a_face_on_a_missing_cell():
    D1 = sset.delta_plus(1)
    X = sset.PointedSimplicialSet(
        D1.cells, {3: (((), 99), ((), 1))}, D1.basepoint
    )
    with pytest.raises(sset.IdentityError) as info:
        X.validate()
    err = info.value
    assert (err.cell, err.identity, err.lhs) == (3, "d_0 names a cell", ((), 99))
    # a positive-dimensional cell with no face table at all
    X = sset.PointedSimplicialSet(D1.cells, {}, D1.basepoint)
    with pytest.raises(sset.IdentityError, match="a 1-cell has 2 faces"):
        X.validate()


def test_standard_space_counts():
    assert nonbase_counts(sset.delta_plus(2)) == {0: 3, 1: 3, 2: 1}
    assert nonbase_counts(sset.boundary_plus(2)) == {0: 3, 1: 3}
    assert nonbase_counts(sset.horn_plus(2, 1)) == {0: 3, 1: 2}
    assert nonbase_counts(sset.circle()) == {1: 1}
    assert nonbase_counts(sset.zero_sphere()) == {0: 1}


# --- product ---------------------------------------------------------------


def test_product_circle_circle():
    pr = sset.product(sset.circle(), sset.circle())
    pr.space.validate()
    assert nonbase_counts(pr.space) == {1: 3, 2: 2}
    assert pr.proj1.is_valid() and pr.proj2.is_valid()


def test_product_counts_match_dense():
    cases = [
        (sset.delta_plus(1), sset.delta_plus(1), oracle.delta_dense(1, 4), oracle.delta_dense(1, 4)),
        (sset.delta_plus(2), sset.delta_plus(1), oracle.delta_dense(2, 5), oracle.delta_dense(1, 5)),
        (sset.circle(), sset.delta_plus(1), oracle.circle_dense(4), oracle.delta_dense(1, 4)),
    ]
    for A, B, DA, DB in cases:
        pr = sset.product(A, B)
        pr.space.validate()
        got = nonbase_counts(pr.space)
        want = oracle.product_dense(DA, DB).counts()
        # dense product tables stop at the cap; compare through the true top dim
        top = A.dim + B.dim
        assert {k: v for k, v in got.items() if k <= top} == want


def test_product_projections_are_product_cone():
    # cells of the product biject with pairs of equal-dimension forms
    A, B = sset.delta_plus(1), sset.circle()
    pr = sset.product(A, B)
    seen = set()
    for c in pr.space.cell_ids():
        fa, fb = pr.pair_of[c]
        assert pr.proj1.apply(((), c)) == fa
        assert pr.proj2.apply(((), c)) == fb
        assert not (set(fa[0]) & set(fb[0]))
        seen.add((fa, fb))
    assert len(seen) == len(list(pr.space.cell_ids()))


# --- smash -----------------------------------------------------------------


def test_smash_circle_circle():
    sm = sset.smash(sset.circle(), sset.circle())
    sm.space.validate()
    assert nonbase_counts(sm.space) == {1: 1, 2: 2}
    assert oracle.smash_quotient(sm).projection.is_valid()


def assert_smash_matches_collapsed_product(A, B):
    sm = sset.smash(A, B)
    quot, pair_rep = oracle.smash_by_quotient(A, B)
    assert sm.space.cells == quot.space.cells, (A, B)
    assert sm.space.faces == quot.space.faces, (A, B)
    assert sm.space.basepoint == quot.space.basepoint, (A, B)
    assert sm.pair_rep == pair_rep, (A, B)
    assert oracle.smash_quotient(sm).class_of == quot.class_of, (A, B)


def rebased(X, v):
    """X with the vertex v as its basepoint."""
    return sset.PointedSimplicialSet(X.cells, X.faces, v, name=f"{X.name}@{v}")


def test_direct_smash_matches_collapsed_product_on_library_spaces():
    spaces = corpus.space_menu() + [
        sset.sphere(3),
        sset.boundary_plus(3),
        sset.horn_plus(3, 0),
        # basepoints after other vertices in id order
        rebased(sset.zero_sphere(), 1),
        rebased(sset.delta_plus(1), 2),
    ]
    for A in spaces:
        for B in spaces:
            assert_smash_matches_collapsed_product(A, B)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_direct_smash_matches_collapsed_product_on_random_spaces(seed):
    r = random.Random(seed)
    A = corpus.random_subcomplex_inclusion(r, corpus.random_space(r)).source
    B = corpus.random_space(r)
    B = rebased(B, r.choice(B.cells[0]))
    assert_smash_matches_collapsed_product(A, B)


def test_smash_counts_match_dense():
    S1d = oracle.circle_dense(5)
    S2d = oracle.smash_dense(S1d, S1d)
    S1 = sset.circle()
    sm2 = sset.smash(S1, S1)
    assert nonbase_counts(sm2.space) == S2d.counts()
    sm3 = sset.smash(sm2.space, S1)
    assert nonbase_counts(sm3.space) == oracle.smash_dense(S2d, S1d).counts()
    assert nonbase_counts(sm3.space) == {1: 1, 2: 6, 3: 6}


def test_smash_unit_isos():
    S0 = sset.zero_sphere()
    B = sset.smash(sset.circle(), sset.circle()).space
    left = sset.smash(S0, B)
    to_B, from_B = sset.smash_lunit(left)
    assert to_B.is_valid() and from_B.is_valid()
    assert to_B.compose(from_B) == sset.identity_map(B)
    assert from_B.compose(to_B) == sset.identity_map(left.space)
    right = sset.smash(B, S0)
    to_B2, from_B2 = sset.smash_runit(right)
    assert to_B2.is_valid() and from_B2.is_valid()
    assert to_B2.compose(from_B2) == sset.identity_map(B)
    assert from_B2.compose(to_B2) == sset.identity_map(right.space)


def test_unit_isos_send_a_high_basepoint_to_the_base():
    # B's basepoint 1 is not its lowest vertex, so the wedge pair that
    # represents the smash's base vertex has B-coordinate ((), 0)
    B = sset.PointedSimplicialSet({0: (0, 1), 1: (2,)}, {2: (((), 0), ((), 1))}, 1)
    S0 = sset.zero_sphere()
    left, right = sset.smash(S0, B), sset.smash(B, S0)
    for sm, unit in ((left, sset.smash_lunit), (right, sset.smash_runit)):
        to_B, from_B = unit(sm)
        assert to_B.assign[sm.space.basepoint] == ((), 1)
        assert to_B.is_valid()
        assert to_B.compose(from_B) == sset.identity_map(B)
        assert from_B.compose(to_B) == sset.identity_map(sm.space)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_maps_out_of_a_smash_send_a_high_basepoint_to_the_base(seed):
    r = random.Random(seed)
    A, B = (corpus.relabelled(corpus.random_space(r, 3), r) for _ in range(2))
    f, g = r.choice(sset.all_maps(A, A)), r.choice(sset.all_maps(B, B))
    sm = sset.smash(A, B)
    got = sset.smash_map(sm, sm, f, g)
    assert got.assign[sm.space.basepoint] == ((), sm.space.basepoint)
    assert got == oracle.smash_map_cellwise(sm, sm, f, g)
    S0 = corpus.relabelled(sset.zero_sphere(), r)
    for to_A, _ in (sset.smash_lunit(sset.smash(S0, A)), sset.smash_runit(sset.smash(A, S0))):
        assert to_A.is_valid() and to_A.is_isomorphism()


def test_smash_swap_and_assoc_are_isos():
    A, B, C = sset.circle(), sset.zero_sphere(), sset.delta_plus(1)
    ab = sset.smash(A, B)
    ba = sset.smash(B, A)
    swap = sset.smash_swap(ab, ba)
    assert swap.is_valid() and swap.is_isomorphism()
    back = sset.smash_swap(ba, ab)
    assert back.compose(swap) == sset.identity_map(ab.space)

    ab_c = sset.smash(ab.space, C)
    bc = sset.smash(B, C)
    a_bc = sset.smash(A, bc.space)
    assoc = sset.smash_assoc(ab, ab_c, bc, a_bc)
    assert assoc.is_valid() and assoc.is_isomorphism()


# --- quotient and pushout --------------------------------------------------


def test_quotient_interval_by_boundary_is_circle():
    D1 = sset.delta_plus(1)
    B1 = sset.boundary_plus(1)
    incl = sset.all_maps(B1, D1)
    # the only monomorphisms send the two points to the two ends
    monos = [m for m in incl if m.is_monomorphism()]
    assert len(monos) == 2
    q = sset.quotient(D1, monos[0])
    q.space.validate()
    assert nonbase_counts(q.space) == {1: 1}
    iso = sset.find_isomorphism(q.space, sset.circle())
    assert iso is not None and iso.is_valid()


def test_quotient_collapse_whole_space_is_point():
    D2 = sset.delta_plus(2)
    q = sset.quotient(D2, sset.identity_map(D2))
    assert sset.is_pointlike(q.space)


def test_pushout_two_intervals_circle():
    # glue both endpoints of two intervals: a circle with two vertices
    D1a, D1b = sset.delta_plus(1), sset.delta_plus(1)
    B1 = sset.boundary_plus(1)
    f = [m for m in sset.all_maps(B1, D1a) if m.is_monomorphism()][0]
    g = [m for m in sset.all_maps(B1, D1b) if m.is_monomorphism()][0]
    po = sset.pushout(f, g)
    po.space.validate()
    assert po.leg1.is_valid() and po.leg2.is_valid()
    assert nonbase_counts(po.space) == {0: 2, 1: 2}
    assert po.leg1.compose(f) == po.leg2.compose(g)


def test_pushout_collapsing_leg():
    # pushing out along a collapse: Delta[2] with one edge crushed
    D2 = sset.delta_plus(2)
    D1 = sset.delta_plus(1)
    edge_maps = [m for m in sset.all_maps(D1, D2) if m.is_monomorphism()]
    assert len(edge_maps) == 3  # one per edge; vertex order is preserved
    incl = edge_maps[0]
    crush = sset.constant_map(D1, sset.point())
    po = sset.pushout(incl, crush)
    po.space.validate()
    assert po.leg1.compose(incl) == po.leg2.compose(crush)


def test_quotient_rejects_a_pair_of_unequal_dimension():
    # the vertex 1 and the edge 3 of Delta[1]+
    with pytest.raises(sset.IdentityError) as info:
        sset.quotient_by_pairs(sset.delta_plus(1), [(((), 1), ((), 3))])
    err = info.value
    assert (err.cell, err.lhs, err.rhs) == (((), 1), 0, 1)


def test_preconditions_survive_optimized_mode():
    # without its checks, -O let the unequal pair through to a bare KeyError
    src = os.path.dirname(os.path.dirname(sset.__file__))
    script = (
        "import symspec.sset as sset\n"
        "D1 = sset.delta_plus(1)\n"
        "calls = [\n"
        "    lambda: sset.quotient_by_pairs(D1, [(((), 1), ((), 3))]),\n"
        "    lambda: sset.quotient(D1, sset.constant_map(D1, D1)),\n"
        "    lambda: sset.identity_map(D1).compose(sset.identity_map(sset.circle())),\n"
        "    lambda: sset.sphere(-1),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except (sset.IdentityError, sset.PreconditionError) as exc:\n"
        "        print(type(exc).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["IdentityError"] + ["PreconditionError"] * 3


def test_quotient_names_a_form_on_a_missing_cell():
    pair = (((), 1), ((), 99))
    with pytest.raises(sset.PreconditionError, match=r"names 99, not a cell") as info:
        sset.quotient_by_pairs(sset.delta_plus(1), [pair])
    assert repr(pair) in str(info.value)


def test_precondition_errors_are_also_assertion_errors():
    with pytest.raises(AssertionError, match="no horn"):
        sset.horn_plus(2, 3)
    with pytest.raises(ValueError, match="common source"):
        sset.pushout(sset.identity_map(sset.circle()), sset.identity_map(sset.circle()))


# --- maps out of quotients and pushouts ------------------------------------


def interval_mod_ends():
    D1 = sset.delta_plus(1)
    ends = sset.subset_inclusion(sset.boundary_plus(1), D1)
    return D1, sset.quotient(D1, ends)


def test_descend_names_the_cell_where_the_fibre_splits():
    D1, q = interval_mod_ends()
    with pytest.raises(sset.IdentityError) as info:
        sset.descend(q.projection, sset.identity_map(D1))
    err = info.value
    # both ends fall onto the basepoint, which lifts to the base of D1,
    # so the first end (vertex 0, cell 1) is where f is not constant
    assert (err.cell, err.lhs, err.rhs) == (1, ((), 0), ((), 1))
    assert str(err) == "cell 1: g(q(c)) = f(c) fails, ((), 0) != ((), 1)"


def test_descend_is_the_identity_on_the_quotient():
    D1, q = interval_mod_ends()
    g = sset.descend(q.projection, q.projection)
    assert g == sset.identity_map(q.space)
    assert sset.descend(q.projection, sset.identity_map(D1), q.projection) == g


def test_descend_error_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(sset.__file__))
    script = (
        "import symspec.sset as sset\n"
        "D1 = sset.delta_plus(1)\n"
        "ends = sset.subset_inclusion(sset.boundary_plus(1), D1)\n"
        "q = sset.quotient(D1, ends).projection\n"
        "try:\n"
        "    sset.descend(q, sset.identity_map(D1))\n"
        "except sset.IdentityError as exc:\n"
        "    print('rejected:', exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: cell 1: g(q(c)) = f(c) fails, ((), 0) != ((), 1)\n"


def test_first_preimages_are_computed_once_per_map():
    _, q = interval_mod_ends()
    lift = sset.first_preimages(q.projection)
    assert lift == {0: 0, 1: 3}
    assert sset.first_preimages(q.projection) is lift


def test_maps_out_of_a_pushout_need_one_target():
    D1 = sset.delta_plus(1)
    po = sset.pushout(*[sset.subset_inclusion(sset.boundary_plus(1), D1)] * 2)
    with pytest.raises(ValueError, match="one common target"):
        sset.map_out_of_pushout(
            po, sset.identity_map(D1), sset.identity_map(sset.delta_plus(1))
        )


def _maps_or_none(A, Z, budget):
    try:
        return sset.all_maps(A, Z, budget)
    except sset.BudgetExceeded:
        return None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_maps_out_of_random_pushouts(seed):
    """The pushout helper inverts (h . leg1, h . leg2) for every h: P -> Z,
    agrees with the cell-by-cell oracle, and rejects every pair of maps
    that disagree on the glued part."""
    r = random.Random(seed)
    f = corpus.random_subcomplex_inclusion(r, corpus.random_space(r, 3))
    g = r.choice(sset.all_maps(f.source, corpus.random_space(r, 3)))
    po = sset.pushout(f, g)
    Z = corpus.random_space(r, 3)
    budget = sset.Budget(20000)
    outs = [_maps_or_none(X, Z, budget) for X in (po.space, f.target, g.target)]
    if None in outs:
        return
    maps_p, maps_b, maps_c = outs
    for h in maps_p:
        assert sset.map_out_of_pushout(po, h.compose(po.leg1), h.compose(po.leg2)) == h
    glued = set()
    for u in r.sample(maps_b, min(len(maps_b), 12)):
        for v in r.sample(maps_c, min(len(maps_c), 12)):
            if u.compose(f) == v.compose(g):
                h = sset.map_out_of_pushout(po, u, v)
                assert h.compose(po.leg1) == u and h.compose(po.leg2) == v
                assert h.assign == oracle.map_out_of_pushout(po, u, v).assign
                glued.add(h)
            else:
                with pytest.raises(sset.IdentityError):
                    sset.map_out_of_pushout(po, u, v)
    # every map out of the pushout that was glued is one the search found
    assert glued <= set(maps_p)


# --- map enumeration -------------------------------------------------------


def test_all_maps_counts():
    S1 = sset.circle()
    S0 = sset.zero_sphere()
    assert len(sset.all_maps(sset.delta_plus(1), S1)) == 2
    assert len(sset.all_maps(S0, S0)) == 2
    assert len(sset.all_maps(S1, S1)) == 2
    assert len(sset.all_maps(S1, sset.point())) == 1
    for m in sset.all_maps(sset.delta_plus(1), S1):
        assert m.is_valid()


def test_all_maps_counts_match_dense():
    pairs = [
        (sset.delta_plus(1), sset.circle(), oracle.delta_dense(1, 3), oracle.circle_dense(3), 2),
        (sset.boundary_plus(2), sset.circle(), oracle.subspace_dense(oracle.delta_dense(2, 3), lambda k, x: len(set(x)) <= 2), oracle.circle_dense(3), 3),
    ]
    for A, X, DA, DX, cap in pairs:
        got = len(sset.all_maps(A, X))
        want = oracle.all_maps_dense(DA, DX, cap)
        assert got == want


def test_all_maps_budget():
    with pytest.raises(RuntimeError):
        sset.all_maps(sset.boundary_plus(2), sset.delta_plus(2), sset.Budget(3))


def test_monomorphism_detection():
    D1, S1 = sset.delta_plus(1), sset.circle()
    maps = sset.all_maps(D1, S1)
    # the collapse is not mono, the edge embedding is not mono either
    # (both endpoints land on the same vertex)
    assert [m.is_monomorphism() for m in maps] == [False, False]
    B1 = sset.boundary_plus(1)
    incl = [m for m in sset.all_maps(B1, D1) if m.is_monomorphism()]
    assert len(incl) == 2


# --- quotient engine, randomized -------------------------------------------


@st.composite
def random_two_dim_space(draw):
    """A small random pointed graph: a vertex pool plus random edges."""
    nv = draw(st.integers(1, 3))
    ne = draw(st.integers(0, 4))
    cells = {0: tuple(range(nv))}
    faces = {}
    edges = []
    for e in range(nv, nv + ne):
        a = draw(st.integers(0, nv - 1))
        b = draw(st.integers(0, nv - 1))
        faces[e] = (((), a), ((), b))
        edges.append(e)
    if edges:
        cells[1] = tuple(edges)
    space = sset.PointedSimplicialSet(cells, faces, 0)
    space.validate()
    return space


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_edge_identifications_validate(data):
    space = data.draw(random_two_dim_space())
    forms1 = [f for f in space.forms(1)]
    n = data.draw(st.integers(0, 3))
    pairs = [
        (data.draw(st.sampled_from(forms1)), data.draw(st.sampled_from(forms1)))
        for _ in range(n)
    ]
    q = sset.quotient_by_pairs(space, pairs)
    assert q.space.validate()
    assert q.projection.is_valid()
    for a, b in pairs:
        assert q.projection.apply(a) == q.projection.apply(b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_collapse_matches_dense(data):
    # collapse a random set of edges of Delta[2] x Delta[1] and compare counts
    A = sset.delta_plus(2)
    B = sset.delta_plus(1)
    pr = sset.product(A, B)
    edges = [c for c in pr.space.cells[1]]
    chosen = data.draw(st.sets(st.sampled_from(edges), max_size=2))
    # close the chosen edges into a subcomplex: add their endpoints
    collapse = set()
    for e in sorted(chosen):
        collapse.add((1, e))
        for i in range(2):
            w, t = pr.space.face(i, ((), e))
            collapse.add((0, t))
    pairs = []
    for k, c in sorted(collapse):
        pairs.append((((), c), pr.space.base(k)))
    q = sset.quotient_by_pairs(pr.space, pairs)
    assert q.space.validate()
    assert q.projection.is_valid()

    DA, DB = oracle.delta_dense(2, 4), oracle.delta_dense(1, 4)
    DP = oracle.product_dense(DA, DB)
    # name the chosen edges in the dense model through the pair bookkeeping
    def dense_label(k, c):
        fa, fb = pr.pair_of[c]
        da = dense_of_form(DA, 2, fa)
        db = dense_of_form(DB, 1, fb)
        if da == oracle.BASE and db == oracle.BASE:
            return oracle.BASE
        return (da, db)

    hits = {(k, dense_label(k, c)) for k, c in collapse}
    for k in range(DP.cap):
        for kk, x in sorted(hits, key=repr):
            if kk == k:
                for j in range(k + 1):
                    hits.add((k + 1, DP.degen[(k, j)][x]))
    DQ = oracle.collapse_dense(DP, lambda k, x: (k, x) in hits)
    got = {k: v for k, v in nonbase_counts(q.space).items() if k <= 3}
    assert got == DQ.counts()


@st.composite
def closure_input(draw):
    """A random space or product of two, and random pairs of equal-dimension
    forms; one in three pairs is drawn among the degenerate forms."""
    r = random.Random(draw(st.integers(0, 2**32)))
    X = corpus.random_space(r)
    if draw(st.booleans()):
        X = sset.product(X, corpus.random_space(r, 3)).space
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        forms = X.forms(draw(st.integers(0, X.dim + 1)))
        if draw(st.integers(0, 2)) == 0:
            forms = [f for f in forms if f[0]] or forms
        pairs.append((draw(st.sampled_from(forms)), draw(st.sampled_from(forms))))
    return X, pairs


@settings(max_examples=200, deadline=None)
@given(closure_input(), st.data())
def test_closure_matches_the_worklist_oracle_in_any_order(case, data):
    X, pairs = case
    want = oracle.quotient_by_pairs_worklist(X, pairs)
    for order in (pairs, data.draw(st.permutations(pairs))):
        got = sset.quotient_by_pairs(X, order)
        assert got.space.cells == want.space.cells
        assert got.space.faces == want.space.faces
        assert got.space.basepoint == want.space.basepoint
        assert got.class_of == want.class_of


def test_sphere_cell_counts():
    s0 = sset.sphere(0)
    assert s0.n_cells(0) == 2
    s1 = sset.sphere(1)
    assert s1.n_cells(0) == 1 and s1.n_cells(1) == 1
    s2 = sset.sphere(2)
    counts = {
        k: len([c for c in s2.cells[k] if c != s2.basepoint])
        for k in s2.cells
        if k
    }
    assert counts == {1: 1, 2: 2}


def test_interval_plus_is_the_one_simplex():
    iv = sset.interval_plus()
    assert iv.subset_ids == sset.delta_plus(1).subset_ids
    assert sset.find_isomorphism(iv, sset.delta_plus(1)) is not None
