"""Integer homology engine: normal forms, kernels, groups, induced maps."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import symspec.equivariant as eq
import symspec.homology as hl
import symspec.spectra as sp
import symspec.sset as sset

import corpus
import oracle


def Z(rank=1, torsion=()):
    return hl.HomologyGroup(rank, torsion)


def dense_from_sparse(cols, rows):
    out = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i][j] = v
    return out


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_example():
    res = hl.smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal == [2, 4]


def test_snf_reconstruction_on_example():
    M = [[2, 4], [6, 8]]
    res = hl.smith_normal_form(M)
    assert hl.mat_eq(hl.mat_mul(hl.mat_mul(res.U, M), res.V), res.D)
    assert hl.mat_eq(hl.mat_mul(res.U, res.U_inv), hl.identity_matrix(2))
    assert hl.mat_eq(hl.mat_mul(res.V, res.V_inv), hl.identity_matrix(2))


def test_snf_zero_and_identity():
    assert hl.smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]
    assert hl.smith_normal_form(hl.identity_matrix(3)).diagonal == [1, 1, 1]
    assert hl.smith_normal_form([]).diagonal == []


def test_snf_single_negative_entry():
    res = hl.smith_normal_form([[-6]])
    assert res.diagonal == [6]
    assert hl.mat_eq(hl.mat_mul(hl.mat_mul(res.U, [[-6]]), res.V), res.D)


def test_snf_is_deterministic():
    M = [[4, 6, 2], [2, 8, 10], [0, 4, 4]]
    a = hl.smith_normal_form(M)
    b = hl.smith_normal_form(M)
    assert a.D == b.D and a.U == b.U and a.V == b.V


EDGE_MATRICES = [[], [[]], [[0, 0, 0], [0, 0, 0]], [[4, 6, 10]], [[0, -3, 0, 9]]]


def test_snf_edge_cases_rebuild_v_from_the_recorded_columns():
    for M in EDGE_MATRICES:
        m, n = len(M), len(M[0]) if M else 0
        v_first = hl.smith_normal_form(M)
        V, V_inv = v_first.V, v_first.V_inv
        assert v_first.V is V and v_first.V_inv is V_inv
        u_first = hl.smith_normal_form(M)
        U = u_first.U
        assert (u_first.V, u_first.V_inv, u_first.V) == (V, V_inv, V)
        assert (v_first.D, v_first.U, v_first.U_inv) == (u_first.D, U, u_first.U_inv)
        assert hl.mat_mul(hl.mat_mul(U, M), V) == v_first.D, M
        assert hl.mat_mul(V, V_inv) == hl.identity_matrix(n), M
        assert hl.mat_mul(U, u_first.U_inv) == hl.identity_matrix(m), M
        old = oracle.smith_normal_form_full_scan(M)
        assert (old.D, old.U, old.V, old.U_inv, old.V_inv) == (
            v_first.D, U, V, v_first.U_inv, V_inv
        ), M


def test_snf_edge_case_shapes():
    assert hl.smith_normal_form([]).V == []
    res = hl.smith_normal_form([[]])
    assert (res.D, res.U, res.V, res.V_inv, res.diagonal) == ([[]], [[1]], [], [], [])
    zero = hl.smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert zero.V == hl.identity_matrix(3) and zero.rank == 0
    row = hl.smith_normal_form([[4, 6, 10]])
    assert row.diagonal == [2] and row.D == [[2, 0, 0]]


matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0 if r == 0 else 1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(deadline=None, max_examples=60)
@given(matrices)
def test_snf_reconstruction_random(M):
    res = hl.smith_normal_form(M)
    assert hl.mat_eq(hl.mat_mul(hl.mat_mul(res.U, M), res.V), res.D)
    diag = res.diagonal
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i, row in enumerate(res.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    # invariant factors agree with an independent implementation
    assert [d for d in diag if d] == oracle.snf_divisors(M)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_snf_preserves_determinant_magnitude(M):
    res = hl.smith_normal_form(M)
    det = sympy.Matrix(M).det()
    prod = 1
    for d in res.diagonal:
        prod *= d
    assert abs(det) == abs(prod)
    assert abs(sympy.Matrix(res.U).det()) == 1
    assert abs(sympy.Matrix(res.V).det()) == 1


# ---------------------------------------------------------------------------
# integer kernels


def test_kernel_of_zero_and_injective_maps():
    kernel, rank = hl.kernel_of_columns([{}, {}, {}])
    assert rank == 0 and len(kernel) == 3
    kernel, rank = hl.kernel_of_columns([{0: 1}, {1: 1}])
    assert rank == 2 and kernel == []


@settings(deadline=None, max_examples=40)
@given(matrices)
def test_kernel_spans_the_full_kernel_lattice(M):
    rows = len(M)
    cols_n = len(M[0]) if M else 0
    cols = [
        {i: M[i][j] for i in range(rows) if M[i][j]} for j in range(cols_n)
    ]
    kernel, rank = hl.kernel_of_columns(cols)
    assert rank + len(kernel) == cols_n
    sym = sympy.Matrix(rows, cols_n, lambda i, j: M[i][j])
    assert rank == sym.rank()
    for vec in kernel:
        image = {}
        for j, v in vec.items():
            for i, a in cols[j].items():
                image[i] = image.get(i, 0) + v * a
        assert not any(image.values())
    if kernel:
        K = sympy.Matrix(
            cols_n, len(kernel), lambda i, j: kernel[j].get(i, 0)
        )
        assert K.rank() == len(kernel)
        # primitive basis: the lattice it spans is a direct summand
        snf = oracle.snf_divisors(K.tolist())
        assert all(d == 1 for d in snf)


def test_kernel_solver_rejects_non_cycles():
    C = hl.normalized_chains(sset.sphere(2))
    data = C.degree_data(1)
    with pytest.raises(ValueError, match="chain is not a cycle"):
        # the lone 1-cell of S^2 is not a cycle there? it is; feed garbage
        data.solver.solve({0: 1, 99: 5})


def test_class_of_rejects_non_cycle():
    D2 = sset.delta_plus(2)
    C = hl.normalized_chains(D2)
    data = C.degree_data(1)
    # a single edge of the 2-simplex has nonzero boundary
    with pytest.raises(ValueError, match="chain is not a cycle"):
        data.class_of({0: 1})


# ---------------------------------------------------------------------------
# homology groups


def test_homology_group_invariants():
    g = Z(2, (2, 4))
    assert g.to_json() == {"rank": 2, "torsion": [2, 4]}
    assert not g.is_zero
    assert Z(0).is_zero
    with pytest.raises(AssertionError):
        hl.HomologyGroup(1, (3, 2))


def test_circle_chain_complex():
    C = hl.normalized_chains(sset.circle())
    assert C.rank(0) == 0 and C.rank(1) == 1
    assert C.boundary_matrix(1) == [[]] or C.boundary_columns(1) == [{}]
    assert hl.homology(C, 1) == Z()
    assert hl.homology(C, 0) == Z(0)
    assert C.validate()


def test_two_sphere_chain_complex():
    C = hl.normalized_chains(sset.sphere(2))
    assert C.rank(1) == 1 and C.rank(2) == 2
    assert C.boundary_matrix(2) == [[-1, -1]]
    assert hl.homology(C, 2) == Z()
    assert hl.homology(C, 1) == Z(0)
    assert C.validate()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sphere_homology_concentrated_in_top_degree(n):
    C = hl.normalized_chains(sset.sphere(n))
    for k in range(n + 2):
        assert hl.homology(C, k) == (Z() if k == n else Z(0))


def test_simplex_homology_vanishes():
    for n in (1, 2, 3):
        C = hl.normalized_chains(sset.delta_plus(n))
        assert C.validate()
        assert hl.homology(C, 0) == Z()
        for k in range(1, n + 1):
            assert hl.homology(C, k) == Z(0)


def test_wedge_homology_adds_up():
    # three 2-spheres: one class each
    w = sset.wedge([sset.sphere(2) for _ in range(3)])
    C = hl.normalized_chains(w.space)
    assert hl.homology(C, 2) == Z(3)
    assert hl.homology(C, 1) == Z(0)


def test_homology_against_dense_oracle():
    cap = 4
    pairs = [
        (sset.circle(), oracle.circle_dense(cap)),
        (sset.sphere(2), oracle.smash_dense(
            oracle.circle_dense(cap), oracle.circle_dense(cap))),
        (sset.delta_plus(2), oracle.delta_dense(2, cap)),
        (sset.boundary_plus(2), oracle.subspace_dense(
            oracle.delta_dense(2, cap), lambda k, x: len(set(x)) <= 2)),
    ]
    for space, dense in pairs:
        C = hl.normalized_chains(space)
        for k in range(3):
            betti, torsion = oracle.homology_dense(dense, k)
            g = hl.homology(C, k)
            assert g.free_rank == betti and list(g.torsion) == torsion


def test_homology_route_against_direct_snf():
    """Kernel-coordinates route vs textbook rank/SNF formulas."""
    spaces = [
        sset.sphere(2),
        sset.boundary_plus(2),
        sset.wedge([sset.circle(), sset.sphere(2)]).space,
        sset.smash(sset.boundary_plus(2), sset.circle()).space,
    ]
    for space in spaces:
        C = hl.normalized_chains(space)
        for k in range(4):
            dk = sympy.Matrix(
                C.rank(k - 1) if k else 0, C.rank(k),
                lambda i, j: C.boundary_matrix(k)[i][j] if k else 0,
            )
            dk1 = sympy.Matrix(
                C.rank(k), C.rank(k + 1),
                lambda i, j: C.boundary_matrix(k + 1)[i][j],
            )
            betti = C.rank(k) - dk.rank() - dk1.rank()
            torsion = [
                d for d in oracle.snf_divisors(dk1.tolist()) if d > 1
            ]
            g = hl.homology(C, k)
            assert g.free_rank == betti
            assert list(g.torsion) == sorted(torsion)


def test_hand_built_torsion_complex():
    C = hl.ChainComplex({1: 1, 2: 1}, {2: [{0: 2}]}, name="moore")
    assert C.validate()
    assert hl.homology(C, 1) == Z(0, (2,))
    assert hl.homology(C, 2) == Z(0)
    data = C.degree_data(1)
    free, tors = data.class_of({0: 1})
    assert free == () and tors == (1,)
    free, tors = data.class_of({0: 2})
    assert tors == (0,)


def test_boundary_squared_guard():
    bad = hl.ChainComplex(
        {0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 1}]}, name="bad"
    )
    with pytest.raises(AssertionError):
        bad.validate()


# ---------------------------------------------------------------------------
# induced maps


def test_identity_induces_identity():
    circ = sset.circle()
    im = hl.induced_map(sset.identity_map(circ), 1)
    assert im.matrix == [[1]]
    assert im.is_isomorphism()
    assert im.to_json()["source"] == {"rank": 1, "torsion": []}


def test_constant_map_induces_zero():
    circ = sset.circle()
    im = hl.induced_map(sset.constant_map(circ, circ), 1)
    assert im.matrix == [[0]]
    assert not im.is_isomorphism()


def test_fold_map_on_wedge_of_circles():
    circ = sset.circle()
    edge = [e for e in circ.cell_ids() if e != circ.basepoint][0]
    w = sset.wedge([circ, sset.circle()])
    assign = {w.space.basepoint: ((), circ.basepoint)}
    for c in w.space.cell_ids():
        if c != w.space.basepoint:
            assign[c] = ((), edge)
    fold = sset.SimplicialMap(w.space, circ, assign)
    assert fold.is_valid()
    im = hl.induced_map(fold, 1)
    assert im.matrix == [[1, 1]]
    assert not im.is_isomorphism()


def test_rank_mismatch_is_never_an_isomorphism():
    pt = sset.point()
    incl = sset.SimplicialMap(
        pt, sset.zero_sphere(),
        {pt.basepoint: ((), sset.zero_sphere().basepoint)},
    )
    # rebuild with shared target so identity of objects holds
    tgt = sset.zero_sphere()
    incl = sset.SimplicialMap(pt, tgt, {pt.basepoint: ((), tgt.basepoint)})
    im = hl.induced_map(incl, 0)
    assert im.source_group == Z(0) and im.target_group == Z()
    assert not im.is_isomorphism()


def test_induced_map_functoriality_on_random_maps():
    import symspec.modelcheck as mc

    A = sset.boundary_plus(2)
    maps_aa = mc.all_maps(A, A)
    rng = random.Random(7)
    for _ in range(12):
        f = rng.choice(maps_aa)
        g = rng.choice(maps_aa)
        gf = g.compose(f)
        for k in (0, 1):
            left = hl.induced_map(gf, k).matrix
            right = hl.mat_mul(
                hl.induced_map(g, k).matrix, hl.induced_map(f, k).matrix
            )
            assert hl.mat_eq(left, right)


def test_chain_push_respects_identity_and_degeneracy_kill():
    circ = sset.circle()
    C = hl.normalized_chains(circ)
    ident = sset.identity_map(circ)
    assert hl.chain_push(ident, 1, {0: 3}) == {0: 3}
    assert hl.chain_push(sset.constant_map(circ, circ), 1, {0: 3}) == {}


# ---------------------------------------------------------------------------
# suspension


def suspension_fixtures():
    w = sset.wedge([sset.circle(), sset.circle()])
    return [
        sset.zero_sphere(),
        sset.circle(),
        sset.sphere(2),
        sset.delta_plus(1),
        sset.boundary_plus(2),
        w.space,
    ]


def test_suspension_is_a_chain_map_on_fixtures():
    for X in suspension_fixtures():
        E = hl.suspension_chain_map(X)
        assert E.validate()


def test_suspension_induces_isomorphisms_on_fixtures():
    for X in suspension_fixtures():
        E = hl.suspension_chain_map(X)
        C = hl.normalized_chains(X)
        top = C.top_degree
        for k in range(top + 2):
            assert E.induces_isomorphism(k), (X.name, k)


def test_suspension_of_zero_sphere_is_the_circle_class():
    X = sset.zero_sphere()
    E = hl.suspension_chain_map(X)
    img = E.apply_chain(0, {0: 1})
    assert len(img) == 1 and set(img.values()) == {1}
    assert hl.homology(E.target, 1) == Z()


def test_suspension_of_circle_hits_both_triangles():
    X = sset.circle()
    E = hl.suspension_chain_map(X)
    img = E.apply_chain(1, {0: 1})
    assert sorted(img.values()) == [-1, 1]
    data = E.target.degree_data(2)
    free, _ = data.class_of(img)
    assert free in ((1,), (-1,))


def test_suspension_accepts_prebuilt_smash():
    X = sset.circle()
    sm = sset.smash(sset.circle(), X)
    E = hl.suspension_chain_map(X, sm)
    assert E.smash is sm
    assert E.validate()


def test_suspension_rejects_wrong_smash_orientation():
    X = sset.circle()
    sm = sset.smash(X, sset.circle())  # X on the left: wrong slot
    with pytest.raises(AssertionError):
        hl.suspension_chain_map(sset.circle(), sm)


# ---------------------------------------------------------------------------
# HZ levels and the gate


def test_hz_level_complexes():
    for n in range(6):
        C = hl.hz_level_complex(n)
        assert hl.homology(C, n) == Z()
        for k in range(n):
            assert hl.homology(C, k) == Z(0)
    with pytest.raises(ValueError):
        hl.hz_level_complex(-1)


def test_hurewicz_gate_on_models():
    assert hl.hurewicz_gate(sset.circle(), 1)
    assert not hl.hurewicz_gate(sset.circle(), 2)  # d=2 inspects dimension 1
    assert hl.hurewicz_gate(sset.sphere(1), 1)
    # the smash model of S^2 has a nondegenerate diagonal 1-cell
    assert not hl.hurewicz_gate(sset.sphere(2), 2)
    assert hl.hurewicz_gate(sset.point(), 99)


def test_gate_error_is_a_value_error():
    assert issubclass(hl.HurewiczGateError, ValueError)


# ---------------------------------------------------------------------------
# stable colimit reports


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


def test_sphere_colimit_stabilizes_at_Z(tower):
    S = sp.sphere_spectrum(4, tower)
    rep = hl.stable_colimit(S, 0)
    assert [g.to_json() for _, g in rep.entries] == [
        {"rank": 1, "torsion": []} for _ in range(5)
    ]
    assert all(iso for _, _, iso in rep.maps)
    assert rep.stabilized and rep.stable_from == 0
    assert rep.stable_group == Z()
    assert rep.interpretation == "homology-only"
    js = rep.to_json()
    assert js["k"] == 0 and js["stabilized"] is True
    assert js["levels"][0] == {"n": 0, "rank": 1, "torsion": []}


def test_sphere_colimit_away_from_weight_zero_is_zero(tower):
    S = sp.sphere_spectrum(3, tower)
    rep = hl.stable_colimit(S, 1)
    assert all(g.is_zero for _, g in rep.entries)
    assert rep.stabilized and rep.stable_group == Z(0)
    rep = hl.stable_colimit(S, -1)
    assert rep.entries[0][0] == 1  # starts at level 1
    assert all(g.is_zero for _, g in rep.entries)


def test_free_spectrum_colimit_does_not_stabilize(tower):
    F = sp.free_F(1, sset.circle(), 4, tower)
    rep = hl.stable_colimit(F, 0)
    assert [g.free_rank for _, g in rep.entries] == [0, 1, 2, 3, 4]
    assert not rep.stabilized and rep.stable_group is None
    # the level-2 to level-3 transition: split injection, not onto
    m23 = rep.maps[2][0]
    assert m23 == [[1, 0], [0, 1], [0, 0]]
    assert not rep.maps[2][2]


def test_point_spectrum_colimit_is_zero(tower):
    P = sp.point_spectrum(3, tower)
    rep = hl.stable_colimit(P, 0)
    assert all(g.is_zero for _, g in rep.entries)
    assert rep.stabilized
    assert rep.interpretation == "homotopy"


def test_require_homotopy_raises_on_smash_model_spheres(tower):
    S = sp.sphere_spectrum(3, tower)
    with pytest.raises(hl.HurewiczGateError):
        hl.stable_colimit(S, 0, require_homotopy=True)
    P = sp.point_spectrum(2, tower)
    rep = hl.stable_colimit(P, 0, require_homotopy=True)
    assert rep.interpretation == "homotopy"


# ---------------------------------------------------------------------------
# stable map reports


def test_identity_map_report_is_iso(tower):
    S = sp.sphere_spectrum(3, tower)
    rep = hl.stable_map_report(sp.identity_spectrum_map(S), 0)
    assert rep.verdict == "iso-at-all-computed-levels"
    assert rep.ladder_commutes
    assert rep.to_json()["verdict"] == "iso-at-all-computed-levels"


def test_lambda_report_refutes_isomorphism(tower):
    lam = sp.lambda_map(0, 3, tower)
    rep = hl.stable_map_report(lam, 0)
    assert rep.verdict == "not"
    assert rep.ladder_commutes
    mats = [im.matrix for im in rep.matrices]
    assert mats[1] == [[1]]
    assert mats[2] == [[1, -1]]
    assert mats[3] == [[1, -1, 1]]
    assert rep.interpretation == "homology-only"


def test_coordinate_permutations_act_on_top_homology_by_sign(tower):
    # H_n(S^n) is the sign representation of Sigma_n; this is where the
    # alternating signs of lambda's matrices above come from
    S = sp.sphere_spectrum(3, tower)
    for n in range(4):
        for g in itertools.permutations(range(n)):
            im = hl.InducedMap(S.level(n).act(g), n)
            assert im.matrix == [[eq.perm_sign(g)]], (n, g, im.matrix)


def test_cylinder_retraction_report_is_iso(tower):
    F = sp.free_F(1, sset.circle(), 3, tower)
    _, _, r, _ = sp.mapping_cylinder(sp.identity_spectrum_map(F))
    rep = hl.stable_map_report(r, 0)
    assert rep.verdict == "iso-at-all-computed-levels"
    assert rep.ladder_commutes


# ---------------------------------------------------------------------------
# the integer engine against the replaced rational / full-scan references


def _columns(M):
    return [
        {i: M[i][j] for i in range(len(M)) if M[i][j]}
        for j in range(len(M[0]) if M else 0)
    ]


def _independent_columns(M):
    """Columns of M, greedily kept while they stay linearly independent."""
    kept = []
    for col in _columns(M):
        if hl.kernel_of_columns(kept + [col])[1] == len(kept) + 1:
            kept.append(col)
    return kept


def _combination(K, c):
    x = {}
    for j, cj in enumerate(c):
        for i, v in K[j].items():
            x[i] = x.get(i, 0) + cj * v
    return {i: v for i, v in x.items() if v}


def _solve_or_reason(solver, x):
    try:
        return solver.solve(x)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(matrices, st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_kernel_solver_matches_rational_oracle(M, coeffs):
    # an arbitrary full-rank lattice, and a kernel basis as the engine has
    for K in (_independent_columns(M), hl.kernel_of_columns(_columns(M))[0]):
        c = coeffs[:len(K)]
        x = _combination(K, c)
        assert hl._KernelSolver(K).solve(x) == c
        assert oracle.RationalKernelSolver(K).solve(x) == c


@settings(deadline=None, max_examples=60)
@given(matrices, st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       st.integers(2, 5))
def test_kernel_solver_rejects_chains_off_the_lattice(M, coeffs, d):
    K = _independent_columns(M)
    c = coeffs[:len(K)]
    off_row = {**_combination(K, c), len(M): 1}
    for solver in (hl._KernelSolver(K), oracle.RationalKernelSolver(K)):
        with pytest.raises(ValueError, match="chain is not a cycle"):
            solver.solve(off_row)
    if K:
        # K[0] is 1/d times the first column of the scaled basis
        scaled = [{i: d * v for i, v in K[0].items()}] + K[1:]
        x = _combination(K, [1] + c[1:])
        for solver in (hl._KernelSolver(scaled),
                       oracle.RationalKernelSolver(scaled)):
            assert _solve_or_reason(solver, x) == "chain is not a cycle"


unitless_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 2, -2, 3, -4, 6, 9, -10]),
                     min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(deadline=None, max_examples=80)
@given(st.one_of(matrices, unitless_matrices))
def test_snf_matches_full_scan_oracle(M):
    new = hl.smith_normal_form(M)
    old = oracle.smith_normal_form_full_scan(M)
    assert (new.D, new.U, new.V, new.U_inv, new.V_inv) == (
        old.D, old.U, old.V, old.U_inv, old.V_inv
    )


sparse_matrices = st.integers(0, 8).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0] * 12 + [1, -1, 1, -1, 2, -2, 3, -3, 6]),
                     min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def snf_fields(res):
    return res.D, res.U, res.U_inv, res.V, res.V_inv, res.diagonal, res.rank


@settings(deadline=None, max_examples=150)
@given(sparse_matrices)
@example([])
@example([[]])
@example([[0, 0, 0], [0, 0, 0]])
def test_sparse_snf_matches_the_dense_oracle(M):
    old = snf_fields(oracle.smith_normal_form_dense(M))
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    assert snf_fields(hl.smith_normal_form(M)) == old
    assert snf_fields(hl.smith_normal_form(rows, len(M[0]) if M else 0)) == old


def test_snf_dict_rows_need_their_width():
    with pytest.raises(hl.HomologyInputError, match="dict rows need the column count n"):
        hl.smith_normal_form([{0: 1}])
    with pytest.raises(hl.HomologyInputError, match="row 0 has an entry in column 2 of 2"):
        hl.smith_normal_form([{2: 1}], 2)


def _coords_or_reason(solver, x):
    try:
        return solver.coords(x)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=60)
@given(matrices, st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       st.integers(2, 5))
def test_kernel_coords_are_the_nonzero_rational_coordinates(M, coeffs, d):
    for K in (_independent_columns(M), hl.kernel_of_columns(_columns(M))[0]):
        x = _combination(K, coeffs[:len(K)])
        bases = [K]
        if K:
            bases.append([{i: d * v for i, v in K[0].items()}] + K[1:])
        for basis in bases:
            for y in (x, {**x, 0: x.get(0, 0) + 1}, {**x, len(M): 1}):
                expect = _solve_or_reason(oracle.RationalKernelSolver(basis), y)
                if isinstance(expect, list):
                    expect = {j: v for j, v in enumerate(expect) if v}
                assert _coords_or_reason(hl._KernelSolver(basis), y) == expect


def test_homology_reports_build_no_transform():
    C = hl.hz_level_complex(5)
    for k in range(7):
        hl.homology(C, k)
    for k in range(7):
        snf = C.degree_data(k).snf
        built = (snf._U_rows, snf._U_inv_cols, snf._U, snf._U_inv, snf._D)
        assert built == (None,) * 5, k


def test_degree_data_runs_one_smith_form_per_degree(monkeypatch):
    # the tracer times the reduction by swapping this module attribute
    calls = []
    inner = hl.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(hl, "smith_normal_form", counting)
    C = hl.hz_level_complex(4)
    for k in range(6):
        C.degree_data(k)
        C.degree_data(k)
        assert len(calls) == k + 1, k


def test_degree_data_matches_oracles_on_spheres():
    for n in range(1, 5):
        C = hl.hz_level_complex(n)
        for k in C.degrees():
            data = C.degree_data(k)
            rational = oracle.RationalKernelSolver(data.kernel)
            for col in C.boundary_columns(k + 1):
                assert data.solver.solve(col) == rational.solve(col)


# ---------------------------------------------------------------------------
# validation survives python -O


def test_boundary_squared_guard_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(hl.__file__))
    script = (
        "import symspec.homology as hl\n"
        "bad = hl.ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 1}]})\n"
        "try:\n"
        "    bad.validate()\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "rejected: boundary squared is nonzero in degree 2, generator 0"
    )


def test_homology_inputs_rejected_with_a_reason():
    with pytest.raises(ValueError, match="torsion 3 does not divide 2"):
        hl.HomologyGroup(1, (3, 2))
    with pytest.raises(ValueError, match="degree 1 has 2 boundary columns"):
        hl.ChainComplex({1: 1}, {1: [{}, {}]})


# ---------------------------------------------------------------------------
# S^6: the first sphere past the old rational solver


def test_hz_level_six():
    C = hl.hz_level_complex(6)
    for k in range(8):
        assert hl.homology(C, k) == (Z() if k == 6 else Z(0)), k
    data = C.degree_data(6)
    (gen,) = data.free_gen_chains
    assert data.class_of(gen) == ((1,), ())


def test_hz_level_seven_under_a_two_gigabyte_cap():
    # dense Smith forms of degrees 4 and 5 ran out of memory under this cap
    src = os.path.dirname(os.path.dirname(hl.__file__))
    script = (
        "import json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "import symspec.homology as hl\n"
        "C = hl.hz_level_complex(7)\n"
        "groups = [hl.homology(C, k).to_json() for k in range(9)]\n"
        "data = C.degree_data(7)\n"
        "(gen,) = data.free_gen_chains\n"
        "print(json.dumps([groups, data.class_of(gen)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    groups, cls = json.loads(proc.stdout)
    assert groups == [
        {"rank": 1 if k == 7 else 0, "torsion": []} for k in range(9)
    ]
    assert cls == [[1], []]


# ---------------------------------------------------------------------------
# one push path against the per-report loops it replaced


def test_torsion_pushed_to_free_part_is_rejected():
    moore = hl.ChainComplex({1: 1, 2: 1}, {2: [{0: 2}]}, name="moore")
    circle = hl.normalized_chains(sset.circle())
    with pytest.raises(hl.HomologyInputError,
                       match="H_1 torsion generator 0 mapped to free part"):
        hl._pushed_classes(moore.degree_data(1), circle.degree_data(1), dict)


def test_transition_into_a_degree_without_cells_is_zero(tower):
    # level 2 of this spectrum is S^0 and level 3 has no 1-cells; the loop
    # this path replaced read the degree-1 data of level 3 and failed
    X = corpus.trivial_action_spectrum(tower)
    rep = hl.stable_colimit(X, -2)
    assert [(n, g) for n, g in rep.entries] == [(2, Z()), (3, Z(0))]
    assert rep.maps == [([], [], False)]
    assert not rep.stabilized


def induced_map_fields(im):
    return im.source_group, im.target_group, im.matrix, im.torsion_matrix


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_induced_map_matches_the_classify_loop(seed):
    # targets include the point and S^0, whose empty degrees the old loop
    # answered without degree data
    r = random.Random(seed)
    A = corpus.random_space(r, max_cells=4)
    X = r.choice(corpus.space_menu() + [sset.point(), sset.zero_sphere()])
    f = r.choice(sset.all_maps(A, X))
    for k in range(-1, max(A.dim, X.dim) + 2):
        new, old = hl.InducedMap(f, k), oracle.InducedMapClassify(f, k)
        assert induced_map_fields(new) == induced_map_fields(old), (f, k)
        assert new.is_isomorphism() == old.is_isomorphism(), (f, k)


@pytest.fixture(scope="module")
def report_spectra(tower):
    return corpus.spectrum_corpus(tower)


def report_or_error(report, *args):
    try:
        rep = report(*args)
    except hl.HurewiczGateError as exc:
        return "raised", str(exc)
    if isinstance(rep, hl.StableColimitReport):
        return rep.to_json(), rep.maps, rep.stable_from, rep.stable_group
    return (rep.to_json(), rep.ladder_commutes,
            [induced_map_fields(im) for im in rep.matrices])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_stable_colimit_matches_the_transition_loop(report_spectra, data):
    X = data.draw(st.sampled_from(report_spectra))
    k = data.draw(st.integers(-X.bound - 1, 2))
    require = data.draw(st.booleans())
    assert report_or_error(hl.stable_colimit, X, k, require) == report_or_error(
        oracle.stable_colimit_transitions, X, k, require
    ), (X, k, require)


def collapsed_level_map(X, m):
    """Levelwise the identity of X but constant at level m: equivariant at
    every level, and its ladder squares at m - 1 and m need not commute."""
    comps = [sset.identity_map(X.space(n)) for n in range(X.bound + 1)]
    comps[m] = sset.constant_map(X.space(m), X.space(m))
    return sp.SpectrumMap(X, X, comps)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_stable_map_report_matches_the_ladder_loop(tower, report_spectra, data):
    kind = data.draw(st.sampled_from(["identity", "cofibration", "collapsed"]))
    if kind == "cofibration":
        seed = data.draw(st.integers(0, 2**32 - 1))
        f = corpus.random_stable_cofibration(random.Random(seed), tower)
    else:
        X = data.draw(st.sampled_from(report_spectra))
        if kind == "identity":
            f = sp.identity_spectrum_map(X)
        else:
            f = collapsed_level_map(X, data.draw(st.integers(0, X.bound)))
    k = data.draw(st.integers(-f.source.bound - 1, 2))
    require = data.draw(st.booleans())
    assert report_or_error(hl.stable_map_report, f, k, require) == report_or_error(
        oracle.stable_map_report_ladder, f, k, require
    ), (f, k, require)


def test_collapsing_a_level_breaks_the_ladder(tower):
    S = sp.sphere_spectrum(2, tower)
    assert not hl.stable_map_report(collapsed_level_map(S, 1), 0).ladder_commutes
