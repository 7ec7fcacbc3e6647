import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracle
from symspec import equivariant as eq
from symspec import sset
from symspec import symseq as sq


def nonbase_counts(space):
    out = {}
    for k, ids in space.cells.items():
        n = len([c for c in ids if c != space.basepoint])
        if n:
            out[k] = n
    return out


def points(space):
    return [c for c in space.cells[0] if c != space.basepoint]


def test_free_sequence_levels():
    G = sq.free_G(2, sset.zero_sphere(), 3)
    assert G.bound == 3
    for n in range(4):
        assert G.level(n).validate()
        if n != 2:
            assert sset.is_pointlike(G.space(n))
    lv = G.level(2)
    # Sigma_2+ ^ S^0: the regular orbit, two points swapped by the generator
    pts = points(lv.space)
    assert len(pts) == 2
    g = lv.generators[0]
    assert g.apply(((), pts[0])) == ((), pts[1])
    assert g.apply(((), pts[1])) == ((), pts[0])


def test_eval_and_bounds():
    G = sq.free_G(1, sset.circle(), 2)
    assert sq.eval_level(G, 1) is G.level(1)
    with pytest.raises(IndexError):
        G.level(3)
    with pytest.raises(IndexError):
        sq.free_G(4, sset.zero_sphere(), 2)


def test_tensor_of_two_free_generators():
    X = sq.free_G(1, sset.zero_sphere(), 2)
    Y = sq.free_G(1, sset.zero_sphere(), 2)
    T = sq.tensor(X, Y)
    assert sset.is_pointlike(T.space(0))
    assert sset.is_pointlike(T.space(1))
    # one point per (1,1)-shuffle
    assert T.parts[2] == [(0, 2, ()), (1, 1, (0,)), (1, 1, (1,)), (2, 0, (0, 1))]
    assert nonbase_counts(T.space(2)) == {0: 2}
    for n in range(3):
        assert T.level(n).validate()
    # the transposition exchanges the two shuffle copies
    pts = points(T.space(2))
    g = T.level(2).generators[0]
    assert g.apply(((), pts[0])) == ((), pts[1])
    assert g.apply(((), pts[1])) == ((), pts[0])
    p0 = T.summand_of(2, pts[0])[0]
    p1 = T.summand_of(2, pts[1])[0]
    assert {p0, p1} == {(1, 1, (0,)), (1, 1, (1,))}


def test_tensor_with_circles_validates():
    X = sq.free_G(1, sset.circle(), 3)
    Y = sq.free_G(1, sset.circle(), 3)
    T = sq.tensor(X, Y)
    for n in range(4):
        assert T.level(n).validate()
    # level 2 holds two copies of S^1 ^ S^1
    assert nonbase_counts(T.space(2)) == {1: 2, 2: 4}
    sq.identity_seq_map(T).validate()


def test_tensor_map_and_mono_preservation():
    inc = sset.boundary_plus(1)
    f_space = next(
        m
        for m in sset.all_maps(inc, sset.delta_plus(1))
        if m.is_monomorphism()
    )
    A = sq.free_G(1, inc, 2)
    B = sq.free_G(1, sset.delta_plus(1), 2)
    f = sq.free_G_map(A, B, f_space)
    f.validate()
    assert f.is_monomorphism()
    TA = sq.tensor(A, A)
    TB = sq.tensor(B, B)
    Tf = sq.tensor_map(TA, TB, f, f)
    Tf.validate()
    assert Tf.is_monomorphism()
    # and against a second mono with higher-dimensional cells
    horn = sset.horn_plus(2, 1)
    g_space = next(
        m
        for m in sset.all_maps(horn, sset.delta_plus(2))
        if m.is_monomorphism()
    )
    C = sq.free_G(1, horn, 2)
    D = sq.free_G(1, sset.delta_plus(2), 2)
    g = sq.free_G_map(C, D, g_space)
    Tg = sq.tensor_map(sq.tensor(A, C), sq.tensor(B, D), f, g)
    Tg.validate()
    assert Tg.is_monomorphism()


def test_twist_is_symmetry():
    X = sq.free_G(1, sset.zero_sphere(), 2)
    Y = sq.free_G(1, sset.circle(), 2)
    T_xy = sq.tensor(X, Y)
    T_yx = sq.tensor(Y, X)
    tw = sq.twist_iso(T_xy, T_yx)
    tw.validate()
    assert tw.is_isomorphism()
    back = sq.twist_iso(T_yx, T_xy)
    assert back.compose(tw) == sq.identity_seq_map(T_xy)
    assert tw.compose(back) == sq.identity_seq_map(T_yx)


def test_twist_moves_shuffle_copies():
    X = sq.free_G(1, sset.zero_sphere(), 2)
    Y = sq.free_G(1, sset.zero_sphere(), 2)
    T_xy = sq.tensor(X, Y)
    T_yx = sq.tensor(Y, X)
    tw = sq.twist_iso(T_xy, T_yx)
    for c in points(T_xy.space(2)):
        (p, q, mu), _, _ = T_xy.coordinates(2, c)
        image = tw.level(2).apply(((), c))
        (p2, q2, mu2), _, _ = T_yx.coordinates(2, image[1])
        # m_mu2 is the normal form of m_mu . rho_{1,1}, which flips the copy
        assert mu2 != mu


def test_assoc_on_three_free_generators():
    N = 3
    X = sq.free_G(1, sset.zero_sphere(), N)
    Y = sq.free_G(1, sset.zero_sphere(), N)
    Z = sq.free_G(1, sset.zero_sphere(), N)
    T_xy = sq.tensor(X, Y)
    T_xy_z = sq.tensor(T_xy, Z)
    T_yz = sq.tensor(Y, Z)
    T_x_yz = sq.tensor(X, T_yz)
    al = sq.assoc_iso(T_xy, T_xy_z, T_yz, T_x_yz)
    al.validate()
    assert al.is_isomorphism()
    # six triple-shuffle coordinates on each side at the top level
    assert len(points(T_xy_z.space(3))) == 6
    assert len(points(T_x_yz.space(3))) == 6


def test_pentagon():
    N = 4
    S0 = sset.zero_sphere
    X, Y, Z, W = (sq.free_G(1, S0(), N) for _ in range(4))
    A = sq.tensor(X, Y)
    B = sq.tensor(Z, W)
    C = sq.tensor(Y, Z)
    T_A_Z = sq.tensor(A, Z)
    T_AZ_W = sq.tensor(T_A_Z, W)
    T_A_B = sq.tensor(A, B)
    T_Y_B = sq.tensor(Y, B)
    T_X_YB = sq.tensor(X, T_Y_B)
    # left route: two associators
    a1 = sq.assoc_iso(T_A_Z, T_AZ_W, B, T_A_B)
    a2 = sq.assoc_iso(A, T_A_B, T_Y_B, T_X_YB)
    left = a2.compose(a1)
    # right route: inner associator, middle associator, outer associator
    T_X_C = sq.tensor(X, C)
    f = sq.assoc_iso(A, T_A_Z, C, T_X_C)
    T_XC_W = sq.tensor(T_X_C, W)
    step1 = sq.tensor_map(T_AZ_W, T_XC_W, f, sq.identity_seq_map(W))
    T_C_W = sq.tensor(C, W)
    T_X_CW = sq.tensor(X, T_C_W)
    a4 = sq.assoc_iso(T_X_C, T_XC_W, T_C_W, T_X_CW)
    g = sq.assoc_iso(C, T_C_W, B, T_Y_B)
    step3 = sq.tensor_map(T_X_CW, T_X_YB, sq.identity_seq_map(X), g)
    right = step3.compose(a4).compose(step1)
    assert left == right


def test_triangle():
    N = 3
    X = sq.free_G(1, sset.circle(), N)
    Y = sq.free_G(1, sset.zero_sphere(), N)
    U = sq.unit_sequence(N)
    T_XU = sq.tensor(X, U)
    T_XU_Y = sq.tensor(T_XU, Y)
    T_UY = sq.tensor(U, Y)
    T_X_UY = sq.tensor(X, T_UY)
    T_XY = sq.tensor(X, Y)
    al = sq.assoc_iso(T_XU, T_XU_Y, T_UY, T_X_UY)
    lu = sq.lunit_iso(T_UY)
    ru = sq.runit_iso(T_XU)
    left = sq.tensor_map(T_X_UY, T_XY, sq.identity_seq_map(X), lu).compose(al)
    right = sq.tensor_map(T_XU_Y, T_XY, ru, sq.identity_seq_map(Y))
    assert left == right


def test_hexagon():
    N = 3
    S0 = sset.zero_sphere
    X = sq.free_G(1, S0(), N)
    Y = sq.free_G(1, sset.circle(), N)
    Z = sq.free_G(1, S0(), N)
    T_XY = sq.tensor(X, Y)
    T_XY_Z = sq.tensor(T_XY, Z)
    T_YZ = sq.tensor(Y, Z)
    T_X_YZ = sq.tensor(X, T_YZ)
    T_YZ_X = sq.tensor(T_YZ, X)
    T_ZX = sq.tensor(Z, X)
    T_Y_ZX = sq.tensor(Y, T_ZX)
    # alpha, then twist past the whole block, then alpha
    a1 = sq.assoc_iso(T_XY, T_XY_Z, T_YZ, T_X_YZ)
    t1 = sq.twist_iso(T_X_YZ, T_YZ_X)
    a2 = sq.assoc_iso(T_YZ, T_YZ_X, T_ZX, T_Y_ZX)
    left = a2.compose(t1).compose(a1)
    # twist inside, then alpha, then twist inside
    T_YX = sq.tensor(Y, X)
    T_YX_Z = sq.tensor(T_YX, Z)
    T_XZ = sq.tensor(X, Z)
    T_Y_XZ = sq.tensor(Y, T_XZ)
    t2 = sq.twist_iso(T_XY, T_YX)
    step1 = sq.tensor_map(T_XY_Z, T_YX_Z, t2, sq.identity_seq_map(Z))
    a3 = sq.assoc_iso(T_YX, T_YX_Z, T_XZ, T_Y_XZ)
    t3 = sq.twist_iso(T_XZ, T_ZX)
    step3 = sq.tensor_map(T_Y_XZ, T_Y_ZX, sq.identity_seq_map(Y), t3)
    right = step3.compose(a3).compose(step1)
    assert left == right


@pytest.mark.parametrize(
    "p,q", [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
)
def test_free_tensor_iso_spheres(p, q):
    K = sset.zero_sphere()
    L = sset.zero_sphere()
    N = p + q
    Gp = sq.free_G(p, K, N)
    Gq = sq.free_G(q, L, N)
    T = sq.tensor(Gp, Gq)
    KL = sset.smash(K, L)
    target = sq.free_G(p + q, KL.space, N)
    iso = sq.free_tensor_iso(T, target, KL)
    iso.validate()
    assert iso.is_isomorphism()


def test_free_tensor_iso_with_circle():
    K = sset.circle()
    L = sset.zero_sphere()
    Gp = sq.free_G(1, K, 3)
    Gq = sq.free_G(2, L, 3)
    T = sq.tensor(Gp, Gq)
    KL = sset.smash(K, L)
    target = sq.free_G(3, KL.space, 3)
    iso = sq.free_tensor_iso(T, target, KL)
    iso.validate()
    assert iso.is_isomorphism()


def test_unit_isos():
    X = sq.free_G(1, sset.circle(), 2)
    U = sq.unit_sequence(2)
    T_XU = sq.tensor(X, U)
    ru = sq.runit_iso(T_XU)
    ru.validate()
    assert ru.is_isomorphism()
    ru_inv = sq.runit_iso_inverse(T_XU)
    assert ru.compose(ru_inv) == sq.identity_seq_map(X)
    assert ru_inv.compose(ru) == sq.identity_seq_map(T_XU)
    T_UX = sq.tensor(U, X)
    lu = sq.lunit_iso(T_UX)
    lu.validate()
    assert lu.is_isomorphism()
    lu_inv = sq.lunit_iso_inverse(T_UX)
    assert lu.compose(lu_inv) == sq.identity_seq_map(X)
    assert lu_inv.compose(lu) == sq.identity_seq_map(T_UX)


def test_truncation_stability():
    X4 = sq.free_G(1, sset.zero_sphere(), 4)
    Y4 = sq.free_G(1, sset.circle(), 4)
    T4 = sq.tensor(X4, Y4)
    T2 = sq.tensor(sq.truncate(X4, 2), sq.truncate(Y4, 2))
    for n in range(3):
        assert T4.space(n).cells == T2.space(n).cells
        assert T4.space(n).faces == T2.space(n).faces
        for g4, g2 in zip(T4.level(n).generators, T2.level(n).generators):
            assert g4.assign == g2.assign
    with pytest.raises(IndexError):
        T2.level(3)


def test_smash_space_and_iso():
    X = sq.free_G(1, sset.circle(), 2)
    K = sset.circle()
    Sm = sq.smash_space(X, K)
    for n in range(3):
        assert Sm.level(n).validate()
    # level 1: (Sigma_1+ ^ S^1) ^ S^1 is a torus collapse
    assert nonbase_counts(Sm.space(1)) == {1: 1, 2: 2}
    G0 = sq.free_G(0, K, 2)
    T = sq.tensor(X, G0)
    iso = sq.smash_space_iso(Sm, T)
    iso.validate()
    assert iso.is_isomorphism()


# --- maps out of tensors against their cell-by-cell oracles ------------------


def constant_seq_map(X):
    return sq.SequenceMap(
        X, X, [sset.constant_map(X.space(n), X.space(n)) for n in range(X.bound + 1)]
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tensor_maps_match_their_cellwise_oracles(seed):
    r = random.Random(seed)
    _, (A, B, C, _) = corpus.coherence_fixture(r)
    f = r.choice([sq.identity_seq_map, constant_seq_map])(A)
    g = r.choice([sq.identity_seq_map, constant_seq_map])(B)
    T_ab, T_ba, T_bc = sq.tensor(A, B), sq.tensor(B, A), sq.tensor(B, C)
    assert sq.tensor_map(T_ab, T_ab, f, g) == oracle.tensor_map_cellwise(T_ab, T_ab, f, g)
    assert sq.twist_iso(T_ab, T_ba) == oracle.twist_iso_cellwise(T_ab, T_ba)
    T_ab_c, T_a_bc = sq.tensor(T_ab, C), sq.tensor(A, T_bc)
    assert sq.assoc_iso(T_ab, T_ab_c, T_bc, T_a_bc) == oracle.assoc_iso_cellwise(
        T_ab, T_ab_c, T_bc, T_a_bc
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tensor_generators_and_maps_out_match_the_wedge_oracles(seed):
    """Generators against the cell-by-cell loop, and tensor_map, twist_iso
    and free_tensor_iso against themselves with map_out read cell by cell."""
    r = random.Random(seed)
    bound, (A, B, _, _) = corpus.coherence_fixture(r)
    T_ab, T_ba = sq.tensor(A, B), sq.tensor(B, A)
    for n in range(bound + 1):
        assert T_ab.level(n).generators == oracle.tensor_generators_cellwise(T_ab, n)
    f = r.choice([sq.identity_seq_map, constant_seq_map])(A)
    g = r.choice([sq.identity_seq_map, constant_seq_map])(B)
    p = r.randint(0, bound)
    q = r.randint(0, bound - p)
    K, L = corpus.random_space(r, 3), corpus.random_space(r, 3)
    T_pq = sq.tensor(sq.free_G(p, K, bound), sq.free_G(q, L, bound))
    KL = sset.smash(K, L)
    free = sq.free_G(p + q, KL.space, bound)

    def build():
        return (
            sq.tensor_map(T_ab, T_ab, f, g),
            sq.twist_iso(T_ab, T_ba),
            sq.free_tensor_iso(T_pq, free, KL),
        )

    got = build()
    with mock.patch.object(sq.TensorSequence, "map_out", oracle.tensor_map_out_cellwise):
        assert got == build()
