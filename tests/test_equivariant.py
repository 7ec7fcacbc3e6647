"""Permutation calculus and group actions."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from symspec import equivariant as eq
from symspec import spectra as sp
from symspec import sset

import corpus
import oracle


perms = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple)
)


@settings(max_examples=150, deadline=None)
@given(perms)
def test_inverse_and_sign(a):
    n = len(a)
    assert eq.compose_perm(a, eq.inverse_perm(a)) == eq.identity_perm(n)
    assert eq.compose_perm(eq.inverse_perm(a), a) == eq.identity_perm(n)
    assert eq.perm_sign(a) * eq.perm_sign(eq.inverse_perm(a)) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_is_function_composition(data):
    n = data.draw(st.integers(2, 5))
    a = tuple(data.draw(st.permutations(list(range(n)))))
    b = tuple(data.draw(st.permutations(list(range(n)))))
    c = eq.compose_perm(a, b)
    for i in range(n):
        assert c[i] == a[b[i]]
    assert eq.perm_sign(c) == eq.perm_sign(a) * eq.perm_sign(b)


@settings(max_examples=150, deadline=None)
@given(perms)
def test_reduced_word_rebuilds_permutation(a):
    n = len(a)
    out = eq.identity_perm(n)
    for i in eq.reduced_word(a):
        out = eq.compose_perm(eq.transposition(n, i), out)
    assert out == a
    assert len(eq.reduced_word(a)) % 2 == (0 if eq.perm_sign(a) == 1 else 1)


def test_block_operations():
    assert eq.block_embed((1, 0), 4) == (1, 0, 2, 3)
    assert eq.block_sum((1, 0), (0, 2, 1)) == (1, 0, 2, 4, 3)
    # the (q, p) block rotation, q = 2, p = 1
    assert oracle.shuffle_rho(2, 1) == (1, 2, 0)
    assert oracle.shuffle_rho(1, 2) == (2, 0, 1)
    assert oracle.shuffle_rho(0, 3) == (0, 1, 2)


def test_shuffles_are_coset_representatives():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        mus = eq.all_shuffles(p, q)
        assert len(mus) == len(set(mus))
        import math

        assert len(mus) == math.comb(p + q, p)
        reps = {eq.shuffle_perm(mu, p, q) for mu in mus}
        # distinct shuffles represent distinct left cosets of Sigma_p x Sigma_q
        seen = set()
        for m in reps:
            coset = frozenset(
                eq.compose_perm(m, eq.block_sum(b, g))
                for b in itertools.permutations(range(p))
                for g in itertools.permutations(range(q))
            )
            assert coset not in seen
            seen.add(coset)
        assert len(set().union(*seen)) == math.factorial(p + q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coset_factorization(data):
    p = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, 3))
    alpha = tuple(data.draw(st.permutations(list(range(p + q)))))
    mu = data.draw(st.sampled_from(eq.all_shuffles(p, q)))
    mu2, beta, gamma = eq.coset_factor(alpha, mu, p, q)
    lhs = eq.compose_perm(alpha, eq.shuffle_perm(mu, p, q))
    rhs = eq.compose_perm(
        eq.shuffle_perm(mu2, p, q), eq.block_sum(beta, gamma)
    )
    assert lhs == rhs
    assert mu2 in eq.all_shuffles(p, q)


def test_action_homomorphism_on_free_orbit():
    K = sset.circle()
    act = eq.free_orbit(3, K)
    act.validate()
    for a in itertools.permutations(range(3)):
        for b in itertools.permutations(range(3)):
            assert act.act(eq.compose_perm(a, b)) == act.act(a).compose(act.act(b))


def test_free_orbit_moves_copies():
    K = sset.zero_sphere()
    act = eq.free_orbit(2, K)
    act.validate()
    assert eq.acts_freely_off(act, [])
    other = act.act((1, 0))
    pt = [c for c in act.space.cell_ids() if c != act.space.basepoint]
    assert len(pt) == 2
    assert other.assign[pt[0]] == ((), pt[1])


def test_trivial_action_not_free():
    K = sset.circle()
    act = eq.trivial_action(K, 2)
    act.validate()
    assert not eq.acts_freely_off(act, [])
    assert eq.acts_freely_off(act, [c for c in K.cell_ids()])


def test_sphere_action_validates():
    tower = eq.SphereTower()
    for n in [2, 3]:
        act = tower.action(n)
        assert act.validate()


def test_sphere_action_matches_the_flattened_oracle():
    tower = eq.SphereTower()
    for n in range(7):
        act = tower.action(n)
        ref = oracle.sphere_action_flat(tower, n)
        assert len(act.generators) == len(ref.generators) == max(n - 1, 0)
        for g, h in zip(act.generators, ref.generators):
            assert g.assign == h.assign, n


def test_sphere_action_validates_through_level_six():
    tower = eq.SphereTower()
    for n in range(2, 7):
        assert tower.action(n).validate(), n


def test_sphere_generators_are_built_once_on_first_read(monkeypatch):
    generators = eq.SphereTower._generators
    built = []

    def counted(tower, n):
        built.append(n)
        return generators(tower, n)

    monkeypatch.setattr(eq.SphereTower, "_generators", counted)
    tower = eq.SphereTower()
    act = tower.action(5)
    assert act.space is tower.space(5) and built == []
    assert len(act.generators) == 4
    assert built == [5, 4, 3, 2, 1]
    assert tower.action(3).generators and act.act((4, 3, 2, 1, 0))
    assert act.generators is tower.action(5).generators
    assert built == [5, 4, 3, 2, 1]


def test_a_sphere_level_still_needs_n_minus_one_generators(monkeypatch):
    monkeypatch.setattr(eq.SphereTower, "_generators", lambda tower, n: [])
    act = eq.SphereTower().action(3)
    with pytest.raises(sset.PreconditionError, match="Sigma_3 needs 2 generators"):
        act.generators


def test_bad_arguments_raise_precondition_errors():
    X = sset.circle()
    calls = [
        lambda: eq.compose_perm((0, 1), (0,)),
        lambda: eq.block_embed((0, 1, 2), 2),
        lambda: eq.EquivariantSpace(X, 3, []),
        lambda: eq.trivial_action(X, 2).act((0, 1, 2)),
    ]
    for call in calls:
        with pytest.raises(sset.PreconditionError):
            call()


def test_sphere_action_transposition_swaps_triangles():
    # on S^2 = S^1 ^ S^1 the swap exchanges the two triangles and fixes
    # the diagonal edge
    tower = eq.SphereTower()
    act = tower.action(2)
    S2 = tower.space(2)
    swap = act.act((1, 0))
    (edge,) = [c for c in S2.cells[1]]
    t1, t2 = S2.cells[2]
    assert swap.assign[edge] == ((), edge)
    assert swap.assign[t1] == ((), t2)
    assert swap.assign[t2] == ((), t1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_inverts_form_of_pair(data):
    # on the tower's S^1 ^ S^(n-1) and on the smash of two random spaces
    if data.draw(st.booleans()):
        tower = eq.SphereTower()
        n = data.draw(st.integers(2, 4))
        tower.space(n)
        sm = tower.smashes[n]
    else:
        r = random.Random(data.draw(st.integers(0, 10**9)))
        sm = sset.smash(corpus.random_space(r), corpus.random_space(r))
    k = data.draw(st.integers(0, sm.space.dim + 1))
    form = data.draw(st.sampled_from(sm.space.forms(k)))
    fa, fb = sm.split(form)
    assert sm.A.form_dim(fa) == sm.B.form_dim(fb) == k
    assert sm.form_of_pair(fa, fb) == form


def test_sphere_action_orbit_sizes():
    # Sigma_3 on the six top cells of S^3 is simply transitive
    tower = eq.SphereTower()
    act = tower.action(3)
    S3 = tower.space(3)
    top = S3.cells[3]
    orbit = act.orbit(((), top[0]))
    assert orbit == {((), c) for c in top}
    # the diagonal 1-cell is fixed by everything, so only the top is free
    assert not eq.acts_freely_off(act, [])
    lower = [c for c in S3.cell_ids() if S3.dim_of[c] < 3]
    assert eq.acts_freely_off(act, lower)


def test_coset_factorization_exhaustive_small():
    for n in range(2, 5):
        for p in range(1, n):
            q = n - p
            for alpha in itertools.permutations(range(n)):
                for mu in eq.all_shuffles(p, q):
                    mu2, beta, gamma = eq.coset_factor(alpha, mu, p, q)
                    lhs = eq.compose_perm(alpha, eq.shuffle_perm(mu, p, q))
                    rhs = eq.compose_perm(
                        eq.shuffle_perm(mu2, p, q), eq.block_sum(beta, gamma)
                    )
                    assert lhs == rhs


def test_the_twist_coset_is_the_complement_shuffle():
    # m_mu . rho_{q,p} is the (q, p)-shuffle onto the complement of mu, so
    # symseq.twist_iso moves the (p, q, mu) summand with no block part acting
    cases = 0
    for n in range(8):
        for p in range(n + 1):
            q = n - p
            for mu in eq.all_shuffles(p, q):
                delta = eq.compose_perm(
                    eq.shuffle_perm(mu, p, q), oracle.shuffle_rho(q, p)
                )
                complement = tuple(i for i in range(n) if i not in mu)
                assert eq.coset_factor(delta, tuple(range(q)), q, p) == (
                    complement, tuple(range(q)), tuple(range(p))
                )
                cases += 1
    assert cases == 255


def biaction(space, p, q, left_gens, right_gens):
    """The block (p, q, space, act) of commuting Sigma_p and Sigma_q actions."""
    left = eq.EquivariantSpace(space, p, left_gens)
    right = eq.EquivariantSpace(space, q, right_gens)
    return p, q, space, lambda beta, gamma: left.act(beta).compose(right.act(gamma))


def trivial_biaction(space, p, q):
    ident = sset.identity_map(space)
    return biaction(space, p, q, [ident] * max(0, p - 1), [ident] * max(0, q - 1))


def test_balanced_smash_summand_count():
    import math

    K = sset.zero_sphere()
    for n in range(1, 6):
        for p in range(n + 1):
            q = n - p
            bs = eq.balanced_smash(n, [trivial_biaction(K, p, q)])
            assert len([mu for _, _, mu in bs.parts]) == math.comb(n, p)
            assert K.n_cells(0) - 1 == 1
            nonbase = [
                c for c in bs.space.cell_ids() if c != bs.space.basepoint
            ]
            assert len(nonbase) == math.comb(n, p)
            if n <= 4:
                bs.validate()


def test_balanced_smash_degree_mismatch():
    import pytest

    with pytest.raises(ValueError):
        eq.balanced_smash(3, [trivial_biaction(sset.zero_sphere(), 1, 1)])


def test_balanced_smash_degree_mismatch_is_a_precondition_error():
    with pytest.raises(sset.PreconditionError, match=r"p\+q=n, got 1\+1 != 3"):
        eq.balanced_smash(3, [trivial_biaction(sset.zero_sphere(), 1, 1)])


def test_balanced_smash_full_block_recovers_the_left_action():
    fo = eq.free_orbit(2, sset.circle())
    A = biaction(fo.space, 2, 0, fo.generators, [])
    bs = eq.balanced_smash(2, [A])
    assert len([mu for _, _, mu in bs.parts]) == 1
    w = bs.wedge
    incl = w.inclusions[0]
    for c in w.space.cell_ids():
        if c == w.space.basepoint:
            continue
        _, orig = w.part_of[c]
        want = incl.apply(fo.generators[0].apply(((), orig)))
        assert bs.generators[0].assign[c] == want


def test_balanced_smash_of_two_singletons_swaps_summands():
    core = sset.circle()
    bs = eq.balanced_smash(2, [trivial_biaction(core, 1, 1)])
    w = bs.wedge
    for c in w.space.cell_ids():
        if c == w.space.basepoint:
            continue
        idx, orig = w.part_of[c]
        assert bs.generators[0].assign[c] == w.inclusions[1 - idx].apply(
            ((), orig)
        )


def test_balanced_smash_of_a_point_is_a_point():
    bs = eq.balanced_smash(3, [trivial_biaction(sset.point(), 1, 2)])
    assert sset.is_pointlike(bs.space)


def test_fold_of_the_balanced_square_is_equivariant():
    tower = eq.SphereTower()
    S2 = tower.space(2)
    twist = tower.action(2).generators[0]
    bs = eq.balanced_smash(2, [trivial_biaction(S2, 1, 1)])
    w = bs.wedge
    legs = (sset.identity_map(S2), twist)
    assign = {w.space.basepoint: ((), S2.basepoint)}
    for c in w.space.cell_ids():
        if c == w.space.basepoint:
            continue
        idx, orig = w.part_of[c]
        assign[c] = legs[idx].apply(((), orig))
    fold = sset.SimplicialMap(w.space, S2, assign)
    assert fold.is_valid()
    assert eq.is_equivariant(bs, eq.sphere_action(2, tower), fold)
    # folding without the twist on the second copy is not equivariant
    naive = {w.space.basepoint: ((), S2.basepoint)}
    for c in w.space.cell_ids():
        if c == w.space.basepoint:
            continue
        naive[c] = ((), w.part_of[c][1])
    assert not eq.is_equivariant(
        bs, eq.sphere_action(2, tower), sset.SimplicialMap(w.space, S2, naive)
    )


def test_is_equivariant_between_actions_on_the_sphere():
    tower = eq.SphereTower()
    S2 = tower.space(2)
    act = tower.action(2)
    triv = eq.trivial_action(S2, 2)
    ident = sset.identity_map(S2)
    assert eq.is_equivariant(act, act, ident)
    assert eq.is_equivariant(triv, triv, ident)
    # the identity does not intertwine the swap with the trivial action
    assert not eq.is_equivariant(act, triv, ident)
    assert not eq.is_equivariant(triv, act, ident)
    # but the swap map itself does intertwine the genuine action
    assert eq.is_equivariant(act, act, act.generators[0])


def test_is_equivariant_degree_mismatch():
    import pytest

    K = sset.circle()
    with pytest.raises(ValueError):
        eq.is_equivariant(
            eq.trivial_action(K, 2), eq.trivial_action(K, 3),
            sset.identity_map(K),
        )


def test_acts_freely_off_the_image_of_a_map():
    def image(f):
        return {form[1] for form in f.assign.values()}

    fo = eq.free_orbit(2, sset.zero_sphere())
    triv = eq.trivial_action(sset.zero_sphere(), 2)
    # the identity exempts everything
    circ = sset.circle()
    assert eq.acts_freely_off(
        eq.trivial_action(circ, 2), image(sset.identity_map(circ))
    )
    pt = sset.point()
    base_in = sset.SimplicialMap(
        pt, fo.space, {pt.basepoint: ((), fo.space.basepoint)}
    )
    assert eq.acts_freely_off(fo, image(base_in))
    base_in2 = sset.SimplicialMap(
        pt, triv.space, {pt.basepoint: ((), triv.space.basepoint)}
    )
    assert not eq.acts_freely_off(triv, image(base_in2))


# --- maps out of wedges of copies against their cell-by-cell oracles --------


def random_biaction(r):
    """Sigma_p x Sigma_q acting trivially, or through the two blocks of the
    Sigma_(p+q) action on a free orbit or on a sphere."""
    p, q = r.randint(0, 2), r.randint(0, 2)
    kind = r.randrange(3)
    if kind == 0:
        return trivial_biaction(corpus.random_space(r, 3), p, q)
    if kind == 1:
        act = eq.free_orbit(p + q, corpus.random_space(r, 3))
    else:
        act = eq.sphere_action(p + q)
    gens = act.generators
    return biaction(act.space, p, q, gens[: max(p - 1, 0)], gens[p : p + q - 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_wedge_actions_match_their_cellwise_oracles(seed):
    r = random.Random(seed)
    fo = eq.free_orbit(r.randint(0, 3), corpus.random_space(r, 3))
    assert fo.generators == oracle.free_orbit_generators_cellwise(fo)
    ordered = sorted(itertools.permutations(range(fo.n)))
    for c in fo.space.cell_ids():
        loc = fo.wedge.part_of[c]
        assert fo.cell_coords(c) == (loc and (ordered[loc[0]], loc[1]))
    A = random_biaction(r)
    p, q = A[0], A[1]
    bs = eq.balanced_smash(p + q, [A])
    assert bs.generators == oracle.balanced_smash_generators_cellwise(bs, [A])


# --- a permutation's map: one generator onto the shorter word's map ---------

_ACTIONS = {}


def actions():
    """Sphere levels with n <= 4, a free orbit, a normal-path level of a
    smash of spectra and a tensor level, which is a balanced smash."""
    if not _ACTIONS:
        tower = eq.SphereTower()
        F = sp.free_F(1, sset.circle(), 3, tower)
        FF = sp.smash_spectra(F, F)
        assert FF._forms is not None
        _ACTIONS.update({f"S{n}": tower.action(n) for n in range(5)})
        _ACTIONS["free orbit"] = eq.free_orbit(3, sset.circle())
        _ACTIONS["(F^SF)_3"] = FF.level(3)
        _ACTIONS["(F(x)F)_3"] = FF.T.level(3)
        assert type(_ACTIONS["(F(x)F)_3"]) is eq._BalancedSmash
    return _ACTIONS


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_matches_the_left_fold_along_the_reduced_word(data):
    name = data.draw(st.sampled_from(sorted(actions())))
    action = actions()[name]
    perm = data.draw(st.permutations(list(range(action.n))).map(tuple))
    assert action.act(perm).assign == oracle.act_by_reduced_word(action, perm).assign, (name, perm)


def test_act_rejects_a_tuple_that_is_not_a_permutation():
    act = eq.SphereTower().action(3)
    for bad in [(0, 0, 1), (1, 1, 0), (0, 1, 3)]:
        with pytest.raises(sset.PreconditionError, match=re.escape(f"{bad!r} is not in Sigma_3")):
            act.act(bad)
    assert set(act._acts) <= set(itertools.permutations(range(3)))


def test_is_equivariant_names_both_degrees():
    K = sset.circle()
    with pytest.raises(sset.PreconditionError, match="Sigma_2 and Sigma_3"):
        eq.is_equivariant(eq.trivial_action(K, 2), eq.trivial_action(K, 3), sset.identity_map(K))


def test_acts_freely_off_composes_once_per_permutation(monkeypatch):
    calls = []
    compose = sset.SimplicialMap.compose

    def counting(self, other):
        calls.append(self)
        return compose(self, other)

    fresh = eq.SphereTower().action(4)
    every = list(fresh.space.cell_ids())
    fresh.generators
    monkeypatch.setattr(sset.SimplicialMap, "compose", counting)
    assert eq.acts_freely_off(fresh, every)
    assert len(calls) == 23
    calls.clear()
    for perm in itertools.permutations(range(4)):
        oracle.act_by_reduced_word(fresh, perm)
    assert len(calls) == 72
