"""Deterministic randomized fixtures shared by the acceptance suite.

Builders draw from seeded RNG instances so every failure reproduces, and
they only combine constructions that are valid by construction: subcomplex
inclusions for monomorphisms, free functors for stable cofibrations,
library spaces and free sequences for the coherence laws.
"""

import random

from symspec import equivariant as eq
from symspec import spectra as sp
from symspec import sset
from symspec import symseq as sq


def space_menu():
    return [
        sset.point(),
        sset.zero_sphere(),
        sset.circle(),
        sset.sphere(2),
        sset.delta_plus(1),
        sset.delta_plus(2),
        sset.boundary_plus(2),
        sset.horn_plus(2, 1),
        sset.wedge([sset.circle(), sset.circle()], name="S1vS1").space,
    ]


def nonbase_cells(X):
    return sum(X.n_cells(k) for k in X.cells) - 1


def rebased(X, v):
    """X with the vertex v as its basepoint."""
    return sset.PointedSimplicialSet(X.cells, X.faces, v, name=f"{X.name}@{v}")


def pinched_triangle():
    """Delta[2]+ with the edge {0,1} collapsed onto s_0 of the vertex 0: a
    2-cell whose face d_2 is degenerate on a non-base vertex."""
    D2 = sset.delta_plus(2)
    s = D2.subset_ids
    pair = (((), s[(0, 1)]), ((0,), s[(0,)]))
    return sset.quotient_by_pairs(D2, [pair], name="pinch2").space


def pinched_tetrahedron():
    """Delta[3]+ with the face {0,1,2} collapsed onto s_1 of the edge {0,1}:
    a 3-cell whose face d_3 is degenerate on a non-base edge."""
    D3 = sset.delta_plus(3)
    s = D3.subset_ids
    pair = (((), s[(0, 1, 2)]), ((1,), s[(0, 1)]))
    return sset.quotient_by_pairs(D3, [pair], name="pinch3").space


def random_space(r, max_cells=4):
    while True:
        X = r.choice(space_menu())
        if r.random() < 0.3:
            X = sset.wedge([X, r.choice(space_menu())]).space
        if nonbase_cells(X) <= max_cells:
            return X


def relabelled(X, r):
    """X under shuffled cell ids, its basepoint never the lowest vertex
    when it has another one."""
    ids = list(X.cell_ids())
    rename = dict(zip(ids, r.sample(range(len(ids)), len(ids))))
    top = max(X.cells[0], key=rename.get)
    if top != X.basepoint and rename[X.basepoint] == min(rename[v] for v in X.cells[0]):
        rename[X.basepoint], rename[top] = rename[top], rename[X.basepoint]
    cells = {k: [rename[c] for c in cs] for k, cs in X.cells.items()}
    faces = {rename[c]: tuple((w, rename[t]) for w, t in fs) for c, fs in X.faces.items()}
    return sset.PointedSimplicialSet(cells, faces, rename[X.basepoint], name=f"{X.name}'")


def random_subcomplex_inclusion(r, X, keep_chance=0.6):
    """A random face-closed subset of the cells, as an inclusion map."""
    keep = {X.basepoint}
    for c in X.cell_ids():
        if r.random() < keep_chance:
            keep.add(c)
    changed = True
    while changed:
        changed = False
        for c in list(keep):
            for _, t in X.faces.get(c, ()):
                if t not in keep:
                    keep.add(t)
                    changed = True
    cells = {k: tuple(c for c in ids if c in keep) for k, ids in X.cells.items()}
    faces = {c: X.faces[c] for c in keep if c in X.faces}
    A = sset.PointedSimplicialSet(cells, faces, X.basepoint, name=f"sub({X.name})")
    return sset.SimplicialMap(A, X, {c: ((), c) for c in A.cell_ids()})


def random_mono_pair(r, max_cells=4):
    f = random_subcomplex_inclusion(r, random_space(r, max_cells))
    g = random_subcomplex_inclusion(r, random_space(r, max_cells))
    return f, g


# ---------------------------------------------------------------------------
# symmetric sequences for the coherence laws


def random_sequence(r, bound):
    kind = r.randrange(6)
    if kind == 0:
        return sq.point_sequence(bound)
    if kind == 1:
        return sq.unit_sequence(bound)
    n = r.randint(0, min(2, bound))
    K = r.choice(
        [sset.zero_sphere(), sset.circle(), sset.delta_plus(1), sset.boundary_plus(2)]
    )
    return sq.free_G(n, K, bound)


def coherence_fixture(r):
    bound = r.randint(1, 3)
    return bound, tuple(random_sequence(r, bound) for _ in range(4))


# ---------------------------------------------------------------------------
# spectrum maps for the pushout-product suite


def random_stable_cofibration(r, tower, bound=3):
    """Either the inclusion of the point or the free functor on a mono."""
    n = r.randint(0, 2)
    if r.random() < 0.5:
        K = random_space(r, 3)
        F = sp.free_F(n, K, bound, tower)
        P = sp.point_spectrum(bound, tower)
        comps = [
            sset.constant_map(P.space(m), F.space(m)) for m in range(bound + 1)
        ]
        return sp.SpectrumMap(P, F, comps)
    incl = random_subcomplex_inclusion(r, random_space(r, 3))
    src = sp.free_F(n, incl.source, bound, tower)
    tgt = sp.free_F(n, incl.target, bound, tower)
    return sp.free_F_map(src, tgt, incl)


# ---------------------------------------------------------------------------
# the spectrum corpus for validator certification


def levels_of(X):
    """The level list of a sequence or spectrum, as a spectrum is built on."""
    return [X.level(n) for n in range(X.bound + 1)]


def trivial_action_spectrum(tower, bound=3):
    """Valid but not stably cofibrant: positive levels carry no free action."""
    levels = [eq.trivial_action(sset.point(), 0), eq.trivial_action(sset.point(), 1)]
    levels += [
        eq.trivial_action(sset.zero_sphere(), n) for n in range(2, bound + 1)
    ]

    def build(X, n):
        sm = sset.smash(tower.s1, X.space(n))
        return sm, sset.constant_map(sm.space, X.space(n + 1))

    return sp.SymmetricSpectrum(tower, levels, build, name="trivial-action")


def broken_equivariance_spectrum(tower, bound=3):
    """The free spectrum with one structure map twisted by a transposition.

    The twist does not commute with the block embedding of the level-two
    generator, so the p = 1 check at n = 2 fails.
    """
    assert bound >= 3
    F = sp.free_F(1, sset.zero_sphere(), bound, tower)
    twist = F.level(3).act(eq.transposition(3, 0))

    def build(X, n):
        sm = F.structure_smash(n)
        sig = F.sigma(n)
        if n == 2:
            sig = twist.compose(sig)
        return sm, sig

    return sp.SymmetricSpectrum(tower, levels_of(F), build, name="twisted-sigma")


def broken_shape_spectrum(tower, bound=2):
    """A structure map with a dimension-shifted image; not simplicial."""
    S = sp.sphere_spectrum(bound, tower)

    def build(X, n):
        sm = S.structure_smash(n)
        sig = S.sigma(n)
        if n == 0:
            assign = dict(sig.assign)
            c = next(
                c for c in sm.space.cell_ids() if sm.space.dim_of[c] == 1
            )
            assign[c] = ((0,), sig.assign[c][1])
            sig = sset.SimplicialMap(sm.space, S.space(1), assign)
        return sm, sig

    return sp.SymmetricSpectrum(tower, levels_of(S), build, name="shifted-sigma")


def spectrum_corpus(tower, bound=3):
    """Valid spectra of every construction kind plus structurally broken ones."""
    F1 = sp.free_F(1, sset.zero_sphere(), bound, tower)
    return [
        sp.sphere_spectrum(bound, tower),
        sp.point_spectrum(bound, tower),
        sp.bar_sphere(bound, tower),
        sp.free_F(0, sset.circle(), bound, tower),
        sp.free_F(1, sset.circle(), bound, tower),
        sp.free_F(2, sset.zero_sphere(), bound, tower),
        sp.prolong_smash(F1, sset.circle()),
        sp.smash_spectra(F1, sp.free_F(0, sset.zero_sphere(), bound, tower)),
        trivial_action_spectrum(tower, bound),
        broken_equivariance_spectrum(tower, bound),
        broken_shape_spectrum(tower, min(2, bound)),
    ]


# ---------------------------------------------------------------------------
# spaces for the homology self-checks


def homology_space_fixtures():
    fixtures = space_menu() + [sset.sphere(3), sset.horn_plus(2, 0)]
    r = random.Random(20260817)
    for _ in range(4):
        fixtures.append(random_space(r, max_cells=5))
    return fixtures
