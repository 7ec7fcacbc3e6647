"""Symmetric spectra: sequences of spaces tied together by circle smashing.

A spectrum is a symmetric sequence with structure maps sigma: S^1 ^ X_n ->
X_{n+1} for n below the bound.  The iterated maps sigma^p must be
(Sigma_p x Sigma_n)-equivariant, Sigma_p on the first p letters; the
validator certifies every p+n within the bound even though sigma and
sigma^2 alone force the rest.  Smashing over the sphere divides X (x) Y
levelwise by the bimorphism relations: one circle coordinate pushed through
sigma of X against the same coordinate pushed through sigma of Y, moved by
every (1, n-1)-shuffle.  S is generated by S^1 as a commutative monoid, so
these generate the coequalizer of (X (x) S (x) Y) =| (X (x) Y) without
building the triple tensor.

``SmashSpectrum`` builds that coequalizer one of two ways, chosen by the
left factor's data.  X is S-cofibrant when every latching comparison
L_pX -> X_p is injective (``SymmetricSpectrum.latching_forms`` is not
None); then every class of X (x) Y has exactly one normal cell, one whose
X-coordinate has its root off L_pX, and the levels are built from the
normal cells directly, with no tensor, relation pairs or closure.  Any
other left factor (the bar sphere, a trivial action above a point) takes
the quotient path, which divides the tensor by the relations and is the
oracle of the normal path.

A spectrum is a left S-module in symmetric sequences, and
``SymmetricSpectrum.left_action`` is the one rule of that action: the
(p, q, mu) summand S^p ^ X_q of S (x) X goes to X_n by
s ^ x |-> m_mu . sigma^p(s ^ x).  The map lambda: S (x) X -> X, the free
extensions out of F_r K = S (x) G_r K, the multiplication of S, the
latching comparison X ^ Sbar -> X (``SymmetricSpectrum.latching_action``,
which the latching normal forms read too) and the move of circle
coordinates onto Y in the normal forms of X ^_S Y are all read off it.

A spectrum is its sequence: ``SymmetricSpectrum`` is a
``symseq.SymmetricSequence`` that also holds sigma, so it goes as it is
wherever a sequence is taken, into a tensor or as the source of a sequence
map.  A map of spectra is a map of sequences that commutes with the
structure maps: ``SpectrumMap`` is a ``symseq.SequenceMap`` whose
``validate`` adds the squares of ``sigma_square``, the one statement of
h_{n+1} . sigma = sigma . (S^1 ^ h_n), which the map enumerator of
``modelcheck`` reads too.  X ^_S Y is a coequalizer of X (x) Y, so a map
out of it is a map out of X (x) Y that respects the relations, given
summand by summand, and ``SmashSpectrum.descend`` is the one way out: on
the normal path it reads each normal cell's value and checks every other
cell against its normal form, with no tensor; on the quotient path it
descends through the quotients.  ``SmashSpectrum.pair_form`` is the class
of a pair x ^ y on either path.
"""

import functools
import itertools

from . import equivariant as eq
from . import sset
from . import symseq as sq


class SymmetricSpectrum(sq.SymmetricSequence):
    """A symmetric sequence with structure maps, built lazily per level.

    ``levels`` holds one EquivariantSpace per degree 0..bound, and the
    spectrum is the sequence of them.  sigma_builder(X, n) must return
    (SmashResult of S^1 ^ X_n, the structure map out of it into X_{n+1})
    for the spectrum X it is called on, so a builder reads the levels off X
    and holds none of them.  A subclass overrides ``_build_sigma`` in its
    place and passes None: a bound method kept on the instance would tie it
    into a reference cycle.
    """

    def __init__(self, tower, levels, sigma_builder, name=None):
        super().__init__(levels, name=name)
        self.tower = tower
        self._builder = sigma_builder
        self._structure = {}
        self._power = {}
        self._sigma_power = {}

    def __repr__(self):
        return f"<spectrum {self.name} bound={self.bound}>"

    @property
    def seq(self):
        """The spectrum itself, kept only for ``bench/tracer.py``, which
        counts the cells of a smash of spectra through ``out.seq``."""
        return self

    def _pair(self, n):
        if n not in self._structure:
            if not 0 <= n < self.bound:
                raise sset.PreconditionError(f"{self!r} has no structure map at level {n}")
            self._structure[n] = self._build_sigma(n)
        return self._structure[n]

    def _build_sigma(self, n):
        return self._builder(self, n)

    def structure_smash(self, n):
        """The smash object S^1 ^ X_n the structure map is defined on."""
        return self._pair(n)[0]

    def sigma(self, n):
        return self._pair(n)[1]

    def power_smash(self, p, n):
        """S^p ^ X_n (p >= 1), shared by sigma_power and the validator."""
        if p < 1:
            raise sset.PreconditionError(f"no power smash S^{p} ^ X_{n}")
        if p == 1:
            return self.structure_smash(n)
        key = (p, n)
        if key not in self._power:
            self._power[key] = sset.smash(self.tower.space(p), self.space(n))
        return self._power[key]

    def sigma_power(self, p, n):
        """sigma^p: S^p ^ X_n -> X_{n+p}, the iterate sigma . (S^1 ^ sigma^(p-1))
        on S^p = S^1 ^ S^(p-1); each sigma^(p-1) is built once."""
        if not (p >= 1 and p + n <= self.bound):
            raise sset.PreconditionError(f"no sigma^{p} on level {n} of {self!r}")
        if p == 1:
            return self.sigma(n)
        key = (p, n)
        if key not in self._sigma_power:
            source = self.power_smash(p, n)
            split = self.tower.smashes[p].split
            inner, inner_sm = self.sigma_power(p - 1, n), self.power_smash(p - 1, n)
            outer, outer_sm = self.sigma(n + p - 1), self.structure_smash(n + p - 1)

            def value(fs, fx):
                t, rest = split(fs)
                fx = inner.apply(inner_sm.form_of_pair(rest, fx))
                return outer.apply(outer_sm.form_of_pair(t, fx))

            self._sigma_power[key] = source.map_out(self.space(n + p), value)
        return self._sigma_power[key]

    def left_action(self, n, p, q, mu):
        """The (p, q, mu) summand of the action S (x) X -> X at level n: the
        pair function (s, x) |-> m_mu . sigma^p(s ^ x) from S^p ^ X_q to
        X_n, for p = 0 the shuffle m_mu . x alone."""
        shuffle = self.level(n).act(eq.shuffle_perm(mu, p, q))
        if not p:
            return lambda fs, fx: shuffle.apply(fx)
        sp, ps = self.sigma_power(p, q), self.power_smash(p, q)
        return lambda fs, fx: shuffle.apply(sp.apply(ps.form_of_pair(fs, fx)))

    def latching_action(self, n, p, q, mu):
        """The (p, q, mu) summand of the latching comparison X (x) Sbar -> X
        at level n, as the pair function (x, s) -> form of X_n: x ^ s goes
        by the (q, p) summand of ``left_action`` onto the complement of mu,
        since m_mu . rho_{q,p} is the (q, p)-shuffle onto it."""
        act = self.left_action(n, q, p, eq.shuffle_perm(mu, p, q)[p:])
        return lambda fx, fs: act(fs, fx)

    @functools.cached_property
    def latching_forms(self):
        """X's latching normal forms, or None when X is not S-cofibrant.

        Entry p maps each cell a of X_p in the image of L_pX to
        (p', r, nu, x, s): a is the comparison's value on the normal cell
        x ^ s of the (p', r, nu) copy of X_p' ^ Sbar_r, x with its root off
        L_p'X, so a = m . sigma^r(s ^ x).  None when some comparison
        L_pX -> X_p is not injective.  Only forms are kept, so the table
        ties nothing to X.

        It is built level by level: L_pX = (X ^ Sbar)_p reads X below p
        only (Sbar_0 is a point), so once the comparisons below p are
        injective, its cells are the normal cells of (X (x) Sbar)_p, met
        here as the cells s ^ x of S^r ^ X_p' that ``latching_action``
        reads, and L_pX -> X_p is injective exactly when their values are
        distinct nondegenerate cells.
        """
        forms = []
        for p in range(self.bound + 1):
            level = {}
            for p2 in range(p):
                if len(forms[p2]) == len(self.space(p2).dim_of) - 1:
                    continue  # X_p2 lies in L_p2X
                r, ps = p - p2, self.power_smash(p - p2, p2)
                base = ps.space.basepoint
                normal = [
                    (x, s)
                    for s, x in (ps.split(((), c)) for c in ps.space.cell_ids() if c != base)
                    if x[1] not in forms[p2]
                ]
                for nu in eq.all_shuffles(p2, r):
                    act = self.latching_action(p, p2, r, nu)
                    for x, s in normal:
                        w, a = act(x, s)
                        if w or a == self.space(p).basepoint or a in level:
                            return None
                        level[a] = (p2, r, nu, x, s)
            forms.append(level)
        return forms


class SpectrumMap(sq.SequenceMap):
    """A map of the underlying sequences between two spectra on one circle;
    ``validate`` adds the structure squares to the levelwise checks."""

    def __init__(self, source, target, components):
        if source.tower is not target.tower:
            raise sset.PreconditionError(f"{source!r} and {target!r} need a shared circle")
        super().__init__(source, target, components)

    def validate(self):
        """The levelwise checks of ``SequenceMap.validate``, then every
        structure square; a failed square raises ``sset.IdentityError``
        naming the level and the first cell of S^1 ^ X_n where it fails."""
        super().validate()
        for n in range(self.source.bound):
            lhs, rhs = sigma_square(
                self.source, self.target, self.components[n], self.components[n + 1], n
            )
            sset.require_equal(lhs, rhs, f"level {n}: f sigma = sigma (1 ^ f)")
        return True


def sigma_square(A, X, h_n, h_n1, n):
    """The two sides h_{n+1} . sigma and sigma . (S^1 ^ h_n) of the structure
    square of level n, for h_n: A_n -> X_n and h_n1: A_{n+1} -> X_{n+1}."""
    lifted = sset.smash_map(
        A.structure_smash(n), X.structure_smash(n), sset.identity_map(A.tower.s1), h_n
    )
    return h_n1.compose(A.sigma(n)), X.sigma(n).compose(lifted)


def identity_spectrum_map(X):
    return SpectrumMap(
        X, X, [sset.identity_map(X.space(n)) for n in range(X.bound + 1)]
    )


def validate_spectrum(X, quick=False):
    """Structured report on the spectrum axioms; never raises.

    Checks each level's group presentation, then every sigma^p for
    p+n <= bound in order of total degree, so sigma and sigma^2 problems
    surface before their consequences.  quick=True stops at p = 2.
    """
    failures = []
    N = X.bound
    for n in range(N + 1):
        try:
            X.level(n).validate()
        except Exception as exc:
            failures.append({"p": 0, "n": n, "reason": f"level action invalid: {exc}"})
    checks = sorted(
        ((p, n) for p in range(1, N + 1) for n in range(N - p + 1)),
        key=lambda t: (t[0] + t[1], t[0]),
    )
    if quick:
        checks = [t for t in checks if t[0] <= 2]
    for p, n in checks:
        try:
            sp = X.sigma_power(p, n)
            if not sp.is_valid():
                failures.append(
                    {"p": p, "n": n, "reason": "structure map not simplicial"}
                )
                continue
            ps = X.power_smash(p, n)
            ident_sphere = sset.identity_map(X.tower.space(p))
            ident_level = sset.identity_map(X.space(n))
            for i, g in enumerate(X.tower.action(p).generators):
                lhs = sp.compose(sset.smash_map(ps, ps, g, ident_level))
                rhs = X.level(n + p).generators[i].compose(sp)
                if lhs != rhs:
                    failures.append(
                        {"p": p, "n": n, "reason": f"sphere letter {i} not equivariant"}
                    )
            for j, g in enumerate(X.level(n).generators):
                lhs = sp.compose(sset.smash_map(ps, ps, ident_sphere, g))
                rhs = X.level(n + p).generators[p + j].compose(sp)
                if lhs != rhs:
                    failures.append(
                        {"p": p, "n": n, "reason": f"level letter {j} not equivariant"}
                    )
        except Exception as exc:
            failures.append({"p": p, "n": n, "reason": f"check aborted: {exc}"})
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# canonical spectra


def sphere_spectrum(N, tower=None):
    """Spheres with coordinate permutation; sigma inserts the new factor.

    One instance per (tower, bound) while anything holds it, so
    sequence-identity assertions hold across everything built from the same
    tower.
    """
    tower = tower or eq.SphereTower()
    spec = tower._sphere_spectra.get(N)
    if spec is not None:
        return spec

    def build(X, n):
        if n == 0:
            sm = sset.smash(tower.s1, tower.space(0))
            return sm, sset.smash_runit(sm)[0]
        tower.space(n + 1)
        return tower.smashes[n + 1], sset.identity_map(tower.space(n + 1))

    spec = SymmetricSpectrum(tower, [tower.action(n) for n in range(N + 1)], build, name="S")
    tower._sphere_spectra[N] = spec
    return spec


def _constant_structure(X, n):
    """The structure map of X that sends all of S^1 ^ X_n to the base."""
    sm = sset.smash(X.tower.s1, X.space(n))
    return sm, sset.constant_map(sm.space, X.space(n + 1))


def point_spectrum(N, tower=None):
    tower = tower or eq.SphereTower()
    levels = [eq.trivial_action(sset.point(), n) for n in range(N + 1)]
    return SymmetricSpectrum(tower, levels, _constant_structure, name="pt")


def bar_sphere(N, tower=None):
    """The sphere with level 0 replaced by a point: levels 1..N and their
    structure maps are the sphere's own.

    One instance per (tower, bound) while anything holds it, for the same
    reason as sphere_spectrum.  Its level-0 structure smash S^1 ^ pt is the
    tower's ``point_smash``, so a bar sphere built again reuses it.
    """
    tower = tower or eq.SphereTower()
    spec = tower._bar_spectra.get(N)
    if spec is not None:
        return spec
    S = sphere_spectrum(N, tower)
    levels = [eq.trivial_action(tower.point_smash.B, 0)]
    levels += [S.level(n) for n in range(1, N + 1)]

    def build(X, n):
        if n == 0:
            sm = tower.point_smash
            return sm, sset.constant_map(sm.space, X.space(1))
        return S.structure_smash(n), S.sigma(n)

    spec = SymmetricSpectrum(tower, levels, build, name="Sbar")
    tower._bar_spectra[N] = spec
    return spec


def bar_inclusion(bar, sphere):
    """i: Sbar -> S, the identity on positive levels."""
    comps = [sset.constant_map(bar.space(0), sphere.space(0))]
    comps += [
        sset.identity_map(bar.space(n)) for n in range(1, bar.bound + 1)
    ]
    return SpectrumMap(bar, sphere, comps)


# ---------------------------------------------------------------------------
# module structure over the sphere


def _module_sigma(X, T, n):
    """sigma of the module T = X (x) W on level n, as (ft, fx) -> form.

    ft is a circle form and fx a form of T_n of the same dimension; the
    value is a form of T_{n+1}.  The circle suspends the X factor and the
    new letter joins that block in front: 1 (+) m_mu is itself the shuffle
    m_{(0,)+(mu+1)}, so nothing is left to act inside the factors.  The
    data of each summand is looked up once, on its first simplex.
    """
    space = T.space(n)
    routes = {}

    def route(p, q, mu):
        return (
            T.smashes[(p, q)].split,
            X.structure_smash(p),
            X.sigma(p),
            T.smashes[(p + 1, q)],
            T.inclusion(n + 1, p + 1, q, (0,) + tuple(m + 1 for m in mu)),
        )

    def value(ft, fx):
        w, tc = fx
        if tc == space.basepoint:
            return T.space(n + 1).base(space.form_dim(fx))
        part, orig = T.summand_of(n, tc)
        if part not in routes:
            routes[part] = route(*part)
        split, s1_x, sigma, sm, into = routes[part]
        fa, fb = split((w, orig))
        return into.apply(sm.form_of_pair(sigma.apply(s1_x.form_of_pair(ft, fa)), fb))

    return value


def _module_structure(Z, n):
    """sigma of a module spectrum Z, whose levels are those of its tensor Z.T."""
    T = Z.T
    sm = sset.smash(Z.tower.s1, T.space(n))
    return sm, sm.map_out(T.space(n + 1), _module_sigma(T.X, T, n))


def module_spectrum(X, W, name=None):
    """The free right extension X (x) W with sigma acting through X."""
    T = sq.tensor(X, W, name=name)
    levels = [T.level(n) for n in range(T.bound + 1)]
    spec = SymmetricSpectrum(X.tower, levels, _module_structure, name=T.name)
    spec.T = T
    return spec


def free_F(n, K, N, tower=None):
    """The free spectrum on K in degree n: S (x) G_n K levelwise.

    Level m is (Sigma_m)+ ^_{Sigma_{m-n}} (S^{m-n} ^ K) for m >= n and a
    point below.
    """
    if not 0 <= n <= N:
        raise IndexError(f"free degree {n} outside 0..{N}")
    tower = tower or eq.SphereTower()
    sph = sphere_spectrum(N, tower)
    G = sq.free_G(n, K, N)
    spec = module_spectrum(sph, G, name=f"F{n}({K.name})")
    spec.G = G
    spec.K = K
    spec.free_degree = n
    spec.sphere = sph
    return spec


def free_F_map(src, tgt, f):
    """F_n(f) for f: K -> L, the free extension of K -> L -> (F_n L)_n: the
    identity on the sphere coordinates.  The composite and
    ``free_extension`` check that f runs from K to L and that both spectra
    are free in degree n on one circle."""
    return free_extension(src, tgt, free_unit_inclusion(tgt).compose(f))


def left_action_map(X, T):
    """lambda: S (x) X -> X, ``X.left_action`` on every summand; T is the
    tensor of the sphere with X."""
    if T.Y is not X:
        raise sset.PreconditionError(f"{T!r} is not a tensor with {X!r}")
    return T.map_out(X, X.left_action)


def free_extension(F, Z, phi):
    """The spectrum map F_r K -> Z extending phi: K -> Z_r.

    F_r K = S (x) G_r K, so this is the left action of S on Z after the
    adjoint Sigma_r+ ^ K -> Z_r, (rho, a) |-> rho . phi(a): a summand
    (m_mu; s ^ (rho ^ a)) goes to m_mu . sigma^p(s ^ (rho . phi(a))).
    """
    r = F.free_degree
    if F.tower is not Z.tower or F.bound != Z.bound:
        raise sset.PreconditionError(f"{F!r} and {Z!r} need a shared circle and equal bounds")
    if phi.source is not F.K or phi.target is not Z.space(r):
        raise sset.PreconditionError(f"{phi!r} does not run from K to level {r} of {Z!r}")
    orbit, Z_r = F.G.level(r), Z.level(r)
    adjoint = orbit.wedge.map_out([Z_r.act(rho).compose(phi) for rho in orbit.perms])

    def summand(m, p, q, mu):
        act = Z.left_action(m, p, q, mu)
        return lambda fs, fg: act(fs, adjoint.apply(fg))

    return SpectrumMap(F, Z, F.T.map_out(Z, summand).components)


def free_unit_inclusion(F):
    """The adjunction unit K -> (F_n K)_n, into the identity-coset copy."""
    n = F.free_degree
    sm = F.T.smashes[(0, n)]
    copy = F.G.level(n).copies[eq.identity_perm(n)]
    s0_in = sm.left_slice(sset._sole_point(F.sphere.space(0)))
    return F.T.inclusion(n, 0, n, ()).compose(s0_in.compose(copy))


def smash_free_iso(SXY, big, sm_kl):
    """F_{m+n}(K ^ L) -> smash(F_m K, F_n L), extending the paired units."""
    X, Y = SXY.X, SXY.Y
    m, n = X.free_degree, Y.free_degree
    if big.free_degree != m + n or big.K is not sm_kl.space:
        raise sset.PreconditionError(f"{big!r} is not free on K ^ L in degree {m + n}")
    if sm_kl.A is not X.K or sm_kl.B is not Y.K:
        raise sset.PreconditionError(f"{sm_kl.space!r} is not the smash of {X.K!r} and {Y.K!r}")
    ux, uy, mu = free_unit_inclusion(X), free_unit_inclusion(Y), tuple(range(m))
    phi = sm_kl.map_out(
        SXY.space(m + n),
        lambda fk, fl: SXY.pair_form(m + n, m, mu, ux.apply(fk), uy.apply(fl)),
    )
    return free_extension(big, SXY, phi)


def lambda_map(n, N, tower=None):
    """The comparison F_{n+1} S^1 -> F_n S^0 from the adjunction.

    Its adjoint picks out the identity-shuffle wedge summand of
    (F_n S^0)_{n+1}.
    """
    if n + 1 > N:
        raise IndexError(f"lambda at {n} needs bound at least {n + 1}")
    tower = tower or eq.SphereTower()
    tgt = free_F(n, sset.zero_sphere(), N, tower)
    circle = sset.circle()
    src = free_F(n + 1, circle, N, tower)
    pt = sset._sole_point(tgt.K)
    copy = tgt.G.level(n).copies[eq.identity_perm(n)]
    sm = tgt.T.smashes[(1, n)]
    edge = next(c for c in circle.cells[1])
    image = tgt.T.include(
        n + 1,
        1,
        n,
        (0,),
        sm.form_of_pair(((), edge), copy.apply(sset.base_form(pt, 1))),
    )
    phi = sset.SimplicialMap(
        circle,
        tgt.space(n + 1),
        {circle.basepoint: tgt.space(n + 1).base(0), edge: image},
    )
    bad = phi.failure(f"the adjoint of lambda at {n}: ")
    if bad:
        raise bad
    return free_extension(src, tgt, phi)


# ---------------------------------------------------------------------------
# the monoid structure on the sphere


class MonoidWitness:
    """The multiplication S (x) S -> S and the unit of the sphere.

    The multiplication is the left action of S on itself,
    ``left_action_map`` on the stored tensor T of the sphere with itself;
    it concatenates circle coordinates.  unit_map sends the unit sequence
    in at degree 0.
    """

    def __init__(self, sphere):
        N = sphere.bound
        self.sphere = sphere
        self.T = sq.tensor(sphere, sphere)
        self.pairing_seq = left_action_map(sphere, self.T)
        self.unit_seq = sq.unit_sequence(N)
        unit_comps = []
        for n in range(N + 1):
            space = self.unit_seq.space(n)
            if n == 0:
                pt = sset._sole_point(space)
                unit_comps.append(
                    sset.SimplicialMap(
                        space,
                        sphere.space(0),
                        {
                            space.basepoint: ((), sphere.space(0).basepoint),
                            pt: ((), sset._sole_point(sphere.space(0))),
                        },
                    )
                )
            else:
                unit_comps.append(
                    sset.constant_map(space, sphere.space(n))
                )
        self.unit_map = sq.SequenceMap(self.unit_seq, sphere, unit_comps)


def monoid_witness(sphere):
    return MonoidWitness(sphere)


# ---------------------------------------------------------------------------
# smash product of spectra


@functools.lru_cache(maxsize=None)
def _circle_pairings(d, edge):
    """(t, w) for each simplex t ^ s_w z of S^1 ^ Z off the wedge.

    z is a nondegenerate d-simplex of Z; t is a form over the circle whose
    only non-base cell is ``edge``, and t, s_w z are jointly nondegenerate.
    """
    out = []
    for k in (d, d + 1):
        if k == 0:
            continue
        for w in itertools.combinations(range(k - 1, -1, -1), k - d):
            free = [j for j in range(k - 1, -1, -1) if j not in w]
            for word in itertools.combinations(free, k - 1):
                out.append(((word, edge), w))
    return tuple(out)


class SmashSpectrum(SymmetricSpectrum):
    """X ^_S Y: X (x) Y divided levelwise by the bimorphism relations.

    A map X ^_S Y -> Z is a family X_p ^ Y_q -> Z_{p+q} compatible with
    sigma in each variable, and S is generated by S^1 as a commutative
    monoid, so one circle coordinate at a time suffices.  For every simplex
    t ^ z of S^1 ^ (X (x) Y)_{n-1}, z = x ^ y in the (p, q, mu) summand,
    pairs[n] relates sigma(t ^ x) ^ y in the (p+1, q, (0,)+(mu+1)) summand
    to x ^ sigma(t ^ y) in the (p, q+1, mu+1) summand, both moved by each
    (1, n-1)-shuffle; the set is Sigma_n-stable, so the actions descend.
    quotients[n] is the projection of (X (x) Y)_n onto the spectrum's
    level n.

    The levels are built one of two ways, chosen by the data of X alone.

    * Normal path, when X is S-cofibrant: every comparison L_pX -> X_p is
      injective (``latching_forms`` is not None).  Then each class of
      (X (x) Y)_n has exactly one normal cell, a cell x ^ y whose
      X-coordinate has its root off L_pX, and the normal cells, numbered
      in tensor (dim, id) order, are the cells of level n; the quotient
      keeps the smallest id of a class and renumbers in that order, so the
      ids are the same.  A tensor simplex whose X-coordinate lies in L_pX
      is m . sigma^r(s ^ x'') with x'' off L by X's latching normal form,
      and the relations move s onto Y by ``Y.left_action``: that rewrite
      gives the faces and the projection.  The Sigma_n generators and sigma
      (which moves the new circle onto Y) keep a normal cell normal, so
      they are read on it.  No tensor, no pairs and no closure are built,
      for the levels or for a map out: ``descend`` reads the coordinate
      pairs of each copy of X_p ^ Y_q (``sset.smash_pairs``) and checks
      every pair whose X-root lies in L_pX against its normal form, the
      cells the quotient path checks, so it builds no smash of a block
      without normal cells; ``pair_form`` is the normal form.  T, pairs
      and quotients are built on first read (``proj_seq``), the
      projection from the same normal forms.
    * Quotient path, otherwise: quotients[n] is ``sset.quotient_by_pairs``
      of (X (x) Y)_n by pairs[n], the generators descend through it, and
      sigma is checked on every generating pair.  It is also the oracle
      the normal path is tested against.
    """

    def __init__(self, X, Y, name=None):
        tower, N = X.tower, X.bound
        if Y.tower is not tower:
            raise sset.PreconditionError("smash needs a shared circle")
        if Y.bound != N:
            raise sset.PreconditionError(f"smash needs equal bounds: {N}, {Y.bound}")
        self.X = X
        self.Y = Y
        self._smashes = {}  # X_p ^ Y_q by (p, q), shared with T
        self._forms = self._route()
        if self._forms is None:
            levels = [self._quotient_level(n) for n in range(N + 1)]
        else:
            self._moves = {}
            self._cells = [self._normal_cells(n) for n in range(N + 1)]
            self._ids = [{cell: i for i, cell in enumerate(cells, 1)} for cells in self._cells]
            levels = [self._normal_level(n) for n in range(N + 1)]
        super().__init__(tower, levels, None, name=name or f"({X.name}^S{Y.name})")

    def _route(self):
        """X's ``latching_forms``: None sends the smash down the quotient path."""
        return self.X.latching_forms

    def _level_name(self, n):
        return f"({self.X.name}^S{self.Y.name})_{n}"

    @functools.cached_property
    def T(self):
        """The tensor X (x) Y, on the smashes the normal path has built."""
        return sq.tensor(self.X, self.Y, smashes=self._smashes)

    @functools.cached_property
    def pairs(self):
        """The generating pairs of every level, as forms of (X (x) Y)_n."""
        return [self._relations(n) for n in range(self.X.bound + 1)]

    @functools.cached_property
    def quotients(self):
        """The ``sset.QuotientResult`` of (X (x) Y)_n onto level n, per n."""
        if self._forms is None:
            return [
                sset.quotient_by_pairs(self.T.space(n), pairs, name=self._level_name(n))
                for n, pairs in enumerate(self.pairs)
            ]
        return [self._normal_quotient(n) for n in range(self.X.bound + 1)]

    @property
    def proj_seq(self):
        """The levelwise projection X (x) Y -> X ^_S Y, built on each read:
        kept on the spectrum, its target would tie it into a cycle."""
        return sq.SequenceMap(self.T, self, [q.projection for q in self.quotients])

    # -- the quotient path

    def _quotient_level(self, n):
        quot = self.quotients[n]
        gens = [
            sset.descend(quot.projection, g, quot.projection)
            for g in self.T.level(n).generators
        ]
        return eq.EquivariantSpace(quot.space, n, gens)

    def _relations(self, n):
        """The generating pairs of level n, as forms of (X (x) Y)_n."""
        if n == 0:
            return []
        X, Y, T = self.X, self.Y, self.T
        edge = X.tower.s1.cells[1][0]
        # the (1, n-1)-shuffle sending letter 0 to i is t_{i-1} ... t_0, so
        # the generators move each pair through all n positions in turn
        gens = T.level(n).generators
        pairs = []
        for p in range(n):
            q = n - 1 - p
            sm = T.smashes[(p, q)]
            sm_x, sm_y = T.smashes[(p + 1, q)], T.smashes[(p, q + 1)]
            sx, sy = X.structure_smash(p), Y.structure_smash(q)
            sig_x, sig_y = X.sigma(p), Y.sigma(q)
            copies = []
            for mu in eq.all_shuffles(p, q):
                up = tuple(m + 1 for m in mu)
                copies.append(
                    (T.inclusion(n, p + 1, q, (0,) + up), T.inclusion(n, p, q + 1, up))
                )
            for c in sm.space.cell_ids():
                if c == sm.space.basepoint:
                    continue
                for ft, w in _circle_pairings(sm.space.dim_of[c], edge):
                    x, y = sm.split((w, c))
                    via_x = sm_x.form_of_pair(sig_x.apply(sx.form_of_pair(ft, x)), y)
                    via_y = sm_y.form_of_pair(x, sig_y.apply(sy.form_of_pair(ft, y)))
                    for into_x, into_y in copies:
                        a, b = into_x.apply(via_x), into_y.apply(via_y)
                        if a == b:
                            continue
                        pairs.append((a, b))
                        for g in gens:
                            a, b = g.apply(a), g.apply(b)
                            pairs.append((a, b))
        return pairs

    def _quotient_sigma(self, n):
        X, T = self.X, self.T
        quot_n1 = self.quotients[n + 1]
        sm = sset.smash(self.tower.s1, self.quotients[n].space)
        lift = sset.first_preimages(self.quotients[n].projection)
        sigma = _module_sigma(X, T, n)
        sig = sm.map_out(
            quot_n1.space,
            lambda ft, fq: quot_n1.projection.apply(sigma(ft, (fq[0], lift[fq[1]]))),
        )
        # the choice of lift cannot matter: re-check on the generating
        # identifications under every circle degeneracy
        s1 = self.tower.s1
        edge = next(iter(s1.cells[1]))
        for a, b in self.pairs[n]:
            k = T.space(n).form_dim(a)
            if k == 0:
                continue
            for word in itertools.combinations(range(k - 1, -1, -1), k - 1):
                ft = (word, edge)
                va = quot_n1.projection.apply(sigma(ft, a))
                vb = quot_n1.projection.apply(sigma(ft, b))
                if va != vb:
                    where = f"sigma(t ^ a) = sigma(t ^ b) at t = {ft!r}, b = {b!r}"
                    raise sset.IdentityError(a, where, va, vb)
        return sm, sig

    # -- the normal path

    def _smash(self, p, q):
        """X_p ^ Y_q, shared by every copy (p, q, mu)."""
        if (p, q) not in self._smashes:
            self._smashes[(p, q)] = sset.smash(self.X.space(p), self.Y.space(q))
        return self._smashes[(p, q)]

    def _normal_cells(self, n):
        """The normal cells of (X (x) Y)_n, as (p, mu, c), in tensor (dim, id)
        order.

        A cell c of the (p, n-p, mu) copy of X_p ^ Y_{n-p} is normal when
        the root cell of its X-coordinate is off L_pX.  The tensor numbers
        its copies in (p, ``all_shuffles``) order and the cells of a copy in
        the smash's (dim, id) order, so its (dim, id) order on normal cells
        is (dim, copy, c).  A copy whose Y-level is a point, or whose X-level
        lies in L_pX, has none, and its smash is not built.
        """
        by_dim = {}
        for p in range(n + 1):
            q, inside = n - p, self._forms[p]
            if sset.is_pointlike(self.Y.space(q)) or len(inside) == len(self.X.space(p).dim_of) - 1:
                continue
            sm = self._smash(p, q)
            base = sm.space.basepoint
            cells = [
                c for c in sm.space.cell_ids() if c != base and sm.split(((), c))[0][1] not in inside
            ]
            for mu in eq.all_shuffles(p, q):
                for c in cells:
                    by_dim.setdefault(sm.space.dim_of[c], []).append((p, mu, c))
        return [cell for k in sorted(by_dim) for cell in by_dim[k]]

    def _place(self, n, p, mu, fx, fy):
        """The form of level n of fx ^ fy in the (p, n-p, mu) copy, for fx
        off L_pX."""
        sm = self._smash(p, n - p)
        w, c = sm.form_of_pair(fx, fy)
        return (w, 0) if c == sm.space.basepoint else (w, self._ids[n][(p, mu, c)])

    def _move(self, n, p, mu, p2, nu):
        """(mu2, the pair function (s, y) -> form of Y_{n-p2}) that moves
        the circle coordinates s of x = m_nu' . sigma^r(s ^ x'') in the
        (p, n-p, mu) copy onto Y.  The letters of x'' sit at mu[nu], which is
        mu2, those of s at mu[i] for i off nu, and those of y at the
        complement of mu; in the (p2, n-p2, mu2) copy the circle letters
        are the first r of Y's block, so they go to their places among the
        complement of mu2 by a (r, n-p)-shuffle of ``Y.left_action``."""
        key = (n, p, mu, p2, nu)
        if key not in self._moves:
            mu2 = tuple(mu[i] for i in nu)
            rest = [j for j in range(n) if j not in mu2]
            lam = tuple(rest.index(mu[i]) for i in range(p) if i not in nu)
            self._moves[key] = mu2, self.Y.left_action(n - p2, p - p2, n - p, lam)
        return self._moves[key]

    def _normal_form(self, n, p, mu, fx, fy):
        """The normal form, a form of level n, of the tensor simplex fx ^ fy
        in the (p, n-p, mu) summand."""
        w, a = fx
        entry = self._forms[p].get(a)
        if entry is not None:
            p2, _, nu, x, s = entry
            mu, move = self._move(n, p, mu, p2, nu)
            fx, fy = sset.word_compose(w, x), move(sset.word_compose(w, s), fy)
            p = p2
        return self._place(n, p, mu, fx, fy)

    def _normal_level(self, n):
        cells = self._cells[n]
        dims, faces, classes = {0: [0]}, {}, {}
        for i, (p, mu, c) in enumerate(cells, 1):
            sm = self._smash(p, n - p)
            dims.setdefault(sm.space.dim_of[c], []).append(i)
            if not sm.space.dim_of[c]:
                continue
            row = []
            for w, f in sm.space.faces[c]:
                if f == sm.space.basepoint:
                    row.append((w, 0))
                    continue
                key = (p, mu, f)
                out = classes.get(key)
                if out is None:
                    j = self._ids[n].get(key)
                    out = classes[key] = (
                        ((), j) if j is not None else self._normal_form(n, p, mu, *sm.split(((), f)))
                    )
                row.append(sset.word_compose(w, out) if w else out)
            faces[i] = tuple(row)
        space = sset.PointedSimplicialSet(dims, faces, 0, name=self._level_name(n))
        space.validate()
        generators = functools.partial(
            _normal_generators, n, space, cells, self._ids[n], self._smashes, self.X, self.Y
        )
        return eq.EquivariantSpace(space, n, generators)

    def _normal_quotient(self, n):
        """The projection of (X (x) Y)_n onto level n, copy by copy: a normal
        cell goes to its own id, any other cell to its normal form."""
        T, space = self.T, self.space(n)
        source = T.space(n)
        image = {source.basepoint: ((), 0)}
        for p in range(n + 1):
            sm = T.smashes[(p, n - p)]
            for mu in eq.all_shuffles(p, n - p):
                for c, (_, t) in T.inclusion(n, p, n - p, mu).assign.items():
                    if c != sm.space.basepoint:
                        image[t] = self._normal_form(n, p, mu, *sm.split(((), c)))
        class_of = {c: image[c] for c in source.cell_ids()}
        return sset.QuotientResult(space, sset.SimplicialMap(source, space, class_of), class_of)

    def _build_sigma(self, n):
        if self._forms is None:
            return self._quotient_sigma(n)
        Y, cells = self.Y, self._cells[n]
        sm = sset.smash(self.tower.s1, self.space(n))
        sigma_y = {q: (Y.structure_smash(q), Y.sigma(q)) for q in {n - p for p, _, _ in cells}}

        def value(ft, fz):
            # t ^ (x ^ y) = x ^ sigma(t ^ y) in the (p, q+1, mu+1) copy
            w, j = fz
            p, mu, c = cells[j - 1]
            fx, fy = self._smash(p, n - p).split((w, c))
            s1_y, sigma = sigma_y[n - p]
            fy = sigma.apply(s1_y.form_of_pair(ft, fy))
            return self._place(n + 1, p, tuple(m + 1 for m in mu), fx, fy)

        return sm, _checked(sm.map_out(self.space(n + 1), value), "sigma: ")

    def pair_form(self, n, p, mu, fx, fy):
        """The form of level n of fx ^ fy in the (p, n-p, mu) copy: its
        normal form, or on the quotient path its projection."""
        if self._forms is not None:
            return self._normal_form(n, p, mu, fx, fy)
        T = self.T
        form = T.include(n, p, n - p, mu, T.smashes[(p, n - p)].form_of_pair(fx, fy))
        return self.quotients[n].projection.apply(form)

    def descend(self, summand, target):
        """The spectrum map X ^_S Y -> target out of the map X (x) Y -> target
        given as ``TensorSequence.map_out`` takes it, which must respect the
        relations.  On the quotient path it is ``sset.descend`` of that map
        through each level's quotient.  On the normal path each normal cell
        takes its summand's value, and every other cell of every copy, the
        cells ``sset.descend`` checks, must take the value on its normal
        form.  Those are read as coordinate pairs, in cell order, whose
        X-root lies in L_pX; the first that fails raises ``IdentityError``
        naming its (p, q, mu) copy and smash cell, the smash built only
        then."""
        if self._forms is None:
            maps = self.T.map_out(target, summand).components
            return SpectrumMap(self, target, [
                sset.descend(q.projection, f) for q, f in zip(self.quotients, maps)
            ])
        comps = []
        for n, cells in enumerate(self._cells):
            tn, copies = target.space(n), {}
            assign = {0: ((), tn.basepoint)}
            for j, (p, mu, c) in enumerate(cells, 1):
                if (p, mu) not in copies:
                    copies[(p, mu)] = summand(n, p, n - p, mu)
                assign[j] = copies[(p, mu)](*self._smash(p, n - p).split(((), c)))
            g = sset.SimplicialMap(self.space(n), tn, assign)
            for p in range(n + 1):
                q, inside = n - p, self._forms[p]
                pairs = [
                    pair for pair in sset.smash_pairs(self.X.space(p), self.Y.space(q))
                    if pair[0][1] in inside
                ]
                for mu in eq.all_shuffles(p, q) if pairs else ():
                    f = copies.get((p, mu)) or summand(n, p, q, mu)
                    for fx, fy in pairs:
                        got, want = g.apply(self._normal_form(n, p, mu, fx, fy)), f(fx, fy)
                        if got != want:
                            c = self._smash(p, q).form_of_pair(fx, fy)[1]
                            raise sset.IdentityError(((p, q, mu), c), "g(q(c)) = f(c)", got, want)
            comps.append(g)
        return SpectrumMap(self, target, comps)


def _normal_generators(n, space, cells, ids, smashes, X, Y):
    """The Sigma_n generators of level n of X ^_S Y on the normal path, read
    on its normal cells: t_i moves the normal cell c of the (p, q, mu) copy
    to the cell beta ^ gamma (c) of the (p, q, mu2) copy, by the coset
    ``moves`` of the balanced smash over the blocks X_p ^ Y_q that hold
    normal cells; that cell is normal, since L_pX is Sigma_p-stable.
    Built on the level's first read of its generators; a module function,
    so the level it is kept on holds no smash spectrum."""
    blocks = sorted({(p, n - p) for p, _, _ in cells})
    acts = {(p, q): sq.block_action(smashes[(p, q)], X.level(p), Y.level(q)) for p, q in blocks}
    induced = eq.balanced_smash(n, [(p, q, smashes[(p, q)].space, acts[(p, q)]) for p, q in blocks])
    parts = induced.parts
    copy = {part: k for k, part in enumerate(parts)}
    gens = []
    for i, row in enumerate(induced.moves):
        assign = {0: ((), 0)}
        for j, (p, mu, c) in enumerate(cells, 1):
            q = n - p
            k, beta, gamma = row[copy[(p, q, mu)]]
            _, c2 = acts[(p, q)](beta, gamma).assign[c]
            assign[j] = ((), ids[(p, parts[k][2], c2)])
        gens.append(_checked(sset.SimplicialMap(space, space, assign), f"t_{i}: "))
    return gens


def _checked(f, where):
    """f, once ``SimplicialMap.failure`` finds no cell where it fails."""
    bad = f.failure(where)
    if bad:
        raise bad
    return f


def smash_spectra(X, Y, name=None):
    return SmashSpectrum(X, Y, name=name)


def smash_unit_iso(SX):
    """For SX = smash(sphere, X): mutually inverse comparisons with X = SX.Y."""
    X = SX.Y
    N = SX.bound
    if any(SX.X.space(n) is not SX.tower.space(n) for n in range(N + 1)):
        raise sset.PreconditionError(f"the left factor of {SX!r} must be the sphere")
    pt = sset._sole_point(SX.X.space(0))
    inv_comps = [
        sset.SimplicialMap(X.space(n), SX.space(n), {
            c: SX.pair_form(n, 0, (), sset.base_form(pt, k), ((), c))
            for c, k in X.space(n).dim_of.items()
        })
        for n in range(N + 1)
    ]
    return SX.descend(X.left_action, X), SpectrumMap(X, SX, inv_comps)


def smash_comm_iso(XY, YX):
    """The symmetry X ^_S Y -> Y ^_S X, descended from the twist: x ^ y in
    the (p, q, mu) copy goes to y ^ x in the (q, p) copy of the complement
    of mu."""
    if XY.X is not YX.Y or XY.Y is not YX.X:
        raise sset.PreconditionError(f"{YX!r} is not the twist of {XY!r}")

    def summand(n, p, q, mu):
        rest = tuple(i for i in range(n) if i not in mu)
        return lambda fx, fy: YX.pair_form(n, q, rest, fy, fx)

    return XY.descend(summand, YX)


def smash_assoc_iso(XY_Z, X_YZ):
    """(X ^_S Y) ^_S Z -> X ^_S (Y ^_S Z).

    Both sides are quotients of the triple tensor; the associator of
    sequences descends, with well-definedness checked on every fiber.
    """
    XY, Z = XY_Z.X, XY_Z.Y
    X, YZ = X_YZ.X, X_YZ.Y
    if not (isinstance(XY, SmashSpectrum) and isinstance(YZ, SmashSpectrum)):
        raise sset.PreconditionError("the inner factors must be smash spectra")
    if not (XY.X is X and XY.Y is YZ.X and YZ.Y is Z):
        raise sset.PreconditionError("both sides need the same three factors")
    Y = XY.Y
    C3 = sq.tensor(XY.T, Z)
    C3r = sq.tensor(X, YZ.T)
    al = sq.assoc_iso(XY.T, C3, YZ.T, C3r)
    p_left = XY_Z.proj_seq.compose(
        sq.tensor_map(C3, XY_Z.T, XY.proj_seq, sq.identity_seq_map(Z))
    )
    p_right = X_YZ.proj_seq.compose(
        sq.tensor_map(C3r, X_YZ.T, sq.identity_seq_map(X), YZ.proj_seq)
    )
    f = p_right.compose(al)
    comps = [
        sset.descend(p_left.level(n), f.level(n)) for n in range(XY_Z.bound + 1)
    ]
    return SpectrumMap(XY_Z, X_YZ, comps)


def smash_map_spectra(S_src, S_tgt, f, g):
    """The map X ^_S Y -> X' ^_S Y' induced by f: X -> X', g: Y -> Y';
    ``symseq.check_factor_maps`` checks that they run between the factors."""
    sq.check_factor_maps(S_src, S_tgt, f, g)

    def summand(n, p, q, mu):
        fp, gq = f.level(p), g.level(q)
        return lambda fx, fy: S_tgt.pair_form(n, p, mu, fp.apply(fx), gq.apply(fy))

    return S_src.descend(summand, S_tgt)


# ---------------------------------------------------------------------------
# prolongation, shift


class ProlongSpectrum(SymmetricSpectrum):
    """X ^ K levelwise: the levels are those ``symseq.smash_space_levels``
    builds, and the spectrum keeps its ``base_seq`` X, ``K`` and level
    ``smashes``; the structure map ignores the K coordinate."""

    def __init__(self, X, K, name=None):
        self.smashes, levels = sq.smash_space_levels(X, K)
        self.base_seq, self.K = X, K
        super().__init__(X.tower, levels, None, name=name or f"({X.name}^{K.name})")

    def _build_sigma(self, n):
        X, src_sm, tgt_sm = self.base_seq, self.smashes[n], self.smashes[n + 1]
        sm = sset.smash(self.tower.s1, self.space(n))

        def value(ft, fz):
            fx, fk = src_sm.split(fz)
            val = X.sigma(n).apply(X.structure_smash(n).form_of_pair(ft, fx))
            return tgt_sm.form_of_pair(val, fk)

        return sm, sm.map_out(self.space(n + 1), value)


def prolong_smash(X, K, name=None):
    return ProlongSpectrum(X, K, name=name)


def prolong_map(P_src, P_tgt, f, g):
    """f ^ g between prolongations; f a SpectrumMap, g a map of K spaces."""
    comps = [
        sset.smash_map(P_src.smashes[n], P_tgt.smashes[n], f.level(n), g)
        for n in range(P_src.bound + 1)
    ]
    return SpectrumMap(P_src, P_tgt, comps)


def prolong_unit_iso(P):
    """For a two-point K: the comparison X ^ K -> X and its inverse."""
    X = P.base_seq
    fwd_comps = []
    inv_comps = []
    for n in range(P.bound + 1):
        to_X, back = sset.smash_runit(P.smashes[n])
        fwd_comps.append(to_X)
        inv_comps.append(back)
    return SpectrumMap(P, X, fwd_comps), SpectrumMap(X, P, inv_comps)


def suspension_free_iso(P, F):
    """For P = sphere ^ K: the comparison with the degree-0 free spectrum."""
    if F.free_degree != 0 or F.K is not P.K:
        raise sset.PreconditionError(f"{F!r} is not free on {P.K!r} in degree 0")
    iso = sq.smash_space_iso(P, F.T)
    return SpectrumMap(P, F, iso.components)


def prolong_free_iso(P, SXF):
    """X ^ K -> X ^_S F_0 K, sending the K factor into the degree-0 summand."""
    X = P.base_seq
    F = SXF.Y
    if SXF.X is not X or F.free_degree != 0 or F.K is not P.K:
        raise sset.PreconditionError(f"{SXF!r} is not X ^_S F_0 K for {P!r}")
    unit = free_unit_inclusion(F)  # K into the degree-0 summand of F_0 K
    comps = [
        sm.map_out(
            SXF.space(n),
            lambda fx, fk: SXF.pair_form(n, n, tuple(range(n)), fx, unit.apply(fk)),
        )
        for n, sm in enumerate(P.smashes)
    ]
    return SpectrumMap(P, SXF, comps)


def shift(X, k):
    """Drop the first k levels; Sigma_n acts through the first n letters."""
    if k > X.bound:
        raise IndexError(f"shift by {k} exceeds bound {X.bound}")
    if k == 0:
        return X
    levels = [
        eq.EquivariantSpace(X.space(n + k), n, X.level(n + k).generators[:max(n - 1, 0)])
        for n in range(X.bound - k + 1)
    ]
    return SymmetricSpectrum(
        X.tower, levels, lambda _, n: X._pair(n + k), name=f"sh{k}({X.name})"
    )


# ---------------------------------------------------------------------------
# pushouts of spectra, cylinders, corner maps


def pushout_spectrum(F, G, name=None):
    """Pushout of U <-F- W -G-> V, with its two legs.

    Levels are space pushouts; actions and structure maps descend, each
    descent checked against both parts.
    """
    W, U, V = F.source, F.target, G.target
    if G.source is not W:
        raise sset.PreconditionError("a pushout needs legs with a common source")
    if U.tower is not V.tower or U.bound != V.bound:
        raise sset.PreconditionError(
            "a pushout needs a shared circle and equal bounds, "
            f"not {U.bound} and {V.bound}"
        )
    N = U.bound
    pos = [
        sset.pushout(F.level(n), G.level(n), name=f"po_{n}")
        for n in range(N + 1)
    ]
    levels = []
    for n, po in enumerate(pos):
        gens = [
            sset.map_out_of_pushout(po, po.leg1.compose(gu), po.leg2.compose(gv))
            for gu, gv in zip(U.level(n).generators, V.level(n).generators)
        ]
        levels.append(eq.EquivariantSpace(po.space, n, gens))

    def build(P, n):
        # S^1 ^ P_n is the pushout of the parts' S^1 ^ U_n and S^1 ^ V_n, and
        # sigma the map out of it given by their structure maps; its descent
        # check is that both structure squares commute
        po, po1 = P.pushouts[n], P.pushouts[n + 1]
        sm = sset.smash(P.tower.s1, po.space)
        s1 = sset.identity_map(P.tower.s1)
        parts = ((U, po.leg1, po1.leg1), (V, po.leg2, po1.leg2))
        w = sset.wedge([X.structure_smash(n).space for X, _, _ in parts])
        onto = w.map_out(
            [sset.smash_map(X.structure_smash(n), sm, s1, to_n) for X, to_n, _ in parts]
        )
        sigma = w.map_out([to_n1.compose(X.sigma(n)) for X, _, to_n1 in parts])
        return sm, sset.descend(onto, sigma)

    P = SymmetricSpectrum(U.tower, levels, build, name=name or f"({U.name}+_{W.name}{V.name})")
    P.pushouts = pos
    P.parts = (U, V)
    leg1 = SpectrumMap(U, P, [po.leg1 for po in pos])
    leg2 = SpectrumMap(V, P, [po.leg2 for po in pos])
    return P, leg1, leg2


def map_out_of_pushout(P, to1, to2):
    """h: P -> Z with h . leg1 = to1 and h . leg2 = to2, for P from
    ``pushout_spectrum``: ``sset.map_out_of_pushout`` on each level."""
    comps = [
        sset.map_out_of_pushout(po, to1.level(n), to2.level(n))
        for n, po in enumerate(P.pushouts)
    ]
    return SpectrumMap(P, to1.target, comps)


def _vertex_map(X, K, vertex_cell, P):
    """X -> X ^ K at a chosen vertex of K; P = prolong_smash(X, K)."""
    return SpectrumMap(
        X, P, [P.smashes[n].right_slice(vertex_cell) for n in range(X.bound + 1)]
    )


def mapping_cylinder(f):
    """(Mf, i, r, s) with f = r . i, r . s = id, i a levelwise mono.

    Mf glues X ^ Delta[1]_+ to Y along the vertex-0 end; i includes X at
    the vertex-1 end, s is the Y leg, r collapses the cylinder factor.
    """
    X, Y = f.source, f.target
    interval = sset.interval_plus()
    v0, v1 = interval.subset_ids[(0,)], interval.subset_ids[(1,)]
    cyl = prolong_smash(X, interval, name=f"cyl({X.name})")
    end0 = _vertex_map(X, interval, v0, cyl)
    end1 = _vertex_map(X, interval, v1, cyl)
    Mf, leg1, leg2 = pushout_spectrum(end0, f, name=f"M({X.name}->{Y.name})")
    i = leg1.compose(end1)
    s = leg2
    # r: collapse the interval, then f, and the identity on the Y part
    collapse = [
        sm.map_out(Y.space(n), lambda fx, fi: f.level(n).apply(fx))
        for n, sm in enumerate(cyl.smashes)
    ]
    r = map_out_of_pushout(Mf, SpectrumMap(cyl, Y, collapse), identity_spectrum_map(Y))
    return Mf, i, r, s


def corner_map(a, b, to1, to2, name):
    """The map out of the pushout of a and b given by to1 and to2, for a
    commuting square to1 . a = to2 . b of space maps or of spectrum maps.
    It keeps the pushout as ``corner_pushout``: for spectra a
    ``sset.PushoutResult`` of the spectrum and its legs alone."""
    if isinstance(a, sset.SimplicialMap):
        po = sset.pushout(a, b, name=name)
        corner = sset.map_out_of_pushout(po, to1, to2)
    else:
        P, leg1, leg2 = pushout_spectrum(a, b, name=name)
        po = sset.PushoutResult(P, leg1, leg2, None, None)
        corner = map_out_of_pushout(P, to1, to2)
    corner.corner_pushout = po
    return corner


def pushout_product(f, g):
    """f [] g: V^X +_{U^X} U^Y -> V^Y, the ``corner_map`` of the square of
    smashes f ^ X, U ^ g, V ^ g, f ^ Y, which it keeps as ``corner_smashes``
    keyed "ux", "vx", "uy", "vy".

    Two space maps give a space map; two spectrum maps smash over the
    sphere; a spectrum map against a space map prolongs levelwise.
    """
    U, V, X, Y = f.source, f.target, g.source, g.target
    id_f = id_g = sset.identity_map
    name = f"corner({U.name},{X.name})"
    if isinstance(f, sset.SimplicialMap):
        smash_of, map_of, name = sset.smash, sset.smash_map, "corner"
    elif isinstance(g, SpectrumMap):
        smash_of, map_of = smash_spectra, smash_map_spectra
        id_f = id_g = identity_spectrum_map
    else:
        smash_of, map_of, id_f = prolong_smash, prolong_map, identity_spectrum_map
    sm = {"ux": smash_of(U, X), "vx": smash_of(V, X), "uy": smash_of(U, Y), "vy": smash_of(V, Y)}
    corner = corner_map(
        map_of(sm["ux"], sm["vx"], f, id_g(X)),
        map_of(sm["ux"], sm["uy"], id_f(U), g),
        map_of(sm["vx"], sm["vy"], id_f(V), g),
        map_of(sm["uy"], sm["vy"], f, id_g(Y)),
        name,
    )
    corner.corner_smashes = sm
    return corner


# ---------------------------------------------------------------------------
# generating sets


def generating_sets(kind, N, R, tower=None):
    """A finite slice (free degree <= N, simplex dimension <= R) of the
    named generating family, its spectra at level bound N+1, enough for the
    cylinder legs of J_cylinder.  FI_boundary is F_n of the boundary
    inclusions, FI_horn F_n of the horn inclusions, and J_cylinder the horns
    followed by the corners of each lambda's mapping cylinder with the
    boundary inclusions."""
    tower = tower or eq.SphereTower()
    bound = N + 1
    if kind == "FI_boundary":
        subs = [(r, sset.boundary_plus(r)) for r in range(R + 1)]
    elif kind in ("FI_horn", "J_cylinder"):
        subs = [(r, sset.horn_plus(r, i)) for r in range(1, R + 1) for i in range(r + 1)]
    else:
        raise sset.PreconditionError(f"unknown generating set kind {kind!r}")
    incl = [sset.subset_inclusion(A, sset.delta_plus(r)) for r, A in subs]
    out = [
        free_F_map(free_F(n, f.source, bound, tower), free_F(n, f.target, bound, tower), f)
        for n in range(N + 1)
        for f in incl
    ]
    if kind == "J_cylinder":
        for n in range(N + 1):
            _, c_n, _, _ = mapping_cylinder(lambda_map(n, bound, tower))
            for r in range(R + 1):
                f = sset.subset_inclusion(sset.boundary_plus(r), sset.delta_plus(r))
                out.append(pushout_product(c_n, f))
    return out
