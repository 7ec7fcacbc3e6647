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

A spectrum is a left S-module in symmetric sequences, and
``SymmetricSpectrum.left_action`` is the one rule of that action: the
(p, q, mu) summand S^p ^ X_q of S (x) X goes to X_n by
s ^ x |-> m_mu . sigma^p(s ^ x).  The map lambda: S (x) X -> X, the free
extensions out of F_r K = S (x) G_r K, the multiplication of S and the
latching comparison X ^ Sbar -> X are all read off it.

A spectrum is its sequence: ``SymmetricSpectrum`` is a
``symseq.SymmetricSequence`` that also holds sigma, so it goes as it is
wherever a sequence is taken, into a tensor or as the source of a sequence
map.  A map of spectra is a map of sequences that commutes with the
structure maps: ``SpectrumMap`` is a ``symseq.SequenceMap`` whose
``validate`` adds the squares of ``sigma_square``, the one statement of
h_{n+1} . sigma = sigma . (S^1 ^ h_n), which the map enumerator of
``modelcheck`` reads too.  X ^_S Y is a coequalizer of X (x) Y, so a map
out of it is a map out of X (x) Y that respects the relations, and
``SmashSpectrum.descend`` is the one way through its quotients.
"""

import functools
import itertools

from . import equivariant as eq
from . import sset
from . import symseq as sq


class SymmetricSpectrum(sq.SymmetricSequence):
    """A symmetric sequence with structure maps, built lazily per level.

    The levels of the sequence ``seq`` it is built from become its own, so
    the spectrum is that sequence.  sigma_builder(n) must return (SmashResult of S^1 ^ X_n, the
    structure map out of it into X_{n+1}).  A subclass overrides
    ``_build_sigma`` in its place and passes None: a bound method kept on
    the instance would tie it into a reference cycle.
    """

    def __init__(self, tower, seq, sigma_builder, name=None):
        super().__init__([seq.level(n) for n in range(seq.bound + 1)], name=name or seq.name)
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
        return self._builder(n)

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
        except Exception:
            failures.append({"p": 0, "n": n, "reason": "level action invalid"})
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
    seq = sq.SymmetricSequence(
        [tower.action(n) for n in range(N + 1)], name="S"
    )

    def build(n):
        if n == 0:
            sm = sset.smash(tower.s1, tower.space(0))
            return sm, sset.smash_runit(sm)[0]
        tower.space(n + 1)
        return tower.smashes[n + 1], sset.identity_map(tower.space(n + 1))

    spec = SymmetricSpectrum(tower, seq, build, name="S")
    tower._sphere_spectra[N] = spec
    return spec


def point_spectrum(N, tower=None):
    tower = tower or eq.SphereTower()
    seq = sq.point_sequence(N)

    def build(n):
        sm = sset.smash(tower.s1, seq.space(n))
        return sm, sset.constant_map(sm.space, seq.space(n + 1))

    return SymmetricSpectrum(tower, seq, build, name="pt")


def bar_sphere(N, tower=None):
    """The sphere with level 0 replaced by a point: levels 1..N and their
    structure maps are the sphere's own.

    One instance per (tower, bound) while anything holds it, for the same
    reason as sphere_spectrum.
    """
    tower = tower or eq.SphereTower()
    spec = tower._bar_spectra.get(N)
    if spec is not None:
        return spec
    S = sphere_spectrum(N, tower)
    levels = [eq.trivial_action(sset.point(), 0)]
    levels += [S.level(n) for n in range(1, N + 1)]
    seq = sq.SymmetricSequence(levels, name="Sbar")

    def build(n):
        if n == 0:
            sm = sset.smash(tower.s1, seq.space(0))
            return sm, sset.constant_map(sm.space, seq.space(1))
        return S.structure_smash(n), S.sigma(n)

    spec = SymmetricSpectrum(tower, seq, build, name="Sbar")
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


def module_spectrum(X, W, name=None):
    """The free right extension X (x) W with sigma acting through X."""
    T = sq.tensor(X, W, name=name)

    def build(n):
        sm = sset.smash(X.tower.s1, T.space(n))
        return sm, sm.map_out(T.space(n + 1), _module_sigma(X, T, n))

    spec = SymmetricSpectrum(X.tower, T, build, name=name)
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
    ux = free_unit_inclusion(X)
    uy = free_unit_inclusion(Y)
    sm_mn = SXY.T.smashes[(m, n)]
    into = SXY.T.inclusion(m + n, m, n, tuple(range(m)))
    proj = SXY.quotients[m + n].projection
    phi = sm_kl.map_out(
        SXY.space(m + n),
        lambda fk, fl: proj.apply(into.apply(sm_mn.form_of_pair(ux.apply(fk), uy.apply(fl)))),
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
    quotients[n] is the quotient of (X (x) Y)_n by pairs[n], and the
    levels of the quotients are the spectrum's own levels.
    """

    def __init__(self, X, Y, name=None):
        tower, N = X.tower, X.bound
        if Y.tower is not tower:
            raise sset.PreconditionError("smash needs a shared circle")
        if Y.bound != N:
            raise sset.PreconditionError(f"smash needs equal bounds: {N}, {Y.bound}")
        self.X = X
        self.Y = Y
        T_xy = sq.tensor(X, Y)
        self.T = T_xy
        self.pairs = []
        self.quotients = []
        levels = []
        for n in range(N + 1):
            pairs = self._relations(n)
            quot = sset.quotient_by_pairs(
                T_xy.space(n), pairs, name=f"({X.name}^S{Y.name})_{n}"
            )
            self.pairs.append(pairs)
            self.quotients.append(quot)
            gens = [
                sset.descend(quot.projection, g, quot.projection)
                for g in T_xy.level(n).generators
            ]
            levels.append(eq.EquivariantSpace(quot.space, n, gens))
        name = name or f"({X.name}^S{Y.name})"
        super().__init__(tower, sq.SymmetricSequence(levels), None, name=name)

    @property
    def proj_seq(self):
        """The levelwise projection X (x) Y -> X ^_S Y, built on each read:
        kept on the spectrum, its target would tie it into a cycle."""
        return sq.SequenceMap(self.T, self, [q.projection for q in self.quotients])

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

    def _build_sigma(self, n):
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

    def descend(self, g, target, then=None):
        """The spectrum map X ^_S Y -> target through which g: X (x) Y ->
        target (with ``then``, then . g) factors, ``sset.descend`` through
        each level's quotient; g must respect the relations."""
        return SpectrumMap(self, target, [
            sset.descend(q.projection, g.level(n), then and then.level(n))
            for n, q in enumerate(self.quotients)
        ])


def smash_spectra(X, Y, name=None):
    return SmashSpectrum(X, Y, name=name)


def smash_unit_iso(SX):
    """For SX = smash(sphere, X): mutually inverse comparisons with X = SX.Y."""
    X = SX.Y
    N = SX.bound
    if any(SX.X.space(n) is not SX.tower.space(n) for n in range(N + 1)):
        raise sset.PreconditionError(f"the left factor of {SX!r} must be the sphere")
    fwd = SX.descend(left_action_map(X, SX.T), X)
    pt = sset._sole_point(SX.X.space(0))
    inv_comps = [
        SX.quotients[n].projection.compose(
            SX.T.inclusion(n, 0, n, ()).compose(SX.T.smashes[(0, n)].left_slice(pt))
        )
        for n in range(N + 1)
    ]
    return fwd, SpectrumMap(X, SX, inv_comps)


def smash_comm_iso(XY, YX):
    """The symmetry X ^_S Y -> Y ^_S X, descended from the tensor twist."""
    if XY.X is not YX.Y or XY.Y is not YX.X:
        raise sset.PreconditionError(f"{YX!r} is not the twist of {XY!r}")
    return XY.descend(sq.twist_iso(XY.T, YX.T), YX, then=YX.proj_seq)


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
    ``symseq.tensor_map`` checks that they run between the factors."""
    tm = sq.tensor_map(S_src.T, S_tgt.T, f, g)
    return S_src.descend(tm, S_tgt, then=S_tgt.proj_seq)


# ---------------------------------------------------------------------------
# prolongation, shift


class ProlongSpectrum(SymmetricSpectrum):
    """X ^ K levelwise: the spectrum is the sequence ``symseq.smash_space``
    builds and keeps its ``base_seq`` X, ``K`` and level ``smashes``; the
    structure map ignores the K coordinate."""

    def __init__(self, X, K, name=None):
        seq = sq.smash_space(X, K)
        self.base_seq, self.K, self.smashes = X, K, seq.smashes
        super().__init__(X.tower, seq, None, name=name)

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


def prolong_map(P_src, P_tgt, f=None, g=None):
    """f ^ g between prolongations; f a SpectrumMap, g a map of K spaces."""
    f_comps = (
        f.components
        if f is not None
        else [
            sset.identity_map(P_src.base_seq.space(n))
            for n in range(P_src.bound + 1)
        ]
    )
    g = g if g is not None else sset.identity_map(P_src.K)
    comps = [
        sset.smash_map(P_src.smashes[n], P_tgt.smashes[n], f_comps[n], g)
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
    comps = []
    for n in range(P.bound + 1):
        sm_t, into = SXF.T.smashes[(n, 0)], SXF.T.inclusion(n, n, 0, tuple(range(n)))
        proj = SXF.quotients[n].projection
        comps.append(
            P.smashes[n].map_out(
                SXF.space(n),
                lambda fx, fk: proj.apply(into.apply(sm_t.form_of_pair(fx, unit.apply(fk)))),
            )
        )
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
    seq = sq.SymmetricSequence(levels, name=f"sh{k}({X.name})")
    return SymmetricSpectrum(
        X.tower, seq, lambda n: X._pair(n + k), name=seq.name
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
    seq = sq.SymmetricSequence(
        levels, name=name or f"({U.name}+_{W.name}{V.name})"
    )

    def build(n):
        # S^1 ^ P_n is the pushout of the parts' S^1 ^ U_n and S^1 ^ V_n, and
        # sigma the map out of it given by their structure maps; its descent
        # check is that both structure squares commute
        po, po1 = pos[n], pos[n + 1]
        sm = sset.smash(U.tower.s1, po.space)
        s1 = sset.identity_map(U.tower.s1)
        parts = ((U, po.leg1, po1.leg1), (V, po.leg2, po1.leg2))
        w = sset.wedge([X.structure_smash(n).space for X, _, _ in parts])
        onto = w.map_out(
            [sset.smash_map(X.structure_smash(n), sm, s1, to_n) for X, to_n, _ in parts]
        )
        sigma = w.map_out([to_n1.compose(X.sigma(n)) for X, _, to_n1 in parts])
        return sm, sset.descend(onto, sigma)

    P = SymmetricSpectrum(U.tower, seq, build, name=seq.name)
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


def _space_pushout_product(f, g):
    """The corner map of space maps f: U -> V, g: X -> Y."""
    U, V, Xs, Ys = f.source, f.target, g.source, g.target
    sm_ux = sset.smash(U, Xs)
    sm_vx = sset.smash(V, Xs)
    sm_uy = sset.smash(U, Ys)
    sm_vy = sset.smash(V, Ys)
    a = sset.smash_map(sm_ux, sm_vx, f, sset.identity_map(Xs))
    b = sset.smash_map(sm_ux, sm_uy, sset.identity_map(U), g)
    po = sset.pushout(a, b, name="corner")
    to_vy = (
        sset.smash_map(sm_vx, sm_vy, sset.identity_map(V), g),
        sset.smash_map(sm_uy, sm_vy, f, sset.identity_map(Ys)),
    )
    corner = sset.map_out_of_pushout(po, *to_vy)
    corner.corner_pushout = po
    corner.corner_smashes = {
        "ux": sm_ux, "vx": sm_vx, "uy": sm_uy, "vy": sm_vy
    }
    return corner


def _corner(f, g, smash_of, map_of):
    """The corner of f: U -> V and g: X -> Y for one smash construction:
    smash_of(A, B) builds A ^ B and map_of(src, tgt, f, g) the map f ^ g
    between two of them, None standing for an identity.  Returns the
    corner map and the four smashes, keyed "ux", "vx", "uy", "vy"."""
    U, V, Xs, Ys = f.source, f.target, g.source, g.target
    ux, vx, uy, vy = smash_of(U, Xs), smash_of(V, Xs), smash_of(U, Ys), smash_of(V, Ys)
    a, b = map_of(ux, vx, f, None), map_of(ux, uy, None, g)
    P, leg1, leg2 = pushout_spectrum(a, b, name=f"corner({U.name},{Xs.name})")
    corner = map_out_of_pushout(P, map_of(vx, vy, None, g), map_of(uy, vy, f, None))
    corner.corner_legs = (leg1, leg2)
    return corner, {"ux": ux, "vx": vx, "uy": uy, "vy": vy}


def _smash_map_or_identity(src, tgt, f, g):
    f = f if f is not None else identity_spectrum_map(src.X)
    g = g if g is not None else identity_spectrum_map(src.Y)
    return smash_map_spectra(src, tgt, f, g)


def pushout_product(f, g):
    """f [] g: V^X +_{U^X} U^Y -> V^Y.

    Two space maps give a space map; two spectrum maps smash over the
    sphere; a spectrum map against a space map prolongs levelwise.
    """
    if isinstance(f, sset.SimplicialMap):
        return _space_pushout_product(f, g)
    if isinstance(g, SpectrumMap):
        corner, _ = _corner(f, g, smash_spectra, _smash_map_or_identity)
    else:
        corner, prolongs = _corner(f, g, prolong_smash, prolong_map)
        corner.corner_prolongs = prolongs
    return corner


# ---------------------------------------------------------------------------
# generating sets


def generating_sets(kind, N, R, bound=None, tower=None):
    """A finite slice (free degree <= N, simplex dimension <= R) of the
    named generating family; spectra are built with the given level bound
    (default N+1, enough for the cylinder legs of J_cylinder).  FI_boundary
    is F_n of the boundary inclusions, FI_horn F_n of the horn inclusions,
    and J_cylinder the horns followed by the corners of each lambda's
    mapping cylinder with the boundary inclusions."""
    tower = tower or eq.SphereTower()
    bound = bound if bound is not None else N + 1
    if kind == "FI_boundary":
        subs = [(r, sset.boundary_plus(r)) for r in range(R + 1)]
    elif kind in ("FI_horn", "J_cylinder"):
        subs = [(r, sset.horn_plus(r, i)) for r in range(1, R + 1) for i in range(r + 1)]
    else:
        raise ValueError(f"unknown generating set kind {kind!r}")
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
