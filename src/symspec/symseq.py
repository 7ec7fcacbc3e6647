"""Truncated symmetric sequences and their tensor product.

A sequence holds one EquivariantSpace per degree 0..bound.  The tensor
product at degree n is one balanced smash, ``equivariant.balanced_smash``,
over its blocks X_p ^ Y_q with p+q = n: the wedge, over p and over
(p, q)-shuffles mu, of copies of X_p ^ Y_q, where a permutation moves a
(p, q, mu) summand to the (p, q, mu') summand found by factoring
alpha . m_mu = m_mu' . (beta (+) gamma) and letting beta, gamma act inside
the smash factors (``block_action``).  The generators of a degree are
built when first read, so a tensor read only through maps out of it builds
no action.  Degree n of a tensor depends only on degrees <= n of the
inputs, so truncation is exact.

A map out of X (x) Y is a bimorphism, one map out of each summand
X_p ^ Y_q; ``TensorSequence.map_out`` takes it summand by summand, so the
maps out of a tensor read no wedge or smash bookkeeping themselves.  The
levels of ``map_out`` are ``WedgeResult.map_out`` of one map per copy.  Only
``TensorSequence`` reads its wedge bookkeeping (``wedges``, ``parts``,
``part_index``); other modules reach a summand through ``inclusion`` and
``summand_of``.  Checks raise ``sset.PreconditionError`` for arguments a
construction does not take and ``sset.IdentityError`` for a failed square.
"""

from . import equivariant as eq
from . import sset


class SymmetricSequence:
    def __init__(self, levels, name=None):
        for n, lv in enumerate(levels):
            if lv.n != n:
                raise sset.PreconditionError(f"level {n} needs a degree-{n} action, not {lv.n}")
        self._levels = list(levels)
        self.name = name

    def __repr__(self):
        return f"<seq {self.name or '?'} bound={self.bound}>"

    @property
    def bound(self):
        return len(self._levels) - 1

    def level(self, n):
        if not 0 <= n < len(self._levels):
            raise IndexError(f"level {n} outside bound {self.bound}")
        return self._levels[n]

    def space(self, n):
        return self.level(n).space


def eval_level(X, n):
    """The degree-n equivariant space (evaluation at n)."""
    return X.level(n)


def truncate(X, bound):
    if bound > X.bound:
        raise sset.PreconditionError(f"cannot truncate {X!r} to bound {bound}")
    return SymmetricSequence([X.level(n) for n in range(bound + 1)], name=X.name)


class SequenceMap:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = list(components)

    def level(self, n):
        return self.components[n]

    def __eq__(self, other):
        return (
            isinstance(other, SequenceMap)
            and self.source is other.source
            and self.target is other.target
            and self.components == other.components
        )

    def __hash__(self):
        return hash(tuple(map(hash, self.components)))

    def compose(self, other):
        if other.target is not self.source:
            raise sset.PreconditionError(
                f"{self.source!r} is not the target of {other.target!r}"
            )
        return type(self)(
            other.source,
            self.target,
            [f.compose(g) for f, g in zip(self.components, other.components)],
        )

    def validate(self):
        """Each component a simplicial map commuting with the generators.

        Unequal bounds, or a component between the wrong spaces, raise
        ``sset.PreconditionError``; a failure raises ``sset.IdentityError``
        naming the level and the first cell where it fails.
        """
        if not self.source.bound == self.target.bound == len(self.components) - 1:
            raise sset.PreconditionError(
                f"a map {self.source!r} -> {self.target!r} needs one component per "
                f"level and equal bounds, not {len(self.components)} components"
            )
        for n, f in enumerate(self.components):
            if f.source is not self.source.space(n) or f.target is not self.target.space(n):
                raise sset.PreconditionError(
                    f"level {n}: {f!r} is not between the level-{n} spaces"
                )
            bad = f.failure(f"level {n}: ")
            if bad:
                raise bad
            src, tgt = self.source.level(n), self.target.level(n)
            for i in range(n - 1):
                sset.require_equal(
                    f.compose(src.generators[i]),
                    tgt.generators[i].compose(f),
                    f"level {n}: f t_{i} = t_{i} f",
                )
        return True

    def is_isomorphism(self):
        return all(f.is_isomorphism() for f in self.components)

    def is_monomorphism(self):
        return all(f.is_monomorphism() for f in self.components)


def identity_seq_map(X):
    return SequenceMap(
        X, X, [sset.identity_map(X.space(n)) for n in range(X.bound + 1)]
    )


def point_sequence(bound):
    return SymmetricSequence(
        [eq.trivial_action(sset.point(), n) for n in range(bound + 1)],
        name="pt",
    )


def free_G(n, K, bound):
    """The sequence with Sigma_n+ ^ K in degree n and points elsewhere."""
    if not 0 <= n <= bound:
        raise IndexError(f"free degree {n} outside 0..{bound}")
    levels = []
    for m in range(bound + 1):
        if m == n:
            levels.append(eq.free_orbit(n, K))
        else:
            levels.append(eq.trivial_action(sset.point(), m))
    seq = SymmetricSequence(levels, name=f"G{n}({K.name})")
    seq.free_degree = n
    seq.free_K = K
    return seq


def unit_sequence(bound):
    """The tensor unit: S^0 in degree 0, points above."""
    seq = free_G(0, sset.zero_sphere(), bound)
    seq.name = "unit"
    return seq


def free_G_map(src, tgt, f):
    """G_n(f) for a map f of pointed spaces, copywise on the orbit wedge."""
    if src.free_degree != tgt.free_degree:
        raise sset.PreconditionError(f"{src!r} and {tgt!r} are free in different degrees")
    n = src.free_degree
    components = []
    for m in range(src.bound + 1):
        space = src.space(m)
        if m != n:
            components.append(sset.constant_map(space, tgt.space(m)))
            continue
        lv_s, lv_t = src.level(n), tgt.level(n)
        assign = {space.basepoint: ((), tgt.space(n).basepoint)}
        for c in space.cell_ids():
            if c == space.basepoint:
                continue
            perm, orig = lv_s.cell_coords(c)
            assign[c] = lv_t.copies[perm].apply(f.apply(((), orig)))
        components.append(sset.SimplicialMap(space, tgt.space(n), assign))
    return SequenceMap(src, tgt, components)


class TensorSequence(SymmetricSequence):
    """X (x) Y with the summand bookkeeping needed to map in and out.

    parts[n] lists the (p, q, mu) summands in wedge order; smashes[(p, q)]
    is the one smash object shared by all mu-copies at that bidegree, taken
    from ``smashes`` where the caller has built it already.  Maps out are
    built by ``map_out``; maps in by ``include``.
    """

    def __init__(self, X, Y, name=None, smashes=None):
        if X.bound != Y.bound:
            raise sset.PreconditionError(f"tensor needs equal bounds: {X.bound}, {Y.bound}")
        self.X = X
        self.Y = Y
        N = X.bound
        self.smashes = dict(smashes or {})
        self.parts = {}
        self.part_index = {}
        self.wedges = {}
        levels = []
        for n in range(N + 1):
            blocks = []
            for p in range(n + 1):
                q = n - p
                if (p, q) not in self.smashes:
                    self.smashes[(p, q)] = sset.smash(X.space(p), Y.space(q))
                sm = self.smashes[(p, q)]
                blocks.append((p, q, sm.space, block_action(sm, X.level(p), Y.level(q))))
            level = eq.balanced_smash(n, blocks, name=f"({X.name}(x){Y.name})_{n}")
            self.parts[n] = level.parts
            self.part_index[n] = {t: i for i, t in enumerate(level.parts)}
            self.wedges[n] = level.wedge
            levels.append(level)
        super().__init__(levels, name=name or f"({X.name}(x){Y.name})")

    def inclusion(self, n, p, q, mu):
        """The map of the smash X_p ^ Y_q onto its mu-copy at degree n."""
        return self.wedges[n].inclusions[self.part_index[n][(p, q, mu)]]

    def include(self, n, p, q, mu, form):
        """Push a form of the smash X_p ^ Y_q into the mu-copy at degree n."""
        return self.inclusion(n, p, q, mu).apply(form)

    def map_out(self, target, summand):
        """The SequenceMap X (x) Y -> target given summand by summand.

        ``summand(n, p, q, mu)`` returns a function (fa, fb) -> form of
        ``target.space(n)``: the map out of the (p, q, mu) copy of
        X_p ^ Y_q, on coordinate pairs as ``SmashResult.map_out`` takes
        them.  It is called once per summand that has cells, and its
        function once per cell; base vertices go to base.
        """
        components = []
        for n in range(self.bound + 1):
            tn = target.space(n)
            legs = []
            for p, q, mu in self.parts[n]:
                sm = self.smashes[(p, q)]
                if sset.is_pointlike(sm.space):
                    legs.append(sset.constant_map(sm.space, tn))
                else:
                    legs.append(sm.map_out(tn, summand(n, p, q, mu)))
            components.append(self.wedges[n].map_out(legs))
        return SequenceMap(self, target, components)

    def summand_of(self, n, cell):
        """((p, q, mu), original smash cell) of a wedge cell; None at base."""
        loc = self.wedges[n].part_of[cell]
        if loc is None:
            return None
        idx, orig = loc
        return self.parts[n][idx], orig

    def coordinates(self, n, cell):
        """((p, q, mu), form in X_p, form in Y_q) of a non-base wedge cell."""
        (p, q, mu), orig = self.summand_of(n, cell)
        fa, fb = self.smashes[(p, q)].split(((), orig))
        return (p, q, mu), fa, fb


def block_action(sm, left, right):
    """act(beta, gamma), the map beta ^ gamma on sm = A ^ B for the actions
    left on A and right on B, each built once.  It holds the smash and the
    two actions only, so a balanced smash may keep it."""
    cache = {}

    def act(beta, gamma):
        if (beta, gamma) not in cache:
            cache[(beta, gamma)] = sset.smash_map(sm, sm, left.act(beta), right.act(gamma))
        return cache[(beta, gamma)]

    return act


def tensor(X, Y, name=None, smashes=None):
    return TensorSequence(X, Y, name=name, smashes=smashes)


def check_factor_maps(src, tgt, f, g):
    """f: X -> X' and g: Y -> Y' must run between the factors of src (on X
    and Y) and tgt (on X' and Y'), two tensors or two smashes of spectra."""
    if not (src.X is f.source and tgt.X is f.target):
        raise sset.PreconditionError(f"{f!r} does not run between the left factors")
    if not (src.Y is g.source and tgt.Y is g.target):
        raise sset.PreconditionError(f"{g!r} does not run between the right factors")


def tensor_map(T_src, T_tgt, f, g):
    """f (x) g: tensor(f.source, g.source) -> tensor(f.target, g.target)."""
    check_factor_maps(T_src, T_tgt, f, g)

    def summand(n, p, q, mu):
        sm, fp, gq = T_tgt.smashes[(p, q)], f.level(p), g.level(q)
        into = T_tgt.inclusion(n, p, q, mu)
        return lambda fa, fb: into.apply(sm.form_of_pair(fp.apply(fa), gq.apply(fb)))

    return T_src.map_out(T_tgt, summand)


def twist_iso(T_xy, T_yx):
    """The symmetry X (x) Y -> Y (x) X.

    A (p, q, mu) summand lands in the (q, p) summand of the complement of
    mu, swapping the smash factors: m_mu . rho_{q,p} is itself the
    (q, p)-shuffle onto the complement, so no block part acts.
    """
    if not (T_xy.X is T_yx.Y and T_xy.Y is T_yx.X):
        raise sset.PreconditionError(f"{T_yx!r} is not the twist of {T_xy!r}")

    def summand(n, p, q, mu):
        sm = T_yx.smashes[(q, p)]
        into = T_yx.inclusion(n, q, p, tuple(i for i in range(n) if i not in mu))
        return lambda fa, fb: into.apply(sm.form_of_pair(fb, fa))

    return T_xy.map_out(T_yx, summand)


def assoc_iso(T_xy, T_xy_z, T_yz, T_x_yz):
    """The associator (X (x) Y) (x) Z -> X (x) (Y (x) Z).

    Both sides are wedges over the three-fold shuffle normal form; a cell's
    total coset m_nu . (m_mu (+) 1) is refactored as m_nu' . (1 (+) m_mu')
    with block remainders acting inside the smash factors.
    """
    X, Y, Z = T_xy.X, T_xy.Y, T_xy_z.Y
    if not (T_xy_z.X is T_xy and T_x_yz.Y is T_yz):
        raise sset.PreconditionError("the outer tensors must be built on the inner ones")
    if not (T_x_yz.X is X and T_yz.X is Y and T_yz.Y is Z):
        raise sset.PreconditionError("both sides need the same three factors")

    def summand(n, s, r, nu):
        def value(fab, fz):
            w, abcell = fab
            (p, q, mu), fx0, fy0 = T_xy.coordinates(s, abcell)
            fx = sset.word_compose(w, fx0)
            fy = sset.word_compose(w, fy0)
            delta = eq.compose_perm(
                eq.shuffle_perm(nu, s, r),
                eq.block_sum(eq.shuffle_perm(mu, p, q), eq.identity_perm(r)),
            )
            nu2, beta, rest = eq.coset_factor(delta, tuple(range(p)), p, q + r)
            mu2, gamma, eps = eq.coset_factor(rest, tuple(range(q)), q, r)
            inner = T_x_yz.Y.include(
                q + r,
                q,
                r,
                mu2,
                T_yz.smashes[(q, r)].form_of_pair(
                    Y.level(q).act(gamma).apply(fy),
                    Z.level(r).act(eps).apply(fz),
                ),
            )
            outer = T_x_yz.smashes[(p, q + r)].form_of_pair(
                X.level(p).act(beta).apply(fx), inner
            )
            return T_x_yz.include(n, p, q + r, nu2, outer)

        return value

    return T_xy_z.map_out(T_x_yz, summand)


def _check_unit(U):
    if U.space(0).n_cells(0) != 2 or not all(
        sset.is_pointlike(U.space(m)) for m in range(1, U.bound + 1)
    ):
        raise sset.PreconditionError(f"{U!r} is not the unit: S^0 in degree 0, points above")


def runit_iso(T):
    """(X (x) unit) -> X, reading the (n, 0) summands, the only ones with cells."""
    _check_unit(T.Y)
    return T.map_out(T.X, lambda n, p, q, mu: lambda fa, fb: fa)


def runit_iso_inverse(T):
    pt = sset._sole_point(T.Y.space(0))
    components = [
        T.inclusion(n, n, 0, tuple(range(n))).compose(T.smashes[(n, 0)].right_slice(pt))
        for n in range(T.bound + 1)
    ]
    return SequenceMap(T.X, T, components)


def lunit_iso(T):
    """(unit (x) X) -> X, reading the (0, n) summands, the only ones with cells."""
    _check_unit(T.X)
    return T.map_out(T.Y, lambda n, p, q, mu: lambda fa, fb: fb)


def lunit_iso_inverse(T):
    pt = sset._sole_point(T.X.space(0))
    components = [
        T.inclusion(n, 0, n, ()).compose(T.smashes[(0, n)].left_slice(pt))
        for n in range(T.bound + 1)
    ]
    return SequenceMap(T.Y, T, components)


def free_tensor_iso(T, target, sm_kl):
    """The isomorphism G_p K (x) G_q L -> G_{p+q}(K ^ L).

    The (p, q, mu) copy holding (rho, k) ^ (tau, l) goes to the copy of
    K ^ L indexed by m_mu . (rho (+) tau).
    """
    Gp, Gq = T.X, T.Y
    free = target.level(Gp.free_degree + Gq.free_degree)

    def summand(n, p, q, mu):
        # every other summand is a smash with a point factor, so has no cells
        if (p, q) != (Gp.free_degree, Gq.free_degree):
            raise sset.PreconditionError(f"{T!r} has cells in the ({p}, {q}) summand")
        lp, lq, shuffle = Gp.level(p), Gq.level(q), eq.shuffle_perm(mu, p, q)

        def value(fa, fb):
            (wa, ca), (wb, cb) = fa, fb
            rho, ka = lp.cell_coords(ca)
            tau, lb = lq.cell_coords(cb)
            pair = sm_kl.form_of_pair(
                sset.word_compose(wa, ((), ka)), sset.word_compose(wb, ((), lb))
            )
            return free.copies[eq.compose_perm(shuffle, eq.block_sum(rho, tau))].apply(pair)

        return value

    return T.map_out(target, summand)


def smash_space_levels(X, K):
    """(smashes, levels) of X ^ K: the smash X_n ^ K of each degree, with
    the action diagonal and trivial on K."""
    smashes, levels = [], []
    ident = sset.identity_map(K)
    for n in range(X.bound + 1):
        sm = sset.smash(X.space(n), K)
        smashes.append(sm)
        gens = [sset.smash_map(sm, sm, g, ident) for g in X.level(n).generators]
        levels.append(eq.EquivariantSpace(sm.space, n, gens))
    return smashes, levels


class SmashSpaceSequence(SymmetricSequence):
    """X ^ K levelwise, the action diagonal and trivial on K."""

    def __init__(self, X, K):
        self.base_seq = X
        self.K = K
        self.smashes, levels = smash_space_levels(X, K)
        super().__init__(levels, name=f"({X.name}^{K.name})")


def smash_space(X, K):
    return SmashSpaceSequence(X, K)


def smash_space_iso(S, T):
    """The natural isomorphism X ^ K -> X (x) G_0 K."""
    if T.X is not S.base_seq:
        raise sset.PreconditionError(f"{T!r} is not a tensor of {S.base_seq!r}")
    copy = T.Y.level(0).copies[()]  # K onto its wedge copy in degree 0
    components = []
    for n in range(S.bound + 1):
        sm_t, into = T.smashes[(n, 0)], T.inclusion(n, n, 0, tuple(range(n)))
        components.append(
            S.smashes[n].map_out(
                T.space(n), lambda fx, fk: into.apply(sm_t.form_of_pair(fx, copy.apply(fk)))
            )
        )
    return SequenceMap(S, T, components)
