"""Symmetric group actions on pointed simplicial sets.

Permutations are tuples of 0-indexed images: ``perm[i]`` is where letter i
goes, and composition is function composition, ``compose(a, b)(i) = a[b[i]]``.
An action is stored on the Coxeter generators (i, i+1) only, so storing and
validating the generators pins the whole action.  The map of a permutation
is one generator, the last letter of its bubble-sort reduced word, composed
onto the cached map of the shorter word: those words are prefix-closed, so
each permutation costs one compose.

The free orbit Sigma_n+ ^ K and the balanced smash are wedges of copies,
and their generators are ``WedgeResult.map_out`` of one map per copy.
``balanced_smash`` is the one builder of Sigma_n+ ^_{Sigma_p x Sigma_q} A
and the one place a generator factors a coset, into its ``moves``: a
degree of the tensor of symmetric sequences is one balanced smash over its
blocks X_p ^ Y_q, and the normal levels of a smash of spectra read the
moves of one.  Only ``FreeOrbitSpace.cell_coords`` reads which copy a cell
is in.

An ``EquivariantSpace`` takes its generators as a list or as a function
that builds them on their first read.  A sphere's generators wait like
that: ``SphereTower.action(n)`` holds S^n at once, but its Sigma_n maps
wait for a reader of ``.generators`` or ``.act``, so a caller of the
spaces alone (the stable colimit of S) builds no action.  A balanced smash
builds its wedge and its generators on their first read too.

What holds what runs one way, so reference counting frees a construction
as soon as its last reader drops it.  A tower holds its circle, spaces and
smashes strongly, and its levels (and the sphere spectra that ``spectra``
keeps on it) only weakly; a level holds its tower and level n-1, whose
generators its own are built from.
"""

import functools
import itertools
import weakref

from . import sset


# ---------------------------------------------------------------------------
# permutations as image tuples


def identity_perm(n):
    return tuple(range(n))


def compose_perm(a, b):
    if len(a) != len(b):
        raise sset.PreconditionError(f"permutations {a!r} and {b!r} differ in length")
    return tuple(a[b[i]] for i in range(len(b)))


def inverse_perm(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def transposition(n, i):
    """The adjacent transposition (i, i+1) in Sigma_n."""
    out = list(range(n))
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def perm_sign(a):
    inv = sum(
        1
        for i in range(len(a))
        for j in range(i + 1, len(a))
        if a[i] > a[j]
    )
    return -1 if inv % 2 else 1


def reduced_word(perm):
    """Adjacent-transposition indices with perm = t[w[-1]] ... t[w[0]]."""
    w = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i)
                changed = True
    return word


def block_embed(a, n):
    """Sigma_p included in Sigma_n on the first p letters."""
    if len(a) > n:
        raise sset.PreconditionError(f"{a!r} is not in Sigma_{len(a)} <= Sigma_{n}")
    return tuple(a) + tuple(range(len(a), n))


def block_sum(a, b):
    """a acting on the first block, b on the second."""
    p = len(a)
    return tuple(a) + tuple(p + v for v in b)


def all_shuffles(p, q):
    """(p, q)-shuffles as sorted p-subsets of range(p + q), sorted."""
    return list(itertools.combinations(range(p + q), p))


def shuffle_perm(mu, p, q):
    """The minimal coset representative sending the first block onto mu."""
    rest = [i for i in range(p + q) if i not in mu]
    return tuple(mu) + tuple(rest)


# Cached: the argument space is bounded by the symmetric groups in play, and
# balanced products refactor the same cosets once per simplex.
@functools.lru_cache(maxsize=None)
def coset_factor(alpha, mu, p, q):
    """Factor alpha . m_mu as m_mu2 . (beta (+) gamma).

    Returns (mu2, beta, gamma) with beta in Sigma_p, gamma in Sigma_q.
    """
    delta = compose_perm(alpha, shuffle_perm(mu, p, q))
    mu2 = tuple(sorted(delta[:p]))
    m2inv = inverse_perm(shuffle_perm(mu2, p, q))
    rho = compose_perm(m2inv, delta)
    beta = rho[:p]
    gamma = tuple(v - p for v in rho[p:])
    if not (all(v < p for v in beta) and all(0 <= v < q for v in gamma)):
        raise sset.IdentityError(
            (alpha, mu), f"m_mu2^-1 alpha m_mu = beta (+) gamma in Sigma_{p} x Sigma_{q}",
            rho, (beta, gamma),
        )
    return mu2, beta, gamma


# ---------------------------------------------------------------------------
# actions


class EquivariantSpace:
    """A pointed simplicial set with a Sigma_n action given on generators.

    generators[i] is the map for the transposition (i, i+1); for n <= 1 the
    list is empty.  The constructor takes the list, or a function returning
    it, which is called on the first read of ``generators`` and dropped.
    """

    def __init__(self, space, n, generators):
        self.space = space
        self.n = n
        if callable(generators):
            self._build = generators
        else:
            self.generators = _checked_generators(n, generators)
        self._acts = {}

    @functools.cached_property
    def generators(self):
        build, self._build = self._build, None
        return _checked_generators(self.n, build())

    def __repr__(self):
        return f"<Sigma_{self.n} on {self.space!r}>"

    def act(self, perm):
        """The simplicial map of a permutation: t_i, i the last letter of its
        reduced word, composed onto the map of t_i . perm."""
        out = self._acts.get(perm)
        if out is None:
            if len(perm) != self.n or set(perm) != set(range(self.n)):
                raise sset.PreconditionError(f"{perm!r} is not in Sigma_{self.n}")
            word = reduced_word(perm)
            if not word:
                out = sset.identity_map(self.space)
            else:
                shorter = compose_perm(transposition(self.n, word[-1]), perm)
                out = self.generators[word[-1]].compose(self.act(shorter))
            self._acts[perm] = out
        return out

    def validate(self):
        """Generator sanity plus the Coxeter relations, as map equalities.

        A generator off the space raises ``sset.PreconditionError``; a
        generator that is not simplicial, or a failed relation, raises
        ``sset.IdentityError`` at the first cell where it fails.
        """
        ident = sset.identity_map(self.space)
        for i, g in enumerate(self.generators):
            if g.source is not self.space or g.target is not self.space:
                raise sset.PreconditionError(f"generator t_{i} is not a map of {self.space!r}")
            bad = g.failure(f"t_{i}: ")
            if bad:
                raise bad
            sset.require_equal(g.compose(g), ident, f"t_{i} t_{i} = 1")
        for i, g in enumerate(self.generators):
            for j in range(i + 2, len(self.generators)):
                h = self.generators[j]
                sset.require_equal(g.compose(h), h.compose(g), f"t_{i} t_{j} = t_{j} t_{i}")
        for i in range(len(self.generators) - 1):
            g, h = self.generators[i], self.generators[i + 1]
            sset.require_equal(
                g.compose(h).compose(g),
                h.compose(g).compose(h),
                f"t_{i} t_{i + 1} t_{i} = t_{i + 1} t_{i} t_{i + 1}",
            )
        return True

    def orbit(self, form):
        return {self.act(p).apply(form) for p in itertools.permutations(range(self.n))}


def _checked_generators(n, generators):
    if len(generators) != max(n - 1, 0):
        raise sset.PreconditionError(
            f"Sigma_{n} needs {max(n - 1, 0)} generators, got {len(generators)}"
        )
    return list(generators)


def trivial_action(space, n):
    ident = sset.identity_map(space)
    return EquivariantSpace(space, n, [ident] * max(n - 1, 0))


class FreeOrbitSpace(EquivariantSpace):
    """Sigma_n+ ^ K: one copy of K per permutation, permuted by left action.

    perms lists the permutations in wedge order, and copies[perm] is the
    inclusion of K onto that copy; the generator t sends the perm-copy onto
    the (t . perm)-copy.
    """

    def __init__(self, n, K):
        perms = sorted(itertools.permutations(range(n)))
        w = sset.wedge([K] * len(perms), name=f"Sigma_{n}+^{K.name}")
        self.K = K
        self.perms = perms
        self.copies = dict(zip(perms, w.inclusions))
        self.wedge = w
        gens = []
        for i in range(n - 1):
            t = transposition(n, i)
            gens.append(w.map_out([self.copies[compose_perm(t, p)] for p in perms]))
        super().__init__(w.space, n, gens)

    def cell_coords(self, c):
        """(perm, original K cell) of a wedge cell, None at the basepoint."""
        loc = self.wedge.part_of[c]
        if loc is None:
            return None
        idx, orig = loc
        return self.perms[idx], orig


def free_orbit(n, K):
    return FreeOrbitSpace(n, K)


# ---------------------------------------------------------------------------
# spheres with coordinate bookkeeping


class SphereTower:
    """S^n built as S^1 ^ S^(n-1), sharing one circle across all levels.

    Everything on S^n runs by induction on n through the smash
    S^1 ^ S^(n-1), whose ``split`` peels off the first circle coordinate.
    The Sigma_n action uses that sigma: S^1 ^ S^(n-1) -> S^n is
    Sigma_1 x Sigma_(n-1)-equivariant: t_i for i >= 1 is S^1 ^ t_(i-1) of
    S^(n-1), and t_0 swaps the two circle coordinates in front.  Each
    level's generators are built on their first read and kept, the first
    read of level n reading those of level n-1.

    The spaces and smashes are kept for the tower's lifetime.  The levels,
    and the sphere and bar spectra of ``spectra``, are kept in weak
    dictionaries: each of them holds the tower, so a strong copy here would
    be a reference cycle.  They are shared while anything holds them, and a
    level holds level n-1.
    """

    def __init__(self):
        self.s1 = sset.circle()
        self.spaces = {0: sset.zero_sphere(), 1: self.s1}
        self.smashes = {}
        self._actions = weakref.WeakValueDictionary()
        self._sphere_spectra = weakref.WeakValueDictionary()
        self._bar_spectra = weakref.WeakValueDictionary()

    def space(self, n):
        while n not in self.spaces:
            m = 1 + max(self.spaces)
            sm = sset.smash(self.s1, self.spaces[m - 1], name=f"S{m}")
            self.smashes[m] = sm
            self.spaces[m] = sm.space
        return self.spaces[n]

    @functools.cached_property
    def point_smash(self):
        """S^1 ^ pt, the level-0 structure smash of the tower's bar spheres,
        kept for the tower's lifetime like its other smashes."""
        return sset.smash(self.s1, sset.point())

    def action(self, n):
        """S^n with Sigma_n permuting the smash coordinates of S^1 ^ S^(n-1).

        The generators are built when first read (``_generators``), so a
        caller that only reads the space pays nothing for the action.  One
        level per n while anything holds it.
        """
        level = self._actions.get(n)
        if level is None:
            level = self._actions[n] = _SphereLevel(self, n)
        return level

    def _generators(self, n):
        """t_i for i >= 1 is S^1 ^ t_(i-1) of S^(n-1); t_0 swaps the first two
        circle coordinates.  Forms are in normal form, so this is the same
        map as permuting all n circle coordinates at once.
        """
        gens = []
        if n >= 2:
            space, sm = self.space(n), self.smashes[n]
            gens.append(sm.map_out(space, self._first_swap(n)))
            for g in self.action(n - 1).generators:
                gens.append(sm.map_out(
                    space, lambda f1, frest, g=g: sm.form_of_pair(f1, g.apply(frest))
                ))
        return gens

    def _first_swap(self, n):
        """The pair function of t_0 on S^1 ^ S^(n-1), for n >= 2."""
        pair = self.smashes[n].form_of_pair
        if n == 2:
            return lambda f1, frest: pair(frest, f1)
        split, inner_pair = self.smashes[n - 1].split, self.smashes[n - 1].form_of_pair

        def swap(f1, frest):
            f2, f3 = split(frest)
            return pair(f2, inner_pair(f1, f3))

        return swap


class _SphereLevel(EquivariantSpace):
    """S^n of a tower, its generators built by the tower on first read.

    It holds the tower and level n-1 (``below``), so the tower's weak copy of
    level n-1 lives as long as level n and its generators are built once.
    """

    def __init__(self, tower, n):
        self.tower = tower
        self.below = tower.action(n - 1) if n else None
        super().__init__(tower.space(n), n, functools.partial(tower._generators, n))


def sphere_action(n, tower=None):
    """S^n with Sigma_n permuting the smash coordinates."""
    return (tower or SphereTower()).action(n)


def balanced_smash(n, blocks, name=None):
    """The sum over blocks of (Sigma_n)+ ^_{Sigma_p x Sigma_q} A, one flat wedge.

    ``blocks`` lists (p, q, A, act) with p + q = n, where ``act(beta, gamma)``
    is the map of beta x gamma on A.  The wedge holds one copy of A per
    (p, q, mu), in block order and then in ``all_shuffles`` order; ``parts``
    lists them.  A generator t sends the mu-copy to the mu2-copy by
    act(beta, gamma), where t . m_mu = m_mu2 . (beta (+) gamma); the cosets
    are factored here, into ``moves``.  The wedge and the generator maps
    are built when first read, so a reader of the moves alone builds no
    wedge and a reader of the wedge alone (a map out of a tensor) calls no
    act; until then the result holds the blocks, so an act must not hold
    what holds the result.
    """
    parts, spaces, acts = [], [], []
    for p, q, A, act in blocks:
        if p + q != n:
            raise sset.PreconditionError(f"balanced smash needs p+q=n, got {p}+{q} != {n}")
        shuffles = all_shuffles(p, q)
        parts += [(p, q, mu) for mu in shuffles]
        spaces += [A] * len(shuffles)
        acts += [act] * len(shuffles)
    copy = {part: k for k, part in enumerate(parts)}
    moves = []
    for i in range(n - 1):
        t = transposition(n, i)
        row = []
        for p, q, mu in parts:
            mu2, beta, gamma = coset_factor(t, mu, p, q)
            row.append((copy[(p, q, mu2)], beta, gamma))
        moves.append(row)
    return _BalancedSmash(n, parts, moves, spaces, acts, name)


class _BalancedSmash(EquivariantSpace):
    """The result of ``balanced_smash``.  ``parts`` and ``moves`` are there
    at once: moves[i][k] = (k2, beta, gamma) when the generator t_i sends
    copy k onto copy k2 by act(beta, gamma).  The ``wedge`` (and so the
    ``space``) and the generators are built on their first read."""

    def __init__(self, n, parts, moves, spaces, acts, name):
        self.n = n
        self.parts = parts
        self.moves = moves
        self._spaces, self._copy_acts, self._name = spaces, acts, name
        self._acts = {}

    @functools.cached_property
    def wedge(self):
        wedge = sset.wedge(self._spaces, name=self._name)
        self._spaces = None
        return wedge

    @property
    def space(self):
        return self.wedge.space

    @functools.cached_property
    def generators(self):
        into = self.wedge.inclusions
        gens = [
            self.wedge.map_out([
                into[k].compose(act(beta, gamma))
                for act, (k, beta, gamma) in zip(self._copy_acts, row)
            ])
            for row in self.moves
        ]
        self._copy_acts = None
        return _checked_generators(self.n, gens)


def is_equivariant(src, tgt, f):
    """True iff f intertwines the generator actions; degrees must match."""
    if src.n != tgt.n:
        raise sset.PreconditionError(f"degree mismatch: Sigma_{src.n} and Sigma_{tgt.n}")
    if f.source is not src.space or f.target is not tgt.space:
        raise sset.PreconditionError(f"{f!r} is not a map {src.space!r} -> {tgt.space!r}")
    return all(
        f.compose(g) == h.compose(f)
        for g, h in zip(src.generators, tgt.generators)
    )


def acts_freely_off(action, image_cells):
    """True when every nontrivial permutation moves every cell off the set.

    image_cells: the nondegenerate cell ids exempt from the freeness demand
    (the basepoint is always exempt).
    """
    space = action.space
    exempt = set(image_cells) | {space.basepoint}
    for perm in itertools.permutations(range(action.n)):
        if perm == identity_perm(action.n):
            continue
        m = action.act(perm)
        for c in space.cell_ids():
            if c in exempt:
                continue
            if m.assign[c] == ((), c):
                return False
    return True
