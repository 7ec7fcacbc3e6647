"""Independent dense-model oracle.

Everything here stores full simplex tables (all simplices up to a dimension
cap, degenerate ones included) and implements faces and degeneracies by
direct table lookup on monotone-map labels.  No normal forms, no shared code
with the package: this is the reference the package's combinatorics is tested
against.

The last section is different: it keeps constructions the package replaced
(the simplicial identity check that reads every face of every cell, the
one that compares row tails with column tails, the smash that loops over
every pair and normalizes each face pair, the normalized chains that take
a sign per face, the
worklist congruence closure, the smash as a collapsed product, the
smash of spectra as a triple-tensor coequalizer and as the quotient of
the tensor by the bimorphism relations for any left factor, the Smith form on dense
lists and without its unit shortcuts, kernel coordinates through a rational
inverse, the map enumerator that scans every candidate form, the
backtracking enumerator indexed by face rows, the component join on row
lists, the lifting search that composes per square and the one that
composes every lift into a table of maps, maps out of quotients,
pushouts, smash products and tensors written out cell by cell, the
Sigma_n actions and maps on wedges of copies read off each wedge cell's
part, the sphere actions, the iterated
structure maps sigma^p and the sphere's multiplication built from flattened
circle coordinates, the free extension read off the orbit wedge cell by
cell, the smash's quotient map from the product, the
homology reports with a push loop each, the latching comparison
through three smash spectra and through the tensor twist, the maps
out of a smash of spectra descended through its quotients level by
level, F_n(f) through G_n(f) and the generating sets kind by kind),
built from
package primitives, as references for the constructions that took their
place.
"""

import itertools

import sympy
from sympy.matrices.normalforms import smith_normal_form

BASE = ("*",)


class DenseSpace:
    """simp[k]: sorted list of labels; face[(k,i)], degen[(k,j)]: dicts."""

    def __init__(self, simp, face, degen, cap):
        self.simp = simp
        self.face = face
        self.degen = degen
        self.cap = cap

    def base(self, k):
        return BASE

    def is_degenerate(self, k, x):
        if k == 0:
            return False
        for j in range(k):
            if self.degen[(k - 1, j)][self.face[(k, j)][x]] == x:
                return True
        return False

    def nondeg(self, k):
        return [x for x in self.simp[k] if not self.is_degenerate(k, x)]

    def counts(self):
        """Nondegenerate non-base simplices per dimension (zeros dropped)."""
        out = {}
        for k in range(self.cap + 1):
            n = len([x for x in self.nondeg(k) if x != BASE])
            if n:
                out[k] = n
        return out


def delta_dense(n, cap):
    """Delta[n] with a disjoint basepoint, all simplices tabulated."""
    simp = {}
    for k in range(cap + 1):
        labels = [BASE]
        for tup in itertools.combinations_with_replacement(range(n + 1), k + 1):
            labels.append(tup)
        simp[k] = sorted(labels, key=repr)
    face = {}
    degen = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            face[(k, i)] = {
                x: (BASE if x == BASE else x[:i] + x[i + 1 :]) for x in simp[k]
            }
    for k in range(cap):
        for j in range(k + 1):
            degen[(k, j)] = {
                x: (BASE if x == BASE else x[: j + 1] + x[j:]) for x in simp[k]
            }
    return DenseSpace(simp, face, degen, cap)


def subspace_dense(A, keep):
    """Subcomplex of the simplices passing `keep(k, x)` (base always kept)."""
    simp = {k: [x for x in A.simp[k] if x == BASE or keep(k, x)] for k in A.simp}
    inside = {k: set(simp[k]) for k in simp}
    face = {}
    degen = {}
    for (k, i), tab in A.face.items():
        face[(k, i)] = {x: tab[x] for x in simp[k]}
        assert all(v in inside[k - 1] for v in face[(k, i)].values())
    for (k, j), tab in A.degen.items():
        degen[(k, j)] = {x: tab[x] for x in simp[k]}
        assert all(v in inside[k + 1] for v in degen[(k, j)].values())
    return DenseSpace(simp, face, degen, A.cap)


def collapse_dense(A, hit):
    """Quotient collapsing the subcomplex of simplices passing `hit(k, x)`."""

    def cls(k, x):
        return BASE if (x == BASE or hit(k, x)) else x

    simp = {k: sorted({cls(k, x) for x in A.simp[k]}, key=repr) for k in A.simp}
    face = {}
    degen = {}
    for (k, i), tab in A.face.items():
        out = {}
        for x in A.simp[k]:
            prev = out.get(cls(k, x))
            val = cls(k - 1, tab[x])
            assert prev is None or prev == val, "collapse not well defined"
            out[cls(k, x)] = val
        face[(k, i)] = out
    for (k, j), tab in A.degen.items():
        out = {}
        for x in A.simp[k]:
            prev = out.get(cls(k, x))
            val = cls(k + 1, tab[x])
            assert prev is None or prev == val, "collapse not well defined"
            out[cls(k, x)] = val
        degen[(k, j)] = out
    return DenseSpace(simp, face, degen, A.cap)


def circle_dense(cap):
    D = delta_dense(1, cap)
    return collapse_dense(D, lambda k, x: len(set(x)) == 1)


def product_dense(A, B):
    cap = min(A.cap, B.cap)
    simp = {}
    for k in range(cap + 1):
        simp[k] = sorted(
            ((a, b) for a in A.simp[k] for b in B.simp[k]), key=repr
        )
    face = {}
    degen = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            face[(k, i)] = {
                (a, b): (A.face[(k, i)][a], B.face[(k, i)][b]) for a, b in simp[k]
            }
    for k in range(cap):
        for j in range(k + 1):
            degen[(k, j)] = {
                (a, b): (A.degen[(k, j)][a], B.degen[(k, j)][b]) for a, b in simp[k]
            }
    # basepoint of the product is the pair of basepoints; relabel it
    return collapse_dense(
        DenseSpace(simp, face, degen, cap), lambda k, x: x == (BASE, BASE)
    )


def smash_dense(A, B):
    P = product_dense(A, B)
    return collapse_dense(
        P, lambda k, x: x != BASE and (x[0] == BASE or x[1] == BASE)
    )


def all_maps_dense(A, B, cap):
    """Count pointed simplicial maps A -> B by dimensionwise backtracking.

    Degenerate simplices take their forced value s_j f(d_j x); only the
    nondegenerate ones are free choices, checked against all faces as they
    are assigned.  cap must be at least one above the top nondegenerate
    dimension of A.
    """
    f = {}
    todo = []
    for k in range(cap + 1):
        todo.extend((k, x) for x in A.simp[k])

    count = 0

    def faces_ok(k, x, v):
        if k == 0:
            return True
        for i in range(k + 1):
            if f[(k - 1, A.face[(k, i)][x])] != B.face[(k, i)][v]:
                return False
        return True

    def rec(pos):
        nonlocal count
        if pos == len(todo):
            count += 1
            return
        k, x = todo[pos]
        if x == BASE:
            choices = [BASE]
        else:
            forced = None
            for j in range(k):
                y = A.face[(k, j)][x]
                if A.degen[(k - 1, j)][y] == x:
                    forced = B.degen[(k - 1, j)][f[(k - 1, y)]]
                    break
            choices = [forced] if forced is not None else B.simp[k]
        for v in choices:
            if faces_ok(k, x, v):
                f[(k, x)] = v
                rec(pos + 1)
                del f[(k, x)]

    rec(0)
    return count


def chain_boundaries(A):
    """Boundary matrices of the reduced normalized chains, as sympy Matrices.

    Returns (gens, mats): gens[k] lists the nondegenerate non-base k-simplices
    in table order, mats[k] is the matrix of d: C_k -> C_{k-1}.
    """
    gens = {k: [x for x in A.nondeg(k) if x != BASE] for k in range(A.cap + 1)}
    index = {k: {x: i for i, x in enumerate(gens[k])} for k in gens}
    mats = {}
    for k in range(1, A.cap + 1):
        m = sympy.zeros(len(gens[k - 1]), len(gens[k]))
        for col, x in enumerate(gens[k]):
            for i in range(k + 1):
                y = A.face[(k, i)][x]
                if y == BASE or A.is_degenerate(k - 1, y):
                    continue
                m[index[k - 1][y], col] += (-1) ** i
        mats[k] = m
    return gens, mats


def homology_dense(A, k):
    """(free rank, sorted torsion divisors) of H_k of the reduced chains."""
    gens, mats = chain_boundaries(A)
    n_k = len(gens[k])
    dk = mats.get(k, sympy.zeros(0, n_k))
    dk1 = mats.get(k + 1, sympy.zeros(n_k, 0))
    rank_k = dk.rank()
    rank_k1 = dk1.rank()
    betti = n_k - rank_k - rank_k1
    torsion = []
    if dk1.rows and dk1.cols:
        snf = smith_normal_form(sympy.Matrix(dk1), domain=sympy.ZZ)
        for i in range(min(snf.rows, snf.cols)):
            d = abs(snf[i, i])
            if d > 1:
                torsion.append(int(d))
    return betti, sorted(torsion)


def snf_divisors(rows):
    """Invariant factors of an integer matrix, via sympy."""
    m = sympy.Matrix(rows)
    if m.rows == 0 or m.cols == 0:
        return []
    snf = smith_normal_form(m, domain=sympy.ZZ)
    out = []
    for i in range(min(snf.rows, snf.cols)):
        d = abs(snf[i, i])
        if d:
            out.append(int(d))
    return out


# ---------------------------------------------------------------------------
# Former package constructions, kept as references for the direct ones.
# Unlike the dense model above these are built from package primitives;
# they pin the new constructions to the old ones cell id for cell id.


def validate_per_cell(space):
    """``PointedSimplicialSet.validate`` checking every face of every cell,
    a repeated face as often as it occurs.  True, or the first
    ``IdentityError``."""
    from symspec import sset

    faces, dim_of = space.faces, space.dim_of
    bp = space.basepoint
    if dim_of.get(bp) != 0:
        raise sset.IdentityError(bp, "the basepoint is a vertex", dim_of.get(bp), 0)
    degenerate_rows = {}

    def row(form, k):
        # all faces d_0 .. d_k of a degenerate k-dimensional form
        out = degenerate_rows.get(form)
        if out is None:
            out = tuple([space.face(i, form) for i in range(k + 1)])
            degenerate_rows[form] = out
        return out

    for k, ids in space.cells.items():
        for c in ids:
            if k == 0:
                if faces.get(c):
                    raise sset.IdentityError(c, "a vertex has no faces", faces[c], ())
                continue
            fs = faces.get(c, ())
            if len(fs) != k + 1:
                where = f"a {k}-cell has {k + 1} faces"
                raise sset.IdentityError(c, where, len(fs), k + 1)
            for i, f in enumerate(fs):
                fault = sset._form_fault(space, f, k - 1)
                if fault:
                    what, lhs, rhs = fault
                    raise sset.IdentityError(c, f"d_{i} {what}", lhs, rhs)
            if k < 2:
                continue
            rows = [row(f, k - 1) if f[0] else faces[f[1]] for f in fs]
            cols = list(zip(*rows))
            if all(rows[i][i:] == cols[i][i + 1 :] for i in range(k)):
                continue
            for j in range(1, k + 1):
                for i in range(j):
                    left, right = rows[j][i], rows[i][j - 1]
                    if left != right:
                        raise sset.IdentityError(
                            c, f"d_{i} d_{j} = d_{j - 1} d_{i}", left, right
                        )
    return True


def validate_column_tail(space):
    """``PointedSimplicialSet.validate`` comparing each row tail with a
    column tail: every distinct face form of a dimension checked once, its
    face row built by ``space.face`` one face at a time.  True, or the
    first ``IdentityError``."""
    from symspec import sset

    faces, dim_of = space.faces, space.dim_of
    bp = space.basepoint
    if dim_of.get(bp) != 0:
        raise sset.IdentityError(bp, "the basepoint is a vertex", dim_of.get(bp), 0)
    for k, ids in space.cells.items():
        rows_of = {}
        for c in ids:
            if k == 0:
                if faces.get(c):
                    raise sset.IdentityError(c, "a vertex has no faces", faces[c], ())
                continue
            fs = faces.get(c, ())
            if len(fs) != k + 1:
                where = f"a {k}-cell has {k + 1} faces"
                raise sset.IdentityError(c, where, len(fs), k + 1)
            rows = []
            for i, f in enumerate(fs):
                r = rows_of.get(f)
                if r is None:
                    fault = sset._form_fault(space, f, k - 1)
                    if fault:
                        what, lhs, rhs = fault
                        raise sset.IdentityError(c, f"d_{i} {what}", lhs, rhs)
                    if k < 2:
                        r = ()
                    elif f[0]:
                        r = tuple([space.face(j, f) for j in range(k)])
                    else:
                        r = faces[f[1]]
                    rows_of[f] = r
                rows.append(r)
            if k < 2:
                continue
            cols = list(zip(*rows))
            if all(rows[i][i:] == cols[i][i + 1 :] for i in range(k)):
                continue
            for j in range(1, k + 1):
                for i in range(j):
                    left, right = rows[j][i], rows[i][j - 1]
                    if left != right:
                        raise sset.IdentityError(
                            c, f"d_{i} d_{j} = d_{j - 1} d_{i}", left, right
                        )
    return True


def smash_pair_loop(A, B, name=None):
    """``sset.smash`` looping over every pair of a factor form's partners:
    each pair tested against the wedge, each face row built by ``face``
    one face at a time and each face pair put through
    ``sset.pair_normalize``."""
    from symspec import sset

    id_of = {}
    pair_rep = {}
    cells = {}
    faces = {}
    basepoint = None
    abp, bbp = A.basepoint, B.basepoint
    fresh = itertools.count()
    b_rows = {}
    for k, fa, fbs in sset._joint_pairs(A, B):
        a_row = None
        for fb in fbs:
            if fa[1] == abp or fb[1] == bbp:
                if basepoint is None:
                    basepoint = next(fresh)
                    pair_rep[basepoint] = (fa, fb)
                    cells.setdefault(0, []).append(basepoint)
                continue
            c = next(fresh)
            pair = (fa, fb)
            id_of[pair] = c
            pair_rep[c] = pair
            cells.setdefault(k, []).append(c)
            if not k:
                continue
            if a_row is None:
                a_row = [A.face(i, fa) for i in range(k + 1)]
                on_wedge = sset.base_form(basepoint, k - 1)
            b_row = b_rows.get(fb)
            if b_row is None:
                b_row = b_rows[fb] = [B.face(i, fb) for i in range(k + 1)]
            entry = []
            for ga, gb in zip(a_row, b_row):
                if ga[1] == abp or gb[1] == bbp:
                    entry.append(on_wedge)
                    continue
                outer, pair = sset.pair_normalize(ga, gb)
                entry.append((outer, id_of[pair]))
            faces[c] = tuple(entry)
    space = sset.PointedSimplicialSet(
        cells, faces, basepoint, name=name or f"({A.name}^{B.name})"
    )
    space.validate()
    return sset.SmashResult(A, B, space, id_of, pair_rep)


def normalized_chains_per_face(X):
    """``homology.normalized_chains`` taking (-1) ** i face by face, built
    afresh on every call and not cached on X."""
    from symspec import homology as hl

    basis = {}
    index = {}
    for k, ids in X.cells.items():
        gens = [c for c in ids if c != X.basepoint]
        if gens:
            basis[k] = gens
            index[k] = {c: i for i, c in enumerate(gens)}
    ranks = {k: len(v) for k, v in basis.items()}
    columns = {}
    for k, gens in basis.items():
        cols = []
        for c in gens:
            col = {}
            if k > 0:
                for i, (word, t) in enumerate(X.faces[c]):
                    if word or t == X.basepoint:
                        continue
                    row = index[k - 1][t]
                    col[row] = col.get(row, 0) + (-1) ** i
            cols.append({i: v for i, v in col.items() if v})
        columns[k] = cols
    C = hl.ChainComplex(ranks, columns, basis=basis, name=X.name)
    C.index = index
    return C


def smash_by_quotient(A, B):
    """A ^ B as the product with its wedge collapsed: (quotient, pair_rep).

    The quotient's projection is the map from ``sset.product(A, B)``.
    """
    from symspec import sset

    prod = sset.product(A, B)
    pairs = []
    for c in prod.space.cell_ids():
        fa, fb = prod.pair_of[c]
        if fa[1] == A.basepoint or fb[1] == B.basepoint:
            pairs.append((((), c), prod.space.base(prod.space.dim_of[c])))
    quot = sset.quotient_by_pairs(prod.space, pairs, name=f"({A.name}^{B.name})")
    pair_rep = {}
    for c in prod.space.cell_ids():
        form = quot.class_of[c]
        if not form[0] and form[1] not in pair_rep:
            pair_rep[form[1]] = prod.pair_of[c]
    return quot, pair_rep


def quotient_by_pairs_worklist(X, pairs, name=None):
    """The worklist congruence closure, with its stall counter.

    Pairs are taken first in, first out.  A pair degenerate on both sides
    with different words pushes its face pairs and itself again, and is
    retried until they have been absorbed; the closure gives up once it
    has made no rewrite for too long.  Renumbering as in the package.
    """
    from collections import deque

    from symspec import sset

    rep = {}

    def resolve_cell(c):
        w, t = rep[c]
        if t in rep:
            out = sset.word_compose(w, resolve_cell(t))
            rep[c] = out
            return out
        return w, t

    def resolve(form):
        if form[1] not in rep:
            return form
        return sset.word_compose(form[0], resolve_cell(form[1]))

    dim_of, faces = X.dim_of, X.faces
    for a, b in pairs:
        assert X.form_dim(a) == X.form_dim(b), (a, b)
    queue = deque(pairs)
    queued = set()
    idle = 0
    n_cells = len(dim_of)

    def push(lhs, rhs):
        for a, b in zip(lhs, rhs):
            if a == b:
                continue
            key = (a, b) if a <= b else (b, a)
            if key not in queued:
                queued.add(key)
                queue.append(key)

    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        a, b = resolve(pair[0]), resolve(pair[1])
        if a == b:
            continue
        (wa, ta), (wb, tb) = a, b
        if wa == wb:
            keep, drop = (ta, tb) if ta < tb else (tb, ta)
            rep[drop] = ((), keep)
            idle = 0
            if dim_of[drop]:
                push(faces[drop], faces[keep])
        elif not wa or not wb:
            if wa:
                (wa, ta), b = (wb, tb), a
            rep[ta] = b
            idle = 0
            push(faces[ta], [X.face(i, b) for i in range(dim_of[ta] + 1)])
        else:
            k = len(wa) + dim_of[ta]
            push(
                [X.face(i, a) for i in range(k + 1)],
                [X.face(i, b) for i in range(k + 1)],
            )
            push((a,), (b,))
            idle += 1
            if idle > 10 * (len(queue) + n_cells) + 100:
                raise RuntimeError("quotient closure stalled")

    live = [c for c in X.cell_ids() if c not in rep]
    live.sort(key=lambda c: (dim_of[c], c))
    new_id = {c: i for i, c in enumerate(live)}
    cells = {}
    for c in live:
        cells.setdefault(dim_of[c], []).append(new_id[c])

    def to_new(form):
        w, t = resolve(form)
        return (w, new_id[t])

    new_faces = {
        new_id[c]: tuple([to_new(f) for f in faces[c]]) for c in live if dim_of[c]
    }
    base = to_new(((), X.basepoint))
    space = sset.PointedSimplicialSet(
        cells, new_faces, base[1], name=name or f"{X.name}/~"
    )
    class_of = {c: to_new(((), c)) for c in X.cell_ids()}
    space.validate()
    return sset.QuotientResult(space, sset.SimplicialMap(X, space, class_of), class_of)


def triple_tensor_smash(X, Y):
    """X ^_S Y as the coequalizer of the two S-actions on X (x) S (x) Y.

    The relations of level n are r(z) ~ l(z) for every simplex z of
    (X (x) S (x) Y)_n, where r acts on X through the twist and l acts on Y
    directly.  Everything else (quotients, generators, sigma) is built by
    the package's SmashSpectrum from these relations, on its quotient path.
    """
    from symspec import spectra as sp

    class TripleTensorSmash(sp.SmashSpectrum):
        def _route(self):
            return None

        def _relations(self, n):
            if not hasattr(self, "_maps"):
                self._maps = _triple_tensor_maps(self.X, self.Y, self.T)
            r_map, l_map, T_xs_y = self._maps
            spc = T_xs_y.space(n)
            return [
                (r_map.level(n).apply(((), c)), l_map.level(n).apply(((), c)))
                for c in spc.cell_ids()
                if c != spc.basepoint
            ]

    return TripleTensorSmash(X, Y)


def quotient_smash(X, Y):
    """X ^_S Y by the quotient path whatever X is: the package's
    SmashSpectrum with the route to its normal forms closed, so every level
    is the quotient of (X (x) Y)_n by the bimorphism relations, its
    generators descend and sigma is re-checked on every pair."""
    from symspec import spectra as sp

    class QuotientSmash(sp.SmashSpectrum):
        def _route(self):
            return None

    return QuotientSmash(X, Y)


def _triple_tensor_maps(X, Y, T_xy):
    from symspec import spectra as sp
    from symspec import symseq as sq

    sph = sp.sphere_spectrum(X.bound, X.tower)
    T_xs = sq.tensor(X.seq, sph.seq)
    T_sx = sq.tensor(sph.seq, X.seq)
    T_sy = sq.tensor(sph.seq, Y.seq)
    T_xs_y = sq.tensor(T_xs, Y.seq)
    T_x_sy = sq.tensor(X.seq, T_sy)
    rho = sp.left_action_map(X, T_sx).compose(sq.twist_iso(T_xs, T_sx))
    r_map = sq.tensor_map(T_xs_y, T_xy, rho, sq.identity_seq_map(Y.seq))
    al = sq.assoc_iso(T_xs, T_xs_y, T_sy, T_x_sy)
    l_map = sq.tensor_map(
        T_x_sy, T_xy, sq.identity_seq_map(X.seq), sp.left_action_map(Y, T_sy)
    ).compose(al)
    return r_map, l_map, T_xs_y


def latching_by_three_smashes(X):
    """(X ^ Sbar, the comparison X ^ Sbar -> X) the long way, uncached.

    X ^ Sbar goes into X ^ S by the bar inclusion, onto S ^ X by the
    symmetry and onto X by the unit isomorphism: three smash spectra, two
    of them built only to be collapsed again.
    """
    from symspec import spectra as sp

    bar = sp.bar_sphere(X.bound, X.tower)
    S = sp.sphere_spectrum(X.bound, X.tower)
    XB, XS, SX = sp.smash_spectra(X, bar), sp.smash_spectra(X, S), sp.smash_spectra(S, X)
    incl = sp.smash_map_spectra(
        XB, XS, sp.identity_spectrum_map(X), sp.bar_inclusion(bar, S)
    )
    unit = sp.smash_unit_iso(SX)[0]
    return XB, unit.compose(sp.smash_comm_iso(XS, SX)).compose(incl)


def latching_comparison_by_twist(X):
    """(X ^ Sbar, the comparison X ^ Sbar -> X) through a second tensor, uncached.

    The left action of Sbar on X after the tensor twist
    X (x) Sbar -> Sbar (x) X, descended once through each level's quotient.
    """
    from symspec import spectra as sp
    from symspec import sset
    from symspec import symseq as sq

    bar = sp.bar_sphere(X.bound, X.tower)
    XB = sp.smash_spectra(X, bar)
    T_bx = sq.tensor(bar.seq, X.seq)
    act = sp.left_action_map(X, T_bx).compose(sq.twist_iso(XB.T, T_bx))
    return XB, sp.SpectrumMap(
        XB, X, [sset.descend(q.projection, act.level(n)) for n, q in enumerate(XB.quotients)]
    )


class DenseSNFResult:
    """The dense reductions' result: D = U . M . V, as plain lists.

    ``smith_normal_form_dense`` passes V = V_inv = None and the column
    operations it ran, ``(c1, c2)`` for a swap and ``(c1, c2, q)`` for
    col c1 += q col c2; V and V_inv are built from them on the first read
    of either.  ``smith_normal_form_full_scan`` passes V and V_inv.
    """

    def __init__(self, D, U, V, U_inv, V_inv, col_ops=()):
        self.D = D
        self.U = U
        self._V = V
        self.U_inv = U_inv
        self._V_inv = V_inv
        self._col_ops = col_ops

    @property
    def V(self):
        if self._V is None:
            self._replay()
        return self._V

    @property
    def V_inv(self):
        if self._V_inv is None:
            self._replay()
        return self._V_inv

    def _replay(self):
        # the column operations act on the rows of V's transpose and, inverted
        # and in the same order, on the rows of V_inv
        from symspec import homology as hl

        n = len(self.D[0]) if self.D else 0
        Vt, V_inv = hl.identity_matrix(n), hl.identity_matrix(n)
        for c1, c2, *q in self._col_ops:
            if q:
                Vt[c1] = [a + q[0] * b for a, b in zip(Vt[c1], Vt[c2])]
                V_inv[c2] = [a - q[0] * b for a, b in zip(V_inv[c2], V_inv[c1])]
            else:
                Vt[c1], Vt[c2] = Vt[c2], Vt[c1]
                V_inv[c1], V_inv[c2] = V_inv[c2], V_inv[c1]
        self._V, self._V_inv = [list(col) for col in zip(*Vt)], V_inv

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d)


def smith_normal_form_dense(M):
    """Smith normal form over the integers, on dense lists.

    The reduction ``homology.smith_normal_form`` ran before it moved to
    sparse rows; the sparse one must run the same operations in the same
    order, so every matrix of the two results agrees entry for entry.

    Pivot rule: smallest nonzero absolute value, earliest (row, column)
    position on ties, which makes the reduction deterministic.  The scan
    stops at the first unit, which that rule already picks, and a unit
    pivot skips the divisibility sweep, which it always passes.  U and
    U_inv are kept as the reduction runs; the column operations are only
    recorded, and the result builds V and V_inv from them when first read.
    """
    from symspec import homology as hl

    A = [[int(v) for v in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = hl.identity_matrix(m)
    U_inv = hl.identity_matrix(m)
    col_ops = []

    def row_swap(r1, r2):
        A[r1], A[r2] = A[r2], A[r1]
        U[r1], U[r2] = U[r2], U[r1]
        for row in U_inv:
            row[r1], row[r2] = row[r2], row[r1]

    def row_add(r1, r2, q):
        # row r1 += q * row r2
        a1, a2 = A[r1], A[r2]
        for j in range(n):
            a1[j] += q * a2[j]
        u1, u2 = U[r1], U[r2]
        for j in range(m):
            u1[j] += q * u2[j]
        for row in U_inv:
            row[r2] -= q * row[r1]

    def row_negate(r):
        A[r] = [-v for v in A[r]]
        U[r] = [-v for v in U[r]]
        for row in U_inv:
            row[r] = -row[r]

    def col_swap(c1, c2):
        for row in A:
            row[c1], row[c2] = row[c2], row[c1]
        col_ops.append((c1, c2))

    def col_add(c1, c2, q):
        # col c1 += q * col c2
        for row in A:
            row[c1] += q * row[c2]
        col_ops.append((c1, c2, q))

    def find_pivot(t):
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if A[t][t] < 0:
            row_negate(t)
        piv = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                row_add(i, t, -(A[i][t] // piv))
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                col_add(j, t, -(A[t][j] // piv))
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        if piv == 1:
            t += 1
            continue
        bad = None
        for i in range(t + 1, m):
            row = A[i]
            for j in range(t + 1, n):
                if row[j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return DenseSNFResult(A, U, None, U_inv, None, col_ops)


def smith_normal_form_full_scan(M):
    """The Smith normal form before the unit shortcuts.

    Same pivot rule as ``smith_normal_form_dense`` (smallest nonzero
    absolute value, earliest (row, column) on ties), but every pivot scan
    reads the whole remaining block and every pivot runs the divisibility
    sweep.
    """
    from symspec import homology as hl

    A = [[int(v) for v in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    U = hl.identity_matrix(m)
    U_inv = hl.identity_matrix(m)
    V = hl.identity_matrix(n)
    V_inv = hl.identity_matrix(n)

    def row_swap(r1, r2):
        A[r1], A[r2] = A[r2], A[r1]
        U[r1], U[r2] = U[r2], U[r1]
        for row in U_inv:
            row[r1], row[r2] = row[r2], row[r1]

    def row_add(r1, r2, q):
        a1, a2 = A[r1], A[r2]
        for j in range(n):
            a1[j] += q * a2[j]
        u1, u2 = U[r1], U[r2]
        for j in range(m):
            u1[j] += q * u2[j]
        for row in U_inv:
            row[r2] -= q * row[r1]

    def row_negate(r):
        A[r] = [-v for v in A[r]]
        U[r] = [-v for v in U[r]]
        for row in U_inv:
            row[r] = -row[r]

    def col_swap(c1, c2):
        for row in A:
            row[c1], row[c2] = row[c2], row[c1]
        for row in V:
            row[c1], row[c2] = row[c2], row[c1]
        V_inv[c1], V_inv[c2] = V_inv[c2], V_inv[c1]

    def col_add(c1, c2, q):
        for row in A:
            row[c1] += q * row[c2]
        for row in V:
            row[c1] += q * row[c2]
        v1, v2 = V_inv[c1], V_inv[c2]
        for j in range(n):
            v2[j] -= q * v1[j]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if A[t][t] < 0:
            row_negate(t)
        piv = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                row_add(i, t, -(A[i][t] // piv))
                dirty = dirty or bool(A[i][t])
        for j in range(t + 1, n):
            if A[t][j]:
                col_add(j, t, -(A[t][j] // piv))
                dirty = dirty or bool(A[t][j])
        if dirty:
            continue
        bad = next(
            (i for i in range(t + 1, m)
             if any(A[i][j] % piv for j in range(t + 1, n))),
            None,
        )
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return DenseSNFResult(A, U, V, U_inv, V_inv)


class RationalKernelSolver:
    """Kernel coordinates through a dense rational inverse.

    Picks the first rows (ascending) on which the kernel columns are
    independent, inverts that square block over Q, and accepts x only if the
    solution is integral and reproduces x on every row.
    """

    def __init__(self, kernel):
        from fractions import Fraction

        self.kernel = kernel
        z = len(kernel)
        self.z = z
        self.sel_rows = []
        if z == 0:
            self.inverse = []
            return
        echelon = []
        for r in sorted(set().union(*[k.keys() for k in kernel])):
            red = [Fraction(kernel[j].get(r, 0)) for j in range(z)]
            for prow in echelon:
                lead = next(i for i, v in enumerate(prow) if v)
                if red[lead]:
                    f = red[lead] / prow[lead]
                    red = [a - f * b for a, b in zip(red, prow)]
            if any(red):
                echelon.append(red)
                self.sel_rows.append(r)
                if len(self.sel_rows) == z:
                    break
        if len(self.sel_rows) != z:
            raise ValueError("kernel columns are dependent")
        aug = [
            [Fraction(kernel[j].get(r, 0)) for j in range(z)]
            + [Fraction(int(i == k)) for k in range(z)]
            for i, r in enumerate(self.sel_rows)
        ]
        for col in range(z):
            piv = next(i for i in range(col, z) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            f = aug[col][col]
            aug[col] = [v / f for v in aug[col]]
            for i in range(z):
                if i != col and aug[i][col]:
                    g = aug[i][col]
                    aug[i] = [a - g * b for a, b in zip(aug[i], aug[col])]
        self.inverse = [row[z:] for row in aug]

    def solve(self, x):
        if self.z == 0:
            if any(x.values()):
                raise ValueError("chain is not a cycle")
            return []
        rhs = [x.get(r, 0) for r in self.sel_rows]
        c = []
        for row in self.inverse:
            acc = sum(v * b for v, b in zip(row, rhs) if b)
            if acc.denominator != 1:
                raise ValueError("chain is not a cycle")
            c.append(int(acc))
        check = {}
        for j, cj in enumerate(c):
            for i, v in self.kernel[j].items():
                check[i] = check.get(i, 0) + cj * v
        if {i: v for i, v in check.items() if v} != {
            i: v for i, v in x.items() if v
        }:
            raise ValueError("chain is not a cycle")
        return c


class ScanBudgetExceeded(Exception):
    pass


class ScanBudget:
    """The probe meter of the scanning search: one probe per call."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise ScanBudgetExceeded(self.used)


def all_space_maps_scan(A, X, budget=None):
    """Every pointed simplicial map A -> X, scanning all candidates.

    Backtracking over nondegenerate cells by ascending dimension; every
    candidate image form is charged to the budget and tested face by face.
    """
    from symspec import sset

    cells = [
        c
        for k in sorted(A.cells)
        for c in A.cells[k]
        if c != A.basepoint
    ]
    found = []

    def extend(idx, assign):
        if idx == len(cells):
            found.append(dict(assign))
            return
        c = cells[idx]
        k = A.dim_of[c]
        for cand in X.forms(k):
            if budget is not None:
                budget.spend()
            ok = True
            for i in range(k + 1 if k else 0):
                wd, t = A.faces[c][i]
                if X.face(i, cand) != sset.word_compose(wd, assign[t]):
                    ok = False
                    break
            if ok:
                assign[c] = cand
                extend(idx + 1, assign)
                del assign[c]

    extend(0, {A.basepoint: ((), X.basepoint)})
    return [sset.SimplicialMap(A, X, a) for a in found]


def all_maps_dfs(A, X, budget=None):
    """Every pointed simplicial map A -> X by the indexed backtracking search.

    Cells of A in (dim, id) order; the images of a k-cell's faces fix its
    face row, whose forms ``X.forms_by_row(k)`` lists in ``X.forms(k)``
    order.  Each node visited for a non-base k-cell charges
    len(X.forms(k)) probes to ``budget`` (an ``sset.Budget``).
    """
    from symspec import sset

    cells = [
        (c, A.faces[c] if A.dim_of[c] else (), A.dim_of[c])
        for c in A.cell_ids()
        if c != A.basepoint
    ]
    index = {k: X.forms_by_row(k) for k in A.cells}
    charge = {k: len(X.forms(k)) for k in A.cells}
    assign = {A.basepoint: ((), X.basepoint)}
    out = []

    def rec(pos):
        if pos == len(cells):
            out.append(sset.SimplicialMap(A, X, assign))
            return
        c, faces, k = cells[pos]
        if budget is not None:
            budget.spend(charge[k])
        row = tuple([sset.word_compose(w, assign[t]) for w, t in faces])
        for form in index[k].get(row, ()):
            assign[c] = form
            rec(pos + 1)
        assign.pop(c, None)

    rec(0)
    return out


def has_lifting_property_scan(i, p, budget):
    """The lifting search for space maps, composing again for every square."""
    meter = ScanBudget(budget)

    def is_lift(h, top, bottom):
        meter.spend()
        return h.compose(i) == top and p.compose(h) == bottom

    try:
        tops = all_space_maps_scan(i.source, p.source, meter)
        bottoms = all_space_maps_scan(i.target, p.target, meter)
        lifts = all_space_maps_scan(i.target, p.source, meter)
        for top in tops:
            pt = p.compose(top)
            for bottom in bottoms:
                meter.spend()
                if bottom.compose(i) != pt:
                    continue
                if not any(is_lift(h, top, bottom) for h in lifts):
                    return {
                        "verdict": "no",
                        "witness": {"top": top, "bottom": bottom},
                        "checked": meter.used,
                    }
        return {"verdict": "yes", "witness": None, "checked": meter.used}
    except ScanBudgetExceeded:
        return {
            "verdict": "budget exceeded",
            "witness": None,
            "checked": meter.used,
        }


def _join_rows(tables):
    """The columns and the product of the rows of disjoint (cols, rows) tables."""
    cols, rows = [], [[]]
    for i, (tcols, trows) in enumerate(tables):
        cols += tcols
        rows = [r + s for r in rows for s in trows] if i else trows
    return cols, rows


def all_maps_rows(A, X, budget=None):
    """Every pointed simplicial map A -> X by the component join on row lists.

    Each connected component of the prefix keeps its maps as a list of rows;
    cell c_pos is charged len(X.forms(k)) times the product of the table
    sizes, then the tables its faces touch are joined and each joined row
    is copied once per candidate for its face row.  The maps are sorted by
    the ``X.forms(k)`` positions of their images, cell by cell.
    """
    import math

    from symspec import sset

    cells = sset._search_cells(A)
    base = ((), X.basepoint)
    comp_of, tables = {}, {}
    for c, faces, k in cells:
        if budget is not None:
            n = math.prod(len(rows) for _, rows in tables.values())
            budget.spend(len(X.forms(k)) * n)
        touched = dict.fromkeys(comp_of[t] for _, t in faces if t != A.basepoint)
        cols, rows = _join_rows([tables.pop(cid) for cid in touched])
        at = {t: j for j, t in enumerate(cols)}
        picks = [(w, at.get(t)) for w, t in faces]
        index = X.forms_by_row(k)
        out = []
        for r in rows:
            row = tuple([sset.word_compose(w, base if j is None else r[j]) for w, j in picks])
            for form in index.get(row, ()):
                out.append(r + [form])
        cols.append(c)
        for t in cols:
            comp_of[t] = c
        tables[c] = (cols, out)
    cols, rows = _join_rows(tables.values())
    at = {t: j for j, t in enumerate(cols)}
    order = [at[c] for c, _, _ in cells]
    rank = {k: {f: i for i, f in enumerate(X.forms(k))} for k in A.cells}
    ranks = [rank[k] for _, _, k in cells]
    images = [[r[j] for j in order] for r in rows]
    images.sort(key=lambda v: [rk[f] for rk, f in zip(ranks, v)])
    keys = [A.basepoint] + [c for c, _, _ in cells]
    return [sset.SimplicialMap(A, X, dict(zip(keys, [base] + v))) for v in images]


def _all_maps_composing(A, X, budget):
    from symspec import modelcheck as mc
    from symspec import sset

    if isinstance(A, sset.PointedSimplicialSet):
        return all_maps_rows(A, X, budget)
    return mc._all_spectrum_maps(A, X, budget)


def _lift_table_composing(i, p, lifts):
    """The index of the first lift filling each square (h.i, p.h), keyed by
    the composed maps themselves."""
    table = {}
    for j, h in enumerate(lifts):
        table.setdefault((h.compose(i), p.compose(h)), j)
    return table


def _first_lift_composing(table, lifts, top, bottom, meter):
    j = table.get((top, bottom))
    meter.spend(len(lifts) if j is None else j + 1)
    return j


def find_lift_composing(i, p, top, bottom, budget):
    """The first diagonal filling (top, bottom), or None, looked up by map."""
    from symspec import sset

    meter = sset.Budget(budget)
    lifts = _all_maps_composing(i.target, p.source, meter)
    j = _first_lift_composing(_lift_table_composing(i, p, lifts), lifts, top, bottom, meter)
    return None if j is None else lifts[j]


def has_lifting_property_composing(i, p, budget):
    """The lifting search on row-list tables, composing every lift, top and
    bottom as a map and comparing squares as maps; space or spectrum maps."""
    from symspec import sset

    meter = sset.Budget(budget)
    try:
        tops = _all_maps_composing(i.source, p.source, meter)
        bottoms = _all_maps_composing(i.target, p.target, meter)
        lifts = _all_maps_composing(i.target, p.source, meter)
        table = _lift_table_composing(i, p, lifts)
        squares = [(bottom, bottom.compose(i)) for bottom in bottoms]
        for top in tops:
            pt = p.compose(top)
            for bottom, bi in squares:
                meter.spend()
                if bi == pt and _first_lift_composing(table, lifts, top, bottom, meter) is None:
                    return {
                        "verdict": "no",
                        "witness": {"top": top, "bottom": bottom},
                        "checked": meter.used,
                    }
        return {"verdict": "yes", "witness": None, "checked": meter.used}
    except sset.BudgetExceeded:
        return {
            "verdict": "budget exceeded",
            "witness": None,
            "checked": meter.used,
        }


def descend(proj_src, f, proj_tgt=None):
    """The map induced by f on the target of a surjection, fiber checked.

    proj_src: A -> Q surjective; f: A -> B; proj_tgt: B -> Q' or None.
    Returns g with g . proj_src = (proj_tgt .) f, asserting the composite
    is constant on every fiber.
    """
    from symspec import sset

    A = proj_src.source
    Q = proj_src.target
    src, f_of = proj_src.assign, f.assign
    lift = {}
    for c in A.cell_ids():
        w, t = src[c]
        if not w and t not in lift:
            lift[t] = c
    target = proj_tgt.target if proj_tgt else f.target
    assign = {}
    for qc in Q.cell_ids():
        val = f_of[lift[qc]]
        assign[qc] = proj_tgt.apply(val) if proj_tgt else val
    g = sset.SimplicialMap(Q, target, assign)
    for c in A.cell_ids():
        want = f_of[c]
        if proj_tgt:
            want = proj_tgt.apply(want)
        assert g.apply(src[c]) == want, "map not constant on identification classes"
    return g


def map_out_of_pushout(po, to1, to2):
    """The map out of a pushout: each wedge cell from its part, then descend."""
    from symspec import sset

    w = po.wedge
    parts = (to1, to2)
    assign = {w.space.basepoint: ((), to1.target.basepoint)}
    for c in w.space.cell_ids():
        if c == w.space.basepoint:
            continue
        idx, orig = w.part_of[c]
        assign[c] = parts[idx].assign[orig]
    raw = sset.SimplicialMap(w.space, to1.target, assign)
    return descend(po.collapse, raw)


def pushout_sigma(P, n):
    """sigma_n of a pushout spectrum read off the first wedge preimage of
    each cell, with both structure squares asserted afterwards."""
    from symspec import sset

    (U, V), po, po1 = P.parts, P.pushouts[n], P.pushouts[n + 1]
    sm = sset.smash(U.tower.s1, po.space)
    lift = {}
    for c in po.wedge.space.cell_ids():
        wd, t = po.collapse.assign[c]
        if not wd and t not in lift:
            lift[t] = c
    assign = {}
    for c in sm.space.cell_ids():
        ft, fp = sm.pair_rep[c]
        if ft[1] == sm.A.basepoint or fp[1] == sm.B.basepoint:
            assign[c] = po1.space.base(sm.space.dim_of[c])
            continue
        wd, pc = fp
        idx, orig = po.wedge.part_of[lift[pc]]
        part = U if idx == 0 else V
        leg = po1.leg1 if idx == 0 else po1.leg2
        val = part.sigma(n).apply(part.structure_smash(n).form_of_pair(ft, (wd, orig)))
        assign[c] = leg.apply(val)
    sig = sset.SimplicialMap(sm.space, po1.space, assign)
    for part, leg_n, leg_n1 in ((U, po.leg1, po1.leg1), (V, po.leg2, po1.leg2)):
        lifted = sset.smash_map(
            part.structure_smash(n), sm, sset.identity_map(U.tower.s1), leg_n
        )
        assert sig.compose(lifted) == leg_n1.compose(part.sigma(n))
    return sig


# Maps out of smash products and tensors written out cell by cell, each
# reading the representative pair of every cell, the base included.


def smash_map_cellwise(sm_src, sm_tgt, f, g):
    """f ^ g between smash products; f: A -> A', g: B -> B'."""
    from symspec import sset

    assign = {}
    for c in sm_src.space.cell_ids():
        fa, fb = sm_src.pair_rep[c]
        assign[c] = sm_tgt.form_of_pair(f.apply(fa), g.apply(fb))
    return sset.SimplicialMap(sm_src.space, sm_tgt.space, assign)


def tensor_map_cellwise(T_src, T_tgt, f, g):
    """f (x) g: tensor(f.source, g.source) -> tensor(f.target, g.target)."""
    from symspec import sset
    from symspec import symseq as sq

    components = []
    for n in range(T_src.bound + 1):
        space = T_src.space(n)
        assign = {space.basepoint: ((), T_tgt.space(n).basepoint)}
        for c in space.cell_ids():
            if c == space.basepoint:
                continue
            (p, q, mu), fa, fb = T_src.coordinates(n, c)
            sm = T_tgt.smashes[(p, q)]
            moved = sm.form_of_pair(f.level(p).apply(fa), g.level(q).apply(fb))
            assign[c] = T_tgt.include(n, p, q, mu, moved)
        components.append(sset.SimplicialMap(space, T_tgt.space(n), assign))
    return sq.SequenceMap(T_src, T_tgt, components)


def shuffle_rho(q, p):
    """The block rotation in Sigma_{q+p} moving the first q letters past p."""
    return tuple(i + p for i in range(q)) + tuple(range(p))


def twist_iso_cellwise(T_xy, T_yx):
    """The symmetry X (x) Y -> Y (x) X."""
    from symspec import equivariant as eq
    from symspec import sset
    from symspec import symseq as sq

    X, Y = T_xy.X, T_xy.Y
    components = []
    for n in range(T_xy.bound + 1):
        space = T_xy.space(n)
        assign = {space.basepoint: ((), T_yx.space(n).basepoint)}
        for c in space.cell_ids():
            if c == space.basepoint:
                continue
            (p, q, mu), fa, fb = T_xy.coordinates(n, c)
            delta = eq.compose_perm(
                eq.shuffle_perm(mu, p, q), shuffle_rho(q, p)
            )
            mu2, beta, gamma = eq.coset_factor(
                delta, tuple(range(q)), q, p
            )
            sm = T_yx.smashes[(q, p)]
            moved = sm.form_of_pair(
                Y.level(q).act(beta).apply(fb),
                X.level(p).act(gamma).apply(fa),
            )
            assign[c] = T_yx.include(n, q, p, mu2, moved)
        components.append(sset.SimplicialMap(space, T_yx.space(n), assign))
    return sq.SequenceMap(T_xy, T_yx, components)


def assoc_iso_cellwise(T_xy, T_xy_z, T_yz, T_x_yz):
    """The associator (X (x) Y) (x) Z -> X (x) (Y (x) Z)."""
    from symspec import equivariant as eq
    from symspec import sset
    from symspec import symseq as sq

    X, Y, Z = T_xy.X, T_xy.Y, T_xy_z.Y
    components = []
    for n in range(T_xy_z.bound + 1):
        space = T_xy_z.space(n)
        assign = {space.basepoint: ((), T_x_yz.space(n).basepoint)}
        for c in space.cell_ids():
            if c == space.basepoint:
                continue
            (s, r, nu), fab, fz = T_xy_z.coordinates(n, c)
            w, abcell = fab
            (p, q, mu), fx0, fy0 = T_xy.coordinates(s, abcell)
            fx = sset.word_compose(w, fx0)
            fy = sset.word_compose(w, fy0)
            delta = eq.compose_perm(
                eq.shuffle_perm(nu, s, r),
                eq.block_sum(eq.shuffle_perm(mu, p, q), eq.identity_perm(r)),
            )
            nu2, beta, rest = eq.coset_factor(
                delta, tuple(range(p)), p, q + r
            )
            mu2, gamma, eps = eq.coset_factor(
                rest, tuple(range(q)), q, r
            )
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
            assign[c] = T_x_yz.include(n, p, q + r, nu2, outer)
        components.append(sset.SimplicialMap(space, T_x_yz.space(n), assign))
    return sq.SequenceMap(T_xy_z, T_x_yz, components)


def left_action_map_cellwise(X, T):
    """lambda: S (x) X -> X collapsing the sphere factor through sigma^p."""
    from symspec import equivariant as eq
    from symspec import sset
    from symspec import symseq as sq

    components = []
    for n in range(T.bound + 1):
        space = T.space(n)
        assign = {space.basepoint: ((), X.space(n).basepoint)}
        for c in space.cell_ids():
            if c == space.basepoint:
                continue
            (p, q, mu), fs, fx = T.coordinates(n, c)
            if p:
                val = X.sigma_power(p, q).apply(
                    X.power_smash(p, q).form_of_pair(fs, fx)
                )
            else:
                val = fx
            assign[c] = X.level(n).act(eq.shuffle_perm(mu, p, q)).apply(val)
        components.append(sset.SimplicialMap(space, X.space(n), assign))
    return sq.SequenceMap(T, X.seq, components)


def flatten(tower, n, form):
    """The n circle-coordinate forms of a form of S^n (n >= 1), read by
    splitting S^n = S^1 ^ S^(n-1) one representative pair at a time."""
    from symspec import sset

    if n == 1:
        return (form,)
    tower.space(n)
    w, c = form
    f1, frest = tower.smashes[n].pair_rep[c]
    return (sset.word_compose(w, f1),) + flatten(tower, n - 1, sset.word_compose(w, frest))


def unflatten(tower, n, coords):
    """The form of S^n with the given n circle coordinates."""
    if len(coords) != n or n < 1:
        raise ValueError(f"{len(coords)} circle coordinates are no form of S^{n}")
    if n == 1:
        return coords[0]
    tower.space(n)
    return tower.smashes[n].form_of_pair(coords[0], unflatten(tower, n - 1, coords[1:]))


def sphere_action_flat(tower, n):
    """Sigma_n on S^n with every generator built from flattened coordinates:
    each cell is flattened into n circle forms, two neighbours are swapped
    and the tuple is rebuilt with n - 1 nested smash classes."""
    from symspec import equivariant as eq
    from symspec import sset

    space = tower.space(n)
    cells = space.cell_ids() if n > 1 else ()
    flat = {c: flatten(tower, n, ((), c)) for c in cells}
    gens = []
    for i in range(n - 1):
        assign = {}
        for c, coords in flat.items():
            coords = list(coords)
            coords[i], coords[i + 1] = coords[i + 1], coords[i]
            assign[c] = unflatten(tower, n, coords)
        gens.append(sset.SimplicialMap(space, space, assign))
    return eq.EquivariantSpace(space, n, gens)


def concat_map_flat(tower, sm, p, q):
    """S^p ^ S^q -> S^(p+q) by flattening both factors and rebuilding the
    concatenated circle coordinates."""
    return sm.map_out(
        tower.space(p + q),
        lambda fp, fq: unflatten(tower, p + q, flatten(tower, p, fp) + flatten(tower, q, fq)),
    )


def sphere_pairing_by_concat(sphere, T):
    """The multiplication S (x) S -> S on the tensor T of the sphere
    sequence with itself: the unit isomorphisms where a factor is S^0 and
    ``concat_map_flat`` elsewhere, then the shuffle of each summand."""
    from symspec import equivariant as eq
    from symspec import sset

    tower = sphere.tower
    pairings = {}
    for (p, q), sm in T.smashes.items():
        if p == 0:
            pairings[(p, q)] = sset.smash_lunit(sm)[0]
        elif q == 0:
            pairings[(p, q)] = sset.smash_runit(sm)[0]
        else:
            pairings[(p, q)] = concat_map_flat(tower, sm, p, q)

    def summand(n, p, q, mu):
        pairing, sm = pairings[(p, q)], T.smashes[(p, q)]
        shuffle = sphere.level(n).act(eq.shuffle_perm(mu, p, q))
        return lambda fa, fb: shuffle.apply(pairing.apply(sm.form_of_pair(fa, fb)))

    return T.map_out(sphere.seq, summand)


def free_extension_summandwise(F, Z, phi):
    """The spectrum map F_r K -> Z extending phi: K -> Z_r, each summand
    (m_mu; s ^ (rho ^ a)) sent to m_mu . sigma^p(s ^ (rho . phi(a))) with
    rho and a read off the orbit wedge cell by cell."""
    from symspec import equivariant as eq
    from symspec import spectra as sp
    from symspec import sset

    r = F.free_degree
    orbit, Z_r = F.G.level(r), Z.level(r)

    def summand(m, p, q, mu):
        shuffle = Z.level(m).act(eq.shuffle_perm(mu, p, q))
        sig, ps = (Z.sigma_power(p, r), Z.power_smash(p, r)) if p else (None, None)

        def value(fs, fg):
            wg, gc = fg
            rho, a = orbit.cell_coords(gc)
            val = Z_r.act(rho).apply(phi.apply(sset.word_compose(wg, ((), a))))
            if p:
                val = sig.apply(ps.form_of_pair(fs, val))
            return shuffle.apply(val)

        return value

    return sp.SpectrumMap(F, Z, F.T.map_out(Z.seq, summand).components)


def sigma_power_flat(X, p, n):
    """sigma^p: S^p ^ X_n -> X_{n+p} with the sphere coordinate flattened
    and its circles applied one sigma at a time, innermost first."""
    if p == 1:
        return X.sigma(n)
    steps = [(X.structure_smash(m), X.sigma(m)) for m in range(n, n + p)]

    def value(fs, fx):
        for t, (sm, sigma) in zip(reversed(flatten(X.tower, p, fs)), steps):
            fx = sigma.apply(sm.form_of_pair(t, fx))
        return fx

    return X.power_smash(p, n).map_out(X.space(n + p), value)


# Maps out of wedges of copies written out cell by cell, each reading the
# (part, original cell) of every wedge cell: the Sigma_n actions on free
# orbits, balanced smashes and tensors, maps out of a tensor and the module
# sigma.


def free_orbit_generators_cellwise(fo):
    """The generators of Sigma_n+ ^ K: the perm-copy of a cell goes to the
    (t . perm)-copy, the permutations of the wedge order re-sorted."""
    from symspec import equivariant as eq
    from symspec import sset

    n, w = fo.n, fo.wedge
    perms = sorted(itertools.permutations(range(n)))
    gens = []
    for i in range(n - 1):
        t = eq.transposition(n, i)
        assign = {}
        for c in w.space.cell_ids():
            if w.part_of[c] is None:
                assign[c] = ((), w.space.basepoint)
            else:
                idx, orig = w.part_of[c]
                assign[c] = fo.copies[eq.compose_perm(t, perms[idx])].assign[orig]
        gens.append(sset.SimplicialMap(w.space, w.space, assign))
    return gens


def balanced_smash_generators_cellwise(bs, blocks):
    """The generators of the sum over blocks (p, q, A, act) of
    (Sigma_n)+ ^_{Sigma_p x Sigma_q} A, each cell of the (p, q, mu) copy
    moved by act(beta, gamma) into the (p, q, mu2) copy."""
    from symspec import equivariant as eq
    from symspec import sset

    w, parts = bs.wedge, bs.parts
    index = {part: i for i, part in enumerate(parts)}
    acts = {(p, q): act for p, q, _, act in blocks}
    gens = []
    for i in range(bs.n - 1):
        t = eq.transposition(bs.n, i)
        assign = {w.space.basepoint: ((), w.space.basepoint)}
        for c in w.space.cell_ids():
            if c == w.space.basepoint:
                continue
            idx, orig = w.part_of[c]
            p, q, mu = parts[idx]
            mu2, beta, gamma = eq.coset_factor(t, mu, p, q)
            moved = acts[(p, q)](beta, gamma).apply(((), orig))
            assign[c] = w.inclusions[index[(p, q, mu2)]].apply(moved)
        gens.append(sset.SimplicialMap(w.space, w.space, assign))
    return gens


def tensor_generators_cellwise(T, n):
    """The generators of (X (x) Y)_n, each cell of the (p, q, mu) copy moved
    by beta ^ gamma into the (p, q, mu2) copy."""
    from symspec import equivariant as eq
    from symspec import sset

    w = T.wedges[n]
    gens = []
    for i in range(n - 1):
        t = eq.transposition(n, i)
        assign = {w.space.basepoint: ((), w.space.basepoint)}
        for c in w.space.cell_ids():
            if c == w.space.basepoint:
                continue
            idx, orig = w.part_of[c]
            p, q, mu = T.parts[n][idx]
            mu2, beta, gamma = eq.coset_factor(t, mu, p, q)
            sm = T.smashes[(p, q)]
            block = sset.smash_map(sm, sm, T.X.level(p).act(beta), T.Y.level(q).act(gamma))
            into = w.inclusions[T.part_index[n][(p, q, mu2)]]
            assign[c] = into.apply(block.assign[orig])
        gens.append(sset.SimplicialMap(w.space, w.space, assign))
    return gens


def tensor_map_out_cellwise(T, target, summand):
    """``TensorSequence.map_out`` cell by cell: ``summand`` is called on the
    first cell of each summand, its function on the split of every cell."""
    from symspec import sset
    from symspec import symseq as sq

    components = []
    for n in range(T.bound + 1):
        space, part_of = T.space(n), T.wedges[n].part_of
        routes = {}
        assign = {}
        for c in space.cell_ids():
            if part_of[c] is None:
                assign[c] = ((), target.space(n).basepoint)
                continue
            idx, orig = part_of[c]
            if idx not in routes:
                p, q, mu = T.parts[n][idx]
                routes[idx] = (T.smashes[(p, q)].split, summand(n, p, q, mu))
            split, value = routes[idx]
            assign[c] = value(*split(((), orig)))
        components.append(sset.SimplicialMap(space, target.space(n), assign))
    return sq.SequenceMap(T, target, components)


def module_sigma_cellwise(X, T, n):
    """sigma of the module T = X.seq (x) W on level n, as (ft, fx) -> form,
    reading the summand of each cell from the wedge of level n."""
    space = T.space(n)

    def value(ft, fx):
        w, tc = fx
        if tc == space.basepoint:
            return T.space(n + 1).base(space.form_dim(fx))
        idx, orig = T.wedges[n].part_of[tc]
        p, q, mu = T.parts[n][idx]
        into = T.wedges[n + 1].inclusions[
            T.part_index[n + 1][(p + 1, q, (0,) + tuple(m + 1 for m in mu))]
        ]
        fa, fb = T.smashes[(p, q)].split((w, orig))
        moved = X.sigma(p).apply(X.structure_smash(p).form_of_pair(ft, fa))
        return into.apply(T.smashes[(p + 1, q)].form_of_pair(moved, fb))

    return value


def smash_quotient(sm):
    """The quotient map from ``sset.product(sm.A, sm.B)`` onto the smash
    ``sm.space``: each product cell goes to the form of its coordinate pair."""
    from symspec import sset

    prod = sset.product(sm.A, sm.B)
    class_of = {c: sm.form_of_pair(*prod.pair_of[c]) for c in prod.space.cell_ids()}
    projection = sset.SimplicialMap(prod.space, sm.space, class_of)
    return sset.QuotientResult(sm.space, projection, class_of)


# ---------------------------------------------------------------------------
# the homology reports with one push loop each: the induced map that skips
# the degrees without cells, the colimit transitions through their own
# suspension, and the map report's ladder built from fresh complexes


def _pushed_classes_unchecked(src, tgt, push):
    cols = [tgt.class_of(push(g))[0] for g in src.free_gen_chains]
    tors = [tgt.class_of(push(g))[1] for g in src.torsion_gen_chains]
    matrix = [[c[i] for c in cols] for i in range(tgt.group.free_rank)]
    residues = [[t[i] for t in tors] for i in range(len(tgt.group.torsion))]
    return matrix, residues


class InducedMapClassify:
    """f pushed to H_k, classifying each generator's image on its own;
    a degree without cells has no degree data and the zero group."""

    def __init__(self, f, k):
        from symspec import homology as hl

        C = hl.normalized_chains(f.source)
        D = hl.normalized_chains(f.target)
        src = C.degree_data(k) if C.rank(k) else None
        tgt = D.degree_data(k) if D.rank(k) else None
        self.source_group = src.group if src else hl.HomologyGroup(0)
        self.target_group = tgt.group if tgt else hl.HomologyGroup(0)

        def classify(j, chain):
            if tgt is None:
                if chain:
                    raise hl.HomologyInputError(
                        f"H_{k} generator {j} maps to a nonzero chain "
                        f"but the target has no degree-{k} cells"
                    )
                return (), ()
            return tgt.class_of(chain)

        fr = self.target_group.free_rank
        cols = []
        tors_cols = []
        if src is not None:
            for j, g in enumerate(src.free_gen_chains):
                free, tors = classify(j, hl.chain_push(f, k, g, C, D))
                cols.append((free, tors))
            for j, g in enumerate(src.torsion_gen_chains):
                free, tors = classify(j, hl.chain_push(f, k, g, C, D))
                if any(free):
                    raise hl.HomologyInputError(
                        f"H_{k} torsion generator {j} mapped to free part"
                    )
                tors_cols.append(tors)
        self.matrix = [[c[0][i] for c in cols] for i in range(fr)]
        self.torsion_matrix = [[t[i] for t in tors_cols]
                               for i in range(len(self.target_group.torsion))]

    def is_isomorphism(self):
        from symspec import homology as hl

        return hl._map_is_iso(
            self.source_group, self.target_group,
            self.matrix, self.torsion_matrix,
        )


def _transition(X, n, k, data_n, data_n1, C_n1):
    from symspec import homology as hl

    E = hl.SuspensionChainMap(X.space(n), X.structure_smash(n))
    sig = X.sigma(n)

    def push(chain):
        mid = E.apply_chain(k + n, chain)
        return hl.chain_push(sig, k + n + 1, mid, E.target, C_n1)

    return _pushed_classes_unchecked(data_n, data_n1, push)


def stable_colimit_transitions(X, k, require_homotopy=False):
    """The colimit report with a zero group's transition written out as
    empty matrices and the others pushed through a fresh suspension."""
    from symspec import homology as hl

    first = max(0, -k)
    ns = list(range(first, X.bound + 1))
    data = {}
    entries = []
    gate_ok = True
    for n in ns:
        C = hl.normalized_chains(X.space(n))
        d = C.degree_data(k + n) if C.rank(k + n) else None
        group = d.group if d else hl.HomologyGroup(0)
        data[n] = (C, d)
        entries.append((n, group))
        if not hl.hurewicz_gate(X.space(n), k + n):
            gate_ok = False
    interpretation = "homotopy" if gate_ok else "homology-only"
    if require_homotopy and not gate_ok:
        raise hl.HurewiczGateError(
            "a level has cells below the stable range; homology-only"
        )
    maps = []
    for n in ns[:-1]:
        C_n, d_n = data[n]
        C_n1, d_n1 = data[n + 1]
        g_n = d_n.group if d_n else hl.HomologyGroup(0)
        g_n1 = d_n1.group if d_n1 else hl.HomologyGroup(0)
        if d_n is None or g_n.is_zero:
            matrix = [[] for _ in range(g_n1.free_rank)]
            residues = [[] for _ in range(len(g_n1.torsion))]
            iso = g_n1.is_zero
        elif d_n1 is None:
            # the replaced loop read d_n1 here and failed; a map into a
            # degree without cells is the zero map onto the zero group
            matrix, residues, iso = [], [], False
        else:
            matrix, residues = _transition(X, n, k, d_n, d_n1, C_n1)
            iso = hl._map_is_iso(g_n, g_n1, matrix, residues)
        maps.append((matrix, residues, iso))
    stabilized = len(maps) >= 2 and maps[-1][2] and maps[-2][2]
    stable_from = None
    if stabilized:
        stable_from = ns[0]
        for idx in range(len(maps) - 1, -1, -1):
            if not maps[idx][2]:
                stable_from = ns[idx + 1]
                break
        stable_group = entries[-1][1]
    else:
        stable_group = None
    return hl.StableColimitReport(
        k, entries, maps, stabilized, stable_from, stable_group,
        interpretation,
    )


def stable_map_report_ladder(f, k, require_homotopy=False):
    """The map report with its own gate loop and a ladder that builds
    both suspensions per level and skips levels without cells."""
    from symspec import homology as hl

    X, Y = f.source, f.target
    first = max(0, -k)
    ns = list(range(first, X.bound + 1))
    gate_ok = all(
        hl.hurewicz_gate(X.space(n), k + n) and hl.hurewicz_gate(Y.space(n), k + n)
        for n in ns
    )
    interpretation = "homotopy" if gate_ok else "homology-only"
    if require_homotopy and not gate_ok:
        raise hl.HurewiczGateError(
            "a level has cells below the stable range; homology-only"
        )
    levels = []
    matrices = []
    for n in ns:
        im = InducedMapClassify(f.level(n), k + n)
        matrices.append(im)
        levels.append((n, im.source_group, im.target_group))
    verdict = (
        "iso-at-all-computed-levels"
        if all(im.is_isomorphism() for im in matrices)
        else "not"
    )
    ladder = True
    for n in ns[:-1]:
        CX = hl.normalized_chains(X.space(n))
        CX1 = hl.normalized_chains(X.space(n + 1))
        CY1 = hl.normalized_chains(Y.space(n + 1))
        sx = CX.degree_data(k + n) if CX.rank(k + n) else None
        sy1 = CY1.degree_data(k + n + 1) if CY1.rank(k + n + 1) else None
        if sx is None or sy1 is None:
            continue
        EX = hl.SuspensionChainMap(X.space(n), X.structure_smash(n))
        EY = hl.SuspensionChainMap(Y.space(n), Y.structure_smash(n))
        for g in sx.free_gen_chains:
            top = EX.apply_chain(k + n, g)
            top = hl.chain_push(X.sigma(n), k + n + 1, top, EX.target, CX1)
            top = hl.chain_push(f.level(n + 1), k + n + 1, top, CX1, CY1)
            bot = hl.chain_push(f.level(n), k + n, g, CX,
                                hl.normalized_chains(Y.space(n)))
            bot = EY.apply_chain(k + n, bot)
            bot = hl.chain_push(Y.sigma(n), k + n + 1, bot, EY.target, CY1)
            if sy1.class_of(top) != sy1.class_of(bot):
                ladder = False
    return hl.StableMapReport(
        k, levels, matrices, verdict, interpretation, ladder,
    )


# Maps out of a smash of spectra, each descending through the quotients
# of X (x) Y itself, level by level, as written before
# ``SmashSpectrum.descend``.


def descend_through_tensor(S, g, target, then=None):
    """The spectrum map S = X ^_S Y -> target through which g: X (x) Y ->
    target (with ``then``, then . g) factors: ``sset.descend`` through each
    level's quotient on either path, so it builds the tensor and its
    projections; ``SmashSpectrum.descend`` before it read the normal cells."""
    from symspec import spectra as sp
    from symspec import sset

    return sp.SpectrumMap(S, target, [
        sset.descend(q.projection, g.level(n), then and then.level(n))
        for n, q in enumerate(S.quotients)
    ])


def smash_unit_inverse_through_tensor(SX):
    """X -> S ^_S X, x |-> the class of pt ^ x, through the tensor's
    (0, n) summand and the projection."""
    from symspec import spectra as sp
    from symspec import sset

    pt = sset._sole_point(SX.X.space(0))
    comps = [
        SX.quotients[n].projection.compose(
            SX.T.inclusion(n, 0, n, ()).compose(SX.T.smashes[(0, n)].left_slice(pt))
        )
        for n in range(SX.bound + 1)
    ]
    return sp.SpectrumMap(SX.Y, SX, comps)


def smash_map_spectra_per_level(S_src, S_tgt, f, g):
    """The map X ^_S Y -> X' ^_S Y' induced by f: X -> X', g: Y -> Y'."""
    from symspec import spectra as sp
    from symspec import sset
    from symspec import symseq as sq

    tm = sq.tensor_map(S_src.T, S_tgt.T, f, g)
    comps = [
        sset.descend(
            S_src.quotients[n].projection,
            tm.level(n),
            S_tgt.quotients[n].projection,
        )
        for n in range(S_src.bound + 1)
    ]
    return sp.SpectrumMap(S_src, S_tgt, comps)


def smash_comm_iso_per_level(XY, YX):
    """The symmetry X ^_S Y -> Y ^_S X, descended from the tensor twist."""
    from symspec import spectra as sp
    from symspec import sset
    from symspec import symseq as sq

    tw = sq.twist_iso(XY.T, YX.T)
    comps = [
        sset.descend(
            XY.quotients[n].projection, tw.level(n), YX.quotients[n].projection
        )
        for n in range(XY.bound + 1)
    ]
    return sp.SpectrumMap(XY, YX, comps)


def smash_unit_forward_per_level(SX):
    """S ^_S X -> X, the left action of S descended through each quotient."""
    from symspec import spectra as sp
    from symspec import sset

    X = SX.Y
    lam = sp.left_action_map(X, SX.T)
    return sp.SpectrumMap(
        SX,
        X,
        [
            sset.descend(SX.quotients[n].projection, lam.level(n))
            for n in range(SX.bound + 1)
        ],
    )


def latching_comparison_per_level(X):
    """(X ^ Sbar, the comparison X ^ Sbar -> X), uncached: the left action
    of Sbar on X after the twist, summand by summand out of X (x) Sbar,
    descended through each quotient."""
    from symspec import equivariant as eq
    from symspec import spectra as sp
    from symspec import sset

    XB = sp.smash_spectra(X, sp.bar_sphere(X.bound, X.tower))

    def summand(n, p, q, mu):
        act = X.left_action(n, q, p, eq.shuffle_perm(mu, p, q)[p:])
        return lambda fx, fs: act(fs, fx)

    comps = zip(XB.quotients, XB.T.map_out(X.seq, summand).components)
    return XB, sp.SpectrumMap(XB, X, [sset.descend(q.projection, a) for q, a in comps])


def descend_checking_built_copies(S, summand, target):
    """``SmashSpectrum.descend`` on the normal path as it was before it read
    coordinate pairs: it builds X_p ^ Y_q for every block, a normal cell
    takes its summand's value, and every other cell of every copy, found by
    its (p, mu, c) missing from the level's normal cells, must take the
    value on its normal form."""
    from symspec import equivariant as eq
    from symspec import spectra as sp
    from symspec import sset

    comps = []
    for n, cells in enumerate(S._cells):
        tn, ids, copies = target.space(n), S._ids[n], {}
        assign = {0: ((), tn.basepoint)}
        for j, (p, mu, c) in enumerate(cells, 1):
            if (p, mu) not in copies:
                copies[(p, mu)] = summand(n, p, n - p, mu)
            assign[j] = copies[(p, mu)](*S._smash(p, n - p).split(((), c)))
        g = sset.SimplicialMap(S.space(n), tn, assign)
        for p in range(n + 1):
            q, sm = n - p, S._smash(p, n - p)
            if sset.is_pointlike(sm.space):
                continue
            for mu in eq.all_shuffles(p, q):
                f = copies.get((p, mu)) or summand(n, p, q, mu)
                for c in sm.space.cell_ids():
                    if c == sm.space.basepoint or (p, mu, c) in ids:
                        continue
                    fx, fy = sm.split(((), c))
                    got, want = g.apply(S._normal_form(n, p, mu, fx, fy)), f(fx, fy)
                    if got != want:
                        raise sset.IdentityError(((p, q, mu), c), "g(q(c)) = f(c)", got, want)
        comps.append(g)
    return sp.SpectrumMap(S, target, comps)


# ---------------------------------------------------------------------------
# a permutation's map as the left fold of the generators along its reduced
# word, from the identity


def act_by_reduced_word(action, perm):
    """The map of perm on an ``EquivariantSpace``, composing every generator
    of the bubble-sort word onto the identity in turn."""
    from symspec import equivariant as eq
    from symspec import sset

    out = sset.identity_map(action.space)
    for i in eq.reduced_word(perm):
        out = action.generators[i].compose(out)
    return out


# ---------------------------------------------------------------------------
# F_n(f) as the tensor of the sphere's identity with G_n(f), which reads the
# cell ids of f without checking where f runs, and the generating sets built
# one kind at a time, with J_cylinder recursing into FI_horn.


def free_F_map_via_G(src, tgt, f):
    """F_n(f) for f: K -> L, the identity on the sphere coordinates."""
    from symspec import spectra as sp
    from symspec import symseq as sq

    gmap = sq.free_G_map(src.G, tgt.G, f)
    seq_map = sq.tensor_map(src.T, tgt.T, sq.identity_seq_map(src.sphere), gmap)
    return sp.SpectrumMap(src, tgt, seq_map.components)


def generating_sets_by_kind(kind, N, R, bound=None, tower=None):
    """The generating families of ``spectra.generating_sets``, kind by kind."""
    from symspec import equivariant as eq
    from symspec import spectra as sp
    from symspec import sset

    tower = tower or eq.SphereTower()
    bound = bound if bound is not None else N + 1

    def free(f, n):
        return free_F_map_via_G(
            sp.free_F(n, f.source, bound, tower), sp.free_F(n, f.target, bound, tower), f
        )

    if kind == "FI_boundary":
        incl = [
            sset.subset_inclusion(sset.boundary_plus(r), sset.delta_plus(r))
            for r in range(R + 1)
        ]
        return [free(f, n) for n in range(N + 1) for f in incl]
    if kind == "FI_horn":
        return [
            free(sset.subset_inclusion(sset.horn_plus(r, i), sset.delta_plus(r)), n)
            for n in range(N + 1)
            for r in range(1, R + 1)
            for i in range(r + 1)
        ]
    if kind == "J_cylinder":
        out = generating_sets_by_kind("FI_horn", N, R, bound=bound, tower=tower)
        for n in range(N + 1):
            _, c_n, _, _ = sp.mapping_cylinder(sp.lambda_map(n, bound, tower))
            for r in range(R + 1):
                f = sset.subset_inclusion(sset.boundary_plus(r), sset.delta_plus(r))
                out.append(sp.pushout_product(c_n, f))
        return out
    raise ValueError(f"unknown generating set kind {kind!r}")
