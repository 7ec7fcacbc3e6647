"""Finite pointed simplicial sets in Eilenberg-Zilber normal form.

Only nondegenerate simplices are stored.  Every simplex is represented by a
*form* ``(word, cell)`` where ``cell`` is the id of a nondegenerate simplex
and ``word`` is a strictly decreasing tuple of degeneracy indices, read as
``s_{word[0]} s_{word[1]} ... s_{word[-1]} cell`` (rightmost applied first).
The simplicial identities then run entirely on words:

    s_i s_j = s_{j+1} s_i          (i <= j)
    d_i s_a = s_{a-1} d_i          (i < a)
    d_i s_a = id                   (i in {a, a+1})
    d_i s_a = s_a d_{i-1}          (i > a+1)

A simplex ``s_U x`` lies in the image of ``s_j`` exactly when ``j in U``.
A face row (d_0 f, ..., d_k f) is built one way, by ``face_row``, from
a template made once per (word, dimension).

``validate`` checks a dimension at a time, on columns: every face count in
one test, each distinct face form once, and each identity
d_i d_j = d_{j-1} d_i as one comparison over all the dimension's cells.
Only a dimension that fails there is scanned cell by cell, to name the
first failure exactly as a scan would.

Products are built on pairs of forms of equal dimension with disjoint words,
smash products directly on the pairs off the wedge, quotients by a
congruence closure that reads the identified pairs once per dimension,
highest first.  All constructions assign fresh ids deterministically, so
equal inputs give identical outputs; a quotient's also do not depend on the
order of its pairs.

Each colimit owns its universal property: a map out of a wedge is
``WedgeResult.map_out``, out of a smash ``SmashResult.map_out`` (one value
per coordinate pair off the wedge), out of a quotient or pushout
``descend``.  The smash alone owns its pair encoding: ``split`` and
``form_of_pair`` convert between a form of A ^ B and its coordinate pair,
and ``left_slice``/``right_slice`` map a factor in at a vertex of the
other.  No other module of the package reads ``pair_rep``, so a new
encoding changes ``SmashResult`` and nothing else.

``all_maps`` is the one enumerator of pointed maps.  It joins the map
tables of connected components, each held as columns, one per cell, so a
cell whose face row has one candidate appends a column and copies no row.
The maps come out in the order of backtracking over the cells, and a
budget is charged what that search would have probed.

``product`` has no caller in the package, since the smash is built off the
wedge directly.  It stays public as the categorical product the smash is a
quotient of: the tests build their reference smash on it and the benchmark
tracer times it.
"""

import functools
import itertools
import math


# ---------------------------------------------------------------------------
# word calculus


# The word functions are pure and their argument space is tiny (strictly
# decreasing tuples over a small range), so unbounded memoization is safe
# and pays off: smash and quotient constructions hit them millions of times.


@functools.lru_cache(maxsize=None)
def degeneracy_insert(j, word):
    """Canonical word for s_j composed with s_word (word strictly decreasing)."""
    out = []
    i = 0
    while i < len(word) and j <= word[i]:
        out.append(word[i] + 1)
        i += 1
    out.append(j)
    out.extend(word[i:])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _word_merge(outer, word):
    for j in reversed(outer):
        word = degeneracy_insert(j, word)
    return word


def word_compose(outer, form):
    """Apply the degeneracy word ``outer`` to a form, renormalizing."""
    if not outer:
        return form
    return (_word_merge(outer, form[0]), form[1])


@functools.lru_cache(maxsize=None)
def face_word(i, word):
    """Push d_i through s_word.

    Returns ``(word2, i2)`` meaning ``d_i s_word = s_word2 d_i2``; ``i2`` is
    None when the face is absorbed by a degeneracy.
    """
    if not word:
        return (), i
    a, rest = word[0], word[1:]
    if i == a or i == a + 1:
        return rest, None
    if i < a:
        w2, i2 = face_word(i, rest)
        return degeneracy_insert(a - 1, w2), i2
    w2, i2 = face_word(i - 1, rest)
    return degeneracy_insert(a, w2), i2


@functools.lru_cache(maxsize=None)
def _row_template(word, k):
    """``face_word(i, word)`` for i = 0..k: the face row of every k-form
    with degeneracy word ``word``, up to its cell's own faces."""
    return tuple([face_word(i, word) for i in range(k + 1)])


def word_extract(j, word):
    """Remove s_j from a canonical word (j must occur), renumbering the rest."""
    if j not in word:
        raise PreconditionError(f"s_{j} does not occur in the word {word!r}")
    return tuple(a - 1 if a > j else a for a in word if a != j)


@functools.lru_cache(maxsize=None)
def _is_decreasing(word, m):
    """True when the nonempty word is strictly decreasing within 0..m-1, as
    the word of a normal form of dimension m is."""
    return word[0] < m and word[-1] >= 0 and all(
        word[a] > word[a + 1] for a in range(len(word) - 1)
    )


def _form_fault(space, form, m):
    """Why ``form`` is no m-simplex of ``space`` in normal form, as (what,
    lhs, rhs), or None: its cell must exist, its word be strictly decreasing
    within 0..m-1 and the two dimensions add up to m."""
    word, cell = form
    d = space.dim_of.get(cell)
    if d is None:
        return "names a cell", form, None
    if len(word) + d == m and (not word or _is_decreasing(word, m)):
        return None
    normal = (_word_merge(word, ()), cell)
    if normal != form:
        return "in normal form", form, normal
    if len(word) + d != m:
        return f"has dimension {m}", len(word) + d, m
    return f"has its degeneracies within 0..{m - 1}", form, None


def base_form(basepoint, dim):
    """The dim-fold degenerate basepoint."""
    return (tuple(range(dim - 1, -1, -1)), basepoint)


class IdentityError(ValueError, AssertionError):
    """A simplicial identity, or the equation of a map out of a quotient,
    failing at ``cell``: ``lhs`` and ``rhs`` are its two sides there.  Also
    an AssertionError, the type of the asserts it replaces."""

    def __init__(self, cell, identity, lhs, rhs):
        super().__init__(f"cell {cell!r}: {identity} fails, {lhs!r} != {rhs!r}")
        self.cell = cell
        self.identity = identity
        self.lhs = lhs
        self.rhs = rhs


class PreconditionError(ValueError, AssertionError):
    """An argument a construction here does not take, named in the message;
    also an AssertionError, the type of the asserts it replaces."""


class _FaceRows(dict):
    """The face rows of the m-forms of ``space``, keyed by form, for
    ``validate``.  It starts with the m-cells' own faces ((), c), whose rows
    are their stored tables; any other form goes through ``_form_fault`` on
    its first read and then holds its ``face_row``, or sets ``faulty``."""

    def __init__(self, space, m):
        ids = space.cells.get(m, ())
        rows = map(space.faces.__getitem__, ids) if m else itertools.repeat(())
        super().__init__(zip(zip(itertools.repeat(()), ids), rows))
        self.space, self.m, self.faulty = space, m, False

    def __missing__(self, form):
        if _form_fault(self.space, form, self.m):
            self.faulty = True
            return None
        row = self[form] = self.space.face_row(form, self.m)
        return row


class PointedSimplicialSet:
    """A finite pointed simplicial set.

    cells: dict dim -> sorted tuple of nondegenerate simplex ids
    faces: dict id -> tuple of forms, entry i being d_i of that simplex
    basepoint: id of the base vertex
    """

    def __init__(self, cells, faces, basepoint, name=None):
        self.cells = {k: tuple(sorted(v)) for k, v in sorted(cells.items()) if v}
        self.faces = faces
        self.basepoint = basepoint
        self.name = name
        self.dim_of = {}
        for k, ids in self.cells.items():
            for c in ids:
                self.dim_of[c] = k
        self._forms_by_dim = {}
        self._forms_by_row = {}

    def __repr__(self):
        counts = ",".join(f"{k}:{len(v)}" for k, v in self.cells.items())
        label = self.name or "sset"
        return f"<{label} [{counts}]>"

    @property
    def dim(self):
        return max(self.cells)

    def cell_ids(self):
        for k in sorted(self.cells):
            yield from self.cells[k]

    def n_cells(self, k):
        return len(self.cells.get(k, ()))

    def form_dim(self, form):
        return len(form[0]) + self.dim_of[form[1]]

    def face(self, i, form):
        """d_i applied to a form, returned in normal form."""
        word, cell = form
        if not word:
            return self.faces[cell][i]
        w2, i2 = face_word(i, word)
        if i2 is None:
            return (w2, cell)
        return word_compose(w2, self.faces[cell][i2])

    def face_row(self, form, k):
        """The faces (d_0 f, ..., d_k f) of a k-form f, in normal form; () for
        a vertex.  A cell's row is its stored face table; a degenerate
        form's is its word's ``_row_template`` read off its cell's table.
        This is the one way a face row is built."""
        word, cell = form
        if not word:
            return self.faces[cell] if k else ()
        faces = self.faces.get(cell)
        return tuple([
            (w, cell) if i is None else word_compose(w, faces[i])
            for w, i in _row_template(word, k)
        ])

    def degenerate(self, j, form):
        return (degeneracy_insert(j, form[0]), form[1])

    def forms(self, k):
        """All k-dimensional forms (degenerate ones included), fixed order."""
        if k not in self._forms_by_dim:
            out = []
            for p in sorted(self.cells):
                if p > k:
                    break
                for cell in self.cells[p]:
                    for comb in itertools.combinations(range(k), k - p):
                        out.append((tuple(reversed(comb)), cell))
            self._forms_by_dim[k] = tuple(out)
        return self._forms_by_dim[k]

    def forms_by_row(self, k):
        """The k-forms keyed by their face row (d_0 f, ..., d_k f).

        Each row maps to the forms having it, in ``forms(k)`` order; in
        dimension 0 every form has the empty row.
        """
        if k not in self._forms_by_row:
            index = self._forms_by_row[k] = {}
            for f in self.forms(k):
                index.setdefault(tuple(self.face_row(f, k)), []).append(f)
        return self._forms_by_row[k]

    def base(self, dim=0):
        return base_form(self.basepoint, dim)

    def validate(self):
        """Check the stored data satisfies the simplicial identities.

        Raises ``IdentityError`` at the first cell that breaks one: the
        first face, in order, that is no (k-1)-form in normal form, else the
        first identity d_i d_j = d_{j-1} d_i (i < j), by j then i, whose
        sides differ.  Each dimension is checked at once, on columns
        (``_dimension_holds``); only a dimension that fails there is scanned
        cell by cell (``_first_failure``), to name the first failure.
        """
        bp = self.basepoint
        if self.dim_of.get(bp) != 0:
            raise IdentityError(bp, "the basepoint is a vertex", self.dim_of.get(bp), 0)
        # dimensions ascend, so every cell a face table refers to has had
        # its own table checked before the identities read it
        for k, ids in self.cells.items():
            try:
                holds = self._dimension_holds(k, ids)
            except (TypeError, ValueError):
                # a face no column reads (unhashable, or no pair): the scan
                # meets it where a cell-by-cell check does
                holds = False
            if not holds:
                self._first_failure(k, ids)
        return True

    def _dimension_holds(self, k, ids):
        """Whether the k-cells ``ids`` pass every check of ``validate``, read
        a dimension at a time: all face counts in one test, each distinct
        face form once (``_FaceRows``), then each identity as one comparison
        over all cells."""
        faces = self.faces
        if not k:
            return not any(map(faces.get, ids))
        tables = list(map(faces.get, ids, itertools.repeat(())))
        if set(map(len, tables)) != {k + 1}:
            return False
        rows_of = _FaceRows(self, k - 1)
        # column j holds the face row of d_j of every cell
        columns = [list(map(rows_of.__getitem__, col)) for col in zip(*tables)]
        if rows_of.faulty:
            return False
        if k < 2:
            return True
        # dd[j][i] holds d_i d_j of every cell
        dd = [list(zip(*column)) for column in columns]
        return all(dd[j][i] == dd[i][j - 1] for j in range(1, k + 1) for i in range(j))

    def _first_failure(self, k, ids):
        """Raise ``validate``'s ``IdentityError`` at the first of the k-cells
        ``ids`` that breaks a check, scanning cell by cell, face by face and
        identity by identity; ``validate`` runs it only on a dimension its
        columns reject."""
        faces = self.faces
        if not k:
            for c in ids:
                if faces.get(c):
                    raise IdentityError(c, "a vertex has no faces", faces[c], ())
            return
        # a (k-1)-form's verdict depends on the form and k alone
        rows_of = {}
        for c in ids:
            fs = faces.get(c, ())
            if len(fs) != k + 1:
                raise IdentityError(c, f"a {k}-cell has {k + 1} faces", len(fs), k + 1)
            rows = []
            for i, f in enumerate(fs):
                r = rows_of.get(f)
                if r is None:
                    fault = _form_fault(self, f, k - 1)
                    if fault:
                        what, lhs, rhs = fault
                        raise IdentityError(c, f"d_{i} {what}", lhs, rhs)
                    r = rows_of[f] = self.face_row(f, k - 1)
                rows.append(r)
            if k < 2:
                continue
            for j in range(1, k + 1):
                for i in range(j):
                    left, right = rows[j][i], rows[i][j - 1]
                    if left != right:
                        raise IdentityError(
                            c, f"d_{i} d_{j} = d_{j - 1} d_{i}", left, right
                        )


def is_pointlike(space):
    return space.dim == 0 and space.n_cells(0) == 1


# ---------------------------------------------------------------------------
# maps


class SimplicialMap:
    """A pointed simplicial map, stored on nondegenerate simplices.

    assign: dict source cell id -> form in target
    """

    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        self.assign = dict(assign)

    def __repr__(self):
        return f"<map {self.source!r} -> {self.target!r}>"

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source is other.source
            and self.target is other.target
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), tuple(sorted(self.assign.items()))))

    def apply(self, form):
        word, cell = form
        if not word:
            return self.assign[cell]
        return word_compose(word, self.assign[cell])

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise PreconditionError(f"{self!r} cannot follow {other!r}")
        assign = {c: self.apply(f) for c, f in other.assign.items()}
        return SimplicialMap(other.source, self.target, assign)

    def failure(self, where=""):
        """The ``IdentityError`` at the first cell where this is not a pointed
        simplicial map, or None; ``where`` prefixes the identity's name.  A
        cell with no image fails ``f(c) is assigned``."""
        source, target, assign = self.source, self.target, self.assign
        bp, base = source.basepoint, ((), target.basepoint)
        f = assign.get(bp)
        if f is None:
            return IdentityError(bp, f"{where}f(c) is assigned", None, base)
        if f != base:
            return IdentityError(bp, f"{where}f(base) = base", f, base)
        dim_of, faces, target_faces = target.dim_of, source.faces, target.faces
        for k, ids in source.cells.items():  # the order of cell_ids()
            for c in ids:
                f = assign.get(c)
                if f is None:
                    return IdentityError(c, f"{where}f(c) is assigned", None, f"a {k}-form")
                word, cell = f
                # _form_fault's test for a normal form, inline
                if dim_of.get(cell) != k - len(word) or (word and not _is_decreasing(word, k)):
                    what, lhs, rhs = _form_fault(target, f, k)
                    return IdentityError(c, f"{where}f(c) {what}", lhs, rhs)
                if not k:
                    continue
                # the whole face row at once (face_row's, read straight off
                # the table for a cell); only a cell whose rows differ is
                # scanned face by face, to name the first
                row = tuple([word_compose(w, assign[t]) if w else assign[t] for w, t in faces[c]])
                if row == tuple(target_faces[cell] if not word else target.face_row(f, k)):
                    continue
                for i in range(k + 1):
                    lhs, rhs = self.apply(source.face(i, ((), c))), target.face(i, f)
                    if lhs != rhs:
                        return IdentityError(c, f"{where}f(d_{i} c) = d_{i} f(c)", lhs, rhs)
        return None

    def is_valid(self):
        return self.failure() is None

    def is_monomorphism(self):
        seen = set()
        for c in self.source.cell_ids():
            f = self.assign.get(c)
            if f is None:
                raise self.failure()
            if f[0]:
                # a nondegenerate simplex hitting a degenerate one kills injectivity
                return False
            if f in seen:
                return False
            seen.add(f)
        return True

    def is_isomorphism(self):
        if not self.is_monomorphism():
            return False
        return all(
            self.source.n_cells(k) == self.target.n_cells(k)
            for k in set(self.source.cells) | set(self.target.cells)
        )

    def inverse(self):
        if not self.is_isomorphism():
            raise PreconditionError(f"{self!r} is not an isomorphism")
        back = {f[1]: ((), c) for c, f in self.assign.items()}
        return SimplicialMap(self.target, self.source, back)


def require_equal(f, g, identity):
    """Raise ``IdentityError`` at the first source cell where the maps f and
    g differ, ``identity`` naming the equation f = g."""
    if f.assign != g.assign:
        for c in f.source.cell_ids():
            if f.assign[c] != g.assign.get(c):
                raise IdentityError(c, identity, f.assign[c], g.assign.get(c))


def identity_map(space):
    return SimplicialMap(space, space, {c: ((), c) for c in space.cell_ids()})


def constant_map(source, target):
    return SimplicialMap(
        source, target, {c: target.base(source.dim_of[c]) for c in source.cell_ids()}
    )


# ---------------------------------------------------------------------------
# standard spaces


def point():
    return PointedSimplicialSet({0: (0,)}, {}, 0, name="pt")


def _subset_spaces(n, keep, name):
    # cells of a subcomplex of Delta[n]_+: nonempty vertex subsets passing `keep`,
    # plus a disjoint basepoint (id 0)
    subsets = []
    for k in range(n + 1):
        for comb in itertools.combinations(range(n + 1), k + 1):
            if keep(comb):
                subsets.append(comb)
    ids = {comb: i + 1 for i, comb in enumerate(subsets)}
    cells = {0: [0]}
    faces = {}
    for comb, c in ids.items():
        k = len(comb) - 1
        cells.setdefault(k, []).append(c)
        if k:
            faces[c] = tuple(
                ((), ids[comb[:i] + comb[i + 1 :]]) for i in range(k + 1)
            )
    space = PointedSimplicialSet(cells, faces, 0, name=name)
    space.subset_ids = ids
    return space


def subset_inclusion(A, B):
    """Canonical inclusion between subcomplexes of the same Delta[n]_+."""
    assign = {A.basepoint: ((), B.basepoint)}
    for comb, c in A.subset_ids.items():
        assign[c] = ((), B.subset_ids[comb])
    return SimplicialMap(A, B, assign)


def delta_plus(n):
    """The standard n-simplex with a disjoint basepoint adjoined."""
    return _subset_spaces(n, lambda comb: True, f"Delta[{n}]+")


def boundary_plus(n):
    """Boundary of the n-simplex, disjoint basepoint adjoined.

    For n = 0 the boundary is empty, so the result is just the basepoint.
    """
    return _subset_spaces(n, lambda comb: len(comb) <= n, f"dDelta[{n}]+")


def horn_plus(n, i):
    """The horn missing the face opposite vertex i, disjoint basepoint adjoined."""
    if not 0 <= i <= n or n < 1:
        raise PreconditionError(f"no horn Horn[{n},{i}]: need 0 <= i <= n, n >= 1")
    full = tuple(range(n + 1))
    opp = full[:i] + full[i + 1 :]
    return _subset_spaces(
        n, lambda comb: comb != full and comb != opp, f"Horn[{n},{i}]+"
    )


def interval_plus():
    return delta_plus(1)


def sphere(n):
    """The n-fold smash power of the circle; sphere(0) is Delta[0]_+."""
    if n < 0:
        raise PreconditionError(f"no sphere of dimension {n}")
    if n == 0:
        return zero_sphere()
    space = circle()
    for m in range(2, n + 1):
        space = smash(circle(), space, name=f"S{m}").space
    return space


def zero_sphere():
    """Two points, one of them the base."""
    return PointedSimplicialSet({0: (0, 1)}, {}, 0, name="S0")


def circle():
    """Delta[1] with both ends at the basepoint: one vertex, one edge."""
    return PointedSimplicialSet(
        {0: (0,), 1: (1,)}, {1: (((), 0), ((), 0))}, 0, name="S1"
    )


# ---------------------------------------------------------------------------
# product


def pair_normalize(fa, fb):
    """Normal form of a pair of forms: extract shared degeneracies outward.

    Returns ``(outer_word, (fa', fb'))`` with the residual words disjoint.
    """
    (wa, ta), (wb, tb) = fa, fb
    if not wa or not wb:
        return (), (fa, fb)
    acc, wa2, wb2 = _split_words(wa, wb)
    if not acc:
        return acc, (fa, fb)
    return acc, ((wa2, ta), (wb2, tb))


@functools.lru_cache(maxsize=None)
def _split_words(wa, wb):
    # the word part of pair_normalize: (outer, wa', wb')
    outer = []
    common = set(wa) & set(wb)
    while common:
        j = max(common)
        wa = word_extract(j, wa)
        wb = word_extract(j, wb)
        outer.append(j)
        common = set(wa) & set(wb)
    acc = ()
    for j in reversed(outer):
        acc = degeneracy_insert(j, acc)
    return acc, wa, wb


class ProductResult:
    """A product space together with its pair bookkeeping."""

    def __init__(self, space, proj1, proj2, pair_of, id_of):
        self.space = space
        self.proj1 = proj1
        self.proj2 = proj2
        self.pair_of = pair_of  # product cell id -> (form in A, form in B)
        self.id_of = id_of  # disjoint-word pair -> product cell id

    def pair_form(self, fa, fb):
        """The product form with the given coordinate forms (equal dims)."""
        outer, key = pair_normalize(fa, fb)
        return word_compose(outer, ((), self.id_of[key]))


def _joint_pairs(A, B):
    """The jointly nondegenerate pairs of A x B, in product order.

    Yields ``(k, fa, fbs)``: a k-dimensional A-form and the list of its
    B-partners, whose words are picked directly from the letters A leaves
    free.  The order matches the filtered forms(k) x forms(k) sweep, so the
    position of a pair in this sequence is its product cell id.
    """
    b_by_dim = [(q, tuple(B.cells[q])) for q in sorted(B.cells)]
    for k in range(A.dim + B.dim + 1):
        for p in sorted(A.cells):
            if p > k:
                break
            if k - p > B.dim:
                # an A-word this long leaves too few free letters for any B-cell
                continue
            for cell in A.cells[p]:
                for used in itertools.combinations(range(k), k - p):
                    free = [j for j in range(k) if j not in used]
                    fbs = []
                    for q, ids in b_by_dim:
                        if q > k:
                            break
                        need = k - q
                        if need > len(free):
                            continue
                        combs = [
                            tuple(reversed(comb))
                            for comb in itertools.combinations(free, need)
                        ]
                        fbs.extend((word, y) for y in ids for word in combs)
                    if fbs:
                        yield k, (tuple(reversed(used)), cell), fbs


def product(A, B):
    """Categorical product of pointed simplicial sets, with projections."""
    id_of = {}
    pair_of = {}
    cells = {}
    faces = {}
    fresh = itertools.count()
    for k, fa, fbs in _joint_pairs(A, B):
        for fb in fbs:
            c = next(fresh)
            id_of[(fa, fb)] = c
            pair_of[c] = (fa, fb)
            cells.setdefault(k, []).append(c)
    bp = id_of[(((), A.basepoint), ((), B.basepoint))]
    space = PointedSimplicialSet(cells, faces, bp, name=f"({A.name}x{B.name})")
    result = ProductResult(space, None, None, pair_of, id_of)
    for k in sorted(cells):
        if k == 0:
            continue
        for c in cells[k]:
            fa, fb = pair_of[c]
            entry = []
            for i in range(k + 1):
                entry.append(result.pair_form(A.face(i, fa), B.face(i, fb)))
            faces[c] = tuple(entry)
    # faces dict is shared with the space; rebuild caches that care about it
    result.proj1 = SimplicialMap(
        space, A, {c: pair_of[c][0] for c in space.cell_ids()}
    )
    result.proj2 = SimplicialMap(
        space, B, {c: pair_of[c][1] for c in space.cell_ids()}
    )
    return result


# ---------------------------------------------------------------------------
# wedge


class WedgeResult:
    def __init__(self, space, inclusions, part_of):
        self.space = space
        self.inclusions = inclusions
        self.part_of = part_of  # wedge cell id -> (part index, original id)

    def map_out(self, maps):
        """The map out of the wedge that is maps[i] on part i."""
        Z = maps[0].target
        if any(m.target is not Z for m in maps):
            raise PreconditionError("a map out of a wedge needs one common target")
        base = ((), Z.basepoint)
        assign = {
            c: maps[loc[0]].assign[loc[1]] if loc else base
            for c, loc in self.part_of.items()
        }
        return SimplicialMap(self.space, Z, assign)


def wedge(parts, name=None):
    """Wedge of pointed simplicial sets along their basepoints."""
    cells = {0: [0]}
    faces = {}
    part_of = {0: None}
    rename = []
    fresh = itertools.count(1)
    for idx, X in enumerate(parts):
        table = {X.basepoint: 0}
        for c in X.cell_ids():
            if c == X.basepoint:
                continue
            new = table[c] = next(fresh)
            part_of[new] = (idx, c)
            cells.setdefault(X.dim_of[c], []).append(new)
        rename.append(table)
    for X, table in zip(parts, rename):
        for c, new in table.items():
            if X.dim_of[c]:
                faces[new] = tuple([(w, table[t]) for w, t in X.faces[c]])
    space = PointedSimplicialSet(
        cells, faces, 0, name=name or "v".join(X.name or "?" for X in parts)
    )
    inclusions = [
        SimplicialMap(X, space, {c: ((), rename[idx][c]) for c in X.cell_ids()})
        for idx, X in enumerate(parts)
    ]
    return WedgeResult(space, inclusions, part_of)


# ---------------------------------------------------------------------------
# quotient by a congruence


class QuotientResult:
    def __init__(self, space, projection, class_of):
        self.space = space
        self.projection = projection
        self.class_of = class_of  # old cell id -> form over new ids


def quotient_by_pairs(X, pairs, name=None):
    """Identify the listed pairs of forms and close under the face maps.

    The closure reads the pairs once per dimension, highest first, with both
    sides resolved.  Two nondegenerate simplices merge to the smaller id; a
    nondegenerate simplex equated with a degenerate form is redirected onto
    it; two degenerate forms need no rewrite, since by the Eilenberg-Zilber
    lemma each is fixed by its nondegenerate root, of lower dimension, and
    two degenerate simplices with equal faces are equal.  In all three cases
    the pairs of faces go to the dimension below.  Degeneracies need no
    closure on normal forms.

    It terminates because a pair only adds pairs one dimension down and each
    dimension's pairs are read once, after all higher ones.  Merges keep the
    smallest id, so the result does not depend on the order of ``pairs``.
    A pair of forms of unequal dimension raises ``IdentityError``, and a
    form on a cell not in X ``PreconditionError``.
    """
    # rep holds the redirected cells only; a cell absent from it is live
    rep = {}

    def resolve(form):
        # walk the redirects to a live cell, then point each cell passed on
        # the way straight at its form over that cell
        path, t = [], form[1]
        while t in rep:
            path.append(t)
            t = rep[t][1]
        if not path:
            return form
        out = rep[path.pop()]
        while path:
            c = path.pop()
            out = rep[c] = word_compose(rep[c][0], out)
        return word_compose(form[0], out)

    dim_of, faces = X.dim_of, X.faces

    by_dim = {}
    for pair in pairs:
        a, b = pair
        for side in pair:
            if side[1] not in dim_of:
                raise PreconditionError(
                    f"the pair {pair!r} names {side[1]!r}, not a cell of {X!r}"
                )
        ka, kb = len(a[0]) + dim_of[a[1]], len(b[0]) + dim_of[b[1]]
        if ka != kb:
            raise IdentityError(a, f"dim a = dim b at b = {b!r}", ka, kb)
        by_dim.setdefault(ka, []).append(pair)

    for k in range(max(by_dim, default=0), -1, -1):
        below, seen = by_dim.setdefault(k - 1, []), set()
        for a, b in by_dim.pop(k, ()):
            a, b = resolve(a), resolve(b)
            if a == b:
                continue
            # a nondegenerate side is redirected onto the other side; of two
            # nondegenerate cells, the larger id onto the smaller
            (wa, ta), (wb, tb) = a, b
            if not wb and (wa or ta < tb):
                rep[tb] = a
            elif not wa:
                rep[ta] = b
            for fa, fb in zip(X.face_row(a, k), X.face_row(b, k)):
                if fa != fb:
                    key = (fa, fb) if fa <= fb else (fb, fa)
                    if key not in seen:
                        seen.add(key)
                        below.append(key)

    live = [c for c in X.cell_ids() if c not in rep]  # in (dim, id) order
    new_id = {c: i for i, c in enumerate(live)}
    cells = {k: [new_id[c] for c in ids if c in new_id] for k, ids in X.cells.items()}

    def to_new(form):
        w, t = resolve(form)
        return (w, new_id[t])

    new_faces = {
        new_id[c]: tuple([to_new(f) for f in faces[c]]) for c in live if dim_of[c]
    }
    base = to_new(X.base())[1]
    space = PointedSimplicialSet(cells, new_faces, base, name=name or f"{X.name}/~")
    class_of = {c: to_new(((), c)) for c in X.cell_ids()}
    projection = SimplicialMap(X, space, class_of)
    space.validate()
    return QuotientResult(space, projection, class_of)


def quotient(X, inclusion, name=None):
    """Collapse the image of a monomorphism to the basepoint."""
    if inclusion.target is not X or not inclusion.is_monomorphism():
        raise PreconditionError(f"{inclusion!r} is not a monomorphism into {X!r}")
    A = inclusion.source
    pairs = [(inclusion.assign[c], X.base(A.dim_of[c])) for c in A.cell_ids()]
    return quotient_by_pairs(X, pairs, name=name)


# ---------------------------------------------------------------------------
# smash


class SmashResult:
    """Smash product with the pair bookkeeping needed to map in and out.

    pair_rep[c] is a representative coordinate pair of the smash cell c;
    id_of sends each jointly nondegenerate pair off the wedge to its cell.
    Both are read here only: ``split`` gives the pair of any form and
    ``form_of_pair`` the form of any pair, maps out of the smash are built
    by ``map_out``, and the slices at a vertex, A -> A ^ B and B -> A ^ B,
    by ``right_slice`` and ``left_slice``.
    """

    def __init__(self, A, B, space, id_of, pair_rep):
        self.A = A
        self.B = B
        self.space = space
        self.id_of = id_of
        self.pair_rep = pair_rep
        self._classes = {}

    def map_out(self, target, value):
        """The map A ^ B -> target sending the base vertex to the base and
        every other cell c to ``value(fa, fb)``, (fa, fb) = pair_rep[c].

        value is called once per cell, never on the wedge; it must send
        pairs identified in A ^ B to equal forms, as a map out of A x B
        that is constant on the wedge does.
        """
        bp, base = self.space.basepoint, ((), target.basepoint)
        assign = {c: base if c == bp else value(*pair) for c, pair in self.pair_rep.items()}
        return SimplicialMap(self.space, target, assign)

    def split(self, form):
        """The coordinate pair of a form of A ^ B, its word applied to both
        coordinates; the inverse of ``form_of_pair``.  A form on the base
        vertex splits into a pair on the wedge."""
        w, c = form
        fa, fb = self.pair_rep[c]
        if not w:
            return fa, fb
        return word_compose(w, fa), word_compose(w, fb)

    def left_slice(self, a):
        """The map B -> A ^ B, y |-> a ^ y, at the vertex a of A."""
        B, pair = self.B, self.form_of_pair
        assign = {c: pair(base_form(a, B.dim_of[c]), ((), c)) for c in B.cell_ids()}
        return SimplicialMap(B, self.space, assign)

    def right_slice(self, b):
        """The map A -> A ^ B, x |-> x ^ b, at the vertex b of B."""
        A, pair = self.A, self.form_of_pair
        assign = {c: pair(((), c), base_form(b, A.dim_of[c])) for c in A.cell_ids()}
        return SimplicialMap(A, self.space, assign)

    def form_of_pair(self, fa, fb):
        """Smash class of a coordinate pair (forms of equal dimension)."""
        key = (fa, fb)
        hit = self._classes.get(key)
        if hit is not None:
            return hit
        if fa[1] == self.A.basepoint or fb[1] == self.B.basepoint:
            out = self.space.base(self.A.form_dim(fa))
        else:
            outer, pair = pair_normalize(fa, fb)
            out = word_compose(outer, ((), self.id_of[pair]))
        self._classes[key] = out
        return out


def smash(A, B, name=None):
    """Smash product, built directly on the pairs off the wedge.

    The nondegenerate simplices of A ^ B are the jointly nondegenerate
    pairs of A x B with no base coordinate, plus one base vertex: the
    first wedge pair in product order, at the lowest-id wedge vertex of
    the product.  They are numbered in (dimension, product id) order, so
    the result is the quotient of ``product(A, B)`` collapsing the wedge,
    cell ids included.

    Each factor form's ``face_row`` is read once, with its faces on the
    base marked None, so a face of a pair lies on the wedge when either
    coordinate's mark is None; a base A-form's partners are all skipped at
    once.  Other face pairs are normalized through ``_split_words``, as
    ``pair_normalize`` does, and a pair left as it is is looked up among
    its A-coordinate's partners, which hold each cell's form ``((), c)``
    as one object: a face table shares it, so ``validate`` mostly meets
    equal faces as the same object.
    """
    id_of = {}
    pair_rep = {}
    cells = {}
    faces = {}
    basepoint = None
    abp, bbp = A.basepoint, B.basepoint
    fresh = itertools.count()
    b_rows = {}  # marked face row of a B-form; B-forms recur across A-forms
    # A-form -> {B-form: ((), cell)}: id_of by the first coordinate, each
    # cell's form made once, so equal faces are one object
    partners = {}
    for k, fa, fbs in _joint_pairs(A, B):
        if fa[1] == abp:
            if basepoint is None:
                basepoint = next(fresh)
                pair_rep[basepoint] = (fa, fbs[0])
                cells.setdefault(0, []).append(basepoint)
            continue
        ids = partners[fa] = {}
        a_row = None
        for fb in fbs:
            if fb[1] == bbp:
                if basepoint is None:
                    basepoint = next(fresh)
                    pair_rep[basepoint] = (fa, fb)
                    cells.setdefault(0, []).append(basepoint)
                continue
            c = next(fresh)
            ids[fb] = ((), c)
            pair = (fa, fb)
            id_of[pair] = c
            pair_rep[c] = pair
            cells.setdefault(k, []).append(c)
            if not k:
                continue
            if a_row is None:
                a_row = A.face_row(fa, k)
                a_ids = [None if g[1] == abp else partners.get(g, {}) for g in a_row]
                on_wedge = base_form(basepoint, k - 1)
            b_row = b_rows.get(fb)
            if b_row is None:
                b_row = b_rows[fb] = [None if g[1] == bbp else g for g in B.face_row(fb, k)]
            entry = []
            for ga_ids, ga, gb in zip(a_ids, a_row, b_row):
                if ga_ids is None or gb is None:
                    entry.append(on_wedge)
                    continue
                if ga[0] and gb[0]:
                    outer, wa, wb = _split_words(ga[0], gb[0])
                    if outer:
                        entry.append((outer, id_of[(wa, ga[1]), (wb, gb[1])]))
                        continue
                entry.append(ga_ids[gb])
            faces[c] = tuple(entry)
    space = PointedSimplicialSet(
        cells, faces, basepoint, name=name or f"({A.name}^{B.name})"
    )
    space.validate()
    return SmashResult(A, B, space, id_of, pair_rep)


def smash_pairs(A, B):
    """The coordinate pairs of the cells of A ^ B off the base vertex, in
    cell order, as ``split`` gives them, without building the smash."""
    for _, fa, fbs in _joint_pairs(A, B):
        if fa[1] != A.basepoint:
            yield from ((fa, fb) for fb in fbs if fb[1] != B.basepoint)


def smash_map(sm_src, sm_tgt, f, g):
    """f ^ g between smash products; f: A -> A', g: B -> B'."""
    if not (sm_src.A is f.source and sm_tgt.A is f.target):
        raise PreconditionError(f"{f!r} does not run between the left factors")
    if not (sm_src.B is g.source and sm_tgt.B is g.target):
        raise PreconditionError(f"{g!r} does not run between the right factors")
    return sm_src.map_out(
        sm_tgt.space, lambda fa, fb: sm_tgt.form_of_pair(f.apply(fa), g.apply(fb))
    )


def smash_swap(sm_ab, sm_ba):
    """The symmetry A ^ B -> B ^ A."""
    return sm_ab.map_out(sm_ba.space, lambda fa, fb: sm_ba.form_of_pair(fb, fa))


def smash_assoc(sm_ab, sm_ab_c, sm_bc, sm_a_bc):
    """The associator (A ^ B) ^ C -> A ^ (B ^ C)."""

    def value(fab, fc):
        fa, fb = sm_ab.split(fab)
        return sm_a_bc.form_of_pair(fa, sm_bc.form_of_pair(fb, fc))

    return sm_ab_c.map_out(sm_a_bc.space, value)


def _sole_point(space):
    # the unique non-base vertex of a two-point space
    return next(v for v in space.cells[0] if v != space.basepoint)


def smash_lunit(sm):
    """For S^0 ^ B: the isomorphism to B and its inverse."""
    return sm.map_out(sm.B, lambda fa, fb: fb), sm.left_slice(_sole_point(sm.A))


def smash_runit(sm):
    """For B ^ S^0: the isomorphism to B and its inverse."""
    return sm.map_out(sm.A, lambda fa, fb: fa), sm.right_slice(_sole_point(sm.B))


# ---------------------------------------------------------------------------
# pushout


class PushoutResult:
    def __init__(self, space, leg1, leg2, collapse, wedge):
        self.space = space
        self.leg1 = leg1  # from f.target
        self.leg2 = leg2  # from g.target
        self.collapse = collapse  # from the wedge
        self.wedge = wedge  # f.target v g.target


def pushout(f, g, name=None):
    """Pushout of B <-f- A -g-> C in pointed simplicial sets."""
    if f.source is not g.source:
        raise PreconditionError(f"the legs {f!r} and {g!r} need a common source")
    w = wedge([f.target, g.target], name="pw")
    i1, i2 = w.inclusions
    pairs = [(i1.apply(f.assign[c]), i2.apply(g.assign[c])) for c in f.assign]
    q = quotient_by_pairs(w.space, pairs, name=name or "pushout").projection
    return PushoutResult(q.target, q.compose(i1), q.compose(i2), q, w)


# ---------------------------------------------------------------------------
# maps out of quotients and pushouts


def first_preimages(q):
    """Each cell of q.target -> the first cell of q.source, in ``cell_ids()``
    order, that q sends onto it nondegenerately.  Built once per map."""
    if not hasattr(q, "_first_preimages"):
        lift = q._first_preimages = {}
        for c in q.source.cell_ids():
            w, t = q.assign[c]
            if not w:
                lift.setdefault(t, c)
    return q._first_preimages


def descend(q, f, then=None):
    """The map g: Q -> B with g . q = f, for q: A -> Q onto and f: A -> B.

    With ``then`` (B -> B') it is g: Q -> B' with g . q = then . f.  Each
    cell of Q takes the value of f (then . f) on its ``first_preimages``
    entry: the first cell of A in ``cell_ids()`` order that q sends onto it
    nondegenerately, the preimage every construction has always read.  f
    must be constant on the fibres of q, and then g, and so every cell id
    and output built from it, is the same for any choice; the choice only
    decides which cell a failure names.  Every cell of A is checked, and
    the first one where g . q and f differ raises ``IdentityError``.
    """
    lift = first_preimages(q)
    if then is None:
        want = f.assign
    else:
        want = {c: then.apply(form) for c, form in f.assign.items()}
    g = SimplicialMap(
        q.target, (then or f).target, {qc: want[lift[qc]] for qc in q.target.cell_ids()}
    )
    for c in q.source.cell_ids():
        w, t = q.assign[c]
        # a cell that is its class's chosen preimage agrees by construction
        if w or lift[t] != c:
            got = g.apply((w, t))
            if got != want[c]:
                raise IdentityError(c, "g(q(c)) = f(c)", got, want[c])
    return g


def map_out_of_pushout(po, to1, to2):
    """The map h: P -> Z with h . leg1 = to1 and h . leg2 = to2.

    to1 and to2 must agree on the common source A of the pushout's legs;
    the wedge map (to1, to2) descends through ``po.collapse`` by
    ``descend``, which raises ``IdentityError`` where they do not.
    """
    return descend(po.collapse, po.wedge.map_out((to1, to2)))


# ---------------------------------------------------------------------------
# map enumeration


class BudgetExceeded(RuntimeError):
    """A metered search needed more probes than its budget allows."""


class Budget:
    """A probe meter that searches sharing it charge as they go.

    ``used`` never reads past ``limit + 1``: a bulk charge that crosses the
    limit stops there, where the same probes charged one by one would have.
    """

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExceeded(self.used)


def _search_cells(A):
    """(cell, face table, dim) for the non-base cells of A in (dim, id) order."""
    return [
        (c, A.faces[c] if A.dim_of[c] else (), A.dim_of[c])
        for c in A.cell_ids()
        if c != A.basepoint
    ]


def _join(tables):
    """The product of disjoint (cols, columns, size) tables, its rows in the
    order of ``[r + s for r in rows for s in trows]``: the columns joined
    so far repeat each value tsize times, and the new table's columns
    repeat whole, once per row so far."""
    cols, columns, size = [], [], 1
    for tcols, tcolumns, tsize in tables:
        if tsize != 1:
            columns = [list(itertools.chain.from_iterable(zip(*[col] * tsize))) for col in columns]
        if size != 1:
            tcolumns = [col * size for col in tcolumns]
        cols = cols + tcols
        columns = columns + tcolumns
        size *= tsize
    return cols, columns, size


def all_maps(A, X, budget=None):
    """All pointed simplicial maps A -> X, in a fixed deterministic order.

    The order is that of backtracking over the non-base cells of A in
    (dim, id) order, where the images of a k-cell's faces fix the face row
    of its image and the candidates are ``X.forms_by_row(k)[row]``, in
    ``X.forms(k)`` order: the maps sorted by the ``X.forms(k)`` positions
    of their images, cell by cell.  Each map's assignment lists the
    basepoint, then the non-base cells in that order.

    Every prefix of that cell order is face-closed, so the search would
    visit N(pos) nodes at depth pos, N(pos) being the number of pointed
    maps from the first pos cells (and the basepoint) to X, and would probe
    len(X.forms(k)) forms at each, a face-by-face scan's count.  So
    checked = sum over pos of N(pos) * len(X.forms(k_pos)), and ``budget``
    (a ``Budget``, possibly shared) is charged exactly that, raising
    ``BudgetExceeded`` when it runs out.  These probes are part of the
    ``checked`` of ``has_lifting_property``, which the CLI prints.

    The nodes themselves are not visited.  Each connected component of the
    prefix (the basepoint belongs to none) keeps the table of its maps as
    columns, one per cell, and N(pos) is the product of the table sizes.
    Cell c_pos is charged first; then the tables of the components its
    faces touch are joined, and its face rows are read off the face
    columns.  A row with one candidate keeps its place, so a cell whose
    every row has one candidate only appends a column; otherwise each row
    is kept once per candidate.  A join reads at most N(pos) rows, so the
    budget bounds the work.  The maps are the product of the last tables,
    sorted into the search order and built once.
    """
    cells = _search_cells(A)
    base = ((), X.basepoint)
    comp_of, tables = {}, {}
    for c, faces, k in cells:
        if budget is not None:
            n = math.prod(size for _, _, size in tables.values())
            budget.spend(len(X.forms(k)) * n)
        touched = dict.fromkeys(comp_of[t] for _, t in faces if t != A.basepoint)
        cols, columns, size = _join([tables.pop(cid) for cid in touched])
        at = {t: j for j, t in enumerate(cols)}
        face_cols = []
        for w, t in faces:
            j = at.get(t)
            if j is None:
                face_cols.append(itertools.repeat(word_compose(w, base), size))
            elif w:
                face_cols.append(map(word_compose, itertools.repeat(w), columns[j]))
            else:
                face_cols.append(columns[j])
        rows = zip(*face_cols) if faces else itertools.repeat((), size)
        cands = list(map(X.forms_by_row(k).get, rows))
        new = [form for forms in cands if forms for form in forms]
        if len(new) != size or not all(cands):
            keep = [r for r, forms in enumerate(cands) if forms for _ in forms]
            columns = [[col[r] for r in keep] for col in columns]
            size = len(keep)
        columns.append(new)
        cols.append(c)
        comp_of.update(dict.fromkeys(cols, c))
        tables[c] = (cols, columns, size)
    cols, columns, size = _join(tables.values())
    at = {t: j for j, t in enumerate(cols)}
    images = [columns[at[c]] for c, _, _ in cells]
    rank = {k: {f: i for i, f in enumerate(X.forms(k))} for k in A.cells}
    ranks = [map(rank[k].__getitem__, col) for col, (_, _, k) in zip(images, cells)]
    order = [key[-1] for key in sorted(zip(*ranks, range(size)))]
    keys = [A.basepoint] + [c for c, _, _ in cells]
    rows = list(zip(itertools.repeat(base, size), *images))
    return [SimplicialMap(A, X, zip(keys, rows[j])) for j in order]


def find_isomorphism(A, X):
    """An isomorphism A -> X if one exists, else None.

    Isomorphisms send nondegenerate simplices to nondegenerate simplices
    bijectively in each dimension, so this backtracks over the cells in the
    order of ``all_maps``, tries only unused nondegenerate candidates for
    the face row, and stops at the first map.
    """
    dims = set(A.cells) | set(X.cells)
    if any(A.n_cells(k) != X.n_cells(k) for k in dims):
        return None
    cells = _search_cells(A)
    assign = {A.basepoint: ((), X.basepoint)}
    used = {X.basepoint}

    def rec(pos):
        if pos == len(cells):
            return SimplicialMap(A, X, assign)
        c, faces, k = cells[pos]
        row = tuple([word_compose(w, assign[t]) for w, t in faces])
        for form in X.forms_by_row(k).get(row, ()):
            if form[0] or form[1] in used:
                continue
            assign[c] = form
            used.add(form[1])
            found = rec(pos + 1)
            if found is not None:
                return found
            used.remove(form[1])
        assign.pop(c, None)
        return None

    return rec(0)
