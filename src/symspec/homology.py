"""Exact integral invariants: normalized chains, Smith form, stable colimits.

Everything here is arbitrary-precision integer linear algebra; nothing is
rational.  Boundary matrices are kept column-sparse (dict row -> coefficient
per generator); kernels come from an integer column reduction, torsion from
Smith normal form of the boundary written in kernel coordinates.  Those
coordinates come from back-substitution against the kernel columns brought
to echelon form by the same column reduction, as sparse dicts.

The Smith form runs on sparse rows with a column index and only records
its row and column operations; U, U_inv, V and V_inv are replayed from
those records, and the dense D written out, on first read.  A homology
group reads only the diagonal, so it builds none of them.

Every degree has degree data, the empty degrees included: no cells gives an
empty kernel and the zero group, so no caller branches on the rank.  A
homology class is pushed along a chain map one way, ``_pushed_classes``;
the stable reports push along one suspension-then-structure-map chain map
per level, ``_suspension_push``, over the levels and Hurewicz gate of
``_stable_levels``.

``identity_matrix``, ``mat_mul`` and ``mat_eq`` have no caller in the
package.  They stay public because the tests check Smith forms with them
and the benchmark tracer times ``mat_mul``.
"""

from . import sset


class HomologyInputError(ValueError, AssertionError):
    """An input that breaks an identity of this module, named in the message.

    Also an AssertionError, the type these checks raised as asserts, so
    callers that catch that keep working; unlike an assert it survives -O.
    """


# ---------------------------------------------------------------------------
# dense integer matrices (lists of rows)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for t, a in enumerate(row):
            if a:
                brow = B[t]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def mat_eq(A, B):
    return A == B


def _transpose(M):
    return [list(col) for col in zip(*M)]


# ---------------------------------------------------------------------------
# Smith normal form on sparse rows


def _replay(size, ops, inverse):
    """The size x size identity, as sparse rows, with logged operations
    replayed on its rows.

    An operation is ``(a, b)``, swap a and b; ``(a, b, q)``, add q times b
    to a; or ``(a,)``, negate a.  With ``inverse`` each is replaced by its
    inverse acting on columns, written on the rows of the transpose: the
    same swap and negation, and row b -= q times row a.  The row operations
    of a reduction give the rows of U, and the columns of U_inv; its column
    operations give the columns of V, and the rows of V_inv.
    """
    M = [{i: 1} for i in range(size)]
    for op in ops:
        if len(op) == 3:
            a, b, q = op
            if inverse:
                _axpy(M[b], M[a], -q)
            else:
                _axpy(M[a], M[b], q)
        elif len(op) == 2:
            a, b = op
            M[a], M[b] = M[b], M[a]
        else:
            (a,) = op
            M[a] = {j: -v for j, v in M[a].items()}
    return M


def _dense(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


class SNFResult:
    """D = U . M . V with U, V unimodular, D diagonal, d_i >= 0, d_i | d_{i+1}.

    ``smith_normal_form`` passes the reduced m x n matrix as sparse rows
    (row i a dict column -> nonzero) and the row and column operations it
    ran, in order, in the format of ``_replay``.  ``diagonal`` and ``rank``
    read the rows.  Everything else is built on its first read: the sparse
    rows of U and columns of U_inv replayed from the row operations, and
    the dense D, U, U_inv, V and V_inv.
    """

    def __init__(self, rows, m, n, row_ops, col_ops):
        self.rows = rows
        self.m = m
        self.n = n
        self._row_ops = row_ops
        self._col_ops = col_ops
        self._U_rows = self._U_inv_cols = None
        self._D = self._U = self._U_inv = self._V = self._V_inv = None

    @property
    def U_rows(self):
        if self._U_rows is None:
            self._U_rows = _replay(self.m, self._row_ops, False)
        return self._U_rows

    @property
    def U_inv_cols(self):
        if self._U_inv_cols is None:
            self._U_inv_cols = _replay(self.m, self._row_ops, True)
        return self._U_inv_cols

    @property
    def D(self):
        if self._D is None:
            self._D = _dense(self.rows, self.n)
        return self._D

    @property
    def U(self):
        if self._U is None:
            self._U = _dense(self.U_rows, self.m)
        return self._U

    @property
    def U_inv(self):
        if self._U_inv is None:
            self._U_inv = _transpose(_dense(self.U_inv_cols, self.m))
        return self._U_inv

    @property
    def V(self):
        if self._V is None:
            self._V = _transpose(_dense(_replay(self.n, self._col_ops, False), self.n))
        return self._V

    @property
    def V_inv(self):
        if self._V_inv is None:
            self._V_inv = _dense(_replay(self.n, self._col_ops, True), self.n)
        return self._V_inv

    @property
    def diagonal(self):
        return [self.rows[i].get(i, 0) for i in range(min(self.m, self.n))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(M, n=None):
    """Smith normal form over the integers, reduced on sparse rows.

    M is a list of rows, each a dense list or a dict column -> entry; n is
    the number of columns, required when the rows are dicts.  The matrix is
    held as row dicts of nonzeros plus a column index (column -> set of
    rows), so a column swap or add touches only the rows holding those
    columns.

    Pivot rule: smallest nonzero absolute value, earliest (row, column)
    position on ties, which makes the reduction deterministic.  The scan
    stops at the end of the first row holding a unit, whose earliest unit
    that rule picks, and a unit pivot skips the divisibility sweep, which it
    always passes.  The rows under a pivot are cleared in ascending order,
    then the columns right of it, and the sweep adds the first offending
    row.  The row and column operations are only recorded; the result
    builds U, U_inv, V and V_inv from them when first read.
    """
    if n is None:
        if any(isinstance(row, dict) for row in M):
            raise HomologyInputError("dict rows need the column count n")
        n = len(M[0]) if M else 0
    rows = []
    for row in M:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        rows.append({j: int(v) for j, v in items if v})
    m = len(rows)
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if not 0 <= j < n:
                raise HomologyInputError(f"row {i} has an entry in column {j} of {n}")
            cols[j].add(i)
    row_ops, col_ops = [], []

    def row_swap(a, b):
        ra, rb = rows[a], rows[b]
        for j in ra.keys() ^ rb.keys():
            cols[j] ^= {a, b}
        rows[a], rows[b] = rb, ra
        row_ops.append((a, b))

    def row_add(a, b, q):
        # row a += q * row b
        ra = rows[a]
        for j, v in rows[b].items():
            nv = ra.get(j, 0) + q * v
            if nv:
                ra[j] = nv
                cols[j].add(a)
            else:
                del ra[j]
                cols[j].discard(a)
        row_ops.append((a, b, q))

    def row_negate(a):
        rows[a] = {j: -v for j, v in rows[a].items()}
        row_ops.append((a,))

    def col_swap(a, b):
        for i in cols[a] | cols[b]:
            row = rows[i]
            va, vb = row.pop(a, 0), row.pop(b, 0)
            if vb:
                row[a] = vb
            if va:
                row[b] = va
        cols[a], cols[b] = cols[b], cols[a]
        col_ops.append((a, b))

    def col_add(a, b, q):
        # col a += q * col b
        ca = cols[a]
        for i in cols[b]:
            row = rows[i]
            nv = row.get(a, 0) + q * row[b]
            if nv:
                row[a] = nv
                ca.add(i)
            else:
                del row[a]
                ca.discard(i)
        col_ops.append((a, b, q))

    def find_pivot(t):
        # rows t.. hold no column < t: finished pivots are alone in theirs
        best = None
        for i in range(t, m):
            if rows[i]:
                v, j = min([(abs(w), j) for j, w in rows[i].items()])
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 1:
                        break
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
        if rows[t][t] < 0:
            row_negate(t)
        piv = rows[t][t]
        dirty = False
        for i in sorted(cols[t]):
            if i != t:
                row_add(i, t, -(rows[i][t] // piv))
                if t in rows[i]:
                    dirty = True
        for j in sorted(rows[t]):
            if j != t:
                col_add(j, t, -(rows[t][j] // piv))
                if j in rows[t]:
                    dirty = True
        if dirty:
            continue
        if piv == 1:
            t += 1
            continue
        bad = next(
            (i for i in range(t + 1, m) if any(v % piv for v in rows[i].values())),
            None,
        )
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return SNFResult(rows, m, n, row_ops, col_ops)


# ---------------------------------------------------------------------------
# sparse integer column reduction


def _axpy(c, other, q):
    # c += q * other, dropping zeros
    for i, v in other.items():
        nv = c.get(i, 0) + q * v
        if nv:
            c[i] = nv
        else:
            c.pop(i, None)


def _combine(a, ca, b, cb):
    out = {}
    for i, v in a.items():
        nv = ca * v
        if nv:
            out[i] = nv
    for i, v in b.items():
        nv = out.get(i, 0) + cb * v
        if nv:
            out[i] = nv
        else:
            out.pop(i, None)
    return out


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _column_echelon(cols):
    """Unimodular column reduction of a column-sparse matrix.

    Returns (work, V, pivot_at): work[j] = sum_i V[j][i] * cols[i], every
    nonzero work column has its own lowest row, and pivot_at maps that row
    to the column.  V is unimodular, so the work columns span the same
    lattice as cols and the V columns of zero work columns span the kernel.
    """
    work = [dict(c) for c in cols]
    V = [{j: 1} for j in range(len(cols))]
    pivot_at = {}
    for j in range(len(cols)):
        c = work[j]
        vj = V[j]
        while c:
            low = max(c)
            p = pivot_at.get(low)
            if p is None:
                pivot_at[low] = j
                break
            d = work[p][low]
            a = c[low]
            if a % d == 0:
                q = a // d
                _axpy(c, work[p], -q)
                _axpy(vj, V[p], -q)
            else:
                g, x, y = _ext_gcd(d, a)
                dp, aj = d // g, a // g
                work[p], work[j] = (
                    _combine(work[p], x, c, y),
                    _combine(work[p], -aj, c, dp),
                )
                V[p], V[j] = (
                    _combine(V[p], x, vj, y),
                    _combine(V[p], -aj, vj, dp),
                )
                c = work[j]
                vj = V[j]
    return work, V, pivot_at


def kernel_of_columns(cols):
    """Integer kernel basis of a column-sparse matrix.

    Returns (kernel, rank) where kernel is a list of sparse coordinate
    vectors over the column index set.  The vectors are the zero columns of
    a unimodular right transform, so they form a basis of the kernel as a
    direct summand.
    """
    work, V, pivot_at = _column_echelon(cols)
    kernel = [V[j] for j, c in enumerate(work) if not c]
    return kernel, len(pivot_at)


class _KernelSolver:
    """Solves K . c = x for sparse x, with full verification.

    K (the kernel columns) has full column rank, so c is unique.  The
    columns are brought to echelon form E = K . W by the column reduction
    of `kernel_of_columns`; x is peeled from its lowest row by exact
    division against E's pivots, and c = W . c'.  Integer arithmetic only,
    and sparse throughout: ``coords`` gives c as a dict of its nonzeros,
    ``solve`` the same c as a dense list.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.z = len(kernel)
        self.echelon, self.transform, self.pivot_at = _column_echelon(kernel)
        if len(self.pivot_at) != self.z:
            raise HomologyInputError("kernel columns are dependent")

    def coords(self, x):
        """Nonzero coordinates of the sparse vector x in the kernel basis."""
        target = {i: v for i, v in x.items() if v}
        rest = dict(target)
        c = {}
        while rest:
            low = max(rest)
            p = self.pivot_at.get(low)
            if p is None:
                raise HomologyInputError("chain is not a cycle")
            q, r = divmod(rest[low], self.echelon[p][low])
            if r:
                raise HomologyInputError("chain is not a cycle")
            _axpy(rest, self.echelon[p], -q)
            for i, v in self.transform[p].items():
                nv = c.get(i, 0) + q * v
                if nv:
                    c[i] = nv
                else:
                    del c[i]
        check = {}
        for j, cj in c.items():
            _axpy(check, self.kernel[j], cj)
        if check != target:
            raise HomologyInputError("chain is not a cycle")
        return c

    def solve(self, x):
        """Coordinates of the sparse vector x in the kernel basis, as a list."""
        c = [0] * self.z
        for j, v in self.coords(x).items():
            c[j] = v
        return c


# ---------------------------------------------------------------------------
# chain complexes


class HomologyGroup:
    """A finitely generated abelian group: free rank plus torsion chain."""

    def __init__(self, free_rank, torsion=()):
        self.free_rank = free_rank
        self.torsion = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise HomologyInputError(f"free rank {free_rank} is negative")
        for d in self.torsion:
            if d <= 1:
                raise HomologyInputError(f"torsion coefficient {d} is not > 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise HomologyInputError(f"torsion {a} does not divide {b}")

    def __eq__(self, other):
        return (
            isinstance(other, HomologyGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return "0" if not parts else " + ".join(parts)

    def to_json(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


class _DegreeData:
    """Cycle/boundary bookkeeping of one degree of a complex.

    The boundary from degree k + 1 is written in kernel coordinates as the
    sparse rows of Y, and ``snf`` is its Smith form D = U' Y V.  Classes are
    read through the sparse rows of U' and the sparse columns of its
    inverse, which ``snf`` builds on the first such read.
    """

    def __init__(self, C, k):
        self.k = k
        if k == 0:
            kernel = [{j: 1} for j in range(C.rank(0))]
            rank_out = 0
        else:
            kernel, rank_out = kernel_of_columns(C.boundary_columns(k))
        self.kernel = kernel
        self.rank_out = rank_out
        self.solver = _KernelSolver(kernel)
        z = len(kernel)
        bcols = C.boundary_columns(k + 1)
        Y = [{} for _ in range(z)]
        for j, col in enumerate(bcols):
            for i, v in self.solver.coords(col).items():
                Y[i][j] = v
        self.snf = smith_normal_form(Y, len(bcols))
        self.ediag = [d for d in self.snf.diagonal if d]
        self.t = len(self.ediag)
        self.group = HomologyGroup(
            z - self.t, [d for d in self.ediag if d > 1]
        )

    def _kernel_chain(self, coords):
        out = {}
        for j, v in coords.items():
            _axpy(out, self.kernel[j], v)
        return out

    def _gen_chains(self, js):
        # column j of U'^-1, written out over the kernel basis
        return [self._kernel_chain(self.snf.U_inv_cols[j]) for j in js]

    @property
    def free_gen_chains(self):
        return self._gen_chains(range(self.t, len(self.kernel)))

    @property
    def torsion_gen_chains(self):
        return self._gen_chains(
            j for j in range(self.t) if self.ediag[j] > 1
        )

    def class_of(self, x):
        """Coordinates of a cycle's homology class: (free tuple, torsion tuple)."""
        try:
            c = self.solver.coords(x)
        except HomologyInputError as exc:
            raise HomologyInputError(f"degree {self.k}: chain is not a cycle: {x}") from exc

        def w(i):
            row = self.snf.U_rows[i]
            return sum(row.get(j, 0) * cj for j, cj in c.items())

        free = tuple(w(i) for i in range(self.t, len(self.kernel)))
        torsion = tuple(
            w(i) % self.ediag[i]
            for i in range(self.t)
            if self.ediag[i] > 1
        )
        return free, torsion


class ChainComplex:
    """Nonnegatively graded free complex with column-sparse boundaries.

    columns[k][j] is the boundary of the j-th degree-k generator as a
    sparse vector over the degree-(k-1) generators.
    """

    def __init__(self, ranks, columns, basis=None, name=None):
        self.ranks = {k: r for k, r in ranks.items()}
        self.columns = columns
        self.basis = basis or {}
        self.name = name
        self._degree_cache = {}
        for k, cols in columns.items():
            if len(cols) != self.rank(k):
                raise HomologyInputError(
                    f"degree {k} has {len(cols)} boundary columns "
                    f"but rank {self.rank(k)}"
                )

    def rank(self, k):
        return self.ranks.get(k, 0)

    def degrees(self):
        return sorted(k for k, r in self.ranks.items() if r)

    @property
    def top_degree(self):
        ks = self.degrees()
        return ks[-1] if ks else -1

    def boundary_columns(self, k):
        if k in self.columns:
            return self.columns[k]
        return [{} for _ in range(self.rank(k))]

    def boundary_matrix(self, k):
        rows = self.rank(k - 1) if k >= 1 else 0
        cols = self.boundary_columns(k)
        out = [[0] * len(cols) for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    def validate(self):
        for k in self.degrees():
            if k < 2:
                continue
            below = self.boundary_columns(k - 1)
            for j, col in enumerate(self.boundary_columns(k)):
                acc = {}
                for i, a in col.items():
                    _axpy(acc, below[i], a)
                if acc:
                    raise HomologyInputError(
                        f"boundary squared is nonzero in degree {k}, generator {j}"
                    )
        return True

    def degree_data(self, k):
        if k not in self._degree_cache:
            self._degree_cache[k] = _DegreeData(self, k)
        return self._degree_cache[k]

    def __repr__(self):
        ranks = ",".join(f"{k}:{r}" for k, r in sorted(self.ranks.items()) if r)
        return f"<complex {self.name or ''} [{ranks}]>"


def normalized_chains(X):
    """Reduced normalized chains: one generator per nondegenerate non-base cell.

    The boundary is the alternating face sum; faces that are degenerate or
    land on the basepoint contribute nothing.  The signs (-1)^i are made
    once per dimension and zipped with each face table.  A column lists its
    rows in the order of the faces that first reach them, and faces that
    cancel leave no entry.
    """
    cached = getattr(X, "_normalized_chains", None)
    if cached is not None:
        return cached
    bp = X.basepoint
    basis = {}
    index = {}
    for k, ids in X.cells.items():
        gens = [c for c in ids if c != bp]
        if gens:
            basis[k] = gens
            index[k] = {c: i for i, c in enumerate(gens)}
    ranks = {k: len(v) for k, v in basis.items()}
    columns = {}
    for k, gens in basis.items():
        if k == 0:
            columns[k] = [{} for _ in gens]
            continue
        signs = [(-1) ** i for i in range(k + 1)]
        below = index.get(k - 1, {})
        cols = []
        for c in gens:
            col = {}
            for sign, (word, t) in zip(signs, X.faces[c]):
                if word or t == bp:
                    continue
                row = below[t]
                col[row] = col.get(row, 0) + sign
            if 0 in col.values():
                col = {i: v for i, v in col.items() if v}
            cols.append(col)
        columns[k] = cols
    C = ChainComplex(ranks, columns, basis=basis, name=X.name)
    C.index = index
    X._normalized_chains = C
    return C


def homology(C, k):
    """H_k of the complex as an explicit abelian group."""
    return C.degree_data(k).group


# ---------------------------------------------------------------------------
# induced maps


def chain_push(f, k, x, C_src=None, C_tgt=None):
    """Push a degree-k chain through a simplicial map (degenerate hits die)."""
    C_src = C_src or normalized_chains(f.source)
    C_tgt = C_tgt or normalized_chains(f.target)
    out = {}
    src_basis = C_src.basis.get(k, [])
    tgt_index = C_tgt.index.get(k, {})
    for i, v in x.items():
        word, t = f.assign[src_basis[i]]
        if word or t == f.target.basepoint:
            continue
        row = tgt_index[t]
        nv = out.get(row, 0) + v
        if nv:
            out[row] = nv
        else:
            out.pop(row, None)
    return out


def _unimodular(M):
    if len(M) != (len(M[0]) if M else 0):
        return len(M) == 0 and (not M or not M[0])
    if not M:
        return True
    snf = smith_normal_form(M)
    return all(d == 1 for d in snf.diagonal)


def _torsion_iso(src_torsion, tgt_torsion, residues):
    import math

    if math.prod(src_torsion) != math.prod(tgt_torsion):
        return False
    if not tgt_torsion:
        return True
    s, t = len(src_torsion), len(tgt_torsion)
    M = [[0] * (s + t) for _ in range(t)]
    for j in range(s):
        for i in range(t):
            M[i][j] = residues[i][j]
    for i in range(t):
        M[i][s + i] = tgt_torsion[i]
    snf = smith_normal_form(M)
    return all(d == 1 for d in snf.diagonal[:t])


class InducedMap:
    """A simplicial map pushed to degree-k homology.

    matrix: free-part matrix, one column per source free generator.
    torsion_matrix: residues of the torsion generators' images.
    """

    def __init__(self, f, k):
        self.f = f
        self.k = k
        C = normalized_chains(f.source)
        D = normalized_chains(f.target)
        self.source_complex = C
        self.target_complex = D
        src, tgt = C.degree_data(k), D.degree_data(k)
        self.source_group = src.group
        self.target_group = tgt.group
        self.matrix, self.torsion_matrix = _pushed_classes(
            src, tgt, lambda g: chain_push(f, k, g, C, D)
        )

    def is_isomorphism(self):
        return _map_is_iso(
            self.source_group, self.target_group,
            self.matrix, self.torsion_matrix,
        )

    def to_json(self):
        return {
            "k": self.k,
            "source": self.source_group.to_json(),
            "target": self.target_group.to_json(),
            "matrix": [list(r) for r in self.matrix],
            "torsion_matrix": [list(r) for r in self.torsion_matrix],
        }


def induced_map(f, k):
    return InducedMap(f, k)


# ---------------------------------------------------------------------------
# suspension


class SuspensionChainMap:
    """The degree +1 chain map X -> S^1 ^ X by shuffling in the circle edge.

    On a k-simplex x the value is sum_i (-1)^i (s_{complement} e) ^ (s_i x),
    the circle chain kept in the left slot.  Satisfies d E = -E d and
    induces isomorphisms on reduced homology.
    """

    def __init__(self, X, sm=None):
        if sm is None:
            sm = sset.smash(sset.circle(), X)
        if sm.B is not X:
            raise HomologyInputError("the smash's right factor is not X")
        circle = sm.A
        one_cells = [c for c in circle.cells.get(1, ()) if c != circle.basepoint]
        if len(one_cells) != 1 or circle.n_cells(0) != 1:
            raise HomologyInputError("the smash's left factor is not S^1")
        self.edge = one_cells[0]
        self.smash = sm
        self.space = X
        self.source = normalized_chains(X)
        self.target = normalized_chains(sm.space)

    def cell_image(self, c):
        """The image chain of one nondegenerate non-base cell."""
        k = self.space.dim_of[c]
        out = {}
        for i in range(k + 1):
            wa = tuple(j for j in range(k, -1, -1) if j != i)
            form = self.smash.form_of_pair((wa, self.edge), ((i,), c))
            if form[0] or form[1] == self.smash.space.basepoint:
                raise HomologyInputError(
                    f"shuffle {i} of cell {c} is degenerate or at the base"
                )
            row = self.target.index[k + 1][form[1]]
            sign = -1 if i % 2 else 1
            nv = out.get(row, 0) + sign
            if nv:
                out[row] = nv
            else:
                out.pop(row, None)
        return out

    def apply_chain(self, k, x):
        out = {}
        basis = self.source.basis.get(k, [])
        for i, v in x.items():
            _axpy(out, self.cell_image(basis[i]), v)
        return out

    def validate(self):
        """d E = -E d on every generator, E injective on generators."""
        for k in self.source.degrees():
            for j in range(self.source.rank(k)):
                img = self.apply_chain(k, {j: 1})
                lhs = {}
                tcols = self.target.boundary_columns(k + 1)
                for i, v in img.items():
                    _axpy(lhs, tcols[i], v)
                rhs = self.apply_chain(
                    k - 1, self.source.boundary_columns(k)[j]
                ) if k >= 1 else {}
                neg = {i: -v for i, v in rhs.items()}
                if lhs != neg:
                    raise HomologyInputError(
                        f"not a chain map at degree {k} on generator {j}"
                    )
        return True

    def induces_isomorphism(self, k):
        src, tgt = self.source.degree_data(k), self.target.degree_data(k + 1)
        matrix, residues = _pushed_classes(src, tgt, lambda g: self.apply_chain(k, g))
        return _map_is_iso(src.group, tgt.group, matrix, residues)


def suspension_chain_map(X, sm=None):
    return SuspensionChainMap(X, sm)


def hz_level_complex(n):
    """Chains on S^n: the Moore complex of the free simplicial group Z(S^n)."""
    return normalized_chains(sset.sphere(n))


# ---------------------------------------------------------------------------
# stable colimits


class HurewiczGateError(ValueError):
    pass


def hurewicz_gate(space, d):
    """No nondegenerate non-base cells in dimensions 1..d-1."""
    for k in range(1, d):
        if any(c != space.basepoint for c in space.cells.get(k, ())):
            return False
    return True


def _stable_levels(k, bound, spaces, require_homotopy):
    """The levels n of a weight-k report and its interpretation.

    n runs from max(0, -k) to bound; the reading is "homotopy" when every
    space in spaces(n) clears the Hurewicz gate in degree k + n.
    """
    ns = list(range(max(0, -k), bound + 1))
    gate_ok = all(hurewicz_gate(X, k + n) for n in ns for X in spaces(n))
    if require_homotopy and not gate_ok:
        raise HurewiczGateError(
            "a level has cells below the stable range; homology-only"
        )
    return ns, "homotopy" if gate_ok else "homology-only"


def _suspension_push(X, n, k):
    """The chain map C_{k+n}(X_n) -> C_{k+n+1}(X_{n+1}): the suspension
    into S^1 ^ X_n, then sigma.  The suspension is built on the first
    push, so a level with nothing to push never builds it."""
    E = None

    def push(chain):
        nonlocal E
        if E is None:
            E = SuspensionChainMap(X.space(n), X.structure_smash(n))
        return chain_push(X.sigma(n), k + n + 1, E.apply_chain(k + n, chain), E.target)

    return push


def _pushed_classes(src, tgt, push):
    """Free matrix and torsion residues of src's generators pushed into tgt."""
    cols = [tgt.class_of(push(g))[0] for g in src.free_gen_chains]
    tors = []
    for j, g in enumerate(src.torsion_gen_chains):
        free, residues = tgt.class_of(push(g))
        if any(free):
            raise HomologyInputError(
                f"H_{src.k} torsion generator {j} mapped to free part"
            )
        tors.append(residues)
    matrix = [[c[i] for c in cols] for i in range(tgt.group.free_rank)]
    residues = [[t[i] for t in tors] for i in range(len(tgt.group.torsion))]
    return matrix, residues


def _map_is_iso(src_group, tgt_group, matrix, residues):
    return (
        src_group.free_rank == tgt_group.free_rank
        and _unimodular(matrix)
        and _torsion_iso(src_group.torsion, tgt_group.torsion, residues)
    )


class StableColimitReport:
    def __init__(self, k, entries, maps, stabilized, stable_from,
                 stable_group, interpretation):
        self.k = k
        self.entries = entries          # list of (n, HomologyGroup)
        self.maps = maps                # list of (matrix, residues, iso flag)
        self.stabilized = stabilized
        self.stable_from = stable_from
        self.stable_group = stable_group
        self.interpretation = interpretation

    def to_json(self):
        return {
            "k": self.k,
            "levels": [
                {"n": n, "rank": g.free_rank, "torsion": list(g.torsion)}
                for n, g in self.entries
            ],
            "maps": [[list(r) for r in m] for m, _, _ in self.maps],
            "stabilized": self.stabilized,
            "interpretation": self.interpretation,
        }


def stable_colimit(X, k, require_homotopy=False):
    """Homology stand-in for the colimit of homotopy groups at weight k.

    Per level the group H_{k+n}(X_n); transitions suspend by the circle and
    push through the structure map.  The homotopy reading is only claimed
    when every level clears the Hurewicz gate.
    """
    ns, interpretation = _stable_levels(
        k, X.bound, lambda n: [X.space(n)], require_homotopy
    )
    data = [normalized_chains(X.space(n)).degree_data(k + n) for n in ns]
    entries = [(n, d.group) for n, d in zip(ns, data)]
    maps = []
    for n, d_n, d_n1 in zip(ns, data, data[1:]):
        matrix, residues = _pushed_classes(d_n, d_n1, _suspension_push(X, n, k))
        iso = _map_is_iso(d_n.group, d_n1.group, matrix, residues)
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
    return StableColimitReport(
        k, entries, maps, stabilized, stable_from, stable_group,
        interpretation,
    )


class StableMapReport:
    def __init__(self, k, levels, matrices, verdict, interpretation,
                 ladder_commutes):
        self.k = k
        self.levels = levels            # list of (n, src group, tgt group)
        self.matrices = matrices        # list of InducedMap
        self.verdict = verdict
        self.interpretation = interpretation
        self.ladder_commutes = ladder_commutes

    def to_json(self):
        return {
            "k": self.k,
            "levels": [
                {
                    "n": n,
                    "source": s.to_json(),
                    "target": t.to_json(),
                }
                for n, s, t in self.levels
            ],
            "maps": [[list(r) for r in im.matrix] for im in self.matrices],
            "verdict": self.verdict,
            "interpretation": self.interpretation,
        }


def stable_map_report(f, k, require_homotopy=False):
    """Per-level homology matrices of a spectrum map, with an iso verdict.

    The verdict covers the computed range only; "iso-at-all-computed-levels"
    never claims a stable equivalence by itself.
    """
    X, Y = f.source, f.target
    ns, interpretation = _stable_levels(
        k, X.bound, lambda n: [X.space(n), Y.space(n)], require_homotopy
    )
    matrices = [InducedMap(f.level(n), k + n) for n in ns]
    levels = [(n, im.source_group, im.target_group) for n, im in zip(ns, matrices)]
    verdict = (
        "iso-at-all-computed-levels"
        if all(im.is_isomorphism() for im in matrices)
        else "not"
    )
    ladder = True
    for n, im, im1 in zip(ns, matrices, matrices[1:]):
        push_x, push_y = _suspension_push(X, n, k), _suspension_push(Y, n, k)
        sy1 = im1.target_complex.degree_data(k + n + 1)
        for g in im.source_complex.degree_data(k + n).free_gen_chains:
            # around the top of the square, then around the bottom
            top = chain_push(im1.f, k + n + 1, push_x(g),
                             im1.source_complex, im1.target_complex)
            bot = push_y(chain_push(im.f, k + n, g,
                                    im.source_complex, im.target_complex))
            if sy1.class_of(top) != sy1.class_of(bot):
                ladder = False
    return StableMapReport(
        k, levels, matrices, verdict, interpretation, ladder,
    )
