"""Exact linear algebra over Q and Q[var].

Vectors are dicts mapping basis keys to nonzero ``Scalar`` values; a
``Matrix`` is a sparse dict keyed by (row, col), and it is the one map type:
complexes, mixed-complex operators and chain maps all store one.

- One elimination, ``_forward``, serves Q and Q[var].  It is
  fraction-free, as Bareiss (1968) is over Z: rows are cleared of
  denominators, and a pivot is cleared from the unused rows by integer
  row operations that keep each row free of a common factor.  ``rref``
  adds a back-substitution and divides each pivot row by its pivot at
  the end, which gives the unique reduced row echelon form;
  ``solve_and_rank`` also gives the kernel and image of a matrix,
  and ``quotient_reps`` representatives of one span modulo another;
- Over Q[var], ``smith`` does the elimination on a homogeneous matrix:
  U M V diagonal, with U, V and V^-1 tracked and kept as sparse rows and
  columns.  ``presentation`` reads H = ker D / im D of a differential D
  off one Smith form: the columns of V past the rank are a free basis of
  ker D, and the coordinates of a kernel vector v in that basis are the
  entries of V^-1 v past the rank (the entries before it vanish exactly
  when v is in the kernel).  ``smith_factors`` runs the same elimination
  with no transforms, for callers that need only the rank and the
  invariant factors.
- ``FiniteComplex.cohomology`` reads the classes of H, over Q and over
  Q[var] alike, off the pivots of that elimination with no transforms:
  each pivot pairs a basis element that is not a cocycle with one that
  spans a torsion class (none when the factor is a unit), as in the
  persistence algorithm (Zomorodian and Carlsson, 2005), and the basis
  elements no pivot takes give the free classes; ``brst`` reads its
  classes the same way.

Two things keep the Smith forms small and cheap:

- ``_components`` walks the support of a matrix once, and cohomology
  and ``smith_factors`` eliminate one connected component at a time (a
  Cartan model falls apart by the multidegree of its forms, and no
  component of a differential joins d_g to d_(g+1));
- a matrix whose entries are monomials c*u^(cw[j] - rw[i]) for some row
  and column weights (every homogeneous differential is one) is reduced
  by ``_forward`` on its coefficients, columns in increasing cw, as in
  the persistence algorithm for graded Q[t]-modules; kernel bases come
  out homogeneous, and so are the coordinate matrices built from them.
  ``smith`` refuses any other matrix; ``smith_factors`` gives its
  invariant factors by the general polynomial elimination.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from .scalars import Scalar, ZERO, ONE, sc, quo, format_scalar


# -- vectors -----------------------------------------------------------


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, ZERO) + v
        if w.is_zero():
            out.pop(k, None)
        else:
            out[k] = w
    return out


def vec_scale(a: dict, s) -> dict:
    s = sc(s)
    if s.is_zero():
        return {}
    return {k: v * s for k, v in a.items()}


def vec_sub(a: dict, b: dict) -> dict:
    return vec_add(a, vec_scale(b, -1))


class BasisToken:
    """Opaque basis label carrying its degree."""

    __slots__ = ("name", "degree")

    def __init__(self, name, degree=0):
        self.name = name
        self.degree = degree

    def _key(self):
        return (self.name, self.degree)

    def __eq__(self, other):
        return isinstance(other, BasisToken) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        return self._key() < other._key()

    def __repr__(self):
        return "<%s deg=%s>" % (self.name, self.degree)


# -- sparse matrices ---------------------------------------------------


class Matrix:
    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        if entries:
            for (i, j), v in entries.items():
                v = sc(v)
                if not v.is_zero():
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise IndexError("entry (%d, %d) out of shape" % (i, j))
                    self.data[(i, j)] = v

    def get(self, i, j) -> Scalar:
        return self.data.get((i, j), ZERO)

    def is_zero(self) -> bool:
        return not self.data

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows,
                      {(j, i): v for (i, j), v in self.data.items()})

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = {}
        by_row = {}
        for (i, j), v in other.data.items():
            by_row.setdefault(i, []).append((j, v))
        for (i, k), v in self.data.items():
            for j, w in by_row.get(k, ()):
                cur = out.get((i, j), ZERO) + v * w
                out[(i, j)] = cur
        return Matrix(self.nrows, other.ncols, out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(self.nrows, self.ncols, vec_add(self.data, other.data))

    def scale(self, s) -> "Matrix":
        return Matrix(self.nrows, self.ncols, vec_scale(self.data, s))

    def apply(self, vec: dict) -> dict:
        """Matrix times a column vector keyed by column index."""
        out = {}
        for (i, j), v in self.data.items():
            x = vec.get(j)
            if x is not None:
                out[i] = out.get(i, ZERO) + v * x
        return {i: v for i, v in out.items() if not v.is_zero()}

    def column(self, j) -> dict:
        return {i: v for (i, jj), v in self.data.items() if jj == j}

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (self.nrows, self.ncols,
                                              len(self.data))

    @staticmethod
    def identity(n) -> "Matrix":
        return Matrix(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def of_columns(nrows, ncols, cols) -> "Matrix":
        """``cols`` as a matrix: a column dict {j: {i: entry}}, read in
        its own order, or a Matrix of this shape, returned unchanged."""
        if isinstance(cols, Matrix):
            if (cols.nrows, cols.ncols) != (nrows, ncols):
                raise ValueError("shape mismatch: %dx%d matrix where %dx%d "
                                 "is expected" % (cols.nrows, cols.ncols,
                                                  nrows, ncols))
            return cols
        return Matrix(nrows, ncols, {(i, j): v for j, col in cols.items()
                                     for i, v in col.items()})

    @staticmethod
    def from_columns(nrows, cols) -> "Matrix":
        return Matrix.of_columns(nrows, len(cols), dict(enumerate(cols)))


# -- Gaussian elimination over Q ---------------------------------------


def _to_frac_rows(M: Matrix):
    rows = [dict() for _ in range(M.nrows)]
    for (i, j), v in M.data.items():
        if not v.is_const():
            raise ValueError("rational elimination on polynomial entries; "
                             "use smith() instead")
        rows[i][j] = v.const_value()
    return rows


def _primitive(row: dict) -> dict:
    """A row of rationals, zeros dropped, scaled to integers with no
    common factor."""
    row = {k: v for k, v in row.items() if v}
    dens = [v.denominator for v in row.values() if type(v) is not int]
    if dens:
        m = lcm(*dens)
        row = {k: int(v * m) for k, v in row.items()}
    return _divide_content(row)


def _divide_content(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _reduce(row: dict, piv: dict, j) -> dict:
    """The integer row a*row - b*piv, with a > 0 chosen so that its
    entry at the pivot column j of piv vanishes, divided by its content
    when a > 1."""
    p, c = piv[j], row[j]
    g = gcd(p, c)
    a, b = p // g, c // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        w = row.get(k, 0) - b * v
        if w:
            row[k] = w
        else:
            del row[k]
    return _divide_content(row) if a != 1 and row else row


def _forward(rows, order, rw=None):
    """Fraction-free forward elimination of integer dict rows in place.

    For each column j of ``order`` the pivot is the unused row with an
    entry at j of largest ``rw`` (when given), then fewest entries, then
    least |entry|; the other unused rows are cleared at j by ``_reduce``,
    and a row once taken is never touched again.  Returns the pivots
    [(row, column)] in the order taken: each pivot row vanishes at every
    column taken before its own."""
    live = [i for i, row in enumerate(rows) if row]
    pivots = []
    for j in order:
        pr, best = None, None
        for i in live:
            v = rows[i].get(j)
            if v is not None:
                key = (-rw[i] if rw else 0, len(rows[i]), abs(v))
                if best is None or key < best:
                    pr, best = i, key
        if pr is None:
            continue
        piv = rows[pr]
        rest = []
        for i in live:
            if i != pr:
                if j in rows[i]:
                    rows[i] = _reduce(rows[i], piv, j)
                if rows[i]:
                    rest.append(i)
        live = rest
        pivots.append((pr, j))
    return pivots


def rref(rows, ncols):
    """Row-reduce dict rows of rationals in place to the reduced row
    echelon form; returns (rank, pivot column list).

    ``_forward`` over the columns in order, then each pivot column
    cleared from the pivot rows above it, all on integers; each pivot
    row is divided by its pivot only at the end.  The reduced form is
    unique, so it is the one Gauss-Jordan elimination over Q gives."""
    ints = list(map(_primitive, rows))
    pivots = _forward(ints, range(ncols))
    piv_rows = [ints[p] for p, _ in pivots]
    for t, (_, j) in enumerate(pivots):
        for s in range(t):
            if j in piv_rows[s]:
                piv_rows[s] = _reduce(piv_rows[s], piv_rows[t], j)
    for r, (row, (_, j)) in enumerate(zip(piv_rows, pivots)):
        rows[r] = {k: quo(v, row[j]) for k, v in row.items()}
    rows[len(pivots):] = [{} for _ in range(len(rows) - len(pivots))]
    return len(pivots), [j for _, j in pivots]


def solve_and_rank(M: Matrix):
    """Rank, kernel basis, and image basis of a matrix over Q.

    Kernel vectors are keyed by column index, image vectors by row index;
    the image basis consists of the columns of M at the pivot columns.
    """
    rows = _to_frac_rows(M)
    rank, pivots = rref(rows, M.ncols)
    pivset = set(pivots)
    kernel = []
    for j in range(M.ncols):
        if j in pivset:
            continue
        vec = {j: ONE}
        for r, pj in enumerate(pivots):
            c = rows[r].get(j)
            if c:
                vec[pj] = Scalar.const(-c)
        kernel.append(vec)
    cols = {}
    for (i, j), v in M.data.items():
        cols.setdefault(j, {})[i] = v
    image = [cols[j] for j in pivots]
    return rank, kernel, image


def q_solve(M: Matrix, b: dict):
    """One solution of M x = b over Q, or None."""
    rows = _to_frac_rows(M)
    aug = M.ncols
    for i in range(M.nrows):
        v = b.get(i)
        if v is not None and not sc(v).is_zero():
            rows[i][aug] = sc(v).const_value()
    rank, pivots = rref(rows, M.ncols + 1)
    if aug in pivots:
        return None
    x = {}
    for r, pj in enumerate(pivots):
        c = rows[r].get(aug)
        if c:
            x[pj] = Scalar.const(c)
    return x


def span_rank(vectors) -> int:
    """Rank of a list of dict vectors over Q."""
    keys = sorted({k for v in vectors for k in v.keys()})
    idx = {k: i for i, k in enumerate(keys)}
    rows = [_primitive({idx[k]: sc(c).const_value() for k, c in v.items()})
            for v in vectors]
    return len(_forward(rows, range(len(keys))))


def quotient_reps(kernel_vecs, image_vecs):
    """Representatives of span(kernel)/span(image), reduced mod the image.

    Both inputs are lists of dict vectors over Q with comparable keys.
    Each kernel vector is reduced against the image and against the
    representatives kept before it, until it vanishes at all their
    pivots; it is kept, scaled to 1 at its least key, when it does not
    vanish.  The reductions run on integer rows, as in ``rref``.
    """
    keys = sorted({k for v in list(kernel_vecs) + list(image_vecs)
                   for k in v.keys()})
    idx = {k: i for i, k in enumerate(keys)}

    def encode(v):
        return {idx[k]: sc(c).const_value() for k, c in v.items()
                if not sc(c).is_zero()}

    img_rows = [encode(v) for v in image_vecs]
    _, piv_img = rref(img_rows, len(keys))
    reducers = [(_primitive(row), pj) for row, pj in zip(img_rows, piv_img)]
    reps = []
    for v in kernel_vecs:
        row = _primitive(encode(v))
        for piv, pj in reducers:
            if pj in row:
                row = _reduce(row, piv, pj)
        if not row:
            continue
        pj = min(row)
        reducers.append((row, pj))
        p = row[pj]
        reps.append({keys[k]: Scalar.const(quo(c, p))
                     for k, c in row.items()})
    return reps


# -- Smith normal form over Q[var] -------------------------------------


class SmithResult:
    """U M V = diag(factors) with U, V invertible over Q[var], stored
    sparse: ``U`` and ``Vinv`` list the rows of U and V^-1, and ``V``
    the columns of V, each a dict {index: nonzero entry} in index
    order.  The first ``rank`` of each belong to the pivots."""

    __slots__ = ("U", "V", "Vinv", "factors", "rank", "nrows", "ncols")

    def __init__(self, U, V, Vinv, factors):
        self.U, self.V, self.Vinv = U, V, Vinv
        self.factors = factors
        self.rank = len(factors)
        self.nrows, self.ncols = len(U), len(V)

    def kernel_basis(self):
        """Columns of V beyond the rank: a free basis of ker M."""
        return self.V[self.rank:]

    def kernel_coordinates(self, v: dict):
        """Coordinates of v in ``kernel_basis()``: the entries of V^-1 v
        past the rank.  None when v is not in the kernel, which is when
        one of the entries before the rank is nonzero."""
        out = {}
        for t, row in enumerate(self.Vinv):
            acc = _dot(row, v)
            if acc.is_zero():
                continue
            if t < self.rank:
                return None
            out[t - self.rank] = acc
        return out


def _dot(row: dict, v: dict) -> Scalar:
    acc = ZERO
    for k, c in v.items():
        x = row.get(k)
        if x is not None:
            acc = acc + x * c
    return acc


def smith(M: Matrix) -> SmithResult:
    """U M V = diag(factors) with U, V invertible over Q[var] and monic
    invariant factors in a divisibility chain, for a homogeneous M:
    one whose entries are monomials c*var^(cw[j] - rw[i]), as every
    differential of a graded complex over Q[var] is.  ``smith_factors``
    gives the rank and the factors of any other M."""
    grading = _grading(M)
    if grading is None:
        raise ValueError("smith needs a homogeneous matrix; use "
                         "smith_factors for the invariant factors of "
                         "any other")
    return _smith_graded(M, *grading)


def smith_factors(M: Matrix):
    """(rank, monic invariant factors) of any M over Q[var], one
    component of its support at a time: by the graded elimination with
    no transforms on a homogeneous one, by ``_smith_general`` on any
    other.  Ranks add, and monomial factors merge by degree; when a
    component took the general route, one ``_smith_general`` of the
    diagonal of all nonunit factors merges them (torsion u and u + 1 of
    two components is the one factor u^2 + u of their sum)."""
    rank, tors, general = 0, [], False
    for _, _, B, grading in _components(M):
        if grading is None:
            r, factors = _smith_general(B)
            general = True
        else:
            pivots = _smith_graded(B, *grading, transforms=False)
            r, var = len(pivots), grading[2]
            factors = [Scalar.monomial(1, e, var) for _, _, e in pivots]
        rank += r
        tors += [f for f in factors if f.degree() > 0]
    if general and len(tors) > 1:
        n = len(tors)
        tors = _smith_general(Matrix(n, n, {(k, k): f
                                            for k, f in enumerate(tors)}))[1]
    return rank, [ONE] * (rank - len(tors)) + sorted(tors, key=Scalar.degree)


def _components(M: Matrix):
    """The connected components of the support of M, where entry (i, j)
    joins row i to column j, in order of their first row, as (rows,
    cols, block, grading): rows and cols ascending, block the submatrix
    on them, and grading (rw, cw, var), 0 on the first row, such that
    each entry (a, b) of block is a monomial c*var^(cw[b] - rw[a]), or
    None when there are no such weights.  A row or column with no entry
    is in no component.  M has one variable, the first that its entries
    show: a component with an entry in another is not graded."""
    var, by_row, by_col, bad = None, {}, {}, set()
    for (i, j), v in M.data.items():
        cs = v.coeffs
        var = var or v.var
        if any(cs[:-1]) or v.var not in (None, var):
            bad.add(i)
        by_row.setdefault(i, []).append((j, len(cs) - 1))
        by_col.setdefault(j, []).append((i, len(cs) - 1))
    rw, cw, out = {}, {}, []
    for first in sorted(by_row):
        if first in rw:
            continue
        rw[first] = 0
        rows, cols, todo, graded = [first], [], [first], True
        while todo:
            i = todo.pop()
            graded = graded and i not in bad
            for j, e in by_row[i]:
                w = rw[i] + e
                if j in cw:
                    graded = graded and cw[j] == w
                    continue
                cw[j] = w
                cols.append(j)
                for k, f in by_col[j]:
                    if k not in rw:
                        rw[k] = w - f
                        rows.append(k)
                        todo.append(k)
        rows.sort()
        cols.sort()
        block = M
        if len(rows) < M.nrows or len(cols) < M.ncols:
            rpos = {i: a for a, i in enumerate(rows)}
            cpos = {j: b for b, j in enumerate(cols)}
            block = Matrix(len(rows), len(cols), {
                (rpos[i], cpos[j]): M.data[(i, j)]
                for i in rows for j, _ in by_row[i]})
        out.append((rows, cols, block, ([rw[i] for i in rows],
                                        [cw[j] for j in cols], var)
                    if graded else None))
    return out


def _grading(M: Matrix):
    """(rw, cw, var) such that every entry (i, j) of M is a monomial
    c*var^(cw[j] - rw[i]), or None when there are no such weights: those
    of the components of M, and 0 on rows and columns with no entry."""
    rw, cw, var = [0] * M.nrows, [0] * M.ncols, None
    for rows, cols, _, grading in _components(M):
        if grading is None:
            return None
        brw, bcw, var = grading
        for i, w in zip(rows, brw):
            rw[i] = w
        for j, w in zip(cols, bcw):
            cw[j] = w
    return rw, cw, var


def _axpy(x: dict, y: dict, a):
    """x += a * y in place, for a nonzero rational a."""
    for k, v in y.items():
        w = x.get(k, 0) + a * v
        if w:
            x[k] = w
        else:
            del x[k]


def _smith_graded(M: Matrix, rw, cw, var, transforms=True):
    """Smith form of M = diag(var^-rw) C diag(var^cw), C over Q.

    Row i may take a multiple of row k when rw[k] >= rw[i], and column j
    of column l when cw[j] >= cw[l]: these are the operations that stay
    polynomial.  ``_forward`` takes the columns of C in increasing cw,
    and in each the row of largest rw, so its row operations are such;
    U_C rides along as columns m + i of the same rows.  A pivot row
    (p, q) vanishes at every column taken before q, so the column
    operations that clear it, applied in the order taken, add column q
    to columns of cw >= cw[q] and change no other row: they give V_C and
    V_C^-1.  Both are lifted by conjugation, U = diag(var^-rw) U_C
    diag(var^rw) and V = diag(var^-cw) V_C diag(var^cw).  The pivots
    [(p, q, e)], each pairing row p with column q by the factor var^e,
    e = cw[q] - rw[p], are sorted by e, so the factors form a
    divisibility chain; without ``transforms`` only they are returned."""
    n, m = M.nrows, M.ncols
    A = [dict() for _ in range(n)]
    for (i, j), v in M.data.items():
        A[i][j] = v.coeffs[-1]
    if transforms:
        for i in range(n):
            A[i][m + i] = 1
    A = list(map(_primitive, A))
    taken = _forward(A, sorted(range(m), key=cw.__getitem__), rw)
    pivots = sorted(((p, q, cw[q] - rw[p]) for p, q in taken),
                    key=lambda t: t[2])
    if not transforms:
        return pivots
    U = [{k - m: x for k, x in row.items() if k >= m} for row in A]
    V = [{j: 1} for j in range(m)]       # columns of V_C
    Vinv = [{j: 1} for j in range(m)]    # rows of V_C^-1
    for p, q in taken:
        row, c = A[p], A[p][q]
        U[p] = {k: quo(x, c) for k, x in U[p].items()}
        for j, g in row.items():
            if j != q and j < m:
                g = quo(g, c)
                _axpy(V[j], V[q], -g)
                _axpy(Vinv[q], Vinv[j], g)
    mono = Scalar.monomial
    prow = [p for p, _, _ in pivots]
    pcol = [q for _, q, _ in pivots]
    rows = prow + sorted(set(range(n)) - set(prow))
    cols = pcol + sorted(set(range(m)) - set(pcol))

    def lift(vecs, order, w, sign):
        # entry k of vecs[p] times var^(sign * (w[k] - w[p]))
        return [{k: mono(vecs[p][k], sign * (w[k] - w[p]), var)
                 for k in sorted(vecs[p])} for p in order]

    return SmithResult(lift(U, rows, rw, 1), lift(V, cols, cw, -1),
                       lift(Vinv, cols, cw, 1),
                       [mono(1, e, var) for _, _, e in pivots])


def _smith_general(M: Matrix):
    """(rank, monic invariant factors) of M by polynomial elimination:
    the least-degree pivot reduces its row and column by ``divmod``, a
    nonzero remainder becomes the new pivot, and a pivot that does not
    divide the rest of the matrix takes a row that it fails to divide.
    The operations act on M alone; no transform is tracked."""
    n, m = M.nrows, M.ncols
    A = [[ZERO] * m for _ in range(n)]
    for (i, j), v in M.data.items():
        A[i][j] = v

    def col_swap(j, k):
        for r in range(n):
            A[r][j], A[r][k] = A[r][k], A[r][j]

    def row_add(i, k, q):
        # row i += q * row k
        if not q.is_zero():
            A[i] = [a + q * b if b else a for a, b in zip(A[i], A[k])]

    def col_add(j, k, q):
        # col j += q * col k
        if not q.is_zero():
            for r in range(n):
                if A[r][k]:
                    A[r][j] = A[r][j] + q * A[r][k]

    t = 0
    while True:
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if not A[i][j].is_zero():
                    d = A[i][j].degree()
                    if best is None or d < best[0]:
                        best = (d, i, j)
        if best is None:
            break
        _, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        if bj != t:
            col_swap(t, bj)

        while True:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t].is_zero():
                    continue
                q, r = A[i][t].divmod(A[t][t])
                row_add(i, t, -q)
                if not r.is_zero():
                    # remainder has smaller degree: promote it to the pivot
                    A[t], A[i] = A[i], A[t]
                    dirty = True
            for j in range(t + 1, m):
                if A[t][j].is_zero():
                    continue
                q, r = A[t][j].divmod(A[t][t])
                col_add(j, t, -q)
                if not r.is_zero():
                    col_swap(t, j)
                    dirty = True
            if not dirty:
                break

        # pivot must divide the remaining submatrix for the chain
        # property; a unit pivot divides everything
        fixed = True
        rest = range(t + 1, n) if A[t][t].degree() > 0 else ()
        for i in rest:
            for j in range(t + 1, m):
                if A[i][j].is_zero():
                    continue
                _, r = A[i][j].divmod(A[t][t])
                if not r.is_zero():
                    row_add(t, i, ONE)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue

        A[t][t] = A[t][t].monic()
        t += 1
        if t == n or t == m:
            break

    return t, [A[i][i] for i in range(t)]


def presentation(D: Matrix):
    """H = ker D / im D over Q[var] for a homogeneous square-zero D, as
    (S, X): S is the Smith form of D, whose ``kernel_basis()`` is a free
    basis of ker D, and X holds in column j the coordinates of D V e_j
    (j below the rank) in that basis, so that H = Q[var]^r / im X."""
    S = smith(D)
    cols = []
    for vj in S.V[:S.rank]:
        x = S.kernel_coordinates(D.apply(vj))
        if x is None:
            raise AssertionError("image vector outside the kernel")
        cols.append(x)
    return S, Matrix.from_columns(S.ncols - S.rank, cols)


def smith_solve(S: SmithResult, b: dict):
    """Solve M x = b over the polynomial ring, for the M whose Smith
    form is S: x = V y where y_t = (U b)_t / factors[t] below the rank.
    Returns x as a column dict, or None when no polynomial solution
    exists, which is when some (U b)_t past the rank is nonzero or some
    division is inexact."""
    x = {}
    for t, row in enumerate(S.U):
        acc = _dot(row, b)
        if acc.is_zero():
            continue
        if t >= S.rank:
            return None
        try:
            y = acc.div_exact(S.factors[t])
        except ValueError:
            return None
        x = vec_add(x, vec_scale(S.V[t], y))
    return x


# -- finite complexes --------------------------------------------------


class CohomologyClass:
    __slots__ = ("degree", "annihilator")

    def __init__(self, degree, annihilator):
        self.degree = degree
        self.annihilator = annihilator  # None for a free class

    def __repr__(self):
        ann = ("free" if self.annihilator is None
               else format_scalar(self.annihilator))
        return "<H deg=%s %s>" % (self.degree, ann)


class FiniteComplex:
    """Finitely generated graded free module with a square-zero
    endomorphism of degree +1.

    ``tokens`` is an ordered list of BasisTokens; ``diff`` is the
    differential as a Matrix, or as a column dict mapping token index to
    the differential of that basis vector.  Over Q every entry is a
    constant from degree k to degree k + 1; over Q[var] the variable
    carries degree 2, as an equivariant parameter does, and the single
    endomorphism is the honest representation, since multiplication by
    the variable moves between generator degrees.  Every entry is then
    one monomial c*var^k with k determined by the degrees it joins, so
    the differential is homogeneous.

    Nothing is checked here: every caller hands over a differential
    that was checked where it entered.  ``BRSTDatum.d_matrix`` checks
    each entry of a BRST block as it builds it, after
    ``brst_cohomology`` has settled d^2 = 0, and the Koszul dual of a
    mixed complex squares to zero because the complex does.
    """

    def __init__(self, tokens, diff, var=None):
        self.tokens = list(tokens)
        self.var = var
        n = len(self.tokens)
        self.D = Matrix.of_columns(n, n, diff)

    # -- cohomology ------------------------------------------------------

    def cohomology(self):
        """The classes of H as a graded Q[var]-module, a graded vector
        space over Q when var is None, sorted by degree, free classes
        first, then by annihilator.

        The classes are read off the pivots (p, q, e) of the graded
        elimination with no transforms, one component of the support of
        D at a time: a direct summand of D is a union of components, and
        the columns of two components share no row, so each component
        takes the pivots it takes in the whole matrix.  A pivot pairs a
        basis vector of degree deg q with one of degree deg p =
        deg q + 1 - 2e, which D reaches times var^e: the first is not a
        cocycle, and the second spans a torsion class var^e kills, none
        when e = 0 (always over Q).  The saturated image is a direct
        summand of the kernel, so what is left is free, one class for
        each token degree that no pivot takes."""
        degree = [t.degree for t in self.tokens]
        free = Counter(degree)
        found = []      # (degree, exponent of the annihilator or 0 if free)
        for rows, cols, B, grading in _components(self.D):
            if grading is None:
                raise AssertionError("a component of the differential is "
                                     "not homogeneous")
            for p, q, e in _smith_graded(B, *grading, transforms=False):
                free[degree[rows[p]]] -= 1
                free[degree[cols[q]]] -= 1
                if e:
                    found.append((degree[rows[p]], e))
        if any(k < 0 for k in free.values()):
            raise AssertionError("more pivots than tokens in a degree")
        found += [(g, 0) for g in free.elements()]
        return [CohomologyClass(g, Scalar.monomial(1, e, self.var) if e
                                else None) for g, e in sorted(found)]
