"""Exact linear algebra over Q and Q[var].

Vectors are dicts mapping basis keys to nonzero ``Scalar`` values; a
``Matrix`` is a sparse dict keyed by (row, col), and it is the one map type:
complexes, mixed-complex operators and chain maps all store one.

- Over Q, ``rref`` does the elimination; ``solve_and_rank`` gives the
  kernel and image of a matrix from one reduction, and
  ``graded_cohomology`` computes the cohomology of a complex given block
  by block, reducing each block once and reusing it for the kernel in its
  source degree and the image in its target degree;
- Over Q[var], ``smith`` does the elimination: U M V diagonal, with the
  unimodular transforms tracked on both sides.  ``presentation`` reads
  H = ker D / im D of a differential D off one Smith form: the columns
  of V past the rank are a free basis of ker D, and the coordinates of a
  kernel vector v in that basis are the entries of V^-1 v past the rank
  (the entries before it vanish exactly when v is in the kernel).  Free
  rank, torsion annihilators and representative cocycles follow from
  one more Smith form of the coordinate matrix of the image.

Differentials that are homogeneous for a grading in which the variable
carries even degree have monomial entries c*u^k, and for those the Smith
reduction below automatically stays monomial (the minimal-degree pivot
divides everything), so kernel bases and representatives come out
homogeneous without extra work.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, sc, format_scalar


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
    """Opaque basis label carrying its gradings."""

    __slots__ = ("name", "degree", "parity", "aux")

    def __init__(self, name, degree=0, parity=0, aux=0):
        self.name = name
        self.degree = degree
        self.parity = parity
        self.aux = aux

    def _key(self):
        return (self.name, self.degree, self.parity, self.aux)

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


def rref(rows, ncols):
    """Row-reduce dict rows in place; returns (rank, pivot column list)."""
    pivots = []
    r = 0
    for j in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i].get(j):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][j]
        rows[r] = {k: v * inv for k, v in rows[r].items() if v}
        for i in range(len(rows)):
            if i != r and rows[i].get(j):
                c = rows[i][j]
                ri = rows[i]
                for k, v in rows[r].items():
                    nv = ri.get(k, Fraction(0)) - c * v
                    if nv:
                        ri[k] = nv
                    else:
                        ri.pop(k, None)
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return r, pivots


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
    image = [M.column(j) for j in pivots]
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
    rows = [{idx[k]: sc(c).const_value() for k, c in v.items()}
            for v in vectors]
    rank, _ = rref(rows, len(keys))
    return rank


def quotient_reps(kernel_vecs, image_vecs):
    """Representatives of span(kernel)/span(image), reduced mod the image.

    Both inputs are lists of dict vectors over Q with comparable keys.
    """
    keys = sorted({k for v in list(kernel_vecs) + list(image_vecs)
                   for k in v.keys()})
    idx = {k: i for i, k in enumerate(keys)}

    def encode(v):
        return {idx[k]: sc(c).const_value() for k, c in v.items()
                if not sc(c).is_zero()}

    img_rows = [encode(v) for v in image_vecs]
    rank_img, piv_img = rref(img_rows, len(keys))
    img_rows = img_rows[:rank_img]

    def reduce(row):
        for r, pj in enumerate(piv_img):
            c = row.get(pj)
            if c:
                for k, v in img_rows[r].items():
                    nv = row.get(k, Fraction(0)) - c * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        return row

    reps = []
    basis_rows = []
    pivs = []
    for v in kernel_vecs:
        row = reduce(encode(v))
        # reduce against previously accepted representatives
        for r, pj in enumerate(pivs):
            c = row.get(pj)
            if c:
                for k, w in basis_rows[r].items():
                    nv = row.get(k, Fraction(0)) - c * w
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        if not row:
            continue
        pj = min(row.keys())
        inv = 1 / row[pj]
        row = {k: v * inv for k, v in row.items()}
        basis_rows.append(row)
        pivs.append(pj)
        reps.append({keys[k]: Scalar.const(v) for k, v in row.items()})
    return reps


def graded_cohomology(degrees, block):
    """Cohomology over Q of a complex given block by block.

    ``degrees`` lists, in increasing order, every degree that carries
    basis vectors; ``block(g)`` returns (matrix of d from degree g to g + 1,
    source keys, target keys).  Each block is built and reduced once: its
    kernel gives the cocycles at g and its image the coboundaries at
    g + 1.  Returns {g: representatives of ker / im, as dict vectors}.
    """
    out = {}
    image = []
    for g in degrees:
        dg, src, tgt = block(g)
        _, kern, img = solve_and_rank(dg)
        kern_vecs = [{src[j]: v for j, v in vec.items()} for vec in kern]
        out[g] = quotient_reps(kern_vecs, image)
        # empty unless g + 1 is the next listed degree
        image = [{tgt[i]: v for i, v in col.items()} for col in img]
    return out


# -- Smith normal form over Q[var] -------------------------------------


class SmithResult:
    __slots__ = ("U", "Uinv", "V", "Vinv", "D", "rank", "factors",
                 "nrows", "ncols")

    def __init__(self, U, Uinv, V, Vinv, D, rank, nrows, ncols):
        self.U, self.Uinv, self.V, self.Vinv = U, Uinv, V, Vinv
        self.D = D
        self.rank = rank
        self.nrows, self.ncols = nrows, ncols
        self.factors = [D[i][i] for i in range(rank)]

    def kernel_basis(self):
        """Columns of V beyond the rank: a free basis of ker M."""
        out = []
        for j in range(self.rank, self.ncols):
            col = {i: self.V[i][j] for i in range(self.ncols)
                   if not self.V[i][j].is_zero()}
            out.append(col)
        return out

    def kernel_coordinates(self, v: dict):
        """Coordinates of v in ``kernel_basis()``: the entries of V^-1 v
        past the rank.  None when v is not in the kernel, which is when
        one of the entries before the rank is nonzero."""
        out = {}
        for i in range(self.ncols):
            row = self.Vinv[i]
            acc = ZERO
            for k, c in v.items():
                if not row[k].is_zero():
                    acc = acc + row[k] * c
            if acc.is_zero():
                continue
            if i < self.rank:
                return None
            out[i - self.rank] = acc
        return out


def _dense(M: Matrix):
    A = [[ZERO] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.data.items():
        A[i][j] = v
    return A


def smith(M: Matrix) -> SmithResult:
    """U M V = D with U, V invertible over Q[var], D diagonal, monic
    invariant factors in a divisibility chain."""
    A = _dense(M)
    n, m = M.nrows, M.ncols
    U = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    Uinv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    V = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    Vinv = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]
        for r in range(n):
            Uinv[r][i], Uinv[r][k] = Uinv[r][k], Uinv[r][i]

    def col_swap(j, k):
        for r in range(n):
            A[r][j], A[r][k] = A[r][k], A[r][j]
        for r in range(m):
            V[r][j], V[r][k] = V[r][k], V[r][j]
        Vinv[j], Vinv[k] = Vinv[k], Vinv[j]

    def row_add(i, k, q):
        # row i += q * row k
        if q.is_zero():
            return
        A[i] = [a + q * b for a, b in zip(A[i], A[k])]
        U[i] = [a + q * b for a, b in zip(U[i], U[k])]
        for r in range(n):
            Uinv[r][k] = Uinv[r][k] - q * Uinv[r][i]

    def col_add(j, k, q):
        # col j += q * col k
        if q.is_zero():
            return
        for r in range(n):
            A[r][j] = A[r][j] + q * A[r][k]
        for r in range(m):
            V[r][j] = V[r][j] + q * V[r][k]
        Vinv[k] = [a - q * b for a, b in zip(Vinv[k], Vinv[j])]

    def row_scale(i, q):
        # q a nonzero rational
        qs = sc(q)
        A[i] = [qs * a for a in A[i]]
        U[i] = [qs * a for a in U[i]]
        inv = sc(Fraction(1) / Fraction(q))
        for r in range(n):
            Uinv[r][i] = inv * Uinv[r][i]

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
        if bi != t:
            row_swap(t, bi)
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
                    row_swap(t, i)
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

        # pivot must divide the remaining submatrix for the chain property
        fixed = True
        for i in range(t + 1, n):
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

        lead = A[t][t].leading()
        if lead != 1:
            row_scale(t, Fraction(1) / lead)
        t += 1
        if t == n or t == m:
            break

    return SmithResult(U, Uinv, V, Vinv, A, t, n, m)


def presentation(D: Matrix):
    """H = ker D / im D over Q[var] for a square-zero D, as (S, X): S is
    the Smith form of D, whose ``kernel_basis()`` is a free basis of
    ker D, and X holds in column j the coordinates of D V e_j (j below the
    rank) in that basis, so that H = Q[var]^r / im X."""
    S = smith(D)
    cols = []
    for j in range(S.rank):
        vj = {i: S.V[i][j] for i in range(S.ncols)
              if not S.V[i][j].is_zero()}
        x = S.kernel_coordinates(D.apply(vj))
        if x is None:
            raise AssertionError("image vector outside the kernel")
        cols.append(x)
    return S, Matrix.from_columns(S.ncols - S.rank, cols)


def smith_solve(S: SmithResult, M: Matrix, b: dict):
    """Solve M x = b over the polynomial ring using a precomputed Smith
    form of M.  Returns x as a column dict, or None when no polynomial
    solution exists.  The library reads kernel coordinates off V^-1
    instead; this general solver is the reference the tests compare
    against."""
    ub = [ZERO] * S.nrows
    for i in range(S.nrows):
        acc = ZERO
        for k, v in b.items():
            acc = acc + S.U[i][k] * sc(v)
        ub[i] = acc
    y = [ZERO] * S.ncols
    for i in range(S.nrows):
        if i < S.rank:
            try:
                y[i] = ub[i].div_exact(S.D[i][i])
            except ValueError:
                return None
        elif not ub[i].is_zero():
            return None
    x = {}
    for r in range(S.ncols):
        acc = ZERO
        for j in range(S.ncols):
            if not y[j].is_zero():
                acc = acc + S.V[r][j] * y[j]
        if not acc.is_zero():
            x[r] = acc
    return x


# -- finite complexes --------------------------------------------------


class CohomologyClass:
    __slots__ = ("degree", "annihilator", "rep")

    def __init__(self, degree, annihilator, rep):
        self.degree = degree
        self.annihilator = annihilator  # None for a free class
        self.rep = rep

    def __repr__(self):
        ann = ("free" if self.annihilator is None
               else format_scalar(self.annihilator))
        return "<H deg=%s %s>" % (self.degree, ann)


class FiniteComplex:
    """Finitely generated graded free module with a square-zero
    endomorphism of degree +1.

    ``tokens`` is an ordered list of BasisTokens; ``diff`` is the
    differential as a Matrix, or as a column dict mapping token index to
    the differential of that basis vector.  Over Q the grading splits
    the differential into per-degree matrices; over Q[var]
    the variable carries degree ``var_degree`` (2 for equivariant
    parameters) and the single endomorphism is the honest representation,
    since multiplication by the variable moves between generator degrees.
    """

    def __init__(self, tokens, diff, var=None, var_degree=2):
        self.tokens = list(tokens)
        self.var = var
        self.var_degree = var_degree
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate basis tokens")
        n = len(self.tokens)
        self.D = Matrix.of_columns(n, n, diff)
        self._check_homogeneous()
        self._check_square_zero()

    def _check_homogeneous(self):
        for (i, j), v in self.D.data.items():
            di = self.tokens[i].degree
            dj = self.tokens[j].degree
            if self.var is None:
                if not v.is_const():
                    raise ValueError("polynomial entry in a Q complex")
                if di != dj + 1:
                    raise ValueError(
                        "differential not of degree +1: %r -> %r"
                        % (self.tokens[j], self.tokens[i]))
            else:
                # each monomial u^k shifts degree by k*var_degree
                want = dj + 1 - di
                for e, c in enumerate(v.coeffs):
                    if c != 0 and e * self.var_degree != want:
                        raise ValueError(
                            "differential not homogeneous of degree +1 at "
                            "%r -> %r" % (self.tokens[j], self.tokens[i]))

    def _check_square_zero(self):
        sq = self.D.mul(self.D)
        if not sq.is_zero():
            (i, j), v = sorted(sq.data.items())[0]
            raise ValueError(
                "d o d != 0: component %r -> %r equals %s"
                % (self.tokens[j], self.tokens[i], format_scalar(v)))

    # -- views ----------------------------------------------------------

    def degrees(self):
        return sorted({t.degree for t in self.tokens})

    def tokens_of_degree(self, k):
        return [t for t in self.tokens if t.degree == k]

    def component_matrix(self, k):
        """The block of the differential from degree k to degree k+1
        (only meaningful over Q, where there is no variable mixing)."""
        src = [self.index[t] for t in self.tokens_of_degree(k)]
        tgt = [self.index[t] for t in self.tokens_of_degree(k + 1)]
        tpos = {i: r for r, i in enumerate(tgt)}
        entries = {}
        for c, j in enumerate(src):
            for i, v in self.D.column(j).items():
                entries[(tpos[i], c)] = v
        return Matrix(len(tgt), len(src), entries), src, tgt

    def euler_characteristic(self):
        chi = 0
        for t in self.tokens:
            chi += (-1) ** t.degree
        return chi

    # -- cohomology ------------------------------------------------------

    def cohomology(self):
        if self.var is None:
            return self._cohomology_q()
        return self._cohomology_pid()

    def _cohomology_q(self):
        return {k: [CohomologyClass(
                    k, None, {self.tokens[i]: v for i, v in r.items()})
                    for r in reps]
                for k, reps in graded_cohomology(
                    self.degrees(), self.component_matrix).items()}

    def _cohomology_pid(self):
        S, X = presentation(self.D)
        kern = S.kernel_basis()          # homogeneous free basis of ker D
        if not kern:
            return []
        SX = smith(X)
        # new kernel basis adapted to the image: columns of K * Uinv
        classes = []
        for j in range(len(kern)):
            col = {}
            for k2, kvec in enumerate(kern):
                u = SX.Uinv[k2][j]
                if not u.is_zero():
                    col = vec_add(col, vec_scale(kvec, u))
            ann = SX.D[j][j] if j < SX.rank else None
            if ann is not None and ann.degree() == 0:
                continue  # unit annihilator: trivial class
            rep = {self.tokens[i]: col[i] for i in sorted(col)}
            classes.append(CohomologyClass(self._vec_degree(rep), ann, rep))
        classes.sort(key=lambda c: (c.degree if c.degree is not None else 0,
                                    c.annihilator is not None))
        return classes

    def _vec_degree(self, rep):
        degs = set()
        for tok, v in rep.items():
            for e, c in enumerate(v.coeffs):
                if c != 0:
                    degs.add(tok.degree + e * self.var_degree)
        if len(degs) == 1:
            return degs.pop()
        return None  # inhomogeneous representative
