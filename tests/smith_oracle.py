"""The reference Smith form for the tests: dense polynomial elimination
with the unimodular transforms tracked on both sides, for any matrix
over Q[u].  ``opelab.linalg.smith`` takes homogeneous matrices only, and
``smith_factors`` runs the same elimination with no transforms; this one
returns the full sparse ``SmithResult`` plus the columns of U^-1, so the
Smith form properties can be checked on matrices that are not
homogeneous too.

``graded_cohomology`` is the reference cohomology over Q: it builds a
representative of every class from the kernels and images of the
blocks, where the library reads dimensions off pivots.
``rank_cohomology`` is the route ``brst`` took before it read its
classes off ``FiniteComplex.cohomology``: dim H^g = n_g - rank d_g -
rank d_(g-1) block by block.  Both take the steps of d from one ghost
number to the next from ``ghost_steps``, which slices them out of the
whole-block ``BRSTDatum.d_matrix``.

``direct_summands`` is the split of a square matrix by union-find over
its indices that ``Matrix.blocks`` did before ``linalg._components``
walked the support as a bipartite graph.

``gauss_jordan_rref`` and ``min_search_pivots`` are the two eliminations
that ``opelab.linalg._forward`` replaced: Gauss-Jordan on integer rows,
and the graded loop that takes each pivot by least exponent over every
live entry and updates the rows with rationals.  ``oracle_classes``
reads cohomology classes off the second one.

``assert_complex`` checks what ``FiniteComplex`` takes on trust: that
D o D = 0 and that D is homogeneous of degree +1."""

from collections import Counter

from opelab.linalg import (Matrix, SmithResult, quotient_reps,
                           solve_and_rank, _axpy, _grading, _primitive,
                           _reduce)
from opelab.scalars import ZERO, ONE, sc, quo


def _dense(M: Matrix):
    A = [[ZERO] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.data.items():
        A[i][j] = v
    return A


class OracleSmith(SmithResult):
    """A ``SmithResult`` that also keeps ``Uinv``, the columns of U^-1."""

    __slots__ = ("Uinv",)

    def __init__(self, U, Uinv, V, Vinv, factors):
        super().__init__(U, V, Vinv, factors)
        self.Uinv = Uinv


def general_smith(M: Matrix) -> OracleSmith:
    """U M V = D by polynomial elimination: the least-degree pivot
    reduces its row and column by ``divmod``, a nonzero remainder becomes
    the new pivot, and a pivot that does not divide the rest of the
    matrix takes a row that it fails to divide.  U, U^-1, V and V^-1 are
    updated with every operation."""
    A = _dense(M)
    n, m = M.nrows, M.ncols
    U, Uinv = _dense(Matrix.identity(n)), _dense(Matrix.identity(n))
    V, Vinv = _dense(Matrix.identity(m)), _dense(Matrix.identity(m))

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
        A[i] = [a + q * b if b else a for a, b in zip(A[i], A[k])]
        U[i] = [a + q * b for a, b in zip(U[i], U[k])]
        for r in range(n):
            Uinv[r][k] = Uinv[r][k] - q * Uinv[r][i]

    def col_add(j, k, q):
        # col j += q * col k
        if q.is_zero():
            return
        for r in range(n):
            if A[r][k]:
                A[r][j] = A[r][j] + q * A[r][k]
        for r in range(m):
            V[r][j] = V[r][j] + q * V[r][k]
        Vinv[k] = [a - q * b for a, b in zip(Vinv[k], Vinv[j])]

    def row_scale(i, q):
        # q a nonzero rational
        qs = sc(q)
        A[i] = [qs * a for a in A[i]]
        U[i] = [qs * a for a in U[i]]
        inv = sc(quo(1, q))
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

        lead = A[t][t].leading()
        if lead != 1:
            row_scale(t, quo(1, lead))
        t += 1
        if t == n or t == m:
            break

    def rows(X):
        return [{k: x for k, x in enumerate(row) if x} for row in X]

    def cols(X):
        return [{k: row[c] for k, row in enumerate(X) if row[c]}
                for c in range(len(X))]

    return OracleSmith(rows(U), cols(Uinv), cols(V), rows(Vinv),
                       [A[i][i] for i in range(t)])


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


def gauss_jordan_rref(rows, ncols):
    """``rref`` by fraction-free Gauss-Jordan elimination: each pivot,
    the row of fewest entries and then least |entry| below the rank, is
    cleared from every other row by ``_reduce`` as soon as it is taken.
    Same contract as ``opelab.linalg.rref``."""
    ints = [_primitive({k: v for k, v in row.items() if v}) for row in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        pr, best = None, None
        for i in range(r, len(ints)):
            v = ints[i].get(j)
            if v is not None:
                key = (len(ints[i]), abs(v))
                if best is None or key < best:
                    pr, best = i, key
        if pr is None:
            continue
        ints[r], ints[pr] = ints[pr], ints[r]
        piv = ints[r]
        for i in range(len(ints)):
            if i != r and j in ints[i]:
                ints[i] = _reduce(ints[i], piv, j)
        pivots.append(j)
        r += 1
        if r == len(ints):
            break
    for t, j in enumerate(pivots):
        rows[t] = {k: quo(v, ints[t][j]) for k, v in ints[t].items()}
    rows[r:] = [{} for _ in range(len(rows) - r)]
    return r, pivots


def min_search_pivots(M: Matrix, rw, cw):
    """The pivots [(p, q, e)] of a homogeneous M, weighted as ``_grading``
    gives, in increasing e: each pivot is the least (e, row, column) over
    every live entry, and it clears its column from the live rows by
    rational row updates."""
    A = [dict() for _ in range(M.nrows)]
    for (i, j), v in M.data.items():
        A[i][j] = v.coeffs[-1]
    live = {i for i in range(M.nrows) if A[i]}
    pivots = []
    while live:
        e, p, q = min((cw[j] - rw[i], i, j) for i in live for j in A[i])
        live.remove(p)
        row, c = A[p], A[p][q]
        for i in list(live):
            f = A[i].get(q)
            if f is not None:
                _axpy(A[i], row, -quo(f, c))
                if not A[i]:
                    live.remove(i)
        pivots.append((p, q, e))
    return pivots


def ghost_steps(datum, w, q):
    """{g: (matrix of d from ghost number g to g + 1, source basis,
    target basis)} for every ghost number g of the (w, q) block of a
    ``BRSTDatum``, in increasing g, sliced out of the whole-block
    ``d_matrix``; each basis keeps the block's ``basis`` order."""
    D, basis = datum.d_matrix(w, q)
    ghost = [datum.V.ghost(m) for m in basis]
    at, by_ghost = [], {}
    for m, g in zip(basis, ghost):
        at.append(len(by_ghost.setdefault(g, [])))
        by_ghost[g].append(m)
    entries = {g: {} for g in by_ghost}
    for (i, j), v in D.data.items():
        entries[ghost[j]][(at[i], at[j])] = v
    steps = {}
    for g, src in sorted(by_ghost.items()):
        tgt = by_ghost.get(g + 1, [])
        steps[g] = (Matrix(len(tgt), len(src), entries[g]), src, tgt)
    return steps


def rank_cohomology(datum, W):
    """{(weight, charge, ghost): dim H} of a ``BRSTDatum`` through weight
    W with d^2 = 0, from ranks over Q: dim H^g = n_g - rank d_g -
    rank d_(g-1), with rank d_(g-1) = 0 when g - 1 holds no states."""
    out = {}
    for w in range(W + 1):
        for q in datum.charges():
            incoming = 0
            for g, (dg, _, _) in ghost_steps(datum, w, q).items():
                rank = solve_and_rank(dg)[0]
                dim = dg.ncols - rank - incoming
                if dim:
                    out[(w, q, g)] = dim
                incoming = rank
    return out


def direct_summands(D: Matrix):
    """The direct summands of a square matrix, as [(indices, block)]:
    one per connected component of its support, where index i stands
    for row i and column i alike and an index with no entry is a
    component of its own.  Components come in order of their smallest
    index with their indices ascending, and ``block`` is the principal
    submatrix on ``indices``."""
    assert D.nrows == D.ncols
    root = list(range(D.nrows))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, j in D.data:
        a, b = find(i), find(j)
        if a != b:
            root[max(a, b)] = min(a, b)
    groups, pos = {}, {}
    for i in range(D.nrows):
        root[i] = find(i)
        idx = groups.setdefault(root[i], [])
        pos[i] = len(idx)
        idx.append(i)
    entries = {r: {} for r in groups}
    for (i, j), v in D.data.items():
        entries[root[i]][(pos[i], pos[j])] = v
    return [(idx, Matrix(len(idx), len(idx), entries[r]))
            for r, idx in groups.items()]


def oracle_classes(C):
    """(degree, exponent e of the annihilator u^e, 0 when free) of every
    class of a ``FiniteComplex``, sorted, read off ``min_search_pivots``
    one direct summand of its differential at a time."""
    found = []
    for idx, B in direct_summands(C.D):
        degree = [C.tokens[k].degree for k in idx]
        free = Counter(degree)
        for p, q, e in min_search_pivots(B, *_grading(B)[:2]):
            free[degree[p]] -= 1
            free[degree[q]] -= 1
            if e:
                found.append((degree[p], e))
        found += [(g, 0) for g in free.elements()]
    return sorted(found)


def assert_complex(C):
    """Assert that the differential of the FiniteComplex C squares to
    zero and that every entry from token j to token i is c * var^k with
    deg i = deg j + 1 - 2k (k = 0 over Q), in C's variable."""
    for (i, j), v in C.D.data.items():
        assert v.var in (None, C.var), (C.tokens[j], C.tokens[i])
        want = C.tokens[j].degree + 1 - C.tokens[i].degree
        assert all(2 * e == want for e, c in enumerate(v.coeffs) if c), \
            (C.tokens[j], C.tokens[i])
    assert C.D.mul(C.D).is_zero()
