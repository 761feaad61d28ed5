import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opelab.scalars import Scalar, ZERO, ONE, sc
from opelab.linalg import (Matrix, BasisToken, FiniteComplex, solve_and_rank,
                           q_solve, smith, smith_solve, quotient_reps,
                           span_rank, rref, vec_add, vec_scale, vec_sub,
                           smith_factors, _components, _grading,
                           _smith_general, _smith_graded)
from smith_oracle import general_smith, gauss_jordan_rref, min_search_pivots


# Independent rank oracle: fraction-free Bareiss elimination on dense rows.
# Kept deliberately separate from the library's sparse Gaussian code path.
def bareiss_rank(rows):
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    m = len(A[0]) if n else 0
    r = 0
    prev = Fraction(1)
    for c in range(m):
        p = next((i for i in range(r, n) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        for i in range(r + 1, n):
            for j in range(c + 1, m):
                A[i][j] = (A[r][c] * A[i][j] - A[i][c] * A[r][j]) / prev
            A[i][c] = Fraction(0)
        prev = A[r][c]
        r += 1
        if r == n:
            break
    return r


def dense_to_matrix(rows):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            entries[(i, j)] = sc(Fraction(v))
    return Matrix(len(rows), len(rows[0]) if rows else 0, entries)


def test_rank_against_bareiss_oracle():
    rng = random.Random(20260823)
    for trial in range(25):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        M = dense_to_matrix(rows)
        rank, kern, img = solve_and_rank(M)
        assert rank == bareiss_rank(rows)
        assert len(kern) == m - rank
        assert len(img) == rank
        for v in kern:
            assert M.apply(v) == {}
        assert span_rank(img) == rank


def test_rank_small_example():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    M = dense_to_matrix(rows)
    rank, kern, _ = solve_and_rank(M)
    assert rank == bareiss_rank(rows) == 2
    assert len(kern) == 2


def test_q_solve():
    M = dense_to_matrix([[1, 1], [0, 1]])
    x = q_solve(M, {0: sc(3), 1: sc(1)})
    assert M.apply(x) == {0: sc(3), 1: sc(1)}
    M2 = dense_to_matrix([[1, 1], [1, 1]])
    assert q_solve(M2, {0: sc(1), 1: sc(2)}) is None


def test_matrix_product_and_identity():
    A = dense_to_matrix([[1, 2], [3, 4]])
    I = Matrix.identity(2)
    assert A.mul(I) == A and I.mul(A) == A
    B = dense_to_matrix([[0, 1], [1, 0]])
    assert A.mul(B) == dense_to_matrix([[2, 1], [4, 3]])


def _rows(n, vecs):
    return Matrix(n, n, {(t, k): x for t, vec in enumerate(vecs)
                         for k, x in vec.items()})


def _check_smith(M, reduce=smith):
    S = reduce(M)
    n, m = S.nrows, S.ncols
    assert (len(S.U), len(S.V), len(S.Vinv)) == (n, m, m)
    for vec in S.U + S.V + S.Vinv:
        assert list(vec) == sorted(vec)
        assert not any(x.is_zero() for x in vec.values())
    U, Vinv = _rows(n, S.U), _rows(m, S.Vinv)
    V = _rows(m, S.V).transpose()
    # U M V = D
    D = U.mul(M).mul(V)
    assert D.data == {(t, t): f for t, f in enumerate(S.factors)}, \
        "U M V is not diag(factors)"
    # U is unimodular: its own Smith form, by the oracle, is the identity
    SU = general_smith(U)
    assert SU.rank == n and all(f == ONE for f in SU.factors)
    assert V.mul(Vinv) == Matrix.identity(m)
    # monic divisibility chain
    for a, b in zip(S.factors, S.factors[1:]):
        assert b.divmod(a)[1].is_zero()
        assert a.leading() == 1
    for v in S.kernel_basis():
        assert M.apply(v) == {}
    return S


def test_smith_scalar_matrix():
    u = Scalar.variable("u")
    M = Matrix(1, 1, {(0, 0): u})
    S = _check_smith(M)
    assert S.factors == [u]


def test_smith_coprime_diagonal():
    u = Scalar.variable("u")
    M = Matrix(2, 2, {(0, 0): u, (1, 1): u - 1})
    S = _check_smith(M, general_smith)
    assert S.rank == 2
    assert S.factors[0] == ONE
    assert S.factors[1] == u * u - u


def test_smith_rank_deficient():
    # first row is u times the second
    u = Scalar.variable("u")
    M = Matrix(2, 3, {(0, 0): u, (0, 1): u * u, (1, 0): ONE, (1, 1): u})
    S = _check_smith(M)
    assert S.rank == 1
    assert len(S.kernel_basis()) == 2


def test_smith_general_primes():
    # rank 1: the first row is (u-1) times the second
    u = Scalar.variable("u")
    M = Matrix(2, 2, {(0, 0): (u - 1) * (u - 2), (0, 1): (u - 1),
                      (1, 0): (u - 2), (1, 1): ONE})
    S = _check_smith(M, general_smith)
    assert S.rank == 1
    assert S.factors == [ONE]


def test_smith_rational_entries():
    M = dense_to_matrix([[2, 4], [1, 2]])
    S = _check_smith(M)
    assert S.rank == 1
    assert S.factors == [ONE]


def test_smith_solve():
    u = Scalar.variable("u")
    M = Matrix(2, 2, {(0, 0): u, (1, 1): ONE})
    S = smith(M)
    x = smith_solve(S, {0: u * u, 1: sc(3)})
    assert x is not None
    assert M.apply(x) == {0: u * u, 1: sc(3)}
    # u x = 1 has no polynomial solution
    assert smith_solve(S, {0: ONE}) is None


def test_smith_refuses_what_smith_factors_answers():
    u = Scalar.variable("u")
    cases = [(Matrix(2, 2, {(0, 0): u, (1, 1): u - 1}), [ONE, u * u - u]),
             (Matrix(1, 1, {(0, 0): u + 1}), [u + 1])]
    for M, factors in cases:
        with pytest.raises(ValueError, match="smith_factors"):
            smith(M)
        assert smith_factors(M) == (len(factors), factors)


# -- properties of the Smith form on small random matrices over Q[u] -------

polys = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda cs: Scalar("u", tuple(Fraction(c) for c in cs)))


@st.composite
def poly_matrices(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return Matrix(n, m, {(i, j): draw(polys)
                         for i in range(n) for j in range(m)})


def poly_vector(draw, n):
    vec = {i: draw(polys) for i in range(n)}
    return {i: v for i, v in vec.items() if not v.is_zero()}


@settings(max_examples=60, deadline=None)
@given(poly_matrices())
def test_smith_transforms_on_random_matrices(M):
    _check_smith(M, general_smith)
    if _grading(M) is None:
        with pytest.raises(ValueError, match="homogeneous"):
            smith(M)
    else:
        _check_smith(M)


@st.composite
def homogeneous_matrices(draw):
    """Entry (i, j) is zero or c*u^(cw[j] - rw[i]); whole rows and
    columns may be zero, and with all weights 0 every entry is a
    constant."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    flat = draw(st.booleans())
    rw = [0 if flat else draw(st.integers(0, 2)) for _ in range(n)]
    cw = [0 if flat else draw(st.integers(0, 3)) for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
    entries = {}
    for i in range(n):
        for j in range(m):
            c = draw(st.integers(-2, 2))
            if (c and cw[j] >= rw[i] and i not in zero_rows
                    and j not in zero_cols):
                entries[(i, j)] = Scalar.monomial(Fraction(c),
                                                  cw[j] - rw[i], "u")
    return Matrix(n, m, entries)


@settings(max_examples=200, deadline=None)
@given(homogeneous_matrices())
def test_graded_smith_against_the_general_elimination(M):
    assert _grading(M) is not None
    S = _check_smith(M)
    G = general_smith(M)
    assert (S.rank, S.factors) == (G.rank, G.factors) == _smith_general(M)
    assert not any(c for f in S.factors for c in f.coeffs[:-1])


zero_matrices = st.builds(Matrix, st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(poly_matrices(), homogeneous_matrices(), zero_matrices))
def test_smith_factors_match_the_smith_form(M):
    G = general_smith(M)
    assert _smith_general(M) == (G.rank, G.factors)
    S = G if _grading(M) is None else smith(M)
    assert smith_factors(M) == (S.rank, S.factors)


@settings(max_examples=300, deadline=None)
@given(homogeneous_matrices())
def test_graded_pivots_against_the_min_search(M):
    rw, cw, var = _grading(M)
    want = min_search_pivots(M, rw, cw)
    got = _smith_graded(M, rw, cw, var, transforms=False)
    assert [e for _, _, e in got] == [e for _, _, e in want]


def test_graded_pivot_is_the_row_of_largest_weight():
    # rows of weight 0 and 1 meet a column of weight 1 in u and 1: the
    # pivot must be the unit, or the factor would come out u
    M = Matrix(2, 1, {(0, 0): Scalar.variable("u"), (1, 0): ONE})
    assert _grading(M)[:2] == ([0, 1], [1])
    assert smith_factors(M) == (1, [ONE])


def test_grading_refuses_what_has_no_weights():
    u = Scalar.variable("u")
    assert _grading(Matrix(1, 1, {(0, 0): u + 1})) is None
    # u^(cw0 - rw0) = u and u^(cw0 - rw1) = u^(cw1 - rw0) = u^(cw1 - rw1)
    # = 1 cannot all hold
    assert _grading(Matrix(2, 2, {(0, 0): u, (0, 1): ONE, (1, 0): ONE,
                                  (1, 1): ONE})) is None
    rw, cw, var = _grading(Matrix(2, 3, {(0, 0): u, (1, 0): u * u,
                                         (1, 2): 3 * u}))
    assert var == "u" and cw[0] - rw[0] == 1 and cw[0] - rw[1] == 2
    assert cw[2] - rw[1] == 1


@st.composite
def permuted_block_sums(draw):
    """A square matrix over Q[u] made of random blocks, its indices
    shuffled, with the blocks' index sets."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    entries, parts, start = {}, [], 0
    for size in sizes:
        idx = [perm[start + k] for k in range(size)]
        start += size
        parts.append(sorted(idx))
        for a in idx:
            for b in idx:
                entries[(a, b)] = draw(polys)
    return Matrix(n, n, entries), parts


@settings(max_examples=100, deadline=None)
@given(permuted_block_sums())
def test_components_of_the_support(case):
    M, parts = case
    comps = _components(M)
    rows = [i for r, _, _, _ in comps for i in r]
    cols = [j for _, c, _, _ in comps for j in c]
    # each row and column holding an entry is in exactly one component
    assert sorted(rows) == sorted({i for i, _ in M.data})
    assert sorted(cols) == sorted({j for _, j in M.data})
    assert [r[0] for r, _, _, _ in comps] == sorted(r[0]
                                                   for r, _, _, _ in comps)
    whole = {}
    for r, c, B, grading in comps:
        assert r == sorted(r) and c == sorted(c)
        assert (B.nrows, B.ncols) == (len(r), len(c))
        # a component never straddles two of the drawn blocks
        assert any(set(r) | set(c) <= set(p) for p in parts)
        whole.update({(r[a], c[b]): v for (a, b), v in B.data.items()})
        if grading is not None:
            rw, cw, var = grading
            assert rw[0] == 0
            for (a, b), v in B.data.items():
                assert v.var in (None, var) and not any(v.coeffs[:-1])
                assert v.degree() == cw[b] - rw[a]
    assert whole == M.data
    # the rows of each drawn block are a union of component rows
    for p in parts:
        assert {i for i, _ in M.data if i in p} == {
            i for r, _, _, _ in comps if set(r) & set(p) for i in r}


TORSION = [Scalar("u", cs) for cs in ((0, 1), (1, 1), (-1, 1), (0, 0, 1),
                                      (0, 1, 1), (2, 2))]


@st.composite
def mixed_block_sums(draw):
    """A rectangular matrix over Q[u] made of homogeneous blocks, blocks
    of any polynomials and 1 x 1 blocks of torsion like u and u + 1,
    with its rows and its columns shuffled."""
    blocks = draw(st.lists(st.one_of(
        homogeneous_matrices(), poly_matrices(),
        st.sampled_from(TORSION).map(lambda f: Matrix(1, 1, {(0, 0): f}))),
        min_size=1, max_size=4))
    n, m = sum(B.nrows for B in blocks), sum(B.ncols for B in blocks)
    rperm = draw(st.permutations(range(n)))
    cperm = draw(st.permutations(range(m)))
    entries, r0, c0 = {}, 0, 0
    for B in blocks:
        for (i, j), v in B.data.items():
            entries[(rperm[r0 + i], cperm[c0 + j])] = v
        r0, c0 = r0 + B.nrows, c0 + B.ncols
    return Matrix(n, m, entries)


@settings(max_examples=150, deadline=None)
@given(mixed_block_sums())
def test_smith_factors_per_component_match_the_whole_matrix(M):
    assert smith_factors(M) == _smith_general(M)


def test_smith_factors_merge_coprime_torsion():
    u = Scalar.variable("u")
    M = Matrix(3, 3, {(2, 0): u, (0, 1): u + 1, (1, 2): u * u})
    assert len(_components(M)) == 3
    assert smith_factors(M) == (3, [ONE, u, u * u * u + u * u])
    assert smith_factors(M) == _smith_general(M)


# Homogeneous matrices go through ``smith``, and polynomial ones through
# the oracle; a kernel basis of a homogeneous matrix is homogeneous.
@settings(max_examples=60, deadline=None)
@given(homogeneous_matrices(), poly_matrices())
def test_kernel_basis_is_a_direct_summand(H, P):
    for M, reduce in ((H, smith), (P, general_smith)):
        # the saturation that makes V^-1 coordinates polynomial
        kern = reduce(M).kernel_basis()
        SK = reduce(Matrix.from_columns(M.ncols, kern))
        assert SK.rank == len(kern)
        assert all(f.degree() == 0 for f in SK.factors)


@settings(max_examples=60, deadline=None)
@given(homogeneous_matrices(), poly_matrices(), st.data())
def test_kernel_coordinates_against_smith_solve(H, P, data):
    for M, reduce in ((H, smith), (P, general_smith)):
        S = reduce(M)
        kern = S.kernel_basis()
        K = Matrix.from_columns(M.ncols, kern)
        SK = reduce(K)
        c = poly_vector(data.draw, len(kern))
        v = K.apply(c)
        assert S.kernel_coordinates(v) == smith_solve(SK, v) == c
        b = poly_vector(data.draw, M.ncols)
        x = S.kernel_coordinates(b)
        assert x == smith_solve(SK, b)
        assert (x is None) == bool(M.apply(b))


# -- the Matrix algebra against dense list arithmetic ---------------------

# zero is drawn often, so that sums and products cancel
over_q = st.one_of(st.just(ZERO), st.fractions(
    min_value=-3, max_value=3, max_denominator=3).map(Scalar.const))
over_qu = st.one_of(st.just(ZERO), polys)


def dense_rows(draw, ring, n, m):
    return [[draw(ring) for _ in range(m)] for _ in range(n)]


def sparse(rows):
    return {(i, j): v for i, row in enumerate(rows)
            for j, v in enumerate(row) if not v.is_zero()}


def column_dict(rows, ncols):
    return {j: {i: row[j] for i, row in enumerate(rows)}
            for j in range(ncols)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([over_q, over_qu]), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_algebra_matches_dense_lists(ring, n, k, m, data):
    a, b = (dense_rows(data.draw, ring, n, k) for _ in range(2))
    c = dense_rows(data.draw, ring, k, m)
    x, s = [data.draw(ring) for _ in range(k)], data.draw(ring)
    A, B = (Matrix.of_columns(n, k, column_dict(r, k)) for r in (a, b))
    C = Matrix.of_columns(k, m, column_dict(c, m))
    assert A.data == sparse(a) and C.data == sparse(c)
    results = [
        (A.add(B), [[a[i][j] + b[i][j] for j in range(k)]
                    for i in range(n)]),
        (A.scale(s), [[v * s for v in row] for row in a]),
        (A.mul(C), [[sum((a[i][l] * c[l][j] for l in range(k)), ZERO)
                     for j in range(m)] for i in range(n)]),
        (A.add(A.scale(-1)), [[ZERO] * k for _ in range(n)]),
    ]
    for M, want in results:
        assert (M.nrows, M.ncols) == (len(want), len(want[0]))
        assert M.data == sparse(want)
        assert not any(v.is_zero() for v in M.data.values())
    ax = [sum((a[i][j] * x[j] for j in range(k)), ZERO) for i in range(n)]
    assert A.apply({j: v for j, v in enumerate(x) if not v.is_zero()}) \
        == {i: v for i, v in enumerate(ax) if not v.is_zero()}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_column_dict_constructor_keeps_the_given_order(n, m, data):
    rows = dense_rows(data.draw, over_qu, n, m)
    cols = {j: {i: rows[i][j]
                for i in data.draw(st.permutations(range(n)))}
            for j in data.draw(st.permutations(range(m)))}
    M = Matrix.of_columns(n, m, cols)
    assert list(M.data.items()) == [((i, j), v) for j, col in cols.items()
                                    for i, v in col.items()
                                    if not v.is_zero()]
    assert Matrix.of_columns(n, m, M) is M
    assert Matrix.from_columns(n, [cols[j] for j in range(m)]) == M


@settings(max_examples=50, deadline=None)
@given(*[st.integers(1, 4)] * 4)
def test_matrix_shape_mismatch_raises(n, m, p, q):
    A, B = Matrix(n, m, {(0, 0): 1}), Matrix(p, q, {(p - 1, q - 1): 1})
    if (n, m) != (p, q):
        with pytest.raises(ValueError, match="shape"):
            A.add(B)
        with pytest.raises(ValueError, match="shape"):
            Matrix.of_columns(n, m, B)
    if m != p:
        with pytest.raises(ValueError, match="shape"):
            A.mul(B)
    with pytest.raises(IndexError):
        Matrix.of_columns(n, m, {m: {0: 1}})
    with pytest.raises(IndexError):
        Matrix.of_columns(n, m, {0: {n: 1}})


vectors = st.dictionaries(st.integers(0, 4), polys).map(
    lambda v: {k: c for k, c in v.items() if not c.is_zero()})


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_vec_sub_adds_the_negative(a, b):
    assert vec_sub(a, b) == vec_add(a, vec_scale(b, -1))
    assert vec_sub(a, a) == {}


def test_quotient_reps():
    kern = [{"a": ONE}, {"b": ONE}]
    img = [{"a": ONE, "b": sc(-1)}]
    reps = quotient_reps(kern, img)
    assert len(reps) == 1


# -- the fraction-free elimination against Gauss-Jordan over Q ---------


def fraction_rref(rows, ncols):
    """Gauss-Jordan elimination over Q on dict rows, in place, with every
    entry a Fraction: the reference for the fraction-free ``rref``."""
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
        inv = 1 / Fraction(rows[r][j])
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


def fraction_quotient_reps(kernel_vecs, image_vecs):
    """``quotient_reps`` by Fraction elimination: the reference."""
    keys = sorted({k for v in list(kernel_vecs) + list(image_vecs)
                   for k in v.keys()})
    idx = {k: i for i, k in enumerate(keys)}

    def encode(v):
        return {idx[k]: Fraction(c.const_value()) for k, c in v.items()
                if not c.is_zero()}

    def reduce(row, basis):
        for pj, b in basis:
            c = row.get(pj)
            if c:
                for k, w in b.items():
                    nv = row.get(k, Fraction(0)) - c * w
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        return row

    img_rows = [encode(v) for v in image_vecs]
    rank_img, piv_img = fraction_rref(img_rows, len(keys))
    basis = list(zip(piv_img, img_rows[:rank_img]))
    reps = []
    for v in kernel_vecs:
        row = reduce(encode(v), basis)
        if not row:
            continue
        pj = min(row)
        inv = 1 / row[pj]
        row = {k: w * inv for k, w in row.items()}
        basis.append((pj, row))
        reps.append({keys[k]: Scalar.const(w) for k, w in row.items()})
    return reps


rational_entries = st.one_of(
    st.just(0), st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-5, 5).map(Fraction))


@st.composite
def rational_rows(draw, min_cols=0):
    """Dense rational rows with zero rows, repeated rows and multiples of
    rows mixed in, and mixed denominators."""
    m = draw(st.integers(min_cols, 7))
    line = st.lists(rational_entries, min_size=m, max_size=m)
    rows = draw(st.lists(line, max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "multiple"]),
                              max_size=4)):
        at = draw(st.integers(0, len(rows)))
        if kind == "zero" or not rows:
            new = [0] * m
        else:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            q = (1 if kind == "repeat" else
                 draw(st.fractions(min_value=-4, max_value=4,
                                   max_denominator=5).filter(bool)))
            new = [q * x for x in src]
        rows.insert(at, new)
    return m, rows


def dict_rows(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dict_vectors(rows):
    return [{"k%d" % j: sc(x) for j, x in enumerate(row) if x}
            for row in rows]


def _normal(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=300, deadline=None)
@given(rational_rows())
def test_rref_against_the_fraction_elimination(case):
    m, rows = case
    got, want = dict_rows(rows), dict_rows(rows)
    rank, pivots = rref(got, m)
    assert (rank, pivots) == fraction_rref(want, m)
    assert rank == bareiss_rank(rows) == span_rank(dict_vectors(rows))
    assert got == want
    jordan = dict_rows(rows)
    assert gauss_jordan_rref(jordan, m) == (rank, pivots)
    assert jordan == got
    assert all(_normal(x) for row in got for x in row.values())
    assert all(got[r][j] == 1 for r, j in enumerate(pivots))


@settings(max_examples=200, deadline=None)
@given(rational_rows(min_cols=1), rational_rows(min_cols=1))
def test_quotient_reps_against_the_fraction_elimination(kern, img):
    kvecs, ivecs = dict_vectors(kern[1]), dict_vectors(img[1])
    got = quotient_reps(kvecs, ivecs)
    assert got == fraction_quotient_reps(kvecs, ivecs)
    assert all(_normal(c) for rep in got for v in rep.values()
               for c in v.coeffs)


def test_vec_helpers():
    a = {"x": ONE}
    b = {"x": sc(-1), "y": sc(2)}
    assert vec_add(a, b) == {"y": sc(2)}
    assert vec_scale(b, 0) == {}


# -- complexes ---------------------------------------------------------


def test_cohomology_over_q():
    # 0 -> Q -> Q -> 0 with the identity: acyclic
    a = BasisToken("a", 0)
    b = BasisToken("b", 1)
    C = FiniteComplex([a, b], {0: {1: ONE}})
    assert C.cohomology() == []
    # zero differential: cohomology is everything
    C2 = FiniteComplex([a, b], {})
    H2 = C2.cohomology()
    assert [(c.degree, c.annihilator) for c in H2] == [(0, None), (1, None)]
    assert sum((-1) ** t.degree for t in C2.tokens) == 0


def test_cohomology_three_term():
    # a -> b+c -> d with d(a) = b, d(b) = 0, d(c) = d: H concentrated nowhere
    a = BasisToken("a", 0)
    b = BasisToken("b", 1)
    c = BasisToken("c", 1)
    d = BasisToken("d", 2)
    C = FiniteComplex([a, b, c, d], {0: {1: ONE}, 2: {3: ONE}})
    assert C.cohomology() == []


def test_cohomology_torsion_over_pid():
    # D(a) = u * b with deg a = 0, deg b = -1, u of degree 2:
    # H = Q[u]/(u) generated by b in degree -1
    u = Scalar.variable("u")
    a = BasisToken("a", 0)
    b = BasisToken("b", -1)
    C = FiniteComplex([a, b], {0: {1: u}}, var="u")
    classes = C.cohomology()
    assert len(classes) == 1
    cls = classes[0]
    assert cls.annihilator == u
    assert cls.degree == -1


def test_cohomology_free_over_pid():
    u = Scalar.variable("u")
    a = BasisToken("a", 0)
    C = FiniteComplex([a], {}, var="u")
    classes = C.cohomology()
    assert len(classes) == 1
    assert classes[0].annihilator is None
    assert classes[0].degree == 0
