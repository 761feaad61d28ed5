import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opelab.scalars import Scalar, ZERO, ONE, sc
from opelab.linalg import (Matrix, BasisToken, FiniteComplex, solve_and_rank,
                           q_solve, smith, smith_solve, quotient_reps,
                           span_rank, vec_add, vec_scale, vec_sub)


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


def _check_smith(M):
    S = smith(M)
    # U M V = D
    U = Matrix(S.nrows, S.nrows,
               {(i, j): S.U[i][j] for i in range(S.nrows)
                for j in range(S.nrows)})
    V = Matrix(S.ncols, S.ncols,
               {(i, j): S.V[i][j] for i in range(S.ncols)
                for j in range(S.ncols)})
    D = U.mul(M).mul(V)
    for (i, j), v in D.data.items():
        assert i == j, "off-diagonal entry survives"
        assert v == S.D[i][j]
    Uinv = Matrix(S.nrows, S.nrows,
                  {(i, j): S.Uinv[i][j] for i in range(S.nrows)
                   for j in range(S.nrows)})
    assert U.mul(Uinv) == Matrix.identity(S.nrows)
    Vinv = Matrix(S.ncols, S.ncols,
                  {(i, j): S.Vinv[i][j] for i in range(S.ncols)
                   for j in range(S.ncols)})
    assert V.mul(Vinv) == Matrix.identity(S.ncols)
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
    S = _check_smith(M)
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
    S = _check_smith(M)
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
    x = smith_solve(S, M, {0: u * u, 1: sc(3)})
    assert x is not None
    assert M.apply(x) == {0: u * u, 1: sc(3)}
    # u x = 1 has no polynomial solution
    assert smith_solve(S, M, {0: ONE}) is None


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
    _check_smith(M)


@settings(max_examples=60, deadline=None)
@given(poly_matrices())
def test_kernel_basis_is_a_direct_summand(M):
    # the saturation that makes V^-1 coordinates polynomial
    kern = smith(M).kernel_basis()
    SK = smith(Matrix.from_columns(M.ncols, kern))
    assert SK.rank == len(kern)
    assert all(f.degree() == 0 for f in SK.factors)


@settings(max_examples=60, deadline=None)
@given(poly_matrices(), st.data())
def test_kernel_coordinates_against_smith_solve(M, data):
    S = smith(M)
    kern = S.kernel_basis()
    K = Matrix.from_columns(M.ncols, kern)
    SK = smith(K)
    c = poly_vector(data.draw, len(kern))
    v = K.apply(c)
    assert S.kernel_coordinates(v) == smith_solve(SK, K, v) == c
    b = poly_vector(data.draw, M.ncols)
    x = S.kernel_coordinates(b)
    assert x == smith_solve(SK, K, b)
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


def test_vec_helpers():
    a = {"x": ONE}
    b = {"x": sc(-1), "y": sc(2)}
    assert vec_add(a, b) == {"y": sc(2)}
    assert vec_scale(b, 0) == {}


# -- complexes ---------------------------------------------------------


def test_complex_rejects_nonsquare_zero():
    a = BasisToken("a", 0)
    b = BasisToken("b", 1)
    c = BasisToken("c", 2)
    with pytest.raises(ValueError, match="d o d"):
        FiniteComplex([a, b, c], {0: {1: ONE}, 1: {2: ONE}})


def test_complex_rejects_inhomogeneous():
    a = BasisToken("a", 0)
    b = BasisToken("b", 2)
    with pytest.raises(ValueError, match="degree"):
        FiniteComplex([a, b], {0: {1: ONE}})


def test_cohomology_over_q():
    # 0 -> Q -> Q -> 0 with the identity: acyclic
    a = BasisToken("a", 0)
    b = BasisToken("b", 1)
    C = FiniteComplex([a, b], {0: {1: ONE}})
    H = C.cohomology()
    assert all(len(v) == 0 for v in H.values())
    # zero differential: cohomology is everything
    C2 = FiniteComplex([a, b], {})
    H2 = C2.cohomology()
    assert len(H2[0]) == 1 and len(H2[1]) == 1
    assert C2.euler_characteristic() == 0


def test_cohomology_three_term():
    # a -> b+c -> d with d(a) = b, d(b) = 0, d(c) = d: H concentrated nowhere
    a = BasisToken("a", 0)
    b = BasisToken("b", 1)
    c = BasisToken("c", 1)
    d = BasisToken("d", 2)
    C = FiniteComplex([a, b, c, d], {0: {1: ONE}, 2: {3: ONE}})
    H = C.cohomology()
    assert [len(H[k]) for k in sorted(H)] == [0, 0, 0]


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
    assert set(cls.rep) == {b}


def test_cohomology_free_over_pid():
    u = Scalar.variable("u")
    a = BasisToken("a", 0)
    C = FiniteComplex([a], {}, var="u")
    classes = C.cohomology()
    assert len(classes) == 1
    assert classes[0].annihilator is None
    assert classes[0].degree == 0
