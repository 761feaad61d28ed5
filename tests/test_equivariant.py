import contextlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opelab import presets
from opelab.cli import main
from opelab.scalars import (Scalar, ZERO, ONE, sc, format_scalar,
                            parse_scalar)
from opelab.schemas import name_index
from opelab.linalg import (BasisToken, FiniteComplex, Matrix, presentation,
                           smith_factors, vec_add, vec_scale, _grading,
                           _smith_general)
from opelab.equivariant import (
    MixedComplex, koszul_t, ucomplex_from_finite, read_map,
    cartan_model, localize_check, check_mixed_map,
    _form_name, _module_invariants, divides_power, regular_lambda, sphere_pair,
    zero_mixed, p1_rotation, p1_fixed_points, p1_inclusion)
from smith_oracle import (assert_complex, direct_summands, general_smith,
                          graded_cohomology, min_search_pivots,
                          oracle_classes)


# -- oracles ---------------------------------------------------------------

def run_cli(*argv):
    """(exit code, JSON report) of the command line on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def mapping_cone(NZ, NX, iota):
    """Cone of t(iota) as a plain one-variable complex: source tokens
    shifted down by one, differential -d on the source, d on the target,
    and the map itself as the connecting block."""
    u = Scalar.variable("u")

    def total(N):
        out = {}
        for (i, j), v in N.d.data.items():
            out.setdefault(j, {})[i] = out.get(j, {}).get(i, ZERO) + v
        for (i, j), v in N.hs[0].data.items():
            out.setdefault(j, {})[i] = (out.get(j, {}).get(i, ZERO)
                                        + u * v)
        return out

    nz = len(NZ.tokens)
    tokens = ([BasisToken("s_" + t.name, t.degree - 1)
               for t in NZ.tokens]
              + [BasisToken("t_" + t.name, t.degree) for t in NX.tokens])
    diff = {}
    dz, dx = total(NZ), total(NX)
    for j, col in dz.items():
        diff[j] = {i: v.scale(-1) for i, v in col.items()}
    for j, col in iota.items():
        tgt = diff.setdefault(j, {})
        for i, v in col.items():
            tgt[nz + i] = sc(v)
    for j, col in dx.items():
        diff[nz + j] = {nz + i: v for i, v in col.items()}
    C = FiniteComplex(tokens, diff, var="u")
    assert_complex(C)
    return C


def checked(N):
    """The mixed complex N, once it has passed the checks that
    ``MixedComplex.from_dict`` runs on a file: rational entries, d of
    degree +1, each h_a of degree -1, and ``validate``."""
    for op, shift in [(N.d, 1)] + [(h, -1) for h in N.hs]:
        for (i, j), v in op.data.items():
            assert v.is_const(), (N.tokens[j], N.tokens[i])
            assert N.tokens[i].degree == N.tokens[j].degree + shift, \
                (N.tokens[j], N.tokens[i])
    N.validate()
    return N


def candidate_cartan_model(weights, D):
    """(tokens, d, [h_1, ..., h_n]) of the Cartan model as
    ``cartan_model`` built it before it went by content: every pair
    (alpha, beta) with |alpha| + |beta| <= D is tested for invariance on
    its own, and an entry of d or h_i is written only when its target
    is among the forms."""
    ws = [tuple(w) if isinstance(w, (list, tuple)) else (w,)
          for w in weights]
    m, n = len(ws), len(ws[0])

    def invariant(alpha, beta):
        return all(sum((alpha[j] + (j in beta)) * ws[j][f]
                       for j in range(m)) == 0 for f in range(n))

    forms = [(alpha, beta) for r in range(min(m, D) + 1)
             for beta in itertools.combinations(range(m), r)
             for alpha in itertools.product(range(D - r + 1), repeat=m)
             if sum(alpha) <= D - r and invariant(alpha, beta)]
    forms.sort(key=lambda ab: (sum(ab[0]) + len(ab[1]), len(ab[1]), ab))
    pos = {ab: i for i, ab in enumerate(forms)}
    d0, hs = {}, [{} for _ in range(n)]
    for j, (alpha, beta) in enumerate(forms):
        for k in range(m):
            if alpha[k] == 0 or k in beta:
                continue
            key = (tuple(a - (i == k) for i, a in enumerate(alpha)),
                   tuple(sorted(beta + (k,))))
            if key in pos:
                sign = (-1) ** sum(b < k for b in beta)
                d0[(pos[key], j)] = sign * alpha[k]
        for f in range(n):
            for r, k in enumerate(beta):
                key = (tuple(a + (i == k) for i, a in enumerate(alpha)),
                       tuple(b for b in beta if b != k))
                if key in pos:
                    hs[f][(pos[key], j)] = (-1) ** r * ws[k][f]
    N = len(forms)
    tokens = [BasisToken(_form_name(a, b), len(b)) for a, b in forms]
    M = checked(MixedComplex(tokens, Matrix(N, N, d0),
                             [Matrix(N, N, h) for h in hs]))
    return M.tokens, M.d, M.hs


def cone_invariants(NZ, NX, iota):
    return _module_invariants(mapping_cone(NZ, NX, iota).D)


def quotient_invariants(ambient, gens, rels):
    """Invariant factors of span(gens)/span(rels) inside Q[u]^ambient,
    with rels contained in span(gens), by the general elimination: the
    coefficient parts of ker [gens | rels] present the quotient.
    Returns (free_rank, torsion)."""
    g = len(gens)
    if g == 0:
        return 0, []
    cols = list(gens) + list(rels)
    B = Matrix.from_columns(ambient, cols)
    pres = []
    for kcol in general_smith(B).kernel_basis():
        c = {i: v for i, v in kcol.items() if i < g}
        if c:
            pres.append(c)
    S = general_smith(Matrix.from_columns(g, pres))
    return S.nrows - S.rank, [f for f in S.factors if f.degree() > 0]


def quotient_route(D):
    """Module invariants of ker D / im D from the [kernel | image]
    presentation, the route the library took before it read coordinates
    off V^-1."""
    S = general_smith(D)
    img = [D.apply(S.V[j]) for j in range(S.rank)]
    return quotient_invariants(D.nrows, S.kernel_basis(), img)


def whole_presentation(D):
    """``presentation`` of D by the general elimination on the whole
    matrix."""
    S = general_smith(D)
    cols = [S.kernel_coordinates(D.apply(S.V[j])) for j in range(S.rank)]
    return S, Matrix.from_columns(S.ncols - S.rank, cols)


def whole_matrix_invariants(D):
    """Module invariants of a square-zero D from the general elimination
    on the whole matrix, without transforms: the torsion of H is that of
    coker D, and rank H = n - 2 rank D.  Its cost does not grow with the
    entries of any transform."""
    rank, factors = _smith_general(D)
    return D.nrows - 2 * rank, [f for f in factors if f.degree() > 0]


def presentation_invariants(D):
    """Module invariants read off the presentation of H by the general
    elimination: free rank and torsion of Q[var]^r / im X.  Its
    transforms blow up on large sums, so it runs on single blocks."""
    SX = general_smith(whole_presentation(D)[1])
    return SX.nrows - SX.rank, [f for f in SX.factors if f.degree() > 0]


def vec_degree(rep):
    """The degree of a homogeneous vector {token: polynomial}, the
    variable of degree 2, or None when it is not homogeneous."""
    degs = {tok.degree + 2 * e for tok, v in rep.items()
            for e, c in enumerate(v.coeffs) if c != 0}
    return degs.pop() if len(degs) == 1 else None


def whole_matrix_classes(C):
    """Sorted (degree, annihilator or "free") of the classes that the
    general elimination on the whole differential finds: representative
    cocycles, the columns of K U_X^-1 for a kernel basis K and the Smith
    form of the presentation X, each with its own degree."""
    S, X = whole_presentation(C.D)
    kern = S.kernel_basis()
    SX = general_smith(X)
    out = []
    for j, ucol in enumerate(SX.Uinv):
        ann = SX.factors[j] if j < SX.rank else None
        if ann is not None and ann.degree() == 0:
            continue
        col = {}
        for k, u in ucol.items():
            col = vec_add(col, vec_scale(kern[k], u))
        rep = {C.tokens[i]: v for i, v in col.items()}
        out.append((vec_degree(rep),
                    "free" if ann is None else format_scalar(ann)))
    return sorted(out)


def q_cohomology_counts(C):
    """{degree: dim H^degree} of a complex over Q by ``graded_cohomology``,
    one rational elimination per degree: the route the library took
    before it read the classes off the pivots of the graded Smith
    elimination."""
    def block(k):
        src = [j for j, t in enumerate(C.tokens) if t.degree == k]
        tgt = [i for i, t in enumerate(C.tokens) if t.degree == k + 1]
        tpos = {i: r for r, i in enumerate(tgt)}
        entries = {(tpos[i], c): v for c, j in enumerate(src)
                   for i, v in C.D.column(j).items()}
        return Matrix(len(tgt), len(src), entries), src, tgt
    degrees = sorted({t.degree for t in C.tokens})
    return {k: len(reps) for k, reps in graded_cohomology(degrees,
                                                          block).items()
            if reps}


def classes_of(C):
    return sorted((c.degree, "free" if c.annihilator is None
                   else format_scalar(c.annihilator))
                  for c in C.cohomology())


def random_strict(rng, nfactors=1):
    """Direct sum of small strict blocks with scrambled coefficients."""
    coeffs = [1, -1, 2, -2, 3]
    tokens, d, hs = [], {}, [dict() for _ in range(nfactors)]

    def add(deg):
        tokens.append(BasisToken("t%d" % len(tokens), deg))
        return len(tokens) - 1

    for _ in range(rng.randrange(1, 6)):
        delta = rng.randrange(-3, 4)
        kind = rng.choice(["point", "dpair", "hpair", "quad"])
        if kind == "point":
            add(delta)
        elif kind == "dpair":
            a, b = add(delta), add(delta + 1)
            d[a] = {b: rng.choice(coeffs)}
        elif kind == "hpair":
            a, b = add(delta), add(delta - 1)
            hs[rng.randrange(nfactors)][a] = {b: rng.choice(coeffs)}
        else:
            x, y = add(delta), add(delta)
            e, f = add(delta - 1), add(delta - 2)
            d[e] = {x: rng.choice(coeffs), y: rng.choice(coeffs)}
            hs[rng.randrange(nfactors)][e] = {f: rng.choice(coeffs)}
    return checked(MixedComplex(tokens, d, hs))


def class_shape(C):
    """Multiset of (degree, annihilator string or None)."""
    return sorted((c.degree,
                   None if c.annihilator is None
                   else format_scalar(c.annihilator))
                  for c in C.cohomology())


# -- strictness and the square-zero invariant ------------------------------

def test_shipped_complexes_are_strict():
    for N in [regular_lambda(), sphere_pair(), p1_rotation(),
              p1_fixed_points(), zero_mixed()]:
        checked(N)
        assert_complex(koszul_t(N).complex())


def test_strictness_failure_names_the_component():
    toks = [BasisToken("a", 0), BasisToken("b", 1), BasisToken("c", 0)]
    with pytest.raises(ValueError, match="d h_1 \\+ h_1 d"):
        MixedComplex(toks, {0: {1: 1}}, [{1: {2: 1}}]).validate()


def mixed_file(tokens, d, hs):
    """The mixed.v1 document of these tokens and column dicts, each map
    in the order it was given."""
    def ser(op):
        return {tokens[j].name: {tokens[i].name: format_scalar(sc(v))
                                 for i, v in col.items()}
                for j, col in op.items()}
    return {"format": "mixed.v1",
            "tokens": [{"name": t.name, "degree": t.degree} for t in tokens],
            "d": ser(d), "h": [ser(h) for h in hs]}


def test_operator_degree_is_enforced():
    toks = [BasisToken("a", 0), BasisToken("b", 0)]
    with pytest.raises(ValueError, match="degree"):
        MixedComplex.from_dict(mixed_file(toks, {}, [{0: {1: 1}}]))


def _toks(*spec):
    return [BasisToken(n, g) for n, g in spec]


# Each complex has several bad entries, and is read as a mixed.v1 file.
# The product checks name the entry with the lowest column, then the
# lowest row; the entries are read, and refused when they are not
# rational or not of the operator's degree, in the order the maps were
# given.
_U = Scalar.variable("u")
_PQBCEF = _toks(("p", 0), ("q", 0), ("b", 1), ("c", 1), ("e", 2), ("f", 2))
_A1B1A2B2 = _toks(("a1", 0), ("b1", 1), ("a2", 0), ("b2", 1))
_XYZ = _toks(("x1", 2), ("y1", 1), ("z1", 0), ("x2", 2), ("y2", 1),
             ("z2", 0))
STRICTNESS = [
    (_PQBCEF, {1: {3: 1, 2: 1}, 0: {2: 1}, 3: {4: 1}, 2: {5: 1}}, [],
     "d o d != 0: component <p deg=0> -> <f deg=2>"),
    (_A1B1A2B2, {2: {3: 1}, 0: {1: 1}}, [{3: {0: 1}, 1: {2: 1}}],
     "d h_1 + h_1 d != 0: component <a1 deg=0> -> <a2 deg=0>"),
    (_XYZ, {}, [{3: {1: 1}, 0: {4: 1}}, {1: {2: 1}, 4: {5: 1}}],
     "h_1 h_2 + h_2 h_1 != 0: component <x1 deg=2> -> <z2 deg=0>"),
    (_XYZ, {}, [{}, {4: {2: 1}, 3: {4: 2}, 0: {1: 1}, 1: {5: -1}}],
     "h_2 h_2 + h_2 h_2 != 0: component <x1 deg=2> -> <z2 deg=0>"),
    (_PQBCEF, {1: {4: 1, 2: 1}, 0: {5: 1}}, [],
     "d is not of degree +1: <q deg=0> -> <e deg=2>"),
    (_PQBCEF, {1: {2: 1}}, [{}, {5: {0: 1}, 4: {0: 1}}],
     "h_2 is not of degree -1: <f deg=2> -> <p deg=0>"),
    (_PQBCEF, {1: {2: _U + 1}, 0: {4: 1}}, [],
     "entry 'u + 1' is not a rational number"),
    (_PQBCEF, {0: {4: 1}, 1: {2: _U}}, [],
     "d is not of degree +1: <p deg=0> -> <e deg=2>"),
    (_PQBCEF, {}, [{3: {0: 2 * _U}, 2: {0: 1}}],
     "entry '2*u' is not a rational number"),
]


@pytest.mark.parametrize("tokens, d, hs, message", STRICTNESS)
def test_strictness_messages_name_the_first_witness(tokens, d, hs,
                                                     message):
    with pytest.raises(ValueError) as err:
        MixedComplex.from_dict(mixed_file(tokens, d, hs))
    # an entry is refused at its pointer, a product with no pointer
    assert getattr(err.value, "message", str(err.value)) == message


def test_chain_map_messages_name_the_first_witness():
    # d sends x0 to y1 and x1 to y0; h sends x0 to f and x1 to e
    NX = MixedComplex(_toks(("x0", 0), ("x1", 0), ("y0", 1), ("y1", 1),
                            ("f", -1), ("e", -1)),
                      {0: {3: 1}, 1: {2: 1}}, [{0: {4: 1}, 1: {5: 1}}])
    NZ = MixedComplex(_toks(("p", 0), ("q", 0)), {}, [{}])
    with pytest.raises(ValueError) as err:
        check_mixed_map(NZ, NX, {1: {1: 1}, 0: {0: 1}})
    assert str(err.value) == ("map fails to commute with d: component "
                              "<p deg=0> -> <y1 deg=1>")
    # the same target without d: only h fails to commute
    NX2 = MixedComplex(NX.tokens, {}, [{0: {4: 1}, 1: {5: 1}}])
    with pytest.raises(ValueError) as err:
        check_mixed_map(NZ, NX2, {1: {0: 1}, 0: {1: 1}})
    assert str(err.value) == ("map fails to commute with h_1: component "
                              "<p deg=0> -> <e deg=-1>")


def test_random_complexes_square_to_zero():
    rng = random.Random(20260823)
    for _ in range(100):
        N = random_strict(rng)
        M = koszul_t(N)
        C = M.complex()
        assert C.D.mul(C.D).is_zero()


def test_random_two_factor_complexes():
    rng = random.Random(7)
    for _ in range(20):
        N = random_strict(rng, nfactors=2)
        M = koszul_t(N)
        out = M.cohomology()
        assert set(out) == {("u1", 0), ("u1", 1), ("u2", 0), ("u2", 1)}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_koszul_dual_classes_match_the_min_search_oracle(rng):
    C = koszul_t(random_strict(rng)).complex()
    got = [(c.degree, c.annihilator.degree() if c.annihilator else 0)
           for c in C.cohomology()]
    assert got == oracle_classes(C)
    for _, B in direct_summands(C.D):
        rw, cw, var = _grading(B)
        want = min_search_pivots(B, rw, cw)
        assert smith_factors(B) == (len(want), [Scalar.monomial(1, e, var)
                                                for _, _, e in want])


# -- specialization at u = 0 -----------------------------------------------

def test_at_zero_recovers_the_plain_complex():
    rng = random.Random(11)
    fixtures = [regular_lambda(), sphere_pair(), p1_rotation()]
    fixtures += [random_strict(rng) for _ in range(10)]
    for N in fixtures:
        D = koszul_t(N).complex().D
        A = FiniteComplex(N.tokens, Matrix(D.nrows, D.ncols, {
            k: v.subs(0) for k, v in D.data.items()}))
        B = FiniteComplex(N.tokens, N.d)
        assert A.D.data == B.D.data
        assert Counter(c.degree for c in A.cohomology()) == \
            Counter(c.degree for c in B.cohomology())


def test_q_classes_match_the_graded_cohomology_oracle():
    rng = random.Random(15)
    nonzero = 0
    for _ in range(300):
        N = random_strict(rng)
        C = FiniteComplex(N.tokens, N.d)
        classes = C.cohomology()
        assert all(c.annihilator is None for c in classes)
        assert Counter(c.degree for c in classes) == q_cohomology_counts(C)
        nonzero += bool(C.D.data)
    assert nonzero


# -- the duality on stock modules ------------------------------------------

def test_regular_module_gives_the_torsion_point_class():
    M = koszul_t(regular_lambda())
    classes = M.complex().cohomology()
    assert len(classes) == 1
    assert classes[0].degree == 0
    assert format_scalar(classes[0].annihilator) == "u"
    free, tors = M.rank_and_torsion()
    assert free == 0
    assert [format_scalar(f) for f in tors] == ["u"]


def test_zero_operators_give_a_free_module():
    M = koszul_t(sphere_pair())
    classes = M.complex().cohomology()
    assert [(c.degree, c.annihilator) for c in classes] == [
        (0, None), (2, None)]
    assert M.rank_and_torsion() == (2, [])


def test_round_trip_is_exact_on_mixed_complexes():
    for N in [regular_lambda(), sphere_pair(), p1_rotation()]:
        again = koszul_t(N).mixed
        assert again.to_dict() == N.to_dict()


def test_round_trip_preserves_torsion_type():
    u = Scalar.variable("u")
    toks = [BasisToken("m1", 1), BasisToken("m0", 0)]
    C = FiniteComplex(toks, {0: {1: u}}, var="u")
    M = ucomplex_from_finite(C)
    back = koszul_t(M.mixed).complex()
    assert back.D.data == C.D.data
    assert class_shape(back) == [(0, "u")]

    free = FiniteComplex([BasisToken("g", 0)], {}, var="u")
    M2 = ucomplex_from_finite(free)
    assert koszul_t(M2.mixed).complex().cohomology()[0].annihilator is None


def test_quadratic_entries_are_refused():
    u = Scalar.variable("u")
    toks = [BasisToken("a", 3), BasisToken("b", 0)]
    C = FiniteComplex(toks, {0: {1: u * u}}, var="u")
    with pytest.raises(ValueError, match="degree >= 2"):
        ucomplex_from_finite(C)


# -- Cartan models ---------------------------------------------------------

def test_scaling_action_on_the_line():
    M = cartan_model([1], 4)
    assert [t.name for t in M.tokens] == ["1"]
    classes = M.complex().cohomology()
    assert len(classes) == 1
    assert classes[0].degree == 0 and classes[0].annihilator is None


def test_trivial_action_on_the_line():
    M = cartan_model([0], 3)
    # truncated de Rham complex of the line, tensored up: contractible
    # onto the constants
    assert M.rank_and_torsion() == (1, [])


def test_opposite_weights_on_the_plane():
    M = cartan_model([1, -1], 4)
    names = [t.name for t in M.tokens]
    assert "x1 x2" in names and "dx1 dx2" in names
    classes = M.complex().cohomology()
    assert [(c.degree, c.annihilator) for c in classes] == [(0, None)]
    assert M.rank_and_torsion() == (1, [])


def test_weight_sign_flip_gives_isomorphic_cohomology():
    for w in ([2], [1, -1], [1, 2]):
        A = cartan_model(w, 4)
        B = cartan_model([-x for x in w], 4)
        assert class_shape(A.complex()) == class_shape(B.complex())
        assert [t.name for t in A.tokens] == [t.name for t in B.tokens]


def test_two_factor_model_on_the_plane():
    M = cartan_model([(1, 0), (0, 1)], 3)
    assert [t.name for t in M.tokens] == ["1"]
    out = M.cohomology()
    for key in [("u1", 0), ("u1", 1), ("u2", 0), ("u2", 1)]:
        assert out[key] == {"free_rank": 1, "torsion": []}


# Affine space is equivariantly contractible, so whatever the weights its
# Cartan model has the cohomology of a point: Q[u] in degree 0.  With
# several factors each specialization of the other variables keeps that
# one free class.

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       st.integers(1, 6))
def test_one_factor_cartan_model_is_a_point(weights, cutoff):
    classes = cartan_model(weights, cutoff).cohomology()
    assert [(c.degree, c.annihilator) for c in classes] == [(0, None)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=3),
       st.integers(1, 5))
def test_two_factor_cartan_model_is_a_point(weights, cutoff):
    M = cartan_model(weights, cutoff)
    assert M.cohomology() == {
        (label, val): {"free_rank": 1, "torsion": []}
        for label in M.labels for val in (0, 1)}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=4)),
       st.integers(1, 5))
def test_cartan_model_by_content_matches_the_candidate_loop(weights, D):
    """Listing the forms of each invariant content gives the tokens, d
    and h_i that testing every form for invariance gives."""
    M = cartan_model(weights, D)
    tokens, d0, hs = candidate_cartan_model(weights, D)
    assert M.tokens == tokens
    assert [t.name for t in M.tokens] == [t.name for t in tokens]
    assert M.mixed.d.data == d0.data
    assert [h.data for h in M.mixed.hs] == [h.data for h in hs]


def test_cartan_differential_is_checked_on_construction():
    # the model is built unchecked; its mixed identities are checked on
    # random weights below, and here the Koszul dual of one model
    M = cartan_model([1, -1], 4)
    assert_complex(M.complex())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=4)),
       st.integers(1, 4))
def test_cartan_model_is_strict(weights, D):
    """``cartan_model`` checks nothing at run time: its mixed complex
    has rational entries of the right degrees and passes ``validate``."""
    checked(cartan_model(weights, D).mixed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=4)),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_cartan_report_survives_permuting_the_coordinates(weights, D, rng):
    """Renumbering the coordinates of ``cartan --weights`` keeps the
    classes and the invariants of the report, and the number of forms
    in each degree; the form names change."""
    perm = list(weights)
    rng.shuffle(perm)
    reports = [run_cli("cartan", "--weights=" + ";".join(
                           ",".join(map(str, w)) for w in ws),
                       "--cutoff", str(D)) for ws in (weights, perm)]
    assert reports[0][0] == reports[1][0] == 0
    for key in ("classes", "invariants"):
        assert reports[0][1].get(key) == reports[1][1].get(key)
    assert (Counter(t.degree for t in cartan_model(weights, D).tokens)
            == Counter(t.degree for t in cartan_model(perm, D).tokens))


# -- localization ----------------------------------------------------------

def test_identity_localizes_trivially():
    N = p1_rotation()
    res = localize_check(N, N, {i: {i: 1} for i in range(4)}, ["u"])
    assert res["iso_after_localization"] is True
    assert res["cokernel_annihilator"] == "1"
    assert res["kernel_factors"] == []


def test_fixed_point_inclusion_for_the_rotating_sphere():
    NX = p1_rotation()
    NZ = p1_fixed_points()
    res = localize_check(NZ, NX, p1_inclusion(), ["u"])
    assert res["iso_after_localization"] is True
    assert res["cokernel_annihilator"] == "u"
    assert res["cokernel_factors"] == ["u"]
    assert res["kernel_factors"] == []


def test_rank_matches_the_fixed_point_dimension():
    NX = p1_rotation()
    NZ = p1_fixed_points()
    free, tors = koszul_t(NX).rank_and_torsion()
    fixed_dim = len(FiniteComplex(NZ.tokens, NZ.d).cohomology())
    assert free == fixed_dim == 2
    assert tors == []


def test_dropping_a_fixed_point_breaks_the_verdict():
    NX = p1_rotation()
    NZ = p1_fixed_points()
    res = localize_check(NZ, NX, {0: {0: 1}}, ["u"])
    assert res["iso_after_localization"] is False
    assert "0" in res["cokernel_factors"]
    assert "0" in res["kernel_factors"]


def test_free_action_has_empty_fixed_locus():
    res = localize_check(zero_mixed(), regular_lambda(), {}, ["u"])
    assert res["iso_after_localization"] is True
    assert res["cokernel_annihilator"] == "u"


def test_non_chain_maps_are_rejected_with_a_witness():
    # commutes with d (both zero) but not with h
    NZ2 = MixedComplex([BasisToken("a", 1)], {}, [{}])
    with pytest.raises(ValueError, match="commute with h_1"):
        check_mixed_map(NZ2, regular_lambda(), {0: {0: 1}})


def test_maps_with_polynomial_entries_are_rejected():
    # p -> u x and q -> y has degree 0 and commutes with d and h, but a
    # mixed map is a map over Q, so it is refused where it is read
    def side(N):
        return name_index([t.name for t in N.tokens], "token", "localize",
                          "/tokens/%d/name"), N.tokens
    for var in ("u", "t"):
        with pytest.raises(ValueError) as err:
            read_map({"p": {"x": var}, "q": {"y": "1"}},
                     side(p1_fixed_points()), side(p1_rotation()),
                     "localize", "/map", "map", 0)
        assert str(err.value) == ("localize: entry %r is not a rational "
                                  "number at /map/p/x" % var)


def test_cone_agrees_with_the_verdict():
    NX = p1_rotation()
    NZ = p1_fixed_points()
    cases = [
        (p1_inclusion(), True),
        ({0: {0: 1}}, False),
    ]
    for iota, expect in cases:
        res = localize_check(NZ, NX, iota, ["u"])
        free, tors = cone_invariants(NZ, NX, iota)
        cone_ok = free == 0 and all(
            divides_power(f, Scalar.variable("u")) for f in tors)
        assert res["iso_after_localization"] is expect
        assert cone_ok is expect


def direct_sum(A, B):
    """A + B as a mixed complex, with the tokens of B renamed apart."""
    n, m = len(A.tokens), len(B.tokens)
    tokens = A.tokens + [BasisToken("b" + t.name, t.degree)
                         for t in B.tokens]

    def block(P, Q):
        entries = dict(P.data)
        entries.update({(i + n, j + n): v for (i, j), v in Q.data.items()})
        return Matrix(n + m, n + m, entries)

    return MixedComplex(tokens, block(A.d, B.d),
                        [block(P, Q) for P, Q in zip(A.hs, B.hs)])


def localize_oracle(NZ, NX, iota):
    """(cokernel, kernel) of H(t(iota)), each as (free rank, torsion
    factors): the kernel is span(gens) / im XZ by ``quotient_invariants``,
    where gens are the nonzero x-parts of ker [F | XX], and the cokernel
    comes from the general elimination of [F | XX].  This is the route
    ``localize_check`` took before it solved for coordinates in a basis
    of the kernel."""
    iota = check_mixed_map(NZ, NX, iota)
    SZ, XZ = presentation(koszul_t(NZ).complex().D)
    SX, XX = presentation(koszul_t(NX).complex().D)
    F = [SX.kernel_coordinates(iota.apply(kz)) for kz in SZ.kernel_basis()]
    SB = general_smith(Matrix.from_columns(
        XX.nrows, F + [XX.column(j) for j in range(XX.ncols)]))
    gens = [{i: v for i, v in k.items() if i < len(F)}
            for k in SB.kernel_basis()]
    kernel = quotient_invariants(XZ.nrows, [g for g in gens if g],
                                 [XZ.column(j) for j in range(XZ.ncols)])
    cokernel = XX.nrows - SB.rank, [f for f in SB.factors if f.degree() > 0]
    return cokernel, kernel


def test_localize_kernel_matches_the_quotient_oracle():
    # A, B random; maps: zero A -> B, c id on A, and the inclusion,
    # projection and projector of the summand A of A + B
    rng = random.Random(14)
    kernel_torsion = 0
    for _ in range(150):
        A, B = random_strict(rng), random_strict(rng)
        X = direct_sum(A, B)
        on_a = {j: {j: 1} for j in range(len(A.tokens))}
        c = rng.choice([2, -3, Fraction(1, 2)])
        maps = [(A, B, {}), (A, A, {j: {j: c} for j in on_a}),
                (A, X, on_a), (X, A, on_a), (X, X, on_a)]
        for NZ, NX, iota in maps:
            (cfree, ctors), (kfree, ktors) = localize_oracle(NZ, NX, iota)
            for inverted in ("u", "u + 1", "2"):
                res = localize_check(NZ, NX, iota, [inverted])
                assert res["iso_after_localization"] == (
                    cfree == kfree == 0 and all(
                        divides_power(f, parse_scalar(inverted))
                        for f in ctors + ktors))
                assert res["cokernel_factors"] == [
                    format_scalar(f) for f in ctors] + ["0"] * cfree
                assert res["kernel_factors"] == [
                    format_scalar(f) for f in ktors] + ["0"] * kfree
            kernel_torsion += bool(ktors)
    assert kernel_torsion


def test_module_invariants_match_the_quotient_route():
    rng = random.Random(5)
    models = [cartan_model([(1, 0), (0, 1), (-1, -1)], 6)]
    models += [koszul_t(random_strict(rng, nfactors=2)) for _ in range(10)]
    mats = [M._specialized_matrix(i, Fraction(val))
            for M in models for i in range(2) for val in (0, 1)]
    NX, NZ = p1_rotation(), p1_fixed_points()
    for iota in (p1_inclusion(), {0: {0: 1}}, {}):
        mats.append(mapping_cone(NZ, NX, iota).D)
    mats.append(mapping_cone(NX, NX, {i: {i: 1} for i in range(4)}).D)
    torsion_seen = False
    for D in mats:
        free, tors = _module_invariants(D)
        assert (free, tors) == quotient_route(D)
        torsion_seen = torsion_seen or bool(tors)
    assert torsion_seen


# Random square-zero matrices made of blocks S -> T: every entry sends a
# source index to a target index, and no target is a source.  The indices
# of all blocks are shuffled together.

@st.composite
def block_sums(draw, entry):
    """(tokens' degrees, entries) of a block sum whose entries are drawn
    by ``entry(source degree, target degree)``, which returns None or a
    strategy."""
    degrees, spans, entries = [], [], {}
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.integers(-3, 3))
        src = [base - 2 * draw(st.integers(0, 1))
               for _ in range(draw(st.integers(1, 2)))]
        tgt = [base + 1 - 2 * draw(st.integers(0, 2))
               for _ in range(draw(st.integers(0, 2)))]
        first = len(degrees)
        degrees += src + tgt
        spans.append((first, len(src), len(tgt)))
    perm = draw(st.permutations(range(len(degrees))))
    for first, ns, nt in spans:
        for s in range(first, first + ns):
            for t in range(first + ns, first + ns + nt):
                pick = entry(degrees[s], degrees[t])
                v = draw(pick) if pick is not None else ZERO
                if not v.is_zero():
                    entries[(perm[t], perm[s])] = v
    shuffled = [0] * len(degrees)
    for old, new in enumerate(perm):
        shuffled[new] = degrees[old]
    return shuffled, entries


def _graded_entry(ds, dt):
    # c * u^k from degree ds to degree dt needs ds + 1 = dt + 2k
    k, odd = divmod(ds + 1 - dt, 2)
    if odd or k < 0:
        return None
    return st.integers(-2, 2).map(
        lambda c: Scalar.monomial(Fraction(c), k, "u") if c else ZERO)


_any_poly = st.lists(st.integers(-2, 2), max_size=3).map(
    lambda cs: Scalar("u", tuple(Fraction(c) for c in cs)))


@settings(max_examples=150, deadline=None)
@given(block_sums(_graded_entry))
def test_classes_per_block_match_the_whole_matrix(case):
    degrees, entries = case
    tokens = [BasisToken("t%d" % k, g) for k, g in enumerate(degrees)]
    n = len(tokens)
    C = FiniteComplex(tokens, Matrix(n, n, entries), var="u")
    assert_complex(C)
    assert classes_of(C) == whole_matrix_classes(C)
    assert _module_invariants(C.D) == whole_matrix_invariants(C.D)


@settings(max_examples=150, deadline=None)
@given(block_sums(lambda ds, dt: _any_poly))
def test_module_invariants_per_block_match_the_whole_matrix(case):
    degrees, entries = case
    n = len(degrees)
    D = Matrix(n, n, entries)
    assert _module_invariants(D) == whole_matrix_invariants(D)
    for _, B in direct_summands(D):
        assert _module_invariants(B) == presentation_invariants(B)


def test_torsion_of_coprime_blocks_is_one_factor():
    # Q[u]/(u) + Q[u]/(u + 1) = Q[u]/(u^2 + u)
    u = Scalar.variable("u")
    D = Matrix(4, 4, {(1, 0): u, (3, 2): u + 1})
    assert len(direct_summands(D)) == 2
    free, tors = _module_invariants(D)
    assert free == 0 and [format_scalar(f) for f in tors] == ["u^2 + u"]
    assert whole_matrix_invariants(D) == (free, tors)


def test_cartan_classes_per_block_match_the_whole_matrix():
    for weights, cutoff in (([3, -3, -1, -1], 4), ([1, -1, 2], 5),
                            ([2, -3, 2, 3], 5)):
        C = cartan_model(weights, cutoff).complex()
        assert classes_of(C) == whole_matrix_classes(C)
        assert _module_invariants(C.D) == whole_matrix_invariants(C.D)


def test_quotient_invariants_helper():
    # Q[u]^2 / span((u, 0), (0, u^2)): torsion u, u^2
    u = Scalar.variable("u")
    gens = [{0: ONE}, {1: ONE}]
    rels = [{0: u}, {1: u * u}]
    free, tors = quotient_invariants(2, gens, rels)
    assert free == 0
    assert sorted(format_scalar(f) for f in tors) == ["u", "u^2"]
    # a redundant generator only adds a unit factor, which is dropped
    free, tors = quotient_invariants(2, gens + [{0: ONE, 1: ONE}], rels)
    assert free == 0
    assert sorted(format_scalar(f) for f in tors) == ["u", "u^2"]


@pytest.mark.parametrize("name", sorted(presets.MIXED_PRESETS))
def test_mixed_presets_are_strict(name):
    """The presets are built in code, where no reader checks them."""
    checked(presets.MIXED_PRESETS[name]["build"]())


@pytest.mark.parametrize("name", sorted(presets.LOCALIZE_PRESETS))
def test_localize_presets_are_strict_with_a_chain_map(name):
    NZ, NX, iota, _ = presets.LOCALIZE_PRESETS[name]["build"]()
    checked(NZ)
    checked(NX)
    iota = check_mixed_map(NZ, NX, iota)
    for (i, j), v in iota.data.items():
        assert v.is_const() and NX.tokens[i].degree == NZ.tokens[j].degree


def test_serialization_round_trip():
    for N in [regular_lambda(), p1_rotation()]:
        data = N.to_dict()
        again = MixedComplex.from_dict(data)
        assert again.to_dict() == data


# -- metamorphic: a change of basis keeps every report ----------------------

def change_of_basis(rng, tokens):
    """(P, P^-1, tokens in the new basis) for P a random integer
    unitriangular matrix inside each degree, followed by a permutation
    of the tokens."""
    n = len(tokens)
    P, Pinv = Matrix.identity(n), Matrix.identity(n)
    for _ in range(rng.randrange(3 * n + 1)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if a == b or tokens[a].degree != tokens[b].degree:
            continue
        c = rng.choice([1, -1, 2, -3])
        P = P.mul(Matrix(n, n, {(a, b): c}).add(Matrix.identity(n)))
        Pinv = Matrix(n, n, {(a, b): -c}).add(Matrix.identity(n)).mul(Pinv)
    perm = list(range(n))
    rng.shuffle(perm)
    Pi = Matrix(n, n, {(perm[k], k): 1 for k in range(n)})
    new = [None] * n
    for k, t in enumerate(tokens):
        new[perm[k]] = t
    return Pi.mul(P), Pinv.mul(Pi.transpose()), new


def conjugated(rng, N):
    """(N in a random new basis, P, P^-1)."""
    P, Pinv, tokens = change_of_basis(rng, N.tokens)
    return (checked(MixedComplex(tokens, P.mul(N.d).mul(Pinv),
                                 [P.mul(h).mul(Pinv) for h in N.hs])),
            P, Pinv)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 2))
def test_koszul_report_survives_a_change_of_basis(rng, nfactors):
    N = random_strict(rng, nfactors)
    M, _, _ = conjugated(rng, N)
    if nfactors == 1:
        assert (classes_of(koszul_t(M).complex())
                == classes_of(koszul_t(N).complex()))
    else:
        assert koszul_t(M).cohomology() == koszul_t(N).cohomology()


def p1_pairs():
    """(fixed, total, map) of P^1-type: the inclusion of the fixed
    points, of one of them, of none, and the identity of the total."""
    NZ, NX = p1_fixed_points(), p1_rotation()
    return [(NZ, NX, p1_inclusion()), (NZ, NX, {0: {0: 1}}), (NZ, NX, {}),
            (NX, NX, {i: {i: 1} for i in range(4)})]


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_localize_verdict_survives_a_change_of_basis(rng):
    # a P^1-type pair plus the identity of a random strict complex
    NZ, NX, iota = rng.choice(p1_pairs())
    A = random_strict(rng)
    nz, nx = len(NZ.tokens), len(NX.tokens)
    iota = Matrix.of_columns(nx + len(A.tokens), nz + len(A.tokens), iota)
    iota = iota.add(Matrix(iota.nrows, iota.ncols, {
        (nx + k, nz + k): 1 for k in range(len(A.tokens))}))
    NZ, NX = direct_sum(NZ, A), direct_sum(NX, A)
    invert = [rng.choice(["u", "u + 1", "2"])]
    MZ, _, PZinv = conjugated(rng, NZ)
    MX, PX, _ = conjugated(rng, NX)
    assert (localize_check(MZ, MX, PX.mul(iota).mul(PZinv), invert)
            == localize_check(NZ, NX, iota, invert))
