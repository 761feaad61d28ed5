import random
from fractions import Fraction

import pytest

from opelab.scalars import Scalar, ZERO, ONE, sc, format_scalar
from opelab.linalg import BasisToken, FiniteComplex, smith
from opelab.equivariant import (
    MixedComplex, UComplex, koszul_t, koszul_h, ucomplex_from_finite,
    cartan_model, localize_check, check_mixed_map, quotient_invariants,
    _module_invariants, divides_power, regular_lambda, sphere_pair,
    zero_mixed, p1_rotation, p1_fixed_points, p1_inclusion)


# -- oracles ---------------------------------------------------------------

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
    return FiniteComplex(tokens, diff, var="u", var_degree=2)


def cone_invariants(NZ, NX, iota):
    return _module_invariants(mapping_cone(NZ, NX, iota).D)


def quotient_route(D):
    """Module invariants of ker D / im D from the [kernel | image]
    presentation, the route the library took before it read coordinates
    off V^-1."""
    S = smith(D)
    img = [D.apply({i: S.V[i][j] for i in range(S.ncols)
                    if not S.V[i][j].is_zero()})
           for j in range(S.rank)]
    return quotient_invariants(D.nrows, S.kernel_basis(), img)


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
    return MixedComplex(tokens, d, hs)


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
        N.validate()
        koszul_t(N).complex()  # square-zero over Q[u] re-checked here


def test_strictness_failure_names_the_component():
    toks = [BasisToken("a", 0), BasisToken("b", 1), BasisToken("c", 0)]
    with pytest.raises(ValueError, match="d h_1 \\+ h_1 d"):
        MixedComplex(toks, {0: {1: 1}}, [{1: {2: 1}}])


def test_operator_degree_is_enforced():
    toks = [BasisToken("a", 0), BasisToken("b", 0)]
    with pytest.raises(ValueError, match="degree"):
        MixedComplex(toks, {}, [{0: {1: 1}}])


def _toks(*spec):
    return [BasisToken(n, g) for n, g in spec]


# Each complex has several bad entries.  The product checks name the
# entry with the lowest column, then the lowest row; the degree and
# polynomial-entry checks name the first entry in the order the maps were
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
    (_PQBCEF, {1: {2: _U}, 0: {4: 1}}, [],
     "d has a polynomial entry"),
    (_PQBCEF, {0: {4: 1}, 1: {2: _U}}, [],
     "d is not of degree +1: <p deg=0> -> <e deg=2>"),
    (_PQBCEF, {}, [{3: {0: 2 * _U}, 2: {0: 1}}],
     "h_1 has a polynomial entry"),
]


@pytest.mark.parametrize("tokens, d, hs, message", STRICTNESS)
def test_strictness_messages_name_the_first_witness(tokens, d, hs,
                                                     message):
    with pytest.raises(ValueError) as err:
        MixedComplex(tokens, d, hs)
    assert str(err.value) == message
    if hs:
        with pytest.raises(ValueError) as err:
            UComplex(tokens, d, hs)
        assert str(err.value) == message


def test_chain_map_messages_name_the_first_witness():
    # d sends x0 to y1 and x1 to y0; h sends x0 to f and x1 to e
    NX = MixedComplex(_toks(("x0", 0), ("x1", 0), ("y0", 1), ("y1", 1),
                            ("f", -1), ("e", -1)),
                      {0: {3: 1}, 1: {2: 1}}, [{0: {4: 1}, 1: {5: 1}}])
    NZ = MixedComplex(_toks(("p", 0), ("q", 0)), {}, [{}])
    cases = [
        ({1: {1: 1, 2: 1}, 0: {3: 1}},
         "map is not of degree 0: <q deg=0> -> <y0 deg=1>"),
        ({1: {1: 1}, 0: {0: 1}},
         "map fails to commute with d: component <p deg=0> -> <y1 deg=1>"),
    ]
    for iota, message in cases:
        with pytest.raises(ValueError) as err:
            check_mixed_map(NZ, NX, iota)
        assert str(err.value) == message
    # the same target without d: only h fails to commute
    NX2 = MixedComplex(NX.tokens, {}, [{0: {4: 1}, 1: {5: 1}}])
    with pytest.raises(ValueError) as err:
        check_mixed_map(NZ, NX2, {1: {0: 1}, 0: {1: 1}})
    assert str(err.value) == ("map fails to commute with h_1: component "
                              "<p deg=0> -> <e deg=-1>")


def test_finite_complex_square_zero_message():
    # FiniteComplex names the lowest row, then the lowest column
    with pytest.raises(ValueError) as err:
        FiniteComplex(_PQBCEF, {1: {3: 1, 2: 1}, 0: {2: 1}, 3: {4: 1},
                                2: {5: 1}})
    assert str(err.value) == ("d o d != 0: component <q deg=0> -> "
                              "<e deg=2> equals 1")


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


# -- specialization at u = 0 -----------------------------------------------

def test_at_zero_recovers_the_plain_complex():
    rng = random.Random(11)
    fixtures = [regular_lambda(), sphere_pair(), p1_rotation()]
    fixtures += [random_strict(rng) for _ in range(10)]
    for N in fixtures:
        A = koszul_t(N).at_zero()
        B = N.q_complex()
        assert A.D.data == B.D.data
        da = {k: len(v) for k, v in A.cohomology().items() if v}
        db = {k: len(v) for k, v in B.cohomology().items() if v}
        assert da == db


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
        again = koszul_h(koszul_t(N))
        assert again.to_dict() == N.to_dict()


def test_round_trip_preserves_torsion_type():
    u = Scalar.variable("u")
    toks = [BasisToken("m1", 1), BasisToken("m0", 0)]
    C = FiniteComplex(toks, {0: {1: u}}, var="u", var_degree=2)
    M = ucomplex_from_finite(C)
    back = koszul_t(koszul_h(M)).complex()
    assert back.D.data == C.D.data
    assert class_shape(back) == [(0, "u")]

    free = FiniteComplex([BasisToken("g", 0)], {}, var="u", var_degree=2)
    M2 = ucomplex_from_finite(free)
    assert koszul_t(koszul_h(M2)).complex().cohomology()[0].annihilator \
        is None


def test_quadratic_entries_are_refused():
    u = Scalar.variable("u")
    toks = [BasisToken("a", 3), BasisToken("b", 0)]
    C = FiniteComplex(toks, {0: {1: u * u}}, var="u", var_degree=2)
    with pytest.raises(ValueError, match="degree >= 2"):
        ucomplex_from_finite(C)


# -- Cartan models ---------------------------------------------------------

def test_scaling_action_on_the_line():
    M = cartan_model([1], 4)
    assert [t.name for t in M.tokens] == ["1"]
    classes = M.complex().cohomology()
    assert len(classes) == 1
    assert classes[0].degree == 0 and classes[0].annihilator is None
    assert M.truncation == 4


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


def test_cartan_differential_is_checked_on_construction():
    # construction itself validates d0 h + h d0 = 0 on invariants; a
    # quick independent check of one matrix identity
    M = cartan_model([1, -1], 4)
    C = M.complex()
    assert C.D.mul(C.D).is_zero()


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
    fixed_dim = sum(len(v)
                    for v in NZ.q_complex().cohomology().values())
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
    NX = p1_rotation()
    NZ = p1_fixed_points()
    bad = {0: {2: 1}}  # wrong degree
    with pytest.raises(ValueError, match="degree 0"):
        check_mixed_map(NZ, NX, bad)
    # commutes with d (both zero) but not with h
    NZ2 = MixedComplex([BasisToken("a", 1)], {}, [{}])
    with pytest.raises(ValueError, match="commute with h_1"):
        check_mixed_map(NZ2, regular_lambda(), {0: {0: 1}})


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


def test_serialization_round_trip():
    for N in [regular_lambda(), p1_rotation()]:
        data = N.to_dict()
        again = MixedComplex.from_dict(data)
        assert again.to_dict() == data
