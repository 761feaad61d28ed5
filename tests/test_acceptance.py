"""Full-surface gate.

Every pinned value here is either recomputed independently inside this
file (series coefficients, structure constants, critical levels solved
from obstruction gcds) or is a frozen hand-checked output; nothing is
read back from the code under test.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from opelab.scalars import Scalar, ZERO, ONE, sc, sc_gcd, format_scalar
from opelab.vla import (Gen, VertexLieData, current_algebra,
                        heisenberg, kac_moody_sl2, virasoro, weyl_pair,
                        check_jacobi, check_sesquilinearity,
                        check_skew_symmetry, SL2_KAPPA)
from opelab.envelope import VertexAlgebra
from opelab.brst import abelian_datum, pure_ghost_datum, wakimoto_datum
from opelab.linalg import BasisToken, FiniteComplex, vec_scale as scale_state
from opelab.equivariant import (MixedComplex, koszul_t, cartan_model,
                                localize_check, regular_lambda,
                                sphere_pair, p1_rotation, p1_fixed_points,
                                p1_inclusion)
from opelab.operads import (check_relations, conf_ring,
                            homology_p_d_bridge, heisenberg_rank4,
                            odd_symplectic_bv, odd_symplectic_bd0)
from opelab import presets
from opelab.cli import main as cli_main
from brst_oracle import kappa_ghost, level_defect
from envelope_oracle import check_vertex_axioms
from smith_oracle import (assert_complex, rank_and_torsion,
                          ucomplex_from_finite)


# -- singular product tables ----------------------------------------------

def test_virasoro_singular_products():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    l = V.gen_state("l")
    ope = V.singular_ope(l, l)
    assert set(ope) == {0, 1, 3}
    assert V.format_state(ope[0]) == "Tl"
    assert V.format_state(ope[1]) == "2l"
    assert V.format_state(ope[3]) == "(c/2)Ω"
    assert ope[3] == {(): Scalar.variable("c").scale(Fraction(1, 2))}


# sl2 constants spelled out by hand: [e,f] = h, [h,e] = 2e, [h,f] = -2f,
# and the invariant pairing normalized by kappa(h,h) = 2, kappa(e,f) = 1.
SL2_BRACKET = {("e", "h"): ("e", -2), ("h", "e"): ("e", 2),
               ("f", "h"): ("f", 2), ("h", "f"): ("f", -2),
               ("e", "f"): ("h", 1), ("f", "e"): ("h", -1)}
SL2_PAIRING = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


def test_sl2_singular_products():
    c = Scalar.variable("c")
    V = VertexAlgebra(kac_moody_sl2(c))
    for a, b in itertools.product("ehf", repeat=2):
        want = {}
        if (a, b) in SL2_BRACKET:
            g, q = SL2_BRACKET[(a, b)]
            want[0] = scale_state(V.gen_state(g), q)
        if (a, b) in SL2_PAIRING:
            want[1] = {(): c.scale(SL2_PAIRING[(a, b)])}
        got = V.singular_ope(V.gen_state(a), V.gen_state(b))
        assert got == want, (a, b)


def test_heisenberg_singular_products():
    c = Scalar.variable("c")
    V = VertexAlgebra(heisenberg(c))
    b = V.gen_state("b")
    assert V.singular_ope(b, b) == {1: {(): c}}


def test_symplectic_pair_singular_products():
    V = VertexAlgebra(weyl_pair(odd=False))
    phi, phis = V.gen_state("phi"), V.gen_state("phi_star")
    assert V.singular_ope(phi, phis) == {0: {(): ONE}}
    assert V.singular_ope(phis, phi) == {0: {(): sc(-1)}}
    assert V.singular_ope(phi, phi) == {}
    assert V.singular_ope(phis, phis) == {}


def test_clifford_pair_singular_products():
    V = VertexAlgebra(weyl_pair(odd=True, names=("psi", "psi_star")))
    psi, psis = V.gen_state("psi"), V.gen_state("psi_star")
    assert V.singular_ope(psi, psis) == {0: {(): ONE}}
    assert V.singular_ope(psis, psi) == {0: {(): ONE}}
    assert V.singular_ope(psi, psi) == {}
    assert V.singular_ope(psis, psis) == {}


# -- graded dimensions -----------------------------------------------------

def mode_partition_counts(gen_weights, W):
    """Coefficients of prod_g prod_{n >= 1} (1 - q^(wt_g + n - 1))^(-1),
    the free even mode count, through q^W."""
    coeffs = [0] * (W + 1)
    coeffs[0] = 1
    for wt in gen_weights:
        for w in range(wt, W + 1):
            for i in range(w, W + 1):
                coeffs[i] += coeffs[i - w]
    return coeffs


def test_virasoro_weight_dimensions():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    got = [len(V.basis(w)) for w in range(7)]
    assert got == mode_partition_counts([2], 6)
    assert got == [1, 0, 1, 1, 2, 2, 4]


def test_sl2_weight_dimensions():
    V = VertexAlgebra(kac_moody_sl2(Scalar.variable("k")))
    got = [len(V.basis(w)) for w in range(4)]
    assert got == mode_partition_counts([1, 1, 1], 3)
    assert got == [1, 3, 9, 22]


def test_heisenberg_weight_dimensions():
    V = VertexAlgebra(heisenberg(Scalar.variable("t")))
    got = [len(V.basis(w)) for w in range(5)]
    assert got == mode_partition_counts([1], 4)
    assert got == [1, 1, 2, 3, 5]


# -- axiom sweeps ----------------------------------------------------------

SHIPPED = [
    ("virasoro", lambda: virasoro(Scalar.variable("c"))),
    ("sl2", lambda: kac_moody_sl2(Scalar.variable("k"))),
    ("heisenberg", lambda: heisenberg(Scalar.variable("t"))),
    ("symplectic-pair", lambda: weyl_pair(odd=False)),
    ("clifford-pair", lambda: weyl_pair(odd=True,
                                        names=("psi", "psi_star"))),
]


@pytest.mark.parametrize("name,build", SHIPPED,
                         ids=[n for n, _ in SHIPPED])
def test_bracket_axioms(name, build):
    L = build()
    assert check_sesquilinearity(L).ok
    assert check_skew_symmetry(L).ok
    assert check_jacobi(L, cutoff=6).ok


@pytest.mark.parametrize("name,build", SHIPPED,
                         ids=[n for n, _ in SHIPPED])
def test_envelope_axioms(name, build):
    V = VertexAlgebra(build())
    assert check_vertex_axioms(V, cutoff=4).ok


def test_inhomogeneous_bracket_caught_with_witness():
    L = VertexLieData([Gen("x", 1)],
                      {(0, 0, 0): {(0, 1): ONE}})
    rep = check_sesquilinearity(L)
    assert not rep.ok
    assert "weight" in rep.violations[0]["message"]


def test_broken_skew_symmetry_caught_with_witness():
    L = VertexLieData([Gen("b", 1)],
                      {(0, 0, 0): {(0, 0): ONE}})
    assert check_sesquilinearity(L).ok
    rep = check_skew_symmetry(L)
    assert not rep.ok
    assert rep.violations[0]["pair"] == ("b", "b", 0)


# [h, e] = 3e against [e, f] = h cannot satisfy the commutator law
BAD_SL2_STRUCT = {
    (0, 1): [(0, -3)], (1, 0): [(0, 3)],
    (1, 2): [(2, -2)], (2, 1): [(2, 2)],
    (0, 2): [(1, 1)], (2, 0): [(1, -1)],
}


def test_broken_structure_constants_caught_with_witness():
    L = current_algebra(["e", "h", "f"], BAD_SL2_STRUCT, SL2_KAPPA, sc(1))
    rep = check_jacobi(L, cutoff=4)
    assert not rep.ok
    assert rep.violations[0]["message"]


def test_broken_envelope_caught_with_witness():
    L = current_algebra(["e", "h", "f"], BAD_SL2_STRUCT, SL2_KAPPA, sc(1))
    rep = check_vertex_axioms(VertexAlgebra(L), cutoff=2)
    assert not rep.ok
    assert rep.violations[0]["message"]


# -- reduction -------------------------------------------------------------

def entry_gcd(entries):
    g = ZERO
    for e in entries:
        g = sc_gcd(g, e)
    return g


def unique_root(entries):
    """The single common rational zero of a family of polynomials, found
    by taking their gcd and insisting it is linear."""
    g = entry_gcd(entries)
    assert g.degree() == 1, format_scalar(g)
    assert all(e.divmod(g)[1].is_zero() for e in entries)
    return -g.coeffs[0] / g.coeffs[1]


def test_rank_one_datum_level_condition():
    D = abelian_datum("t", cutoff=4)
    rep, entries = D.check_d_squared(4)
    assert not rep.ok and entries
    # the only level with a square-zero differential is the one where
    # the matter level cancels the (here vanishing) ghost level
    root = unique_root(entries)
    assert root == 0
    assert kappa_ghost(D) == {("b", "b"): ZERO}
    rep, _ = D.specialize(root).check_d_squared(4)
    assert rep.ok


def test_ghost_only_datum_has_zero_differential():
    D = pure_ghost_datum(cutoff=4)
    assert D.brst_charge() == {}
    assert D.d_matrix(3, None)[0].is_zero()
    assert D.cohomology_dims(3) == D.block_dims(3)


def test_free_field_datum_critical_level():
    D = wakimoto_datum("t", cutoff=3)
    rep, entries = D.check_d_squared(2)
    assert not rep.ok and entries
    root = unique_root(entries)
    # the matter level must cancel the ghost level at exactly this root
    defect = [v for v in level_defect(D).values() if not v.is_zero()]
    assert defect and all(v.evaluate(root) == 0 for v in defect)

    Dc = wakimoto_datum(root, cutoff=3)
    rep, _ = Dc.check_d_squared(3)
    assert rep.ok
    H = Dc.brst_cohomology(2)
    assert H[(0, 0, 0)] == 1
    chi_h, chi_c = Dc.euler_characteristics(2)
    for w in range(3):
        assert chi_h.get(w, 0) == chi_c.get(w, 0), w


# -- polynomial-side duality -----------------------------------------------

def class_shape(classes):
    out = [(c.degree, None if c.annihilator is None
            else format_scalar(c.annihilator)) for c in classes]
    return sorted(out, key=lambda t: (t[0], t[1] is not None, t[1] or ""))


def test_regular_module_dualizes_to_the_point_class():
    M = koszul_t(regular_lambda())
    assert class_shape(M.cohomology()) == [(0, "u")]


def test_trivial_operator_dualizes_to_a_free_module():
    M = koszul_t(sphere_pair())
    assert class_shape(M.cohomology()) == [(0, None), (2, None)]


def _free_line():
    return ucomplex_from_finite(FiniteComplex(
        [BasisToken("g", 0)], {}, var="u"))


def _point_module():
    u = Scalar.variable("u")
    return ucomplex_from_finite(FiniteComplex(
        [BasisToken("m1", 1), BasisToken("m0", 0)], {0: {1: u}}, var="u"))


def _random_three_term(rng):
    """Square-zero complex over Q[u] on tokens in degrees 0..2, with
    entries of u-degree at most one, assembled from independent blocks."""
    u = Scalar.variable("u")
    tokens, diff = [], {}

    def add(deg):
        tokens.append(BasisToken("t%d" % len(tokens), deg))
        return len(tokens) - 1

    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(["point", "dpair", "hpair", "quad"])
        q = sc(rng.choice([1, -1, 2, -2, 3]))
        if kind == "point":
            add(rng.randrange(0, 3))
        elif kind == "dpair":
            k = rng.randrange(0, 2)
            a, b = add(k), add(k + 1)
            diff[a] = {b: q}
        elif kind == "hpair":
            k = rng.randrange(1, 3)
            a, b = add(k), add(k - 1)
            diff[a] = {b: u * q}
        else:
            x, y = add(2), add(2)
            e, f = add(1), add(0)
            diff[e] = {x: q, y: sc(rng.choice([1, -1, 2])),
                       f: u * sc(rng.choice([1, -1]))}
    C = FiniteComplex(tokens, diff, var="u")
    assert_complex(C)
    return ucomplex_from_finite(C)


def test_duality_round_trip_preserves_cohomology():
    rng = random.Random(20260823)
    modules = [_free_line(), _point_module()]
    modules += [_random_three_term(rng) for _ in range(10)]
    for M in modules:
        back = koszul_t(M.mixed)
        assert back.complex().D.data == M.complex().D.data
        assert class_shape(back.cohomology()) == class_shape(M.cohomology())
    assert class_shape(_free_line().cohomology()) == [(0, None)]
    assert class_shape(_point_module().cohomology()) == [(0, "u")]


# -- invariant-form models -------------------------------------------------

def test_scaling_line_gives_a_free_module():
    M = cartan_model([1], 6)
    assert class_shape(M.cohomology()) == [(0, None)]
    assert rank_and_torsion(M) == (1, [])


def test_two_torus_plane_is_free_in_both_variables():
    M = cartan_model([(1, 0), (0, 1)], 3)
    assert [t.name for t in M.tokens] == ["1"]
    out = M.cohomology()
    assert set(out) == {("u1", 0), ("u1", 1), ("u2", 0), ("u2", 1)}
    for v in out.values():
        assert v == {"free_rank": 1, "torsion": []}


# -- localization ----------------------------------------------------------

def _u_power(s):
    return s == "u" or (s.startswith("u^") and s[2:].isdigit())


def test_fixed_point_comparison_for_the_rotating_line():
    res = localize_check(p1_fixed_points(), p1_rotation(),
                         p1_inclusion(), ["u"])
    assert res["iso_after_localization"] is True
    assert _u_power(res["cokernel_annihilator"])
    for f in res["cokernel_factors"] + res["kernel_factors"]:
        assert _u_power(f)


def test_free_action_comparison():
    NZ, NX, iota, invert = presets.LOCALIZE_PRESETS["free-circle"]["build"]()
    res = localize_check(NZ, NX, iota, invert)
    assert res["iso_after_localization"] is True
    for f in res["cokernel_factors"] + res["kernel_factors"]:
        assert _u_power(f)


def test_dropped_fixed_point_is_detected():
    NZ, NX, iota, invert = presets.LOCALIZE_PRESETS["p1-broken"]["build"]()
    res = localize_check(NZ, NX, iota, invert)
    assert res["iso_after_localization"] is False


# -- relation suites -------------------------------------------------------

def test_odd_symplectic_bv_suite():
    rep = check_relations(odd_symplectic_bv(), "BV")
    assert rep["passed"] and not rep["violations"]


def test_quantum_heisenberg_and_its_fibres():
    A = heisenberg_rank4()
    assert check_relations(A, "BD_1")["passed"]
    assert check_relations(A.specialize(0), "P_1")["passed"]
    assert check_relations(A.specialize(1), "Ass")["passed"]


def test_bd0_deformed_leibniz_holds_exactly():
    rep = check_relations(odd_symplectic_bd0(), "BD_0")
    assert rep["passed"]
    names = [r["name"] for r in rep["relations"]]
    assert "deformed Leibniz" in names


# -- configuration rings ---------------------------------------------------

def test_configuration_ring_totals_are_factorials():
    for n in range(1, 5):
        for d in (2, 3):
            assert conf_ring(n, d).total == math.factorial(n), (n, d)


def test_three_points_in_the_plane():
    assert conf_ring(3, 2).poincare() == "1 + 3t + 2t^2"


def test_pair_swap_sign_tracks_the_ambient_dimension():
    for d in (2, 3):
        b = homology_p_d_bridge(2, d)
        assert b["conf_degrees"] == [0, d - 1]
        assert b["swap_sign_conf"] == (-1) ** d
        assert b["swap_sign_operad"] == (-1) ** d
        assert b["match"]


# -- command-line byte stability -------------------------------------------

def _all_argvs():
    out = [["presets"],
           ["conf", "--n", "2", "--d", "2", "--bridge"],
           ["conf", "--n", "3", "--d", "2", "--bridge"],
           ["conf", "--n", "2", "--d", "3", "--bridge"],
           ["conf", "--n", "4", "--d", "3"]]
    for name in presets.VLA_PRESETS:
        out.append(["vla-check", "--preset", name])
        out.append(["ope", "--preset", name])
        out.append(["envelope-dims", "--preset", name])
    out.append(["envelope-dims", "--preset", "betagamma", "--charge", "0"])
    for name in presets.BRST_PRESETS:
        out.append(["brst", "--preset", name])
    for name in presets.MIXED_PRESETS:
        out.append(["koszul", "--preset", name])
    for name in presets.CARTAN_PRESETS:
        out.append(["cartan", "--preset", name])
    for name in presets.LOCALIZE_PRESETS:
        out.append(["localize", "--preset", name])
    for name in presets.ALG_PRESETS:
        out.append(["operad-check", "--preset", name])
    out.append(["vla-check", "--input", "virasoro.json"])
    out.append(["ope", "--input", "kacmoody-sl2.json", "--a", "e",
                "--b", "f"])
    out.append(["koszul", "--input", "regular-lambda.json"])
    out.append(["koszul", "--input", "p1-rotation.json"])
    out.append(["operad-check", "--input", "heisenberg-hbar.json",
                "--suite", "BD_1"])
    return out


def test_cli_output_is_byte_stable(capsys):
    for argv in _all_argvs():
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1], argv
        if runs[0][1]:
            json.loads(runs[0][1])
