from fractions import Fraction

import pytest

from opelab.scalars import Scalar, ONE, sc
from opelab.vla import (Gen, BrValue, VertexLieData, current_algebra,
                        heisenberg, kac_moody_sl2, virasoro, weyl_pair,
                        direct_sum, SL2_KAPPA)
from opelab.envelope import build_envelope
from opelab.linalg import vec_add as add_states, vec_scale as scale_state


# Independent dimension oracle: expand the super generating function
#   prod_gens prod_{n>=1} (1 - (-1)^p q^(n+wt-1))^(-(-1)^p)
# as a power series, without touching the PBW enumeration code.
def pbw_dims(gens, W):
    coeffs = [0] * (W + 1)
    coeffs[0] = 1
    for wt, parity in gens:
        w = wt  # weight of the first mode g_(-1)
        while w <= W:
            if parity == 0:
                if w == 0:
                    raise ValueError("even weight-0 mode: series diverges")
                for i in range(w, W + 1):
                    coeffs[i] += coeffs[i - w]
            else:
                if w == 0:
                    # odd weight-0 factor (1 + 1) doubles everything
                    coeffs = [2 * c for c in coeffs]
                else:
                    for i in range(W, w - 1, -1):
                        coeffs[i] += coeffs[i - w]
            w += 1
    return coeffs


def dims_of(V, W, q=None):
    return [len(V.basis(w, q)) for w in range(W + 1)]


def test_virasoro_dimensions():
    V = build_envelope(virasoro(Scalar.variable("c")), cutoff=6)
    got = dims_of(V, 6)
    assert got == pbw_dims([(2, 0)], 6)
    assert got == [1, 0, 1, 1, 2, 2, 4]


def test_sl2_dimensions():
    V = build_envelope(kac_moody_sl2(Scalar.variable("k")), cutoff=3)
    got = dims_of(V, 3)
    assert got == pbw_dims([(1, 0)] * 3, 3)
    assert got == [1, 3, 9, 22]


def test_heisenberg_dimensions():
    V = build_envelope(heisenberg(Scalar.variable("t")), cutoff=4)
    got = dims_of(V, 4)
    assert got == pbw_dims([(1, 0)], 4)
    assert got == [1, 1, 2, 3, 5]


def test_bc_pair_dimensions():
    V = build_envelope(weyl_pair(odd=True, names=("psi", "psi_star")),
                       cutoff=3)
    assert dims_of(V, 3) == pbw_dims([(1, 1), (0, 1)], 3)


def test_betagamma_needs_charge_window():
    V = build_envelope(weyl_pair(odd=False), cutoff=2)
    with pytest.raises(ValueError, match="charge"):
        V.basis(0)
    assert len(V.basis(0, 0)) == 1            # the vacuum
    assert len(V.basis(0, -2)) == 1           # phi*_(-1)^2
    assert len(V.basis(1, 0)) == 1            # :phi phi*:
    assert V.basis(1, -1) == [((-2, 1),),     # T phi*
                              ((-1, 0), (-1, 1), (-1, 1))]  # :phi phi*^2:


def test_cutoff_is_mandatory_and_enforced():
    with pytest.raises(ValueError, match="cutoff"):
        build_envelope(virasoro(sc(0)))
    V = build_envelope(virasoro(sc(0)), cutoff=2)
    with pytest.raises(ValueError, match="cutoff"):
        V.basis(3)


def test_modes_and_products_agree():
    # (x_(-1)|0>)_(n) = x_(n) as operators: the iterate recursion must
    # reproduce single-mode application on both sides of -1
    V = build_envelope(kac_moody_sl2(sc(2)), cutoff=3)
    e = V.gen_state("e")
    for name in ("e", "h", "f"):
        b = V.gen_state(name)
        for n in range(-3, 3):
            assert V.nth_product(e, n, b) == \
                V.apply_mode(V.L.gen("e"), n, b)


def test_translation_facts():
    V = build_envelope(virasoro(Scalar.variable("c")), cutoff=4)
    l = V.gen_state("l")
    tl = V.translate(l)
    assert tl == {((-2, 0),): ONE}
    assert V.translate(tl) == {((-3, 0),): sc(2)}
    assert V.nth_product(l, -2, V.vacuum()) == tl
    assert V.translate(V.vacuum()) == {}


def test_virasoro_ope():
    V = build_envelope(virasoro(Scalar.variable("c")), cutoff=4)
    l = V.gen_state("l")
    ope = V.singular_ope(l, l)
    c = Scalar.variable("c")
    assert set(ope) == {0, 1, 3}
    assert ope[0] == {((-2, 0),): ONE}           # T l
    assert ope[1] == {((-1, 0),): sc(2)}         # 2 l
    assert ope[3] == {(): c.scale(Fraction(1, 2))}


def test_sl2_ope():
    k = Scalar.variable("k")
    V = build_envelope(kac_moody_sl2(k), cutoff=2)
    e, h, f = (V.gen_state(n) for n in ("e", "h", "f"))
    assert V.nth_product(e, 0, f) == h
    assert V.nth_product(e, 1, f) == {(): k}
    assert V.nth_product(h, 1, h) == {(): 2 * k}
    assert V.nth_product(h, 0, e) == scale_state(e, 2)
    assert V.nth_product(h, 0, f) == scale_state(f, -2)
    assert V.nth_product(e, 0, e) == {}


def test_weyl_pair_zero_modes():
    V = build_envelope(weyl_pair(odd=False), cutoff=2)
    phi, phis = V.gen_state("phi"), V.gen_state("phi_star")
    assert V.nth_product(phi, 0, phis) == {(): ONE}
    assert V.nth_product(phis, 0, phi) == {(): sc(-1)}
    W = build_envelope(weyl_pair(odd=True, names=("psi", "psi_star")),
                       cutoff=2)
    psi, psis = W.gen_state("psi"), W.gen_state("psi_star")
    assert W.nth_product(psi, 0, psis) == {(): ONE}
    assert W.nth_product(psis, 0, psi) == {(): ONE}


def test_wick_level_of_bilinear_currents():
    # The gl1 current J = :phi phi*: of a symplectic (even) pair has
    # self-level -1; the odd-pair current has self-level +1.  These two
    # numbers are the anchors for every ghost-level computation.
    V = build_envelope(weyl_pair(odd=False), cutoff=3)
    J = V.normal_order(V.gen_state("phi"), V.gen_state("phi_star"))
    assert V.nth_product(J, 0, J) == {}
    assert V.nth_product(J, 1, J) == {(): sc(-1)}

    W = build_envelope(weyl_pair(odd=True, names=("psi", "psi_star")),
                       cutoff=3)
    eta = W.normal_order(W.gen_state("psi"), W.gen_state("psi_star"))
    assert W.nth_product(eta, 0, eta) == {}
    assert W.nth_product(eta, 1, eta) == {(): ONE}
    # reversing the odd normal ordering flips the current but not the level
    eta2 = W.normal_order(W.gen_state("psi_star"), W.gen_state("psi"))
    assert eta2 == scale_state(eta, -1)
    assert W.nth_product(eta2, 1, eta2) == {(): ONE}


def test_current_action_on_matter():
    # :phi phi*:_(0) phi = -phi and  :phi phi*:_(0) phi* = +phi*
    V = build_envelope(weyl_pair(odd=False), cutoff=3)
    J = V.normal_order(V.gen_state("phi"), V.gen_state("phi_star"))
    assert V.nth_product(J, 0, V.gen_state("phi")) == \
        scale_state(V.gen_state("phi"), -1)
    assert V.nth_product(J, 0, V.gen_state("phi_star")) == \
        V.gen_state("phi_star")


def test_axioms_virasoro():
    V = build_envelope(virasoro(Scalar.variable("c")), cutoff=4)
    assert V.check_vertex_axioms(cutoff=3).ok


def test_axioms_sl2():
    V = build_envelope(kac_moody_sl2(Scalar.variable("k")), cutoff=2)
    assert V.check_vertex_axioms(cutoff=2).ok


def test_axioms_betagamma():
    V = build_envelope(weyl_pair(odd=False), cutoff=2,
                       charge_window=(-2, 2))
    assert V.check_vertex_axioms(cutoff=2).ok


def test_axioms_bc():
    V = build_envelope(weyl_pair(odd=True, names=("psi", "psi_star")),
                       cutoff=2)
    assert V.check_vertex_axioms(cutoff=2).ok


def test_axioms_catch_inconsistent_table():
    # [h, e] = 3e against [e, f] = h cannot close: the two evaluation
    # paths of the mode commutator law disagree
    bad_struct = {
        (0, 1): [(0, -3)], (1, 0): [(0, 3)],
        (1, 2): [(2, -2)], (2, 1): [(2, 2)],
        (0, 2): [(1, 1)], (2, 0): [(1, -1)],
    }
    L = current_algebra(["e", "h", "f"], bad_struct, SL2_KAPPA, sc(1))
    V = build_envelope(L, cutoff=2)
    rep = V.check_vertex_axioms(cutoff=2)
    assert not rep.ok


def test_is_commutative():
    assert build_envelope(heisenberg(sc(0)), cutoff=2).is_commutative()
    assert not build_envelope(heisenberg(sc(1)), cutoff=2).is_commutative()
    pair = VertexLieData([Gen("x", 1), Gen("theta", 1, 1)], {})
    assert build_envelope(pair, cutoff=2).is_commutative()


# -- topological structure ---------------------------------------------


def _de_rham_pair():
    L = VertexLieData([Gen("x", 1), Gen("theta", 1, 1)], {})
    return build_envelope(L, cutoff=3)


def test_topological_pair_passes():
    V = _de_rham_pair()
    rep = V.check_topological(
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 1, 1)]},
    )
    assert rep.ok


def test_topological_framed_pair():
    V = _de_rham_pair()
    rep = V.check_topological(
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 1, 1)]},
        g_zero_rule={"x": [("theta", 0, 1)]},
    )
    assert rep.ok


def test_topological_violation_reported():
    V = _de_rham_pair()
    # g_{-1}(x) = theta (no derivative): [d, g_{-1}] gives x, not Tx
    rep = V.check_topological(
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 0, 1)]},
    )
    assert not rep.ok
    assert any("[d, g_{-1}]" in v["message"] for v in rep.violations)


def test_format_state():
    V = build_envelope(virasoro(Scalar.variable("c")), cutoff=4)
    l = V.gen_state("l")
    assert V.format_state(l) == "l"
    assert V.format_state(V.translate(l)) == "Tl"
    assert V.format_state(scale_state(l, 2)) == "2l"
    assert V.format_state({(): Scalar.variable("c").scale(Fraction(1, 2))}) \
        == "(c/2)Ω"
    two = V.nth_product(l, -1, l)
    assert ":" in V.format_state(two) or "T" in V.format_state(two)


# -- integer weights against the Fraction recursion ---------------------


def _fraction_weight(V, mono):
    return sum((V.L.gens[g].weight - k - 1 for k, g in mono), Fraction(0))


def _fraction_alive(V, ma, n, mb):
    """The j at which each term of the iterate identity is alive, from the
    Fraction loop the product recursion ran before it used integers."""
    m, g = ma[0]
    wt_rest = _fraction_weight(V, ma[1:])
    wt_b = _fraction_weight(V, mb)
    dg = V.L.gens[g].weight
    first, second = [], []
    j = 0
    while True:
        first_alive = wt_rest + wt_b - n - j - 1 >= 0
        second_alive = dg + wt_b - j - 1 >= 0
        if not first_alive and not second_alive:
            break
        if first_alive:
            first.append(j)
        if second_alive:
            second.append(j)
        j += 1
    return first, second


def _free_fermion():
    return VertexLieData([Gen("psi", Fraction(1, 2), 1)],
                         {(0, 0, 0): BrValue({}, ONE)}, central=True)


@pytest.mark.parametrize("V, weights, charges", [
    (build_envelope(virasoro(Scalar.variable("c")), cutoff=4),
     range(5), [None]),
    (build_envelope(kac_moody_sl2(Scalar.variable("k")), cutoff=2),
     range(3), [None]),
    (build_envelope(weyl_pair(odd=True, names=("b", "c")), cutoff=2),
     range(3), [None]),
    (build_envelope(weyl_pair(odd=False), cutoff=2, charge_window=(-2, 2)),
     range(3), range(-2, 3)),
    (build_envelope(_free_fermion(), cutoff=3),
     [Fraction(i, 2) for i in range(7)], [None]),
], ids=["virasoro", "sl2", "bc", "betagamma", "free-fermion"])
def test_integer_weights_match_the_fraction_recursion(V, weights, charges):
    basis = [m for w in weights for q in charges for m in V.basis(w, q)]
    for m in basis:
        assert V.weight(m) == _fraction_weight(V, m)
        assert type(V.weight(m)) is Fraction
    states = [{m: ONE} for m in basis]
    for a in states:
        for b in states:
            for n in range(-2, 3):
                V.nth_product(a, n, b)
    keys = [k for k in V._prod_cache if k[0]]
    assert keys
    for ma, n, mb in keys:
        jf, js = V._alive_bounds(ma[0][1], ma[1:], n, mb)
        assert _fraction_alive(V, ma, n, mb) == (list(range(jf + 1)),
                                                 list(range(js + 1)))
