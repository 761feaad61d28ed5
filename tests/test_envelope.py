import random
from fractions import Fraction

import pytest

from opelab.scalars import Scalar, ONE, sc, falling
from opelab.vla import (Gen, VertexLieData, current_algebra,
                        heisenberg, kac_moody_sl2, virasoro, weyl_pair,
                        direct_sum, SL2_KAPPA)
from opelab.envelope import VertexAlgebra, _acc
from opelab.linalg import vec_add as add_states, vec_scale as scale_state
from envelope_oracle import (check_topological, check_vertex_axioms,
                             derivation, sample_states)


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
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    got = dims_of(V, 6)
    assert got == pbw_dims([(2, 0)], 6)
    assert got == [1, 0, 1, 1, 2, 2, 4]


def test_sl2_dimensions():
    V = VertexAlgebra(kac_moody_sl2(Scalar.variable("k")))
    got = dims_of(V, 3)
    assert got == pbw_dims([(1, 0)] * 3, 3)
    assert got == [1, 3, 9, 22]


def test_heisenberg_dimensions():
    V = VertexAlgebra(heisenberg(Scalar.variable("t")))
    got = dims_of(V, 4)
    assert got == pbw_dims([(1, 0)], 4)
    assert got == [1, 1, 2, 3, 5]


def test_bc_pair_dimensions():
    V = VertexAlgebra(weyl_pair(odd=True, names=("psi", "psi_star")))
    assert dims_of(V, 3) == pbw_dims([(1, 1), (0, 1)], 3)


@pytest.mark.parametrize("L, cutoff", [
    (heisenberg(ONE, rank=2), 8),
    (virasoro(sc(0)), 10),
    (kac_moody_sl2(ONE), 4),
    (weyl_pair(odd=True, names=("psi", "psi_star")), 5),
    (VertexLieData([Gen("psi", Fraction(1, 2), 1),
                    Gen("b", 1, 0)], {}), Fraction(9, 2)),
], ids=["heisenberg-2", "virasoro", "sl2", "bc", "half-integer"])
def test_pbw_count_is_the_size_of_the_enumerated_basis(L, cutoff):
    V = VertexAlgebra(L)
    total = sum(V.graded_dimensions(cutoff).values())
    assert V.pbw_count(cutoff) == total
    # counting stops past the bound, and only past it
    assert V.pbw_count(cutoff, bound=total) == total
    assert 3 < V.pbw_count(cutoff, bound=3) <= total
    assert V.pbw_count(10 ** 9, bound=total) > total


def test_betagamma_needs_charge_window():
    V = VertexAlgebra(weyl_pair(odd=False))
    with pytest.raises(ValueError, match="charge"):
        V.basis(0)
    assert len(V.basis(0, 0)) == 1            # the vacuum
    assert len(V.basis(0, -2)) == 1           # phi*_(-1)^2
    assert len(V.basis(1, 0)) == 1            # :phi phi*:
    assert V.basis(1, -1) == [((-2, 1),),     # T phi*
                              ((-1, 0), (-1, 1), (-1, 1))]  # :phi phi*^2:


def test_modes_and_products_agree():
    # (x_(-1)|0>)_(n) = x_(n) as operators: the iterate recursion must
    # reproduce single-mode application on both sides of -1
    V = VertexAlgebra(kac_moody_sl2(sc(2)))
    e = V.gen_state("e")
    for name in ("e", "h", "f"):
        b = V.gen_state(name)
        for n in range(-3, 3):
            assert V.nth_product(e, n, b) == \
                V.apply_mode(V.L.gen("e"), n, b)


def test_translation_facts():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    l = V.gen_state("l")
    tl = V.translate(l)
    assert tl == {((-2, 0),): ONE}
    assert V.translate(tl) == {((-3, 0),): sc(2)}
    assert V.nth_product(l, -2, V.vacuum()) == tl
    assert V.translate(V.vacuum()) == {}


def test_virasoro_ope():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    l = V.gen_state("l")
    ope = V.singular_ope(l, l)
    c = Scalar.variable("c")
    assert set(ope) == {0, 1, 3}
    assert ope[0] == {((-2, 0),): ONE}           # T l
    assert ope[1] == {((-1, 0),): sc(2)}         # 2 l
    assert ope[3] == {(): c.scale(Fraction(1, 2))}


def test_sl2_ope():
    k = Scalar.variable("k")
    V = VertexAlgebra(kac_moody_sl2(k))
    e, h, f = (V.gen_state(n) for n in ("e", "h", "f"))
    assert V.nth_product(e, 0, f) == h
    assert V.nth_product(e, 1, f) == {(): k}
    assert V.nth_product(h, 1, h) == {(): 2 * k}
    assert V.nth_product(h, 0, e) == scale_state(e, 2)
    assert V.nth_product(h, 0, f) == scale_state(f, -2)
    assert V.nth_product(e, 0, e) == {}


def test_weyl_pair_zero_modes():
    V = VertexAlgebra(weyl_pair(odd=False))
    phi, phis = V.gen_state("phi"), V.gen_state("phi_star")
    assert V.nth_product(phi, 0, phis) == {(): ONE}
    assert V.nth_product(phis, 0, phi) == {(): sc(-1)}
    W = VertexAlgebra(weyl_pair(odd=True, names=("psi", "psi_star")))
    psi, psis = W.gen_state("psi"), W.gen_state("psi_star")
    assert W.nth_product(psi, 0, psis) == {(): ONE}
    assert W.nth_product(psis, 0, psi) == {(): ONE}


def test_wick_level_of_bilinear_currents():
    # The gl1 current J = :phi phi*: of a symplectic (even) pair has
    # self-level -1; the odd-pair current has self-level +1.  These two
    # numbers are the anchors for every ghost-level computation.
    V = VertexAlgebra(weyl_pair(odd=False))
    J = V.normal_order(V.gen_state("phi"), V.gen_state("phi_star"))
    assert V.nth_product(J, 0, J) == {}
    assert V.nth_product(J, 1, J) == {(): sc(-1)}

    W = VertexAlgebra(weyl_pair(odd=True, names=("psi", "psi_star")))
    eta = W.normal_order(W.gen_state("psi"), W.gen_state("psi_star"))
    assert W.nth_product(eta, 0, eta) == {}
    assert W.nth_product(eta, 1, eta) == {(): ONE}
    # reversing the odd normal ordering flips the current but not the level
    eta2 = W.normal_order(W.gen_state("psi_star"), W.gen_state("psi"))
    assert eta2 == scale_state(eta, -1)
    assert W.nth_product(eta2, 1, eta2) == {(): ONE}


def test_current_action_on_matter():
    # :phi phi*:_(0) phi = -phi and  :phi phi*:_(0) phi* = +phi*
    V = VertexAlgebra(weyl_pair(odd=False))
    J = V.normal_order(V.gen_state("phi"), V.gen_state("phi_star"))
    assert V.nth_product(J, 0, V.gen_state("phi")) == \
        scale_state(V.gen_state("phi"), -1)
    assert V.nth_product(J, 0, V.gen_state("phi_star")) == \
        V.gen_state("phi_star")


def test_axioms_virasoro():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
    assert check_vertex_axioms(V, cutoff=3).ok


def test_axioms_sl2():
    V = VertexAlgebra(kac_moody_sl2(Scalar.variable("k")))
    assert check_vertex_axioms(V, cutoff=2).ok


def test_axioms_betagamma():
    V = VertexAlgebra(weyl_pair(odd=False))
    assert check_vertex_axioms(V, cutoff=2).ok


def test_axioms_bc():
    V = VertexAlgebra(weyl_pair(odd=True, names=("psi", "psi_star")))
    assert check_vertex_axioms(V, cutoff=2).ok


def test_axioms_catch_inconsistent_table():
    # [h, e] = 3e against [e, f] = h cannot close: the two evaluation
    # paths of the mode commutator law disagree
    bad_struct = {
        (0, 1): [(0, -3)], (1, 0): [(0, 3)],
        (1, 2): [(2, -2)], (2, 1): [(2, 2)],
        (0, 2): [(1, 1)], (2, 0): [(1, -1)],
    }
    L = current_algebra(["e", "h", "f"], bad_struct, SL2_KAPPA, sc(1))
    V = VertexAlgebra(L)
    rep = check_vertex_axioms(V, cutoff=2)
    assert not rep.ok


# -- topological structure ---------------------------------------------


def _de_rham_pair():
    L = VertexLieData([Gen("x", 1), Gen("theta", 1, 1)], {})
    return VertexAlgebra(L)


def test_topological_pair_passes():
    V = _de_rham_pair()
    rep = check_topological(
        V,
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 1, 1)]},
    )
    assert rep.ok


def test_topological_framed_pair():
    V = _de_rham_pair()
    rep = check_topological(
        V,
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 1, 1)]},
        g_zero_rule={"x": [("theta", 0, 1)]},
    )
    assert rep.ok


def test_topological_violation_reported():
    V = _de_rham_pair()
    # g_{-1}(x) = theta (no derivative): [d, g_{-1}] gives x, not Tx
    rep = check_topological(
        V,
        d_rule={"theta": [("x", 0, 1)]},
        g_minus_rule={"x": [("theta", 0, 1)]},
    )
    assert not rep.ok
    assert any("[d, g_{-1}]" in v["message"] for v in rep.violations)


# -- the derivation rule against sequence re-evaluation ------------------


def eval_sequence(V, seq):
    """Apply modes right to left to the vacuum."""
    state = V.vacuum()
    for k, g in reversed(seq):
        state = V.apply_mode(g, k, state)
    return state


def oracle_translate(V, state):
    """T, acting as the even derivation g_(k) -> -k g_(k-1): each mode is
    swapped in turn and the whole sequence re-evaluated from the vacuum."""
    out = {}
    for mono, c in state.items():
        for i, (k, g) in enumerate(mono):
            coeff = c.scale(-k)
            if coeff.is_zero():
                continue
            seq = mono[:i] + ((k - 1, g),) + mono[i + 1:]
            for m2, c2 in eval_sequence(V, seq).items():
                _acc(out, m2, coeff * c2)
    return out


def oracle_derivation(V, rule, op_parity, extra_rule=None):
    """The derivation g_(k) -> sum coeff (T^d g2)_(k) (plus extra_rule at
    k+1), one position at a time with the Koszul sign of the modes to its
    left, each sequence re-evaluated from the vacuum."""
    idx_rule = {}
    for name, terms in rule.items():
        idx_rule[V.L.gen(name)] = [
            (V.L.gen(g2), e, sc(c)) for g2, e, c in terms]
    idx_extra = {}
    if extra_rule:
        for name, terms in extra_rule.items():
            idx_extra[V.L.gen(name)] = [
                (V.L.gen(g2), e, sc(c)) for g2, e, c in terms]

    def act(state):
        out = {}
        for mono, c in state.items():
            sign = 1
            for i, (k, g) in enumerate(mono):
                for shift, terms in ((0, idx_rule.get(g)),
                                     (1, idx_extra.get(g))):
                    if not terms:
                        continue
                    for g2, e, s in terms:
                        kk = k + shift
                        coeff = (c * s).scale(
                            sign * falling(kk, e) * (-1) ** e)
                        if coeff.is_zero():
                            continue
                        seq = mono[:i] + ((kk - e, g2),) + mono[i + 1:]
                        for m2, c2 in eval_sequence(V, seq).items():
                            _acc(out, m2, coeff * c2)
                sign *= (-1) ** (op_parity * V.L.gens[g].parity)
        return out

    return act


def _neighbour_rules(L):
    """d, g_{-1} and g_0 rules that send each generator to itself and to
    the next one, with derivatives: every generator has a rule, an odd
    generator meets an even one where the algebra has both, and g_0 has
    terms at both shifts once its extra rule is added."""
    names = [g.name for g in L.gens]
    nxt = {n: names[(i + 1) % len(names)] for i, n in enumerate(names)}
    return ({n: [(nxt[n], 0, 1)] for n in names},
            {n: [(n, 1, 1), (nxt[n], 2, Fraction(-1, 2))] for n in names},
            {n: [(nxt[n], 0, Fraction(2, 3)), (n, 1, 3)] for n in names})


def _half_integer():
    return direct_sum(_free_fermion(), heisenberg(Scalar.variable("t")))


# (id, envelope, (d, g_{-1}, g_0) rules or None for _neighbour_rules,
#  sampled weight: Virasoro has only l and Tl through weight 3)
DERIVATION_CASES = [
    ("virasoro", lambda: VertexAlgebra(
        virasoro(Scalar.variable("c"))), None, 5),
    ("sl2", lambda: VertexAlgebra(
        kac_moody_sl2(Scalar.variable("k"))), None, 3),
    ("even-pair", lambda: VertexAlgebra(
        weyl_pair(odd=False)), None, 3),
    ("odd-pair", lambda: VertexAlgebra(
        weyl_pair(odd=True, names=("psi", "psi_star"))), None, 3),
    ("de-rham-pair", _de_rham_pair,
     ({"theta": [("x", 0, 1)]}, {"x": [("theta", 1, 1)]},
      {"x": [("theta", 0, 1)]}), 3),
    ("half-integer", lambda: VertexAlgebra(_half_integer()),
     None, 3),
]


def _oracle_states(V, wmax, seed=0):
    """The sampled states, then random linear combinations of them."""
    states = [s for _, s in sample_states(V, wmax)]
    rng = random.Random(seed)
    for _ in range(20):
        combo = {}
        for s in rng.sample(states, min(4, len(states))):
            q = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            combo = add_states(combo, scale_state(s, q))
        states.append(combo)
    return states


@pytest.mark.parametrize("build, rules, wmax",
                         [row[1:] for row in DERIVATION_CASES],
                         ids=[row[0] for row in DERIVATION_CASES])
def test_derivations_match_sequence_reevaluation(build, rules, wmax):
    """T, T o T and the d, g_{-1}, g_0 derivations of the memoized rule
    agree with swapping one mode at a time and re-evaluating from the
    vacuum, on sampled states and on linear combinations of them."""
    V = build()
    d_rule, gm_rule, g0_rule = rules or _neighbour_rules(V.L)
    ops = [(derivation(V, d_rule, 1), oracle_derivation(V, d_rule, 1)),
           (derivation(V, gm_rule, 1), oracle_derivation(V, gm_rule, 1)),
           (derivation(V, g0_rule, 1, extra_rule=gm_rule),
            oracle_derivation(V, g0_rule, 1, extra_rule=gm_rule))]
    states = _oracle_states(V, wmax)
    assert len(states) > 20
    for s in states:
        label = V.format_state(s)
        ts = oracle_translate(V, s)
        assert V.translate(s) == ts, label
        assert V.translate(V.translate(s)) == oracle_translate(V, ts), label
        for got, want in ops:
            assert got(s) == want(s), label


def test_format_state():
    V = VertexAlgebra(virasoro(Scalar.variable("c")))
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
                         {(0, 0, 0): {(): ONE}}, central=True)


@pytest.mark.parametrize("V, weights, charges", [
    (VertexAlgebra(virasoro(Scalar.variable("c"))),
     range(5), [None]),
    (VertexAlgebra(kac_moody_sl2(Scalar.variable("k"))),
     range(3), [None]),
    (VertexAlgebra(weyl_pair(odd=True, names=("b", "c"))),
     range(3), [None]),
    (VertexAlgebra(weyl_pair(odd=False)),
     range(3), range(-2, 3)),
    (VertexAlgebra(_free_fermion()),
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


def test_samples_cover_every_weight_block():
    # the weight-1/2 free fermion has states at 3/2 and 5/2 beyond psi
    V = VertexAlgebra(_free_fermion())
    weights = {V.state_weight(s) for _, s in sample_states(V, 3)}
    assert {Fraction(3, 2), Fraction(5, 2)} <= weights
    assert weights == {w for w, dim in V.graded_dimensions(3).items()
                       if dim}
