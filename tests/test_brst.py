"""Reduction tests.

Every numeric target here is produced inside this file before the
library gets to answer: the trace form comes from structure constants
alone, the free-field coefficients are solved from linear constraints,
the Koszul dimensions come from a subset count, and the critical levels
come from polynomial gcds of computed obstructions.
"""

import contextlib
import io
import json
import os
import string
import tempfile
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from opelab import presets
from opelab.cli import _level, main
from opelab.schemas import validate
from opelab.scalars import (Scalar, ZERO, ONE, sc, sc_gcd, format_scalar,
                            parse_scalar)
from opelab.vla import (VertexLieData, check_jacobi, check_sesquilinearity,
                        check_skew_symmetry, direct_sum, heisenberg,
                        weyl_pair, SL2_STRUCT)
from opelab.envelope import VertexAlgebra
from opelab.linalg import vec_add as add_states, vec_scale as scale_state
from opelab.brst import (build_ghosts, ghost_current_words, word_state,
                         BRSTDatum, abelian_datum, pure_ghost_datum,
                         wakimoto_datum)
from brst_oracle import (bg_fundamental_sl2_datum, bg_gl1_datum,
                         kappa_ghost, kappa_matter, level_defect,
                         validate_currents, SL2_FUND)
from smith_oracle import graded_cohomology, ghost_steps, rank_cohomology


# -- oracles ---------------------------------------------------------------

def killing_form(names, struct):
    """trace(ad_a ad_b) straight from the structure constants."""
    n = len(names)
    ad = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in struct.items():
        for k, c in terms:
            ad[i][k][j] += Fraction(c)
    out = {}
    for a in range(n):
        for b in range(n):
            out[(names[a], names[b])] = sum(
                ad[a][i][j] * ad[b][j][i]
                for i in range(n) for j in range(n))
    return out


def rho_trace(a, b):
    return sum(Fraction(SL2_FUND[a][m][n]) * Fraction(SL2_FUND[b][n][m])
               for m in range(2) for n in range(2))


def distinct_sum_count(w, g):
    """Subsets of {0, 1, ..., w} of size g summing to w."""
    count = 0
    for mask in range(1 << (w + 1)):
        picked = [i for i in range(w + 1) if mask >> i & 1]
        if len(picked) == g and sum(picked) == w:
            count += 1
    return count


def entry_gcd(entries):
    g = ZERO
    for e in entries:
        g = sc_gcd(g, e)
    return g


def build_every_block(D, W):
    """Build the matrix of d on every (weight, charge) block through
    weight W: ``d_matrix`` refuses an entry that leaves its block or does
    not raise the ghost number by one, so this checks that d keeps the
    weight and the charge and raises the ghost number by one.  Each
    block's basis is ``basis(w, q)`` in order of ghost number."""
    for w in range(W + 1):
        for q in D.charges():
            _, basis = D.d_matrix(w, q)
            ghosts = [D.V.ghost(m) for m in basis]
            assert ghosts == sorted(ghosts)
            assert sorted(basis) == sorted(D.V.basis(w, q))


# -- shared data -----------------------------------------------------------

@pytest.fixture(scope="module")
def wak_generic():
    return wakimoto_datum("t", cutoff=3)


@pytest.fixture(scope="module")
def wak_critical():
    return wakimoto_datum(-4, cutoff=3)


# -- ghosts ----------------------------------------------------------------

def test_ghost_pair_shape():
    G = build_ghosts(["u", "v"], {"u": 3, "v": -1})
    names = [g.name for g in G.gens]
    assert names == ["psi_u", "psi*_u", "psi_v", "psi*_v"]
    assert [g.weight for g in G.gens] == [1, 0, 1, 0]
    assert all(g.parity == 1 for g in G.gens)
    assert [g.ghost for g in G.gens] == [-1, 1, -1, 1]
    assert [g.charge for g in G.gens] == [3, -3, -1, 1]


def test_ghost_current_adjoint_and_coadjoint_action():
    G = build_ghosts(["e", "h", "f"])
    V = VertexAlgebra(G)
    words = ghost_current_words(["e", "h", "f"], SL2_STRUCT)
    eta = {a: word_state(V, words[a]) for a in ("e", "h", "f")}

    def act(a, name):
        return V.nth_product(eta[a], 0, V.gen_state(name))

    # on psi: the bracket itself ([e,h] = -2e, [h,e] = 2e, [e,f] = h)
    assert act("e", "psi_h") == scale_state(V.gen_state("psi_e"), -2)
    assert act("h", "psi_e") == scale_state(V.gen_state("psi_e"), 2)
    assert act("e", "psi_f") == V.gen_state("psi_h")
    # on psi*: minus the transpose
    assert act("e", "psi*_h") == scale_state(V.gen_state("psi*_f"), -1)
    assert act("e", "psi*_e") == scale_state(V.gen_state("psi*_h"), 2)
    assert act("e", "psi*_f") == {}


def test_ghost_levels_equal_killing_form():
    kf = killing_form(["e", "h", "f"], SL2_STRUCT)
    D = bg_fundamental_sl2_datum(1)
    kg = kappa_ghost(D)
    for pair, val in kf.items():
        assert kg[pair] == sc(val), pair
    assert kf[("e", "f")] == 4 and kf[("h", "h")] == 8


# -- abelian ---------------------------------------------------------------

def test_abelian_generic_level():
    D = abelian_datum("t", cutoff=4)
    t = Scalar.variable("t")
    assert validate_currents(D).ok
    assert kappa_matter(D) == {("b", "b"): t}
    assert kappa_ghost(D) == {("b", "b"): ZERO}
    assert level_defect(D) == {("b", "b"): t}
    d = D.differential()
    assert d(D.V.gen_state("psi_b")) == D.V.gen_state("b")
    assert d(D.V.gen_state("b")) == scale_state(
        D.V.translate(D.V.gen_state("psi*_b")), t)
    assert d(D.V.gen_state("psi*_b")) == {}


def test_abelian_obstruction_is_exactly_the_level():
    D = abelian_datum("t", cutoff=4)
    report, entries = D.check_d_squared(3)
    assert not report.ok
    assert report.violations[0]["witness"] == "psi_b"
    assert entries
    g = entry_gcd(entries)
    # every obstruction entry is divisible by t and their gcd is t itself,
    # so the level condition has the single solution t = 0
    assert g == Scalar.variable("t")
    assert all(e.divmod(g)[1].is_zero() for e in entries)


def test_abelian_critical_level_closes():
    D = abelian_datum("t", cutoff=4).specialize(0)
    report, _ = D.check_d_squared(4)
    assert report.ok
    build_every_block(D, 3)


def test_abelian_cohomology_is_koszul():
    D = abelian_datum("t", cutoff=4).specialize(0)
    dims = D.cohomology_dims(3)
    for w in range(4):
        for g in range(-2, 6):
            assert dims.get((w, g), 0) == distinct_sum_count(w, g), (w, g)


# -- no matter -------------------------------------------------------------

def test_pure_ghost_trivial_differential():
    D = pure_ghost_datum(cutoff=4)
    assert D.brst_charge() == {}
    assert D.d_matrix(2, None)[0].is_zero()
    assert D.cohomology_dims(3) == D.block_dims(3)


# -- one even pair along gl1 ----------------------------------------------

def test_bg_gl1_levels_and_action():
    D = bg_gl1_datum(cutoff=2, charge_window=(-4, 4))
    assert validate_currents(D).ok
    assert kappa_matter(D) == {("x", "x"): sc(-1)}
    assert kappa_ghost(D) == {("x", "x"): ZERO}
    d = D.differential()
    for m in (1, 2, 3):
        st = word_state(D.V, [(ONE, [("phi_star", 0)] * m)])
        want = word_state(D.V, [(sc(m),
                                 [("psi*_x", 0)] + [("phi_star", 0)] * m)])
        assert d(st) == want


def test_bg_gl1_weight_zero_cohomology():
    """The weight-0 towers are phi*^m and psi* phi*^m with d acting by m,
    so only the vacuum line survives at ghost 0 (and psi* at ghost 1)."""
    D = bg_gl1_datum(cutoff=2, charge_window=(-4, 4))
    report, _ = D.check_d_squared(0)
    assert report.ok
    assert [D.V.format_mono(m) for m in ghost_steps(D, 0, 0)[0][1]] == ["Ω"]
    H = D.brst_cohomology(0)
    assert H == {(0, 0, 0): 1, (0, 0, 1): 1}


def test_bg_gl1_anomaly_appears_at_weight_one():
    D = bg_gl1_datum(cutoff=2, charge_window=(-4, 4))
    report, _ = D.check_d_squared(1)
    assert not report.ok
    with pytest.raises(ValueError, match="d\\^2") as err:
        D.brst_cohomology(1)
    # the refusal names the first witness, with or without a prior check
    assert str(err.value) == ("cohomology refused: %s"
                              % report.violations[0]["message"])
    fresh = bg_gl1_datum(cutoff=2, charge_window=(-4, 4))
    with pytest.raises(ValueError) as again:
        fresh.brst_cohomology(1)
    assert str(again.value) == str(err.value)


# -- copies of the sl2 fundamental ----------------------------------------

def test_fundamental_copy_scan_has_unique_zero():
    pairs = [("e", "e"), ("e", "h"), ("e", "f"),
             ("h", "h"), ("h", "f"), ("f", "f")]
    kf = killing_form(["e", "h", "f"], SL2_STRUCT)
    closing = []
    for k in range(1, 7):
        D = bg_fundamental_sl2_datum(k)
        km = kappa_matter(D)
        for a, b in pairs:
            assert km[(a, b)] == sc(-k * rho_trace(a, b)), (k, a, b)
            assert kappa_ghost(D)[(a, b)] == sc(kf[(a, b)])
        states = [("psi_%s" % a, D.V.gen_state("psi_%s" % a))
                  for a in D.names]
        report, _ = D.check_d_squared(None, states=states)
        if report.ok:
            closing.append(k)
    assert closing == [4]


def test_fundamental_copies_validate_and_refuse_full_enumeration():
    D = bg_fundamental_sl2_datum(2)
    assert validate_currents(D).ok
    with pytest.raises(ValueError, match="mixed or zero charges"):
        D.V.basis(0, 0)
    with pytest.raises(ValueError, match="mixed or zero charges"):
        D.check_d_squared(0)


# -- free-field sl2 --------------------------------------------------------

def _wak_matter_states():
    t = Scalar.variable("t")
    M = direct_sum(weyl_pair(odd=False, charges=(2, -2)), heisenberg(t))
    V = VertexAlgebra(M)
    phi, phis, b = (V.gen_state(n) for n in ("phi", "phi_star", "b"))
    A = V.normal_order(phi, phis, phis)
    B = V.translate(phis)
    C = V.normal_order(b, phis)
    h = add_states(scale_state(V.normal_order(phi, phis), -2), b)
    return V, phi, A, B, C, h, t


def test_wakimoto_coefficients_stage_one():
    """e = phi and h are fixed; writing f = x3 :phi phi* phi*: + a4 Tphi*
    + x5 :b phi*:, the constraint e_(0) f = h determines x3 and x5 (the
    a4 term drops out since e_(0) Tphi* = 0)."""
    V, phi, A, B, C, h, _ = _wak_matter_states()
    U = V.nth_product(phi, 0, A)
    assert V.nth_product(phi, 0, B) == {}
    W = V.nth_product(phi, 0, C)
    x3 = x5 = None
    for m in sorted(set(U) | set(W) | set(h)):
        u, w = U.get(m, ZERO), W.get(m, ZERO)
        r = h.get(m, ZERO)
        if not u.is_zero() and w.is_zero():
            x3 = r.div_exact(u)
        elif u.is_zero() and not w.is_zero():
            x5 = r.div_exact(w)
    assert x3 == sc(-1) and x5 == ONE
    assert add_states(scale_state(U, x3), scale_state(W, x5)) == h


def test_wakimoto_coefficients_stage_two():
    """With x3, x5 in hand, f_(0) f = 0 is linear in a4 (the quadratic
    term carries (Tphi*)_(0) = 0) and pins a4 = (t - 4)/2, which is then
    the level e_(1) f."""
    V, phi, A, B, C, h, t = _wak_matter_states()
    base = add_states(scale_state(A, -1), C)
    P = V.nth_product(base, 0, base)
    R = add_states(V.nth_product(B, 0, base), V.nth_product(base, 0, B))
    assert V.nth_product(B, 0, B) == {}
    assert set(P) <= set(R)
    a4 = None
    for m, rm in R.items():
        cand = P.get(m, ZERO).scale(-1).div_exact(rm)
        assert a4 is None or cand == a4
        a4 = cand
    expect = (t - sc(4)).scale(Fraction(1, 2))
    assert a4 == expect
    assert add_states(P, scale_state(R, a4)) == {}
    # the level comes along for free: e_(1) f = a4
    assert V.nth_product(phi, 1, B) == V.vacuum()
    assert V.nth_product(phi, 1, A) == {}
    assert V.nth_product(phi, 1, C) == {}
    # and the stock datum freezes exactly these solved values
    D = wakimoto_datum("t")
    fw = {tuple(fs): c for c, fs in D.current_words["f"]}
    assert fw[(("phi", 0), ("phi_star", 0), ("phi_star", 0))] == sc(-1)
    assert fw[(("phi_star", 1),)] == expect
    assert fw[(("b", 0), ("phi_star", 0))] == ONE


def test_wakimoto_currents_close(wak_generic):
    D = wak_generic
    t = Scalar.variable("t")
    assert validate_currents(D).ok
    km = kappa_matter(D)
    assert km[("e", "f")] == (t - sc(4)).scale(Fraction(1, 2))
    assert km[("f", "e")] == km[("e", "f")]
    assert km[("h", "h")] == t - sc(4)
    assert km[("e", "e")] == ZERO and km[("e", "h")] == ZERO


def test_wakimoto_critical_level_is_forced(wak_generic):
    D = wak_generic
    defect = [v for v in level_defect(D).values() if not v.is_zero()]
    assert entry_gcd(defect) == Scalar.variable("t") + sc(4)
    report, entries = D.check_d_squared(2)
    assert not report.ok
    # all obstructions share the single root t = -4
    assert entry_gcd(entries) == Scalar.variable("t") + sc(4)


def test_wakimoto_closes_at_critical_level(wak_critical):
    D = wak_critical
    report, _ = D.check_d_squared(2)
    assert report.ok
    build_every_block(D, 2)


def test_wakimoto_weight_zero_cohomology(wak_critical):
    """By hand: the (0, 0) block has ghost-0 part spanned by the vacuum
    (so the incoming image is zero) and ghost-1 part of dimension 2 on
    which d has rank exactly 1; the kernel is the combination
    :phi* psi*_f: + psi*_h."""
    D = wak_critical
    d = D.differential()
    steps = ghost_steps(D, 0, 0)
    assert [D.V.format_mono(m) for m in steps[0][1]] == ["Ω"]
    assert len(steps[1][1]) == 2
    r = word_state(D.V, [(ONE, [("phi_star", 0), ("psi*_f", 0)]),
                         (ONE, [("psi*_h", 0)])])
    assert d(r) == {}
    assert d(D.V.gen_state("psi*_h")) != {}
    H = D.brst_cohomology(2)
    assert H == {(0, 0, 0): 1, (0, 0, 1): 1}
    chi_h, chi_c = D.euler_characteristics(2)
    for w in range(3):
        assert chi_h.get(w, 0) == chi_c.get(w, 0)


def test_wakimoto_cubic_coefficient_forced(wak_critical):
    """Treat the cubic coefficient as an unknown q at the critical level;
    the gcd of all d^2 entries through weight 2 is q + 1/2."""
    D = wak_critical
    Q = D.brst_charge(cubic_coeff=Scalar.variable("q"))
    entries = []
    for w in range(3):
        for q in D.charges():
            for m in D.V.basis(w, q):
                dd = D.V.nth_product(Q, 0, D.V.nth_product(Q, 0, {m: ONE}))
                entries.extend(dd.values())
    g = entry_gcd(entries)
    assert g == Scalar.variable("q") + sc(Fraction(1, 2))


def test_wakimoto_differential_is_odd_derivation(wak_critical):
    D = wak_critical
    V = D.V
    d = D.differential()
    e = D.currents["e"]
    psie = V.gen_state("psi_e")
    psish = V.gen_state("psi*_h")
    for a, pa, b in ((e, 0, psie), (psish, 1, e), (psie, 1, psish)):
        for n in (-1, 0, 1):
            lhs = d(V.nth_product(a, n, b))
            rhs = add_states(V.nth_product(d(a), n, b),
                             scale_state(V.nth_product(a, n, d(b)),
                                         (-1) ** pa))
            assert lhs == rhs, n


# -- failure reporting and serialization ----------------------------------

def test_broken_current_names_the_pair():
    D0 = wakimoto_datum(-4, cutoff=2)
    words = dict(D0.current_words)
    words["f"] = [t for t in words["f"] if t[1] != [("b", 0), ("phi_star", 0)]]
    D = BRSTDatum(D0.names, D0.struct, D0.matter, words, 2,
                  D0.charge_window, D0.ghost_charges)
    report = validate_currents(D)
    assert not report.ok
    pairs = {v["pair"] for v in report.violations if v["which"] == "matter"}
    assert ("e", "f") in pairs


def test_datum_roundtrip():
    D = abelian_datum("t", cutoff=3)
    blob = json.dumps(D.to_dict(), sort_keys=True)
    D2 = BRSTDatum.from_dict(json.loads(blob))
    assert D2.Q == D.Q
    assert kappa_matter(D2) == kappa_matter(D)
    W = wakimoto_datum(-4, cutoff=2)
    W2 = BRSTDatum.from_dict(json.loads(json.dumps(W.to_dict())))
    assert W2.Q == W.Q


# -- the memoized differential against d = Q_(0) ---------------------------

def oracle_d(D, s):
    """d straight from its definition, the iterate identity for Q_(0)."""
    return D.V.nth_product(D.Q, 0, s)


def basis_states(D, W):
    return [(D.V.format_mono(m), {m: ONE})
            for w in range(W + 1) for q in D.charges()
            for m in D.V.basis(w, q)]


def low_monomials(D, length):
    """Every canonical monomial of weight <= 1 with at most `length`
    modes, for data whose charge blocks cannot be enumerated."""
    V = D.V
    modes = sorted((k, g) for g, gen in enumerate(V.L.gens)
                   for k in (-1, -2) if 0 <= V.mode_weight(k, g) <= 1)
    monos = {()}
    for _ in range(length):
        monos |= {tuple(sorted(m + (x,))) for m in monos for x in modes}
    return sorted(m for m in monos
                  if V.weight(m) <= 1
                  and all(m[i] != m[i + 1] or not V.L.gens[m[i][1]].parity
                          for i in range(len(m) - 1)))


# (id, datum, weight checked or None for sampled states, d^2 = 0 there)
ORACLE_DATA = [
    ("abelian-0", lambda: abelian_datum(0, cutoff=4), 3, True),
    ("abelian-t", lambda: abelian_datum("t", cutoff=4), 3, False),
    ("abelian-rational", lambda: abelian_datum(Fraction(-3, 7), cutoff=4),
     3, False),
    ("pure-ghost", lambda: pure_ghost_datum(cutoff=4), 3, True),
    ("wakimoto-t", lambda: wakimoto_datum("t", cutoff=2), 2, False),
    ("wakimoto-critical", lambda: wakimoto_datum(-4, cutoff=2), 2, True),
    ("wakimoto-rational", lambda: wakimoto_datum(Fraction(5, 3), cutoff=2),
     1, False),
    ("bg-gl1", lambda: bg_gl1_datum(), 2, False),
    ("bg-fundamental-sl2", lambda: bg_fundamental_sl2_datum(1), None,
     False),
]


@pytest.mark.parametrize("build, W, closes",
                         [row[1:] for row in ORACLE_DATA],
                         ids=[row[0] for row in ORACLE_DATA])
def test_differential_matches_the_charge_product(build, W, closes):
    """On every state checked, the derivation-rule d equals Q_(0), and
    check_d_squared reports the same violations, in the same order and
    with the same entries, as a loop squaring Q_(0) itself."""
    D = build()
    if W is None:
        states = [(D.V.format_mono(m), {m: ONE})
                  for m in low_monomials(D, 3)]
    else:
        states = basis_states(D, W)
    assert len(states) > 10
    d = D.differential()
    for label, s in states:
        assert d(s) == oracle_d(D, s), label
    bad, entries = [], []
    for label, s in states:
        dd = oracle_d(D, oracle_d(D, s))
        if dd:
            bad.append({"witness": label,
                        "message": "d^2 != 0 on %s: equals %s"
                        % (label, D.V.format_state(dd))})
            entries.extend(dd[m] for m in sorted(dd))
    assert (not bad) == closes
    fresh = build()
    report, got = (fresh.check_d_squared(None, states=states) if W is None
                   else fresh.check_d_squared(W))
    assert report.violations == bad
    assert got == entries


def oracle_charge(D, cubic_coeff):
    """Q with its cubic term built mode by mode, right to left:
    sum c q3 psi*_i(-1) psi*_j(-1) psi_k(-1)|0> over f_ij^k = c."""
    V = D.V
    Q = {}
    for a in D.names:
        Q = add_states(Q, V.nth_product(D.currents[a], -1,
                                        V.gen_state("psi*_%s" % a)))
    for (i, j), terms in sorted(D.struct.items()):
        for k, c in terms:
            s = V.vacuum()
            for name in ("psi_" + D.names[k], "psi*_" + D.names[j],
                         "psi*_" + D.names[i]):
                s = V.apply_mode(V.L.gen(name), -1, s)
            Q = add_states(Q, scale_state(s, c * sc(cubic_coeff)))
    return Q


@pytest.mark.parametrize("build", [
    lambda: wakimoto_datum("t", cutoff=2),
    lambda: bg_fundamental_sl2_datum(1),
], ids=["wakimoto-t", "bg-fundamental-sl2"])
def test_charge_matches_the_mode_by_mode_cubic_term(build):
    D = build()
    assert D.Q == oracle_charge(D, Fraction(-1, 2))
    q = Scalar.variable("q")
    assert D.brst_charge(cubic_coeff=q) == oracle_charge(D, q)


# (id, datum whose d^2 vanishes through the weight, weight)
CLOSED_DATA = [
    ("abelian-0", lambda: abelian_datum(0, cutoff=4), 4),
    ("bg-gl1", lambda: bg_gl1_datum(cutoff=2, charge_window=(-4, 4)), 0),
    ("wakimoto-critical", lambda: wakimoto_datum(-4, cutoff=2), 2),
    ("pure-ghost", lambda: pure_ghost_datum(cutoff=4), 4),
]


@pytest.mark.parametrize("build, W", [row[1:] for row in CLOSED_DATA],
                         ids=[row[0] for row in CLOSED_DATA])
def test_cohomology_ranks_match_the_representative_oracle(build, W):
    """dim H read off ranks equals the number of representatives that
    ``graded_cohomology`` builds from kernels and images of the same
    d_matrix blocks."""
    D = build()
    want = {}
    for w in range(W + 1):
        for q in D.charges():
            steps = ghost_steps(D, w, q)
            H = graded_cohomology(list(steps), steps.__getitem__)
            want.update({(w, q, g): len(reps) for g, reps in H.items()
                         if reps})
    assert D.brst_cohomology(W) == want


@st.composite
def closed_datums(draw):
    """(datum, W): an abelian brst.v1 file of rank 1-2 at level 0, the
    gl_1 datum under a drawn charge window, or pure ghosts, each at a
    cutoff of 2-5 with W up to it."""
    kind = draw(st.sampled_from(["abelian", "bg-gl1", "pure-ghost"]))
    cutoff = draw(st.integers(2, 5))
    if kind == "abelian":
        D = BRSTDatum.from_dict(abelian_datum(
            0, draw(st.integers(1, 2)), cutoff).to_dict())
    elif kind == "bg-gl1":
        lo = draw(st.integers(-6, 0))
        D = bg_gl1_datum(cutoff=min(cutoff, 3),
                         charge_window=(lo, lo + draw(st.integers(0, 6))))
    else:
        D = pure_ghost_datum(cutoff=cutoff)
    return D, draw(st.integers(0, int(D.cutoff)))


@settings(max_examples=40, deadline=None)
@given(closed_datums())
def test_cohomology_matches_the_rank_route(case):
    """The classes that ``FiniteComplex.cohomology`` reads off each
    (weight, charge) block count what ranks over Q give, dim H^g =
    n_g - rank d_g - rank d_(g-1); past the weight where d^2 vanishes
    both are refused."""
    D, W = case
    if D.first_d_squared_violation(W) is not None:
        with pytest.raises(ValueError, match="cohomology refused"):
            D.brst_cohomology(W)
        return
    assert D.brst_cohomology(W) == rank_cohomology(D, W)


@pytest.fixture
def d_squared_calls(monkeypatch):
    """The (W, states) arguments of every check_d_squared call."""
    calls = []
    check = BRSTDatum.check_d_squared

    def counting(self, W, states=None):
        calls.append((W, states))
        return check(self, W, states)

    monkeypatch.setattr(BRSTDatum, "check_d_squared", counting)
    return calls


class _WriteLog(dict):
    """A memo that appends the key of every write to ``writes``."""

    def __init__(self, data, writes):
        super().__init__(data)
        self.writes = writes

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


@pytest.fixture
def d_cache_writes(monkeypatch):
    """Every monomial written into any datum's memo of d, in order: d is
    computed afresh on a monomial exactly when it is written there."""
    writes = []
    differential = BRSTDatum.differential

    def logged(self):
        if not isinstance(self._d_cache, _WriteLog):
            self._d_cache = _WriteLog(self._d_cache, writes)
        return differential(self)

    monkeypatch.setattr(BRSTDatum, "differential", logged)
    return writes


def test_cohomology_computes_d_once_per_monomial(d_squared_calls,
                                                 d_cache_writes):
    """At a closed level cohomology runs no d^2 sweep (Q_(0)Q = 0
    decides it), and the d_matrix blocks compute d on each basis monomial
    once."""
    D = wakimoto_datum(-4, cutoff=2)
    assert D.brst_cohomology(1) == {(0, 0, 0): 1, (0, 0, 1): 1}
    assert d_squared_calls == []
    assert len(d_cache_writes) == len(set(d_cache_writes))
    basis = {m for w in range(2) for q in D.charges()
             for m in D.V.basis(w, q)}
    assert basis - {()} <= set(d_cache_writes)


def test_cli_cohomology_runs_no_d_squared_pass(d_squared_calls,
                                               d_cache_writes, capsys):
    assert main(["brst", "--preset", "wakimoto", "--level", "-4",
                 "--cutoff", "1", "--cohomology"]) == 0
    assert json.loads(capsys.readouterr().out)["cohomology_dims"]
    assert d_squared_calls == []
    assert d_cache_writes
    assert len(d_cache_writes) == len(set(d_cache_writes))


# -- Q_(0)Q against the sweep ---------------------------------------------

LEVELS = st.one_of(st.sampled_from([0, -4, "t", "k"]),
                   st.fractions(-6, 6, max_denominator=4))


@st.composite
def stock_datums(draw):
    """A stock datum at a drawn level, and a weight W to check through."""
    kind = draw(st.sampled_from(["abelian", "wakimoto", "pure-ghost",
                                 "bg-gl1"]))
    if kind == "abelian":
        rank = draw(st.integers(1, 3))
        top = 4 - rank
        D = abelian_datum(draw(LEVELS), rank, cutoff=top)
    elif kind == "wakimoto":
        top = 1
        D = wakimoto_datum(draw(LEVELS), cutoff=2)
    elif kind == "pure-ghost":
        top = 3
        D = pure_ghost_datum(draw(st.integers(1, 2)), cutoff=top)
    else:
        top = 2
        D = bg_gl1_datum(cutoff=top)
    return D, draw(st.integers(0, top))


def _gram_file(draw):
    """Abelian rank 1-3 over Heisenberg matter with a drawn symmetric
    Gram matrix, the currents being the matter generators; each row
    (a, b, 1) is written once."""
    rank = draw(st.integers(1, 3))
    data = abelian_datum(0, rank, cutoff=4 - rank).to_dict()
    names = data["basis"]
    entry = st.sampled_from(["0", "0", "1", "-1", "2", "1/2", "t"])
    brackets = []
    for i in range(rank):
        for j in range(i, rank):
            g = draw(entry)
            if g != "0":
                brackets += [{"a": a, "b": b, "n": 1, "value": [],
                              "central_coeff": g}
                             for a, b in sorted({(names[i], names[j]),
                                                 (names[j], names[i])})]
    data["matter"]["brackets"] = brackets
    return data


def _sl2_fundamentals_file(draw):
    """sl2 on 1 or 2 copies of the fundamental, with charges under which
    every weight-0 generator counts +1, so every charge block is finite;
    one current coefficient may be drawn anew."""
    D = bg_fundamental_sl2_datum(draw(st.integers(1, 2)), cutoff=1,
                                 charge_window=(-2, 2))
    data = D.to_dict()
    for g in data["matter"]["generators"]:
        g["charge"] = -1 if g["weight"] == 1 else 1
    del data["ghost_charges"]
    if draw(st.booleans()):
        row = draw(st.sampled_from(data["currents"]))
        draw(st.sampled_from(row["terms"]))["coeff"] = draw(
            st.sampled_from(["1", "-1", "2", "1/2"]))
    return data


def _wakimoto_file(draw):
    """Wakimoto at a drawn level, with the coefficient of T phi* in f
    drawn anew half of the time."""
    data = wakimoto_datum(draw(LEVELS), cutoff=1).to_dict()
    if draw(st.booleans()):
        f = next(r for r in data["currents"] if r["gen"] == "f")
        term = next(t for t in f["terms"]
                    if t["factors"] == [{"gen": "phi_star", "dpow": 1}])
        term["coeff"] = format_scalar(sc(draw(
            st.fractions(-6, 6, max_denominator=4))))
    return data


@st.composite
def brst_files(draw):
    """A brst.v1 document whose matter is a vertex Lie algebra."""
    make = draw(st.sampled_from([_gram_file, _sl2_fundamentals_file,
                                 _wakimoto_file]))
    return make(draw)


def assert_first_violation_is_the_sweeps(D, W):
    first = D.first_d_squared_violation(W)
    report, _ = D.check_d_squared(W)
    assert (first is None) == report.ok
    if first is not None:
        assert first == report.violations[0]


@settings(max_examples=60, deadline=None)
@given(stock_datums())
def test_first_violation_is_the_sweeps_on_stock_data(datum):
    assert_first_violation_is_the_sweeps(*datum)


@settings(max_examples=40, deadline=None)
@given(brst_files(), st.data())
def test_first_violation_is_the_sweeps_on_generated_files(data, draw):
    D = BRSTDatum.from_dict(data)
    assert_first_violation_is_the_sweeps(
        D, draw.draw(st.integers(0, data["cutoff"])))


def _perturb_matter(draw, data):
    """Add one weight-homogeneous term to one matter bracket a_(n)b: a
    T^e g with wt g + e = wt a + wt b - n - 1, or a central part when
    that weight is 0.  Returns the pointer of the term when it breaks
    the ghost number or the charge of a_(n)b (the central part, of
    grades 0, only when its sum is nonzero), else None."""
    matter = data["matter"]
    weight = {g["name"]: Fraction(g["weight"])
              for g in matter["generators"]}
    grades = {g["name"]: (g["ghost"], g["charge"])
              for g in matter["generators"]}
    names = sorted(weight)
    a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    bound = int(weight[a] + weight[b]) - 1
    if bound < 0:
        a = b = next(g for g in names if weight[g] >= 1)
        bound = int(2 * weight[a]) - 1
    n = draw(st.integers(0, bound))
    want = weight[a] + weight[b] - n - 1
    terms = [(g, int(want - weight[g])) for g in names
             if want >= weight[g] and (want - weight[g]).denominator == 1]
    terms += [None] if want == 0 else []
    term = draw(st.sampled_from(terms))
    coeff = draw(st.sampled_from(["1", "-1", "2", "1/2"]))
    want_grades = tuple(x + y for x, y in zip(grades[a], grades[b]))
    r, row = next(((r, row) for r, row in enumerate(matter["brackets"])
                   if (row["a"], row["b"], row["n"]) == (a, b, n)),
                  (len(matter["brackets"]), None))
    if row is None:
        row = {"a": a, "b": b, "n": n, "value": []}
        matter["brackets"].append(row)
    at = "/matter/brackets/%d/" % r
    if term is None:
        row["central_coeff"] = "(%s)+(%s)" % (row.get("central_coeff", "0"),
                                              coeff)
        breaks = (want_grades != (0, 0)
                  and not parse_scalar(row["central_coeff"]).is_zero())
        return at + "central_coeff" if breaks else None
    g, e = term
    k, old = next(((k, t) for k, t in enumerate(row["value"])
                   if (t["gen"], t.get("dpow", 0)) == (g, e)),
                  (len(row["value"]), None))
    if old is None:
        row["value"].append({"gen": g, "dpow": e, "coeff": coeff})
    else:
        old["coeff"] = "(%s)+(%s)" % (old["coeff"], coeff)
    return at + "value/%d" % k if grades[g] != want_grades else None


def run_brst_file(data, *argv):
    """``brst --input`` on the document: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "datum.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["brst", "--input", path] + list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(brst_files(), st.data())
def test_matter_is_refused_exactly_when_not_a_vertex_lie_algebra(data,
                                                                 draw):
    """A matter table given one more weight-homogeneous term is refused
    with exit 2 at that term when the term breaks the ghost number or
    the charge of its bracket, else at /matter when it fails
    skew-symmetry or the Jacobi identity, and is read otherwise; either
    way with no traceback."""
    at = _perturb_matter(draw.draw, data)
    code, out, err = run_brst_file(data, "--cutoff", "0")
    assert "Traceback" not in err
    if at is not None:
        event("refused at the term")
        assert code == 2 and out == ""
        assert err.startswith("error: brst.v1: ")
        assert err.endswith(" at %s\n" % at)
        return
    L = VertexLieData.from_dict(data["matter"])
    broken = not (check_skew_symmetry(L).ok and check_jacobi(L).ok)
    event("refused" if broken else "accepted")
    if broken:
        assert code == 2 and out == ""
        assert err.startswith("error: brst.v1: matter is not a vertex Lie "
                              "algebra: ")
        assert err.endswith(" at /matter\n")
    else:
        assert code in (0, 1)
        assert_first_violation_is_the_sweeps(BRSTDatum.from_dict(data), 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_current_term_is_refused_exactly_when_it_breaks_a_grading(draw):
    """One current term of the gl_1 or the Wakimoto file, with or without
    its charge window, and with two more odd matter generators, eta of
    weight 1 and ghost number 1 and zeta of weight 0 and ghost number
    -1, becomes a drawn product of matter generators and derivatives:
    one generator, then up to 18 weight-0 generators, in a drawn order.
    The file is refused with exit 2 at that term exactly when the term
    has a weight other than 1, a ghost number other than 0, more than 16
    factors, or, under a charge window, a charge other than that of the
    ghost psi_a.  Otherwise a file without its charge window is refused
    with exit 2 at its first weight-0 even matter generator, whose
    powers make the weight blocks infinite-dimensional.  Either way with
    no traceback."""
    draw = draw.draw
    if draw(st.booleans()):
        data = bg_gl1_datum(cutoff=1).to_dict()
    else:
        data = wakimoto_datum(draw(LEVELS), cutoff=1).to_dict()
    if draw(st.booleans()):
        del data["charge_window"]
    data["matter"]["generators"] += [
        {"name": "eta", "weight": 1, "parity": 1, "ghost": 1},
        {"name": "zeta", "weight": 0, "parity": 1, "ghost": -1}]
    gens = {g["name"]: g for g in data["matter"]["generators"]}
    zero = sorted(n for n, g in gens.items() if g["weight"] == 0)
    one = sorted(n for n, g in gens.items() if g["weight"] == 1)
    head = draw(st.one_of(st.tuples(st.sampled_from(one), st.just(0)),
                          st.tuples(st.sampled_from(zero), st.just(1)),
                          st.tuples(st.sampled_from(sorted(gens)),
                                    st.integers(0, 2))))
    tail = [(n, 0) for n in draw(st.lists(st.sampled_from(zero),
                                          max_size=18))]
    factors = draw(st.permutations([head] + tail))
    r = draw(st.integers(0, len(data["currents"]) - 1))
    row = data["currents"][r]
    k = draw(st.integers(0, len(row["terms"]) - 1))
    row["terms"][k]["factors"] = [{"gen": n, "dpow": e} for n, e in factors]

    weight = sum(Fraction(gens[n]["weight"]) + e for n, e in factors)
    ghost = sum(gens[n].get("ghost", 0) for n, _ in factors)
    charge = sum(gens[n].get("charge", 0) for n, _ in factors)
    want = data.get("ghost_charges", {}).get(row["gen"], 0)
    refused = (weight != 1 or ghost != 0 or len(factors) > 16
               or ("charge_window" in data and charge != want))
    event("refused" if refused else "accepted")
    code, out, err = run_brst_file(data, "--cutoff", "0")
    assert "Traceback" not in err
    if refused:
        assert code == 2 and out == ""
        assert err.startswith("error: brst.v1: current %s has a term "
                              % row["gen"])
        assert err.endswith(" at /currents/%d/terms/%d\n" % (r, k))
    elif "charge_window" not in data:
        first = min(k for k, g in enumerate(data["matter"]["generators"])
                    if g["weight"] == 0 and g.get("parity", 0) == 0)
        assert code == 2 and out == ""
        assert err.startswith("error: brst.v1: weight blocks are "
                              "infinite-dimensional (weight-0 even ")
        assert err.endswith(" at /matter/generators/%d\n" % first)
    else:
        assert code in (0, 1)
        assert "/currents/" not in err


# stems of names that no ghost psi_a or psi*_a can have
NAME_STEMS = st.text(string.ascii_letters.replace("p", "")
                     + string.digits + "_*()'", max_size=4)


def _rename_and_permute(draw, data):
    """A copy of the brst.v1 document with every matter generator and
    every Lie basis element renamed, to a drawn stem and a distinct
    number, and with its generators, brackets, basis elements, structure
    rows and currents declared in drawn orders."""
    data = json.loads(json.dumps(data))
    matter = data["matter"]

    def renaming(old):
        return {n: "%s#%d" % (draw(NAME_STEMS), k)
                for k, n in enumerate(old)}

    gen = renaming([g["name"] for g in matter["generators"]])
    basis = renaming(data["basis"])
    for g in matter["generators"]:
        g["name"] = gen[g["name"]]
    for row in matter["brackets"]:
        row["a"], row["b"] = gen[row["a"]], gen[row["b"]]
        for t in row["value"]:
            t["gen"] = gen[t["gen"]]
    data["basis"] = [basis[n] for n in data["basis"]]
    for row in data["structure"]:
        row["a"], row["b"] = basis[row["a"]], basis[row["b"]]
        for t in row["terms"]:
            t["gen"] = basis[t["gen"]]
    for row in data["currents"]:
        row["gen"] = basis[row["gen"]]
        for t in row["terms"]:
            for f in t["factors"]:
                f["gen"] = gen[f["gen"]]
    if "ghost_charges" in data:
        data["ghost_charges"] = {basis[n]: q for n, q
                                 in data["ghost_charges"].items()}
    for owner, key in ((matter, "generators"), (matter, "brackets"),
                       (data, "basis"), (data, "structure"),
                       (data, "currents")):
        owner[key] = draw(st.permutations(owner[key]))
    return data


@settings(max_examples=40, deadline=None)
@given(brst_files(), st.data())
def test_brst_report_survives_renaming_and_reordering(data, draw):
    """Renaming the matter generators and the basis elements and
    declaring everything in another order keeps the exit code of
    ``brst --cohomology``, its verdict on d^2 and, where it computes
    them, the cohomology dimensions; witness names may change."""
    W = str(draw.draw(st.integers(0, data["cutoff"])))
    other = _rename_and_permute(draw.draw, data)
    (code, out, err), (code2, out2, err2) = (
        run_brst_file(d, "--cutoff", W, "--cohomology")
        for d in (data, other))
    assert "Traceback" not in err + err2
    assert code == code2
    event("exit %d" % code)
    if out:
        rep, rep2 = json.loads(out), json.loads(out2)
        for key in ("d_squared_zero", "cohomology_dims"):
            assert rep.get(key) == rep2.get(key)


@pytest.mark.parametrize("preset", sorted(presets.BRST_PRESETS))
@pytest.mark.parametrize("level", ["stock", "k", "-3/7"])
def test_presets_pass_the_reader(preset, level):
    """The presets are built in code, where no reader checks them: each
    datum, matter included, passes the schema and every check of
    ``from_dict``, and reads back unchanged."""
    entry = presets.BRST_PRESETS[preset]
    D = entry["build"](_level(entry["level"] if level == "stock"
                              else level), 0)
    data = D.to_dict()
    validate(data, "brst.v1")
    assert BRSTDatum.from_dict(data).to_dict() == data


@pytest.mark.parametrize("cutoff", range(5))
def test_pure_ghost_file_reports_as_the_preset(cutoff):
    """A brst.v1 matter may have no generators, so the pure-ghost datum
    has a file, and ``brst --input`` on it gives the preset's verdict
    and cohomology."""
    data = pure_ghost_datum(cutoff=5).to_dict()
    assert data["matter"]["generators"] == []
    validate(data, "brst.v1")
    assert BRSTDatum.from_dict(data).to_dict() == data
    argv = ["--cutoff", str(cutoff), "--cohomology"]
    code, out, err = run_brst_file(data, *argv)
    out2, err2 = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out2), contextlib.redirect_stderr(err2):
        code2 = main(["brst", "--preset", "pure-ghost"] + argv)
    assert (code, err) == (code2, err2.getvalue()) == (0, "")
    rep, rep2 = json.loads(out), json.loads(out2.getvalue())
    for key in ("d_squared_zero", "cohomology_dims"):
        assert rep[key] == rep2[key]


@pytest.mark.parametrize("preset", sorted(presets.BRST_PRESETS))
@pytest.mark.parametrize("level", ["stock", "k"])
def test_preset_matter_is_a_vertex_lie_algebra(preset, level):
    """Presets build their matter in code, where no loader checks it."""
    entry = presets.BRST_PRESETS[preset]
    D = entry["build"](_level(entry["level"] if level == "stock"
                              else level), 0)
    assert check_sesquilinearity(D.matter).ok
    assert check_skew_symmetry(D.matter).ok
    assert check_jacobi(D.matter).ok
