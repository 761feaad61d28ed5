"""Reduction tests.

Every numeric target here is produced inside this file before the
library gets to answer: the trace form comes from structure constants
alone, the free-field coefficients are solved from linear constraints,
the Koszul dimensions come from a subset count, and the critical levels
come from polynomial gcds of computed obstructions.
"""

import json
from fractions import Fraction

import pytest

from opelab.scalars import Scalar, ZERO, ONE, sc, sc_gcd, format_scalar
from opelab.vla import direct_sum, heisenberg, weyl_pair, SL2_STRUCT
from opelab.envelope import build_envelope
from opelab.linalg import vec_add as add_states, vec_scale as scale_state
from opelab.brst import (build_ghosts, ghost_current_words, word_state,
                         BRSTDatum, abelian_datum, pure_ghost_datum,
                         bg_gl1_datum, bg_fundamental_sl2_datum,
                         wakimoto_datum, SL2_FUND)


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
    V = build_envelope(G, cutoff=2)
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
    kg = D.kappa_ghost()
    for pair, val in kf.items():
        assert kg[pair] == sc(val), pair
    assert kf[("e", "f")] == 4 and kf[("h", "h")] == 8


# -- abelian ---------------------------------------------------------------

def test_abelian_generic_level():
    D = abelian_datum("t", cutoff=4)
    t = Scalar.variable("t")
    assert D.validate_currents().ok
    assert D.kappa_matter() == {("b", "b"): t}
    assert D.kappa_ghost() == {("b", "b"): ZERO}
    assert D.level_defect() == {("b", "b"): t}
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
    assert D.check_grading(3).ok


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
    for g in (-1, 0, 1):
        m, _, _ = D.d_matrix(2, None, g)
        assert m.is_zero()
    assert D.cohomology_dims(3) == D.block_dims(3)


# -- one even pair along gl1 ----------------------------------------------

def test_bg_gl1_levels_and_action():
    D = bg_gl1_datum(cutoff=2, charge_window=(-4, 4))
    assert D.validate_currents().ok
    assert D.kappa_matter() == {("x", "x"): sc(-1)}
    assert D.kappa_ghost() == {("x", "x"): ZERO}
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
    H = D.brst_cohomology(0)
    assert {k: v["dim"] for k, v in H.items()} == {
        (0, 0, 0): 1, (0, 0, 1): 1}
    assert H[(0, 0, 0)]["reps"] == ["Ω"]


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
        km = D.kappa_matter()
        for a, b in pairs:
            assert km[(a, b)] == sc(-k * rho_trace(a, b)), (k, a, b)
            assert D.kappa_ghost()[(a, b)] == sc(kf[(a, b)])
        states = [("psi_%s" % a, D.V.gen_state("psi_%s" % a))
                  for a in D.names]
        report, _ = D.check_d_squared(None, states=states)
        if report.ok:
            closing.append(k)
    assert closing == [4]


def test_fundamental_copies_validate_and_refuse_full_enumeration():
    D = bg_fundamental_sl2_datum(2)
    assert D.validate_currents().ok
    with pytest.raises(ValueError, match="mixed or zero charges"):
        D.V.basis(0, 0)
    with pytest.raises(ValueError, match="mixed or zero charges"):
        D.check_d_squared(0)


# -- free-field sl2 --------------------------------------------------------

def _wak_matter_states():
    t = Scalar.variable("t")
    M = direct_sum(weyl_pair(odd=False, charges=(2, -2)), heisenberg(t))
    V = build_envelope(M, cutoff=3)
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
    assert D.validate_currents().ok
    km = D.kappa_matter()
    assert km[("e", "f")] == (t - sc(4)).scale(Fraction(1, 2))
    assert km[("f", "e")] == km[("e", "f")]
    assert km[("h", "h")] == t - sc(4)
    assert km[("e", "e")] == ZERO and km[("e", "h")] == ZERO


def test_wakimoto_critical_level_is_forced(wak_generic):
    D = wak_generic
    defect = [v for v in D.level_defect().values() if not v.is_zero()]
    assert entry_gcd(defect) == Scalar.variable("t") + sc(4)
    report, entries = D.check_d_squared(2)
    assert not report.ok
    # all obstructions share the single root t = -4
    assert entry_gcd(entries) == Scalar.variable("t") + sc(4)


def test_wakimoto_closes_at_critical_level(wak_critical):
    D = wak_critical
    report, _ = D.check_d_squared(2)
    assert report.ok
    assert D.check_grading(2).ok


def test_wakimoto_weight_zero_cohomology(wak_critical):
    """By hand: the (0, 0) block has ghost-0 part spanned by the vacuum
    (so the incoming image is zero) and ghost-1 part of dimension 2 on
    which d has rank exactly 1; the kernel is the combination
    :phi* psi*_f: + psi*_h."""
    D = wak_critical
    d = D.differential()
    assert [D.V.format_mono(m) for m in D.block(0, 0, 0)] == ["Ω"]
    assert len(D.block(0, 0, 1)) == 2
    r = word_state(D.V, [(ONE, [("phi_star", 0), ("psi*_f", 0)]),
                         (ONE, [("psi*_h", 0)])])
    assert d(r) == {}
    assert d(D.V.gen_state("psi*_h")) != {}
    H = D.brst_cohomology(2)
    assert {k: v["dim"] for k, v in H.items()} == {
        (0, 0, 0): 1, (0, 0, 1): 1}
    assert H[(0, 0, 0)]["reps"] == ["Ω"]
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
    report = D.validate_currents()
    assert not report.ok
    pairs = {v["pair"] for v in report.violations if v["which"] == "matter"}
    assert ("e", "f") in pairs


def test_datum_roundtrip():
    D = abelian_datum("t", cutoff=3)
    blob = json.dumps(D.to_dict(), sort_keys=True)
    D2 = BRSTDatum.from_dict(json.loads(blob))
    assert D2.Q == D.Q
    assert D2.kappa_matter() == D.kappa_matter()
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


def test_cohomology_squares_d_once(d_squared_calls, monkeypatch):
    """After the whole-basis d^2 check, cohomology neither re-runs it nor
    computes d again: the d_matrix columns come out of the same memo."""
    D = wakimoto_datum(-4, cutoff=2)
    assert D.check_d_squared(1)[0].ok
    products = []
    product = D.V.nth_product
    monkeypatch.setattr(D.V, "nth_product",
                        lambda *a: products.append(a) or product(*a))
    H = D.brst_cohomology(1)
    assert d_squared_calls == [(1, None)]
    assert products == []
    assert {k: v["dim"] for k, v in H.items()} == {
        (0, 0, 0): 1, (0, 0, 1): 1}
    # without a prior check, cohomology runs the whole-basis pass itself
    wakimoto_datum(-4, cutoff=2).brst_cohomology(1)
    assert d_squared_calls == [(1, None), (1, None)]


def test_cli_cohomology_runs_one_d_squared_pass(d_squared_calls, capsys):
    from opelab.cli import main
    assert main(["brst", "--preset", "wakimoto", "--level", "-4",
                 "--cutoff", "1", "--cohomology"]) == 0
    assert json.loads(capsys.readouterr().out)["cohomology_dims"]
    assert d_squared_calls == [(1, None)]
