import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from opelab import presets
from opelab.operads import (
    AlgebraInstance,
    check_relations,
    conf_ring,
    exterior_bv_pair,
    heisenberg_rank4,
    homology_p_d_bridge,
    matrix_2x2,
    odd_symplectic_bd0,
    odd_symplectic_bd0u,
    odd_symplectic_bv,
    odd_symplectic_p2,
    sl2_lie,
    truncated_polynomial_poisson,
)
from opelab.cli import main
from opelab.scalars import ZERO, Scalar, format_scalar, sc
from opelab.schemas import SchemaViolation, validate

import operads_oracle


# -- an independent model for the odd-pair fixtures ------------------------
#
# Elements of Q[x]/x^3 tensor an odd line, written (k, eps) for x^k th^eps.
# The unary operator is x d/dx applied after d/dth, and the bracket is its
# deviation from being a derivation.  The fixtures' tables are required to
# agree with this model entry by entry.

def _mul(a, b):
    (k1, e1), (k2, e2) = a, b
    if e1 and e2:
        return None
    if k1 + k2 > 2:
        return None
    return (k1 + k2, e1 + e2)


def _vec_mul(u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            ab = _mul(a, b)
            if ab is not None:
                out[ab] = out.get(ab, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _T(u):
    return {(k, 0): c * k for (k, e), c in u.items() if e and k}


def _deviation(a, b):
    # T(ab) - T(a) b - (-1)^|a| a T(b) on basis elements
    pa = a[1]
    lhs = _T(_vec_mul({a: 1}, {b: 1}))
    r1 = _vec_mul(_T({a: 1}), {b: 1})
    r2 = {k: (-1) ** pa * c for k, c in _vec_mul({a: 1}, _T({b: 1})).items()}
    out = dict(lhs)
    for part in (r1, r2):
        for k, c in part.items():
            out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _odd_pair_index(name):
    k = name.count("x") if "x2" not in name else 2
    return (k, 1 if "th" in name else 0)


def test_odd_pair_tables_match_independent_model():
    A = odd_symplectic_bv()
    elems = [_odd_pair_index(n) for n in A.names]
    pos = {e: i for i, e in enumerate(elems)}
    for i, j in itertools.product(range(6), repeat=2):
        want_m = _vec_mul({elems[i]: 1}, {elems[j]: 1})
        got_m = A.ev2("m", A.basis_vec(i), A.basis_vec(j))
        assert {pos[k]: c for k, c in want_m.items()} == \
            {k: v.evaluate(0) for k, v in got_m.items()}
        want_pi = _deviation(elems[i], elems[j])
        got_pi = A.ev2("pi", A.basis_vec(i), A.basis_vec(j))
        assert {pos[k]: c for k, c in want_pi.items()} == \
            {k: v.evaluate(0) for k, v in got_pi.items()}, (i, j)
    for i in range(6):
        want_d = _T({elems[i]: 1})
        got_d = A.ev1("delta", A.basis_vec(i))
        assert {pos[k]: c for k, c in want_d.items()} == \
            {k: v.evaluate(0) for k, v in got_d.items()}


def test_odd_pair_passes_bv_and_p2():
    assert check_relations(odd_symplectic_bv(), "BV")["passed"]
    assert check_relations(odd_symplectic_p2(), "P_2")["passed"]


# -- the hbar and u families ----------------------------------------------

def test_bd0_suite_passes():
    rep = check_relations(odd_symplectic_bd0(), "BD_0")
    assert rep["passed"]
    names = [r["name"] for r in rep["relations"]]
    assert "deformed Leibniz" in names
    assert "biderivation" in names


def test_bd0_at_zero_is_p0():
    A = odd_symplectic_bd0().specialize(0)
    assert check_relations(A, "P_0")["passed"]


def test_bd0u_suite_passes_with_convention_flag():
    rep = check_relations(odd_symplectic_bd0u(), "BD_0^u")
    assert rep["passed"]
    assert any("sign convention" in f for f in rep["flags"])


def test_bd0u_at_zero_passes_p2():
    A = odd_symplectic_bd0u().specialize(0)
    assert check_relations(A, "P_2")["passed"]


def test_heisenberg_is_bd1():
    assert check_relations(heisenberg_rank4(), "BD_1")["passed"]


def test_specialize_keeps_the_bracket_parity():
    # an hbar family on the exterior pair, whose bracket is even though
    # its degree is odd
    E = exterior_bv_pair()
    A = AlgebraInstance(E.names, E.degrees, E.parities, E.tables,
                        ring="hbar", pi_degree=1, pi_parity=0,
                        delta_parity=0)
    B = A.specialize(0)
    assert B.pi_parity == 0
    assert check_relations(B, "BV")["passed"]


def test_bd1_specializations():
    H = heisenberg_rank4()
    assert check_relations(H.specialize(0), "P_1")["passed"]
    assert check_relations(H.specialize(1), "Ass")["passed"]


# -- small classical checks ------------------------------------------------

def test_truncated_line_passes_every_p_suite():
    A = truncated_polynomial_poisson()
    for preset in ("P_0", "P_1", "P_2", "P_3", "Comm"):
        assert check_relations(A, preset)["passed"], preset


def test_matrix_algebra_fails_commutativity_with_witness():
    rep = check_relations(matrix_2x2(), "Comm")
    assert not rep["passed"]
    v = rep["violations"][0]
    assert v["relation"] == "commutativity"
    assert v["args"] == ("E11", "E12")
    assert check_relations(matrix_2x2(), "Ass")["passed"]


def test_exterior_pair_passes_bv():
    assert check_relations(exterior_bv_pair(), "BV")["passed"]


def test_exterior_deviation_matches_cross_derivative():
    # independent exterior-algebra model: subsets of {1, 2} with the
    # usual wedge signs, delta = d/dth1 d/dth2
    def wedge(s, t):
        if set(s) & set(t):
            return None, 0
        merged = tuple(sorted(s + t))
        inv = sum(1 for a in s for b in t if a > b)
        return merged, (-1) ** inv

    def der(i, s):
        if i not in s:
            return None, 0
        k = s.index(i)
        return s[:k] + s[k + 1:], (-1) ** k

    def delta(s):
        t, s1 = der(2, s)
        if t is None:
            return None, 0
        u, s2 = der(1, t)
        if u is None:
            return None, 0
        return u, s1 * s2

    subsets = [(), (1,), (2,), (1, 2)]
    A = exterior_bv_pair()
    for i, j in itertools.product(range(4), repeat=2):
        a, b = subsets[i], subsets[j]
        out = {}
        ab, s = wedge(a, b)
        if ab is not None:
            t, sd = delta(ab)
            if t is not None:
                out[t] = out.get(t, 0) + s * sd
        t, sd = delta(a)
        if t is not None:
            tb, s2 = wedge(t, b)
            if tb is not None:
                out[tb] = out.get(tb, 0) - sd * s2
        t, sd = delta(b)
        if t is not None:
            at, s2 = wedge(a, t)
            if at is not None:
                out[at] = out.get(at, 0) - sd * s2
        out = {k: c for k, c in out.items() if c}
        got = A.ev2("pi", A.basis_vec(i), A.basis_vec(j))
        got = {subsets[k]: v.evaluate(0) for k, v in got.items()}
        assert out == got, (a, b)


def test_sl2_is_lie():
    assert check_relations(sl2_lie(), "Lie")["passed"]


def test_symmetrized_bracket_is_not_lie():
    A = sl2_lie()
    A.tables["pi"][(2, 0)] = dict(A.tables["pi"][(0, 2)])
    rep = check_relations(A, "Lie")
    assert not rep["passed"]
    assert rep["violations"][0]["relation"] == "bracket symmetry"


# -- the suites against the reference loops ------------------------------

STOCK = [truncated_polynomial_poisson, matrix_2x2, heisenberg_rank4,
         odd_symplectic_bv, odd_symplectic_p2, odd_symplectic_bd0,
         odd_symplectic_bd0u, exterior_bv_pair, sl2_lie]
SUITES = ["Comm", "Ass", "Lie", "P_-1", "P_0", "P_1", "P_2", "P_3", "BV",
          "BD_0", "BD_1", "BD_0^u"]


def _outcome(check, A, suite):
    try:
        return check(A, suite)
    except ValueError as e:
        return "raised: %s" % e


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("build", STOCK, ids=lambda b: b.__name__)
def test_stock_suites_match_the_oracle(build, suite):
    assert _outcome(check_relations, build(), suite) == \
        _outcome(operads_oracle.check_relations, build(), suite)


COEFFS = [0, 0, 1, -1, 2, Fraction(1, 2)]


@st.composite
def random_instances(draw):
    """Tables over at most 4 basis elements with random degrees and
    parities; every entry the degree and parity rules allow is drawn
    from constants and polynomials in one ring variable, so that the
    hbar and u suite parameters meet entries they cannot mix with."""
    n = draw(st.integers(1, 4))
    parities = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    degrees = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    pi_degree = draw(st.integers(-1, 1))
    pi_parity = draw(st.sampled_from([None, 0, 1]))
    delta_parity = draw(st.integers(0, 1))
    var = draw(st.sampled_from(["hbar", "u"]))
    x = Scalar.variable(var)
    coeffs = st.sampled_from(COEFFS + [x, -x, x + 1, x * x])
    ops = draw(st.sets(st.sampled_from(sorted(AlgebraInstance.OP_ARITY)),
                       min_size=1))
    shift = {"m": 0, "pi": pi_degree, "delta": 1, "d": -1}
    parity = {"m": 0, "pi": pi_degree if pi_parity is None else pi_parity,
              "delta": delta_parity, "d": 1}
    tables = {}
    for op in sorted(ops):
        table = tables[op] = {}
        for key in itertools.product(range(n),
                                     repeat=AlgebraInstance.OP_ARITY[op]):
            deg = sum(degrees[i] for i in key) + shift[op]
            par = sum(parities[i] for i in key) + parity[op]
            for k in range(n):
                if degrees[k] == deg and parities[k] == par % 2:
                    c = draw(coeffs)
                    if c != 0:
                        table.setdefault(key, {})[k] = c
    return AlgebraInstance(["e%d" % i for i in range(n)], degrees,
                           parities, tables, ring=var, pi_degree=pi_degree,
                           pi_parity=pi_parity, delta_parity=delta_parity)


@settings(max_examples=150, deadline=None)
@given(random_instances())
def test_random_suites_match_the_oracle(A):
    for suite in SUITES:
        assert _outcome(check_relations, A, suite) == \
            _outcome(operads_oracle.check_relations, A, suite), suite


# -- instance plumbing -----------------------------------------------------

def test_missing_table_is_named():
    with pytest.raises(ValueError, match="missing table 'm'"):
        check_relations(sl2_lie(), "BD_1")


def test_unknown_preset_rejected():
    for preset in ("P_", "P_x", "frobenius"):
        with pytest.raises(ValueError) as e:
            check_relations(sl2_lie(), preset)
        assert str(e.value) == "unknown preset %r" % preset


def test_entry_degree_enforced():
    data = {"basis": [{"name": "a", "degree": 0},
                      {"name": "b", "degree": 1}],
            "tables": {"d": {"a": {"b": "1"}}}}
    with pytest.raises(SchemaViolation) as e:
        AlgebraInstance.from_dict(data)
    assert e.value.pointer == "/tables/d/a/b"
    assert e.value.message == ("an entry of wrong degree (b has 1, the "
                               "entry needs -1)")


def test_entry_parity_enforced():
    data = {"basis": [{"name": "a", "degree": 0},
                      {"name": "b", "degree": 0, "parity": 1}],
            "tables": {"pi": {"a,a": {"b": "1"}}}, "pi_degree": 0}
    with pytest.raises(SchemaViolation) as e:
        AlgebraInstance.from_dict(data)
    assert e.value.pointer == "/tables/pi/a,a/b"
    assert e.value.message == ("an entry of wrong parity (b has 1, the "
                               "entry needs 0)")


def test_relation_report_lists_checks():
    rep = check_relations(matrix_2x2(), "Ass")
    assert rep["relations"] == [{"name": "associativity", "ok": True}]


def test_alg_round_trip():
    for build in (heisenberg_rank4, odd_symplectic_bv, exterior_bv_pair,
                  odd_symplectic_bd0u):
        A = build()
        data = A.to_dict()
        assert AlgebraInstance.from_dict(data).to_dict() == data


@pytest.mark.parametrize("name", sorted(presets.ALG_PRESETS))
def test_alg_presets_pass_the_reader(name):
    """The presets are built in code, where no reader checks the degree
    and parity of their entries: each passes the alg.v1 schema and
    every check of ``from_dict`` and reads back unchanged."""
    data = validate(presets.ALG_PRESETS[name]["build"]().to_dict(),
                    "alg.v1")
    assert AlgebraInstance.from_dict(data).to_dict() == data


# -- metamorphic: a change of basis keeps every verdict --------------------

SUITE_NAMES = ["Comm", "Ass", "Lie", "P_0", "P_1", "P_2", "P_3", "BV",
               "BD_0", "BD_1", "BD_0^u"]


def _change_of_basis(draw, data):
    """A copy of the alg.v1 document in the basis e'_a = sum_i P_ia e_i,
    with P a drawn unitriangular integer matrix inside each (degree,
    parity) class and the identity across classes: every table becomes
    P^-1 op(P x, P y), so each entry keeps its degree and parity."""
    A = AlgebraInstance.from_dict(data)
    n = len(A.names)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if (A.degrees[i], A.parities[i]) == (A.degrees[j], A.parities[j]):
            P[i][j] = draw(st.integers(-2, 2))
    # P is upper unitriangular, and so is its inverse Q
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in reversed(range(j)):
            Q[i][j] = -sum(P[i][k] * Q[k][j] for k in range(i + 1, j + 1))
    new = [{i: sc(P[i][a]) for i in range(n) if P[i][a]} for a in range(n)]
    tables = {}
    for op, table in A.tables.items():
        out = {}
        for key in itertools.product(range(n), repeat=A.OP_ARITY[op]):
            args = [new[a] for a in key]
            old = A.ev2(op, *args) if len(args) == 2 else A.ev1(op, *args)
            col = {}
            for b in range(n):
                c = sum((v * Q[b][j] for j, v in old.items()), ZERO)
                if not c.is_zero():
                    col[A.names[b]] = format_scalar(c)
            if col:
                out[",".join(A.names[a] for a in key)] = col
        tables[op] = out
    return dict(data, tables=tables)


def run_operad_check(tmp_path, data, suite):
    """``operad-check --input`` on the document: (exit code, report)."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["operad-check", "--input", str(path), "--suite",
                     suite])
    return code, json.loads(out.getvalue()) if code != 2 else None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(presets.ALG_PRESETS)), st.data())
def test_verdicts_survive_a_change_of_basis(tmp_path_factory, name, draw):
    """A unitriangular change of basis inside each degree and parity is
    an isomorphism of the algebra, so ``passed`` and each relation's
    ``ok`` stay, on the preset's own suite and on any other; the
    witnesses may change."""
    entry = presets.ALG_PRESETS[name]
    data = entry["build"]().to_dict()
    suite = draw.draw(st.one_of(st.just(entry["suite"]),
                                st.sampled_from(SUITE_NAMES)))
    tmp = tmp_path_factory.mktemp("alg")
    code, report = run_operad_check(tmp, data, suite)
    moved = _change_of_basis(draw.draw, data)
    event("exit %d, %s" % (code, "moved" if moved != data else "same"))
    code2, report2 = run_operad_check(tmp, moved, suite)
    assert code2 == code
    if report is not None:
        assert report2["passed"] == report["passed"]
        assert report2["relations"] == report["relations"]


# -- configuration rings ---------------------------------------------------
#
# The reference for conf_ring: the free graded-commutative ring on the
# classes w_ij, reduced degreewise by the three-term relations, over
# square-free monomials (the squares vanish in every case here).

def _product_formula(n, d):
    poly = {0: 1}
    for m in range(1, n):
        nxt = dict(poly)
        for deg, c in poly.items():
            nxt[deg + d - 1] = nxt.get(deg + d - 1, 0) + m * c
        poly = nxt
    return {k: v for k, v in poly.items() if v}


def _merge_sign(mono, extra, d):
    """Product of the square-free monomials mono * extra (tuples of
    pairs, each sorted), or None if they overlap; generators commute up
    to (-1)^(d-1) per transposition."""
    if set(mono) & set(extra):
        return None, None
    merged = tuple(sorted(mono + extra))
    if (d - 1) % 2 == 0:
        return merged, 1
    inv = 0
    combined = list(mono) + list(extra)
    for a in range(len(combined)):
        for b in range(a + 1, len(combined)):
            if combined[a] > combined[b]:
                inv += 1
    return merged, (-1) ** inv


def _reduce(row, pivots):
    """Reduce row against the echelon rows ``pivots`` (lead column ->
    row) over Q; add it and return True if it is independent of them."""
    row = {c: Fraction(v) for c, v in row.items()}
    while row:
        lead_col = min(row)
        if lead_col not in pivots:
            pivots[lead_col] = row
            return True
        prow = pivots[lead_col]
        factor = row[lead_col] / prow[lead_col]
        for c, v in prow.items():
            row[c] = row.get(c, Fraction(0)) - factor * v
        row = {c: v for c, v in row.items() if v}
    return False


def _conf_relations(n, d, reverse_order=False):
    """Form degree k -> (monomials, their column positions, echelon form
    of the relation rows), every square-free degree included."""
    pairs = [(i, j) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    # three-term rule in sorted pair order:
    # w_ij w_jk = w_ij w_ik + w_ik w_jk  for i < j < k
    triples = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        triples.append((((i, j), (j, k)), (((i, j), (i, k)), 1),
                        (((i, k), (j, k)), 1)))
    out = {}
    for k in range(len(pairs) + 1):
        monos = [tuple(sorted(c))
                 for c in itertools.combinations(pairs, k)]
        if reverse_order:
            monos = monos[::-1]
        pos = {m: i for i, m in enumerate(monos)}
        pivots = {}
        for (lead, t1, t2) in (triples if k >= 2 else []):
            for rest in itertools.combinations(pairs, k - 2):
                row = {}
                for pairset, coeff in ((lead, 1), (t1[0], -t1[1]),
                                       (t2[0], -t2[1])):
                    merged, s = _merge_sign(tuple(sorted(pairset)),
                                            tuple(sorted(rest)), d)
                    if merged is not None:
                        row[pos[merged]] = row.get(pos[merged], 0) \
                            + coeff * s
                row = {c: v for c, v in row.items() if v}
                if row:
                    _reduce(row, pivots)
        out[k] = (monos, pos, pivots)
    return out


def _oracle_dims(relations):
    return {k: len(monos) - len(pivots)
            for k, (monos, _, pivots) in relations.items()
            if len(monos) > len(pivots)}


def test_conf_dims_match_product_formula():
    for n in range(1, 7):
        for d in (2, 3):
            R = conf_ring(n, d)
            got = {k * (d - 1): v for k, v in R.dims.items() if v}
            assert got == _product_formula(n, d), (n, d)
            for k, monos in R.basis.items():
                assert len(set(monos)) == len(monos) == R.dims[k]
                for m in monos:
                    # sorted pairs i < j, one factor at most per j
                    assert list(m) == sorted(m) and len(m) == k
                    assert all(i < j for i, j in m)
                    assert len({j for _, j in m}) == k


def test_conf_ring_matches_relation_elimination():
    # both parities of d - 1; the NBC monomials must be a basis of the
    # quotient, not only the right count: stacked under the relation
    # rows, their unit rows raise the rank to the number of monomials
    for n in range(1, 6):
        for d in (2, 3):
            R = conf_ring(n, d)
            relations = _conf_relations(n, d)
            assert _oracle_dims(relations) == R.dims, (n, d)
            assert _oracle_dims(_conf_relations(n, d, reverse_order=True)) \
                == R.dims, (n, d)
            for k, (monos, pos, pivots) in relations.items():
                for m in R.basis.get(k, []):
                    assert _reduce({pos[m]: 1}, pivots), (n, d, m)
                assert len(pivots) == len(monos), (n, d, k)


def test_conf_totals_are_factorials():
    import math
    for n in range(1, 7):
        assert conf_ring(n, 2).total == math.factorial(n)
        assert conf_ring(n, 3).total == math.factorial(n)


def test_conf_n5_total():
    assert conf_ring(5, 2).total == 120


def test_conf_poincare_strings():
    assert conf_ring(3, 2).poincare() == "1 + 3t + 2t^2"
    assert conf_ring(3, 3).poincare() == "1 + 3t^2 + 2t^4"
    assert conf_ring(1, 2).poincare() == "1"


# -- the arity bridge ------------------------------------------------------

def test_bridge_arity_two():
    r2 = homology_p_d_bridge(2, 2)
    assert r2["match"]
    assert r2["swap_sign_conf"] == r2["swap_sign_operad"] == 1
    assert r2["conf_degrees"] == [0, 1]
    r3 = homology_p_d_bridge(2, 3)
    assert r3["match"]
    assert r3["swap_sign_conf"] == r3["swap_sign_operad"] == -1
    assert r3["conf_degrees"] == [0, 2]


def test_bridge_arity_three_rank_six():
    for d in (2, 3):
        rep = homology_p_d_bridge(3, d)
        assert rep["match"]
        assert rep["conf_dims"] == 6
        assert rep["operad_rank"] == 6


