"""The envelope's correctness oracles, for the tests: the vertex-algebra
axioms and the holomorphic-topological structure of a ``VertexAlgebra``,
checked on sample states.  No verb runs them.

``check_vertex_axioms`` checks the vacuum, translation, skew-symmetry
and commutator axioms (Kac, *Vertex Algebras for Beginners*, 1998) by
two computation paths each.  ``check_topological`` checks that odd
derivations d and g_{-1} satisfy [d, g_{-1}] = T and [T, g_{-1}] = 0,
and in the framed variant [d, g_0] = L_0 and [T, g_0] = -g_{-1}.
``derivation`` builds such a derivation from its values on the
generators, through the envelope's own derivation rule
(``VertexAlgebra._derive`` with the head ``VertexAlgebra._rule_head``)."""

from fractions import Fraction
from functools import partial

from opelab.envelope import _acc
from opelab.linalg import vec_add, vec_scale
from opelab.scalars import ONE, binom, sc
from opelab.vla import CheckReport


def sample_states(V, wmax):
    """The vacuum, the generators and the basis monomials through
    weight wmax; with weight-0 even generators, those of the charges
    of one or two generators and 0."""
    out = [("|0>", V.vacuum())]
    for g in V.L.gens:
        out.append((g.name, V.gen_state(g.name)))
    seen = {m for _, s in out for m in s}
    qs = [None]
    if V._zero_even:
        qs = sorted({V.L.gens[g].charge * r
                     for g in range(len(V.L.gens))
                     for r in (1, 2)} | {0})
    w, step = Fraction(0), Fraction(1, V._D)
    while w <= wmax:
        for q in qs:
            try:
                basis = V.basis(w, q)
            except ValueError:
                continue
            for mono in basis:
                if mono not in seen:
                    seen.add(mono)
                    out.append((V.format_mono(mono), {mono: ONE}))
        w += step
    return out


def state_parity(V, state):
    ps = {V.parity(m) for m in state}
    if len(ps) > 1:
        return None
    return ps.pop() if ps else 0


def check_vertex_axioms(V, cutoff) -> CheckReport:
    """The vacuum, translation, skew-symmetry and commutator axioms
    for modes n <= cutoff, on the sample states of ``sample_states``
    through weight min(cutoff, 3)."""
    bad = []
    gens = [(g.name, V.gen_state(g.name)) for g in V.L.gens]

    if V.translate(V.vacuum()):
        bad.append({"message": "T does not annihilate the vacuum"})

    for name, a in gens:
        if V.nth_product(a, -1, V.vacuum()) != a:
            bad.append({"message": "%s_(-1)|0> != %s" % (name, name)})
        if V.nth_product(a, -2, V.vacuum()) != V.translate(a):
            bad.append({"message": "%s_(-2)|0> != T%s" % (name, name)})
        for n in range(0, cutoff + 1):
            if V.nth_product(a, n, V.vacuum()):
                bad.append({"message": "%s_(%d)|0> != 0" % (name, n)})

    states = sample_states(V, min(cutoff, 3))

    # translation covariance along both slots
    for name, a in gens:
        ta = V.translate(a)
        for lbl, b in states:
            for n in range(-2, cutoff + 1):
                lhs = V.nth_product(ta, n, b)
                rhs = vec_scale(V.nth_product(a, n - 1, b), -n)
                if lhs != rhs:
                    bad.append({"witness": (name, n, lbl), "message":
                                "(T%s)_(%d) deviates from -n %s_(n-1) "
                                "on %s" % (name, n, name, lbl)})
                lhs2 = V.translate(V.nth_product(a, n, b))
                rhs2 = vec_add(V.nth_product(ta, n, b),
                               V.nth_product(a, n, V.translate(b)))
                if lhs2 != rhs2:
                    bad.append({"witness": (name, n, lbl), "message":
                                "T fails the Leibniz rule on "
                                "%s_(%d)%s" % (name, n, lbl)})

    # skew-symmetry of products on sampled states
    for la, a in states:
        pa = state_parity(V, a)
        for lb, b in states:
            pb = state_parity(V, b)
            if pa is None or pb is None:
                continue
            sign = (-1) ** (pa * pb)
            top = int(V.state_weight(a) + V.state_weight(b))
            for n in range(-1, cutoff + 1):
                lhs = V.nth_product(a, n, b)
                rhs = {}
                j = 0
                fact = 1
                while n + j <= top:
                    term = V.nth_product(b, n + j, a)
                    for _ in range(j):
                        term = V.translate(term)
                    coeff = Fraction(sign * (-1) ** (n + j + 1), fact)
                    rhs = vec_add(rhs, vec_scale(term, coeff))
                    j += 1
                    fact *= j
                if lhs != rhs:
                    bad.append({"witness": (la, n, lb), "message":
                                "skew-symmetry fails for "
                                "%s_(%d)%s" % (la, n, lb)})

    # mode commutator law, two computation paths
    for na, a in gens:
        ia = V.L.gen(na)
        for nb, b in gens:
            ib = V.L.gen(nb)
            sign = (-1) ** (V.L.gens[ia].parity * V.L.gens[ib].parity)
            for lbl, s in states:
                for m in range(-1, 3):
                    for k in range(-1, 3):
                        lhs = vec_add(
                            V.nth_product(a, m, V.nth_product(b, k, s)),
                            vec_scale(V.nth_product(
                                b, k, V.nth_product(a, m, s)), -sign))
                        rhs = {}
                        # a_(l)b vanishes beyond the weight pole bound,
                        # and C(m, l) vanishes beyond l = m for m >= 0
                        l_top = m if m >= 0 else int(
                            V.state_weight(a) + V.state_weight(b))
                        for l in range(l_top + 1):
                            c = binom(m, l)
                            if c:
                                ab = V.nth_product(a, l, b)
                                if ab:
                                    rhs = vec_add(rhs, vec_scale(
                                        V.nth_product(ab, m + k - l, s),
                                        c))
                        if lhs != rhs:
                            bad.append({
                                "witness": (na, m, nb, k, lbl),
                                "message":
                                "commutator law fails for %s_(%d), "
                                "%s_(%d) on %s" % (na, m, nb, k, lbl)})
    return CheckReport(bad)


def derivation(V, rule, op_parity, extra_rule=None):
    """The derivation of parity ``op_parity`` given on generators.

    ``rule`` maps generator names to lists of (gen, dpow, coeff), so
    that g_(k) -> sum coeff (T^dpow gen)_(k); ``extra_rule`` adds a
    second rule at k+1 (the twist needed by rotation operators).  The
    returned operator keeps one memo of its own."""
    terms = {}
    for shift, table in ((0, rule), (1, extra_rule or {})):
        for name, ts in table.items():
            terms.setdefault(V.L.gen(name), []).extend(
                (shift, V.L.gen(g2), e, sc(c)) for g2, e, c in ts)
    head, cache = partial(V._rule_head, terms), {}
    return lambda state: V._derive(state, head, op_parity, cache)


def check_topological(V, d_rule, g_minus_rule,
                      g_zero_rule=None) -> CheckReport:
    """Check the differential graded structure: d and g_{-1} odd
    derivations with [d, g_{-1}] = T and [T, g_{-1}] = 0; in the
    framed variant also [d, g_0] = L_0 and [T, g_0] = -g_{-1}.  The
    identities are checked on the sample states through weight 2,
    and the derivation rule of g_{-1} on their n-th products for
    -2 <= n <= 2."""
    bad = []
    d = derivation(V, d_rule, 1)
    gm = derivation(V, g_minus_rule, 1)
    g0 = None
    if g_zero_rule is not None:
        g0 = derivation(V, g_zero_rule, 1, extra_rule=g_minus_rule)
    states = sample_states(V, 2)

    for lbl, s in states:
        lhs = vec_add(d(gm(s)), gm(d(s)))
        if lhs != V.translate(s):
            bad.append({"witness": lbl, "message":
                        "[d, g_{-1}] != T on %s" % lbl})
        lhs = vec_add(V.translate(gm(s)),
                      vec_scale(gm(V.translate(s)), -1))
        if lhs:
            bad.append({"witness": lbl, "message":
                        "[T, g_{-1}] != 0 on %s" % lbl})
        if g0 is not None:
            lhs = vec_add(d(g0(s)), g0(d(s)))
            want = {}
            for mono, c in s.items():
                _acc(want, mono, c.scale(V.weight(mono)))
            if lhs != want:
                bad.append({"witness": lbl, "message":
                            "[d, g_0] != L_0 on %s" % lbl})
            lhs = vec_add(V.translate(g0(s)),
                          vec_scale(g0(V.translate(s)), -1))
            if lhs != vec_scale(gm(s), -1):
                bad.append({"witness": lbl, "message":
                            "[T, g_0] != -g_{-1} on %s" % lbl})

    # g_{-1} is a derivation of every n-th product
    for la, a in states:
        pa = state_parity(V, a)
        if pa is None:
            continue
        for lb, b in states:
            for n in range(-2, 3):
                lhs = gm(V.nth_product(a, n, b))
                rhs = vec_add(
                    V.nth_product(gm(a), n, b),
                    vec_scale(V.nth_product(a, n, gm(b)), (-1) ** pa))
                if lhs != rhs:
                    bad.append({"witness": (la, n, lb), "message":
                                "g_{-1} fails the derivation rule on "
                                "%s_(%d)%s" % (la, n, lb)})
    return CheckReport(bad)
