"""Enveloping vertex algebras of vertex Lie algebras, with exact OPE
calculus on a PBW basis.

States are finite linear combinations of normally ordered monomials

    g1_(k1) g2_(k2) ... gr_(kr) |0>,   k1 <= k2 <= ... <= kr <= -1,

stored as tuples of (mode, generator index) pairs sorted ascending with
ties broken by generator order; a repeated odd mode is zero.  The weight of
a mode g_(k) is wt(g) - k - 1, so every monomial has nonnegative weight and
all the recursions below terminate by weight exhaustion.

Products are computed from two recursions:

  * inserting a single mode into a monomial, commuting it into place with
    Koszul signs and the generator bracket
        [a_(m), b_(n)] = sum_k C(m, k) (a_(k) b)_(m+n-k);
  * the iterate identity, peeled off the deepest mode of the left factor,
        (g_(m) a)_(n) b = sum_j (-1)^j C(m, j)
            [ g_(m-j) (a_(n+j) b)
              - (-1)^m (-1)^{|g||a|} a_(m+n-j) (g_(j) b) ].

The optional central element acts as (1b)_(p) = c delta_{p,-1} for the
chosen central value c, which realizes the envelope at that central
specialization.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import Scalar, ZERO, ONE, sc, binom, falling, format_scalar
from .vla import VertexLieData, CheckReport
from .linalg import vec_add, vec_scale


def _acc(out: dict, key, val: Scalar):
    cur = out.get(key, ZERO) + val
    if cur.is_zero():
        out.pop(key, None)
    else:
        out[key] = cur


class VertexAlgebra:
    def __init__(self, L: VertexLieData, cutoff, central_value=ONE,
                 charge_window=None):
        if cutoff is None:
            raise ValueError(
                "build_envelope requires an explicit weight cutoff; "
                "pass cutoff=<max weight>")
        self.L = L
        self.cutoff = Fraction(cutoff)
        self.central_value = sc(central_value)
        self.charge_window = charge_window
        self._mode_cache = {}
        self._prod_cache = {}
        self._basis_cache = {}
        # weight-0 modes make plain weight blocks infinite; they are only
        # enumerable through a charge slicing
        self._zero_even = [i for i, g in enumerate(L.gens)
                           if g.weight == 0 and g.parity == 0]
        self._zero_odd = [i for i, g in enumerate(L.gens)
                          if g.weight == 0 and g.parity == 1]
        # the recursions run on integer weights: every weight is scaled by
        # D, the lcm of the generator-weight denominators, so half-integer
        # weights stay exact; weight(mono) * D is memoized per monomial
        self._D = D = lcm(*(g.weight.denominator for g in L.gens))
        self._gen_weight = [int(g.weight * D) for g in L.gens]
        self._weight_cache = {}
        # L.pole_bound(a, b): floor(wt a + wt b) - 1, weights being >= 0
        self._pole_bound = [[(wa + wb) // D - 1 for wb in self._gen_weight]
                            for wa in self._gen_weight]

    # -- gradings --------------------------------------------------------

    def mode_weight(self, k, g) -> Fraction:
        return self.L.gens[g].weight - k - 1

    def weight(self, mono) -> Fraction:
        return Fraction(self._scaled_weight(mono), self._D)

    def _scaled_weight(self, mono) -> int:
        """D * weight(mono), an integer."""
        w = self._weight_cache.get(mono)
        if w is None:
            gw, D = self._gen_weight, self._D
            w = sum(gw[g] - D * (k + 1) for k, g in mono)
            self._weight_cache[mono] = w
        return w

    def parity(self, mono) -> int:
        return sum(self.L.gens[g].parity for _, g in mono) % 2

    def charge(self, mono) -> int:
        return sum(self.L.gens[g].charge for _, g in mono)

    def ghost(self, mono) -> int:
        return sum(self.L.gens[g].ghost for _, g in mono)

    def state_weight(self, state):
        """Weight when homogeneous, else the maximum over monomials."""
        w = Fraction(0)
        for mono in state:
            w = max(w, self.weight(mono))
        return w

    # -- basic states ----------------------------------------------------

    def vacuum(self) -> dict:
        return {(): ONE}

    def gen_state(self, name) -> dict:
        return {((-1, self.L.gen(name)),): ONE}

    # -- single-mode application -----------------------------------------

    def apply_mode(self, g, k, state: dict) -> dict:
        out = {}
        for mono, c in state.items():
            for m2, c2 in self._apply_mode_mono(g, k, mono).items():
                _acc(out, m2, c * c2)
        return out

    def _apply_mode_mono(self, g, k, mono) -> dict:
        key = (g, k, mono)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        L = self.L
        if not mono:
            res = {} if k >= 0 else {((k, g),): ONE}
        else:
            k1, g1 = mono[0]
            if k < k1 or (k == k1 and g <= g1):
                if (k, g) == (k1, g1) and L.gens[g].parity == 1:
                    res = {}
                else:
                    res = {((k, g),) + mono: ONE}
            else:
                rest = mono[1:]
                sign = -1 if L.gens[g].parity * L.gens[g1].parity else 1
                res = {}
                for m2, c2 in self._apply_mode_mono(g, k, rest).items():
                    for m3, c3 in self._apply_mode_mono(g1, k1, m2).items():
                        _acc(res, m3, c2 * c3 if sign == 1 else -(c2 * c3))
                bound = self._pole_bound[g][g1]
                for l in range(max(bound, 0) + 1):
                    br = L.stored(g, g1, l)
                    if br.is_zero():
                        continue
                    cb = binom(k, l)
                    if cb == 0:
                        continue
                    p = k + k1 - l
                    for (g2, e), s in br.terms.items():
                        coeff = s.scale(cb * falling(p, e) * (-1) ** e)
                        if coeff.is_zero():
                            continue
                        for m3, c3 in self._apply_mode_mono(
                                g2, p - e, rest).items():
                            _acc(res, m3, coeff * c3)
                    if not br.central.is_zero() and p == -1:
                        _acc(res, rest,
                             br.central.scale(cb) * self.central_value)
        self._mode_cache[key] = res
        return res

    def eval_sequence(self, seq) -> dict:
        """Apply modes right to left to the vacuum."""
        state = self.vacuum()
        for k, g in reversed(seq):
            state = self.apply_mode(g, k, state)
        return state

    # -- translation -----------------------------------------------------

    def translate(self, state: dict) -> dict:
        """T, acting as the even derivation g_(k) -> -k g_(k-1)."""
        out = {}
        for mono, c in state.items():
            for i, (k, g) in enumerate(mono):
                coeff = c.scale(-k)
                if coeff.is_zero():
                    continue
                seq = mono[:i] + ((k - 1, g),) + mono[i + 1:]
                for m2, c2 in self.eval_sequence(seq).items():
                    _acc(out, m2, coeff * c2)
        return out

    # -- products --------------------------------------------------------

    def nth_product(self, a: dict, n: int, b: dict) -> dict:
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                for mo, co in self._prod_mono(ma, n, mb).items():
                    _acc(out, mo, ca * cb * co)
        return out

    def _prod_mono(self, ma, n, mb) -> dict:
        key = (ma, n, mb)
        hit = self._prod_cache.get(key)
        if hit is not None:
            return hit
        if not ma:
            res = {mb: ONE} if n == -1 else {}
        else:
            m, g = ma[0]
            rest = ma[1:]
            p_g = self.L.gens[g].parity
            p_rest = self.parity(rest)
            front_sign = -((-1) ** m) * ((-1) ** (p_g * p_rest))
            jf, js = self._alive_bounds(g, rest, n, mb)
            res = {}
            for j in range(max(jf, js) + 1):
                first_alive = j <= jf
                second_alive = j <= js
                cb = binom(m, j) * ((-1) ** j)
                if cb != 0:
                    if first_alive:
                        inner = self._prod_mono(rest, n + j, mb)
                        for m2, c2 in inner.items():
                            for m3, c3 in self._apply_mode_mono(
                                    g, m - j, m2).items():
                                _acc(res, m3, c3 * c2.scale(cb))
                    if second_alive:
                        gb = self._apply_mode_mono(g, j, mb)
                        for m2, c2 in gb.items():
                            inner = self._prod_mono(rest, m + n - j, m2)
                            for m3, c3 in inner.items():
                                _acc(res, m3,
                                     c3 * c2.scale(cb * front_sign))
        self._prod_cache[key] = res
        return res

    def _alive_bounds(self, g, rest, n, mb):
        """Last j at which each term of the iterate identity for
        (g_(m) rest)_(n) mb can be nonzero: rest_(n+j) mb needs
        wt rest + wt mb - n - j - 1 >= 0, and g_(j) mb needs
        wt g + wt mb - j - 1 >= 0."""
        D, w_b = self._D, self._scaled_weight(mb)
        return ((self._scaled_weight(rest) + w_b) // D - n - 1,
                (self._gen_weight[g] + w_b) // D - 1)

    def singular_ope(self, a: dict, b: dict) -> dict:
        """All nonnegative products {n: a_(n) b} that are nonzero."""
        out = {}
        top = int(self.state_weight(a) + self.state_weight(b))
        for n in range(top + 1):
            p = self.nth_product(a, n, b)
            if p:
                out[n] = p
        return out

    def normal_order(self, *states) -> dict:
        """Iterated (-1)-product :a1 a2 ... ar:, right-associated."""
        if not states:
            return self.vacuum()
        out = states[-1]
        for s in reversed(states[:-1]):
            out = self.nth_product(s, -1, out)
        return out

    # -- basis enumeration -----------------------------------------------

    def basis(self, w, q=None):
        """Canonical monomials of weight w (and charge q when given)."""
        w = Fraction(w)
        key = (w, q)
        hit = self._basis_cache.get(key)
        if hit is not None:
            return hit
        if w > self.cutoff:
            raise ValueError("weight %s beyond the envelope cutoff %s"
                             % (w, self.cutoff))
        if q is None and self._zero_even:
            names = ", ".join(self.L.gens[i].name for i in self._zero_even)
            raise ValueError(
                "weight blocks are infinite-dimensional (weight-0 even "
                "generators: %s); enumerate per charge instead" % names)
        positive = self._positive_modes(w)
        out = []
        self._dfs(positive, 0, w, [], q, out)
        out.sort()
        self._basis_cache[key] = out
        return out

    def _positive_modes(self, wmax):
        """All modes of weight in (0, wmax], canonically ordered."""
        modes = []
        for g, gen in enumerate(self.L.gens):
            k = -1
            while True:
                wk = gen.weight - k - 1
                if wk > wmax:
                    break
                if wk > 0:
                    modes.append((k, g))
                k -= 1
        modes.sort()
        return modes

    def _dfs(self, modes, start, rw, acc, q, out):
        if rw == 0:
            self._fill_zero_modes(acc, q, out)
            return
        for i in range(start, len(modes)):
            k, g = modes[i]
            wk = self.mode_weight(k, g)
            if wk > rw:
                continue
            if acc and (k, g) < acc[-1]:
                continue
            if acc and (k, g) == acc[-1] and self.L.gens[g].parity == 1:
                continue
            acc.append((k, g))
            self._dfs(modes, i, rw - wk, acc, q, out)
            acc.pop()

    def _fill_zero_modes(self, acc, q, out):
        """Append weight-0 modes (all sit at k = -1, after everything)."""
        base = tuple(acc)
        need = None if q is None else q - self.charge(base)
        # odd weight-0 modes: a subset; even ones: counted multiplicities
        subsets = [[]]
        for g in self._zero_odd:
            subsets = [s for s in subsets] + [s + [g] for s in subsets]
        for sub in subsets:
            csub = sum(self.L.gens[g].charge for g in sub)
            if not self._zero_even:
                if need is None or csub == need:
                    out.append(tuple(sorted(base + tuple(
                        (-1, g) for g in sub))))
                continue
            rem = None if need is None else need - csub
            for combo in self._even_zero_combos(rem):
                full = base + tuple([(-1, g) for g in sub]
                                    + [(-1, g) for g in combo])
                out.append(tuple(sorted(full)))

    def _even_zero_combos(self, need):
        """Multisets of weight-0 even generators with total charge `need`.

        Requires every such generator to carry a charge of one strict
        sign, which is what keeps the enumeration finite."""
        gens = self._zero_even
        charges = [self.L.gens[g].charge for g in gens]
        if need is None:
            if gens:
                raise ValueError("charge window required")
            yield ()
            return
        if any(c == 0 for c in charges) or (any(c > 0 for c in charges)
                                            and any(c < 0 for c in charges)):
            raise ValueError(
                "weight-0 even generators with mixed or zero charges make "
                "charge blocks infinite-dimensional")
        sign = 1 if all(c > 0 for c in charges) else -1
        if need * sign < 0:
            return
        target = need * sign
        mags = [c * sign for c in charges]

        def rec(i, left, cur):
            if left == 0:
                yield tuple(cur)
                return
            if i == len(gens):
                return
            c = mags[i]
            count = 0
            while count * c <= left:
                yield from rec(i + 1, left - count * c,
                               cur + [gens[i]] * count)
                count += 1

        yield from rec(0, target, [])

    def graded_dimensions(self, q=None):
        """dim of each weight block up to the cutoff, in steps of 1/D:
        every weight is a multiple of 1/D."""
        out = {}
        w, step = Fraction(0), Fraction(1, self._D)
        while w <= self.cutoff:
            out[w] = len(self.basis(w, q))
            w += step
        return out

    # -- axiom checks ----------------------------------------------------

    def check_vertex_axioms(self, cutoff=None) -> CheckReport:
        cutoff = int(self.cutoff if cutoff is None else cutoff)
        bad = []
        gens = [(g.name, self.gen_state(g.name)) for g in self.L.gens]

        if self.translate(self.vacuum()):
            bad.append({"message": "T does not annihilate the vacuum"})

        for name, a in gens:
            if self.nth_product(a, -1, self.vacuum()) != a:
                bad.append({"message": "%s_(-1)|0> != %s" % (name, name)})
            if self.nth_product(a, -2, self.vacuum()) != self.translate(a):
                bad.append({"message": "%s_(-2)|0> != T%s" % (name, name)})
            for n in range(0, cutoff + 1):
                if self.nth_product(a, n, self.vacuum()):
                    bad.append({"message":
                                "%s_(%d)|0> != 0" % (name, n)})

        states = self._sample_states(min(cutoff, 3), charge_hint=True)

        # translation covariance along both slots
        for name, a in gens:
            ta = self.translate(a)
            for lbl, b in states:
                for n in range(-2, cutoff + 1):
                    lhs = self.nth_product(ta, n, b)
                    rhs = vec_scale(self.nth_product(a, n - 1, b), -n)
                    if lhs != rhs:
                        bad.append({"witness": (name, n, lbl), "message":
                                    "(T%s)_(%d) deviates from -n %s_(n-1) "
                                    "on %s" % (name, n, name, lbl)})
                    lhs2 = self.translate(self.nth_product(a, n, b))
                    rhs2 = vec_add(self.nth_product(ta, n, b),
                                   self.nth_product(a, n,
                                                    self.translate(b)))
                    if lhs2 != rhs2:
                        bad.append({"witness": (name, n, lbl), "message":
                                    "T fails the Leibniz rule on "
                                    "%s_(%d)%s" % (name, n, lbl)})

        # skew-symmetry of products on sampled states
        for la, a in states:
            pa = self._state_parity(a)
            for lb, b in states:
                pb = self._state_parity(b)
                if pa is None or pb is None:
                    continue
                sign = (-1) ** (pa * pb)
                top = int(self.state_weight(a) + self.state_weight(b))
                for n in range(-1, cutoff + 1):
                    lhs = self.nth_product(a, n, b)
                    rhs = {}
                    j = 0
                    fact = 1
                    while n + j <= top:
                        term = self.nth_product(b, n + j, a)
                        for _ in range(j):
                            term = self.translate(term)
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
            ia = self.L.gen(na)
            for nb, b in gens:
                ib = self.L.gen(nb)
                sign = (-1) ** (self.L.gens[ia].parity
                                * self.L.gens[ib].parity)
                for lbl, s in states:
                    for m in range(-1, 3):
                        for k in range(-1, 3):
                            lhs = vec_add(
                                self.nth_product(
                                    a, m, self.nth_product(b, k, s)),
                                vec_scale(self.nth_product(
                                    b, k, self.nth_product(a, m, s)),
                                    -sign))
                            rhs = {}
                            # a_(l)b vanishes beyond the weight pole bound,
                            # and C(m, l) vanishes beyond l = m for m >= 0
                            l_top = m if m >= 0 else int(
                                self.state_weight(a) + self.state_weight(b))
                            for l in range(l_top + 1):
                                c = binom(m, l)
                                if c:
                                    ab = self.nth_product(a, l, b)
                                    if ab:
                                        rhs = vec_add(rhs, vec_scale(
                                            self.nth_product(
                                                ab, m + k - l, s), c))
                            if lhs != rhs:
                                bad.append({
                                    "witness": (na, m, nb, k, lbl),
                                    "message":
                                    "commutator law fails for %s_(%d), "
                                    "%s_(%d) on %s" % (na, m, nb, k, lbl)})
        return CheckReport(bad)

    def _sample_states(self, wmax, charge_hint=False):
        out = [("|0>", self.vacuum())]
        for g in self.L.gens:
            out.append((g.name, self.gen_state(g.name)))
        seen = {m for _, s in out for m in s}
        qs = [None]
        if self._zero_even:
            qs = sorted({self.L.gens[g].charge * r
                         for g in range(len(self.L.gens))
                         for r in (1, 2)} | {0})
            if self.charge_window is not None:
                lo, hi = self.charge_window
                qs = [q for q in qs if lo <= q <= hi]
        w = Fraction(0)
        while w <= wmax:
            for q in qs:
                try:
                    basis = self.basis(w, q)
                except ValueError:
                    continue
                for mono in basis:
                    if mono not in seen:
                        seen.add(mono)
                        out.append((self.format_mono(mono), {mono: ONE}))
            w += 1
        return out

    def _state_parity(self, state):
        ps = {self.parity(m) for m in state}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    def is_commutative(self) -> bool:
        for ga in self.L.gens:
            a = self.gen_state(ga.name)
            for gb in self.L.gens:
                if self.singular_ope(a, self.gen_state(gb.name)):
                    return False
        return True

    # -- graded derivations and the topological structure -----------------

    def derivation(self, rule, op_parity, mode_shift=0, extra_rule=None):
        """Odd/even derivation from its values on generators.

        ``rule`` maps generator names to lists of (gen, dpow, coeff); it is
        applied mode by mode, g_(k) -> sum coeff (T^d g2)_(k+mode_shift),
        with Koszul signs for ``op_parity``.  ``extra_rule`` adds a second
        rule applied at k+1 (the twist needed by rotation operators).
        """
        idx_rule = {}
        for name, terms in rule.items():
            idx_rule[self.L.gen(name)] = [
                (self.L.gen(g2), e, sc(c)) for g2, e, c in terms]
        idx_extra = {}
        if extra_rule:
            for name, terms in extra_rule.items():
                idx_extra[self.L.gen(name)] = [
                    (self.L.gen(g2), e, sc(c)) for g2, e, c in terms]

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
                            for m2, c2 in self.eval_sequence(seq).items():
                                _acc(out, m2, coeff * c2)
                    sign *= (-1) ** (op_parity * self.L.gens[g].parity)
            return out

        return act

    def check_topological(self, d_rule, g_minus_rule, g_zero_rule=None,
                          cutoff=2) -> CheckReport:
        """Check the differential graded structure: d and g_{-1} odd
        derivations with [d, g_{-1}] = T and [T, g_{-1}] = 0; in the
        framed variant also [d, g_0] = L_0 and [T, g_0] = -g_{-1}."""
        bad = []
        d = self.derivation(d_rule, 1)
        gm = self.derivation(g_minus_rule, 1)
        g0 = None
        if g_zero_rule is not None:
            g0 = self.derivation(g_zero_rule, 1, extra_rule=g_minus_rule)
        states = self._sample_states(cutoff)

        for lbl, s in states:
            lhs = vec_add(d(gm(s)), gm(d(s)))
            if lhs != self.translate(s):
                bad.append({"witness": lbl, "message":
                            "[d, g_{-1}] != T on %s" % lbl})
            lhs = vec_add(self.translate(gm(s)),
                          vec_scale(gm(self.translate(s)), -1))
            if lhs:
                bad.append({"witness": lbl, "message":
                            "[T, g_{-1}] != 0 on %s" % lbl})
            if g0 is not None:
                lhs = vec_add(d(g0(s)), g0(d(s)))
                want = {}
                for mono, c in s.items():
                    _acc(want, mono, c.scale(self.weight(mono)))
                if lhs != want:
                    bad.append({"witness": lbl, "message":
                                "[d, g_0] != L_0 on %s" % lbl})
                lhs = vec_add(self.translate(g0(s)),
                              vec_scale(g0(self.translate(s)), -1))
                if lhs != vec_scale(gm(s), -1):
                    bad.append({"witness": lbl, "message":
                                "[T, g_0] != -g_{-1} on %s" % lbl})

        # g_{-1} is a derivation of every n-th product
        for la, a in states:
            pa = self._state_parity(a)
            if pa is None:
                continue
            for lb, b in states:
                for n in range(-2, cutoff + 1):
                    lhs = gm(self.nth_product(a, n, b))
                    rhs = vec_add(
                        self.nth_product(gm(a), n, b),
                        vec_scale(self.nth_product(a, n, gm(b)),
                                  (-1) ** pa))
                    if lhs != rhs:
                        bad.append({"witness": (la, n, lb), "message":
                                    "g_{-1} fails the derivation rule on "
                                    "%s_(%d)%s" % (la, n, lb)})
        return CheckReport(bad)

    # -- formatting ------------------------------------------------------

    def format_mono(self, mono) -> str:
        if not mono:
            return "Ω"
        factors = []
        for k, g in mono:
            e = -k - 1
            name = self.L.gens[g].name
            if e == 0:
                factors.append(name)
            elif e == 1:
                factors.append("T%s" % name)
            else:
                factors.append("T^%d%s" % (e, name))
        if len(factors) == 1:
            return factors[0]
        return ":" + " ".join(factors) + ":"

    def format_state(self, state) -> str:
        if not state:
            return "0"
        parts = []
        for mono in sorted(state):
            c = state[mono]
            body = self.format_mono(mono)
            if c == ONE:
                txt = body
            elif c == sc(-1):
                txt = "-" + body
            elif c.is_const():
                q = c.const_value()
                txt = ("%s%s" % (q, body) if q.denominator == 1
                       else "(%s)%s" % (q, body))
            else:
                txt = "(%s)%s" % (format_scalar(c), body)
            parts.append(txt)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out


def build_envelope(L: VertexLieData, cutoff=None, central_value=ONE,
                   charge_window=None) -> VertexAlgebra:
    return VertexAlgebra(L, cutoff, central_value, charge_window)
