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

T and every other graded derivation D act by one rule, peeled off the
first mode of a monomial and memoized per monomial (so per suffix R):

        D(g_(k) R) = [D, g_(k)] R + (-1)^{|D||g|} g_(k) D(R),   D|0> = 0,

where [T, g_(k)] = -k g_(k-1), and a derivation with D g = coeff T^e g2
has [D, g_(k)] = coeff (-1)^e (k)_e g2_(k-e), (k)_e a falling factorial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm

from .scalars import Scalar, ZERO, ONE, sc, binom, falling, format_scalar
from .vla import VertexLieData


def _acc(out: dict, key, val: Scalar):
    cur = out.get(key, ZERO) + val
    if cur.is_zero():
        out.pop(key, None)
    else:
        out[key] = cur


def infinite_block_cause(gens, by_charge):
    """(k, reason) for the first generator gens[k] that makes a block of
    the envelope infinite-dimensional, or None when every block is finite.

    Only weight-0 even generators can: their modes add no weight and may
    repeat.  Weight blocks are finite only without them, and charge blocks
    only when they all carry charges of one strict sign."""
    zero_even = [k for k, g in enumerate(gens)
                 if g.weight == 0 and g.parity == 0]
    if not zero_even:
        return None
    if not by_charge:
        return zero_even[0], (
            "weight blocks are infinite-dimensional (weight-0 even "
            "generators: %s)" % ", ".join(gens[k].name for k in zero_even))
    sign = gens[zero_even[0]].charge
    for k in zero_even:
        if gens[k].charge * sign <= 0:
            return k, ("weight-0 even generators with mixed or zero charges "
                       "make charge blocks infinite-dimensional")
    return None


class VertexAlgebra:
    """The envelope of L with its products and basis, built on demand and
    memoized.  It has no cutoff of its own: the calls that enumerate,
    ``basis`` and ``graded_dimensions``, take the weights and charges
    they run over."""

    def __init__(self, L: VertexLieData):
        self.L = L
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
        # T as the derivation g -> Tg, memoized for the envelope's lifetime
        self._t_rule = {g: [(0, g, 1, ONE)] for g in range(len(L.gens))}
        self._t_cache = {}
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
                    if not br:
                        continue
                    cb = binom(k, l)
                    if cb == 0:
                        continue
                    p = k + k1 - l
                    for key, s in br.items():
                        if not key:
                            continue
                        g2, e = key
                        coeff = s.scale(cb * falling(p, e) * (-1) ** e)
                        if coeff.is_zero():
                            continue
                        for m3, c3 in self._apply_mode_mono(
                                g2, p - e, rest).items():
                            _acc(res, m3, coeff * c3)
                    # the central element acts as 1: (1b)_(p) = delta_{p,-1}
                    if () in br and p == -1:
                        _acc(res, rest, br[()].scale(cb))
        self._mode_cache[key] = res
        return res

    # -- derivations -----------------------------------------------------

    def _derive(self, state, head, parity, cache) -> dict:
        """D(state) for the derivation D of the given parity whose
        commutator with a mode is head(g, k, R) = [D, g_(k)] R, by

            D(g_(k) R) = [D, g_(k)] R + (-1)^{|D||g|} g_(k) D(R),

        with D|0> = 0 and every monomial memoized in ``cache``."""
        cache.setdefault((), {})
        out = {}
        for mono, c in state.items():
            if mono not in cache:
                # D on the suffixes of mono, from the longest one known
                i = 1
                while mono[i:] not in cache:
                    i += 1
                for j in reversed(range(i)):
                    (k, g), rest = mono[j], mono[j + 1:]
                    res = dict(head(g, k, rest))
                    odd = parity * self.L.gens[g].parity
                    for m2, c2 in self.apply_mode(g, k, cache[rest]).items():
                        _acc(res, m2, -c2 if odd else c2)
                    cache[mono[j:]] = res
            for m2, c2 in cache[mono].items():
                _acc(out, m2, c * c2)
        return out

    def _rule_head(self, terms, g, k, rest) -> dict:
        """[D, g_(k)] R for D given on generators: ``terms`` maps g to
        (shift, g2, e, coeff), each adding coeff (T^e g2)_(k+shift) R."""
        out = {}
        for shift, g2, e, s in terms.get(g, ()):
            coeff = s.scale(falling(k + shift, e) * (-1) ** e)
            if coeff.is_zero():
                continue
            for m2, c2 in self._apply_mode_mono(
                    g2, k + shift - e, rest).items():
                _acc(out, m2, coeff * c2)
        return out

    def translate(self, state: dict) -> dict:
        """T, the even derivation with the rule g -> Tg, that is
        [T, g_(k)] = -k g_(k-1); one memo per envelope."""
        return self._derive(state, partial(self._rule_head, self._t_rule),
                            0, self._t_cache)

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
        cause = infinite_block_cause(self.L.gens, q is not None)
        if cause is not None:
            raise ValueError(cause[1] if q is not None else
                             cause[1] + "; enumerate per charge instead")
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

        ``basis`` has checked that every such generator carries a charge
        of one strict sign, which is what keeps the enumeration finite."""
        gens = self._zero_even
        charges = [self.L.gens[g].charge for g in gens]
        sign = 1 if charges[0] > 0 else -1
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

    def pbw_count(self, cutoff, bound=None) -> int:
        """Number of monomials of weight at most ``cutoff`` in the modes
        of positive weight and the odd weight-0 modes, read off their
        generating function without enumerating them.  This is the whole
        basis through the cutoff when no even generator has weight 0, and
        otherwise what ``basis`` walks for each charge.  Counting stops
        as soon as the count passes ``bound``.

        With a_h even and b_h odd modes of scaled weight h, the series
        f = prod_h (1 - x^h)^-a_h (1 + x^h)^b_h satisfies
        n f_n = sum_k c_k f_(n-k), where
        c_k = sum_(h | k) h (a_h - (-1)^(k/h) b_h)."""
        D, gw = self._D, self._gen_weight
        top = int(Fraction(cutoff) * D)
        even = [gw[i] for i, g in enumerate(self.L.gens) if g.parity == 0]
        odd = [gw[i] for i, g in enumerate(self.L.gens) if g.parity == 1]
        scale = 2 ** len(self._zero_odd)

        def modes(h, weights):
            return sum(1 for g in weights if g <= h and (h - g) % D == 0)

        c, f = [0], [1]
        total = scale
        for n in range(1, top + 1):
            c.append(sum(h * (modes(h, even)
                              - (-1) ** (n // h) * modes(h, odd))
                         for h in range(1, n + 1) if n % h == 0))
            f.append(sum(c[k] * f[n - k] for k in range(1, n + 1)) // n)
            total += scale * f[n]
            if bound is not None and total > bound:
                break
        return total

    def graded_dimensions(self, cutoff, q=None):
        """dim of each weight block up to the cutoff, in steps of 1/D:
        every weight is a multiple of 1/D."""
        out = {}
        w, step = Fraction(0), Fraction(1, self._D)
        while w <= cutoff:
            out[w] = len(self.basis(w, q))
            w += step
        return out

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
