"""BRST reduction: ghosts, charge, differential, blockwise cohomology.

A reduction datum is a finite-dimensional Lie algebra given by structure
constants on a chosen basis, together with a matter vertex Lie algebra
whose envelope carries one current state J_a per basis element.  Adjoin
one odd ghost pair (psi_a of weight 1, psi*^a of weight 0) per basis
element; the combined envelope is the complex, graded by ghost number
(psi carries -1, psi* carries +1).  The charge is

    Q = sum_a (J_a)_(-1) psi*^a
      + q3 * sum_{a,b,c} f_ab^c  psi*^a_(-1) psi*^b_(-1) psi_c_(-1) |0>

with q3 = -1/2, and the differential is d = Q_(0).  The cubic constant
is not an input one gets to choose: it is the unique value for which the
quadratic and cubic cross terms in Q_(0)Q cancel, and the test suite
re-derives it instead of trusting this file.

Current levels are likewise never inputs.  kappa_matter and kappa_ghost
are read off from first products of the current states, and d^2 = 0 is
equivalent to kappa_matter + kappa_ghost = 0.  When the matter level is
a polynomial variable, d^2 comes out as a matrix of polynomials and one
can solve for the critical level; that is how the presets below were
calibrated.
"""

from __future__ import annotations

from fractions import Fraction
import functools
import math

from .scalars import Scalar, ZERO, ONE, sc, format_scalar
from .vla import (Gen, BrValue, VertexLieData, CheckReport, direct_sum,
                  heisenberg, weyl_pair, SL2_STRUCT)
from .envelope import VertexAlgebra, build_envelope, _acc
from .linalg import Matrix, graded_cohomology, vec_add, vec_scale


def build_ghosts(names, charges=None) -> VertexLieData:
    """One odd pair per basis name, with the two zero-mode brackets
    <psi_a, psi*^a> = <psi*^a, psi_a> = 1.  Optional charges flow to psi
    and are negated on psi*."""
    gens = []
    brackets = {}
    for i, name in enumerate(names):
        q = 0 if charges is None else charges.get(name, 0)
        gens.append(Gen("psi_%s" % name, 1, 1, q, -1))
        gens.append(Gen("psi*_%s" % name, 0, 1, -q, 1))
        brackets[(2 * i, 2 * i + 1, 0)] = BrValue({}, ONE)
        brackets[(2 * i + 1, 2 * i, 0)] = BrValue({}, ONE)
    return VertexLieData(gens, brackets, central=True)


def ghost_current_words(names, struct):
    """eta_a = -sum_{b,c} f_ab^c :psi*^b psi_c:.

    Zeroth products then realize the bracket on the psi (adjointly) and
    minus its transpose on the psi*, and the currents close on the same
    structure constants as the matter ones.
    """
    words = {n: [] for n in names}
    for (i, j), terms in struct.items():
        for k, c in terms:
            words[names[i]].append(
                (sc(c).scale(-1),
                 [("psi*_%s" % names[j], 0), ("psi_%s" % names[k], 0)]))
    return words


def word_state(V: VertexAlgebra, word) -> dict:
    """Evaluate a list of (coeff, [(gen_name, dpow), ...]) as a state,
    each factor being T^dpow applied to the generator and the factors
    normally ordered right to left."""
    out = {}
    for coeff, factors in word:
        states = []
        for name, dpow in factors:
            s = V.gen_state(name)
            for _ in range(dpow):
                s = V.translate(s)
            states.append(s)
        term = vec_scale(V.normal_order(*states), coeff)
        out = vec_add(out, term)
    return out


class BRSTDatum:
    """Everything needed to run the reduction: Lie data, matter, current
    words, and the enumeration bounds for the combined envelope."""

    def __init__(self, names, struct, matter: VertexLieData, current_words,
                 cutoff, charge_window=None, ghost_charges=None,
                 label=None):
        self.names = list(names)
        self.struct = {tuple(k): [(g, sc(c)) for g, c in v]
                       for k, v in struct.items()}
        self.matter = matter
        self.current_words = {
            n: [(sc(c), [tuple(f) for f in fs]) for c, fs in w]
            for n, w in current_words.items()}
        self.cutoff = cutoff
        self.charge_window = charge_window
        self.ghost_charges = dict(ghost_charges) if ghost_charges else None
        self.label = label
        ghosts = build_ghosts(self.names, self.ghost_charges)
        self.L = direct_sum(matter, ghosts)
        self.V = build_envelope(self.L, cutoff, charge_window=charge_window)
        self.currents = {n: word_state(self.V, self.current_words.get(n, []))
                         for n in self.names}
        gw = ghost_current_words(self.names, self.struct)
        self.ghost_currents = {n: word_state(self.V, gw[n])
                               for n in self.names}
        self._Q = None
        self._dgen_cache = {}
        self._d_cache = {(): {}}
        # W -> report of the whole-basis d^2 pass
        self._d_squared_reports = {}

    # -- levels ----------------------------------------------------------

    def _vacuum_multiple(self, state, what) -> Scalar:
        if not state:
            return ZERO
        if set(state) != {()}:
            raise ValueError("%s is not a multiple of the vacuum: %s"
                             % (what, self.V.format_state(state)))
        return state[()]

    def kappa_matter(self):
        return {(a, b): self._vacuum_multiple(
                    self.V.nth_product(self.currents[a], 1,
                                       self.currents[b]),
                    "first product of currents (%s, %s)" % (a, b))
                for a in self.names for b in self.names}

    def kappa_ghost(self):
        return {(a, b): self._vacuum_multiple(
                    self.V.nth_product(self.ghost_currents[a], 1,
                                       self.ghost_currents[b]),
                    "first product of ghost currents (%s, %s)" % (a, b))
                for a in self.names for b in self.names}

    def level_defect(self):
        """kappa_matter + kappa_ghost; zero iff d^2 = 0."""
        km, kg = self.kappa_matter(), self.kappa_ghost()
        return {k: km[k] + kg[k] for k in km}

    def bracket_terms(self, a, b):
        i, j = self.names.index(a), self.names.index(b)
        return [(self.names[k], c) for k, c in self.struct.get((i, j), [])]

    def validate_currents(self) -> CheckReport:
        """(J_a)_(0) J_b = J_[a,b] for the matter currents and the ghost
        currents separately; violations name the offending pair."""
        bad = []
        for which, cur in (("matter", self.currents),
                           ("ghost", self.ghost_currents)):
            for a in self.names:
                for b in self.names:
                    got = self.V.nth_product(cur[a], 0, cur[b])
                    want = {}
                    for cn, c in self.bracket_terms(a, b):
                        want = vec_add(want, vec_scale(cur[cn], c))
                    if got != want:
                        bad.append({
                            "which": which, "pair": (a, b),
                            "message": "%s currents fail closure on (%s, %s)"
                            % (which, a, b)})
        return CheckReport(bad)

    # -- charge and differential -----------------------------------------

    def brst_charge(self, cubic_coeff=Fraction(-1, 2)) -> dict:
        Q = {}
        for a in self.names:
            psistar = self.V.gen_state("psi*_%s" % a)
            Q = vec_add(Q, self.V.nth_product(self.currents[a], -1,
                                              psistar))
        q3 = sc(cubic_coeff)
        for (i, j), terms in sorted(self.struct.items()):
            for k, c in terms:
                seq = ((-1, self.L.gen("psi*_%s" % self.names[i])),
                       (-1, self.L.gen("psi*_%s" % self.names[j])),
                       (-1, self.L.gen("psi_%s" % self.names[k])))
                Q = vec_add(Q, vec_scale(self.V.eval_sequence(seq),
                                         c * q3))
        return Q

    @property
    def Q(self):
        if self._Q is None:
            self._Q = self.brst_charge()
        return self._Q

    def differential(self):
        """d = Q_(0) as a linear map on states, memoized per monomial."""
        def d(state):
            out = {}
            for mono, c in state.items():
                for m2, c2 in self._d_mono(mono).items():
                    _acc(out, m2, c * c2)
            return out
        return d

    def _d_mono(self, mono) -> dict:
        """d on the PBW monomial g_(k) R by the derivation rule

            d(g_(k) R) = (Q_(0) g)_(k) R + (-1)^{p(g)} g_(k) d(R),

        which holds because Q is odd and [Q_(0), g_(k)] = (Q_(0) g)_(k).
        Every suffix R is memoized along the way."""
        hit = self._d_cache.get(mono)
        if hit is not None:
            return hit
        V = self.V
        (k, g), rest = mono[0], mono[1:]
        res = V.nth_product(self._dgen(g), k, {rest: ONE})
        odd = self.L.gens[g].parity
        for m2, c2 in V.apply_mode(g, k, self._d_mono(rest)).items():
            _acc(res, m2, -c2 if odd else c2)
        self._d_cache[mono] = res
        return res

    def _dgen(self, g) -> dict:
        """Q_(0) g for the generator g, by skew-symmetry from its modes on
        Q (Q is odd):  Q_(0) g = sum_j (-1)^{p(g)+j+1} T^j (g_(j) Q) / j!."""
        hit = self._dgen_cache.get(g)
        if hit is not None:
            return hit
        V = self.V
        top = int(V.state_weight(self.Q) + self.L.gens[g].weight)
        out = {}
        for j in range(top + 1):
            term = V.apply_mode(g, j, self.Q)
            for _ in range(j):
                term = V.translate(term)
            sign = (-1) ** (self.L.gens[g].parity + j + 1)
            out = vec_add(out, vec_scale(
                term, Fraction(sign, math.factorial(j))))
        self._dgen_cache[g] = out
        return out

    # -- block structure --------------------------------------------------

    def charges(self):
        if self.charge_window is None:
            return [None]
        lo, hi = self.charge_window
        return list(range(lo, hi + 1))

    def block(self, w, q, g=None):
        basis = self.V.basis(w, q)
        if g is None:
            return basis
        return [m for m in basis if self.V.ghost(m) == g]

    def ghost_range(self, w, q):
        return sorted({self.V.ghost(m) for m in self.V.basis(w, q)})

    def d_matrix(self, w, q, g):
        """Matrix of d from ghost number g to g + 1 inside the (w, q)
        block, with the source and target bases."""
        src = self.block(w, q, g)
        tgt = self.block(w, q, g + 1)
        pos = {m: i for i, m in enumerate(tgt)}
        d = self.differential()
        entries = {}
        for j, mono in enumerate(src):
            for m2, c in d({mono: ONE}).items():
                if m2 not in pos:
                    raise ValueError(
                        "d leaves the (weight %s, ghost %d) block on %s"
                        % (w, g, self.V.format_mono(mono)))
                entries[(pos[m2], j)] = c
        return Matrix(len(tgt), len(src), entries), src, tgt

    # -- checks ------------------------------------------------------------

    def check_grading(self, W) -> CheckReport:
        """d preserves weight and charge and raises ghost number by one,
        on every basis state through weight W."""
        bad = []
        d = self.differential()
        for w in range(W + 1):
            for q in self.charges():
                for mono in self.V.basis(w, q):
                    for m2 in d({mono: ONE}):
                        ok = (self.V.weight(m2) == self.V.weight(mono)
                              and self.V.ghost(m2) == self.V.ghost(mono) + 1
                              and self.V.charge(m2) == self.V.charge(mono))
                        if not ok:
                            bad.append({
                                "witness": self.V.format_mono(mono),
                                "message": "d breaks the grading on %s"
                                % self.V.format_mono(mono)})
        return CheckReport(bad)

    def check_d_squared(self, W, states=None):
        """Apply d twice to every basis state through weight W, or to the
        given (label, state) pairs.  Returns (report, entries): the report
        lists failures in enumeration order, so its first violation is the
        first bad basis state; entries collects every scalar d^2 produced
        (per state in monomial order), which is the raw material for
        solving for a critical level.  The whole-basis report is kept for
        ``brst_cohomology``."""
        d = self.differential()
        bad, entries = [], []
        whole = states is None
        if whole:
            states = [(self.V.format_mono(m), {m: ONE})
                      for w in range(W + 1)
                      for q in self.charges()
                      for m in self.V.basis(w, q)]
        for label, s in states:
            dd = d(d(s))
            if dd:
                bad.append({"witness": label,
                            "message": "d^2 != 0 on %s: equals %s"
                            % (label, self.V.format_state(dd))})
                entries.extend(dd[m] for m in sorted(dd))
        report = CheckReport(bad)
        if whole:
            self._d_squared_reports[W] = report
        return report, entries

    # -- cohomology --------------------------------------------------------

    def brst_cohomology(self, W):
        """{(weight, charge, ghost): {dim, reps}} for the blocks with
        nonzero cohomology through weight W.  Refuses, naming the first
        witness, when d^2 != 0 somewhere in range."""
        rep = self._d_squared_reports.get(W)
        if rep is None:
            rep, _ = self.check_d_squared(W)
        if not rep.ok:
            raise ValueError("cohomology refused: %s"
                             % rep.violations[0]["message"])
        out = {}
        for w in range(W + 1):
            for q in self.charges():
                H = graded_cohomology(self.ghost_range(w, q),
                                      functools.partial(self.d_matrix, w, q))
                for g, reps in H.items():
                    if reps:
                        out[(w, q, g)] = {
                            "dim": len(reps),
                            "reps": [self.V.format_state(r) for r in reps]}
        return out

    def cohomology_dims(self, W):
        """Collapse the charge direction: {(weight, ghost): dim}."""
        out = {}
        for (w, q, g), data in self.brst_cohomology(W).items():
            out[(w, g)] = out.get((w, g), 0) + data["dim"]
        return out

    def block_dims(self, W):
        """{(weight, ghost): dim} of the complex itself."""
        out = {}
        for w in range(W + 1):
            for q in self.charges():
                for mono in self.V.basis(w, q):
                    g = self.V.ghost(mono)
                    out[(w, g)] = out.get((w, g), 0) + 1
        return out

    def euler_characteristics(self, W):
        """Alternating sums over ghost number per weight, for the complex
        and for its cohomology.  They must agree."""
        def fold(dims):
            chi = {}
            for (w, g), n in dims.items():
                chi[w] = chi.get(w, 0) + (n if g % 2 == 0 else -n)
            return chi
        return fold(self.cohomology_dims(W)), fold(self.block_dims(W))

    # -- specialization and serialization ---------------------------------

    def specialize(self, value) -> "BRSTDatum":
        """Evaluate the level variable everywhere, landing over Q."""
        def red(s):
            return s.subs(value) if s.var is not None else s

        struct = {k: [(g, red(c)) for g, c in v]
                  for k, v in self.struct.items()}
        words = {n: [(red(c), fs) for c, fs in w]
                 for n, w in self.current_words.items()}
        return BRSTDatum(self.names, struct, _substitute_vla(
                             self.matter, value), words, self.cutoff,
                         self.charge_window, self.ghost_charges,
                         label=self.label)

    def to_dict(self):
        struct = [{"a": self.names[i], "b": self.names[j],
                   "terms": [{"gen": self.names[k],
                              "coeff": format_scalar(c)}
                             for k, c in v]}
                  for (i, j), v in sorted(self.struct.items())]
        currents = [{"gen": n,
                     "terms": [{"coeff": format_scalar(c),
                                "factors": [{"gen": g, "dpow": e}
                                            for g, e in fs]}
                               for c, fs in w]}
                    for n, w in sorted(self.current_words.items())]
        out = {"format": "brst.v1", "basis": self.names,
               "structure": struct, "matter": self.matter.to_dict(),
               "currents": currents, "cutoff": self.cutoff}
        if self.charge_window is not None:
            out["charge_window"] = list(self.charge_window)
        if self.ghost_charges is not None:
            out["ghost_charges"] = self.ghost_charges
        return out

    @classmethod
    def from_dict(cls, data) -> "BRSTDatum":
        # imported here for the reason given in VertexLieData.from_dict
        from .schemas import SchemaViolation, escape, scalar_at
        try:
            matter = VertexLieData.from_dict(data["matter"])
        except SchemaViolation as e:
            raise SchemaViolation("brst.v1", "/matter" + e.pointer,
                                  e.message)
        names = list(data["basis"])
        pos = {n: i for i, n in enumerate(names)}

        # cross-references the schema cannot see
        def declared(name, table, what, pointer):
            if name not in table:
                raise SchemaViolation("brst.v1", pointer,
                                      "undeclared %s %r" % (what, name))
            return name

        def basis_index(name, pointer):
            return pos[declared(name, pos, "basis element", pointer)]

        struct = {}
        for r, row in enumerate(data.get("structure", [])):
            at = "/structure/%d/" % r
            key = (basis_index(row["a"], at + "a"),
                   basis_index(row["b"], at + "b"))
            struct[key] = [
                (basis_index(t["gen"], at + "terms/%d/gen" % k),
                 scalar_at(t["coeff"], "brst.v1", at + "terms/%d/coeff" % k))
                for k, t in enumerate(row["terms"])]
        words = {}
        for r, row in enumerate(data.get("currents", [])):
            at = "/currents/%d/" % r
            gen = declared(row["gen"], pos, "basis element", at + "gen")
            words[gen] = [
                (scalar_at(t["coeff"], "brst.v1",
                           at + "terms/%d/coeff" % k),
                 [(declared(f["gen"], matter.index, "matter generator",
                            at + "terms/%d/factors/%d/gen" % (k, i)),
                   f.get("dpow", 0)) for i, f in enumerate(t["factors"])])
                for k, t in enumerate(row["terms"])]
        ghost_charges = data.get("ghost_charges")
        for name in ghost_charges or ():
            declared(name, pos, "basis element",
                     "/ghost_charges/" + escape(name))
        cw = data.get("charge_window")
        return cls(names, struct, matter, words, data["cutoff"],
                   tuple(cw) if cw is not None else None, ghost_charges)


def _substitute_vla(L: VertexLieData, value) -> VertexLieData:
    brackets = {}
    for key, val in L.brackets.items():
        terms = {k: (v.subs(value) if v.var is not None else v)
                 for k, v in val.terms.items()}
        central = (val.central.subs(value)
                   if val.central.var is not None else val.central)
        brackets[key] = BrValue(terms, central)
    return VertexLieData(list(L.gens), brackets, ring=None,
                         central=L.central)


# -- stock data ------------------------------------------------------------

def _level_scalar(level) -> Scalar:
    if isinstance(level, str):
        return Scalar.variable(level)
    return sc(level)


def abelian_datum(level, rank=1, cutoff=5) -> BRSTDatum:
    """Abelian rank-n Lie algebra, matter = rank-n Heisenberg with the
    given symmetric level (a scalar, or a variable name for the generic
    case).  The currents are the Heisenberg generators themselves."""
    matter = heisenberg(_level_scalar(level), rank)
    names = [g.name for g in matter.gens]
    words = {n: [(ONE, [(n, 0)])] for n in names}
    return BRSTDatum(names, {}, matter, words, cutoff,
                     label="abelian rank %d" % rank)


def pure_ghost_datum(rank=1, cutoff=5) -> BRSTDatum:
    """No matter at all: Q = 0, d = 0, and cohomology is the whole ghost
    envelope."""
    names = ["x%d" % i for i in range(1, rank + 1)]
    matter = VertexLieData([], {}, central=True)
    return BRSTDatum(names, {}, matter, {n: [] for n in names}, cutoff,
                     label="pure ghost rank %d" % rank)


def bg_gl1_datum(cutoff=3, charge_window=(-6, 6)) -> BRSTDatum:
    """One even weight (1, 0) pair with its charge current :phi phi*:,
    reduced along gl_1.  The current level is -1, so d^2 only vanishes
    through weight 0; the weight-0 tower is still an honest complex."""
    matter = weyl_pair(odd=False)
    words = {"x": [(ONE, [("phi", 0), ("phi_star", 0)])]}
    return BRSTDatum(["x"], {}, matter, words, cutoff, charge_window,
                     label="beta-gamma gl1")


SL2_FUND = {"e": [[0, 1], [0, 0]], "h": [[1, 0], [0, -1]],
            "f": [[0, 0], [1, 0]]}


def bg_fundamental_sl2_datum(copies, cutoff=2,
                             charge_window=(-4, 4)) -> BRSTDatum:
    """k copies of the even pair in the 2-dimensional representation of
    sl_2, currents J_a = -sum_i rho(a)_mn :phi^{i,m} phi*^{i,n}:.  Each
    copy contributes -trace(rho(a) rho(b)) to the level."""
    parts, names_by_copy = [], []
    for i in range(1, copies + 1):
        g1 = "phi(%d,1)" % i
        g2 = "phi(%d,2)" % i
        parts.append(weyl_pair(odd=False, names=(g1, g1 + "*"),
                               charges=(1, -1)))
        parts.append(weyl_pair(odd=False, names=(g2, g2 + "*"),
                               charges=(-1, 1)))
        names_by_copy.append((g1, g2))
    matter = direct_sum(*parts)
    words = {a: [] for a in ("e", "h", "f")}
    for a in ("e", "h", "f"):
        rho = SL2_FUND[a]
        for g1, g2 in names_by_copy:
            row = (g1, g2)
            for m in range(2):
                for n in range(2):
                    if rho[m][n]:
                        words[a].append((sc(-rho[m][n]),
                                         [(row[m], 0), (row[n] + "*", 0)]))
    struct = {(i, j): [(k, c) for k, c in terms]
              for (i, j), terms in SL2_STRUCT.items()}
    return BRSTDatum(["e", "h", "f"], struct, matter, words, cutoff,
                     charge_window, {"e": 2, "h": 0, "f": -2},
                     label="%d fundamentals of sl2" % copies)


def wakimoto_datum(level="t", cutoff=3, charge_window=(-6, 6)) -> BRSTDatum:
    """Free-field sl_2 currents on an even pair plus one Heisenberg boson:

        e = phi
        h = -2 :phi phi*: + b
        f = -:phi phi* phi*: + ((t - 4)/2) T phi* + :b phi*:

    with b_(1) b = t.  All three coefficients in f are forced: the first
    two by e_(0) f = h and f_(0) f = 0, the last is the level e_(1) f.
    The test suite re-solves for them from those constraints."""
    t = _level_scalar(level)
    matter = direct_sum(weyl_pair(odd=False, charges=(2, -2)),
                        heisenberg(t))
    a4 = (t - sc(4)).scale(Fraction(1, 2))
    words = {
        "e": [(ONE, [("phi", 0)])],
        "h": [(sc(-2), [("phi", 0), ("phi_star", 0)]),
              (ONE, [("b", 0)])],
        "f": [(sc(-1), [("phi", 0), ("phi_star", 0), ("phi_star", 0)]),
              (a4, [("phi_star", 1)]),
              (ONE, [("b", 0), ("phi_star", 0)])],
    }
    struct = {(i, j): [(k, c) for k, c in terms]
              for (i, j), terms in SL2_STRUCT.items()}
    return BRSTDatum(["e", "h", "f"], struct, matter, words, cutoff,
                     charge_window, {"e": 2, "h": 0, "f": -2},
                     label="sl2 free-field realization")
