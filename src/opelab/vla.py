"""Vertex Lie algebras presented by generators and bracket tables.

A vertex Lie algebra here is a free module over its ring spanned by formal
derivatives T^e a of finitely many generators (plus an optional central
element fixed by T), with n-th bracket operations a_(n)b for n >= 0 stored
only between plain generators; brackets involving derivatives are derived
on demand from the translation rules

    (T a)_(n) b = -n a_(n-1) b,
    a_(n) (T b) = T(a_(n) b) + n a_(n-1) (T^0 b-part),

which is what makes the finite table a complete presentation.

A bracket value lies in R[T] gens + R K and is a dict vector on
``linalg``'s helpers: {(g, e): c} for the terms c T^e g, and the central
part c K under the key ``()``.  ``()`` is the key of the vacuum |0> in the
envelope, on which K acts as 1, and it sorts before every (g, e).

Generators carry a conformal weight (nonnegative rational), a parity, and
two auxiliary integer gradings (charge, ghost) used downstream to slice
enveloping algebras into finite blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, sc, format_scalar
from .linalg import vec_add, vec_scale, vec_sub
from .schemas import SchemaViolation, name_index, one_variable


class Gen:
    __slots__ = ("name", "weight", "parity", "charge", "ghost")

    def __init__(self, name, weight, parity=0, charge=0, ghost=0):
        self.name = name
        self.weight = Fraction(weight)
        self.parity = parity
        self.charge = charge
        self.ghost = ghost

    def __repr__(self):
        return "Gen(%s, wt=%s, p=%d)" % (self.name, self.weight, self.parity)


class VertexLieData:
    """Generators and the stored bracket table {(a, b, n): value}, zero
    coefficients dropped.  Nothing is checked here: a table read from a
    file is checked where it is read, by ``from_dict``, and the builders
    below make tables that pass those checks."""

    def __init__(self, gens, brackets, ring=None, central=False):
        self.gens = list(gens)
        self.ring = ring
        self.central = central
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        self.brackets = {}
        for key, val in brackets.items():
            val = {k: c for k, c in ((k, sc(v)) for k, v in val.items()) if c}
            if val:
                self.brackets[key] = val

    def gen(self, name) -> int:
        return self.index[name]

    def names(self):
        return [g.name for g in self.gens]

    def pole_bound(self, ia, ib) -> int:
        """Largest n that can carry a nonzero bracket by weight reasons."""
        s = self.gens[ia].weight + self.gens[ib].weight
        return int(s) - 1

    def stored(self, ia, ib, n) -> dict:
        return self.brackets.get((ia, ib, n), {})

    def bracket(self, ia, ea, n, ib, eb) -> dict:
        """(T^ea a)_(n) (T^eb b), derived from the generator table."""
        if n < 0:
            return {}
        if ea > 0:
            if n == 0:
                return {}
            return vec_scale(self.bracket(ia, ea - 1, n - 1, ib, eb), -n)
        if eb > 0:
            out = _translate(self.bracket(ia, 0, n, ib, eb - 1))
            if n > 0:
                out = vec_add(out, vec_scale(
                    self.bracket(ia, 0, n - 1, ib, eb - 1), n))
            return out
        return self.stored(ia, ib, n)

    def bracket_value(self, val: dict, n: int, ib, eb) -> dict:
        """(sum of T^e g)_(n) applied to T^eb b; the center acts by zero."""
        out = {}
        for key, s in val.items():
            if key:
                out = vec_add(out, vec_scale(
                    self.bracket(*key, n, ib, eb), s))
        return out

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        gens = [{"name": g.name, "weight": _frac_str(g.weight),
                 "parity": g.parity, "charge": g.charge, "ghost": g.ghost}
                for g in self.gens]
        brs = []
        for (ia, ib, n) in sorted(self.brackets):
            val = self.brackets[(ia, ib, n)]
            entry = {"a": self.gens[ia].name, "b": self.gens[ib].name, "n": n,
                     "value": [{"gen": self.gens[key[0]].name,
                                "dpow": key[1], "coeff": format_scalar(c)}
                               for key, c in sorted(val.items()) if key]}
            if () in val:
                entry["central_coeff"] = format_scalar(val[()])
            brs.append(entry)
        return {"ring": self.ring, "central": self.central,
                "generators": gens, "brackets": brs}

    @staticmethod
    def from_dict(data) -> "VertexLieData":
        gens = []
        for k, g in enumerate(data["generators"]):
            try:
                weight = Fraction(g["weight"])
            except (ValueError, ZeroDivisionError):
                raise SchemaViolation("vla.v1", "/generators/%d/weight" % k,
                                      "weight %r is not a rational number"
                                      % g["weight"])
            if weight < 0:
                raise SchemaViolation("vla.v1", "/generators/%d/weight" % k,
                                      "generator %r has negative weight %s"
                                      % (g["name"], weight))
            gens.append(Gen(g["name"], weight, g.get("parity", 0),
                            g.get("charge", 0), g.get("ghost", 0)))
        gen_index = name_index([g.name for g in gens], "generator", "vla.v1",
                               "/generators/%d/name")
        coeff_at = one_variable("vla.v1", data.get("ring"))
        brackets, rows = {}, {}
        for r, b in enumerate(data.get("brackets", [])):
            at = "/brackets/%d/" % r
            key = (gen_index(b["a"], at + "a"), gen_index(b["b"], at + "b"),
                   b["n"])
            if key in rows:
                raise SchemaViolation(
                    "vla.v1", at[:-1], "%s_(%d)%s is given twice, first "
                    "in row %d" % (b["a"], key[2], b["b"], rows[key]))
            rows[key] = r
            ga, gb = gens[key[0]], gens[key[1]]
            want = ga.weight + gb.weight - key[2] - 1
            sums = {k: v + _grades(gb)[k] for k, v in _grades(ga).items()}
            terms = {}
            for k, t in enumerate(b.get("value", [])):
                vt = at + "value/%d/" % k
                g = gen_index(t["gen"], vt + "gen")
                e = t.get("dpow", 0)
                term = "%s_(%d)%s has a term T^%d %s" % (b["a"], key[2],
                                                         b["b"], e, t["gen"])
                # a term of another weight is no bracket, and a large e in
                # one would recurse e times in ``bracket``
                if gens[g].weight + e != want:
                    raise SchemaViolation(
                        "vla.v1", vt[:-1], "%s of weight %s, expected %s"
                        % (term, gens[g].weight + e, want))
                for label, value in _grades(gens[g]).items():
                    if value != sums[label]:
                        raise SchemaViolation(
                            "vla.v1", vt[:-1], "%s of %s %s, expected %s"
                            % (term, label, value, sums[label]))
                terms[(g, e)] = coeff_at(t["coeff"], vt + "coeff")
            central = coeff_at(b.get("central_coeff", "0"),
                               at + "central_coeff")
            if not data.get("central", False) and central:
                raise SchemaViolation("vla.v1", at + "central_coeff",
                                      "central coefficient in a table "
                                      "that is not central")
            for label, sum_ in sums.items():
                if central and sum_:
                    raise SchemaViolation(
                        "vla.v1", at + "central_coeff",
                        "%s_(%d)%s has a central term of %s 0, expected %s"
                        % (b["a"], key[2], b["b"], label, sum_))
            terms[()] = central
            brackets[key] = terms
        return VertexLieData(gens, brackets, ring=data.get("ring"),
                             central=data.get("central", False))


def _grades(g):
    """The gradings of a generator that every bracket keeps besides the
    weight: they slice the envelope into the blocks that d = Q_(0) of a
    BRST reduction must keep."""
    return {"ghost number": g.ghost, "charge": g.charge}


def _frac_str(w: Fraction):
    return int(w) if w.denominator == 1 else "%d/%d" % (w.numerator,
                                                        w.denominator)


# -- checkers ----------------------------------------------------------


class CheckReport:
    __slots__ = ("ok", "violations")

    def __init__(self, violations):
        self.violations = violations
        self.ok = not violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "<check ok>"
        return "<check FAILED: %s>" % "; ".join(
            v["message"] for v in self.violations[:3])


def check_sesquilinearity(L: VertexLieData) -> CheckReport:
    """Structural sanity of the stored table.

    Brackets involving derivatives are themselves derived from the table,
    so the checkable content is: every stored value is weight homogeneous
    (wt = wt a + wt b - n - 1), parity homogeneous, the central part sits
    in weight zero only, and no bracket exceeds the weight pole bound.
    """
    bad = []
    for (ia, ib, n), val in sorted(L.brackets.items()):
        a, b = L.gens[ia], L.gens[ib]
        want = a.weight + b.weight - n - 1
        pair = (a.name, b.name, n)
        if n > L.pole_bound(ia, ib):
            bad.append({"pair": pair, "message":
                        "%s_(%d)%s exceeds the weight pole bound"
                        % (a.name, n, b.name)})
            continue
        for g, e in sorted(k for k in val if k):
            got = L.gens[g].weight + e
            if got != want:
                bad.append({"pair": pair, "message":
                            "%s_(%d)%s has a term T^%d %s of weight %s, "
                            "expected %s" % (a.name, n, b.name, e,
                                             L.gens[g].name, got, want)})
            if (L.gens[g].parity - a.parity - b.parity) % 2 != 0:
                bad.append({"pair": pair, "message":
                            "%s_(%d)%s has a term of wrong parity"
                            % (a.name, n, b.name)})
        if () in val:
            if want != 0:
                bad.append({"pair": pair, "message":
                            "central part of %s_(%d)%s sits in weight %s"
                            % (a.name, n, b.name, want)})
            if (a.parity + b.parity) % 2 != 0:
                bad.append({"pair": pair, "message":
                            "central part of %s_(%d)%s has odd parity"
                            % (a.name, n, b.name)})
    return CheckReport(bad)


def check_skew_symmetry(L: VertexLieData) -> CheckReport:
    """a_(n)b = (-1)^{|a||b|} sum_j (-1)^{n+j+1} T^j (b_(n+j) a) / j!"""
    bad = []
    ng = len(L.gens)
    for ia in range(ng):
        for ib in range(ng):
            bound = L.pole_bound(ia, ib)
            sign_ab = (-1) ** (L.gens[ia].parity * L.gens[ib].parity)
            for n in range(bound + 1):
                lhs = L.bracket(ia, 0, n, ib, 0)
                rhs = {}
                j = 0
                while n + j <= bound:
                    term = L.bracket(ib, 0, n + j, ia, 0)
                    for _ in range(j):
                        term = _translate(term)
                    coeff = Fraction((-1) ** (n + j + 1) * sign_ab)
                    for f in range(1, j + 1):
                        coeff /= f
                    rhs = vec_add(rhs, vec_scale(term, coeff))
                    j += 1
                if not vec_sub(lhs, rhs):
                    continue
                bad.append({"pair": (L.gens[ia].name, L.gens[ib].name, n),
                            "message": "skew-symmetry fails for "
                            "%s_(%d)%s" % (L.gens[ia].name, n,
                                           L.gens[ib].name)})
    return CheckReport(bad)


def check_jacobi(L: VertexLieData, cutoff=None) -> CheckReport:
    """a_(m)(b_(k)c) - (-1)^{|a||b|} b_(k)(a_(m)c)
       = sum_n C(m, n) (a_(n)b)_(m+k-n) c, for all generators and all
       modes up to the weight pole bounds (or the given cutoff)."""
    from .scalars import binom
    bad = []
    ng = len(L.gens)
    for ia in range(ng):
        for ib in range(ng):
            sign_ab = (-1) ** (L.gens[ia].parity * L.gens[ib].parity)
            for ic in range(ng):
                m_max = L.pole_bound(ia, ib) + L.pole_bound(ib, ic) + 2
                if cutoff is not None:
                    m_max = min(m_max, cutoff)
                k_max = m_max
                for m in range(m_max + 1):
                    for k in range(k_max + 1):
                        lhs = _act(L, ia, m, L.bracket(ib, 0, k, ic, 0))
                        rhs1 = _act(L, ib, k, L.bracket(ia, 0, m, ic, 0))
                        rhs2 = {}
                        for n in range(m + 1):
                            ab = L.bracket(ia, 0, n, ib, 0)
                            rhs2 = vec_add(rhs2, vec_scale(
                                L.bracket_value(ab, m + k - n, ic, 0),
                                binom(m, n)))
                        diff = vec_sub(vec_add(lhs, vec_scale(rhs1, -sign_ab)),
                                       rhs2)
                        if diff:
                            bad.append({
                                "witness": (L.gens[ia].name,
                                            L.gens[ib].name,
                                            L.gens[ic].name, m, k),
                                "message":
                                "Jacobi fails for (%s_(%d), %s_(%d)) on %s"
                                % (L.gens[ia].name, m, L.gens[ib].name, k,
                                   L.gens[ic].name)})
    return CheckReport(bad)


def _act(L, ia, m, val: dict) -> dict:
    """a_(m) applied to a bracket value; the center is annihilated."""
    out = {}
    for key, s in val.items():
        if key:
            out = vec_add(out, vec_scale(L.bracket(ia, 0, m, *key), s))
    return out


def _translate(val: dict) -> dict:
    """Apply T: raise every derivative power; T kills the center."""
    return {(k[0], k[1] + 1): c for k, c in val.items() if k}


# -- builders ----------------------------------------------------------


def current_algebra(names, struct, kappa, level) -> VertexLieData:
    """Currents of weight 1 with [x_i, x_j] structure constants and a
    central extension by level * kappa(i, j) at the first pole, over the
    ring of the level's variable.

    ``struct`` maps (i, j) to a list of (k, coeff); ``kappa`` maps (i, j)
    to a Scalar-coercible pairing value.
    """
    level = sc(level)
    gens = [Gen(n, 1) for n in names]
    brackets = {}
    for (i, j), terms in struct.items():
        brackets[(i, j, 0)] = {(k, 0): c for k, c in terms}
    for (i, j), v in kappa.items():
        brackets[(i, j, 1)] = {(): sc(v) * level}
    return VertexLieData(gens, brackets, ring=level.var, central=True)


def heisenberg(level, rank=1) -> VertexLieData:
    names = (["b"] if rank == 1 else
             ["b%d" % i for i in range(1, rank + 1)])
    kappa = {(i, i): ONE for i in range(rank)}
    return current_algebra(names, {}, kappa, level)


SL2_STRUCT = {
    (0, 1): [(0, -2)], (1, 0): [(0, 2)],        # [e,h] = -2e, [h,e] = 2e
    (1, 2): [(2, -2)], (2, 1): [(2, 2)],        # [h,f] = -2f
    (0, 2): [(1, 1)], (2, 0): [(1, -1)],        # [e,f] = h
}

# normalized invariant pairing with kappa(h,h) = 2, kappa(e,f) = 1
SL2_KAPPA = {(0, 2): ONE, (2, 0): ONE, (1, 1): sc(2)}


def kac_moody_sl2(level):
    return current_algebra(["e", "h", "f"], SL2_STRUCT, SL2_KAPPA, level)


def virasoro(central_charge) -> VertexLieData:
    c = sc(central_charge)
    gens = [Gen("l", 2)]
    brackets = {
        (0, 0, 0): {(0, 1): ONE},
        (0, 0, 1): {(0, 0): sc(2)},
        (0, 0, 3): {(): c.scale(Fraction(1, 2))},
    }
    return VertexLieData(gens, brackets, ring=c.var, central=True)


def weyl_pair(odd=False, names=("phi", "phi_star"), charges=(1, -1),
              ghosts=(0, 0)) -> VertexLieData:
    """One symplectic (even) or orthogonal (odd) pair of free fields with
    weights (1, 0); the even case is a beta-gamma system, the odd case a
    bc/Clifford pair.  Zero-pole signs are forced by skew-symmetry."""
    p = 1 if odd else 0
    gens = [Gen(names[0], 1, p, charges[0], ghosts[0]),
            Gen(names[1], 0, p, charges[1], ghosts[1])]
    minus = ONE if odd else sc(-1)
    brackets = {
        (0, 1, 0): {(): ONE},
        (1, 0, 0): {(): minus},
    }
    return VertexLieData(gens, brackets, central=True)


def direct_sum(*parts) -> VertexLieData:
    ring = None
    for L in parts:
        if L.ring is not None:
            if ring is not None and ring != L.ring:
                raise ValueError("summands live over different rings")
            ring = L.ring
    gens = []
    brackets = {}
    offset = 0
    central = any(L.central for L in parts)
    for L in parts:
        gens.extend(L.gens)
        for (ia, ib, n), val in L.brackets.items():
            brackets[(ia + offset, ib + offset, n)] = {
                (k[0] + offset, k[1]) if k else (): c
                for k, c in val.items()}
        offset += len(L.gens)
    return VertexLieData(gens, brackets, ring=ring, central=central)

