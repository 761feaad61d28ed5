"""Mixed complexes, their polynomial-ring duals, Cartan models, and
localization verdicts.

A mixed complex is a finite graded Q-module with a square-zero d of
degree +1 and pairwise anticommuting square-zero operators h_1..h_n of
degree -1, one per torus factor, each anticommuting with d.  The duality
functor t tensors with Q[u_1..u_n] (each u_i of degree 2) and perturbs
the differential to d + sum u_i h_i; strictness of the input is exactly
what makes the output square to zero.  A mixed complex is checked once,
when ``MixedComplex.from_dict`` reads it, and t wraps it and checks
nothing again; the complexes built in code are not checked at run time.

The inverse-direction functor h reads the u-linear part of a polynomial
differential back off as the operators h_i (``ucomplex_from_finite``).
For differentials produced by t this is literally an inverse: h of t(N)
is the mixed complex N that t wrapped, kept as its ``mixed`` attribute,
which is the reason the round-trip cohomology comparison in the
contract holds on the nose here.

Cartan models for diagonal torus actions on affine space are spanned by
invariant monomial forms x^alpha dx^beta.  Both the de Rham part and the
contraction preserve the total letter count |alpha| + |beta|, so cutting
at |alpha| + |beta| <= D truncates by whole subcomplexes and the result
below the horizon is exact, not approximate.
"""

from __future__ import annotations

from fractions import Fraction
import itertools

from .scalars import Scalar, ONE, sc, sc_gcd, format_scalar
from .linalg import (Matrix, BasisToken, FiniteComplex, smith,
                     smith_factors, smith_solve, presentation)
from .schemas import SchemaViolation, escape, name_index, rational_at


def degree_violation(name, shift, src, tgt):
    """The refusal of an entry of the map ``name`` from token src to
    token tgt that does not raise the degree by shift, or None."""
    if tgt.degree != src.degree + shift:
        return ("%s is not of degree %s: %r -> %r"
                % (name, "%+d" % shift if shift else "0", src, tgt))
    return None


def _check_zero(M: Matrix, what, src, tgt):
    """Refuse a nonzero M, naming its entry with the lowest column, then
    the lowest row, by the source and target tokens."""
    if not M.is_zero():
        j, i = min((j, i) for i, j in M.data)
        raise ValueError("%s: component %r -> %r" % (what, src[j], tgt[i]))


class MixedComplex:
    """tokens: ordered BasisTokens; d and each h are Matrices over token
    indices with rational entries (column dicts {j: {i: entry}} are
    accepted too).

    The constructor only stores.  A complex is checked once, where it
    enters from outside: ``from_dict`` reads each entry through
    ``read_map``, which refuses a polynomial entry and one of the wrong
    degree, and then runs ``validate``.  The complexes built in code (the
    stock ones, ``cartan_model`` and ``ucomplex_from_finite``) are not
    checked again at run time; the tests check them."""

    def __init__(self, tokens, d, hs):
        self.tokens = list(tokens)
        n = len(self.tokens)
        self.d = Matrix.of_columns(n, n, d)
        self.hs = [Matrix.of_columns(n, n, h) for h in hs]

    @property
    def nfactors(self):
        return len(self.hs)

    def validate(self):
        """Refuse a complex that is not strict: d o d, each
        d h_a + h_a d and each h_a h_b + h_b h_a must vanish, checked in
        that order, each naming its first nonzero component."""
        toks, d = self.tokens, self.d
        _check_zero(d.mul(d), "d o d != 0", toks, toks)
        for a, h in enumerate(self.hs):
            _check_zero(d.mul(h).add(h.mul(d)),
                        "d h_%d + h_%d d != 0" % (a + 1, a + 1), toks, toks)
            for b in range(a, len(self.hs)):
                g = self.hs[b]
                _check_zero(h.mul(g).add(g.mul(h)),
                            "h_%d h_%d + h_%d h_%d != 0"
                            % (a + 1, b + 1, b + 1, a + 1), toks, toks)

    def to_dict(self):
        def ser(op):
            out = {}
            for (i, j), v in op.data.items():
                out.setdefault(self.tokens[j].name, {})[
                    self.tokens[i].name] = format_scalar(v)
            return out
        return {"format": "mixed.v1",
                "tokens": [{"name": t.name, "degree": t.degree}
                           for t in self.tokens],
                "d": ser(self.d),
                "h": [ser(h) for h in self.hs]}

    @staticmethod
    def from_dict(data) -> "MixedComplex":
        tokens = [BasisToken(t["name"], t["degree"])
                  for t in data["tokens"]]
        token_index = name_index([t.name for t in tokens], "token",
                                 "mixed.v1", "/tokens/%d/name")

        toks = (token_index, tokens)
        d = read_map(data.get("d", {}), toks, toks, "mixed.v1", "/d", "d", 1)
        N = MixedComplex(tokens, d, [
            read_map(h, toks, toks, "mixed.v1", "/h/%d" % a, "h_%d" % (a + 1),
                     -1) for a, h in enumerate(data.get("h", []))])
        N.validate()
        return N


def read_map(op, source, target, schema, at, name, shift):
    """A map {source name: {target name: entry}} at the pointer ``at`` of
    a ``schema`` file, as a column dict over the token indices of
    ``source`` and ``target``, each (name resolver, tokens).  A column is
    refused before its targets; an entry that is not a rational number,
    and a nonzero one that does not raise the degree by shift, are
    refused at their pointer, the latter with ``degree_violation``'s
    text."""
    (src_index, src_tokens), (tgt_index, tgt_tokens) = source, target
    out = {}
    for j, col in op.items():
        at_j = at + "/" + escape(j)
        src = src_index(j, at_j)
        out[src] = {}
        for i, v in col.items():
            at_i = at_j + "/" + escape(i)
            tgt = tgt_index(i, at_i)
            c = out[src][tgt] = rational_at(v, schema, at_i)
            bad = degree_violation(name, shift, src_tokens[src],
                                   tgt_tokens[tgt])
            if c and bad is not None:
                raise SchemaViolation(schema, at_i, bad)
    return out


class UComplex:
    """Free graded Q[u_1..u_n]-module with differential d + sum u_i h_i,
    for a strict mixed complex N = (d, h_1..h_n): its strictness is what
    makes this differential square to zero, so nothing is checked here.
    With one factor this is an honest single-variable complex; with
    several, Smith computations follow the one-variable-at-a-time policy
    in ``cohomology``."""

    def __init__(self, N: MixedComplex, labels=None):
        self.mixed = N
        self.tokens = N.tokens
        n = N.nfactors
        if labels is None:
            labels = ("u",) if n == 1 else tuple(
                "u%d" % (i + 1) for i in range(n))
        self.labels = tuple(labels)

    @property
    def nfactors(self):
        return self.mixed.nfactors

    def complex(self) -> FiniteComplex:
        if self.nfactors != 1:
            raise ValueError("single-variable view needs exactly one u")
        u = Scalar.variable(self.labels[0])
        return FiniteComplex(
            self.tokens, self.mixed.d.add(self.mixed.hs[0].scale(u)),
            var=self.labels[0])

    def _specialized_matrix(self, keep, others):
        u = Scalar.variable(self.labels[keep])
        total = self.mixed.d
        for i, h in enumerate(self.mixed.hs):
            if i == keep:
                total = total.add(h.scale(u))
            elif others:
                total = total.add(h.scale(others))
        return total

    def cohomology(self):
        """One factor: graded classes over Q[u].  Several: for each u_i,
        the module rank and torsion factors after sending the other
        variables to 0 and to 1 (grading is lost in the latter case, so
        only module invariants are reported).

        No specialization is squared: (d + sum c_a h_a)^2 expands into
        d^2, the d h_a + h_a d and the h_a h_b + h_b h_a, all zero on a
        strict mixed complex."""
        if self.nfactors == 1:
            return self.complex().cohomology()
        out = {}
        for i in range(self.nfactors):
            for val in (0, 1):
                M = self._specialized_matrix(i, Fraction(val))
                free, tors = _module_invariants(M)
                out[(self.labels[i], val)] = {
                    "free_rank": free,
                    "torsion": [format_scalar(f) for f in tors]}
        return out

    def rank_and_torsion(self):
        """(free rank, torsion invariant factors) of H as a Q[u]-module,
        all degrees taken together."""
        if self.nfactors != 1:
            raise ValueError("module invariants need exactly one u")
        return _module_invariants(self.complex().D)


def _module_invariants(D: Matrix):
    """H = ker D / im D of a square-zero n x n matrix over Q[u], as free
    rank plus torsion invariant factors, read off ``smith_factors`` of D.

    Over a PID, Q[u]^n / ker D is isomorphic to im D, which is free, so
    0 -> H -> coker D -> Q[u]^n / ker D -> 0 splits: the torsion of H is
    the torsion of coker D, the invariant factors of D of positive
    degree, and rank H = n - 2 rank D."""
    rank, factors = smith_factors(D)
    return D.nrows - 2 * rank, _torsion(factors)


def _torsion(factors):
    return [f for f in factors if f.degree() > 0]


# -- duality functors ------------------------------------------------------

def koszul_t(N: MixedComplex) -> UComplex:
    """S tensor N with differential d + sum u_i h_i.  Its inverse h, which
    reads the operators back off the u-linear parts of the differential,
    is the ``mixed`` attribute of the result."""
    return UComplex(N)


def ucomplex_from_finite(C: FiniteComplex) -> UComplex:
    """Split a one-variable polynomial differential into its constant
    and u-linear parts.  Entries of u-degree two or more carry no
    operator on the mixed side, so they are refused rather than
    silently dropped."""
    if C.var is None:
        raise ValueError("expected a complex over a polynomial ring")
    d0, d1 = {}, {}
    for (i, j), v in C.D.data.items():
        coeffs = v.coeffs
        if any(c != 0 for c in coeffs[2:]):
            raise ValueError(
                "entry %r -> %r has %s-degree >= 2; not in the image of "
                "the duality" % (C.tokens[j], C.tokens[i], C.var))
        d0[(i, j)] = coeffs[0]
        if len(coeffs) > 1:
            d1[(i, j)] = coeffs[1]
    n = len(C.tokens)
    return UComplex(MixedComplex(C.tokens, Matrix(n, n, d0),
                                 [Matrix(n, n, d1)]), labels=(C.var,))


# -- Cartan models ---------------------------------------------------------

def _form_name(alpha, beta):
    bits = []
    for j, a in enumerate(alpha):
        if a == 1:
            bits.append("x%d" % (j + 1))
        elif a > 1:
            bits.append("x%d^%d" % (j + 1, a))
    for j in beta:
        bits.append("dx%d" % (j + 1))
    return " ".join(bits) if bits else "1"


def _exponent_vectors(m, top):
    """Every alpha in N^m with |alpha| <= top, in lexicographic order."""
    alpha, total = [0] * m, 0
    while True:
        yield tuple(alpha)
        # the next alpha raises the last entry that may grow once the
        # entries after it are cleared
        k = m - 1
        while k >= 0 and total == top:
            total -= alpha[k]
            alpha[k] = 0
            k -= 1
        if k < 0:
            return
        alpha[k] += 1
        total += 1


def _binom_capped(n, k, cap):
    """C(n, k), or cap + 1 when it is larger."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        # C(n - k + i, i) grows with i, so the first value past cap is final
        c = c * (n - k + i) // i
        if c > cap:
            return cap + 1
    return c


def cartan_candidates(m, D, cap):
    """How many forms x^alpha dx^beta there are on m coordinates at
    cutoff D, those of every content ``cartan_model`` tests for
    invariance, or cap + 1 when that is more than cap: the sum over
    r <= min(m, D) of C(m, r) C(D - r + m, m)."""
    total = 0
    for r in range(min(m, D) + 1):
        total += (_binom_capped(m, r, cap)
                  * _binom_capped(D - r + m, m, cap))
        if total > cap:
            return cap + 1
    return total


def cartan_model(weights, D) -> UComplex:
    """Invariant polynomial forms on affine space for a diagonal torus
    action, truncated at total letter degree |alpha| + |beta| <= D.

    ``weights`` is one integer per coordinate for a single factor, or a
    tuple of integers per coordinate for several.
    """
    if D < 1:
        raise ValueError("degree cutoff must be at least 1")
    ws = [tuple(w) if isinstance(w, (list, tuple)) else (w,)
          for w in weights]
    m = len(ws)
    n = len(ws[0]) if m else 1
    if any(len(w) != n for w in ws):
        raise ValueError("all coordinates need one weight per factor")

    # x^alpha dx^beta is invariant exactly when its content
    # alpha + 1_beta is, and the content has the form's letter count
    forms = []
    for c in _exponent_vectors(m, D):
        if any(sum(c[j] * ws[j][f] for j in range(m)) for f in range(n)):
            continue
        support = [j for j in range(m) if c[j]]
        for r in range(len(support) + 1):
            for beta in itertools.combinations(support, r):
                forms.append((tuple(c[j] - (j in beta) for j in range(m)),
                              beta))
    forms.sort(key=lambda ab: (sum(ab[0]) + len(ab[1]), len(ab[1]), ab))
    tokens = [BasisToken(_form_name(a, b), len(b)) for a, b in forms]
    pos = {ab: i for i, ab in enumerate(forms)}

    # d and h_i keep the content, so every target is a form; each
    # (k, form) pair hits a different one, so no entry is written twice;
    # zero weights give zero entries, which Matrix drops
    d0 = {}
    u_parts = [dict() for _ in range(n)]
    for j, (alpha, beta) in enumerate(forms):
        for k in range(m):
            if alpha[k] == 0 or k in beta:
                continue
            na = list(alpha)
            na[k] -= 1
            nb = tuple(sorted(beta + (k,)))
            sign = (-1) ** sum(1 for b in beta if b < k)
            d0[(pos[(tuple(na), nb)], j)] = sign * alpha[k]
        for f in range(n):
            for r, k in enumerate(beta):
                na = list(alpha)
                na[k] += 1
                nb = tuple(b for b in beta if b != k)
                u_parts[f][(pos[(tuple(na), nb)], j)] = (-1) ** r * ws[k][f]
    N = len(forms)
    return UComplex(MixedComplex(tokens, Matrix(N, N, d0),
                                 [Matrix(N, N, h) for h in u_parts]))


# -- localization ----------------------------------------------------------

def check_mixed_map(NZ: MixedComplex, NX: MixedComplex, iota):
    """iota is the map from source to target tokens, as a Matrix or a
    column dict of rational entries of degree 0, as ``read_map`` reads
    them; it must commute with d and with every h_i, and the two
    complexes must have the same torus rank.  Returns it as a Matrix."""
    if NZ.nfactors != NX.nfactors:
        raise ValueError("mixed complexes have different torus ranks")
    iota = Matrix.of_columns(len(NX.tokens), len(NZ.tokens), iota)
    pairs = [("d", NZ.d, NX.d)]
    pairs += [("h_%d" % (a + 1), NZ.hs[a], NX.hs[a])
              for a in range(NZ.nfactors)]
    for name, opz, opx in pairs:
        _check_zero(iota.mul(opz).add(opx.mul(iota).scale(-1)),
                    "map fails to commute with %s" % name,
                    NZ.tokens, NX.tokens)
    return iota


def divides_power(factor: Scalar, f: Scalar) -> bool:
    """Does the invariant factor divide some power of f?"""
    if factor.is_zero():
        return False
    g = factor
    while g.degree() > 0:
        c = sc_gcd(g, f)
        if c.degree() == 0:
            return False
        g = g.div_exact(c)
    return True


def localize_check(NZ: MixedComplex, NX: MixedComplex, iota,
                   inverted_generators):
    """Verdict on whether t(iota) becomes an isomorphism on cohomology
    after inverting the given polynomials in Q[u]."""
    iota = check_mixed_map(NZ, NX, iota)
    SZ, XZ = presentation(koszul_t(NZ).complex().D)
    SX, XX = presentation(koszul_t(NX).complex().D)
    rZ, rX = XZ.nrows, XX.nrows

    # the induced map in kernel coordinates
    F_cols = []
    for kz in SZ.kernel_basis():
        x = SX.kernel_coordinates(iota.apply(kz))
        if x is None:
            raise AssertionError("chain map image escapes the kernel")
        F_cols.append(x)

    # cokernel: Q[u]^rX / im[F | XX]
    B = Matrix.from_columns(
        rX, F_cols + [XX.column(j) for j in range(XX.ncols)])
    SB = smith(B)
    cfree, ctors = rX - SB.rank, _torsion(SB.factors)
    # kernel: K / im XZ with K = {x : F x in im XX}; XX is injective, so
    # the x-parts of a basis of ker [F | XX] are a basis G of K
    G = Matrix.from_columns(rZ, [{i: v for i, v in kcol.items() if i < rZ}
                                 for kcol in SB.kernel_basis()])
    SG = smith(G)
    coords = []
    for j in range(XZ.ncols):
        c = smith_solve(SG, XZ.column(j))
        if c is None:
            raise AssertionError("source boundary escapes the kernel")
        coords.append(c)
    krank, kfactors = smith_factors(Matrix.from_columns(G.ncols, coords))
    kfree, ktors = G.ncols - krank, _torsion(kfactors)

    from .scalars import parse_scalar
    f_total = ONE
    for f in inverted_generators:
        f_total = f_total * (parse_scalar(f) if isinstance(f, str)
                             else sc(f))
    factors = ctors + ktors
    ok = (cfree == 0 and kfree == 0
          and all(divides_power(f, f_total) for f in factors))
    if cfree:
        ann = None
    else:
        ann = ONE
        for f in ctors:
            ann = ann * f
    return {
        "iso_after_localization": ok,
        "cokernel_annihilator": (format_scalar(ann) if ann is not None
                                 else "none (free part)"),
        "cokernel_factors": [format_scalar(f) for f in ctors] + ["0"] * cfree,
        "kernel_factors": [format_scalar(f) for f in ktors] + ["0"] * kfree,
    }


# -- stock complexes -------------------------------------------------------

def regular_lambda() -> MixedComplex:
    """The rank-2 regular module: h sends the degree-1 generator to the
    degree-0 one; t of this is the Koszul complex with H = Q[u]/u."""
    tokens = [BasisToken("1", 1), BasisToken("eps", 0)]
    return MixedComplex(tokens, {}, [{0: {1: 1}}])


def sphere_pair() -> MixedComplex:
    """Two classes in degrees 0 and 2 with no structure; t gives a free
    rank-2 module."""
    return MixedComplex([BasisToken("a", 0), BasisToken("b", 2)],
                        {}, [{}])


def zero_mixed(nfactors=1) -> MixedComplex:
    return MixedComplex([], {}, [{} for _ in range(nfactors)])


def p1_rotation() -> MixedComplex:
    """Cell model of the projective line under rotation: two fixed
    0-cells x, y, the interval e between them, and the sweep f of e
    around the circle; d(e) = y - x, h(e) = f."""
    tokens = [BasisToken("x", 0), BasisToken("y", 0),
              BasisToken("e", -1), BasisToken("f", -2)]
    d = {2: {1: 1, 0: -1}}
    h = {2: {3: 1}}
    return MixedComplex(tokens, d, [h])


def p1_fixed_points() -> MixedComplex:
    return MixedComplex([BasisToken("p", 0), BasisToken("q", 0)],
                        {}, [{}])


def p1_inclusion():
    """p and q land on the two fixed cells."""
    return {0: {0: 1}, 1: {1: 1}}
