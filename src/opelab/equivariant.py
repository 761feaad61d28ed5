"""Mixed complexes, their polynomial-ring duals, Cartan models, and
localization verdicts.

A mixed complex is a finite graded Q-module with a square-zero d of
degree +1 and pairwise anticommuting square-zero operators h_1..h_n of
degree -1, one per torus factor, each anticommuting with d.  The duality
functor t tensors with Q[u_1..u_n] (each u_i of degree 2) and perturbs
the differential to d + sum u_i h_i; strictness of the input is exactly
what makes the output square to zero, so t re-validates its result.

The inverse-direction functor h reads the u-linear part of a polynomial
differential back off as the operators h_i.  For differentials produced
by t this is literally an inverse, which is the reason the round-trip
cohomology comparison in the contract holds on the nose here.

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
from .linalg import Matrix, BasisToken, FiniteComplex, smith, presentation


def _check_zero(M: Matrix, what, src, tgt):
    """Refuse a nonzero M, naming its entry with the lowest column, then
    the lowest row, by the source and target tokens."""
    if not M.is_zero():
        j, i = min((j, i) for i, j in M.data)
        raise ValueError("%s: component %r -> %r" % (what, src[j], tgt[i]))


class MixedComplex:
    """tokens: ordered BasisTokens; d and each h are Matrices over token
    indices with rational entries (column dicts {j: {i: entry}} are
    accepted too)."""

    def __init__(self, tokens, d, hs):
        self.tokens = list(tokens)
        n = len(self.tokens)
        self.d = Matrix.of_columns(n, n, d)
        self.hs = [Matrix.of_columns(n, n, h) for h in hs]
        self.validate()

    @property
    def nfactors(self):
        return len(self.hs)

    def _check_degree(self, op, shift, name):
        # the first bad entry in the order the map was given
        for (i, j), v in op.data.items():
            if not v.is_const():
                raise ValueError("%s has a polynomial entry" % name)
            if self.tokens[i].degree != self.tokens[j].degree + shift:
                raise ValueError(
                    "%s is not of degree %+d: %r -> %r"
                    % (name, shift, self.tokens[j], self.tokens[i]))

    def validate(self):
        self._check_degree(self.d, 1, "d")
        for a, h in enumerate(self.hs):
            self._check_degree(h, -1, "h_%d" % (a + 1))
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

    def q_complex(self) -> FiniteComplex:
        return FiniteComplex(self.tokens, self.d, var=None)

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
        # imported here for the reason given in VertexLieData.from_dict
        from .schemas import SchemaViolation, escape, scalar_at
        tokens = [BasisToken(t["name"], t["degree"])
                  for t in data["tokens"]]
        pos = {t.name: i for i, t in enumerate(tokens)}

        def token_index(name, pointer):
            # a cross-reference the schema cannot see
            if name not in pos:
                raise SchemaViolation("mixed.v1", pointer,
                                      "undeclared token %r" % name)
            return pos[name]

        def entry(v, at):
            s = scalar_at(v, "mixed.v1", at)
            if not s.is_const():
                raise SchemaViolation("mixed.v1", at,
                                      "entry %r is not a rational number" % v)
            return s

        def rd(op, at):
            out = {}
            for j, col in op.items():
                at_j = at + "/" + escape(j)
                out[token_index(j, at_j)] = {
                    token_index(i, at_j + "/" + escape(i)):
                    entry(v, at_j + "/" + escape(i))
                    for i, v in col.items()}
            return out
        return MixedComplex(tokens, rd(data.get("d", {}), "/d"),
                            [rd(h, "/h/%d" % a)
                             for a, h in enumerate(data.get("h", []))])


class UComplex:
    """Free graded Q[u_1..u_n]-module with differential d0 + sum u_i h_i,
    stored by its constant and u-linear parts.  With one factor this is
    an honest single-variable complex; with several, Smith computations
    follow the one-variable-at-a-time policy in ``cohomology``."""

    def __init__(self, tokens, d0, u_parts, labels=None, truncation=None):
        # same strictness data as a mixed complex, so reuse its checks
        N = MixedComplex(tokens, d0, u_parts)
        self.tokens, self.d0, self.u_parts = N.tokens, N.d, N.hs
        n = len(self.u_parts)
        if labels is None:
            labels = ("u",) if n == 1 else tuple(
                "u%d" % (i + 1) for i in range(n))
        self.labels = tuple(labels)
        self.truncation = truncation

    @property
    def nfactors(self):
        return len(self.u_parts)

    def complex(self) -> FiniteComplex:
        if self.nfactors != 1:
            raise ValueError("single-variable view needs exactly one u")
        u = Scalar.variable(self.labels[0])
        return FiniteComplex(self.tokens,
                             self.d0.add(self.u_parts[0].scale(u)),
                             var=self.labels[0], var_degree=2)

    def at_zero(self) -> FiniteComplex:
        """Specialize every u_i to 0: the underlying Q complex."""
        return FiniteComplex(self.tokens, self.d0, var=None)

    def _specialized_matrix(self, keep, others):
        u = Scalar.variable(self.labels[keep])
        total = self.d0
        for i, h in enumerate(self.u_parts):
            if i == keep:
                total = total.add(h.scale(u))
            elif others:
                total = total.add(h.scale(others))
        return total

    def cohomology(self):
        """One factor: graded classes over Q[u].  Several: for each u_i,
        the module rank and torsion factors after sending the other
        variables to 0 and to 1 (grading is lost in the latter case, so
        only module invariants are reported)."""
        if self.nfactors == 1:
            return self.complex().cohomology()
        out = {}
        for i in range(self.nfactors):
            for val in (0, 1):
                M = self._specialized_matrix(i, Fraction(val))
                sq = M.mul(M)
                if not sq.is_zero():
                    raise ValueError("specialized differential does not "
                                     "square to zero")
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
    """H = ker D / im D of a square-zero matrix over Q[u], as free rank
    plus torsion invariant factors."""
    _, X = presentation(D)
    return _cokernel_invariants(smith(X))


def _cokernel_invariants(S):
    """(free rank, torsion invariant factors) of the cokernel of the
    matrix whose Smith form is S."""
    return S.nrows - S.rank, [f for f in S.factors if f.degree() > 0]


def quotient_invariants(ambient, gens, rels):
    """Invariant factors of span(gens)/span(rels) inside Q[u]^ambient,
    with rels contained in span(gens).  Returns (free_rank, torsion)."""
    g = len(gens)
    if g == 0:
        return 0, []
    cols = list(gens) + list(rels)
    B = Matrix.from_columns(ambient, cols)
    pres = []
    for kcol in smith(B).kernel_basis():
        c = {i: v for i, v in kcol.items() if i < g}
        if c:
            pres.append(c)
    return _cokernel_invariants(smith(Matrix.from_columns(g, pres)))


# -- duality functors ------------------------------------------------------

def koszul_t(N: MixedComplex, labels=None) -> UComplex:
    """S tensor N with differential d + sum u_i h_i."""
    return UComplex(N.tokens, N.d, N.hs, labels=labels)


def koszul_h(M: UComplex) -> MixedComplex:
    """Read the operators back off the u-linear parts of the
    differential."""
    return MixedComplex(M.tokens, M.d0, M.u_parts)


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
    return UComplex(C.tokens, Matrix(n, n, d0), [Matrix(n, n, d1)],
                    labels=(C.var,))


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

    def invariant(alpha, beta):
        for f in range(n):
            if sum((alpha[j] + (1 if j in beta else 0)) * ws[j][f]
                   for j in range(m)) != 0:
                return False
        return True

    forms = []
    for beta in itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(m + 1)):
        room = D - len(beta)
        if room < 0:
            continue
        for alpha in itertools.product(range(room + 1), repeat=m):
            if sum(alpha) <= room and invariant(alpha, beta):
                forms.append((tuple(alpha), tuple(beta)))
    forms.sort(key=lambda ab: (sum(ab[0]) + len(ab[1]), len(ab[1]), ab))
    tokens = [BasisToken(_form_name(a, b), len(b), aux=(a, b))
              for a, b in forms]
    pos = {ab: i for i, ab in enumerate(forms)}

    # each (k, form) pair hits a different target form, so no entry is
    # written twice; zero weights give zero entries, which Matrix drops
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
            key = (tuple(na), nb)
            if key in pos:
                d0[(pos[key], j)] = sign * alpha[k]
        for f in range(n):
            for r, k in enumerate(beta):
                na = list(alpha)
                na[k] += 1
                nb = tuple(b for b in beta if b != k)
                key = (tuple(na), nb)
                if key in pos:
                    u_parts[f][(pos[key], j)] = ((-1) ** r) * ws[k][f]
    N = len(forms)
    return UComplex(tokens, Matrix(N, N, d0),
                    [Matrix(N, N, h) for h in u_parts], truncation=D)


# -- localization ----------------------------------------------------------

def check_mixed_map(NZ: MixedComplex, NX: MixedComplex, iota):
    """iota is the map from source to target tokens, as a Matrix or a
    column dict; it must have degree 0 and commute with d and with every
    h_i.  Returns it as a Matrix."""
    if NZ.nfactors != NX.nfactors:
        raise ValueError("mixed complexes have different torus ranks")
    iota = Matrix.of_columns(len(NX.tokens), len(NZ.tokens), iota)
    for (i, j), v in iota.data.items():
        if NX.tokens[i].degree != NZ.tokens[j].degree:
            raise ValueError(
                "map is not of degree 0: %r -> %r"
                % (NZ.tokens[j], NX.tokens[i]))
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
    cfree, ctors = _cokernel_invariants(SB)
    # kernel: {x : F x in im XX} / im XZ
    if rZ:
        gens = []
        for kcol in SB.kernel_basis():
            c = {i: v for i, v in kcol.items() if i < rZ}
            if c:
                gens.append(c)
        kfree, ktors = quotient_invariants(
            rZ, gens, [XZ.column(j) for j in range(XZ.ncols)])
    else:
        kfree, ktors = 0, []

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
