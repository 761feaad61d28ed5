"""Relation suites for shifted-Poisson, quantization-family, and
Batalin-Vilkovisky structures on finite graded bases, plus the
cohomology rings of ordered configurations of points in R^d.

Structures are checked extensionally: an instance is a basis with
operation tables, and a preset is a list of identities evaluated on all
basis tuples.  Exact arithmetic throughout; the first failing tuple is
reported as a witness.

A suite is declared by one row of ``SUITES``: the tables it needs, its
shift d, its parameter (hbar or u, for the deformed relations), the
names of its relations in report order, and the flags its report
carries.  The row ``P_d`` serves every ``P_<int>``, with d read off the
name.  Each relation name is a row of ``RELATIONS``: its arity and a
function f(A, d, param, *tuple) that returns both sides (lhs, rhs) of
the identity on a tuple of basis indices.  ``check_relations`` runs one
loop over the relations and their tuples and keeps, per relation, the
first tuple where lhs - rhs is not zero.

Degree and sign conventions (homological degrees everywhere):

  * the product m has degree 0;
  * the bracket pi of the d-indexed family has degree d - 1 and
    symmetry pi(a, b) = (-1)^(d + |a||b|) pi(b, a), so for d = 1 it is
    an ordinary graded Lie bracket, for d = 2 even elements bracket
    symmetrically, and for d = 0 even-odd pairs do;
  * Jacobi and the biderivation rule are stated through the twist
    t(a, b) = (-1)^((d-1)|a|) pi(a, b), which is an honest shifted Lie
    bracket in the parities e_a = |a| + d - 1;
  * the differential of the hbar-family has degree -1, the unary
    operator of the BV suite degree +1, hbar degree 0, u degree -2.
"""

from __future__ import annotations

from fractions import Fraction
import itertools

from .scalars import Scalar, ZERO, ONE, sc, format_scalar
from .linalg import span_rank
from .schemas import SchemaViolation, escape, name_index, scalar_at

HBAR = Scalar.variable("hbar")


def _coerce_table(table, arity):
    out = {}
    for key, col in table.items():
        if arity == 1 and not isinstance(key, tuple):
            key = (key,)
        out[tuple(key)] = {k: sc(v) for k, v in col.items()
                           if not sc(v).is_zero()}
    return out


class AlgebraInstance:
    """Finite ordered basis with degrees and parities, and any subset of
    the operation tables m, pi, delta, d.  Tables are sparse: absent
    entries are zero.  Declared operation degrees and parities are
    enforced entry by entry when a table is read, by ``from_dict``; the
    stock instances below pass that check."""

    OP_ARITY = {"m": 2, "pi": 2, "delta": 1, "d": 1}
    OP_PARITY = {"m": 0, "delta": 1, "d": 1}

    def __init__(self, names, degrees, parities, tables, ring=None,
                 ring_degree=0, pi_degree=None, pi_parity=None,
                 delta_parity=1):
        self.names = list(names)
        self.degrees = list(degrees)
        self.parities = [p % 2 for p in parities]
        self.ring = ring
        self.ring_degree = ring_degree
        self.pi_degree = pi_degree
        self.pi_parity = pi_parity
        self.delta_parity = delta_parity % 2
        self.tables = {op: _coerce_table(raw, self.OP_ARITY[op])
                       for op, raw in tables.items() if raw is not None}

    def op_degree(self, op):
        if op == "m":
            return 0
        if op == "pi":
            return self.pi_degree
        if op == "delta":
            return 1
        return -1

    def op_parity(self, op):
        if op == "pi":
            if self.pi_parity is not None:
                return self.pi_parity % 2
            return self.op_degree("pi") % 2 if self.pi_degree is not None \
                else 0
        if op == "delta":
            return self.delta_parity
        return self.OP_PARITY[op]

    def need(self, *ops):
        for op in ops:
            if op not in self.tables:
                raise ValueError("missing table %r" % op)

    # -- evaluation on vectors (dict index -> Scalar) ------------------

    def ev2(self, op, va, vb):
        table = self.tables[op]
        out = {}
        for i, ci in va.items():
            for j, cj in vb.items():
                for k, v in table.get((i, j), {}).items():
                    out[k] = out.get(k, ZERO) + ci * cj * v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def ev1(self, op, va):
        table = self.tables[op]
        out = {}
        for i, ci in va.items():
            for k, v in table.get((i,), {}).items():
                out[k] = out.get(k, ZERO) + ci * v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def basis_vec(self, i):
        return {i: ONE}

    def specialize(self, value):
        """Substitute the ring variable and return a Q instance."""
        if self.ring is None:
            raise ValueError("instance has no ring variable")
        tables = {}
        for op, table in self.tables.items():
            tables[op] = {key: {k: v.subs(Fraction(value))
                                for k, v in col.items()}
                          for key, col in table.items()}
        return AlgebraInstance(self.names, self.degrees, self.parities,
                               tables, ring=None, ring_degree=0,
                               pi_degree=self.pi_degree,
                               pi_parity=self.pi_parity,
                               delta_parity=self.delta_parity)

    def to_dict(self):
        def ser(table):
            return {",".join(self.names[i] for i in key):
                    {self.names[k]: format_scalar(v)
                     for k, v in col.items()}
                    for key, col in table.items()}
        data = {"format": "alg.v1",
                "basis": [{"name": n, "degree": self.degrees[i],
                           "parity": self.parities[i]}
                          for i, n in enumerate(self.names)],
                "tables": {op: ser(t) for op, t in self.tables.items()}}
        if self.ring is not None:
            data["ring"] = {"var": self.ring, "degree": self.ring_degree}
        if self.pi_degree is not None:
            data["pi_degree"] = self.pi_degree
        if self.pi_parity is not None:
            data["pi_parity"] = self.pi_parity
        if "delta" in self.tables:
            data["delta_parity"] = self.delta_parity
        return data

    @staticmethod
    def from_dict(data):
        names = [b["name"] for b in data["basis"]]
        index = name_index(names, "basis element", "alg.v1",
                           "/basis/%d/name")
        tables = {}
        for op, t in data.get("tables", {}).items():
            out = {}
            for key, col in t.items():
                at = "/tables/%s/%s" % (escape(op), escape(key))
                parts = key.split(",")
                arity = AlgebraInstance.OP_ARITY[op]
                if len(parts) != arity:
                    # ev2 and ev1 would never look such a key up
                    raise SchemaViolation(
                        "alg.v1", at, "%s takes %d arguments, the key "
                        "names %d" % (op, arity, len(parts)))
                idx = tuple(index(n, at) for n in parts)
                out[idx] = {index(k, at + "/" + escape(k)):
                            scalar_at(v, "alg.v1", at + "/" + escape(k))
                            for k, v in col.items()}
            tables[op] = out
        if "pi" in tables and "pi_degree" not in data:
            raise SchemaViolation("alg.v1", "/tables/pi",
                                  "a pi table needs a pi_degree")
        ring = data.get("ring") or {}
        A = AlgebraInstance(
            names,
            [b["degree"] for b in data["basis"]],
            [b.get("parity", 0) for b in data["basis"]],
            tables,
            ring=ring.get("var"),
            ring_degree=ring.get("degree", 0),
            pi_degree=data.get("pi_degree"),
            pi_parity=data.get("pi_parity"),
            delta_parity=data.get("delta_parity", 1))
        # u^e * e_k lives in degree deg(k) + e deg(u), and op(key) -> k
        # has the degree and parity of the key shifted by the op's
        for op, table in A.tables.items():
            for key, col in table.items():
                at = "/tables/%s/%s/" % (
                    escape(op), escape(",".join(names[i] for i in key)))
                degree = sum(A.degrees[i] for i in key) + A.op_degree(op)
                parity = (sum(A.parities[i] for i in key)
                          + A.op_parity(op)) % 2
                for k, v in col.items():
                    wants = [("degree", A.degrees[k],
                              degree - e * A.ring_degree)
                             for e, c in enumerate(v.coeffs) if c]
                    wants.append(("parity", A.parities[k], parity))
                    for what, have, want in wants:
                        if have != want:
                            raise SchemaViolation(
                                "alg.v1", at + escape(names[k]),
                                "an entry of wrong %s (%s has %d, the "
                                "entry needs %d)"
                                % (what, names[k], have, want))
        return A


# -- relations -------------------------------------------------------------

def _sign(exp):
    return -1 if exp % 2 else 1


def _sum(*terms):
    """sum of c * vec over the (c, vec) terms.  Every term is scaled
    before any is added, so a product that mixes two ring variables is
    refused before a sum that mixes them."""
    scaled = [vec if c == 1 else {k: c * v for k, v in vec.items()}
              for c, vec in terms]
    out = {}
    for vec in scaled:
        for k, v in vec.items():
            out[k] = out.get(k, ZERO) + v
    return {k: v for k, v in out.items() if v}


def _swap(A, op, shift, param, a, b):
    """op(a, b) - (-1)^(shift + |a||b|) op(b, a) = param pi(a, b)."""
    va, vb = A.basis_vec(a), A.basis_vec(b)
    s = _sign(shift + A.parities[a] * A.parities[b])
    lhs = _sum((1, A.ev2(op, va, vb)), (-s, A.ev2(op, vb, va)))
    return lhs, {} if param is None else _sum((param, A.ev2("pi", va, vb)))


def _associativity(A, d, param, a, b, c):
    va, vb, vc = map(A.basis_vec, (a, b, c))
    return (A.ev2("m", A.ev2("m", va, vb), vc),
            A.ev2("m", va, A.ev2("m", vb, vc)))


def _twist(A, d, u, v):
    """t(u, v) = sum_i u_i (-1)^((d-1)|i|) pi(e_i, v)."""
    return A.ev2("pi", {i: c * _sign((d - 1) * A.parities[i])
                        for i, c in u.items()}, v)


def _jacobi(A, d, param, a, b, c):
    """t(a, t(b, c)) = t(t(a, b), c) + (-1)^(e_a e_b) t(b, t(a, c)),
    with e_i = |i| + d - 1."""
    va, vb, vc = map(A.basis_vec, (a, b, c))
    e = (A.parities[a] + d - 1) * (A.parities[b] + d - 1)
    return (_twist(A, d, va, _twist(A, d, vb, vc)),
            _sum((1, _twist(A, d, _twist(A, d, va, vb), vc)),
                 (_sign(e), _twist(A, d, vb, _twist(A, d, va, vc)))))


def _biderivation(A, d, param, a, b, c):
    """pi(a, bc) = pi(a, b) c + (-1)^((|a| + d - 1)|b|) b pi(a, c)."""
    va, vb, vc = map(A.basis_vec, (a, b, c))
    s = _sign((A.parities[a] + d - 1) * A.parities[b])
    return (A.ev2("pi", va, A.ev2("m", vb, vc)),
            _sum((1, A.ev2("m", A.ev2("pi", va, vb), vc)),
                 (s, A.ev2("m", vb, A.ev2("pi", va, vc)))))


def _square(A, op, a):
    return A.ev1(op, A.ev1(op, A.basis_vec(a))), {}


def _deviation(A, op, coeff, a, b):
    """op(ab) = op(a) b + (-1)^(|op||a|) a op(b) + coeff pi(a, b)."""
    va, vb = A.basis_vec(a), A.basis_vec(b)
    s = _sign(A.op_parity(op) * A.parities[a])
    return (A.ev1(op, A.ev2("m", va, vb)),
            _sum((1, A.ev2("m", A.ev1(op, va), vb)),
                 (s, A.ev2("m", va, A.ev1(op, vb))),
                 (coeff, A.ev2("pi", va, vb))))


RELATIONS = {
    "commutativity":
        (2, lambda A, d, h, a, b: _swap(A, "m", 0, None, a, b)),
    "associativity": (3, _associativity),
    "bracket symmetry":
        (2, lambda A, d, h, a, b: _swap(A, "pi", d, None, a, b)),
    "Jacobi": (3, _jacobi),
    "biderivation": (3, _biderivation),
    "differential squares to zero":
        (1, lambda A, d, h, a: _square(A, "d", a)),
    "operator squares to zero":
        (1, lambda A, d, h, a: _square(A, "delta", a)),
    "deformed Leibniz":
        (2, lambda A, d, h, a, b: _deviation(A, "d", h, a, b)),
    "operator deviation":
        (2, lambda A, d, h, a, b: _deviation(A, "delta", 1, a, b)),
    "deformed commutator":
        (2, lambda A, d, h, a, b: _swap(A, "m", 0, h, a, b)),
}


# -- suites ----------------------------------------------------------------

BD0U_FLAG = ("Leibniz-deformation sign convention for the u-family: "
             "d(ab) = d(a) b + (-1)^|a| a d(b) + u pi(a, b), bracket "
             "of degree +1")

_COMM = ("commutativity", "associativity")
_LIE = ("bracket symmetry", "Jacobi")
_BD0 = _COMM + ("differential squares to zero",) + _LIE + (
    "biderivation", "deformed Leibniz")

# name: (tables needed, shift d, parameter, relations, flags); P_d stands
# for every P_<int>, whose shift is read off the name
SUITES = {
    "Comm": (("m",), None, None, _COMM, ()),
    "Ass": (("m",), None, None, ("associativity",), ()),
    "Lie": (("pi",), 1, None, _LIE, ()),
    "P_d": (("m", "pi"), None, None, _COMM + _LIE + ("biderivation",), ()),
    "BV": (("m", "pi", "delta"), None, None,
           _COMM + ("operator squares to zero", "operator deviation"), ()),
    "BD_0": (("m", "pi", "d"), 0, HBAR, _BD0, ()),
    "BD_1": (("m", "pi"), 1, HBAR,
             ("associativity",) + _LIE + ("biderivation",
                                          "deformed commutator"), ()),
    "BD_0^u": (("m", "pi", "d"), 2, Scalar.variable("u"), _BD0,
               (BD0U_FLAG,)),
}


def _suite(preset):
    """The SUITES row of a preset, with the shift of P_<int> filled in."""
    key, shift = preset, None
    if preset.startswith("P_"):
        try:
            key, shift = "P_d", int(preset[2:])
        except ValueError:
            key = None
    if key not in SUITES:
        raise ValueError("unknown preset %r" % preset)
    needs, d, param, names, flags = SUITES[key]
    return needs, d if shift is None else shift, param, names, flags


def check_relations(A: AlgebraInstance, preset):
    """Evaluate the named relation suite on every basis tuple; exact
    pass/fail with the first witnesses per relation."""
    needs, d, param, names, flags = _suite(preset)
    A.need(*needs)
    n = len(A.names)
    seen = {}
    for name in names:
        arity, relation = RELATIONS[name]
        for key in itertools.product(range(n), repeat=arity):
            lhs, rhs = relation(A, d, param, *key)
            rest = _sum((1, lhs), (-1, rhs))
            if rest and name not in seen:
                seen[name] = {
                    "relation": name,
                    "args": tuple(A.names[i] for i in key),
                    "difference": {A.names[k]: format_scalar(v)
                                   for k, v in rest.items()}}
    return {"preset": preset,
            "passed": not seen,
            # an empty basis has no tuples, so no relation ran
            "relations": [{"name": r, "ok": r not in seen}
                          for r in names] if n else [],
            "violations": list(seen.values()),
            "flags": list(flags)}


# -- stock instances -------------------------------------------------------

def truncated_polynomial_poisson():
    """Q[x]/x^3 with the zero bracket: passes every P_d suite."""
    names = ["1", "x", "x2"]
    m = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i + j <= 2:
            m[(i, j)] = {i + j: 1}
    return AlgebraInstance(names, [0, 0, 0], [0, 0, 0],
                           {"m": m, "pi": {}}, pi_degree=0)


def matrix_2x2():
    names = ["E11", "E12", "E21", "E22"]
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    m = {}
    for (a, b), i in pos.items():
        for (c, e), j in pos.items():
            if b == c:
                m[(i, j)] = {pos[(a, e)]: 1}
    return AlgebraInstance(names, [0] * 4, [0] * 4, {"m": m})


def heisenberg_rank4():
    """1, x, y, z with xy - yx = hbar z and z central; products of three
    or more non-units are truncated away."""
    names = ["1", "x", "y", "z"]
    half = HBAR.scale(Fraction(1, 2))
    m = {(0, 0): {0: 1}}
    for i in (1, 2, 3):
        m[(0, i)] = {i: 1}
        m[(i, 0)] = {i: 1}
    m[(1, 2)] = {3: half}
    m[(2, 1)] = {3: half.scale(-1)}
    pi = {(1, 2): {3: 1}, (2, 1): {3: -1}}
    return AlgebraInstance(names, [0] * 4, [0] * 4,
                           {"m": m, "pi": pi}, ring="hbar",
                           pi_degree=0)


def _odd_pair_tables(unary_coeff=None):
    """m, pi, and the unary table on Q[x]/x^3 tensor an odd line: the
    unary operator is (Euler field) o (odd derivative), which is
    honestly second order, and pi is its deviation
    pi(a, b) = dtheta(a) E(b) + (-1)^|a| E(a) dtheta(b)."""
    names = ["1", "x", "x2", "th", "xth", "x2th"]
    # index i < 3: x^i ; index 3 + i: x^i th
    m = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i + j <= 2:
            m[(i, j)] = {i + j: 1}
            m[(i, 3 + j)] = {3 + i + j: 1}
            m[(3 + i, j)] = {3 + i + j: 1}
        # theta^2 = 0 kills odd-odd products
    pi = {}
    for i, j in itertools.product(range(3), repeat=2):
        if 0 < i and i + j <= 2:
            # pi(x^i, x^j th) = i x^(i+j); symmetric counterpart equal
            pi[(i, 3 + j)] = {i + j: i}
            pi[(3 + j, i)] = {i + j: i}
        if i != j and i + j <= 2:
            # pi(x^i th, x^j th) = (j - i) x^(i+j) th
            pi[(3 + i, 3 + j)] = {3 + i + j: j - i}
    unary = {}
    if unary_coeff is not None:
        for k in (1, 2):
            unary[(3 + k,)] = {k: sc(unary_coeff).scale(k)}
    return names, m, pi, unary


def odd_symplectic_bv():
    """Odd-degree operator of degree +1 with its deviation bracket:
    passes BV and, with the same tables, the P_2 suite."""
    names, m, pi, delta = _odd_pair_tables(1)
    degrees = [0, 0, 0, -1, -1, -1]
    parities = [0, 0, 0, 1, 1, 1]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "delta": delta},
                           pi_degree=1)


def odd_symplectic_p2():
    names, m, pi, _ = _odd_pair_tables()
    return AlgebraInstance(names, [0, 0, 0, -1, -1, -1],
                           [0, 0, 0, 1, 1, 1], {"m": m, "pi": pi},
                           pi_degree=1)


def odd_symplectic_bd0():
    """The same algebra with the odd coordinate in degree +1, the
    operator scaled by hbar as a degree -1 differential, and the
    bracket in degree -1."""
    names, m, pi, d = _odd_pair_tables(HBAR)
    degrees = [0, 0, 0, 1, 1, 1]
    parities = [0, 0, 0, 1, 1, 1]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "d": d},
                           ring="hbar", pi_degree=-1)


def odd_symplectic_bd0u():
    names, m, pi, d = _odd_pair_tables(Scalar.variable("u"))
    degrees = [0, 0, 0, -1, -1, -1]
    parities = [0, 0, 0, 1, 1, 1]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "d": d},
                           ring="u", ring_degree=-2, pi_degree=1)


def exterior_bv_pair():
    """Exterior algebra on two odd generators with the second cross
    derivative as the unary operator.  The operator has even parity, so
    the deviation carries no interior sign."""
    names = ["1", "th1", "th2", "th1th2"]
    m = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
         (0, 2): {2: 1}, (2, 0): {2: 1}, (0, 3): {3: 1}, (3, 0): {3: 1},
         (1, 2): {3: 1}, (2, 1): {3: -1},
         (1, 3): {}, (3, 1): {}, (2, 3): {}, (3, 2): {}}
    delta = {(3,): {0: -1}}
    # pi is the deviation of delta from deriving; delta even kills the
    # Koszul sign, and only pairs meeting both generators survive
    pi = {(1, 2): {0: -1}, (2, 1): {0: 1},
          (1, 3): {1: 1}, (3, 1): {1: 1},
          (2, 3): {2: 1}, (3, 2): {2: 1},
          (3, 3): {3: 2}}
    degrees = [0, -1, 0, -1]
    parities = [0, 1, 1, 0]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "delta": delta},
                           pi_degree=1, pi_parity=0, delta_parity=0)


def sl2_lie():
    names = ["e", "h", "f"]
    pi = {(0, 2): {1: 1}, (2, 0): {1: -1},
          (1, 0): {0: 2}, (0, 1): {0: -2},
          (1, 2): {2: -2}, (2, 1): {2: 2}}
    return AlgebraInstance(names, [0] * 3, [0] * 3, {"pi": pi},
                           pi_degree=0)


# -- configuration rings ---------------------------------------------------

class ConfRing:
    def __init__(self, n, d, dims, basis, total):
        self.n = n
        self.d = d
        self.dims = dims          # form degree k < n -> dimension
        self.basis = basis        # k -> list of pair-tuples
        self.total = total

    def poincare(self):
        terms = []
        for k in sorted(self.dims):
            c = self.dims[k]
            deg = k * (self.d - 1)
            if deg == 0:
                terms.append(str(c))
            elif deg == 1:
                terms.append("t" if c == 1 else "%dt" % c)
            else:
                terms.append("t^%d" % deg if c == 1
                             else "%dt^%d" % (c, deg))
        return " + ".join(terms)

    def to_dict(self):
        return {"n": self.n, "d": self.d,
                "dims": {str(k * (self.d - 1)): v
                         for k, v in self.dims.items()},
                "total": self.total,
                "poincare": self.poincare()}


def conf_ring(n, d) -> ConfRing:
    """Cohomology of n ordered points in R^d, read off its
    no-broken-circuit basis (Arnold; Orlik-Solomon): the monomials
    w_{i1 j1}...w_{ik jk} with distinct j's and i_s < j_s, i.e. for each
    j in 2..n no factor or one w_ij with i < j.  The basis does not
    depend on d; form degree k sits in degree k(d - 1), so the Poincare
    polynomial is prod_{j<n} (1 + j t^(d-1)) and the total is n!.
    """
    basis = {0: [()]}
    for j in range(2, n + 1):
        # descending k, so each monomial takes at most one factor w_ij
        for k in sorted(basis, reverse=True):
            basis.setdefault(k + 1, []).extend(
                tuple(sorted(m + ((i, j),)))
                for m in basis[k] for i in range(1, j))
    dims = {k: len(monos) for k, monos in basis.items()}
    return ConfRing(n, d, dims, basis, sum(dims.values()))


# -- the arity bridge ------------------------------------------------------

def _free_p3_words(d):
    """Expand every two-operation composition word on three even
    generators into the six-element normal basis of the multilinear
    free algebra, with the twist signs of this module's conventions."""
    e = (d - 1) % 2
    K_PROD = ("prod",)

    def k_lone(i):
        return ("lone", i)

    def add(dst, key, c):
        dst[key] = dst.get(key, Fraction(0)) + c
        if dst[key] == 0:
            del dst[key]

    def bracket_atoms(i, j):
        # t(g_i, g_j) as a signed oriented pair
        if i == j:
            return {}
        if i < j:
            return {("br", i, j): Fraction(1)}
        return {("br", j, i): Fraction(-1) * _sign(e)}

    def nest(i, pair_val):
        # t(g_i, sum of oriented pairs) in the nest basis
        out = {}
        for key, c in pair_val.items():
            _, j, k = key
            if i in (j, k):
                raise AssertionError("not multilinear")
            if i < 2:
                add(out, ("nest", i), c)
            else:
                # Jacobi: t(g2, t(g0, g1)) = (-1)^e nest(1) - nest(0)
                add(out, ("nest", 1), c * _sign(e))
                add(out, ("nest", 0), -c)
        return out

    words = []
    assignments = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    for a, b, c in assignments:
        # m(m(a,b), c)
        words.append({K_PROD: Fraction(1)})
        # m(pi(a,b), c): atoms even so pi = t; commutative reorder free
        pair = bracket_atoms(a, b)
        w = {}
        for key, cc in pair.items():
            _, j, k = key
            add(w, k_lone(c), cc)
        words.append(w)
        # pi(m(a,b), c): flip to t(c, m(a,b)) then Leibniz
        # pi(M, c) = t(M, c) since M even; t(M,c) = -(-1)^(e_M e_c) t(c,M)
        flip = Fraction(-1) * _sign(e * e)
        w = {}
        # t(c, m(a,b)) = m(t(c,a), b) + m(a, t(c,b))
        for other in (a, b):
            partner = b if other == a else a
            for key, cc in bracket_atoms(c, other).items():
                _, j, k = key
                add(w, k_lone(partner), cc * flip)
        words.append(w)
        # pi(pi(a,b), c): prefactor for odd first argument, then flip
        # and nest: t(P, c) = -(-1)^(e_P e_c) t(c, P) with e_P = 0
        pre = _sign(e * e)          # pi -> t on the composite first slot
        w = {}
        for key, cc in bracket_atoms(a, b).items():
            for nkey, nc in nest(c, {key: Fraction(1)}).items():
                add(w, nkey, cc * nc * pre * Fraction(-1))
        words.append(w)
    return words


def homology_p_d_bridge(n, d):
    """Arity-level comparison between configuration cohomology and the
    two-generator presentation: dimensions, degrees, and the transposition
    sign for n = 2; total dimension 6 against the rank of all arity-3
    words for n = 3, the only other n it takes."""
    if n == 2:
        ring = conf_ring(2, d)
        conf_degrees = sorted(k * (d - 1) for k in ring.dims)
        swap = (-1) ** d
        return {"n": 2, "d": d,
                "conf_dims": ring.total,
                "conf_degrees": conf_degrees,
                "operad_degrees": [0, d - 1],
                "swap_sign_conf": swap,
                "swap_sign_operad": _sign(d),
                "match": (ring.total == 2
                          and conf_degrees == [0, d - 1]
                          and swap == _sign(d))}
    ring = conf_ring(3, d)
    rank = span_rank(_free_p3_words(d))
    return {"n": 3, "d": d,
            "conf_dims": ring.total,
            "operad_rank": rank,
            "match": ring.total == rank == 6}

