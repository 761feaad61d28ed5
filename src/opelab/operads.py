"""Relation suites for shifted-Poisson, quantization-family, and
Batalin-Vilkovisky structures on finite graded bases, plus the
cohomology rings of ordered configurations of points in R^d.

Structures are checked extensionally: an instance is a basis with
operation tables, and a preset is a list of identities evaluated on all
basis tuples.  Exact arithmetic throughout; the first failing tuple is
reported as a witness.

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
from .linalg import span_rank, vec_scale, vec_sub

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
    entries are zero.  Declared operation degrees are enforced entry by
    entry at construction."""

    OP_ARITY = {"m": 2, "pi": 2, "delta": 1, "d": 1}
    OP_PARITY = {"m": 0, "delta": 1, "d": 1}

    def __init__(self, names, degrees, parities, tables, ring=None,
                 ring_degree=0, pi_degree=None, pi_parity=None,
                 delta_parity=1, label=None):
        self.names = list(names)
        self.degrees = list(degrees)
        self.parities = [p % 2 for p in parities]
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate basis names")
        self.ring = ring
        self.ring_degree = ring_degree
        self.pi_degree = pi_degree
        self.pi_parity = pi_parity
        self.delta_parity = delta_parity % 2
        self.label = label
        self.tables = {}
        for op, raw in tables.items():
            if op not in self.OP_ARITY:
                raise ValueError("unknown operation table %r" % op)
            if raw is not None:
                self.tables[op] = _coerce_table(raw, self.OP_ARITY[op])
        self._check_degrees()

    def op_degree(self, op):
        if op == "m":
            return 0
        if op == "pi":
            if self.pi_degree is None:
                raise ValueError("instance declares no bracket degree")
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

    def _check_degrees(self):
        for op, table in self.tables.items():
            shift = self.op_degree(op)
            par = self.op_parity(op)
            for key, col in table.items():
                src_deg = sum(self.degrees[i] for i in key)
                src_par = sum(self.parities[i] for i in key) % 2
                for k, v in col.items():
                    for exp, c in enumerate(v.coeffs):
                        if c == 0:
                            continue
                        # u^e * e_k lives in degree deg(k) + e deg(u)
                        want = src_deg + shift - exp * self.ring_degree
                        if self.degrees[k] != want:
                            raise ValueError(
                                "%s%s has an entry of wrong degree at %s"
                                % (op, tuple(self.names[i] for i in key),
                                   self.names[k]))
                    if self.parities[k] != (src_par + par) % 2:
                        raise ValueError(
                            "%s%s has an entry of wrong parity at %s"
                            % (op, tuple(self.names[i] for i in key),
                               self.names[k]))

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
                               delta_parity=self.delta_parity,
                               label=self.label)

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
        # imported here for the reason given in VertexLieData.from_dict
        from .schemas import SchemaViolation, escape, scalar_at
        names = [b["name"] for b in data["basis"]]
        pos = {n: i for i, n in enumerate(names)}

        def index(name, pointer):
            # a cross-reference the schema cannot see
            if name not in pos:
                raise SchemaViolation("alg.v1", pointer,
                                      "undeclared basis element %r" % name)
            return pos[name]
        tables = {}
        for op, t in data.get("tables", {}).items():
            out = {}
            for key, col in t.items():
                at = "/tables/%s/%s" % (escape(op), escape(key))
                idx = tuple(index(n, at) for n in key.split(","))
                out[idx] = {index(k, at + "/" + escape(k)):
                            scalar_at(v, "alg.v1", at + "/" + escape(k))
                            for k, v in col.items()}
            tables[op] = out
        ring = data.get("ring") or {}
        return AlgebraInstance(
            names,
            [b["degree"] for b in data["basis"]],
            [b.get("parity", 0) for b in data["basis"]],
            tables,
            ring=ring.get("var"),
            ring_degree=ring.get("degree", 0),
            pi_degree=data.get("pi_degree"),
            pi_parity=data.get("pi_parity"),
            delta_parity=data.get("delta_parity", 1))


# -- relation primitives ---------------------------------------------------

def _sign(exp):
    return Fraction(1) if exp % 2 == 0 else Fraction(-1)


class _Check:
    def __init__(self, A):
        self.A = A
        self.failures = []
        self.ran = []

    def register(self, name):
        if name not in self.ran:
            self.ran.append(name)

    def record(self, name, key, rest):
        self.register(name)
        if rest:
            self.failures.append({
                "relation": name,
                "args": tuple(self.A.names[i] for i in key),
                "difference": {self.A.names[k]: format_scalar(v)
                               for k, v in rest.items()}})


def rel_graded_comm(A, chk):
    n = len(A.names)
    for i, j in itertools.product(range(n), repeat=2):
        lhs = A.ev2("m", A.basis_vec(i), A.basis_vec(j))
        rhs = vec_scale(A.ev2("m", A.basis_vec(j), A.basis_vec(i)),
                        _sign(A.parities[i] * A.parities[j]))
        chk.record("commutativity", (i, j), vec_sub(lhs, rhs))


def rel_assoc(A, chk):
    n = len(A.names)
    for i, j, k in itertools.product(range(n), repeat=3):
        vi, vj, vk = map(A.basis_vec, (i, j, k))
        lhs = A.ev2("m", A.ev2("m", vi, vj), vk)
        rhs = A.ev2("m", vi, A.ev2("m", vj, vk))
        chk.record("associativity", (i, j, k), vec_sub(lhs, rhs))


def rel_pi_symmetry(A, chk, d):
    n = len(A.names)
    for i, j in itertools.product(range(n), repeat=2):
        lhs = A.ev2("pi", A.basis_vec(i), A.basis_vec(j))
        rhs = vec_scale(A.ev2("pi", A.basis_vec(j), A.basis_vec(i)),
                        _sign(d + A.parities[i] * A.parities[j]))
        chk.record("bracket symmetry", (i, j), vec_sub(lhs, rhs))


def _twisted(A, d, va_idx, vb):
    """t(a, -) on a basis element a: the (d-1)-twist of pi."""
    t = A.ev2("pi", A.basis_vec(va_idx), vb)
    return vec_scale(t, _sign((d - 1) * A.parities[va_idx]))


def rel_jacobi(A, chk, d):
    n = len(A.names)
    e = [(A.parities[i] + d - 1) % 2 for i in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        lhs = _twisted(A, d, a, _twisted(A, d, b, A.basis_vec(c)))
        inner = A.ev2("pi", A.basis_vec(a), A.basis_vec(b))
        inner = vec_scale(inner, _sign((d - 1) * A.parities[a]))
        # t(t(a,b), c) expands over the basis support of t(a,b)
        t1 = {}
        for i, ci in inner.items():
            for k, v in _twisted(A, d, i, A.basis_vec(c)).items():
                t1[k] = t1.get(k, ZERO) + ci * v
        t2 = vec_scale(_twisted(A, d, b, _twisted(A, d, a, A.basis_vec(c))),
                       _sign(e[a] * e[b]))
        rhs = {k: t1.get(k, ZERO) + t2.get(k, ZERO)
               for k in set(t1) | set(t2)}
        chk.record("Jacobi", (a, b, c), vec_sub(lhs, rhs))


def rel_leibniz(A, chk, d):
    n = len(A.names)
    for a, b, c in itertools.product(range(n), repeat=3):
        va, vb, vc = map(A.basis_vec, (a, b, c))
        lhs = A.ev2("pi", va, A.ev2("m", vb, vc))
        r1 = A.ev2("m", A.ev2("pi", va, vb), vc)
        r2 = vec_scale(A.ev2("m", vb, A.ev2("pi", va, vc)),
                       _sign((A.parities[a] + d - 1) * A.parities[b]))
        rhs = {k: r1.get(k, ZERO) + r2.get(k, ZERO)
               for k in set(r1) | set(r2)}
        chk.record("biderivation", (a, b, c), vec_sub(lhs, rhs))


def rel_unary_square(A, chk, op, name):
    n = len(A.names)
    for i in range(n):
        chk.record(name, (i,), A.ev1(op, A.ev1(op, A.basis_vec(i))))


def rel_deformed_leibniz(A, chk, param):
    """d(ab) = d(a) b + (-1)^|a| a d(b) + param * pi(a, b)."""
    n = len(A.names)
    for i, j in itertools.product(range(n), repeat=2):
        vi, vj = A.basis_vec(i), A.basis_vec(j)
        lhs = A.ev1("d", A.ev2("m", vi, vj))
        r1 = A.ev2("m", A.ev1("d", vi), vj)
        r2 = vec_scale(A.ev2("m", vi, A.ev1("d", vj)),
                       _sign(A.parities[i]))
        r3 = {k: param * v for k, v in A.ev2("pi", vi, vj).items()}
        rhs = {}
        for part in (r1, r2, r3):
            for k, v in part.items():
                rhs[k] = rhs.get(k, ZERO) + v
        chk.record("deformed Leibniz", (i, j), vec_sub(lhs, rhs))


def rel_deformed_commutator(A, chk, param):
    """ab - (-1)^|a||b| ba = param * pi(a, b)."""
    n = len(A.names)
    for i, j in itertools.product(range(n), repeat=2):
        vi, vj = A.basis_vec(i), A.basis_vec(j)
        lhs = vec_sub(A.ev2("m", vi, vj),
                      vec_scale(A.ev2("m", vj, vi),
                                _sign(A.parities[i] * A.parities[j])))
        rhs = {k: param * v for k, v in A.ev2("pi", vi, vj).items()}
        chk.record("deformed commutator", (i, j), vec_sub(lhs, rhs))


def rel_bv_deviation(A, chk):
    """delta(ab) - delta(a) b - (-1)^(|delta||a|) a delta(b) = pi(a,b)."""
    n = len(A.names)
    dp = A.delta_parity
    for i, j in itertools.product(range(n), repeat=2):
        vi, vj = A.basis_vec(i), A.basis_vec(j)
        lhs = A.ev1("delta", A.ev2("m", vi, vj))
        r1 = A.ev2("m", A.ev1("delta", vi), vj)
        r2 = vec_scale(A.ev2("m", vi, A.ev1("delta", vj)),
                       _sign(dp * A.parities[i]))
        rhs = {}
        for part in (r1, r2, A.ev2("pi", vi, vj)):
            for k, v in part.items():
                rhs[k] = rhs.get(k, ZERO) + v
        chk.record("operator deviation", (i, j), vec_sub(lhs, rhs))


# -- presets ---------------------------------------------------------------

BD0U_FLAG = ("Leibniz-deformation sign convention for the u-family: "
             "d(ab) = d(a) b + (-1)^|a| a d(b) + u pi(a, b), bracket "
             "of degree +1")


def _parse_preset(preset):
    if preset.startswith("P_"):
        return "P", int(preset[2:])
    return preset, None


def check_relations(A: AlgebraInstance, preset):
    """Evaluate the named relation suite on every basis tuple; exact
    pass/fail with the first witnesses per relation."""
    kind, d = _parse_preset(preset)
    chk = _Check(A)
    flags = []
    if kind == "Comm":
        A.need("m")
        rel_graded_comm(A, chk)
        rel_assoc(A, chk)
    elif kind == "Ass":
        A.need("m")
        rel_assoc(A, chk)
    elif kind == "Lie":
        A.need("pi")
        rel_pi_symmetry(A, chk, 1)
        rel_jacobi(A, chk, 1)
    elif kind == "P":
        A.need("m", "pi")
        rel_graded_comm(A, chk)
        rel_assoc(A, chk)
        rel_pi_symmetry(A, chk, d)
        rel_jacobi(A, chk, d)
        rel_leibniz(A, chk, d)
    elif kind == "BV":
        A.need("m", "pi", "delta")
        rel_graded_comm(A, chk)
        rel_assoc(A, chk)
        rel_unary_square(A, chk, "delta", "operator squares to zero")
        rel_bv_deviation(A, chk)
    elif kind == "BD_0":
        A.need("m", "pi", "d")
        rel_graded_comm(A, chk)
        rel_assoc(A, chk)
        rel_unary_square(A, chk, "d", "differential squares to zero")
        rel_pi_symmetry(A, chk, 0)
        rel_jacobi(A, chk, 0)
        rel_leibniz(A, chk, 0)
        rel_deformed_leibniz(A, chk, HBAR)
    elif kind == "BD_1":
        A.need("m", "pi")
        rel_assoc(A, chk)
        rel_pi_symmetry(A, chk, 1)
        rel_jacobi(A, chk, 1)
        rel_leibniz(A, chk, 1)
        rel_deformed_commutator(A, chk, HBAR)
    elif kind == "BD_0^u":
        A.need("m", "pi", "d")
        rel_graded_comm(A, chk)
        rel_assoc(A, chk)
        rel_unary_square(A, chk, "d", "differential squares to zero")
        rel_pi_symmetry(A, chk, 2)
        rel_jacobi(A, chk, 2)
        rel_leibniz(A, chk, 2)
        rel_deformed_leibniz(A, chk, Scalar.variable("u"))
        flags.append(BD0U_FLAG)
    else:
        raise ValueError("unknown preset %r" % preset)
    seen = {}
    for f in chk.failures:
        seen.setdefault(f["relation"], f)
    return {"preset": preset,
            "passed": not chk.failures,
            "relations": [{"name": n, "ok": n not in seen}
                          for n in chk.ran],
            "violations": list(seen.values()),
            "flags": flags}


# -- stock instances -------------------------------------------------------

def truncated_polynomial_poisson():
    """Q[x]/x^3 with the zero bracket: passes every P_d suite."""
    names = ["1", "x", "x2"]
    m = {}
    for i, j in itertools.product(range(3), repeat=2):
        if i + j <= 2:
            m[(i, j)] = {i + j: 1}
    return AlgebraInstance(names, [0, 0, 0], [0, 0, 0],
                           {"m": m, "pi": {}}, pi_degree=0,
                           label="truncated polynomial line")


def matrix_2x2():
    names = ["E11", "E12", "E21", "E22"]
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    m = {}
    for (a, b), i in pos.items():
        for (c, e), j in pos.items():
            if b == c:
                m[(i, j)] = {pos[(a, e)]: 1}
    return AlgebraInstance(names, [0] * 4, [0] * 4, {"m": m},
                           label="2x2 matrices")


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
                           pi_degree=0, label="rank-4 Heisenberg")


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
                           pi_degree=1, label="odd symplectic pair")


def odd_symplectic_p2():
    names, m, pi, _ = _odd_pair_tables()
    return AlgebraInstance(names, [0, 0, 0, -1, -1, -1],
                           [0, 0, 0, 1, 1, 1], {"m": m, "pi": pi},
                           pi_degree=1, label="odd symplectic pair")


def odd_symplectic_bd0():
    """The same algebra with the odd coordinate in degree +1, the
    operator scaled by hbar as a degree -1 differential, and the
    bracket in degree -1."""
    names, m, pi, d = _odd_pair_tables(HBAR)
    degrees = [0, 0, 0, 1, 1, 1]
    parities = [0, 0, 0, 1, 1, 1]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "d": d},
                           ring="hbar", pi_degree=-1,
                           label="hbar quantization of the odd pair")


def odd_symplectic_bd0u():
    names, m, pi, d = _odd_pair_tables(Scalar.variable("u"))
    degrees = [0, 0, 0, -1, -1, -1]
    parities = [0, 0, 0, 1, 1, 1]
    return AlgebraInstance(names, degrees, parities,
                           {"m": m, "pi": pi, "d": d},
                           ring="u", ring_degree=-2, pi_degree=1,
                           label="u-family quantization of the odd pair")


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
                           pi_degree=1, pi_parity=0, delta_parity=0,
                           label="exterior pair with cross derivative")


def sl2_lie():
    names = ["e", "h", "f"]
    pi = {(0, 2): {1: 1}, (2, 0): {1: -1},
          (1, 0): {0: 2}, (0, 1): {0: -2},
          (1, 2): {2: -2}, (2, 1): {2: 2}}
    return AlgebraInstance(names, [0] * 3, [0] * 3, {"pi": pi},
                           pi_degree=0, label="sl2")


# -- configuration rings ---------------------------------------------------

class ConfRing:
    def __init__(self, n, d, dims, basis, total):
        self.n = n
        self.d = d
        self.dims = dims          # form degree k -> dimension
        self.basis = basis        # k -> list of pair-tuples
        self.total = total

    def poincare(self):
        terms = []
        for k in sorted(self.dims):
            c = self.dims[k]
            if c == 0:
                continue
            deg = k * (self.d - 1)
            if deg == 0:
                terms.append(str(c))
            elif deg == 1:
                terms.append("t" if c == 1 else "%dt" % c)
            else:
                terms.append("t^%d" % deg if c == 1
                             else "%dt^%d" % (c, deg))
        return " + ".join(terms) if terms else "0"

    def to_dict(self):
        return {"n": self.n, "d": self.d,
                "dims": {str(k * (self.d - 1)): v
                         for k, v in self.dims.items() if v},
                "total": self.total,
                "poincare": self.poincare()}


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


def conf_ring(n, d, reverse_order=False) -> ConfRing:
    """Cohomology of n ordered points in R^d: the free graded ring on
    the classes of pairwise direction maps, reduced degreewise by the
    three-term relations (and squares, which vanish in every case here).
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if n > 6:
        raise ValueError("n > 6 is past desk scale; refusing")
    pairs = [(i, j) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    # three-term rule in sorted pair order:
    # w_ij w_jk = w_ij w_ik + w_ik w_jk  for i < j < k
    triples = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        triples.append((((i, j), (j, k)), (((i, j), (i, k)), 1),
                        (((i, k), (j, k)), 1)))
    dims = {0: 1}
    basis = {0: [()]}
    total = 1
    for k in range(1, len(pairs) + 1):
        monos = [tuple(sorted(c))
                 for c in itertools.combinations(pairs, k)]
        if reverse_order:
            monos = monos[::-1]
        pos = {m: i for i, m in enumerate(monos)}
        rows = []
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
                    rows.append(row)
        # Gaussian elimination over Q to find the rank of the relations
        pivots = {}
        for row in rows:
            row = {c: Fraction(v) for c, v in row.items()}
            while row:
                lead_col = min(row)
                if lead_col in pivots:
                    prow = pivots[lead_col]
                    factor = row[lead_col] / prow[lead_col]
                    for c, v in prow.items():
                        row[c] = row.get(c, Fraction(0)) - factor * v
                    row = {c: v for c, v in row.items() if v}
                else:
                    pivots[lead_col] = row
                    break
        free = [m for m in monos if pos[m] not in pivots]
        dims[k] = len(free)
        basis[k] = free
        total += len(free)
    return ConfRing(n, d, dims, basis, total)


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
    words for n = 3."""
    if n > 3:
        raise ValueError("bridge implemented for n <= 3")
    if n == 2:
        ring = conf_ring(2, d)
        conf_degrees = sorted(k * (d - 1) for k, v in ring.dims.items()
                              if v)
        swap = (-1) ** d
        return {"n": 2, "d": d,
                "conf_dims": ring.total,
                "conf_degrees": conf_degrees,
                "operad_degrees": [0, d - 1],
                "swap_sign_conf": swap,
                "swap_sign_operad": int(_sign(d)),
                "match": (ring.total == 2
                          and conf_degrees == [0, d - 1]
                          and swap == int(_sign(d)))}
    ring = conf_ring(3, d)
    rank = span_rank(_free_p3_words(d))
    return {"n": 3, "d": d,
            "conf_dims": ring.total,
            "operad_rank": rank,
            "match": ring.total == rank == 6}

