"""The reference relation suites for the tests: one hand-written loop per
relation and one branch per suite.  ``opelab.operads.check_relations``
states the same suites through one relation table, one suite table and
one loop, and must give the same report, or raise the same message, on
every instance and suite."""

import itertools
from fractions import Fraction

from opelab.linalg import vec_scale, vec_sub
from opelab.operads import BD0U_FLAG, HBAR, AlgebraInstance
from opelab.scalars import Scalar, ZERO, format_scalar


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
