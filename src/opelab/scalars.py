"""Exact scalars: rationals and univariate polynomials over Q.

Every coefficient in the workbench is a ``Scalar``: either a rational number
or a polynomial in a single named variable with rational coefficients.
Scalars are immutable and hashable.  Constants are always stored without a
variable tag, so ``Scalar`` equality never depends on which ring an
expression happened to be computed in; mixing two *different* variables is
an error rather than a silent coercion.

Coefficient tuples are little-endian (index = exponent) with no trailing
zeros.  A coefficient is in normal form: an ``int`` when it is an integer
and a ``Fraction`` (with denominator above 1) otherwise, so that most
arithmetic runs on Python ints.  Every place that makes a coefficient
normalizes it, and every true division goes through ``quo``, since
``int / int`` is a float.  Equality and hashing are unaffected, because
``hash(n) == hash(Fraction(n))``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _norm(c):
    """A coefficient in normal form: int when integral, else Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def quo(a, b):
    """The exact quotient a / b of two coefficients, in normal form."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return _norm(a / b)


class Scalar:
    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        # strip trailing zeros; demote constants to the rational ring
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        coeffs = tuple(map(_norm, coeffs[:n]))
        if len(coeffs) <= 1:
            var = None
        _set_var(self, var)
        _set_coeffs(self, coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(x) -> "Scalar":
        return Scalar(None, (x,))

    @staticmethod
    def variable(name: str) -> "Scalar":
        return _raw(name, (0, 1))

    @staticmethod
    def monomial(c, e: int, var) -> "Scalar":
        """c * var^e for a nonzero rational c; var is unused when e = 0."""
        c = _norm(c)
        if e == 0:
            return _raw(None, (c,))
        return _raw(var, (0,) * e + (c,))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_const(self) -> bool:
        return self.var is None

    def const_value(self):
        if self.var is not None:
            raise ValueError("not a constant: %s" % format_scalar(self))
        return self.coeffs[0] if self.coeffs else 0

    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    # -- ring operations -------------------------------------------------

    def _joinvar(self, other: "Scalar"):
        if self.var is None:
            return other.var
        if other.var is None or other.var == self.var:
            return self.var
        raise ValueError(
            "cannot mix variables %r and %r" % (self.var, other.var))

    def __add__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if self.var is None and other.var is None:
            s = a[0] + b[0]
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            return _raw(None, (s,)) if s else ZERO
        var = self._joinvar(other)
        n = max(len(a), len(b))
        return Scalar(var, tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-sc(other))

    def __rsub__(self, other):
        return sc(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if self.var is None:
            return other._times(a[0])
        if other.var is None:
            return self._times(b[0])
        var = self._joinvar(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Scalar(var, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a Scalar")
        out = ONE
        for _ in range(e):
            out = out * self
        return out

    def scale(self, q) -> "Scalar":
        q = _norm(q)
        if not q:
            return ZERO
        return self._times(q)

    def _times(self, q) -> "Scalar":
        """Multiply by a nonzero coefficient q in normal form; the degree
        is kept."""
        if len(self.coeffs) == 1:
            c = self.coeffs[0] * q
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            return _raw(None, (c,))
        return _raw(self.var, tuple([_norm(c * q) for c in self.coeffs]))

    # -- Euclidean structure --------------------------------------------

    def divmod(self, other: "Scalar"):
        """Polynomial division; the divisor must be nonzero."""
        other = sc(other)
        if other.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        var = self._joinvar(other)
        rem = list(self.coeffs)
        db, lb = other.degree(), other.leading()
        out = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            shift = len(rem) - 1 - db
            q = quo(rem[-1], lb)
            out[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= q * c
        return Scalar(var, tuple(out)), Scalar(var, tuple(rem))

    def div_exact(self, other: "Scalar") -> "Scalar":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact division: %s by %s"
                             % (format_scalar(self), format_scalar(other)))
        return q

    def monic(self) -> "Scalar":
        if self.is_zero():
            return self
        return self.scale(quo(1, self.leading()))

    def evaluate(self, value):
        """Value at a rational point (Horner), in normal form."""
        value = _norm(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return _norm(acc)

    def subs(self, value) -> "Scalar":
        return Scalar.const(self.evaluate(value))


_set_var = Scalar.var.__set__
_set_coeffs = Scalar.coeffs.__set__


def _raw(var, coeffs) -> Scalar:
    """A Scalar from coefficients already in normal form, with a nonzero
    last entry, and var None unless there are two or more."""
    s = object.__new__(Scalar)
    _set_var(s, var)
    _set_coeffs(s, coeffs)
    return s


ZERO = Scalar(None, ())
ONE = Scalar(None, (1,))


def sc(x) -> Scalar:
    """Coerce ints, Fractions, and Scalars to Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar.const(x)


def sc_gcd(a: Scalar, b: Scalar) -> Scalar:
    """Monic polynomial gcd (for constants: 1 unless both are zero)."""
    a, b = sc(a), sc(b)
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def binom(m: int, k: int) -> int:
    """Generalized binomial coefficient C(m, k); m may be negative.

    For m < 0, C(m, k) = (-1)^k C(k - m - 1, k), so it is an integer for
    every integer m."""
    if k < 0 or 0 <= m < k:
        return 0
    if m >= 0:
        return comb(m, k)
    return -comb(k - m - 1, k) if k & 1 else comb(k - m - 1, k)


def falling(p: int, e: int) -> int:
    """Falling factorial p (p-1) ... (p-e+1)."""
    out = 1
    for i in range(e):
        out *= p - i
    return out


# -- text form ----------------------------------------------------------


def format_scalar(s: Scalar) -> str:
    s = sc(s)
    if s.is_zero():
        return "0"
    parts = []
    for e in range(s.degree(), -1, -1):
        c = s.coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            v = s.var if e == 1 else "%s^%d" % (s.var, e)
            if c.numerator == 1:
                body = v
            else:
                body = "%d*%s" % (c.numerator, v)
            if c.denominator != 1:
                body += "/%d" % c.denominator
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


class _Tok:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t


# largest exponent, and largest degree of a power or product, that
# ``parse_scalar`` accepts: the power is taken by repeated multiplication,
# so a file must not be able to ask for c^99999999 or ((1+c)^64)^64
MAX_EXPONENT = 64


def _check_degree(degree):
    """Refuse a power or product of this degree before it is computed."""
    if degree > MAX_EXPONENT:
        raise ValueError("degree %d is above the bound %d"
                         % (degree, MAX_EXPONENT))


def parse_scalar(text: str) -> Scalar:
    """Inverse of ``format_scalar`` (also accepts e.g. ``1/2*c``)."""
    import re
    toks = re.findall(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\^|[()+*/-]", text)
    if "".join(toks) != "".join(text.split()):
        raise ValueError("cannot parse scalar: %r" % text)
    tk = _Tok(toks)
    val = _parse_sum(tk)
    if tk.peek() is not None:
        raise ValueError("trailing input in scalar: %r" % text)
    return val


def _parse_sum(tk):
    out = _parse_product(tk)
    while tk.peek() in ("+", "-"):
        op = tk.take()
        rhs = _parse_product(tk)
        out = out + rhs if op == "+" else out - rhs
    return out


def _parse_product(tk):
    out = _parse_atom(tk)
    while tk.peek() in ("*", "/"):
        op = tk.take()
        rhs = _parse_atom(tk)
        if op == "*":
            _check_degree(out.degree() + rhs.degree())
            out = out * rhs
        else:
            if not rhs.is_const() or rhs.is_zero():
                raise ValueError("can only divide by a nonzero constant")
            out = out.scale(quo(1, rhs.const_value()))
    return out


def _parse_atom(tk):
    t = tk.take()
    if t is None:
        raise ValueError("unexpected end of scalar expression")
    if t == "-":
        return -_parse_atom(tk)
    if t == "+":
        return _parse_atom(tk)
    if t == "(":
        inner = _parse_sum(tk)
        if tk.take() != ")":
            raise ValueError("unbalanced parenthesis in scalar")
        base = inner
    elif t.isdigit():
        base = Scalar.const(int(t))
    elif t[0].isalpha() or t[0] == "_":
        base = Scalar.variable(t)
    else:
        raise ValueError("unexpected token %r in scalar" % t)
    if tk.peek() == "^":
        tk.take()
        e = tk.take()
        if e is None or not e.isdigit():
            raise ValueError("exponent must be a nonnegative integer")
        if int(e) > MAX_EXPONENT:
            raise ValueError("exponent %s is above the bound %d"
                             % (e, MAX_EXPONENT))
        _check_degree(base.degree() * int(e))
        base = base ** int(e)
    return base
