from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from opelab.scalars import (Scalar, ZERO, ONE, sc, sc_gcd, binom, falling,
                            format_scalar, parse_scalar, MAX_EXPONENT)


def test_normalization():
    assert Scalar("t", (1, 0, 0)).var is None
    assert Scalar("t", (1, 0, 0)) == Scalar.const(1)
    assert Scalar("t", ()).is_zero()
    assert ZERO.is_zero() and not ONE.is_zero()
    assert bool(ONE) and not bool(ZERO)


def test_constants_forget_their_ring():
    t = Scalar.variable("t")
    assert (t - t) == ZERO
    assert (t * ZERO) == ZERO
    # a polynomial collapsing to a constant compares equal to the constant
    assert (t + 1 - t) == ONE


def test_arithmetic():
    t = Scalar.variable("t")
    p = (t + 1) * (t - 1)
    assert p == t * t - 1
    assert p.degree() == 2
    assert (-p) + p == ZERO
    assert (2 * t).coeffs == (Fraction(0), Fraction(2))
    assert (t ** 3).degree() == 3
    assert p.evaluate(3) == Fraction(8)
    assert p.subs(Fraction(1, 2)) == Scalar.const(Fraction(-3, 4))


def test_variable_mixing_rejected():
    t, u = Scalar.variable("t"), Scalar.variable("u")
    with pytest.raises(ValueError):
        _ = t + u
    with pytest.raises(ValueError):
        _ = t * u


def test_divmod_and_gcd():
    t = Scalar.variable("t")
    a = t ** 3 - 2 * t + 1
    b = t - 1
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero()  # t=1 is a root
    assert a.div_exact(b) == q
    with pytest.raises(ValueError):
        (t ** 2 + 1).div_exact(t)
    g = sc_gcd(t ** 2 - 1, t ** 2 - 2 * t + 1)
    assert g == t - 1
    assert sc_gcd(sc(4), sc(6)) == ONE  # over Q every nonzero constant is a unit
    assert sc_gcd(ZERO, t ** 2).leading() == 1


def test_binomials():
    assert binom(5, 2) == 10
    assert binom(-1, 3) == -1
    assert binom(-2, 3) == -4
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 1
    assert falling(-1, 2) == 2
    assert falling(4, 2) == 12
    assert falling(7, 0) == 1


def test_binom_matches_the_fraction_product():
    # the rational product formula binom used to evaluate
    for m in range(-8, 9):
        for k in range(-1, 9):
            want = Fraction(0) if k < 0 else prod(
                (Fraction(m - i, i + 1) for i in range(k)), start=Fraction(1))
            got = binom(m, k)
            assert type(got) is int and got == want, (m, k)


# -- the arithmetic against coefficient lists ----------------------------


def _ref(coeffs):
    """Reference normal form: Fractions with no trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


rationals = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6,
                                   max_denominator=6))
# coefficient lists of constants (length <= 1) and of Q[x] polynomials,
# with zeros and trailing zeros among them
coefficient_lists = st.one_of(st.lists(rationals, max_size=1),
                              st.lists(rationals, max_size=4),
                              st.lists(st.sampled_from([0, 1, -1]),
                                       max_size=3))


def _agrees(s, ref):
    assert s.coeffs == tuple(ref)
    assert s.var == ("x" if len(ref) > 1 else None)
    assert all(type(c) is Fraction for c in s.coeffs)
    # equal values hash equal, however they were computed
    fresh = Scalar("x", tuple(ref))
    assert s == fresh and hash(s) == hash(fresh)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, coefficient_lists, rationals)
def test_arithmetic_matches_coefficient_lists(a, b, q):
    A, B = Scalar("x", tuple(a)), Scalar("x", tuple(b))
    ra, rb = _ref(a), _ref(b)
    _agrees(A, ra)
    _agrees(A + B, _ref_add(ra, rb))
    _agrees(A - B, _ref_add(ra, [-c for c in rb]))
    _agrees(-A, [-c for c in ra])
    _agrees(A * B, _ref_mul(ra, rb))
    _agrees(A.scale(q), _ref([c * q for c in ra]))
    _agrees(A + q, _ref_add(ra, _ref([q])))
    _agrees(q * A, _ref_mul(_ref([q]), ra))
    _agrees(q - A, _ref_add(_ref([q]), [-c for c in ra]))
    assert hash(A + B) == hash(B + A) and hash(A * B) == hash(B * A)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["u", "t", "hbar", "c"]),
       st.lists(rationals, max_size=6))
def test_parse_inverts_format(var, coeffs):
    s = Scalar(var, tuple(coeffs))
    assert parse_scalar(format_scalar(s)) == s


def test_exponent_bound():
    with pytest.raises(ValueError, match="bound"):
        parse_scalar("c^%d" % (MAX_EXPONENT + 1))


def test_format():
    t = Scalar.variable("t")
    assert format_scalar(2 * t ** 3 - t + ONE.scale(Fraction(1, 2))) \
        == "2*t^3 - t + 1/2"
    assert format_scalar(ZERO) == "0"
    assert format_scalar(-t) == "-t"
    c = Scalar.variable("c")
    assert format_scalar(c.scale(Fraction(1, 2))) == "c/2"
    assert format_scalar(c.scale(Fraction(3, 2))) == "3*c/2"


@pytest.mark.parametrize("text", [
    "2*t^3 - t + 1/2", "0", "-t", "c/2", "3*c/2", "t^2 - 4", "7",
])
def test_parse_roundtrip(text):
    assert format_scalar(parse_scalar(text)) == text


def test_parse_alternate_spellings():
    assert parse_scalar("1/2*c") == parse_scalar("c/2")
    assert parse_scalar("(c/2)") == parse_scalar("c/2")
    assert parse_scalar("2*c + 1") == 2 * Scalar.variable("c") + 1
    assert parse_scalar("-3") == Scalar.const(-3)
    with pytest.raises(ValueError):
        parse_scalar("t + ")
    with pytest.raises(ValueError):
        parse_scalar("1/t")
