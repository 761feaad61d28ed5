"""Output checks for benchmark jobs.

Each check takes the exit code and the parsed JSON report of one job and
returns None when the output is right, or a one-line reason when it is
not.  Where a check is cheap it recomputes the expected answer without
calling opelab: closed-form configuration-space counts, mode-partition
counts for envelope dimensions, known critical levels, and the verdicts
the localization presets describe.
"""

from fractions import Fraction
from math import factorial


def _expect_code(code, want):
    if code != want:
        return "exit %r, expected %d" % (code, want)
    return None


# -- configuration spaces ------------------------------------------------

def conf_dims(n, d):
    """Coefficients of prod_{j<n} (1 + j t^(d-1)), keyed by t-degree."""
    coeffs = [1]
    for j in range(1, n):
        nxt = coeffs + [0]
        for k, c in enumerate(coeffs):
            nxt[k + 1] += j * c
        coeffs = nxt
    return {str(k * (d - 1)): c for k, c in enumerate(coeffs) if c}


def conf(n, d, bridge, code, report):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    if report.get("total") != factorial(n):
        return "total %r != %d!" % (report.get("total"), n)
    if report.get("dims") != conf_dims(n, d):
        return "dims %r != %r" % (report.get("dims"), conf_dims(n, d))
    if bridge and report.get("bridge", {}).get("match") is not True:
        return "bridge does not match"
    return None


# -- envelopes -------------------------------------------------------------

def mode_counts(gens, cutoff, charge):
    """dim of each integer weight block 0..cutoff of the PBW envelope.

    ``gens`` lists (weight, parity, charge) per generator.  A generator
    of weight h has one mode of each weight h, h+1, h+2, ...; an odd mode
    is used at most once, an even mode any number of times.  Even
    weight-0 generators are excluded by the callers (their blocks are
    infinite without a charge slice).
    """
    series = {(Fraction(0), 0): 1}
    for weight, parity, q in gens:
        w = Fraction(weight)
        while w <= cutoff:
            nxt = dict(series)
            for (sw, sq), c in series.items():
                uses = 1
                while sw + uses * w <= cutoff:
                    key = (sw + uses * w, sq + uses * q)
                    nxt[key] = nxt.get(key, 0) + c
                    if parity or w == 0:
                        break
                    uses += 1
            series = nxt
            w += 1
    out = {}
    for k in range(int(cutoff) + 1):
        out[str(k)] = sum(c for (sw, sq), c in series.items()
                          if sw == k and (charge is None or sq == charge))
    return out


def envelope_dims(gens, cutoff, charge, code, report):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    want = mode_counts(gens, cutoff, charge)
    if report.get("dims") != want:
        return "dims %r != mode-partition counts %r" % (
            report.get("dims"), want)
    return None


def ope(poles, code, report):
    """``poles`` is the set of pole orders n+1 whose bracket a_(n)b is
    nonzero in the generating table."""
    bad = _expect_code(code, 0)
    if bad:
        return bad
    got = set(report.get("poles", {}))
    if got != set(poles):
        return "poles %s != table poles %s" % (sorted(got), sorted(poles))
    return None


def vla_ok(code, report):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    if report.get("ok") is not True:
        return "bracket axioms reported broken on a valid table"
    return None


def operad(passes, code, report):
    bad = _expect_code(code, 0 if passes else 1)
    if bad:
        return bad
    if report.get("passed") is not passes:
        return "passed=%r, expected %r" % (report.get("passed"), passes)
    if not passes and not report.get("violations"):
        return "failure without a witness"
    return None


# -- BRST ------------------------------------------------------------------

def ghost_dims(cutoff):
    """{"w,g": n} for one odd ghost pair, psi of weight 1 and ghost -1,
    psi* of weight 0 and ghost +1; with Q = 0 this is the cohomology."""
    series = {(0, 0): 1}
    for first, ghost in ((1, -1), (0, 1)):
        for w in range(first, cutoff + 1):
            nxt = dict(series)
            for (sw, sg), c in series.items():
                if sw + w <= cutoff:
                    key = (sw + w, sg + ghost)
                    nxt[key] = nxt.get(key, 0) + c
            series = nxt
    return {"%d,%d" % k: c for k, c in series.items()}


def brst(critical, cohomology, pure_ghost_cutoff, code, report):
    """d^2 = 0 exactly at the known critical level; a clean run with
    --cohomology reports dimensions, a failing one names a witness."""
    bad = _expect_code(code, 0 if critical else 1)
    if bad:
        return bad
    if report.get("d_squared_zero") is not critical:
        return "d_squared_zero=%r at a level where it should be %r" % (
            report.get("d_squared_zero"), critical)
    if not critical:
        if not report.get("witness", {}).get("state"):
            return "failure without a witness"
        return None
    if cohomology and not report.get("cohomology_dims"):
        return "no cohomology dimensions"
    if pure_ghost_cutoff is not None and cohomology:
        want = ghost_dims(pure_ghost_cutoff)
        if report["cohomology_dims"] != want:
            return "pure-ghost cohomology %r != ghost envelope %r" % (
                report["cohomology_dims"], want)
    return None


# -- equivariant -----------------------------------------------------------

def koszul(annihilators, code, report):
    """Annihilators of the cohomology classes, as a multiset: None for a
    free class.  A chain of k - 1 rotating spheres through k fixed points
    has free equivariant cohomology of rank k and no torsion."""
    bad = _expect_code(code, 0)
    if bad:
        return bad
    got = sorted(str(c.get("annihilator"))
                 for c in report.get("classes", []))
    want = sorted(str(a) for a in annihilators)
    if got != want:
        return "class annihilators %r, expected %r" % (got, want)
    return None


def localize(iso, code, report):
    bad = _expect_code(code, 0 if iso else 1)
    if bad:
        return bad
    if report.get("iso_after_localization") is not iso:
        return "verdict %r, expected %r" % (
            report.get("iso_after_localization"), iso)
    return None


def cartan(factors, cutoff, code, report):
    """The constant form 1 is always an invariant cocycle and never a
    boundary, so one factor gives a free class in degree 0; several
    factors give one invariant entry per (factor, specialization)."""
    bad = _expect_code(code, 0)
    if bad:
        return bad
    if (report.get("truncation"), report.get("factors")) != (cutoff, factors):
        return "wrong truncation or factor count"
    if factors == 1:
        unit = {"annihilator": None, "degree": 0}
        if unit not in report.get("classes", []):
            return "no free class in degree 0"
    elif len(report.get("invariants", {})) != 2 * factors:
        return "expected %d invariant entries" % (2 * factors)
    return None
