"""BRST oracles and fixtures for the tests.  No verb runs them.

The levels of a ``BRSTDatum`` are read off first products of its
current states: ``kappa_matter`` and ``kappa_ghost``, and d^2 = 0 is
equivalent to their sum ``level_defect`` vanishing.  The library
decides d^2 = 0 from the one state Q_(0)Q instead, so these check it
from the other side.  ``validate_currents`` checks that both families
of currents close on the structure constants.

``bg_gl1_datum`` and ``bg_fundamental_sl2_datum`` are data built from
even free-field pairs that no preset ships: gl_1 along its charge
current, and sl_2 on k copies of its fundamental representation
``SL2_FUND``."""

from opelab.brst import BRSTDatum
from opelab.linalg import vec_add, vec_scale
from opelab.scalars import ONE, ZERO, sc
from opelab.vla import CheckReport, direct_sum, weyl_pair, SL2_STRUCT


def _vacuum_multiple(D, state, what):
    if not state:
        return ZERO
    if set(state) != {()}:
        raise ValueError("%s is not a multiple of the vacuum: %s"
                         % (what, D.V.format_state(state)))
    return state[()]


def kappa_matter(D):
    return {(a, b): _vacuum_multiple(
                D, D.V.nth_product(D.currents[a], 1, D.currents[b]),
                "first product of currents (%s, %s)" % (a, b))
            for a in D.names for b in D.names}


def kappa_ghost(D):
    return {(a, b): _vacuum_multiple(
                D, D.V.nth_product(D.ghost_currents[a], 1,
                                   D.ghost_currents[b]),
                "first product of ghost currents (%s, %s)" % (a, b))
            for a in D.names for b in D.names}


def level_defect(D):
    """kappa_matter + kappa_ghost; zero iff d^2 = 0."""
    km, kg = kappa_matter(D), kappa_ghost(D)
    return {k: km[k] + kg[k] for k in km}


def bracket_terms(D, a, b):
    i, j = D.names.index(a), D.names.index(b)
    return [(D.names[k], c) for k, c in D.struct.get((i, j), [])]


def validate_currents(D) -> CheckReport:
    """(J_a)_(0) J_b = J_[a,b] for the matter currents and the ghost
    currents separately; violations name the offending pair."""
    bad = []
    for which, cur in (("matter", D.currents),
                       ("ghost", D.ghost_currents)):
        for a in D.names:
            for b in D.names:
                got = D.V.nth_product(cur[a], 0, cur[b])
                want = {}
                for cn, c in bracket_terms(D, a, b):
                    want = vec_add(want, vec_scale(cur[cn], c))
                if got != want:
                    bad.append({
                        "which": which, "pair": (a, b),
                        "message": "%s currents fail closure on (%s, %s)"
                        % (which, a, b)})
    return CheckReport(bad)


def bg_gl1_datum(cutoff=3, charge_window=(-6, 6)) -> BRSTDatum:
    """One even weight (1, 0) pair with its charge current :phi phi*:,
    reduced along gl_1.  The current level is -1, so d^2 only vanishes
    through weight 0; the weight-0 tower is still an honest complex."""
    matter = weyl_pair(odd=False)
    words = {"x": [(ONE, [("phi", 0), ("phi_star", 0)])]}
    return BRSTDatum(["x"], {}, matter, words, cutoff, charge_window)


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
                     charge_window, {"e": 2, "h": 0, "f": -2})
