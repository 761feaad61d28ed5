"""Seeded job mixes for the three benchmark workloads.

A mix is one pass: a list of jobs plus the input files they read.  Every
job is an argv for ``opelab.cli.main`` with the check its output must
pass.  The seed picks levels, weights, cutoffs, file contents and the
order of the pass; the number of jobs of each kind is fixed, so the cost
of a pass and the job-size clusters that set the median and the tail
stay the same from seed to seed.

Input files are written as JSON by this module, not by opelab, so the
program only ever sees generated argv and generated files.
"""

import functools
import itertools
import random
from fractions import Fraction

import checks

SYMBOLS = ("k", "c", "t", "kappa", "lam", "s")


class Job:
    """One CLI call.  ``check(code, report)`` returns None or a reason.
    A hostile job has no check: it must end with exit 2 and a stderr
    free of tracebacks."""

    __slots__ = ("verb", "argv", "check")

    def __init__(self, argv, check):
        self.verb = argv[0]
        self.argv = list(argv)
        self.check = check

    @property
    def hostile(self):
        return self.check is None


def _job(argv, check, *args):
    return Job(argv, functools.partial(check, *args) if check else None)


def _rational(rng, avoid=()):
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 5))
        if q not in avoid:
            return q


def _level_flag(level):
    """``--level=<value>``: the joined form keeps argparse from reading a
    negative level such as -7/4 as an option."""
    return "--level=%s" % level


# -- vla.v1 tables -----------------------------------------------------------

def _scaled(level, factor):
    """``factor * level`` as a scalar string; level is a Fraction or a
    variable name."""
    if isinstance(level, Fraction):
        return str(level * factor)
    if factor == 1:
        return level
    return "%s*%s" % (factor, level)


def _nonzero(level):
    return not isinstance(level, Fraction) or level != 0


def _vla_file(kind, level, rank=1):
    """(vla.v1 dict, gens for mode counts, {(a, b): pole set})."""
    ring = level if isinstance(level, str) else None
    if kind == "heisenberg":
        names = ["b%d" % i for i in range(1, rank + 1)]
        gens = [{"name": n, "weight": 1} for n in names]
        brackets = [{"a": n, "b": n, "n": 1, "value": [],
                     "central_coeff": _scaled(level, 1)} for n in names]
        modes = [(1, 0, 0)] * rank
        poles = {(a, b): ({2} if a == b and _nonzero(level) else set())
                 for a in names for b in names}
    elif kind == "virasoro":
        gens = [{"name": "l", "weight": 2}]
        half = (level / 2 if isinstance(level, Fraction)
                else "%s/2" % level)
        brackets = [
            {"a": "l", "b": "l", "n": 0,
             "value": [{"gen": "l", "dpow": 1, "coeff": "1"}]},
            {"a": "l", "b": "l", "n": 1,
             "value": [{"gen": "l", "dpow": 0, "coeff": "2"}]},
            {"a": "l", "b": "l", "n": 3, "value": [],
             "central_coeff": str(half)},
        ]
        modes = [(2, 0, 0)]
        poles = {("l", "l"): {1, 2} | ({4} if _nonzero(level) else set())}
    elif kind == "sl2":
        names = ["e", "h", "f"]
        gens = [{"name": n, "weight": 1} for n in names]
        struct = {("e", "h"): ("e", -2), ("h", "e"): ("e", 2),
                  ("h", "f"): ("f", -2), ("f", "h"): ("f", 2),
                  ("e", "f"): ("h", 1), ("f", "e"): ("h", -1)}
        kappa = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
        brackets = []
        for (a, b), (g, c) in sorted(struct.items()):
            brackets.append({"a": a, "b": b, "n": 0,
                             "value": [{"gen": g, "dpow": 0,
                                        "coeff": str(c)}]})
        for (a, b), c in sorted(kappa.items()):
            brackets.append({"a": a, "b": b, "n": 1, "value": [],
                             "central_coeff": _scaled(level, c)})
        modes = [(1, 0, 0)] * 3
        poles = {(a, b): (({1} if (a, b) in struct else set())
                          | ({2} if (a, b) in kappa and _nonzero(level)
                             else set()))
                 for a in names for b in names}
    else:
        raise ValueError(kind)
    data = {"format": "vla.v1", "ring": ring, "central": True,
            "generators": gens, "brackets": brackets}
    return data, modes, poles


def _bad_vla_file(rng):
    """A Virasoro table that names a generator it does not declare."""
    data, _, _ = _vla_file("virasoro", _rational(rng))
    field = rng.choice(("a", "b", "value"))
    if field == "value":
        data["brackets"][0]["value"][0]["gen"] = "x"
    else:
        data["brackets"][1][field] = "x"
    return data


# -- alg.v1 tables -----------------------------------------------------------

def _truncated_line(k, d):
    """Q[x]/x^k with the zero bracket of degree d - 1: passes P_d."""
    names = ["1"] + ["x%d" % i for i in range(1, k)]
    m = {}
    for i, j in itertools.product(range(k), repeat=2):
        if i + j < k:
            m["%s,%s" % (names[i], names[j])] = {names[i + j]: "1"}
    return {"format": "alg.v1",
            "basis": [{"name": n, "degree": 0} for n in names],
            "tables": {"m": m, "pi": {}}, "pi_degree": d - 1}


def _matrix_units(n):
    """n x n matrix units: associative, not commutative."""
    names = ["E%d%d" % (a, b) for a in range(1, n + 1)
             for b in range(1, n + 1)]
    m = {}
    for a, b, c, e in itertools.product(range(1, n + 1), repeat=4):
        if b == c:
            m["E%d%d,E%d%d" % (a, b, c, e)] = {"E%d%d" % (a, e): "1"}
    return {"format": "alg.v1",
            "basis": [{"name": x, "degree": 0} for x in names],
            "tables": {"m": m}}


# -- mixed.v1 complexes ------------------------------------------------------

def _chain(k, keep=None):
    """Cell model of a chain of k - 1 rotating spheres: fixed cells
    x1..xk, intervals e_i with d e_i = x_{i+1} - x_i, sweeps h e_i = f_i.
    ``keep`` lists the fixed points for the localization map."""
    tokens = ([{"name": "x%d" % i, "degree": 0} for i in range(1, k + 1)]
              + [{"name": "e%d" % i, "degree": -1} for i in range(1, k)]
              + [{"name": "f%d" % i, "degree": -2} for i in range(1, k)])
    d = {"e%d" % i: {"x%d" % (i + 1): "1", "x%d" % i: "-1"}
         for i in range(1, k)}
    h = {"e%d" % i: {"f%d" % i: "1"} for i in range(1, k)}
    total = {"format": "mixed.v1", "tokens": tokens, "d": d, "h": [h]}
    if keep is None:
        return total
    fixed = {"format": "mixed.v1",
             "tokens": [{"name": "p%d" % i, "degree": 0} for i in keep],
             "d": {}, "h": [{}]}
    return {"fixed": fixed, "total": total,
            "map": {"p%d" % i: {"x%d" % i: "1"} for i in keep},
            "invert": ["u"]}


# -- Cartan weights ----------------------------------------------------------

# (weight shapes, cutoff, jobs per pass).  The cost of a Cartan model
# depends on its weights far more than on its size: two random weight
# sets with the same number of invariant forms can differ threefold, and
# a 97-form model costs six times a 49-form one.  So each kind of job
# starts from fixed shapes, and the seed moves them within the orbit
# that keeps the invariant forms: it permutes the coordinates and the
# torus factors and rescales each factor by a nonzero integer.  The
# cheap two-coordinate models (17 forms) hold the median, the two-factor
# models on three coordinates (17 forms, four Smith forms each) the
# tail; the one-factor models on four coordinates have 33 forms.
CARTAN_KINDS = (
    ([((1,), (-1,))], 8, 8),
    ([((3,), (-3,), (-1,), (-1,))], 4, 2),
    ([((2,), (-3,), (2,), (3,))], 5, 2),
    ([((-1, 0), (1, -1), (0, 1)), ((1, 0), (0, 1), (-1, -1)),
      ((2, 1), (2, -1), (-4, 0))], 6, 10),
)


def _cartan_weights(rng, shape):
    ws = list(shape)
    rng.shuffle(ws)
    factors = list(range(len(ws[0])))
    rng.shuffle(factors)
    scale = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in factors]
    return [tuple(w[f] * k for f, k in zip(factors, scale)) for w in ws]


def _weights_arg(ws):
    return ";".join(",".join(str(x) for x in w) for w in ws)


# -- the three mixes ---------------------------------------------------------

def chiral_desk(rng):
    jobs, files = [], {}

    def level():
        if rng.random() < 1 / 3:
            return rng.choice(SYMBOLS)
        return _rational(rng)

    # vla-check: presets at seeded levels, and generated tables
    for preset in ("virasoro", "heisenberg", "kacmoody-sl2"):
        jobs.append(_job(["vla-check", "--preset", preset,
                          _level_flag(level())], checks.vla_ok))
    jobs.append(_job(["vla-check", "--preset", "bc"], checks.vla_ok))
    vla_kinds = ("heisenberg", "virasoro", "sl2")
    for i in range(4):
        kind = vla_kinds[i % 3]
        data, _, _ = _vla_file(kind, level(), rng.randint(1, 3))
        name = "vla-check-%d.json" % i
        files[name] = data
        jobs.append(_job(["vla-check", "--input", name,
                          "--cutoff", str(rng.randint(4, 6))],
                         checks.vla_ok))

    # ope: presets and generated tables
    for kind in ("virasoro", "heisenberg", "kacmoody-sl2", "virasoro"):
        lv = level()
        if kind == "heisenberg":
            a = b = "b"
            poles = {2} if _nonzero(lv) else set()
        else:
            _, _, table = _vla_file(
                "sl2" if kind == "kacmoody-sl2" else kind, lv)
            a, b = rng.choice(sorted(table))
            poles = table[(a, b)]
        jobs.append(_job(["ope", "--preset", kind, _level_flag(lv),
                          "--a", a, "--b", b],
                         checks.ope, {str(p) for p in poles}))
    for i in range(4):
        kind = vla_kinds[i % 3]
        data, _, table = _vla_file(kind, level(), rng.randint(1, 3))
        a, b = rng.choice(sorted(table))
        name = "ope-%d.json" % i
        files[name] = data
        jobs.append(_job(["ope", "--input", name, "--a", a, "--b", b],
                         checks.ope, {str(p) for p in table[(a, b)]}))

    # envelope-dims: presets, generated tables, with and without charge
    preset_modes = {"virasoro": ([(2, 0, 0)], (8, 12)),
                    "heisenberg": ([(1, 0, 0)], (8, 12)),
                    "kacmoody-sl2": ([(1, 0, 0)] * 3, (3, 5)),
                    "bc": ([(1, 1, 1), (0, 1, -1)], (3, 6))}
    for preset, (modes, (lo, hi)) in sorted(preset_modes.items()):
        for i in range(2):
            cutoff = rng.randint(lo, hi)
            argv = ["envelope-dims", "--preset", preset,
                    "--cutoff", str(cutoff)]
            charge = None
            if preset == "bc" and i:
                charge = rng.randint(-1, 1)
                argv += ["--charge", str(charge)]
            jobs.append(_job(argv, checks.envelope_dims, modes, cutoff,
                             charge))
    for i in range(4):
        kind = vla_kinds[i % 3]
        data, modes, _ = _vla_file(kind, level(), rng.randint(1, 3))
        cutoff = rng.randint(3, 5) if kind == "sl2" else rng.randint(6, 10)
        name = "envelope-dims-%d.json" % i
        files[name] = data
        jobs.append(_job(["envelope-dims", "--input", name,
                          "--cutoff", str(cutoff)],
                         checks.envelope_dims, modes, cutoff, None))

    # operad-check: every preset on its own suite, one deliberate
    # failure, and generated algebras
    for preset in ("poisson-line", "matrix2", "heisenberg-hbar",
                   "odd-pair-p2", "odd-pair-bv", "odd-pair-bd0",
                   "odd-pair-bd0u", "exterior-bv", "sl2-lie"):
        jobs.append(_job(["operad-check", "--preset", preset],
                         checks.operad, True))
    jobs.append(_job(["operad-check", "--preset", "matrix2", "--suite",
                      "Comm"], checks.operad, False))
    d = rng.randint(0, 3)
    files["alg-0.json"] = _truncated_line(rng.randint(3, 6), d)
    jobs.append(_job(["operad-check", "--input", "alg-0.json", "--suite",
                      "P_%d" % d], checks.operad, True))
    n = rng.randint(2, 3)
    files["alg-1.json"] = _matrix_units(n)
    jobs.append(_job(["operad-check", "--input", "alg-1.json", "--suite",
                      "Ass"], checks.operad, True))
    jobs.append(_job(["operad-check", "--input", "alg-1.json", "--suite",
                      "Comm"], checks.operad, False))

    # conf: n = 4 costs the same at every d and is numerous enough to
    # hold the median; n = 5 runs at every d, so the tail cluster is the
    # same for every seed
    for n, count in ((3, 4), (4, 10)):
        for i in range(count):
            d = rng.randint(2, 5)
            bridge = n == 3 and i < 2
            argv = ["conf", "--n", str(n), "--d", str(d)]
            if bridge:
                argv.append("--bridge")
            jobs.append(_job(argv, checks.conf, n, d, bridge))
    for d in (2, 3, 4, 5):
        jobs.append(_job(["conf", "--n", "5", "--d", str(d)],
                         checks.conf, 5, d, False))

    # hostile inputs that fail fast today
    jobs.append(_job(["ope", "--preset", "virasoro",
                      _level_flag("%d/0" % rng.randint(1, 9))], None))
    files["bad-vla.json"] = _bad_vla_file(rng)
    jobs.append(_job([rng.choice(("vla-check", "ope", "envelope-dims")),
                      "--input", "bad-vla.json"], None))
    jobs.append(_job(["envelope-dims", "--preset", "betagamma",
                      "--cutoff", str(rng.randint(2, 4))], None))
    return jobs, files


def _abelian_brst(level, cutoff, rank=1):
    """brst.v1 for the rank-n abelian datum with Heisenberg matter."""
    matter, _, _ = _vla_file("heisenberg", level, rank)
    names = ["b%d" % i for i in range(1, rank + 1)]
    return {"format": "brst.v1", "basis": names, "structure": [],
            "matter": matter,
            "currents": [{"gen": n, "terms": [
                {"coeff": "1", "factors": [{"gen": n}]}]} for n in names],
            "cutoff": cutoff}


def brst_reduction(rng):
    jobs, files = [], {}

    def brst(preset, cutoff, level, critical, cohomology=False):
        argv = ["brst", "--preset", preset, "--cutoff", str(cutoff)]
        if level is not None:
            argv.append(_level_flag(level))
        if cohomology:
            argv.append("--cohomology")
        ghost = cutoff if preset == "pure-ghost" else None
        jobs.append(_job(argv, checks.brst, critical, cohomology, ghost))

    # Wakimoto: d^2 vanishes only at the critical level -4
    brst("wakimoto", 1, -4, True)
    brst("wakimoto", 1, -4, True, cohomology=True)
    brst("wakimoto", 1, rng.choice(SYMBOLS), False)
    brst("wakimoto", 1, _rational(rng, avoid=(-4,)), False)
    # abelian: critical level 0
    for cutoff in (3, 4, 5):
        brst("abelian", cutoff, 0, True)
        brst("abelian", cutoff, 0, True, cohomology=True)
        brst("abelian", cutoff, rng.choice(SYMBOLS), False)
        brst("abelian", cutoff, _rational(rng, avoid=(0,)), False)
    for cutoff, cohomology in ((3, False), (4, True), (5, True)):
        brst("pure-ghost", cutoff, None, True, cohomology)
    # generated data files
    for i, (level, rank, cutoff) in enumerate((
            (Fraction(0), 1, 3), (_rational(rng, avoid=(0,)), 1, 4),
            (Fraction(0), 2, 3))):
        name = "brst-%d.json" % i
        files[name] = _abelian_brst(level, 4, rank)
        critical = level == 0
        argv = ["brst", "--input", name, "--cutoff", str(cutoff)]
        if critical:
            argv.append("--cohomology")
        jobs.append(_job(argv, checks.brst, critical, critical, None))
    return jobs, files


def equivariant_smith(rng):
    jobs, files = [], {}
    for shapes, cutoff, count in CARTAN_KINDS:
        for i in range(count):
            ws = _cartan_weights(rng, shapes[i % len(shapes)])
            jobs.append(_job(["cartan", "--weights=" + _weights_arg(ws),
                              "--cutoff", str(cutoff)],
                             checks.cartan, len(ws[0]), cutoff))
    for preset, anns in (("regular-lambda", ["u"]),
                         ("sphere-pair", [None] * 2),
                         ("p1-rotation", [None] * 2), ("zero", [])):
        jobs.append(_job(["koszul", "--preset", preset], checks.koszul,
                         anns))
    for preset, iso in (("p1", True), ("p1-broken", False),
                        ("free-circle", True)):
        jobs.append(_job(["localize", "--preset", preset],
                         checks.localize, iso))
    for i in range(3):
        k = rng.randint(2, 5)
        name = "koszul-%d.json" % i
        files[name] = _chain(k)
        jobs.append(_job(["koszul", "--input", name],
                         checks.koszul, [None] * k))
        keep = list(range(1, k + 1))
        if i == 2:
            keep.remove(rng.choice(keep))
        name = "localize-%d.json" % i
        files[name] = _chain(k, keep)
        jobs.append(_job(["localize", "--input", name],
                         checks.localize, len(keep) == k))
    return jobs, files


BUILDERS = {"chiral-desk": chiral_desk, "brst-reduction": brst_reduction,
            "equivariant-smith": equivariant_smith}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed):
    """(jobs in seeded order, {file name: JSON object}) for one pass."""
    rng = random.Random("%s/%d" % (workload, seed))
    jobs, files = BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs, files
