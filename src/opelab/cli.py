"""Command-line surface: read JSON descriptions or named presets,
dispatch to the computation modules, and print deterministic reports.

Exit codes: 0 clean, 1 a computation reported a mathematical failure
(the witness is in the JSON), 2 bad input (usage, malformed JSON with a
byte offset, or a schema violation with a JSON-pointer path).
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import presets
from .brst import BRSTDatum
from .envelope import VertexAlgebra, infinite_block_cause
from .equivariant import (MixedComplex, cartan_candidates, cartan_model,
                          koszul_t, localize_check, read_map)
from .operads import AlgebraInstance, check_relations, conf_ring, \
    homology_p_d_bridge
from .scalars import Scalar, format_scalar
from .schemas import (SchemaViolation, escape, name_index, nested,
                      scalar_at, validate)
from .vla import (VertexLieData, check_jacobi, check_sesquilinearity,
                  check_skew_symmetry)


class InputError(Exception):
    pass


def _nonneg(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % v)
    return v


def _positive(text):
    v = _nonneg(text)
    if v == 0:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _level(text):
    if text is None:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError("level %r has a zero denominator" % text)
    except ValueError:
        pass
    if not text.isidentifier():
        raise InputError("level must be a number or a variable name, "
                         "got %r" % text)
    return Scalar.variable(text)


class _RepeatedKey(dict):
    """A parsed JSON object that repeats ``key``.  Only the last value
    would be kept (RFC 8259 leaves the choice open), so a file holding
    one is refused."""
    __slots__ = ("key",)


class _FloatLiteral(str):
    """The text of a JSON number written with a fraction or an exponent.
    Every number of the input formats is an integer, but the schemas'
    "integer" type admits 2.0 and 1e300, so a file holding one is
    refused."""


def _load_json(path):
    target = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            target = fh.read()
    else:
        ref = presets.fixture_path(path)
        if ref is not None:
            target = ref.read_bytes()
    if target is None:
        raise InputError("no such file or packaged fixture: %s" % path)
    marked = []

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    break
                seen.add(key)
            obj = _RepeatedKey(obj)
            obj.key = key
            marked.append(obj)
        return obj

    def float_hook(text):
        # called for float literals only, so integer-only files pay nothing
        marked.append(text)
        return _FloatLiteral(text)
    try:
        data = json.loads(target, object_pairs_hook=pairs_hook,
                          parse_float=float_hook)
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s at byte %d: %s"
                         % (path, e.pos, e.msg))
    except RecursionError:
        raise InputError("JSON nested too deeply in %s" % path)
    except ValueError as e:
        # an integer literal past Python's digit limit, or bytes that are
        # not UTF-8
        raise InputError("unreadable JSON in %s: %s" % (path, e))
    if marked:
        pointer, node = _first_marked(data, "")
        if isinstance(node, _RepeatedKey):
            raise InputError("repeated key %r in the object at %s of %s"
                             % (node.key, pointer or "/", path))
        raise InputError("number %s at %s of %s is not an integer literal"
                         % (node, pointer or "/", path))
    return data


def _first_marked(node, pointer):
    """(JSON pointer, node) of the first object that repeats a key, or
    of the first float literal, in document order, at or under ``node``;
    None if there is none."""
    if isinstance(node, (_RepeatedKey, _FloatLiteral)):
        return pointer, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return None
    for k, child in items:
        hit = _first_marked(child, "%s/%s" % (pointer, escape(str(k))))
        if hit is not None:
            return hit
    return None


def _pick(args, table, what):
    """(table entry, name) for --preset, or (None, path) for --input."""
    if args.preset is not None:
        if args.preset not in table:
            raise InputError("unknown %s preset %r (try the presets verb)"
                             % (what, args.preset))
        return table[args.preset], args.preset
    if args.input is None:
        raise InputError("%s needs --preset or --input" % args.verb)
    return None, args.input


def _preset_level(args, entry, name):
    """--level, or the stock level of the preset ``entry`` when none is
    given.  --level is refused where it would be ignored: with --input,
    whose file carries its own level, and on a preset with no level."""
    if args.level is None:
        return None if entry is None else entry["level"]
    if entry is None:
        raise InputError("--level is refused with --input: %s carries its "
                         "own level" % name)
    if entry["level"] is None:
        raise InputError("--level is refused: preset %r has no level"
                         % name)
    return args.level


def _vla_source(args):
    entry, name = _pick(args, presets.VLA_PRESETS, "vla")
    level = _preset_level(args, entry, name)
    if entry is not None:
        return entry["build"](_level(level)), name, level
    data = validate(_load_json(args.input), "vla.v1")
    return VertexLieData.from_dict(data), name, None


def _mixed_source(args):
    entry, name = _pick(args, presets.MIXED_PRESETS, "mixed-complex")
    if entry is not None:
        return entry["build"](), name
    data = validate(_load_json(args.input), "mixed.v1")
    return MixedComplex.from_dict(data), name


def _frac_key(w):
    w = Fraction(w)
    return str(w.numerator) if w.denominator == 1 else str(w)


# -- verb handlers ---------------------------------------------------------

def do_vla_check(args):
    L, name, _ = _vla_source(args)
    checks = {
        "sesquilinearity": check_sesquilinearity(L),
        "skew_symmetry": check_skew_symmetry(L),
        "commutator": check_jacobi(L, cutoff=args.cutoff),
    }
    ok = all(bool(r) for r in checks.values())
    report = {"format": "vla.v1", "verb": "vla-check", "source": name,
              "ok": ok,
              "checks": {k: {"ok": bool(r),
                             "violations": [v["message"]
                                            for v in r.violations[:5]]}
                         for k, r in checks.items()}}
    return (0 if ok else 1), report


def do_ope(args):
    L, name, level = _vla_source(args)
    names = L.names()
    a = args.a or names[0]
    b = args.b or names[0]
    for g in (a, b):
        if g not in L.index:
            raise InputError("no generator %r in %s" % (g, name))
    V = VertexAlgebra(L)
    poles = V.singular_ope(V.gen_state(a), V.gen_state(b))
    report = {"format": "voa.v1", "verb": "ope", "source": name,
              "a": a, "b": b,
              "level": None if level is None else str(level),
              "poles": {str(n + 1): V.format_state(s)
                        for n, s in sorted(poles.items())}}
    return 0, report


# Largest number of basis monomials that ``envelope-dims`` and ``brst``
# may enumerate, counted before any is built (``VertexAlgebra.pbw_count``,
# once per charge of a BRST charge window).  On a 2-core x86 container
# the Heisenberg envelope through weight 30 (28629 monomials) takes 1.4 s,
# the abelian BRST preset at cutoff 14 (29816) takes 3.3 s with
# --cohomology and 0.2 s without, and the Wakimoto preset at its largest
# cutoff 3 walks 13 charges of 2072 monomials.
MAX_ENVELOPE_STATES = 3 * 10 ** 4


def _check_envelope_size(V, cutoff, charges=1):
    count = V.pbw_count(cutoff, MAX_ENVELOPE_STATES // charges)
    if count * charges > MAX_ENVELOPE_STATES:
        fix = ("lower --cutoff" if charges == 1 else
               "narrow the charge window (%d charges) or lower --cutoff"
               % charges)
        raise InputError("the basis through weight %s is too large: more "
                         "than %d monomials to enumerate; %s"
                         % (cutoff, MAX_ENVELOPE_STATES, fix))


# Largest number of weight-0 modes that one monomial of a charge block
# may need.  Weight-0 even modes add no weight, so only the charge bounds
# how many a monomial holds: about |charge| / c, with c the smallest
# charge of a weight-0 even generator, and each monomial is written out
# in full.  On a 2-core x86 container the betagamma block of charge -100
# takes 1.0 s through weight 12 and 3.6 s through weight 16.
MAX_ZERO_MODES = 100


def _check_charge(L, charge):
    zero = [abs(g.charge) for g in L.gens
            if g.weight == 0 and g.parity == 0 and g.charge]
    if not zero:
        return
    c = min(zero)
    if abs(charge) > MAX_ZERO_MODES * c:
        raise InputError("--charge %d is too large: |charge| may be at "
                         "most %d, %d times the smallest weight-0 charge "
                         "%d, or one monomial holds more than %d weight-0 "
                         "modes" % (charge, MAX_ZERO_MODES * c,
                                    MAX_ZERO_MODES, c, MAX_ZERO_MODES))


def do_envelope_dims(args):
    L, name, level = _vla_source(args)
    cause = infinite_block_cause(L.gens, args.charge is not None)
    if cause is not None:
        raise InputError(cause[1] if args.charge is not None else
                         cause[1] + "; pass --charge")
    if args.charge is not None:
        _check_charge(L, args.charge)
    V = VertexAlgebra(L)
    _check_envelope_size(V, args.cutoff)
    dims = V.graded_dimensions(args.cutoff, args.charge)
    report = {"format": "voa.v1", "verb": "envelope-dims", "source": name,
              "level": None if level is None else str(level),
              "charge": args.charge,
              "dims": {_frac_key(w): n for w, n in sorted(dims.items())}}
    return 0, report


def do_brst(args):
    entry, name = _pick(args, presets.BRST_PRESETS, "brst")
    level = _preset_level(args, entry, name)
    if entry is not None:
        D = entry["build"](_level(level), args.cutoff)
    else:
        data = validate(_load_json(args.input), "brst.v1")
        D = BRSTDatum.from_dict(data)
    if args.cutoff > D.cutoff:
        raise InputError("--cutoff %d is beyond the envelope cutoff of %s: "
                         "the largest allowed --cutoff is %d"
                         % (args.cutoff, name, D.cutoff))
    _check_envelope_size(D.V, args.cutoff, len(D.charges()))
    bad = D.first_d_squared_violation(args.cutoff)
    report = {"format": "brst.v1", "verb": "brst", "source": name,
              "level": None if level is None else str(level),
              "weight_cutoff": args.cutoff,
              "d_squared_zero": bad is None}
    if bad is not None:
        report["witness"] = {"state": bad["witness"],
                             "message": bad["message"]}
        return 1, report
    if args.cohomology:
        dims = D.cohomology_dims(args.cutoff)
        report["cohomology_dims"] = {
            "%s,%s" % k: n for k, n in sorted(dims.items())}
    return 0, report


def _class_entries(classes):
    return [{"degree": c.degree,
             "annihilator": None if c.annihilator is None
             else format_scalar(c.annihilator)} for c in classes]


def _summaries(entries, var):
    out = []
    for e in entries:
        ann = e["annihilator"]
        if ann is None:
            body = "Q[%s]" % var
        elif ann == var:
            body = "Q"
        else:
            body = "Q[%s]/(%s)" % (var, ann)
        out.append("%s in degree %d" % (body, e["degree"]))
    return out


def _add_cohomology(report, U):
    """The classes of H(U) and their summaries for one torus factor; for
    several, the module invariants of each specialization."""
    if U.nfactors == 1:
        entries = _class_entries(U.cohomology())
        report["classes"] = entries
        report["cohomology"] = _summaries(entries, U.labels[0])
    else:
        inv = U.cohomology()
        report["invariants"] = {
            "%s at %d" % k: v for k, v in sorted(inv.items())}


def do_koszul(args):
    N, name = _mixed_source(args)
    report = {"format": "mixed.v1", "verb": "koszul", "source": name,
              "factors": N.nfactors}
    _add_cohomology(report, koszul_t(N))
    return 0, report


# Size bounds for a cartan model of m coordinates, n torus factors and
# cutoff D, checked before it is built.  Every candidate pair
# (alpha, beta) may become a form, and each form costs a share of a
# Smith form: five coordinates at cutoff 12 test about 85k candidates
# and keep 3069 forms, which take a few seconds to build and to take
# cohomology of.  Each candidate is also a vector of m exponents tested
# against n weights, and the n operators are checked pairwise, so the
# candidates times n (m + n) are bounded too: at cutoff 1, 4000
# coordinates (8001 candidates) took 5 s, and the time grows as m^2.
MAX_CARTAN_CANDIDATES = 10 ** 5
MAX_CARTAN_ENTRIES = 10 ** 6


def _parse_weights(text):
    out = []
    for group in text.split(";"):
        parts = [p.strip() for p in group.split(",") if p.strip()]
        if not parts:
            raise InputError("empty weight group in %r" % text)
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise InputError("weights must be integers: %r" % text)
        if out and len(vals) != len(out[0]):
            raise InputError("all coordinates need one weight per factor: "
                             "%r" % text)
        out.append(tuple(vals))
    return [w[0] if len(w) == 1 else w for w in out]


def do_cartan(args):
    if args.input is not None:
        data = validate(_load_json(args.input), "cartan.v1")
        weights, cutoff, name = data["weights"], data["cutoff"], args.input
        widths = [len(w) if isinstance(w, list) else 1 for w in weights]
        for k, width in enumerate(widths):
            if width != widths[0]:
                raise SchemaViolation("cartan.v1", "/weights/%d" % k,
                                      "all coordinates need one weight per "
                                      "factor")
        weights = [tuple(w) if isinstance(w, list) else w for w in weights]
    elif args.preset is not None:
        e, name = _pick(args, presets.CARTAN_PRESETS, "cartan")
        weights = [tuple(w) if isinstance(w, list) else w
                   for w in e["weights"]]
        cutoff = e["cutoff"]
    else:
        if args.weights is None:
            raise InputError("cartan needs --preset, --input, or --weights")
        weights = _parse_weights(args.weights)
        cutoff, name = 4, "weights=%s" % args.weights
    if args.cutoff is not None:
        cutoff = args.cutoff
    m = len(weights)
    n = len(weights[0]) if isinstance(weights[0], tuple) else 1
    count = cartan_candidates(m, cutoff, MAX_CARTAN_CANDIDATES)
    if count > MAX_CARTAN_CANDIDATES or \
            count * n * (m + n) > MAX_CARTAN_ENTRIES:
        raise InputError("a model of m = %d coordinates and n = %d torus "
                         "factors at cutoff %d is too large: it tests more "
                         "than %d candidate forms, or more than %d for the "
                         "candidates times n (m + n)"
                         % (m, n, cutoff, MAX_CARTAN_CANDIDATES,
                            MAX_CARTAN_ENTRIES))
    U = cartan_model(weights, cutoff)
    report = {"format": "cartan.v1", "verb": "cartan", "source": name,
              "truncation": cutoff, "factors": U.nfactors}
    _add_cohomology(report, U)
    return 0, report


def do_localize(args):
    entry, name = _pick(args, presets.LOCALIZE_PRESETS, "localize")
    if entry is not None:
        NZ, NX, iota, invert = entry["build"]()
    else:
        data = validate(_load_json(args.input), "localize")
        # errors inside a part carry its prefix, e.g. /fixed/d/e1
        for name in ("fixed", "total"):
            nested("mixed.v1", data, name, validate, "mixed.v1")
        # the verdict is taken over Q[u]; the total space carries the
        # action, so its factor count is checked first
        for name in ("total", "fixed"):
            count = len(data[name].get("h", []))
            if count != 1:
                raise SchemaViolation(
                    "localize", "/%s/h" % name,
                    "%d torus factors; localize needs exactly one" % count)
        NZ = nested("mixed.v1", data, "fixed", MixedComplex.from_dict)
        NX = nested("mixed.v1", data, "total", MixedComplex.from_dict)
        # from_dict has refused a token declared twice in either part
        fixed = name_index([t.name for t in NZ.tokens], "fixed token",
                           "localize", "/fixed/tokens/%d/name")
        total = name_index([t.name for t in NX.tokens], "total token",
                           "localize", "/total/tokens/%d/name")
        iota = read_map(data.get("map", {}), (fixed, NZ.tokens),
                        (total, NX.tokens), "localize", "/map", "map", 0)
        invert = [scalar_at(f, "localize", "/invert/%d" % k)
                  for k, f in enumerate(data.get("invert", ["u"]))]
        for k, f in enumerate(invert):
            # the complexes' Koszul duals are over Q[u]
            if f.var not in (None, "u"):
                raise SchemaViolation("localize", "/invert/%d" % k,
                                      "a polynomial in %r, not in 'u'"
                                      % f.var)
        name = args.input
    verdict = localize_check(NZ, NX, iota, invert)
    report = {"format": "mixed.v1", "verb": "localize", "source": name,
              **verdict}
    return (0 if verdict["iso_after_localization"] else 1), report


def do_operad_check(args):
    entry, name = _pick(args, presets.ALG_PRESETS, "algebra")
    if entry is not None:
        A = entry["build"]()
        suite = args.suite or entry["suite"]
    else:
        data = validate(_load_json(args.input), "alg.v1")
        A = AlgebraInstance.from_dict(data)
        if args.suite is None:
            raise InputError("--suite is required with --input")
        suite = args.suite
    try:
        rep = check_relations(A, suite)
    except ValueError as e:
        raise InputError(str(e))
    report = {"format": "alg.v1", "verb": "operad-check", "source": name,
              "suite": suite, "passed": rep["passed"],
              "relations": rep["relations"],
              "violations": [
                  {"relation": v["relation"], "args": list(v["args"]),
                   "difference": v["difference"]}
                  for v in rep["violations"]],
              "flags": rep["flags"]}
    return (0 if rep["passed"] else 1), report


def do_conf(args):
    if args.n > 6:
        raise InputError("n > 6 is past desk scale")
    if args.d < 2:
        raise InputError("conf needs d >= 2")
    if args.bridge and args.n not in (2, 3):
        raise InputError("--bridge needs n = 2 or n = 3")
    report = conf_ring(args.n, args.d).to_dict()
    if args.bridge:
        report["bridge"] = homology_p_d_bridge(args.n, args.d)
    return 0, report


def do_presets(args):
    return 0, presets.describe_all()


# -- rendering and entry ---------------------------------------------------

def _table_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(_table_lines(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_table_lines(v, indent))
                lines.append("%s-" % pad)
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def _render(report, fmt):
    if fmt == "table":
        return "\n".join(_table_lines(report))
    return json.dumps(report, sort_keys=True, indent=2)


def _add_source_flags(p, with_level=True):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--preset", help="named stock object")
    g.add_argument("--input", help="JSON file or packaged fixture")
    if with_level:
        p.add_argument("--level", help="level value: a rational or a "
                                       "variable name")
    return g


# one parser per process: parse_args gives each call its own Namespace
@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="opelab",
        description="exact-arithmetic workbench: vertex Lie brackets, "
                    "OPE tables, BRST reduction, equivariant "
                    "localization, operad suites")
    p.add_argument("--output", choices=("json", "table"), default="json")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("vla-check", help="run the bracket axiom checks")
    _add_source_flags(q)
    q.add_argument("--cutoff", type=_nonneg, default=6)
    q.set_defaults(func=do_vla_check)

    q = sub.add_parser("ope", help="singular products of two generators")
    _add_source_flags(q)
    q.add_argument("--a")
    q.add_argument("--b")
    q.set_defaults(func=do_ope)

    q = sub.add_parser("envelope-dims",
                       help="graded dimensions of the envelope")
    _add_source_flags(q)
    q.add_argument("--cutoff", type=_nonneg, default=4)
    q.add_argument("--charge", type=int, default=None)
    q.set_defaults(func=do_envelope_dims)

    q = sub.add_parser("brst", help="square the differential and, when "
                                    "clean, take cohomology")
    _add_source_flags(q)
    q.add_argument("--cutoff", type=_nonneg, default=2,
                   help="check and report through this weight")
    q.add_argument("--cohomology", action="store_true")
    q.set_defaults(func=do_brst)

    q = sub.add_parser("koszul", help="turn a mixed complex into a "
                                      "polynomial-side complex and "
                                      "compute its cohomology")
    _add_source_flags(q, with_level=False)
    q.set_defaults(func=do_koszul)

    q = sub.add_parser("cartan", help="invariant-forms model for a "
                                      "diagonal torus action")
    _add_source_flags(q, with_level=False).add_argument(
        "--weights", help="';' separates coordinate lines, ',' separates "
                          "torus components: '1;-1' or '1,0;0,1'")
    q.add_argument("--cutoff", type=_positive, default=None)
    q.set_defaults(func=do_cartan)

    q = sub.add_parser("localize", help="fixed-locus comparison after "
                                        "inverting the listed classes")
    _add_source_flags(q, with_level=False)
    q.set_defaults(func=do_localize)

    q = sub.add_parser("operad-check", help="evaluate a relation suite "
                                            "on a finite algebra")
    _add_source_flags(q, with_level=False)
    q.add_argument("--suite", help="e.g. P_2, BD_1, BV, Comm")
    q.set_defaults(func=do_operad_check)

    q = sub.add_parser("conf", help="configuration-space cohomology ring")
    q.add_argument("--n", type=_positive, required=True)
    q.add_argument("--d", type=_positive, required=True)
    q.add_argument("--bridge", action="store_true",
                   help="compare against the operadic arity count")
    q.set_defaults(func=do_conf)

    q = sub.add_parser("presets", help="list every named object")
    q.set_defaults(func=do_presets)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except (InputError, SchemaViolation) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        # a computation module refused: report the witness
        code, report = 1, {"ok": False, "error": str(e)}
    try:
        print(_render(report, args.output))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: the report has nowhere to go,
        # and the interpreter's exit flush must not raise again
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
