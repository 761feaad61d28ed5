"""Command-line surface: read JSON descriptions or named presets,
dispatch to the computation modules, and print deterministic reports.

Exit codes: 0 clean, 1 a computation reported a mathematical failure
(the witness is in the JSON), 2 bad input (usage, malformed JSON with a
byte offset, or a schema violation with a JSON-pointer path).
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import presets
from .brst import BRSTDatum
from .envelope import build_envelope
from .equivariant import (MixedComplex, cartan_model, koszul_t,
                          localize_check)
from .operads import AlgebraInstance, check_relations, conf_ring, \
    homology_p_d_bridge
from .scalars import Scalar
from .schemas import SchemaViolation, escape, scalar_at, validate
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
    try:
        return json.loads(target)
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s at byte %d: %s"
                         % (path, e.pos, e.msg))


def _pick(args, table, what):
    if args.preset is not None:
        if args.preset not in table:
            raise InputError("unknown %s preset %r (try the presets verb)"
                             % (what, args.preset))
        return table[args.preset], args.preset
    return None, args.input


def _vla_source(args):
    entry, name = _pick(args, presets.VLA_PRESETS, "vla")
    if entry is not None:
        level = args.level if getattr(args, "level", None) is not None \
            else entry["level"]
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
    wsum = L.gens[L.gen(a)].weight + L.gens[L.gen(b)].weight
    cutoff = args.cutoff if args.cutoff is not None else int(wsum) + 1
    V = build_envelope(L, cutoff=cutoff)
    poles = V.singular_ope(V.gen_state(a), V.gen_state(b))
    report = {"format": "voa.v1", "verb": "ope", "source": name,
              "a": a, "b": b,
              "level": None if level is None else str(level),
              "poles": {str(n + 1): V.format_state(s)
                        for n, s in sorted(poles.items())}}
    return 0, report


def do_envelope_dims(args):
    L, name, level = _vla_source(args)
    zero_even = [g.name for g in L.gens if g.weight == 0 and g.parity == 0]
    if args.charge is None and zero_even:
        raise InputError("weight blocks are infinite-dimensional (weight-0 "
                         "even generators: %s); pass --charge"
                         % ", ".join(zero_even))
    V = build_envelope(L, cutoff=args.cutoff)
    dims = V.graded_dimensions(args.charge)
    report = {"format": "voa.v1", "verb": "envelope-dims", "source": name,
              "level": None if level is None else str(level),
              "charge": args.charge,
              "dims": {_frac_key(w): n for w, n in sorted(dims.items())}}
    return 0, report


def do_brst(args):
    entry, name = _pick(args, presets.BRST_PRESETS, "brst")
    if entry is not None:
        level = args.level if args.level is not None else entry["level"]
        D = entry["build"](_level(level), args.cutoff)
    else:
        data = validate(_load_json(args.input), "brst.v1")
        D = BRSTDatum.from_dict(data)
        level = None
    rep, _ = D.check_d_squared(args.cutoff)
    report = {"format": "brst.v1", "verb": "brst", "source": name,
              "level": None if level is None else str(level),
              "weight_cutoff": args.cutoff,
              "d_squared_zero": rep.ok}
    if not rep.ok:
        v = rep.violations[0]
        report["witness"] = {"state": v.get("witness"),
                             "message": v["message"]}
        return 1, report
    if args.cohomology:
        dims = D.cohomology_dims(args.cutoff)
        report["cohomology_dims"] = {
            "%s,%s" % k: n for k, n in sorted(dims.items())}
    return 0, report


def _class_entries(classes):
    out = []
    for c in sorted(classes, key=lambda c: (c.degree, str(c.annihilator))):
        from .scalars import format_scalar
        ann = None if c.annihilator is None \
            else format_scalar(c.annihilator)
        out.append({"degree": c.degree, "annihilator": ann})
    return out


def _summaries(entries, var="u"):
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


def do_koszul(args):
    N, name = _mixed_source(args)
    U = koszul_t(N)
    report = {"format": "mixed.v1", "verb": "koszul", "source": name,
              "factors": N.nfactors}
    if N.nfactors == 1:
        entries = _class_entries(U.cohomology())
        report["classes"] = entries
        report["cohomology"] = _summaries(entries)
    else:
        inv = U.cohomology()
        report["invariants"] = {
            "%s at %d" % k: v for k, v in sorted(inv.items())}
    return 0, report


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
        out.append(vals[0] if len(vals) == 1 else tuple(vals))
    return out


def do_cartan(args):
    if args.input is not None:
        data = validate(_load_json(args.input), "cartan.v1")
        weights, cutoff, name = data["weights"], data["cutoff"], args.input
        weights = [tuple(w) if isinstance(w, list) else w for w in weights]
    elif args.preset is not None:
        if args.preset not in presets.CARTAN_PRESETS:
            raise InputError("unknown cartan preset %r" % args.preset)
        e = presets.CARTAN_PRESETS[args.preset]
        weights = [tuple(w) if isinstance(w, list) else w
                   for w in e["weights"]]
        cutoff, name = e["cutoff"], args.preset
        if args.cutoff is not None:
            cutoff = args.cutoff
    else:
        if args.weights is None:
            raise InputError("cartan needs --preset, --input, or --weights")
        weights = _parse_weights(args.weights)
        cutoff = args.cutoff if args.cutoff is not None else 4
        name = "weights=%s" % args.weights
    U = cartan_model(weights, cutoff)
    report = {"format": "cartan.v1", "verb": "cartan", "source": name,
              "truncation": cutoff, "factors": U.nfactors}
    if U.nfactors == 1:
        entries = _class_entries(U.cohomology())
        report["classes"] = entries
        report["cohomology"] = _summaries(entries, U.labels[0])
    else:
        inv = U.cohomology()
        report["invariants"] = {
            "%s at %d" % k: v for k, v in sorted(inv.items())}
    return 0, report


def do_localize(args):
    if args.preset is not None:
        if args.preset not in presets.LOCALIZE_PRESETS:
            raise InputError("unknown localize preset %r" % args.preset)
        NZ, NX, iota, invert = presets.LOCALIZE_PRESETS[
            args.preset]["build"]()
        name = args.preset
    else:
        data = validate(_load_json(args.input), "localize")

        def part(name, step):
            # errors inside a part carry its prefix, e.g. /fixed/d/e1
            try:
                return step(data[name])
            except SchemaViolation as e:
                raise SchemaViolation("mixed.v1", "/" + name + e.pointer,
                                      e.message)
        for name in ("fixed", "total"):
            part(name, lambda d: validate(d, "mixed.v1"))
        NZ = part("fixed", MixedComplex.from_dict)
        NX = part("total", MixedComplex.from_dict)
        zpos = {t.name: i for i, t in enumerate(NZ.tokens)}
        xpos = {t.name: i for i, t in enumerate(NX.tokens)}
        iota = {}
        for zn, col in data.get("map", {}).items():
            if zn not in zpos:
                raise InputError("map column %r is not a fixed token" % zn)
            out = {}
            for xn, c in col.items():
                if xn not in xpos:
                    raise InputError("map target %r is not a total token"
                                     % xn)
                out[xpos[xn]] = scalar_at(
                    c, "localize", "/map/%s/%s" % (escape(zn), escape(xn)))
            iota[zpos[zn]] = out
        invert = [scalar_at(f, "localize", "/invert/%d" % k)
                  for k, f in enumerate(data.get("invert", ["u"]))]
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
    R = conf_ring(args.n, args.d)
    report = R.to_dict()
    if args.bridge:
        if args.n > 3:
            raise InputError("--bridge needs n <= 3")
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
    q.add_argument("--cutoff", type=_nonneg, default=None)
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
    _add_source_flags(q, with_level=False)
    q.add_argument("--weights",
                   help="';' separates coordinate lines, ',' separates "
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
    if getattr(args, "preset", None) is None and \
            getattr(args, "input", None) is None and \
            args.verb in ("vla-check", "ope", "envelope-dims", "brst",
                          "koszul", "localize", "operad-check"):
        print("error: %s needs --preset or --input" % args.verb,
              file=sys.stderr)
        return 2
    try:
        code, report = args.func(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SchemaViolation as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        # a computation module refused: report the witness
        print(_render({"ok": False, "error": str(e)}, args.output))
        return 1
    print(_render(report, args.output))
    return code


if __name__ == "__main__":
    sys.exit(main())
