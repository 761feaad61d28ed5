import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opelab.brst import abelian_datum, bg_gl1_datum, wakimoto_datum
from opelab.cli import MAX_ENVELOPE_STATES, main
from opelab.equivariant import p1_fixed_points, p1_rotation
from opelab.operads import sl2_lie
from opelab.presets import fixture_path
from opelab.scalars import MAX_EXPONENT
from opelab.scalars import Scalar
from opelab.vla import (Gen, VertexLieData, kac_moody_sl2, virasoro,
                        weyl_pair)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_conf_verb(capsys):
    code, rep, _ = run_json(capsys, "conf", "--n", "3", "--d", "2")
    assert code == 0
    assert rep["poincare"] == "1 + 3t + 2t^2"
    assert rep["total"] == 6


def test_conf_bridge_flag(capsys):
    code, rep, _ = run_json(capsys, "conf", "--n", "2", "--d", "3",
                            "--bridge")
    assert code == 0
    assert rep["bridge"]["swap_sign_conf"] == -1
    assert rep["bridge"]["match"]


def test_conf_n6(capsys):
    # the coefficients of prod_{j<6} (1 + j t^(d-1))
    dims = [1, 15, 85, 225, 274, 120]
    poincare = {2: "1 + 15t + 85t^2 + 225t^3 + 274t^4 + 120t^5",
                3: "1 + 15t^2 + 85t^4 + 225t^6 + 274t^8 + 120t^10"}
    for d in (2, 3):
        code, rep, _ = run_json(capsys, "conf", "--n", "6", "--d", str(d))
        assert code == 0
        assert rep["total"] == 720
        assert rep["dims"] == {str(k * (d - 1)): v
                               for k, v in enumerate(dims)}
        assert rep["poincare"] == poincare[d]


def test_conf_refusals(capsys):
    code, _, err = run(capsys, "conf", "--n", "7", "--d", "2")
    assert code == 2 and "desk scale" in err
    code, _, err = run(capsys, "conf", "--n", "3", "--d", "1")
    assert code == 2


def test_ope_virasoro_pole_table(capsys):
    code, rep, _ = run_json(capsys, "ope", "--preset", "virasoro",
                            "--level", "c")
    assert code == 0
    assert rep["poles"] == {"1": "Tl", "2": "2l", "4": "(c/2)Ω"}


def test_ope_sl2_level_one(capsys):
    code, rep, _ = run_json(capsys, "ope", "--preset", "kacmoody-sl2",
                            "--level", "1", "--a", "e", "--b", "f")
    assert code == 0
    assert rep["poles"] == {"1": "h", "2": "Ω"}


def test_ope_betagamma(capsys):
    code, rep, _ = run_json(capsys, "ope", "--preset", "betagamma",
                            "--a", "phi", "--b", "phi_star")
    assert code == 0
    assert rep["poles"] == {"1": "Ω"}


def test_envelope_dims_virasoro(capsys):
    code, rep, _ = run_json(capsys, "envelope-dims", "--preset",
                            "virasoro", "--cutoff", "6")
    assert code == 0
    assert rep["dims"] == {"0": 1, "1": 0, "2": 1, "3": 1, "4": 2,
                           "5": 2, "6": 4}


FREE_FERMION = {"format": "vla.v1", "central": True,
                "generators": [{"name": "psi", "weight": "1/2",
                                "parity": 1}],
                "brackets": [{"a": "psi", "b": "psi", "n": 0, "value": [],
                              "central_coeff": "1"}]}


def fermion_dims(W):
    """Coefficients of prod_{n>=1} (1 + q^(n - 1/2)), indexed by twice
    the weight, through weight W."""
    coeffs = [1] + [0] * (2 * W)
    for part in range(1, 2 * W + 1, 2):
        for i in range(2 * W, part - 1, -1):
            coeffs[i] += coeffs[i - part]
    return coeffs


def test_envelope_dims_half_integer_weight(capsys, tmp_path):
    p = tmp_path / "fermion.json"
    p.write_text(json.dumps(FREE_FERMION))
    code, rep, _ = run_json(capsys, "envelope-dims", "--input", str(p),
                            "--cutoff", "6")
    assert code == 0
    want = fermion_dims(6)
    # every block through the cutoff, the half-integer ones included
    assert sorted(Fraction(w) for w in rep["dims"]) == [
        Fraction(k, 2) for k in range(13)]
    for w, n in rep["dims"].items():
        assert n == want[int(2 * Fraction(w))], w
    assert rep["dims"]["1/2"] == 1 and rep["dims"]["11/2"] == 2


def test_ope_half_integer_weight(capsys, tmp_path):
    p = tmp_path / "fermion.json"
    p.write_text(json.dumps(FREE_FERMION))
    code, rep, _ = run_json(capsys, "ope", "--input", str(p))
    assert code == 0
    assert set(rep["poles"]) == {"1"}


def test_vla_check_stock_preset(capsys):
    code, rep, _ = run_json(capsys, "vla-check", "--preset",
                            "kacmoody-sl2")
    assert code == 0 and rep["ok"]


def test_vla_check_broken_input(capsys, tmp_path):
    bad = {"format": "vla.v1", "central": False,
           "generators": [{"name": "b", "weight": 1}],
           "brackets": [{"a": "b", "b": "b", "n": 0,
                         "value": [{"gen": "b", "coeff": 1}]}]}
    p = tmp_path / "bad-vla.json"
    p.write_text(json.dumps(bad))
    code, rep, _ = run_json(capsys, "vla-check", "--input", str(p))
    assert code == 1
    assert not rep["ok"]
    assert not rep["checks"]["skew_symmetry"]["ok"]
    assert rep["checks"]["skew_symmetry"]["violations"]


# one past the largest exponent a file coefficient may carry
TOO_HIGH = "c^%d" % (MAX_EXPONENT + 1)


def _bad_virasoro(field):
    """A Virasoro table whose bracket names a generator it never
    declares (in a's or b's slot of bracket 1, or in bracket 0's value),
    whose generator weight is not a rational number, whose central
    coefficient has too high a power, that keeps its central
    coefficient while declaring itself not central, that declares l
    again with another weight, or that gives l a negative weight."""
    data = dict(virasoro(2).to_dict(), format="vla.v1")
    if field == "not-central":
        data["central"] = False
    elif field == "duplicate":
        data["generators"].append({"name": "l", "weight": 3})
    elif field == "value":
        data["brackets"][0]["value"][0]["gen"] = "x"
    elif field == "weight":
        data["generators"][0]["weight"] = "1/0"
    elif field == "negative-weight":
        data["generators"][0]["weight"] = -1
    elif field == "central_coeff":
        data["brackets"][2]["central_coeff"] = TOO_HIGH
    else:
        data["brackets"][1][field] = "x"
    return data


def _bad_gl1(field):
    """The beta-gamma gl_1 datum with one bad entry: a structure row or
    a current naming something its tables never declare, a matter
    bracket naming an undeclared generator, a current coefficient
    with too high a power, a basis element declared twice, or a matter
    generator with the name of a ghost, a derivative power written as
    a float, a current term of weight other than 1 (``"dpow-N"``: T^N
    on the first factor of :phi phi_star:), a current term of N + 1
    factors (``"factors-N"``: :phi phi_star^N:), or the current phi,
    whose charge 1 is not the charge 0 of psi_x."""
    data = bg_gl1_datum().to_dict()
    current = data["currents"][0]
    if field == "duplicate":
        data["basis"].append("x")
    elif field == "ghost-name":
        data["matter"]["generators"].append({"name": "psi*_x",
                                             "weight": 0})
    elif field in ("a", "b", "gen"):
        row = {"a": "x", "b": "x", "terms": [{"gen": "x", "coeff": "1"}]}
        if field == "gen":
            row["terms"][0]["gen"] = "zz"
        else:
            row[field] = "zz"
        data["structure"] = [row]
    elif field == "factor":
        current["terms"][0]["factors"][0]["gen"] = "zz"
    elif field == "current":
        current["gen"] = "zz"
    elif field == "matter":
        data["matter"]["brackets"][0]["a"] = "zz"
    elif field == "coeff":
        current["terms"][0]["coeff"] = TOO_HIGH
    elif field == "ghost_charges":
        data["ghost_charges"] = {"zz": 3}
    elif field == "float-dpow":
        current["terms"][0]["factors"][0]["dpow"] = 1.0
    elif field.startswith("dpow-"):
        current["terms"][0]["factors"][0]["dpow"] = int(field[5:])
    elif field.startswith("factors-"):
        current["terms"][0]["factors"] = (
            [{"gen": "phi"}] + [{"gen": "phi_star"}] * int(field[8:]))
    elif field == "charge":
        current["terms"][0]["factors"] = [{"gen": "phi"}]
    return data


def _odd_pair(kind):
    """Odd matter b, c reduced along one abelian x with the current
    x = b.  ``"ghost"``: b of weight 1 and ghost number 1, c of weight 0
    and ghost number -1, with b_(0)c = c_(0)b = 1, so the current has
    ghost number 1.  ``"level"``: b and c of weight 1 and ghost number 0,
    with b_(1)c = t and c_(1)b = -t, so d^2 vanishes while d has entries
    in t."""
    if kind == "ghost":
        weights, ghosts, n, coeffs = (1, 0), (1, -1), 0, ("1", "1")
    else:
        weights, ghosts, n, coeffs = (1, 1), (0, 0), 1, ("t", "-t")
    gens = [{"name": g, "weight": w, "parity": 1, "charge": 0, "ghost": gh}
            for g, w, gh in zip("bc", weights, ghosts)]
    brackets = [{"a": a, "b": b, "n": n, "value": [], "central_coeff": c}
                for (a, b), c in zip(("bc", "cb"), coeffs)]
    return {"format": "brst.v1", "basis": ["x"], "structure": [],
            "matter": {"ring": None if kind == "ghost" else "t",
                       "central": True, "generators": gens,
                       "brackets": brackets},
            "currents": [{"gen": "x", "terms": [
                {"coeff": "1", "factors": [{"gen": "b", "dpow": 0}]}]}],
            "cutoff": 3}


def _bad_mixed(field):
    """The P^1 rotation complex with one bad entry: an h or d entry
    naming an undeclared token, a coefficient that is not a number, or
    the token f declared again in another degree, or a token degree
    written as a float."""
    data = p1_rotation().to_dict()
    if field == "duplicate":
        data["tokens"].append({"name": "f", "degree": 5})
    elif field == "h-row":
        data["h"][0]["e"]["zz"] = "1"
    elif field == "d-column":
        data["d"]["zz"] = {"x": "1"}
    elif field == "coeff":
        data["d"]["e"]["y"] = "1/0"
    elif field == "polynomial":
        data["d"]["e"]["y"] = "u"
    elif field == "h-polynomial":
        data["h"][0]["e"]["f"] = "u"
    elif field in (0.0, 1e300):
        data["tokens"][0]["degree"] = field
    elif field == "huge-power":
        data["d"]["e"]["y"] = "((1+x)^64)^64"
    return data


def _wrong_degree(op):
    """Tokens a, b of degree 0, with an entry from a to b in d or in
    h_1, which raise and lower the degree by one."""
    data = {"format": "mixed.v1", "d": {}, "h": [{}],
            "tokens": [{"name": "a", "degree": 0},
                       {"name": "b", "degree": 0}]}
    if op == "d":
        data["d"] = {"a": {"b": "1"}}
    else:
        data["h"] = [{"a": {"b": "1"}}]
    return data


def _bad_localize(part, field):
    """The P^1 localization file with one bad entry in its fixed or
    total complex or in the map, or with its map or invert key replaced
    by ``field``."""
    data = {"fixed": p1_fixed_points().to_dict(),
            "total": p1_rotation().to_dict(),
            "map": {"p": {"x": "1"}, "q": {"y": "1"}}}
    if part == "map" and field is None:
        data["map"]["q"]["y"] = "1/0"
    elif part in ("map", "invert"):
        data[part] = field
    elif field == "h-row":
        data[part]["h"][0] = {"p": {"zz": "1"}}
    elif field == "two-factors":
        data["fixed"]["h"] = [{}, {}]
        data["total"]["h"] = [{}, {}]
    elif field == "wrong-degree":
        data[part]["d"]["e"]["f"] = "1"
    else:
        data[part] = _bad_mixed(field)
    return data


def _repeated_key(data, at, key, value):
    """The JSON text of ``data`` with ``key: value`` written again at
    the start of the object that the key ``at`` holds (the whole
    document when ``at`` is None): a parser that kept one of the two
    values would read another input than the one written."""
    text = json.dumps(data)
    head = "{" if at is None else '"%s": {' % at
    assert head in text
    return text.replace(head, "%s%s: %s, " % (head, json.dumps(key),
                                             json.dumps(value)), 1)


def _nested(depth):
    """A JSON array nested ``depth`` levels deep."""
    return "[" * depth + "]" * depth


def _deep_brackets(depth):
    """The Virasoro vla.v1 file with ``brackets`` a ``depth``-deep array."""
    text = json.dumps(dict(virasoro(2).to_dict(), format="vla.v1",
                           brackets=None))
    assert '"brackets": null' in text
    return text.replace('"brackets": null', '"brackets": ' + _nested(depth))


def _bad_sl2(field):
    """The sl2 Lie algebra table with one bad entry, with the basis
    element e declared twice, or with no degree for its bracket."""
    data = sl2_lie().to_dict()
    pi = data["tables"]["pi"]
    if field == "duplicate":
        data["basis"].append(dict(data["basis"][0]))
    elif field == "one-part-key":
        pi["e"] = {"h": "1"}
    elif field == "three-part-key":
        pi["e,f,h"] = {"h": "1"}
    elif field == "column":
        pi["e,f"]["zz"] = "1"
    elif field == "key":
        pi["zz,f"] = {"h": "1"}
    elif field == "coeff":
        pi["e,f"]["h"] = "1/0"
    elif field == "no-pi-degree":
        del data["pi_degree"]
    return data


def _contradicting_entry(degree, parity):
    """m(a, a) = b, where b has the given degree and parity."""
    return {"basis": [{"name": "a", "degree": 0},
                      {"name": "b", "degree": degree, "parity": parity}],
            "tables": {"m": {"a,a": {"b": "1"}}}}


def _wide_gl1(lo, hi):
    """The beta-gamma gl_1 datum with the charge window [lo, hi]."""
    return dict(bg_gl1_datum().to_dict(), charge_window=[lo, hi])


def _sl2_with_dpow(dpow):
    """The packaged sl2 vla.v1 file with e_(0)f = T^dpow h, a term of
    weight 1 + dpow where e_(0)f has weight 1."""
    data = json.loads(fixture_path("kacmoody-sl2.json").read_text())
    row = data["brackets"][1]
    assert (row["a"], row["b"], row["n"]) == ("e", "f", 0)
    row["value"][0]["dpow"] = dpow
    return data


def _not_vertex_lie(check):
    """A brst.v1 file whose matter fails one check: the gl_1 datum with
    phi_(0)phi_star = 2, so that it no longer mirrors phi_star_(0)phi =
    -1, or an abelian datum over the currents b, y, z with the
    antisymmetric bracket [b, y] = y, [y, z] = b, which fails Jacobi on
    (z, b, y)."""
    if check == "skew":
        data = bg_gl1_datum().to_dict()
        row = data["matter"]["brackets"][0]
        assert (row["a"], row["b"]) == ("phi", "phi_star")
        row["central_coeff"] = "2"
        return data
    data = abelian_datum(0).to_dict()
    data["matter"] = VertexLieData(
        [Gen("b", 1), Gen("y", 1), Gen("z", 1)],
        {(0, 1, 0): {(1, 0): 1}, (1, 0, 0): {(1, 0): -1},
         (1, 2, 0): {(0, 0): 1}, (2, 1, 0): {(0, 0): -1}},
        central=True).to_dict()
    return data


def _infinite_blocks(kind):
    """Files whose blocks are infinite-dimensional: the gl_1 datum with
    no charge window (``"no-window"``) or with charge 0 on both matter
    generators (``"zero-charges"``), or the vla.v1 beta-gamma pair with
    charges (0, 0) (``"vla"``)."""
    if kind == "vla":
        return weyl_pair(odd=False, charges=(0, 0)).to_dict()
    data = bg_gl1_datum().to_dict()
    if kind == "no-window":
        del data["charge_window"]
    else:
        for g in data["matter"]["generators"]:
            g["charge"] = 0
    return data


def _grade_breaking(grade):
    """Matter a (even, weight 1), e (odd, weight 0) and f (odd, weight
    0) with a_(0)e = f and e_(0)a = -f, reduced along one abelian x with
    the current x = a: e has ghost number 1 (``"ghost"``) or charge 1
    under a charge window (``"charge"``) and f has neither, so the
    bracket breaks that grade."""
    gens = [{"name": g, "weight": w, "parity": p, "charge": 0, "ghost": 0}
            for g, w, p in (("a", 1, 0), ("e", 0, 1), ("f", 0, 1))]
    gens[1][grade] = 1
    data = {"format": "brst.v1", "basis": ["x"], "structure": [],
            "matter": {"ring": None, "central": False, "generators": gens,
                       "brackets": [
                           {"a": "a", "b": "e", "n": 0,
                            "value": [{"gen": "f", "coeff": "1"}]},
                           {"a": "e", "b": "a", "n": 0,
                            "value": [{"gen": "f", "coeff": "-1"}]}]},
            "currents": [{"gen": "x", "terms": [
                {"coeff": "1", "factors": [{"gen": "a", "dpow": 0}]}]}],
            "cutoff": 3}
    if grade == "charge":
        data["charge_window"] = [-2, 2]
    return data


def _two_variables(fmt):
    """The sl2 table at level c with its e_(1)f central part in zz, as a
    vla.v1 file, or the Wakimoto datum at level t with its b_(1)b central
    part in zz, as a brst.v1 file."""
    if fmt == "brst.v1":
        data = wakimoto_datum("t", cutoff=1).to_dict()
        table = data["matter"]
    else:
        data = table = kac_moody_sl2(Scalar.variable("c")).to_dict()
    entry = table["brackets"][2]
    assert "central_coeff" in entry
    entry["central_coeff"] = "zz"
    return data


TOO_MANY = "more than %d monomials" % MAX_ENVELOPE_STATES

# argv, file to pass as --input (or None), text stderr must show
HOSTILE = [
    (["ope", "--preset", "virasoro", "--level=3/0"], None,
     "zero denominator"),
    (["brst", "--preset", "abelian", "--level=1/0"], None,
     "zero denominator"),
    (["vla-check"], _bad_virasoro("a"), "/brackets/1/a"),
    (["ope"], _bad_virasoro("b"), "/brackets/1/b"),
    (["envelope-dims"], _bad_virasoro("value"), "/brackets/0/value/0/gen"),
    (["vla-check"], _bad_virasoro("weight"), "/generators/0/weight"),
    (["ope"], _bad_virasoro("central_coeff"), "/brackets/2/central_coeff"),
    (["brst"], _bad_gl1("a"), "/structure/0/a"),
    (["brst"], _bad_gl1("b"), "/structure/0/b"),
    (["brst"], _bad_gl1("gen"), "/structure/0/terms/0/gen"),
    (["brst"], _bad_gl1("factor"), "/currents/0/terms/0/factors/0/gen"),
    (["brst"], _bad_gl1("current"), "/currents/0/gen"),
    (["brst"], _bad_gl1("matter"), "/matter/brackets/0/a"),
    (["brst"], _bad_gl1("coeff"), "/currents/0/terms/0/coeff"),
    (["envelope-dims", "--preset", "betagamma"], None, "phi_star"),
    (["brst"], _bad_gl1("ghost_charges"), "/ghost_charges/zz"),
    (["koszul"], _bad_mixed("h-row"), "/h/0/e/zz"),
    (["koszul"], _bad_mixed("d-column"), "/d/zz"),
    (["koszul"], _bad_mixed("coeff"), "/d/e/y"),
    (["localize"], _bad_localize("fixed", "h-row"), "/fixed/h/0/p/zz"),
    (["localize"], _bad_localize("total", "coeff"), "/total/d/e/y"),
    (["localize"], _bad_localize("map", None), "/map/q/y"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("column"),
     "/tables/pi/e,f/zz"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("key"), "/tables/pi/zz,f"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("coeff"),
     "/tables/pi/e,f/h"),
    (["localize"], _bad_localize("map", ["p"]), "at /map"),
    (["localize"], _bad_localize("map", {"p": "x"}), "/map/p"),
    (["localize"], _bad_localize("invert", "u"), "at /invert"),
    (["localize"], _bad_localize("invert", ["1/0"]), "/invert/0"),
    (["koszul"], _bad_mixed("polynomial"), "/d/e/y"),
    (["localize"], _bad_localize("total", "polynomial"), "/total/d/e/y"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("one-part-key"),
     "at /tables/pi/e\n"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("three-part-key"),
     "/tables/pi/e,f,h"),
    (["localize"], _bad_localize("invert", ["t"]), "/invert/0"),
    (["vla-check"], _bad_virasoro("not-central"),
     "/brackets/2/central_coeff"),
    (["cartan", "--weights", "1", "--cutoff", "100000000"], None,
     "candidate forms"),
    (["cartan"], {"weights": [1, -1], "cutoff": 100000000},
     "candidate forms"),
    (["cartan", "--weights", ";".join(["1"] * 28), "--cutoff", "4"], None,
     "candidate forms"),
    (["cartan", "--weights", ";".join(["1"] * 4000), "--cutoff", "1"], None,
     "n (m + n)"),
    (["cartan", "--weights", "1,2;3", "--cutoff", "2"], None,
     "one weight per factor"),
    (["cartan"], {"weights": [1, [1, 2]], "cutoff": 2}, "at /weights/1"),
    (["brst", "--preset", "wakimoto", "--cutoff", "4"], None,
     "largest allowed --cutoff is 3"),
    (["brst", "--cutoff", "4"], bg_gl1_datum().to_dict(),
     "largest allowed --cutoff is 3"),
    (["envelope-dims", "--preset", "heisenberg", "--cutoff", "60"], None,
     TOO_MANY),
    (["envelope-dims", "--preset", "virasoro", "--cutoff", "100000"], None,
     TOO_MANY),
    (["brst", "--preset", "pure-ghost", "--cutoff", "100"], None, TOO_MANY),
    (["brst", "--preset", "abelian", "--level", "0", "--cutoff", "60",
      "--cohomology"], None, TOO_MANY),
    (["brst", "--cutoff", "3"], _wide_gl1(-10 ** 5, 10 ** 5),
     "narrow the charge window"),
    (["localize"], _bad_localize("total", "two-factors"),
     "localize needs exactly one at /total/h"),
    (["envelope-dims", "--preset", "betagamma", "--charge=-100000",
      "--cutoff", "2"], None, "|charge| may be at most 100,"),
    (["koszul"], _bad_mixed("duplicate"),
     "duplicate name 'f' at /tokens/4/name"),
    (["localize"], _bad_localize("fixed", "duplicate"),
     "duplicate name 'f' at /fixed/tokens/4/name"),
    (["localize"], _bad_localize("total", "duplicate"),
     "duplicate name 'f' at /total/tokens/4/name"),
    (["vla-check"], _bad_virasoro("duplicate"),
     "duplicate name 'l' at /generators/1/name"),
    (["operad-check", "--suite", "Lie"], _bad_sl2("duplicate"),
     "duplicate name 'e' at /basis/3/name"),
    (["brst"], _bad_gl1("duplicate"), "duplicate name 'x' at /basis/1\n"),
    (["brst"], _bad_gl1("ghost-name"), "at /matter/generators/2/name"),
    (["localize"], _bad_localize("map", {"zz": {"x": "1"}}),
     "localize: undeclared fixed token 'zz' at /map/zz\n"),
    (["localize"], _bad_localize("map", {"p": {"zz": "1"}}),
     "localize: undeclared total token 'zz' at /map/p/zz\n"),
    (["koszul"], _repeated_key(p1_rotation().to_dict(), "d", "e", {"x": "1"}),
     "repeated key 'e' in the object at /d of "),
    (["vla-check"], _repeated_key(virasoro(2).to_dict(), None, "generators",
                                  []),
     "repeated key 'generators' in the object at / of "),
    (["koszul"], _nested(100000), "JSON nested too deeply in "),
    (["vla-check"], _deep_brackets(990), "JSON nested too deeply in "),
    (["cartan"], {"weights": [1, -1, 0, 2, 3], "cutoff": 2.0},
     "number 2.0 at /cutoff of "),
    (["brst"], _bad_gl1("float-dpow"),
     "number 1.0 at /currents/0/terms/0/factors/0/dpow of "),
    (["brst"], _wide_gl1(-1.0, 1.0), "number -1.0 at /charge_window/0 of "),
    (["koszul"], _bad_mixed(0.0), "number 0.0 at /tokens/0/degree of "),
    (["koszul"], _bad_mixed(1e300), "number 1e+300 at /tokens/0/degree of "),
    (["operad-check", "--suite", "Lie"], _bad_sl2("no-pi-degree"),
     "alg.v1: a pi table needs a pi_degree at /tables/pi\n"),
    (["operad-check", "--suite", "Comm"], _contradicting_entry(1, 0),
     "alg.v1: an entry of wrong degree (b has 1, the entry needs 0) at "
     "/tables/m/a,a/b\n"),
    (["operad-check", "--suite", "Comm"], _contradicting_entry(0, 1),
     "alg.v1: an entry of wrong parity (b has 1, the entry needs 0) at "
     "/tables/m/a,a/b\n"),
    (["koszul"], _bad_mixed("huge-power"),
     "mixed.v1: degree 4096 is above the bound 64 at /d/e/y\n"),
    (["cartan"], '{"weights": [1, -1], "cutoff": %s}' % ("1" * 5000),
     "unreadable JSON in "),
    (["koszul"], b'{"tokens": "\xff"}', "unreadable JSON in "),
    (["cartan", "--preset", "x"], None,
     "unknown cartan preset 'x' (try the presets verb)"),
    (["localize", "--preset", "x"], None,
     "unknown localize preset 'x' (try the presets verb)"),
    (["vla-check"], _sl2_with_dpow(10 ** 6),
     "vla.v1: e_(0)f has a term T^1000000 h of weight 1000001, expected 1 "
     "at /brackets/1/value/0\n"),
    (["ope", "--a", "e", "--b", "f"], _sl2_with_dpow(40),
     "vla.v1: e_(0)f has a term T^40 h of weight 41, expected 1 at "
     "/brackets/1/value/0\n"),
    (["brst"], _not_vertex_lie("skew"),
     "brst.v1: matter is not a vertex Lie algebra: skew-symmetry fails for "
     "phi_(0)phi_star at /matter\n"),
    (["brst"], _not_vertex_lie("jacobi"),
     "brst.v1: matter is not a vertex Lie algebra: Jacobi fails for "),
    (["brst", "--cutoff", "0"], _bad_gl1("dpow-1000000"),
     "brst.v1: current x has a term T^1000000 phi phi_star of weight "
     "1000001, expected 1 at /currents/0/terms/0\n"),
    (["brst"], _bad_gl1("dpow-1"),
     "brst.v1: current x has a term T^1 phi phi_star of weight 2, "
     "expected 1 at /currents/0/terms/0\n"),
    (["envelope-dims"], _bad_virasoro("negative-weight"),
     "vla.v1: generator 'l' has negative weight -1 at "
     "/generators/0/weight\n"),
    (["localize"], _bad_localize("map", {"p": {"x": "u"}, "q": {"y": "1"}}),
     "localize: entry 'u' is not a rational number at /map/p/x\n"),
    (["localize"], _bad_localize("map", {"p": {"x": "t"}, "q": {"y": "1"}}),
     "localize: entry 't' is not a rational number at /map/p/x\n"),
    (["brst", "--cutoff", "0"], _bad_gl1("factors-16"),
     "brst.v1: current x has a term of 17 factors, at most 16 at "
     "/currents/0/terms/0\n"),
    (["brst", "--cutoff", "0"], _bad_gl1("factors-1000"),
     "brst.v1: current x has a term of 1001 factors, at most 16 at "
     "/currents/0/terms/0\n"),
    (["brst", "--cutoff", "1", "--cohomology"], _bad_gl1("charge"),
     "brst.v1: current x has a term phi of charge 1, expected 0 at "
     "/currents/0/terms/0\n"),
    (["brst", "--cutoff", "2", "--cohomology"], _odd_pair("ghost"),
     "error: brst.v1: current x has a term b of ghost number 1, expected 0 "
     "at /currents/0/terms/0\n"),
    (["brst", "--cutoff", "0"], _infinite_blocks("no-window"),
     "error: brst.v1: weight blocks are infinite-dimensional (weight-0 "
     "even generators: phi_star); give a charge_window at "
     "/matter/generators/1\n"),
    (["brst", "--cutoff", "0"], _infinite_blocks("zero-charges"),
     "error: brst.v1: weight-0 even generators with mixed or zero charges "
     "make charge blocks infinite-dimensional at /matter/generators/1\n"),
    (["envelope-dims", "--charge", "1", "--cutoff", "2"],
     _infinite_blocks("vla"),
     "error: weight-0 even generators with mixed or zero charges make "
     "charge blocks infinite-dimensional\n"),
    (["vla-check"], _two_variables("vla.v1"),
     "error: vla.v1: coefficient 'zz' is a polynomial in 'zz', but the "
     "table is over 'c' at /brackets/2/central_coeff\n"),
    (["ope", "--a", "e", "--b", "f"], _two_variables("vla.v1"),
     "/brackets/2/central_coeff\n"),
    (["envelope-dims", "--cutoff", "2"], _two_variables("vla.v1"),
     "/brackets/2/central_coeff\n"),
    (["brst", "--cutoff", "0"], _two_variables("brst.v1"),
     "error: brst.v1: coefficient 'zz' is a polynomial in 'zz', but the "
     "table is over 't' at /matter/brackets/2/central_coeff\n"),
    (["koszul"], _wrong_degree("d"),
     "error: mixed.v1: d is not of degree +1: <a deg=0> -> <b deg=0> at "
     "/d/a/b\n"),
    (["koszul"], _wrong_degree("h"),
     "error: mixed.v1: h_1 is not of degree -1: <a deg=0> -> <b deg=0> at "
     "/h/0/a/b\n"),
    (["localize"], _bad_localize("map", {"p": {"e": "1"}}),
     "error: localize: map is not of degree 0: <p deg=0> -> <e deg=-1> at "
     "/map/p/e\n"),
    (["localize"], _bad_localize("total", "wrong-degree"),
     "error: mixed.v1: d is not of degree +1: <e deg=-1> -> <f deg=-2> at "
     "/total/d/e/f\n"),
    (["koszul"], _bad_mixed("h-polynomial"),
     "error: mixed.v1: entry 'u' is not a rational number at /h/0/e/f\n"),
    (["brst", "--cutoff", "1", "--cohomology"], _grade_breaking("ghost"),
     "error: brst.v1: a_(0)e has a term T^0 f of ghost number 0, expected "
     "1 at /matter/brackets/0/value/0\n"),
    (["brst", "--cutoff", "1", "--cohomology"], _grade_breaking("charge"),
     "error: brst.v1: a_(0)e has a term T^0 f of charge 0, expected 1 at "
     "/matter/brackets/0/value/0\n"),
    (["vla-check"], weyl_pair(odd=False, charges=(1, 0)).to_dict(),
     "error: vla.v1: phi_(0)phi_star has a central term of charge 0, "
     "expected 1 at /brackets/0/central_coeff\n"),
]


@pytest.mark.parametrize("argv, document, needle", HOSTILE, ids=[
    "ope-level-over-zero", "brst-level-over-zero", "undeclared-a",
    "undeclared-b", "undeclared-value-gen", "weight-over-zero",
    "central-coeff-exponent", "brst-structure-a", "brst-structure-b",
    "brst-structure-gen", "brst-current-factor", "brst-current-gen",
    "brst-matter-pointer", "brst-coeff-exponent",
    "betagamma-dims-without-charge", "brst-ghost-charge",
    "mixed-h-row", "mixed-d-column", "mixed-coeff-over-zero",
    "localize-fixed-pointer", "localize-total-pointer",
    "localize-map-coeff", "alg-undeclared-column", "alg-undeclared-key",
    "alg-coeff-over-zero", "localize-map-list", "localize-map-column",
    "localize-invert-string", "localize-invert-over-zero",
    "mixed-polynomial-entry", "localize-polynomial-entry",
    "alg-one-part-key", "alg-three-part-key", "localize-invert-foreign-var",
    "central-coeff-in-non-central-table", "cartan-flag-cutoff-too-large",
    "cartan-file-cutoff-too-large", "cartan-too-many-candidates",
    "cartan-too-many-coordinates",
    "cartan-flag-ragged-weights", "cartan-file-ragged-weights",
    "brst-preset-cutoff-past-envelope", "brst-file-cutoff-past-envelope",
    "heisenberg-dims-too-many-states", "virasoro-dims-too-many-states",
    "pure-ghost-too-many-states", "abelian-cohomology-too-many-states",
    "brst-charge-window-too-wide", "localize-two-factors",
    "betagamma-charge-too-large", "mixed-duplicate-token",
    "localize-fixed-duplicate-token", "localize-total-duplicate-token",
    "vla-duplicate-generator", "alg-duplicate-basis",
    "brst-duplicate-basis", "brst-matter-named-like-a-ghost",
    "localize-map-undeclared-column", "localize-map-undeclared-target",
    "mixed-repeated-d-key", "vla-repeated-top-level-key",
    "koszul-deeply-nested-file", "vla-deeply-nested-brackets",
    "cartan-float-cutoff", "brst-float-dpow", "brst-float-charge-window",
    "mixed-float-degree", "mixed-exponent-degree", "alg-pi-without-degree",
    "alg-entry-of-wrong-degree", "alg-entry-of-wrong-parity",
    "mixed-power-past-the-degree-bound", "cartan-integer-past-digit-limit",
    "mixed-file-not-utf-8",
    "cartan-unknown-preset", "localize-unknown-preset",
    "vla-derivative-past-the-bracket-weight",
    "ope-derivative-past-the-bracket-weight", "brst-matter-not-skew",
    "brst-matter-not-jacobi", "brst-current-derivative-past-weight-1",
    "brst-current-of-weight-2", "vla-negative-weight",
    "localize-map-entry-in-u", "localize-map-entry-in-t",
    "brst-current-of-17-factors", "brst-current-of-1001-factors",
    "brst-current-of-wrong-charge", "brst-current-of-ghost-number-1",
    "brst-no-window-for-weight-0-matter",
    "brst-weight-0-matter-of-charge-0", "envelope-dims-mixed-zero-charges",
    "vla-check-two-variables", "ope-two-variables",
    "envelope-dims-two-variables", "brst-matter-in-two-variables",
    "mixed-d-of-wrong-degree", "mixed-h-of-wrong-degree",
    "localize-map-of-wrong-degree", "localize-total-d-of-wrong-degree",
    "mixed-h-entry-in-u", "brst-matter-bracket-breaks-the-ghost-number",
    "brst-matter-bracket-breaks-the-charge",
    "vla-central-term-breaks-the-charge"])
def test_hostile_input_exits_2_without_traceback(capsys, tmp_path, argv,
                                                  document, needle):
    if document is not None:
        p = tmp_path / "bad-input.json"
        if isinstance(document, bytes):
            p.write_bytes(document)
        else:
            p.write_text(document if isinstance(document, str)
                         else json.dumps(document))
        argv = argv + ["--input", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


# brst reports pinned as the sha256 of the exit code and stdout, from
# the whole-basis d^2 sweep that Q_(0)Q replaced
SLOW_BRST = [
    (["--preset", "wakimoto", "--cutoff", "2", "--level=-4"],
     "9b3fdb2a6fe55fc690ebe46632d155ca1b139c708c1194a81ae2fe34684a2c56"),
    (["--preset", "wakimoto", "--cutoff", "2", "--level=-4",
      "--cohomology"],
     "0821d3ed2a1acc4af0f3eeda6c5b25a3866c1a197c0c4549ec0625b366f17de2"),
    (["--preset", "wakimoto", "--cutoff", "2", "--level=t"],
     "bdeb59d287fdf74cd20715059ba489af0a7296f4fcacc63d74267d80c7481585"),
    (["--preset", "wakimoto", "--cutoff", "2", "--level=t",
      "--cohomology"],
     "bdeb59d287fdf74cd20715059ba489af0a7296f4fcacc63d74267d80c7481585"),
    (["--preset", "abelian", "--level", "0", "--cutoff", "10",
      "--cohomology"],
     "63fccb125d5106ccdfecf27125780a8db51d99196eaccddd3f5ff41f702f85c0"),
]


@pytest.mark.parametrize("argv, digest", SLOW_BRST, ids=[
    "wakimoto-critical", "wakimoto-critical-cohomology", "wakimoto-t",
    "wakimoto-t-cohomology", "abelian-10-cohomology"])
def test_slow_brst_reports_keep_their_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, "brst", *argv)
    assert hashlib.sha256(b"%d\n" % code + out.encode()).hexdigest() \
        == digest


# cartan reports pinned the same way, from the loop that tested every
# form for invariance before ``cartan_model`` went by content
SLOW_CARTAN = [
    (["--weights", "0;0;0;0", "--cutoff", "10"],
     "124a238ad0e551794a4ae07aa681f516c64d8a89b81f6d186e7ed05ddf638a8f"),
    (["--weights", "1;-1;2;-2;3", "--cutoff", "10"],
     "8d6c3da1c1582cfaacec625664f2643b65aab0dfcc9f2528cade314ef73db77c"),
]


@pytest.mark.parametrize("argv, digest", SLOW_CARTAN, ids=[
    "four-zero-weights-10", "five-mixed-weights-10"])
def test_slow_cartan_reports_keep_their_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, "cartan", *argv)
    assert hashlib.sha256(b"%d\n" % code + out.encode()).hexdigest() \
        == digest


def test_brst_critical_level_clean(capsys):
    code, rep, _ = run_json(capsys, "brst", "--preset", "abelian",
                            "--cutoff", "3")
    assert code == 0 and rep["d_squared_zero"]


def test_brst_cohomology_refuses_d_with_entries_in_the_level(capsys,
                                                             tmp_path):
    """d^2 vanishes although d has entries in t: the file is read and
    d^2 = 0 reported, but its cohomology over Q is refused, naming t and
    the state whose image has the entry."""
    p = tmp_path / "odd-pair.json"
    p.write_text(json.dumps(_odd_pair("level")))
    argv = ["brst", "--input", str(p), "--cutoff", "2"]
    code, rep, err = run_json(capsys, *argv)
    assert code == 0 and rep["d_squared_zero"] and err == ""
    code, rep, err = run_json(capsys, *argv, "--cohomology")
    assert code == 1 and err == ""
    assert rep == {"error": "d has an entry in t on c; cohomology needs a "
                            "rational level", "ok": False}


def test_brst_symbolic_level_witness(capsys):
    code, rep, _ = run_json(capsys, "brst", "--preset", "abelian",
                            "--level", "t", "--cutoff", "2")
    assert code == 1
    assert not rep["d_squared_zero"]
    assert "d^2" in rep["witness"]["message"]


def test_koszul_packaged_fixture(capsys):
    code, rep, _ = run_json(capsys, "koszul", "--input",
                            "regular-lambda.json")
    assert code == 0
    assert rep["cohomology"] == ["Q in degree 0"]
    assert rep["classes"] == [{"degree": 0, "annihilator": "u"}]


def test_koszul_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"tokens": [')
    code, _, err = run(capsys, "koszul", "--input", str(p))
    assert code == 2
    assert "byte" in err


def test_koszul_schema_pointer(capsys, tmp_path):
    p = tmp_path / "badschema.json"
    p.write_text(json.dumps({"tokens": [{"name": "a", "degree": "x"}]}))
    code, _, err = run(capsys, "koszul", "--input", str(p))
    assert code == 2
    assert "/tokens/0/degree" in err


def test_koszul_strictness_failure(capsys, tmp_path):
    data = {"format": "mixed.v1",
            "tokens": [{"name": "x", "degree": 0},
                       {"name": "y", "degree": 1},
                       {"name": "z", "degree": 2}],
            "d": {"x": {"y": "1"}, "y": {"z": "1"}},
            "h": []}
    p = tmp_path / "notsquare.json"
    p.write_text(json.dumps(data))
    code, rep, _ = run_json(capsys, "koszul", "--input", str(p))
    assert code == 1
    assert "d o d != 0" in rep["error"]


def staircases(*ks):
    """One staircase per k: tokens a_i, b_i (i = 1..k) of degrees
    2(k - i) and 2(k - i) + 1, with h(b_i) = a_i and d(b_i) = a_(i-1).
    In the Koszul dual, d + u h sends b_1 to u a_1 and b_i to
    a_(i-1) + u a_i, so each a_i is +-u^(k-i) a_k in H, and
    u^k a_k = +-u a_1 = 0: H = Q[u]/(u^k), spanned by a_k in degree 0."""
    tokens, d, h = [], {}, {}
    for s, k in enumerate(ks):
        a = ["a%d_%d" % (s, i) for i in range(1, k + 1)]
        b = ["b%d_%d" % (s, i) for i in range(1, k + 1)]
        for i in range(k):
            tokens += [{"name": a[i], "degree": 2 * (k - 1 - i)},
                       {"name": b[i], "degree": 2 * (k - 1 - i) + 1}]
            h[b[i]] = {a[i]: "1"}
            if i:
                d[b[i]] = {a[i - 1]: "1"}
    return {"format": "mixed.v1", "tokens": tokens, "d": d, "h": [h]}


def test_koszul_lists_torsion_by_exponent(capsys, tmp_path):
    p = tmp_path / "staircases.json"
    p.write_text(json.dumps(staircases(10, 2)))
    code, rep, _ = run_json(capsys, "koszul", "--input", str(p))
    assert code == 0
    assert rep["classes"] == [{"degree": 0, "annihilator": "u^2"},
                              {"degree": 0, "annihilator": "u^10"}]
    assert rep["cohomology"] == ["Q[u]/(u^2) in degree 0",
                                 "Q[u]/(u^10) in degree 0"]


def test_localize_p1(capsys):
    code, rep, _ = run_json(capsys, "localize", "--preset", "p1")
    assert code == 0
    assert rep["iso_after_localization"]
    assert rep["cokernel_annihilator"] == "u"


def test_localize_broken(capsys):
    code, rep, _ = run_json(capsys, "localize", "--preset", "p1-broken")
    assert code == 1
    assert not rep["iso_after_localization"]


def test_localize_json_input(capsys, tmp_path):
    data = {"fixed": p1_fixed_points().to_dict(),
            "total": p1_rotation().to_dict(),
            "map": {"p": {"x": "1"}, "q": {"y": "1"}},
            "invert": ["u"]}
    p = tmp_path / "p1.json"
    p.write_text(json.dumps(data))
    code, rep, _ = run_json(capsys, "localize", "--input", str(p))
    assert code == 0
    assert rep["iso_after_localization"]


def test_operad_check_pass_and_fail(capsys):
    code, rep, _ = run_json(capsys, "operad-check", "--preset",
                            "heisenberg-hbar")
    assert code == 0 and rep["passed"]
    code, rep, _ = run_json(capsys, "operad-check", "--preset", "matrix2",
                            "--suite", "Comm")
    assert code == 1
    assert rep["violations"][0]["args"] == ["E11", "E12"]


def test_operad_check_packaged_fixture(capsys):
    code, rep, _ = run_json(capsys, "operad-check", "--input",
                            "heisenberg-hbar.json", "--suite", "BD_1")
    assert code == 0 and rep["passed"]


def test_operad_check_input_needs_suite(capsys):
    code, _, err = run(capsys, "operad-check", "--input",
                       "heisenberg-hbar.json")
    assert code == 2 and "--suite" in err


def test_cartan_weights_flag(capsys):
    code, rep, _ = run_json(capsys, "cartan", "--weights", "1",
                            "--cutoff", "6")
    assert code == 0
    assert rep["cohomology"] == ["Q[u] in degree 0"]
    code2, rep2, _ = run_json(capsys, "cartan", "--preset", "gm-line")
    assert code2 == 0
    for k in ("classes", "cohomology", "factors"):
        assert rep[k] == rep2[k]


def test_cartan_five_coordinates(capsys):
    # 677 forms; the whole-matrix Smith form took about 30 s on them
    code, rep, _ = run_json(capsys, "cartan", "--weights", "1;-1;2;-2;3",
                            "--cutoff", "8")
    assert code == 0
    assert {"degree": 0, "annihilator": None} in rep["classes"]


def test_cartan_cutoff_flag_overrides_the_file(capsys, tmp_path):
    p = tmp_path / "cartan.json"
    p.write_text(json.dumps({"format": "cartan.v1", "weights": [1, -1],
                             "cutoff": 3}))
    runs = [run_json(capsys, "cartan", "--input", str(p), *flag)
            for flag in ([], ["--cutoff", "5"])]
    assert [(code, rep["truncation"]) for code, rep, _ in runs] == [
        (0, 3), (0, 5)]


@pytest.mark.parametrize("source", [["--preset", "gm-line"],
                                    ["--input", "cartan.json"]])
def test_cartan_weights_beside_a_source_is_usage_error(capsys, source):
    with pytest.raises(SystemExit) as refused:
        main(["cartan", *source, "--weights", "1"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert "argument --weights: not allowed with argument %s" % source[0] \
        in err


def test_cartan_many_coordinates_at_a_low_cutoff(capsys):
    # 57 candidate forms; walking all 2^28 subsets dx^beta never ended
    code, rep, _ = run_json(capsys, "cartan", "--weights",
                            ";".join(["1"] * 28), "--cutoff", "1")
    assert code == 0
    assert rep["cohomology"] == ["Q[u] in degree 0"]


def test_cartan_two_torus(capsys):
    code, rep, _ = run_json(capsys, "cartan", "--preset", "two-torus")
    assert code == 0
    for v in rep["invariants"].values():
        assert v == {"free_rank": 1, "torsion": []}


def test_presets_listing(capsys):
    code, rep, _ = run_json(capsys, "presets")
    assert code == 0
    for group in ("vla", "brst", "koszul", "localize", "cartan",
                  "operad-check"):
        assert rep[group], group
        for e in rep[group]:
            assert e["name"] and e["description"]


def test_missing_source_is_usage_error(capsys):
    code, _, err = run(capsys, "ope")
    assert code == 2
    assert "--preset or --input" in err


def test_table_output(capsys):
    code, out, _ = run(capsys, "--output", "table", "conf", "--n", "3",
                       "--d", "2")
    assert code == 0
    assert "poincare: 1 + 3t + 2t^2" in out


DETERMINISM_ARGV = [
    ("conf", "--n", "3", "--d", "2"),
    ("conf", "--n", "2", "--d", "3", "--bridge"),
    ("ope", "--preset", "virasoro", "--level", "c"),
    ("ope", "--preset", "kacmoody-sl2", "--level", "c", "--a", "e",
     "--b", "f"),
    ("ope", "--preset", "heisenberg", "--level", "c"),
    ("ope", "--preset", "betagamma", "--a", "phi", "--b", "phi_star"),
    ("ope", "--preset", "bc", "--a", "b", "--b", "c"),
    ("envelope-dims", "--preset", "virasoro", "--cutoff", "5"),
    ("vla-check", "--preset", "kacmoody-sl2"),
    ("brst", "--preset", "abelian", "--cutoff", "2"),
    ("brst", "--preset", "abelian", "--level", "t", "--cutoff", "2"),
    ("koszul", "--input", "regular-lambda.json"),
    ("koszul", "--preset", "sphere-pair"),
    ("cartan", "--preset", "gm-line"),
    ("cartan", "--preset", "two-torus"),
    ("localize", "--preset", "p1"),
    ("localize", "--preset", "p1-broken"),
    ("localize", "--preset", "free-circle"),
    ("operad-check", "--preset", "odd-pair-bd0u"),
    ("operad-check", "--preset", "matrix2", "--suite", "Comm"),
    ("presets",),
]


def test_every_verb_is_deterministic(capsys):
    for argv in DETERMINISM_ARGV:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


def _child_env():
    """The environment of a child that imports opelab from this
    checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "opelab.cli", "conf", "--n", "2",
         "--d", "3"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poincare"] == "1 + t^2"


def test_importing_the_cli_loads_no_jsonschema():
    # only a file to validate loads it; a --preset run never does
    code = ("import sys, opelab.cli; "
            "assert 'jsonschema' not in sys.modules; "
            "opelab.cli.main(['brst', '--preset', 'abelian', "
            "'--cutoff', '1']); "
            "assert 'jsonschema' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["presets"], 0),
    (["brst", "--preset", "abelian", "--level", "1", "--cutoff", "1"], 1),
], ids=["clean", "failure"])
def test_closed_pipe_keeps_the_exit_code(argv, code):
    # the reader is gone before the report is written, as when
    # `opelab presets | head -1` loses the race to `head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opelab.cli"] + argv, stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=_child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


VERBS = ["vla-check", "ope", "envelope-dims", "brst", "koszul", "cartan",
         "localize", "operad-check", "conf", "presets"]

# argv that argparse answers itself, ending in SystemExit: every --help
# text and every kind of usage error, with the exit code and a line the
# text must hold
PARSER_TEXTS = [(["--help"], 0, "usage: opelab [-h]")] + [
    ([verb, "--help"], 0, "usage: opelab %s [-h]" % verb)
    for verb in VERBS] + [
    ([], 2, "the following arguments are required: verb"),
    (["no-such-verb"], 2, "argument verb: invalid choice: 'no-such-verb'"),
    (["presets", "--no-such-flag"], 2,
     "unrecognized arguments: --no-such-flag"),
    (["conf", "--d", "2"], 2, "the following arguments are required: --n"),
    (["ope", "--preset", "virasoro", "--input", "x.json"], 2,
     "argument --input: not allowed with argument --preset"),
]


@pytest.mark.parametrize("argv, code, needle", PARSER_TEXTS, ids=[
    "help"] + ["%s-help" % verb for verb in VERBS] + [
    "no-verb", "unknown-verb", "unknown-flag", "conf-without-n",
    "preset-with-input"])
def test_parser_texts_repeat_in_process_and_match_a_new_process(
        capsys, monkeypatch, argv, code, needle):
    # argparse wraps its text to the terminal width, so fix the width
    width = {"COLUMNS": "80", "LINES": "24"}
    for key, value in width.items():
        monkeypatch.setenv(key, value)
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        out = capsys.readouterr()
        runs.append((stop.value.code, out.out, out.err))
    proc = subprocess.run([sys.executable, "-m", "opelab.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(_child_env(), **width))
    runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1] == runs[2]
    got, out, err = runs[0]
    assert got == code
    assert needle in (out if code == 0 else err)
    assert (err if code == 0 else out) == ""


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    main(["presets"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["conf", "--n", "3", "--d", "2"],
                 ["cartan", "--preset", "gm-line"],
                 ["koszul", "--preset", "sphere-pair"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
