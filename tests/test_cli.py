import json
import subprocess
import sys
from fractions import Fraction

import pytest

from opelab.brst import bg_gl1_datum
from opelab.cli import main
from opelab.equivariant import p1_fixed_points, p1_rotation
from opelab.operads import sl2_lie
from opelab.scalars import MAX_EXPONENT
from opelab.vla import virasoro


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
    whose generator weight is not a rational number, or whose central
    coefficient has too high a power."""
    data = dict(virasoro(2).to_dict(), format="vla.v1")
    if field == "value":
        data["brackets"][0]["value"][0]["gen"] = "x"
    elif field == "weight":
        data["generators"][0]["weight"] = "1/0"
    elif field == "central_coeff":
        data["brackets"][2]["central_coeff"] = TOO_HIGH
    else:
        data["brackets"][1][field] = "x"
    return data


def _bad_gl1(field):
    """The beta-gamma gl_1 datum with one bad entry: a structure row or
    a current naming something its tables never declare, a matter
    bracket naming an undeclared generator, or a current coefficient
    with too high a power."""
    data = bg_gl1_datum().to_dict()
    current = data["currents"][0]
    if field in ("a", "b", "gen"):
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
    return data


def _bad_mixed(field):
    """The P^1 rotation complex with one bad entry: an h or d entry
    naming an undeclared token, or a coefficient that is not a number."""
    data = p1_rotation().to_dict()
    if field == "h-row":
        data["h"][0]["e"]["zz"] = "1"
    elif field == "d-column":
        data["d"]["zz"] = {"x": "1"}
    elif field == "coeff":
        data["d"]["e"]["y"] = "1/0"
    elif field == "polynomial":
        data["d"]["e"]["y"] = "u"
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
    else:
        data[part] = _bad_mixed(field)
    return data


def _bad_sl2(field):
    """The sl2 Lie algebra table with one bad entry."""
    data = sl2_lie().to_dict()
    pi = data["tables"]["pi"]
    if field == "column":
        pi["e,f"]["zz"] = "1"
    elif field == "key":
        pi["zz,f"] = {"h": "1"}
    elif field == "coeff":
        pi["e,f"]["h"] = "1/0"
    return data


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
    "mixed-polynomial-entry", "localize-polynomial-entry"])
def test_hostile_input_exits_2_without_traceback(capsys, tmp_path, argv,
                                                  document, needle):
    if document is not None:
        p = tmp_path / "bad-input.json"
        p.write_text(json.dumps(document))
        argv = argv + ["--input", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


def test_brst_critical_level_clean(capsys):
    code, rep, _ = run_json(capsys, "brst", "--preset", "abelian",
                            "--cutoff", "3")
    assert code == 0 and rep["d_squared_zero"]


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


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "opelab.cli", "conf", "--n", "2",
         "--d", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poincare"] == "1 + t^2"
