import contextlib
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opelab import presets
from opelab.cli import _level, main
from opelab.scalars import Scalar, ONE, sc, format_scalar
from opelab.schemas import validate
from opelab.vla import (Gen, VertexLieData, check_sesquilinearity,
                        check_skew_symmetry, check_jacobi, current_algebra,
                        heisenberg, kac_moody_sl2, virasoro, weyl_pair,
                        direct_sum)


def test_virasoro_table():
    L = virasoro(Scalar.variable("c"))
    l = L.gen("l")
    assert L.stored(l, l, 0) == {(l, 1): ONE}
    assert L.stored(l, l, 1) == {(l, 0): sc(2)}
    assert not L.stored(l, l, 2)
    assert L.stored(l, l, 3)[()] == Scalar.variable("c").scale(
        Fraction(1, 2))


def test_derived_brackets():
    L = virasoro(Scalar.variable("c"))
    l = L.gen("l")
    # (T l)_(n) l = -n l_(n-1) l
    assert L.bracket(l, 1, 1, l, 0) == {(l, 1): sc(-1)}
    assert not L.bracket(l, 1, 0, l, 0)
    # l_(1) (T l) = T(l_(1) l) + l_(0) l = 2 Tl + Tl
    assert L.bracket(l, 0, 1, l, 1) == {(l, 1): sc(3)}
    # central parts are killed by T: l_(3)(Tl) = T(c/2) + 3 l_(2)l = 0
    assert not L.bracket(l, 0, 3, l, 1)
    # but resurface one mode up: l_(4)(Tl) = 4 l_(3)l = 2c
    assert L.bracket(l, 0, 4, l, 1) == \
        {(): Scalar.variable("c").scale(2)}


@pytest.mark.parametrize("L", [
    virasoro(Scalar.variable("c")),
    kac_moody_sl2(Scalar.variable("k")),
    heisenberg(Scalar.variable("t")),
    weyl_pair(odd=False),
    weyl_pair(odd=True, names=("psi", "psi_star")),
])
def test_presets_satisfy_axioms(L):
    assert check_sesquilinearity(L).ok
    assert check_skew_symmetry(L).ok
    assert check_jacobi(L).ok


def test_direct_sum_is_still_a_vla():
    L = direct_sum(kac_moody_sl2(sc(3)),
                   weyl_pair(odd=True, names=("psi", "psi_star")))
    assert len(L.gens) == 5
    assert check_sesquilinearity(L).ok
    assert check_skew_symmetry(L).ok
    assert check_jacobi(L).ok
    # cross brackets vanish
    assert not L.bracket(L.gen("e"), 0, 0, L.gen("psi"), 0)


def test_broken_structure_constant_fails_jacobi():
    bad_struct = {
        (0, 1): [(0, -3)], (1, 0): [(0, 3)],   # [h,e] = 3e: inconsistent
        (1, 2): [(2, -2)], (2, 1): [(2, 2)],
        (0, 2): [(1, 1)], (2, 0): [(1, -1)],
    }
    from opelab.vla import SL2_KAPPA
    L = current_algebra(["e", "h", "f"], bad_struct, SL2_KAPPA, sc(1))
    rep = check_jacobi(L)
    assert not rep.ok
    w = rep.violations[0]["witness"]
    assert len(w) == 5 and set(w[:3]) <= {"e", "h", "f"}


def test_noninvariant_pairing_fails_jacobi():
    from opelab.vla import SL2_STRUCT
    kappa = {(0, 2): ONE, (2, 0): ONE, (1, 1): sc(3)}  # kappa(h,h) != 2
    L = current_algebra(["e", "h", "f"], SL2_STRUCT, kappa, sc(1))
    assert not check_jacobi(L).ok


def test_weight_inhomogeneous_bracket_fails_sesquilinearity():
    gens = [Gen("a", 1), Gen("b", 1)]
    brackets = {(0, 1, 0): {(1, 1): ONE}}  # T b has weight 2 != 1
    L = VertexLieData(gens, brackets, central=False)
    rep = check_sesquilinearity(L)
    assert not rep.ok
    assert rep.violations[0]["pair"] == ("a", "b", 0)


def test_pole_bound_violation_reported():
    gens = [Gen("a", 1), Gen("b", 1)]
    # n = 2 exceeds the bound wt a + wt b - 1 = 1
    L = VertexLieData(gens, {(0, 1, 2): {(0, 0): ONE}})
    rep = check_sesquilinearity(L)
    assert not rep.ok
    assert "pole bound" in rep.violations[0]["message"]


def test_skew_symmetry_violation():
    gens = [Gen("a", 1), Gen("b", 1)]
    L = VertexLieData(gens, {(0, 1, 0): {(0, 1): ONE}})
    # b_(n)a is identically zero, so skew-symmetry must fail
    assert not check_skew_symmetry(L).ok


def test_weyl_pair_zero_pole_signs():
    even = weyl_pair(odd=False)
    assert even.stored(0, 1, 0)[()] == ONE
    assert even.stored(1, 0, 0)[()] == sc(-1)
    odd = weyl_pair(odd=True)
    assert odd.stored(0, 1, 0)[()] == ONE
    assert odd.stored(1, 0, 0)[()] == ONE


def test_serialization_roundtrip():
    for L in (virasoro(Scalar.variable("c")),
              kac_moody_sl2(Scalar.variable("k")),
              weyl_pair(odd=True)):
        data = L.to_dict()
        L2 = VertexLieData.from_dict(data)
        assert L2.to_dict() == data
        assert [g.name for g in L2.gens] == [g.name for g in L.gens]
        assert L2.brackets.keys() == L.brackets.keys()
        for k in L.brackets:
            assert L2.brackets[k] == L.brackets[k]


WEIGHTS = (0, Fraction(1, 2), 1, Fraction(3, 2), 2)

COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
        lambda q: format_scalar(sc(q))),
    st.just("0"),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
        lambda cs: format_scalar(Scalar("c", tuple(cs)))))


@st.composite
def vla_files(draw):
    """vla.v1 tables of 1-4 generators of drawn weight, parity and charge,
    with bracket terms that keep the weight and the charge, whose
    coefficients are ints, fractions, zeros or polynomials in c, and
    central parts on central tables where a and b have opposite charges;
    each (a, b, n) and each term appears at most once."""
    gens = [{"name": "g%d" % i, "weight": str(draw(st.sampled_from(WEIGHTS))),
             "parity": draw(st.integers(0, 1)),
             "charge": draw(st.integers(-2, 2))}
            for i in range(draw(st.integers(1, 4)))]
    weight = [Fraction(g["weight"]) for g in gens]
    charge = [g["charge"] for g in gens]
    central = draw(st.booleans())
    # the generators g whose T^e g has the weight and the charge of a_(n)b
    fits = {}
    for a, b in itertools.product(range(len(gens)), repeat=2):
        for n in range(int(weight[a] + weight[b])):
            want = weight[a] + weight[b] - n - 1
            fits[(a, b, n)] = [(g, int(want - weight[g]))
                               for g in range(len(gens))
                               if weight[g] <= want
                               and (want - weight[g]).denominator == 1
                               and charge[g] == charge[a] + charge[b]]

    def has_central(a, b, n):
        return central and charge[a] + charge[b] == 0

    keys = sorted(k for k in fits if fits[k] or has_central(*k))
    brackets = []
    for a, b, n in draw(st.lists(st.sampled_from(keys), unique=True,
                                 max_size=6)) if keys else ():
        terms = draw(st.lists(st.sampled_from(fits[(a, b, n)]), unique=True,
                              min_size=1, max_size=2)) if fits[(a, b, n)] \
            else []
        row = {"a": gens[a]["name"], "b": gens[b]["name"], "n": n,
               "value": [{"gen": gens[g]["name"], "dpow": e,
                          "coeff": draw(COEFFS)} for g, e in terms]}
        if has_central(a, b, n) and draw(st.booleans()):
            row["central_coeff"] = draw(COEFFS)
        brackets.append(row)
    return {"format": "vla.v1", "ring": draw(st.sampled_from([None, "c"])),
            "central": central, "generators": gens, "brackets": brackets}


@settings(max_examples=60, deadline=None)
@given(vla_files())
def test_drawn_tables_round_trip_without_zero_coefficients(data):
    """A drawn table reads back from its own ``to_dict``, stores and
    writes no zero coefficient, and ``vla-check`` on it reports 0 or 1
    as one JSON document."""
    L = VertexLieData.from_dict(data)
    out = L.to_dict()
    L2 = VertexLieData.from_dict(out)
    assert L2.brackets == L.brackets and L2.to_dict() == out
    assert all(c for val in L.brackets.values() for c in val.values())
    for row in out["brackets"]:
        assert all(t["coeff"] != "0" for t in row["value"])
        assert row.get("central_coeff") != "0"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["vla-check", "--input", path])
    assert code in (0, 1) and stderr.getvalue() == ""
    report = json.loads(stdout.getvalue())
    assert report["ok"] == (code == 0)


@pytest.mark.parametrize("level", ["stock", "-3/7"])
@pytest.mark.parametrize("name", sorted(presets.VLA_PRESETS))
def test_presets_pass_the_reader(name, level):
    """The presets are built in code, where no reader checks them: each
    table, at its stock level and at a rational one, passes the vla.v1
    schema and every check of ``from_dict`` and reads back unchanged."""
    entry = presets.VLA_PRESETS[name]
    L = entry["build"](_level(entry["level"] if level == "stock"
                              else level))
    data = validate(L.to_dict(), "vla.v1")
    assert VertexLieData.from_dict(data).to_dict() == data


# -- metamorphic: renaming and reordering keep every report ---------------

def preset_files():
    """vla.v1 files of the presets at their stock level and at the
    rational level 2."""
    return st.sampled_from(sorted(presets.VLA_PRESETS)).flatmap(
        lambda name: st.sampled_from([presets.VLA_PRESETS[name]["level"],
                                      "2"]).map(
            lambda level: presets.VLA_PRESETS[name]["build"](
                _level(level)).to_dict()))


def _rename_and_permute(draw, data):
    """A copy of the vla.v1 document with every generator renamed, to a
    drawn stem and a distinct number, and with its generators and its
    brackets declared in drawn orders."""
    data = json.loads(json.dumps(data))
    new = {g["name"]: "%s#%d" % (draw(st.text(max_size=4)), k)
           for k, g in enumerate(data["generators"])}
    for g in data["generators"]:
        g["name"] = new[g["name"]]
    for row in data["brackets"]:
        row["a"], row["b"] = new[row["a"]], new[row["b"]]
        for t in row["value"]:
            t["gen"] = new[t["gen"]]
    for key in ("generators", "brackets"):
        data[key] = draw(st.permutations(data[key]))
    return data


def run_file(data, *argv):
    """(exit code, JSON report or None) of the command line on argv with
    the document as its --input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv) + ["--input", path])
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@settings(max_examples=60, deadline=None)
@given(st.one_of(preset_files(), vla_files()), st.data())
def test_reports_survive_renaming_and_reordering(data, draw):
    """Renaming the generators and declaring them and the brackets in
    other orders keeps the exit code of ``vla-check`` and
    ``envelope-dims``, the verdict of each check and the dimensions;
    witness names may change."""
    other = _rename_and_permute(draw.draw, data)
    dims = ["envelope-dims", "--cutoff", str(draw.draw(st.integers(0, 3)))]
    if draw.draw(st.booleans()):
        dims.append("--charge=%d" % draw.draw(st.integers(-1, 1)))
    for argv in (["vla-check", "--cutoff", "4"], dims):
        (code, rep), (code2, rep2) = (run_file(d, *argv)
                                      for d in (data, other))
        assert code == code2
        if rep is None:
            continue
        assert rep.get("ok") == rep2.get("ok")
        assert rep.get("dims") == rep2.get("dims")
        assert ({k: c["ok"] for k, c in rep.get("checks", {}).items()}
                == {k: c["ok"] for k, c in rep2.get("checks", {}).items()})
