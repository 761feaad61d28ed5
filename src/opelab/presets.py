"""Named stock objects reachable from the command line, with one-line
descriptions of what each one is.  Builders that take a level accept a
Fraction or a symbolic variable name."""

from importlib import resources

from . import brst, equivariant, operads, vla


VLA_PRESETS = {
    "kacmoody-sl2": {
        "build": vla.kac_moody_sl2, "level": "c",
        "describe": "sl2 currents at a generic level, invariant pairing "
                    "normalized so kappa(h,h) = 2",
    },
    "heisenberg": {
        "build": vla.heisenberg, "level": "c",
        "describe": "one self-paired weight-1 current (free boson)",
    },
    "virasoro": {
        "build": vla.virasoro, "level": "c",
        "describe": "one weight-2 generator with the central quartic "
                    "pole c/2",
    },
    "betagamma": {
        "build": lambda level=None: vla.weyl_pair(odd=False),
        "level": None,
        "describe": "even symplectic pair of weights (1, 0)",
    },
    "bc": {
        "build": lambda level=None: vla.weyl_pair(
            odd=True, names=("b", "c"), ghosts=(-1, 1)),
        "level": None,
        "describe": "odd orthogonal pair of weights (1, 0) with ghost "
                    "numbers (-1, +1)",
    },
}

BRST_PRESETS = {
    "abelian": {
        "build": lambda level, cutoff: brst.abelian_datum(
            level, cutoff=max(cutoff, 4)),
        "level": "0", "describe":
            "rank-1 abelian datum with Heisenberg matter; d squares to "
            "zero exactly at the critical level 0 (pass --level t to "
            "watch the failure witness)",
    },
    "pure-ghost": {
        "build": lambda level, cutoff: brst.pure_ghost_datum(
            cutoff=max(cutoff, 4)),
        "level": None, "describe":
            "abelian ghosts with no matter; the charge vanishes",
    },
    "wakimoto": {
        "build": lambda level, cutoff: brst.wakimoto_datum(
            level, cutoff=min(max(cutoff, 2), 3)),
        "level": "t", "describe":
            "sl2 with beta-gamma matter plus an auxiliary Heisenberg "
            "level; the square of d vanishes only at the critical level",
    },
}

MIXED_PRESETS = {
    "regular-lambda": {
        "build": equivariant.regular_lambda,
        "describe": "rank-2 regular module over the exterior line",
    },
    "sphere-pair": {
        "build": equivariant.sphere_pair,
        "describe": "two classes in degrees 0 and 2 with no operators",
    },
    "p1-rotation": {
        "build": equivariant.p1_rotation,
        "describe": "cell model of the projective line under rotation",
    },
    "zero": {
        "build": equivariant.zero_mixed,
        "describe": "the empty mixed complex",
    },
}


def _p1_broken():
    fixed = equivariant.MixedComplex(
        [equivariant.BasisToken("p", 0)], {}, [{}])
    return fixed, equivariant.p1_rotation(), {0: {0: 1}}, ["u"]


LOCALIZE_PRESETS = {
    "p1": {
        "build": lambda: (equivariant.p1_fixed_points(),
                          equivariant.p1_rotation(),
                          equivariant.p1_inclusion(), ["u"]),
        "describe": "fixed-point inclusion into the rotating projective "
                    "line; the comparison becomes an isomorphism after "
                    "inverting u",
    },
    "p1-broken": {
        "build": _p1_broken,
        "describe": "the same total space with one fixed point dropped; "
                    "the verdict must come back false",
    },
    "free-circle": {
        "build": lambda: (equivariant.zero_mixed(1),
                          equivariant.regular_lambda(), {}, ["u"]),
        "describe": "free action: empty fixed locus against the regular "
                    "module, iso after inverting u",
    },
}

CARTAN_PRESETS = {
    "gm-line": {
        "weights": [1], "cutoff": 6,
        "describe": "one-dimensional scaling representation",
    },
    "opposite-pair": {
        "weights": [1, -1], "cutoff": 4,
        "describe": "plane with opposite weights; only the diagonal "
                    "invariants survive",
    },
    "two-torus": {
        "weights": [[1, 0], [0, 1]], "cutoff": 3,
        "describe": "rank-2 torus acting coordinatewise on the plane",
    },
}

ALG_PRESETS = {
    "poisson-line": {
        "build": operads.truncated_polynomial_poisson, "suite": "P_1",
        "describe": "truncated polynomial line with the zero bracket",
    },
    "matrix2": {
        "build": operads.matrix_2x2, "suite": "Ass",
        "describe": "2x2 matrix units; associative, not commutative",
    },
    "heisenberg-hbar": {
        "build": operads.heisenberg_rank4, "suite": "BD_1",
        "describe": "rank-4 algebra with xy - yx = hbar z, z central",
    },
    "odd-pair-p2": {
        "build": operads.odd_symplectic_p2, "suite": "P_2",
        "describe": "truncated line times an odd line with the "
                    "Euler-times-odd-derivative bracket",
    },
    "odd-pair-bv": {
        "build": operads.odd_symplectic_bv, "suite": "BV",
        "describe": "the odd pair with its square-zero second-order "
                    "operator of degree +1",
    },
    "odd-pair-bd0": {
        "build": operads.odd_symplectic_bd0, "suite": "BD_0",
        "describe": "the odd pair over Q[hbar] with d = hbar times the "
                    "operator, bracket degree -1",
    },
    "odd-pair-bd0u": {
        "build": operads.odd_symplectic_bd0u, "suite": "BD_0^u",
        "describe": "the odd pair over Q[u] (u of degree -2) with "
                    "bracket degree +1",
    },
    "exterior-bv": {
        "build": operads.exterior_bv_pair, "suite": "BV",
        "describe": "exterior algebra on two odd generators with the "
                    "second cross derivative",
    },
    "sl2-lie": {
        "build": operads.sl2_lie, "suite": "Lie",
        "describe": "the three-dimensional simple Lie algebra",
    },
}


def describe_all():
    out = {}
    for verb, table in (("vla", VLA_PRESETS), ("brst", BRST_PRESETS),
                        ("koszul", MIXED_PRESETS),
                        ("localize", LOCALIZE_PRESETS),
                        ("cartan", CARTAN_PRESETS),
                        ("operad-check", ALG_PRESETS)):
        out[verb] = [{"name": n, "description": e["describe"]}
                     for n, e in sorted(table.items())]
    return out


def fixture_path(name):
    """Path of a packaged JSON fixture, or None."""
    ref = resources.files(__package__) / "fixtures" / name
    return ref if ref.is_file() else None
