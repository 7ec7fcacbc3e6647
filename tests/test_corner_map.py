"""One corner construction: ``spectra.corner_map``.

The pushout-product f [] g: V^X +_{U^X} U^Y -> V^Y of every kind (spaces,
spectra smashed over the sphere, a spectrum map against a space map) and
the latching corner X +_{LX} LY -> Y are each the map out of the pushout
of a commuting square, and ``corner_map`` builds it for all of them.  Here
every corner is checked against its square, and an AST scan pins who maps
out of a pushout: outside ``sset.py`` only ``spectra.map_out_of_pushout``,
``pushout_spectrum`` and ``corner_map`` call ``sset.map_out_of_pushout``,
and only ``corner_map`` and ``mapping_cylinder`` call
``spectra.map_out_of_pushout``.
"""

import ast
import inspect

import pytest

import symspec.equivariant as eq
import symspec.modelcheck as mc
import symspec.spectra as sp
import symspec.sset as sset

from encoding_scan import MODULES, parse, uses

GONE = ("_space_pushout_product", "_corner", "_smash_map_or_identity")


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


def ends():
    return sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))


def free_ends(tower):
    """F_0 of the ends of the interval, at bound 2."""
    f = ends()
    return sp.free_F_map(
        sp.free_F(0, f.source, 2, tower), sp.free_F(0, f.target, 2, tower), f
    )


def cylinder_leg(tower):
    """The cylinder leg of lambda_0 at bound 2."""
    return sp.mapping_cylinder(sp.lambda_map(0, 2, tower))[1]


def assigns(h):
    """The assignments of a space map, or of each level of a spectrum map."""
    if isinstance(h, sset.SimplicialMap):
        return [h.assign]
    return [c.assign for c in h.components]


def space_square(f, g, sm):
    one = sset.identity_map
    return (
        sset.smash_map(sm["vx"], sm["vy"], one(f.target), g),
        sset.smash_map(sm["uy"], sm["vy"], f, one(g.target)),
    )


def smash_square(f, g, sm):
    one = sp.identity_spectrum_map
    return (
        sp.smash_map_spectra(sm["vx"], sm["vy"], one(f.target), g),
        sp.smash_map_spectra(sm["uy"], sm["vy"], f, one(g.target)),
    )


def prolong_square(f, g, sm):
    return (
        sp.prolong_map(sm["vx"], sm["vy"], sp.identity_spectrum_map(f.target), g),
        sp.prolong_map(sm["uy"], sm["vy"], f, sset.identity_map(g.target)),
    )


def pushout_product_case(maps, square):
    def build(tower):
        f, g = maps(tower)
        corner = sp.pushout_product(f, g)
        assert sorted(corner.corner_smashes) == ["ux", "uy", "vx", "vy"]
        return corner, square(f, g, corner.corner_smashes)

    return build


def latching_case(tower):
    f = free_ends(tower)
    # the comparison L_nY -> Y_n, built afresh: equal to the corner's leg
    # cell for cell, on another copy of the latching spectrum
    return mc.latching_corner(f), (f, mc._latching_data(f.target)[1])


CASES = {
    "space [] space": pushout_product_case(lambda t: (ends(), ends()), space_square),
    "spectrum [] spectrum": pushout_product_case(
        lambda t: (free_ends(t), free_ends(t)), smash_square
    ),
    "spectrum [] two-point unit": pushout_product_case(
        lambda t: (cylinder_leg(t), sset.constant_map(sset.point(), sset.zero_sphere())),
        prolong_square,
    ),
    "latching": latching_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_corner_is_the_map_out_of_its_square(tower, case):
    corner, (to1, to2) = CASES[case](tower)
    po = corner.corner_pushout
    assert corner.source is po.space
    for leg, to in ((po.leg1, to1), (po.leg2, to2)):
        assert leg.source is to.source or case == "latching"
        assert corner.compose(leg).target is to.target
        assert assigns(corner.compose(leg)) == assigns(to)


def test_the_corners_keep_their_printed_names(tower):
    f = free_ends(tower)
    assert sp.pushout_product(ends(), ends()).source.name == "corner"
    assert sp.pushout_product(f, f).source.name == f"corner({f.source.name},{f.source.name})"
    assert mc.latching_corner(f).source.name == f"corner({f.source.name}->{f.target.name})"


# ---------------------------------------------------------------------------
# who maps out of a pushout


def pushout_exits(tree, module):
    """The scopes that call ``sset.map_out_of_pushout``, and those that call
    ``spectra.map_out_of_pushout`` (bare in spectra.py, ``sp.`` elsewhere)."""
    name = "map_out_of_pushout"
    via_sset = uses(tree, name, owner="sset")
    if module == "spectra.py":
        via_spectra = [u for u in uses(tree, name) if u not in via_sset]
    else:
        via_spectra = uses(tree, name, owner="sp")
    return {s for _, s in via_sset}, {s for _, s in via_spectra}


def test_only_the_pushout_builders_map_out_of_a_space_pushout():
    callers = set()
    for module in MODULES:
        if module != "sset.py":
            via_sset, _ = pushout_exits(parse(module), module)
            callers |= {(module, s) for s in via_sset}
    assert callers == {
        ("spectra.py", "map_out_of_pushout"),
        ("spectra.py", "pushout_spectrum"),
        ("spectra.py", "corner_map"),
    }


def test_only_corner_map_and_the_cylinder_map_out_of_a_spectrum_pushout():
    callers = set()
    for module in MODULES:
        _, via_spectra = pushout_exits(parse(module), module)
        callers |= {(module, s) for s in via_spectra}
    assert callers == {("spectra.py", "corner_map"), ("spectra.py", "mapping_cylinder")}


def test_the_scan_sees_a_stray_exit():
    tree = ast.parse(
        "def latching_corner(P, f):\n"
        "    return sp.map_out_of_pushout(P, f, f)\n"
        "def _corner(po, a, b):\n"
        "    return sset.map_out_of_pushout(po, a, b)\n"
        "def corner_map(P, a, b):\n"
        "    return map_out_of_pushout(P, a, b)\n"
    )
    assert pushout_exits(tree, "modelcheck.py") == ({"_corner"}, {"latching_corner"})
    assert pushout_exits(tree, "spectra.py") == (
        {"_corner"}, {"latching_corner", "corner_map"}
    )


def test_the_replaced_corner_helpers_are_gone():
    for name in GONE:
        assert not hasattr(sp, name)
        for module in MODULES:
            assert uses(parse(module), name) == [], (module, name)


def test_no_corner_builder_takes_an_unused_default():
    params = inspect.signature(sp.prolong_map).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)
    assert "bound" not in inspect.signature(sp.generating_sets).parameters
