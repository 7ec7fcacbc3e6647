"""The left action of S on a spectrum has one owner.

``SymmetricSpectrum.left_action`` is the one rule of the action
S (x) X -> X: lambda, the free extensions, the multiplication of S, the
latching comparison (``SymmetricSpectrum.latching_action``, which
``modelcheck`` and the latching normal forms read), the normal path of
``SmashSpectrum``, which moves circle coordinates onto Y, and the unit
isomorphism S ^_S X -> X, which descends it summand by summand, all read
it.  The iterated structure maps it is built from, ``sigma_power`` and
``power_smash``, are named in ``spectra.py`` only, inside
``SymmetricSpectrum`` and the validator ``validate_spectrum``, so the rule
cannot be written out a second time anywhere else.
"""

import ast

import pytest

from encoding_scan import MODULES, parse, uses

OWNER = "spectra.py"

SCOPES = ("SymmetricSpectrum", "validate_spectrum")

NAMES = ("sigma_power", "power_smash")


def stray_lines(tree, name, module=OWNER):
    """Lines naming ``name`` outside the allowed scopes of the owner."""
    return [
        line
        for line, scope in uses(tree, name)
        if module != OWNER or scope.split(".")[0] not in SCOPES
    ]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("module", MODULES)
def test_iterated_structure_maps_stay_in_the_spectrum(module, name):
    assert stray_lines(parse(module), name, module) == []


def test_the_scan_covers_the_package_and_its_readers():
    assert {"spectra.py", "modelcheck.py", "jsonio.py", "homology.py"} <= set(MODULES)
    owner = parse(OWNER)
    for name in NAMES:
        assert {scope.split(".")[0] for _, scope in uses(owner, name)} == set(SCOPES)
    readers = {scope.split(".")[0] for _, scope in uses(owner, "left_action")}
    assert readers == {
        "SymmetricSpectrum",
        "SmashSpectrum",
        "left_action_map",
        "free_extension",
        "smash_unit_iso",
    }
    assert {scope for _, scope in uses(owner, "left_action") if scope.startswith("Sym")} == {
        "SymmetricSpectrum.latching_action"
    }
    modelcheck = parse("modelcheck.py")
    assert uses(modelcheck, "left_action") == []
    assert {scope for _, scope in uses(modelcheck, "latching_action")} == {"_latching_data"}


def test_the_scan_sees_a_stray_use():
    tree = ast.parse(
        "class SymmetricSpectrum:\n"
        "    def left_action(self):\n"
        "        return self.sigma_power(1, 0)\n"
        "def free_extension(Z):\n"
        "    return Z.sigma_power(1, 0)\n"
    )
    assert stray_lines(tree, "sigma_power") == [5]
    assert stray_lines(tree, "sigma_power", "modelcheck.py") == [3, 5]
