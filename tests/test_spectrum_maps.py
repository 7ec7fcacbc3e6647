"""A spectrum map is a sequence map, and maps leave X ^_S Y one way.

``SpectrumMap`` subclasses ``symseq.SequenceMap`` and defines only its
constructor (the shared-circle check) and ``validate`` (the structure
squares of ``spectra.sigma_square`` after the levelwise checks); it
inherits the rest, so a composite of spectrum maps is again one.
X ^_S Y is a coequalizer of X (x) Y, and ``SmashSpectrum.descend`` is the
one way a map out of X (x) Y, given summand by summand, leaves it: from
the normal cells when the left factor is S-cofibrant, with every other
cell checked against its normal form, and otherwise through the quotients
by ``sset.descend``.  Outside ``sset.py`` only ``SmashSpectrum``,
``smash_assoc_iso`` (which descends a composite out of the triple tensor)
and ``pushout_spectrum`` (whose sigma leaves a wedge) call
``sset.descend``, and ``modelcheck`` never reads a smash's ``quotients``.
The descents its four callers wrote out level by level through the tensor
stay in ``tests/oracle.py`` and are compared with it here.
"""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

import symspec.equivariant as eq
import symspec.modelcheck as mc
import symspec.spectra as sp
import symspec.sset as sset
import symspec.symseq as sq

import corpus
import oracle
from encoding_scan import MODULES, parse, uses

DESCENT_SCOPES = ("SmashSpectrum", "smash_assoc_iso", "pushout_spectrum")

MEMBERS = {"__init__", "validate"}


def stray_descents(tree, module):
    """Lines calling ``sset.descend`` outside the allowed scopes of spectra.py."""
    return [
        line
        for line, scope in uses(tree, "descend", owner="sset")
        if module != "spectra.py" or scope.split(".")[0] not in DESCENT_SCOPES
    ]


def members(cls):
    """The functions and properties a class defines itself."""
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) or isinstance(value, (property, classmethod, staticmethod))
    }


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


# ---------------------------------------------------------------------------
# the guards


@pytest.mark.parametrize("module", MODULES)
def test_smash_quotients_are_descended_in_one_place(module):
    assert stray_descents(parse(module), module) == []


def test_modelcheck_never_reads_a_smash_quotient():
    assert uses(parse("modelcheck.py"), "quotients") == []


def test_spectrum_map_defines_only_its_constructor_check_and_validate():
    assert members(sp.SpectrumMap) == MEMBERS
    assert sp.SpectrumMap.__mro__[1] is sq.SequenceMap


def test_the_scan_covers_the_four_descent_sites():
    owner = parse("spectra.py")
    assert {s.split(".")[0] for _, s in uses(owner, "descend", owner="sset")} == set(
        DESCENT_SCOPES
    )
    callers = {s for _, s in uses(owner, "descend")} - {
        s for _, s in uses(owner, "descend", owner="sset")
    }
    assert callers == {"smash_unit_iso", "smash_comm_iso", "smash_map_spectra"}
    assert {s for _, s in uses(parse("modelcheck.py"), "descend")} == {"_latching_data"}


def test_the_scan_sees_a_stray_use():
    tree = ast.parse(
        "class SmashSpectrum:\n"
        "    def descend(self, g):\n"
        "        return sset.descend(self.q, g)\n"
        "def smash_comm_iso(XY, tw):\n"
        "    return sset.descend(XY.quotients[0].projection, tw)\n"
        "def smash_map_spectra(XY, tm):\n"
        "    return XY.descend(tm)\n"
    )
    assert stray_descents(tree, "spectra.py") == [5]
    assert stray_descents(tree, "modelcheck.py") == [3, 5]
    assert uses(tree, "quotients") == [(5, "smash_comm_iso")]

    class Stray(sq.SequenceMap):
        def __init__(self, source, target, components):
            super().__init__(source, target, components)

        def validate(self):
            return True

        def compose(self, other):
            return self

    assert members(Stray) - MEMBERS == {"compose"}


# ---------------------------------------------------------------------------
# composites


def test_a_composite_of_spectrum_maps_is_a_spectrum_map_that_validates(tower):
    f = sp.lambda_map(0, 2, tower)
    _, i, r, _ = sp.mapping_cylinder(f)
    ri = r.compose(i)
    assert type(ri) is sp.SpectrumMap
    assert ri == f
    assert ri.validate()


def test_a_composite_of_sequence_maps_is_a_sequence_map():
    X = sq.free_G(1, sset.circle(), 2)
    f = sq.identity_seq_map(X)
    ff = f.compose(f)
    assert type(ff) is sq.SequenceMap
    assert ff == f and ff.validate()


# ---------------------------------------------------------------------------
# the per-level descents of the four callers


@pytest.fixture(scope="module")
def valid_corpus(tower):
    """The corpus spectra that validate: all but the two broken on purpose."""
    valid = [X for X in corpus.spectrum_corpus(tower) if sp.validate_spectrum(X)["ok"]]
    assert len(valid) == 9
    return valid


def assert_same_map(new, old, where):
    assert type(new) is sp.SpectrumMap, where
    assert new.source is old.source and new.target is old.target, where
    assert [c.assign for c in new.components] == [c.assign for c in old.components], where


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_unit_and_symmetry_match_their_per_level_descents(tower, valid_corpus, i, j):
    X, Y = valid_corpus[i], valid_corpus[j]
    SX = sp.smash_spectra(sp.sphere_spectrum(X.bound, tower), X)
    fwd, _ = sp.smash_unit_iso(SX)
    assert_same_map(fwd, oracle.smash_unit_forward_per_level(SX), X.name)
    XY, YX = sp.smash_spectra(X, Y), sp.smash_spectra(Y, X)
    where = (X.name, Y.name)
    assert_same_map(sp.smash_comm_iso(XY, YX), oracle.smash_comm_iso_per_level(XY, YX), where)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=8))
def test_smash_of_maps_matches_its_per_level_descent(tower, valid_corpus, seed, j):
    f = corpus.random_stable_cofibration(random.Random(seed), tower)
    Z = valid_corpus[j]
    z = sp.identity_spectrum_map(Z)
    for a, b in ((f, z), (z, f)):
        src = sp.smash_spectra(a.source, b.source)
        tgt = sp.smash_spectra(a.target, b.target)
        new = sp.smash_map_spectra(src, tgt, a, b)
        old = oracle.smash_map_spectra_per_level(src, tgt, a, b)
        assert_same_map(new, old, (seed, Z.name))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("corpus"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("cofibration"), st.integers(min_value=0, max_value=10 ** 6)),
    )
)
def test_latching_comparison_matches_its_per_level_descent(tower, valid_corpus, case):
    kind, k = case
    if kind == "corpus":
        spectra = [valid_corpus[k]]
    else:
        f = corpus.random_stable_cofibration(random.Random(k), tower)
        spectra = [f.source, f.target]
    for X in spectra:
        _, nat = mc._latching_data(X)
        _, old = oracle.latching_comparison_per_level(X)
        assert type(nat) is sp.SpectrumMap
        assert [c.assign for c in nat.components] == [c.assign for c in old.components], (
            case,
            X.name,
        )
