"""A spectrum is its symmetric sequence.

``SymmetricSpectrum`` subclasses ``symseq.SymmetricSequence`` and holds its
levels itself, so a spectrum goes into a tensor, a sequence map or the
sequence JSON dispatch as it is, and no module under ``src/symspec``
unwraps one through an attribute ``seq``.  The read-only ``seq`` that
returns the spectrum itself stays for the benchmark tracer alone.

F_n(f) is the free extension of K -> L -> (F_n L)_n, so a map that does not
run from K to L is refused; the construction through G_n(f) it replaced
stays in ``tests/oracle.py`` and is compared with it here, as are the
generating sets built kind by kind.
"""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from symspec import equivariant as eq
from symspec import jsonio
from symspec import spectra as sp
from symspec import sset
from symspec import symseq as sq

import corpus
import oracle
from encoding_scan import MODULES, parse


def seq_reads(tree):
    """Lines reading an attribute named ``seq``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "seq"
    )


@pytest.fixture(scope="module")
def tower():
    return eq.SphereTower()


# ---------------------------------------------------------------------------
# the guards


@pytest.mark.parametrize("module", MODULES)
def test_no_module_unwraps_a_spectrum(module):
    assert seq_reads(parse(module)) == []


def test_the_scan_sees_a_stray_read():
    tree = ast.parse(
        "class SymmetricSpectrum:\n"
        "    @property\n"
        "    def seq(self):\n"
        "        return self\n"
        "def module_spectrum(X, W):\n"
        "    seq = X\n"
        "    return sq.tensor(X.seq, seq)\n"
    )
    assert seq_reads(tree) == [7]
    assert {"spectra.py", "modelcheck.py", "cli.py", "jsonio.py"} <= set(MODULES)


def test_a_spectrum_is_a_sequence_with_no_forwarding_members(tower):
    assert sp.SymmetricSpectrum.__mro__[1] is sq.SymmetricSequence
    assert not {"bound", "level", "space"} & set(vars(sp.SymmetricSpectrum))
    assert not hasattr(sp.SpectrumMap, "seq_map")
    F = sp.free_F(1, sset.circle(), 2, tower)
    assert F.seq is F
    with pytest.raises(AttributeError):
        F.seq = None
    P = sp.prolong_smash(F, sset.zero_sphere())
    assert P.base_seq is F and not hasattr(P, "base_spectrum")


def test_a_smash_builds_its_projection_on_each_read(tower):
    F = sp.free_F(0, sset.circle(), 2, tower)
    XY = sp.smash_spectra(F, F)
    proj = XY.proj_seq
    assert proj.source is XY.T and proj.target is XY
    assert XY.proj_seq is not proj and XY.proj_seq == proj
    assert "proj_seq" not in vars(XY)


def _named_spectra(tower):
    bound = 2
    S = sp.sphere_spectrum(bound, tower)
    F = sp.free_F(1, sset.circle(), bound, tower)
    incl = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    U = sp.free_F(0, incl.source, bound, tower)
    V = sp.free_F(0, incl.target, bound, tower)
    f = sp.free_F_map(U, V, incl)
    pushout, _, _ = sp.pushout_spectrum(f, f)
    return {
        "sphere": S,
        "free": F,
        "smash": sp.smash_spectra(F, F),
        "prolonged": sp.prolong_smash(F, sset.circle()),
        "pushout": pushout,
        "shifted": sp.shift(F, 1),
        "loaded": jsonio.load(jsonio.dump(F), tower),
    }


def test_every_spectrum_dumps_as_a_spectrum(tower):
    spectra = _named_spectra(tower)
    for kind, X in spectra.items():
        assert isinstance(X, sp.SymmetricSpectrum), kind
        assert jsonio.dump(X)["type"] == "spectrum", kind
    assert jsonio.dump(sq.free_G(0, sset.circle(), 2))["type"] == "sequence"


def test_a_spectrum_goes_into_a_tensor_as_it_is(tower):
    S = sp.sphere_spectrum(2, tower)
    F = sp.free_F(1, sset.circle(), 2, tower)
    T = sq.tensor(S, F)
    assert T.X is S and T.Y is F
    assert sp.left_action_map(F, T).validate()


# ---------------------------------------------------------------------------
# F_n(f) by the adjunction


def test_free_F_map_refuses_a_map_that_does_not_run_from_K_to_L(tower):
    dD1, D1 = sset.boundary_plus(1), sset.delta_plus(1)
    f = sset.SimplicialMap(dD1, sset.delta_plus(2), {0: ((), 0), 1: ((), 1), 2: ((), 2)})
    assert f.is_valid()
    src, tgt = sp.free_F(1, dD1, 2, tower), sp.free_F(1, D1, 2, tower)
    with pytest.raises(sset.PreconditionError):
        sp.free_F_map(src, tgt, f)


def test_free_F_map_refuses_spectra_free_in_other_degrees(tower):
    f = sset.subset_inclusion(sset.boundary_plus(1), sset.delta_plus(1))
    with pytest.raises(sset.PreconditionError):
        sp.free_F_map(sp.free_F(0, f.source, 2, tower), sp.free_F(1, f.target, 2, tower), f)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_free_F_map_matches_the_map_through_G(tower, seed):
    r = random.Random(seed)
    K, L = corpus.random_space(r, 3), corpus.random_space(r, 3)
    f = r.choice(list(sset.all_maps(K, L)))
    n, bound = r.randint(0, 2), 2
    src, tgt = sp.free_F(n, K, bound, tower), sp.free_F(n, L, bound, tower)
    new, old = sp.free_F_map(src, tgt, f), oracle.free_F_map_via_G(src, tgt, f)
    assert type(new) is sp.SpectrumMap and new.validate()
    assert [c.assign for c in new.components] == [c.assign for c in old.components], seed


@pytest.mark.parametrize(
    "kind,N,R",
    [("FI_boundary", 1, 2), ("FI_horn", 1, 2), ("J_cylinder", 0, 1), ("J_cylinder", 1, 1)],
)
def test_generating_sets_match_the_sets_built_kind_by_kind(tower, kind, N, R):
    new = sp.generating_sets(kind, N, R, tower=tower)
    old = oracle.generating_sets_by_kind(kind, N, R, tower=tower)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert jsonio.dump_spectrum_map(a) == jsonio.dump_spectrum_map(b)
