"""The induced Sigma_n-space Sigma_n+ ^_{Sigma_p x Sigma_q} A has one builder.

``equivariant.balanced_smash`` builds it over a list of blocks, and every
degree of a tensor of symmetric sequences is one such call.  It is the one
place where a generator factors a coset through ``coset_factor``: outside
``equivariant.py`` only ``symseq.assoc_iso`` names it, to refactor a
three-block coset, and it builds no action.  So the coset bookkeeping of
an action cannot be written out a second time.
"""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from symspec import equivariant as eq
from symspec import sset

import corpus
import oracle
from encoding_scan import MODULES, parse, uses

ALLOWED = {"equivariant.py": {"coset_factor", "balanced_smash"}, "symseq.py": {"assoc_iso"}}


def stray_lines(tree, module):
    """Lines naming ``coset_factor`` outside the allowed scopes of ``module``."""
    return [
        line
        for line, scope in uses(tree, "coset_factor")
        if scope.split(".")[0] not in ALLOWED.get(module, ())
    ]


@pytest.mark.parametrize("module", MODULES)
def test_coset_factor_stays_in_the_balanced_smash(module):
    assert stray_lines(parse(module), module) == []


def test_the_scan_finds_the_owner_and_its_readers():
    assert {"equivariant.py", "symseq.py", "spectra.py"} <= set(MODULES)

    def scopes(module, name):
        return {scope for _, scope in uses(parse(module), name)}

    assert scopes("equivariant.py", "coset_factor") == {"balanced_smash"}
    assert {s.split(".")[0] for s in scopes("symseq.py", "coset_factor")} == {"assoc_iso"}
    assert scopes("symseq.py", "balanced_smash") == {"TensorSequence.__init__"}


def test_the_scan_sees_a_stray_use():
    tree = ast.parse(
        "def balanced_smash(n, blocks):\n"
        "    return coset_factor(t, mu, p, q)\n"
        "def generator(t, mu):\n"
        "    return eq.coset_factor(t, mu, 1, 1)\n"
    )
    assert stray_lines(tree, "equivariant.py") == [4]
    assert stray_lines(tree, "spectra.py") == [2, 4]


def random_block(r, p, q):
    """(p, q, A, act) on a random core: Sigma_p x Sigma_q acting trivially,
    or through ``block_sum`` on a free orbit or a sphere."""
    kind = r.randrange(3)
    if kind == 0:
        core = corpus.random_space(r, 3)
        ident = sset.identity_map(core)
        return p, q, core, lambda beta, gamma: ident
    if kind == 1:
        action = eq.free_orbit(p + q, corpus.random_space(r, 3))
    else:
        action = eq.sphere_action(p + q)
    return p, q, action.space, lambda beta, gamma: action.act(eq.block_sum(beta, gamma))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_a_balanced_smash_over_several_blocks_matches_its_cellwise_oracle(seed):
    r = random.Random(seed)
    n = r.randint(2, 3)
    ps = sorted(r.sample(range(n + 1), r.randint(2, 3)))
    blocks = [random_block(r, p, n - p) for p in ps]
    bs = eq.balanced_smash(n, blocks)
    assert bs.parts == [(p, n - p, mu) for p in ps for mu in eq.all_shuffles(p, n - p)]
    assert bs.generators == oracle.balanced_smash_generators_cellwise(bs, blocks)
    assert bs.validate()
