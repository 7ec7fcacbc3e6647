"""Checks that must survive `python -O` are written without `assert`.

An assert vanishes under -O, so a validator built on one waves a broken
input through.  The modules below are assert-free and stay that way; in
the others, the functions named here are.
"""

import ast
import os

import pytest

import symspec

SRC = os.path.dirname(symspec.__file__)

ASSERT_FREE_MODULES = [
    "cli.py",
    "equivariant.py",
    "jsonio.py",
    "homology.py",
    "modelcheck.py",
    "sset.py",
    "spectra.py",
    "symseq.py",
]

ASSERT_FREE_FUNCTIONS = {
    "sset.py": [
        "PointedSimplicialSet.validate",
        "WedgeResult.map_out",
        "first_preimages",
        "descend",
        "map_out_of_pushout",
    ],
    "spectra.py": [
        "SmashSpectrum.__init__",
        "SmashSpectrum._build_sigma",
        "pushout_spectrum",
        "pushout_spectrum.build",
    ],
}


def parse(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def assert_lines(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def find_function(tree, dotted):
    scope = tree
    for name in dotted.split("."):
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        )
    return scope


@pytest.mark.parametrize("module", ASSERT_FREE_MODULES)
def test_module_has_no_assert(module):
    assert assert_lines(parse(module)) == []


@pytest.mark.parametrize(
    "module, function",
    [(m, f) for m, fs in ASSERT_FREE_FUNCTIONS.items() for f in fs],
)
def test_function_has_no_assert(module, function):
    assert assert_lines(find_function(parse(module), function)) == []


def test_the_scan_sees_an_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0\n")
    assert assert_lines(find_function(tree, "f")) == [3]
