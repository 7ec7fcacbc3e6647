"""Nothing a command builds is held in a reference cycle.

``cli.main`` pauses the cyclic garbage collector while a command runs, which
is safe only if reference counting alone frees what the command built.  The
tests here run one small command per subcommand and ask the collector what
it would have found, check that ``main`` leaves the collector as it found
it, and pin the weak caches of the sphere tower that keep levels and sphere
spectra shared without a cycle.
"""

import gc
import types
import weakref

import pytest

from symspec import cli, equivariant as eq, spectra as sp

SMALL_COMMANDS = {
    "validate": ["validate", "sphere", "--bound", "2"],
    "stable-colimit": ["stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "2"],
    "check-lift": ["check-lift", "--i", "sphere", "--p", "identity:sphere", "--bound", "1"],
    "smash": ["smash", "free:0:sphere1", "free:0:sphere1", "--bound", "2"],
    "tensor": ["tensor", "free:0:sphere0", "free:0:sphere0", "--bound", "2"],
    "free": ["free", "--f", "1", "--space", "sphere1", "--bound", "2"],
    "latching": ["latching", "free:0:sphere1", "--n", "2", "--bound", "2"],
    "cofibration": ["cofibration", "free:0:sphere1", "--bound", "2"],
    "pushout-product": [
        "pushout-product", "free:1:sphere1", "free:1:sphere1", "--bound", "2", "--check",
    ],
    "homology": ["homology", "sphere2"],
    "stable-map": ["stable-map", "sphere", "--k", "0", "--bound", "2"],
    "gen-sets": ["gen-sets", "--kind", "boundary", "--levels", "0", "--dims", "1"],
    "cylinder": ["cylinder", "sphere", "--bound", "2"],
}


def _module_of(obj):
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    return type(obj).__module__


def test_every_subcommand_has_a_small_command():
    assert sorted(SMALL_COMMANDS) == sorted(cli.HANDLERS)


@pytest.mark.parametrize("command", sorted(SMALL_COMMANDS))
def test_a_command_leaves_no_garbage_cycles(capsys, command):
    cli.build_parser()
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(SMALL_COMMANDS[command])
        gc.collect()
        ours = [o for o in gc.garbage if _module_of(o).startswith("symspec")]
        kinds = sorted({type(o).__qualname__ for o in ours})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0, capsys.readouterr().err
    assert kinds == []


def _raise(ws, args):
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["exit 0", "input error", "handler raises"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled, outcome):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "exit 0":
            assert cli.main(["homology", "sphere1"]) == 0
        elif outcome == "input error":
            assert cli.main(["homology", "horn:2:3"]) == 2
        else:
            monkeypatch.setitem(cli.HANDLERS, "homology", _raise)
            with pytest.raises(RuntimeError, match="handler failed"):
                cli.main(["homology", "sphere1"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_sphere_and_bar_spectra_are_shared_while_held_and_freed_after():
    tower = eq.SphereTower()
    S, bar = sp.sphere_spectrum(3, tower), sp.bar_sphere(3, tower)
    assert sp.sphere_spectrum(3, tower) is S
    assert sp.bar_sphere(3, tower) is bar
    assert sp.sphere_spectrum(2, tower) is not S
    refs = weakref.ref(S), weakref.ref(bar)
    del S, bar
    assert [r() for r in refs] == [None, None]
    assert sp.sphere_spectrum(3, tower).level(3).validate()


def test_a_level_outlives_its_dropped_tower():
    act = eq.sphere_action(3)
    assert len(act.generators) == 2
    assert act.validate()
    assert act.space is act.tower.space(3)


def test_levels_below_a_held_level_are_shared():
    tower = eq.SphereTower()
    top = tower.action(5)
    assert tower.action(3) is tower.action(3)
    assert tower.action(4) is top.below
