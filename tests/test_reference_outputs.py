"""Every benchmark command prints the bytes recorded for it.

``bench/reference.json`` holds, per workload, the exit code and the sha256
of the stdout of every command the benchmark can run.  Here each command's
input files are written into a temporary directory by ``bench/workloads.py``
and the command runs through ``cli.main`` in this process, so a change that
moves one byte of CLI output fails tier-1 and not only a benchmark run.
Nothing under ``bench/`` is written.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import types

import pytest

from symspec import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _workloads():
    """``bench/workloads.py`` as a module, run without writing a bytecode cache."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def run_command(argv):
    """[exit code, sha256 of stdout] of one CLI call, stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def test_the_reference_covers_every_workload_command():
    workloads = _workloads()
    assert sorted(REFERENCE) == ["homology_snf", "lifting_search", "spectra_smash"]
    for workload, recorded in REFERENCE.items():
        assert sorted(recorded) == sorted(workloads.all_templates(workload))
    assert sum(map(len, REFERENCE.values())) == 114


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_every_command_prints_its_recorded_bytes(tmp_path, monkeypatch, workload):
    for name in ("SYMSPEC_BOUND", "SYMSPEC_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    built = _workloads().build(sorted(REFERENCE[workload]), tmp_path)
    seen = {key: run_command(argv) for key, argv in built}
    assert seen == REFERENCE[workload]
