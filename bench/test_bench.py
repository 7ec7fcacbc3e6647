"""Tests of the benchmark's own parts: the trace reducer, inputs and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reduce  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, run_id=0, counts=None):
    return [name, start, end, parent, run_id, counts]


# root [0, 10] with children [1, 4] and [5, 9]; [1, 4] holds [2, 3] and
# [5, 9] holds [6, 7] and [7, 8.5]
TREE = [
    span("cli.main", 0.0, 10.0, -1),
    span("sset.smash", 1.0, 4.0, 0, counts={"cells": 7}),
    span("sset.product", 2.0, 3.0, 1, counts={"cells": 9}),
    span("spectra.smash_spectra", 5.0, 9.0, 0, counts={"cells": 3}),
    span("symseq.tensor", 6.0, 7.0, 3, counts={"cells": 10}),
    span("symseq.tensor", 7.0, 8.5, 3, counts={"cells": 20}),
]


def test_self_time_subtracts_the_children():
    assert reduce.self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_add_up_to_the_root_duration():
    assert sum(reduce.self_times(TREE)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("jsonio.dump", 1.0, 6.0, 0),
        span("jsonio.dump", 4.0, 8.0, 0),
    ]
    assert reduce.self_times(spans)[0] == pytest.approx(3.0)


def test_parent_in_another_run_is_rejected():
    with pytest.raises(ValueError):
        reduce.self_times([span("cli.main", 0, 1, -1, 0), span("sset.smash", 0.2, 0.4, 0, 1)])


def test_layer_metrics_of_the_hand_built_tree():
    m = reduce.layer_metrics(TREE)
    assert m["sset.smash.self_s"] == pytest.approx(2.0)
    assert m["sset.smash.calls"] == 1
    assert m["sset.smash.cells"] == 7
    assert m["symseq.tensor.calls"] == 2
    assert m["symseq.tensor.self_s"] == pytest.approx(2.5)
    assert m["spectra.smash_spectra.self_s"] == pytest.approx(1.5)
    assert m["spectra.smash_spectra.kept_ratio"] == pytest.approx(3 / 30)
    assert m["sset.self_frac"] == pytest.approx(0.3)
    assert m["cli.self_frac"] == pytest.approx(0.3)
    assert m["modelcheck.probe_yield"] == 0.0


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = set(reduce.layer_metrics([])) | {"trace_overhead_frac"}
    assert set(per_layer) == names
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_every_traced_name_exists():
    for module, paths in tracer.TRACED.items():
        for path in paths:
            owner, _, attr = path.rpartition(".")
            assert hasattr(getattr(module, owner) if owner else module, attr), path
    for module, paths in tracer.GROUPED.values():
        for path in paths:
            assert hasattr(module, path), path


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_the_same_files(tmp_path):
    a = workloads.build(workloads.templates("lifting_search", 11), tmp_path / "a")
    b = workloads.build(workloads.templates("lifting_search", 11), tmp_path / "b")
    assert [key for key, _ in a] == [key for key, _ in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    c = workloads.build(workloads.templates("lifting_search", 12), tmp_path / "c")
    assert [key for key, _ in a] != [key for key, _ in c]


def test_every_seeded_command_has_a_reference():
    refs = json.loads(run.REFERENCE.read_text())
    for workload in run.WORKLOADS:
        assert set(workloads.all_templates(workload)) == set(refs[workload])
        for seed in range(20):
            assert set(workloads.templates(workload, seed)) <= set(refs[workload])


def test_tracing_leaves_the_output_unchanged():
    argv = ["pushout-product", "boundary:1", "boundary:1", "--check"]
    _, _, plain = run.launch([argv], False, "1", timeout=120)
    _, _, traced = run.launch([argv], True, "1", timeout=120)
    assert traced["results"] == plain["results"]
    names = {s[0] for s in traced["spans"]}
    assert {"cli.main", "cli.cmd_pushout_product", "spectra.pushout_product",
            "sset.smash", "jsonio.canonical"} <= names
    roots = [s[0] for s in traced["spans"] if s[3] < 0 and s[0] != "speed.probe"]
    assert roots == ["cli.main"]


def test_normalized_time_scales_by_the_probe_speed():
    half_speed = [2 * speed.REFERENCE_S] * 3
    assert speed.normalized(8.0, half_speed) == pytest.approx(4.0)
    assert speed.normalized(8.0, [speed.REFERENCE_S]) == pytest.approx(8.0)
