"""Command line behavior: exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys

import pytest

from symspec import cli, equivariant as eq, jsonio as io, modelcheck as mc, spectra as sp, sset


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out if out else err)


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_sphere(capsys):
    code, data = payload(capsys, "validate", "sphere", "--bound", "2")
    assert code == 0
    assert data["ok"] is True
    assert data["kind"] == "spectrum"
    assert data["failures"] == []


def test_validate_space_file(capsys, tmp_path):
    f = tmp_path / "circle.json"
    f.write_text(io.canonical(io.dump_space(sset.circle())))
    code, data = payload(capsys, "validate", str(f))
    assert code == 0 and data["ok"] is True and data["kind"] == "space"


def test_validate_rejects_broken_face(capsys, tmp_path):
    d = io.dump_space(sset.delta_plus(1))
    edge = next(iter(d["faces"]))
    d["faces"][edge] = [[[0], d["basepoint"]]] + d["faces"][edge][1:]
    f = tmp_path / "bad.json"
    f.write_text(io.canonical(d))
    code, data = payload(capsys, "validate", str(f))
    assert code == 1
    assert data["ok"] is False
    assert "reason" in data


def test_validate_names_a_face_on_a_missing_cell(capsys, tmp_path):
    d = io.dump_space(sset.delta_plus(1))
    edge = d["cells"]["1"][0]
    d["faces"][edge] = [[[], "99"]] + d["faces"][edge][1:]
    f = tmp_path / "missing.json"
    f.write_text(io.canonical(d))
    code, data = payload(capsys, "validate", str(f))
    assert code == 1
    assert data == {
        "type": "validation_report",
        "ok": False,
        "reason": f"{f}: not a simplicial set (IdentityError: cell '{edge}': "
        "d_0 names a cell fails, ((), '99') != None)",
    }


@pytest.mark.parametrize("token", ["{}", "free:0:{}"])
def test_validate_unreadable_file_is_input_error(capsys, tmp_path, token):
    # only a file that parses and fails validation refutes the property
    missing = tmp_path / "nonexistent.json"
    code, out, err = run(capsys, "validate", token.format(missing))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"cannot read {missing}: ")
    assert run(capsys, "homology", str(missing))[::2] == (code, err)


def test_broken_identity_is_rejected_in_optimized_mode(tmp_path):
    # d_1 and d_2 of the 2-simplex swapped: without its checks, -O let
    # `validate` answer ok and `homology` fail with a traceback
    d = io.dump_space(sset.delta_plus(2))
    top = d["cells"]["2"][0]
    d0, d1, d2 = d["faces"][top]
    d["faces"][top] = [d0, d2, d1]
    f = tmp_path / "swapped.json"
    f.write_text(io.canonical(d))
    src = os.path.dirname(os.path.dirname(sset.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run_optimized(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "symspec", *argv, str(f)],
            capture_output=True, text=True, env=env,
        )

    reason = (
        f"{f}: not a simplicial set (IdentityError: cell '{top}': "
        "d_0 d_1 = d_0 d_0 fails, ((), '2') != ((), '3'))"
    )
    proc = run_optimized("validate")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "type": "validation_report", "ok": False, "reason": reason
    }
    proc = run_optimized("homology")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": reason}


def validate_optimized(path):
    src = os.path.dirname(os.path.dirname(sset.__file__))
    return subprocess.run(
        [sys.executable, "-O", "-m", "symspec", "validate", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


def test_broken_structure_square_is_rejected_in_optimized_mode(tmp_path):
    # level 2 twisted by a transposition: levelwise equivariant, but the
    # square at level 1 fails; without its checks, -O answered ok
    tower = eq.SphereTower()
    S = sp.sphere_spectrum(2, tower)
    twist = tower.action(2).act(eq.transposition(2, 0))
    comps = [sset.identity_map(S.space(0)), sset.identity_map(S.space(1)), twist]
    f = tmp_path / "twisted.json"
    f.write_text(io.canonical(io.dump(sp.SpectrumMap(S, S, comps))))
    proc = validate_optimized(f)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "type": "validation_report",
        "ok": False,
        "reason": f"{f}: components do not commute with sigma (IdentityError: "
        "cell 2: level 1: f sigma = sigma (1 ^ f) fails, ((), '3') != ((), '2'))",
    }


def test_broken_group_relation_is_rejected_in_optimized_mode(tmp_path):
    # a constant Sigma_2 generator is simplicial but not an involution;
    # without its checks, -O answered ok
    X = sset.circle()
    f = tmp_path / "constant.json"
    f.write_text(io.canonical(io.dump(eq.EquivariantSpace(X, 2, [sset.constant_map(X, X)]))))
    proc = validate_optimized(f)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "type": "validation_report",
        "ok": False,
        "reason": f"{f}: group relations fail (IdentityError: "
        "cell '1': t_0 t_0 = 1 fails, ((0,), '0') != ((), '1'))",
    }


# The identity of Delta[1]+ with its edge (cell 3, faces 2 and 1) sent to
# s_0 of vertex 1: every dimension matches, but d_0 fails at the edge.
EDGE_FAILURE = "(IdentityError: cell '3': f(d_0 c) = d_0 f(c) fails, ((), '2') != ((), '1'))"


def broken_map_files(tmp_path):
    X = sset.delta_plus(1)
    plain = io.dump(sset.identity_map(X))
    plain["assign"]["3"] = [[0], "1"]
    F = sp.free_F(0, X, 1, eq.SphereTower())
    levelwise = io.dump(sp.identity_spectrum_map(F))
    levelwise["levels"][0]["3"] = [[0], "1"]
    acting = io.dump(eq.trivial_action(X, 2))
    acting["generators"][0]["3"] = [[0], "1"]
    out = []
    for name, data, where in (
        ("map", plain, ""),
        ("spectrum_map", levelwise, ".levels[0]"),
        ("equivariant", acting, ".generators[0]"),
    ):
        f = tmp_path / f"{name}.json"
        f.write_text(io.canonical(data))
        out.append((f, f"{f}{where}: not a simplicial map {EDGE_FAILURE}"))
    return out


def test_rejected_map_names_the_failing_cell(capsys, tmp_path):
    for f, reason in broken_map_files(tmp_path):
        code, data = payload(capsys, "validate", str(f))
        assert code == 1
        assert data == {"type": "validation_report", "ok": False, "reason": reason}


def test_rejected_map_names_the_failing_cell_in_optimized_mode(tmp_path):
    for f, reason in broken_map_files(tmp_path):
        proc = validate_optimized(f)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout) == {
            "type": "validation_report", "ok": False, "reason": reason
        }


def pinched_sphere(word):
    """S^2 as one 2-cell on a vertex v, with d_2 = s_word v."""
    return {
        "type": "space",
        "name": "S2",
        "basepoint": "*",
        "cells": {"0": ["*", "v"], "2": ["t"]},
        "faces": {"t": [[[0], "v"], [[0], "v"], [word, "v"]]},
    }


def validate_file(capsys, tmp_path, data):
    f = tmp_path / "input.json"
    f.write_text(io.canonical(data))
    code, report = payload(capsys, "validate", str(f))
    return f, code, report


def test_validate_takes_the_pinched_sphere(capsys, tmp_path):
    _, code, report = validate_file(capsys, tmp_path, pinched_sphere([0]))
    assert (code, report["ok"]) == (0, True)


@pytest.mark.parametrize("word", [[1], [5], [-1]])
def test_validate_names_a_face_word_out_of_range(capsys, tmp_path, word):
    # s_1, s_5 and s_-1 are no degeneracies of a vertex; the face table of
    # the vertex used to be read for them, raising a bare KeyError
    f, code, report = validate_file(capsys, tmp_path, pinched_sphere(word))
    assert code == 1
    assert report["reason"] == (
        f"{f}: not a simplicial set (IdentityError: cell 't': d_2 has its "
        f"degeneracies within 0..0 fails, (({word[0]},), 'v') != None)"
    )


@pytest.mark.parametrize(
    "image, what",
    [
        ([[], "zz"], "names a cell fails, ((), 'zz') != None"),
        ([[1], "0"], "has its degeneracies within 0..0 fails, ((1,), '0') != None"),
        ([[], "0"], "has dimension 1 fails, 0 != 1"),
    ],
)
def test_validate_names_a_map_image_that_is_no_simplex(capsys, tmp_path, image, what):
    data = io.dump(sset.identity_map(sset.circle()))
    data["assign"]["1"] = image
    f, code, report = validate_file(capsys, tmp_path, data)
    assert code == 1
    assert report["reason"] == (
        f"{f}: not a simplicial map (IdentityError: cell '1': f(c) {what})"
    )


def test_validate_rejects_json_booleans_as_integers(capsys, tmp_path):
    # bool is a subclass of int: a face word [false] used to pass for [0]
    # and come back out as [false] in a check-lift witness
    S = sp.sphere_spectrum(1, eq.SphereTower())
    spectrum = io.dump(S)
    cases = [
        (pinched_sphere([False]), "faces[t][2]: degeneracy word must be a list of integers"),
        ({**io.dump(eq.trivial_action(sset.circle(), 1)), "n": True},
         "field 'n' has the wrong type"),
        ({**spectrum, "bound": True}, "field 'bound' has the wrong type"),
    ]
    for data, reason in cases:
        f, code, report = validate_file(capsys, tmp_path, data)
        assert code == 1
        assert report == {
            "type": "validation_report", "ok": False, "reason": f"{f}: {reason}"
        }


def test_malformed_json_reports_position(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"type": "space", "cells": }')
    code, data = payload(capsys, "homology", str(f))
    assert code == 2
    assert data["line"] == 1
    assert data["column"] == 28
    assert data["position"] == 27


def test_invalid_object_is_input_error_outside_validate(capsys, tmp_path):
    d = io.dump_space(sset.delta_plus(1))
    edge = next(iter(d["faces"]))
    d["faces"][edge] = [[[0], d["basepoint"]]] + d["faces"][edge][1:]
    f = tmp_path / "bad.json"
    f.write_text(io.canonical(d))
    code, data = payload(capsys, "homology", str(f))
    assert code == 2 and "error" in data


def test_unknown_operand(capsys):
    code, data = payload(capsys, "homology", "nosuchthing")
    assert code == 2 and "error" in data


# ---------------------------------------------------------------------------
# construction commands and round trips


def test_free_round_trip(capsys, tmp_path):
    out = tmp_path / "f1s1.json"
    code, _, _ = run(
        capsys, "free", "--f", "1", "--space", "sphere1", "--bound", "2",
        "-o", str(out),
    )
    assert code == 0
    loaded = io.load(json.loads(out.read_text()))
    reference = sp.free_F(1, sset.circle(), 2, eq.SphereTower())
    for n in range(3):
        assert sset.find_isomorphism(loaded.space(n), reference.space(n))


def test_smash_of_circles_is_two_sphere(capsys):
    code, data = payload(capsys, "smash", "sphere1", "sphere1")
    assert code == 0
    assert sset.find_isomorphism(io.load(data), sset.sphere(2))


def test_smash_spectrum_with_space(capsys):
    code, data = payload(capsys, "smash", "free:0:sphere0", "sphere1", "--bound", "1")
    assert code == 0
    assert data["type"] == "spectrum"
    io.load(data)


@pytest.mark.parametrize("n", [0, 1])
def test_smash_resolves_a_repeated_operand_once(capsys, monkeypatch, n):
    free_F = sp.free_F
    built = []

    def counted(*args):
        built.append(args)
        return free_F(*args)

    monkeypatch.setattr(sp, "free_F", counted)
    token = f"free:{n}:sphere1"
    code, out, _ = run(capsys, "smash", token, token, "--bound", "3")
    assert code == 0
    assert len(built) == 1
    # the bytes of the smash of two separately built copies of the operand
    tower = eq.SphereTower()
    copies = [free_F(n, sset.sphere(1), 3, tower) for _ in range(2)]
    assert out == io.canonical(io.dump_spectrum(sp.smash_spectra(*copies)))


def test_tensor_output_loads(capsys):
    code, data = payload(
        capsys, "tensor", "free:0:sphere0", "free:0:sphere0", "--bound", "2"
    )
    assert code == 0
    assert data["type"] == "sequence"
    seq = io.load(data)
    assert seq.bound == 2


def test_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "free", "--f", "1", "--space", "sphere1", "--bound", "2")
    _, out2, _ = run(capsys, "free", "--f", "1", "--space", "sphere1", "--bound", "2")
    assert out1 == out2


def test_deterministic_bytes_from_loaded_input(capsys, tmp_path):
    out = tmp_path / "f.json"
    run(capsys, "free", "--f", "0", "--space", "sphere1", "--bound", "1", "-o", str(out))
    _, out1, _ = run(capsys, "smash", str(out), str(out), "--bound", "1")
    _, out2, _ = run(capsys, "smash", str(out), str(out), "--bound", "1")
    assert out1 == out2


def test_no_floats_in_outputs(capsys):
    for argv in (
        ("homology", "sphere2"),
        ("stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "2"),
        ("free", "--f", "0", "--space", "sphere0", "--bound", "1"),
    ):
        _, data = payload(capsys, *argv)
        assert no_floats(data), argv


def test_human_mode_same_json(capsys):
    _, compact, _ = run(capsys, "homology", "sphere2")
    _, pretty, _ = run(capsys, "homology", "sphere2", "--human")
    assert pretty != compact
    assert json.loads(pretty) == json.loads(compact)


# ---------------------------------------------------------------------------
# reports


def test_homology_builtin_spaces(capsys):
    code, data = payload(capsys, "homology", "sphere2")
    assert code == 0
    assert data["groups"] == [
        {"k": 0, "rank": 0, "torsion": []},
        {"k": 1, "rank": 0, "torsion": []},
        {"k": 2, "rank": 1, "torsion": []},
    ]
    code, data = payload(capsys, "homology", "boundary:2", "--max-dim", "1")
    assert code == 0
    assert data["groups"][1] == {"k": 1, "rank": 1, "torsion": []}
    code, data = payload(capsys, "homology", "hz-level:1")
    assert data["groups"][1]["rank"] == 1


def test_stable_colimit_free_spectrum(capsys):
    code, data = payload(
        capsys, "stable-colimit", "--spectrum", "free:1:sphere1", "--k", "0",
        "--bound", "3",
    )
    assert code == 0
    assert [lv["rank"] for lv in data["levels"]] == [0, 1, 2, 3]
    assert data["stabilized"] is False


def test_stable_colimit_of_the_sphere_builds_no_sphere_generators(capsys, monkeypatch):
    generators = eq.SphereTower._generators
    built = []

    def counted(tower, n):
        built.append(n)
        return generators(tower, n)

    monkeypatch.setattr(eq.SphereTower, "_generators", counted)
    code, data = payload(
        capsys, "stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "4"
    )
    assert code == 0 and data["stabilized"] is True
    assert built == []


def test_stable_colimit_sphere_stabilizes(capsys):
    code, data = payload(
        capsys, "stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "3"
    )
    assert code == 0
    assert data["stabilized"] is True
    assert all(lv["rank"] == 1 and lv["torsion"] == [] for lv in data["levels"])
    assert data["interpretation"] == "homology-only"


def test_stable_map_lambda(capsys, tmp_path):
    lam = sp.lambda_map(0, 3, eq.SphereTower())
    f = tmp_path / "lam.json"
    f.write_text(io.canonical(io.dump_spectrum_map(lam)))
    code, data = payload(capsys, "stable-map", str(f), "--k", "0")
    assert code == 0
    assert data["verdict"] == "not"
    assert data["maps"][1] == [[1]]
    assert data["maps"][2] == [[1, -1]]


def test_latching_of_free_spectrum_is_point_at_its_degree(capsys):
    code, data = payload(
        capsys, "latching", "free:1:sphere0", "--n", "1", "--bound", "2"
    )
    assert code == 0
    latch = io.load(data["latching"])
    assert sset.is_pointlike(latch.space)
    comparison = io.load(data["comparison"])
    assert comparison.is_valid()


def test_latching_bad_level_is_input_error(capsys):
    code, data = payload(capsys, "latching", "free:0:sphere0", "--n", "7", "--bound", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# property-deciding commands: exit 1 carries the refutation


def test_check_lift_yes(capsys):
    code, data = payload(
        capsys, "check-lift", "--i", "horn:1:0", "--p", "identity:sphere1"
    )
    assert code == 0
    assert data["verdict"] == "yes" and data["witness"] is None


def reversed_interval_fixture(tmp_path):
    ends = sset.PointedSimplicialSet({0: (0, 1)}, {}, 0, name="ends")
    fwd = sset.PointedSimplicialSet(
        {0: (0, 1), 1: (2,)}, {2: (((), 0), ((), 1))}, 0, name="I"
    )
    rev = sset.PointedSimplicialSet(
        {0: (0, 1), 1: (2,)}, {2: (((), 1), ((), 0))}, 0, name="R"
    )
    i = sset.SimplicialMap(ends, fwd, {0: ((), 0), 1: ((), 1)})
    p = sset.constant_map(rev, sset.point())
    fi = tmp_path / "i.json"
    fp = tmp_path / "p.json"
    fi.write_text(io.canonical(io.dump_map(i)))
    fp.write_text(io.canonical(io.dump_map(p)))
    return fi, fp


def test_check_lift_no_with_witness(capsys, tmp_path):
    fi, fp = reversed_interval_fixture(tmp_path)
    code, data = payload(capsys, "check-lift", "--i", str(fi), "--p", str(fp))
    assert code == 1
    assert data["verdict"] == "no"
    top = io.load(data["witness"]["top"])
    assert top.is_valid()
    # the unlifted square sends the free endpoint across the reversed edge
    src = top.source
    nonbase = next(c for c in src.cell_ids() if c != src.basepoint)
    assert top.assign[nonbase][1] != top.target.basepoint


def test_check_lift_budget_exceeded(capsys, tmp_path):
    fi, fp = reversed_interval_fixture(tmp_path)
    code, data = payload(
        capsys, "check-lift", "--i", str(fi), "--p", str(fp), "--budget", "3"
    )
    assert code == 3
    assert data["verdict"] == "budget exceeded"


def collapse4():
    """Delta[4]+ -> Delta[0]+ sending every non-base simplex to the non-base vertex."""
    D4, D0 = sset.delta_plus(4), sset.delta_plus(0)
    v = next(c for c in D0.cell_ids() if c != D0.basepoint)
    assign = {D4.basepoint: ((), D0.basepoint)}
    for c in D4.cell_ids():
        if c != D4.basepoint:
            assign[c] = sset.base_form(v, D4.dim_of[c])
    return sset.SimplicialMap(D4, D0, assign)


@pytest.mark.parametrize(
    "i, checked",
    [(f"horn:4:{k}", 773794) for k in range(5)] + [("boundary:4", 782811)],
)
def test_check_lift_probe_counts_are_frozen(capsys, tmp_path, i, checked):
    # the printed probe count is part of the output contract
    fp = tmp_path / "collapse4.json"
    fp.write_text(io.canonical(io.dump_map(collapse4())))
    code, data = payload(capsys, "check-lift", "--i", i, "--p", str(fp))
    assert code == 0
    assert data == {
        "type": "lifting_report", "verdict": "yes", "checked": checked,
        "witness": None,
    }


def test_check_lift_mixed_categories_rejected(capsys):
    code, data = payload(
        capsys, "check-lift", "--i", "boundary:1", "--p", "identity:sphere",
        "--bound", "1",
    )
    assert code == 2


def test_cofibration_free_spectrum(capsys):
    code, data = payload(capsys, "cofibration", "free:1:sphere0", "--bound", "2")
    assert code == 0
    assert data["overall"] is True
    assert all(lv["monomorphism"] and lv["acts_freely"] for lv in data["levels"])


def test_cofibration_space_map_refuted(capsys, tmp_path):
    fold = sset.constant_map(sset.circle(), sset.point())
    f = tmp_path / "fold.json"
    f.write_text(io.canonical(io.dump_map(fold)))
    code, data = payload(capsys, "cofibration", str(f))
    assert code == 1
    assert data["overall"] is False


def test_pushout_product_corner_loads(capsys):
    code, data = payload(capsys, "pushout-product", "boundary:1", "boundary:1")
    assert code == 0
    corner = io.load(data)
    assert corner.is_valid()
    assert corner.is_monomorphism()


def test_pushout_product_check_report(capsys):
    code, data = payload(
        capsys, "pushout-product", "boundary:1", "boundary:1", "--check"
    )
    assert code == 0
    assert data["check"]["clauses"]["monomorphism"]["confirmed"] is True


@pytest.mark.parametrize("argv", [
    ["boundary:1", "boundary:1"],
    ["free:0:sphere1", "boundary:1", "--bound", "2"],
])
def test_pushout_product_check_builds_the_corner_once(capsys, monkeypatch, argv):
    built = []
    pushout_product = sp.pushout_product

    def counted(f, g):
        built.append((f, g))
        return pushout_product(f, g)

    monkeypatch.setattr(sp, "pushout_product", counted)
    assert run(capsys, "pushout-product", *argv, "--check")[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv,calls", [
    (["free:1:sphere1", "free:1:sphere1"], 2),
    (["free:1:sphere1", "free:0:sphere1"], 3),
])
def test_pushout_product_check_flags_a_repeated_operand_once(capsys, monkeypatch, argv, calls):
    checked = []
    stable_cofibration_check = mc.stable_cofibration_check

    def counted(f):
        checked.append(f)
        return stable_cofibration_check(f)

    monkeypatch.setattr(mc, "stable_cofibration_check", counted)
    assert run(capsys, "pushout-product", *argv, "--bound", "2", "--check")[0] == 0
    assert len(checked) == calls


_SPACE_CHECK_KEYS = ["clauses", "corner_kind", "corner_monomorphism", "f", "g"]
_SPECTRUM_CHECK_KEYS = sorted(_SPACE_CHECK_KEYS + ["corner_stable_cofibration"])
_SPECTRUM_CLAUSES = ["level_equivalence", "monomorphism", "stable_cofibration"]


@pytest.mark.parametrize("argv,keys,clauses", [
    (["boundary:1", "boundary:1"], _SPACE_CHECK_KEYS, ["monomorphism"]),
    (["free:1:sphere0", "free:1:sphere0", "--bound", "2"],
     _SPECTRUM_CHECK_KEYS, _SPECTRUM_CLAUSES),
    (["free:0:sphere1", "boundary:1", "--bound", "2"],
     _SPECTRUM_CHECK_KEYS, _SPECTRUM_CLAUSES),
])
def test_pushout_product_check_reports_the_printed_corner(capsys, argv, keys, clauses):
    code, plain, _ = run(capsys, "pushout-product", *argv)
    assert code == 0
    code, checked = payload(capsys, "pushout-product", *argv, "--check")
    assert code == 0
    assert io.canonical(checked["corner"]) == plain
    assert sorted(checked["check"]) == keys
    assert sorted(checked["check"]["clauses"]) == clauses


# ---------------------------------------------------------------------------
# the rest of the surface


def test_gen_sets_boundary(capsys):
    code, data = payload(
        capsys, "gen-sets", "--kind", "boundary", "--levels", "0", "--dims", "1"
    )
    assert code == 0
    assert data["count"] == 2
    for m in data["maps"]:
        io.load(m)


def test_cylinder_report(capsys, tmp_path):
    lam = sp.lambda_map(0, 2, eq.SphereTower())
    f = tmp_path / "lam.json"
    f.write_text(io.canonical(io.dump_spectrum_map(lam)))
    code, data = payload(capsys, "cylinder", str(f))
    assert code == 0
    for key in ("cylinder", "front_inclusion", "projection", "target_inclusion"):
        assert key in data
    cyl = io.load(data["cylinder"])
    assert cyl.bound == 2
    front = io.load(data["front_inclusion"])
    assert all(front.level(n).is_monomorphism() for n in range(3))


def test_env_bound_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SYMSPEC_BOUND", "2")
    _, data = payload(capsys, "free", "--f", "0", "--space", "sphere0")
    assert data["bound"] == 2
    _, data = payload(capsys, "free", "--f", "0", "--space", "sphere0", "--bound", "1")
    assert data["bound"] == 1


def test_env_bound_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("SYMSPEC_BOUND", "three")
    code, data = payload(capsys, "free", "--f", "0", "--space", "sphere0")
    assert code == 2


def test_negative_free_degree_is_rejected(capsys):
    code, out, err = run(capsys, "free", "--f", "-1", "--space", "point")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "free degree -1 is negative"}


def dump_bounds(tmp_path, *bounds):
    """F_0(S^0) and its identity map at each bound, as files."""
    files = []
    for N in bounds:
        F = sp.free_F(0, sset.zero_sphere(), N, eq.SphereTower())
        spec, ident = tmp_path / f"F{N}.json", tmp_path / f"id{N}.json"
        spec.write_text(io.canonical(io.dump_spectrum(F)))
        ident.write_text(io.canonical(io.dump_spectrum_map(sp.identity_spectrum_map(F))))
        files.append((str(spec), str(ident)))
    return files


@pytest.mark.parametrize(
    "command", ["smash", "tensor", "check-lift", "pushout-product"]
)
def test_unequal_bounds_are_an_input_error(capsys, tmp_path, command):
    (spec1, id1), (spec2, id2) = dump_bounds(tmp_path, 1, 2)
    operands = {
        "smash": [spec1, spec2],
        "tensor": [spec1, spec2],
        "check-lift": ["--i", id1, "--p", id2],
        "pushout-product": [id1, id2],
    }[command]
    code, out, err = run(capsys, command, *operands)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"{command} needs equal bounds, got 1 and 2"}


def test_equal_bounds_pass_the_bound_check(capsys, tmp_path):
    ((spec, ident),) = dump_bounds(tmp_path, 1)
    assert run(capsys, "smash", spec, spec)[0] == 0
    assert run(capsys, "check-lift", "--i", ident, "--p", ident)[0] == 0
    assert run(capsys, "pushout-product", ident, ident)[0] == 0


@pytest.mark.parametrize("argv", [
    ["validate", "free:0:{}"],
    ["cofibration", "free:0:{}", "--bound", "2"],
    ["stable-colimit", "--spectrum", "free:1:{}", "--k", "0", "--bound", "2"],
    ["check-lift", "--i", "boundary:1", "--p", "identity:{}"],
    ["pushout-product", "identity:{}", "boundary:1"],
])
def test_builtin_operand_may_name_a_space_file(capsys, tmp_path, argv):
    circle = tmp_path / "c1.json"
    circle.write_text(io.canonical(io.dump_space(sset.sphere(1))))
    from_file = run(capsys, *[a.format(circle) for a in argv])
    assert from_file[0] == 0
    assert from_file == run(capsys, *[a.format("sphere1") for a in argv])


def test_identity_operand_may_name_a_spectrum_file(capsys, tmp_path):
    ((spec, ident),) = dump_bounds(tmp_path, 1)
    by_name = run(capsys, "pushout-product", f"identity:{spec}", f"identity:{spec}")
    assert by_name[0] == 0
    assert by_name == run(capsys, "pushout-product", ident, ident)


@pytest.mark.parametrize("argv", [
    ["cofibration", "{}", "--bound", "2"],
    ["pushout-product", "{}", "{}", "--bound", "2", "--check"],
])
def test_map_operand_may_name_a_spectrum_file(capsys, tmp_path, argv):
    # a spectrum file names the map pt -> X, as the builtin token does
    code, out, _ = run(capsys, "free", "--f", "1", "--space", "sphere1", "--bound", "2")
    assert code == 0
    spec = tmp_path / "spec.json"
    spec.write_text(out)
    from_file = run(capsys, *[a.format(spec) for a in argv])
    assert from_file[0] == 0
    assert from_file == run(capsys, *[a.format("free:1:sphere1") for a in argv])


def test_sphere_as_a_map_is_the_point_into_the_sphere(capsys):
    by_name = run(capsys, "cofibration", "sphere", "--bound", "3")
    assert by_name[0] == 0
    assert by_name == run(capsys, "cofibration", "free:0:sphere0", "--bound", "3")


@pytest.mark.parametrize("argv,kind", [
    (["stable-map", "sphere", "--k", "0"], "stable_map_report"),
    (["cylinder", "sphere"], "cylinder_report"),
])
def test_sphere_resolves_as_a_map(capsys, argv, kind):
    code, data = payload(capsys, *argv)
    assert (code, data["type"]) == (0, kind)


@pytest.mark.parametrize("argv", [
    ["homology", "horn:2:3"],
    ["check-lift", "--i", "horn:2:3", "--p", "identity:sphere1"],
])
def test_horn_range_is_checked_for_spaces_and_maps(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "horn:2:3: horn indices out of range"}


@pytest.mark.parametrize("flag,value", [("--levels", "-1"), ("--dims", "-2")])
def test_gen_sets_rejects_negative_sizes(capsys, flag, value):
    sizes = {"--levels": "0", "--dims": "1", flag: value}
    argv = ["gen-sets", "--kind", "boundary"] + [x for kv in sizes.items() for x in kv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"gen-sets {flag} {value} is negative"}


def test_gen_sets_help_names_its_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-sets", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "built at bound levels + 1, so --bound does not apply" in text


_REQUIRED_ARGS = {
    "validate": ["x"],
    "stable-colimit": ["--spectrum", "x", "--k", "0"],
    "check-lift": ["--i", "x", "--p", "y"],
    "smash": ["x", "y"],
    "tensor": ["x", "y"],
    "free": ["--f", "0", "--space", "x"],
    "latching": ["x", "--n", "0"],
    "cofibration": ["x"],
    "pushout-product": ["x", "y"],
    "homology": ["x"],
    "stable-map": ["x", "--k", "0"],
    "gen-sets": ["--kind", "boundary", "--levels", "0", "--dims", "0"],
    "cylinder": ["x"],
}


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_every_subcommand_parses_the_shared_options(command):
    shared = ["-o", "out.json", "--human", "--bound", "2", "--budget", "7"]
    args = cli.build_parser().parse_args([command, *_REQUIRED_ARGS[command], *shared])
    assert args.command == command
    assert (args.out, args.human, args.bound, args.budget) == ("out.json", True, 2, 7)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_called_twice_prints_what_two_processes_print(capsys):
    calls = [
        ["stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "3", "--human"],
        ["stable-colimit", "--spectrum", "sphere", "--k", "0", "--bound", "2"],
    ]
    in_process = [run(capsys, *argv)[1] for argv in calls]
    src = os.path.dirname(os.path.dirname(sset.__file__))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "symspec", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        for argv in calls
    ]
    assert in_process == separate
    assert in_process[0] != in_process[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symspec", "validate", "sphere", "--bound", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
