"""The three benchmark workloads and their seeded input files.

A workload is a fixed list of `symspec` command lines.  Operands written as
`@name.json` are input files that `build` writes into a work directory before
any timing starts; everything else is a builtin operand.  The key of a
command is its template joined by spaces, so it names the same computation
whatever work directory the files land in.  `reference.json` maps each key to
the exit code and the sha256 of the stdout recorded for it.

Only `lifting_search` depends on the seed.  Its random pushout-product pairs
come from a fixed pool: slot j pairs subcomplex inclusions into the j-th
ordered pair of `pair_menu()` spaces, each slot has POOL_CHOICES pre-drawn
alternatives of equal cell counts, and the seed picks one alternative per
slot.  Every seed thus runs the same 25 target shapes with subcomplexes of
the same sizes, which keeps the work and memory per run close to constant,
and every command a seed can produce has a recorded reference.
"""

import contextlib
import os
import random
import re
import shutil

from symspec import jsonio, sset

SPECTRA_SMASH = [
    "smash free:0:sphere1 free:0:sphere1 --bound 3",
    "smash free:1:sphere1 free:0:sphere1 --bound 3",
    "latching free:0:sphere1 --n 3 --bound 3",
    "cofibration free:0:sphere2 --bound 3",
    "pushout-product free:1:sphere1 free:1:sphere1 --bound 3 --check",
]

HOMOLOGY_SNF = [
    "homology sphere5",
    "homology boundary:8",
    "stable-colimit --spectrum sphere --k 0 --bound 6",
]

CHECK_LIFTS = [f"check-lift --i horn:4:{k} --p @collapse4.json" for k in range(5)]
CHECK_LIFTS.append("check-lift --i boundary:4 --p @collapse4.json")

POOL_SEED = "symspec-bench-pairs-v1"
POOL_CHOICES = 4


def pair_menu():
    """Small library spaces whose subcomplexes feed the pushout products."""
    return [
        sset.wedge([sset.circle(), sset.circle()], name="S1vS1").space,
        sset.sphere(2),
        sset.delta_plus(2),
        sset.boundary_plus(3),
        sset.horn_plus(3, 1),
    ]


def n_slots():
    return len(pair_menu()) ** 2


def _pair_command(slot, choice):
    stem = f"@pair{slot:02d}{'abcd'[choice]}"
    return f"pushout-product {stem}_f.json {stem}_g.json --check"


def collapse4():
    """Delta[4]+ -> Delta[0]+ sending every non-base simplex to the non-base vertex."""
    D4, D0 = sset.delta_plus(4), sset.delta_plus(0)
    v = next(c for c in D0.cell_ids() if c != D0.basepoint)
    assign = {D4.basepoint: ((), D0.basepoint)}
    for c in D4.cell_ids():
        if c != D4.basepoint:
            assign[c] = sset.base_form(v, D4.dim_of[c])
    return sset.SimplicialMap(D4, D0, assign)


def random_subcomplex_inclusion(rng, X, keep_chance=0.6):
    """A random face-closed subset of the cells of X, as an inclusion map.

    Draws are repeated until the subset holds round(keep_chance * n) of the
    n non-base cells, so every draw for one space costs about the same.
    """
    cells = [c for c in X.cell_ids() if c != X.basepoint]
    size = round(keep_chance * len(cells))
    while True:
        keep = {c for c in cells if rng.random() < keep_chance}
        todo = list(keep)
        while todo:
            for _, t in X.faces.get(todo.pop(), ()):
                if t not in keep and t != X.basepoint:
                    keep.add(t)
                    todo.append(t)
        if len(keep) == size:
            break
    keep.add(X.basepoint)
    kept = {k: tuple(c for c in ids if c in keep) for k, ids in X.cells.items()}
    faces = {c: X.faces[c] for c in keep if c in X.faces}
    A = sset.PointedSimplicialSet(kept, faces, X.basepoint, name=f"sub({X.name})")
    return sset.SimplicialMap(A, X, {c: ((), c) for c in A.cell_ids()})


def pool_pair(slot, choice):
    """The pre-drawn alternative `choice` of pushout-product slot `slot`."""
    menu = pair_menu()
    X, Y = menu[slot // len(menu)], menu[slot % len(menu)]
    rng = random.Random(f"{POOL_SEED}:{slot}:{choice}")
    return random_subcomplex_inclusion(rng, X), random_subcomplex_inclusion(rng, Y)


def templates(workload, seed):
    """The command templates one run of `workload` executes, in order."""
    if workload == "spectra_smash":
        return list(SPECTRA_SMASH)
    if workload == "homology_snf":
        return list(HOMOLOGY_SNF)
    if workload == "lifting_search":
        rng = random.Random(seed)
        return CHECK_LIFTS + [
            _pair_command(slot, rng.randrange(POOL_CHOICES))
            for slot in range(n_slots())
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_templates(workload):
    """Every template any seed can produce, for recording the references."""
    if workload != "lifting_search":
        return templates(workload, 0)
    return CHECK_LIFTS + [
        _pair_command(slot, choice)
        for slot in range(n_slots())
        for choice in range(POOL_CHOICES)
    ]


def _input_file(name):
    if name == "collapse4.json":
        return collapse4()
    slot, choice, side = re.fullmatch(r"pair(\d\d)([a-d])_([fg])\.json", name).groups()
    f, g = pool_pair(int(slot), "abcd".index(choice))
    return f if side == "f" else g


def build(template_list, workdir):
    """Write the input files the templates name; return (key, argv) pairs.

    The files are canonical JSON, so one seed always gives the same bytes.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for key in template_list:
        argv = []
        for token in key.split():
            if token.startswith("@"):
                path = workdir / token[1:]
                if not path.exists():
                    path.write_text(jsonio.canonical(jsonio.dump(_input_file(token[1:]))))
                token = str(path)
            argv.append(token)
        commands.append((key, argv))
    return commands


@contextlib.contextmanager
def work_dir(root, name):
    """A fresh directory for input files under root/.bench_work, removed afterwards."""
    path = root / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            path.parent.rmdir()
