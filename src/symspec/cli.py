"""Command line front end.

Operands are JSON files or builtin names; builtins are resolved by what the
command expects in that position, so boundary:2 names the space in
`homology boundary:2` and the inclusion into the simplex in
`check-lift --i boundary:2 ...`.  Builtins are matched before files, so
free:0:K.json is the free spectrum on the space in K.json.

Exit codes: 0 success or property confirmed, 1 property refuted, 2 input
error, 3 search budget exceeded.  Output is deterministic canonical JSON;
--human pretty-prints the same JSON.
"""

import argparse
import functools
import gc
import json
import os
import re
import sys

from . import equivariant as eq
from . import homology as hl
from . import jsonio as io
from . import modelcheck as mc
from . import spectra as sp
from . import sset
from . import symseq as sq


class InputError(Exception):
    """Bad operand, bad file, or bad configuration; rendered as JSON on stderr."""

    def __init__(self, payload):
        if isinstance(payload, str):
            payload = {"error": payload}
        self.payload = payload
        super().__init__(payload.get("error", "input error"))


class InvalidFileError(InputError):
    """A file that parses as JSON but does not hold a valid object."""


class Workspace:
    """Shared circle tower plus the bound/budget configuration.

    Everything resolved in one invocation lives on one tower, so spectra
    from different operands can be smashed and mapped without identity
    mismatches.
    """

    def __init__(self, bound, budget):
        if bound < 0:
            raise InputError("the level bound must be nonnegative")
        if budget < 1:
            raise InputError("the search budget must be positive")
        self.bound = bound
        self.budget = budget
        self.tower = eq.SphereTower()


def _int_setting(flag_value, env_name, fallback):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env_name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{env_name} must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# operand resolution

_SPHERE_N = re.compile(r"^sphere(\d+)$")
_FREE = re.compile(r"^free:(\d+):(.+)$")
_BOUNDARY = re.compile(r"^boundary:(\d+)$")
_HORN = re.compile(r"^horn:(\d+):(\d+)$")
_HZ = re.compile(r"^hz-level:(\d+)$")
_IDENTITY = re.compile(r"^identity:(.+)$")


def _looks_like_file(token):
    return os.path.sep in token or token.endswith(".json") or os.path.exists(token)


def _load_file(ws, token):
    try:
        with open(token, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {token}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            {
                "error": f"malformed JSON in {token}: {exc.msg}",
                "line": exc.lineno,
                "column": exc.colno,
                "position": exc.pos,
            }
        ) from exc
    try:
        return io.load(data, tower=ws.tower, where=token)
    except io.FormatError as exc:
        raise InvalidFileError(str(exc)) from exc


def _want(obj, kinds, token):
    if not isinstance(obj, kinds):
        names = ", ".join(k.__name__ for k in kinds)
        raise InputError(
            f"{token}: expected one of [{names}], got {type(obj).__name__}"
        )
    return obj


def _builtin_space(token):
    """The builtin space the token names, or None."""
    if token == "point":
        return sset.point()
    m = _SPHERE_N.match(token) or _HZ.match(token)
    if m:
        return sset.sphere(int(m.group(1)))
    m = _BOUNDARY.match(token)
    if m:
        return sset.boundary_plus(int(m.group(1)))
    m = _HORN.match(token)
    if m:
        r, i = int(m.group(1)), int(m.group(2))
        if not (1 <= r and 0 <= i <= r):
            raise InputError(f"{token}: horn indices out of range")
        return sset.horn_plus(r, i)
    return None


def _space_or_file(ws, token):
    X = _builtin_space(token)
    if X is not None:
        return X
    if _looks_like_file(token):
        return _load_file(ws, token)
    raise InputError(f"{token}: not a file and not a builtin space")


def resolve_space(ws, token):
    return _want(_space_or_file(ws, token), (sset.PointedSimplicialSet,), token)


def resolve_spectrum(ws, token):
    if token == "sphere":
        return sp.sphere_spectrum(ws.bound, ws.tower)
    if token == "point":
        return sp.point_spectrum(ws.bound, ws.tower)
    m = _FREE.match(token)
    if m:
        n = int(m.group(1))
        K = resolve_space(ws, m.group(2))
        if n > ws.bound:
            raise InputError(
                f"{token}: free degree {n} exceeds the bound {ws.bound}"
            )
        return sp.free_F(n, K, ws.bound, ws.tower)
    if _looks_like_file(token):
        return _want(_load_file(ws, token), (sp.SymmetricSpectrum,), token)
    raise InputError(f"{token}: not a file and not a builtin spectrum")


def _point_into(ws, X):
    P = sp.point_spectrum(X.bound, ws.tower)
    comps = [
        sset.constant_map(P.space(n), X.space(n)) for n in range(X.bound + 1)
    ]
    return sp.SpectrumMap(P, X, comps)


def resolve_map(ws, token):
    """A simplicial or spectrum map; builtins name their canonical arrow."""
    m = _BOUNDARY.match(token) or _HORN.match(token)
    if m:
        r = int(m.group(1))
        return sset.subset_inclusion(_builtin_space(token), sset.delta_plus(r))
    if token == "sphere" or _FREE.match(token):
        return _point_into(ws, resolve_spectrum(ws, token))
    m = _IDENTITY.match(token)
    if m:
        inner = m.group(1)
        try:
            return sset.identity_map(resolve_space(ws, inner))
        except InputError:
            return sp.identity_spectrum_map(resolve_spectrum(ws, inner))
    if _looks_like_file(token):
        return _want(
            _load_file(ws, token), (sset.SimplicialMap, sp.SpectrumMap), token
        )
    raise InputError(f"{token}: not a file and not a builtin map")


def resolve_any(ws, token):
    if token == "sphere" or _FREE.match(token):
        return resolve_spectrum(ws, token)
    return _space_or_file(ws, token)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(ws, args):
    try:
        obj = resolve_any(ws, args.object)
    except InvalidFileError as exc:
        # a parseable but invalid object is a refuted property, not bad input
        return {"type": "validation_report", "ok": False, "reason": str(exc)}, 1
    report = {"type": "validation_report", "ok": True}
    if isinstance(obj, sp.SymmetricSpectrum):
        res = sp.validate_spectrum(obj, quick=args.quick)
        report["kind"] = "spectrum"
        report["ok"] = res["ok"]
        report["failures"] = res["failures"]
    elif isinstance(obj, sp.SpectrumMap):
        report["kind"] = "spectrum_map"
    elif isinstance(obj, sset.SimplicialMap):
        report["kind"] = "map"
    elif isinstance(obj, eq.EquivariantSpace):
        report["kind"] = "equivariant"
    elif isinstance(obj, sq.SymmetricSequence):
        report["kind"] = "sequence"
    else:
        report["kind"] = "space"
    return report, 0 if report["ok"] else 1


def cmd_stable_colimit(ws, args):
    X = resolve_spectrum(ws, args.spectrum)
    try:
        rep = hl.stable_colimit(X, args.k, require_homotopy=args.require_homotopy)
    except hl.HurewiczGateError as exc:
        raise InputError(str(exc)) from exc
    payload = {"type": "stable_colimit_report", "spectrum": X.name}
    payload.update(rep.to_json())
    return payload, 0


def _same_category(ws, i, p):
    if isinstance(i, sset.SimplicialMap) != isinstance(p, sset.SimplicialMap):
        raise InputError(
            "both maps must live in the same category (two space maps or two spectrum maps)"
        )


def _same_bound(command, a, b):
    """Two spectra or sequences that one command combines share a level bound."""
    if a.bound != b.bound:
        raise InputError(f"{command} needs equal bounds, got {a.bound} and {b.bound}")


def cmd_check_lift(ws, args):
    i = resolve_map(ws, args.i)
    p = resolve_map(ws, args.p)
    _same_category(ws, i, p)
    if isinstance(i, sp.SpectrumMap):
        _same_bound("check-lift", i.source, p.source)
    result = mc.has_lifting_property(i, p, budget=ws.budget)
    payload = {
        "type": "lifting_report",
        "verdict": result["verdict"],
        "checked": result["checked"],
        "witness": None,
    }
    if result["witness"] is not None:
        payload["witness"] = {
            "top": io.dump(result["witness"]["top"]),
            "bottom": io.dump(result["witness"]["bottom"]),
        }
    code = {"yes": 0, "no": 1, "budget exceeded": 3}[result["verdict"]]
    return payload, code


def cmd_smash(ws, args):
    a = resolve_any(ws, args.a)
    if isinstance(a, sp.SymmetricSpectrum):
        b = a if args.b == args.a else resolve_any(ws, args.b)
        if isinstance(b, sp.SymmetricSpectrum):
            _same_bound("smash", a, b)
            return io.dump_spectrum(sp.smash_spectra(a, b)), 0
        b = _want(b, (sset.PointedSimplicialSet,), args.b)
        return io.dump_spectrum(sp.prolong_smash(a, b)), 0
    a = _want(a, (sset.PointedSimplicialSet,), args.a)
    b = a if args.b == args.a else resolve_any(ws, args.b)
    if isinstance(b, sp.SymmetricSpectrum):
        raise InputError("spectrum operand must come first in smash")
    b = _want(b, (sset.PointedSimplicialSet,), args.b)
    return io.dump_space(sset.smash(a, b).space), 0


def _as_sequence(ws, token):
    obj = resolve_any(ws, token)
    if isinstance(obj, sp.SymmetricSpectrum):
        return obj.seq
    if isinstance(obj, sq.SymmetricSequence):
        return obj
    if isinstance(obj, eq.EquivariantSpace):
        raise InputError(f"{token}: a single level is not a sequence")
    raise InputError(f"{token}: expected a sequence or spectrum")


def cmd_tensor(ws, args):
    A = _as_sequence(ws, args.a)
    B = _as_sequence(ws, args.b)
    _same_bound("tensor", A, B)
    return io.dump_sequence(sq.tensor(A, B)), 0


def cmd_free(ws, args):
    K = resolve_space(ws, args.space)
    if args.f < 0:
        raise InputError(f"free degree {args.f} is negative")
    if args.f > ws.bound:
        raise InputError(f"free degree {args.f} exceeds the bound {ws.bound}")
    return io.dump_spectrum(sp.free_F(args.f, K, ws.bound, ws.tower)), 0


def cmd_latching(ws, args):
    X = resolve_spectrum(ws, args.spectrum)
    try:
        level, comparison = mc.latching(X, args.n)
    except IndexError as exc:
        raise InputError(str(exc)) from exc
    return (
        {
            "type": "latching_report",
            "n": args.n,
            "latching": io.dump_equivariant(level),
            "comparison": io.dump_map(comparison),
        },
        0,
    )


def cmd_cofibration(ws, args):
    f = resolve_map(ws, args.map)
    if isinstance(f, sset.SimplicialMap):
        mono = f.is_monomorphism()
        payload = {
            "type": "cofibration_report",
            "kind": "space_map",
            "monomorphism": mono,
            "overall": mono,
        }
        return payload, 0 if mono else 1
    report = mc.stable_cofibration_check(f)
    payload = {"type": "cofibration_report", "kind": "spectrum_map"}
    payload.update(report.to_json())
    return payload, 0 if report.overall else 1


def cmd_pushout_product(ws, args):
    f = resolve_map(ws, args.f)
    g = f if args.g == args.f else resolve_map(ws, args.g)
    if isinstance(f, sset.SimplicialMap) and isinstance(g, sp.SpectrumMap):
        raise InputError("spectrum operand must come first in pushout-product")
    if isinstance(g, sp.SpectrumMap):
        _same_bound("pushout-product", f.source, g.source)
    corner = sp.pushout_product(f, g)
    if not args.check:
        return io.dump(corner), 0
    report = mc.pushout_product_theorem_check(f, g, corner)
    return (
        {
            "type": "pushout_product_report",
            "corner": io.dump(corner),
            "check": report,
        },
        0,
    )


def cmd_homology(ws, args):
    X = resolve_space(ws, args.space)
    top = X.dim if args.max_dim is None else args.max_dim
    if top < 0:
        raise InputError("--max-dim must be nonnegative")
    C = hl.normalized_chains(X)
    groups = []
    for k in range(top + 1):
        g = hl.homology(C, k)
        groups.append({"k": k, "rank": g.free_rank, "torsion": list(g.torsion)})
    return (
        {
            "type": "homology_report",
            "space": X.name,
            "max_degree": top,
            "groups": groups,
        },
        0,
    )


def cmd_stable_map(ws, args):
    f = resolve_map(ws, args.map)
    f = _want(f, (sp.SpectrumMap,), args.map)
    try:
        rep = hl.stable_map_report(f, args.k, require_homotopy=args.require_homotopy)
    except hl.HurewiczGateError as exc:
        raise InputError(str(exc)) from exc
    payload = {"type": "stable_map_report"}
    payload.update(rep.to_json())
    return payload, 0


_GEN_KINDS = {"boundary": "FI_boundary", "horn": "FI_horn", "J": "J_cylinder"}


def cmd_gen_sets(ws, args):
    for flag, value in (("--levels", args.levels), ("--dims", args.dims)):
        if value < 0:
            raise InputError(f"gen-sets {flag} {value} is negative")
    maps = sp.generating_sets(
        _GEN_KINDS[args.kind], args.levels, args.dims, tower=ws.tower
    )
    return (
        {
            "type": "generating_set",
            "kind": args.kind,
            "levels": args.levels,
            "dims": args.dims,
            "count": len(maps),
            "maps": [io.dump_spectrum_map(m) for m in maps],
        },
        0,
    )


def cmd_cylinder(ws, args):
    f = resolve_map(ws, args.map)
    f = _want(f, (sp.SpectrumMap,), args.map)
    Mf, i, r, s = sp.mapping_cylinder(f)
    return (
        {
            "type": "cylinder_report",
            "cylinder": io.dump_spectrum(Mf),
            "front_inclusion": io.dump_spectrum_map(i),
            "projection": io.dump_spectrum_map(r),
            "target_inclusion": io.dump_spectrum_map(s),
        },
        0,
    )


HANDLERS = {
    "validate": cmd_validate,
    "stable-colimit": cmd_stable_colimit,
    "check-lift": cmd_check_lift,
    "smash": cmd_smash,
    "tensor": cmd_tensor,
    "free": cmd_free,
    "latching": cmd_latching,
    "cofibration": cmd_cofibration,
    "pushout-product": cmd_pushout_product,
    "homology": cmd_homology,
    "stable-map": cmd_stable_map,
    "gen-sets": cmd_gen_sets,
    "cylinder": cmd_cylinder,
}


# ---------------------------------------------------------------------------
# parser


# Built on the first main() call and kept: parse_args leaves the parser as
# it was, so every later call in the process reuses it.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="symspec",
        description="Symmetric spectra over finite pointed simplicial sets.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-o", "--out", help="write the JSON result to a file")
    shared.add_argument(
        "--human", action="store_true", help="pretty-print instead of compact JSON"
    )
    shared.add_argument(
        "--bound", type=int, help="level bound for builtin spectra (env SYMSPEC_BOUND)"
    )
    shared.add_argument(
        "--budget", type=int, help="search budget for lifting (env SYMSPEC_BUDGET)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", help="check an object against its axioms", parents=[shared]
    )
    p.add_argument("object")
    p.add_argument("--quick", action="store_true", help="stop spectrum checks at sigma^2")

    p = sub.add_parser(
        "stable-colimit", help="stabilization report of H_{k+n}(X_n)", parents=[shared]
    )
    p.add_argument("--spectrum", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--require-homotopy", action="store_true")

    p = sub.add_parser(
        "check-lift", help="decide a lifting property within a budget", parents=[shared]
    )
    p.add_argument("--i", required=True, help="the left map")
    p.add_argument("--p", required=True, help="the right map")

    p = sub.add_parser("smash", help="smash product of spaces or spectra", parents=[shared])
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("tensor", help="tensor of symmetric sequences", parents=[shared])
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("free", help="free spectrum on a space", parents=[shared])
    p.add_argument("--f", type=int, required=True, help="free degree")
    p.add_argument("--space", required=True)

    p = sub.add_parser(
        "latching", help="latching level with its comparison map", parents=[shared]
    )
    p.add_argument("spectrum")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("cofibration", help="stable cofibration check", parents=[shared])
    p.add_argument("map")

    p = sub.add_parser(
        "pushout-product", help="the corner map of two maps", parents=[shared]
    )
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--check", action="store_true", help="add the closure-property report")

    p = sub.add_parser("homology", help="integral homology of a space", parents=[shared])
    p.add_argument("space")
    p.add_argument("--max-dim", type=int)

    p = sub.add_parser(
        "stable-map", help="per-level homology matrices of a spectrum map", parents=[shared]
    )
    p.add_argument("map")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--require-homotopy", action="store_true")

    p = sub.add_parser(
        "gen-sets",
        help="generating families of maps",
        description="Generating families of maps.  Their spectra are built at "
        "bound levels + 1, so --bound does not apply.",
        parents=[shared],
    )
    p.add_argument("--kind", choices=sorted(_GEN_KINDS), required=True)
    p.add_argument("--levels", type=int, required=True, help="largest free degree")
    p.add_argument("--dims", type=int, required=True, help="largest simplex dimension")

    p = sub.add_parser("cylinder", help="mapping cylinder factorization", parents=[shared])
    p.add_argument("map")

    return parser


def main(argv=None):
    """Run one command; returns its exit code.

    The handler and the output run with the cyclic garbage collector paused,
    and the caller's collector state is restored on the way out.  A command
    builds hundreds of thousands of tuples, and each collector pass would
    walk them all again while the command runs.  Pausing is safe because
    nothing a command builds is held in a reference cycle: what holds what
    runs one way (see ``equivariant``), so reference counting frees each
    object once its last reader drops it, and nothing is left for the
    collector to find.
    """
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if enabled:
            gc.enable()


def _run(args):
    try:
        bound = _int_setting(args.bound, "SYMSPEC_BOUND", 3)
        budget = _int_setting(args.budget, "SYMSPEC_BUDGET", mc.DEFAULT_LIFT_BUDGET)
        ws = Workspace(bound, budget)
        payload, code = HANDLERS[args.command](ws, args)
    except InputError as exc:
        sys.stderr.write(io.canonical(exc.payload))
        return 2
    text = (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.human
        else io.canonical(payload)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(io.canonical({"error": f"cannot write {args.out}: {exc}"}))
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
