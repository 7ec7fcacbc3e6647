"""JSON encoding of spaces, maps, group actions, spectra, and spectrum maps.

The wire format stores only constructor inputs; dimension tables, caches,
and smash bookkeeping are rebuilt on load.  Cell ids become strings on the
way out, so a round trip produces an isomorphic copy, not an identical one.
Structure maps are stored against coordinate pairs (circle form, level form)
rather than against the synthetic cell ids of a smash product, which keeps
the format independent of how those ids happen to be allocated.

Every loader validates what it builds and raises FormatError on bad input.
"""

import json

from . import equivariant as eq
from . import spectra as sp
from . import sset
from . import symseq as sq


class FormatError(ValueError):
    """Structurally broken or mathematically invalid input data."""


def _check(cond, msg):
    if not cond:
        raise FormatError(msg)


def _describe(exc):
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def _is_int(value):
    """JSON true and false load as bool, a subclass of int, and are no integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(data, key, kinds, where):
    _check(isinstance(data, dict), f"{where}: expected an object")
    _check(key in data, f"{where}: missing field {key!r}")
    value = data[key]
    # no field is a boolean, and a bool would pass for an int
    _check(
        isinstance(value, kinds) and not isinstance(value, bool),
        f"{where}: field {key!r} has the wrong type",
    )
    return value


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical(obj):
    """Deterministic bytes for a JSON value, a tree built fresh: no cycle check."""
    return _CANONICAL.encode(obj) + "\n"


# ---------------------------------------------------------------------------
# forms and spaces


def dump_form(form):
    word, cell = form
    return [list(word), str(cell)]


def _parse_form(data, where):
    _check(
        isinstance(data, list) and len(data) == 2,
        f"{where}: a form is a [word, cell] pair",
    )
    word, cell = data
    _check(
        isinstance(word, list) and all(_is_int(j) for j in word),
        f"{where}: degeneracy word must be a list of integers",
    )
    _check(isinstance(cell, str), f"{where}: cell id must be a string")
    return tuple(word), cell


def dump_space(X):
    faces = {}
    for c in X.cell_ids():
        if X.dim_of[c] > 0:
            faces[str(c)] = [dump_form(f) for f in X.faces[c]]
    return {
        "type": "space",
        "name": X.name,
        "basepoint": str(X.basepoint),
        "cells": {
            str(k): [str(c) for c in ids] for k, ids in X.cells.items()
        },
        "faces": faces,
    }


def load_space(data, where="space"):
    raw_cells = _field(data, "cells", dict, where)
    raw_faces = _field(data, "faces", dict, where)
    basepoint = _field(data, "basepoint", str, where)
    name = data.get("name")
    cells = {}
    for k, ids in raw_cells.items():
        _check(
            k.lstrip("-").isdigit() and int(k) >= 0,
            f"{where}: cell dimensions must be nonnegative integers, got {k!r}",
        )
        _check(
            isinstance(ids, list) and all(isinstance(c, str) for c in ids),
            f"{where}: cells[{k}] must be a list of string ids",
        )
        _check(
            len(set(ids)) == len(ids), f"{where}: duplicate cell id in dimension {k}"
        )
        cells[int(k)] = tuple(ids)
    faces = {}
    for c, entries in raw_faces.items():
        _check(
            isinstance(entries, list),
            f"{where}: faces[{c}] must list the faces in order",
        )
        faces[c] = tuple(
            _parse_form(f, f"{where}: faces[{c}][{i}]")
            for i, f in enumerate(entries)
        )
    try:
        X = sset.PointedSimplicialSet(cells, faces, basepoint, name=name)
        X.validate()
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"{where}: not a simplicial set ({_describe(exc)})") from exc
    return X


# ---------------------------------------------------------------------------
# simplicial maps


def _dump_assign(assign):
    return {str(c): dump_form(f) for c, f in assign.items()}


def _parse_assign(data, source, target, where):
    _check(isinstance(data, dict), f"{where}: an assignment is an object")
    assign = {_key: _parse_form(v, f"{where}[{_key!r}]") for _key, v in data.items()}
    known = set(source.cell_ids())
    _check(
        set(assign) == {str(c) for c in known},
        f"{where}: assignment keys must be exactly the source cells",
    )
    # source ids may be non-strings when the source was built in memory
    by_str = {str(c): c for c in known}
    return {by_str[k]: v for k, v in assign.items()}


def _as_map(source, target, assign, where):
    try:
        m = sset.SimplicialMap(source, target, assign)
        bad = m.failure()
    except Exception as exc:
        bad = exc
    if bad is not None:
        raise FormatError(f"{where}: not a simplicial map ({_describe(bad)})") from bad
    return m


def dump_map(f):
    return {
        "type": "map",
        "source": dump_space(f.source),
        "target": dump_space(f.target),
        "assign": _dump_assign(f.assign),
    }


def load_map(data, source=None, target=None, where="map"):
    if source is None:
        source = load_space(_field(data, "source", dict, where), f"{where}.source")
    if target is None:
        target = load_space(_field(data, "target", dict, where), f"{where}.target")
    assign = _parse_assign(_field(data, "assign", dict, where), source, target, f"{where}.assign")
    return _as_map(source, target, assign, where)


# ---------------------------------------------------------------------------
# equivariant levels


def dump_equivariant(level):
    return {
        "type": "equivariant",
        "n": level.n,
        "space": dump_space(level.space),
        "generators": [_dump_assign(g.assign) for g in level.generators],
    }


def load_equivariant(data, where="equivariant"):
    n = _field(data, "n", int, where)
    _check(n >= 0, f"{where}: the degree must be nonnegative")
    space = load_space(_field(data, "space", dict, where), f"{where}.space")
    gens_data = _field(data, "generators", list, where)
    _check(
        len(gens_data) == max(n - 1, 0),
        f"{where}: degree {n} needs {max(n - 1, 0)} generators",
    )
    gens = []
    for i, g in enumerate(gens_data):
        assign = _parse_assign(g, space, space, f"{where}.generators[{i}]")
        gens.append(_as_map(space, space, assign, f"{where}.generators[{i}]"))
    level = eq.EquivariantSpace(space, n, gens)
    try:
        level.validate()
    except Exception as exc:
        raise FormatError(f"{where}: group relations fail ({_describe(exc)})") from exc
    return level


# ---------------------------------------------------------------------------
# symmetric sequences


def dump_sequence(S):
    return {
        "type": "sequence",
        "name": S.name,
        "levels": [dump_equivariant(S.level(n)) for n in range(S.bound + 1)],
    }


def _load_levels(levels_data, where):
    """The level list of a sequence or spectrum; level n must have degree n."""
    levels = []
    for n, lv in enumerate(levels_data):
        level = load_equivariant(lv, f"{where}.levels[{n}]")
        _check(level.n == n, f"{where}.levels[{n}]: degree must equal the level")
        levels.append(level)
    return levels


def load_sequence(data, where="sequence"):
    levels_data = _field(data, "levels", list, where)
    _check(levels_data, f"{where}: a sequence needs at least level 0")
    return sq.SymmetricSequence(_load_levels(levels_data, where), name=data.get("name"))


# ---------------------------------------------------------------------------
# spectra

# The structure map at level n is defined on smash(S^1, X_n), whose cell ids
# are allocated fresh on every build.  Each nondegenerate cell is therefore
# stored as its representative coordinate pair together with its image:
# [circle form, level-n form, level-(n+1) form].


def _dump_sigma_level(X, n):
    sm = X.structure_smash(n)
    sig = X.sigma(n)
    rows = []
    for c in sm.space.cell_ids():
        if c == sm.space.basepoint:
            continue
        fa, fb = sm.split(((), c))
        rows.append([dump_form(fa), dump_form(fb), dump_form(sig.assign[c])])
    rows.sort()
    return rows


def dump_spectrum(X):
    return {
        "type": "spectrum",
        "name": X.name,
        "bound": X.bound,
        "levels": [dump_equivariant(X.level(n)) for n in range(X.bound + 1)],
        "sigma": [_dump_sigma_level(X, n) for n in range(X.bound)],
    }


def load_spectrum(data, tower=None, where="spectrum"):
    bound = _field(data, "bound", int, where)
    _check(bound >= 0, f"{where}: the bound must be nonnegative")
    levels_data = _field(data, "levels", list, where)
    _check(
        len(levels_data) == bound + 1,
        f"{where}: bound {bound} needs {bound + 1} levels",
    )
    sigma_data = _field(data, "sigma", list, where)
    _check(
        len(sigma_data) == bound,
        f"{where}: bound {bound} needs {bound} structure maps",
    )
    levels = _load_levels(levels_data, where)
    tower = tower or eq.SphereTower()
    s1_by_str = {str(c): c for c in tower.s1.cell_ids()}

    tables = []
    for n, rows in enumerate(sigma_data):
        here = f"{where}.sigma[{n}]"
        _check(isinstance(rows, list), f"{here}: must be a list of triples")
        table = []
        for i, row in enumerate(rows):
            _check(
                isinstance(row, list) and len(row) == 3,
                f"{here}[{i}]: a structure entry is a triple of forms",
            )
            wa, ca = _parse_form(row[0], f"{here}[{i}][0]")
            _check(ca in s1_by_str, f"{here}[{i}]: {ca!r} is not a circle cell")
            fb = _parse_form(row[1], f"{here}[{i}][1]")
            ft = _parse_form(row[2], f"{here}[{i}][2]")
            table.append(((wa, s1_by_str[ca]), fb, ft))
        tables.append(table)

    def build(X, n):
        table = tables[n]
        sm = sset.smash(tower.s1, X.space(n))
        target = X.space(n + 1)
        assign = {sm.space.basepoint: ((), target.basepoint)}
        for fa, fb, ft in table:
            try:
                form = sm.form_of_pair(fa, fb)
            except Exception as exc:
                raise FormatError(
                    f"{where}.sigma[{n}]: bad coordinate pair ({_describe(exc)})"
                ) from exc
            _check(
                not form[0] and form[1] != sm.space.basepoint,
                f"{where}.sigma[{n}]: pair does not name a nondegenerate cell",
            )
            _check(
                form[1] not in assign,
                f"{where}.sigma[{n}]: two entries name the same cell",
            )
            assign[form[1]] = ft
        missing = set(sm.space.cell_ids()) - set(assign)
        _check(
            not missing,
            f"{where}.sigma[{n}]: {len(missing)} cells have no image",
        )
        return sm, _as_map(sm.space, target, assign, f"{where}.sigma[{n}]")

    X = sp.SymmetricSpectrum(tower, levels, build, name=data.get("name"))
    # force every structure map now so format errors surface at load time
    for n in range(bound):
        X.sigma(n)
    # sigma and sigma^2 force the higher iterates, so loading checks those
    report = sp.validate_spectrum(X, quick=True)
    _check(
        report["ok"],
        f"{where}: spectrum axioms fail ({report['failures'][:3]})",
    )
    return X


# ---------------------------------------------------------------------------
# spectrum maps


def dump_spectrum_map(f):
    return {
        "type": "spectrum_map",
        "source": dump_spectrum(f.source),
        "target": dump_spectrum(f.target),
        "levels": [_dump_assign(f.level(n).assign) for n in range(f.source.bound + 1)],
    }


def load_spectrum_map(data, tower=None, source=None, target=None, where="spectrum_map"):
    tower = tower or eq.SphereTower()
    if source is None:
        source = load_spectrum(_field(data, "source", dict, where), tower, f"{where}.source")
    if target is None:
        target = load_spectrum(_field(data, "target", dict, where), tower, f"{where}.target")
    _check(
        source.bound == target.bound,
        f"{where}: source and target bounds differ",
    )
    levels_data = _field(data, "levels", list, where)
    _check(
        len(levels_data) == source.bound + 1,
        f"{where}: bound {source.bound} needs {source.bound + 1} components",
    )
    comps = []
    for n, lv in enumerate(levels_data):
        assign = _parse_assign(
            lv, source.space(n), target.space(n), f"{where}.levels[{n}]"
        )
        comps.append(_as_map(source.space(n), target.space(n), assign, f"{where}.levels[{n}]"))
    f = sp.SpectrumMap(source, target, comps)
    try:
        f.validate()
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"{where}: components do not commute with sigma ({_describe(exc)})") from exc
    return f


# ---------------------------------------------------------------------------
# dispatch


DUMPERS = {
    sset.PointedSimplicialSet: dump_space,
    sset.SimplicialMap: dump_map,
    eq.EquivariantSpace: dump_equivariant,
    sp.SymmetricSpectrum: dump_spectrum,
    sq.SymmetricSequence: dump_sequence,
    sp.SpectrumMap: dump_spectrum_map,
}


def dump(obj):
    """Serialize any of the five object kinds by type."""
    for cls, fn in DUMPERS.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def load(data, tower=None, where="input"):
    """Deserialize by the "type" tag."""
    kind = _field(data, "type", str, where)
    if kind == "space":
        return load_space(data, where)
    if kind == "map":
        return load_map(data, where=where)
    if kind == "equivariant":
        return load_equivariant(data, where)
    if kind == "sequence":
        return load_sequence(data, where)
    if kind == "spectrum":
        return load_spectrum(data, tower, where)
    if kind == "spectrum_map":
        return load_spectrum_map(data, tower, where=where)
    raise FormatError(f"{where}: unknown type {kind!r}")
