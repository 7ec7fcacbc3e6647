"""Latching spaces, stable cofibration checks, bounded lifting decisions.

The cofibration test is levelwise: form the corner
X_n (+)_{L_nX} L_nY -> Y_n over the latching spaces and ask for a
monomorphism whose complement carries a free symmetric-group action.
Lifting properties are decided by exhaustive search over commuting
squares, metered by a budget so the answer is always yes, no with a
witness, or an explicit refusal.  The pushout-product check reads the
clauses of the corner map f [] g off a corner its caller has built.
"""

from . import equivariant as eq
from . import homology as hl
from . import spectra as sp
from . import sset
from .sset import Budget, BudgetExceeded

DEFAULT_LIFT_BUDGET = 10 ** 6


class ModelCheckInputError(ValueError):
    """An input the checks here cannot take; the message says why."""


def _check_same_frame(A, X, what):
    """Source and target spectra must share a sphere tower and a level bound."""
    if A.tower is not X.tower:
        raise ModelCheckInputError(
            f"{what}: source {A.name} and target {X.name} are built on "
            "different sphere towers"
        )
    if A.bound != X.bound:
        raise ModelCheckInputError(
            f"{what}: source {A.name} has level bound {A.bound}, "
            f"target {X.name} has level bound {X.bound}"
        )


# ---------------------------------------------------------------------------
# latching spaces


def _latching_data(X):
    """(X ^ Sbar, the comparison X ^ Sbar -> X), built afresh on each call:
    L_nX = (X ^ Sbar)_n.  Nothing keeps it on X, since X ^ Sbar holds X and
    a copy on X would be a reference cycle.  The comparison is the left
    action of Sbar on X after the twist, descended once: the (p, q, mu) copy
    x ^ s of X (x) Sbar goes by the (q, p) summand of ``X.left_action`` onto
    the complement of mu, since m_mu . rho_{q,p} is the (q, p)-shuffle onto
    it."""
    XB = sp.smash_spectra(X, sp.bar_sphere(X.bound, X.tower))

    def summand(n, p, q, mu):  # q >= 1 on every summand with cells: Sbar_0 is a point
        act = X.left_action(n, q, p, eq.shuffle_perm(mu, p, q)[p:])
        return lambda fx, fs: act(fs, fx)
    return XB, XB.descend(XB.T.map_out(X, summand), X)


def latching(X, n):
    """The n-th latching space L_nX with its natural map to X_n.

    Returns (EquivariantSpace, SimplicialMap): L_nX = (X ^ Sbar)_n, what lower
    levels reach through the structure maps, and the left action of Sbar on X
    after the twist.
    """
    if not 0 <= n <= X.bound:
        raise IndexError(f"latching level {n} outside [0, {X.bound}]")
    XB, nat = _latching_data(X)
    return XB.level(n), nat.level(n)


# ---------------------------------------------------------------------------
# stable cofibrations


class CofibrationReport:
    """Levelwise corner verdicts; overall is their conjunction."""

    def __init__(self, levels):
        self.levels = levels
        self.overall = all(
            lv["monomorphism"] and lv["acts_freely"] for lv in levels
        )

    def first_failure(self):
        for lv in self.levels:
            if not (lv["monomorphism"] and lv["acts_freely"]):
                return lv
        return None

    def to_json(self):
        return {"overall": self.overall, "levels": [dict(lv) for lv in self.levels]}

    def __repr__(self):
        word = "yes" if self.overall else "no"
        return f"CofibrationReport(stable_cofibration={word})"


def latching_corner(f):
    """The corner X (+)_{LX} LY -> Y of a spectrum map, as a spectrum map.

    Its source is the levelwise pushout of X_n <- L_nX -> L_nY with the
    descended actions and structure maps.
    """
    X, Y = f.source, f.target
    _check_same_frame(X, Y, "latching corner")
    XB, nat_x = _latching_data(X)
    YB, nat_y = _latching_data(Y)
    Lf = sp.smash_map_spectra(XB, YB, f, sp.identity_spectrum_map(XB.Y))
    P, _, _ = sp.pushout_spectrum(nat_x, Lf, name=f"corner({X.name}->{Y.name})")
    return sp.map_out_of_pushout(P, f, nat_y)


def stable_cofibration_check(f):
    """Levelwise latching criterion for a spectrum map.

    Each level of the corner must be a monomorphism and the symmetric
    group must act freely on the target cells off its image.
    """
    corner = latching_corner(f)
    Y = f.target
    levels = []
    for n in range(Y.bound + 1):
        cn = corner.level(n)
        if not eq.is_equivariant(corner.source.level(n), Y.level(n), cn):
            raise ModelCheckInputError(
                f"corner of {f.source.name} -> {Y.name} is not "
                f"equivariant at level {n}"
            )
        mono = cn.is_monomorphism()
        free = eq.acts_freely_off(Y.level(n), {fm[1] for fm in cn.assign.values()})
        levels.append(
            {
                "level": n,
                "latching_built": True,
                "monomorphism": mono,
                "acts_freely": free,
            }
        )
    report = CofibrationReport(levels)
    report.corner = corner
    return report


# ---------------------------------------------------------------------------
# exhaustive map enumeration


def _all_spectrum_maps(A, X, budget=None):
    """Every spectrum map A -> X: equivariant levels glued along sigma."""
    _check_same_frame(A, X, "map enumeration")
    per_level = []
    for n in range(A.bound + 1):
        per_level.append(
            [
                h
                for h in sset.all_maps(A.space(n), X.space(n), budget)
                if eq.is_equivariant(A.level(n), X.level(n), h)
            ]
        )
    # glued level by level: the same squares, charged the same number of
    # times, and the maps come out in the same order as a depth-first search
    found = [[h] for h in per_level[0]]
    for n in range(1, A.bound + 1):
        glued = []
        for comps in found:
            for h in per_level[n]:
                if budget is not None:
                    budget.spend()
                lhs, rhs = sp.sigma_square(A, X, comps[-1], h, n - 1)
                if lhs == rhs:
                    glued.append(comps + [h])
        found = glued
    return [sp.SpectrumMap(A, X, comps) for comps in found]


def all_maps(A, X, budget=None):
    """All maps A -> X; dispatches on spaces versus spectra."""
    if isinstance(A, sset.PointedSimplicialSet):
        return sset.all_maps(A, X, budget)
    return _all_spectrum_maps(A, X, budget)


# ---------------------------------------------------------------------------
# lifting properties


def _lift_table(i, p, lifts):
    """The index of the first lift filling each square (h.i, p.h)."""
    table = {}
    for j, h in enumerate(lifts):
        table.setdefault((h.compose(i), p.compose(h)), j)
    return table


def _first_lift(table, lifts, top, bottom, meter):
    """Index of the first lift filling (top, bottom) or None, charging each tried."""
    j = table.get((top, bottom))
    meter.spend(len(lifts) if j is None else j + 1)
    return j


def find_lift(i, p, top, bottom, budget=DEFAULT_LIFT_BUDGET):
    """First diagonal filling the square (top, bottom), or None."""
    meter = Budget(budget)
    lifts = all_maps(i.target, p.source, meter)
    j = _first_lift(_lift_table(i, p, lifts), lifts, top, bottom, meter)
    return None if j is None else lifts[j]


def has_lifting_property(i, p, budget=DEFAULT_LIFT_BUDGET):
    """Exhaustive decision of the lifting property of i against p.

    Returns a dict with verdict "yes", "no" (with the first commuting
    square admitting no diagonal, in enumeration order), or "budget
    exceeded" once the configured number of probes is spent.

    ``checked`` counts probes and is part of the CLI output: the candidate
    forms per node visited for non-base cells while enumerating tops,
    bottoms and lifts (``sset.all_maps``), one per sigma square tried for
    spectra, one per (top, bottom) pair, and per commuting square one per
    lift tried up to the first that fits, or every lift if none does.
    Past the budget it reads budget + 1.
    """
    meter = Budget(budget)
    try:
        tops = all_maps(i.source, p.source, meter)
        bottoms = all_maps(i.target, p.target, meter)
        lifts = all_maps(i.target, p.source, meter)
        table = _lift_table(i, p, lifts)
        squares = [(bottom, bottom.compose(i)) for bottom in bottoms]
        for top in tops:
            pt = p.compose(top)
            for bottom, bi in squares:
                meter.spend()
                if bi == pt and _first_lift(table, lifts, top, bottom, meter) is None:
                    return {
                        "verdict": "no",
                        "witness": {"top": top, "bottom": bottom},
                        "checked": meter.used,
                    }
        return {"verdict": "yes", "witness": None, "checked": meter.used}
    except BudgetExceeded:
        return {
            "verdict": "budget exceeded",
            "witness": None,
            "checked": meter.used,
        }


# ---------------------------------------------------------------------------
# instance checks of the corner-map theorems


def _homology_failures(h, top):
    """The degrees k <= top in which h is not an isomorphism on H_k."""
    return [k for k in range(top + 1) if not hl.induced_map(h, k).is_isomorphism()]


def _ingredient_flags(h):
    if isinstance(h, sset.SimplicialMap):
        mono = h.is_monomorphism()
        return {
            "kind": "space",
            "monomorphism": mono,
            "cofibration": mono,
            "homology_level_equivalence": not _homology_failures(
                h, max(h.source.dim, h.target.dim)
            ),
        }
    return {
        "kind": "spectrum",
        "monomorphism": h.is_monomorphism(),
        "cofibration": stable_cofibration_check(h).overall,
        "homology_level_equivalence": level_classify(h)[
            "homology_level_equivalence"
        ],
    }


def pushout_product_theorem_check(f, g, corner):
    """Reports which corner-map clauses hold on the corner it is given.

    ``corner`` must be ``sp.pushout_product(f, g)``, the corner map f [] g
    the caller has already built; it is read, not rebuilt or checked
    against f and g.  Clauses: two cofibrations corner to a monomorphism;
    two stable cofibrations corner to a stable cofibration; and with one
    input a homology level equivalence the corner is one too.  A clause
    whose hypotheses fail on this instance is inapplicable, not refuted.
    When ``g is f`` the operand's flags are computed once.
    """
    flags_f = _ingredient_flags(f)
    flags_g = flags_f if g is f else _ingredient_flags(g)
    both_cof = flags_f["cofibration"] and flags_g["cofibration"]
    corner_mono = corner.is_monomorphism()
    report = {
        "f": flags_f,
        "g": flags_g,
        "corner_kind": "spectrum"
        if isinstance(corner, sp.SpectrumMap)
        else "space",
        "corner_monomorphism": corner_mono,
        "clauses": {
            "monomorphism": {
                "applicable": both_cof,
                "confirmed": corner_mono if both_cof else None,
            }
        },
    }
    if isinstance(corner, sp.SpectrumMap):
        crep = stable_cofibration_check(corner)
        report["corner_stable_cofibration"] = crep.to_json()
        report["clauses"]["stable_cofibration"] = {
            "applicable": both_cof,
            "confirmed": crep.overall if both_cof else None,
        }
        either_equiv = (
            flags_f["homology_level_equivalence"]
            or flags_g["homology_level_equivalence"]
        )
        applicable = both_cof and either_equiv
        if applicable:
            cls = level_classify(corner)
            report["corner_classification"] = cls
            report["clauses"]["level_equivalence"] = {
                "applicable": True,
                "confirmed": cls["homology_level_equivalence"],
            }
        else:
            report["clauses"]["level_equivalence"] = {
                "applicable": False,
                "confirmed": None,
            }
    return report


def level_classify(f, max_degree=None):
    """Exact monomorphism flag plus a homology flag for a spectrum map.

    The homology flag asks every level to induce isomorphisms on
    integral homology in all degrees through max_degree (default: the
    top cell dimension in sight).  It is evidence over that range, not
    a weak-equivalence verdict; nothing here ever returns one.
    """
    X, Y = f.source, f.target
    mono_failures = [
        n
        for n in range(X.bound + 1)
        if not f.level(n).is_monomorphism()
    ]
    top = 0
    for n in range(X.bound + 1):
        top = max(top, X.space(n).dim, Y.space(n).dim)
    if max_degree is not None:
        top = max_degree
    hom_failures = [
        {"level": n, "degree": k}
        for n in range(X.bound + 1)
        for k in _homology_failures(f.level(n), top)
    ]
    return {
        "monomorphism": not mono_failures,
        "monomorphism_failures": mono_failures,
        "homology_level_equivalence": not hom_failures,
        "homology_failures": hom_failures,
        "degree_range": [0, top],
        "note": "homology checked through the stated degrees only",
    }
