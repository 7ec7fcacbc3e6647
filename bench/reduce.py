"""Reduce recorded spans to the named per-layer metrics.

A span is [name, start, end, parent, run, counts]: `parent` is the index of
the enclosing span in the same list (-1 for a root), `run` the id shared by
all spans of one CLI command, and `counts` a dict or None.  A span's self
time is its duration minus the part of its interval that its child spans
cover.  `<layer>.self_frac` is a layer's share of the self time of all
layers, which leaves out spans of the benchmark's own speed probe.
"""

LAYERS = ["sset", "equivariant", "symseq", "spectra", "homology", "modelcheck", "jsonio", "cli"]

SELF_TIMED = [
    "sset.smash", "sset.product", "sset.quotient_by_pairs", "sset.pushout",
    "sset.wedge", "sset.PointedSimplicialSet.validate",
    "equivariant.SphereTower.action", "equivariant.free_orbit",
    "symseq.tensor", "symseq.tensor_map", "symseq.assoc_iso", "symseq.twist_iso",
    "spectra.smash_spectra", "spectra.free_F", "spectra.pushout_product",
    "spectra.structure_map",
    "homology.normalized_chains", "homology.ChainComplex.degree_data",
    "homology.smith_normal_form", "homology.stable_colimit",
    "modelcheck.has_lifting_property", "modelcheck.all_maps",
    "modelcheck.latching", "modelcheck.latching_corner",
    "modelcheck.stable_cofibration_check",
    "modelcheck.pushout_product_theorem_check",
    "jsonio.dump", "jsonio.canonical", "jsonio.load", "cli.resolve",
]

CALLS = ["sset.smash", "symseq.tensor", "spectra.smash_spectra"]

# metric name -> (span name, count key), summed over all spans of that name
SUMS = {
    "sset.smash.cells": ("sset.smash", "cells"),
    "sset.product.cells": ("sset.product", "cells"),
    "sset.quotient_by_pairs.pairs_in": ("sset.quotient_by_pairs", "pairs_in"),
    "symseq.tensor.cells": ("symseq.tensor", "cells"),
    "homology.smith_normal_form.entries": ("homology.smith_normal_form", "entries"),
    "modelcheck.has_lifting_property.checked": ("modelcheck.has_lifting_property", "checked"),
    "modelcheck.all_maps.found": ("modelcheck.all_maps", "found"),
    "jsonio.bytes_out": ("jsonio.canonical", "bytes"),
}


def _children(spans):
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            if spans[parent][4] != span[4]:
                raise ValueError(f"span {i} and its parent belong to different runs")
            children[parent].append(i)
    return children


def self_times(spans, children=None):
    """Self time of every span, in span order."""
    if children is None:
        children = _children(spans)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for k in sorted(kids, key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _count(span, key):
    # a span whose call raised carries no counts
    return span[5][key] if span[5] else 0


def _ratio(num, den):
    return num / den if den else 0.0


def _descendant_sum(spans, children, root, name, key):
    total = 0
    todo = list(children[root])
    while todo:
        i = todo.pop()
        if spans[i][0] == name:
            total += _count(spans[i], key)
        todo.extend(children[i])
    return total


def layer_metrics(spans):
    """The per-layer metrics of one traced run, as a name -> value dict."""
    children = _children(spans)
    selfs = self_times(spans, children)

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name, key):
        return sum(_count(spans[i], key) for i in by_name.get(name, ()))

    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = sum(selfs[i] for i in by_name.get(name, ()))
    for name in CALLS:
        m[f"{name}.calls"] = len(by_name.get(name, ()))
    for metric, (name, key) in SUMS.items():
        m[metric] = total(name, key)

    m["sset.quotient_by_pairs.kept_ratio"] = _ratio(
        total("sset.quotient_by_pairs", "cells_out"),
        total("sset.quotient_by_pairs", "cells_in"),
    )
    smash_spectra = by_name.get("spectra.smash_spectra", ())
    m["spectra.smash_spectra.kept_ratio"] = _ratio(
        sum(_count(spans[i], "cells") for i in smash_spectra),
        sum(_descendant_sum(spans, children, i, "symseq.tensor", "cells") for i in smash_spectra),
    )
    m["homology.ChainComplex.degree_data.max_s"] = max(
        (spans[i][2] - spans[i][1] for i in by_name.get("homology.ChainComplex.degree_data", ())),
        default=0.0,
    )
    m["modelcheck.probe_yield"] = _ratio(
        m["modelcheck.all_maps.found"], m["modelcheck.has_lifting_property.checked"]
    )

    layer_self = {
        layer: sum(s for span, s in zip(spans, selfs) if span[0].startswith(layer + "."))
        for layer in LAYERS
    }
    traced = sum(layer_self.values())
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = _ratio(layer_self[layer], traced)
    return m
