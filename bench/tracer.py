"""Span tracing of `symspec` from outside the package.

`Tracer.install` replaces selected public functions and methods of the
`symspec` modules with wrappers that record one span per call:
[name, start, end, parent span, run id, counts].  The run id is the
index of the CLI command being run, so all spans of one command share it.
Spans stay in memory; the worker writes them out when its run ends.

Per-simplex helpers (`face`, `word_compose`, `apply`, `pair_form`,
`form_of_pair`, `acted`, ...) are not wrapped: they run up to millions of
times per command, and their cost belongs to the span that calls them.
Every function wrapped here runs fewer than about 10^4 times per command.
"""

import functools
import time

import speed
from symspec import cli, equivariant, homology, jsonio, modelcheck, spectra, sset, symseq

# Traced under their own name: module -> attribute paths.
TRACED = {
    sset: [
        "smash", "product", "quotient_by_pairs", "quotient", "wedge", "pushout",
        "smash_map", "smash_swap", "smash_assoc", "smash_lunit", "smash_runit",
        "all_maps", "find_isomorphism", "sphere",
        "PointedSimplicialSet.validate", "SimplicialMap.is_valid",
        "SimplicialMap.is_monomorphism", "SimplicialMap.is_isomorphism",
        "SimplicialMap.inverse",
    ],
    equivariant: [
        "free_orbit", "balanced_smash", "balanced_smash_map", "is_equivariant",
        "acts_freely_off_image", "acts_freely_off", "EquivariantSpace.validate",
        "SphereTower.action", "SphereTower.concat_map",
    ],
    symseq: [
        "tensor", "tensor_map", "twist_iso", "assoc_iso", "runit_iso",
        "runit_iso_inverse", "lunit_iso", "lunit_iso_inverse", "free_tensor_iso",
        "free_G", "free_G_map", "smash_space", "smash_space_iso",
        "SequenceMap.compose", "SequenceMap.validate",
    ],
    spectra: [
        "smash_spectra", "free_F", "free_F_map", "pushout_product",
        "pushout_spectrum", "sphere_spectrum", "point_spectrum", "bar_sphere",
        "bar_inclusion", "left_action_map", "smash_unit_iso", "smash_comm_iso",
        "smash_assoc_iso", "smash_map_spectra", "prolong_smash", "prolong_map",
        "mapping_cylinder", "validate_spectrum", "module_spectrum",
        "free_extension", "shift", "generating_sets", "lambda_map",
        "SpectrumMap.compose", "SpectrumMap.validate",
        "SpectrumMap.is_monomorphism",
    ],
    homology: [
        "normalized_chains", "homology", "kernel_of_columns", "smith_normal_form",
        "mat_mul", "induced_map", "stable_colimit", "stable_map_report",
        "suspension_chain_map", "hz_level_complex", "hurewicz_gate",
        "ChainComplex.degree_data", "ChainComplex.validate",
        "InducedMap.is_isomorphism", "SuspensionChainMap.validate",
        "SuspensionChainMap.induces_isomorphism",
    ],
    modelcheck: [
        "latching", "latching_corner", "stable_cofibration_check", "all_maps",
        "find_lift", "has_lifting_property", "pushout_product_theorem_check",
        "level_classify",
    ],
    jsonio: ["canonical"],
    cli: ["main"],
}

# Traced under one shared name: span name -> (module, attribute paths).
GROUPED = {
    "cli.resolve": (cli, ["resolve_space", "resolve_spectrum", "resolve_map", "resolve_any"]),
    "jsonio.dump": (jsonio, [
        "dump", "dump_space", "dump_map", "dump_equivariant", "dump_sequence",
        "dump_spectrum", "dump_spectrum_map",
    ]),
    "jsonio.load": (jsonio, [
        "load", "load_space", "load_map", "load_equivariant", "load_sequence",
        "load_spectrum", "load_spectrum_map",
    ]),
}


def _cells(space):
    return len(space.dim_of)


def _sequence_cells(seq):
    return sum(_cells(seq.space(n)) for n in range(seq.bound + 1))


def _matrix_entries(M):
    return len(M) * len(M[0]) if M else 0


# Counts attached to a span, from the call's positional arguments and result.
COUNTERS = {
    "sset.smash": lambda args, out: {"cells": _cells(out.space)},
    "sset.product": lambda args, out: {"cells": _cells(out.space)},
    "sset.quotient_by_pairs": lambda args, out: {
        "pairs_in": len(args[1]),
        "cells_in": _cells(args[0]),
        "cells_out": _cells(out.space),
    },
    "symseq.tensor": lambda args, out: {"cells": _sequence_cells(out)},
    "spectra.smash_spectra": lambda args, out: {"cells": _sequence_cells(out.seq)},
    "homology.smith_normal_form": lambda args, out: {"entries": _matrix_entries(args[0])},
    "modelcheck.has_lifting_property": lambda args, out: {"checked": out["checked"]},
    "modelcheck.all_maps": lambda args, out: {"found": len(out)},
    "jsonio.canonical": lambda args, out: {"bytes": len(out)},
}


class Tracer:
    def __init__(self):
        self._spans = []
        self._stack = []
        self.run = 0

    def wrap(self, name, fn):
        """fn, recording a span named `name` around every call.

        The speed probe's signal handler can run between any two lines here,
        so a span refers to its parent by object, never by a list index
        computed before an append.
        """
        spans, stack = self._spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, out)
            return out

        return traced

    def spans(self):
        """The spans so far, each [name, start, end, parent index or -1, run, counts]."""
        index = {id(span): i for i, span in enumerate(self._spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)], run, counts]
            for name, start, end, parent, run, counts in self._spans
        ]

    def _patch(self, module, path, name, wrapped):
        # A name a later version no longer has is skipped: its metrics read 0.
        owner, _, attr = path.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        fn = getattr(target, attr, None)
        if fn is None:
            return
        if fn not in wrapped:
            wrapped[fn] = self.wrap(name, fn)
        setattr(target, attr, wrapped[fn])

    def install(self):
        """Wrap every traced entry point of the already imported package."""
        wrapped = {}
        for module, paths in TRACED.items():
            short = module.__name__.rpartition(".")[2]
            for path in paths:
                self._patch(module, path, f"{short}.{path}", wrapped)
        for name, (module, paths) in GROUPED.items():
            for path in paths:
                self._patch(module, path, name, wrapped)
        # These tables hold the functions themselves, so patching the module
        # attribute does not reach the calls that go through them.
        for cls, fn in jsonio.DUMPERS.items():
            jsonio.DUMPERS[cls] = wrapped.get(fn, fn)
        for command, fn in cli.HANDLERS.items():
            cli.HANDLERS[command] = self.wrap(f"cli.{fn.__name__}", fn)
        self._trace_structure_maps()
        # The speed probe interrupts whatever span is running; as a span of
        # its own its time is not charged to that span's self time.
        speed.Sampler._sample = self.wrap("speed.probe", speed.Sampler._sample)

    def _trace_structure_maps(self):
        # Spectra build their structure maps lazily, often while being
        # dumped; trace the first build of each, not the cached lookups.
        build = self.wrap("spectra.structure_map", spectra.SymmetricSpectrum._pair)

        def _pair(spectrum, n):
            if n in spectrum._structure:
                return spectrum._structure[n]
            return build(spectrum, n)

        spectra.SymmetricSpectrum._pair = _pair
