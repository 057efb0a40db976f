"""In-memory span tracing of the procong layers, installed at run time.

:class:`Tracer` wraps the public names listed in ``TARGETS`` (module-level
functions, methods and classmethods) with a function that records a span:
name, layer, start, end, parent span and request id.  A module-level
function is replaced in every ``procong`` module that imported it, so calls
through those copies are traced too.  Spans stay in a list until the run
ends; :meth:`Tracer.metrics` turns them into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Scalar arithmetic
is not wrapped, so it counts in the layer that calls it; polynomial-matrix
assembly and products (``PolyMatrix``) count in ``kernel``, exact scalar
matrix products of the certification (``surfgrp._mat_mul``) in
``surfgrp``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name); the layer is the module
TARGETS = (
    ("surfgrp", "GeneratorEndomorphism.torus_monodromy", "monodromy"),
    ("surfgrp", "mapping_torus", "mapping_torus"),
    ("surfgrp", "FiniteRepresentation.validate", "certify"),
    ("surfgrp", "FiniteRepresentation.evaluate_word", "evaluate_word"),
    ("surfgrp", "twisted_alexander", "alexander"),
    ("surfgrp", "twisted_torsion", "twisted_torsion"),
    ("surfgrp", "group_ring_image", "group_ring_image"),
    ("surfgrp", "fox_derivative", "fox_derivative"),
    ("cellular", "cellular_model", "model"),
    ("cellular", "mapping_torus_boundaries", "boundaries"),
    ("cellular", "flow_boundary_matrices", "flow"),
    ("cellular", "zeta_from_cellular", "zeta"),
    ("cellular", "torsion_from_cellular", "torsion"),
    ("cellular", "lefschetz_numbers", "lefschetz"),
    ("kernel", "homology_order", "homology_order"),
    ("kernel", "smith_diagonalize", "smith"),
    ("kernel", "PolyMatrix.determinant", "determinant"),
    ("kernel", "PolyMatrix.build", "polymatrix"),
    ("kernel", "PolyMatrix.from_blocks", "polymatrix"),
    ("kernel", "PolyMatrix.__matmul__", "polymatrix"),
    ("kernel", "PolyMatrix.__add__", "polymatrix"),
    ("kernel", "PolyMatrix.__sub__", "polymatrix"),
    ("kernel", "PolyMatrix.scale", "polymatrix"),
    ("kernel", "PolyMatrix.hstack", "polymatrix"),
    ("kernel", "PolyMatrix.vstack", "polymatrix"),
    ("kernel", "PolyMatrix.grid_transpose", "polymatrix"),
    ("kernel", "RationalFunction.series", "series"),
    ("kernel", "log_coefficients", "series"),
    ("kernel", "normalize_unit_class", "normalize"),
    ("torus", "CommutationSolver.__init__", "solver"),
    ("torus", "CommutationSolver.witness_mod", "witness"),
    ("torus", "CommutationSolver.witness_mod_prime_power", "prime_power"),
    ("torus", "sl2_conjugate", "sl2"),
    ("torus", "factorize", "factorize"),
    ("torus", "congruence_sweep", "sweep"),
    ("torus", "congruent_conjugate_mod", "congr"),
    ("torus", "characteristic_level", "klevel"),
    ("chars", "builtin_group", "group_build"),
    ("chars", "twisted_L_from_orbits", "twisted_L"),
    ("chars", "class_indicator_L", "indicator"),
    ("chars", "all_class_indicators", "all_indicators"),
    ("chars", "nielsen_bound", "nielsen_bound"),
    ("ntform", "NTDecomposition.validate", "validate"),
    ("ntform", "indexed_orbit_numbers", "orbit_table"),
    ("ntform", "StretchFactor.refined", "refine"),
    ("ntform", "Dilatation.approx", "approx"),
    ("ntform", "split_order", "split_order"),
    ("ntform", "dilatation", "dilatation"),
    ("ntform", "deviation", "deviation"),
    ("ntform", "shearing_from_slopes", "shear"),
    ("serialize", "load_fixture", "load"),
    ("cli", "dispatch", "dispatch"),
)
LAYERS = ("surfgrp", "cellular", "kernel", "torus", "chars", "ntform",
          "serialize", "cli")
BENCH_LAYER = "bench"

# span fields
NAME, LAYER, START, END, PARENT, REQUEST, OUTERMOST = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.request = None
        self.relator_letters = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span; the request loop uses this for its root
        span, the wrappers for everything else."""
        spans, stack, active = self.spans, self.stack, self.active
        record = [name, layer, perf_counter(), 0.0,
                  stack[-1] if stack else -1, self.request,
                  active[name] == 0]
        stack.append(len(spans))
        spans.append(record)
        active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            active[name] -= 1
            stack.pop()
            record[END] = perf_counter()

    def _wrapper(self, fn, name, layer):
        span = self.span
        if name == "mapping_torus":
            def traced(*args, **kwargs):
                mt = span(name, layer, fn, *args, **kwargs)
                self.relator_letters += sum(len(r) for r in mt.relators)
                return mt
        else:
            def traced(*args, **kwargs):
                return span(name, layer, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "procong" or n.startswith("procong.")]
        for module_name, path, name in TARGETS:
            module = sys.modules[f"procong.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(self._wrapper(
                        original.__func__, name, module_name))
                else:
                    patched = self._wrapper(original, name, module_name)
                self._patch(owner, attr, original, patched)
                continue
            original = getattr(module, path)
            patched = self._wrapper(original, name, module_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, patched)

    def _patch(self, owner, attr, original, patched):
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------

    def metrics(self, traced_wall, requests):
        """Per-layer metrics of a traced pass that took traced_wall seconds
        over `requests` requests."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        prime_power_parents = set()
        indicator_L_calls = 0
        for i, s in enumerate(spans):
            duration = s[END] - s[START]
            own = duration - child_time[i]
            name = s[NAME]
            calls[name] += 1
            self_time[name] += own
            layer_self[s[LAYER]] += own
            if s[OUTERMOST]:
                inclusive[name] += duration
            if name == "prime_power":
                prime_power_parents.add(s[PARENT])
            elif name == "twisted_L" and s[PARENT] >= 0 \
                    and spans[s[PARENT]][NAME] == "indicator":
                indicator_L_calls += 1
        levels = calls["witness"]
        lex_levels = sum(1 for i, s in enumerate(spans)
                         if s[NAME] == "witness" and i not in prime_power_parents)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "surfgrp.monodromy_s": inclusive["monodromy"] + inclusive["mapping_torus"],
            "surfgrp.relator_letters": self.relator_letters,
            "surfgrp.certify_calls": calls["certify"],
            "surfgrp.certify_s": inclusive["certify"],
            "surfgrp.certify_per_request": ratio(calls["certify"], requests),
            "surfgrp.alexander_calls": calls["alexander"],
            "surfgrp.alexander_self_s": self_time["alexander"],
            "surfgrp.group_ring_image_calls": calls["group_ring_image"],
            "surfgrp.group_ring_image_s": inclusive["group_ring_image"],
            "surfgrp.evaluate_word_calls": calls["evaluate_word"],
            "surfgrp.fox_derivative_calls": calls["fox_derivative"],
            "cellular.model_s": inclusive["model"],
            "cellular.boundaries_calls": calls["boundaries"],
            "cellular.boundaries_s": inclusive["boundaries"],
            "cellular.flow_calls": calls["flow"],
            "cellular.flow_s": inclusive["flow"],
            "cellular.zeta_self_s": self_time["zeta"],
            "kernel.homology_order_calls": calls["homology_order"],
            "kernel.homology_order_s": inclusive["homology_order"],
            "kernel.smith_s": inclusive["smith"],
            "kernel.determinant_calls": calls["determinant"],
            "kernel.determinant_s": inclusive["determinant"],
            "kernel.polymatrix_calls": calls["polymatrix"],
            "kernel.polymatrix_s": inclusive["polymatrix"],
            "kernel.series_s": inclusive["series"],
            "kernel.normalize_s": inclusive["normalize"],
            "torus.solvers": calls["solver"],
            "torus.solver_s": inclusive["solver"],
            "torus.levels": levels,
            "torus.witness_s": inclusive["witness"],
            "torus.prime_power_searches": calls["prime_power"],
            "torus.lex_share": ratio(lex_levels, levels),
            "torus.sl2_s": inclusive["sl2"],
            "torus.factorize_s": inclusive["factorize"],
            "chars.group_build_s": inclusive["group_build"],
            "chars.twisted_L_calls": calls["twisted_L"],
            "chars.twisted_L_s": inclusive["twisted_L"],
            "chars.indicators": calls["indicator"],
            "chars.twisted_L_per_indicator": ratio(indicator_L_calls,
                                                   calls["indicator"]),
            "chars.indicator_s": inclusive["indicator"],
            "ntform.validate_calls": calls["validate"],
            "ntform.validate_s": inclusive["validate"],
            "ntform.orbit_table_s": inclusive["orbit_table"],
            "ntform.stretch_refinements": calls["refine"],
            "ntform.approx_s": inclusive["approx"],
            "serialize.load_calls": calls["load"],
            "serialize.load_s": inclusive["load"],
            "cli.requests": calls["dispatch"],
            "cli.dispatch_self_s": self_time["dispatch"],
        }
        attributed = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.share"] = ratio(layer_self[layer], traced_wall)
            attributed += layer_self[layer]
        out["trace.wall_s"] = traced_wall
        out["trace.unattributed_s"] = traced_wall - attributed
        return out

