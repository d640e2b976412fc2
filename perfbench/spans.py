"""In-memory spans around qcy's public functions, for the traced run.

The tracer wraps every public module-level function of each layer and
records one span per call: name, start, end, parent span and the operation
(request) it belongs to.  Spans stay in memory and are folded into per-layer
figures after each pass.  Calls made outside an operation, such as the
benchmark's own output checks, are not recorded.

qcy modules import names directly (``from .cyclo import solve_root_system``),
so a wrapper is installed in every qcy namespace that holds the function,
not only in the module that defines it, and the originals are put back
afterwards.

Two class-level operations are counted instead of timed, because a span
would cost more than the call: ``CycInt`` multiplication and the
construction of a ``CycField`` (the exact-elimination fallback).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Module of each layer.  Metric names must start with a letter, so the
# `_kernels` module is reported as the `kernels` layer.
LAYERS = {
    "cli": "qcy.cli",
    "manifest": "qcy.manifest",
    "cycert": "qcy.cycert",
    "cyclo": "qcy.cyclo",
    "qalgebra": "qcy.qalgebra",
    "points": "qcy.points",
    "hilbert": "qcy.hilbert",
    "search": "qcy.search",
    "kernels": "qcy._kernels",
}


def _modp_rank_cells(mat, *_args, **_kwargs):
    shape = getattr(mat, "shape", None) or (len(mat), len(mat[0]) if len(mat) else 0)
    return {"kernels.modp_rank.cells": shape[0] * shape[1]}


def _image_count_work(mat, modulus, *_args, **_kwargs):
    """Vectors enumerated, and bytes of the numpy arrays that requires.

    The numpy kernel materialises, for T = N^m vectors: the index (T), the
    digits (T*m), the products and their residues (2*T*n), the codes (T)
    and the sort inside unique (about 2*T), all int64.  Computed from the
    shape, not measured.
    """
    shape = getattr(mat, "shape", None) or (len(mat), len(mat[0]) if len(mat) else 0)
    n, m = shape
    vectors = modulus**m
    return {
        "kernels.image_count.vectors": vectors,
        "kernels.image_count.bytes_computed": 8 * vectors * (m + 2 * n + 4),
    }


# Counters read from a call's arguments, by span name.
ARG_COUNTERS = {
    "kernels.modp_rank": _modp_rank_cells,
    "kernels.image_count": _image_count_work,
}


def _certify_outcome(cert):
    return {"cycert.certify_weighted.cy": int(cert.verdict.value == "CY")}


def _search_classes(specs):
    return {"search.classes": len(specs)}


# Counters read from a call's result, by span name.
RESULT_COUNTERS = {
    "cycert.certify_weighted": _certify_outcome,
    "search.search_q_params": _search_classes,
}


def public_functions(layer: str):
    """(name, function) for the public module-level functions of a layer.

    Generator functions are left out: their span would end before the work.
    """
    module = importlib.import_module(LAYERS[layer])
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


COUNTERS = {
    "cyclo.CycInt.mul.calls", "cyclo.CycField.inits", "search.candidates",
    "search.classes", "cycert.certify_weighted.cy", "kernels.modp_rank.cells",
    "kernels.image_count.vectors", "kernels.image_count.bytes_computed",
    "cycert.cy_ratio", "cyclo.solve_per_certify", "search.kept_ratio",
}


def zero_if_known(metric: str) -> float:
    """0 for a figure the tracer produces but that no call fed; else KeyError.

    Known figures: the counters and ratios above, layer.calls and
    layer.self_s, and span.calls, span.s and span.self_s for every public
    function of a layer.
    """
    prefix, _, field = metric.rpartition(".")
    spans = {f"{layer}.{name}" for layer in LAYERS
             for name, _ in public_functions(layer)}
    if (metric in COUNTERS
            or (prefix in LAYERS and field in ("calls", "self_s"))
            or (prefix in spans and field in ("calls", "s", "self_s"))):
        return 0
    raise KeyError(f"the tracer has no figure named {metric!r}")


class Tracer:
    """Records spans while installed; `fold()` turns them into figures."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rec = [name, perf_counter(), 0.0, parent, spans[parent][4]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if arg_counter is not None:
                counts.update(arg_counter(*args, **kwargs))
            if result_counter is not None:
                counts.update(result_counter(result))
            return result

        return traced

    def _counted(self, key, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Put wrappers in every loaded qcy namespace; undone by uninstall()."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "qcy" or n.startswith("qcy.")]
        for layer in LAYERS:
            for fname, fn in public_functions(layer):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        cyclo = sys.modules["qcy.cyclo"]
        mul = self._counted("cyclo.CycInt.mul.calls", cyclo.CycInt.__mul__)
        self._patch(cyclo.CycInt, "__mul__", mul)
        self._patch(cyclo.CycInt, "__rmul__", mul)
        self._patch(cyclo.CycField, "__init__",
                    self._counted("cyclo.CycField.inits", cyclo.CycField.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def operation(self, kind: str):
        """Root span of one operation; spans below it share its index."""
        op = len(self.spans)
        rec = ["op." + kind, perf_counter(), 0.0, -1, op]
        self.spans.append(rec)
        self.stack.append(op)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    # -- folding --------------------------------------------------------------

    def fold(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded so far, then clear them.

        For a span name X: X.calls, X.s (time inside outermost X spans) and
        X.self_s (X's time not covered by child spans).  For a layer L:
        L.calls and L.self_s.  Plus the counters and the derived ratios.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            if name.startswith("op."):
                continue
            dur = end - start
            layer = name.split(".", 1)[0]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - child[idx]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += dur - child[idx]
            ancestors = self._ancestors(parent)
            if name not in ancestors:
                out[name + ".s"] += dur
            if name == "cycert.certify_weighted" and "search.search_q_params" in ancestors:
                out["search.candidates"] += 1
        out.update(self.counts)
        out["cycert.cy_ratio"] = _ratio(
            out["cycert.certify_weighted.cy"], out["cycert.certify_weighted.calls"])
        out["cyclo.solve_per_certify"] = _ratio(
            out["cyclo.solve_root_system.calls"], out["cycert.certify_weighted.calls"])
        out["search.kept_ratio"] = _ratio(out["search.classes"], out["search.candidates"])
        self.spans.clear()
        self.counts.clear()
        return dict(out)

    def _ancestors(self, idx: int) -> set[str]:
        names = set()
        while idx >= 0:
            rec = self.spans[idx]
            names.add(rec[0])
            idx = rec[3]
        return names


def _ratio(num, den) -> float:
    return num / den if den else 0.0
