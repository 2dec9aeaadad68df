"""Spans recorded from outside the program, at each layer's public functions.

``Tracer.install`` rebinds every public function of the layer modules, in
every netosc module that binds it (``netosc.spectral.eigendecompose`` and
``netosc.dynamics.eigendecompose`` alike), to a wrapper that records a span:
name, layer, start, end, parent and whether it raised.  ``uninstall``
restores the originals, so untraced and traced ops can alternate in one
process.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

LAYER_MODULES = ("graph", "spectral", "dynamics", "signal", "ingest", "cli")
# Layers reported by the benchmark.  ``import`` is measured by subprocesses;
# ``netosc.errors`` holds only exception classes and does no work.
LAYERS = ("import",) + LAYER_MODULES


class Tracer:
    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent, raised]
        self.counters = {}
        self._stack = []
        self._saved = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, perf_counter(), None,
                          stack[-1] if stack else None, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "netosc" or key.startswith("netosc.")]
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = sys.modules[f"netosc.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def summarize(spans, op_seconds):
    """Per-layer and per-function totals over ``spans``.

    ``op_seconds`` is the traced wall time of the ops the spans came from;
    whatever it holds outside every top-level span is harness time.  A span's
    self time is its duration minus the durations of its direct children.
    Function totals count only the outermost span of each name, so a function
    that reaches itself through another public function is not counted twice.
    """
    children = [0.0] * len(spans)
    for name, layer, start, end, parent, raised in spans:
        if parent is not None:
            children[parent] += end - start
    layer_self = {layer: 0.0 for layer in LAYER_MODULES}
    layer_calls = {layer: 0 for layer in LAYER_MODULES}
    layer_errors = {layer: 0 for layer in LAYER_MODULES}
    fn_total, fn_calls = {}, {}
    top = 0.0
    for idx, (name, layer, start, end, parent, raised) in enumerate(spans):
        dur = end - start
        layer_self[layer] += dur - children[idx]
        layer_errors[layer] += int(raised)
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if parent is None:
            top += dur
        if parent is None or spans[parent][1] != layer:
            layer_calls[layer] += 1
        if not _has_ancestor(spans, parent, name):
            fn_total[name] = fn_total.get(name, 0.0) + dur
    return {
        "layer_self": layer_self,
        "layer_calls": layer_calls,
        "layer_errors": layer_errors,
        "fn_total": fn_total,
        "fn_calls": fn_calls,
        "harness_s": op_seconds - top,
        "verlet_fallbacks": sum(
            1 for s in spans if s[0] == "dynamics.integrate_numeric"
            and _has_ancestor(spans, s[4], "dynamics.epsilon_sweep")),
    }


def _has_ancestor(spans, parent, name):
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False
