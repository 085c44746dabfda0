"""Span tracer for the layers of prism_forge, applied from outside.

The tracer rebinds public functions of the library for the length of a
traced run and puts the originals back afterwards.  A function is
rebound in its own module and in every module that imported it by name
(derham imports apply_derivation from pdpoly, so both names are
replaced), so every call reaches the wrapper.  Nothing here is imported
by an untraced run.

Each timed call is a span: layer, function, start, end and the index of
the span that caused it.  A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over its
spans.  The tracer's own bookkeeping after a call ends (result hooks such
as the Smith entry-size scan) is charged to no span.  Spans stay in
memory and are written out by write_spans when the run ends.

A few very hot entry points are counted rather than timed, because a
span on each of them would cost more than the work they do.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

PACKAGE = "prism_forge"
LAYERS = (
    "padic", "pdpoly", "deltaring", "envelopes", "derham",
    "homology", "transforms", "exprparse", "cli",
)

# (layer, class, attribute names, metric name, timed): public methods
# the workloads reach.  Element arithmetic is timed so that it counts as
# pdpoly work wherever it is called from; Element.__mul__ is left alone
# because it only hands over to pdpoly.mul, which has its own span.
METHODS = (
    ("padic", "Scalar", ("__mul__", "__rmul__"), "scalar_mul", False),
    ("pdpoly", "Element", ("__init__",), "element_init", False),
    ("pdpoly", "Element", ("__add__", "__radd__"), "element_add", True),
    ("pdpoly", "Element", ("__sub__",), "element_sub", True),
    ("pdpoly", "Element", ("__neg__",), "element_neg", True),
    ("pdpoly", "Element", ("__pow__",), "element_pow", True),
    ("pdpoly", "Element", ("scale",), "element_scale", True),
    ("pdpoly", "Element", ("reduce_precision",), "element_reduce_precision", True),
    ("pdpoly", "Element", ("map_to",), "element_map_to", True),
    ("pdpoly", "Element", ("render",), "element_render", True),
    ("pdpoly", "RingSpec", ("monomial",), "ring_monomial", True),
    ("derham", "PConnection", ("d_component",), "d_component", True),
)


def _entry_bits(dec) -> int:
    """Largest bit length among the entries of a SmithDecomposition."""
    top = 0
    for mat in (dec.S, dec.U, dec.V, dec.Uinv, dec.Vinv):
        for row in mat:
            for v in row:
                b = v.bit_length() if v >= 0 else (-v).bit_length()
                if b > top:
                    top = b
    return top


class Tracer:
    """Wraps the library's public functions between install and uninstall."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.gauges: Dict[str, int] = defaultdict(int)
        # (span name, parent span index or -1, start, end)
        self.spans: List[Tuple[str, int, float, float]] = []
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable[[object], None]] = {
            "homology.smith_normal_form": self._snf_hook,
            "deltaring.check_delta_axioms": self._axioms_hook,
        }

    # -- result hooks ---------------------------------------------------------

    def _snf_hook(self, dec) -> None:
        bits = _entry_bits(dec)
        if bits > self.gauges["homology.snf_max_entry_bits"]:
            self.gauges["homology.snf_max_entry_bits"] = bits

    def _axioms_hook(self, report) -> None:
        self.gauges["deltaring.pairs_checked"] += report.checked

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn: Callable, name: str) -> Callable:
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [name, clock(), 0.0, idx]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[idx] = (name, parent, frame[1], end)
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                began = clock()
                hook(out)
                if stack:
                    # the hook's bookkeeping is no part of the parent's work
                    stack[-1][2] += clock() - began
            return out

        span.__wrapped__ = fn
        return span

    def _counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing -----------------------------------------------------------

    def _modules(self) -> list:
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _rebind(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for fname, fn in sorted(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = self._timed(fn, f"{layer}.{fname}")
        # rebind every module-level name bound to a wrapped function
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = wrapped.get(id(value))
                if new is not None and new.__wrapped__ is value:
                    self._rebind(mod, attr, new)
        for layer, cls_name, attrs, metric, timed in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = vars(cls)[attrs[0]]
            make = self._timed if timed else self._counted
            new = make(fn, f"{layer}.{metric}")
            for attr in attrs:
                if vars(cls)[attr] is not fn:
                    raise RuntimeError(f"{cls_name}.{attr} is not {cls_name}.{attrs[0]}")
                self._rebind(cls, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def reset(self) -> None:
        """Start afresh: counts, times and the span list of the next install."""
        self.calls.clear()
        self.self_s.clear()
        self.gauges.clear()
        self.spans = []


def write_spans(path: str, spans: List[Tuple[str, int, float, float]], meta: dict) -> None:
    """A JSON header line, then one tab-separated line per span:
    index, name, parent index (-1 for none), start and end in seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        fh.writelines(
            f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n"
            for i, (name, parent, start, end) in enumerate(spans)
        )
