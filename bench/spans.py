"""Spans around qpcert's public entry points, installed from outside.

Tracer.install() replaces each traced function with a timing wrapper in
every qpcert module that holds it (certify.py imports expr_to_qp and
expr_eval by name, cli.py imports certify and fit_quasipoly, and so on),
and methods on their classes.  Each call appends one span record:
(layer, parent span index, start ns, end ns, counters).  A recursive call
into a function that is already open adds no span, so recursion counts
as one call.  self_times() turns the records into per-layer totals.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# Counters: (args, kwargs, result) of one call -> {counter: value}.


def _residues(args, kwargs, out):
    """lcm(L, c*m) over the constituents' common denominators c."""
    qp, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    refined = qp.period
    for p in qp.constituents:
        refined = math.lcm(refined, m * math.lcm(1, *(c.denominator for c in p.coeffs)))
    return {"residues": refined}


def _coeff_counts(args, kwargs, out):
    gf, upto = args[0], args[1] if len(args) > 1 else kwargs["upto"]
    deg = sum(gf.parts)
    steps = upto * (upto + 1) // 2 if upto <= deg else deg * (deg + 1) // 2 + (upto - deg) * deg
    return {"terms": upto + 1, "recurrence_steps": steps}


def _window_checks(args, kwargs, out):
    w = out.window
    return {"checks": len(w) if out.refutation is None else out.refutation.n - w.start + 1}


def _candidates(args, kwargs, out):
    d_max = args[1] if len(args) > 1 else kwargs["d_max"]
    l_max = args[2] if len(args) > 2 else kwargs["l_max"]
    if out.holdout_verified:
        return {"candidates": (out.period - 1) * (d_max + 1) + out.degree + 1}
    return {"candidates": l_max * (d_max + 1)}


# (layer, module, attribute, counter function or None); a dotted attribute
# is a method.
POINTS = [
    ("cli.main", "qpcert.cli", "main", None),
    ("closedform.parse", "qpcert.closedform", "parse", None),
    ("closedform.expr_to_qp", "qpcert.closedform", "expr_to_qp", None),
    ("closedform.expr_eval", "qpcert.closedform", "expr_eval", None),
    ("quasipoly.floor_div", "qpcert.quasipoly", "QuasiPoly.floor_div", _residues),
    ("quasipoly.canonical", "qpcert.quasipoly", "QuasiPoly.canonical",
     lambda a, k, out: {"reduced": int(out.period < a[0].period)}),
    ("quasipoly.eval", "qpcert.quasipoly", "QuasiPoly.__call__", None),
    ("polynomial.interpolate", "qpcert.polynomial", "interpolate",
     lambda a, k, out: {"points": len(a[0])}),
    ("genfunc.coeffs", "qpcert.genfunc", "RationalGF.coeffs", _coeff_counts),
    ("certify.certify", "qpcert.certify", "certify", _window_checks),
    ("certify.rebuild_model", "qpcert.certify", "rebuild_model", None),
    ("certify.soundness_probe", "qpcert.certify", "soundness_probe",
     lambda a, k, out: {"probes": a[1] if len(a) > 1 else k["probes"]}),
    ("certify.fit_quasipoly", "qpcert.certify", "fit_quasipoly", _candidates),
] + [
    ("quasipoly.arith", "qpcert.quasipoly", f"QuasiPoly.{name}", None)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
]


class Tracer:
    """Span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = set()
        self._undo = []

    def _wrap(self, layer, fn, counter):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if fn in open_:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            open_.add(fn)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_.discard(fn)
                spans[index] = (layer, parent, start, end, None)
            if counter is not None:
                spans[index] = (layer, parent, start, end, counter(args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qpcert" or name.startswith("qpcert."))]
        for layer, module, attr, counter in POINTS:
            home = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, fn, counter))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(layer, fn, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Per-layer totals from span records.

    Returns {layer: {"ns", "self_ns", "calls", <counter>: sum}}.  A span's
    self time is its duration minus the durations of its direct children,
    so the self times of a tree add up to its root's duration.
    """
    child = [0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(int))
    for i, (layer, parent, start, end, counters) in enumerate(spans):
        agg = out[layer]
        agg["ns"] += end - start
        agg["self_ns"] += end - start - child[i]
        agg["calls"] += 1
        for key, value in (counters or {}).items():
            agg[key] += value
    return out


def root_ns(spans) -> int:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, start, end, _ in spans if parent < 0)
