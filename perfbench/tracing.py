"""Timing spans and call counters wrapped around stochadd's public functions.

``Tracer.install`` replaces each instrumented function in every stochadd
module namespace that binds it (``spectrum.render`` is a separate name from
``julia.render``), and each instrumented method on its class.  Timed functions
record a span (name, start, end, parent); the hot scalar functions are only
counted, because a timer would cost more than they do.  ``python.gc.*`` comes
from ``gc.callbacks``.  Spans and counts are kept in memory for one pass;
``end_pass`` folds them into per-layer values and ``begin_pass`` clears them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("numeration", "machine", "julia", "spectrum", "cli")

# (home module, attribute, span name, extra counter taken from the result)
TIMED = (
    ("machine", "build_matrix", "machine.build_matrix", ("states", lambda m: m.dim)),
    ("machine", "column_sum_report", "machine.column_sum_report", None),
    ("machine", "simulate", "machine.simulate", ("steps", lambda t: t.steps)),
    ("machine", "SparseTransitionMatrix.to_csr", "machine.to_csr", None),
    ("machine", "renorm_check", "machine.renorm_check", None),
    ("julia", "render", "julia.render", ("stage_evals", lambda g: int(g.stage.sum()))),
    ("julia", "orbit", "julia.orbit", None),
    ("julia", "eigvec", "julia.eigvec", None),
    ("julia", "witness", "julia.witness", None),
    ("spectrum", "point_spectrum", "spectrum.point_spectrum",
     ("roots", lambda ps: sum(len(level.roots) for level in ps.levels))),
    ("spectrum", "PointSpectrum.all_roots", "spectrum.all_roots", None),
    ("spectrum", "verify_eigenpairs", "spectrum.verify_eigenpairs", None),
    ("spectrum", "boundary_density", "spectrum.boundary_density", None),
    ("spectrum", "sample_bounded", "spectrum.sample_bounded", None),
    ("spectrum", "transient_limit_check", "spectrum.transient_limit_check", None),
)
COUNTED = (
    ("numeration", "to_digits", "numeration.to_digits"),
    ("numeration", "truncate_digits", "numeration.truncate_digits"),
    ("numeration", "base_product", "numeration.base_product"),
    ("machine", "transition_row", "machine.transition_row"),
    ("julia", "stage_map", "julia.stage_map"),
)
VERIFY_SUITES = ("stochasticity", "renorm", "eigenpairs", "escape", "witness",
                 "factorization", "transient")

# Per-layer metrics: name -> unit.  ``.s`` is self time (span duration minus
# the time its child spans cover), except ``cli.verify.<suite>.s``, which is
# the whole call of that suite.
PER_LAYER = {
    "numeration.to_digits.calls": "count",
    "numeration.truncate_digits.calls": "count",
    "numeration.base_product.calls": "count",
    "machine.transition_row.calls": "count",
    "machine.build_matrix.s": "s",
    "machine.build_matrix.states_per_s": "1/s",
    "machine.column_sum_report.s": "s",
    "machine.simulate.steps_per_s": "1/s",
    "machine.to_csr.s": "s",
    "machine.renorm_check.s": "s",
    "julia.render.s": "s",
    "julia.render.stage_evals": "count",
    "julia.render.stage_evals_per_s": "1/s",
    "julia.orbit.calls": "count",
    "julia.orbit.s": "s",
    "julia.stage_map.calls": "count",
    "julia.eigvec.s": "s",
    "julia.witness.s": "s",
    "spectrum.point_spectrum.s": "s",
    "spectrum.point_spectrum.roots": "count",
    "spectrum.point_spectrum.roots_per_s": "1/s",
    "spectrum.all_roots.s": "s",
    "spectrum.verify_eigenpairs.s": "s",
    "spectrum.boundary_density.s": "s",
    "spectrum.sample_bounded.s": "s",
    "spectrum.transient_limit_check.s": "s",
    **{f"cli.verify.{suite}.s": "s" for suite in VERIFY_SUITES},
    "python.gc.s": "s",
    "python.gc.gen2": "count",
}
# rate metric -> (counter, span)
RATES = {
    "machine.build_matrix.states_per_s": ("machine.build_matrix.states", "machine.build_matrix"),
    "machine.simulate.steps_per_s": ("machine.simulate.steps", "machine.simulate"),
    "julia.render.stage_evals_per_s": ("julia.render.stage_evals", "julia.render"),
    "spectrum.point_spectrum.roots_per_s": ("spectrum.point_spectrum.roots",
                                            "spectrum.point_spectrum"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_pass = False
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _timed(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if extra is not None:
                self.counts[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter() if self._in_pass else None
        elif self._gc_start is not None:
            self.counts["python.gc.s"] += perf_counter() - self._gc_start
            self.counts["python.gc.gen2"] += info["generation"] == 2
            self._gc_start = None

    def install(self) -> None:
        """Wrap the instrumented functions in every stochadd namespace binding them."""
        modules = [importlib.import_module(f"stochadd.{m}") for m in MODULES]
        modules.append(importlib.import_module("stochadd"))
        wrappers = [(home, attr, self._timed(name, _resolve(home, attr), extra))
                    for home, attr, name, extra in TIMED]
        wrappers += [(home, attr, self._counted(name, _resolve(home, attr)))
                     for home, attr, name in COUNTED]
        for home, attr, wrapper in wrappers:
            owner, _, leaf = attr.rpartition(".")
            if owner:  # a method: wrap it on its class
                setattr(_resolve(home, owner), leaf, wrapper)
                continue
            original = _resolve(home, attr)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    # -- per pass ------------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._in_pass = True

    def end_pass(self) -> dict[str, float]:
        """Per-layer values of the pass just run."""
        self._in_pass = False
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in RATES:
                counter, span = RATES[metric]
                out[metric] = self.counts[counter] / self_time[span] if self_time[span] else 0.0
            elif metric.startswith("python.gc."):
                out[metric] = float(self.counts[metric])
            elif metric.startswith("cli.verify."):
                out[metric] = total[base]
            elif kind == "s":
                out[metric] = self_time[base]
            elif kind == "calls":
                out[metric] = float(calls[base] or self.counts[metric])
            else:
                out[metric] = float(self.counts[metric])
        return out

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]


def _resolve(home: str, attr: str):
    obj = importlib.import_module(f"stochadd.{home}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
