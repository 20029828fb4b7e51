"""Span tracing of the phs modules from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper wherever a
caller looks it up: every ``phs`` module attribute bound to the function
(so ``phs.classifier.diagonalize_field`` and ``phs.simulator.diagonalize_field``
are both covered) and, for methods, the class attribute.  Each call records
one span ``(name, start, end, parent)`` in memory.  Leaving the ``with``
block restores every attribute, so untraced runs call the original code.

Self times and exact call counts are derived from the spans afterwards
(:class:`SpanTable`).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# Attribute set on every wrapper; leftover wrappers are found by it.
MARK = "_phsbench_span"

# (span name, module, attribute path).  A dotted attribute path names a
# method: the class attribute is replaced.
TARGETS = (
    ("model.validate_system", "phs.model", "validate_system"),
    ("model.load_system", "phs.model", "load_system"),
    ("model.eval_many", "phs.model", "CoefficientField.eval_many"),
    ("classifier.classify", "phs.classifier", "classify"),
    ("classifier.check_contraction", "phs.classifier", "check_contraction"),
    ("classifier.check_unitary", "phs.classifier", "check_unitary"),
    ("classifier.compute_wb", "phs.classifier", "compute_wb"),
    ("classifier.direct_sum_check", "phs.classifier", "direct_sum_check"),
    ("classifier.eigensplit", "phs.classifier", "eigensplit"),
    ("classifier.diagonalize_field", "phs.classifier", "diagonalize_field"),
    ("classifier.boundary_closure_matrix", "phs.classifier", "boundary_closure_matrix"),
    ("oracle.random_system", "phs.oracle", "random_system"),
    ("oracle.kernel_basis", "phs.oracle", "kernel_basis"),
    ("oracle.check_contraction_via_c", "phs.oracle", "check_contraction_via_c"),
    ("oracle.boundary_form_on_kernel", "phs.oracle", "boundary_form_on_kernel"),
    ("oracle.agreement_campaign", "phs.oracle", "agreement_campaign"),
    ("simulator.setup", "phs.simulator", "setup"),
    ("simulator.step", "phs.simulator", "step"),
    ("simulator.rhs", "phs.simulator", "_Discretization.rhs"),
    ("simulator.close", "phs.simulator", "_Discretization.close"),
    ("simulator.record", "phs.simulator", "_record"),
    ("simulator.energy", "phs.simulator", "energy"),
    ("simulator.lp_norm", "phs.simulator", "lp_norm"),
    ("simulator.x", "phs.simulator", "SimState.x"),
)

COMPLEX_BYTES = 16
REAL_BYTES = 8


def _count_points(args, kwargs) -> dict:
    """Work counter for eval_many(self, zetas) and diagonalize_field(system, grid)."""
    points = args[1] if len(args) > 1 else kwargs.get("zetas", kwargs.get("grid"))
    return {"points": int(np.size(points))}


def _rhs_work(args, kwargs) -> dict:
    """Operations and bytes of one rhs(self, g) call, computed from the shape
    (N, n) of g: a per-node n x n complex coupling product (8 flops per
    complex multiply-add), the real-speed flux, and the one-sided flux
    differences added to the output.  Bytes count one read of the coupling
    matrices, the speeds and g, and one write of the output."""
    g = args[1]
    nodes, n = g.shape
    flops = 8 * nodes * n * n + 2 * nodes * n + 6 * (nodes - 1) * n
    nbytes = COMPLEX_BYTES * nodes * n * n + REAL_BYTES * nodes * n + 2 * COMPLEX_BYTES * nodes * n
    return {"flops": flops, "bytes": nbytes}


WORK_COUNTERS = {
    "model.eval_many": _count_points,
    "classifier.diagonalize_field": _count_points,
    "simulator.rhs": _rhs_work,
}


def _phs_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "phs" or name.startswith("phs."))]


def leftover_wrappers() -> list[str]:
    """Names of phs attributes that are still tracing wrappers."""
    found = []
    for module in _phs_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__.startswith("phs"):
                found.extend(f"{module.__name__}.{attr}.{meth}"
                             for meth, fn in vars(value).items() if hasattr(fn, MARK))
    return sorted(set(found))


class Tracer:
    """Context manager that records spans around calls into phs.

    ``spans`` holds one tuple (name_id, start, end, parent_index) per call,
    in call order; ``names`` maps name ids to span names; ``work`` sums the
    work counters of WORK_COUNTERS per span name.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.work: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = WORK_COUNTERS.get(name)
        work = self.work.setdefault(name, {}) if counter else None

        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    work[key] = work.get(key, 0) + value
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (name_id, start, end, parent)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        modules = _phs_modules()
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrapper(name, original)
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def write(self, path: Path) -> None:
        """Write names and spans as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "fields": ["name", "start", "end", "parent"],
               "spans": self.spans}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class SpanTable:
    """Aggregates over a Tracer's spans: calls, inclusive and self time per
    span name, and counts of spans below a given ancestor."""

    def __init__(self, tracer: Tracer):
        # every span is closed once the Tracer has exited; parents are indices
        self.tracer = tracer
        spans = tracer.spans
        self.name_of = [tracer.names[s[0]] for s in spans]
        self.parent = [s[3] for s in spans]
        self.duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.duration[i]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        for i, name in enumerate(self.name_of):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + self.duration[i]
            self.self_total[name] = self.self_total.get(name, 0.0) + self.duration[i] - child_time[i]

    def mean(self, name: str) -> float:
        """Mean inclusive seconds per call (0 when never called)."""
        calls = self.calls.get(name, 0)
        return self.total[name] / calls if calls else 0.0

    def mean_self(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_total[name] / calls if calls else 0.0

    def mean_without(self, name: str, children: set[str]) -> float:
        """Mean seconds per call of ``name`` minus the time of the outermost
        spans below it that are named in ``children``."""
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        below = 0.0
        for i, n in enumerate(self.name_of):
            if n not in children:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != name and self.name_of[p] not in children:
                p = self.parent[p]
            if p >= 0 and self.name_of[p] == name:
                below += self.duration[i]
        return (self.total[name] - below) / calls

    def count_below(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Calls of ``name`` that have a span ``ancestor`` above them (the
        immediate parent only when ``direct``)."""
        count = 0
        for i, n in enumerate(self.name_of):
            if n != name:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_of[p] == ancestor:
                    count += 1
                    break
                if direct:
                    break
                p = self.parent[p]
        return count

    def work(self, name: str, key: str) -> int:
        return self.tracer.work.get(name, {}).get(key, 0)
