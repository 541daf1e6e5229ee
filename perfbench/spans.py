"""Spans and counters recorded from outside the package under test.

``Tracer.install`` replaces the public functions listed in ``SPANS`` by
timing wrappers wherever they are bound: in their own module and in every
``superell`` module, the package included, that bound the same object with
a from-import.  Arithmetic counters wrap the element methods of GF(q) and of
the p-adic fields.  Nothing under ``src/`` changes; ``uninstall`` puts every
original back.

A span is (id, name, start, end, parent id, curve id).  Spans stay in memory
until the run writes them out.  A layer's self time is the sum of its
spans' durations minus the durations of their direct children: spans nest,
since the package runs on one thread.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class.
SPANS = (
    ("superell.pipeline", "compute", "pipeline.compute"),
    ("superell.pipeline", "verify_point_counts",
     "pipeline.verify_point_counts"),
    ("superell.fieldsearch", "splitting_field", "fieldsearch.splitting_field"),
    ("superell.fieldsearch", "construct_candidate",
     "fieldsearch.construct_candidate"),
    ("superell.localfield", "roots_integral", "localfield.roots"),
    ("superell.localfield", "roots_of_qpoly", "localfield.roots"),
    ("superell.localfield", "galois_group", "localfield.galois_group"),
    ("superell.localfield", "ramification_filtration",
     "localfield.ramification_filtration"),
    ("superell.curve", "branch_divisor", "curve.branch_divisor"),
    ("superell.tree", "build_tree", "tree.build_tree"),
    ("superell.tree", "galois_on_tree", "tree.galois_on_tree"),
    ("superell.reduction", "raw_gauss_values", "reduction.raw_gauss_values"),
    ("superell.reduction", "semistable_check", "reduction.semistable_check"),
    ("superell.reduction", "reduce_special_fiber",
     "reduction.reduce_special_fiber"),
    ("superell.descent", "build_inertial_curve",
     "descent.build_inertial_curve"),
    ("superell.lzeta", "local_l_factor", "lzeta.local_l_factor"),
    ("superell.lzeta", "conductor_exponent", "lzeta.conductor_exponent"),
    ("superell.finitefield", "count_kummer_points",
     "finitefield.count_kummer_points"),
    ("superell.finitefield", "fq_make", "finitefield.fq_make"),
    ("superell.finitefield", "FqField.dlog", "finitefield.dlog"),
    ("superell.cli", "main", "cli.main"),
)

# Generator functions: one span per next(), not at creation.
GENERATOR_SPANS = (
    ("superell.fieldsearch", "semistabilizing_candidates",
     "fieldsearch.candidates"),
)

# (module, "Class.method", counter): calls counted, no span.
COUNTED_METHODS = (
    ("superell.finitefield", "FqElement.__mul__", "finitefield.mul_count"),
    ("superell.finitefield", "FqElement.inverse", "finitefield.inverse_count"),
    ("superell.localfield", "LocalFieldElement.__mul__",
     "localfield.mul_count"),
    ("superell.localfield", "LocalFieldElement.invert",
     "localfield.invert_count"),
)

class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.calls = Counter()  # (span name, parent span name) -> calls
        self.points = Counter()  # "q^i" -> points enumerated
        self.curve = None
        self._stack = []  # (span id, name) of the open spans
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, calls = self.spans, self._stack, self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else (None, None)
            sid = self._next_id
            self._next_id += 1
            calls[name, parent[1]] += 1
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent[0], self.curve))
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, genfn):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            step = tracer._wrap(name, lambda: next(inner, _DONE))

            def stepper():
                while True:
                    item = step()
                    if item is _DONE:
                        return
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return stepper()

        wrapper.__wrapped__ = genfn
        return wrapper

    def _counting(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, module, attr, make):
        """Replace module.attr, a function, wherever it is bound."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "superell" and not name.startswith("superell."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        """Wrap every listed layer; import the modules first, so that every
        from-import binding exists before the scan."""
        for table in (SPANS, GENERATOR_SPANS, COUNTED_METHODS):
            for modname, _, _ in table:
                importlib.import_module(modname)
        for modname, attr, name in SPANS:
            module = importlib.import_module(modname)
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth,
                            self._wrap(name, getattr(cls, meth), after))
            else:
                self._rebind(module, attr,
                             lambda fn, n=name, a=after: self._wrap(n, fn, a))
        for modname, attr, name in GENERATOR_SPANS:
            module = importlib.import_module(modname)
            self._rebind(module, attr,
                         lambda fn, n=name: self._wrap_generator(n, fn))
        for modname, attr, counter in COUNTED_METHODS:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(modname), cls_name)
            self._patch(cls, meth, self._counting(counter,
                                                  getattr(cls, meth)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def dump(self):
        """Spans and counters as plain JSON-ready data."""
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "points": dict(self.points),
                "calls": [[n, p, c] for (n, p), c in self.calls.items()]}


_DONE = object()


def _after_count_kummer_points(tracer, result, nbar, h, i=1, budget=None):
    q = h.field.q
    tracer.counts["finitefield.points_enumerated"] += q ** i
    tracer.points[f"{q}^{i}"] += q ** i


def _after_build_tree(tracer, result, *args):
    tracer.counts["tree.vertices"] += result.vertex_count()


def _after_semistable_check(tracer, fails, *args):
    if fails:
        tracer.counts["fieldsearch.candidates_not_semistable"] += 1


_AFTER = {
    "finitefield.count_kummer_points": _after_count_kummer_points,
    "tree.build_tree": _after_build_tree,
    "reduction.semistable_check": _after_semistable_check,
}


def self_times(spans):
    """{span name: self seconds} for spans (id, name, t0, t1, parent, ...)."""
    child = defaultdict(float)
    for sid, name, t0, t1, parent, *_ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for sid, name, t0, t1, parent, *_ in spans:
        out[name] += (t1 - t0) - child[sid]
    return dict(out)


def merge(dumps):
    """One dump from several (one per process); span ids made unique."""
    spans, counts, points, calls = [], Counter(), Counter(), Counter()
    for k, d in enumerate(dumps):
        for sid, name, t0, t1, parent, curve in d["spans"]:
            spans.append(((k, sid), name, t0, t1,
                          None if parent is None else (k, parent), curve))
        counts.update(d["counts"])
        points.update(d["points"])
        for name, parent, c in d["calls"]:
            calls[name, parent] += c
    return {"spans": spans, "counts": dict(counts), "points": dict(points),
            "calls": [[n, p, c] for (n, p), c in calls.items()]}
