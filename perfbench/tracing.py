"""In-memory spans around the calls the benchmark makes into each layer.

A span records (name, start, end, parent, group, work size).  The group is
the request the span belongs to: one timed operation ("op3"), one set-up
repetition ("setup1") or the layer probe ("probe").  Calls into `floats` are
millions per operation, so they are not spans: each is counted and timed as
a leaf, and its time is charged to the innermost open span so that span's
self time excludes it.

Instrumentation replaces module and class attributes while the `instrumented`
context is open, and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter_ns

import numpy as np

from aaipc import analysis as ana
from aaipc import circuit as circ
from aaipc import inference as inf

# span fields
NAME, START, END, PARENT, GROUP, SIZE, LEAF_NS = range(7)


def _units_x_rows(c, x, *_args, **_kw):
    return len(c.units) * len(np.atleast_2d(x))


def _rows(_c, _seed, n, *_args, **_kw):
    return n


def _self_units(self, *_args, **_kw):
    return len(self.circuit.units)


def _method_units(_owner, c, *_args, **_kw):
    """Units of the circuit passed to a method or classmethod."""
    return len(c.units)


# (owner, attribute, span name, work size of one call)
SPANS = [
    (circ, "parse_circuit", "circuit.parse", None),
    (circ, "validate", "circuit.validate", None),
    (ana, "validate", "circuit.validate", None),
    (circ, "eval_double", "circuit.eval_double", _units_x_rows),
    (ana, "eval_double", "circuit.eval_double", _units_x_rows),
    (circ, "edge_masses", "circuit.edge_masses", None),
    (ana, "edge_masses", "circuit.edge_masses", None),
    (circ, "sample", "circuit.sample", _rows),
    (ana, "sample", "circuit.sample", _rows),
    (ana, "enumerate_states", "circuit.enumerate_states", None),
    (inf.CircuitEvaluator, "__init__", "inference.evaluator_init", _method_units),
    (inf.CircuitEvaluator, "mar", "inference.mar", _self_units),
    (inf.CircuitEvaluator, "map_query", "inference.map", _self_units),
    (inf.CircuitEvaluator, "restricted_value", "inference.restricted_value", None),
    (inf, "compare_queries", "inference.compare", None),
    (inf, "eval_mar", "inference.eval_mar", None),
    (inf, "eval_map", "inference.eval_map", None),
    (ana, "induced_tree_edges", "inference.induced_tree_edges", None),
    (ana, "delta_det", "analysis.delta_det", None),
    (ana, "kl_bruteforce", "analysis.kl", None),
    (ana, "delta_nondet_mc", "analysis.mc", None),
    (ana, "map_failure_prob", "analysis.map_failure", None),
]

# classmethods of MultiplierPlan, all timed as one span name
PLAN_BUILDERS = ("all_exact", "all_aai", "from_aai_weight_sites")

# the floats names each module binds; inference's are the hot path
LEAVES = ([(inf, n) for n in ("aai_mul", "exact_mul", "exact_add", "encode", "log2_value")]
          + [(ana, n) for n in ("encode", "decode", "log2_value", "mitchell_delta")])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.group = "setup0"

    @contextlib.contextmanager
    def span(self, name: str, size: int = 1):
        rec = [name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
               self.group, size, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = perf_counter_ns()
            self.stack.pop()

    def wrap_span(self, fn, name, size):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kw):
            with span(name, size(*args, **kw) if size else 1):
                return fn(*args, **kw)
        return traced

    def wrap_leaf(self, fn, name):
        stat = self.leaves.setdefault(name, [0, 0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kw):
            t0 = perf_counter_ns()
            r = fn(*args, **kw)
            dt = perf_counter_ns() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:
                spans[stack[-1]][LEAF_NS] += dt
            return r
        return counted

    def leaf_snapshot(self) -> dict[str, tuple[int, int]]:
        return {k: (v[0], v[1]) for k, v in self.leaves.items()}

    @contextlib.contextmanager
    def instrumented(self):
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        try:
            for owner, attr, name, size in SPANS:
                patch(owner, attr, self.wrap_span(getattr(owner, attr), name, size))
            for attr in PLAN_BUILDERS:
                fn = vars(inf.MultiplierPlan)[attr].__func__
                patch(inf.MultiplierPlan, attr, classmethod(
                    self.wrap_span(fn, "inference.plan_build", _method_units)))
            for owner, attr in LEAVES:
                patch(owner, attr, self.wrap_leaf(getattr(owner, attr), "floats." + attr))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- derived figures -----------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration less its child spans and its leaf calls."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - rec[LEAF_NS]
                for i, rec in enumerate(self.spans)]

    def per_group(self, name: str, use_self: bool = False) -> dict[str, tuple[int, int]]:
        """Total ns and total work size of the named spans, per group."""
        own = self.self_ns() if use_self else None
        out: dict[str, tuple[int, int]] = {}
        for i, rec in enumerate(self.spans):
            if rec[NAME] == name:
                ns = own[i] if use_self else rec[END] - rec[START]
                t, n = out.get(rec[GROUP], (0, 0))
                out[rec[GROUP]] = (t + ns, n + rec[SIZE])
        return out

    def dump(self, path, env: dict) -> None:
        doc = {"env": env,
               "fields": ["name", "start_ns", "end_ns", "parent", "group", "size", "leaf_ns"],
               "spans": self.spans,
               "leaves": self.leaves}
        with open(path, "w") as fh:
            json.dump(doc, fh)


PHASES = ("op", "setup", "probe")


def layer_figure(tracer: Tracer, name: str, per_size: bool = False,
                 use_self: bool = False) -> float:
    """Median over groups of the time spent in the named spans.

    Groups of timed operations are used when the operations reach the span;
    otherwise set-up repetitions, otherwise the layer probe.  The value is
    seconds per group, or ns per unit of work size when per_size is set.
    """
    groups = tracer.per_group(name, use_self)
    for phase in PHASES:
        vals = [ns / n if per_size else ns / 1e9
                for g, (ns, n) in groups.items() if g.startswith(phase)]
        if vals:
            return statistics.median(vals)
    raise KeyError(f"no span named {name!r} was recorded")
