"""Finite-precision circuit evaluation: marginal and MAP queries under a
per-multiplication choice of exact or approximate hardware.

Every multiplication site in a circuit (one per sum edge for the weight
multiply, one per binary fold step inside a product) is assigned a mode by a
MultiplierPlan.  Additions always use the exact adder.  The 64-bit baseline
is an all-exact plan at the IEEE double layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .circuit import Circuit, IndicatorUnit, ProductUnit, SumUnit, Unit, _check_rows
from .floats import (
    FLOAT64,
    CustomFloat,
    FloatConfig,
    MultResult,
    aai_mul,
    encode,
    exact_add,
    exact_mul,
    log2_value,
)

EXACT = "exact"
AAI = "aai"

#: ("w", sum id, child position) or ("p", product id, fold step)
Site = tuple[str, int, int]


def enumerate_sites(c: Circuit) -> list[Site]:
    """Every multiplication site of the circuit, in deterministic order."""
    sites: list[Site] = []
    for uid in sorted(c.units):
        u = c.units[uid]
        if isinstance(u, SumUnit):
            sites.extend(("w", uid, i) for i in range(len(u.children)))
        elif isinstance(u, ProductUnit):
            sites.extend(("p", uid, k) for k in range(len(u.children) - 1))
    return sites


@dataclass(frozen=True)
class MultiplierPlan:
    """Mode assignment covering every multiplication site exactly once."""

    modes: Mapping[Site, str]

    @classmethod
    def all_exact(cls, c: Circuit) -> "MultiplierPlan":
        return cls({s: EXACT for s in enumerate_sites(c)})

    @classmethod
    def all_aai(cls, c: Circuit) -> "MultiplierPlan":
        return cls({s: AAI for s in enumerate_sites(c)})

    @classmethod
    def from_aai_weight_sites(cls, c: Circuit,
                              aai_edges: Sequence[tuple[int, int]]) -> "MultiplierPlan":
        """AAI on the listed sum edges, exact everywhere else."""
        chosen = {("w", uid, i) for uid, i in aai_edges}
        modes = {}
        for s in enumerate_sites(c):
            modes[s] = AAI if s in chosen else EXACT
        missing = chosen - set(modes)
        if missing:
            raise ValueError(f"edges are not sites of this circuit: {sorted(missing)}")
        return cls(modes)

    def mode(self, site: Site) -> str:
        return self.modes[site]

    def check_covers(self, c: Circuit) -> None:
        expected = set(enumerate_sites(c))
        got = set(self.modes)
        if expected != got:
            raise ValueError("plan does not cover the circuit's sites exactly: "
                             f"missing {sorted(expected - got)[:4]}, "
                             f"extra {sorted(got - expected)[:4]}")


@dataclass(frozen=True)
class MapResult:
    """Backtracked MAP solution: assignment, its log2 score, and the per-sum
    child choices the assignment was reconstructed from."""

    assignment: np.ndarray
    log2_value: float
    trace: dict[int, int]


@dataclass(frozen=True)
class QueryMetrics:
    mean_log_error: float
    map_accuracy: float
    underflow_count: int
    overflow_count: int
    n_instances: int = 0
    n_mar_instances: int = 0


class EvaluationError(ValueError):
    """Raised when a metric is undefined, e.g. the baseline underflows."""


def _magnitude(v: CustomFloat) -> tuple[int, int, int]:
    """Key that orders values exactly, without decoding; zero is least."""
    return (0, 0, 0) if v.is_zero else (1, v.exponent, v.mantissa)


#: unit kinds of CircuitEvaluator's per-unit steps
_INDICATOR, _PRODUCT, _SUM = range(3)


class CircuitEvaluator:
    """Reusable evaluation state for one (circuit, config, plan) triple.

    Weights are quantized once, per cfg.rounding; under toward-zero this
    preserves the one-sided underestimation property end to end.  Each unit
    becomes one step tuple, in children-first order: (_INDICATOR, var,
    value); (_PRODUCT, first fold child, (child, is_aai) per fold step); or
    (_SUM, (child, quantized weight, is_aai) per edge, None).
    """

    def __init__(self, c: Circuit, cfg: FloatConfig, plan: MultiplierPlan):
        self.circuit = c
        self.cfg = cfg
        self.plan = plan
        self.weight_quant_underflows = 0
        self.weight_quant_overflows = 0
        self._one = CustomFloat.one(cfg.man_bits)
        self._zero = CustomFloat.zero(cfg.man_bits)
        modes = plan.modes
        self._steps: dict[int, tuple] = {}
        n_sites = 0
        try:
            for uid in c.order:
                u = c.units[uid]
                if isinstance(u, IndicatorUnit):
                    self._steps[uid] = (_INDICATOR, u.var, u.value)
                elif isinstance(u, ProductUnit):
                    first, *rest = sorted(u.children)
                    n_sites += len(rest)
                    self._steps[uid] = (_PRODUCT, first, tuple([
                        (ch, modes[("p", uid, k)] == AAI) for k, ch in enumerate(rest)]))
                else:
                    edges = []
                    for i, (ch, w) in enumerate(zip(u.children, u.weights)):
                        r = encode(w, cfg)
                        self.weight_quant_underflows += r.underflowed
                        self.weight_quant_overflows += r.overflowed
                        edges.append((ch, r.value, modes[("w", uid, i)] == AAI))
                    n_sites += len(edges)
                    self._steps[uid] = (_SUM, tuple(edges), None)
        except KeyError:  # a site the plan does not cover
            n_sites = -1
        if n_sites != len(modes):  # each site was looked up once
            plan.check_covers(c)  # raises, naming the missing and extra sites

    def _pass(self, steps: Iterable[tuple[int, tuple]], row: Sequence[Optional[int]],
              reduce: Callable[[int, list[CustomFloat]], tuple[CustomFloat, int, int]]
              ) -> tuple[CustomFloat, int, int]:
        """Evaluate steps children first and return the root value with the
        counts of saturating operations.  An indicator is one when its
        variable's entry in row is None (unobserved) or equals its value;
        each sum's weighted child terms go to reduce(uid, terms), which
        returns the sum's value and the saturations it caused."""
        cfg, one, zero = self.cfg, self._one, self._zero
        under = over = 0
        val: dict[int, CustomFloat] = {}
        for uid, (kind, a, b) in steps:
            if kind == _SUM:
                terms = []
                for ch, w, aai in a:
                    r = aai_mul(w, val[ch], cfg) if aai else exact_mul(w, val[ch], cfg)
                    under += r.underflowed
                    over += r.overflowed
                    terms.append(r.value)
                acc, du, do = reduce(uid, terms)
                under += du
                over += do
            elif kind == _PRODUCT:
                acc = val[a]
                for ch, aai in b:
                    r = aai_mul(acc, val[ch], cfg) if aai else exact_mul(acc, val[ch], cfg)
                    under += r.underflowed
                    over += r.overflowed
                    acc = r.value
            else:
                obs = row[a]
                acc = one if obs is None or obs == b else zero
            val[uid] = acc
        return val[self.circuit.root], under, over

    # -- marginal (complete evidence) pass ----------------------------------

    def mar(self, x: Sequence[int]) -> tuple[MultResult, int, int]:
        """Evaluate one complete assignment; returns the root result plus
        counts of saturating operations along the way."""
        root, under, over = self._pass(self._steps.items(), x, self._add_terms)
        return (MultResult(root,
                           under > 0 or self.weight_quant_underflows > 0,
                           over > 0 or self.weight_quant_overflows > 0),
                under, over)

    def _add_terms(self, _uid: int, terms: list[CustomFloat]) -> tuple[CustomFloat, int, int]:
        acc = self._zero
        under = over = 0
        for t in terms:
            r = exact_add(acc, t, self.cfg)
            under += r.underflowed
            over += r.overflowed
            acc = r.value
        return acc, under, over

    # -- MAP (max-product) pass ----------------------------------------------

    def map_query(self, evidence: Mapping[int, int]) -> tuple[MapResult, int, int]:
        """Max-product upward pass with argmax trace, then top-down
        backtracking.  Unobserved indicators score one; ties pick the lowest
        child index."""
        c = self.circuit
        trace: dict[int, int] = {}

        def argmax(uid: int, terms: list[CustomFloat]) -> tuple[CustomFloat, int, int]:
            # max keeps the first of equal keys: the lowest child index
            trace[uid] = best = max(range(len(terms)), key=lambda i: _magnitude(terms[i]))
            return terms[best], 0, 0

        row = [evidence.get(v) for v in range(c.n_vars)]
        root, under, over = self._pass(self._steps.items(), row, argmax)
        assignment = np.full(c.n_vars, -1, dtype=np.int64)
        for u in _induced_tree(c, trace):
            if isinstance(u, IndicatorUnit):
                assignment[u.var] = u.value
        return MapResult(assignment, log2_value(root), trace), under, over

    def restricted_value(self, trace: Mapping[int, int],
                         evidence: Mapping[int, int]) -> CustomFloat:
        """Re-evaluate only the induced tree selected by a MAP trace; must
        reproduce the MAP score bit for bit."""
        c = self.circuit
        steps = []
        for u in reversed(list(_induced_tree(c, trace))):
            step = self._steps[u.id]
            if step[0] == _SUM:  # keep only the traced edge
                step = (_SUM, (step[1][trace[u.id]],), None)
            steps.append((u.id, step))
        row = [evidence.get(v) for v in range(c.n_vars)]
        return self._pass(steps, row, lambda _uid, terms: (terms[0], 0, 0))[0]


def _induced_tree(c: Circuit, trace: Mapping[int, int]) -> Iterator[Unit]:
    """Units of the induced tree a MAP trace selects, depth first from the
    root, every parent before its children."""
    stack = [c.root]
    while stack:
        u = c.units[stack.pop()]
        yield u
        if isinstance(u, ProductUnit):
            stack.extend(u.children)
        elif isinstance(u, SumUnit):
            stack.append(u.children[trace[u.id]])


def induced_tree_edges(c: Circuit, trace: Mapping[int, int]) -> list[tuple[int, int]]:
    """Sum edges of the induced tree a MAP trace selects."""
    return [(u.id, trace[u.id]) for u in _induced_tree(c, trace) if isinstance(u, SumUnit)]


# ---------------------------------------------------------------------------
# public query API
# ---------------------------------------------------------------------------

def eval_mar(c: Circuit, x: Sequence[int], cfg: FloatConfig,
             plan: MultiplierPlan) -> MultResult:
    """Probability of one complete assignment under the given plan."""
    x = _check_rows(c, np.asarray(x)[np.newaxis])[0]
    result, _, _ = CircuitEvaluator(c, cfg, plan).mar(x)
    return result


def eval_map(c: Circuit, evidence: Mapping[int, int], cfg: FloatConfig,
             plan: MultiplierPlan) -> MapResult:
    """Most likely completion of partial evidence under the given plan."""
    for var, value in evidence.items():
        if not 0 <= var < c.n_vars:
            raise ValueError(f"evidence names unknown variable {var}")
        if not 0 <= value < c.variables[var].cardinality:
            raise ValueError(f"evidence value {value} out of range for variable {var}")
    result, _, _ = CircuitEvaluator(c, cfg, plan).map_query(dict(evidence))
    return result


def compare_queries(c: Circuit, data: np.ndarray, cfg: FloatConfig,
                    plan: MultiplierPlan,
                    correction: float = 0.0) -> QueryMetrics:
    """Compare a reduced-precision plan against the 64-bit exact baseline.

    Rows with every variable observed contribute a marginal log error term
    |log2 p64 - (log2 p_approx + correction)|; every row contributes a MAP
    query whose observed entries (values >= 0) form the evidence.  MAP
    accuracy counts assignments identical to the baseline's.
    """
    data = _check_rows(c, np.atleast_2d(data), unobserved=True)
    base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
    test = CircuitEvaluator(c, cfg, plan)
    under = test.weight_quant_underflows
    over = test.weight_quant_overflows
    log_err_sum = 0.0
    n_mar = 0
    map_hits = 0
    for row_idx, row in enumerate(data):
        observed = row >= 0
        if observed.all():
            b, _, _ = base.mar(row)
            if b.value.is_zero:
                raise EvaluationError(
                    f"baseline probability is zero for instance {row_idx}; "
                    "log error is undefined")
            t, du, do = test.mar(row)
            under += du
            over += do
            log_err_sum += abs(log2_value(b.value)
                               - (log2_value(t.value) + correction))
            n_mar += 1
        evidence = {int(v): int(row[v]) for v in np.flatnonzero(observed)}
        bm, _, _ = base.map_query(evidence)
        tm, du, do = test.map_query(evidence)
        under += du
        over += do
        map_hits += int(np.array_equal(bm.assignment, tm.assignment))
    n = len(data)
    return QueryMetrics(
        mean_log_error=log_err_sum / n_mar if n_mar else 0.0,
        map_accuracy=map_hits / n if n else 0.0,
        underflow_count=under,
        overflow_count=over,
        n_instances=n,
        n_mar_instances=n_mar,
    )
