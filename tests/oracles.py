"""Independent reference implementations used as test oracles.

Most of this recomputes expected values from first principles with exact
rational arithmetic (or brute-force enumeration), deliberately avoiding the
package's own code paths.  `ScalarEvaluator` is the bit-level reference for
the batched evaluator: it walks the circuit one unit and one row at a time
through the scalar `floats` operations.  `sample_oracle` is the per-unit
ancestral walk that `circuit.sample` must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np


def quantize(x: Fraction, man_bits: int, e_min: int, e_max: int,
             toward_zero: bool = False) -> Optional[Fraction]:
    """Round a positive rational to M mantissa bits; None means underflow,
    and overflow clamps to the largest finite value."""
    if x <= 0:
        return Fraction(0) if x == 0 else None
    e = 0
    while x >= 2:
        x /= 2
        e += 1
    while x < 1:
        x *= 2
        e -= 1
    scaled = (x - 1) * 2**man_bits
    if toward_zero:
        m = scaled.numerator // scaled.denominator
    else:
        m = _round_half_even(scaled)
    if m == 2**man_bits:
        m = 0
        e += 1
    if e < e_min:
        return None
    if e > e_max:
        return (2 - Fraction(1, 2**man_bits)) * Fraction(2) ** e_max
    return (1 + Fraction(m, 2**man_bits)) * Fraction(2) ** e


def _round_half_even(x: Fraction) -> int:
    q, r = divmod(x.numerator, x.denominator)
    twice = 2 * r
    if twice > x.denominator or (twice == x.denominator and q % 2 == 1):
        q += 1
    return q


def exact_mul_oracle(a: Fraction, b: Fraction, man_bits: int, e_min: int,
                     e_max: int, toward_zero: bool = False) -> Optional[Fraction]:
    """A correctly rounded multiply is the quantization of the true product."""
    return quantize(a * b, man_bits, e_min, e_max, toward_zero)


def exact_add_oracle(a: Fraction, b: Fraction, man_bits: int, e_min: int,
                     e_max: int, toward_zero: bool = False) -> Optional[Fraction]:
    return quantize(a + b, man_bits, e_min, e_max, toward_zero)


def aai_mul_oracle(a: Fraction, b: Fraction, man_bits: int) -> Fraction:
    """Mantissas add modulo one, carry goes to the exponent.  Assumes the
    result exponent stays in range."""
    ea, ma = _split(a, man_bits)
    eb, mb = _split(b, man_bits)
    s = ma + mb
    carry = 1 if s >= 2**man_bits else 0
    m = s - carry * 2**man_bits
    return (1 + Fraction(m, 2**man_bits)) * Fraction(2) ** (ea + eb + carry)


def _split(x: Fraction, man_bits: int) -> tuple[int, int]:
    e = 0
    while x >= 2:
        x /= 2
        e += 1
    while x < 1:
        x *= 2
        e -= 1
    m = (x - 1) * 2**man_bits
    assert m.denominator == 1, "operand not representable at this width"
    return e, int(m)


def mitchell_delta_oracle(f: float) -> float:
    return math.log2(1 + f) - f


# ---------------------------------------------------------------------------
# circuit oracles: induced trees and exhaustive evaluation
# ---------------------------------------------------------------------------

def induced_trees(circuit) -> list[tuple[frozenset, float, dict]]:
    """Enumerate all induced trees of a circuit.

    Returns (sum edges, weight product, leaf assignment constraints) per
    tree, where edges are (sum id, child position) pairs and constraints map
    variable -> required value for the tree to be non-zero.
    """
    from aaipc.circuit import IndicatorUnit, ProductUnit, SumUnit

    def expand(uid):
        u = circuit.units[uid]
        if isinstance(u, IndicatorUnit):
            return [(frozenset(), 1.0, {u.var: u.value})]
        if isinstance(u, ProductUnit):
            combos = [(frozenset(), 1.0, {})]
            for ch in u.children:
                nxt = []
                for edges, wprod, constr in combos:
                    for e2, w2, c2 in expand(ch):
                        merged = dict(constr)
                        ok = True
                        for var, val in c2.items():
                            if merged.get(var, val) != val:
                                ok = False
                                break
                            merged[var] = val
                        if ok:
                            nxt.append((edges | e2, wprod * w2, merged))
                combos = nxt
            return combos
        trees = []
        for i, (w, ch) in enumerate(zip(u.weights, u.children)):
            for e2, w2, c2 in expand(ch):
                trees.append((e2 | {(uid, i)}, w * w2, c2))
        return trees

    return expand(circuit.root)


def tree_mass_oracle(circuit, edge) -> float:
    """Sum of weight products over every induced tree containing the edge."""
    return sum(w for edges, w, _ in induced_trees(circuit) if edge in edges)


def brute_force_probability(circuit, x) -> float:
    """Direct recursive evaluation of one complete assignment in doubles."""
    from aaipc.circuit import IndicatorUnit, ProductUnit

    def ev(uid):
        u = circuit.units[uid]
        if isinstance(u, IndicatorUnit):
            return 1.0 if x[u.var] == u.value else 0.0
        if isinstance(u, ProductUnit):
            out = 1.0
            for ch in u.children:
                out *= ev(ch)
            return out
        return sum(w * ev(ch) for w, ch in zip(u.weights, u.children))

    return ev(circuit.root)


def reference_eval(circuit, x, man_bits: int, e_min: int, e_max: int,
                   aai: bool, toward_zero: bool = False) -> Fraction:
    """Independent reduced-precision evaluator over exact rationals.

    Mirrors the engine's operation order (weights quantized up front, sums
    accumulated in child order with one rounding per add, products folded
    in child order too) but is built on value-domain quantization
    rather than bit manipulation.  Assumes no saturation occurs.
    """
    from aaipc.circuit import IndicatorUnit, ProductUnit

    def q(v: Fraction) -> Fraction:
        out = quantize(v, man_bits, e_min, e_max, toward_zero=toward_zero)
        assert out is not None, "reference evaluation underflowed"
        return out

    def mul(a: Fraction, b: Fraction) -> Fraction:
        if a == 0 or b == 0:
            return Fraction(0)
        return aai_mul_oracle(a, b, man_bits) if aai else q(a * b)

    qw = {}
    for uid, u in circuit.units.items():
        if hasattr(u, "weights"):
            qw[uid] = [q(Fraction(w)) if w else Fraction(0) for w in u.weights]

    val = {}
    for uid in circuit.order:
        u = circuit.units[uid]
        if isinstance(u, IndicatorUnit):
            val[uid] = Fraction(1) if x[u.var] == u.value else Fraction(0)
        elif isinstance(u, ProductUnit):
            acc = val[u.children[0]]
            for ch in u.children[1:]:
                acc = mul(acc, val[ch])
            val[uid] = acc
        else:
            acc = Fraction(0)
            for i, ch in enumerate(u.children):
                term = mul(qw[uid][i], val[ch])
                acc = term if acc == 0 else q(acc + term)
            val[uid] = acc
    return val[circuit.root]


def root_readout_delta_oracle(circuit, man_bits: int, e_min: int, e_max: int,
                              toward_zero: bool = False) -> float:
    """E_p[delta(f_root)]: the expected Mitchell read-out error of the root.

    An all-AAI root word encodes 2^e (1 + f) while its Mitchell log is
    e + f, so reading it as a value adds delta(f) = log2(1 + f) - f on top
    of the per-weight shortfalls.  On a deterministic circuit this is the
    gap between the closed form and the divergence:
    KL = delta_det - E_p[delta(f_root)].  States are enumerated in full and
    weighted by the double-precision probability; zero-probability states
    are skipped, as the divergence skips them.
    """
    total = 0.0
    for x in itertools.product(*(range(v.cardinality) for v in circuit.variables)):
        p = brute_force_probability(circuit, x)
        if p <= 0.0:
            continue
        root = reference_eval(circuit, x, man_bits, e_min, e_max, aai=True,
                              toward_zero=toward_zero)
        _, m = _split(root, man_bits)
        total += p * mitchell_delta_oracle(m / 2**man_bits)
    return total


# ---------------------------------------------------------------------------
# scalar bit-level reference evaluator
# ---------------------------------------------------------------------------

#: unit kinds of ScalarEvaluator's per-unit steps
_INDICATOR, _PRODUCT, _SUM = range(3)


def _magnitude(v) -> tuple[int, int, int]:
    """Key that orders values exactly, without decoding; zero is least."""
    return (0, 0, 0) if v.is_zero else (1, v.exponent, v.mantissa)


class ScalarEvaluator:
    """One unit and one row at a time through the scalar float ops.

    Weights are quantized once with `encode`.  Each unit becomes one step
    tuple, in children-first order: (_INDICATOR, var, value); (_PRODUCT,
    first fold child, (child, is_aai) per fold step); or (_SUM, (child,
    quantized weight, is_aai) per edge, None).  Returns what the package's
    `CircuitEvaluator` returns for a single row.
    """

    def __init__(self, c, cfg, plan):
        from aaipc.circuit import IndicatorUnit, ProductUnit
        from aaipc.floats import CustomFloat, encode
        from aaipc.inference import AAI

        self.circuit = c
        self.cfg = cfg
        self.weight_quant_underflows = 0
        self.weight_quant_overflows = 0
        self._one = CustomFloat.one(cfg.man_bits)
        self._zero = CustomFloat.zero(cfg.man_bits)
        modes = plan.modes
        self._steps: dict[int, tuple] = {}
        for uid in c.order:
            u = c.units[uid]
            if isinstance(u, IndicatorUnit):
                self._steps[uid] = (_INDICATOR, u.var, u.value)
            elif isinstance(u, ProductUnit):
                first, *rest = u.children
                self._steps[uid] = (_PRODUCT, first, tuple(
                    (ch, modes[uid, k] == AAI) for k, ch in enumerate(rest, 1)))
            else:
                edges = []
                for i, (ch, w) in enumerate(zip(u.children, u.weights)):
                    r = encode(w, cfg)
                    self.weight_quant_underflows += r.underflowed
                    self.weight_quant_overflows += r.overflowed
                    edges.append((ch, r.value, modes[uid, i] == AAI))
                self._steps[uid] = (_SUM, tuple(edges), None)

    def _pass(self, steps: Iterable[tuple[int, tuple]], row: Sequence[Optional[int]],
              reduce: Callable) -> tuple:
        """Evaluate steps children first and return the root value with the
        counts of saturating operations.  An indicator is one when its
        variable's entry in row is None (unobserved) or equals its value;
        each sum's weighted child terms go to reduce(uid, terms), which
        returns the sum's value and the saturations it caused."""
        from aaipc.floats import aai_mul, exact_mul

        cfg, one, zero = self.cfg, self._one, self._zero
        under = over = 0
        val = {}
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

    def mar(self, x):
        from aaipc.floats import MultResult

        root, under, over = self._pass(self._steps.items(), x, self._add_terms)
        return (MultResult(root,
                           under > 0 or self.weight_quant_underflows > 0,
                           over > 0 or self.weight_quant_overflows > 0),
                under, over)

    def _add_terms(self, _uid, terms):
        from aaipc.floats import exact_add

        acc = self._zero
        under = over = 0
        for t in terms:
            r = exact_add(acc, t, self.cfg)
            under += r.underflowed
            over += r.overflowed
            acc = r.value
        return acc, under, over

    def map_query(self, evidence: Mapping[int, int]):
        from aaipc.circuit import IndicatorUnit
        from aaipc.floats import log2_value
        from aaipc.inference import MapResult

        c = self.circuit
        trace: dict[int, int] = {}

        def argmax(uid, terms):
            # max keeps the first of equal keys: the lowest child index
            trace[uid] = best = max(range(len(terms)), key=lambda i: _magnitude(terms[i]))
            return terms[best], 0, 0

        row = [evidence.get(v) for v in range(c.n_vars)]
        root, under, over = self._pass(self._steps.items(), row, argmax)
        assignment = np.full(c.n_vars, -1, dtype=np.int64)
        for u in induced_tree_units(c, trace):
            if isinstance(u, IndicatorUnit):
                assignment[u.var] = u.value
        return MapResult(assignment, log2_value(root), trace), under, over

    def restricted_value(self, trace: Mapping[int, int], evidence: Mapping[int, int]):
        c = self.circuit
        steps = []
        for u in reversed(list(induced_tree_units(c, trace))):
            step = self._steps[u.id]
            if step[0] == _SUM:  # keep only the traced edge
                step = (_SUM, (step[1][trace[u.id]],), None)
            steps.append((u.id, step))
        row = [evidence.get(v) for v in range(c.n_vars)]
        return self._pass(steps, row, lambda _uid, terms: (terms[0], 0, 0))[0]


def determinism_oracle(circuit) -> list[tuple[int, str]]:
    """`validate`'s exhaustive determinism violations, from one bool column
    per unit over a block of states at a time: a sum is flagged where two
    of its children are positive together, and is positive where one of
    its positive-weight children is."""
    from aaipc.circuit import IndicatorUnit, ProductUnit, enumerate_states

    states, bad = enumerate_states(circuit), set()
    for start in range(0, len(states), 4096):
        block, support = states[start:start + 4096], {}
        for uid in circuit.order:
            u = circuit.units[uid]
            if isinstance(u, IndicatorUnit):
                support[uid] = block[:, u.var] == u.value
            elif isinstance(u, ProductUnit):
                support[uid] = np.logical_and.reduce([support[ch] for ch in u.children])
            else:
                kids = [support[ch] for ch in u.children]
                if (np.sum(kids, axis=0) > 1).any():
                    bad.add(uid)
                support[uid] = np.logical_or.reduce(
                    [k for w, k in zip(u.weights, kids) if w > 0])
    return [(uid, "multiple children positive on a complete state") for uid in sorted(bad)]


def syntactic_determinism_oracle(c) -> list[tuple[int, str]]:
    """`validate`'s syntactic determinism violations, from one dict of
    admissible value sets per unit: a sum is flagged unless each pair of
    its children admits disjoint values of some variable in both scopes."""
    from aaipc.circuit import SumUnit, _fold

    Support = dict[int, frozenset[int]]

    def product(kids: Iterator[Support]) -> Support:
        merged: Support = {}
        for sub in kids:
            for var, vals in sub.items():
                merged[var] = merged[var] & vals if var in merged else vals
        return merged

    def sum_(u: SumUnit, kids: Iterator[Support]) -> Support:
        merged: Support = {}
        for sub in kids:
            for var in c.scopes[u.id]:
                full = frozenset(range(c.variables[var].cardinality))
                vals = sub.get(var, full)
                merged[var] = merged.get(var, frozenset()) | vals
        return merged

    def disjoint(a: Support, b: Support, scope: frozenset[int]) -> bool:
        return any((a.get(v) is not None and b.get(v) is not None
                    and not (a[v] & b[v])) for v in scope)

    supports = _fold(c, lambda u: {u.var: frozenset((u.value,))}, product, sum_)
    return [(u.id, "determinism unverified for a child pair") for u in c.sum_units()
            if not all(disjoint(supports[x], supports[y], c.scopes[u.id])
                       for x, y in itertools.combinations(u.children, 2))]


def sample_oracle(c, seed: int, n: int) -> np.ndarray:
    """`circuit.sample` as a walk over the units in reversed topological
    order: one bool column per unit marks the rows that reach it, each sum
    draws one column of uniforms and scatters its rows child by child."""
    from aaipc.circuit import IndicatorUnit, ProductUnit

    if n < 0:
        raise ValueError("n must be non-negative")
    if c.scopes[c.root] != frozenset(range(c.n_vars)):
        missing = sorted(frozenset(range(c.n_vars)) - c.scopes[c.root])
        raise ValueError(f"root scope does not cover variables {missing}; "
                         "samples would leave them unassigned")
    rng = np.random.default_rng(seed)
    out = np.full((n, c.n_vars), -1, dtype=np.int64)
    reach: dict[int, np.ndarray] = {uid: np.zeros(n, dtype=bool) for uid in c.units}
    reach[c.root][:] = True
    cum = {u.id: np.cumsum(np.asarray(u.weights) / np.sum(u.weights)) for u in c.sum_units()}
    for uid in reversed(c.order):
        u = c.units[uid]
        mask = reach[uid]
        if isinstance(u, IndicatorUnit):
            out[mask, u.var] = u.value
        elif isinstance(u, ProductUnit):
            for ch in u.children:
                reach[ch] |= mask
        else:
            draws = rng.random(n)  # full column keeps the stream layout fixed
            choice = np.searchsorted(cum[uid], draws[mask], side="right")
            choice = np.minimum(choice, len(u.children) - 1)
            idx = np.flatnonzero(mask)
            for k in range(len(u.children)):
                reach[u.children[k]][idx[choice == k]] = True
    unassigned = np.flatnonzero((out < 0).any(axis=0)).tolist()
    if unassigned:
        raise ValueError(f"samples left variables {unassigned} unassigned; "
                         "the circuit is not smooth")
    return out


def induced_tree_units(c, trace: Mapping[int, int]):
    """Units of the induced tree a MAP trace selects, depth first from the
    root, every parent before its children."""
    from aaipc.circuit import ProductUnit, SumUnit

    stack = [c.root]
    while stack:
        u = c.units[stack.pop()]
        yield u
        if isinstance(u, ProductUnit):
            stack.extend(u.children)
        elif isinstance(u, SumUnit):
            stack.append(u.children[trace[u.id]])


def map_failure_oracle(delta_e: int, n_mults_per_branch: int, n_samples: int,
                       seed: int) -> int:
    """Failures among `analysis.map_failure_prob`'s samples, counted by
    taking the logs of every sample: the same draws, no screen."""
    delta_e = abs(delta_e)
    rng = np.random.default_rng(seed)
    fails = done = 0
    while done < n_samples:
        m = min(1 << 16, n_samples - done)
        u = rng.random((m, n_mults_per_branch, 4))
        exact = np.log2(1.0 + u)
        d_exact = delta_e + np.sum(exact[:, :, 0] + exact[:, :, 1]
                                   - exact[:, :, 2] - exact[:, :, 3], axis=1)
        d_aai = delta_e + np.sum(u[:, :, 0] + u[:, :, 1]
                                 - u[:, :, 2] - u[:, :, 3], axis=1)
        fails += int(np.count_nonzero(d_exact * d_aai <= 0.0))
        done += m
    return fails
