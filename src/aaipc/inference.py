"""Finite-precision circuit evaluation: marginal and MAP queries under a
per-multiplication choice of exact or approximate hardware.

Every multiplication site in a circuit is named by the edge that brings its
operand in (`circuit.Edge`: one per sum edge, one per product child after the
first) and assigned a mode by a MultiplierPlan.  Additions always use the
exact adder.  The 64-bit baseline is an all-exact plan at the IEEE double layout.

Queries run on a compiled, levelized form of the circuit (`circuit._Compiled`,
kept on it): a unit's level is one more than its highest child's, and
each level is a few array operations on a value table with one row per unit
and one column per query row.  Products fold their children and sums their
edges in `children` order, padded with the word for one and with
zero-weight edges; padding never saturates.  Values are words of a kind
that the format alone decides (`_word_kind`):

- bit patterns (biased exponent, then mantissa) with zero as -1, out of
  band, so the smallest value (pattern 0) stays apart and word order is value
  order: in int32 where every intermediate fits (M <= 13), in int64 up to
  M = 40 (E + M <= 61), where past M = 29 the exact product and add keep the
  bits that decide the rounding and fold the rest into a sticky bit (the
  analysis config (11, 40) runs there);
- the same patterns as Python ints in object arrays for wider formats;
- IEEE doubles for FLOAT64, whose exact ops are IEEE ops.  A product at or
  below 2**-1022, where IEEE subnormals part from this format (a weight
  below 2**-1022 times a positive child is one), makes the chunk rerun on
  Python-int words; this is the one way a pass leaves IEEE doubles.

This module owns the word kinds (`_word_kind`) and what is cached per
compiled layout for them: the slot weights as words of each (config, kind),
the uniform plans and each plan's per-level modes, all held weakly by the
layout so that they go with the circuit.  MAP's backtrack is the layout's
`descend`, which `circuit.sample` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .circuit import (Circuit, Edge, ProductUnit, SumUnit, _check_rows, _compile, _Compiled,
                      _is_integer, _row_array)
from .floats import (FLOAT64, NEAREST_EVEN, CustomFloat, FloatConfig,  # noqa: F401
                     MultResult, aai_mul, encode, encode_words, exact_add, exact_mul,
                     log2_value)  # the scalar ops stay bound for callers that wrap them

EXACT = "exact"
AAI = "aai"

#: units x rows of one chunk's value table (a quarter of it for Python ints)
CHUNK_CELLS = 1 << 19

#: per compiled layout: {(cfg, kind): weight words} and {(plan class, mode): plan}
_WORDS: WeakKeyDictionary = WeakKeyDictionary()
_UNIFORM_PLANS: WeakKeyDictionary = WeakKeyDictionary()


def enumerate_sites(c: Circuit) -> list[Edge]:
    """Every multiplication site of the circuit as its edge, in sorted order."""
    return list(_compile(c).sites)


@dataclass(frozen=True)
class MultiplierPlan:
    """One mode for each multiplication site, keyed by its `circuit.Edge`; a
    read-only copy, so its per-level modes are cached per compiled circuit."""

    modes: Mapping[Edge, str]
    _levels: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False,
                                       repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", MappingProxyType(dict(self.modes)))
        for site, mode in self.modes.items():
            if mode not in (EXACT, AAI):  # _modes reads anything but AAI as exact
                raise ValueError(f"site {site}: mode {mode!r} is neither {EXACT!r} nor {AAI!r}")

    @classmethod
    def all_exact(cls, c: Circuit) -> "MultiplierPlan":
        return cls._uniform(c, EXACT)

    @classmethod
    def all_aai(cls, c: Circuit) -> "MultiplierPlan":
        return cls._uniform(c, AAI)

    @classmethod
    def _uniform(cls, c: Circuit, mode: str) -> "MultiplierPlan":
        """The circuit's plan with every site in one mode, built once."""
        plans = _UNIFORM_PLANS.setdefault(_compile(c), {})
        if (cls, mode) not in plans:
            plans[cls, mode] = cls(dict.fromkeys(enumerate_sites(c), mode))
        return plans[cls, mode]

    @classmethod
    def from_aai_weight_sites(cls, c: Circuit,
                              aai_edges: Sequence[Edge]) -> "MultiplierPlan":
        """AAI on the listed sum edges, exact everywhere else."""
        chosen = {(uid, i) for uid, i in aai_edges}
        missing = chosen.difference(c.weight_edges())
        if missing:
            raise ValueError(f"edges are not sum edges of this circuit: {sorted(missing)}")
        return cls({s: AAI if s in chosen else EXACT for s in enumerate_sites(c)})

    def mode(self, site: Edge) -> str:
        return self.modes[site]

    def check_covers(self, c: Circuit) -> None:
        expected = set(enumerate_sites(c))
        got = set(self.modes)
        if expected != got:
            raise ValueError("plan does not cover the circuit's sites exactly: "
                             f"missing {sorted(expected - got)[:4]}, "
                             f"extra {sorted(got - expected)[:4]}")

    def _modes(self, c: Circuit) -> list:
        """Per level of the compiled circuit, how each product fold step and
        how the sum edges multiply (`_split` of the AAI flags per slot)."""
        comp = _compile(c)
        if comp not in self._levels:
            self.check_covers(c)
            mask = np.zeros(comp.n_slots, dtype=bool)  # padding slots exact
            mask[comp.slot_index] = [self.modes[s] == AAI for s in comp.slot_sites]
            self._levels[comp] = [
                ([_split(m) for m in mask[lev.pslot:lev.pslot + lev.pch.size]
                  .reshape(lev.pch.shape)[1:]],
                 _split(mask[lev.sslot:lev.sslot + lev.sch.size]))
                for lev in comp.levels]
        return self._levels[comp]


@dataclass(frozen=True)
class MapResult:
    """Backtracked MAP solution: assignment, its log2 score, and the per-sum
    child choices the assignment was reconstructed from."""

    assignment: np.ndarray
    log2_value: float
    trace: Mapping[int, int]


class _Trace(Mapping):
    """A MAP trace, {sum id: child position}, read from a choice table."""

    def __init__(self, index: dict[int, int], column: np.ndarray):
        self._index, self._column = index, column

    def __getitem__(self, uid: int) -> int:
        return int(self._column[self._index[uid]])

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


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


def _widths(man_bits: int, dtype) -> tuple[int, int]:
    """(k, g) for M-bit significands in words of the given dtype, of 31 or
    63 value bits: the exact product drops the k low bits of its low partial
    product into a sticky bit, k = max(0, 2M+3 - value bits), and the add
    aligns with g guard bits, M+2 where the aligned sum's 2M+5 bits fit
    (lossless), else 3 and a sticky bit."""
    if dtype == object:
        return 0, man_bits + 2
    bits = np.iinfo(dtype).bits - 1
    return (max(0, 2 * man_bits + 3 - bits),
            man_bits + 2 if 2 * man_bits + 5 <= bits else 3)


class _IntWords:
    """The float ops on words with -1 for zero, over int32, int64 or Python
    int arrays.  The exact product and the add round in one step, `_round`,
    where a carry out of the significand lands in the exponent field.  Every
    shift but the add's alignment is by a constant.  A saturating result adds
    one to its column of `under` or `over`.

    Where the word cannot hold the full significand product or aligned sum,
    the rounding ops keep the bits that decide the rounding and fold the rest
    into a sticky bit at bit 0, at least two places below the round bit: the
    product's k low bits, and the add's lower operand past g guard bits
    (`_widths`).  Where it can (k = 0, g = M+2), no bit is folded."""

    def __init__(self, cfg: FloatConfig, dtype, n_rows: int):
        if cfg.bias < 0:
            raise ValueError("the word for one needs a non-negative bias")
        self.dtype, self.m, self.top = dtype, cfg.man_bits, cfg.max_word
        self.mm, self.scale = cfg.man_scale - 1, cfg.man_scale
        self.bias, self.one, self.zero = cfg.bias, cfg.bias << cfg.man_bits, -1
        self.nearest = cfg.rounding == NEAREST_EVEN
        self.k, self.g = _widths(cfg.man_bits, dtype)
        self.under, self.over = np.zeros((2, n_rows), dtype=np.int64)

    def aai(self, a, b):
        """Words add as integers and the duplicated bias goes."""
        return self._saturate(a + b - self.one, (a < 0) | (b < 0))

    def exact(self, a, b):
        """Significand product over 2**k, rounded once."""
        m = self.m
        wide = self._product((a & self.mm) | self.scale, (b & self.mm) | self.scale)
        r = self._round((a >> m) + (b >> m) - self.bias, wide, m + 1 - self.k)
        return self._saturate(r, (a < 0) | (b < 0))

    def add(self, a, b):
        """Significand sum aligned to g guard bits, rounded once; an operand
        M+2 or more binades below the other cannot change it."""
        m, g = self.m, self.g
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        d = np.minimum((hi >> m) - (lo >> m), m + 2)
        wide = (((hi & self.mm) | self.scale) << g) + self._align((lo & self.mm) | self.scale, d)
        r = self._round(hi >> m, wide, g + 1)
        return self._saturate(np.where((d > m + 1) | (lo < 0), hi, r))

    def _round(self, e, wide, s):
        """The word of wide * 2**(e - bias - M - s + 1) for a significand
        wide of M+s or M+s+1 bits: normalised to M+s+1 bits and rounded once
        to M+1, a carry landing in the exponent field."""
        carry = wide >> (self.m + s)
        wide = wide * (2 - carry)
        if self.nearest:  # add just under half an ulp, plus the kept parity bit
            wide = wide + (wide >> s & 1) + ((1 << (s - 1)) - 1)
        return ((e + carry) << self.m) + (wide >> s) - self.scale

    def _product(self, sa, sb):
        """sa * sb over 2**k: with k > 0, the k low bits of the low partial
        product fold into bit 0."""
        k = self.k
        if not k:
            return sa * sb
        low = sa * (sb & ((1 << k) - 1))
        return sa * (sb >> k) + (low >> k) | ((low & ((1 << k) - 1)) != 0)

    def _align(self, s, d):
        """s with g guard bits, d binades down: with g < M+2, the bits
        shifted out fold into bit 0."""
        g = self.g
        if g == self.m + 2:
            return s << (g - d)
        s = s << g
        r = s >> d
        return r | ((r << d) != s)

    def _saturate(self, r, zero=None):
        """Count and saturate out-of-range words; zero marks the results of
        a zero operand, which are zero without a flag."""
        if zero is not None:
            under = (r < 0) & ~zero
            if under.any():
                self.under += under.sum(axis=0)
            r = np.where(zero | under, -1, r)
        over = r > self.top
        if over.any():
            self.over += over.sum(axis=0)
            r = np.where(over, self.top, r)
        return r


class _LeavesIEEE(Exception):
    """A FLOAT64 value reached the range where IEEE doubles differ."""


_TINY = 2.0 ** -1022


class _IEEEWords:
    """FLOAT64 on IEEE doubles, the same values and ops as the bit patterns
    while every value stays normal: a product at or below 2**-1022 raises
    _LeavesIEEE, sums of normal values stay normal, and the values of a
    circuit whose weights sum to one stay far below overflow."""

    dtype, one, zero = np.dtype(np.float64), 1.0, 0.0

    def __init__(self, n_rows: int):
        self.under = self.over = np.zeros(n_rows, dtype=np.int64)  # never saturates

    @staticmethod
    def aai(a, b):
        zero = (a == 0) | (b == 0)
        r = a.view(np.int64) + b.view(np.int64) - (1023 << 52)  # the bias word of 1.0
        if ((r < 1 << 52) & ~zero).any():
            raise _LeavesIEEE
        return np.where(zero, 0.0, r.view(np.float64))

    @staticmethod
    def exact(a, b):
        r = a * b
        if ((r <= _TINY) & (a > 0) & (b > 0)).any():
            raise _LeavesIEEE
        return r

    add = staticmethod(np.add)


def _word_kind(cfg: FloatConfig):
    """The words cfg's ops run on.  A sum of two words needs E+M+2 bits.
    int32 only where both rounding ops are lossless (k = 0, g = M+2: the
    aligned sum needs 2M+5 bits), as the sticky forms cost time there; int64
    also where the product's low partial product, of M+1+k bits, fits in 62
    bits (M <= 40); Python ints for the rest."""
    if cfg == FLOAT64:
        return "ieee"
    m, e = cfg.man_bits, cfg.exp_bits
    if e + m + 2 <= 31 and _widths(m, np.int32) == (0, m + 2):
        return np.dtype(np.int32)
    if e + m + 2 <= 63 and m + 1 + _widths(m, np.int64)[0] <= 62:
        return np.dtype(np.int64)
    return np.dtype(object)


def _weight_words(comp: _Compiled, cfg: FloatConfig, kind):
    """The slot weights as words of the given kind (a numpy dtype, or
    "ieee" for float64), with the counts of weights that saturated."""
    words, key = _WORDS.setdefault(comp, {}), (cfg, str(kind))
    if key not in words:
        w, under, over = encode_words(comp.weights, cfg)
        words[key] = (comp.weights if kind == "ieee" else w.astype(kind), under, over)
    return words[key]


def _evidence_row(c: Circuit, evidence: Mapping[int, int]) -> np.ndarray:
    """{variable: value} evidence as a row, -1 where unobserved."""
    row = np.full(c.n_vars, -1, dtype=np.int64)
    for var, value in evidence.items():
        if not _is_integer(var):
            raise ValueError(f"evidence variable {var!r} is not an integer")
        if var not in range(c.n_vars):
            raise ValueError(f"evidence names unknown variable {var}")
        if not _is_integer(value):
            raise ValueError(f"evidence value {value!r} for variable {var} is not an integer")
        if not 0 <= value < c.variables[var].cardinality:
            raise ValueError(f"evidence value {value} out of range for variable {var}")
        row[var] = value
    return row


def _split(mask: np.ndarray):
    """How one fold step or level of edges multiplies: True (all AAI),
    False (all exact), or the (AAI, exact) index arrays of a mixed one."""
    if mask.all() or not mask.any():
        return bool(mask.all())
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _mul(ar, a, b, how):
    if how is True or how is False:
        return ar.aai(a, b) if how else ar.exact(a, b)
    out = np.empty(b.shape, dtype=ar.dtype)
    for idx, op in zip(how, (ar.aai, ar.exact)):
        out[idx] = op(a[idx], b[idx])
    return out


_MAR, _MAP, _PICK = range(3)


class CircuitEvaluator:
    """Reusable evaluation state for one (circuit, config, plan) triple: a
    handle over the compiled circuit, the weight words for cfg (cached with
    it) and the plan's per-level modes (cached on the plan), so that
    building one does no per-unit or per-level work.  Weights are quantized
    once, per cfg.rounding; under toward-zero this keeps the one-sided
    underestimation end to end.  The word kind follows from cfg alone; a
    FLOAT64 chunk whose values leave IEEE doubles reruns on Python ints.

    `mar`, `map_query` and `restricted_value` take one row (a sequence, or a
    {variable: value} mapping) or a 2-D batch of rows, and then return one
    result per row.  A -1 in a row leaves its variable unobserved, with its
    indicators at one.  Batches run in chunks of CHUNK_CELLS table cells.
    """

    def __init__(self, c: Circuit, cfg: FloatConfig, plan: MultiplierPlan):
        self.circuit = c
        self.cfg = cfg
        self.plan = plan
        self._comp = comp = _compile(c)
        self._modes = plan._modes(c)
        self._kind = _word_kind(cfg)
        w, self.weight_quant_underflows, self.weight_quant_overflows = \
            _weight_words(comp, cfg, self._kind)
        self._w = w[:, np.newaxis]

    def _pass(self, ar, w, rows: np.ndarray, mode: int, picks: Optional[np.ndarray]):
        """Evaluate a chunk of rows, children first, one level at a time;
        returns the root words, the per-row saturation counts and, for MAP,
        the per-sum choices and the backtracked assignments."""
        comp, n = self._comp, len(rows)
        val = np.empty((comp.n_table, n), dtype=ar.dtype)
        val[comp.one_row], val[comp.zero_row] = ar.one, ar.zero
        obs = rows.T[comp.ind_var]
        val[:len(comp.ind_var)] = np.where((obs < 0) | (obs == comp.ind_val[:, None]),
                                           ar.one, ar.zero)
        choices = []
        for lev, (steps, edges) in zip(comp.levels, self._modes):
            if lev.p1 > lev.p0:
                acc = val[lev.pch[0]]
                for k, how in enumerate(steps, 1):
                    acc = _mul(ar, acc, val[lev.pch[k]], how)
                val[lev.p0:lev.p1] = acc
            if lev.s1 > lev.s0:
                k_s, n_s = lev.sch.shape
                terms = _mul(ar, w[lev.sslot:lev.sslot + lev.sch.size], val[lev.sch.ravel()],
                             edges).reshape(k_s, n_s, n)
                acc = terms[0]
                if mode == _MAR:
                    for k in range(1, k_s):
                        acc = ar.add(acc, terms[k])
                elif mode == _MAP:
                    pick = np.zeros((n_s, n), dtype=np.int64)
                    for k in range(1, k_s):
                        better = terms[k] > acc  # strict: ties keep the lowest index
                        acc = np.where(better, terms[k], acc)
                        pick[better] = k
                    choices.append(pick)
                else:
                    pick, picks = picks[:n_s], picks[n_s:]
                    acc = np.take_along_axis(terms, pick[np.newaxis], axis=0)[0]
                val[lev.s0:lev.s1] = acc
        roots = val[comp.root]
        if ar.dtype == np.float64:
            roots = np.where(roots == 0, -1, roots.view(np.int64))
        if mode != _MAP:
            return roots, ar.under, ar.over, None, None
        choices = np.concatenate(choices or [np.zeros((0, n), dtype=np.int64)])
        return roots, ar.under, ar.over, choices, comp.descend(choices, n)

    def _evaluate(self, x, mode: int, traces=None):
        """Run the pass over x's rows chunk by chunk, rerunning a chunk on
        Python-int words when IEEE doubles leave this format's values.
        Returns whether x was one row, the root values, the per-row
        saturation counts and, for MAP, the choices and assignments."""
        rows, single = self._batch(x)
        picks = None if traces is None else self._picks([traces] if single else traces, len(rows))
        cells = CHUNK_CELLS // 4 if self._kind == object else CHUNK_CELLS
        step = max(1, cells // self._comp.n_table)
        parts = []
        for s in range(0, max(len(rows), 1), step):  # an empty batch makes one empty chunk
            args = rows[s:s + step], mode, None if picks is None else picks[:, s:s + step]
            try:
                ar = (_IEEEWords(len(args[0])) if self._kind == "ieee"
                      else _IntWords(self.cfg, self._kind, len(args[0])))
                parts.append(self._pass(ar, self._w, *args))
            except _LeavesIEEE:
                w = _weight_words(self._comp, self.cfg, np.dtype(object))[0][:, np.newaxis]
                parts.append(self._pass(_IntWords(self.cfg, np.dtype(object), len(args[0])),
                                        w, *args))
        roots, under, over, trace, assignment = zip(*parts)
        m, bias, mm = self.cfg.man_bits, self.cfg.bias, self.cfg.man_scale - 1
        zero = CustomFloat.zero(m)
        values = [zero if w < 0 else CustomFloat(False, (w >> m) - bias, w & mm, m)
                  for w in np.concatenate(roots).tolist()]
        return (single, values, np.concatenate(under), np.concatenate(over),
                None if trace[0] is None else np.hstack(trace),
                None if assignment[0] is None else np.vstack(assignment))

    def _batch(self, x) -> tuple[np.ndarray, bool]:
        """x as a 2-D batch of checked rows, and whether it was a single row."""
        if isinstance(x, Mapping):
            return _evidence_row(self.circuit, x)[np.newaxis], True
        x = _row_array(x)
        return _check_rows(self.circuit, np.atleast_2d(x), unobserved=True), x.ndim == 1

    def _picks(self, traces: Sequence[Mapping[int, int]], n_rows: int) -> np.ndarray:
        """The traced edge of every sum (its first where a trace has none),
        one column per trace and row."""
        index = self._comp.sum_index
        if len(traces) != n_rows:
            raise ValueError(f"{len(traces)} traces for {n_rows} rows")
        if traces and all(isinstance(t, _Trace) and t._index is index for t in traces):
            picks = np.stack([t._column for t in traces], axis=1)
        else:
            picks = np.array([[t.get(uid, 0) for t in traces] for uid in index],
                             dtype=np.int64).reshape(len(index), len(traces))
        if ((picks < 0) | (picks >= self._comp.sum_arity[:, None])).any():
            raise ValueError("trace names an edge its sum does not have")
        return picks

    @staticmethod
    def _per_row(single: bool, results: list, under: np.ndarray, over: np.ndarray):
        return (results[0], int(under[0]), int(over[0])) if single else (results, under, over)

    def mar(self, x):
        """Marginal pass: the root result plus the counts of saturating
        operations along the way, for one row or per row of a batch."""
        single, roots, under, over, _, _ = self._evaluate(x, _MAR)
        wu, wo = self.weight_quant_underflows > 0, self.weight_quant_overflows > 0
        results = [MultResult(v, u > 0 or wu, o > 0 or wo)
                   for v, u, o in zip(roots, under.tolist(), over.tolist())]
        return self._per_row(single, results, under, over)

    def map_query(self, evidence):
        """Max-product upward pass with argmax trace, then top-down
        backtracking.  Unobserved indicators score one; ties pick the lowest
        child index."""
        single, roots, under, over, trace, assignment = self._evaluate(evidence, _MAP)
        index = self._comp.sum_index
        return self._per_row(single, [
            MapResult(assignment[r], log2_value(v), _Trace(index, trace[:, r]))
            for r, v in enumerate(roots)], under, over)

    def restricted_value(self, trace, evidence):
        """Re-evaluate with each sum taking only its traced edge (a sum the
        trace leaves out, which must lie outside the induced tree, takes its
        first); on a MAP trace this reproduces the MAP score bit for bit.
        A batch of evidence rows takes a sequence of traces."""
        single, roots = self._evaluate(evidence, _PICK, trace)[:2]
        return roots[0] if single else roots


def induced_tree_edges(c: Circuit, trace: Mapping[int, int]) -> list[Edge]:
    """Sum edges of the induced tree a MAP trace selects, depth first from
    the root."""
    edges, stack = [], [c.root]
    while stack:
        u = c.units[stack.pop()]
        if isinstance(u, SumUnit):
            edges.append((u.id, trace[u.id]))
            stack.append(u.children[trace[u.id]])
        elif isinstance(u, ProductUnit):
            stack.extend(u.children)
    return edges


# ---------------------------------------------------------------------------
# public query API
# ---------------------------------------------------------------------------

def eval_mar(c: Circuit, x: Sequence[int], cfg: FloatConfig,
             plan: MultiplierPlan) -> MultResult:
    """Probability of one complete assignment under the given plan."""
    x = _check_rows(c, _row_array(x)[np.newaxis])[0]
    result, _, _ = CircuitEvaluator(c, cfg, plan).mar(x)
    return result


def eval_map(c: Circuit, evidence: Mapping[int, int], cfg: FloatConfig,
             plan: MultiplierPlan) -> MapResult:
    """Most likely completion of partial evidence under the given plan."""
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
    if not np.isfinite(correction):
        raise ValueError(f"correction must be finite, got {correction!r}")
    data = _check_rows(c, np.atleast_2d(_row_array(data)), unobserved=True)
    base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
    test = CircuitEvaluator(c, cfg, plan)
    complete = np.flatnonzero((data >= 0).all(axis=1))
    b_mar, _, _ = base.mar(data[complete])
    for row_idx, b in zip(complete.tolist(), b_mar):
        if b.value.is_zero:
            raise EvaluationError(
                f"baseline probability is zero for instance {row_idx}; "
                "log error is undefined")
    t_mar, mar_under, mar_over = test.mar(data[complete])
    log_err_sum = 0.0
    for b, t in zip(b_mar, t_mar):
        log_err_sum += abs(log2_value(b.value) - (log2_value(t.value) + correction))
    b_map, _, _ = base.map_query(data)
    t_map, map_under, map_over = test.map_query(data)
    map_hits = sum(np.array_equal(b.assignment, t.assignment) for b, t in zip(b_map, t_map))
    n, n_mar = len(data), len(complete)
    return QueryMetrics(
        mean_log_error=log_err_sum / n_mar if n_mar else 0.0,
        map_accuracy=map_hits / n if n else 0.0,
        underflow_count=test.weight_quant_underflows + int(mar_under.sum() + map_under.sum()),
        overflow_count=test.weight_quant_overflows + int(mar_over.sum() + map_over.sum()),
        n_instances=n,
        n_mar_instances=n_mar,
    )
