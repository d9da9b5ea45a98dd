"""Finite-precision circuit evaluation: marginal and MAP queries under a
per-multiplication choice of exact or approximate hardware.

Every multiplication site in a circuit is named by the edge that brings its
operand in (`circuit.Edge`: one per sum edge, one per product child after the
first) and assigned a mode by a MultiplierPlan.  Additions always use the
exact adder, which returns the other operands unrounded where every lower
operand is zero: on a deterministic circuit a complete row's adds all do, as
each sum keeps at most one nonzero term.  The 64-bit baseline is an all-exact
plan at the IEEE double layout.

Queries run on a compiled, levelized form of the circuit (`circuit._Compiled`,
kept on it): a unit's level is one more than its highest child's, and
each level is a few array operations on a value table with one row per unit
and one column per query row.  Products fold their children and sums their
edges in `children` order, padded with the word for one and with
zero-weight edges; padding never saturates.  Values are words of a kind
that the format alone decides (`_word_kind`):

- IEEE doubles (kind float64), wherever the format fits them
  (`_fits_doubles`: 1 <= M <= 25, bias <= 511, e_max <= 510), as the int64
  bit patterns of the values with zero as 0 (`_PatternWords`).  The AAI
  product is still an integer add less the pattern of 1.0 and MAP still
  compares integers; the exact product is one IEEE multiply, exact as
  2(M+1) <= 53, and the add one IEEE add, whose rounding to 53 bits then to
  M+1 rounds as once as 53 >= 2(M+1) + 1, each then rounded by a mask on
  the pattern.  M = 0 stays on the format's words, as its ties go up on the
  implicit leading bit, which a pattern does not hold;
- IEEE doubles for FLOAT64 too, held as float64 values (`_IEEEWords`), so
  its exact ops are one IEEE op each.  A product at or below 2**-1022,
  where IEEE subnormals part from this format (a weight below 2**-1022
  times a positive child is one), counts in `under`, and its chunk reruns,
  the same pass, on FLOAT64's Python-int words: the one way a pass leaves
  IEEE doubles;
- the format's own bit patterns (biased exponent, then mantissa) with zero
  as -1, out of band, so the smallest value (pattern 0) stays apart and
  word order is value order (`_IntWords`): in int64 up to M = 40
  (E + M <= 61), where past M = 29 the exact product and add keep the bits
  that decide the rounding and fold the rest into a sticky bit (the
  analysis config (11, 40) runs there);
- the same patterns as Python ints in object arrays for wider formats.

Input tables.  Where every first-level sum (one whose children are all
indicators) tests one variable (`_Compiled.leaf_var`), as the categorical
inputs of generated circuits do, each of their words, and MAP's choice, depends
on that variable's value alone.  The pass then reads that level's sums from a
per-state table in one gather, `table.take(offset + x[var] + 1)`, in place
of multiplying weights by indicators and adding.  A MAR and a MAP table are
built with each word format's record (below) by the level code the pass runs
(`_sums`), on one column per state: unobserved, then each value up to the
largest cardinality.  The plan does not enter, as a weight times one or zero
is the same word under either multiplier.  Where that build
counts in `under` or `over` there is no table and the level runs as above,
and so does every `restricted_value` pass, so results and counts are the
same either way.

Range certificate.  Once per (plan, word format record), on its first pass,
the evaluator decides up to which level no op of any pass on any row can
leave the format's range, from two checked passes over one row with every
variable unobserved (`CircuitEvaluator._certify`).  The ops are monotone and
an add is at least its larger operand, so the MAR pass bounds every word
from above, and a pass whose sums keep their least nonzero term (`_sums`'
_LEAST) bounds every nonzero word from below, up to the first level where
either counts in `under` or `over` (on IEEE doubles: where a product leaves
them); above an underflow the least-term pass bounds nothing.  The verdict
is the number of leading levels before that one and before the first level
with an AAI product whose operand can meet the zero word and may exceed
one.  Those levels run unchecked: no op counts or clamps, the exact product
only maps zero operands to zero, and an AAI product is one integer add,
max(a + b - one, zero).  They count no saturation, as checked ones would
not, and every level from there runs checked, so results and counts are the
same either way.  The verdict is kept with the plan's per-level modes, keyed
by the record.

Word formats.  Everything a pass needs from its number format is worked out
once per (compiled layout, config, word kind), in one record (`_Format`,
built by `_format` and held weakly by the layout, so that it goes with the
circuit): the slot weights as words with the counts of those that
saturated, the MAR and MAP input tables, the word ops of a chunk
(`_PatternWords`, `_IEEEWords` or `_IntWords`, which carry the record), and
the values of root words.  The evaluator reads no bit field: it hands rows
to the word ops of its record, and the FLOAT64 rerun is the same pass on the
ops of the (FLOAT64, Python int) record.  The rounding step of the word ops
is `floats._round_words` on the format's words, which `floats.encode_words`
shares, and a mask on IEEE double patterns.  The uniform
plans and each plan's per-level modes are kept per layout too.  MAP's
backtrack is the layout's `descend`, which `circuit.sample` shares; the
observed variables of an assignment keep their evidence values.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .circuit import (CHUNK_CELLS, Circuit, Edge, ProductUnit, SumUnit, _check_rows, _compile,
                      _Compiled, _is_integer, _row_array)
from .floats import (FLOAT64, NEAREST_EVEN, CustomFloat, FloatConfig, MultResult,  # noqa: F401
                     _round_words, aai_mul, encode, encode_words, exact_add, exact_mul,
                     log2_value)  # the scalar ops stay bound for callers that wrap them

EXACT = "exact"
AAI = "aai"

#: per compiled layout: {(cfg, word kind): _Format} and {(plan class, mode): plan}
_FORMATS: WeakKeyDictionary = WeakKeyDictionary()
_UNIFORM_PLANS: WeakKeyDictionary = WeakKeyDictionary()


def enumerate_sites(c: Circuit) -> list[Edge]:
    """Every multiplication site of the circuit as its edge, in sorted order."""
    return list(_compile(c).sites)


@dataclass(frozen=True)
class MultiplierPlan:
    """One mode for each multiplication site, keyed by its `circuit.Edge`; a
    read-only copy, so its per-level modes are cached per compiled circuit,
    and with them the range certificate's verdicts, {_Format: the number of
    leading levels that run unchecked}."""

    modes: Mapping[Edge, str]
    _levels: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False,
                                       repr=False, compare=False)
    _verdicts: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False,
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


@dataclass(frozen=True, eq=False)
class MapResult:
    """Backtracked MAP solution: assignment, its log2 score, and the per-sum
    child choices the assignment was reconstructed from.  Results compare
    by value, traces as mappings; they are not hashable."""

    assignment: np.ndarray
    log2_value: float
    trace: Mapping[int, int]

    def __eq__(self, other):
        return isinstance(other, MapResult) and np.array_equal(self.assignment, other.assignment) \
            and self.log2_value == other.log2_value and dict(self.trace) == dict(other.trace)


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

    def __repr__(self) -> str:
        return repr(dict(self))


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


def _widths(man_bits: int, dtype: np.dtype) -> tuple[int, int]:
    """(k, g) for M-bit significands in int64 words (63 value bits) or
    Python ints: the exact product drops the k low bits of its low partial
    product into a sticky bit, k = max(0, 2M+3 - 63), and the add aligns
    with g guard bits, M+2 where the aligned sum's 2M+5 bits fit (lossless),
    else 3 and a sticky bit."""
    if dtype == object:
        return 0, man_bits + 2
    return max(0, 2 * man_bits - 60), man_bits + 2 if 2 * man_bits + 5 <= 63 else 3


class _Words:
    """What the word ops on integer words share: the AAI product, one
    integer add less the word for one, and the range check of a result.
    Checked, a result below the least value's word `lo` underflows and one
    above the largest, `top`, overflows; each adds one to its column of
    `under` or `over`.  Unchecked, for a level the range certificate covers,
    no op looks at the range, and the AAI product is max(a + b - one, zero):
    a zero operand, with the other at most one, gives at most the zero word."""

    def __init__(self, n_rows: int, checked: bool):
        self.checked = checked
        self.under, self.over = np.zeros((2, n_rows), dtype=np.int64)

    def aai(self, a, b):
        """Words add as integers and the duplicated bias goes."""
        r = a + b
        r -= self.one
        if not self.checked:
            return np.maximum(r, self.zero, out=r)
        return self._saturate(r, (a == self.zero) | (b == self.zero))

    def _saturate(self, r, zero=None):
        """Count and saturate out-of-range words; zero marks the results of
        a zero operand, which are zero without a flag.  Unchecked, only
        those become zero."""
        if not self.checked:
            return r if zero is None else np.where(zero, self.zero, r)
        if zero is not None:
            under = (r < self.lo) & ~zero
            if under.any():
                self.under += under.sum(axis=0)
            r = np.where(zero | under, self.zero, r)
        over = r > self.top
        if over.any():
            self.over += over.sum(axis=0)
            r = np.where(over, self.top, r)
        return r


class _IntWords(_Words):
    """The float ops on the format's own words, with -1 for zero, over int64
    or Python int arrays.  The exact product and the add round in one step,
    `floats._round_words`, where a carry out of the significand lands in the
    exponent field; an add whose lower operands are all zero skips it and
    returns the other operands.  Every shift but the add's alignment is by a
    constant.  Unchecked, the exact product only maps a zero operand to zero.

    Where the word cannot hold the full significand product or aligned sum,
    the rounding ops keep the bits that decide the rounding and fold the rest
    into a sticky bit at bit 0, at least two places below the round bit: the
    product's k low bits, and the add's lower operand past g guard bits
    (`_widths`).  Where it can (k = 0, g = M+2: M <= 29 on int64), no bit is
    folded."""

    def __init__(self, cfg: FloatConfig, dtype: np.dtype, n_rows: int, checked: bool = True):
        super().__init__(n_rows, checked)
        self.cfg, self.dtype, self.m, self.top = cfg, dtype, cfg.man_bits, cfg.max_word
        self.mm, self.scale = cfg.man_scale - 1, cfg.man_scale
        self.bias, self.one, self.zero, self.lo = cfg.bias, cfg.bias << cfg.man_bits, -1, 0
        self.k, self.g = _widths(cfg.man_bits, dtype)

    def exact(self, a, b):
        """Significand product over 2**k, rounded once."""
        m = self.m
        wide = self._product((a & self.mm) | self.scale, (b & self.mm) | self.scale)
        r = _round_words((a >> m) + (b >> m) - self.bias, wide, m + 1 - self.k, self.cfg)
        return self._saturate(r, (a < 0) | (b < 0))

    def add(self, a, b):
        """Significand sum aligned to g guard bits, rounded once; an operand
        M+2 or more binades below the other cannot change it.  Where every
        lower operand is zero, the sums are the other operands: earlier ops'
        words, in range, which round to themselves and count nothing."""
        m, g = self.m, self.g
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        if lo.max(initial=-1) < 0:
            return hi
        d = np.minimum((hi >> m) - (lo >> m), m + 2)
        wide = (((hi & self.mm) | self.scale) << g) + self._align((lo & self.mm) | self.scale, d)
        r = _round_words(hi >> m, wide, g + 1, self.cfg)
        return self._saturate(np.where((d > m + 1) | (lo < 0), hi, r))

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


_TINY = 2.0 ** -1022
_INT64, _FLOAT64, _OBJECT = map(np.dtype, (np.int64, np.float64, object))
_ONE = 1023 << 52  # the bit pattern of 1.0


def _fits_doubles(cfg: FloatConfig) -> bool:
    """Whether cfg's ops run on IEEE double patterns (`_PatternWords`): its
    values and their products are normal doubles (bias <= 511, e_max <= 510),
    an (M+1)-bit significand product is exact in 53 bits and an add rounded
    to 53 bits, then to M+1, rounds as once (53 >= 2(M+1) + 1), and the
    lowest kept bit is a fraction bit (M >= 1: at M = 0 ties go up on the
    implicit leading bit, not on the exponent's low bit)."""
    return 1 <= cfg.man_bits <= 25 and cfg.bias <= 511 and cfg.e_max <= 510


class _PatternWords(_Words):
    """cfg's values as the int64 bit patterns of the IEEE doubles they are,
    with zero as 0, for the formats that fit (`_fits_doubles`).  Patterns of
    non-negative doubles compare as the values do, and the AAI product is
    their integer add less the pattern of 1.0, as on the format's words.
    The exact product is one IEEE multiply and the add one IEEE add (zero
    operands give zero), each then rounded once to M fraction bits by a
    mask on the pattern, where a carry lands in the exponent field.  The
    range is the patterns of 2**-bias (`lo`) and of the largest value."""

    dtype, one, zero = _INT64, _ONE, 0

    def __init__(self, cfg: FloatConfig, n_rows: int, checked: bool = True):
        super().__init__(n_rows, checked)
        self.cfg, self.s = cfg, 52 - cfg.man_bits
        self.lo = (1023 - cfg.bias) << 52
        self.top = (cfg.max_word << self.s) + self.lo
        self.keep = -1 << self.s
        self.half = (1 << (self.s - 1)) - 1 if cfg.rounding == NEAREST_EVEN else None

    def exact(self, a, b):
        r = self._round((a.view(np.float64) * b.view(np.float64)).view(np.int64))
        return self._saturate(r, (a == 0) | (b == 0)) if self.checked else r

    def add(self, a, b):
        r = self._round((a.view(np.float64) + b.view(np.float64)).view(np.int64))
        return self._saturate(r) if self.checked else r

    def _round(self, r):
        """r, a new array, rounded to M fraction bits in place: to nearest
        with ties to the even kept bit (add just under half an ulp, plus the
        kept parity bit), or toward zero."""
        if self.half is not None:
            r += (r >> self.s) & 1
            r += self.half
        r &= self.keep
        return r


class _IEEEWords:
    """FLOAT64 on IEEE doubles, held as float64 values, so that its exact
    product and add are one IEEE op each: the same values and ops as the bit
    patterns while every value stays normal.  Sums of normal values stay
    normal, and the values of a circuit whose weights sum to one stay far
    below overflow.  Checked, a product of nonzero operands at or below
    2**-1022 (the AAI one: below it) leaves IEEE doubles: it adds one to its
    column of `under` and gives 0.0, and `over` stays zero, so here a count
    means that the column left them.  Unchecked, for a level the range
    certificate covers, the products skip that test, and the AAI product is
    max(a + b - one, 0) on the bit patterns: zero's pattern is 0, and with
    the other operand at most 1.0 its sum is at most 0."""

    dtype, one, zero = np.dtype(np.float64), 1.0, 0.0

    def __init__(self, n_rows: int, checked: bool = True):
        self.under, self.over = np.zeros((2, n_rows), dtype=np.int64)
        self.checked = checked

    def aai(self, a, b):
        r = a.view(np.int64) + b.view(np.int64) - _ONE
        if not self.checked:
            return np.maximum(r, 0, out=r).view(np.float64)
        zero = (a == 0) | (b == 0)
        return self._count(np.where(zero, 0.0, r.view(np.float64)), (r < 1 << 52) & ~zero)

    def exact(self, a, b):
        r = a * b
        return self._count(r, (r <= _TINY) & (a > 0) & (b > 0)) if self.checked else r

    def _count(self, r, leaves):
        """Count the products that leave IEEE doubles, and make them 0.0."""
        if leaves.any():
            self.under += leaves.sum(axis=0)
            r = np.where(leaves, 0.0, r)
        return r

    add = staticmethod(np.add)


def _word_kind(cfg: FloatConfig) -> np.dtype:
    """The words cfg's ops run on, by format alone: float64 for IEEE doubles,
    FLOAT64's as float64 values (`_IEEEWords`) and those of the formats that
    fit them as their int64 bit patterns (`_PatternWords`); else int64 for
    the format's own words (`_IntWords`) where a sum of two, of E+M+2 bits,
    fits in 63 and the product's low partial product, of M+1+k bits, in 62
    (M <= 40); and Python ints for the rest."""
    if cfg == FLOAT64 or _fits_doubles(cfg):
        return _FLOAT64
    m, e = cfg.man_bits, cfg.exp_bits
    if e + m + 2 <= 63 and m + 1 + _widths(m, _INT64)[0] <= 62:
        return _INT64
    return _OBJECT


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


def _aai_part(how, n: int):
    """The positions, of n, that a `_split` result multiplies approximately."""
    if how is True or how is False:
        return slice(n if how else 0)
    return how[0]


def _within_one(ar, top: np.ndarray, lev, steps, edges) -> bool:
    """Whether every AAI product of the level whose operand can meet the
    zero word has that operand at most one, by the upper bounds top, so that
    the unchecked form max(a + b - one, zero) gives zero there.  A sum
    edge's child can be zero, so its nonzero weight must be at most one,
    and a zero weight meets its child; a fold step's operands can both be
    zero, so every child folded so far must be."""
    for k, how in enumerate(steps, 1):
        if (top[lev.pch[:k + 1, _aai_part(how, lev.pch.shape[1])]] > ar.one).any():
            return False
    at = _aai_part(edges, lev.sch.size)
    w = ar.fmt.w[lev.sslot:lev.sslot + lev.sch.size][at]
    kids = top[lev.sch.ravel()[at]]
    return not (np.where(w == ar.zero, kids, w) > ar.one).any()


def _mul(ar, a, val: np.ndarray, rows: np.ndarray, how):
    """a times val's rows `rows`, multiplied as `how` says; a mixed step
    gathers each part's rows straight from val."""
    if how is True or how is False:
        b = val.take(rows, axis=0)
        return ar.aai(a, b) if how else ar.exact(a, b)
    out = np.empty((len(rows), val.shape[1]), dtype=ar.dtype)
    for idx, op in zip(how, (ar.aai, ar.exact)):
        out[idx] = op(a[idx], val.take(rows[idx], axis=0))
    return out


_MAR, _MAP, _PICK, _LEAST = range(4)


def _inputs(comp: _Compiled, ar, obs: np.ndarray) -> np.ndarray:
    """A new value table, one column per entry of obs's last axis, with the
    words for one, zero and the indicators where their variables take the
    values obs (-1 unobserved: at one); every pass's table starts here."""
    val = np.empty((comp.n_table, obs.shape[-1]), dtype=ar.dtype)
    val[comp.one_row], val[comp.zero_row] = ar.one, ar.zero
    val[:len(comp.ind_var)] = np.where((obs < 0) | (obs == comp.ind_val[:, np.newaxis]),
                                       ar.one, ar.zero)
    return val


def _sums(ar, val: np.ndarray, lev, edges, mode: int, choices=None):
    """One level's sums over val's columns: each weight of ar's record times
    its child in the level's modes, then for MAR the terms added in
    `children` order, for MAP the largest term (strict >, so ties keep the
    lowest), its index written to choices, for _PICK the term choices names,
    and for _LEAST the least nonzero term (zero where every term is).
    Returns the words."""
    k_s, n_s = lev.sch.shape
    terms = _mul(ar, ar.fmt.w[lev.sslot:lev.sslot + lev.sch.size], val, lev.sch.ravel(),
                 edges).reshape(k_s, n_s, val.shape[1])
    if mode == _PICK:
        return np.take_along_axis(terms, choices[np.newaxis], axis=0)[0]
    if mode == _LEAST:  # zero terms take the largest, nonzero where any term is
        return np.where(terms > ar.zero, terms, terms.max(axis=0)).min(axis=0)
    acc = terms[0]
    if mode == _MAR:  # where each sum has one nonzero term, as on a
        # deterministic circuit's complete rows, every add returns it unrounded
        for k in range(1, k_s):
            acc = ar.add(acc, terms[k])
    else:
        choices[...] = 0
        for k in range(1, k_s):
            better = terms[k] > acc
            acc = np.where(better, terms[k], acc)
            np.copyto(choices, k, where=better)
    return acc


#: a first level's sums per state: sum i's word (and MAP choice) where its
#: variable takes value x (-1 unobserved) sits at base[i] + x
_Table = namedtuple("_Table", "words choices base")


class _Format:
    """What a pass needs from one word format on one compiled layout, built
    once per (layout, config, word kind) by `_format`: the slot weights as
    words, one column wide, with the counts of those that saturated; the
    word ops of a chunk; the MAR and MAP input tables; and the values of
    root words.  On IEEE doubles a value's bit pattern is its word shifted
    up by s = 52 - M, plus that of 2**-bias (FLOAT64's are its own words);
    FLOAT64's weights are the doubles themselves, a subnormal one included,
    and only there (`leaves`) may a count mean that a product left IEEE
    doubles.  The words need a word for one in range, so a negative bias is
    refused here."""

    def __init__(self, c: Circuit, cfg: FloatConfig, kind: np.dtype):
        if cfg.bias < 0:
            raise ValueError("the word for one needs a non-negative bias")
        comp = _compile(c)
        self.cfg, self.kind = cfg, kind
        self.leaves = kind == _FLOAT64 and cfg == FLOAT64
        self.s, self.lo = 52 - cfg.man_bits, (1023 - cfg.bias) << 52
        w, self.under, self.over = encode_words(comp.weights, cfg)
        if self.leaves:
            w = comp.weights
        elif kind == _FLOAT64:
            w = np.where(w < 0, 0, (w << self.s) + self.lo)
        else:
            w = w.astype(kind)
        self.w = w[:, np.newaxis]
        self.tables = {mode: self._table(c, comp, mode) for mode in (_MAR, _MAP)}

    def ops(self, n_rows: int, checked: bool = True):
        """The word ops over n_rows columns, checking each result's range
        unless told not to; they carry this record as `fmt`."""
        if self.kind != _FLOAT64:
            ar = _IntWords(self.cfg, self.kind, n_rows, checked)
        else:
            ar = _IEEEWords(n_rows, checked) if self.leaves else \
                _PatternWords(self.cfg, n_rows, checked)
        ar.fmt = self
        return ar

    def values(self, roots: np.ndarray) -> list[CustomFloat]:
        """Root words as values; IEEE doubles read through their patterns."""
        if self.kind == _FLOAT64:
            roots = np.where(roots == 0, -1, (roots.view(np.int64) - self.lo) >> self.s)
        m, bias, mm = self.cfg.man_bits, self.cfg.bias, self.cfg.man_scale - 1
        zero = CustomFloat.zero(m)
        return [zero if w < 0 else CustomFloat(False, (w >> m) - bias, w & mm, m)
                for w in roots.tolist()]

    def _table(self, c: Circuit, comp: _Compiled, mode: int) -> Optional[_Table]:
        """The input table of a MAR or MAP pass: the first level's sums, as
        the pass computes them, on one column per state.  None where a
        first-level sum tests two variables, or where the build counts in
        `under` or `over`, as the level must then run row by row.  The plan
        does not enter: at this level each weight is multiplied by one or
        by zero, which gives the same word under both multipliers, so the
        build multiplies approximately whatever the plan says."""
        if not comp.leaf_var.size or (comp.leaf_var < 0).any():
            return None
        lev = comp.levels[0]
        width = 1 + max(v.cardinality for v in c.variables)
        ops = self.ops(width)
        choices = np.empty((lev.s1 - lev.s0, width), dtype=np.int64)  # MAP fills it
        words = _sums(ops, _inputs(comp, ops, np.arange(-1, width - 1)), lev, True, mode, choices)
        if ops.under.any() or ops.over.any():
            return None
        return _Table(words.ravel(), choices.ravel() if mode == _MAP else None,
                      np.arange(lev.s1 - lev.s0)[:, np.newaxis] * width + 1)


def _format(c: Circuit, cfg: FloatConfig, kind: Optional[np.dtype] = None) -> _Format:
    """The record of cfg on c's layout, for words of the given kind (cfg's
    own by default), built on first use and held weakly by the layout."""
    key = (cfg, _word_kind(cfg) if kind is None else kind)
    formats = _FORMATS.setdefault(_compile(c), {})
    if key not in formats:
        formats[key] = _Format(c, *key)
    return formats[key]


class CircuitEvaluator:
    """Reusable evaluation state for one (circuit, config, plan) triple: a
    handle over the compiled circuit, cfg's record on it (`_Format`: the
    weight words, input tables and word ops, kept with the layout) and the
    plan's per-level modes (cached on the plan), so that building one does
    no per-unit or per-level work.  Weights are quantized once, per
    cfg.rounding; under toward-zero this keeps the one-sided
    underestimation end to end.  The word kind follows from cfg alone; a
    FLOAT64 chunk whose values leave IEEE doubles reruns on Python ints.
    Passes skip the range checks on the leading levels that the range
    certificate covers.

    `mar`, `map_query` and `restricted_value` take one row (a sequence, or a
    {variable: value} mapping) or a 2-D batch of rows, and then return one
    result per row.  A -1 in a row leaves its variable unobserved, with its
    indicators at one.  Batches run in chunks of CHUNK_CELLS table cells.
    """

    def __init__(self, c: Circuit, cfg: FloatConfig, plan: MultiplierPlan):
        self.circuit = c
        self.cfg = cfg
        self.plan = plan
        self._comp = _compile(c)
        self._modes = plan._modes(c)
        self._format = _format(c, cfg)
        self.weight_quant_underflows = self._format.under
        self.weight_quant_overflows = self._format.over

    def _pass(self, ar, rows: np.ndarray, mode: int, choices: Optional[np.ndarray],
              free: int = 0):
        """Evaluate a chunk of rows on ar's words, its first `free` levels
        unchecked; MAP fills `choices`, the chunk's columns of the choice
        table, and a picked pass reads them.  Returns the root values, the
        per-row saturation counts and, for MAP, the assignments."""
        comp = self._comp
        roots = self._ascend(ar, rows, mode, choices, free)[comp.root]
        return (ar.fmt.values(roots), ar.under, ar.over,
                comp.descend(choices, len(rows)) if mode == _MAP else None)

    def _ascend(self, ar, rows: np.ndarray, mode: int, choices=None, free: int = 0,
                counted: Optional[list] = None):
        """The value table of rows' columns, filled children first, one
        level at a time, the first level's sums of a MAR or MAP pass from
        the input table where ar's record has one.  The first `free` levels
        run unchecked, the rest as ar says; `counted`, where given, gets
        per level whether any op so far has counted.  MAP writes each
        level's choices to rows q0:q1 of `choices`, and a picked pass reads
        them there."""
        comp, table, checked = self._comp, ar.fmt.tables.get(mode), ar.checked
        val = _inputs(comp, ar, rows.T[comp.ind_var])
        for i, (lev, (steps, edges)) in enumerate(zip(comp.levels, self._modes)):
            ar.checked = checked and i >= free
            if lev.p1 > lev.p0:
                acc = val.take(lev.pch[0], axis=0)
                for k, how in enumerate(steps, 1):
                    acc = _mul(ar, acc, val, lev.pch[k], how)
                val[lev.p0:lev.p1] = acc
            if lev.s1 > lev.s0:
                picks = None if choices is None else choices[lev.q0:lev.q1]
                if table is not None:  # the first level's sums, by state
                    at = rows.T[comp.leaf_var] + table.base
                    # checked rows keep at in range; "clip" skips take's
                    # buffered copy of out
                    table.words.take(at, out=val[lev.s0:lev.s1], mode="clip")
                    if mode == _MAP:
                        picks[...] = table.choices.take(at)
                    table = None
                else:
                    val[lev.s0:lev.s1] = _sums(ar, val, lev, edges, mode, picks)
            if counted is not None:
                counted.append(bool(ar.under.any() or ar.over.any()))
        ar.checked = checked
        return val

    def _free(self, fmt: _Format) -> int:
        """How many leading levels passes on fmt's words run unchecked:
        decided on the first pass and kept with the plan's per-level modes."""
        verdicts = self.plan._verdicts
        if fmt not in verdicts:
            verdicts[fmt] = self._certify(fmt)
        return verdicts[fmt]

    def _certify(self, fmt: _Format) -> int:
        """The range certificate: the number of leading levels where no op
        of any MAR, MAP or picked pass on any row leaves the format's range,
        from two checked passes over one row with every variable
        unobserved.  The ops are monotone and an add is at least its larger
        operand, so the MAR pass bounds every word from above, and the pass
        that keeps each sum's least nonzero term bounds every nonzero word
        from below, up to the first level where either counts in `under` or
        `over`: above an underflow the least-term pass bounds nothing, so the
        unchecked levels are a prefix.  It also ends at the first level with
        an AAI product whose operand can meet the zero word and may exceed
        one (`_within_one`)."""
        row = np.full((1, self._comp.n_vars), -1, dtype=np.int64)
        ar, top_counted, least_counted = fmt.ops(1), [], []
        top = self._ascend(ar, row, _MAR, counted=top_counted)
        self._ascend(fmt.ops(1), row, _LEAST, counted=least_counted)
        free = 0
        for lev, (steps, edges), *counted in zip(self._comp.levels, self._modes,
                                                 top_counted, least_counted):
            if any(counted) or not _within_one(ar, top, lev, steps, edges):
                break
            free += 1
        return free

    def _evaluate(self, rows: np.ndarray, mode: int, picks: Optional[np.ndarray] = None):
        """Run the pass over checked rows chunk by chunk, the levels the
        range certificate covers unchecked, rerunning on the Python-int
        record a FLOAT64 chunk on IEEE doubles whose pass counted: there a
        count means that a product left IEEE doubles.  MAP fills one choice
        table per call (a row per sum in sum_index order, a column per row),
        a picked pass reads picks, and each chunk's pass gets its columns.
        Returns the root values, the per-row saturation counts and, for MAP,
        the choices and assignments."""
        fmt = self._format
        cells = CHUNK_CELLS // 4 if fmt.kind == _OBJECT else CHUNK_CELLS
        step = max(1, cells // self._comp.n_table)
        free = self._free(fmt)
        choices = picks if mode != _MAP else np.empty((len(self._comp.sum_index), len(rows)),
                                                      dtype=np.int64)
        parts = []
        for s in range(0, max(len(rows), 1), step):  # an empty batch makes one empty chunk
            args = rows[s:s + step], mode, None if choices is None else choices[:, s:s + step]
            part = self._pass(fmt.ops(len(args[0])), *args, free)
            if fmt.leaves and part[1].any():
                ints = _format(self.circuit, FLOAT64, _OBJECT)
                part = self._pass(ints.ops(len(args[0])), *args, self._free(ints))
            parts.append(part)
        values, under, over, assignment = zip(*parts)
        return ([v for vs in values for v in vs], np.concatenate(under), np.concatenate(over),
                choices, None if assignment[0] is None else np.vstack(assignment))

    def _batch(self, x) -> tuple[np.ndarray, bool]:
        """x as a 2-D batch of checked rows, and whether it was a single row."""
        if isinstance(x, Mapping):
            return _evidence_row(self.circuit, x)[np.newaxis], True
        x = _row_array(x)
        return _check_rows(self.circuit, np.atleast_2d(x), unobserved=True), x.ndim == 1

    def _picks(self, traces: Sequence[Mapping[int, int]], n_rows: int) -> np.ndarray:
        """The traced edge of every sum (its first where a trace has none),
        one column per trace and row.  A trace read from this circuit's
        choice tables is taken as it is; any other must map sums of the
        circuit to integers."""
        index = self._comp.sum_index
        if len(traces) != n_rows:
            raise ValueError(f"{len(traces)} traces for {n_rows} rows")
        if traces and all(isinstance(t, _Trace) and t._index is index for t in traces):
            picks = np.stack([t._column for t in traces], axis=1)
        else:
            for uid, k in (item for t in traces for item in t.items()):
                if not (_is_integer(uid) and uid in index):
                    raise ValueError(f"trace names {uid!r}, which is not a sum of the circuit")
                if not _is_integer(k):
                    raise ValueError(f"trace picks {k!r} for sum {uid}, not an integer")
            picks = np.array([[t.get(uid, 0) for t in traces] for uid in index],
                             dtype=np.int64).reshape(len(index), len(traces))
        bad = np.argwhere((picks < 0) | (picks >= self._comp.sum_arity[:, None]))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"trace picks edge {picks[i, j]} of sum {list(index)[i]}, "
                             f"which has {self._comp.sum_arity[i]}")
        return picks

    @staticmethod
    def _per_row(single: bool, results: list, under: np.ndarray, over: np.ndarray):
        return (results[0], int(under[0]), int(over[0])) if single else (results, under, over)

    def mar(self, x):
        """Marginal pass: the root result plus the counts of saturating
        operations along the way, for one row or per row of a batch."""
        return self._mar(*self._batch(x))

    def _mar(self, rows: np.ndarray, single: bool):
        roots, under, over, _, _ = self._evaluate(rows, _MAR)
        wu, wo = self.weight_quant_underflows > 0, self.weight_quant_overflows > 0
        results = [MultResult(v, u > 0 or wu, o > 0 or wo)
                   for v, u, o in zip(roots, under.tolist(), over.tolist())]
        return self._per_row(single, results, under, over)

    def map_query(self, evidence):
        """Max-product upward pass with argmax trace, then top-down
        backtracking.  Unobserved indicators score one; ties pick the lowest
        child index.  Observed variables keep their evidence values, also
        where the root is zero and the backtrack's choices are all ties."""
        rows, single = self._batch(evidence)
        roots, under, over, trace, assignment = self._evaluate(rows, _MAP)
        assignment = np.where(rows >= 0, rows, assignment)
        index = self._comp.sum_index
        return self._per_row(single, [
            MapResult(assignment[r], log2_value(v), _Trace(index, trace[:, r]))
            for r, v in enumerate(roots)], under, over)

    def restricted_value(self, trace, evidence):
        """Re-evaluate with each sum taking only its traced edge (a sum the
        trace leaves out, which must lie outside the induced tree, takes its
        first); on a MAP trace this reproduces the MAP score bit for bit.
        One evidence row takes one trace, a {sum id: child position}
        mapping; a batch of rows takes a sequence of them, one per row."""
        rows, single = self._batch(evidence)
        traces = [trace] if single or not isinstance(trace, Iterable) else list(trace)
        if isinstance(trace, Mapping) != single or not all(isinstance(t, Mapping) for t in traces):
            raise ValueError("one evidence row takes one trace, a {sum id: child position} "
                             "mapping, and a batch of rows a sequence of them, one per row")
        roots = self._evaluate(rows, _PICK, self._picks(traces, len(rows)))[0]
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
    rows = _check_rows(c, _row_array(x)[np.newaxis])  # complete: no value is negative
    result, _, _ = CircuitEvaluator(c, cfg, plan)._mar(rows, True)
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
    if not (isinstance(correction, numbers.Real) and not isinstance(correction, bool)
            and math.isfinite(correction)):
        raise ValueError(f"correction must be finite and real, got {correction!r}")
    correction = float(correction)
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
    b_map = base._evaluate(data, _MAP)[4]
    _, map_under, map_over, _, t_map = test._evaluate(data, _MAP)
    # the assignments before the evidence goes in: observed variables agree
    map_hits = int(((b_map == t_map) | (data >= 0)).all(axis=1).sum())
    n, n_mar = len(data), len(complete)
    return QueryMetrics(
        mean_log_error=log_err_sum / n_mar if n_mar else 0.0,
        map_accuracy=map_hits / n if n else 0.0,
        underflow_count=test.weight_quant_underflows + int(mar_under.sum() + map_under.sum()),
        overflow_count=test.weight_quant_overflows + int(mar_over.sum() + map_over.sum()),
        n_instances=n,
        n_mar_instances=n_mar,
    )
