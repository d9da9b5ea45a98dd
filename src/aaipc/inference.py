"""Finite-precision circuit evaluation: marginal and MAP queries under a
per-multiplication choice of exact or approximate hardware.

Every multiplication site in a circuit is named by the edge that brings its
operand in (`circuit.Edge`: one per sum edge, one per product child after the
first) and assigned a mode by a MultiplierPlan; per level, each fold step and
the sum edges multiply by one shape, the (AAI, exact) pair of their index
arrays (`_split`), whatever the mix.  Additions always use the
exact adder, which returns the other operands unrounded where every lower
operand is zero: on a deterministic circuit a complete row's adds all do, as
each sum keeps at most one nonzero term.  The 64-bit baseline is an all-exact
plan at the IEEE double layout.

Queries run on a compiled, levelized form of the circuit (`circuit._Compiled`,
kept on it): a unit's level is one more than its highest child's, and
each level is a few array operations on a value table with one row per unit
and one column per query row.  Rows are child-major: where a level's
products' or sums' children fill consecutive rows, the level reads them as
a view of the table, else by a gather (`circuit._kids`): a sum level's at
once, a product level's a fold step at a time.  Products fold their
children and sums their edges in `children` order, padded with the word for
one and with zero-weight edges; padding never saturates.  Values are words
of a kind that the format alone decides (`_word_kind`):

- IEEE doubles (kind float64), as the int64 bit patterns of the values
  with zero as 0 (`_PatternWords`), for FLOAT64 and wherever the format
  fits them (`_fits_doubles`: 1 <= M <= 25, bias <= 511, e_max <= 510).
  The AAI product is still an integer add less the pattern of 1.0 and MAP
  still compares integers; the exact product is one IEEE multiply, exact
  as 2(M+1) <= 53, and the add one IEEE add, whose rounding to 53 bits then
  to M+1 rounds as once as 53 >= 2(M+1) + 1, each then rounded by a mask on
  the pattern (FLOAT64's IEEE ops round as the format does, and its
  patterns are its words).  M = 0 stays on the format's words, as its ties
  go up on the implicit leading bit, which a pattern does not hold.  On
  FLOAT64 a product at or below 2**-1022, where IEEE subnormals part from
  this format (a weight below 2**-1022 times a positive child is one),
  counts in `under`, and its chunk reruns, the same pass, on FLOAT64's
  own words: the one way a pass leaves IEEE doubles;
- for every other format, the format's own bit patterns (biased exponent,
  then mantissa) in int64 with zero as -1, out of band, so the smallest
  value (pattern 0) stays apart and word order is value order
  (`_IntWords`); the analysis config (11, 40) runs there.

Input tables.  Where every first-level sum tests one variable, as the
categorical inputs of generated circuits do, a MAR or MAP pass reads that
level from a per-state table in one gather (`_Format._table`); where the
build counts, that level runs as the others do, and so does every
`restricted_value` pass.

Range certificate.  Once per (plan, word format record), on its first pass,
the evaluator decides how many leading levels no op of any pass on any row
can take out of range (`CircuitEvaluator._certify`).  Those levels run
unchecked, with the same results and counts.

Word formats.  Everything a pass needs from its number format is worked out
once per (compiled layout, config, word kind), in one record (`_Format`),
held weakly by the layout.  The evaluator reads no bit field: a pass
(`CircuitEvaluator._ascend`) takes the record, builds its chunk's word ops
from it and reads its weights and input table, and the FLOAT64 rerun is the
same pass on the (FLOAT64, int64) record.  The ops hold no record, and a
pass sets their range check level by level from the certificate alone.
The uniform plans and each plan's per-level modes are kept per layout too.
MAP's backtrack is the layout's `descend`, which `circuit.sample` shares and
which chunks its own columns; the observed variables of an assignment keep
their evidence values.

Value tables.  Each pass allocates its own table (`_inputs`) for a chunk of
rows (`_evaluate`), so no table is shared and none outlives the query.  Each
level writes its products and sums into its own rows of the table, through
the `out` of the word ops, and never into the rows it reads.  MAP steps
branch-free (`_largest`).  Queries end in root words, read once: as log2
(`_Format.log2`) by `map_query`, `compare_queries` and
`analysis.kl_bruteforce`, and as values only for the public per-row results
of `mar` and `restricted_value`.  `compare_queries` does only the work its
metrics read: both plans' MAR halves are passes whose root words it reads as
log2, the baseline's MAP pass runs only on rows with an unobserved
variable, and both plans' choices on those rows go down in one descent.
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

from .circuit import (Circuit, Edge, ProductUnit, SumUnit, _check_rows, _compile, _Compiled,
                      _is_integer, _kids, _row_array)
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


def _edge(site) -> Edge:
    """site as an edge, or a ValueError where it is not a pair of integers:
    a bool or a float equal to an integer would name the same site."""
    pair = tuple(site) if isinstance(site, (tuple, list)) else ()
    if len(pair) != 2 or not all(map(_is_integer, pair)):
        raise ValueError(f"site {site!r} is not a pair of integers (unit id, child position)")
    return pair


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
            _edge(site)
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
        chosen = {_edge(e) for e in aai_edges}
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
        how the sum edges multiply: `_split` of the AAI flags per slot, an
        (AAI, exact) pair of index arrays, padding slots exact."""
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


_INT64, _FLOAT64 = map(np.dtype, (np.int64, np.float64))
_ONE = 1023 << 52  # the bit pattern of 1.0


class _Words:
    """What the word ops on int64 words share: the AAI product, one
    integer add less the word for one, and the range check of a result.
    Every op writes its result into `out`, which may be either operand, and
    returns it.  Ops start checked: a result below
    the least value's word `lo` underflows and one above the largest, `top`,
    overflows; each adds one to its column of `under` or `over`.  Unchecked,
    for a level the range certificate covers, no op looks at the range, and
    the AAI product is max(a + b - one, zero): a zero operand, with the
    other at most one, gives at most the zero word."""

    dtype = _INT64

    def __init__(self, n_rows: int):
        self.checked = True
        self.under, self.over = np.zeros((2, n_rows), dtype=np.int64)

    def aai(self, a, b, out):
        """Words add as integers and the duplicated bias goes.  Checked, an
        overflow is found before the add (a - one > top - b, zero operands
        masked), as a sum of two words can leave int64: at E + M = 63 on
        the format's words, from 2**512 up on FLOAT64's IEEE patterns."""
        if self.checked:
            zero = (a == self.zero) | (b == self.zero)
            over = (a - self.one > self.top - b) & ~zero
        r = np.add(a, b, out=out)
        r -= self.one
        if not self.checked:
            return np.maximum(r, self.zero, out=r)
        return self._saturate(r, zero, over=over)

    def _saturate(self, r, zero=None, lo=None, over=None):
        """Count and saturate r's out-of-range words in place, those above
        `top` (or those over marks, found before a word that may have left
        int64 was built) and those below lo (`lo` by default); zero marks
        the results of a zero operand, which are zero without a flag.
        Unchecked, only those become zero."""
        if not self.checked:
            if zero is not None:
                np.copyto(r, self.zero, where=zero)
            return r
        over = r > self.top if over is None else over
        if over.any():
            self.over += over.sum(axis=0)
            np.copyto(r, self.top, where=over)
        if zero is not None:
            under = (r < (self.lo if lo is None else lo)) & ~zero
            if under.any():
                self.under += under.sum(axis=0)
                zero |= under
            np.copyto(r, self.zero, where=zero)
        return r


class _IntWords(_Words):
    """The float ops on the format's own words in int64, with -1 for zero.
    The exact product and the add round in one step, `floats._round_words`,
    to a fraction plus the binades it carries, and compare the exponent
    field with max_biased before they build the word, which past E + M = 61
    (a product's exponent sum) or at 63 (the word past the largest) would
    not fit.  An add whose lower operands are all zero skips the rounding
    and returns the other operands.  Every shift but the add's alignment
    is by a constant.  Unchecked, the exact product only maps a zero
    operand to zero, and the AAI product wraps modulo 2**64, so a result
    the range certificate vouches for comes out exact.

    The rounding ops keep the bits that decide the rounding and fold the
    rest into a sticky bit at bit 0, at least two places below the round
    bit.  The add aligns the lower significand to 3 guard bits below the
    higher one's last bit.  The product is four partial products of 29-bit
    halves, which drop its k = max(0, 2M - 60) low bits."""

    def __init__(self, cfg: FloatConfig, n_rows: int):
        super().__init__(n_rows)
        self.cfg, self.m, self.top, self.e_top = cfg, cfg.man_bits, cfg.max_word, cfg.max_biased
        self.mm, self.scale = cfg.man_scale - 1, cfg.man_scale
        self.bias, self.one, self.zero, self.lo = cfg.bias, cfg.bias << cfg.man_bits, -1, 0
        self.k = max(0, 2 * cfg.man_bits - 60)

    def exact(self, a, b, out):
        """Significand product over 2**k, rounded once; the exponent field
        is a's less the bias, plus b's and the binades the rounding carries."""
        m = self.m
        ea, eb = (a >> m) - self.bias, b >> m
        f = _round_words(0, self._product((a & self.mm) | self.scale, (b & self.mm) | self.scale),
                         m + 1 - self.k, self.cfg)
        zero = (a < 0) | (b < 0)
        over = (ea > self.e_top - eb - (f >> m)) & ~zero if self.checked else None
        np.left_shift(ea + eb, m, out=out)
        out += f
        return self._saturate(out, zero, over=over)

    def add(self, a, b, out):
        """Significand sum, the lower one d binades down past 3 guard bits
        with the bits shifted out folded into bit 0, rounded once; an operand
        M+2 or more binades below the other cannot change it.  Where every
        lower operand is zero, the sums are the other operands: earlier ops'
        words, in range, which round to themselves and count nothing."""
        m = self.m
        lo = np.minimum(a, b)
        hi = np.maximum(a, b, out=out)
        if lo.max(initial=-1) < 0:
            return hi
        e = hi >> m
        d = np.minimum(e - (lo >> m), m + 2)
        s = ((lo & self.mm) | self.scale) << 3
        low = s >> d
        f = _round_words(0, (((hi & self.mm) | self.scale) << 3) + (low | ((low << d) != s)), 4,
                         self.cfg)
        rounded = (d <= m + 1) & (lo >= 0)
        over = rounded & (e > self.e_top - (f >> m)) if self.checked else None
        np.copyto(hi, (e << m) + f, where=rounded)
        return self._saturate(hi, over=over)

    def _product(self, sa, sb):
        """sa * sb over 2**k, the k bits dropped folded into bit 0: the
        product is hi * 2**58 + low, with low below 2**59."""
        k, half = self.k, (1 << 29) - 1
        mid = (sa >> 29) * (sb & half) + (sa & half) * (sb >> 29)
        low = (sa & half) * (sb & half) + ((mid & half) << 29)
        hi = (sa >> 29) * (sb >> 29) + (mid >> 29)
        return (hi << (58 - k)) + (low >> k) | ((low & ((1 << k) - 1)) != 0)


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
    with zero as 0, for FLOAT64 and the formats that fit (`_fits_doubles`).
    Patterns of non-negative doubles compare as the values do, and the AAI
    product is their integer add less the pattern of 1.0, as on the format's
    words.  The exact product is one IEEE multiply and the add one IEEE add
    (zero operands give zero), each then rounded once to M fraction bits by
    a mask on the pattern, where a carry lands in the exponent field; at
    s = 52 - M = 0, FLOAT64, the IEEE op's own rounding is the format's.
    The range is the least pattern that is both a value and a normal double
    (`lo`: 2**-bias, or 2**-1022 for FLOAT64, whose least value 2**-1023 is
    an IEEE subnormal) and the pattern of the largest value.  Below
    2**-1022 IEEE rounds a product on the subnormal grid, where a tie can
    round up to 2**-1022 itself, so there the exact product also counts at
    `lo`; formats with bias <= 511 never get there.  At the top of FLOAT64's
    range nothing is counted: an exact product or add at or above 2**1024
    comes back as the inf pattern, which reads as the word for 2**1024, with
    no count in `over` (and NumPy warns of the overflow).  No circuit gets
    there, as its values stay near one or below."""

    one, zero = _ONE, 0

    def __init__(self, cfg: FloatConfig, n_rows: int):
        super().__init__(n_rows)
        self.cfg, self.s = cfg, 52 - cfg.man_bits
        offset = (1023 - cfg.bias) << 52  # the pattern of 2**-bias, word 0
        self.lo = max(offset, 1 << 52)
        self.tiny = self.lo + (offset < self.lo)  # the exact product's floor
        self.top = (cfg.max_word << self.s) + offset
        self.keep = -1 << self.s
        self.half = (1 << (self.s - 1)) - 1 if cfg.rounding == NEAREST_EVEN and self.s else None

    def exact(self, a, b, out):
        zero = (a == 0) | (b == 0) if self.checked else None
        r = self._round(np.multiply(a.view(np.float64), b.view(np.float64),
                                    out=out.view(np.float64)))
        return self._saturate(r, zero, self.tiny) if self.checked else r

    def add(self, a, b, out):
        r = self._round(np.add(a.view(np.float64), b.view(np.float64), out=out.view(np.float64)))
        return self._saturate(r) if self.checked else r

    def _round(self, r):
        """The patterns of r, doubles, rounded to M fraction bits in place:
        to nearest with ties to the even kept bit (add just under half an
        ulp, plus the kept parity bit, summed in one temporary), or toward
        zero.  At s = 0 the IEEE op rounded them."""
        r = r.view(np.int64)
        if not self.s:
            return r
        if self.half is not None:
            up = np.right_shift(r, self.s)
            up &= 1
            up += self.half
            r += up
        r &= self.keep
        return r


def _word_kind(cfg: FloatConfig) -> np.dtype:
    """The words cfg's ops run on, by format alone, both held in int64:
    float64 for the bit patterns of IEEE doubles (`_PatternWords`), for
    FLOAT64 and the formats that fit them; else int64 for the format's own
    words (`_IntWords`)."""
    return _FLOAT64 if cfg == FLOAT64 or _fits_doubles(cfg) else _INT64


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
    """How one fold step or level of edges multiplies, whatever its mix:
    the pair (AAI positions, exact positions) of sorted int64 index arrays."""
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _within_one(ar, w: np.ndarray, top: np.ndarray, lev, steps, edges) -> bool:
    """Whether every AAI product of the level whose operand can meet the
    zero word has that operand at most one, by the upper bounds top and the
    record's slot weights w, so that the unchecked form max(a + b - one,
    zero) gives zero there.  A sum edge's child can be zero, so its nonzero
    weight must be at most one, and a zero weight meets its child; a fold
    step's operands can both be zero, so every child folded so far must be."""
    for k, (aai, _) in enumerate(steps, 1):
        if (top[lev.pch[:k + 1, aai]] > ar.one).any():
            return False
    aai = edges[0]
    w = w[lev.sslot:lev.sslot + lev.sch.size][aai]
    kids = top[lev.sch.ravel()[aai]]
    return not (np.where(w == ar.zero, kids, w) > ar.one).any()


def _mul(ar, a, b, how, out):
    """a times b into out (which may be a or b), the positions of each part
    of how, (AAI, exact), multiplied as it says: all rows at once where one
    part holds every position, else each part's rows of b as gathered."""
    aai, exact = how
    if not (aai.size and exact.size):
        return (ar.exact if exact.size else ar.aai)(a, b, out)
    for idx, op in ((aai, ar.aai), (exact, ar.exact)):
        part = b.take(idx, axis=0)
        out[idx] = op(a.take(idx, axis=0), part, part)
    return out


_MAR, _MAP, _PICK, _LEAST = range(4)


def _inputs(comp: _Compiled, ar, obs: np.ndarray) -> np.ndarray:
    """A new value table of ar's words, one column per entry of obs's last
    axis, with the words for one, zero and the indicators where their
    variables take the values obs (-1 unobserved: at one); every pass's
    table starts here."""
    val = np.empty((comp.n_table, obs.shape[-1]), dtype=ar.dtype)
    val[comp.one_row], val[comp.zero_row] = ar.one, ar.zero
    val[:len(comp.ind_var)] = np.where((obs < 0) | (obs == comp.ind_val[:, np.newaxis]),
                                       ar.one, ar.zero)
    return val


def _sums(ar, w: np.ndarray, val: np.ndarray, lev, edges, mode: int, choices=None):
    """One level's sums over val's columns, written to their rows s0:s1:
    each of the record's slot weights w times its child as the level's
    edges say (`_split`), into the gathered children or, where they are a
    view of val (`_kids`), a new array, then for MAR the terms added in
    `children` order, for MAP the largest term and its index in choices
    (`_largest`), for _PICK the term choices names, and for _LEAST the
    least nonzero term (zero where every term is).  Returns those rows."""
    k_s, n_s = lev.sch.shape
    out = val[lev.s0:lev.s1]
    kids = _kids(val, lev.sch, lev.sspan)
    terms = _mul(ar, w[lev.sslot:lev.sslot + lev.sch.size], kids, edges,
                 kids if lev.sspan is None else np.empty_like(kids)
                 ).reshape(k_s, n_s, val.shape[1])
    if mode == _PICK:
        out[...] = np.take_along_axis(terms, choices[np.newaxis], axis=0)[0]
    elif mode == _LEAST:  # zero terms take the largest, nonzero where any term is
        np.where(terms > ar.zero, terms, terms.max(axis=0)).min(axis=0, out=out)
    elif mode == _MAR:  # where each sum has one nonzero term, as on a
        # deterministic circuit's complete rows, every add returns it unrounded
        acc = terms[0]
        for k in range(1, k_s):
            acc = ar.add(acc, terms[k], out)
        if k_s == 1:
            out[...] = acc
    else:
        _largest(terms, out, choices)
    return out


def _largest(terms: np.ndarray, out: np.ndarray, choices: np.ndarray) -> None:
    """The largest of terms along its first axis into out and its index
    into choices, the lowest on ties, branch-free: where term k beats all
    before it, k is above every index chosen so far, so the choice is the
    running maximum of k times that mask."""
    acc = terms[0]
    for k in range(1, len(terms)):
        better = np.greater(terms[k], acc)
        acc = np.maximum(acc, terms[k], out=out)
        if k == 1:
            choices[...] = better
        else:
            np.maximum(choices, k * better, out=choices)
    if len(terms) == 1:
        out[...], choices[...] = acc, 0


#: a first level's sums per state: sum i's word (and MAP choice) where its
#: variable takes value x (-1 unobserved) sits at base[i] + x
_Table = namedtuple("_Table", "words choices base")


class _Format:
    """What a pass needs from one word format on one compiled layout, built
    once per (layout, config, word kind) by `_format`: the slot weights as
    words, one column wide, with the counts of those that saturated; the
    word ops of a chunk; the MAR and MAP input tables; and three ways to
    read root words: as the format's own words (`format_words`), as log2
    of their values (`log2`), the queries' readout, and as `CustomFloat`
    values (`values`), only for the public results of `mar` and
    `restricted_value`.  Words come in two representations, by kind, both
    in int64: the bit patterns of IEEE doubles (float64), FLOAT64's
    included, and the format's own words (int64).  On IEEE doubles a
    value's bit pattern is its word shifted up by s = 52 - M, plus
    `offset`, that of 2**-bias (FLOAT64's are its own words, s = 0);
    FLOAT64's weights are the doubles' own patterns, a subnormal one
    included, as its least value 2**-1023, word 0, is the pattern of +0.0,
    and only there (`leaves`) may a count mean that a product left IEEE
    doubles.  A negative bias is refused: the word for one, bias << M,
    would be negative, at or below the zero word -1."""

    def __init__(self, c: Circuit, cfg: FloatConfig, kind: np.dtype):
        if cfg.bias < 0:
            raise ValueError("the word for one needs a non-negative bias")
        comp = _compile(c)
        self.cfg, self.kind = cfg, kind
        self.leaves = kind == _FLOAT64 and cfg == FLOAT64
        self.s, self.offset = 52 - cfg.man_bits, (1023 - cfg.bias) << 52
        w, self.under, self.over = encode_words(comp.weights, cfg)
        if self.leaves:  # the doubles' own patterns: 2**-1023 is word 0, +0.0's
            w = comp.weights.view(np.int64)
        elif kind == _FLOAT64:
            w = np.where(w < 0, 0, (w << self.s) + self.offset)
        self.w = w[:, np.newaxis]
        self.tables = {mode: self._table(c, comp, mode) for mode in (_MAR, _MAP)}

    def ops(self, n_rows: int):
        """New word ops of this record's kind over n_rows columns, checked,
        with their counts at zero; a pass builds its own (`_ascend`)."""
        return (_PatternWords if self.kind == _FLOAT64 else _IntWords)(self.cfg, n_rows)

    def format_words(self, words: np.ndarray) -> np.ndarray:
        """A copy of this record's words as the format's own words, -1 for
        zero: IEEE double patterns read back through their offset."""
        if self.kind == _FLOAT64:
            return np.where(words == 0, -1, (words - self.offset) >> self.s)
        return words.copy()

    def values(self, words: np.ndarray) -> list[CustomFloat]:
        """The format's words (`format_words`) as values."""
        m, bias, mm = self.cfg.man_bits, self.cfg.bias, self.cfg.man_scale - 1
        zero = CustomFloat.zero(m)
        return [zero if w < 0 else CustomFloat(False, (w >> m) - bias, w & mm, m)
                for w in words.tolist()]

    def log2(self, words: np.ndarray) -> list[float]:
        """The format's words (`format_words`) as log2 of their values, -inf
        for the zero word, each as `floats.log2_value` computes it: log2 of
        the (M+1)-bit significand plus the exponent less M."""
        m, bias, mm = self.cfg.man_bits, self.cfg.bias, self.cfg.man_scale - 1
        return [-math.inf if w < 0 else math.log2((1 << m) + (w & mm)) + ((w >> m) - bias - m)
                for w in words.tolist()]

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
        words = _sums(ops, self.w, _inputs(comp, ops, np.arange(-1, width - 1)), lev,
                      _split(np.ones(lev.sch.size, dtype=bool)), mode, choices)
        if ops.under.any() or ops.over.any():
            return None
        return _Table(words.flatten(), choices.ravel() if mode == _MAP else None,
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
    no per-unit or per-level work; each pass allocates its own value table.
    Weights are quantized once, per cfg.rounding; under toward-zero this keeps the
    one-sided underestimation end to end.  The word kind follows from cfg
    alone, both in int64: IEEE double patterns (FLOAT64 and the formats that
    fit them) or the format's own words; a FLOAT64 chunk whose values leave
    IEEE doubles reruns on FLOAT64's own words, on their record.
    Passes skip the range checks on the leading levels that the range
    certificate covers.

    `mar`, `map_query` and `restricted_value` take one row (a sequence, or a
    {variable: value} mapping) or a 2-D batch of rows, and then return one
    result per row.  A -1 in a row leaves its variable unobserved, with its
    indicators at one.  Batches run in chunks of `circuit.CHUNK_CELLS`
    table cells.
    Results are copies, which later passes leave as they are.
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

    def _ascend(self, fmt: _Format, rows: np.ndarray, mode: int, choices=None, free: int = 0,
                counted: Optional[list] = None):
        """One pass over a chunk of rows on the words of the record fmt: a
        new value table of rows' columns, filled children first, one level
        at a time, each level into its own rows, by word ops that it builds
        (`_Format.ops`) and fmt's weights; the first level's sums of a MAR
        or MAP pass come from fmt's input table where it has one.  The first
        `free` levels run unchecked and the rest checked; `counted`, where
        given, gets per level whether any op so far has counted.  MAP writes
        each level's choices to rows q0:q1 of `choices`, and a picked pass
        reads them there.  Returns the table and the ops, whose `under` and
        `over` hold the per-row saturation counts."""
        comp, table, ar = self._comp, fmt.tables.get(mode), fmt.ops(len(rows))
        val = _inputs(comp, ar, rows.T[comp.ind_var])
        for i, (lev, (steps, edges)) in enumerate(zip(comp.levels, self._modes)):
            ar.checked = i >= free
            if lev.p1 > lev.p0:  # products have two children or more
                out, acc = val[lev.p0:lev.p1], _kids(val, lev.pch, lev.pspan, 0)
                for k, how in enumerate(steps, 1):
                    acc = _mul(ar, acc, _kids(val, lev.pch, lev.pspan, k), how, out)
            if lev.s1 > lev.s0:
                picks = None if choices is None else choices[lev.q0:lev.q1]
                if table is not None:  # the first level's sums, by state
                    at = rows.T.take(comp.leaf_var, axis=0)  # about half the time of rows.T[...]
                    at += table.base
                    # checked rows keep at in range; "clip" skips take's
                    # buffered copy of out
                    table.words.take(at, out=val[lev.s0:lev.s1], mode="clip")
                    if mode == _MAP:
                        picks[...] = table.choices.take(at)
                    table = None
                else:
                    _sums(ar, fmt.w, val, lev, edges, mode, picks)
            if counted is not None:
                counted.append(bool(ar.under.any() or ar.over.any()))
        return val, ar

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
        top_counted, least_counted = [], []
        top, ar = self._ascend(fmt, row, _MAR, counted=top_counted)
        self._ascend(fmt, row, _LEAST, counted=least_counted)
        free = 0
        for lev, (steps, edges), *counted in zip(self._comp.levels, self._modes,
                                                 top_counted, least_counted):
            if any(counted) or not _within_one(ar, fmt.w, top, lev, steps, edges):
                break
            free += 1
        return free

    def _evaluate(self, rows: np.ndarray, mode: int, picks: Optional[np.ndarray] = None):
        """Run the pass (`_ascend`) over checked rows chunk by chunk, the
        levels the range certificate covers unchecked, rerunning on the
        (FLOAT64, int64) record a FLOAT64 chunk on IEEE doubles whose pass
        counted: there a count means that a product left IEEE doubles.  MAP
        fills one choice table per call (a row per sum in sum_index order, a
        column per row), a picked pass reads picks, and each chunk's pass
        gets its columns.  Each chunk's root words are read through the
        record that ran it (`_Format.format_words`).  Returns the root
        words, one int64 array of the format's own words (-1 for zero) in
        row order, the per-row saturation counts and the choice table."""
        fmt, root = self._format, self._comp.root
        step, free = self._comp.chunk(), self._free(fmt)
        choices = picks if mode != _MAP else np.empty((len(self._comp.sum_index), len(rows)),
                                                      dtype=np.int64)
        chunks = []
        for s in range(0, max(len(rows), 1), step):  # an empty batch makes one empty chunk
            args = rows[s:s + step], mode, None if choices is None else choices[:, s:s + step]
            run = fmt
            val, ar = self._ascend(run, *args, free)
            if fmt.leaves and ar.under.any():
                run = _format(self.circuit, FLOAT64, _INT64)
                val, ar = self._ascend(run, *args, self._free(run))
            chunks.append((run.format_words(val[root]), ar.under, ar.over))
        roots, under, over = map(np.concatenate, zip(*chunks))
        return roots, under, over, choices

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
        roots, under, over, _ = self._evaluate(rows, _MAR)
        wu, wo = self.weight_quant_underflows > 0, self.weight_quant_overflows > 0
        results = [MultResult(v, u > 0 or wu, o > 0 or wo)
                   for v, u, o in zip(self._format.values(roots), under.tolist(), over.tolist())]
        return self._per_row(single, results, under, over)

    def map_query(self, evidence):
        """Max-product upward pass with argmax trace, then top-down
        backtracking.  Unobserved indicators score one; ties pick the lowest
        child index.  Observed variables keep their evidence values, also
        where the root is zero and the backtrack's choices are all ties."""
        rows, single = self._batch(evidence)
        roots, under, over, trace = self._evaluate(rows, _MAP)
        assignment = np.where(rows >= 0, rows, self._comp.descend(trace))
        index = self._comp.sum_index
        return self._per_row(single, [
            MapResult(assignment[r], v, _Trace(index, trace[:, r]))
            for r, v in enumerate(self._format.log2(roots))], under, over)

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
        roots = self._format.values(self._evaluate(rows, _PICK, self._picks(traces, len(rows)))[0])
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
    accuracy counts assignments identical to the baseline's.  Rows are
    checked once, here.  Both plans' MAR halves end in root words, read as
    log2 (`_Format.log2`) with no value built; a zero baseline word raises
    an EvaluationError naming the row's index in data.  A complete row's
    assignment is its evidence under both plans, a hit, so only the tested
    plan's MAP pass, whose saturation counts are reported, runs on it;
    assignments are read back only for rows with an unobserved variable,
    both plans' in one descent.
    """
    if not (isinstance(correction, numbers.Real) and not isinstance(correction, bool)
            and math.isfinite(correction)):
        raise ValueError(f"correction must be finite and real, got {correction!r}")
    correction = float(correction)
    data = _check_rows(c, np.atleast_2d(_row_array(data)), unobserved=True)
    base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
    test = CircuitEvaluator(c, cfg, plan)
    observed = data >= 0
    whole = observed.all(axis=1)
    complete, hidden = np.flatnonzero(whole), np.flatnonzero(~whole)
    b_roots = base._evaluate(data[complete], _MAR)[0]
    if (b_roots < 0).any():
        raise EvaluationError(f"baseline probability is zero for instance "
                              f"{complete[np.argmax(b_roots < 0)]}; log error is undefined")
    t_roots, mar_under, mar_over, _ = test._evaluate(data[complete], _MAR)
    log_err_sum = 0.0
    for b, t in zip(base._format.log2(b_roots), test._format.log2(t_roots)):
        log_err_sum += abs(b - (t + correction))
    # a complete row's assignment is its evidence, a hit; the test plan's
    # MAP pass runs on every row for its counts, the baseline's on the rest,
    # and both descend those rows together
    _, map_under, map_over, choices = test._evaluate(data, _MAP)
    both = np.concatenate((choices[:, hidden], base._evaluate(data[hidden], _MAP)[3]), axis=1)
    t_map, b_map = np.split(test._comp.descend(both), 2)
    # the assignments before the evidence goes in: observed variables agree
    n, n_mar = len(data), len(complete)
    map_hits = n_mar + int(((b_map == t_map) | observed[hidden]).all(axis=1).sum())
    return QueryMetrics(
        mean_log_error=log_err_sum / n_mar if n_mar else 0.0,
        map_accuracy=map_hits / n if n else 0.0,
        underflow_count=test.weight_quant_underflows + int(mar_under.sum() + map_under.sum()),
        overflow_count=test.weight_quant_overflows + int(mar_over.sum() + map_over.sum()),
        n_instances=n,
        n_mar_instances=n_mar,
    )
