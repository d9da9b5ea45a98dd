"""The batched, levelized evaluator against the scalar bit-level reference
(`oracles.ScalarEvaluator`) and the rational oracle (`oracles.reference_eval`)."""

import dataclasses
import itertools
import math
import numbers
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaipc import circuit, inference
from aaipc.circuit import (
    Circuit,
    IndicatorUnit,
    ProductUnit,
    SumUnit,
    Variable,
    _compile,
    enumerate_states,
    eval_double,
    generate_random_det_pc,
    generate_random_tree_pc,
    sample,
    validate,
)
from aaipc.floats import (
    FLOAT64,
    NEAREST_EVEN,
    TOWARD_ZERO,
    FloatConfig,
    CustomFloat,
    _round_words,
    aai_mul,
    decode,
    decode_fraction,
    encode,
    encode_words,
    exact_add,
    exact_mul,
    from_bits,
    log2_value,
)
from aaipc.inference import (
    AAI,
    EXACT,
    CircuitEvaluator,
    EvaluationError,
    MultiplierPlan,
    QueryMetrics,
    _IntWords,
    _PatternWords,
    _word_kind,
    enumerate_sites,
)

from oracles import (ScalarEvaluator, determinism_oracle, largest_terms, reference_eval,
                     sample_oracle)

#: one config per word kind and rounding, and two that saturate: (3, 3)
#: underflows below 2**-3, and bias 8 puts every value from 2**-1 up into
#: overflow
CONFIGS = [
    FloatConfig(8, 10),                         # IEEE double patterns
    FloatConfig(8, 12, rounding=TOWARD_ZERO),   # IEEE double patterns
    FloatConfig(4, 0),                          # int64, no rounding bits
    FloatConfig(3, 3),                          # IEEE double patterns, underflow
    FloatConfig(3, 4, bias=8),                  # IEEE double patterns, overflow
    FloatConfig(10, 12, rounding=TOWARD_ZERO),  # int64 (e_max 512)
    FloatConfig(6, 20),                         # IEEE double patterns
    FloatConfig(6, 26),                         # int64
    FloatConfig(6, 29, rounding=TOWARD_ZERO),   # int64
    FloatConfig(6, 30),                         # int64, the widest unsplit product
    FloatConfig(11, 40),                        # int64, the product splits too
    FloatConfig(11, 41, rounding=TOWARD_ZERO),  # int64, the product splits
    FLOAT64,                                    # IEEE doubles
]


def with_equal_weights(c: Circuit) -> Circuit:
    """The same structure with every sum's weights equal, so MAP ties."""
    units = [SumUnit(u.id, u.children, (1 / len(u.children),) * len(u.children))
             if isinstance(u, SumUnit) else u for u in c.units.values()]
    return Circuit(c.variables, units, c.root)


def with_shuffled_products(c: Circuit, rng: np.random.Generator) -> Circuit:
    """The same circuit with each product's children listed in random order,
    so that products of three or more fold out of id order."""
    units = [ProductUnit(u.id, tuple(rng.permutation(u.children).tolist()))
             if isinstance(u, ProductUnit) else u for u in c.units.values()]
    return Circuit(c.variables, units, c.root)


@st.composite
def cases(draw, configs=CONFIGS):
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n_vars = draw(st.integers(2, 6))
        c = generate_random_tree_pc(seed, n_vars, draw(st.integers(1, 2)),
                                    draw(st.integers(2, 3)))
    else:
        c = generate_random_det_pc(seed, draw(st.integers(1, 5)))
    if draw(st.booleans()):
        c = with_equal_weights(c)
    if draw(st.booleans()):
        c = with_shuffled_products(c, np.random.default_rng(seed + 1))
    cfg = draw(st.sampled_from(configs))
    rng = np.random.default_rng(seed)
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    plan = MultiplierPlan({s: AAI if rng.random() < share else EXACT
                           for s in enumerate_sites(c)})
    rows = sample(c, seed, draw(st.integers(1, 12)))
    hidden = rows.copy()
    hidden[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -1
    return c, cfg, plan, rows, hidden


def evidence_of(row) -> dict[int, int]:
    return {v: int(x) for v, x in enumerate(row) if x >= 0}


def query_passes(mp, note):
    """With mp, make every query pass (`CircuitEvaluator._ascend` on a chunk,
    not the range certificate's, which takes `counted`) first call
    note(fmt, chunk), fmt the record it runs on."""
    run = CircuitEvaluator._ascend

    def spy(ev, fmt, chunk, *args, **kwargs):
        if "counted" not in kwargs:
            note(fmt, chunk)
        return run(ev, fmt, chunk, *args, **kwargs)

    mp.setattr(CircuitEvaluator, "_ascend", spy)


def chunk_sizes(mp, cells: int) -> list[int]:
    """With mp, set `circuit.CHUNK_CELLS` to cells and return the list that
    then gets the rows of every chunk a pass runs on."""
    sizes = []
    mp.setattr(circuit, "CHUNK_CELLS", cells)
    query_passes(mp, lambda fmt, chunk: sizes.append(len(chunk)))
    return sizes


class TestAgainstScalarReference:
    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_mar_words_and_counts(self, case):
        c, cfg, plan, rows, _ = case
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        assert (ev.weight_quant_underflows, ev.weight_quant_overflows) == \
            (ref.weight_quant_underflows, ref.weight_quant_overflows)
        results, under, over = ev.mar(rows)
        for x, got, u, o in zip(rows, results, under, over):
            assert (got, u, o) == ref.mar(x)
            assert ev.mar(x) == (got, u, o)

    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_map_assignment_trace_score_and_restricted_value(self, case):
        c, cfg, plan, _, hidden = case
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        results, under, over = ev.map_query(hidden)
        values = ev.restricted_value([r.trace for r in results], hidden)
        for row, got, u, o, value in zip(hidden, results, under, over, values):
            evidence = evidence_of(row)
            want, want_u, want_o = ref.map_query(evidence)
            assert got.assignment.tolist() == want.assignment.tolist()
            assert dict(got.trace) == want.trace
            assert got.log2_value == want.log2_value
            assert (u, o) == (want_u, want_o)
            assert value == ref.restricted_value(want.trace, evidence)
            assert ev.restricted_value(want.trace, evidence) == value
            one, _, _ = ev.map_query(evidence)
            assert one.assignment.tolist() == got.assignment.tolist()

    @settings(max_examples=40, deadline=None)
    @given(cases(), st.data())
    def test_chunked_batches_match_one_chunk(self, case, data):
        # each chunk's pass fills or reads its columns of one choice table
        c, cfg, plan, rows, hidden = case
        assume(len(rows) > 1)
        ev = CircuitEvaluator(c, cfg, plan)
        whole = ev.mar(rows), ev.map_query(hidden)
        traces = [r.trace for r in whole[1][0]]
        values = ev.restricted_value(traces, hidden)
        per_chunk = data.draw(st.integers(1, len(rows) - 1))
        with pytest.MonkeyPatch.context() as mp:
            sizes = chunk_sizes(mp, per_chunk * _compile(c).n_table)
            parts = ev.mar(rows), ev.map_query(hidden)
            chunked_values = ev.restricted_value(traces, hidden)
        assert len(sizes) == 3 * math.ceil(len(rows) / per_chunk) > 3
        assert whole[0][0] == parts[0][0]
        assert [(r.assignment.tolist(), dict(r.trace)) for r in whole[1][0]] == \
            [(r.assignment.tolist(), dict(r.trace)) for r in parts[1][0]]
        assert chunked_values == values
        for a, b in zip(whole, parts):
            assert a[1].tolist() == b[1].tolist() and a[2].tolist() == b[2].tolist()


class TestProductFoldOrder:
    @pytest.mark.parametrize("n_vars", [6, 7])
    @pytest.mark.parametrize("seed", range(8))
    def test_float64_all_exact_mar_is_eval_double(self, n_vars, seed):
        # tree(n, 1, 3) has products of 3 and 4 univariate sums; listed out
        # of id order, they fold in `children` order, as eval_double does
        c = with_shuffled_products(generate_random_tree_pc(seed, n_vars, 1, 3),
                                   np.random.default_rng(seed))
        kids = [u.children for u in c.units.values() if isinstance(u, ProductUnit)]
        assert any(len(ks) > 2 and list(ks) != sorted(ks) for ks in kids)
        states = enumerate_states(c)
        results, _, _ = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c)).mar(states)
        assert [decode(r.value) for r in results] == eval_double(c, states).tolist()

    @pytest.mark.parametrize("make", [lambda: generate_random_tree_pc(0, 32, 4, 3),
                                      lambda: generate_random_det_pc(0, 10),
                                      lambda: generate_random_det_pc(0, 9)],
                             ids=["tree(32, 4, 3)", "det(10)", "det(9)"])
    def test_float64_all_exact_mar_is_eval_double_on_benchmark_circuits(self, make):
        # the benchmark's baseline check allows 1e-12; the two are bit-equal
        c = make()
        rows = sample(c, 0, 256)
        results, _, _ = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c)).mar(rows)
        got = np.array([decode(r.value) for r in results])
        assert got.view(np.int64).tolist() == eval_double(c, rows).view(np.int64).tolist()

    def test_sites_follow_children_order(self):
        units = [IndicatorUnit(0, 0, 1), IndicatorUnit(1, 1, 1), IndicatorUnit(2, 2, 1),
                 ProductUnit(3, (2, 0, 1))]
        c = Circuit([Variable(i, 2) for i in range(3)], units, 3)
        assert enumerate_sites(c) == [(3, 1), (3, 2)]
        (lev,) = _compile(c).levels
        assert lev.pch[:, 0].tolist() == [2, 0, 1]  # indicator rows are in id order here


class TestAgainstRationalOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), aai=st.booleans(), toward_zero=st.booleans(),
           man_bits=st.sampled_from([10, 12, 20, 40]))
    def test_mar_equals_reference_eval(self, seed, aai, toward_zero, man_bits):
        c = generate_random_tree_pc(seed, 5, 2, 3)
        cfg = FloatConfig(8, man_bits, rounding=TOWARD_ZERO if toward_zero else "nearest-even")
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        results, _, _ = CircuitEvaluator(c, cfg, plan).mar(sample(c, seed, 8))
        for x, got in zip(sample(c, seed, 8), results):
            want = reference_eval(c, x, man_bits, cfg.e_min, cfg.e_max, aai=aai,
                                  toward_zero=toward_zero)
            assert decode_fraction(got.value) == want


def value_of(word: int, cfg: FloatConfig) -> CustomFloat:
    """The value of an engine word: -1 is zero, every other word a value."""
    if word < 0:
        return CustomFloat.zero(cfg.man_bits)
    return CustomFloat(False, (word >> cfg.man_bits) - cfg.bias,
                       word & (cfg.man_scale - 1), cfg.man_bits)


#: the word kind of `_PatternWords` in these tests, next to the dtypes of
#: `_IntWords`: cfg's values as the bit patterns of IEEE doubles
PATTERNS = "patterns"


def word_ops(cfg, kind, n_rows=1, checked=True):
    """cfg's word ops on words of the kind, int64 (`_IntWords`) or
    PATTERNS, checked or not."""
    ar = _PatternWords(cfg, n_rows) if kind == PATTERNS else _IntWords(cfg, n_rows)
    ar.checked = checked
    return ar


def run_op(ar, op, a, b) -> np.ndarray:
    """ar's word op on a and b, written into a new array, as a pass hands
    each op its output rows."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    return getattr(ar, op)(a, b, out)


def as_kind(words, cfg, kind, shape=(-1, 1)) -> np.ndarray:
    """The format's words (-1 for zero) as words of the kind, in shape."""
    a = np.array(words, dtype=np.int64).reshape(shape)
    if kind == PATTERNS:  # a double's pattern is its word << (52 - M), plus 2**-bias's
        return np.where(a < 0, 0, (a << (52 - cfg.man_bits)) + ((1023 - cfg.bias) << 52))
    return a


def of_kind(words: np.ndarray, cfg, kind) -> list[int]:
    """Words of the kind back as the format's words, flat."""
    if kind == PATTERNS:
        words = np.where(words == 0, -1, (words - ((1023 - cfg.bias) << 52)) >> (52 - cfg.man_bits))
    return words.ravel().tolist()


def assert_ops_match_scalar(cfg, kind, pairs, checked=True):
    """Each word op on the pairs gives the scalar op's value and counts."""
    a, b = (as_kind(col, cfg, kind) for col in zip(*pairs))
    for op, scalar in (("aai", aai_mul), ("exact", exact_mul), ("add", exact_add)):
        ar = word_ops(cfg, kind, checked=checked)
        got = of_kind(run_op(ar, op, a, b), cfg, kind)
        want = [scalar(value_of(x, cfg), value_of(y, cfg), cfg) for x, y in pairs]
        assert [value_of(w, cfg) for w in got] == [r.value for r in want], op
        assert int(ar.under[0]) == sum(r.underflowed for r in want), op
        assert int(ar.over[0]) == sum(r.overflowed for r in want), op


def assert_unchecked_ops_match_scalar(cfg, pairs) -> int:
    """Where the scalar op counts nothing, and an AAI product's operands
    are both nonzero or the other at most one, each unchecked op on the
    pairs' int64 words gives the scalar op's value.  Returns how many
    results it compared."""
    a, b = (as_kind(col, cfg, np.int64) for col in zip(*pairs))
    one, compared = cfg.bias << cfg.man_bits, 0
    for op, scalar in (("aai", aai_mul), ("exact", exact_mul), ("add", exact_add)):
        got = run_op(word_ops(cfg, np.int64, checked=False), op, a, b).ravel().tolist()
        for (x, y), w in zip(pairs, got):
            want = scalar(value_of(x, cfg), value_of(y, cfg), cfg)
            if want.underflowed or want.overflowed or (
                    op == "aai" and min(x, y) < 0 and max(x, y) > one):
                continue
            assert value_of(w, cfg) == want.value, (op, x, y)
            compared += 1
    return compared


class TestWordOps:
    @pytest.mark.parametrize("cfg", [
        FloatConfig(3, 3), FloatConfig(3, 3, rounding=TOWARD_ZERO), FloatConfig(3, 0),
        FloatConfig(2, 4, rounding=TOWARD_ZERO), FloatConfig(3, 2, bias=5)], ids=str)
    def test_every_word_pair_matches_the_scalar_ops(self, cfg):
        words = range(-1, cfg.max_word + 1)
        assert_ops_match_scalar(cfg, np.int64, [(x, y) for y in words for x in words])


#: the formats the IEEE double patterns are checked on pair by pair; the
#: first four are also checked against the scalar ops on every pair
PATTERN_FORMATS = [(3, 1), (3, 2), (4, 3), (3, 3, 5), (5, 4), (4, 6), (9, 1), (2, 7)]


class TestPatternWords:
    """The word ops on IEEE double patterns, checked and unchecked, with the
    counts of every word pair, against the scalar ops and the format's own
    int64 words."""

    @pytest.mark.parametrize("rounding", ["nearest-even", TOWARD_ZERO])
    @pytest.mark.parametrize("fmt", PATTERN_FORMATS, ids=str)
    def test_every_word_pair(self, fmt, rounding):
        cfg = FloatConfig(*fmt, rounding=rounding)
        assert inference._word_kind(cfg) == np.float64
        words = np.arange(-1, cfg.max_word + 1)
        x, y = (w.ravel() for w in np.meshgrid(words, words))
        one = cfg.bias << cfg.man_bits
        # unchecked ops meet the zero word only with an operand of at most one
        aai_ok = ((x >= 0) & (y >= 0)) | (np.maximum(x, y) <= one)
        for op, scalar in (("aai", aai_mul), ("exact", exact_mul), ("add", exact_add)):
            ints = word_ops(cfg, np.int64, len(x))
            want = run_op(ints, op, x[np.newaxis], y[np.newaxis]).ravel()
            checked = word_ops(cfg, PATTERNS, len(x))
            got = run_op(checked, op, as_kind(x, cfg, PATTERNS, (1, -1)),
                         as_kind(y, cfg, PATTERNS, (1, -1)))
            assert of_kind(got, cfg, PATTERNS) == want.tolist(), op
            assert checked.under.tolist() == ints.under.tolist(), op
            assert checked.over.tolist() == ints.over.tolist(), op
            unchecked = run_op(word_ops(cfg, PATTERNS, len(x), checked=False), op,
                               as_kind(x, cfg, PATTERNS, (1, -1)),
                               as_kind(y, cfg, PATTERNS, (1, -1)))
            kept = (checked.under == 0) & (checked.over == 0) & (aai_ok if op == "aai" else True)
            assert kept.sum() > len(x) // 4, op
            assert (unchecked.ravel() == got.ravel())[kept].all(), op
            if len(x) <= 20_000:
                ref = [scalar(value_of(p, cfg), value_of(q, cfg), cfg)
                       for p, q in zip(x.tolist(), y.tolist())]
                assert [value_of(w, cfg) for w in want.tolist()] == [r.value for r in ref], op
                assert ints.under.tolist() == [int(r.underflowed) for r in ref], op
                assert ints.over.tolist() == [int(r.overflowed) for r in ref], op

    @pytest.mark.parametrize("rounding", ["nearest-even", TOWARD_ZERO])
    @pytest.mark.parametrize("man_bits", [10, 13, 20, 24, 25])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_near_tie_pairs_match_the_scalar_ops(self, man_bits, rounding, data):
        cfg = FloatConfig(8, man_bits, rounding=rounding)
        assert inference._word_kind(cfg) == np.float64
        pairs = data.draw(st.lists(word_pairs(cfg), min_size=1, max_size=40))
        assert_ops_match_scalar(cfg, PATTERNS, pairs)

    @pytest.mark.parametrize("checked", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_float64_near_tie_pairs_match_the_scalar_ops(self, checked, data):
        # FLOAT64's patterns are its words and its IEEE ops round as it does;
        # biased exponents 513 to 1533 (2**-510 up to 2**511) keep every
        # result in [2**-1021, 2**1022], among the normal doubles.  Unchecked,
        # an AAI operand that meets zero is at most one
        assert inference._word_kind(FLOAT64) == np.float64
        one = FLOAT64.bias << FLOAT64.man_bits
        pair = word_pairs(FLOAT64, (513, 1533)).filter(
            lambda p: checked or min(p) >= 0 or max(p) <= one)
        pairs = data.draw(st.lists(pair, min_size=1, max_size=40))
        assert_ops_match_scalar(FLOAT64, PATTERNS, pairs, checked)

    def test_float64_aai_past_2_to_the_63_overflows(self):
        # two patterns from 2**512 up sum past 2**63: the checked AAI product
        # saturates them as the scalar op does, not wrapped into an underflow
        e, top = FLOAT64.bias << 52, FLOAT64.max_word
        pairs = [(e + (600 << 52), e + (600 << 52)), (top, top), (top, e + (1 << 52)),
                 (e + (512 << 52), e + (511 << 52)), (e - (600 << 52), e - (600 << 52)),
                 (-1, top), (top, e)]
        a, b = (as_kind(col, FLOAT64, PATTERNS) for col in zip(*pairs))
        ar = word_ops(FLOAT64, PATTERNS)
        got = of_kind(run_op(ar, "aai", a, b), FLOAT64, PATTERNS)
        want = [aai_mul(value_of(x, FLOAT64), value_of(y, FLOAT64), FLOAT64) for x, y in pairs]
        assert [value_of(w, FLOAT64) for w in got] == [r.value for r in want]
        assert int(ar.over[0]) == sum(r.overflowed for r in want) == 3
        assert int(ar.under[0]) == sum(r.underflowed for r in want) == 1


#: formats whose products drop k > 0 low bits into a sticky bit, (11, 40)
#: at k = 20 and (6, 31) at k = 2, and the widest formats, where exponent
#: sums (past E + M = 61), the word past the largest and AAI sums (at 63)
#: leave int64; (11, 52) nearest-even is FLOAT64, whose int64 record's ops
#: these are.  Each in both roundings
SPLIT_WORDS = [FloatConfig(*widths, rounding=rounding)
               for widths in [(11, 40), (6, 31), (63, 0), (62, 1), (61, 2), (30, 32), (6, 57),
                              (2, 57), (11, 52)]
               for rounding in ("nearest-even", TOWARD_ZERO)]


@st.composite
def word_pairs(draw, cfg, exponents=None):
    """Two words, often a few binades apart, with mantissas that are random,
    sparse or nearly all ones, so that ties and sticky bits both show; their
    biased exponents lie in `exponents` (every one by default)."""
    low, high = exponents or (0, cfg.max_biased)
    m = cfg.man_bits
    edges = sorted({i for i in (0, 1, m - 2, m - 1) if 0 <= i < m})
    bit = st.one_of(st.integers(0, m - 1), st.sampled_from(edges)) if m else st.nothing()
    sparse = st.sets(bit, max_size=3 if m else 0).map(lambda s: sum(1 << i for i in s))
    mantissas = st.one_of(st.integers(0, cfg.man_scale - 1), sparse,
                          sparse.map(lambda x: cfg.man_scale - 1 - x))
    ea = draw(st.integers(low, high))
    eb = draw(st.one_of(st.integers(low, high), st.integers(ea - m - 3, ea + m + 3)))
    words = [(e << m) | draw(mantissas) for e in (ea, min(max(eb, low), high))]
    if draw(st.integers(0, 15)) == 0:
        words[draw(st.integers(0, 1))] = -1
    return tuple(words)


def boundary_pairs(cfg) -> list[tuple[int, int]]:
    """Word pairs at the edges of cfg's ops, both orders: results that
    overflow (AAI sums past 2**63 at E + M = 63, top-binade adds that carry
    past max_biased, exponent sums far above the top) or underflow (far
    below zero), that land on the range's ends, that round into the next
    binade, operands about half an ulp apart, and zero operands."""
    m, top, ones, eb = cfg.man_bits, cfg.max_word, cfg.man_scale - 1, cfg.max_biased
    one = cfg.bias << m
    e = min(max(cfg.bias, m + 2), eb)  # a binade with M+2 below it, where the format has one
    pairs = [
        (top, top),                                # overflow, every op
        (0, 0), (1, 0),                            # exact and aai underflow
        (top, (e << m) | 1),                       # rounding carries past e_max
        (top, top - 1), (top - ones, top - ones),  # top-binade adds carry past max_biased
        (top, one), (top, one + ones + 1),         # the top, and one binade past it
        (0, one), (0, one - 1),                    # the least value, and just below it
        ((e << m) | ones, (e << m) | ones),        # the add's normalising carry
        (-1, -1), (-1, 0), (-1, one), (-1, top), (0, -1), (top, -1),  # zero operands
    ]
    if m:
        pairs += [
            ((e << m) | ones, (e << m) | 1),       # 2 - 2**-2M: the product rounds to 2
            # a product's round bit M-1 set, the bits down to the k dropped
            # ones clear: bit 0, now sticky, breaks the tie
            ((e << m) | 1, (e << m) | (1 << (m - 1)) | 1),
        ]
    for hi_man in {0, 1, ones, (1 << m) >> 1}:
        for lo_man in {0, 1, ones, (1 << m) >> 1}:
            for d in (m, m + 1, m + 2, m + 3):     # half an ulp and less below
                if e >= d:
                    pairs.append(((e << m) | hi_man, ((e - d) << m) | lo_man))
                    pairs.append((((e - d) << m) | hi_man, (e << m) | lo_man))
    pairs = [p for p in pairs if max(p) <= top]
    return pairs + [(b, a) for a, b in pairs]


class TestSplitWords:
    """The word ops on int64 against the scalar ops, checked and unchecked,
    where products drop bits into a sticky bit and at the widest formats."""

    @pytest.mark.parametrize("cfg, k", [
        (FloatConfig(11, 40), 20), (FloatConfig(6, 31), 2), (FloatConfig(6, 30), 0),
        (FloatConfig(6, 29), 0), (FloatConfig(8, 10), 0), (FloatConfig(30, 32), 4),
        (FLOAT64, 44), (FloatConfig(6, 57), 54), (FloatConfig(2, 57), 54)], ids=str)
    def test_widths(self, cfg, k):
        assert _IntWords(cfg, 1).k == k

    @pytest.mark.parametrize("cfg", SPLIT_WORDS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_word_pairs_match_the_scalar_ops(self, cfg, data):
        pairs = data.draw(st.lists(word_pairs(cfg), min_size=1, max_size=40))
        assert_ops_match_scalar(cfg, np.int64, pairs)
        assert_unchecked_ops_match_scalar(cfg, pairs)

    @pytest.mark.parametrize("cfg", SPLIT_WORDS, ids=str)
    def test_boundary_pairs_match_the_scalar_ops(self, cfg):
        pairs = boundary_pairs(cfg)
        assert_ops_match_scalar(cfg, np.int64, pairs)
        assert assert_unchecked_ops_match_scalar(cfg, pairs) > len(pairs)

    def test_the_float64_rerun_record_runs_these_ops(self):
        c = chain_of_tiny_sums(2, 0.25)
        ar = inference._format(c, FLOAT64, np.dtype(np.int64)).ops(3)
        assert type(ar) is _IntWords and ar.cfg == FLOAT64 and ar.dtype == np.int64
        pairs = boundary_pairs(FLOAT64)[:3]
        a, b = (as_kind(col, FLOAT64, np.int64, (1, -1)) for col in zip(*pairs))
        want = word_ops(FLOAT64, np.int64, 3)
        assert run_op(ar, "exact", a, b).tolist() == run_op(want, "exact", a, b).tolist()
        assert ar.over.tolist() == want.over.tolist() == [1, 0, 0]
        assert ar.under.tolist() == want.under.tolist() == [0, 1, 1]


class TestInt64Everywhere:
    """Every format's words fit int64: the IEEE double patterns or the
    format's own words, which every format of the domain (E >= 2, M <= 57,
    E + M <= 63) runs on; M = 58 is refused."""

    def test_every_format_at_the_default_bias_runs_on_int64(self):
        for exp_bits in range(2, 64):
            for man_bits in range(min(57, 63 - exp_bits) + 1):
                cfg = FloatConfig(exp_bits, man_bits)
                kind = _word_kind(cfg)
                ops = (_PatternWords if kind == np.float64 else _IntWords)(cfg, 1)
                assert kind in (np.float64, np.int64) and ops.dtype == np.int64, cfg
                if kind == np.int64:  # the range's ends and one
                    words = [-1, 0, cfg.bias << man_bits, cfg.max_word]
                    assert_ops_match_scalar(cfg, np.int64, list(itertools.product(words, words)))
        for exp_bits in range(2, 6):
            with pytest.raises(ValueError, match="man_bits"):
                FloatConfig(exp_bits, 58)


#: the word kinds the range certificate leans on: IEEE double patterns,
#: FLOAT64's included, and int64 with M <= 13, at M = 30 and with its
#: product split at (11, 40) and (11, 41)
MONOTONE_WORDS = [
    (FloatConfig(8, 10), PATTERNS), (FloatConfig(3, 2), PATTERNS),
    (FloatConfig(8, 12, rounding=TOWARD_ZERO), PATTERNS), (FloatConfig(8, 25), PATTERNS),
    (FLOAT64, PATTERNS),
    (FloatConfig(8, 10), np.int64), (FloatConfig(4, 3, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(6, 30), np.int64), (FloatConfig(11, 40), np.int64),
    (FloatConfig(11, 40, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(11, 41), np.int64), (FloatConfig(4, 3), np.int64),
]


def value_words(cfg) -> tuple[int, int]:
    """The least and largest words of cfg that the monotone tests draw: every
    word, but on FLOAT64 the normal doubles below 2**511, as its least value,
    word 0, is the pattern of +0.0, the words below 2**-1022 are IEEE
    subnormals, and a product of two values from 2**512 up can overflow."""
    if cfg == FLOAT64:
        return 1 << 52, (1534 << 52) - 1
    return 0, cfg.max_word


def words_between(lo: int, top: int):
    """Zero (-1) or a word in [lo, top]."""
    return st.integers(lo - 1, top).map(lambda w: w if w >= lo else -1)


@st.composite
def growing_pairs(draw, cfg, zero_lower=False):
    """A pair of words (zero or any value) and the same pair with one
    operand grown, often by a little; with zero_lower, the other operand
    is zero."""
    lo, top = value_words(cfg)
    word = words_between(lo, top)
    a, b = draw(word), -1 if zero_lower else draw(word)
    step = draw(st.one_of(st.integers(0, 3), st.integers(0, top)))
    grown = a + step if a + step < 0 else min(max(a + step, lo), top)
    return ((a, b), (grown, b)) if draw(st.booleans()) else ((b, a), (b, grown))


class TestMonotoneWordOps:
    """The range certificate bounds every word of every pass by two passes
    over one row: that needs each op to keep its operands' order, and an
    add to be at least its larger operand.  Where nothing saturates, the
    unchecked ops give the checked ops' words."""

    @pytest.mark.parametrize("cfg, kind", MONOTONE_WORDS, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ops_never_decrease_when_an_operand_grows(self, cfg, kind, data):
        # with every lower operand zero, the add returns its other operand
        pairs = growing_pairs(cfg, zero_lower=data.draw(st.booleans()))
        cases = data.draw(st.lists(pairs, min_size=1, max_size=40))
        (a, b), (a2, b2) = ([as_kind(col, cfg, kind) for col in zip(*pairs)]
                            for pairs in zip(*cases))
        for op in ("aai", "exact", "add"):
            ar = word_ops(cfg, kind)
            before, after = run_op(ar, op, a, b), run_op(ar, op, a2, b2)
            assert (after >= before).all(), op
        ar = word_ops(cfg, kind)
        assert (run_op(ar, "add", a, b) >= np.maximum(a, b)).all()

    @pytest.mark.parametrize("cfg, kind", MONOTONE_WORDS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unchecked_ops_match_where_nothing_saturates(self, cfg, kind, data):
        one, lo = cfg.bias << cfg.man_bits, value_words(cfg)[0]
        other = st.just(-1) if data.draw(st.booleans()) else words_between(lo, one)
        pair = st.tuples(words_between(lo, one), other, st.booleans()).map(
            lambda t: t[:2] if t[2] else t[1::-1])
        pairs = data.draw(st.lists(pair, min_size=1, max_size=40))
        for op in ("aai", "exact", "add"):
            for a, b in pairs:
                a_, b_ = (as_kind([x], cfg, kind) for x in (a, b))
                checked = word_ops(cfg, kind)
                want = run_op(checked, op, a_, b_)
                if checked.under.any() or checked.over.any():
                    continue
                got = run_op(word_ops(cfg, kind, checked=False), op, a_, b_)
                assert got.tolist() == want.tolist(), (op, a, b)


#: the add's zero-operand select on int64, with an unsplit and two split
#: products
SELECT_WORDS = [(FloatConfig(8, 10), np.int64), (FloatConfig(11, 40), np.int64),
                (FloatConfig(11, 41, rounding=TOWARD_ZERO), np.int64)]


def no_rounding(*args):
    raise AssertionError("an add with a zero operand rounded")


def with_root_split_unobserved(c: Circuit, rows: np.ndarray) -> np.ndarray:
    """rows and, last, the first row with the variable that a deterministic
    circuit's root sum splits on unobserved: both root terms are nonzero."""
    product = c.units[c.units[c.root].children[0]]
    var = next(c.units[u].var for u in product.children
               if isinstance(c.units[u], IndicatorUnit))
    partial = rows[0].copy()
    partial[var] = -1
    return np.vstack([rows, partial])


class TestAddsWithAZeroOperand:
    """An add whose lower operands are all zero returns its other operand
    without rounding, as every MAR add of a complete row does on a
    deterministic circuit; a batch with one real add rounds them all."""

    @pytest.mark.parametrize("cfg, dtype", SELECT_WORDS, ids=str)
    @pytest.mark.parametrize("checked", [True, False])
    def test_the_select_matches_the_scalar_add(self, cfg, dtype, checked, monkeypatch):
        one = cfg.bias << cfg.man_bits
        words = [-1, 0, 1, one, cfg.max_word]
        pairs = [(-1, x) for x in words] + [(x, -1) for x in words]

        def add(batch):
            a, b = (np.array(col, dtype=dtype).reshape(-1, 1) for col in zip(*batch))
            ar = word_ops(cfg, dtype, checked=checked)
            got = run_op(ar, "add", a, b).ravel().tolist()
            want = [exact_add(value_of(x, cfg), value_of(y, cfg), cfg) for x, y in batch]
            assert [value_of(w, cfg) for w in got] == [r.value for r in want]
            assert int(ar.under[0]) == sum(r.underflowed for r in want)
            assert int(ar.over[0]) == sum(r.overflowed for r in want)
            return got

        # one real add rounds the batch; the smallest value, word 0, is no zero
        for real in ([(0, 0)], [(one, 1), (one, one)]):
            add(pairs + real)
        monkeypatch.setattr(inference, "_round_words", no_rounding)
        assert add(pairs) == [max(p) for p in pairs]

    @pytest.mark.parametrize("cfg", [FloatConfig(10, 12, rounding=TOWARD_ZERO),
                                     FloatConfig(11, 40)], ids=str)
    def test_complete_rows_of_a_deterministic_circuit_never_round(self, cfg, monkeypatch):
        # under an all-AAI plan only the add rounds; the input table and the
        # range certificate, whose unobserved columns add, are built first
        c = generate_random_det_pc(1, 8)
        plan = MultiplierPlan.all_aai(c)
        rows = sample(c, 1, 16)
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        want = ev.mar(rows)
        assert [(r, u, o) for r, u, o in zip(*want)] == [ref.mar(x) for x in rows]
        monkeypatch.setattr(inference, "_round_words", no_rounding)
        assert [inference.eval_mar(c, x, cfg, plan) for x in rows] == want[0]
        got = ev.mar(rows)
        assert got[0] == want[0] and (got[1] == want[1]).all() and (got[2] == want[2]).all()
        for free in (0, len(ev._comp.levels)):  # checked, then unchecked
            ev._ascend(ev._format, rows, inference._MAR, free=free)
        with pytest.raises(AssertionError, match="rounded"):
            ev.mar(with_root_split_unobserved(c, rows))

    @pytest.mark.parametrize("cfg", [
        FloatConfig(8, 10), FloatConfig(11, 40), FloatConfig(11, 41, rounding=TOWARD_ZERO),
        FLOAT64, FloatConfig(3, 4, bias=8)], ids=str)
    @pytest.mark.parametrize("aai", [True, False])
    def test_a_batch_with_an_unobserved_variable_adds_its_terms(self, cfg, aai):
        # complete rows, one with the root's variable unobserved and, at
        # (3, 4, bias=8), whose values run from 2**-8 to 31/32, one with
        # every variable unobserved, whose root sum overflows
        c = generate_random_det_pc(2, 5)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        rows = with_root_split_unobserved(c, enumerate_states(c))
        if cfg.bias == 8:
            rows = np.vstack([rows, np.full(c.n_vars, -1)])
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        results, under, over = ev.mar(rows)
        assert [(r, u, o) for r, u, o in zip(results, under.tolist(), over.tolist())] == \
            [ref.mar([None if v < 0 else int(v) for v in x]) for x in rows]
        assert decode(results[32].value) > decode(results[0].value)
        if cfg.bias == 8:
            assert under[:32].any() and over[-1] > 0


class TestWideFormatsAgainstScalarReference:
    @pytest.mark.parametrize("cfg", [FloatConfig(11, 41),
                                     FloatConfig(11, 52, rounding=TOWARD_ZERO)], ids=str)
    @pytest.mark.parametrize("which", ["det(9)", "tree(16, 3, 3)"])
    def test_mar_map_and_restricted_value_agree(self, which, cfg):
        if which == "det(9)":
            c = generate_random_det_pc(0, 9)
            rows = enumerate_states(c)
        else:
            c = generate_random_tree_pc(0, 16, 3, 3)
            rows = sample(c, 0, 128)
        hidden = rows.copy()
        hidden[:, ::2] = -1
        rng = np.random.default_rng(0)
        plan = MultiplierPlan({s: AAI if rng.random() < 0.5 else EXACT
                               for s in enumerate_sites(c)})
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        assert ev._format.kind == np.int64
        results, under, over = ev.mar(rows)
        assert [(r, u, o) for r, u, o in zip(results, under, over)] == [ref.mar(x) for x in rows]
        maps, under, over = ev.map_query(hidden)
        evidence = [evidence_of(row) for row in hidden]
        # the reference's MAP once per distinct evidence: det(9) has 32
        want = {str(e): ref.map_query(e) for e in evidence}
        assert [(m.assignment.tolist(), m.log2_value, dict(m.trace), u, o)
                for m, u, o in zip(maps, under, over)] == \
            [(m.assignment.tolist(), m.log2_value, m.trace, u, o)
             for m, u, o in (want[str(e)] for e in evidence)]
        assert ev.restricted_value([m.trace for m in maps], hidden) == \
            [ref.restricted_value(m.trace, e) for m, e in zip(maps, evidence)]


def leaves_ieee(ev: CircuitEvaluator, rows: np.ndarray) -> list:
    """Per row, whether a checked MAR pass on IEEE doubles leaves them: on
    these words only such a product counts in `under`."""
    assert ev._format.leaves
    ar = ev._ascend(ev._format, rows, inference._MAR)[1]
    assert isinstance(ar, _PatternWords) and not ar.over.any()
    return (ar.under > 0).tolist()


def chain_of_tiny_sums(n_vars: int, tiny: float) -> Circuit:
    """A product over n_vars sums that each give weight `tiny` to value 0."""
    units, kids = [], []
    for v in range(n_vars):
        base = 3 * v
        units += [IndicatorUnit(base, v, 0), IndicatorUnit(base + 1, v, 1),
                  SumUnit(base + 2, (base, base + 1), (tiny, 1.0 - tiny))]
        kids.append(base + 2)
    units.append(ProductUnit(3 * n_vars, tuple(kids)))
    return Circuit([Variable(v, 2) for v in range(n_vars)], units, 3 * n_vars)


class TestWordKinds:
    @pytest.mark.parametrize("cfg, kind", [
        (FloatConfig(8, 10), np.float64), (FloatConfig(8, 13), np.float64),
        (FloatConfig(8, 25), np.float64), (FloatConfig(30, 10), np.int64),
        (FloatConfig(6, 29), np.int64), (FloatConfig(6, 30), np.int64),
        (FloatConfig(11, 40), np.int64), (FloatConfig(11, 41), np.int64),
        (FloatConfig(11, 52, rounding=TOWARD_ZERO), np.int64), (FloatConfig(30, 32), np.int64),
        (FLOAT64, np.float64),
    ])
    def test_ieee_double_patterns_or_the_formats_own_words(self, cfg, kind):
        assert _word_kind(cfg) == kind

    #: at each edge of the IEEE double patterns: M = 0 and 26, bias 512 and
    #: e_max 511 stay on integer words; M = 1 and 25, bias 511 and e_max 510
    #: do not
    KIND_EDGES = [(FloatConfig(4, 0), np.int64), (FloatConfig(4, 1), np.float64),
                  (FloatConfig(8, 26), np.int64), (FloatConfig(8, 25), np.float64),
                  (FloatConfig(9, 10, bias=512), np.int64),
                  (FloatConfig(9, 10, bias=511), np.float64),
                  (FloatConfig(9, 10, bias=0), np.int64), (FloatConfig(9, 10, bias=1), np.float64),
                  (FloatConfig(10, 3, bias=512), np.int64)]

    @pytest.mark.parametrize("cfg, kind", KIND_EDGES, ids=str)
    def test_the_edges_of_the_ieee_double_patterns(self, cfg, kind):
        # M = 0 ties on the implicit leading bit, where a pattern's kept
        # parity bit would be the exponent's low bit; past bias 511 or e_max
        # 510 a product leaves the normal doubles
        assert _word_kind(cfg) == kind
        c = ternary_inputs()
        ev = CircuitEvaluator(c, cfg, MultiplierPlan.all_exact(c))
        assert isinstance(ev._format.ops(1), _PatternWords if kind == np.float64 else _IntWords)
        if kind == np.float64:  # extreme pairs, each product and add at the range's ends
            m, top, lo = cfg.man_bits, cfg.max_word, 0
            ones = cfg.man_scale - 1
            words = [lo, lo | 1, lo | ones, top, top - 1, top & ~ones, cfg.bias << m,
                     (cfg.bias << m) | (1 << (m - 1)), -1]
            assert_ops_match_scalar(cfg, PATTERNS, [(x, y) for x in words for y in words])

    @pytest.mark.parametrize("cfg", CONFIGS + [FloatConfig(30, 32)], ids=str)
    def test_word_kinds_are_dtypes(self, cfg):
        c, kind = ternary_inputs(), _word_kind(cfg)
        assert isinstance(kind, np.dtype)
        assert CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c))._format.kind is kind

    def test_a_negative_bias_is_refused_when_the_evaluator_is_built(self):
        # the word for one, bias << M, would be negative, the word for zero
        c = generate_random_det_pc(0, 3)
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            with pytest.raises(ValueError, match="non-negative bias"):
                CircuitEvaluator(c, FloatConfig(5, 4, bias=-2), plan)

    def test_float64_below_min_normal_reruns_on_integer_words(self):
        # w * w = 1.125 * 2**-1023 is an IEEE subnormal but a normal value of
        # this format (e_min = -1023); w**3 underflows both
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        rows = np.array([[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev, ref = CircuitEvaluator(c, FLOAT64, plan), ScalarEvaluator(c, FLOAT64, plan)
            assert ev._format.kind == np.float64
            assert leaves_ieee(ev, rows) == [True, False, True, True]
            results, under, over = ev.mar(rows)
            assert [(r, u, o) for r, u, o in zip(results, under, over)] == \
                [ref.mar(x) for x in rows]
            assert results[0].value.exponent == -1023 and under[0] == 0
            assert under[2] > 0 and results[2].value.is_zero
            got, _, _ = ev.map_query(rows)
            assert [g.log2_value for g in got] == \
                [ref.map_query(evidence_of(x))[0].log2_value for x in rows]

    def test_float64_product_that_ieee_rounds_up_to_min_normal(self):
        # (1 - 2**-53) * 2**-1022 is a normal value of this format; as an IEEE
        # subnormal it is a tie that rounds up to 2**-1022 itself
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
                 IndicatorUnit(3, 1, 1), SumUnit(4, (0, 1), (1 - 2.0 ** -53, 2.0 ** -53)),
                 SumUnit(5, (2, 3), (2.0 ** -1022, 1.0)), ProductUnit(6, (4, 5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 6)
        plan = MultiplierPlan.all_exact(c)
        got, _, _ = CircuitEvaluator(c, FLOAT64, plan).mar([0, 0])
        assert got == ScalarEvaluator(c, FLOAT64, plan).mar([0, 0])[0]
        assert got.value == CustomFloat(False, -1023, (1 << 52) - 1, 52)

    def test_float64_with_a_subnormal_weight_leaves_ieee_doubles(self):
        c = chain_of_tiny_sums(2, 2.0 ** -1023)
        ev = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        ref = ScalarEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        rows = np.array([[0, 1], [1, 1], [0, 0]])
        assert leaves_ieee(ev, rows) == [True, False, True]
        for x in rows:
            assert ev.mar(x) == ref.mar(x)

    @pytest.mark.parametrize("cfg", [FloatConfig(3, 3), FloatConfig(3, 4, bias=8)])
    def test_saturation_counts_match_at_both_ends(self, cfg):
        c = generate_random_tree_pc(3, 6, 2, 3)
        rows = sample(c, 3, 16)
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
            _, under, over = ev.mar(rows)
            assert (under + over).sum() > 0
            assert [(u, o) for u, o in zip(under, over)] == \
                [ref.mar(x)[1:] for x in rows]


#: rows of chain_of_tiny_sums(4, 1.5 * 2**-512), in chunks of two: two tiny
#: weights multiply to 1.125 * 2**-1023, so the second and fourth chunks
#: leave IEEE doubles and the others do not
TINY_CHAIN_ROWS = np.array([[1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1],
                            [1, 1, 1, 1], [1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]])


def tiny_edge_traces(rows: np.ndarray) -> list[dict[int, int]]:
    """Per row, the trace of chain_of_tiny_sums that takes variable v's tiny
    edge where the row holds 0: with every variable unobserved, its value
    is the row's MAR value."""
    return [{3 * v + 2: int(x != 0) for v, x in enumerate(row)} for row in rows]


class TestLeavingIEEEDoubles:
    """FLOAT64 runs on its IEEE double patterns, which are its words: a
    checked product that leaves the normal doubles counts in `under`, as a
    saturating op does on the format's words, and its chunk reruns on
    FLOAT64's own words in int64."""

    def test_checked_products_count_the_cells_that_leave(self):
        # on the values' patterns, exact: nonzero operands whose product is at
        # or below 2**-1022 (no IEEE product of these values rounds across
        # it); AAI: nonzero operands whose patterns add to less than the
        # pattern of 2**-1022
        x = np.array([0.0, 2.0 ** -1074, 2.0 ** -1023, 2.0 ** -1022, 1.5 * 2.0 ** -512,
                      2.0 ** -511, 0.75, 1.0])
        a, b = np.meshgrid(x, x)

        def word(v):
            return int(np.float64(v).view(np.int64))

        leaves = {"exact": lambda p, q: Fraction(p) * Fraction(q) <= Fraction(2) ** -1022,
                  "aai": lambda p, q: word(p) + word(q) - word(1.0) < word(2.0 ** -1022)}
        for op, rule in leaves.items():
            want = np.array([[p > 0 and q > 0 and rule(p, q) for p, q in zip(ra, rb)]
                             for ra, rb in zip(a.tolist(), b.tolist())])
            checked, unchecked = (word_ops(FLOAT64, PATTERNS, len(x), flag)
                                  for flag in (True, False))
            got, raw = (run_op(ar, op, a.view(np.int64), b.view(np.int64)).view(np.float64)
                        for ar in (checked, unchecked))
            assert want.any() and not want.all()
            assert checked.under.tolist() == want.sum(axis=0).tolist(), op
            assert not checked.over.any() and not unchecked.under.any()
            assert (got >= 0).all()  # no negative or NaN value
            assert got.tolist() == np.where(want, 0.0, raw).tolist()

    @pytest.mark.parametrize("aai", [False, True])
    def test_only_the_chunks_that_leave_rerun_on_float64_words(self, aai, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        rows = TINY_CHAIN_ROWS
        assert leaves_ieee(CircuitEvaluator(c, FLOAT64, plan), rows) == \
            [False, False, True, False, False, False, True, False]
        kinds = []
        query_passes(monkeypatch, lambda fmt, chunk:
                     kinds.append("ints" if fmt.kind == np.int64 else "ieee"))
        monkeypatch.setattr(circuit, "CHUNK_CELLS", 2 * _compile(c).n_table)
        per_query = ["ieee", "ieee", "ints", "ieee", "ieee", "ints"]  # four chunks
        ev = assert_matches_scalar(c, FLOAT64, plan, rows, rows)
        assert kinds == per_query * 2
        kinds.clear()
        traces = tiny_edge_traces(rows)
        assert ev.restricted_value(traces, np.full(rows.shape, -1)) == \
            [ScalarEvaluator(c, FLOAT64, plan).restricted_value(t, {}) for t in traces]
        assert kinds == per_query

    def test_the_rerun_is_the_same_pass_on_the_int64_record(self, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_exact(c)
        ev = CircuitEvaluator(c, FLOAT64, plan)
        records = []
        query_passes(monkeypatch, lambda fmt, chunk: records.append(fmt))
        got = ev.mar(TINY_CHAIN_ROWS[2])
        ints = inference._format(c, FLOAT64, np.dtype(np.int64))
        assert records == [ev._format, ints] and ints.kind == np.int64 and ints.cfg == FLOAT64
        assert ints.w.ravel().tolist() == encode_words(_compile(c).weights, FLOAT64)[0].tolist()
        assert got == ScalarEvaluator(c, FLOAT64, plan).mar(TINY_CHAIN_ROWS[2])
        assert plan._verdicts[ints] == 1  # checked from the product, which leaves the range


def value_tables(monkeypatch) -> list:
    """The value tables that `_inputs` makes from here on, those of every
    pass and input table, as they are made."""
    tables, inputs = [], inference._inputs
    monkeypatch.setattr(inference, "_inputs",
                        lambda *args: tables.append(inputs(*args)) or tables[-1])
    return tables


#: the words a pass may hold: IEEE double patterns and the format's own
#: words, both in int64
INTEGER_WORDS = {np.dtype(np.int64)}


class TestIntegerWords:
    """Every pass runs on int64 words: no format's weight words or value
    tables, FLOAT64's and its rerun's included, hold float64 values or
    Python ints."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=str)
    def test_weight_words_and_value_tables_are_integers(self, cfg, monkeypatch):
        c = generate_random_tree_pc(1, 5, 2, 3)
        rows = sample(c, 1, 8)
        tables = value_tables(monkeypatch)
        ev = CircuitEvaluator(c, cfg, MultiplierPlan.all_exact(c))
        ev.mar(rows)
        ev.map_query(np.where(rows % 2 == 0, rows, -1))
        assert inference._format(c, cfg).w.dtype in INTEGER_WORDS
        assert len(tables) >= 2 and {t.dtype for t in tables} <= INTEGER_WORDS

    def test_the_float64_rerun_record_holds_float64_words(self, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        tables = value_tables(monkeypatch)
        ev = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        ev.mar(TINY_CHAIN_ROWS)
        ev.map_query(TINY_CHAIN_ROWS)
        assert ev._format.w.dtype == np.int64
        ints = inference._format(c, FLOAT64, np.dtype(np.int64))
        assert ints.w.ravel().tolist() == encode_words(_compile(c).weights, FLOAT64)[0].tolist()
        assert {t.dtype for t in tables} == INTEGER_WORDS  # the rerun's too


def ternary_inputs() -> Circuit:
    """A mixture of two products of categorical inputs over variable 0 of
    4 values, which no indicator tests for 3, variable 1 of 3 and binary
    variable 2: sum 8 has two indicators of (0, 1) among its children, sum 10
    one indicator twice."""
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 0, 2),
             IndicatorUnit(3, 0, 1), IndicatorUnit(4, 1, 0), IndicatorUnit(5, 1, 1),
             IndicatorUnit(6, 1, 2), IndicatorUnit(7, 2, 1),
             SumUnit(8, (0, 1, 2, 3), (0.1, 0.35, 0.3, 0.25)),
             SumUnit(9, (2, 0, 1), (0.6, 0.1, 0.3)),
             SumUnit(10, (4, 5, 6, 4), (0.2, 0.3, 0.1, 0.4)),
             SumUnit(11, (6, 5, 4), (0.5, 0.25, 0.25)),
             SumUnit(12, (7,), (1.0,)),
             ProductUnit(13, (8, 10, 12)), ProductUnit(14, (11, 9, 12)),
             SumUnit(15, (13, 14), (0.45, 0.55))]
    return Circuit([Variable(0, 4), Variable(1, 3), Variable(2, 2)], units, 15)


def table_of(ev: CircuitEvaluator, mode: int, kind=None):
    """The evaluator's input table for words of the given kind (its own by
    default), from the record a pass reads it from."""
    fmt = ev._format if kind is None else inference._format(ev.circuit, ev.cfg, kind)
    return fmt.tables[mode]


def assert_matches_scalar(c, cfg, plan, rows, hidden):
    """MAR, MAP and the counts, batched, equal the scalar reference's."""
    ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
    results, under, over = ev.mar(rows)
    assert [(r, u, o) for r, u, o in zip(results, under, over)] == [ref.mar(x) for x in rows]
    results, under, over = ev.map_query(hidden)
    for row, got, u, o in zip(hidden, results, under, over):
        want, want_u, want_o = ref.map_query(evidence_of(row))
        assert got.assignment.tolist() == want.assignment.tolist()
        assert (got.log2_value, dict(got.trace), u, o) == \
            (want.log2_value, want.trace, want_u, want_o)
    return ev


def product_of_indicators() -> Circuit:
    return Circuit([Variable(0, 2), Variable(1, 3)],
                   [IndicatorUnit(0, 0, 1), IndicatorUnit(1, 1, 2), ProductUnit(2, (1, 0))], 2)


def lone_indicator() -> Circuit:
    return Circuit([Variable(0, 2)], [IndicatorUnit(5, 0, 1)], 5)


class TestCircuitsWithoutSums:
    """Circuits whose choice tables have no rows."""

    @pytest.mark.parametrize("make", [product_of_indicators, lone_indicator])
    @pytest.mark.parametrize("cfg", [FloatConfig(8, 10), FloatConfig(11, 41, rounding=TOWARD_ZERO),
                                     FLOAT64], ids=str)
    def test_queries_sampling_and_validation_match_the_references(self, make, cfg):
        c = make()
        rows = enumerate_states(c)
        hidden = np.vstack([rows, np.full((1, c.n_vars), -1)])
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, cfg, plan, rows, hidden)
            ref = ScalarEvaluator(c, cfg, plan)
            assert ev.map_query({0: 1}) == ref.map_query({0: 1})
            results, under, over = ev.map_query(np.zeros((0, c.n_vars), dtype=np.int64))
            assert results == [] and len(under) == len(over) == 0
            assert ev.restricted_value({}, {}) == ref.restricted_value({}, {})
        assert sample(c, 0, 5).tolist() == sample_oracle(c, 0, 5).tolist()
        report = validate(c)
        assert report.deterministic and list(report.violations) == determinism_oracle(c) == []


class TestMapKeepsItsEvidence:
    """Where the root is zero every term ties, the backtrack picks each
    sum's first child, and the observed variables keep their values."""

    @pytest.mark.parametrize("cfg", [FloatConfig(11, 40), FLOAT64], ids=str)
    def test_evidence_of_probability_zero(self, cfg):
        # X0 = 1 and X1 = 0; the evidence X0 = 0 makes the root zero
        c = Circuit([Variable(0, 2), Variable(1, 2)],
                    [IndicatorUnit(0, 0, 1), IndicatorUnit(1, 1, 0), ProductUnit(2, (0, 1))], 2)
        plan = MultiplierPlan.all_exact(c)
        got, under, over = CircuitEvaluator(c, cfg, plan).map_query({0: 0})
        assert got.assignment.tolist() == [0, 0] and got.log2_value == -np.inf
        assert (got, under, over) == ScalarEvaluator(c, cfg, plan).map_query({0: 0})
        assert inference.eval_map(c, {0: 0}, cfg, plan).assignment.tolist() == [0, 0]

    def test_rows_that_underflow_keep_their_evidence(self):
        # at (3, 2) every such row of this circuit underflows to a zero root,
        # and the first children there break the evidence on 63 of 64 rows
        c = generate_random_det_pc(0, 10)
        cfg, plan = FloatConfig(3, 2), MultiplierPlan.all_aai(c)
        rows = sample(c, 0, 64)
        rows[:, ::2] = -1
        results, under, _ = CircuitEvaluator(c, cfg, plan).map_query(rows)
        assert (under > 0).all() and all(r.log2_value == -np.inf for r in results)
        for row, got in zip(rows, results):
            assert (np.where(row >= 0, row, got.assignment) == got.assignment).all()
            assert (got.assignment >= 0).all()
        ref = ScalarEvaluator(c, cfg, plan)
        assert results[:8] == [ref.map_query(evidence_of(row))[0] for row in rows[:8]]


class TestMapResult:
    def test_results_compare_by_value(self):
        # the generated __eq__ compared the assignment arrays with ==
        c = generate_random_det_pc(0, 4)
        cfg, plan = FloatConfig(8, 10), MultiplierPlan.all_aai(c)
        ev = CircuitEvaluator(c, cfg, plan)
        got = ev.map_query({0: 1})[0]
        assert got == ev.map_query({0: 1})[0] and not got != ev.map_query({0: 1})[0]
        assert got == ScalarEvaluator(c, cfg, plan).map_query({0: 1})[0]  # a dict trace
        flipped = {**got.trace, c.root: 1 - got.trace[c.root]}
        for other in (ev.map_query({0: 0})[0],
                      dataclasses.replace(got, assignment=got.assignment[:-1]),
                      dataclasses.replace(got, log2_value=got.log2_value - 1),
                      dataclasses.replace(got, trace=flipped)):
            assert got != other and not got == other
        assert got != dict(got.trace)
        with pytest.raises(TypeError, match="unhashable"):
            hash(got)

    def test_repr_shows_the_choices(self):
        c = generate_random_det_pc(0, 4)
        got = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c)).map_query({})[0]
        assert repr(got.trace) == repr(dict(got.trace))
        assert f"trace={dict(got.trace)!r}" in repr(got)


class TestInputTables:
    @pytest.mark.parametrize("cfg, kind", [
        (FloatConfig(8, 10), np.float64), (FloatConfig(11, 40), np.int64),
        (FloatConfig(11, 41, rounding=TOWARD_ZERO), np.int64), (FLOAT64, np.float64)], ids=str)
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_tables_match_the_scalar_reference(self, cfg, kind, share):
        c = ternary_inputs()
        rng = np.random.default_rng(int(share * 2))
        plan = MultiplierPlan({s: AAI if rng.random() < share else EXACT
                               for s in enumerate_sites(c)})
        rows = enumerate_states(c)
        hidden = rows.copy()
        hidden[rng.random(rows.shape) < 0.4] = -1
        hidden = np.vstack([hidden, np.full((1, 3), -1)])
        ev = assert_matches_scalar(c, cfg, plan, rows, hidden)
        assert ev._format.kind == kind
        comp = _compile(c)  # sums 8..12, looked up by id
        assert [comp.leaf_var[comp.sum_index[uid]] for uid in range(8, 13)] == [0, 0, 1, 1, 2]
        for mode in (inference._MAR, inference._MAP):
            table = table_of(ev, mode)
            assert table is not None and len(table.words) == 5 * 5
            assert (table.choices is None) == (mode == inference._MAR)

    def test_tables_hold_the_words_the_level_computes(self, monkeypatch):
        c = generate_random_tree_pc(5, 8, 2, 3)
        cfg, plan = FloatConfig(8, 12, rounding=TOWARD_ZERO), MultiplierPlan.all_aai(c)
        rows = sample(c, 5, 32)
        rows[::3, ::2] = -1
        ev = CircuitEvaluator(c, cfg, plan)
        with_tables = ev.mar(rows[1::3]), ev.map_query(rows)
        assert table_of(ev, inference._MAR) is not None
        monkeypatch.setattr(ev._format, "tables", {})
        without = ev.mar(rows[1::3]), ev.map_query(rows)
        assert with_tables[0][0] == without[0][0]
        assert [(r.assignment.tolist(), r.log2_value, dict(r.trace)) for r in with_tables[1][0]] \
            == [(r.assignment.tolist(), r.log2_value, dict(r.trace)) for r in without[1][0]]

    def test_a_first_level_sum_over_two_variables_has_no_table(self):
        c = ternary_inputs()
        units = [*c.units.values(), IndicatorUnit(16, 2, 0), SumUnit(17, (16, 4), (0.5, 0.5))]
        units[-3] = SumUnit(15, (13, 14, 17), (0.45, 0.45, 0.1))
        c = Circuit(c.variables, units, 15)
        assert -1 in _compile(c).leaf_var.tolist()
        rows = enumerate_states(c)
        ev = assert_matches_scalar(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c), rows, rows)
        assert table_of(ev, inference._MAR) is table_of(ev, inference._MAP) is None

    def test_a_build_that_overflows_has_no_table(self):
        # every value from 2**-1 up overflows at bias 8: the MAR build adds
        # each leaf's weights to about 1, MAP takes the largest weight
        c = generate_random_tree_pc(3, 6, 2, 3)
        cfg, rows = FloatConfig(3, 4, bias=8), sample(c, 3, 16)
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, cfg, plan, rows, rows)
            assert table_of(ev, inference._MAR) is None
            assert table_of(ev, inference._MAP) is not None

    def test_underflow_above_the_first_level_keeps_its_table_and_counts(self):
        # (3, 3) underflows below 2**-3 in the products; a leaf's weight
        # times one is the weight, and its sum at most one, so the first
        # level never saturates
        c = generate_random_tree_pc(3, 6, 2, 3)
        cfg, rows = FloatConfig(3, 3), sample(c, 3, 16)
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, cfg, plan, rows, rows)
            assert ev.mar(rows)[1].sum() > 0
            assert table_of(ev, inference._MAR) is not None

    def test_a_subnormal_leaf_weight_under_float64_has_no_ieee_table(self):
        c = chain_of_tiny_sums(2, 2.0 ** -1023)
        ev = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        # the build leaves IEEE doubles where an indicator of value 0 is
        # one; the level then runs on the rows, which never make it one
        assert leaves_ieee(ev, np.array([[1, 1]])) == [False]
        assert table_of(ev, inference._MAR) is None
        rows = np.array([[0, 1], [1, 1], [0, 0], [-1, 0]])
        assert_matches_scalar(c, FLOAT64, MultiplierPlan.all_exact(c), rows[:3], rows)
        assert leaves_ieee(ev, rows) == [True, False, True, True]
        assert table_of(ev, inference._MAR, np.dtype(np.int64)) is not None

    @pytest.mark.parametrize("cfg", [FloatConfig(8, 10), FLOAT64], ids=str)
    def test_any_negative_value_reads_as_unobserved(self, cfg):
        # a table reads value x of sum i at i * width + 1 + x: a -2 would
        # read the sum before's word, and at sum 0 wrap to the last sum's
        c = ternary_inputs()
        plan = MultiplierPlan.all_aai(c)
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        rows = enumerate_states(c)
        hidden = np.where(np.random.default_rng(3).random(rows.shape) < 0.4, -1, rows)
        hidden = np.vstack([hidden, [[-1, 0, 1], [0, -1, 1], [-1, -1, -1]]])

        def answers(x):
            results, under, over = ev.mar(x)
            maps = ev.map_query(x)[0]
            return ([(r, u, o) for r, u, o in zip(results, under.tolist(), over.tolist())],
                    [(m.assignment.tolist(), m.log2_value, dict(m.trace)) for m in maps])

        want = answers(hidden)
        assert want[0] == [ref.mar([None if v < 0 else int(v) for v in row]) for row in hidden]
        scalar = [ref.map_query(evidence_of(row))[0] for row in hidden]
        assert want[1] == [(m.assignment.tolist(), m.log2_value, m.trace) for m in scalar]
        assert table_of(ev, inference._MAR) is not None
        for neg in (-2, -7):
            assert answers(np.where(hidden < 0, neg, hidden)) == want
            assert ev.mar([neg, 0, 1])[0] == want[0][-3][0]

    def test_map_ties_pick_the_lowest_child(self):
        # per sum 8..12, the choice when its variable is unobserved, 0, 1, 2,
        # 3: sum 8 ties children 1 and 3 at value 1, sum 10 children 0 and 3
        # at 0, and where every child is zero the first is chosen
        c = with_equal_weights(ternary_inputs())
        rows = enumerate_states(c)
        hidden = np.vstack([rows, np.full((1, 3), -1)])
        ev = assert_matches_scalar(c, FloatConfig(8, 10), MultiplierPlan.all_exact(c),
                                   rows, hidden)
        choices, index = table_of(ev, inference._MAP).choices.reshape(5, 5), ev._comp.sum_index
        assert [choices[index[uid]].tolist() for uid in range(8, 13)] == \
            [[0, 0, 1, 2, 0], [0, 1, 2, 0, 0], [0, 0, 1, 2, 0], [0, 2, 1, 0, 0], [0, 0, 0, 0, 0]]


def shared_product() -> Circuit:
    """A DAG: product 10 feeds sums 12 and 13, which both mix products 10
    and 11 over variables 0 and 1, and products 16 and 17 fold a sum of
    level 3 with one of level 1, so neither level's children fill
    consecutive rows."""
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
             IndicatorUnit(3, 1, 1), IndicatorUnit(4, 2, 0), IndicatorUnit(5, 2, 1),
             SumUnit(6, (0, 1), (0.3, 0.7)), SumUnit(7, (2, 3), (0.6, 0.4)),
             SumUnit(8, (0, 1), (0.8, 0.2)), SumUnit(9, (2, 3), (0.1, 0.9)),
             ProductUnit(10, (6, 7)), ProductUnit(11, (8, 9)),
             SumUnit(12, (10, 11), (0.25, 0.75)), SumUnit(13, (10, 11), (0.5, 0.5)),
             SumUnit(14, (4, 5), (0.4, 0.6)), SumUnit(15, (4, 5), (0.9, 0.1)),
             ProductUnit(16, (12, 14)), ProductUnit(17, (13, 15)),
             SumUnit(18, (16, 17), (0.35, 0.65))]
    return Circuit([Variable(i, 2) for i in range(3)], units, 18)


def listed_against_id_order(c: Circuit) -> Circuit:
    """The same circuit with its ids reversed and its units listed parents
    first, so that ids run against the levels and `c.order`."""
    top = max(c.units)

    def renamed(u):
        if isinstance(u, IndicatorUnit):
            return IndicatorUnit(top - u.id, u.var, u.value)
        kids = tuple(top - k for k in u.children)
        if isinstance(u, ProductUnit):
            return ProductUnit(top - u.id, kids)
        return SumUnit(top - u.id, kids, u.weights)

    return Circuit(c.variables, [renamed(c.units[uid]) for uid in reversed(c.order)],
                   top - c.root)


def uneven_tree() -> Circuit:
    """tree(7, 2, 3), its products shuffled and its ids reversed: products
    whose children sit on two levels read them by a gather, the rest as
    slices."""
    c = generate_random_tree_pc(3, 7, 2, 3)
    return listed_against_id_order(with_shuffled_products(c, np.random.default_rng(3)))


#: one config per word kind, IEEE double patterns and int64 words, with a
#: product that splits at (11, 40) and (11, 41), and FLOAT64's patterns
KIND_CONFIGS = [FloatConfig(8, 10), FloatConfig(11, 40),
                FloatConfig(11, 41, rounding=TOWARD_ZERO), FLOAT64]


def half_aai(c: Circuit, seed: int = 0) -> MultiplierPlan:
    rng = np.random.default_rng(seed)
    return MultiplierPlan({s: AAI if rng.random() < 0.5 else EXACT for s in enumerate_sites(c)})


def spans(c: Circuit) -> list[tuple[bool, bool]]:
    """Per level above the first, whether its products and its sums (where
    it has any) read their children as a slice, after checking that the
    slice holds the rows their index arrays name."""
    out = []
    for lev in _compile(c).levels[1:]:
        for ch, span in ((lev.pch, lev.pspan), (lev.sch, lev.sspan)):
            if span is not None:
                assert ch.ravel().tolist() == list(range(span.start, span.stop))
        out.append((lev.pspan is not None if lev.p1 > lev.p0 else None,
                    lev.sspan is not None if lev.s1 > lev.s0 else None))
    return out


class TestChildMajorLayout:
    """Rows sorted by where units first appear as children of the level
    above: where a level's children then fill consecutive rows, passes read
    them as a view of the table, and elsewhere by one gather."""

    @pytest.mark.parametrize("args", [(32, 4, 3), (16, 3, 3), (8, 1, 3), (4, 2, 2)], ids=str)
    @pytest.mark.parametrize("seed", range(2))
    def test_every_tree_level_above_the_first_reads_a_slice(self, seed, args):
        for products, sums in spans(generate_random_tree_pc(seed, *args)):
            assert products in (None, True) and sums in (None, True)

    @pytest.mark.parametrize("n_vars", [2, 5, 10])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_det_sum_level_above_the_first_reads_a_slice(self, seed, n_vars):
        got = [sums for _, sums in spans(generate_random_det_pc(seed, n_vars))]
        assert got.count(True) == n_vars - 1 and set(got) == {None, True}

    @pytest.mark.parametrize("cfg", KIND_CONFIGS, ids=str)
    @pytest.mark.parametrize("make, layout", [
        (shared_product, [(True, None), (None, False), (False, None), (None, True)]),
        (uneven_tree, None)], ids=["shared-product", "uneven-tree"])
    def test_gathered_levels_match_the_scalar_reference(self, make, layout, cfg):
        c = make()
        got = spans(c)
        if layout is not None:
            assert got == layout
        else:
            assert {False, True} <= {x for pair in got for x in pair}
        plan, rows = half_aai(c), enumerate_states(c)
        hidden = rows.copy()
        hidden[np.random.default_rng(1).random(rows.shape) < 0.4] = -1
        hidden = np.vstack([hidden, np.full((1, c.n_vars), -1)])
        ev = assert_matches_scalar(c, cfg, plan, rows, hidden)
        ref = ScalarEvaluator(c, cfg, plan)
        traces = [r.trace for r in ev.map_query(hidden)[0]]
        assert ev.restricted_value(traces, hidden) == \
            [ref.restricted_value(t, evidence_of(row)) for t, row in zip(traces, hidden)]

    @pytest.mark.parametrize("cfg", KIND_CONFIGS, ids=str)
    @pytest.mark.parametrize("make", [lambda: generate_random_tree_pc(0, 8, 2, 3),
                                      lambda: generate_random_det_pc(0, 5),
                                      shared_product, uneven_tree],
                             ids=["tree(8, 2, 3)", "det(5)", "shared-product", "uneven-tree"])
    def test_every_row_holds_its_units_value_after_a_pass(self, make, cfg):
        # a pass that wrote into a child level it read as a view would leave
        # a wrong word in that level's rows
        c = make()
        plan = half_aai(c)
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        rows = sample(c, 0, 6)
        rows[::2, ::2] = -1
        comp, free = ev._comp, ev._free(ev._format)
        for mode in (inference._MAR, inference._MAP):
            choices = np.zeros((len(comp.sum_index), len(rows)), dtype=np.int64)
            table, ar = ev._ascend(ev._format, rows, mode, choices, free)
            assert not (ar.under.any() or ar.over.any())
            want = [ref.unit_values([None if v < 0 else v for v in row.tolist()],
                                    largest=mode == inference._MAP) for row in rows]
            for uid, r in comp.row.items():
                words = ev._format.format_words(table[r])
                assert ev._format.values(words) == [w[uid] for w in want], uid


class TestLargestTerm:
    """MAP's branch-free step against the masked loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(k_s=st.integers(1, 5), n_s=st.integers(1, 4), cols=st.integers(0, 5),
           wide=st.booleans(), data=st.data())
    def test_values_and_choices_match_the_masked_loop(self, k_s, n_s, cols, wide, data):
        size = k_s * n_s * cols
        words = data.draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
        if wide:  # the widest formats' words, ties intact
            words = [w << 61 for w in words]
        terms = np.array(words, dtype=np.int64).reshape(k_s, n_s, cols)
        before = terms.copy()
        out = np.empty(terms.shape[1:], dtype=terms.dtype)
        choices = np.full(terms.shape[1:], -7, dtype=np.int64)
        inference._largest(terms, out, choices)
        want, want_choices = largest_terms(terms)
        assert out.tolist() == want.tolist()
        assert choices.tolist() == want_choices.tolist()
        assert terms.tolist() == before.tolist()


class TestPatternRounding:
    """`_PatternWords._round` rounds a double's pattern to M fraction bits
    as `floats._round_words` rounds its 53-bit significand."""

    @pytest.mark.parametrize("rounding", ["nearest-even", TOWARD_ZERO])
    @pytest.mark.parametrize("man_bits", [1, 10, 25])
    def test_mask_rounds_as_round_words(self, man_bits, rounding):
        cfg = FloatConfig(8, man_bits, rounding=rounding)
        s = 52 - man_bits
        rng = np.random.default_rng(man_bits)
        patterns = rng.integers(1 << 52, 2045 << 52, size=4096)
        # the dropped bits at and around half an ulp, and all ones (a carry)
        low = np.array([(1 << (s - 1)) - 1, 1 << (s - 1), (1 << (s - 1)) + 1, (1 << s) - 1])
        patterns[:2048] = patterns[:2048] & (-1 << s) | low[np.arange(2048) % 4]
        got = _PatternWords(cfg, 1)._round(patterns.copy())
        # _round_words reads a 53-bit significand as one binade up, so e is
        # the biased exponent less one
        words = _round_words((patterns >> 52) - 1024 + cfg.bias,
                             patterns & ((1 << 52) - 1) | (1 << 52), s, cfg)
        assert got.tolist() == ((words << s) + ((1023 - cfg.bias) << 52)).tolist()
        assert (got != patterns).any()



class TestZeroWordCollision:
    def test_engine_keeps_the_smallest_value_apart_from_zero(self):
        # aai of words 1 and (bias << M) - 1 is min_positive, pattern 0
        cfg = FloatConfig(8, 10)
        lo, hi = from_bits(1, cfg), from_bits((cfg.bias << cfg.man_bits) - 1, cfg)
        w_lo, w_hi = float(decode_fraction(lo)), float(decode_fraction(hi))
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (w_lo, 1.0 - w_lo)),
                 SumUnit(3, (2, 1), (w_hi, 1.0 - w_hi))]
        c = Circuit([Variable(0, 2)], units, 3)
        plan = MultiplierPlan.from_aai_weight_sites(c, [(3, 0)])
        assert encode(w_lo, cfg).value == lo and encode(w_hi, cfg).value == hi
        result, under, over = CircuitEvaluator(c, cfg, plan).mar([0])
        want = aai_mul(hi, lo, cfg)
        assert want.value == cfg.min_positive() and not want.underflowed
        assert result.value == want.value and (under, over) == (0, 0)
        assert not result.underflowed


class TestCaches:
    def test_one_record_and_one_weight_encoding_per_layout_and_config(self, monkeypatch):
        calls, encode_words = [], inference.encode_words
        monkeypatch.setattr(inference, "encode_words",
                            lambda x, cfg: calls.append(cfg) or encode_words(x, cfg))
        c, cfg = generate_random_tree_pc(2, 6, 2, 3), FloatConfig(8, 10)
        a = CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c))
        b = CircuitEvaluator(c, cfg, MultiplierPlan.all_exact(c))
        a.mar(sample(c, 2, 4)), b.map_query(sample(c, 3, 4))
        assert a._format is b._format is inference._format(c, cfg)
        assert calls == [cfg]
        other = CircuitEvaluator(c, FloatConfig(8, 12), MultiplierPlan.all_aai(c))
        assert other._format is not a._format and calls == [cfg, FloatConfig(8, 12)]
        d = generate_random_tree_pc(2, 6, 2, 3)  # the same circuit, another layout
        assert CircuitEvaluator(d, cfg, MultiplierPlan.all_aai(d))._format is not a._format
        assert len(calls) == 3

    def test_compiled_once_per_circuit_and_masks_once_per_plan(self):
        c = generate_random_det_pc(0, 4)
        plan = MultiplierPlan.all_aai(c)
        a = CircuitEvaluator(c, FloatConfig(8, 10), plan)
        b = CircuitEvaluator(c, FloatConfig(8, 10), plan)
        assert a._comp is b._comp is c._compiled
        assert plan._modes(c) is plan._modes(c)
        assert a._modes is b._modes
        assert a._format is b._format and a._format.w is b._format.w
        for mode in (inference._MAR, inference._MAP):
            assert table_of(a, mode) is table_of(b, mode) is not None
        other = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan(dict(plan.modes)))
        assert table_of(other, inference._MAP) is table_of(a, inference._MAP)
        exact = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_exact(c))
        assert table_of(exact, inference._MAR) is table_of(a, inference._MAR)
        assert MultiplierPlan.all_aai(c) is plan

    def test_plan_modes_are_read_only_copies(self):
        c = generate_random_det_pc(0, 3)
        modes = dict.fromkeys(enumerate_sites(c), EXACT)
        plan = MultiplierPlan(modes)
        modes[next(iter(modes))] = AAI
        assert AAI not in plan.modes.values()
        with pytest.raises(TypeError):
            plan.modes[next(iter(modes))] = AAI


def assert_index_pair(how, aai: list[bool]) -> None:
    """how is the pair (AAI positions, exact positions) of int64 index
    arrays that aai, one flag per position, gives: disjoint, sorted and
    together every position."""
    assert isinstance(how, tuple) and len(how) == 2
    assert all(isinstance(idx, np.ndarray) and idx.dtype == np.int64 for idx in how)
    assert [idx.tolist() for idx in how] == [[i for i, f in enumerate(aai) if f == want]
                                             for want in (True, False)]


class TestModeShape:
    """Every fold step and every level's sum edges multiply by one shape,
    whatever their mix: the (AAI, exact) pair of index arrays (`_split`)."""

    @pytest.mark.parametrize("make", [lambda: generate_random_tree_pc(0, 8, 2, 2),
                                      lambda: generate_random_det_pc(0, 5), ternary_inputs],
                             ids=["tree(8, 2, 2)", "det(5)", "ternary-inputs"])
    @pytest.mark.parametrize("plan_of", [MultiplierPlan.all_exact, MultiplierPlan.all_aai,
                                         half_aai], ids=["all-exact", "all-aai", "half-aai"])
    def test_every_step_and_level_is_an_index_pair(self, make, plan_of):
        # position j of fold step k is child k of the level's product j;
        # position k * n_s + i of a level's edges is edge k of its sum i;
        # padding past a unit's children, which only ternary_inputs has, is
        # exact
        c = make()
        plan, comp = plan_of(c), _compile(c)
        unit_at = {r: c.units[uid] for uid, r in comp.row.items()}

        def aai(row: int, k: int) -> bool:
            u = unit_at[row]
            return k < len(u.children) and plan.modes[u.id, k] == AAI

        for lev, (steps, edges) in zip(comp.levels, plan._modes(c)):
            (k_p, n_p), (k_s, n_s) = lev.pch.shape, lev.sch.shape
            assert len(steps) == k_p - 1
            for k, how in enumerate(steps, 1):
                assert_index_pair(how, [aai(lev.p0 + j, k) for j in range(n_p)])
            assert_index_pair(edges, [aai(lev.s0 + i, k) for k in range(k_s) for i in range(n_s)])


#: CONFIGS and two tiny formats, whose passes mostly saturate
CERTIFICATE_CONFIGS = CONFIGS + [FloatConfig(3, 2), FloatConfig(4, 3, rounding=TOWARD_ZERO)]


def passes(ev: CircuitEvaluator, rows, picks, free: int = 0):
    """MAR, MAP and picked passes over rows on the evaluator's own words, the
    first `free` levels unchecked (none by default), each with its choice
    table: none, the one MAP fills, and picks."""
    tables = [None, np.zeros((len(ev._comp.sum_index), len(rows)), dtype=np.int64), picks]
    results = []
    for mode, choices in zip((inference._MAR, inference._MAP, inference._PICK), tables):
        table, ar = ev._ascend(ev._format, rows, mode, choices, free)
        results.append((ev._format.format_words(table[ev._comp.root]), ar.under, ar.over,
                        choices))
    return results


def counted_levels(ev: CircuitEvaluator, rows, picks, mode=inference._MAR) -> list:
    """Per level of a checked pass over rows, whether any op so far counted."""
    choices = {inference._MAP: np.zeros((len(ev._comp.sum_index), len(rows)), dtype=np.int64),
               inference._PICK: picks}.get(mode)
    counted = []
    ev._ascend(ev._format, rows, mode, choices, counted=counted)
    return counted


def plain(results) -> list:
    return [None if x is None else np.asarray(x).tolist() for r in results for x in r]


def verdicts(ev: CircuitEvaluator) -> dict:
    """The plan's range verdicts on the evaluator's layout, the number of
    levels passes run unchecked, by the (config, word kind) of their
    records."""
    formats = inference._FORMATS.get(ev._comp, {})
    return {key: ev.plan._verdicts[f] for key, f in formats.items() if f in ev.plan._verdicts}


def with_weights(c: Circuit, uid: int, weights) -> Circuit:
    units = [SumUnit(uid, u.children, weights) if u.id == uid else u for u in c.units.values()]
    return Circuit(c.variables, units, c.root)


def tree_batch(seed: int):
    """The benchmark's tree-batch circuit, config and half-AAI plan at seed."""
    c = generate_random_tree_pc(seed, 32, 4, 3)
    edges = c.weight_edges()
    pick = np.random.default_rng(seed).choice(len(edges), len(edges) // 2, replace=False)
    plan = MultiplierPlan.from_aai_weight_sites(c, [edges[i] for i in sorted(pick)])
    return c, FloatConfig(8, 10), plan


class TestRangeCertificate:
    """A pass runs its first levels unchecked where two checked passes over
    one all-unobserved row show that no op there of any pass can leave the
    format's range; from the first level where they count, or where an AAI
    operand that can meet the zero word may exceed one, it runs checked."""

    @settings(max_examples=80, deadline=None)
    @given(cases(CERTIFICATE_CONFIGS))
    def test_certified_passes_match_the_checked_ones_and_the_reference(self, case):
        c, cfg, plan, rows, hidden = case
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        results, under, over = ev.mar(rows)
        assert [(r, u, o) for r, u, o in zip(results, under, over)] == [ref.mar(x) for x in rows]
        maps, under, over = ev.map_query(hidden)
        values = ev.restricted_value([m.trace for m in maps], hidden)
        for row, got, u, o, value in zip(hidden, maps, under, over, values):
            want, want_u, want_o = ref.map_query(evidence_of(row))
            assert (got.assignment.tolist(), got.log2_value, dict(got.trace), u, o) == \
                (want.assignment.tolist(), want.log2_value, want.trace, want_u, want_o)
            assert value == ref.restricted_value(want.trace, evidence_of(row))
        (free,) = verdicts(ev).values()
        # every state, and the hidden rows: no checked op of the free levels
        # counts, and the passes give the all-checked words and counts
        comp, x = ev._comp, np.vstack([enumerate_states(c), hidden])
        picks = np.random.default_rng(len(rows)).integers(
            0, comp.sum_arity[:, None], size=(len(comp.sum_arity), len(x)))
        for mode in (inference._MAR, inference._MAP, inference._PICK):
            assert not any(counted_levels(ev, x, picks, mode)[:free])
        assert plain(passes(ev, x, picks, free)) == plain(passes(ev, x, picks))

    @pytest.mark.parametrize("cfg", [FloatConfig(8, 12, rounding=TOWARD_ZERO), FloatConfig(3, 2),
                                     FloatConfig(4, 3), FloatConfig(11, 40), FLOAT64], ids=str)
    def test_hand_built_circuits(self, cfg):
        # on these circuits the certificate is tight: it frees every level
        # exactly where no row saturates, at (3, 2) on none of the passes and
        # at (4, 3) on ternary_inputs, whose least value 0.1 * 0.1 * 0.45 is
        # about 2**-7.8
        for c in (ternary_inputs(), with_equal_weights(ternary_inputs())):
            rows = enumerate_states(c)
            hidden = np.vstack([np.where(rows % 2 == 1, -1, rows), np.full((1, 3), -1)])
            for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
                ev = assert_matches_scalar(c, cfg, plan, rows, hidden)
                (free,) = verdicts(ev).values()
                every = free == len(ev._comp.levels)
                counts = [n.sum() for r in (ev.mar(rows), ev.map_query(hidden)) for n in r[1:]]
                assert every == (sum(counts) == 0)
                assert every == (cfg.exp_bits > 4 or
                                 cfg.exp_bits == 4 and c.units[8].weights[0] == 0.25)
                picks = ev.map_query(hidden)[0]
                picks = np.stack([m.trace._column for m in picks], axis=1)
                assert plain(passes(ev, hidden, picks, free)) == plain(passes(ev, hidden, picks))

    def test_the_benchmarks_deep_circuit_is_certified(self):
        c = generate_random_det_pc(0, 10)
        cfg, plan = FloatConfig(8, 12, rounding=TOWARD_ZERO), MultiplierPlan.all_aai(c)
        x = sample(c, 0, 1)[0]
        assert inference.eval_mar(c, x, cfg, plan) == ScalarEvaluator(c, cfg, plan).mar(x)[0]
        assert verdicts(CircuitEvaluator(c, cfg, plan)) == \
            {(cfg, np.dtype(np.float64)): len(_compile(c).levels)}

    @pytest.mark.parametrize("seed", [0, 1, 4, 8])
    def test_the_tree_batch_tests_first_eight_levels_run_unchecked(self, seed):
        # only the 3 products of level 8 and the root sum go below 2**-126:
        # the least-term pass counts there, the MAR pass nowhere
        c, cfg, plan = tree_batch(seed)
        ev = CircuitEvaluator(c, cfg, plan)
        assert len(ev._comp.levels) == 10 and verdicts(ev) == {}
        row = np.full((1, c.n_vars), -1)
        assert counted_levels(ev, row, None) == [False] * 10
        assert counted_levels(ev, row, None, inference._LEAST) == [False] * 8 + [True] * 2
        assert ev._free(ev._format) == 8
        # every weight is at most one; at seeds 1, 4 and 8 a level-3 sum's
        # upper bound rounds above one, but its partners are nonzero weights
        top, ar = ev._ascend(ev._format, row, inference._MAR)
        assert (ev._format.w <= ar.one).all()
        lev = ev._comp.levels[3]
        assert (top[lev.s0:lev.s1] > ar.one).any() == (seed != 0)
        rows = sample(c, seed, 12)
        rows[::3, ::2] = -1
        picks = np.zeros((len(ev._comp.sum_index), len(rows)), dtype=np.int64)
        assert plain(passes(ev, rows, picks, 8)) == plain(passes(ev, rows, picks))
        base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        assert base._free(base._format) == 10

    def test_a_circuit_that_saturates_midway_is_checked_from_there(self):
        # at (5, 3) the least-term pass of det(8) underflows at level 6 of 15
        c, cfg = generate_random_det_pc(1, 8), FloatConfig(5, 3)
        rows = sample(c, 1, 24)
        hidden = rows.copy()
        hidden[::2, 1::2] = -1
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, cfg, plan, rows, hidden)
            assert verdicts(ev) == {(cfg, np.dtype(np.float64)): 6}
            row = np.full((1, c.n_vars), -1)
            assert counted_levels(ev, row, None, inference._LEAST).index(True) == 6
            under = ev.mar(rows)[1] + ev.map_query(hidden)[1]
            assert under.any()
            picks = np.stack([m.trace._column for m in ev.map_query(hidden)[0]], axis=1)
            assert plain(passes(ev, hidden, picks, 6)) == plain(passes(ev, hidden, picks))

    @pytest.mark.parametrize("cfg", [FloatConfig(3, 3), FloatConfig(3, 4, bias=8),
                                     FloatConfig(8, 10)], ids=str)
    def test_a_circuit_whose_rows_saturate_is_refused(self, cfg):
        # (3, 3) underflows below 2**-3 and bias 8 overflows from 2**-1; at
        # (8, 10) a row of zeros gives 2**-45 ** 4, below 2**-126
        c = (chain_of_tiny_sums(4, 2.0 ** -45) if cfg == FloatConfig(8, 10)
             else generate_random_tree_pc(3, 6, 2, 3))
        rows = sample(c, 3, 16)
        rows[0] = 0
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, cfg, plan, rows, rows)
            (free,) = verdicts(ev).values()
            assert free < len(ev._comp.levels)
            assert (ev.mar(rows)[1] + ev.mar(rows)[2]).sum() > 0

    @pytest.mark.parametrize("cfg", [FloatConfig(11, 40), FloatConfig(11, 41), FLOAT64], ids=str)
    @pytest.mark.parametrize("uid, weights, free", [(12, (1 + 2.0 ** -40,), 0),
                                                    (10, (0.2, 0.3, 0.1, 0.4 + 2.0 ** -40), 1)],
                             ids=["weight", "unobserved-sum"])
    def test_a_word_above_one_is_refused_under_aai(self, cfg, uid, weights, free):
        # weights may sum to one within 1e-12, so a weight or an unobserved
        # sum can be an ulp above one; an AAI product of it and a zero is
        # zero, but max(a + b - one, -1) would give a value, so only plans
        # without AAI sites run that level unchecked: the first level, whose
        # sum 12 weighs by the weight, or the products of the second, whose
        # AAI folds take sum 10
        c = with_weights(ternary_inputs(), uid, weights)
        rows = enumerate_states(c)
        hidden = np.vstack([rows, [[3, -1, 0], [3, -1, 1], [-1, -1, -1]]])
        aai = assert_matches_scalar(c, cfg, MultiplierPlan.all_aai(c), rows, hidden)
        assert verdicts(aai) == {(cfg, aai._format.kind): free}
        unchecked, checked = (aai._ascend(aai._format, hidden, inference._MAR, free=free)[0]
                              for free in (len(aai._comp.levels), 0))
        assert (unchecked != checked).any()
        exact = assert_matches_scalar(c, cfg, MultiplierPlan.all_exact(c), rows, hidden)
        assert verdicts(exact) == {(cfg, exact._format.kind): 3}

    def test_a_float64_circuit_with_a_subnormal_weight_is_refused(self):
        c = chain_of_tiny_sums(2, 2.0 ** -1023)
        rows = np.array([[0, 1], [1, 1], [0, 0], [-1, 1]])
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, FLOAT64, plan, rows[:3], rows)
            assert verdicts(ev)[FLOAT64, np.dtype(np.float64)] == 0
            assert verdicts(ev)[FLOAT64, np.dtype(np.int64)] == 1  # 2**-2046 underflows
        ev = CircuitEvaluator(c, FLOAT64, MultiplierPlan(dict(MultiplierPlan.all_exact(c).modes)))
        ev.mar(np.array([[1, 1]]))  # stays in IEEE doubles: no rerun, no int64 verdict
        assert verdicts(ev) == {(FLOAT64, np.dtype(np.float64)): 0}

    def test_built_once_per_plan_layout_config_and_kind_on_the_first_pass(self, monkeypatch):
        built = []
        certify = CircuitEvaluator._certify
        monkeypatch.setattr(CircuitEvaluator, "_certify", lambda ev, fmt:
                            built.append((fmt.cfg, fmt.kind)) or certify(ev, fmt))
        c = generate_random_det_pc(0, 4)
        plan, cfg, n = MultiplierPlan.all_aai(c), FloatConfig(8, 10), len(_compile(c).levels)
        a, b = CircuitEvaluator(c, cfg, plan), CircuitEvaluator(c, cfg, plan)
        assert built == [] and verdicts(a) == {}
        rows = sample(c, 0, 4)
        maps, _, _ = a.map_query(rows)
        a.mar(rows), b.mar(rows[0]), b.restricted_value([m.trace for m in maps], rows)
        assert built == [(cfg, np.dtype(np.float64))]
        assert dict(plan._verdicts) == {inference._format(c, cfg): n}  # keyed by the record
        CircuitEvaluator(c, FloatConfig(11, 40), plan).mar(rows)
        CircuitEvaluator(c, cfg, MultiplierPlan(dict(plan.modes))).mar(rows)
        assert built == [(cfg, np.dtype(np.float64)), (FloatConfig(11, 40), np.dtype(np.int64)),
                         (cfg, np.dtype(np.float64))]
        d = generate_random_det_pc(1, 4)  # another layout
        CircuitEvaluator(d, cfg, MultiplierPlan.all_aai(d)).mar(sample(d, 0, 1))
        assert len(built) == 4 and verdicts(a) == {(cfg, np.dtype(np.float64)): n,
                                                   (FloatConfig(11, 40), np.dtype(np.int64)): n}


class TestRestrictedValue:
    """The picked pass on traces that need not be MAP's, against the scalar
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(cases(CERTIFICATE_CONFIGS), st.integers(0, 2**32 - 1))
    def test_random_traces_match_the_reference(self, case, seed):
        c, cfg, plan, _, hidden = case
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        rng = np.random.default_rng(seed)
        sums = [u for u in c.units.values() if isinstance(u, SumUnit)]
        traces = [{u.id: int(rng.integers(len(u.children))) for u in sums} for _ in hidden]
        assert ev.restricted_value(traces, hidden) == \
            [ref.restricted_value(t, evidence_of(row)) for t, row in zip(traces, hidden)]

    @pytest.mark.parametrize("aai", [False, True])
    def test_float64_traces_through_tiny_edges_rerun_on_float64_words(self, aai):
        # every trace on every row of -1, 0 and 1: two tiny edges taken
        # where their indicators are one leave IEEE doubles
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        ev, ref = CircuitEvaluator(c, FLOAT64, plan), ScalarEvaluator(c, FLOAT64, plan)
        states = np.array(list(itertools.product([-1, 0, 1], repeat=4)))
        picks = np.array(list(itertools.product([0, 1], repeat=4)))
        rows = np.repeat(states, len(picks), axis=0)
        traces = tiny_edge_traces(np.tile(picks, (len(states), 1)))
        assert ev.restricted_value(traces, rows) == \
            [ref.restricted_value(t, evidence_of(row)) for t, row in zip(traces, rows)]
        assert (FLOAT64, np.dtype(np.int64)) in verdicts(ev)  # decided on the rerun


class TestBatchInterface:
    def test_restricted_value_takes_plain_dict_traces(self):
        c = generate_random_tree_pc(4, 6, 2, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        rows = sample(c, 4, 5)
        results, _, _ = ev.map_query(rows)
        assert ev.restricted_value([dict(r.trace) for r in results], rows) == \
            ev.restricted_value([r.trace for r in results], rows)

    def test_trace_naming_a_missing_edge_is_rejected(self):
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        res, _, _ = ev.map_query({})
        bad = {**res.trace, c.root: 2}
        with pytest.raises(ValueError, match="edge"):
            ev.restricted_value(bad, {})

    @pytest.mark.parametrize("cfg", [FloatConfig(8, 10), FloatConfig(11, 40), FLOAT64], ids=str)
    def test_empty_batch(self, cfg):
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c))
        none = np.zeros((0, 3), dtype=np.int64)
        for results, under, over in (ev.mar(none), ev.map_query(none)):
            assert results == [] and len(under) == len(over) == 0
        assert ev.restricted_value([], none) == []

    @pytest.mark.parametrize("query, x, message", [
        ("mar", [1.9, 0, 1], "row 0, column 0: value 1.9 is not an integer"),
        ("mar", [5, 0, 1], "row 0, column 0: value 5 is out of range for cardinality 2"),
        ("map_query", {-1: 0}, "evidence names unknown variable -1"),
        ("map_query", {0: 1.5}, "evidence value 1.5 for variable 0 is not an integer"),
        ("map_query", {7: 0}, "evidence names unknown variable 7"),
        ("map_query", {True: 0}, "evidence variable True is not an integer"),
        ("map_query", {1.0: 0}, r"evidence variable 1\.0 is not an integer"),
        ("map_query", {np.float64(2.0): 1}, r"evidence variable .*2\.0.* is not an integer"),
        ("map_query", {0: True}, "evidence value True for variable 0 is not an integer"),
        ("map_query", {0: "1"}, "evidence value '1' for variable 0 is not an integer"),
        ("mar", [True, False, True], "rows must hold integers, not booleans"),
    ])
    def test_rows_are_checked(self, query, x, message):
        # unchecked, 1.9 read as 1, 5 gave probability 0, -1 named the last
        # variable and 7 raised IndexError; True and 1.0 named variable 1,
        # np.float64(2.0) variable 2, a bool value or row read as 0 or 1 and
        # "1" raised TypeError
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        with pytest.raises(ValueError, match=message):
            getattr(ev, query)(x)

    def test_numpy_integer_evidence_accepted(self):
        c = generate_random_det_pc(0, 3)
        cfg, plan = FloatConfig(8, 10), MultiplierPlan.all_aai(c)
        got = inference.eval_map(c, {np.int64(1): np.int32(1)}, cfg, plan)
        want = inference.eval_map(c, {1: 1}, cfg, plan)
        assert np.array_equal(got.assignment, want.assignment)
        assert got.log2_value == want.log2_value and dict(got.trace) == dict(want.trace)
        assert inference.eval_mar(c, np.array([1, 0, 1], dtype=np.uint8), cfg, plan) == \
            inference.eval_mar(c, [1, 0, 1], cfg, plan)

    def test_one_trace_per_row(self):
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        rows = sample(c, 0, 3)
        results, _, _ = ev.map_query(rows)
        with pytest.raises(ValueError, match="2 traces for 3 rows"):
            ev.restricted_value([r.trace for r in results[:2]], rows)

    def test_one_mapping_for_a_batch_of_one_row_is_rejected(self):
        # it was read as a sequence of its keys: AttributeError: 'int'
        # object has no attribute 'items'
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        with pytest.raises(ValueError, match="a batch of rows a sequence of them, one per row"):
            ev.restricted_value({c.root: 0}, np.array([[0, 1, 0]]))

    def test_a_sequence_for_one_row_is_rejected(self):
        # it was read as the row's trace: AttributeError: 'list' object has
        # no attribute 'items'; so was a batch's trace that is no mapping
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        res, _, _ = ev.map_query({0: 1})
        with pytest.raises(ValueError, match="one evidence row takes one trace"):
            ev.restricted_value([res.trace], {0: 1})
        with pytest.raises(ValueError, match="one evidence row takes one trace"):
            ev.restricted_value([[res.trace]], np.array([[1, -1, -1]]))

    def test_one_map_trace_for_two_rows_is_rejected(self):
        # its keys were counted as traces: "7 traces for 2 rows"
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        rows = sample(c, 0, 2)
        res, _, _ = ev.map_query(rows[0])
        with pytest.raises(ValueError, match="a batch of rows a sequence of them, one per row"):
            ev.restricted_value(res.trace, rows)

    def test_a_generator_of_traces_is_taken(self):
        # len() of a generator raised TypeError
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        rows = sample(c, 0, 3)
        results, _, _ = ev.map_query(rows)
        assert ev.restricted_value((r.trace for r in results), rows) == \
            ev.restricted_value([r.trace for r in results], rows)


def compare_reference(c, data, cfg, plan, correction=0.0) -> QueryMetrics:
    """`compare_queries` row by row: `mar` on each complete row and
    `map_query` on every row, its whole assignment compared, with both
    passes' counts."""
    base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
    test = CircuitEvaluator(c, cfg, plan)
    complete = [row for row in data if (row >= 0).all()]
    for i, row in enumerate(data):
        if (row >= 0).all() and base.mar(row)[0].value.is_zero:
            raise EvaluationError(f"baseline probability is zero for instance {i}")
    err, hits = 0.0, 0
    under, over = test.weight_quant_underflows, test.weight_quant_overflows
    for row in complete:
        b, (t, u, o) = base.mar(row)[0], test.mar(row)
        err += abs(log2_value(b.value) - (log2_value(t.value) + correction))
        under, over = under + u, over + o
    for row in data:
        want = base.map_query(evidence_of(row))[0]
        got, u, o = test.map_query(evidence_of(row))
        hits += got.assignment.tolist() == want.assignment.tolist()
        under, over = under + u, over + o
    n, n_mar = len(data), len(complete)
    return QueryMetrics(err / n_mar if n_mar else 0.0, hits / n if n else 0.0,
                        under, over, n, n_mar)


#: IEEE double patterns, toward zero too, and int64 words, up to (11, 52)
COMPARE_CONFIGS = [FloatConfig(8, 10), FloatConfig(8, 12, rounding=TOWARD_ZERO),
                   FloatConfig(11, 40), FloatConfig(11, 52, rounding=TOWARD_ZERO)]


def batch_of(kind: str, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rows as a batch of one kind: all complete, all with an unobserved
    variable, the two mixed, or the first row alone."""
    hidden = rows.copy()
    hidden[np.arange(len(rows)), rng.integers(0, rows.shape[1], len(rows))] = -1
    hidden[rng.random(rows.shape) < 0.3] = -1
    return {"complete": rows, "open": hidden, "one": hidden[:1],
            "mixed": np.where((np.arange(len(rows)) % 2 == 0)[:, None], rows, hidden)}[kind]


class TestCompareQueries:
    """compare_queries descends only the rows whose assignments it compares
    and runs the baseline's MAP pass only on rows with an unobserved
    variable; its metrics are those of the per-row queries."""

    @settings(max_examples=60, deadline=None)
    @given(cases(COMPARE_CONFIGS), st.sampled_from(["complete", "open", "mixed", "one"]),
           st.booleans())
    def test_metrics_match_the_per_row_queries(self, case, kind, chunked):
        c, cfg, plan, rows, _ = case
        data = batch_of(kind, rows, np.random.default_rng(len(rows)))
        want = compare_reference(c, data, cfg, plan, 0.25)
        if chunked:  # two rows a chunk
            assume(len(data) > 2)
            with pytest.MonkeyPatch.context() as mp:
                sizes = chunk_sizes(mp, 2 * _compile(c).n_table)
                got = inference.compare_queries(c, data, cfg, plan, 0.25)
            assert max(sizes) == 2 and len(sizes) > 4  # the MAP pass over every row split
        else:
            got = inference.compare_queries(c, data, cfg, plan, 0.25)
        assert got == want

    @pytest.mark.parametrize("kind", ["complete", "open", "mixed", "one"])
    @pytest.mark.parametrize("aai", [False, True])
    def test_the_float64_rerun_with_a_subnormal_weight(self, kind, aai, monkeypatch):
        # 2**-1023 is FLOAT64's least value, an IEEE subnormal: rows that
        # take it leave IEEE doubles and rerun on FLOAT64's own words, in the
        # baseline's passes and the tested plan's; two of them underflow
        # to zero, so a complete row takes one at most
        c = chain_of_tiny_sums(3, 2.0 ** -1023)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        rows = np.array([[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]] * 2)
        data = batch_of(kind, rows, np.random.default_rng(1))
        want = compare_reference(c, data, FLOAT64, plan)
        assert inference.compare_queries(c, data, FLOAT64, plan) == want
        sizes = chunk_sizes(monkeypatch, 3 * _compile(c).n_table)
        assert inference.compare_queries(c, data, FLOAT64, plan) == want
        # a batch of one row is one chunk; the others split
        assert max(sizes) <= 3 and (len(data) == 1 or max(sizes) < len(data))
        ints = inference._format(c, FLOAT64, np.dtype(np.int64))
        assert ints in plan._verdicts  # the rerun ran

    def test_map_passes_build_no_values_and_descend_only_open_rows(self, monkeypatch):
        # the benchmark's batch shape: 24 complete rows and 8 open ones
        c, cfg, plan = tree_batch(2)
        data = sample(c, 2, 32)
        data[3::4, 1::2] = -1
        want = compare_reference(c, data, cfg, plan)
        passes, descended, built, checked = [], [], [], []
        evaluate, descend, values, check = (CircuitEvaluator._evaluate, _compile(c).descend,
                                            inference._Format.values, inference._check_rows)
        monkeypatch.setattr(CircuitEvaluator, "_evaluate", lambda ev, rows, mode, *args: passes
                            .append((ev.cfg, mode, len(rows))) or evaluate(ev, rows, mode, *args))
        monkeypatch.setattr(_compile(c), "descend",
                            lambda ch: descended.append(ch.shape[1]) or descend(ch))
        monkeypatch.setattr(inference._Format, "values",
                            lambda fmt, words: built.append(len(words)) or values(fmt, words))
        monkeypatch.setattr(inference, "_check_rows", lambda circ, rows, **kw: checked
                            .append(len(rows)) or check(circ, rows, **kw))
        monkeypatch.setattr(CircuitEvaluator, "mar",
                            lambda ev, x: pytest.fail("compare_queries called CircuitEvaluator.mar"))
        got = inference.compare_queries(c, data, cfg, plan)
        mar, map_ = inference._MAR, inference._MAP
        assert passes == [(FLOAT64, mar, 24), (cfg, mar, 24), (cfg, map_, 32), (FLOAT64, map_, 8)]
        # both plans' open rows in one descent; the MAR roots read as log2
        assert descended == [16] and built == []
        assert checked == [32]  # every row checked once
        assert got == want


def descents(c, cfg, plan, data: np.ndarray) -> list:
    """What every query that descends gives on data and on no rows, as plain
    lists: MAP assignments, compare_queries' metrics and the assignments it
    descends, and samples."""
    ev, descend, descended = CircuitEvaluator(c, cfg, plan), _compile(c).descend, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_compile(c), "descend", lambda ch: descended.append(descend(ch)) or descended[-1])
        metrics = [inference.compare_queries(c, d, cfg, plan) for d in (data, data[:0])]
    maps = [[r.assignment.tolist() for r in ev.map_query(d)[0]] for d in (data, data[:0])]
    return [maps, metrics, [a.tolist() for a in descended],
            [sample(c, 3, n).tolist() for n in (len(data), 0)]]


class TestChunkedDescent:
    """Descent splits its columns by `circuit.CHUNK_CELLS` in one place,
    `_Compiled.descend`: MAP, compare_queries and sample give on two or three
    columns a chunk what they give on one chunk, on an empty batch too."""

    @pytest.mark.parametrize("columns", [2, 3])
    @pytest.mark.parametrize("which", ["tree", "det"])
    def test_chunks_match_one_chunk(self, which, columns, monkeypatch):
        if which == "tree":
            c, cfg, plan = tree_batch(2)
        else:
            c, cfg = generate_random_det_pc(2, 8), FloatConfig(11, 40)
            plan = MultiplierPlan.all_aai(c)
        data = sample(c, 2, 16)
        data[3::4, 1::2] = -1
        data[1::4, ::3] = -1
        whole = descents(c, cfg, plan, data)
        assert len(whole[2][0]) > columns  # compare_queries descends more than a chunk
        monkeypatch.setattr(circuit, "CHUNK_CELLS", columns * _compile(c).n_table)
        assert descents(c, cfg, plan, data) == whole


def reused_passes(c, cfg, plan, width: int, seed: int) -> list:
    """MAR, MAP and picked passes over `width` sampled rows, a third of
    them with every other variable unobserved, as plain lists."""
    rows = sample(c, seed, width)
    rows[::3, ::2] = -1
    ev = CircuitEvaluator(c, cfg, plan)
    whole = rows[(rows >= 0).all(axis=1)]
    mar, under, over = ev.mar(whole)
    maps, map_under, map_over = ev.map_query(rows)
    values = ev.restricted_value([m.trace for m in maps], rows)
    return [mar, under.tolist(), over.tolist(), map_under.tolist(), map_over.tolist(), values,
            [(m.assignment.tolist(), m.log2_value, dict(m.trace)) for m in maps]]


def plain_verdicts(plan: MultiplierPlan) -> dict:
    return {(fmt.cfg, fmt.kind): n for fmt, n in plan._verdicts.items()}


class TestValueTableReuse:
    """Every pass allocates its own value table: passes interleaved over
    records, plans and widths give what fresh records give, a table stays
    as it is through later passes on its record, and no table outlives the
    query that made it."""

    def test_interleaved_passes_match_fresh_records(self, monkeypatch):
        sizes = chunk_sizes(monkeypatch, 1 << 12)
        makers = {"tree": lambda: generate_random_tree_pc(5, 8, 2, 3),
                  "det": lambda: generate_random_det_pc(2, 6)}
        circuits = {name: make() for name, make in makers.items()}
        configs = [FloatConfig(8, 10), FloatConfig(11, 40)]

        def plan_of(c, share):
            rng = np.random.default_rng(int(share * 4))
            return MultiplierPlan({s: AAI if rng.random() < share else EXACT
                                   for s in enumerate_sites(c)})

        plans = {(name, share): plan_of(c, share) for name, c in circuits.items()
                 for share in (0.0, 0.5, 1.0)}
        chunk = {name: max(1, (1 << 12) // _compile(c).n_table) for name, c in circuits.items()}
        widths = {"chunk+1": lambda n: n + 1, "2 chunks+1": lambda n: 2 * n + 1}
        # the second plan of a circuit decides its certificate, on the
        # record that earlier passes used, between them
        steps = [("tree", 0, 1.0, 32), ("det", 1, 0.0, 1), ("tree", 0, 1.0, "chunk+1"),
                 ("tree", 0, 0.5, 1), ("det", 0, 1.0, "chunk+1"), ("tree", 1, 1.0, 32),
                 ("det", 1, 0.0, "2 chunks+1"), ("tree", 0, 0.0, "chunk+1"),
                 ("det", 0, 1.0, 32), ("tree", 0, 1.0, "2 chunks+1"), ("tree", 0, 1.0, 1)]
        steps = [(name, i, share, widths[w](chunk[name]) if w in widths else w)
                 for name, i, share, w in steps]
        got = [reused_passes(circuits[name], configs[i], plans[name, share], width, k)
               for k, (name, i, share, width) in enumerate(steps)]
        assert max(sizes) == max(chunk.values()) < max(width for *_, width in steps)
        for k, (name, i, share, width) in enumerate(steps):
            c = makers[name]()  # another layout, so fresh records
            assert got[k] == reused_passes(c, configs[i], plan_of(c, share), width, k), k
        for (name, share), plan in plans.items():
            c = makers[name]()
            fresh = plan_of(c, share)
            for cfg, _ in plain_verdicts(plan):
                CircuitEvaluator(c, cfg, fresh).mar(sample(c, 0, 1))
            assert plain_verdicts(plan) == plain_verdicts(fresh)

    @pytest.mark.parametrize("cfg", KIND_CONFIGS, ids=str)
    def test_a_table_is_unchanged_by_the_next_pass_on_its_record(self, cfg):
        c = generate_random_tree_pc(3, 8, 2, 3)
        ev = CircuitEvaluator(c, cfg, half_aai(c))
        rows, other = sample(c, 3, 8), sample(c, 4, 8)
        first = ev._ascend(ev._format, rows, inference._MAR)[0]
        kept = first.copy()
        second = ev._ascend(ev._format, other, inference._MAR)[0]
        assert (second != kept).any()
        assert (first == kept).all()

    def test_passes_retain_no_value_table(self):
        c, cfg = generate_random_tree_pc(7, 12, 3, 3), FloatConfig(8, 10)
        plan = MultiplierPlan.all_aai(c)
        rows = sample(c, 7, 150)
        rows[::3, ::2] = -1
        comp = _compile(c)
        tracemalloc.start()
        try:
            inference.compare_queries(c, rows[:1], cfg, plan)  # builds the records
            records = list(inference._FORMATS[comp].values())
            first = tracemalloc.get_traced_memory()[0]
            for n in range(1, 151):
                inference.compare_queries(c, rows[:n], cfg, plan)
            grown = tracemalloc.get_traced_memory()[0] - first
        finally:
            tracemalloc.stop()
        assert len(records) == 2  # the baseline's and the tested config's
        assert first <= 256 << 10
        assert grown <= 64 << 10

    def test_threads_keep_their_own_tables(self):
        c = generate_random_tree_pc(3, 10, 2, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        batches = [sample(c, seed, 40) for seed in range(4)]
        want = [ev.mar(rows)[0] for rows in batches]
        got: dict[int, list] = {i: [] for i in range(len(batches))}

        def work(i):
            for _ in range(25):
                got[i].append(ev.mar(batches[i])[0])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(got[i]) == 25 and all(r == want[i] for r in got[i]) for i in got)


def format_word(v: CustomFloat, cfg: FloatConfig) -> int:
    """The format's word of a value, -1 for zero."""
    return -1 if v.is_zero else ((v.exponent + cfg.bias) << cfg.man_bits) | v.mantissa


def assert_log2_matches(cfg: FloatConfig, words: list[int]) -> None:
    """`_Format.log2` of the format's words gives `floats.log2_value` of
    their values as `float.hex`, from the record of the format's own words
    and, where cfg runs on IEEE doubles, from its patterns read back through
    `format_words`."""
    c, words = lone_indicator(), np.array(words, dtype=np.int64)
    want = [log2_value(value_of(w, cfg)).hex() for w in words.tolist()]
    ints = inference._format(c, cfg, np.dtype(np.int64))
    assert ints.log2(np.array([-1])) == [-math.inf]
    assert [v.hex() for v in ints.log2(words)] == want
    if _word_kind(cfg) == np.float64:
        fmt = inference._format(c, cfg)
        # FLOAT64's word 0, 2**-1023, has the pattern of +0.0, its zero
        kept = (words != 0) | (cfg != FLOAT64)
        patterns = as_kind(words[kept], cfg, PATTERNS, -1)
        assert [v.hex() for v in fmt.log2(fmt.format_words(patterns))] == \
            np.array(want)[kept].tolist()


class TestLog2Readout:
    """`_Format.log2`, the queries' readout of root words, is
    `floats.log2_value` bit for bit, -inf for the zero word -1."""

    @pytest.mark.parametrize("rounding", [NEAREST_EVEN, TOWARD_ZERO])
    @pytest.mark.parametrize("e, m", [(2, 0), (3, 2), (4, 3), (5, 10), (4, 12)])
    def test_every_word_of_small_formats(self, e, m, rounding):
        # at M = 10 and 12 every significand comes in, so a vectorised
        # readout is checked where np.log2 and math.log2 part (with NumPy
        # 2.4.6 on x86-64, on the significand 1621 at M = 10, by an ulp)
        cfg = FloatConfig(e, m, rounding=rounding)
        assert_log2_matches(cfg, [-1, *range(cfg.max_word + 1)])

    @pytest.mark.parametrize("cfg", [FloatConfig(11, 40), FloatConfig(8, 52, rounding=TOWARD_ZERO),
                                     FloatConfig(6, 57), FLOAT64], ids=str)
    def test_random_words_and_both_range_ends(self, cfg):
        rng = np.random.default_rng(cfg.man_bits)
        words = rng.integers(0, cfg.max_word, 2000, endpoint=True).tolist()
        assert_log2_matches(cfg, [-1, 0, 1, cfg.max_word - 1, cfg.max_word, *words])


class TestRootWords:
    """`_evaluate` returns the roots as one int64 array of the format's own
    words, -1 for zero, whatever words its passes ran on."""

    @pytest.mark.parametrize("cfg", CONFIGS + [FloatConfig(11, 41),
                                               FloatConfig(11, 52, rounding=TOWARD_ZERO)], ids=str)
    def test_roots_are_the_scalar_references_words(self, cfg):
        c = generate_random_tree_pc(2, 5, 2, 3)
        plan = half_aai(c)
        rows = sample(c, 2, 6)
        hidden = rows.copy()
        hidden[::2, ::2] = -1
        ev, ref = CircuitEvaluator(c, cfg, plan), ScalarEvaluator(c, cfg, plan)
        assert ev._format.kind == _word_kind(cfg)
        mar = ev._evaluate(rows, inference._MAR)[0]
        map_, _, _, choices = ev._evaluate(hidden, inference._MAP)
        picked = ev._evaluate(hidden, inference._PICK, choices)[0]
        assert mar.dtype == map_.dtype == picked.dtype == np.int64
        assert mar.tolist() == [format_word(ref.mar(x)[0].value, cfg) for x in rows]
        opened = [[None if v < 0 else v for v in row.tolist()] for row in hidden]
        assert map_.tolist() == [format_word(ref.unit_values(row, largest=True)[c.root], cfg)
                                 for row in opened]
        traces = [{uid: int(choices[i, r]) for uid, i in ev._comp.sum_index.items()}
                  for r in range(len(hidden))]
        assert picked.tolist() == [format_word(ref.restricted_value(t, evidence_of(row)), cfg)
                                   for t, row in zip(traces, hidden)]

    @pytest.mark.parametrize("aai", [False, True])
    def test_float64_chunks_that_rerun_on_float64_words(self, aai, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        ref = ScalarEvaluator(c, FLOAT64, plan)
        sizes = chunk_sizes(monkeypatch, 2 * _compile(c).n_table)
        roots, under, _, _ = CircuitEvaluator(c, FLOAT64, plan)._evaluate(TINY_CHAIN_ROWS,
                                                                          inference._MAR)
        assert sizes == [2] * 6  # four chunks, two of them rerun
        assert roots.dtype == np.int64
        assert roots.tolist() == [format_word(ref.mar(x)[0].value, FLOAT64)
                                  for x in TINY_CHAIN_ROWS]
        assert under.tolist() == [ref.mar(x)[1] for x in TINY_CHAIN_ROWS]


def first_trace_error(ev: CircuitEvaluator, traces) -> Optional[str]:
    """The message of the first wrong item, item by item in trace order (a
    name that is no integer sum id, then a pick that is no integer), else of
    the first pick out of range, sum by sum."""
    index, arity = ev._comp.sum_index, ev._comp.sum_arity
    for t in traces:
        for uid, k in t.items():
            if not (isinstance(uid, numbers.Integral) and not isinstance(uid, bool)
                    and uid in index):
                return f"trace names {uid!r}, which is not a sum of the circuit"
            if not (isinstance(k, numbers.Integral) and not isinstance(k, bool)):
                return f"trace picks {k!r} for sum {uid}, not an integer"
    for uid, i in index.items():
        for t in traces:
            if not 0 <= t.get(uid, 0) < arity[i]:
                return f"trace picks edge {t.get(uid, 0)} of sum {uid}, which has {arity[i]}"
    return None


class TestDictTraces:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.tuples(
        st.integers(0, 7), st.sampled_from(["name", "pick"]),
        st.sampled_from([True, False, 1.0, 0.5, "1", 99999, -1, np.int64(1), np.float64(0.0),
                         np.uint8(0), None]))))
    def test_the_first_wrong_items_error_is_raised(self, seed, wrongs):
        # each wrong item goes into a trace, as a name (picking itself) or
        # a pick; restricted_value reports the first wrong item's error
        c = generate_random_tree_pc(seed % 7, 5, 2, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        rows = sample(c, seed, 8)
        traces = [dict(m.trace) for m in ev.map_query(rows)[0]]
        sums = list(traces[0])
        for j, (row, where, item) in enumerate(wrongs):
            uid = sums[j % len(sums)]
            if where == "name":  # and its pick, wrong too where it is no integer
                traces[row][item] = item
            else:
                traces[row][uid] = item
        want = first_trace_error(ev, traces)
        if want is None:
            plain_ints = [{int(uid): int(k) for uid, k in t.items()} for t in traces]
            assert ev.restricted_value(traces, rows) == ev.restricted_value(plain_ints, rows)
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                ev.restricted_value(traces, rows)
