"""The batched, levelized evaluator against the scalar bit-level reference
(`oracles.ScalarEvaluator`) and the rational oracle (`oracles.reference_eval`)."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaipc import inference
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
    TOWARD_ZERO,
    FloatConfig,
    CustomFloat,
    aai_mul,
    decode,
    decode_fraction,
    encode,
    encode_words,
    exact_add,
    exact_mul,
    from_bits,
)
from aaipc.inference import (
    AAI,
    EXACT,
    CircuitEvaluator,
    MultiplierPlan,
    _IEEEWords,
    _IntWords,
    _PatternWords,
    _widths,
    _word_kind,
    enumerate_sites,
)

from oracles import ScalarEvaluator, determinism_oracle, reference_eval, sample_oracle

#: one config per word kind and rounding, and two that saturate: (3, 3)
#: underflows below 2**-3, and bias 8 puts every value from 2**-1 up into
#: overflow
CONFIGS = [
    FloatConfig(8, 10),                         # IEEE double patterns
    FloatConfig(8, 12, rounding=TOWARD_ZERO),   # IEEE double patterns
    FloatConfig(4, 0),                          # int64, no rounding bits
    FloatConfig(3, 3),                          # IEEE double patterns, underflow
    FloatConfig(3, 4, bias=8),                  # IEEE double patterns, overflow
    FloatConfig(10, 12, rounding=TOWARD_ZERO),  # int64, lossless (e_max 512)
    FloatConfig(6, 20),                         # IEEE double patterns
    FloatConfig(6, 26),                         # int64
    FloatConfig(6, 29, rounding=TOWARD_ZERO),   # int64, the widest lossless add
    FloatConfig(6, 30),                         # int64, the add takes a sticky bit
    FloatConfig(11, 40),                        # int64, the product splits too
    FloatConfig(11, 41, rounding=TOWARD_ZERO),  # Python ints
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
    @given(cases(), st.integers(1, 40))
    def test_chunked_batches_match_one_chunk(self, case, cells):
        # each chunk's pass fills or reads its columns of one choice table
        c, cfg, plan, rows, hidden = case
        ev = CircuitEvaluator(c, cfg, plan)
        whole = ev.mar(rows), ev.map_query(hidden)
        traces = [r.trace for r in whole[1][0]]
        values = ev.restricted_value(traces, hidden)
        chunk_cells = inference.CHUNK_CELLS
        try:
            inference.CHUNK_CELLS = cells * len(c.units)
            parts = ev.mar(rows), ev.map_query(hidden)
            chunked_values = ev.restricted_value(traces, hidden)
        finally:
            inference.CHUNK_CELLS = chunk_cells
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
    """cfg's word ops on words of the kind: a dtype of `_IntWords` or PATTERNS."""
    if kind == PATTERNS:
        return _PatternWords(cfg, n_rows, checked)
    return _IntWords(cfg, np.dtype(kind), n_rows, checked)


def as_kind(words, cfg, kind, shape=(-1, 1)) -> np.ndarray:
    """The format's words (-1 for zero) as words of the kind, in shape."""
    a = np.array(words, dtype=object if kind is object else np.int64).reshape(shape)
    if kind == PATTERNS:  # a double's pattern is its word << (52 - M), plus 2**-bias's
        return np.where(a < 0, 0, (a << (52 - cfg.man_bits)) + ((1023 - cfg.bias) << 52))
    return a


def of_kind(words: np.ndarray, cfg, kind) -> list[int]:
    """Words of the kind back as the format's words, flat."""
    if kind == PATTERNS:
        words = np.where(words == 0, -1, (words - ((1023 - cfg.bias) << 52)) >> (52 - cfg.man_bits))
    return words.ravel().tolist()


def assert_ops_match_scalar(cfg, kind, pairs):
    """Each word op on the pairs gives the scalar op's value and counts."""
    a, b = (as_kind(col, cfg, kind) for col in zip(*pairs))
    for op, scalar in (("aai", aai_mul), ("exact", exact_mul), ("add", exact_add)):
        ar = word_ops(cfg, kind)
        got = of_kind(getattr(ar, op)(a, b), cfg, kind)
        want = [scalar(value_of(x, cfg), value_of(y, cfg), cfg) for x, y in pairs]
        assert [value_of(w, cfg) for w in got] == [r.value for r in want], op
        assert int(ar.under[0]) == sum(r.underflowed for r in want), op
        assert int(ar.over[0]) == sum(r.overflowed for r in want), op


class TestWordOps:
    @pytest.mark.parametrize("cfg", [
        FloatConfig(3, 3), FloatConfig(3, 3, rounding=TOWARD_ZERO), FloatConfig(3, 0),
        FloatConfig(2, 4, rounding=TOWARD_ZERO), FloatConfig(3, 2, bias=5)], ids=str)
    @pytest.mark.parametrize("kind", [np.int64, object])
    def test_every_word_pair_matches_the_scalar_ops(self, cfg, kind):
        words = range(-1, cfg.max_word + 1)
        assert_ops_match_scalar(cfg, kind, [(x, y) for y in words for x in words])


#: the formats the IEEE double patterns are checked on pair by pair; the
#: first four are also checked against the scalar ops on every pair
PATTERN_FORMATS = [(3, 1), (3, 2), (4, 3), (3, 3, 5), (5, 4), (4, 6), (9, 1), (2, 7)]


class TestPatternWords:
    """The word ops on IEEE double patterns, checked and unchecked, with the
    counts of every word pair, against the scalar ops and the format's own
    int64 words (lossless at these M: k = 0, g = M+2)."""

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
            want = getattr(ints, op)(x[np.newaxis], y[np.newaxis]).ravel()
            checked = word_ops(cfg, PATTERNS, len(x))
            got = getattr(checked, op)(as_kind(x, cfg, PATTERNS, (1, -1)),
                                       as_kind(y, cfg, PATTERNS, (1, -1)))
            assert of_kind(got, cfg, PATTERNS) == want.tolist(), op
            assert checked.under.tolist() == ints.under.tolist(), op
            assert checked.over.tolist() == ints.over.tolist(), op
            unchecked = getattr(word_ops(cfg, PATTERNS, len(x), checked=False), op)(
                as_kind(x, cfg, PATTERNS, (1, -1)), as_kind(y, cfg, PATTERNS, (1, -1)))
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


#: formats whose words fold bits into a sticky bit: on int64, (11, 40)
#: splits the product at k = 20 and (6, 31) at k = 2; both add with g = 3
SPLIT_WORDS = [
    (FloatConfig(11, 40), np.int64),
    (FloatConfig(11, 40, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(6, 31), np.int64),
    (FloatConfig(6, 31, rounding=TOWARD_ZERO), np.int64),
]


@st.composite
def word_pairs(draw, cfg):
    """Two words, often a few binades apart, with mantissas that are random,
    sparse or nearly all ones, so that ties and sticky bits both show."""
    m = cfg.man_bits
    bit = st.one_of(st.integers(0, m - 1), st.sampled_from([0, 1, m - 2, m - 1]))
    sparse = st.sets(bit, max_size=3).map(lambda s: sum(1 << i for i in s))
    mantissas = st.one_of(st.integers(0, cfg.man_scale - 1), sparse,
                          sparse.map(lambda x: cfg.man_scale - 1 - x))
    ea = draw(st.integers(0, cfg.max_biased))
    eb = draw(st.one_of(st.integers(0, cfg.max_biased), st.integers(ea - m - 3, ea + m + 3)))
    words = [(e << m) | draw(mantissas) for e in (ea, min(max(eb, 0), cfg.max_biased))]
    if draw(st.integers(0, 15)) == 0:
        words[draw(st.integers(0, 1))] = -1
    return tuple(words)


class TestSplitWords:
    @pytest.mark.parametrize("cfg, dtype, k, g", [
        (FloatConfig(11, 40), np.int64, 20, 3), (FloatConfig(6, 31), np.int64, 2, 3),
        (FloatConfig(6, 30), np.int64, 0, 3), (FloatConfig(6, 29), np.int64, 0, 31),
        (FloatConfig(8, 10), np.int64, 0, 12), (FloatConfig(11, 40), object, 0, 42)], ids=str)
    def test_widths(self, cfg, dtype, k, g):
        assert _widths(cfg.man_bits, np.dtype(dtype)) == (k, g)

    @pytest.mark.parametrize("cfg, dtype", SPLIT_WORDS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_word_pairs_match_the_scalar_ops(self, cfg, dtype, data):
        pairs = data.draw(st.lists(word_pairs(cfg), min_size=1, max_size=40))
        assert_ops_match_scalar(cfg, dtype, pairs)

    @pytest.mark.parametrize("cfg, dtype", SPLIT_WORDS, ids=str)
    def test_boundary_pairs_match_the_scalar_ops(self, cfg, dtype):
        m, top, ones = cfg.man_bits, cfg.max_word, cfg.man_scale - 1
        e = max(cfg.bias, m + 2)  # a binade with M+2 below it
        pairs = [
            (top, top),                                # overflow, every op
            (0, 0), (1, 0),                            # exact and aai underflow
            (top, (e << m) | 1),                       # rounding carries past e_max
            ((e << m) | ones, (e << m) | 1),           # 2 - 2**-2M: the product rounds to 2
            ((e << m) | ones, (e << m) | ones),        # the add's normalising carry
            ((e << m) | ones, ((e - m - 1) << m) | ones),  # sum rounds up into the exponent
            # a product's round bit M-1 set, the bits down to the k dropped
            # ones clear: bit 0, now sticky, breaks the tie
            ((e << m) | 1, (e << m) | (1 << (m - 1)) | 1),
        ]
        for hi_man in (0, 1, ones, 1 << (m - 1)):
            for lo_man in (0, 1, ones, 1 << (m - 1)):
                for d in (m, m + 1, m + 2):            # half an ulp and less below
                    pairs.append(((e << m) | hi_man, ((e - d) << m) | lo_man))
        assert_ops_match_scalar(cfg, dtype, pairs)
        assert_ops_match_scalar(cfg, dtype, [(b, a) for a, b in pairs])


#: the word kinds the range certificate leans on: IEEE double patterns,
#: int64 with M <= 13 and in its split forms past M = 29, and Python ints
MONOTONE_WORDS = [
    (FloatConfig(8, 10), PATTERNS), (FloatConfig(3, 2), PATTERNS),
    (FloatConfig(8, 12, rounding=TOWARD_ZERO), PATTERNS), (FloatConfig(8, 25), PATTERNS),
    (FloatConfig(8, 10), np.int64), (FloatConfig(4, 3, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(6, 30), np.int64), (FloatConfig(11, 40), np.int64),
    (FloatConfig(11, 40, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(11, 41), object), (FloatConfig(4, 3), object),
]


@st.composite
def growing_pairs(draw, cfg, zero_lower=False):
    """A pair of words (zero or any value) and the same pair with one
    operand grown, often by a little; with zero_lower, the other operand
    is zero."""
    word = st.integers(-1, cfg.max_word)
    a, b = draw(word), -1 if zero_lower else draw(word)
    step = draw(st.one_of(st.integers(0, 3), st.integers(0, cfg.max_word)))
    grown = min(a + step, cfg.max_word)
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
            before, after = getattr(ar, op)(a, b), getattr(ar, op)(a2, b2)
            assert (after >= before).all(), op
        ar = word_ops(cfg, kind)
        assert (ar.add(a, b) >= np.maximum(a, b)).all()

    @pytest.mark.parametrize("cfg, kind", MONOTONE_WORDS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unchecked_ops_match_where_nothing_saturates(self, cfg, kind, data):
        one = cfg.bias << cfg.man_bits
        other = st.just(-1) if data.draw(st.booleans()) else st.integers(-1, one)
        pair = st.tuples(st.integers(-1, one), other, st.booleans()).map(
            lambda t: t[:2] if t[2] else t[1::-1])
        pairs = data.draw(st.lists(pair, min_size=1, max_size=40))
        for op in ("aai", "exact", "add"):
            for a, b in pairs:
                a_, b_ = (as_kind([x], cfg, kind) for x in (a, b))
                checked = word_ops(cfg, kind)
                want = getattr(checked, op)(a_, b_)
                if checked.under.any() or checked.over.any():
                    continue
                got = getattr(word_ops(cfg, kind, checked=False), op)(a_, b_)
                assert got.tolist() == want.tolist(), (op, a, b)

    def test_unchecked_ieee_ops_match_on_normal_values(self):
        x = np.array([0.0, 2.0 ** -500, 0.3, 0.75, 1.0])
        a, b = np.meshgrid(x, x)
        for op in ("aai", "exact", "add"):
            want = getattr(_IEEEWords(1), op)(a, b)
            assert getattr(_IEEEWords(1, checked=False), op)(a, b).tolist() == want.tolist()


#: the add's zero-operand select on int64, lossless and in its split form,
#: and Python ints
SELECT_WORDS = [(FloatConfig(8, 10), np.int64), (FloatConfig(11, 40), np.int64),
                (FloatConfig(11, 41, rounding=TOWARD_ZERO), object)]


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
            ar = _IntWords(cfg, np.dtype(dtype), 1, checked)
            got = ar.add(a, b).ravel().tolist()
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
        for checked in (True, False):
            ev._pass(ev._format.ops(len(rows), checked), rows, inference._MAR, None)
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


class TestInt64AgainstPythonInts:
    @pytest.mark.parametrize("which", ["det(9)", "tree(16, 3, 3)"])
    def test_mar_map_and_restricted_value_agree(self, which, monkeypatch):
        if which == "det(9)":
            c, cfg = generate_random_det_pc(0, 9), FloatConfig(11, 40)
            rows = enumerate_states(c)
        else:
            c, cfg = generate_random_tree_pc(0, 16, 3, 3), FloatConfig(11, 40, rounding=TOWARD_ZERO)
            rows = sample(c, 0, 128)
        hidden = rows.copy()
        hidden[:, ::2] = -1
        rng = np.random.default_rng(0)
        plan = MultiplierPlan({s: AAI if rng.random() < 0.5 else EXACT
                               for s in enumerate_sites(c)})

        def run():
            ev = CircuitEvaluator(c, cfg, plan)
            mar, mp = ev.mar(rows), ev.map_query(hidden)
            values = ev.restricted_value([r.trace for r in mp[0]], hidden)
            return (ev._format.kind, mar[0], mar[1].tolist(), mar[2].tolist(),
                    [(r.assignment.tolist(), r.log2_value, dict(r.trace)) for r in mp[0]],
                    mp[1].tolist(), mp[2].tolist(), values)

        words = run()
        monkeypatch.setattr(inference, "_word_kind", lambda cfg: np.dtype(object))
        python_ints = run()
        assert words[0] == np.int64 and python_ints[0] == object
        assert words[1:] == python_ints[1:]


def leaves_ieee(ev: CircuitEvaluator, rows: np.ndarray) -> list:
    """Per row, whether a checked MAR pass on IEEE doubles leaves them: on
    these words only such a product counts in `under`."""
    ar = ev._format.ops(len(rows))
    assert isinstance(ar, _IEEEWords)
    ev._pass(ar, rows, inference._MAR, None)
    assert not ar.over.any()
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
        (FloatConfig(11, 40), np.int64), (FloatConfig(11, 41), object),
        (FloatConfig(11, 52, rounding=TOWARD_ZERO), object), (FloatConfig(30, 32), object),
        (FLOAT64, np.float64),
    ])
    def test_narrowest_words_that_hold_every_intermediate(self, cfg, kind):
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
    """A checked product that leaves IEEE doubles counts in `under`, as a
    saturating op does on the integer words, and its chunk reruns on
    Python-int words."""

    def test_checked_products_count_the_cells_that_leave(self):
        # exact: nonzero operands whose product is at or below 2**-1022 (no
        # IEEE product of these values rounds across it); AAI: nonzero
        # operands whose words add to less than the word of 2**-1022
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
            checked, unchecked = _IEEEWords(len(x)), _IEEEWords(len(x), checked=False)
            got, raw = getattr(checked, op)(a, b), getattr(unchecked, op)(a, b)
            assert want.any() and not want.all()
            assert checked.under.tolist() == want.sum(axis=0).tolist(), op
            assert not checked.over.any() and not unchecked.under.any()
            assert (got >= 0).all()  # no negative or NaN value
            assert got.tolist() == np.where(want, 0.0, raw).tolist()

    @pytest.mark.parametrize("aai", [False, True])
    def test_only_the_chunks_that_leave_rerun_on_python_ints(self, aai, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_aai(c) if aai else MultiplierPlan.all_exact(c)
        rows = TINY_CHAIN_ROWS
        assert leaves_ieee(CircuitEvaluator(c, FLOAT64, plan), rows) == \
            [False, False, True, False, False, False, True, False]
        kinds, run = [], CircuitEvaluator._pass

        def spy(ev, ar, *args):
            kinds.append("ints" if ar.dtype == object else "ieee")
            return run(ev, ar, *args)

        monkeypatch.setattr(CircuitEvaluator, "_pass", spy)
        monkeypatch.setattr(inference, "CHUNK_CELLS", 2 * _compile(c).n_table)
        per_query = ["ieee", "ieee", "ints", "ieee", "ieee", "ints"]
        ev = assert_matches_scalar(c, FLOAT64, plan, rows, rows)
        assert kinds == per_query * 2
        kinds.clear()
        traces = tiny_edge_traces(rows)
        assert ev.restricted_value(traces, np.full(rows.shape, -1)) == \
            [ScalarEvaluator(c, FLOAT64, plan).restricted_value(t, {}) for t in traces]
        assert kinds == per_query

    def test_the_rerun_is_the_same_pass_on_the_python_int_record(self, monkeypatch):
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        plan = MultiplierPlan.all_exact(c)
        ev = CircuitEvaluator(c, FLOAT64, plan)
        records, run = [], CircuitEvaluator._pass
        monkeypatch.setattr(CircuitEvaluator, "_pass",
                            lambda ev, ar, *args: records.append(ar.fmt) or run(ev, ar, *args))
        got = ev.mar(TINY_CHAIN_ROWS[2])
        ints = inference._format(c, FLOAT64, np.dtype(object))
        assert records == [ev._format, ints] and ints.kind == object and ints.cfg == FLOAT64
        assert ints.w.ravel().tolist() == encode_words(_compile(c).weights, FLOAT64)[0].tolist()
        assert got == ScalarEvaluator(c, FLOAT64, plan).mar(TINY_CHAIN_ROWS[2])
        assert plan._verdicts[ints] == 1  # checked from the product, which leaves the range


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
        (FloatConfig(11, 41, rounding=TOWARD_ZERO), object), (FLOAT64, np.float64)], ids=str)
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
        assert _compile(c).leaf_var.tolist() == [0, 0, 1, 1, 2]
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
        assert table_of(ev, inference._MAR, np.dtype(object)) is not None

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
        assert table_of(ev, inference._MAP).choices.reshape(5, 5).tolist() == \
            [[0, 0, 1, 2, 0], [0, 1, 2, 0, 0], [0, 0, 1, 2, 0], [0, 2, 1, 0, 0], [0, 0, 0, 0, 0]]


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


#: CONFIGS and two tiny formats, whose passes mostly saturate
CERTIFICATE_CONFIGS = CONFIGS + [FloatConfig(3, 2), FloatConfig(4, 3, rounding=TOWARD_ZERO)]


def passes(ev: CircuitEvaluator, rows, picks, free: int = 0):
    """MAR, MAP and picked passes over rows on the evaluator's own words, the
    first `free` levels unchecked (none by default), each with its choice
    table: none, the one MAP fills, and picks."""
    tables = [None, np.zeros((len(ev._comp.sum_index), len(rows)), dtype=np.int64), picks]
    return [ev._pass(ev._format.ops(len(rows)), rows, mode, choices, free) + (choices,)
            for mode, choices in zip((inference._MAR, inference._MAP, inference._PICK), tables)]


def counted_levels(ev: CircuitEvaluator, rows, picks, mode=inference._MAR) -> list:
    """Per level of a checked pass over rows, whether any op so far counted."""
    choices = {inference._MAP: np.zeros((len(ev._comp.sum_index), len(rows)), dtype=np.int64),
               inference._PICK: picks}.get(mode)
    counted = []
    ev._ascend(ev._format.ops(len(rows)), rows, mode, choices, counted=counted)
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
        ar = ev._format.ops(1)
        top = ev._ascend(ar, row, inference._MAR)
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
        unchecked, checked = (aai._ascend(aai._format.ops(len(hidden), flag), hidden,
                                          inference._MAR)
                              for flag in (False, True))
        assert (unchecked != checked).any()
        exact = assert_matches_scalar(c, cfg, MultiplierPlan.all_exact(c), rows, hidden)
        assert verdicts(exact) == {(cfg, exact._format.kind): 3}

    def test_a_float64_circuit_with_a_subnormal_weight_is_refused(self):
        c = chain_of_tiny_sums(2, 2.0 ** -1023)
        rows = np.array([[0, 1], [1, 1], [0, 0], [-1, 1]])
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev = assert_matches_scalar(c, FLOAT64, plan, rows[:3], rows)
            assert verdicts(ev)[FLOAT64, np.dtype(np.float64)] == 0
            assert verdicts(ev)[FLOAT64, np.dtype(object)] == 1  # 2**-2046 underflows
        ev = CircuitEvaluator(c, FLOAT64, MultiplierPlan(dict(MultiplierPlan.all_exact(c).modes)))
        ev.mar(np.array([[1, 1]]))  # stays in IEEE doubles: no rerun, no Python-int verdict
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
    def test_float64_traces_through_tiny_edges_rerun_on_python_ints(self, aai):
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
        assert (FLOAT64, np.dtype(object)) in verdicts(ev)  # decided on the rerun


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
