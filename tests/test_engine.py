"""The batched, levelized evaluator against the scalar bit-level reference
(`oracles.ScalarEvaluator`) and the rational oracle (`oracles.reference_eval`)."""

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
    _LeavesIEEE,
    _widths,
    _word_kind,
    enumerate_sites,
)

from oracles import ScalarEvaluator, reference_eval

#: one config per word kind and rounding, and two that saturate: (3, 3)
#: underflows below 2**-3, and bias 8 puts every value from 2**-1 up into
#: overflow
CONFIGS = [
    FloatConfig(8, 10),                         # int32
    FloatConfig(8, 12, rounding=TOWARD_ZERO),   # int32
    FloatConfig(4, 0),                          # int32, no rounding bits
    FloatConfig(3, 3),                          # int32, underflow
    FloatConfig(3, 4, bias=8),                  # int32, overflow
    FloatConfig(6, 20),                         # int64
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
def cases(draw):
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
    cfg = draw(st.sampled_from(CONFIGS))
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
        c, cfg, plan, rows, hidden = case
        ev = CircuitEvaluator(c, cfg, plan)
        whole = ev.mar(rows), ev.map_query(hidden)
        try:
            inference.CHUNK_CELLS = cells * len(c.units)
            parts = ev.mar(rows), ev.map_query(hidden)
        finally:
            inference.CHUNK_CELLS = 1 << 19
        assert whole[0][0] == parts[0][0]
        assert [r.assignment.tolist() for r in whole[1][0]] == \
            [r.assignment.tolist() for r in parts[1][0]]
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


def assert_ops_match_scalar(cfg, dtype, pairs):
    """Each word op on the pairs gives the scalar op's value and counts."""
    a, b = (np.array(col, dtype=dtype).reshape(-1, 1) for col in zip(*pairs))
    for op, scalar in (("aai", aai_mul), ("exact", exact_mul), ("add", exact_add)):
        ar = _IntWords(cfg, np.dtype(dtype), 1)
        got = getattr(ar, op)(a, b).ravel().tolist()
        want = [scalar(value_of(x, cfg), value_of(y, cfg), cfg) for x, y in pairs]
        assert [value_of(w, cfg) for w in got] == [r.value for r in want], op
        assert int(ar.under[0]) == sum(r.underflowed for r in want), op
        assert int(ar.over[0]) == sum(r.overflowed for r in want), op


class TestWordOps:
    @pytest.mark.parametrize("cfg", [
        FloatConfig(3, 3), FloatConfig(3, 3, rounding=TOWARD_ZERO), FloatConfig(3, 0),
        FloatConfig(2, 4, rounding=TOWARD_ZERO), FloatConfig(3, 2, bias=5)], ids=str)
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
    def test_every_word_pair_matches_the_scalar_ops(self, cfg, dtype):
        words = range(-1, cfg.max_word + 1)
        assert_ops_match_scalar(cfg, dtype, [(x, y) for y in words for x in words])


#: formats whose words fold bits into a sticky bit: (11, 40) on int64 splits
#: the product at k = 20, (5, 15) on int32 at k = 2; both add with g = 3
SPLIT_WORDS = [
    (FloatConfig(11, 40), np.int64),
    (FloatConfig(11, 40, rounding=TOWARD_ZERO), np.int64),
    (FloatConfig(5, 15), np.int32),
    (FloatConfig(5, 15, rounding=TOWARD_ZERO), np.int32),
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
        (FloatConfig(11, 40), np.int64, 20, 3), (FloatConfig(5, 15), np.int32, 2, 3),
        (FloatConfig(6, 30), np.int64, 0, 3), (FloatConfig(6, 29), np.int64, 0, 31),
        (FloatConfig(8, 10), np.int32, 0, 12), (FloatConfig(11, 40), object, 0, 42)], ids=str)
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
            return (ev._kind, mar[0], mar[1].tolist(), mar[2].tolist(),
                    [(r.assignment.tolist(), r.log2_value, dict(r.trace)) for r in mp[0]],
                    mp[1].tolist(), mp[2].tolist(), values)

        words = run()
        monkeypatch.setattr(inference, "_word_kind", lambda cfg: np.dtype(object))
        python_ints = run()
        assert words[0] == np.int64 and python_ints[0] == object
        assert words[1:] == python_ints[1:]

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
        (FloatConfig(8, 10), np.int32), (FloatConfig(8, 13), np.int32),
        (FloatConfig(8, 14), np.int64), (FloatConfig(30, 10), np.int64),
        (FloatConfig(6, 29), np.int64), (FloatConfig(6, 30), np.int64),
        (FloatConfig(11, 40), np.int64), (FloatConfig(11, 41), object),
        (FloatConfig(11, 52, rounding=TOWARD_ZERO), object), (FloatConfig(30, 32), object),
        (FLOAT64, "ieee"),
    ])
    def test_narrowest_words_that_hold_every_intermediate(self, cfg, kind):
        assert _word_kind(cfg) == kind

    def test_float64_below_min_normal_reruns_on_integer_words(self):
        # w * w = 1.125 * 2**-1023 is an IEEE subnormal but a normal value of
        # this format (e_min = -1023); w**3 underflows both
        c = chain_of_tiny_sums(4, 1.5 * 2.0 ** -512)
        rows = np.array([[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        for plan in (MultiplierPlan.all_exact(c), MultiplierPlan.all_aai(c)):
            ev, ref = CircuitEvaluator(c, FLOAT64, plan), ScalarEvaluator(c, FLOAT64, plan)
            assert ev._kind == "ieee"
            with pytest.raises(_LeavesIEEE):
                ev._pass(_IEEEWords(len(rows)), ev._w, rows, inference._MAR, None)
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
        with pytest.raises(_LeavesIEEE):
            ev._pass(_IEEEWords(len(rows)), ev._w, rows, inference._MAR, None)
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
    def test_compiled_once_per_circuit_and_masks_once_per_plan(self):
        c = generate_random_det_pc(0, 4)
        plan = MultiplierPlan.all_aai(c)
        a = CircuitEvaluator(c, FloatConfig(8, 10), plan)
        b = CircuitEvaluator(c, FloatConfig(8, 10), plan)
        assert a._comp is b._comp is c._compiled
        assert plan._modes(c) is plan._modes(c)
        assert a._modes is b._modes
        assert a._w.base is b._w.base
        assert MultiplierPlan.all_aai(c) is plan

    def test_plan_modes_are_read_only_copies(self):
        c = generate_random_det_pc(0, 3)
        modes = dict.fromkeys(enumerate_sites(c), EXACT)
        plan = MultiplierPlan(modes)
        modes[next(iter(modes))] = AAI
        assert AAI not in plan.modes.values()
        with pytest.raises(TypeError):
            plan.modes[next(iter(modes))] = AAI


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
