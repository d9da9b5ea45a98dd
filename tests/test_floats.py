"""Unit tests for the unsigned custom float emulation."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaipc.floats import (
    FLOAT64,
    NEAREST_EVEN,
    TOWARD_ZERO,
    CustomFloat,
    FloatConfig,
    MultResult,
    aai_mul,
    aai_mul_bits,
    decode,
    decode_fraction,
    encode,
    encode_words,
    exact_add,
    exact_mul,
    from_bits,
    log2_value,
    mitchell_delta,
    to_bits,
)

from oracles import (
    aai_mul_oracle,
    exact_add_oracle,
    exact_mul_oracle,
    quantize,
)

CFG_5_10 = FloatConfig(exp_bits=5, man_bits=10)

#: widths the rounding oracles are checked at; M = 0 is left out because the
#: oracle's tie rule reads the mantissa field, which is always 0 there
ORACLE_MAN_BITS = (1, 2, 3, 7, 10, 23, 40, 52)


def enc(x, cfg):
    return encode(x, cfg).value


class TestConfig:
    def test_default_bias(self):
        assert CFG_5_10.bias == 15
        assert FLOAT64.bias == 1023

    def test_exponent_range(self):
        assert CFG_5_10.e_min == -15
        assert CFG_5_10.e_max == 16

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            FloatConfig(exp_bits=1, man_bits=4)
        with pytest.raises(ValueError):
            FloatConfig(exp_bits=2, man_bits=-1)
        with pytest.raises(ValueError):
            FloatConfig(exp_bits=11, man_bits=52, rounding="up")

    def test_man_bits_stop_at_57(self):
        # the batched add's 3 guard bits take M + 5 bits and a rounding carry
        for exp_bits in range(2, 6):
            with pytest.raises(ValueError, match="man_bits must be in"):
                FloatConfig(exp_bits, 58)
        assert FloatConfig(6, 57).max_word == (1 << 63) - 1
        assert FloatConfig(11, 52) == FLOAT64

    @pytest.mark.parametrize("args, kwargs, name", [
        ((8, 10.5), {}, "man_bits"), ((8, 10.0), {}, "man_bits"), ((8, True), {}, "man_bits"),
        ((8.0, 10), {}, "exp_bits"),
        ((8, 10), {"bias": 7.5}, "bias"), ((8, 10), {"bias": True}, "bias")])
    def test_rejects_non_integer_fields(self, args, kwargs, name):
        with pytest.raises(ValueError, match=name):
            FloatConfig(*args, **kwargs)

    def test_numpy_integer_fields_are_stored_as_int(self):
        cfg = FloatConfig(np.int64(11), np.int64(40), bias=np.int32(1023))
        assert [type(f) for f in (cfg.exp_bits, cfg.man_bits, cfg.bias)] == [int] * 3
        assert cfg == FloatConfig(11, 40) and hash(cfg) == hash(FloatConfig(11, 40))
        assert encode(0.1, cfg) == encode(0.1, FloatConfig(11, 40))

    def test_custom_bias(self):
        cfg = FloatConfig(exp_bits=5, man_bits=4, bias=-2)
        # negative bias shifts the whole range upward
        assert cfg.e_min == 2
        assert decode(cfg.min_positive()) == 4.0


class TestEncodeDecode:
    def test_one_third_worked_example(self):
        # 1/3 at E=5, M=10: exponent -2 (biased 13), mantissa 341/1024
        r = encode(Fraction(1, 3), CFG_5_10)
        v = r.value
        assert not r.underflowed and not r.overflowed
        assert v.exponent == -2
        assert v.exponent + CFG_5_10.bias == 13
        assert v.mantissa == 341
        assert decode(v) == 0.333251953125

    def test_zero_roundtrip(self):
        r = encode(0.0, CFG_5_10)
        assert r.value.is_zero
        assert decode(r.value) == 0.0
        assert not r.underflowed

    def test_underflow_saturates_to_zero(self):
        x = math.ldexp(1.0, -CFG_5_10.bias - 1)
        r = encode(x, CFG_5_10)
        assert r.value.is_zero and r.underflowed

    def test_overflow_saturates_to_max(self):
        r = encode(math.ldexp(1.0, CFG_5_10.e_max + 1), CFG_5_10)
        assert r.overflowed
        assert r.value == CFG_5_10.max_value()

    def test_rejects_negative_and_non_finite(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                encode(bad, CFG_5_10)

    def test_roundtrip_error_bound_nearest(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            x = float(np.exp2(rng.uniform(-14, 15)) * rng.uniform(1, 2))
            v = enc(x, CFG_5_10)
            assert abs(decode(v) - x) / x <= 2.0 ** -(CFG_5_10.man_bits + 1)

    def test_toward_zero_never_rounds_up(self):
        cfg = FloatConfig(5, 10, rounding=TOWARD_ZERO)
        rng = np.random.default_rng(7)
        for _ in range(500):
            x = float(np.exp2(rng.uniform(-14, 15)) * rng.uniform(1, 2))
            assert decode(enc(x, cfg)) <= x

    def test_encode_matches_quantize_oracle(self):
        rng = np.random.default_rng(3)
        for tz in (False, True):
            cfg = FloatConfig(5, 10, rounding=TOWARD_ZERO if tz else NEAREST_EVEN)
            for _ in range(300):
                x = Fraction(int(rng.integers(1, 10**9)), int(rng.integers(1, 10**9)))
                expected = quantize(x, 10, cfg.e_min, cfg.e_max, toward_zero=tz)
                got = encode(x, cfg)
                if expected is None:
                    assert got.value.is_zero and got.underflowed
                else:
                    assert decode_fraction(got.value) == expected

    def test_mantissa_rounding_can_lift_exponent(self):
        # just below a power of two rounds up across the binade
        v = enc(0.99999999, CFG_5_10)
        assert v.exponent == 0 and v.mantissa == 0


class TestExactMul:
    def test_halves(self):
        a = enc(0.5, CFG_5_10)
        r = exact_mul(a, a, CFG_5_10)
        assert decode(r.value) == 0.25
        assert not r.underflowed and not r.overflowed

    def test_normalization_case(self):
        # 1.5 * 1.5 = 2.25: significand product >= 2, exponent bumps, mantissa 1/8
        a = enc(1.5, CFG_5_10)
        r = exact_mul(a, a, CFG_5_10)
        assert r.value.exponent == 1
        assert r.value.mantissa_fraction == 0.125
        assert decode(r.value) == 2.25

    def test_matches_wide_integer_oracle(self):
        rng = np.random.default_rng(11)
        for tz in (False, True):
            cfg = FloatConfig(6, 9, rounding=TOWARD_ZERO if tz else NEAREST_EVEN)
            for _ in range(400):
                a = CustomFloat(False, int(rng.integers(-8, 8)), int(rng.integers(0, 512)), 9)
                b = CustomFloat(False, int(rng.integers(-8, 8)), int(rng.integers(0, 512)), 9)
                expected = exact_mul_oracle(decode_fraction(a), decode_fraction(b),
                                            9, cfg.e_min, cfg.e_max, toward_zero=tz)
                assert decode_fraction(exact_mul(a, b, cfg).value) == expected

    def test_underflow_and_overflow_flags(self):
        tiny = CFG_5_10.min_positive()
        r = exact_mul(tiny, tiny, CFG_5_10)
        assert r.value.is_zero and r.underflowed
        big = CFG_5_10.max_value()
        r = exact_mul(big, big, CFG_5_10)
        assert r.overflowed and r.value == CFG_5_10.max_value()

    def test_zero_operand_is_exact(self):
        z = CustomFloat.zero(10)
        r = exact_mul(z, enc(0.5, CFG_5_10), CFG_5_10)
        assert r.value.is_zero and not r.underflowed


class TestExactAdd:
    def test_zero_identity(self):
        x = enc(0.75, CFG_5_10)
        assert exact_add(CustomFloat.zero(10), x, CFG_5_10).value == x

    def test_simple_sum(self):
        q = enc(0.25, CFG_5_10)
        assert decode(exact_add(q, q, CFG_5_10).value) == 0.5

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(13)
        for tz in (False, True):
            cfg = FloatConfig(6, 9, rounding=TOWARD_ZERO if tz else NEAREST_EVEN)
            for _ in range(400):
                a = CustomFloat(False, int(rng.integers(-10, 10)), int(rng.integers(0, 512)), 9)
                b = CustomFloat(False, int(rng.integers(-10, 10)), int(rng.integers(0, 512)), 9)
                expected = exact_add_oracle(decode_fraction(a), decode_fraction(b),
                                            9, cfg.e_min, cfg.e_max, toward_zero=tz)
                assert decode_fraction(exact_add(a, b, cfg).value) == expected

    @pytest.mark.parametrize("rounding", [NEAREST_EVEN, TOWARD_ZERO])
    @pytest.mark.parametrize("widths", [(36, 10), (62, 1), (63, 0)], ids=str)
    def test_operands_far_apart_give_the_larger(self, widths, rounding):
        # the lower operand was shifted up by the whole exponent gap: 0.71 s
        # and 410 MB at (30, 32), a MemoryError at (36, 10)
        cfg = FloatConfig(*widths, rounding=rounding)
        top, least = cfg.max_value(), cfg.min_positive()
        start = time.perf_counter()
        for a, b in ((top, least), (least, top)):
            assert exact_add(a, b, cfg) == MultResult(top)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("rounding", [NEAREST_EVEN, TOWARD_ZERO])
    def test_gaps_around_the_sticky_cut(self, rounding):
        # up to M + 3 binades apart the operands align; past it the lower
        # one is a sticky bit
        cfg = FloatConfig(6, 9, rounding=rounding)
        tz, m = rounding == TOWARD_ZERO, cfg.man_bits
        for gap in range(m, m + 7):
            for hi_man in (0, 1, cfg.man_scale - 1):
                for lo_man in (0, 1, cfg.man_scale - 1):
                    a = CustomFloat(False, 8, hi_man, m)
                    b = CustomFloat(False, 8 - gap, lo_man, m)
                    expected = exact_add_oracle(decode_fraction(a), decode_fraction(b),
                                                m, cfg.e_min, cfg.e_max, toward_zero=tz)
                    for x, y in ((a, b), (b, a)):
                        assert decode_fraction(exact_add(x, y, cfg).value) == expected

    def test_result_never_below_larger_operand(self):
        rng = np.random.default_rng(17)
        cfg = FloatConfig(5, 6, rounding=TOWARD_ZERO)
        for _ in range(200):
            a = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 64)), 6)
            b = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 64)), 6)
            r = exact_add(a, b, cfg)
            if not r.overflowed:
                assert decode(r.value) >= max(decode(a), decode(b))


def oracle_matches(got, expected):
    """An op's result against an oracle value: None means underflow."""
    if expected is None:
        return got.value.is_zero and got.underflowed
    return decode_fraction(got.value) == expected


@st.composite
def configs(draw):
    return FloatConfig(draw(st.integers(2, 11)), draw(st.sampled_from(ORACLE_MAN_BITS)),
                       rounding=draw(st.sampled_from((NEAREST_EVEN, TOWARD_ZERO))))


@st.composite
def operands(draw, cfg):
    return CustomFloat(False, draw(st.integers(cfg.e_min, cfg.e_max)),
                       draw(st.integers(0, cfg.man_scale - 1)), cfg.man_bits)


class TestRoundingAgainstOracles:
    """encode, exact_mul and exact_add round in one shared step; each must
    equal the correctly rounded rational result."""

    @settings(max_examples=300, deadline=None)
    @given(cfg=configs(), num=st.integers(1, 2**64),
           den=st.one_of(st.just(1), st.integers(1, 2**64)),
           exp=st.one_of(st.integers(-8, 8), st.integers(-1100, 1100)))
    def test_encode_matches_quantize(self, cfg, num, den, exp):
        # dyadic (den 1) and non-dyadic rationals, near 0 and far from it
        x = Fraction(num, den) * Fraction(2) ** exp
        tz = cfg.rounding == TOWARD_ZERO
        assert oracle_matches(encode(x, cfg), quantize(
            x, cfg.man_bits, cfg.e_min, cfg.e_max, toward_zero=tz))
        try:
            f = float(x)
        except OverflowError:
            return
        if f > 0.0:  # the float image, where it is a positive double
            assert oracle_matches(encode(f, cfg), quantize(
                Fraction(f), cfg.man_bits, cfg.e_min, cfg.e_max, toward_zero=tz))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), cfg=configs())
    def test_exact_ops_match_oracles(self, data, cfg):
        a, b = data.draw(operands(cfg)), data.draw(operands(cfg))
        if data.draw(st.booleans()):  # close exponents make the adds round
            e = min(cfg.e_max, max(cfg.e_min, a.exponent + data.draw(
                st.integers(-cfg.man_bits - 2, cfg.man_bits + 2))))
            b = CustomFloat(False, e, b.mantissa, cfg.man_bits)
        fa, fb = decode_fraction(a), decode_fraction(b)
        args = (cfg.man_bits, cfg.e_min, cfg.e_max, cfg.rounding == TOWARD_ZERO)
        assert oracle_matches(exact_mul(a, b, cfg), exact_mul_oracle(fa, fb, *args))
        assert oracle_matches(exact_add(a, b, cfg), exact_add_oracle(fa, fb, *args))

    @pytest.mark.parametrize("rounding", [NEAREST_EVEN, TOWARD_ZERO])
    @pytest.mark.parametrize("man_bits", ORACLE_MAN_BITS)
    def test_exact_ties(self, man_bits, rounding):
        # 1 + (2k+1)/2**(M+1) lies halfway between mantissas k and k+1
        cfg = FloatConfig(11, man_bits, rounding=rounding)
        top = cfg.man_scale - 1
        for k in sorted(k for k in {0, 1, 2, top // 2, top - 1, top} if k <= top):
            tie = 1 + Fraction(2 * k + 1, 2 ** (man_bits + 1))
            m = k + (k & 1) if rounding == NEAREST_EVEN else k
            want = 2 if m == cfg.man_scale else 1 + Fraction(m, cfg.man_scale)
            assert decode_fraction(enc(tie, cfg)) == want
            # the same tie as a sum: (1 + k/2**M) + 2**-(M+1)
            a = CustomFloat(False, 0, k, man_bits)
            b = CustomFloat(False, -man_bits - 1, 0, man_bits)
            assert decode_fraction(exact_add(a, b, cfg).value) == want
            assert want == quantize(tie, man_bits, cfg.e_min, cfg.e_max,
                                    toward_zero=rounding == TOWARD_ZERO)

    def test_zero_mantissa_bits_break_ties_like_the_exact_ops(self):
        # at M = 0, 3 is halfway between 2 and 4; encode and exact_add agree
        cfg = FloatConfig(4, 0)
        assert enc(3, cfg) == exact_add(enc(1, cfg), enc(2, cfg), cfg).value


class TestAaiMul:
    def test_power_of_two_exact(self):
        a = enc(0.5, CFG_5_10)
        assert decode(aai_mul(a, a, CFG_5_10).value) == 0.25

    def test_worst_case_mantissas(self):
        # 1.5 * 1.5: approximate result 2.0 versus exact 2.25
        a = enc(1.5, CFG_5_10)
        r = aai_mul(a, a, CFG_5_10)
        assert decode(r.value) == 2.0

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            a = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 1024)), 10)
            b = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 1024)), 10)
            expected = aai_mul_oracle(decode_fraction(a), decode_fraction(b), 10)
            assert decode_fraction(aai_mul(a, b, CFG_5_10).value) == expected

    def test_never_exceeds_exact_product(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            a = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 1024)), 10)
            b = CustomFloat(False, int(rng.integers(-6, 6)), int(rng.integers(0, 1024)), 10)
            approx = decode_fraction(aai_mul(a, b, CFG_5_10).value)
            exact = decode_fraction(a) * decode_fraction(b)
            assert approx <= exact
            if a.mantissa == 0 or b.mantissa == 0:
                assert approx == exact

    def test_exhaustive_relative_error_bound_small_width(self):
        # scan every mantissa pair at M=6; peak error at (1/2, 1/2)
        cfg = FloatConfig(6, 6)
        worst, argmax = -1.0, None
        for ma in range(64):
            for mb in range(64):
                a = CustomFloat(False, 0, ma, 6)
                b = CustomFloat(False, 0, mb, 6)
                exact = decode_fraction(a) * decode_fraction(b)
                rel = float(1 - decode_fraction(aai_mul(a, b, cfg).value) / exact)
                assert 0 <= rel <= 1 / 9 + 2.0**-6
                if rel > worst:
                    worst, argmax = rel, (ma, mb)
        assert argmax == (32, 32)
        assert worst == pytest.approx(1 / 9, abs=1e-12)

    def test_no_rounding_ever(self):
        # mantissa sums stay within M bits, so AAI never loses mantissa bits
        a = CustomFloat(False, 0, 1023, 10)
        r = aai_mul(a, a, CFG_5_10)
        assert r.value.mantissa == (1023 + 1023) % 1024
        assert r.value.exponent == 1


class TestMitchellDelta:
    def test_endpoints_are_zero(self):
        assert mitchell_delta(0.0) == 0.0
        assert mitchell_delta(1.0) == 0.0

    def test_maximum_location_and_value(self):
        # dense grid oracle for the max of log2(1+f) - f
        grid = np.linspace(0, 1, 200001)
        vals = np.log2(1 + grid) - grid
        f_star = 1 / math.log(2) - 1
        assert abs(grid[np.argmax(vals)] - f_star) < 1e-4
        assert mitchell_delta(f_star) == pytest.approx(0.0860713320559342, abs=1e-12)
        assert mitchell_delta(f_star) == pytest.approx(float(np.max(vals)), abs=1e-9)

    def test_bounds(self):
        for f in np.linspace(0, 1, 1001):
            assert 0.0 <= mitchell_delta(float(f)) <= 0.0861

    def test_domain_check(self):
        with pytest.raises(ValueError):
            mitchell_delta(1.5)


class TestBitPatterns:
    def test_one_times_one(self):
        one = to_bits(CustomFloat.one(10), CFG_5_10)
        assert one == 15 << 10
        assert aai_mul_bits(one, one, CFG_5_10) == one

    def test_roundtrip(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            w = int(rng.integers(1, CFG_5_10.max_word + 1))
            assert to_bits(from_bits(w, CFG_5_10), CFG_5_10) == w

    def test_matches_semantic_path(self):
        rng = np.random.default_rng(31)
        for _ in range(3000):
            wa = int(rng.integers(1, CFG_5_10.max_word + 1))
            wb = int(rng.integers(1, CFG_5_10.max_word + 1))
            semantic = aai_mul(from_bits(wa, CFG_5_10), from_bits(wb, CFG_5_10), CFG_5_10)
            assert aai_mul_bits(wa, wb, CFG_5_10) == to_bits(semantic.value, CFG_5_10)

    def test_rejects_reserved_zero_pattern(self):
        one = to_bits(CustomFloat.one(10), CFG_5_10)
        with pytest.raises(ValueError):
            aai_mul_bits(0, one, CFG_5_10)

    def test_saturation_in_bit_domain(self):
        lo = to_bits(CFG_5_10.min_positive(), CFG_5_10)
        assert lo == 0  # minimum positive shares the all-zeros pattern
        small = to_bits(enc(math.ldexp(1.5, -14), CFG_5_10), CFG_5_10)
        assert aai_mul_bits(small, small, CFG_5_10) == 0
        hi = to_bits(CFG_5_10.max_value(), CFG_5_10)
        assert aai_mul_bits(hi, hi, CFG_5_10) == CFG_5_10.max_word


class TestZeroWordCollision:
    """to_bits gives min_positive the reserved zero word; the bit API keeps
    that collision, and aai_mul and aai_mul_bits part ways on it."""

    @pytest.mark.parametrize("cfg", [CFG_5_10, FloatConfig(8, 10), FloatConfig(4, 0)])
    def test_smallest_value_and_zero_share_a_word(self, cfg):
        assert to_bits(cfg.min_positive(), cfg) == 0 == to_bits(CustomFloat.zero(cfg.man_bits), cfg)
        assert from_bits(0, cfg).is_zero

    @pytest.mark.parametrize("cfg", [CFG_5_10, FloatConfig(8, 10)])
    def test_aai_mul_keeps_the_value_aai_mul_bits_returns_the_zero_word(self, cfg):
        # biased exponents 0 + (bias - 1) and mantissas 1 + (2**M - 1) carry
        # to exactly the bias word: the product is min_positive
        a_bits, b_bits = 1, (cfg.bias << cfg.man_bits) - 1
        r = aai_mul(from_bits(a_bits, cfg), from_bits(b_bits, cfg), cfg)
        assert r.value == cfg.min_positive()
        assert not r.underflowed and not r.overflowed
        assert aai_mul_bits(a_bits, b_bits, cfg) == 0


#: configurations the array encoder is checked at: the benchmark's, both
#: roundings, the widest and M = 0
ENCODE_CONFIGS = [FloatConfig(8, 10), FloatConfig(8, 12, rounding=TOWARD_ZERO),
                  FloatConfig(11, 40), FloatConfig(11, 52), FloatConfig(5, 10),
                  FloatConfig(8, 20), FloatConfig(4, 0), FloatConfig(4, 0, rounding=TOWARD_ZERO),
                  FloatConfig(2, 57), FloatConfig(3, 4, bias=9)]


def scalar_words(xs, cfg):
    results = [encode(float(x), cfg) for x in xs]
    words = [-1 if r.value.is_zero else to_bits(r.value, cfg) for r in results]
    return words, sum(r.underflowed for r in results), sum(r.overflowed for r in results)


class TestEncodeWords:
    @pytest.mark.parametrize("cfg", ENCODE_CONFIGS, ids=str)
    def test_matches_scalar_encode_on_edge_values(self, cfg):
        m = cfg.man_bits
        ties = [math.ldexp(1 + (2 * k + 1) / 2 ** (m + 1), e)
                for k in (0, 1, 2, 5) for e in (-3, 0, 2) if m < 52]
        subnormals = [5e-324, 2 ** -1074 * 3, 2 ** -1023, 2 ** -1022 * 0.75,
                      2 ** -1022 - 2 ** -1074]
        edges = [0.0, 1.0, 0.75, 0.1, 1 / 3, 2 ** -1022, 1e300, 1.7976931348623157e308,
                 0.99999999] + [math.ldexp(f, e) for f, e in (
                     (1.0, cfg.e_min), (1.0, cfg.e_min - 1), (1.0, cfg.e_max),
                     (1.99, cfg.e_max)) if -1075 < e < 1023]
        xs = ties + subnormals + edges
        words, under, over = encode_words(np.array(xs), cfg)
        assert (words.tolist(), under, over) == scalar_words(xs, cfg)

    @settings(max_examples=200, deadline=None)
    @given(cfg=st.sampled_from(ENCODE_CONFIGS),
           xs=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=20))
    def test_matches_scalar_encode_on_any_doubles(self, cfg, xs):
        words, under, over = encode_words(np.array(xs), cfg)
        assert (words.tolist(), under, over) == scalar_words(xs, cfg)

    def test_rejects_negative_and_non_finite(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                encode_words(np.array([0.5, bad]), CFG_5_10)


class TestEncodeInputTypes:
    def test_ints_numpy_scalars_and_fractions_agree_with_floats(self):
        cfg = FloatConfig(8, 10)
        for x in (0, 1, 3, 7, 12345):
            want = encode(float(x), cfg)
            assert encode(x, cfg) == want
            assert encode(np.int64(x), cfg) == want
            assert encode(Fraction(x), cfg) == want
        assert encode(np.float64(0.3), cfg) == encode(0.3, cfg)


class TestLog2Value:
    def test_zero_is_minus_inf(self):
        assert log2_value(CustomFloat.zero(10)) == float("-inf")

    def test_matches_math_log2(self):
        v = enc(0.375, CFG_5_10)
        assert log2_value(v) == pytest.approx(math.log2(0.375), abs=1e-12)
