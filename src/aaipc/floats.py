"""Configurable unsigned floating-point emulation for probability arithmetic.

Values are 2**e * (1 + m / 2**M) with an E-bit biased exponent and an M-bit
fraction mantissa.  There is no sign bit (probabilities are non-negative) and
no subnormal range; zero is a reserved flag rather than an encoded value.
Every operation rounds exactly once and saturates out-of-range results,
reporting underflow/overflow through result flags.  `encode`, `exact_mul`
and `exact_add` all round in `_round`, the only scalar rounding step;
`aai_mul` does not round and only saturates.  `encode_words` is the array
form of `encode`; it and the word ops of `inference` round in
`_round_words`, the array form of `_round`, with integer shifts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

NEAREST_EVEN = "nearest-even"
TOWARD_ZERO = "toward-zero"

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class FloatConfig:
    """Width, bias and rounding mode of an unsigned float format.

    The domain is E >= 2, 0 <= M <= 57 and E + M <= 63, so that a word, its
    biased exponent field then its M-bit fraction, fits one int64.  M stops
    at 57 because the batched add of `inference` aligns the lower
    significand to 3 guard bits below the higher one's last bit: the sum of
    two such significands has M + 5 bits and its rounding may carry into one
    more, which must stay below bit 63."""

    exp_bits: int
    man_bits: int
    bias: int = None  # type: ignore[assignment]  # resolved in __post_init__
    rounding: str = NEAREST_EVEN

    def __post_init__(self) -> None:
        for name in ("exp_bits", "man_bits", "bias"):
            value = getattr(self, name)
            if name == "bias" and value is None:
                continue  # resolved below
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.exp_bits < 2:
            raise ValueError(f"exp_bits must be >= 2, got {self.exp_bits}")
        if not 0 <= self.man_bits <= 57:
            raise ValueError(f"man_bits must be in [0, 57], got {self.man_bits}")
        if self.exp_bits + self.man_bits > 63:
            # the widest supported pattern must fit one 64-bit word
            raise ValueError("exp_bits + man_bits must be <= 63")
        if self.bias is None:
            object.__setattr__(self, "bias", (1 << (self.exp_bits - 1)) - 1)
        if self.rounding not in (NEAREST_EVEN, TOWARD_ZERO):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")

    @property
    def man_scale(self) -> int:
        return 1 << self.man_bits

    @property
    def max_biased(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def e_min(self) -> int:
        return -self.bias

    @property
    def e_max(self) -> int:
        return self.max_biased - self.bias

    @property
    def max_word(self) -> int:
        return (self.max_biased << self.man_bits) | (self.man_scale - 1)

    def max_value(self) -> "CustomFloat":
        return CustomFloat(False, self.e_max, self.man_scale - 1, self.man_bits)

    def min_positive(self) -> "CustomFloat":
        return CustomFloat(False, self.e_min, 0, self.man_bits)


@dataclass(frozen=True)
class CustomFloat:
    """One value: zero flag, unbiased exponent, mantissa numerator over 2**M."""

    is_zero: bool
    exponent: int
    mantissa: int
    man_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa < (1 << self.man_bits):
            raise ValueError(f"mantissa {self.mantissa} out of range for M={self.man_bits}")

    @classmethod
    def zero(cls, man_bits: int) -> "CustomFloat":
        return cls(True, 0, 0, man_bits)

    @classmethod
    def one(cls, man_bits: int) -> "CustomFloat":
        return cls(False, 0, 0, man_bits)

    @property
    def mantissa_fraction(self) -> float:
        return self.mantissa / (1 << self.man_bits)


@dataclass(frozen=True)
class MultResult:
    """Operation result plus saturation flags."""

    value: CustomFloat
    underflowed: bool = False
    overflowed: bool = False


#: IEEE double layout; the reference configuration for baseline evaluation.
FLOAT64 = FloatConfig(exp_bits=11, man_bits=52)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def _round(e: int, wide: int, cfg: FloatConfig) -> MultResult:
    """Round the exact value wide * 2**(e - M) to M mantissa bits, once.

    wide is a positive integer of at least M+1 bits.  Its top M+1 bits are
    kept, the rest rounds per cfg.rounding (ties to the even significand, or
    truncation toward zero), a carry out of the top bit moves into the
    exponent, and the result saturates.
    """
    shift = wide.bit_length() - 1 - cfg.man_bits
    if shift and cfg.rounding == NEAREST_EVEN:
        # add just under half an ulp, plus one when the kept bits are odd
        wide += (1 << (shift - 1)) - 1 + (wide >> shift & 1)
        shift = wide.bit_length() - 1 - cfg.man_bits  # a carry lengthens wide
    return _saturate(e + shift, (wide >> shift) - cfg.man_scale, cfg)


def _saturate(exponent: int, mantissa: int, cfg: FloatConfig) -> MultResult:
    if exponent < cfg.e_min:
        return MultResult(CustomFloat.zero(cfg.man_bits), underflowed=True)
    if exponent > cfg.e_max:
        return MultResult(cfg.max_value(), overflowed=True)
    return MultResult(CustomFloat(False, exponent, mantissa, cfg.man_bits))


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def encode(x: Real, cfg: FloatConfig) -> MultResult:
    """Quantize a non-negative real to cfg, rounding per cfg.rounding.

    Out-of-range magnitudes saturate: below the format to zero (underflow
    flag), above it to the largest value (overflow flag).
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite value {x!r}")
    if x < 0:
        raise ValueError(f"cannot encode negative value {x!r}")
    # Fraction(x) would normalise by a gcd only to hand the ratio back; it
    # keeps a numpy integer's type, hence the int()
    n, d = (x if isinstance(x, (int, float, Fraction)) else Fraction(x)).as_integer_ratio()
    n, d = int(n), int(d)
    if n == 0:
        return MultResult(CustomFloat.zero(cfg.man_bits))
    # n / d scaled by 2**shift has an integer part of M+2 or M+3 bits, so
    # the round bit lies in q and the remainder only needs a sticky bit
    shift = cfg.man_bits + 2 - (n.bit_length() - d.bit_length())
    q, r = divmod(n << shift, d) if shift >= 0 else divmod(n, d << -shift)
    return _round(cfg.man_bits - shift - 1, (q << 1) | (r != 0), cfg)


def encode_words(x: np.ndarray, cfg: FloatConfig) -> tuple[np.ndarray, int, int]:
    """Array form of `encode` for float64 input: int64 bit patterns with -1
    for zero, plus the counts of underflowing and overflowing entries.

    frexp gives each value's 53-bit significand exactly (subnormals
    included); `_round_words` rounds it to M+1 bits as `_round` does.  The
    range is read from the biased exponent, not from the words, whose
    exponent field a wide shift of an exponent far below the range wraps.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(x).all() and (x >= 0).all()):
        raise ValueError("cannot encode negative or non-finite values")
    frac, exp2 = np.frexp(x)
    wide = np.ldexp(frac, 53).astype(np.int64)  # exact: 2**52 <= wide < 2**53
    m, s = cfg.man_bits, 52 - cfg.man_bits
    # the fraction, 2**M where rounding reaches the next power of two
    f = _round_words(-1, wide, s, cfg) if s > 0 else (wide << -s) - cfg.man_scale
    biased = exp2.astype(np.int64) - 1 + cfg.bias + (f >> m)
    under = (biased < 0) & (x > 0)
    over = (biased > cfg.max_biased) & (x > 0)
    words = np.where(over, cfg.max_word, (biased << m) + (f & (cfg.man_scale - 1)))
    words[under | (x == 0)] = -1
    return words, int(under.sum()), int(over.sum())


def _round_words(e, wide, s: int, cfg: FloatConfig):
    """Array form of `_round` on words: the word, biased exponent field then
    M-bit fraction, of wide * 2**(e - M - s + 1) for a significand wide of
    M+s or M+s+1 bits (s >= 1), normalised to M+s+1 bits and rounded once to
    M+1, a carry landing in the exponent field.  Every shift is by a
    constant."""
    m = cfg.man_bits
    carry = wide >> (m + s)
    wide = wide * (2 - carry)
    if cfg.rounding == NEAREST_EVEN:  # add just under half an ulp, plus the kept parity bit
        wide = wide + (wide >> s & 1) + ((1 << (s - 1)) - 1)
    return ((e + carry) << m) + (wide >> s) - (1 << m)


def decode(v: CustomFloat) -> float:
    """Exact real value of the representation (0.0 for the zero flag)."""
    if v.is_zero:
        return 0.0
    return math.ldexp((1 << v.man_bits) + v.mantissa, v.exponent - v.man_bits)


def decode_fraction(v: CustomFloat) -> Fraction:
    """Exact rational value; used by oracle-style checks."""
    if v.is_zero:
        return Fraction(0)
    return ((1 << v.man_bits) + v.mantissa) * Fraction(2) ** (v.exponent - v.man_bits)


def log2_value(v: CustomFloat) -> float:
    """log2 of the value, -inf for zero.

    Takes log2 of the (M+1)-bit significand integer, which gives a float
    in [M, M+1), then adds e - M.  The absolute error is therefore about ulp(M + 1)
    (7.1e-15 at M = 40) whatever the value.
    """
    if v.is_zero:
        return float("-inf")
    return math.log2((1 << v.man_bits) + v.mantissa) + (v.exponent - v.man_bits)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def exact_mul(a: CustomFloat, b: CustomFloat, cfg: FloatConfig) -> MultResult:
    """Conventional float multiply: add exponents, full-width mantissa
    product, renormalize when the significand reaches 2, round once."""
    if a.is_zero or b.is_zero:
        return MultResult(CustomFloat.zero(cfg.man_bits))
    return _round(a.exponent + b.exponent - cfg.man_bits,
                  (cfg.man_scale + a.mantissa) * (cfg.man_scale + b.mantissa), cfg)


def exact_add(a: CustomFloat, b: CustomFloat, cfg: FloatConfig) -> MultResult:
    """Float add: align exponents, wide significand add, renormalize,
    round once per cfg.rounding."""
    if a.is_zero:
        return MultResult(b)
    if b.is_zero:
        return MultResult(a)
    lo, hi = (a, b) if a.exponent <= b.exponent else (b, a)
    if hi.exponent - lo.exponent > cfg.man_bits + 3:  # the lower operand is only a sticky bit
        return _round(hi.exponent - cfg.man_bits - 3,
                      (cfg.man_scale + hi.mantissa) << (cfg.man_bits + 3) | 1, cfg)
    e_lo = lo.exponent
    wide = (((cfg.man_scale + a.mantissa) << (a.exponent - e_lo))
            + ((cfg.man_scale + b.mantissa) << (b.exponent - e_lo)))
    return _round(e_lo, wide, cfg)


def aai_mul(a: CustomFloat, b: CustomFloat, cfg: FloatConfig) -> MultResult:
    """Approximate multiply: mantissas add modulo 1, carry bumps the
    exponent, no rounding.  Never exceeds the exact product."""
    if a.is_zero or b.is_zero:
        return MultResult(CustomFloat.zero(cfg.man_bits))
    s = a.mantissa + b.mantissa
    carry = s >> cfg.man_bits
    return _saturate(a.exponent + b.exponent + carry, s & (cfg.man_scale - 1), cfg)


def mitchell_delta(f: float) -> float:
    """Pointwise log error log2(1+f) - f of the mantissa-addition shortcut."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"mantissa fraction must be in [0, 1], got {f}")
    return max(math.log2(1.0 + f) - f, 0.0)


# ---------------------------------------------------------------------------
# bit-pattern interface
# ---------------------------------------------------------------------------

def to_bits(v: CustomFloat, cfg: FloatConfig) -> int:
    """Biased pattern (exponent field then mantissa field); zero maps to the
    reserved all-zeros word.

    That word is also the pattern of cfg.min_positive() (biased exponent 0,
    mantissa 0), so the two values collide: from_bits reads it as zero.
    The batched evaluator in `inference` carries zero as -1 instead, out of
    band, and keeps the smallest value.
    """
    if v.man_bits != cfg.man_bits:
        raise ValueError("value mantissa width does not match config")
    if v.is_zero:
        return 0
    biased = v.exponent + cfg.bias
    if not 0 <= biased <= cfg.max_biased:
        raise ValueError(f"exponent {v.exponent} not representable under cfg")
    return (biased << cfg.man_bits) | v.mantissa


def from_bits(word: int, cfg: FloatConfig) -> CustomFloat:
    """Inverse of to_bits; the all-zeros word decodes to zero."""
    if not 0 <= word <= cfg.max_word:
        raise ValueError(f"pattern {word:#x} out of range for config")
    if word == 0:
        return CustomFloat.zero(cfg.man_bits)
    return CustomFloat(False, (word >> cfg.man_bits) - cfg.bias,
                       word & (cfg.man_scale - 1), cfg.man_bits)


def aai_mul_bits(a_bits: int, b_bits: int, cfg: FloatConfig) -> int:
    """Approximate multiply straight on bit patterns: integer-add the two
    words and subtract the duplicated bias.  Saturates like aai_mul, but a
    result of pattern 0 (the value min_positive, see to_bits) reads as the
    zero word: words 1 and (bias << M) - 1 give 0 here, while their aai_mul
    is min_positive with no underflow flag."""
    for word in (a_bits, b_bits):
        if word == 0:
            raise ValueError("reserved zero pattern is not a valid operand")
        if not 0 < word <= cfg.max_word:
            raise ValueError(f"pattern {word:#x} out of range for config")
    r = a_bits + b_bits - (cfg.bias << cfg.man_bits)
    if r < 0:
        return 0  # underflow saturates to the zero word
    if r > cfg.max_word:
        return cfg.max_word
    return r
