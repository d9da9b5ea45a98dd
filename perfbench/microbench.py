"""ns per operation of the float layer on fixed seeded operands.

One pair in eight has both exponents in the top quarter of the range and one
in eight both in the bottom quarter, so multiplies overflow and underflow at
a fixed rate; encode gets the same share of magnitudes below and above the
format.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

import numpy as np

from aaipc import floats as fl


def _operands(cfg, rng, n):
    m_bits = cfg.man_bits
    span = (cfg.e_max - cfg.e_min) // 4
    ranges = {0: (cfg.e_max - span, cfg.e_max), 1: (cfg.e_min, cfg.e_min + span)}
    mid = (cfg.e_min + span, cfg.e_max - span)
    pairs = []
    for k in range(n):
        lo, hi = ranges.get(k % 8, mid)
        a, b = (fl.CustomFloat(False, int(rng.integers(lo, hi + 1)),
                               int(rng.integers(0, 1 << m_bits)), m_bits) for _ in range(2))
        pairs.append((a, b))
    return pairs


def _reals(cfg, rng, n):
    out = []
    for k in range(n):
        if k % 8 == 0:
            out.append(math.ldexp(1.0, max(cfg.e_min - 3, -1074)))
        elif k % 8 == 1:
            out.append(1 << (cfg.e_max + 2))
        else:
            out.append(float(rng.random()))
    return out


def _ns_per_call(call, args, reps):
    per_rep = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for a in args:
            call(*a)
        per_rep.append((perf_counter_ns() - t0) / len(args))
    return statistics.median(per_rep)


def float_op_ns(cfg, seed: int, n: int = 1000, reps: int = 5) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    pairs = _operands(cfg, rng, n)
    words = [(fl.to_bits(a, cfg), fl.to_bits(b, cfg), cfg) for a, b in pairs]
    with_cfg = [(a, b, cfg) for a, b in pairs]
    reals = [(x, cfg) for x in _reals(cfg, rng, n)]
    return {
        "floats.aai_mul_ns": _ns_per_call(fl.aai_mul, with_cfg, reps),
        "floats.exact_mul_ns": _ns_per_call(fl.exact_mul, with_cfg, reps),
        "floats.exact_add_ns": _ns_per_call(fl.exact_add, with_cfg, reps),
        "floats.encode_ns": _ns_per_call(fl.encode, reals, reps),
        "floats.aai_mul_bits_ns": _ns_per_call(fl.aai_mul_bits, words, reps),
    }
