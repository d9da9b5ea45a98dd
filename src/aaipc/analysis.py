"""Predicting the divergence introduced by the approximate multiplier.

For deterministic circuits the closed form Delta_det sums, over the quantized
weights, each mantissa's log shortfall weighted by the probability mass of the
induced trees through that edge.  It is the expected gap between log2 p and
the all-AAI root word read as its Mitchell log e + f.  Against the brute-force
divergence over the full state space, which reads the root as the value it
encodes, it is an upper bound: KL = Delta_det - E_p[delta(f_root)].
Non-deterministic circuits get a sampled surrogate.
A separate Monte-Carlo estimator bounds how often approximate scores flip a
MAP comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuit import (Circuit, Edge, _integer, edge_masses, enumerate_states, eval_double,
                      sample, validate)
from .floats import (FloatConfig, decode, encode, encode_words,  # noqa: F401
                     log2_value, mitchell_delta)  # encode stays bound for callers that wrap it
from .inference import CircuitEvaluator, MultiplierPlan, induced_tree_edges


@dataclass(frozen=True)
class WeightContribution:
    edge: Edge
    delta_w: float
    mass: float

    @property
    def contribution(self) -> float:
        return self.delta_w * self.mass


@dataclass(frozen=True)
class AnalysisReport:
    """Per-edge attribution, in edge (sum id, child position) order, plus
    the aggregate divergence prediction."""

    contributions: tuple[WeightContribution, ...]
    delta_det: Optional[float] = None
    delta_dc: Optional[float] = None
    dc_std_error: Optional[float] = None
    note: str = ""

    def to_json(self) -> str:
        doc = {
            "delta_det": self.delta_det,
            "delta_dc": self.delta_dc,
            "dc_std_error": self.dc_std_error,
            "note": self.note,
            "contributions": {f"{uid}:{idx}": c.contribution
                              for (uid, idx), c in
                              ((c.edge, c) for c in self.contributions)},
        }
        return json.dumps(doc, indent=1)


@dataclass(frozen=True)
class FailureEstimate:
    delta_e: int
    n_mults_per_branch: int
    probability: float
    std_error: float


def _edge_deltas(c: Circuit, cfg: FloatConfig) -> dict[Edge, float]:
    """Mitchell shortfall of each sum edge's weight quantized to cfg."""
    sums = c.sum_units()
    edges = [(u.id, i) for u in sums for i in range(len(u.children))]
    words = encode_words([w for u in sums for w in u.weights], cfg)[0]
    fractions = np.where(words < 0, 0, words & (cfg.man_scale - 1)) / cfg.man_scale
    return {e: mitchell_delta(f) for e, f in zip(edges, fractions.tolist())}


def delta_det(c: Circuit, cfg: FloatConfig) -> AnalysisReport:
    """Closed-form expected log2 gap of an all-AAI evaluation.

    Exact, in the sense below, for smooth, decomposable, deterministic
    circuits; otherwise an estimate whose report note names what fails:
    "not smooth", "not decomposable", and "bound, not equality" where
    determinism is not shown.

    On a deterministic circuit a single tree is live per state and additions
    pass through.  An AAI product adds words as integers, so the root word's
    Mitchell log e + f is the sum of the weights' Mitchell logs, and log2 p
    minus it is the sum of the mantissa shortfalls delta(f_w) of the weights
    in that tree.  Delta_det is exactly the expectation of that gap.  Against
    the divergence, which reads the root as the value 2^e (1 + f) it encodes,
    it is an upper bound: KL = Delta_det - E_p[delta(f_root)] <= Delta_det.
    """
    rep = validate(c)
    note = "; ".join([f"not {p}" for p in ("smooth", "decomposable") if not getattr(rep, p)]
                     + ([] if rep.deterministic else ["bound, not equality"]))
    masses = edge_masses(c)
    contribs = [WeightContribution(e, d, masses[e]) for e, d in _edge_deltas(c, cfg).items()]
    total = sum((wc.contribution for wc in contribs), 0.0)  # a float with no sums too
    return AnalysisReport(tuple(contribs), delta_det=total, note=note)


def delta_nondet_mc(c: Circuit, cfg: FloatConfig, n_samples: int,
                    seed: int) -> AnalysisReport:
    """Sampled divergence surrogate for non-deterministic circuits.

    Per sampled state, the dominant induced tree under the approximate
    semantics contributes its weights' mantissa shortfalls; the remaining
    tree mass enters as a linearized tail correction.  The dropped curvature
    term makes this a surrogate, not an exact expectation.
    """
    n_samples = _integer("n_samples", n_samples)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    plan = MultiplierPlan.all_aai(c)
    ev = CircuitEvaluator(c, cfg, plan)
    deltas = _edge_deltas(c, cfg)

    data = sample(c, seed, n_samples)
    tops, _, _ = ev.map_query(data)
    fulls, _, _ = ev.mar(data)
    top_values = ev.restricted_value([top.trace for top in tops], data)
    terms = np.empty(n_samples)
    hits: dict[Edge, int] = {e: 0 for e in deltas}
    for k, (top, full, top_value) in enumerate(zip(tops, fulls, top_values)):
        tree_sum = 0.0
        for edge in induced_tree_edges(c, top.trace):
            tree_sum += deltas[edge]
            hits[edge] += 1
        tail = max(decode(full.value) - decode(top_value), 0.0)
        terms[k] = tree_sum - tail
    contribs = tuple(WeightContribution(e, d, hits[e] / n_samples) for e, d in deltas.items())
    return AnalysisReport(
        contribs,
        delta_dc=float(np.mean(terms)),
        dc_std_error=float(np.std(terms, ddof=1) / math.sqrt(n_samples)),
        note="surrogate",
    )


def kl_bruteforce(c: Circuit, cfg: FloatConfig) -> float:
    """Exhaustive sum of p64(x) * (log2 p64(x) - log2 p_aai(x)).

    Enumerates the full joint state space (bounded), evaluating the
    approximate side with an all-AAI plan at cfg.  Each log2 p_aai term
    inherits the absolute error of log2_value, about ulp(M + 1), so a
    divergence that is exactly zero can come out at that scale.
    """
    states = enumerate_states(c)
    p64 = eval_double(c, states)
    ev = CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c))
    positive = p64 > 0.0
    approxes, _, _ = ev.mar(states[positive])
    total = 0.0
    for x, p, approx in zip(states[positive], p64[positive], approxes):
        if approx.value.is_zero:
            raise ValueError(f"approximate probability is zero at state {x.tolist()} "
                             "while the reference is positive: infinite divergence")
        total += float(p) * (math.log2(float(p)) - log2_value(approx.value))
    return total


#: max over u in [0, 1] of log2(1 + u) - u, 0.086071... at u = 1/ln 2 - 1
#: (Mitchell, 1962), rounded up
MITCHELL_MAX = 0.0861

#: samples map_failure_prob draws at a time; its draw stream does not depend on it
MAP_FAILURE_CHUNK = 1 << 14


def map_failure_prob(delta_e: int, n_mults_per_branch: int = 1,
                     n_samples: int = 100_000, seed: int = 0) -> FailureEstimate:
    """Probability that the approximate scores reorder two MAP branches.

    Two branches whose exact log scores differ by delta_e in the exponent sum
    and by Mitchell-style mantissa terms are compared; a failure occurs when
    the exact and approximate differences disagree in sign (or either is
    zero).  Mantissas are drawn uniformly on [0, 1).  When delta_e is at
    least twice the per-branch multiplication count, the mantissa terms can
    never overcome the exponent gap and the probability is exactly zero.

    Each mantissa term's exact log exceeds its approximation by at most
    MITCHELL_MAX, so the two differences part by at most 2n MITCHELL_MAX;
    a sample whose approximate difference lies farther from zero than that
    cannot fail, and only the others take logs.
    """
    delta_e = abs(_integer("delta_e", delta_e))
    n = _integer("n_mults_per_branch", n_mults_per_branch)
    n_samples, seed = _integer("n_samples", n_samples), _integer("seed", seed)
    if n < 1:
        raise ValueError("n_mults_per_branch must be >= 1")
    if n_samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    if delta_e >= 2 * n:
        return FailureEstimate(delta_e, n, 0.0, 0.0)
    rng = np.random.default_rng(seed)
    signs = np.tile([1.0, 1.0, -1.0, -1.0], n)
    margin = MITCHELL_MAX * 2 * n + 1e-6  # 1e-6 covers the sums' rounding
    draws, screen = np.empty((MAP_FAILURE_CHUNK, n, 4)), np.empty(MAP_FAILURE_CHUNK)
    fails = done = 0
    while done < n_samples:
        m = min(MAP_FAILURE_CHUNK, n_samples - done)
        u, d = rng.random(out=draws[:m]), screen[:m]
        np.matmul(u.reshape(m, 4 * n), signs, out=d)
        d += delta_e
        u = u.take(np.flatnonzero(np.abs(d, out=d) <= margin), axis=0)
        exact = np.log2(1.0 + u)
        d_exact = delta_e + np.sum(exact[:, :, 0] + exact[:, :, 1]
                                   - exact[:, :, 2] - exact[:, :, 3], axis=1)
        d_aai = delta_e + np.sum(u[:, :, 0] + u[:, :, 1]
                                 - u[:, :, 2] - u[:, :, 3], axis=1)
        fails += int(np.count_nonzero(d_exact * d_aai <= 0.0))
        done += m
    p = fails / n_samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return FailureEstimate(delta_e, n, p, se)
