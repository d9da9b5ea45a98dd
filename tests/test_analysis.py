"""Tests for divergence prediction and MAP failure estimation."""

import json
import math

import numpy as np
import pytest

from aaipc import circuit
from aaipc.circuit import (
    Circuit,
    IndicatorUnit,
    ProductUnit,
    SumUnit,
    Variable,
    circuit_to_json,
    edge_masses,
    enumerate_states,
    generate_random_det_pc,
    generate_random_tree_pc,
    parse_circuit,
    validate,
)
from aaipc.floats import FloatConfig, mitchell_delta
from aaipc.inference import AAI, CircuitEvaluator, MultiplierPlan
from aaipc.analysis import (
    MAP_FAILURE_CHUNK,
    MITCHELL_MAX,
    delta_det,
    delta_nondet_mc,
    kl_bruteforce,
    map_failure_prob,
)

from oracles import ScalarEvaluator, map_failure_oracle, root_readout_delta_oracle


def simple_sum(weights=(0.75, 0.25)) -> Circuit:
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
             SumUnit(2, (0, 1), weights)]
    return Circuit([Variable(0, 2)], units, 2)


CFG = FloatConfig(11, 40)


def assert_kl_identity(c: Circuit) -> None:
    # Delta_det sums the weights' Mitchell shortfalls, i.e. the gap between
    # log2 p and the root word's Mitchell log e + f.  KL reads the root as the
    # value 2^e (1 + f) it encodes, so on a deterministic circuit
    # KL = Delta_det - E_p[delta(f_root)], and Delta_det bounds KL from above.
    rep = delta_det(c, CFG)
    kl = kl_bruteforce(c, CFG)
    readout = root_readout_delta_oracle(c, CFG.man_bits, CFG.e_min, CFG.e_max)
    assert rep.delta_det == pytest.approx(kl + readout, abs=1e-9)
    assert kl <= rep.delta_det


class TestDeltaDet:
    def test_simple_sum_closed_form(self):
        # 0.75 has mantissa 1/2, 0.25 has mantissa 0
        rep = delta_det(simple_sum(), CFG)
        want = 0.75 * (math.log2(1.5) - 0.5)
        assert rep.delta_det == pytest.approx(want, abs=1e-12)
        assert rep.delta_det == pytest.approx(0.06372, abs=5e-6)
        assert rep.note == ""

    def test_power_of_two_weights_give_zero(self):
        rep = delta_det(simple_sum((0.5, 0.5)), CFG)
        assert rep.delta_det == 0.0

    def test_total_is_sum_of_contributions(self, three_var_distinct):
        rep = delta_det(three_var_distinct, CFG)
        assert rep.delta_det == pytest.approx(
            sum(c.contribution for c in rep.contributions), abs=1e-15)

    def test_matches_bruteforce_on_fixture(self, three_var_distinct):
        assert_kl_identity(three_var_distinct)
        # the closed-form circuit above: Delta_det = 0.0637 while KL = 0, the
        # whole closed form being the root's read-out term
        assert_kl_identity(simple_sum((0.75, 0.25)))

    def test_matches_bruteforce_on_random_det_circuits(self):
        for seed in range(8):
            assert_kl_identity(generate_random_det_pc(seed=seed, n_vars=5))

    def test_circuit_without_sums_gives_float_zero(self):
        c = Circuit([Variable(0, 2)], [IndicatorUnit(0, 0, 1)], 0)
        rep = delta_det(c, CFG)
        assert rep.contributions == ()
        assert type(rep.delta_det) is float and rep.delta_det.hex() == "0x0.0p+0"
        assert type(json.loads(rep.to_json())["delta_det"]) is float

    def test_non_deterministic_flagged(self):
        c = generate_random_tree_pc(seed=2, n_vars=4, depth=2, sum_fanout=2)
        rep = delta_det(c, CFG)
        assert rep.note == "bound, not equality"

    @pytest.mark.parametrize("left, note", [
        ((IndicatorUnit(3, 1, 0),), "not smooth"),        # X0=0 x X1=0: sum of p 1.75
        ((IndicatorUnit(3, 0, 0),), "not decomposable"),  # X0=0 x X0=0
    ])
    def test_structure_failures_named(self, left, note):
        # a sum over a product with X0=0 and X0=1: deterministic either way
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), *left,
                 ProductUnit(4, (0, 3)), SumUnit(5, (4, 1), (0.25, 0.75))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 5)
        rep = validate(c)
        assert rep.deterministic
        assert delta_det(c, CFG).note == note

    def test_json_serialization(self, three_var_distinct):
        import json

        doc = json.loads(delta_det(three_var_distinct, CFG).to_json())
        assert "18:0" in doc["contributions"]
        assert doc["delta_det"] == pytest.approx(
            sum(doc["contributions"].values()), abs=1e-12)


class TestDeltaNondetMc:
    def test_deterministic_circuit_recovers_closed_form(self):
        c = generate_random_det_pc(seed=3, n_vars=5)
        det = delta_det(c, CFG).delta_det
        rep = delta_nondet_mc(c, CFG, n_samples=2000, seed=11)
        assert rep.note == "surrogate"
        assert abs(rep.delta_dc - det) <= 3 * rep.dc_std_error + 1e-12

    def test_power_of_two_deterministic_circuit_is_exactly_zero(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2)], units, 2)
        rep = delta_nondet_mc(c, CFG, n_samples=500, seed=1)
        assert rep.delta_dc == 0.0
        assert rep.dc_std_error == 0.0

    def test_empirical_masses_sum_like_tree_masses(self):
        c = generate_random_det_pc(seed=5, n_vars=4)
        rep = delta_nondet_mc(c, CFG, n_samples=4000, seed=7)
        root_edges = [wc for wc in rep.contributions if wc.edge[0] == c.root]
        assert sum(wc.mass for wc in root_edges) == pytest.approx(1.0, abs=1e-12)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            delta_nondet_mc(simple_sum(), CFG, n_samples=1, seed=0)

    @pytest.mark.parametrize("n", [4.0, True, "4"])
    def test_non_integer_sample_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            delta_nondet_mc(simple_sum(), CFG, n_samples=n, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            delta_nondet_mc(simple_sum(), CFG, n_samples=4, seed=seed)


class TestListingOrder:
    @pytest.mark.parametrize("limit", [circuit.EXHAUSTIVE_STATE_LIMIT, 0],
                             ids=["exhaustive", "syntactic"])
    @pytest.mark.parametrize("make", [lambda s: generate_random_det_pc(s, 6),
                                      lambda s: generate_random_tree_pc(s, 6, 2, 2)],
                             ids=["det", "tree"])
    def test_results_do_not_depend_on_the_unit_listing(self, make, limit, monkeypatch):
        # sums come in id order wherever a result lists or adds them, so a
        # circuit read back from its own JSON (units in id order) gives the
        # same totals, orders and violations as the one it was written from
        monkeypatch.setattr(circuit, "EXHAUSTIVE_STATE_LIMIT", limit)
        cfg = FloatConfig(8, 10)

        def results(c):
            rep = delta_det(c, cfg)
            return (rep.delta_det, [(wc.edge, wc.delta_w, wc.mass) for wc in rep.contributions],
                    list(edge_masses(c).items()), validate(c).violations)

        for seed in range(6):
            c = make(seed)
            backwards = Circuit(c.variables, list(c.units.values())[::-1], c.root)
            again = parse_circuit(circuit_to_json(backwards))
            assert results(c) == results(backwards) == results(again)


class TestContributionEdgesArePlanKeys:
    def test_contribution_edges_are_the_sum_sites(self, three_var_distinct):
        c = three_var_distinct
        plan = MultiplierPlan.all_aai(c)
        rep = delta_det(c, CFG)
        assert {wc.edge for wc in rep.contributions} == \
            {e for e in plan.modes if isinstance(c.units[e[0]], SumUnit)}

    def test_plan_from_chosen_contribution_edges_evaluates(self):
        c = generate_random_det_pc(seed=4, n_vars=5)
        cfg = FloatConfig(8, 10)
        rep = delta_det(c, cfg)
        ranked = sorted(rep.contributions, key=lambda wc: wc.contribution)
        chosen = [wc.edge for wc in ranked[:len(ranked) // 2]]
        plan = MultiplierPlan.from_aai_weight_sites(c, chosen)
        assert sorted(e for e, m in plan.modes.items() if m == AAI) == sorted(chosen)
        states = enumerate_states(c)
        results, _, _ = CircuitEvaluator(c, cfg, plan).mar(states)
        ref = ScalarEvaluator(c, cfg, plan)
        assert results == [ref.mar(x)[0] for x in states]

    def test_product_edge_rejected(self, three_var_distinct):
        with pytest.raises(ValueError, match=r"not sum edges.*\(15, 1\)"):
            MultiplierPlan.from_aai_weight_sites(three_var_distinct, [(18, 0), (15, 1)])


class TestKlBruteforce:
    def test_zero_for_power_of_two_circuit(self):
        assert kl_bruteforce(simple_sum((0.5, 0.5)), CFG) == 0.0

    def test_simple_sum_equals_direct_formula(self):
        # KL = sum_x p(x) (log2 p(x) - log2 p_aai(x)) computed by hand
        c = simple_sum((0.75, 0.25))
        got = kl_bruteforce(c, CFG)
        # Each state's only multiply is weight times indicator one, whose
        # mantissa is 0, so AAI passes the weight through exactly:
        # AAI(0.75, 1.0) = 0.75 and AAI(0.25, 1.0) = 0.25.  p_aai = p at both
        # states and KL = 0, up to the rounding of log2_value, which takes
        # log2 of the (M+1)-bit significand and is good to about ulp(M + 1).
        assert got == pytest.approx(0.0, abs=2 * math.ulp(CFG.man_bits + 1.0))

    def test_nonzero_when_mantissas_interact(self, three_var_distinct):
        assert kl_bruteforce(three_var_distinct, CFG) > 0

    def test_infinite_divergence_reported(self):
        c = simple_sum((0.75, 0.25))
        tiny = FloatConfig(2, 4)  # 0.25 and 0.75 both quantize fine; force via range
        # exponent range [-1, 2]: 0.25 underflows to zero -> infinite divergence
        with pytest.raises(ValueError, match="infinite divergence"):
            kl_bruteforce(c, tiny)


class TestMapFailureProb:
    def test_reference_value_at_zero_gap(self):
        est = map_failure_prob(0, n_mults_per_branch=1, n_samples=400_000, seed=3)
        assert est.probability == pytest.approx(0.0227, abs=0.002)
        assert est.std_error < 1e-3

    def test_gap_two_is_impossible(self):
        est = map_failure_prob(2, n_mults_per_branch=1, n_samples=10_000, seed=0)
        assert est.probability == 0.0
        assert est.std_error == 0.0

    def test_monotone_in_exponent_gap(self):
        probs = [map_failure_prob(d, 1, 200_000, seed=5).probability for d in (0, 1, 2)]
        assert probs[0] > probs[1] > probs[2] == 0.0

    def test_negative_gap_normalized(self):
        a = map_failure_prob(-1, 1, 50_000, seed=9)
        b = map_failure_prob(1, 1, 50_000, seed=9)
        assert a.probability == b.probability
        assert a.delta_e == 1

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            map_failure_prob(0, 1, n_samples=100)

    def test_more_mults_need_bigger_gap(self):
        # with two multiplications per branch a gap of two can still fail
        est = map_failure_prob(2, n_mults_per_branch=2, n_samples=300_000, seed=13)
        assert est.probability > 0
        est4 = map_failure_prob(4, n_mults_per_branch=2, n_samples=10_000, seed=13)
        assert est4.probability == 0.0


class TestMapFailureScreen:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12])
    @pytest.mark.parametrize("delta_e", [0, 1, 2, 3])
    def test_screened_count_equals_the_full_log_oracle(self, delta_e, n):
        # the second run crosses three chunk boundaries and ends in a short
        # chunk; the oracle draws 2**16 samples at a time
        for seed, n_samples in ((0, 10_000), (7, 3 * MAP_FAILURE_CHUNK + 17), (123, 10_000)):
            est = map_failure_prob(delta_e, n, n_samples, seed)
            assert est.probability == map_failure_oracle(delta_e, n, n_samples, seed) / n_samples

    def test_margin_exceeds_the_largest_mitchell_shortfall(self):
        u = 1 / math.log(2) - 1  # where d/du (log2(1 + u) - u) is zero
        peak = math.log2(1 + u) - u
        assert peak == pytest.approx(0.086071, abs=1e-6)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        assert (np.log2(1 + grid) - grid).max() <= peak + 1e-12
        assert MITCHELL_MAX > peak

    @pytest.mark.parametrize("args, name", [
        ((1.7, 1, 10_000), "delta_e"), ((1.0, 1, 10_000), "delta_e"),
        ((1, True, 10_000), "n_mults_per_branch"), ((1, 2.0, 10_000), "n_mults_per_branch"),
        ((1, 1, 1e5), "n_samples"), ((1, 1, 10_000, 0.5), "seed"),
        ((1, 1, 10_000, True), "seed")])
    def test_non_integer_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            map_failure_prob(*args)

    def test_numpy_integers_accepted(self):
        assert map_failure_prob(np.int64(-1), np.int32(1), np.int64(10_000), 4) == \
            map_failure_prob(1, 1, 10_000, 4)

class TestMitchellDeltaProperties:
    def test_delta_det_uses_quantized_mantissas(self):
        # a weight that quantizes to mantissa zero contributes nothing
        cfg = FloatConfig(8, 2)
        c = simple_sum((0.755, 0.245))
        rep = delta_det(c, cfg)
        # 0.755 -> mantissa 1/2 at M=2; 0.245 -> 0.25, mantissa 0
        expect = 0.755 * mitchell_delta(0.5)
        assert rep.delta_det == pytest.approx(expect, abs=1e-12)
