"""Tests for marginal and MAP evaluation under multiplier plans."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from aaipc.circuit import (
    Circuit,
    IndicatorUnit,
    ProductUnit,
    SumUnit,
    Variable,
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
    decode,
    decode_fraction,
    log2_value,
    to_bits,
)
from aaipc.inference import (
    AAI,
    EXACT,
    CircuitEvaluator,
    EvaluationError,
    MultiplierPlan,
    compare_queries,
    enumerate_sites,
    eval_map,
    eval_mar,
    induced_tree_edges,
)

from oracles import reference_eval


def bernoulli(p0: float) -> Circuit:
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
             SumUnit(2, (0, 1), (p0, 1 - p0))]
    return Circuit([Variable(0, 2)], units, 2)


def power_of_two_circuit() -> Circuit:
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
             SumUnit(2, (0, 1), (0.25, 0.75)),
             IndicatorUnit(3, 1, 0), IndicatorUnit(4, 1, 1),
             SumUnit(5, (3, 4), (0.5, 0.5)),
             ProductUnit(6, (2, 5))]
    return Circuit([Variable(0, 2), Variable(1, 2)], units, 6)


class TestSitesAndPlans:
    def test_site_enumeration(self, three_var_circuit):
        c = three_var_circuit
        sites = enumerate_sites(c)
        weight_sites = [s for s in sites if isinstance(c.units[s[0]], SumUnit)]
        prod_sites = [s for s in sites if isinstance(c.units[s[0]], ProductUnit)]
        assert len(weight_sites) == 7  # 3 + 2 + 2 edges
        assert len(prod_sites) == 7    # seven binary products
        assert len(weight_sites) + len(prod_sites) == len(set(sites)) == len(sites)
        assert weight_sites == c.weight_edges()
        assert all(k == 1 for _, k in prod_sites)  # the step that brings child 1 in

    def test_all_exact_and_all_aai_cover(self, three_var_circuit):
        for plan in (MultiplierPlan.all_exact(three_var_circuit),
                     MultiplierPlan.all_aai(three_var_circuit)):
            plan.check_covers(three_var_circuit)

    def test_partial_plan_rejected(self, three_var_circuit):
        plan = MultiplierPlan({(18, 0): EXACT})
        with pytest.raises(ValueError, match="sites"):
            plan.check_covers(three_var_circuit)

    def test_evaluator_rejects_plan_with_missing_or_extra_sites(self, three_var_circuit):
        c = three_var_circuit
        modes = dict(MultiplierPlan.all_aai(c).modes)
        missing = {s: m for s, m in modes.items() if s != (15, 1)}
        extra = {**modes, (99, 0): AAI}
        swapped = {**missing, (99, 0): AAI}  # same count, one site renamed
        for bad in (missing, extra, swapped):
            with pytest.raises(ValueError, match="sites"):
                CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan(bad))

    @pytest.mark.parametrize("mode", ["AAI", None, True], ids=["upper-case", "none", "bool"])
    def test_unknown_mode_rejected(self, mode):
        # the engine reads every mode but AAI as exact, so such a plan gave
        # the all-exact value without an error
        c = generate_random_det_pc(0, 3)
        with pytest.raises(ValueError, match=re.escape(f"mode {mode!r} is neither 'exact' nor")):
            MultiplierPlan(dict.fromkeys(enumerate_sites(c), mode))

    def test_from_aai_weight_sites(self, three_var_circuit):
        plan = MultiplierPlan.from_aai_weight_sites(three_var_circuit, [(18, 0), (13, 1)])
        assert plan.mode((18, 0)) == AAI
        assert plan.mode((18, 1)) == EXACT
        assert plan.mode((15, 1)) == EXACT

    @pytest.mark.parametrize("site", [(4, True), (4.0, 1), (np.float64(4), 1), (4, 1.0)], ids=repr)
    def test_a_site_that_is_not_a_pair_of_integers_is_rejected(self, site):
        # each named edge (4, 1), which the plan then multiplied as listed
        c = generate_random_det_pc(0, 3)
        assert (4, 1) in c.weight_edges()
        message = "is not a pair of integers"
        with pytest.raises(ValueError, match=message):
            MultiplierPlan.from_aai_weight_sites(c, [site])
        with pytest.raises(ValueError, match=message):  # checked before membership
            MultiplierPlan.from_aai_weight_sites(c, [(99, 0), site])
        modes = dict(MultiplierPlan.all_exact(c).modes)
        del modes[4, 1]
        with pytest.raises(ValueError, match=message):
            MultiplierPlan({**modes, site: AAI})

    def test_numpy_integer_sites_are_accepted(self):
        c = generate_random_det_pc(0, 3)
        plan = MultiplierPlan.from_aai_weight_sites(c, [(np.int64(4), np.int32(1))])
        assert plan.mode((4, 1)) == AAI
        MultiplierPlan({(np.int64(u), np.int64(k)): m for (u, k), m in plan.modes.items()}
                       ).check_covers(c)


class TestBooleanRows:
    """Every entry point that takes rows refuses a bool in them, which the
    cast to integers would read as 0 or 1, also mixed with ints."""

    ENTRY_POINTS = {
        "eval_double": lambda c, x, cfg: eval_double(c, x),
        "eval_mar": lambda c, x, cfg: eval_mar(c, x, cfg, MultiplierPlan.all_aai(c)),
        "compare_queries": lambda c, x, cfg: compare_queries(c, x, cfg, MultiplierPlan.all_aai(c)),
        "evaluator-mar": lambda c, x, cfg: CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c)).mar(x),
        "evaluator-map": lambda c, x, cfg:
            CircuitEvaluator(c, cfg, MultiplierPlan.all_aai(c)).map_query(x),
    }
    ROWS = {
        "list": [True, 0, 1],
        "object-array": np.array([[1, 0, True]], dtype=object),
        "numpy-bool-in-list": [[0, np.True_, 1]],
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_refused(self, entry, rows):
        c = generate_random_det_pc(0, 3)
        with pytest.raises(ValueError, match="rows must hold integers, not booleans"):
            self.ENTRY_POINTS[entry](c, self.ROWS[rows], FloatConfig(8, 10))

    def test_integers_in_an_object_array_accepted(self):
        c = generate_random_det_pc(0, 3)
        rows = np.array([[1, 0, 1]], dtype=object)
        assert eval_double(c, rows).tolist() == eval_double(c, [[1, 0, 1]]).tolist()


@pytest.mark.parametrize("entry", ["eval_double", "compare_queries", "evaluator-mar"])
def test_batch_of_more_than_two_dimensions_names_its_shape(entry):
    # the last axis alone would read "rows have 3 values, the circuit has 3 variables"
    c = generate_random_det_pc(0, 3)
    with pytest.raises(ValueError, match=re.escape(
            "rows must form a 2-D batch, got shape (1, 1, 3)")):
        TestBooleanRows.ENTRY_POINTS[entry](c, np.zeros((1, 1, 3), dtype=np.int64),
                                            FloatConfig(8, 10))


class TestEvalMar:
    def test_bernoulli(self):
        c = bernoulli(0.25)
        plan = MultiplierPlan.all_exact(c)
        assert decode(eval_mar(c, [0], FLOAT64, plan).value) == 0.25
        assert decode(eval_mar(c, [1], FLOAT64, plan).value) == 0.75

    def test_rejects_incomplete_assignment(self, three_var_circuit):
        plan = MultiplierPlan.all_exact(three_var_circuit)
        with pytest.raises(ValueError):
            eval_mar(three_var_circuit, [0, -1, 1], FLOAT64, plan)

    @pytest.mark.parametrize("x, message", [
        ([1.9, 0, 1], r"row 0, column 0: value 1.9 is not an integer"),
        ([1, 0, 0.5], r"row 0, column 2: value 0.5 is not an integer"),
    ])
    def test_rejects_non_integer_values(self, three_var_circuit, x, message):
        # a cast to int64 would read 1.9 as 1
        plan = MultiplierPlan.all_exact(three_var_circuit)
        with pytest.raises(ValueError, match=message):
            eval_mar(three_var_circuit, x, FLOAT64, plan)
        assert eval_mar(three_var_circuit, [1.0, 0.0, 1.0], FLOAT64, plan) == \
            eval_mar(three_var_circuit, [1, 0, 1], FLOAT64, plan)

    def test_three_var_states_match_rational_oracle(self, three_var_circuit):
        c = three_var_circuit
        plan = MultiplierPlan.all_exact(c)
        for x in enumerate_states(c):
            got = decode_fraction(eval_mar(c, x, FLOAT64, plan).value)
            want = reference_eval(c, x, 52, -1023, 1024, aai=False)
            assert got == want

    def test_baseline_matches_double_evaluation(self):
        c = generate_random_tree_pc(seed=5, n_vars=6, depth=2, sum_fanout=3)
        plan = MultiplierPlan.all_exact(c)
        states = enumerate_states(c)
        direct = eval_double(c, states)
        for x, p in zip(states, direct):
            got = decode(eval_mar(c, x, FLOAT64, plan).value)
            assert got == pytest.approx(float(p), rel=1e-12)

    def test_power_of_two_weights_make_aai_exact(self):
        c = power_of_two_circuit()
        exact_plan = MultiplierPlan.all_exact(c)
        aai_plan = MultiplierPlan.all_aai(c)
        for x in enumerate_states(c):
            a = eval_mar(c, x, FloatConfig(8, 10), aai_plan).value
            e = eval_mar(c, x, FloatConfig(8, 10), exact_plan).value
            assert a == e

    def test_aai_never_exceeds_exact_toward_zero(self):
        cfg = FloatConfig(8, 8, rounding=TOWARD_ZERO)
        c = generate_random_tree_pc(seed=9, n_vars=6, depth=2, sum_fanout=3)
        aai_plan = MultiplierPlan.all_aai(c)
        exact_plan = MultiplierPlan.all_exact(c)
        for x in sample(c, seed=1, n=50):
            lo = log2_value(eval_mar(c, x, cfg, aai_plan).value)
            hi = log2_value(eval_mar(c, x, cfg, exact_plan).value)
            assert lo <= hi

    def test_toward_zero_never_exceeds_baseline(self):
        cfg = FloatConfig(8, 12, rounding=TOWARD_ZERO)
        c = generate_random_tree_pc(seed=13, n_vars=6, depth=2, sum_fanout=2)
        plan = MultiplierPlan.all_aai(c)
        base = MultiplierPlan.all_exact(c)
        for x in sample(c, seed=2, n=50):
            approx = decode(eval_mar(c, x, cfg, plan).value)
            exact = decode(eval_mar(c, x, FLOAT64, base).value)
            assert approx <= exact

    def test_underflow_flag_propagates(self):
        c = power_of_two_circuit()
        cfg = FloatConfig(2, 4)  # exponent range [-1, 2]
        r = eval_mar(c, [0, 0], cfg, MultiplierPlan.all_exact(c))
        assert r.value.is_zero and r.underflowed


class TestEvalMap:
    def test_bernoulli_argmax(self):
        c = bernoulli(0.9)
        res = eval_map(c, {}, FLOAT64, MultiplierPlan.all_exact(c))
        assert res.assignment.tolist() == [0]
        assert res.log2_value == pytest.approx(np.log2(0.9), abs=1e-12)

    def test_matches_brute_force_max_product(self, three_var_distinct):
        c = three_var_distinct
        res = eval_map(c, {}, FLOAT64, MultiplierPlan.all_exact(c))
        states = enumerate_states(c)
        scores = [_max_product_score(c, x) for x in states]
        best = states[int(np.argmax(scores))]
        assert res.assignment.tolist() == best.tolist()
        assert 2.0 ** res.log2_value == pytest.approx(max(scores), rel=1e-12)

    def test_random_circuit_matches_brute_force(self):
        c = generate_random_tree_pc(seed=21, n_vars=6, depth=2, sum_fanout=2)
        res = eval_map(c, {}, FLOAT64, MultiplierPlan.all_exact(c))
        states = enumerate_states(c)
        scores = [_max_product_score(c, x) for x in states]
        assert res.assignment.tolist() == states[int(np.argmax(scores))].tolist()

    def test_evidence_restricts_solution(self, three_var_distinct):
        c = three_var_distinct
        res = eval_map(c, {0: 1, 1: 1}, FLOAT64, MultiplierPlan.all_exact(c))
        assert res.assignment[0] == 1 and res.assignment[1] == 1

    def test_ties_pick_lowest_child_index(self, three_var_circuit):
        # all weights equal: every branch scores 1/6
        res = eval_map(three_var_circuit, {}, FLOAT64,
                       MultiplierPlan.all_exact(three_var_circuit))
        assert res.trace[18] == 0
        assert res.assignment.tolist() == [0, 0, 0]

    def test_trace_reconstruction_is_bit_exact(self, three_var_distinct):
        c = three_var_distinct
        cfg = FloatConfig(8, 6)
        for plan in (MultiplierPlan.all_aai(c), MultiplierPlan.all_exact(c)):
            ev = CircuitEvaluator(c, cfg, plan)
            res, _, _ = ev.map_query({})
            again = ev.restricted_value(res.trace, {})
            # replaying only the traced tree reproduces the score exactly
            assert log2_value(again) == res.log2_value

    @pytest.mark.parametrize("make_plan", [MultiplierPlan.all_aai, MultiplierPlan.all_exact])
    def test_deep_chain_stays_iterative(self, make_plan):
        # 3,000 single-child sums over one binary sum, far past the recursion limit
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.3, 0.7))]
        units += [SumUnit(uid, (uid - 1,), (1.0,)) for uid in range(3, 3003)]
        c = Circuit([Variable(0, 2)], units, 3002)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), make_plan(c))
        mar, _, _ = ev.mar([1])
        res, _, _ = ev.map_query({})
        again = ev.restricted_value(res.trace, {})
        assert res.assignment.tolist() == [1]
        assert again == mar.value
        assert log2_value(again) == res.log2_value

    def test_power_of_two_weights_aai_same_argmax(self):
        c = power_of_two_circuit()
        cfg = FloatConfig(8, 10)
        a = eval_map(c, {}, cfg, MultiplierPlan.all_aai(c))
        e = eval_map(c, {}, cfg, MultiplierPlan.all_exact(c))
        assert a.assignment.tolist() == e.assignment.tolist()

    def test_rejects_bad_evidence(self, three_var_circuit):
        plan = MultiplierPlan.all_exact(three_var_circuit)
        with pytest.raises(ValueError):
            eval_map(three_var_circuit, {7: 0}, FLOAT64, plan)
        with pytest.raises(ValueError):
            eval_map(three_var_circuit, {0: 5}, FLOAT64, plan)

    @pytest.mark.parametrize("value", [1.5, 0.5, math.nan])
    def test_rejects_non_integer_evidence(self, three_var_circuit, value):
        # 1.5 passes the range check of cardinality 2, and would be read as 1
        plan = MultiplierPlan.all_exact(three_var_circuit)
        with pytest.raises(ValueError, match="for variable 1 is not an integer"):
            eval_map(three_var_circuit, {1: value}, FLOAT64, plan)

    @pytest.mark.parametrize("choice", [0.5, "1", True, np.float64(1.0)])
    def test_restricted_value_rejects_non_integer_choices(self, choice):
        # a cast to int64 would read 0.5 as child 0, and "1" and True as child 1
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        with pytest.raises(ValueError, match=re.escape(
                f"trace picks {choice!r} for sum {c.root}, not an integer")):
            ev.restricted_value({c.root: choice}, {})

    def test_restricted_value_rejects_units_that_are_not_sums(self):
        # the picks are read per sum, so any other key would go unread
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        product = next(u.id for u in c.units.values() if isinstance(u, ProductUnit))
        for key in (99999, product, True, str(c.root)):
            with pytest.raises(ValueError, match=re.escape(
                    f"trace names {key!r}, which is not a sum of the circuit")):
                ev.restricted_value({c.root: 0, key: 0}, {})

    def test_restricted_value_names_the_sum_of_an_edge_out_of_range(self):
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        with pytest.raises(ValueError, match=re.escape(
                f"trace picks edge 2 of sum {c.root}, which has 2")):
            ev.restricted_value({c.root: 2}, {})

    def test_restricted_value_takes_numpy_integers_and_other_circuits_traces(self):
        c = generate_random_det_pc(0, 3)
        ev = CircuitEvaluator(c, FloatConfig(8, 10), MultiplierPlan.all_aai(c))
        res, _, _ = ev.map_query({})
        want = ev.restricted_value(res.trace, {})
        assert ev.restricted_value({np.int64(k): np.int64(v) for k, v in res.trace.items()},
                                   {}) == want
        # a trace of an equal circuit built apart reads through its mapping
        twin = CircuitEvaluator(generate_random_det_pc(0, 3), FloatConfig(8, 10),
                                MultiplierPlan.all_aai(c))
        assert twin.restricted_value(res.trace, {}) == want

    def test_induced_tree_edges(self, three_var_distinct):
        c = three_var_distinct
        res = eval_map(c, {}, FLOAT64, MultiplierPlan.all_exact(c))
        edges = induced_tree_edges(c, res.trace)
        assert (18, res.trace[18]) in edges
        assert len(edges) == 2  # root edge plus one interior sum edge


def _max_product_score(c, x):
    """Brute-force max over induced trees for one complete state."""
    def ev(uid):
        u = c.units[uid]
        if isinstance(u, IndicatorUnit):
            return 1.0 if x[u.var] == u.value else 0.0
        if isinstance(u, ProductUnit):
            out = 1.0
            for ch in u.children:
                out *= ev(ch)
            return out
        return max(w * ev(ch) for w, ch in zip(u.weights, u.children))
    return ev(c.root)


class TestCompareQueries:
    def test_self_comparison(self, three_var_circuit):
        c = three_var_circuit
        data = sample(c, seed=3, n=32)
        m = compare_queries(c, data, FLOAT64, MultiplierPlan.all_exact(c))
        assert m.mean_log_error == 0.0
        assert m.map_accuracy == 1.0
        assert m.underflow_count == 0 and m.overflow_count == 0
        assert m.n_instances == 32 and m.n_mar_instances == 32

    def test_reduced_precision_error_positive(self):
        c = generate_random_tree_pc(seed=17, n_vars=6, depth=2, sum_fanout=3)
        data = sample(c, seed=4, n=64)
        m = compare_queries(c, data, FloatConfig(8, 6), MultiplierPlan.all_aai(c))
        assert m.mean_log_error > 0

    def test_monotone_refinement(self):
        c = generate_random_tree_pc(seed=19, n_vars=8, depth=3, sum_fanout=3)
        data = sample(c, seed=5, n=64)
        errs = [compare_queries(c, data, FloatConfig(8, m), MultiplierPlan.all_exact(c)).mean_log_error
                for m in (8, 16)]
        assert errs[1] <= errs[0]

    def test_partial_rows_only_count_for_map(self, three_var_circuit):
        c = three_var_circuit
        data = np.array([[0, 0, 0], [1, -1, 1]])
        m = compare_queries(c, data, FLOAT64, MultiplierPlan.all_exact(c))
        assert m.n_instances == 2 and m.n_mar_instances == 1
        assert m.map_accuracy == 1.0

    def test_matches_independent_reference_evaluation(self):
        c = generate_random_tree_pc(seed=23, n_vars=6, depth=2, sum_fanout=3)
        cfg = FloatConfig(8, 12)
        plan = MultiplierPlan.all_aai(c)
        test_ev = CircuitEvaluator(c, cfg, plan)
        for x in sample(c, seed=6, n=200):
            got, _, _ = test_ev.mar(x)
            want = reference_eval(c, x, 12, -cfg.bias, cfg.e_max, aai=True)
            assert decode_fraction(got.value) == want

    def test_zero_probability_baseline_reported(self, three_var_circuit):
        data = np.array([[0, 0, 1]])  # off-support state
        with pytest.raises(EvaluationError, match="instance 0"):
            compare_queries(three_var_circuit, data, FloatConfig(8, 8),
                            MultiplierPlan.all_aai(three_var_circuit))

    def test_zero_baseline_names_its_row_in_data(self, three_var_circuit):
        # an open row, a positive complete row, an off-support complete row:
        # the third row of data, the second complete one
        data = np.array([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(EvaluationError, match="instance 2;"):
            compare_queries(three_var_circuit, data, FloatConfig(8, 8),
                            MultiplierPlan.all_aai(three_var_circuit))

    def test_out_of_range_value_rejected_before_evaluation(self):
        c = generate_random_det_pc(0, 3)
        with pytest.raises(ValueError, match=r"row 0, column 2") as info:
            compare_queries(c, np.array([[0, 1, 5]]), FloatConfig(8, 8),
                            MultiplierPlan.all_aai(c))
        assert not isinstance(info.value, EvaluationError)

    @pytest.mark.parametrize("correction", [math.nan, math.inf, -math.inf])
    def test_non_finite_correction_rejected(self, three_var_circuit, correction):
        c = three_var_circuit
        with pytest.raises(ValueError, match="correction must be finite"):
            compare_queries(c, sample(c, seed=3, n=4), FloatConfig(8, 10),
                            MultiplierPlan.all_aai(c), correction=correction)

    @pytest.mark.parametrize("correction", [True, np.True_, "0.1", None, 1j])
    def test_non_real_correction_rejected(self, three_var_circuit, correction):
        # a cast to float would read True as 1.0, and np.isfinite("0.1") raises TypeError
        c = three_var_circuit
        with pytest.raises(ValueError, match=re.escape(
                f"correction must be finite and real, got {correction!r}")):
            compare_queries(c, sample(c, seed=3, n=4), FloatConfig(8, 10),
                            MultiplierPlan.all_aai(c), correction=correction)

    def test_correction_is_stored_as_float(self, three_var_circuit):
        c = three_var_circuit
        data, cfg, plan = sample(c, seed=3, n=4), FloatConfig(8, 10), MultiplierPlan.all_aai(c)
        want = compare_queries(c, data, cfg, plan, correction=0.1)
        for correction in (np.float64(0.1), np.float32(0.25), 1, Fraction(1, 10)):
            got = compare_queries(c, data, cfg, plan, correction=correction)
            assert type(got.mean_log_error) is float
        assert compare_queries(c, data, cfg, plan, correction=np.float64(0.1)) == want

    def test_correction_shifts_log_error(self):
        c = generate_random_tree_pc(seed=29, n_vars=4, depth=2, sum_fanout=2)
        cfg = FloatConfig(8, 6, rounding=TOWARD_ZERO)
        data = sample(c, seed=7, n=32)
        plan = MultiplierPlan.all_aai(c)
        raw = compare_queries(c, data, cfg, plan).mean_log_error
        base = CircuitEvaluator(c, FLOAT64, MultiplierPlan.all_exact(c))
        test = CircuitEvaluator(c, cfg, plan)
        diffs = []
        for x in data:
            b, _, _ = base.mar(x)
            t, _, _ = test.mar(x)
            diffs.append(log2_value(b.value) - log2_value(t.value))
        corrected = compare_queries(c, data, cfg, plan,
                                    correction=float(np.mean(diffs))).mean_log_error
        assert corrected < raw
