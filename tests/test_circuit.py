"""Unit tests for circuit parsing, validation, generation and analytics."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaipc import circuit
from aaipc.circuit import (
    Circuit,
    CircuitFormatError,
    IndicatorUnit,
    SumUnit,
    ProductUnit,
    Variable,
    _compile,
    circuit_to_json,
    edge_masses,
    enumerate_states,
    eval_double,
    generate_random_det_pc,
    generate_random_tree_pc,
    min_positive_value,
    parse_circuit,
    sample,
    validate,
)

from conftest import three_var_doc
from oracles import (brute_force_probability, determinism_oracle, induced_trees,
                     sample_oracle, syntactic_determinism_oracle, tree_mass_oracle)


def toy_sum_over_indicators(weights=(0.25, 0.75)):
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
             SumUnit(2, (0, 1), weights)]
    return Circuit([Variable(0, 2)], units, 2)


class TestParse:
    def test_three_var_fixture_counts(self, three_var_circuit):
        c = three_var_circuit
        kinds = [type(u).__name__ for u in c.units.values()]
        assert kinds.count("SumUnit") == 3
        assert kinds.count("ProductUnit") == 7
        assert kinds.count("IndicatorUnit") == 9
        assert c.root == 18

    def test_weights_parsed_from_decimal_strings(self, three_var_circuit):
        root = three_var_circuit.units[18]
        assert root.weights[0] == float(repr(1 / 3))

    def test_weight_sum_violation_names_unit(self):
        doc = three_var_doc()
        doc["units"][-1]["weights"] = ["0.5", "0.4", "0.2"]
        with pytest.raises(CircuitFormatError, match="18"):
            parse_circuit(json.dumps(doc))

    def test_dangling_child(self):
        doc = three_var_doc()
        doc["units"][9]["children"] = [2, 99]
        with pytest.raises(CircuitFormatError, match="dangling"):
            parse_circuit(json.dumps(doc))

    def test_cycle_detected(self):
        doc = {"variables": [{"id": 0, "cardinality": 2}],
               "units": [{"id": 0, "type": "product", "children": [0, 1]},
                         {"id": 1, "type": "indicator", "var": 0, "value": 0}],
               "root": 0}
        with pytest.raises(CircuitFormatError, match="cycle"):
            parse_circuit(json.dumps(doc))

    def test_unreachable_unit_rejected(self):
        doc = three_var_doc()
        doc["units"].append({"id": 40, "type": "indicator", "var": 0, "value": 0})
        with pytest.raises(CircuitFormatError, match="reachable"):
            parse_circuit(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(CircuitFormatError, match="JSON"):
            parse_circuit("{not json")

    def test_roundtrip_through_json(self, three_var_circuit):
        again = parse_circuit(circuit_to_json(three_var_circuit))
        assert again.units == three_var_circuit.units
        assert again.root == three_var_circuit.root

    @pytest.mark.parametrize("section, idx, change, message", [
        ("units", 1, {"id": 0}, "duplicate unit id 0"),
        ("variables", 2, {"id": 5}, "variable ids must be dense 0..d-1, got [0, 1, 5]"),
        ("variables", 1, {"cardinality": 1}, "variable 1 has cardinality 1"),
        ("units", 0, {"var": 3}, "unit 0: unknown variable 3"),
        ("units", 0, {"value": 2}, "unit 0: value 2 out of range"),
        ("units", 9, {"children": [2]}, "product 9 needs at least 2 children"),
        ("units", 13, {"children": [], "weights": []}, "sum 13 has no children"),
        ("units", 13, {"weights": ["0.5", "0.25", "0.25"]},
         "sum 13: children/weights length mismatch"),
        ("units", 13, {"weights": ["1.5", "-0.5"]}, "sum 13 has a negative weight"),
        ("units", 9, {"type": "max"}, "unit 9: unknown type 'max'"),
    ], ids=["duplicate-id", "sparse-variables", "cardinality-one", "indicator-variable",
            "indicator-value", "one-child-product", "childless-sum", "weights-length",
            "negative-weight", "unknown-type"])
    def test_structural_defect_named(self, section, idx, change, message):
        doc = three_var_doc()
        doc[section][idx].update(change)
        with pytest.raises(CircuitFormatError, match=re.escape(message)):
            parse_circuit(json.dumps(doc))

    def test_root_that_is_not_a_unit(self):
        doc = three_var_doc()
        doc["root"] = 99
        with pytest.raises(CircuitFormatError, match="root id 99 is not a unit"):
            parse_circuit(json.dumps(doc))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(2, 8),
           depth=st.integers(1, 3), fanout=st.integers(2, 3))
    def test_generated_circuits_roundtrip(self, seed, n_vars, depth, fanout):
        det = generate_random_det_pc(seed, n_vars)
        circuits = [det]
        if 1 << (depth - 1) <= n_vars:
            circuits.append(generate_random_tree_pc(seed, n_vars, depth, fanout))
        for c in circuits:
            assert parse_circuit(circuit_to_json(c)).units == c.units

    @pytest.mark.parametrize("section, idx, field, bad", [
        ("units", 13, "weights", ["nan", "0.5"]),
        ("units", 13, "weights", [float("inf"), 0.5]),
        ("units", 13, "weights", ["abc", "0.5"]),
        ("units", 13, "weights", [True, "0.5"]),
        ("units", 13, "weights", "0.5"),
        ("units", 13, "children", "01"),
        ("units", 9, "children", [0.9, 1]),
        ("units", 9, "children", [0, True]),
        ("units", 9, "children", ["2", 3]),
        ("units", 9, "id", 9.0),
        ("units", 0, "var", "0"),
        ("units", 0, "value", False),
        ("variables", 0, "id", 0.0),
        ("variables", 0, "cardinality", 2.5),
        ("variables", 0, "cardinality", True),
    ])
    def test_malformed_document_rejected_at_parse_time(self, section, idx, field, bad):
        doc = three_var_doc()
        doc[section][idx][field] = bad
        # the error names the offending unit or variable
        with pytest.raises(CircuitFormatError, match=rf"{section[:-1]} {idx}\b"):
            parse_circuit(json.dumps(doc))


#: keys every document part needs, by part
REQUIRED = {"document": ("variables", "units", "root"), "variable": ("id", "cardinality"),
            "sum": ("id", "type", "children", "weights"), "product": ("id", "type", "children"),
            "indicator": ("id", "type", "var", "value")}

#: values no integer field accepts
NOT_INTS = st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.booleans(),
                     st.none(), st.lists(st.integers(), max_size=2))

#: values no weight accepts (numeric strings and ints parse as weights)
NOT_WEIGHTS = st.one_of(st.booleans(), st.none(), st.sampled_from(["abc", "", "0x"]),
                        st.lists(st.integers(), max_size=2), st.sampled_from(
                            ["nan", "inf", "-inf", float("nan"), float("inf"), -float("inf")]))


@st.composite
def malformed_documents(draw):
    """A valid generated document with one defect: a required key dropped,
    a field retyped, a child id dangling or a weight made non-finite."""
    seed = draw(st.integers(0, 2**32 - 1))
    c = (generate_random_det_pc(seed, draw(st.integers(1, 4))) if draw(st.booleans())
         else generate_random_tree_pc(seed, draw(st.integers(2, 5)), 2, 2))
    doc = json.loads(circuit_to_json(c))
    units = doc["units"]
    unit = draw(st.sampled_from(units))
    inner = [u for u in units if u["type"] != "indicator"]
    defect = draw(st.sampled_from(["drop", "retype", "dangle", "non-finite"]))
    if defect == "drop":
        part = draw(st.sampled_from([doc, draw(st.sampled_from(doc["variables"])), unit]))
        kind = ("document" if part is doc else "variable" if "cardinality" in part
                else part["type"])
        del part[draw(st.sampled_from(REQUIRED[kind]))]
    elif defect == "retype":
        field = draw(st.sampled_from(["root", "cardinality", "unit", "child", "weight"]))
        if field == "root":
            doc["root"] = draw(NOT_INTS)
        elif field == "cardinality":
            draw(st.sampled_from(doc["variables"]))[draw(st.sampled_from(["id", "cardinality"]))] \
                = draw(NOT_INTS)
        elif field == "unit":
            key = draw(st.sampled_from([k for k in unit if k not in ("children", "weights")]))
            unit[key] = draw(NOT_INTS) if key != "type" else draw(st.sampled_from(["max", 3, None]))
        else:
            u = draw(st.sampled_from(inner))
            key = "weights" if field == "weight" and u["type"] == "sum" else "children"
            if draw(st.booleans()):
                u[key] = draw(st.one_of(st.text(max_size=3), st.integers(), st.none()))
            else:
                u[key][draw(st.integers(0, len(u[key]) - 1))] = draw(
                    NOT_WEIGHTS if key == "weights" else NOT_INTS)
    elif defect == "dangle":
        u = draw(st.sampled_from(inner))
        u["children"][draw(st.integers(0, len(u["children"]) - 1))] = \
            len(units) + draw(st.integers(0, 10))
    else:
        sums = [u for u in units if u["type"] == "sum"]
        u = draw(st.sampled_from(sums))
        u["weights"][draw(st.integers(0, len(u["weights"]) - 1))] = draw(st.sampled_from(
            ["nan", "inf", "-inf", "NaN", "Infinity", float("inf"), float("nan")]))
    return json.dumps(doc)


class TestParseMutations:
    @settings(max_examples=300, deadline=None)
    @given(malformed_documents())
    def test_every_defect_is_rejected_at_parse_time(self, text):
        with pytest.raises(CircuitFormatError):
            parse_circuit(text)


class TestValidate:
    def test_three_var_fixture_is_fully_structured(self, three_var_circuit):
        rep = validate(three_var_circuit)
        assert rep.smooth and rep.decomposable and rep.deterministic
        assert rep.determinism_check == "exhaustive"
        assert rep.violations == ()

    def test_non_smooth_detected(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 1, 0),
                 SumUnit(2, (0, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 2)
        rep = validate(c)
        assert not rep.smooth
        assert any(uid == 2 for uid, _ in rep.violations)

    def test_non_decomposable_detected(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 ProductUnit(2, (0, 1))]
        c = Circuit([Variable(0, 2)], units, 2)
        assert not validate(c).decomposable

    def test_non_deterministic_detected_exhaustively(self):
        # both children positive on X=0
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 0),
                 SumUnit(2, (0, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2)], units, 2)
        rep = validate(c)
        assert not rep.deterministic
        assert rep.determinism_check == "exhaustive"

    def test_random_tree_pc_not_deterministic(self):
        c = generate_random_tree_pc(seed=1, n_vars=4, depth=2, sum_fanout=2)
        rep = validate(c)
        assert rep.smooth and rep.decomposable
        assert not rep.deterministic
        assert rep.determinism_check == "exhaustive"

    @pytest.mark.parametrize("make", [
        # 16,379 units x 4,096 states: one float64 per cell would be 512 MiB
        lambda: generate_random_det_pc(seed=0, n_vars=12),
        # 2**20 states of 20 variables: all of them as int64 take 160 MiB
        lambda: generate_random_tree_pc(seed=0, n_vars=20, depth=2, sum_fanout=2),
    ], ids=["det-12", "tree-20"])
    def test_exhaustive_check_memory_is_bounded(self, make):
        c = make()
        tracemalloc.start()
        try:
            rep = validate(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.determinism_check == "exhaustive"
        assert peak < 128 * 2**20

    def test_syntactic_path_on_large_state_space(self):
        # 21 binary variables exceed the exhaustive budget
        c = generate_random_det_pc(seed=0, n_vars=5)
        big = generate_random_tree_pc(seed=0, n_vars=21, depth=2, sum_fanout=2)
        assert validate(big).determinism_check == "syntactic"
        assert validate(c).determinism_check == "exhaustive"
        assert validate(c).deterministic


def random_ternary_pc(seed: int, n_vars: int = 5) -> Circuit:
    """A decision tree over ternary variables whose sums sometimes give an
    edge zero weight and, at odd seeds, sometimes repeat a value's branch,
    so that they overlap."""
    rng = np.random.default_rng(seed)
    repeat = 0.1 * (seed % 2)
    units: list = []

    def add(unit_type, *args) -> int:
        units.append(unit_type(len(units), *args))
        return len(units) - 1

    def build(var: int) -> int:
        values = [0, 1, 2] + ([int(rng.integers(3))] if rng.random() < repeat else [])
        kids = [add(IndicatorUnit, var, v) for v in values]
        if var + 1 < n_vars:
            kids = [add(ProductUnit, (k, build(var + 1))) for k in kids]
        w = rng.dirichlet(np.ones(len(kids)))
        if rng.random() < 0.3:
            w[rng.integers(len(w))] = 0.0
        return add(SumUnit, tuple(kids), tuple((w / w.sum()).tolist()))

    root = build(0)
    return Circuit([Variable(i, 3) for i in range(n_vars)], units, root)


def determinism_violations(c: Circuit):
    return [v for v in validate(c).violations if v[1].startswith("multiple children")]


class TestPackedDeterminism:
    """validate's exhaustive check runs on uint64 words over the compiled
    layout; the bool-column oracle is the reference."""

    CIRCUITS = {
        **{f"det-{s}-{n}": (generate_random_det_pc, s, n) for s, n in ((0, 3), (1, 7), (2, 10))},
        **{f"tree-{s}-{n}-{d}-{f}": (generate_random_tree_pc, s, n, d, f)
           for s, n, d, f in ((0, 4, 2, 2), (1, 6, 2, 3), (2, 9, 3, 2), (3, 12, 2, 3),
                               (4, 5, 1, 3), (5, 7, 2, 2))},  # products of 2 and 3 children
        **{f"ternary-{s}": (random_ternary_pc, s) for s in range(6)},
    }

    @pytest.mark.parametrize("name", CIRCUITS)
    @pytest.mark.parametrize("cells", [None, 1], ids=["one-chunk", "64-state-chunks"])
    def test_matches_the_bool_oracle(self, name, cells, monkeypatch):
        make, *args = self.CIRCUITS[name]
        c = make(*args)
        if cells is not None:  # every chunk holds 64 states, the last one fewer
            monkeypatch.setattr(circuit, "CHECK_CELLS", cells)
        want = determinism_oracle(c)
        rep = validate(c)
        assert rep.determinism_check == "exhaustive"
        assert determinism_violations(c) == want
        assert rep.deterministic == (not want)

    def test_ternary_circuits_cover_both_outcomes(self):
        # 3**5 = 243 states: the last word holds 51 of them
        outcomes = {bool(determinism_oracle(random_ternary_pc(s))) for s in range(6)}
        assert outcomes == {False, True}

    def test_zero_weight_edge_is_flagged_but_adds_no_support(self):
        # S1 = 1.0 [X=0] + 0.0 T, where T is positive on both states: S1
        # overlaps on X=0, but its support stays X=0, so the root, which
        # adds [X=1], is deterministic
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.5, 0.5)), SumUnit(3, (0, 2), (1.0, 0.0)),
                 SumUnit(4, (3, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2)], units, 4)
        assert [uid for uid, _ in determinism_violations(c)] == [3]
        assert determinism_oracle(c) == determinism_violations(c)

    @pytest.mark.parametrize("cells", [None, 1], ids=["one-chunk", "64-state-chunks"])
    def test_violation_on_the_last_state_only(self, cells, monkeypatch):
        # the root mixes the all-ones state with a product of Bernoullis:
        # they overlap on state 127 of 128 alone, past the first word
        if cells is not None:
            monkeypatch.setattr(circuit, "CHECK_CELLS", cells)
        units = [IndicatorUnit(2 * v + b, v, b) for v in range(7) for b in (0, 1)]
        ones = len(units)
        units.append(ProductUnit(ones, tuple(2 * v + 1 for v in range(7))))
        for v in range(7):
            units.append(SumUnit(ones + 1 + v, (2 * v, 2 * v + 1), (0.5, 0.5)))
        units.append(ProductUnit(ones + 8, tuple(range(ones + 1, ones + 8))))
        units.append(SumUnit(ones + 9, (ones, ones + 8), (0.5, 0.5)))
        c = Circuit([Variable(v, 2) for v in range(7)], units, ones + 9)
        assert determinism_violations(c) == determinism_oracle(c) == [
            (ones + 9, "multiple children positive on a complete state")]


def non_smooth_pc() -> Circuit:
    """Sums over children with differing scopes: S5 = X0=1 + X0=0 * X1=0
    passes on X0, S6 = X1=0 + X0=0 * X1=0 overlaps on X1 and leaves X0 to
    one child, and the root mixes them."""
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
             ProductUnit(3, (0, 2)), IndicatorUnit(4, 1, 1),
             SumUnit(5, (1, 3), (0.5, 0.5)), SumUnit(6, (2, 3), (0.5, 0.5)),
             SumUnit(7, (5, 6, 4), (0.25, 0.25, 0.5))]
    return Circuit([Variable(0, 2), Variable(1, 2)], units, 7)


def non_decomposable_pc() -> Circuit:
    """Smooth sums over products whose children share X0: P5 = X0=0 * (X0=0
    + X0=1), P6 = X0=1 * (X0=0 + X0=1) * X1=0 and P9 = X0=0 * X0=1, which
    admits no value of X0."""
    units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
             IndicatorUnit(3, 1, 1), SumUnit(4, (0, 1), (0.5, 0.5)),
             ProductUnit(5, (0, 4)), ProductUnit(6, (1, 4, 2)), ProductUnit(7, (5, 3)),
             ProductUnit(8, (1, 2)), ProductUnit(9, (0, 1)), SumUnit(10, (9, 0), (0.5, 0.5)),
             ProductUnit(11, (10, 3)), SumUnit(12, (7, 6, 8, 11), (0.25, 0.25, 0.25, 0.25))]
    return Circuit([Variable(0, 2), Variable(1, 2)], units, 12)


def random_dag_pc(seed: int, n_vars: int = 4, n_inner: int = 10) -> Circuit:
    """A DAG over ternary variables whose products and sums take two or
    three random earlier units, so it is in general neither smooth nor
    decomposable, and whose sums sometimes give an edge zero weight."""
    rng = np.random.default_rng(seed)
    units: list = [IndicatorUnit(3 * v + x, v, x) for v in range(n_vars) for x in range(3)]
    for _ in range(n_inner):
        kids = tuple(rng.choice(len(units), int(rng.integers(2, 4)), replace=False).tolist())
        if rng.random() < 0.5:
            units.append(ProductUnit(len(units), kids))
        else:
            w = rng.dirichlet(np.ones(len(kids)))
            w[0] *= rng.random() < 0.7
            units.append(SumUnit(len(units), kids, tuple((w / w.sum()).tolist())))
    used = {k for u in units for k in getattr(u, "children", ())}
    tops = tuple(u.id for u in units if u.id not in used)
    units.append(SumUnit(len(units), tops, (1 / len(tops),) * len(tops)))
    return Circuit([Variable(v, 3) for v in range(n_vars)], units, len(units) - 1)


def syntactic_violations(c: Circuit, monkeypatch) -> list:
    monkeypatch.setattr(circuit, "EXHAUSTIVE_STATE_LIMIT", 0)
    rep = validate(c)
    assert rep.determinism_check == "syntactic"
    violations = [v for v in rep.violations if v[1].startswith("determinism unverified")]
    assert rep.deterministic == (not violations)
    return violations


class TestSyntacticDeterminism:
    """validate's syntactic check walks the compiled layout on one bool per
    (variable, value); the per-unit walk over admissible value sets is the
    reference."""

    CIRCUITS = {
        **{name: lambda make=make, args=args: make(*args)
           for name, (make, *args) in TestPackedDeterminism.CIRCUITS.items()},
        "three-var": lambda: parse_circuit(json.dumps(three_var_doc())),
        "three-var-distinct": lambda: parse_circuit(json.dumps(three_var_doc(
            w_root=("0.5", "0.3", "0.2"), w_left=("0.6", "0.4"), w_right=("0.7", "0.3")))),
        "non-smooth": non_smooth_pc,
        "non-decomposable": non_decomposable_pc,
    }

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_matches_the_set_oracle(self, name, monkeypatch):
        c = self.CIRCUITS[name]()
        assert syntactic_violations(c, monkeypatch) == syntactic_determinism_oracle(c)

    def test_hand_built_circuits_flag_some_sums_and_pass_others(self):
        assert [uid for uid, _ in syntactic_determinism_oracle(non_smooth_pc())] == [6, 7]
        assert [uid for uid, _ in syntactic_determinism_oracle(non_decomposable_pc())] == [12]

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_flags_every_sum_the_exhaustive_check_flags(self, name, monkeypatch):
        # disjoint admissible values on some variable make two children
        # disjoint on every state, so the syntactic condition is sufficient
        c = self.CIRCUITS[name]()
        exhaustive = {uid for uid, _ in determinism_oracle(c)}
        assert exhaustive <= {uid for uid, _ in syntactic_violations(c, monkeypatch)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sound_on_random_dags(self, seed):
        c = random_dag_pc(seed)
        exhaustive = determinism_oracle(c)
        assert determinism_violations(c) == exhaustive
        with pytest.MonkeyPatch.context() as mp:
            syntactic = {uid for uid, _ in syntactic_violations(c, mp)}
        assert {uid for uid, _ in exhaustive} <= syntactic

    def test_child_that_admits_no_value_is_disjoint(self, monkeypatch):
        # P3 = X0=0 * X0=1 is zero on every state, so S4 = P3 + X1=0 is
        # deterministic; the set oracle compares only variables in both
        # children's scopes and flags S4
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
                 ProductUnit(3, (0, 1)), SumUnit(4, (3, 2), (0.5, 0.5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 4)
        assert determinism_oracle(c) == []
        assert [uid for uid, _ in syntactic_determinism_oracle(c)] == [4]
        assert syntactic_violations(c, monkeypatch) == []


class TestTopologicalOrder:
    def test_children_precede_parents(self, three_var_circuit):
        order = three_var_circuit.order
        pos = {uid: i for i, uid in enumerate(order)}
        for u in three_var_circuit.units.values():
            for ch in getattr(u, "children", ()):
                assert pos[ch] < pos[u.id]

    def test_stable_id_order_among_ready_units(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2)], units, 2)
        assert c.order == (0, 1, 2)


class TestGenerators:
    def test_same_seed_same_circuit(self):
        a = generate_random_tree_pc(seed=7, n_vars=8, depth=3, sum_fanout=3)
        b = generate_random_tree_pc(seed=7, n_vars=8, depth=3, sum_fanout=3)
        assert a.units == b.units

    def test_structural_properties(self):
        c = generate_random_tree_pc(seed=7, n_vars=8, depth=3, sum_fanout=3)
        rep = validate(c)
        assert rep.smooth and rep.decomposable

    def test_total_mass_one(self):
        c = generate_random_tree_pc(seed=7, n_vars=8, depth=3, sum_fanout=3)
        total = float(np.sum(eval_double(c, enumerate_states(c))))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_depth(self):
        with pytest.raises(ValueError, match="depth"):
            generate_random_tree_pc(seed=0, n_vars=4, depth=4, sum_fanout=2)

    @pytest.mark.parametrize("make, args, message", [
        (generate_random_tree_pc, (0, 1, 1, 2), "need at least 2 variables"),
        (generate_random_tree_pc, (0, 4, 0, 2), "depth must be >= 1"),
        (generate_random_tree_pc, (0, 4, 2, 1), "sum_fanout must be >= 2"),
        (generate_random_det_pc, (0, 0), "need at least 1 variable"),
        (generate_random_tree_pc, (1.5, 4, 2, 2), "seed must be an integer, got 1.5"),
        (generate_random_tree_pc, (0, 4.0, 2, 2), "n_vars must be an integer, got 4.0"),
        (generate_random_tree_pc, (0, 4, 2.0, 2), "depth must be an integer, got 2.0"),
        (generate_random_tree_pc, (0, 4, 2, 3.0), "sum_fanout must be an integer, got 3.0"),
        (generate_random_det_pc, (True, 3), "seed must be an integer, got True"),
        (generate_random_det_pc, (0, True), "n_vars must be an integer, got True"),
    ], ids=["one-variable", "depth-zero", "fanout-one", "no-variables", "float-seed",
            "float-n_vars", "float-depth", "float-fanout", "bool-seed", "bool-n_vars"])
    def test_arguments_checked(self, make, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make(*args)

    def test_numpy_integer_arguments_accepted(self):
        assert generate_random_tree_pc(np.int64(7), np.int32(8), np.int64(3), np.int64(3)).units \
            == generate_random_tree_pc(7, 8, 3, 3).units
        assert generate_random_det_pc(np.int64(7), np.int32(5)).units == \
            generate_random_det_pc(7, 5).units

    def test_det_generator_is_deterministic_and_normalized(self):
        for seed in range(5):
            c = generate_random_det_pc(seed=seed, n_vars=6)
            rep = validate(c)
            assert rep.smooth and rep.decomposable and rep.deterministic
            total = float(np.sum(eval_double(c, enumerate_states(c))))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestEvalDouble:
    def test_matches_recursive_reference(self, three_var_distinct):
        c = three_var_distinct
        states = enumerate_states(c)
        probs = eval_double(c, states)
        for x, p in zip(states, probs):
            assert p == pytest.approx(brute_force_probability(c, x), abs=1e-15)

    def test_three_var_distribution_sums_to_one(self, three_var_circuit):
        probs = eval_double(three_var_circuit, enumerate_states(three_var_circuit))
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("row, message", [
        ([0, 1, 7], r"row 0, column 2: value 7"),
        ([0, 1, -3], r"row 0, column 2: value -3"),
        ([0, 1, 1, 0], r"4 values, the circuit has 3"),
        ([0, 1], r"2 values, the circuit has 3"),
        ([0, 1, 0.5], r"row 0, column 2: value 0.5 is not an integer"),
        ([1.9, 1, 0], r"row 0, column 0: value 1.9 is not an integer"),
        ([0, 1, math.nan], r"row 0, column 2: value nan is not an integer"),
        ([True, False, True], r"rows must hold integers, not booleans"),
    ], ids=["above-cardinality", "negative", "extra-column", "missing-column",
            "fraction", "fraction-above-one", "nan", "bools"])
    def test_rejects_out_of_range_rows(self, three_var_circuit, row, message):
        with pytest.raises(ValueError, match=message):
            eval_double(three_var_circuit, [row])


class TestTreeMass:
    def test_root_edges_equal_their_weights(self, three_var_distinct):
        c = three_var_distinct
        for i, w in enumerate(c.units[c.root].weights):
            assert edge_masses(c)[(c.root, i)] == pytest.approx(w, abs=1e-15)

    def test_interior_edge_matches_tree_enumeration(self, three_var_distinct):
        c = three_var_distinct
        masses = edge_masses(c)
        for edge in c.weight_edges():
            assert masses[edge] == pytest.approx(
                tree_mass_oracle(c, edge), abs=1e-12)

    def test_random_circuit_matches_tree_enumeration(self):
        c = generate_random_tree_pc(seed=3, n_vars=4, depth=2, sum_fanout=2)
        masses = edge_masses(c)
        for edge in c.weight_edges():
            assert masses[edge] == pytest.approx(
                tree_mass_oracle(c, edge), abs=1e-12)

    def test_zero_weight_edge_has_zero_mass(self):
        c = toy_sum_over_indicators(weights=(0.0, 1.0))
        assert edge_masses(c)[(2, 0)] == 0.0

    def test_per_sum_masses_total_to_flow_above(self, three_var_distinct):
        c = three_var_distinct
        masses = edge_masses(c)
        # interior sum 13 is fed by root children 0 and 1
        w = c.units[c.root].weights
        assert sum(masses[(13, i)] for i in range(2)) == pytest.approx(w[0] + w[1], abs=1e-12)


class TestMinPositiveValue:
    def test_single_sum(self):
        assert min_positive_value(toy_sum_over_indicators((0.25, 0.75))) == 0.25

    def test_stacked_sums(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.1, 0.9)),
                 IndicatorUnit(3, 1, 0), IndicatorUnit(4, 1, 1),
                 SumUnit(5, (3, 4), (0.1, 0.9)),
                 ProductUnit(6, (2, 5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 6)
        assert min_positive_value(c) == pytest.approx(0.01, abs=1e-15)

    def test_matches_exhaustive_minimum_on_support(self, three_var_circuit):
        c = three_var_circuit
        probs = eval_double(c, enumerate_states(c))
        assert min_positive_value(c) == pytest.approx(
            float(np.min(probs[probs > 0])), abs=1e-15)
        assert min_positive_value(c) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_weights_skipped(self):
        assert min_positive_value(toy_sum_over_indicators((0.0, 1.0))) == 1.0


class TestSample:
    def test_shape_and_range(self, three_var_circuit):
        x = sample(three_var_circuit, seed=5, n=64)
        assert x.shape == (64, 3)
        assert np.all((x >= 0) & (x <= 1))

    def test_reproducible(self, three_var_circuit):
        a = sample(three_var_circuit, seed=5, n=32)
        b = sample(three_var_circuit, seed=5, n=32)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_non_integer_count_rejected(self, three_var_circuit, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample(three_var_circuit, 0, n)

    @pytest.mark.parametrize("seed", [1.5, True, "0"])
    def test_non_integer_seed_rejected(self, three_var_circuit, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(three_var_circuit, seed, 2)

    def test_numpy_integer_seed_accepted(self, three_var_circuit):
        assert np.array_equal(sample(three_var_circuit, np.int64(5), 8),
                              sample(three_var_circuit, 5, 8))

    def test_numpy_integer_count_accepted(self, three_var_circuit):
        assert np.array_equal(sample(three_var_circuit, 5, np.int64(8)),
                              sample(three_var_circuit, 5, 8))

    def test_samples_stay_on_support(self, three_var_circuit):
        c = three_var_circuit
        x = sample(c, seed=9, n=256)
        assert np.all(eval_double(c, x) > 0)

    def test_bernoulli_concentration(self):
        c = toy_sum_over_indicators((0.5, 0.5))
        x = sample(c, seed=123, n=1_000_000)
        assert abs(float(np.mean(x)) - 0.5) < 0.002

    def test_loglik_matches_entropy(self):
        c = generate_random_tree_pc(seed=7, n_vars=8, depth=3, sum_fanout=3)
        states = enumerate_states(c)
        p = eval_double(c, states)
        exact_mean_log = float(np.sum(p[p > 0] * np.log2(p[p > 0])))
        x = sample(c, seed=11, n=20_000)
        ll = np.log2(eval_double(c, x))
        se = float(np.std(ll, ddof=1) / math.sqrt(len(ll)))
        assert abs(float(np.mean(ll)) - exact_mean_log) <= 3 * se

    def test_uncovered_variable_reported(self):
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1),
                 SumUnit(2, (0, 1), (0.5, 0.5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 2)
        with pytest.raises(ValueError, match="unassigned"):
            sample(c, seed=0, n=4)

    def test_non_smooth_circuit_reports_unassigned_variables(self):
        # (X0=0 * X1=0) + (X1=1): the second branch never assigns X0
        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 1, 0), IndicatorUnit(2, 1, 1),
                 ProductUnit(3, (0, 1)), SumUnit(4, (3, 2), (0.5, 0.5))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 4)
        with pytest.raises(ValueError, match=r"variables \[0\] unassigned"):
            sample(c, seed=0, n=64)


def reweighted(c: Circuit, weights) -> Circuit:
    """The same structure with each sum's weights replaced by weights(u)."""
    units = [SumUnit(u.id, u.children, tuple(weights(u))) if isinstance(u, SumUnit) else u
             for u in c.units.values()]
    return Circuit(c.variables, units, c.root)


def equal_weights(u: SumUnit):
    return (1 / len(u.children),) * len(u.children)


def some_zero_weights(u: SumUnit):
    """Zero on each even position but the last, equal on the rest."""
    keep = [k % 2 == 1 or k == len(u.children) - 1 for k in range(len(u.children))]
    return [k / sum(keep) for k in keep]


def short_of_one(u: SumUnit):
    """Ten equal weights, whose normalized running sum ends below one, or
    weights a little short of summing to one."""
    if len(u.children) == 10:
        return (0.1,) * 10
    return [w * (1 - 4e-13) for w in u.weights]


def wide_sum(n_children: int, seed: int) -> Circuit:
    """A root sum of n_children products (X0 = k) x (a sum over X1), with
    Dirichlet weights."""
    rng = np.random.default_rng(seed)
    units = [IndicatorUnit(0, 1, 0), IndicatorUnit(1, 1, 1)]
    kids = []
    for k in range(n_children):
        w = rng.dirichlet(np.ones(2))
        units += [IndicatorUnit(len(units), 0, k), SumUnit(len(units) + 1, (0, 1), tuple(w))]
        units.append(ProductUnit(len(units), (len(units) - 2, len(units) - 1)))
        kids.append(len(units) - 1)
    w = rng.dirichlet(np.ones(n_children))
    units.append(SumUnit(len(units), tuple(kids), tuple(w / w.sum())))
    return Circuit([Variable(0, n_children), Variable(1, 2)], units, len(units) - 1)


class TestSampleAgainstOracle:
    """`sample` draws the same stream as the per-unit walk of
    `oracles.sample_oracle` and returns the same rows, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weights", [None, equal_weights, some_zero_weights],
                             ids=["dirichlet", "equal", "zeros"])
    def test_random_circuits(self, seed, weights):
        for c in (generate_random_tree_pc(seed, 2 + seed % 5, 1 + seed % 2, 2 + seed % 3),
                  generate_random_det_pc(seed, 1 + seed % 6)):
            c = reweighted(c, weights) if weights else c
            assert np.array_equal(sample(c, seed, 200), sample_oracle(c, seed, 200))

    @pytest.mark.parametrize("n_children", [9, 13])
    def test_sum_with_many_children(self, n_children):
        for seed in range(4):
            c = wide_sum(n_children, seed)
            for weights in (None, equal_weights, some_zero_weights):
                d = reweighted(c, weights) if weights else c
                assert np.array_equal(sample(d, seed, 300), sample_oracle(d, seed, 300))

    @pytest.mark.parametrize("weights", [equal_weights, some_zero_weights, short_of_one],
                             ids=["equal", "zeros", "short"])
    def test_draws_on_cumulative_weights(self, weights, monkeypatch):
        # uniforms from the stream almost never meet a cumulative weight;
        # these sit on them, and next to them, where the search side, the
        # normalization and the clamp to the last child decide the pick
        c = reweighted(wide_sum(10, 1), weights)
        ends = [0.0, 1.0]
        for u in c.sum_units():
            w = np.asarray(u.weights)
            ends += np.cumsum(w).tolist() + np.cumsum(w / np.sum(w)).tolist()
        ends = np.array(ends)
        pool = np.unique(np.concatenate([ends, np.nextafter(ends, 0), np.nextafter(ends, 2)]))
        pool = pool[(pool >= 0) & (pool < 1)]
        real_rng = np.random.default_rng

        class OnTheEnds:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def random(self, size):
                return self.rng.choice(pool, size)

        monkeypatch.setattr(np.random, "default_rng", OnTheEnds)
        assert np.array_equal(sample(c, 5, 2000), sample_oracle(c, 5, 2000))

    def test_draw_table_is_built_by_the_first_sample(self):
        # compiling is part of every query's set-up; only sample needs the table
        c = generate_random_tree_pc(3, 6, 2, 3)
        comp = _compile(c)
        assert "draw_table" not in vars(comp)
        first = sample(c, 3, 50)
        assert "draw_table" in vars(comp)
        assert np.array_equal(first, sample_oracle(c, 3, 50))
        assert np.array_equal(sample(c, 4, 50), sample_oracle(c, 4, 50))

    @pytest.mark.parametrize("n", [0, 1, 257])
    def test_batch_sizes(self, n, three_var_circuit):
        for c in (three_var_circuit, generate_random_tree_pc(3, 6, 2, 3),
                  generate_random_det_pc(3, 5)):
            x = sample(c, 17, n)
            assert x.shape == (n, c.n_vars) and x.dtype == np.int64
            assert np.array_equal(x, sample_oracle(c, 17, n))

    @pytest.mark.parametrize("units, root", [
        # the root's scope leaves X1 out
        ([IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), SumUnit(2, (0, 1), (0.5, 0.5))], 2),
        # (X0=0 * X1=0) + (X1=1): the second branch never assigns X0
        ([IndicatorUnit(0, 0, 0), IndicatorUnit(1, 1, 0), IndicatorUnit(2, 1, 1),
          ProductUnit(3, (0, 1)), SumUnit(4, (3, 2), (0.5, 0.5))], 4),
    ], ids=["root-scope", "not-smooth"])
    def test_unassigned_variable_errors(self, units, root):
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, root)
        with pytest.raises(ValueError) as want:
            sample_oracle(c, 0, 64)
        with pytest.raises(ValueError, match="unassigned") as got:
            sample(c, 0, 64)
        assert str(got.value) == str(want.value)

    def test_non_decomposable_product_follows_map(self):
        # (X0=0 * X0=1 * (X1=0 + X1=1)) reaches both values of X0; a row
        # takes the value MAP's descent gives, that of the test listed last
        from aaipc.floats import FLOAT64
        from aaipc.inference import MultiplierPlan, eval_map

        units = [IndicatorUnit(0, 0, 0), IndicatorUnit(1, 0, 1), IndicatorUnit(2, 1, 0),
                 IndicatorUnit(3, 1, 1), SumUnit(4, (2, 3), (0.25, 0.75)),
                 ProductUnit(5, (0, 1, 4))]
        c = Circuit([Variable(0, 2), Variable(1, 2)], units, 5)
        x = sample(c, 4, 64)
        assert eval_map(c, {}, FLOAT64, MultiplierPlan.all_exact(c)).assignment[0] == 1
        assert (x[:, 0] == 1).all()
        assert np.array_equal(x[:, 1], sample_oracle(c, 4, 64)[:, 1])


class TestEnumerateStates:
    def test_budget_enforced(self):
        c = generate_random_tree_pc(seed=0, n_vars=21, depth=2, sum_fanout=2)
        with pytest.raises(ValueError, match="budget"):
            enumerate_states(c)
