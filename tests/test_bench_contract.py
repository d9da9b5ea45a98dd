"""The names the traced benchmark wraps still exist where it looks for them.

`perfbench/tracing.py` patches module and class attributes one by one; a
refactor that moves or renames one of them would make the traced run fail,
or silently stop timing that layer.  The tracer is loaded from its file and
only read, never edited.
"""

import importlib.util
from pathlib import Path

import pytest

from aaipc import analysis, circuit, inference
from aaipc.floats import FloatConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_leaf_resolves_through_vars(tracing):
    for owner, attr, _name, _size in tracing.SPANS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    for owner, attr in tracing.LEAVES:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_plan_builders_are_classmethods(tracing):
    for attr in tracing.PLAN_BUILDERS:
        assert isinstance(vars(inference.MultiplierPlan)[attr], classmethod), attr


def test_queries_reach_the_wrapped_evaluator_methods(tracing):
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.SPANS}
    tracer = tracing.Tracer()
    c = circuit.generate_random_tree_pc(0, 4, 2, 2)
    rows = circuit.sample(c, 0, 4)
    rows[0, 1] = -1
    cfg = FloatConfig(8, 10)
    with tracer.instrumented():
        inference.compare_queries(c, rows, cfg, inference.MultiplierPlan.all_aai(c))
        analysis.delta_nondet_mc(c, cfg, 4, 0)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"inference.evaluator_init", "inference.mar", "inference.map",
            "inference.restricted_value", "inference.plan_build"} <= names
    assert {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.SPANS} == before
