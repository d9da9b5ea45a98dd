"""The benchmark's seed-0 results still match the digests it stores.

`perfbench/run.py --seed 0` compares every checked result with
`perfbench/expected.json` and reports `correct: false` when one moves.  This
runs the same checks once per workload, at full size and without timing: set
up, draw the inputs, check the outputs, then one operation per pool entry.
The workloads are loaded from their file and only read, never edited.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXPECTED)
def test_seed_zero_digests(workloads, name):
    expected = EXPECTED[name]
    wl = workloads.WORKLOADS[name](0, workloads.FULL)
    state = wl.setup()
    pool = wl.prepare(state)
    digest, problems = wl.check_outputs(state)
    assert (digest, problems) == (expected["check"], [])
    ops = []
    for k in range(pool):
        op_digest, _, op_problems = wl.check(state, k, wl.op(state, k)[1])
        assert op_problems == [], f"op {k}"
        ops.append(op_digest)
    assert ops == expected["ops"]
