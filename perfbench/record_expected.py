"""Write expected.json: digests of every checked result at the default seed.

    python3 perfbench/record_expected.py

Run it only when the simulator's outputs are meant to change, and say why in
the change that commits the new file.
"""

import json
import sys

import run

run.import_program()

from workloads import FULL, WORKLOADS  # noqa: E402


def record(name: str) -> dict:
    wl = WORKLOADS[name](0, FULL)
    state = wl.setup()
    pool = wl.prepare(state)
    digest, problems = wl.check_outputs(state)
    ops = []
    for k in range(pool):
        d, _, op_problems = wl.check(state, k, wl.op(state, k)[1])
        problems += op_problems
        ops.append(d)
    if problems:
        sys.exit(f"{name}: results break the invariants: {problems}")
    return {"check": digest, "ops": ops}


if __name__ == "__main__":
    doc = {name: record(name) for name in WORKLOADS}
    run.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
