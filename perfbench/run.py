"""Benchmark of the aaipc simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tree-batch --seed 0 --seconds 30 --trace 0

One process, one thread, one closed-loop caller: each operation starts when
the previous one has finished, until --seconds have passed.  Every result is
checked; the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 each operation runs twice, untraced and then
traced, and the metrics are the per-layer ones derived from the spans, which
are written to .perfbench_out/.  The exit code is 1 when a check fails, and 2
when the checkout holds no aaipc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def import_program():
    """Import aaipc from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from aaipc import analysis
    except ImportError as exc:
        print(f"perfbench: cannot import aaipc from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(analysis.__file__).resolve().is_relative_to(src):
        print(f"perfbench: aaipc was imported from {analysis.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


class Checker:
    """Counts operations and failures; compares digests with the stored
    ones for the default seed, and with the first result otherwise."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.seen: dict[int, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict = {}

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def check_phase(self, digest: str, problems: list[str]) -> None:
        if self.expected is not None and digest != self.expected["check"]:
            problems = problems + [f"bit-level digest {digest} != {self.expected['check']}"]
        self.record("check", problems)

    def op(self, wl, state, k: int, pool: int, result) -> None:
        digest, outputs, problems = wl.check(state, k, result)
        i = k % pool
        want = self.expected["ops"][i] if self.expected is not None else self.seen.get(i)
        if want is not None and digest != want:
            problems = problems + [f"digest {digest} != {want}"]
        self.seen.setdefault(i, digest)
        self.outputs = self.outputs or outputs
        self.record(f"op {k}", problems)

    def run(self, fn, *args):
        """Call fn; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            self.record("op", [traceback.format_exc(limit=3)])
            return None


def median(values) -> float:
    """Median, or 0.0 when every operation failed (the run is then marked
    incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def run(args) -> tuple[Checker, dict, dict]:
    from microbench import float_op_ns
    from speed import SpeedSampler, WallClock
    from tracing import Tracer, layer_figure
    from workloads import FULL, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size)
    expected = None
    if args.seed == 0 and args.size == FULL:
        expected = json.loads(EXPECTED.read_text())[args.workload]
    checker = Checker(expected)
    if not args.trace:
        with SpeedSampler() as clock:
            setups, state, ops = measure(wl, checker, clock, args.seconds)
        op_s = [clock.seconds(iv) for iv, _ in ops]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(clock.seconds(iv) for iv in setups), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "success_rate": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
            "items_per_s": (sum(n for _, n in ops) / sum(op_s) if ops else 0.0, "1/s"),
            "op_ms_p50": (median(op_s) * 1e3, "ms"),
        }
        return checker, metrics, {"ops": len(ops),
                                  "wall_op_ms_p50": median(iv[2] for iv, _ in ops) * 1e3}

    tracer = Tracer()
    pairs = []
    setups, state, ops = measure(wl, checker, WallClock(), args.seconds, tracer, pairs)
    tracer.group = "probe"
    with tracer.instrumented():
        checker.run(wl.probe, state)

    metrics = {name: (v, "ns") for name, v in
               float_op_ns(state["cfg"], args.seed, 64 if wl.tiny else 1000).items()}
    metrics.update({name: (v, "count") for name, v in wl.counts(state).items()})
    for name in ("aai_mul", "exact_mul", "exact_add", "encode"):
        metrics[f"floats.calls.{name}"] = (median(
            leaves.get(f"floats.{name}", (0, 0))[0] for _, leaves in pairs), "count")
    metrics["floats.self_s"] = (median(
        sum(ns for _, ns in leaves.values()) for _, leaves in pairs) / 1e9, "s")
    for metric, span, unit, how in LAYER_FIGURES:
        metrics[metric] = (layer_figure(tracer, span, **how), unit)
    metrics["trace.overhead_s"] = (median(d for d, _ in pairs), "s")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.json", environment())
    return checker, metrics, {"ops": len(ops), "spans": len(tracer.spans)}


# (metric, span name, unit, how layer_figure reduces the spans)
LAYER_FIGURES = [
    ("circuit.parse_s", "circuit.parse", "s", {}),
    ("circuit.validate_s", "circuit.validate", "s", {}),
    ("circuit.eval_double_ns_per_unit_row", "circuit.eval_double", "ns", {"per_size": True}),
    ("circuit.edge_masses_s", "circuit.edge_masses", "s", {}),
    ("circuit.sample_ns_per_row", "circuit.sample", "ns", {"per_size": True}),
    ("inference.evaluator_init_s", "inference.evaluator_init", "s", {}),
    ("inference.plan_build_s", "inference.plan_build", "s", {}),
    ("inference.mar_ns_per_unit", "inference.mar", "ns", {"per_size": True}),
    ("inference.map_ns_per_unit", "inference.map", "ns", {"per_size": True}),
    ("inference.restricted_value_s", "inference.restricted_value", "s", {}),
    ("inference.compare_self_s", "inference.compare", "s", {"use_self": True}),
    ("analysis.delta_det.self_s", "analysis.delta_det", "s", {"use_self": True}),
    ("analysis.kl.self_s", "analysis.kl", "s", {"use_self": True}),
    ("analysis.mc.self_s", "analysis.mc", "s", {"use_self": True}),
    ("analysis.map_failure.self_s", "analysis.map_failure", "s", {"use_self": True}),
]


def measure(wl, checker, clock, seconds, tracer=None, pairs=None):
    """Set up SETUP_REPEATS times, check the outputs once, then run one
    operation after another until `seconds` have passed.

    With a tracer, every operation runs again traced, and `pairs` gets its
    wall time and the calls and ns of each floats leaf.
    Returns (set-up intervals, state, [(operation interval, items)]).
    """
    def call(group, fn, *args):
        if tracer is None:
            return clock.timed(fn, *args)
        tracer.group = group
        with tracer.instrumented():
            return clock.timed(fn, *args)

    setups = []
    for r in range(SETUP_REPEATS):
        iv, state = call(f"setup{r}", wl.setup)
        setups.append(iv)
    _, pool = call(f"setup{SETUP_REPEATS - 1}", wl.prepare, state)
    checker.check_phase(*wl.check_outputs(state))

    ops = []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        res = checker.run(clock.timed, wl.op, state, k)
        if res is not None:
            iv, (n, result) = res
            ops.append((iv, n))
            checker.op(wl, state, k, pool, result)
        if tracer is not None and res is not None:
            before = tracer.leaf_snapshot()
            res = checker.run(call, f"op{k}", wl.op, state, k)
            if res is not None:
                iv, (_, result) = res
                after = tracer.leaf_snapshot()
                pairs.append((iv[2] - ops[-1][0][2], {name: (c - before.get(name, (0, 0))[0],
                                             ns - before.get(name, (0, 0))[1])
                                      for name, (c, ns) in after.items()}))
                checker.op(wl, state, k, pool, result)
        k += 1
    return setups, state, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    checker, metrics, info = run(args)
    correct = checker.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "size": args.size, "env": environment(), "outputs": checker.outputs,
                      "problems": checker.problems[:10], **info}))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
