"""The benchmark's three workloads.

Each drives `aaipc` only through the public functions of its four modules,
always reached as module attributes so that a traced run can wrap them.
A workload builds its inputs from the seed, runs one operation at a time
(one closed-loop caller), checks every result, and offers a probe that calls
each layer entry point its operations do not reach.

tree-batch  compare_queries on batches of sampled rows over a wide random
            tree PC; both multipliers and both query kinds run, so the
            float and inference layers do nearly all the work.
det-single  one eval_mar or eval_map per call on a deep, narrow
            deterministic PC; each call builds its own evaluator, so per-call
            set-up cost shows and batching cannot help.
analysis    the paper's error analysis: delta_det, kl_bruteforce,
            delta_nondet_mc and map_failure_prob; much of the work is in the
            circuit layer, and map_failure_prob is a control that touches
            neither circuit nor inference.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from aaipc import analysis as ana
from aaipc import circuit as circ
from aaipc import floats as fl
from aaipc import inference as inf

# sizes at full scale and at the smoke-test scale
FULL, TINY = "full", "tiny"


def circuit_json(c) -> str:
    """Serialize a circuit in parse_circuit's format.

    circuit.circuit_to_json cannot be used: generate_random_tree_pc stores
    numpy int64 variable ids, which json.dumps rejects (see NOTES.md).
    """
    units = []
    for uid in sorted(c.units):
        u = c.units[uid]
        if isinstance(u, circ.SumUnit):
            units.append({"id": int(uid), "type": "sum",
                          "children": [int(ch) for ch in u.children],
                          "weights": [repr(float(w)) for w in u.weights]})
        elif isinstance(u, circ.ProductUnit):
            units.append({"id": int(uid), "type": "product",
                          "children": [int(ch) for ch in u.children]})
        else:
            units.append({"id": int(uid), "type": "indicator",
                          "var": int(u.var), "value": int(u.value)})
    return json.dumps({"variables": [{"id": int(v.id), "cardinality": int(v.cardinality)}
                                     for v in c.variables],
                       "units": units, "root": int(c.root)})


def build_circuit(generated):
    """Write a generated circuit's JSON, parse it back and validate it: the
    path a circuit takes from a file into the simulator."""
    c = circ.parse_circuit(circuit_json(generated))
    report = circ.validate(c)
    if not (report.smooth and report.decomposable):
        raise ValueError(f"generated circuit is not smooth and decomposable: "
                         f"{report.violations[:3]}")
    return c


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def levels(c) -> int:
    depth: dict[int, int] = {}
    for uid in c.order:
        u = c.units[uid]
        kids = getattr(u, "children", ())
        depth[uid] = 1 + max(depth[ch] for ch in kids) if kids else 0
    return max(depth.values()) + 1


def check_float64_baseline(c, rows) -> list[str]:
    """The FLOAT64 all-exact root must agree with eval_double to 1e-12."""
    ev = inf.CircuitEvaluator(c, fl.FLOAT64, inf.MultiplierPlan.all_exact(c))
    ref = circ.eval_double(c, rows)
    problems = []
    for x, p in zip(rows, ref):
        got = fl.decode(ev.mar(x)[0].value)
        if not abs(got - p) <= 1e-12 * p:
            problems.append(f"FLOAT64 root {got!r} differs from eval_double {p!r}")
    return problems


def probe_layers(state, rows, evidence, seed: int, tiny: bool) -> None:
    """One call into each entry point that the query workloads' operations
    and set-up do not reach: on the workload's circuit, config and plan
    where possible, and on small circuits for the analysis functions."""
    c, cfg, ev = state["circuit"], state["cfg"], state["test"]
    circ.eval_double(c, rows[np.all(rows >= 0, axis=1)])
    circ.edge_masses(c)
    mp, _, _ = ev.map_query(evidence)
    ev.restricted_value(mp.trace, evidence)
    inf.compare_queries(c, rows[:2], cfg, state["plan"])
    det = circ.generate_random_det_pc(seed, 5 if tiny else 6)
    tree = circ.generate_random_tree_pc(seed, 4, 2, 2)
    ana.delta_det(det, cfg)
    ana.kl_bruteforce(det, cfg)
    ana.delta_nondet_mc(tree, cfg, 8, seed)
    ana.map_failure_prob(1, 2, 10_000, seed)


class Workload:
    """Interface the runner uses; see the subclasses for the work."""

    name = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.tiny = size == TINY

    def setup(self):
        """Build circuits, plans and evaluators; timed as setup_s."""
        raise NotImplementedError

    def prepare(self, state) -> int:
        """Draw the operation inputs; returns the size of the input pool."""
        raise NotImplementedError

    def op(self, state, k: int):
        """Run operation k; returns (items of work done, result)."""
        raise NotImplementedError

    def check(self, state, k: int, result) -> tuple[str, dict, list[str]]:
        """Digest of the result, the outputs worth reporting, and the
        invariants the result breaks."""
        raise NotImplementedError

    def check_outputs(self, state) -> tuple[str, list[str]]:
        """Checks made once per run, before timing: a digest of bit-level
        results and the invariants they break."""
        raise NotImplementedError

    def probe(self, state) -> None:
        raise NotImplementedError

    def counts(self, state) -> dict[str, int]:
        c, plan = state["circuit"], state["plan"]
        return {"circuit.units": len(c.units), "circuit.levels": levels(c),
                "circuit.sites": len(plan.modes),
                "circuit.aai_sites": sum(m == inf.AAI for m in plan.modes.values())}


class TreeBatch(Workload):
    name = "tree-batch"

    def setup(self):
        s = self.seed
        if self.tiny:
            generated = circ.generate_random_tree_pc(s, 8, 2, 2)
        else:
            generated = circ.generate_random_tree_pc(s, 32, 4, 3)
        c = build_circuit(generated)
        cfg = fl.FloatConfig(8, 10)
        edges = c.weight_edges()
        pick = np.random.default_rng(s).choice(len(edges), len(edges) // 2, replace=False)
        plan = inf.MultiplierPlan.from_aai_weight_sites(c, [edges[i] for i in sorted(pick)])
        return {"circuit": c, "cfg": cfg, "plan": plan,
                "base": inf.CircuitEvaluator(c, fl.FLOAT64, inf.MultiplierPlan.all_exact(c)),
                "test": inf.CircuitEvaluator(c, cfg, plan)}

    def prepare(self, state) -> int:
        batch, pool = (4, 2) if self.tiny else (32, 4)
        rows = circ.sample(state["circuit"], self.seed, batch * pool)
        rows[3::4, 1::2] = -1  # one row in four: MAP only
        state["batches"] = [rows[i * batch:(i + 1) * batch] for i in range(pool)]
        return pool

    def op(self, state, k):
        data = state["batches"][k % len(state["batches"])]
        return len(data), inf.compare_queries(state["circuit"], data, state["cfg"], state["plan"])

    def check(self, state, k, m):
        data = state["batches"][k % len(state["batches"])]
        n_mar = int(np.all(data >= 0, axis=1).sum())
        problems = []
        if (m.n_instances, m.n_mar_instances) != (len(data), n_mar):
            problems.append(f"instance counts {m.n_instances}/{m.n_mar_instances}")
        if not (math.isfinite(m.mean_log_error) and m.mean_log_error >= 0):
            problems.append(f"mean_log_error {m.mean_log_error!r}")
        if not 0 <= m.map_accuracy <= 1:
            problems.append(f"map_accuracy {m.map_accuracy!r}")
        outputs = {"mean_log_error": m.mean_log_error, "map_accuracy": m.map_accuracy}
        return (digest(m.mean_log_error.hex(), m.map_accuracy.hex(),
                       m.underflow_count, m.overflow_count), outputs, problems)

    def check_outputs(self, state):
        """Bit-level results of the first rows of the first batch, under
        both the baseline and the tested plan."""
        c, cfg = state["circuit"], state["cfg"]
        rows = state["batches"][0][:4]
        bits = []
        for ev, ecfg in ((state["base"], fl.FLOAT64), (state["test"], cfg)):
            for x in rows:
                if np.all(x >= 0):
                    r, under, over = ev.mar(x)
                    bits.append(("mar", fl.to_bits(r.value, ecfg), under, over))
                evidence = {int(v): int(x[v]) for v in np.flatnonzero(x >= 0)}
                mp, under, over = ev.map_query(evidence)
                bits.append(("map", mp.assignment.tolist(), under, over))
        return digest(*bits), check_float64_baseline(c, rows[np.all(rows >= 0, axis=1)])

    def probe(self, state):
        rows = state["batches"][0]
        evidence = {v: int(rows[0][v]) for v in range(0, len(rows[0]), 2)}
        probe_layers(state, rows, evidence, self.seed, self.tiny)


class DetSingle(Workload):
    name = "det-single"

    def setup(self):
        c = build_circuit(circ.generate_random_det_pc(self.seed, 5 if self.tiny else 10))
        cfg = fl.FloatConfig(8, 12, rounding=fl.TOWARD_ZERO)
        plan = inf.MultiplierPlan.all_aai(c)
        return {"circuit": c, "cfg": cfg, "plan": plan,
                "test": inf.CircuitEvaluator(c, cfg, plan)}

    def prepare(self, state) -> int:
        c = state["circuit"]
        pool = 8 if self.tiny else 32
        rows = circ.sample(c, self.seed, pool)
        rng = np.random.default_rng(self.seed)
        queries = []
        for k, x in enumerate(rows):
            if k % 2 == 0:
                queries.append(("mar", x))
            else:
                seen = sorted(rng.choice(c.n_vars, c.n_vars // 2, replace=False))
                queries.append(("map", {int(v): int(x[v]) for v in seen}))
        state["queries"] = queries
        state["p64"] = circ.eval_double(c, rows)
        return pool

    def op(self, state, k):
        kind, arg = state["queries"][k % len(state["queries"])]
        if kind == "mar":
            return 1, inf.eval_mar(state["circuit"], arg, state["cfg"], state["plan"])
        return 1, inf.eval_map(state["circuit"], arg, state["cfg"], state["plan"])

    def check(self, state, k, r):
        i = k % len(state["queries"])
        kind, arg = state["queries"][i]
        problems = []
        if kind == "mar":
            p = fl.decode(r.value)
            if not p <= state["p64"][i]:
                problems.append(f"toward-zero AAI MAR {p!r} exceeds eval_double "
                                f"{state['p64'][i]!r}")
            return (digest(fl.to_bits(r.value, state["cfg"]), r.underflowed, r.overflowed),
                    {}, problems)
        a = r.assignment
        if np.any(a < 0) or any(a[v] != val for v, val in arg.items()):
            problems.append(f"MAP assignment {a.tolist()} breaks evidence {arg}")
        return digest(a.tolist(), float(r.log2_value).hex()), {}, problems

    def check_outputs(self, state):
        rows = np.array([arg for kind, arg in state["queries"] if kind == "mar"][:4])
        return "", check_float64_baseline(state["circuit"], rows)

    def probe(self, state):
        rows = np.array([arg for kind, arg in state["queries"] if kind == "mar"])
        probe_layers(state, rows, state["queries"][1][1], self.seed, self.tiny)


class Analysis(Workload):
    name = "analysis"

    def setup(self):
        s = self.seed
        if self.tiny:
            det_n, kl_n, tree_args = 6, 5, (4, 2, 2)
        else:
            det_n, kl_n, tree_args = 12, 9, (16, 3, 3)
        det = build_circuit(circ.generate_random_det_pc(s, det_n))
        kl_c = build_circuit(circ.generate_random_det_pc(s, kl_n))
        tree = build_circuit(circ.generate_random_tree_pc(s, *tree_args))
        return {"circuit": det, "kl_circuit": kl_c, "tree": tree,
                "cfg": fl.FloatConfig(11, 40), "plan": inf.MultiplierPlan.all_aai(det)}

    def prepare(self, state) -> int:
        return 1

    def op(self, state, k):
        cfg = state["cfg"]
        dd = ana.delta_det(state["circuit"], cfg)
        kl = ana.kl_bruteforce(state["kl_circuit"], cfg)
        mc = ana.delta_nondet_mc(state["tree"], cfg, 16 if self.tiny else 256, self.seed)
        mf = ana.map_failure_prob(1, 2, 10_000 if self.tiny else 10_000_000, self.seed)
        return 1, (dd, kl, mc, mf)

    def check(self, state, k, result):
        dd, kl, mc, mf = result
        problems = []
        if not (math.isfinite(dd.delta_det) and dd.delta_det >= 0 and dd.note == ""):
            problems.append(f"delta_det {dd.delta_det!r} ({dd.note!r})")
        if not 0 <= kl <= state["kl_bound"] + 1e-9:
            problems.append(f"KL {kl!r} outside [0, delta_det {state['kl_bound']!r}]")
        if not (math.isfinite(mc.delta_dc) and mc.dc_std_error >= 0):
            problems.append(f"delta_dc {mc.delta_dc!r} +- {mc.dc_std_error!r}")
        if not 0 < mf.probability < 1:
            problems.append(f"MAP failure probability {mf.probability!r}")
        outputs = {"delta_det": dd.delta_det, "kl": kl, "kl_delta_det_bound": state["kl_bound"],
                   "delta_dc": mc.delta_dc, "map_failure_prob": mf.probability}
        return (digest(dd.delta_det.hex(), kl.hex(), mc.delta_dc.hex(),
                       mc.dc_std_error.hex(), mf.probability.hex()), outputs, problems)

    def check_outputs(self, state):
        """KL on the KL circuit is bounded by delta_det on the same circuit."""
        c = state["kl_circuit"]
        state["kl_bound"] = ana.delta_det(c, state["cfg"]).delta_det
        return "", check_float64_baseline(c, circ.sample(c, self.seed, 4))

    def probe(self, state):
        # the operations reach every other entry point
        c = state["kl_circuit"]
        inf.compare_queries(c, circ.sample(c, self.seed, 2), state["cfg"],
                            inf.MultiplierPlan.all_aai(c))


WORKLOADS = {w.name: w for w in (TreeBatch, DetSingle, Analysis)}
