"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_declared_metrics(workload, trace, kind):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
              "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[kind]}


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run
    run.import_program()
    import workloads

    def broken(self, state, k, result):
        return "", {}, ["injected mismatch"]

    monkeypatch.setattr(workloads.DetSingle, "check", broken)
    code = run.main(["--workload", "det-single", "--seed", "3", "--seconds", "0.2",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
