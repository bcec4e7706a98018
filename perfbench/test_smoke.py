"""Smoke test of the benchmark at toy shapes.

Every workload runs at a toy grid for a moment, untraced and traced; the
run must emit exactly the metrics BENCHMARK.json names, all finite, with
no failed operation.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

# Grids small enough that an operation takes about a second, large
# enough that every accuracy figure stays within its tolerance.
TOY_GRIDS = {"wide-run": (16, 12, 2), "ocean-rom": (12, 10, 2), "narrow-loo": (6, 5, 2)}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TOY_GRIDS))
def test_every_metric_emitted_and_nothing_fails(name, trace):
    spec = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec["workloads"]) == {w["name"] for w in bench["workloads"]}
    w = spec["workloads"][name]
    wl = run.Workload(name, TOY_GRIDS[name], w["accuracy"], w["tolerance"], w["commands"])
    record = run.run_workload(wl, spec, bench, seed=0, seconds=0.1, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert set(record["metrics"]) == {m["name"] for m in bench[section]}
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    assert [op["problems"] for op in record["ops"]] == [[]] * len(record["ops"])
    assert record["extra"]["fail_ratio"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "workloads.json").write_bytes((HERE / "workloads.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow-loo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
