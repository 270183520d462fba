"""Smoke test of the benchmark at the tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload untraced and traced, and checks that each metric that
BENCHMARK.json declares comes back by name, with its unit, as a finite JSON
number, that the environment is recorded, and that the tracer puts back every
function it wraps.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                     "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.dumps(result, allow_nan=False)
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    assert {"python", "cpus", "git_sha", "seed"} <= set(env) and env["seed"] == 7


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_restores_what_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import qmzv.cli  # noqa: F401
    import tracer

    modules = tracer._qmzv_modules()
    before = [dict(vars(m)) for m in modules]
    from qmzv.series import QSeries

    mul = QSeries.__dict__["__mul__"]
    t = tracer.Tracer(full=True).install()
    assert QSeries.__dict__["__mul__"] is not mul
    assert not t.missing
    t.uninstall()
    assert QSeries.__dict__["__mul__"] is mul
    for module, namespace in zip(modules, before):
        changed = [k for k, v in namespace.items() if vars(module).get(k) is not v]
        assert not changed, (module.__name__, changed)
