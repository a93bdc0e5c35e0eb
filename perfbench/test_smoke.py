"""Smoke tests of the benchmark harness itself.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in ``--smoke`` mode (one set-up, one-start fits) untraced and traced; the output must carry exactly the
metrics that BENCHMARK.json names, with their units.  The oracles must
reject a perturbed result, and the benchmark must refuse to run without
the fraczee sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402


def _bench(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert result["failed"] == 0
    if workload == "levels":
        # every probe of a known defect fails today and is listed, uncounted
        assert sum(line.lstrip().startswith("known defect") for line in lines) == 3
    if trace and workload == "fit":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["fitting.fit.calls"] >= 1 and m["monomial.rl_derive.calls"] == 0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "levels", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def fz():
    import importlib

    import run

    return SimpleNamespace(**{m: importlib.import_module(f"fraczee.{m}") for m in run.MODULES})


@pytest.fixture
def workdir():
    d = ROOT / ".perfbench" / "tmp" / "smoke-test"
    d.mkdir(parents=True, exist_ok=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_oracles_reject_perturbed_outputs(fz, workdir):
    levels = workloads.LevelsWorkload(fz, 3, workdir, smoke=True)
    req = next(r for r in map(levels.request, range(100)) if r["kind"] == "request" and r["band"])
    out = levels.run(req)
    assert levels.check(req, out)[0] == workloads.OK
    (mult, e), *rest = out[0]
    bad = ([(mult, e * (1 + 1e-8))] + rest,) + out[1:]
    assert levels.check(req, bad)[0] == workloads.FAIL

    algebra = workloads.AlgebraWorkload(fz, 3, workdir, smoke=True)
    req = next(r for r in map(algebra.request, range(100)) if r["kind"] == "derive" and r["want"])
    expr, result, *rest = algebra.run(req)
    assert algebra.check(req, (expr, result, *rest))[0] == workloads.OK
    t0, *others = result.terms
    wrong = replace(result, terms=(replace(t0, coeff=t0.coeff * (1 + 1e-9)), *others))
    assert algebra.check(req, (expr, wrong, *rest))[0] == workloads.FAIL
