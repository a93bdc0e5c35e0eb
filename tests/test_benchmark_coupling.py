"""The benchmark's traced run wraps fraczee names by module attribute
(``perfbench/layers.py``), with no guard for a missing name: a refactor that
drops one breaks the benchmark, so it fails here too.  Reads ``perfbench/``
only."""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: the wrap points that count level evaluations; ``install`` not raising
#: covers the tracer's other wrap points
LEVEL_WRAP_POINTS = (
    ("spectrum", "mass"),
    ("spectrum", "spectrum"),
    ("fitting", "mass"),
    ("fitting", "spectrum"),
    ("fitting", "predict"),
    ("cli", "mass"),
)


def _benchmark_modules() -> tuple[str, ...]:
    # read, not imported: importing run.py sets thread-count variables
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_benchmark_tracer_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer").Tracer()
    finally:
        sys.path.remove(str(PERFBENCH))
    fz = SimpleNamespace(
        **{m: importlib.import_module(f"fraczee.{m}") for m in _benchmark_modules()}
    )
    before = {(m, name): getattr(getattr(fz, m), name) for m, name in LEVEL_WRAP_POINTS}
    try:
        layers.install(tracer, fz)
        assert all(getattr(getattr(fz, m), name) is not fn for (m, name), fn in before.items())
    finally:
        tracer.restore()
    assert all(getattr(getattr(fz, m), name) is fn for (m, name), fn in before.items())
