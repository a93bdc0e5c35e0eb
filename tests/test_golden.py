"""Golden corpus: every corpus of the same-numbers harness pinned as a slice.

These are characterization ("golden master") tests (M. Feathers, *Working
Effectively with Legacy Code*, 2004, ch. 13).  ``fixtures/golden.json`` holds
one slice for each of the twelve corpora of ``scripts/same_numbers.py`` at
``--scale 1``, one for each name of the harness's registry ``CORPORA``,
each run by the harness's ``corpus`` in a scratch working directory of its
own (the harness's docstring describes each corpus): ``derive`` (200 seeded
``fraczee derive`` cases with and without ``--at``, and the bits of
``rl_derive``'s result terms, which catch an ulp-level change that 11
printed digits hide), ``gamma`` (the scalar and array Gamma kernels on 56
arguments), ``casimir_grid`` (``casimir_L2`` and ``casimir_Lz`` next to the
array body at nine alphas and L = 0..200), ``verify`` (``verify all`` at ten
seeds), ``checks`` (the algebra workload's identity checks), ``levels``
(``spectrum``, ``predict``, ``report`` and the losses over a grid of
alphas), ``fit`` and ``scan`` (the fits and the 199-alpha scan losses of one
run of the fit tables), and the ``operators``, ``parse``, ``records`` and
``casimir`` corpora.

Each slice holds its scale, its case count, a digest of its case labels and
one 8-hex-digit digest of each case's outcome bits (``float.hex`` of every
float, or the exception), so a changed number names its corpus and case.
``test_derive_matches_golden``, ``test_gamma_bits_match_golden`` and
``test_casimir_grid_matches_golden`` check one case, one kernel or one
(kernel, alpha) row each, picked by the prefix of its case labels, so the
harness alone knows the order of its cases.  A pinned case may change only
as a named bug fix.  After such a fix, regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py

which refuses to run on a ``fraczee`` from outside this checkout's ``src``,
prints the slice cases that differ from the file on disk, then each slice's
case count and wall seconds as it writes the file (the ``fit`` and ``scan``
slices share one run, which ``fit`` times).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden.json"
sys.path.insert(0, str(ROOT / "scripts"))

import same_numbers as sn  # noqa: E402

#: the scale at which every corpus of the harness is pinned
SLICE_SCALE = 1
_DIGESTS_PER_ROW = 50


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:8]


@functools.cache
def run_slice(name: str) -> tuple[list[str], list[str]]:
    """The case labels of one harness corpus and the digests of their outcomes."""
    cases = sn.corpus(name, SLICE_SCALE)
    return [label for label, _ in cases], [_digest(outcome) for _, outcome in cases]


def slice_cell(name: str) -> dict:
    labels, digests = run_slice(name)
    return {
        "scale": SLICE_SCALE,
        "cases": len(labels),
        "labels": _digest(labels),
        "digests": [" ".join(digests[i:i + _DIGESTS_PER_ROW])
                    for i in range(0, len(digests), _DIGESTS_PER_ROW)],
    }


CORPUS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"slices": {}}


def mismatches(name: str, prefix: str = "") -> list[str]:
    """The labels of the cases of one slice whose label starts with
    ``prefix`` and whose outcome digest is not the pinned one."""
    labels, digests = run_slice(name)
    pinned = " ".join(CORPUS["slices"][name]["digests"]).split()
    cases = [(label, d, p) for label, d, p in zip(labels, digests, pinned)
             if label.startswith(prefix)]
    assert cases, f"{name}: no case label starts with {prefix!r}"
    return [label for label, d, p in cases if d != p]


def _assert_pinned(name: str, prefix: str = "") -> None:
    bad = mismatches(name, prefix)
    assert not bad, f"{name}: {len(bad)} cases differ, the first is {bad[0]}"


def test_every_corpus_has_a_pin_and_every_pin_a_corpus():
    pinned, corpora = set(CORPUS["slices"]), set(sn.CORPORA)
    assert not corpora - pinned, f"corpora without a pin: {sorted(corpora - pinned)}"
    assert not pinned - corpora, f"pins without a corpus: {sorted(pinned - corpora)}"


@pytest.mark.parametrize("name", list(sn.CORPORA))
def test_slice_cases_come_from_the_generator(name):
    # a changed harness generator reads as a stale fixture, not as changed numbers
    got = {k: v for k, v in slice_cell(name).items() if k != "digests"}
    pinned = {k: v for k, v in CORPUS["slices"][name].items() if k != "digests"}
    assert got == pinned, f"the harness's {name} corpus has other cases: regenerate golden.json"


@pytest.mark.parametrize("name", ["operators", "parse", "records", "casimir", "verify",
                                  "checks", "levels", "fit", "scan"])
def test_slice_matches_golden(name):
    _assert_pinned(name)


@pytest.mark.parametrize("i", range(sn.DERIVE_CASES),
                         ids=[f"derive-{i:03d}" for i in range(sn.DERIVE_CASES)])
def test_derive_matches_golden(i):
    _assert_pinned("derive", f"seed {sn.DERIVE_SEED} case {i}: ")


@pytest.mark.parametrize("name", sn.GAMMA_KERNELS)
def test_gamma_bits_match_golden(name):
    _assert_pinned("gamma", f"{name}(")


@pytest.mark.parametrize("name", sn.CASIMIR_KERNELS)
@pytest.mark.parametrize("alpha", sn.CASIMIR_ALPHAS, ids=[f"alpha={a}" for a in sn.CASIMIR_ALPHAS])
def test_casimir_grid_matches_golden(name, alpha):
    _assert_pinned("casimir_grid", f"{name}({alpha!r}, ")


@pytest.mark.parametrize("script", ["tests/test_golden.py", "scripts/same_numbers.py"])
def test_a_run_without_the_package_exits_with_one_line(tmp_path, script):
    # a copy of the script in a tree with no src: nothing to regenerate or compare
    for name in ("tests/test_golden.py", "scripts/same_numbers.py"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, tmp_path / name)
    src = tmp_path / "src"
    args = ["--child", str(src)] if script.startswith("scripts") else []
    before = GOLDEN.read_bytes()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "Traceback" not in proc.stderr
    # "set PYTHONPATH to .../src", or where an installed fraczee came from
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith(f"{src}\n")
    assert GOLDEN.read_bytes() == before and not (tmp_path / "tests" / "fixtures").exists()


if __name__ == "__main__":
    sn._require_tree(ROOT / "src")
    slices, seconds = {}, {}
    for name in sn.CORPORA:
        start = time.perf_counter()
        slices[name] = slice_cell(name)
        seconds[name] = time.perf_counter() - start
    for name, cell in slices.items():
        pinned = CORPUS["slices"].get(name)
        if pinned is None or any(pinned[k] != cell[k] for k in ("scale", "cases", "labels")):
            print(f"changed: slices.{name} is new or has other cases")
            continue
        for label in mismatches(name):
            print(f"changed: slices.{name} case {label}")
    GOLDEN.write_text(json.dumps({"slices": slices}, indent=1) + "\n")
    for name, cell in slices.items():
        print(f"{name}: {cell['cases']} cases, {seconds[name]:.2f} s")
    print(f"wrote {GOLDEN}")
