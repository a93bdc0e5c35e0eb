"""Golden corpus: pinned ``derive`` outputs and Gamma bits.

These are characterization ("golden master") tests (M. Feathers, *Working
Effectively with Legacy Code*, 2004, ch. 13).  ``fixtures/golden.json`` holds

- for about 200 seeded ``derive`` cases over all four axes, orders in
  (-1.5, 2.5), pole and near-pole orders, exponents down to -0.9 and
  like terms that differ near the 1e-9 merge resolution: the exit code,
  stdout and stderr of ``fraczee derive`` with and without ``--at``, and
  the ``float.hex`` of the coefficient and exponents of every result term
  (or the exception name);
- the ``float.hex`` of ``gamma`` and ``rgamma`` on a fixed argument set
  (poles, reflection, the factorial short-cut, the overflow edge near
  142.2), or the exception name where a scalar call raises, and of the
  array kernel ``specfun._kernel_array`` on the same set with an
  all-Gamma mask and with an all-reciprocal mask (the fixture keys
  ``gamma_array`` and ``rgamma_array``);
- the outcome of ``casimir_L2`` and ``casimir_Lz`` on a grid of nine alphas
  and L (or |M|) = 0..200: the ``float.hex`` of the value, ``inf``, or the
  exception name; one space-separated row per alpha keeps the fixture
  small.  Where the array body that the fit's alpha scan runs,
  ``spectrum._CasimirPlan.array``, gives other bits than the scalar
  Casimirs, those cells are pinned as well;
- the ``slices`` of the same-numbers harness ``scripts/same_numbers.py``:
  its ``operators``, ``parse``, ``records`` and ``casimir`` corpora at
  ``--scale 1``, built by the harness's own corpus functions.  Each slice
  holds its scale, its case count, a digest of its case labels and one
  8-hex-digit digest of each case's outcome bits, so a changed number
  names its corpus and case without a second source tree.

``derive`` prints 11 significant digits, so the term bits are what catch an
ulp-level change.  A pinned cell may change only as a named bug fix.  After
such a fix, regenerate the fixture from the same case generators with

    PYTHONPATH=src python tests/test_golden.py

which first prints the cells, and the slice cases, that differ from the
file on disk.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fraczee import cli
from fraczee.monomial import AXES, parse_expr, rl_derive
from fraczee.specfun import _kernel_array, gamma, rgamma
from fraczee.spectrum import _CasimirPlan, casimir_L2, casimir_Lz

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden.json"
sys.path.insert(0, str(ROOT / "scripts"))

import same_numbers  # noqa: E402

_SEED = 2026
_N_CASES = 200

#: Gamma arguments: poles, near-poles, reflection, the factorial short-cut
#: (integers up to 171), the overflow edge near 142.2 and non-finite input
GAMMA_ARGS = (
    0.0, -1.0, -2.0, -5.0, -170.0, -1.0 + 1e-9, -1e-10, 1e-10, 1e-300,
    0.1, 0.25, 0.4999, 0.5, -0.3, -0.5, -1.5, -2.5, -3.7, -10.5, -100.25,
    -141.3, -150.5, -170.5, -171.5, -180.2,
    1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 100.0, 170.0, 171.0, 172.0,
    1.448, 1.5, 2.3, 7.7, 50.25, 100.5, 141.9, 142.0, 142.2, 142.22, 142.25,
    142.3, 142.37, 142.4, 143.0, 150.5, 171.5, 200.5,
    float("inf"), float("-inf"), float("nan"),
)

#: the Casimir grid: alphas across the fit's range [0.01, 1] with the
#: reference 0.112, 0.703 (where L = 200 overflows to inf) and 1 (where the
#: value should be L(L+1) and overflows from L = 170); L (or |M|) runs over
#: 0..CASIMIR_L_MAX
CASIMIR_ALPHAS = (0.01, 0.05, 0.112, 0.25, 0.5, 0.703, 0.75, 0.9, 1.0)
CASIMIR_L_MAX = 200
#: each pinned Casimir as (scalar kernel, array kernel over a list of L or |M|)
CASIMIR_KERNELS = {"casimir_L2": (casimir_L2, lambda alpha, ns: _CasimirPlan(ns, ()).array(alpha)[0]),
                   "casimir_Lz": (casimir_Lz, lambda alpha, ns: _CasimirPlan((), ns).array(alpha)[1])}

#: the harness corpora pinned as slices, each run at --scale SLICE_SCALE
SLICES = {"operators": same_numbers._operators_corpus, "parse": same_numbers._parse_corpus,
          "records": same_numbers._records_corpus, "casimir": same_numbers._casimir_corpus}
SLICE_SCALE = 1
_DIGESTS_PER_ROW = 50


def _exponent(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.3:
        return float(rng.randint(0, 3))
    if u < 0.5:
        return rng.choice((-0.9, -0.5, 0.5, 1.5, 2.5))
    return round(rng.uniform(-0.9, 3.0), 3)


def _coeff(rng: random.Random) -> str:
    return rng.choice(("1", "3", "0.25", "2.5", "1.5e-3", "7e2", str(round(rng.uniform(0.1, 9), 3))))


def _product(coeff: str, exps: dict[str, float]) -> str:
    factors = [coeff] + [a if e == 1.0 else f"{a}^{e!r}" for a, e in exps.items()]
    return "*".join(factors)


def _case(rng: random.Random, i: int) -> dict[str, str]:
    """One ``derive`` case; ``i % 10`` picks a family (0 pole, 1 near-like
    exponents, 2 near-pole order), the rest are random sums."""
    axis = AXES[i % len(AXES)]
    others = [a for a in AXES if a != axis]
    u = rng.random()
    if u < 0.2:
        order = rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0))
    else:
        # a third of the orders fall in (0, 1), where --at runs the quadrature
        order = round(rng.uniform(0.0, 1.0) if u < 0.5 else rng.uniform(-1.5, 2.5), 3)
    products = []
    family = i % 10
    if family in (0, 2):
        # 1 + v - order = -k annihilates the term (exactly, or within 1e-9)
        v, k = rng.choice(((-0.5, 0), (-0.5, 1), (0.25, 0), (0.25, 1), (0.3, 1), (0.5, 0), (1.0, 0)))
        order = 1.0 + v + k
        if family == 2:
            order += rng.choice((3e-10, -3e-10, 5e-9, -5e-9))
        products.append(_product(_coeff(rng), {axis: v, rng.choice(others): _exponent(rng)}))
    elif family == 1:
        # like terms whose exponents differ at, below and above the merge grid
        v = _exponent(rng)
        d = rng.choice((3e-9, -3e-9, 2e-10, 4e-8))
        products.append(_product(_coeff(rng), {axis: v}))
        products.append(_product(_coeff(rng), {axis: v + d}))
    for _ in range(rng.randint(0 if products else 1, 2)):
        exps = {axis: _exponent(rng)} if rng.random() < 0.8 else {}
        if exps and exps[axis] - order < -1.0 and rng.random() < 0.8:
            # most terms stay admissible, so most cases print a derivative
            exps[axis] = round(order - 1.0 + rng.uniform(0.05, 2.0), 3)
        for a in rng.sample(others, rng.randint(0, 2)):
            exps[a] = _exponent(rng)
        products.append(_product(_coeff(rng), exps))
    expr = products[0]
    for p in products[1:]:
        expr += rng.choice((" + ", " - ")) + p
    # the point supplies every axis; the derivative axis stays positive
    point = {a: round(rng.uniform(0.2, 3.0), 3) for a in AXES}
    for a in others:
        if rng.random() < 0.15:
            point[a] = -point[a]
    at = ",".join(f"{a}={v!r}" for a, v in point.items())
    return {"expr": expr, "axis": axis, "order": repr(order), "at": at}


def cases() -> list[dict[str, str]]:
    rng = random.Random(_SEED)
    return [_case(rng, i) for i in range(_N_CASES)]


def _run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _terms(case: dict[str, str]):
    try:
        result = rl_derive(parse_expr(case["expr"]), case["axis"], float(case["order"]))
    except ValueError as exc:
        return type(exc).__name__
    return [[t.coeff.hex(), *(e.hex() for e in t.exps)] for t in result.terms]


def outcome(case: dict[str, str]) -> dict:
    """Everything pinned for one case: both CLI runs and the result's bits."""
    argv = ["derive", case["expr"], "--axis", case["axis"], "--order", case["order"]]
    return {
        "plain": _run_cli(argv),
        "with_at": _run_cli(argv + ["--at", case["at"]]),
        "terms": _terms(case),
    }


def _scalar(f, x: float) -> str:
    try:
        return f(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def gamma_bits() -> dict[str, list[str]]:
    xs = np.array(GAMMA_ARGS)
    return {
        "gamma": [_scalar(gamma, x) for x in GAMMA_ARGS],
        "rgamma": [_scalar(rgamma, x) for x in GAMMA_ARGS],
        "gamma_array": [v.hex() for v in _kernel_array(xs, np.zeros(xs.size, bool)).tolist()],
        "rgamma_array": [v.hex() for v in _kernel_array(xs, np.ones(xs.size, bool)).tolist()],
    }


def casimir_row(name: str, alpha: float) -> tuple[str, dict[str, str]]:
    """One alpha's scalar outcomes as a space-separated row, and the cells
    (L -> bits) where the array kernel differs from them."""
    scalar, array = CASIMIR_KERNELS[name]
    Ls = range(CASIMIR_L_MAX + 1)
    cells = [_scalar(lambda L: scalar(alpha, L), L) for L in Ls]
    from_array = [v.hex() for v in array(alpha, Ls).tolist()]
    return " ".join(cells), {str(L): v for L, v, c in zip(Ls, from_array, cells) if v != c}


def casimir_grid() -> dict:
    grid = {"alphas": [a.hex() for a in CASIMIR_ALPHAS], "l_max": CASIMIR_L_MAX}
    for name in CASIMIR_KERNELS:
        rows = [casimir_row(name, a) for a in CASIMIR_ALPHAS]
        grid[name] = [row for row, _ in rows]
        grid[f"{name}_array"] = [diff for _, diff in rows]
    return grid


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:8]


@functools.cache
def run_slice(name: str) -> list:
    """The (label, outcome) pairs of one harness corpus, run in a scratch
    working directory, where the ``records`` corpus writes its files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return SLICES[name](SLICE_SCALE)
        finally:
            os.chdir(home)


def slice_cell(name: str) -> dict:
    cases = run_slice(name)
    digests = [_digest(outcome) for _, outcome in cases]
    return {
        "scale": SLICE_SCALE,
        "cases": len(cases),
        "labels": _digest([label for label, _ in cases]),
        "digests": [" ".join(digests[i:i + _DIGESTS_PER_ROW])
                    for i in range(0, len(digests), _DIGESTS_PER_ROW)],
    }


def slice_mismatches(name: str, pinned: dict) -> list[str]:
    """The labels of the cases of one slice whose outcome digest is not the pinned one."""
    digests = " ".join(pinned["digests"]).split()
    return [label for (label, outcome), d in zip(run_slice(name), digests) if _digest(outcome) != d]


def build_corpus() -> dict:
    # the slices come first, so that adding them left every other line as it was
    return {
        "slices": {name: slice_cell(name) for name in SLICES},
        "derive": [{**case, **outcome(case)} for case in cases()],
        "gamma": {"args": [x.hex() for x in GAMMA_ARGS], **gamma_bits()},
        "casimir": casimir_grid(),
    }


CORPUS = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
          else {"slices": {}, "derive": [], "gamma": {}, "casimir": {}})
_INPUT_KEYS = ("expr", "axis", "order", "at")


def test_corpus_inputs_come_from_the_generator():
    assert [{k: c[k] for k in _INPUT_KEYS} for c in CORPUS["derive"]] == cases()
    assert CORPUS["gamma"]["args"] == [x.hex() for x in GAMMA_ARGS]
    assert CORPUS["casimir"]["alphas"] == [a.hex() for a in CASIMIR_ALPHAS]
    assert CORPUS["casimir"]["l_max"] == CASIMIR_L_MAX


@pytest.mark.parametrize("name", list(SLICES))
def test_slice_cases_come_from_the_generator(name):
    # a changed harness generator reads as a stale fixture, not as changed numbers
    got = {k: v for k, v in slice_cell(name).items() if k != "digests"}
    pinned = {k: v for k, v in CORPUS["slices"][name].items() if k != "digests"}
    assert got == pinned, f"the harness's {name} corpus has other cases: regenerate golden.json"


@pytest.mark.parametrize("name", list(SLICES))
def test_slice_matches_golden(name):
    bad = slice_mismatches(name, CORPUS["slices"][name])
    assert not bad, f"{name}: {len(bad)} cases differ, the first is {bad[0]}"


@pytest.mark.parametrize(
    "pinned", CORPUS["derive"], ids=[f"derive-{i:03d}" for i in range(len(CORPUS["derive"]))]
)
def test_derive_matches_golden(pinned):
    case = {k: pinned[k] for k in _INPUT_KEYS}
    assert outcome(case) == {k: pinned[k] for k in ("plain", "with_at", "terms")}


@pytest.mark.parametrize("name", ["gamma", "rgamma", "gamma_array", "rgamma_array"])
def test_gamma_bits_match_golden(name):
    assert gamma_bits()[name] == CORPUS["gamma"][name]


@pytest.mark.parametrize("name", list(CASIMIR_KERNELS))
@pytest.mark.parametrize("i", range(len(CASIMIR_ALPHAS)), ids=[f"alpha={a}" for a in CASIMIR_ALPHAS])
def test_casimir_grid_matches_golden(name, i):
    row, array_diff = casimir_row(name, CASIMIR_ALPHAS[i])
    assert row.split() == CORPUS["casimir"][name][i].split()
    assert array_diff == CORPUS["casimir"][f"{name}_array"][i]


def test_casimir_grid_holds_the_known_edges():
    # the overflow, the inf and the inexact integer case that a total kernel
    # would change, each only as a named bug fix
    L2 = dict(zip(CASIMIR_ALPHAS, CORPUS["casimir"]["casimir_L2"]))
    assert L2[1.0].split()[170] == "OverflowError"
    assert L2[0.703].split()[200] == "inf"
    assert float.fromhex(L2[1.0].split()[150]) == 22649.999999999996


def _changed_cells(old, new, path: str = ""):
    """The paths of the cells in which two fixture documents differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in dict.fromkeys([*old, *new]):
            yield from _changed_cells(old.get(k), new.get(k), f"{path}.{k}" if path else k)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changed_cells(a, b, f"{path}[{i}]")
    elif old != new:
        yield path


if __name__ == "__main__":
    corpus = build_corpus()
    for path in _changed_cells({k: v for k, v in CORPUS.items() if k != "slices"},
                               {k: v for k, v in corpus.items() if k != "slices"}):
        print(f"changed: {path}")
    for name, cell in corpus["slices"].items():
        pinned = CORPUS.get("slices", {}).get(name)
        if pinned is None or any(pinned[k] != cell[k] for k in ("scale", "cases", "labels")):
            print(f"changed: slices.{name} is new or has other cases")
            continue
        for label in slice_mismatches(name, pinned):
            print(f"changed: slices.{name} case {label}")
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
