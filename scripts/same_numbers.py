#!/usr/bin/env python3
"""Same-numbers harness: run seeded corpora on two source trees and compare.

    python scripts/same_numbers.py BASE_SRC NEW_SRC [--scale N]

BASE_SRC and NEW_SRC are directories that hold a ``fraczee`` package, such
as the ``src`` of a ``git worktree`` of the parent commit and ``src`` of this
checkout.  Each tree runs in a subprocess of its own with only that directory
on ``PYTHONPATH``; the corpora come from this checkout, so both trees see the
same cases:

- ``derive``: seeded cases of ``_case`` (all four axes, pole and near-pole
  orders, like terms near the 1e-9 merge grid), the 200 of seed 2026, then
  200 for each of the seeds 0..25(N-1)-1; exit code, stdout and stderr of
  ``fraczee derive`` with and without ``--at``, and the ``float.hex`` of
  every term of ``rl_derive``'s result;
- ``gamma``: ``gamma`` and ``rgamma`` on the 56 ``GAMMA_ARGS`` (poles,
  reflection, the factorial short-cut, the overflow edge near 142.2), and
  the array kernel ``specfun._kernel_array`` on all of them with an
  all-Gamma and an all-reciprocal mask; one case per kernel and argument;
- ``casimir_grid``: ``casimir_L2`` and ``casimir_Lz`` at the nine
  ``CASIMIR_ALPHAS`` and L (or |M|) = 0..200, each case with the value of
  the array body ``spectrum._CasimirPlan.array`` run over all L at once;
- ``verify``: ``fraczee verify all`` at seeds 1729, 2024 and 0..10N-3;
- ``checks``: the algebra workload's identity checks, drawn by
  ``perfbench/workloads.py::AlgebraWorkload`` at seeds 0..10N-1, 80 a seed,
  with the ``float.hex`` of every residual;
- ``levels``: ``spectrum``, ``predict`` and ``report`` (both files, byte for
  byte) over a grid of alphas, L bands and parameter sets, then the
  ``float.hex`` of ``objective`` and ``loss_rms_mev``, or their exception,
  over the same alphas with those parameter sets and one seeded set, on
  the built-in table and on it plus a seeded row at L = 180..220 (which
  overflows at the larger alphas);
- ``fit``: at seeds 0..20N-1, a subset of the built-in table (rows dropped,
  masses shifted) and a synthetic table of
  ``perfbench/workloads.py::FitWorkload``; the alpha scan's local-minimum
  indices in the order that ``fit`` refines them, the ``float.hex`` of the
  fitted parameters, ``rms_percent``, ``loss_rms_mev`` and every
  per-particle level, ``evals``, and the exit code, stdout, stderr and
  ``--out`` bytes of ``fraczee fit``; then, at seeds 0..10N-1, three
  rank-deficient tables drawn from an RNG of their own (one L, one |M|,
  and one (L, |M|) for every row), on which every scan row falls back to
  the least-squares solve;
- ``scan``: the ``float.hex`` of the alpha scan's profile losses on the same
  tables.  The fitted figures depend on the scan only through its minima,
  so a change that moves only the scan's roundoff reads as ``scan``
  mismatches with none in ``fit``;
- ``casimir``: the Casimir plan's scalar body
  ``spectrum._CasimirPlan(ls, ms).values`` at each of 1-4 seeded alphas in
  (0, 1.5] (0.703 and 1.0 among them) and its array body ``.array`` at all
  of them, for L and |M| sets up to 220, 400N cases, then 100N cases at
  alphas in [-1.5, 0]; the ``float.hex`` of every value or the exception;
- ``parse``: ``parse_expr`` on 4,000N seeded strings: random ones of up to
  24 characters over the tokenizer's alphabet, sums whose like terms differ
  near the merge grid, and strings of up to about 80 characters built from
  fragments (sign runs, ``^`` with sign runs, overflowing products before a
  stray character, Unicode digits and whitespace); the bits of every term,
  or the error message with its offset;
- ``records``: 400N seeded record lists, with names and statuses that hold
  ``,``, ``"``, ``\n`` or ``\r`` and masses that six digits do or do not
  keep; the text of ``records_to_csv`` and ``records_to_json`` and the
  records ``load_records`` reads back from each file; then 10N seeded
  records for each ``ParticleRecord`` check that each breaks (an empty
  name, a bool or float L or M, a bool mass, a negative L or M, M > L, an
  int mass beyond the float range, a zero, negative or NaN mass, an unknown
  group), with the exception's type and message; then 10N seeded records
  for each pair of those checks that break both, so that the order of the
  checks shows; then what ``load_records`` reads or raises on 100N seeded
  CSV and 100N seeded JSON files, most with a malformed row, cell or
  column (missing, extra and repeated columns, blank, short and long rows,
  odd cells, JSON booleans, fractional and huge numbers, strings for
  numbers, ``null``, missing keys, entries that are not objects);
- ``operators``: ``OperatorExpr.apply`` of 500N seeded operator sums whose
  term images share exponent vectors (one derivative pattern under several
  prefactors and phases, ``build_H(a) + build_H(b)``, ``build_Kz`` families
  over seeded scale factors and orders, and concatenations of these) on seeded
  polynomials of 2-6 terms whose exponents differ by those orders; the
  ``float.hex`` of every term of both parts, so a changed order of
  summation over the operator's terms shows.

It prints each corpus's case count and the first mismatches, and exits 1 on
any mismatch (2 when a tree's run fails).  At module level the harness
imports the standard library only (its corpora import fraczee, and numpy,
where they run), and it imports nothing from ``tests/``.  The
``derive``, ``gamma``, ``casimir_grid``, ``casimir``, ``parse``,
``records`` and ``operators`` corpora at ``--scale 1`` are also pinned in
Tier-1, as the slices of ``tests/fixtures/golden.json`` that
``tests/test_golden.py`` builds with this file's corpus functions, run in
``_scratch_workdir``.  This file is the one home of the inputs, oracles and
encoders that the tests share with it: ``tests/test_fitting.py`` takes
``_scan_minima`` (the order of the scan's minima), ``_outcome`` (a result's
float bits, or its exception) and ``_fit_workload_table`` (the fit
workload's synthetic table at a seed, read back as records), which
``tests/test_benchmark_coupling.py`` also takes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS_PER_SEED = 80
SHOWN = 3  # mismatches printed per corpus
FIT_DROP = 0.2  # chance that a built-in row leaves a fit subset
FIT_SHIFT_MEV = 10.0  # standard deviation of a shifted built-in mass
#: L bands of the level grid: the default band, L = 0, and the overflow edge
L_BANDS = ((1, 9), (0, 2), (140, 145), (200, 200))
PARAM_SETS = ((), ("--m0", "500", "--a0", "2000", "--b0", "-300"))
#: alphas that lead every fourth Casimir case: the inf at L = 200, the
#: overflow at L = 170, the reference 0.112 and the end of the range
CASIMIR_EDGES = (0.703, 1.0, 0.112, 1.5)
#: the tokenizer's alphabet, and a few characters it must refuse
PARSE_ALPHABET = "0123456789.eE+-*^ xyzt" + "\t()q_²"
#: pieces of the longer parse inputs: sign runs, '^' with sign runs, literals
#: at and past the float range, products that overflow, Unicode digits and
#: whitespace, and characters that stand where no token may
PARSE_FRAGMENTS = ("+", "-", " - - ", "+-+", "^", "^+-2", "^ - ", "*", " * ", "1e999", "1e308",
                   "1e200*1e200", "x^1e308*x^1e308", ".5", "3.", "e5", "x", "y^2", "z", "t^-0.5",
                   "2", "0.25", "٣", "１.５", "　", "\x1c", "²", " ", "q", ")", ".")
#: name and status characters that CSV must quote or that JSON escapes
RECORD_TEXT = 'ab,"\n\r \t\\é'
#: the columns of a record file, and names that CSV must quote
RECORD_COLUMNS = ("name", "L", "M", "mass_mev", "status", "group")
RECORD_NAMES = ("foo", "Xi", "a,b", 'q"t', "a\nb", "\u00e9")
#: cells and JSON values that break a record or that convert in a way of their own
ODD_CSV_CELLS = {"name": ("foo", "", "a,b"), "L": ("0", "3", "-1", "3.0", "x", "", " 4"),
                 "M": ("0", "9", "-1", "1.0", "y", ""),
                 "mass_mev": ("1000", "0", "-5", "nan", "1e400", "x", ""),
                 "status": ("", "th"), "group": ("baryon", "lepton", ""), "extra": ("", "z")}
ODD_JSON_VALUES = {"name": ('""', "3", "null", "true"),
                   "L": ("-1", "3.5", "1e400", "true", "false", '"x"', "null", "[]"),
                   "M": ("9", "0.5", "false", "null"),
                   "mass_mev": ("0", "-5", "true", '"x"', "null"),
                   "status": ("null", "1"), "group": ('"lepton"', "null")}
#: the derive corpus: the seed of its scale-1 cases, and cases per seed
DERIVE_SEED = 2026
DERIVE_CASES = 200
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
GAMMA_KERNELS = ("gamma", "rgamma", "gamma_array", "rgamma_array")
#: the Casimir grid: alphas across the fit's range [0.01, 1] with the
#: reference 0.112, 0.703 (where L = 200 overflows to inf) and 1 (where the
#: value should be L(L+1) and overflows from L = 170); L (or |M|) runs over
#: 0..CASIMIR_L_MAX
CASIMIR_ALPHAS = (0.01, 0.05, 0.112, 0.25, 0.5, 0.703, 0.75, 0.9, 1.0)
CASIMIR_L_MAX = 200
CASIMIR_KERNELS = ("casimir_L2", "casimir_Lz")
#: derivative orders of the operator corpus, and polynomial exponents that
#: differ by them, so that the images of different terms land on one power
#: (none below 1, where two order-1 derivatives would leave the admissible class)
OPERATOR_ORDERS = (0.25, 0.5, 0.75, 1.0)
OPERATOR_EXPONENTS = (1.0, 1.5, 2.0, 2.5, 3.0)


def _bits(obj):
    """A JSON-able form of a result in which every float is its ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _bits(v) for k, v in obj.items()}
    if hasattr(obj, "coeff") and hasattr(obj, "exps"):  # a PowerTerm
        return [_bits(obj.coeff), _bits(obj.exps)]
    if hasattr(obj, "terms"):  # a PolyExpr
        return ["terms", _bits(obj.terms)]
    if hasattr(obj, "as_dict"):  # a CheckReport
        return _bits(obj.as_dict())
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def _outcome(call):
    try:
        return _bits(call())
    except Exception as exc:  # a refusal is an outcome too
        return ["raised", type(exc).__name__, str(exc)]


def _cli(cli, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = ["raised", type(exc).__name__, str(exc)]
    return [code, out.getvalue(), err.getvalue()]


class _Modules:
    """``fz.<module>`` as ``fraczee.<module>``, imported on first use."""

    def __getattr__(self, name):
        return importlib.import_module(f"fraczee.{name}")


def _workloads():
    """``perfbench/workloads.py``, the benchmark's request generators."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@contextlib.contextmanager
def _scratch_workdir():
    """A new temporary directory as the working directory, where the corpora
    that write files name them by relative paths that read the same in both trees."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(home)


def corpora(scale: int) -> dict[str, list]:
    """(label, outcome) pairs of every corpus, run on the importable fraczee."""
    from fraczee import cli

    out: dict[str, list] = {"derive": _derive_corpus(scale), "verify": [], "checks": [],
                            "levels": [], "fit": [], "scan": [], "casimir": _casimir_corpus(scale),
                            "parse": _parse_corpus(scale), "operators": _operators_corpus(scale),
                            "gamma": _gamma_corpus(scale),
                            "casimir_grid": _casimir_grid_corpus(scale)}
    for seed in (1729, 2024, *range(10 * scale - 2)):
        out["verify"].append((f"verify all --seed {seed}",
                              _cli(cli, ["verify", "all", "--seed", str(seed)])))
    with _scratch_workdir() as tmp:  # report prints its out-dir, relative to it
        _in_workdir(out, scale, cli, _workloads(), tmp)
    return out


def _in_workdir(out: dict[str, list], scale: int, cli, workloads, tmp: Path) -> None:
    """The corpora that write files, run in the working directory ``tmp``, so
    that the relative paths in messages read the same in both trees."""
    for seed in range(10 * scale):
        wl = workloads.AlgebraWorkload(_Modules(), seed, tmp, smoke=True)
        for j in range(CHECKS_PER_SEED):
            req = wl.request(5 * j + 4)  # every fifth request is a check
            label = f"seed {seed} request {5 * j + 4}: {req['kind']}"
            out["checks"].append((label, _outcome(lambda: wl.run(req))))
    rng = random.Random(0)
    alphas = [0.01, 0.112, 0.3, 0.5, 0.703, 0.9, 1.0]
    alphas += [round(rng.uniform(0.01, 1.0), 6) for _ in range(8 * scale)]
    rep = Path("rep")
    for alpha in alphas:
        for l_min, l_max in L_BANDS:
            for params in PARAM_SETS:
                argv = ["--alpha", repr(alpha), "--l-min", str(l_min),
                        "--l-max", str(l_max), *params]
                for command in ("spectrum", "predict"):
                    out["levels"].append((" ".join([command, *argv]),
                                          _cli(cli, [command, *argv])))
                got = _cli(cli, ["report", "--out-dir", str(rep), *argv])
                files = [(rep / n).read_text() if (rep / n).exists() else None
                         for n in ("table.csv", "plot.tsv")]
                out["levels"].append((" ".join(["report", *argv]), [got, files]))
                for n in ("table.csv", "plot.tsv"):
                    (rep / n).unlink(missing_ok=True)
    out["levels"] += _losses_corpus(alphas)
    tables = itertools.chain(
        ((f"seed {seed} {label}", path)
         for seed in range(20 * scale) for label, path in _fit_tables(workloads, seed)),
        ((f"rank-deficient seed {seed} {label}", path)
         for seed in range(10 * scale) for label, path in _rank_deficient_tables(workloads, seed)),
    )
    for label, path in tables:  # each table's file is written just before its fit
        scan, fitted = _fit_outcome(cli, path)
        out["fit"].append((label, fitted))
        out["scan"].append((label, scan))
    out["records"] = _records_corpus(scale)


def _losses_corpus(alphas: list[float]) -> list:
    """``objective`` and ``loss_rms_mev`` at each alpha with the (m0, a0, b0) of
    ``PARAM_SETS`` and a seeded one, on the built-in table and on it plus a
    seeded row at L = 180..220."""
    from fraczee import dataset, fitting
    from fraczee.spectrum import REFERENCE_PARAMS as ref, FitParams

    rng = random.Random("levels losses")
    table = dataset.builtin_table()
    L = rng.randint(180, 220)
    tables = (("built-in", table),
              (f"built-in + L={L}", table + [dataset.ParticleRecord("heavy", L, rng.randint(0, L),
                                                                    50000.0, "", "baryon")]))
    out = []
    for alpha in alphas:
        seeded = (rng.uniform(-2e4, 2e3), rng.uniform(-2e3, 2e4), rng.uniform(-1e4, 1e4))
        for values in ((ref.m0, ref.a0, ref.b0), (500.0, 2000.0, -300.0), seeded):
            p = FitParams(alpha, *values)
            for label, records in tables:
                out.append((f"objective, loss_rms_mev at {p!r} on {label}",
                            [_outcome(lambda: fitting.objective(p, records)),
                             _outcome(lambda: fitting.loss_rms_mev(p, records))]))
    return out


def _fit_tables(workloads, seed: int):
    """(label, CSV path) of a seeded subset of the built-in table, rows dropped
    and masses shifted, and of a synthetic table of the fit workload; the files
    are written in the working directory, so error messages read the same in
    both trees."""
    from fraczee.dataset import builtin_table

    rng = random.Random(f"fit-{seed}")
    rows = []
    for r in builtin_table():
        if rng.random() < FIT_DROP:
            continue
        shift = rng.gauss(0.0, FIT_SHIFT_MEV) if rng.random() < 0.5 else 0.0
        rows.append((r.name, r.L, r.M, r.mass_mev + shift, r.status, r.group))
    path = Path("subset.csv")
    path.write_text(workloads.oracle.table_csv(rows))
    yield f"built-in subset of {len(rows)} rows", path
    request, _ = _fit_workload_table(seed)
    yield f"synthetic table of {len(request['rows'])} fitted rows", request["path"]


def _fit_workload_table(seed: int, workdir: Path = Path(".")) -> tuple[dict, list]:
    """The fit workload's first synthetic table at ``seed``: the request of
    ``perfbench/workloads.py::FitWorkload``, which writes the table's CSV file
    in ``workdir``, and the records that ``load_records`` reads back from it."""
    from fraczee import dataset

    request = _workloads().FitWorkload(_Modules(), seed, workdir, smoke=False).request(1)
    return request, dataset.load_records(request["path"])


def _rank_deficient_tables(workloads, seed: int):
    """(label, CSV path) of three seeded tables whose scan rows are all
    rank-deficient, so the scan solves every row by least squares: one L for
    every row, one |M| for every row, and one (L, |M|) for every row.  The
    masses are the oracle's level formula near the reference region plus
    relative noise; the draws come from an RNG of their own."""
    oracle = workloads.oracle
    rng = random.Random(f"rank-deficient-{seed}")
    L, M = rng.randint(4, 9), rng.randint(0, 5)
    keyed = (("one L", [(L, m) for m in range(L + 1)]),
             ("one |M|", [(l, M) for l in range(max(M, 3), 10)]),
             ("one (L, |M|)", [(L, min(M, L))] * rng.randint(5, 9)))
    for label, keys in keyed:
        a0, b0 = (ref * rng.uniform(0.7, 1.3) for ref in oracle.REFERENCE[2:])
        alpha = rng.uniform(0.08, 0.4)
        lightest = min(oracle.mass((alpha, 0.0, a0, b0), l, m)[0] for l, m in keys)
        p = (alpha, rng.uniform(800.0, 1200.0) - lightest, a0, b0)
        sigma = rng.uniform(0.001, 0.01)
        rows = [(f"D{l}_{m}_{k}", l, m, oracle.mass(p, l, m)[0] * (1.0 + rng.gauss(0.0, sigma)),
                 "", "baryon") for k, (l, m) in enumerate(keys)]
        path = Path("rank_deficient.csv")
        path.write_text(oracle.table_csv(rows))
        yield f"{label}, {len(rows)} rows", path


def _fit_outcome(cli, path: Path) -> tuple:
    """The scan losses of one table, and its default fit in process (scan
    minima, result bits) and through ``fraczee fit --out``."""
    from fraczee import dataset, fitting

    cfg = fitting.FitConfig()
    selected = fitting.select_records(dataset.load_records(path), cfg)

    def fitted():
        r = fitting.fit(selected, cfg)
        levels = [(pp.e_th, pp.de_percent) for pp in r.per_particle]
        return [r.params.astuple(), r.rms_percent, r.loss_rms_mev, r.evals, r.converged, levels]

    try:
        losses = fitting._Problem(selected).scan_losses(fitting._ALPHA_GRID).tolist()
        scan, minima = _bits(losses), _scan_minima(losses)
    except Exception as exc:
        scan = minima = ["raised", type(exc).__name__, str(exc)]
    out = Path("fit.json")
    got = _cli(cli, ["fit", "--data", str(path), "--out", str(out)])
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return scan, [minima, _outcome(fitted), got, written]


def _scan_minima(losses: list[float]) -> list[int]:
    """Indices of the finite local minima of the scan, in the order that
    ``fit`` refines them: by loss, ties to the lower index."""
    last = len(losses) - 1
    return [
        i
        for _, i in sorted(
            (v, i)
            for i, v in enumerate(losses)
            if math.isfinite(v) and v <= min(losses[max(i - 1, 0)], losses[min(i + 1, last)])
        )
    ]


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
    axes = "xyzt"
    axis = axes[i % len(axes)]
    others = [a for a in axes if a != axis]
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
    point = {a: round(rng.uniform(0.2, 3.0), 3) for a in axes}
    for a in others:
        if rng.random() < 0.15:
            point[a] = -point[a]
    at = ",".join(f"{a}={v!r}" for a, v in point.items())
    return {"expr": expr, "axis": axis, "order": repr(order), "at": at}


def _derive_corpus(scale: int) -> list:
    """``fraczee derive`` with and without ``--at``, and the result of
    ``rl_derive``, on the ``DERIVE_CASES`` cases of seed ``DERIVE_SEED``, then
    on as many cases for each of the seeds 0..25(N-1)-1."""
    from fraczee import cli
    from fraczee.monomial import parse_expr, rl_derive

    out = []
    for seed in (DERIVE_SEED, *range(25 * (scale - 1))):
        rng = random.Random(seed)
        for i in range(DERIVE_CASES):
            case = _case(rng, i)
            argv = ["derive", case["expr"], "--axis", case["axis"], "--order", case["order"]]
            derived = _outcome(lambda: rl_derive(parse_expr(case["expr"]), case["axis"],
                                                 float(case["order"])))
            out.append((f"seed {seed} case {i}: {case}",
                        [_cli(cli, argv), _cli(cli, argv + ["--at", case["at"]]), derived]))
    return out


def _each(values, n: int) -> list:
    """The items of an outcome that is a list of ``n`` items, or its refusal
    ``n`` times."""
    return [values] * n if values[:1] == ["raised"] else values


def _gamma_corpus(scale: int) -> list:
    """``gamma`` and ``rgamma`` at each of ``GAMMA_ARGS``, and the array kernel
    ``specfun._kernel_array`` with an all-Gamma and an all-reciprocal mask,
    run once over all of them: one case per kernel and argument."""
    import numpy as np

    from fraczee.specfun import _kernel_array, gamma, rgamma

    xs = np.array(GAMMA_ARGS)
    out = []
    for name, f in (("gamma", gamma), ("rgamma", rgamma)):
        out += [(f"{name}({x!r})", _outcome(lambda: f(x))) for x in GAMMA_ARGS]
    for name, reciprocal in (("gamma_array", False), ("rgamma_array", True)):
        values = _outcome(lambda: _kernel_array(xs, np.full(xs.size, reciprocal)).tolist())
        out += [(f"{name}({x!r})", v) for x, v in zip(GAMMA_ARGS, _each(values, xs.size))]
    return out


def _casimir_grid_corpus(scale: int) -> list:
    """``casimir_L2`` and ``casimir_Lz`` at each of ``CASIMIR_ALPHAS`` and L (or
    |M|) = 0..CASIMIR_L_MAX, next to the array body ``_CasimirPlan.array``
    that the fit's alpha scan runs, once per alpha over all L: one case per
    kernel, alpha and L."""
    from fraczee.spectrum import _CasimirPlan, casimir_L2, casimir_Lz

    kernels = {"casimir_L2": (casimir_L2, lambda alpha, ns: _CasimirPlan(ns, ()).array(alpha)[0]),
               "casimir_Lz": (casimir_Lz, lambda alpha, ns: _CasimirPlan((), ns).array(alpha)[1])}
    ns = range(CASIMIR_L_MAX + 1)
    out = []
    for name in CASIMIR_KERNELS:
        scalar, array = kernels[name]
        for alpha in CASIMIR_ALPHAS:
            values = _each(_outcome(lambda: array(alpha, ns).tolist()), len(ns))
            out += [(f"{name}({alpha!r}, {n})", [_outcome(lambda: scalar(alpha, n)), v])
                    for n, v in zip(ns, values)]
    return out


def _casimir_corpus(scale: int) -> list:
    """Both bodies of the Casimir plan on seeded alphas and L, |M| sets."""
    from fraczee.spectrum import _CasimirPlan

    def ns() -> list[int]:
        top = rng.choice((12, 40, 220))
        return [rng.randint(0, top) for _ in range(rng.randint(0, 10))]

    def case(alphas: list[float]) -> tuple:
        ls, ms = ns(), ns()
        scalar = [_outcome(lambda: _CasimirPlan(ls, ms).values(a)) for a in alphas]
        array = _outcome(lambda: [c.tolist() for c in _CasimirPlan(ls, ms).array(alphas)])
        return f"alphas {alphas!r} L {ls} |M| {ms}", [scalar, array]

    rng = random.Random("casimir")
    out = []
    for i in range(400 * scale):
        alphas = [CASIMIR_EDGES[i // 4 % len(CASIMIR_EDGES)]] if i % 4 == 0 else []
        for _ in range(rng.randint(1, 4) - len(alphas)):
            alphas.append(rng.choice((1.5 - 1.5 * rng.random(), rng.randint(1, 30) / 20)))
        out.append(case(alphas))
    # only at a negative alpha does a denominator argument that is also a
    # numerator argument fall below 0.5, into the reflection
    rng = random.Random("casimir negative")
    for _ in range(100 * scale):
        out.append(case([-rng.choice((1.5 * rng.random(), rng.randint(1, 30) / 20))
                         for _ in range(rng.randint(1, 4))]))
    return out


def _parse_corpus(scale: int) -> list:
    """``parse_expr`` on random strings, on sums of like terms whose exponents
    differ by less than, about and more than the 1e-9 merge grid, and on
    strings of up to about 80 characters built from ``PARSE_FRAGMENTS``."""
    from fraczee.monomial import parse_expr

    rng = random.Random("parse")
    sources = []
    for i in range(2000 * scale):
        if i % 2:
            sources.append("".join(rng.choice(PARSE_ALPHABET) for _ in range(rng.randint(0, 24))))
        else:
            axis, e = rng.choice("xyzt"), round(rng.uniform(-1.0, 3.0), rng.randint(0, 6))
            sources.append(" + ".join(f"{rng.choice(('', '-'))}{rng.randint(1, 9)}*{axis}^"
                                      f"{e + rng.choice((0.0, 2e-10, 3e-9, 5e-9, 4e-8))!r}"
                                      for _ in range(rng.randint(1, 4))))
    rng = random.Random("parse fragments")
    for _ in range(2000 * scale):
        src = ""
        for _ in range(rng.randint(0, 24)):
            piece = rng.choice(PARSE_FRAGMENTS)
            if len(src) + len(piece) > 80:
                break
            src += piece
        sources.append(src)
    return [(repr(src), _outcome(lambda: parse_expr(src))) for src in sources]


def _operators_corpus(scale: int) -> list:
    """``OperatorExpr.apply`` of seeded operator sums whose term images overlap,
    on seeded polynomials: the real and imaginary parts, term by term."""
    from fraczee.monomial import PolyExpr, term
    from fraczee.operators import OperatorExpr, build_H, build_Kz, op_term

    def pattern() -> OperatorExpr:
        # one derivative pattern and prefactor under several coefficients and
        # phases: every image of one operand term has the same exponents
        axes = rng.sample("xyz", rng.randint(1, 2))
        orders = {a: rng.choice(OPERATOR_ORDERS) for a in axes}
        pre = {rng.choice("xyz"): rng.choice(OPERATOR_EXPONENTS)}
        return OperatorExpr(tuple(op_term(rng.uniform(-2.0, 2.0), rng.randrange(4), pre=pre,
                                          orders=orders) for _ in range(rng.randint(3, 6))))

    def hamiltonians() -> OperatorExpr:
        a, b = rng.choice(OPERATOR_ORDERS), rng.choice(OPERATOR_ORDERS)
        r, s = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)
        return build_H(a) + build_H(b).scaled(r) + build_H(a).scaled(s)

    def kz_family() -> OperatorExpr:
        betas = [rng.choice(OPERATOR_ORDERS) for _ in range(rng.randint(1, 2))]
        family = [build_Kz(rng.choice(betas)).scaled(rng.uniform(0.5, 2.0))
                  for _ in range(rng.randint(3, 5))]
        return OperatorExpr(tuple(t for kz in family for t in kz.terms))

    def poly() -> PolyExpr:
        return PolyExpr.from_terms(
            term(rng.uniform(-3.0, 3.0), **{a: rng.choice(OPERATOR_EXPONENTS) for a in "xyz"})
            for _ in range(rng.randint(2, 6)))

    def applied(op: OperatorExpr, f: PolyExpr) -> list:
        g = op.apply(f)
        return [g.re, g.im]

    kinds = (pattern, hamiltonians, kz_family)
    rng = random.Random("operators")
    out = []
    for i in range(500 * scale):
        # every fourth sum concatenates two operators of these kinds
        chosen = [kinds[i % 3]] + [rng.choice(kinds) for _ in range(i % 4 // 3)]
        op = OperatorExpr(tuple(t for kind in chosen for t in kind().terms))
        f = poly()
        label = f"case {i}: {' + '.join(kind.__name__ for kind in chosen)} on {f.render()}"
        out.append((label, _outcome(lambda: applied(op, f))))
    return out


def _records_corpus(scale: int) -> list:
    """Seeded records written by ``records_to_csv`` and ``records_to_json``,
    and read back by ``load_records`` from files in the working directory."""
    from fraczee import dataset

    def text(k: int) -> str:
        return "".join(rng.choice(RECORD_TEXT) for _ in range(k))

    rng = random.Random("records")
    out = []
    for _ in range(400 * scale):
        records = []
        for j in range(rng.randint(0, 5)):
            L = rng.randint(0, 20)
            mass = rng.choice((rng.randint(1, 6000), round(rng.uniform(1, 6000), rng.randint(0, 8)),
                               rng.uniform(1, 6000), 2000.0000001))
            records.append(dataset.ParticleRecord(f"{text(rng.randint(0, 4))}{j}", L,
                                                  rng.randint(0, L), mass, text(rng.randint(0, 3)),
                                                  rng.choice(dataset.GROUPS)))
        written = []
        for name, write in (("records.csv", dataset.records_to_csv),
                            ("records.json", dataset.records_to_json)):
            path, data = Path(name), write(records)
            path.write_text(data, newline="")
            written += [data, _outcome(lambda: _loaded(path))]
        out.append((repr(records), written))
    return (out + _rejected_records(scale) + _twice_rejected_records(scale)
            + _malformed_files(scale))


def _loaded(path: Path) -> list:
    from fraczee import dataset

    return [[r.name, r.L, r.M, r.mass_mev, r.status, r.group] for r in dataset.load_records(path)]


def _rejected_records(scale: int) -> list:
    """Seeded ``ParticleRecord`` arguments that break one check each, with the
    exception that each raises."""
    from fraczee import dataset

    rng = random.Random("records rejected")
    out = []
    for i in range(10 * scale):
        L = rng.randint(0, 20)
        M = rng.randint(0, L)
        mass = rng.uniform(1, 6000)
        name = f"r{i}"
        for args in (("", L, M, mass), (name, rng.choice((True, float(L))), M, mass),
                     (name, L, rng.choice((False, float(M))), mass), (name, L, M, True),
                     (name, -rng.randint(1, 20), 0, mass), (name, L, -rng.randint(1, 20), mass),
                     (name, L, L + rng.randint(1, 5), mass),
                     (name, L, M, rng.choice((10**400, -(10**400), 2**1024))),
                     (name, L, M, rng.choice((0, 0.0, -mass, -rng.randint(1, 99), math.nan)))):
            out.append((f"rejected {args!r}",
                        _outcome(lambda: dataset.ParticleRecord(*args, "", "baryon"))))
        group = rng.choice(("", "Baryon", "lepton", "baryon "))
        out.append((f"rejected group {group!r}",
                    _outcome(lambda: dataset.ParticleRecord(name, L, M, mass, "", group))))
    return out


def _twice_rejected_records(scale: int) -> list:
    """Seeded ``ParticleRecord`` arguments that break two checks at once, for
    each pair of checks, with the exception that each raises; the check that
    comes first names the error, so a reordered check shows."""
    from fraczee import dataset

    rng = random.Random("records rejected twice")
    out = []
    for i in range(10 * scale):
        L = rng.randint(0, 20)
        M = rng.randint(0, L)
        mass = rng.uniform(1, 6000)
        k = rng.randint(1, 20)
        # each check's ways to break it, as the fields they set
        breaks = {
            "name": [{"name": ""}],
            "type": [{"L": rng.choice((True, float(L)))}, {"M": rng.choice((False, float(M)))},
                     {"mass_mev": True}],
            "range": [{"L": -k, "M": 0}, {"M": -k}, {"M": L + k}],
            "int mass": [{"mass_mev": rng.choice((10**400, 2**1024))}],
            "mass": [{"mass_mev": rng.choice((0, 0.0, -mass, math.nan))}],
            "group": [{"group": rng.choice(("", "Baryon", "lepton", "baryon "))}],
        }
        for a, b in itertools.combinations(breaks, 2):
            # the two mass checks share a field: -10**400 breaks both
            ways = [{**x, **y} for x in breaks[a] for y in breaks[b] if not x.keys() & y.keys()]
            args = {"name": f"r{i}", "L": L, "M": M, "mass_mev": mass, "status": "",
                    "group": "baryon", **(rng.choice(ways) if ways else {"mass_mev": -(10**400)})}
            out.append((f"rejected by {a} and {b}: {args!r}",
                        _outcome(lambda: dataset.ParticleRecord(**args))))
    return out


def _malformed_files(scale: int) -> list:
    """``load_records`` on 100N seeded CSV files and 100N JSON files, most of
    them with a malformed row, cell or column, and what it reads or raises."""
    rng = random.Random("records malformed")
    out = []
    for i in range(200 * scale):
        path = Path("malformed.json" if i % 2 else "malformed.csv")
        text = _malformed_json(rng) if i % 2 else _malformed_csv(rng)
        path.write_text(text, newline="")
        out.append((f"{path} {text!r}", _outcome(lambda: _loaded(path))))
    return out


def _malformed_csv(rng: random.Random) -> str:
    """A CSV file: a header with missing, extra or repeated columns in one of
    four, rows of which one in five has an odd cell and one in five is
    short, long or blank, with quoted commas and newlines, ending in "\n"
    or "\r\n"."""
    from fraczee.dataset import GROUPS

    header = [rng.choice((*RECORD_COLUMNS, "extra")) for _ in range(rng.randint(5, 8))]
    if rng.random() < 0.75:
        header = [*RECORD_COLUMNS, *header[:rng.randint(0, 2)]]
    rows = []
    for _ in range(rng.randint(0, 12)):
        L = rng.randint(0, 12)
        # a valid record, some numbers with blanks around them
        cells = {"name": f"{rng.choice(RECORD_NAMES)}{rng.randint(0, 40)}",
                 "L": rng.choice(("{}", " {}", "{} ")).format(L), "M": str(rng.randint(0, L)),
                 "mass_mev": rng.choice(("1000", "938.5", "1e3", " 2452", "inf", "1e400")),
                 "status": rng.choice(("", "*", "th")), "group": rng.choice(GROUPS)}
        row = [cells.get(key, "") for key in header]
        if rng.random() < 0.2:
            j = rng.randrange(len(row))
            row[j] = rng.choice(ODD_CSV_CELLS[header[j]])
        shape = rng.choice(("full",) * 12 + ("short", "long", "blank"))
        if shape == "short":
            row = row[:rng.randint(1, len(row) - 1)]
        elif shape == "long":
            row += rng.choices(("", "1", "x,y"), k=rng.randint(1, 2))
        elif shape == "blank":
            row = []
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=rng.choice(("\n", "\r\n"))).writerows([header, *rows])
    return buf.getvalue()


def _malformed_json(rng: random.Random) -> str:
    """A JSON array of records, of which one in 20 is no object, each other
    key but the optional status is missing in one of 40, and one in five has
    an odd value: a boolean, a fractional, integral or huge number, a string
    for a number, or ``null``."""
    from fraczee.dataset import GROUPS

    entries = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.05:
            entries.append(rng.choice(("[]", "[1, 2]", '"foo"', "3", "null", "true")))
            continue
        L = rng.randint(0, 12)
        values = {"name": json.dumps(f"{rng.choice(RECORD_NAMES)}{rng.randint(0, 40)}"),
                  "L": rng.choice(("{}", "{}.0", '"{}"')).format(L),
                  "M": rng.choice(("{}", "{}.0", '"{}"')).format(rng.randint(0, L)),
                  "mass_mev": rng.choice(("1000", "938.5", "1e3", "1e400", '"2452"')),
                  "status": rng.choice(('""', '"*"', '"th"')),
                  "group": json.dumps(rng.choice(GROUPS))}
        keys = [k for k in RECORD_COLUMNS if rng.random() < (0.75 if k == "status" else 39 / 40)]
        if keys and rng.random() < 0.2:
            key = rng.choice(keys)
            values[key] = rng.choice(ODD_JSON_VALUES[key])
        entries.append("{" + ", ".join(f'"{k}": {values[k]}' for k in keys) + "}")
    return "[" + ", ".join(entries) + "]"


def _require_tree(src: Path) -> None:
    """Exit with one line, naming the path found, unless ``fraczee`` is imported from ``src``."""
    try:
        import fraczee
    except ModuleNotFoundError as exc:
        if exc.name == "fraczee":
            raise SystemExit(f"no fraczee package to import: set PYTHONPATH to {src}")
        raise

    if Path(fraczee.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"fraczee came from {fraczee.__file__}, not {src}")


def _run_tree(src: Path, scale: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, __file__, "--child", str(src), "--scale", str(scale)],
        stdout=subprocess.PIPE, env=env, text=True,
    )


def _excerpt(a: str, b: str, width: int = 100) -> tuple[str, str]:
    """The two texts around their first difference."""
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, i - width // 2)
    return a[lo:lo + width], b[lo:lo + width]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", nargs="?", type=Path)
    ap.add_argument("new_src", nargs="?", type=Path)
    ap.add_argument("--scale", type=int, default=1, help="corpus size factor (default 1)")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.scale < 1:
        ap.error("--scale must be >= 1")
    if args.child:
        _require_tree(args.child)
        json.dump(corpora(args.scale), sys.stdout)
        return 0
    if args.base_src is None or args.new_src is None:
        ap.error("BASE_SRC and NEW_SRC are required")
    srcs = (args.base_src, args.new_src)
    children = [_run_tree(src, args.scale) for src in srcs]
    texts = [child.communicate()[0] for child in children]
    for src, child in zip(srcs, children):
        if child.returncode:
            print(f"{src}: the corpus run exited {child.returncode}", file=sys.stderr)
            return 2
    base, new = (json.loads(text) for text in texts)
    mismatches = 0
    for name in base:
        bad = [(label, a, b) for (label, a), (_, b) in zip(base[name], new[name]) if a != b]
        if len(base[name]) != len(new[name]):
            bad.append(("case count", len(base[name]), len(new[name])))
        mismatches += len(bad)
        print(f"{name}: {len(base[name])} cases, {len(bad)} mismatches")
        for label, a, b in bad[:SHOWN]:
            ea, eb = _excerpt(json.dumps(a), json.dumps(b))
            print(f"  {label}\n    base: {ea}\n    new:  {eb}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
