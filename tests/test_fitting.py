import dataclasses
import importlib
import json
import math
import pickle
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from fraczee.dataset import ParticleRecord, builtin_table
from fraczee.fitting import (
    _ALPHA_GRID,
    DEFAULT_EXCLUDE,
    FitConfig,
    FitError,
    PerParticle,
    _SOLVE_STATE,
    _Problem,
    _levels,
    _local_minima,
    _rms,
    fit,
    minimize_scalar,
    loss_rms_mev,
    objective,
    predict,
    select_records,
)
from fraczee.specfun import gamma
from fraczee.spectrum import REFERENCE_PARAMS, FitParams, Multiplet, mass, spectrum

from reference_values import E_TH
from same_numbers import _fit_workload_table, _outcome, _scan_minima

FIT_PINS = Path(__file__).parent / "fixtures" / "fit_full_precision.json"


def synthetic_records(p: FitParams, l_lo=3, l_hi=9):
    # parameters are chosen so every synthetic mass is positive
    out = []
    for L in range(l_lo, l_hi + 1):
        for M in range(0, L + 1):
            out.append(
                ParticleRecord(
                    f"syn-{L}-{M}", L, M, mass(p, Multiplet(L, M)), "", "baryon"
                )
            )
    return out


def noisy_records(p: FitParams, seed: int, sigma: float, l_lo=3, l_hi=9):
    rng = np.random.default_rng(seed)
    return [
        ParticleRecord(
            r.name, r.L, r.M, r.mass_mev * (1.0 + sigma * rng.standard_normal()), "", "baryon"
        )
        for r in synthetic_records(p, l_lo, l_hi)
    ]


def lstsq_loss_curve(records, alphas) -> np.ndarray:
    """Least-squares r.m.s. loss in MeV at each alpha, from columns built with mass()."""
    y = np.array([r.mass_mev for r in records])
    out = []
    for a in alphas:
        A = np.array(
            [
                [
                    1.0,
                    mass(FitParams(a, 0.0, 1.0, 0.0), Multiplet(r.L, r.M)),
                    mass(FitParams(a, 0.0, 0.0, 1.0), Multiplet(r.L, r.M)),
                ]
                for r in records
            ]
        )
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        out.append(math.sqrt(np.mean((A @ coef - y) ** 2)))
    return np.array(out)


def fit_table(name: str) -> list[ParticleRecord]:
    """The fit tables these tests name: ``default`` (the default selection of
    the built-in table), ``noisy`` and ``noisy-SEED`` (noisy synthetic tables),
    ``single-L`` and ``single-M`` (the rows of ``noisy`` at one L or one M),
    ``L200`` (``default`` and one L = 200 row), ``single-L-and-M`` (eight rows
    at one L and |M|) and ``workload-SEED`` (the fit workload's first synthetic
    table at a seed, selected)."""
    group, _, seed = name.partition("-")
    if group == "noisy" and seed:
        rng = np.random.default_rng(int(seed))
        p = FitParams(rng.uniform(0.05, 0.9), -100.0, 500.0, 200.0)
        return noisy_records(p, seed=int(seed), sigma=0.02)
    if group == "workload":
        with tempfile.TemporaryDirectory() as tmp:
            return select_records(_fit_workload_table(int(seed), Path(tmp))[1], FitConfig())
    if name == "single-L-and-M":
        # one L and one |M|: both Casimir columns are constant, so every scan
        # row is rank-deficient and the loss is the same at every alpha
        return [ParticleRecord(f"flat-{k}", 5, 2, 1500.0 + 7.0 * k, "", "baryon") for k in range(8)]
    default = select_records(builtin_table(), FitConfig())
    noisy = noisy_records(FitParams(0.5, -100.0, 500.0, 200.0), seed=9, sigma=0.02)
    return {
        "default": default,
        "noisy": noisy,
        "single-L": [r for r in noisy if r.L == 7],
        "single-M": [r for r in noisy if r.M == 2],
        # Gamma(1 + 201*alpha) overflows for alpha above about 0.70
        "L200": default + [ParticleRecord("heavy", 200, 0, 50000.0, "", "baryon")],
    }[name]


#: the tables of the scan and Brent comparisons
SCAN_TABLES = ("default", "noisy", "single-M", "single-L", "L200")
BRENT_TABLES = ("default", *(f"noisy-{seed}" for seed in range(6)), "L200")


# ------------------------------------------------------------- selection


def test_default_selection():
    cfg = FitConfig()
    sel = select_records(builtin_table(), cfg)
    assert len(sel) == 42
    names = {r.name for r in sel}
    assert names.isdisjoint(DEFAULT_EXCLUDE)
    assert all(3 <= r.L <= 9 and r.group == "baryon" for r in sel)


def test_selection_without_exclusions():
    sel = select_records(builtin_table(), FitConfig(exclude_names=()))
    assert len(sel) == 44


def test_selection_all_baryons():
    sel = select_records(builtin_table(), FitConfig(l_range=None, exclude_names=()))
    assert len(sel) == 46


# ------------------------------------------------------------- objective


def test_objective_zero_for_exact_records():
    p = FitParams(0.25, -100.0, 500.0, 200.0)
    assert objective(p, synthetic_records(p)) < 1e-12


def test_objective_reference_params_on_default_set():
    sel = select_records(builtin_table(), FitConfig())
    assert objective(REFERENCE_PARAMS, sel) <= 0.9


@pytest.mark.parametrize("field", ["starts", "max_evals"])
def test_fit_config_refuses_a_zero_count(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        FitConfig(**{field: 0})


def test_objective_requires_records():
    with pytest.raises(ValueError):
        objective(REFERENCE_PARAMS, [])
    with pytest.raises(ValueError):
        loss_rms_mev(REFERENCE_PARAMS, [])


def _count_gamma_calls(monkeypatch) -> list[tuple[str, float]]:
    """(name, argument) of every ``gamma`` and ``rgamma`` call made through
    ``fraczee.spectrum``, where the Casimir kernel looks them up."""
    # the package exports a function named ``spectrum`` over the module's name
    spectrum_module = importlib.import_module("fraczee.spectrum")
    calls = []
    for name in ("gamma", "rgamma"):
        def counted(x, _fn=getattr(spectrum_module, name), _name=name):
            calls.append((_name, x))
            return _fn(x)
        monkeypatch.setattr(spectrum_module, name, counted)
    return calls


def _assert_each_gamma_argument_once(calls, alpha, records):
    # every Gamma argument of the level formula is 1 + k*alpha: gamma at each
    # numerator k, rgamma only at a denominator k that is not also a numerator
    ls, ms = {r.L for r in records}, {abs(r.M) for r in records}
    num = {L + 1 for L in ls} | ms
    den = ({L - 1 for L in ls} | {m - 1 for m in ms}) - num
    args = [x for _, x in calls]
    assert len(args) == len(set(args)) == len(num) + len(den)
    assert sorted(x for name, x in calls if name == "gamma") == sorted(1.0 + k * alpha for k in num)
    assert sorted(x for name, x in calls if name == "rgamma") == sorted(1.0 + k * alpha for k in den)
    return len(num), len(den)


def test_objective_evaluates_each_distinct_gamma_argument_once(monkeypatch):
    calls = _count_gamma_calls(monkeypatch)
    records = builtin_table()
    objective(REFERENCE_PARAMS, records)
    # 13 distinct L and 12 distinct |M| over the 53 rows: 20 Gamma arguments
    # (k = -1..12, 14..16, 19..21), not 2 x 53 nor 2 x (13 + 12)
    assert len(records) == 53
    assert _assert_each_gamma_argument_once(calls, REFERENCE_PARAMS.alpha, records) == (17, 3)


def test_profile_loss_evaluates_each_distinct_gamma_argument_once(monkeypatch):
    calls = _count_gamma_calls(monkeypatch)
    records = select_records(builtin_table(), FitConfig())
    prob = _Problem(records)
    for alpha in (0.112, 0.5):
        calls.clear()
        with np.errstate(**_SOLVE_STATE):
            loss, _ = prob._profile(alpha)
        assert math.isfinite(loss)
        assert all(type(x) is float for _, x in calls)
        # 7 distinct L and 9 distinct |M| over the 42 rows: the 12 arguments
        # k = -1..10, not 2 x 42 nor 2 x (7 + 9)
        assert _assert_each_gamma_argument_once(calls, alpha, records) == (11, 1)


@settings(max_examples=200)
@given(st.integers(5, 400), st.integers(0, 2**32 - 1))
def test_lstsq_loss_is_numpys_rms_bit_for_bit(n, seed):
    # the loss skips np.mean's dispatch but keeps its pairwise sum (blocks of
    # 8 and 128, so n runs past both), its division and a correctly rounded sqrt
    rng = np.random.default_rng(seed)
    records = [
        ParticleRecord(f"r{i}", int(L), 0, float(m), "", "baryon")
        for i, (L, m) in enumerate(zip(rng.integers(0, 10, n), rng.uniform(500.0, 5000.0, n)))
    ]
    prob = _Problem(records)
    A = rng.normal(size=(n, 3)) * [1.0, 100.0, 10.0]
    with np.errstate(**_SOLVE_STATE):
        loss, coef = prob._solve(A)
    res = A @ coef - prob.e_exp
    assert type(loss) is float
    assert loss.hex() == float(np.sqrt(np.mean(res * res))).hex()


def _coef_bits(coef) -> list[str]:
    return [c.hex() for c in coef.tolist()]


def _design(rng, n: int, kind: str) -> np.ndarray:
    """An (n, 3) matrix of full rank, with two collinear columns, or with
    two constant columns."""
    A = rng.normal(size=(n, 3)) * [1.0, 100.0, 10.0]
    if kind == "collinear":
        A[:, 2] = rng.uniform(-5.0, 5.0) * A[:, 1]
    elif kind == "constant":
        A[:, 0], A[:, 1] = 1.0, rng.uniform(-50.0, 50.0)
    return A


@settings(max_examples=300)
@given(st.integers(5, 400), st.sampled_from(["full", "collinear", "constant"]),
       st.integers(0, 2**32 - 1))
def test_lstsq_loss_coefficients_are_numpys_bit_for_bit(n, kind, seed):
    # the solve calls numpy's lstsq gufunc without the wrapper, so its
    # arguments (the column right-hand side, rcond = eps * max(rows, 3)) and
    # its output must give the wrapper's bits, rank-deficient A included
    rng = np.random.default_rng(seed)
    records = [ParticleRecord(f"r{i}", 1, 0, float(m), "", "baryon")
               for i, m in enumerate(rng.uniform(500.0, 5000.0, n))]
    prob = _Problem(records)
    A = _design(rng, n, kind)
    with np.errstate(**_SOLVE_STATE):
        _, coef = prob._solve(A)
    assert coef.shape == (3,) and coef.dtype == np.float64
    assert _coef_bits(coef) == _coef_bits(np.linalg.lstsq(A, prob.e_exp, rcond=None)[0])


def test_lstsq_loss_coefficients_are_numpys_on_the_default_grid():
    prob = _Problem(select_records(builtin_table(), FitConfig()))
    for alpha in _ALPHA_GRID.tolist():
        A = np.array([1.0, *prob.plan.values(alpha)])[prob.cols]
        want = np.linalg.lstsq(A, prob.e_exp, rcond=None)[0]
        with np.errstate(**_SOLVE_STATE):
            got = prob._solve(A)[1]
        assert _coef_bits(got) == _coef_bits(want), alpha


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lstsq_loss_raises_numpys_error_on_non_finite_input(bad):
    prob = _Problem(select_records(builtin_table(), FitConfig()))
    A = np.array([1.0, *prob.plan.values(0.112)])[prob.cols]
    A[3, 1] = bad
    message = "SVD did not converge in Linear Least Squares"
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        np.linalg.lstsq(A, prob.e_exp, rcond=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            with np.errstate(**_SOLVE_STATE):
                prob._solve(A)


def test_lstsq_gufunc_signature_exists():
    # fitting calls this private numpy gufunc directly: a numpy release that
    # renames it or drops the float64 loop must fail here, by name
    gufunc = importlib.import_module("numpy.linalg._umath_linalg").lstsq
    assert "ddd->ddid" in gufunc.types
    assert importlib.import_module("fraczee.fitting")._gelsd is gufunc


def test_objective_homogeneity():
    # doubling every relative residual doubles the objective
    p = FitParams(0.25, -100.0, 500.0, 200.0)
    mults = [Multiplet(L, M) for L in (3, 4) for M in range(0, L + 1)]
    base = [mass(p, m) for m in mults]
    r = np.linspace(-2.0, 2.0, len(base))  # percent residuals
    rec1 = [
        ParticleRecord(f"a{i}", m.L, m.M, e / (1 + ri / 100.0), "", "baryon")
        for i, (m, e, ri) in enumerate(zip(mults, base, r))
    ]
    rec2 = [
        ParticleRecord(f"b{i}", m.L, m.M, e / (1 + 2 * ri / 100.0), "", "baryon")
        for i, (m, e, ri) in enumerate(zip(mults, base, r))
    ]
    assert objective(p, rec2) == pytest.approx(2.0 * objective(p, rec1), rel=1e-9)


def test_objective_permutation_invariant():
    sel = select_records(builtin_table(), FitConfig())
    shuffled = list(reversed(sel))
    a = objective(REFERENCE_PARAMS, sel)
    b = objective(REFERENCE_PARAMS, shuffled)
    assert abs(a - b) < 1e-12


# ------------------------------------------------------------------- fit


def test_fit_recovers_synthetic_params_exactly():
    truth = FitParams(0.25, -100.0, 500.0, 200.0)
    records = synthetic_records(truth)
    cfg = FitConfig(starts=6, max_evals=4000)
    res = fit(records, cfg)
    assert res.converged
    assert objective(res.params, records) < 1e-6
    assert res.params.alpha == pytest.approx(0.25, abs=1e-4)


def test_fit_is_deterministic(default_fit):
    cfg, selected, result, _ = default_fit
    again = fit(selected, cfg)
    assert again == result


def test_fit_default_set_quality(default_fit):
    _, _, result, _ = default_fit
    assert result.rms_percent <= 0.9
    assert 0.102 <= result.params.alpha <= 0.122


def test_fit_result_consistency(default_fit):
    _, selected, result, _ = default_fit
    # per-particle rows are recomputed from the params, not stored copies
    for row, rec in zip(result.per_particle, selected):
        e_th = mass(result.params, Multiplet(rec.L, rec.M))
        assert row.name == rec.name
        assert row.e_th == pytest.approx(e_th, rel=1e-15)
        assert row.de_percent == pytest.approx(
            100.0 * (e_th - rec.mass_mev) / rec.mass_mev, rel=1e-12
        )
    assert result.rms_percent == pytest.approx(
        objective(result.params, selected), rel=1e-12
    )


def test_fit_figures_equal_the_public_functions_bit_for_bit(default_fit):
    # fit() shares one mass pass between the three figures; the public
    # functions must give the very same floats
    _, selected, result, _ = default_fit
    assert result.rms_percent == objective(result.params, selected)
    assert result.loss_rms_mev == loss_rms_mev(result.params, selected)


def test_fit_optimality_certificate(default_fit):
    _, selected, result, _ = default_fit
    base = loss_rms_mev(result.params, selected)
    a, m0, a0, b0 = result.params.astuple()
    for i in range(4):
        for s in (+1.0, -1.0):
            vals = [a, m0, a0, b0]
            vals[i] *= 1.0 + s * 1e-3
            perturbed = loss_rms_mev(FitParams(*vals), selected)
            assert perturbed >= base - 1e-8


def test_fit_mass_agreement_with_reference_table(default_fit):
    _, selected, result, _ = default_fit
    for row in result.per_particle:
        assert abs(row.e_th - E_TH[row.name]) <= 5.0, row


def test_fit_default_set_budget(default_fit):
    _, _, result, _ = default_fit
    assert result.evals <= 400


@pytest.mark.parametrize("table", ["default", "noisy"])
def test_fit_is_global_optimum_over_alpha(table):
    records = fit_table(table)
    curve = lstsq_loss_curve(records, np.linspace(0.01, 1.0, 991))
    if table == "noisy":
        last = len(curve) - 1
        minima = [
            i for i, v in enumerate(curve)
            if v <= curve[max(i - 1, 0)] and v <= curve[min(i + 1, last)]
        ]
        assert len(minima) >= 2
    res = fit(records, FitConfig())
    assert res.loss_rms_mev <= curve.min() * (1.0 + 1e-9)


def fit_pin(records) -> dict:
    """The fitted figures of the default config, every float as ``float.hex``."""
    res = fit(records)
    figures = dict(zip(("alpha", "m0", "a0", "b0"), res.params.astuple()))
    figures["loss_rms_mev"] = res.loss_rms_mev
    return {**{k: v.hex() for k, v in figures.items()}, "evals": res.evals}


@pytest.mark.parametrize("name", ["default", "noisy-11", "noisy-12", "noisy-13"])
def test_fit_is_pinned_to_the_bit(name):
    # b0 of the default fit sits 0.0007 MeV from a rounding boundary of
    # `fit --out`, so the loss path must not move one bit of any figure
    assert fit_pin(fit_table(name)) == json.loads(FIT_PINS.read_text())[name]


@pytest.mark.parametrize("table", SCAN_TABLES)
def test_scan_losses_match_scalar_profile_loss(table):
    prob = _Problem(fit_table(table))
    if table.startswith("single"):
        # one distinct Casimir value makes a column parallel to the constant
        assert min(len(prob.plan.ls), len(prob.plan.ms)) == 1
    batched = prob.scan_losses(_ALPHA_GRID)
    assert prob.evals == len(_ALPHA_GRID)
    with np.errstate(**_SOLVE_STATE):
        scalar = np.array([prob._profile(float(a))[0] for a in _ALPHA_GRID])
    assert np.array_equal(np.isinf(batched), np.isinf(scalar))
    assert np.isinf(scalar).any() == (table == "L200")
    finite = np.isfinite(scalar)
    assert finite.any()
    np.testing.assert_allclose(batched[finite], scalar[finite], rtol=1e-11, atol=0.0)


# ------------------------------------------------ Brent against scipy


def _same_as_scipy(func, lo, hi, xatol, maxiter):
    """Run the in-repo bounded Brent and scipy's on ``func`` and require the
    same bits in every field the fit reads."""
    got = minimize_scalar(func, lo, hi, xatol=xatol, maxiter=maxiter)
    # scipy's iterates are numpy scalars, which warn where the port's floats
    # silently give inf - inf = nan
    with np.errstate(invalid="ignore", over="ignore"):
        want = scipy.optimize.minimize_scalar(
            func, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxiter}
        )
    assert (got.x, got.nfev, got.success) == (float(want.x), int(want.nfev), bool(want.success))
    assert got.fun == float(want.fun) or (math.isnan(got.fun) and math.isnan(want.fun))
    return got


@pytest.mark.parametrize(
    "func, lo, hi",
    [
        pytest.param(lambda x: (x - 0.3) ** 2, 0.0, 1.0, id="parabola"),
        pytest.param(lambda x: abs(x - 1.0 / 3.0), -1.0, 1.0, id="kink"),
        pytest.param(lambda x: 0.6 - x if x < 0.6 else 10.0 * (x - 0.6), 0.0, 1.0, id="skewed-kink"),
        pytest.param(lambda x: x, 0.0, 1.0, id="minimum-at-bound"),
        pytest.param(lambda x: 1.0, -2.0, 3.0, id="constant"),
        pytest.param(lambda x: math.cos(5.0 * x), 0.0, 2.0, id="cosine"),
        pytest.param(lambda x: math.inf if x > 0.1 else -x, -1.0, 1.0, id="inf-above"),
        pytest.param(lambda x: math.nan if x > -0.5 else x * x, -1.0, 1.0, id="nan-flag"),
    ],
)
@pytest.mark.parametrize("maxiter", [1, 5, 500])
def test_brent_matches_scipy_on_plain_functions(func, lo, hi, maxiter):
    _same_as_scipy(func, lo, hi, 1e-12, maxiter)


@pytest.mark.parametrize("maxiter", [5, FitConfig().max_evals - len(_ALPHA_GRID)])
@pytest.mark.parametrize("name", BRENT_TABLES)
def test_brent_matches_scipy_on_the_fit_refines(name, maxiter):
    # every refine the fit would run: each scan minimum, offset from its grid
    # point, between the neighbouring grid points; on the L200 table also the
    # brackets around the overflow edge, which hold infinite losses
    prob = _Problem(fit_table(name))
    scan = prob.scan_losses(_ALPHA_GRID).tolist()
    last = len(scan) - 1
    centers = _scan_minima(scan)
    edge = [i for i in range(last) if math.isfinite(scan[i]) and not math.isfinite(scan[i + 1])]
    assert bool(edge) == (name == "L200")
    centers += [j for i in edge for j in (i, i + 1)]
    seen = []
    for i in centers:
        a_i = float(_ALPHA_GRID[i])

        def loss(t):
            with np.errstate(**_SOLVE_STATE):
                v = prob._profile(a_i + float(t))[0]
            seen.append(v)
            return v

        lo = float(_ALPHA_GRID[max(i - 1, 0)]) - a_i
        hi = float(_ALPHA_GRID[min(i + 1, last)]) - a_i
        res = _same_as_scipy(loss, lo, hi, 1e-12, maxiter)
        assert res.nfev <= maxiter
    assert any(math.isinf(v) for v in seen) == (name == "L200")


@pytest.mark.parametrize("name", [
    *(pytest.param(t, id=f"scan-{t}") for t in SCAN_TABLES),
    *(pytest.param(t, id=f"brent-{t}") for t in BRENT_TABLES),
    *(f"workload-{seed}" for seed in range(20)),
    "single-L-and-M",
])
def test_scan_minima_match_the_scalar_profile_loss(name):
    # the scan reaches a fit result only through the order of its local
    # minima, which the refines start from
    prob = _Problem(fit_table(name))
    scan = prob.scan_losses(_ALPHA_GRID)
    with np.errstate(**_SOLVE_STATE):
        scalar = [prob._profile(float(a))[0] for a in _ALPHA_GRID]
    assert _local_minima(scan) == _scan_minima(scan.tolist()) == _scan_minima(scalar)
    scan = scan.tolist()
    if name == "single-L-and-M":
        assert len(set(scan)) == 1 and len(_scan_minima(scan)) == len(_ALPHA_GRID)


_N = len(_ALPHA_GRID)


@pytest.mark.parametrize(
    "losses",
    [
        pytest.param([2.0, 1.0, 1.0, 3.0, 1.0, 2.0], id="equal-losses"),
        pytest.param([5.0] * _N, id="plateau"),
        pytest.param([3.0, math.inf, 2.0, math.inf, math.inf, 1.0, 4.0], id="inf-cells"),
        pytest.param([1.0] + [2.0] * (_N - 2) + [0.5], id="ends"),
        pytest.param([math.inf] * _N, id="all-inf"),
        pytest.param([math.nan, 1.0, 2.0], id="nan-left"),
        pytest.param([2.0, 1.0, math.nan], id="nan-right"),
        pytest.param([1.0, math.nan, 1.0, 0.5, math.nan, math.nan, 0.5], id="nan-both"),
        pytest.param([0.0, -0.0, 0.0], id="signed-zeros"),
        pytest.param([4.0], id="one"),
        pytest.param([], id="none"),
    ],
)
def test_local_minima_are_the_oracle_order(losses):
    # Python's min(left, right) keeps the left one unless the right one is
    # smaller, so a NaN on the left hides a minimum and one on the right does
    # not; np.minimum would hide both
    assert _local_minima(np.array(losses, dtype=float)) == _scan_minima(losses)


@settings(max_examples=300)
@given(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, math.inf, math.nan]), max_size=12))
def test_local_minima_match_the_oracle_on_any_small_list(losses):
    assert _local_minima(np.array(losses, dtype=float)) == _scan_minima(losses)


def test_profile_loss_is_infinite_where_gamma_returns_inf():
    # the scalar Gamma returns inf, without raising, just above x = 142.2
    alpha = 0.703
    assert gamma(1.0 + 201 * alpha) == math.inf
    prob = _Problem(fit_table("L200"))
    with np.errstate(**_SOLVE_STATE):
        assert prob._profile(alpha) == (math.inf, None)
    assert prob.scan_losses(np.array([alpha])).tolist() == [math.inf]


def test_scan_losses_of_one_alpha_and_of_none():
    # one feasible alpha, a scan where no alpha is feasible, and an empty
    # scan: no RuntimeWarning (an error under this suite) and the right shapes
    prob = _Problem(fit_table("default"))
    (loss,) = prob.scan_losses(np.array([0.112])).tolist()
    with np.errstate(**_SOLVE_STATE):
        want = prob._profile(0.112)[0]
    assert loss == pytest.approx(want, rel=1e-11, abs=0.0)
    assert prob.scan_losses(np.array([])).tolist() == []
    heavy = [ParticleRecord(f"big-{M}", 20000, M, 1000.0, "", "baryon") for M in range(5)]
    assert _Problem(heavy).scan_losses(_ALPHA_GRID).tolist() == [math.inf] * len(_ALPHA_GRID)


def test_fit_requires_five_records():
    p = FitParams(0.25, -100.0, 500.0, 200.0)
    with pytest.raises(FitError):
        fit(synthetic_records(p)[:4], FitConfig(starts=2))


def test_fit_raises_when_nothing_converges():
    p = FitParams(0.25, -100.0, 500.0, 200.0)
    with pytest.raises(FitError, match="converged"):
        fit(synthetic_records(p), FitConfig(starts=2, max_evals=2))


def test_fit_error_names_the_scan_cost():
    records = select_records(builtin_table(), FitConfig())
    n = len(_ALPHA_GRID)
    with pytest.raises(FitError, match=f"converged within 100 .* scan alone takes {n}"):
        fit(records, FitConfig(max_evals=100))


def test_fit_raises_when_every_alpha_overflows():
    # Gamma(1 + (L+1)*alpha) overflows for L = 20000 already at alpha = 0.01
    records = [ParticleRecord(f"big-{M}", 20000, M, 1000.0, "", "baryon") for M in range(5)]
    with pytest.raises(FitError, match="not finite"):
        fit(records)


def _fit_raising_after_two_refine_steps():
    # the scan and two Brent evaluations fit in the budget, a converged refine does not
    with pytest.raises(FitError, match="converged"):
        fit(select_records(builtin_table(), FitConfig()), FitConfig(max_evals=len(_ALPHA_GRID) + 2))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: fit(select_records(builtin_table(), FitConfig())), id="fit"),
    pytest.param(_fit_raising_after_two_refine_steps, id="fit-raises"),
    pytest.param(lambda: _Problem(fit_table("single-L")).scan_losses(_ALPHA_GRID),
                 id="scan-with-fallback-rows"),
])
def test_fit_and_scan_leave_numpys_error_state_as_they_found_it(call, monkeypatch):
    # the refine loop and the scan's fallback rows run under the solve's error
    # state (over, divide and under ignored, invalid calling a raising
    # handler); it must end with them, also when the fit raises
    solve, solves = _Problem._solve, []

    def counted(self, A):
        solves.append(A.shape)
        return solve(self, A)

    def handler(err, flag):  # the caller's own, so that a leaked _svd_failed shows
        raise AssertionError(f"floating-point error {err!r}")

    monkeypatch.setattr(_Problem, "_solve", counted)
    with np.errstate(all="warn", call=handler):
        before = np.geterr(), np.geterrcall()
        call()
        assert (np.geterr(), np.geterrcall()) == before
    assert solves, "the call made no least-squares solve"


def test_per_particle_is_a_plain_frozen_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Plain:
        name: str
        e_exp: float
        e_th: float
        de_percent: float

    fields = ("Lambda", 1116.0, 1117.25, 0.112)
    p, plain = PerParticle(*fields), Plain(*fields)
    assert [f.name for f in dataclasses.fields(PerParticle)] == [
        f.name for f in dataclasses.fields(Plain)]
    assert p == PerParticle(name="Lambda", e_exp=1116.0, e_th=1117.25, de_percent=0.112)
    assert p != PerParticle("Lambda", 1116.0, 1117.5, 0.112)
    assert p != plain
    assert hash(p) == hash(plain) == hash(fields)
    assert repr(p) == repr(plain).replace(type(plain).__qualname__, "PerParticle")
    assert dataclasses.astuple(p) == dataclasses.astuple(plain) == fields
    assert dataclasses.replace(p, e_th=1118.0) == PerParticle("Lambda", 1116.0, 1118.0, 0.112)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.e_th = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.name
    twin = pickle.loads(pickle.dumps(p))
    assert twin == p and type(twin) is PerParticle and twin.__dict__ == p.__dict__


def test_regression_reference_params_reproduce_table():
    # forward check over the 50 rows that the rounded parameter set does
    # reproduce (the three L > 10 rows encode a finer alpha; see README)
    for r in builtin_table():
        if r.L > 10:
            continue
        e_th = mass(REFERENCE_PARAMS, Multiplet(r.L, r.M))
        assert e_th == pytest.approx(E_TH[r.name], abs=0.05), r.name


def test_predict_meson_band():
    out = predict(REFERENCE_PARAMS, [Multiplet(2, 2), Multiplet(1, 0)])
    assert out[0][1] == pytest.approx(945.76, abs=0.05)
    assert out[1][1] == pytest.approx(313.90, abs=0.05)
    assert predict(REFERENCE_PARAMS, []) == []


# ------------------------------------- the level pass against the Multiplet-per-record one


def _level_cases():
    rng = random.Random("levels")
    table = builtin_table()
    # one row at L = 180..220: the overflow probe's shape, which overflows at
    # alphas above about 0.77..0.94
    heavy = [ParticleRecord(f"heavy-{L}", L, rng.randint(0, L), 50000.0, "", "baryon")
             for L in (180, rng.randint(181, 219), 220)]
    tables = [table, table[5:30], *(table + [h] for h in heavy)]
    params = [REFERENCE_PARAMS]
    params += [FitParams(rng.uniform(0.01, 1.2), rng.uniform(-2e4, 2e3), rng.uniform(-2e3, 2e4),
                         rng.uniform(-1e4, 1e4)) for _ in range(8)]
    for i, p in enumerate(params):
        records = tables[i % len(tables)]
        L_top = rng.choice((9, 20, 200))
        band = [Multiplet(L, M, rng.choice((1, -1)))
                for L in sorted(rng.sample(range(L_top + 1), 4)) for M in range(-L, L + 1, 2)]
        yield pytest.param(p, records, band, id=f"params{i}-rows{len(records)}-L{L_top}")


def _multiplet_levels(p, records, band=()) -> tuple[list, list]:
    """``fitting._levels`` as a ``Multiplet`` per record through ``spectrum``."""
    levels = spectrum(p, [Multiplet(r.L, r.M) for r in records] + list(band))
    rows = [
        (e, e - r.mass_mev, 100.0 * (e - r.mass_mev) / r.mass_mev)
        for r, (_, e) in zip(records, levels)
    ]
    return rows, levels[len(records):]


@pytest.mark.parametrize("p, records, band", list(_level_cases()))
def test_level_pass_matches_the_multiplet_per_record_pass(p, records, band):
    def rms(column):
        return _rms([row[column] for row in _multiplet_levels(p, records)[0]])

    assert _outcome(lambda: _levels(p, records, band)) == _outcome(
        lambda: _multiplet_levels(p, records, band))
    assert _outcome(lambda: _levels(p, records)) == _outcome(
        lambda: _multiplet_levels(p, records))
    assert _outcome(lambda: objective(p, records)) == _outcome(lambda: rms(2))
    assert _outcome(lambda: loss_rms_mev(p, records)) == _outcome(lambda: rms(1))


def test_level_pass_cases_reach_the_overflow_and_both_signs():
    cases = [c.values for c in _level_cases()]
    raised = [_outcome(lambda: _levels(p, records))[0] == "raised" for p, records, _ in cases]
    assert any(raised) and not all(raised)
    bands = [m for _, _, band in cases for m in band]
    assert {m.sign for m in bands} == {1, -1} and min(m.M for m in bands) < 0
