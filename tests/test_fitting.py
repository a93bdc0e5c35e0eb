import importlib
import math

import numpy as np
import pytest
import scipy.optimize

from fraczee.dataset import ParticleRecord, builtin_table
from fraczee.fitting import (
    _ALPHA_GRID,
    DEFAULT_EXCLUDE,
    FitConfig,
    FitError,
    _Problem,
    fit,
    minimize_scalar,
    loss_rms_mev,
    objective,
    predict,
    select_records,
)
from fraczee.specfun import gamma
from fraczee.spectrum import REFERENCE_PARAMS, FitParams, Multiplet, mass

from reference_values import E_TH


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


def test_objective_requires_records():
    with pytest.raises(ValueError):
        objective(REFERENCE_PARAMS, [])
    with pytest.raises(ValueError):
        loss_rms_mev(REFERENCE_PARAMS, [])


def test_objective_evaluates_each_distinct_casimir_once(monkeypatch):
    # the package exports a function named ``spectrum`` over the module's name
    spectrum_module = importlib.import_module("fraczee.spectrum")
    calls = []
    for name in ("casimir_L2", "casimir_Lz"):
        def counted(*args, _fn=getattr(spectrum_module, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(spectrum_module, name, counted)
    records = builtin_table()
    objective(REFERENCE_PARAMS, records)
    # 13 distinct L and 12 distinct |M| over the 53 rows, not 2 x 53
    assert len(records) == 53
    assert calls.count("casimir_L2") == len({r.L for r in records}) == 13
    assert calls.count("casimir_Lz") == len({abs(r.M) for r in records}) == 12


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
    cfg = FitConfig(starts=6, max_evals=4000, tol=1e-6, seed=3)
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
    cfg, selected, result, _ = default_fit
    base = loss_rms_mev(result.params, selected)
    a, m0, a0, b0 = result.params.astuple()
    for i in range(4):
        for s in (+1.0, -1.0):
            vals = [a, m0, a0, b0]
            vals[i] *= 1.0 + s * 1e-3
            perturbed = loss_rms_mev(FitParams(*vals), selected)
            assert perturbed >= base - cfg.tol


def test_fit_mass_agreement_with_reference_table(default_fit):
    _, selected, result, _ = default_fit
    for row in result.per_particle:
        assert abs(row.e_th - E_TH[row.name]) <= 5.0, row


def test_fit_default_set_budget(default_fit):
    _, _, result, _ = default_fit
    assert result.evals <= 400


@pytest.mark.parametrize("table", ["default", "noisy"])
def test_fit_is_global_optimum_over_alpha(table):
    if table == "default":
        records = select_records(builtin_table(), FitConfig())
    else:
        records = noisy_records(FitParams(0.5, -100.0, 500.0, 200.0), seed=9, sigma=0.02)
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


def _scan_table(table):
    noisy = noisy_records(FitParams(0.5, -100.0, 500.0, 200.0), seed=9, sigma=0.02)
    default = select_records(builtin_table(), FitConfig())
    if table == "default":
        return default
    if table == "noisy":
        return noisy
    if table == "single-M":
        return [r for r in noisy if r.M == 2]
    if table == "single-L":
        return [r for r in noisy if r.L == 7]
    # Gamma(1 + 201*alpha) overflows for alpha above about 0.70
    return default + [ParticleRecord("heavy", 200, 0, 50000.0, "", "baryon")]


@pytest.mark.parametrize("table", ["default", "noisy", "single-M", "single-L", "L200"])
def test_scan_losses_match_scalar_profile_loss(table):
    prob = _Problem(_scan_table(table))
    if table.startswith("single"):
        # one distinct Casimir value makes a column parallel to the constant
        assert min(len(prob.l_values), len(prob.m_values)) == 1
    batched = prob.scan_losses(_ALPHA_GRID)
    assert prob.evals == len(_ALPHA_GRID)
    scalar = np.array([prob.profile_loss(float(a))[0] for a in _ALPHA_GRID])
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


def _brent_tables():
    default = select_records(builtin_table(), FitConfig())
    yield "default", default
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = FitParams(rng.uniform(0.05, 0.9), -100.0, 500.0, 200.0)
        yield f"noisy-{seed}", noisy_records(p, seed=seed, sigma=0.02)
    # Gamma(1 + 201*alpha) overflows for alpha above about 0.70
    yield "L200", default + [ParticleRecord("heavy", 200, 0, 50000.0, "", "baryon")]


@pytest.mark.parametrize("maxiter", [5, FitConfig().max_evals - len(_ALPHA_GRID)])
@pytest.mark.parametrize("name, records", [pytest.param(*t, id=t[0]) for t in _brent_tables()])
def test_brent_matches_scipy_on_the_fit_refines(name, records, maxiter):
    # every refine the fit would run: each scan minimum, offset from its grid
    # point, between the neighbouring grid points; on the L200 table also the
    # brackets around the overflow edge, which hold infinite losses
    prob = _Problem(records)
    scan = prob.scan_losses(_ALPHA_GRID).tolist()
    last = len(scan) - 1
    centers = [
        i for i, v in enumerate(scan)
        if math.isfinite(v) and v <= min(scan[max(i - 1, 0)], scan[min(i + 1, last)])
    ]
    edge = [i for i in range(last) if math.isfinite(scan[i]) and not math.isfinite(scan[i + 1])]
    assert bool(edge) == (name == "L200")
    centers += [j for i in edge for j in (i, i + 1)]
    seen = []
    for i in centers:
        a_i = float(_ALPHA_GRID[i])

        def loss(t):
            v = prob.profile_loss(a_i + float(t))[0]
            seen.append(v)
            return v

        lo = float(_ALPHA_GRID[max(i - 1, 0)]) - a_i
        hi = float(_ALPHA_GRID[min(i + 1, last)]) - a_i
        res = _same_as_scipy(loss, lo, hi, 1e-12, maxiter)
        assert res.nfev <= maxiter
    assert any(math.isinf(v) for v in seen) == (name == "L200")


def test_profile_loss_is_infinite_where_gamma_returns_inf():
    # the scalar Gamma returns inf, without raising, just above x = 142.2
    alpha = 0.703
    assert gamma(1.0 + 201 * alpha) == math.inf
    prob = _Problem(_scan_table("L200"))
    assert prob.profile_loss(alpha) == (math.inf, None)
    assert prob.scan_losses(np.array([alpha])).tolist() == [math.inf]


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_fit_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        FitConfig(tol=tol)


def test_fit_raises_when_every_alpha_overflows():
    # Gamma(1 + (L+1)*alpha) overflows for L = 20000 already at alpha = 0.01
    records = [ParticleRecord(f"big-{M}", 20000, M, 1000.0, "", "baryon") for M in range(5)]
    with pytest.raises(FitError, match="not finite"):
        fit(records)


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
