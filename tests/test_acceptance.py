"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 (forward reproduction of all 53 published theoretical masses
from the rounded reference parameters) is known not to hold for the three
L > 10 rows: the published values there imply alpha ~ 0.11206, and with
the rounded alpha = 0.112 they sit 2.5-4.3 MeV off, far outside the
0.05 MeV print-rounding budget.  The criterion is asserted as stated and
fails honestly on those rows; the other 50 pass.
"""

import json
import time

import numpy as np

from fraczee.checks import SUITES
from fraczee.cli import main as cli_main
from fraczee.dataset import builtin_table
from fraczee.specfun import gamma, rgamma
from fraczee.spectrum import REFERENCE_PARAMS, Multiplet, mass

from oracles import spouge_gamma
from reference_values import E_TH, MESONS


def _line(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


def test_criterion_1_table_forward_reproduction():
    t0 = time.perf_counter()
    computed = {
        r.name: mass(REFERENCE_PARAMS, Multiplet(r.L, r.M)) for r in builtin_table()
    }
    elapsed = time.perf_counter() - t0
    bad = {
        name: computed[name] - E_TH[name]
        for name in computed
        if abs(computed[name] - E_TH[name]) > 0.05
    }
    ok = not bad and elapsed < 1.0
    detail = f"{53 - len(bad)}/53 rows within 0.05 MeV in {elapsed:.3f}s"
    if bad:
        detail += "; off: " + ", ".join(
            f"{n} ({d:+.2f} MeV)" for n, d in sorted(bad.items())
        )
    _line(1, "table forward reproduction", ok, detail)
    assert elapsed < 1.0
    assert not bad, (
        "published values for the three L > 10 rows encode an unrounded "
        f"alpha (~0.11206) and cannot follow from alpha = 0.112: {bad}"
    )


def test_criterion_2_fit_reproduction(default_fit):
    cfg, selected, result, elapsed = default_fit
    p = result.params
    shifts = [abs(row.e_th - E_TH[row.name]) for row in result.per_particle]
    ok_rms = result.rms_percent <= 0.9
    ok_alpha = 0.102 <= p.alpha <= 0.122
    ok_mass = max(shifts) <= 5.0
    ok_time = elapsed < 60.0
    ok = ok_rms and ok_alpha and ok_mass and ok_time
    _line(
        2,
        "fit reproduction",
        ok,
        f"rms={result.rms_percent:.4f}% alpha={p.alpha:.5f} "
        f"max|dE_th|={max(shifts):.2f} MeV t={elapsed:.1f}s n={len(selected)}",
    )
    assert ok_rms and ok_alpha and ok_mass and ok_time


def test_criterion_3_meson_predictions():
    devs = {
        r.name: mass(REFERENCE_PARAMS, Multiplet(r.L, r.M)) - E_TH[r.name]
        for r in builtin_table()
        if r.name in MESONS
    }
    worst = max(abs(v) for v in devs.values())
    ok = len(devs) == 5 and worst <= 0.05
    _line(3, "meson prediction rows", ok, f"worst |dev| = {worst:.3f} MeV")
    assert ok


def _checks(*suites, seed=2024, nodes=64):
    """The registry's reports of the given suites, grouped by check name."""
    out = {}
    for suite in suites:
        for r in SUITES[suite](seed, nodes):
            out.setdefault(r.name, []).append(r)
    return out


def _within(reports, count, tol):
    """``count`` reports, every residual of them below ``tol``."""
    return len(reports) == count and max(v for r in reports for v in r.residuals.values()) < tol


def _all_passed(checks):
    return all(r.passed for reports in checks.values() for r in reports)


def test_criterion_4_quadrature_vs_closed_form():
    (report,) = _checks("quad", nodes=64)["quad-vs-power-rule"]
    worst = report.residuals["worst_rel_error"]
    ok = report.passed and worst <= 1e-6
    _line(4, "quadrature vs power rule", ok, f"worst rel err = {worst:.2e}")
    assert ok


def test_criterion_5_operator_identities():
    checks = _checks("commutators", "spin-algebra", seed=2024)
    jz_h = checks["Jz-H-commutation"]
    worst_a = max(r.residuals["worst_max_coeff"] for r in jz_h)
    grid = [(r.details["alpha"], r.details["monomials"]) for r in jz_h]
    ok_a = _within(jz_h, 4, 1e-10) and grid == [(0.3, 50), (0.5, 50), (0.75, 50), (0.9, 50)]
    worst_b = min(r.residuals["max_coeff"] for r in checks["Lz-H-noncommutation"])
    ok_b = worst_b > 1e-6
    ok_c = _within(checks["kz-h-commutator"], 12, 1e-10)
    ok_d = _within(checks["J-algebra"], 4, 1e-10)
    (sz1,) = checks["Sz-vanishes-at-alpha-1"]
    ok_e = sz1.residuals["terms"] == 0.0
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and _all_passed(checks)
    _line(
        5,
        "operator identity suite",
        ok,
        f"(a) [Jz,H] worst={worst_a:.2e} (b) [Lz,H] min={worst_b:.2e} "
        f"(c) kkk={ok_c} (d) J-algebra={ok_d} (e) Sz(1)=0: {ok_e}",
    )
    assert ok


def test_criterion_6_gauge_field_suite():
    checks = _checks("zeeman-field", "connection")
    coeff_ok = _within(checks["curl-coefficient"], 3, 1e-12)
    constant_ok = _within(checks["constant-field"], 3, 1e-12)
    reduction_ok = _within(checks["connection-reduction"], 3, 1e-12)
    ok = coeff_ok and constant_ok and reduction_ok and _all_passed(checks)
    _line(
        6,
        "gauge-field suite",
        ok,
        f"curl coeff={coeff_ok} constancy={constant_ok} connection={reduction_ok}",
    )
    assert ok


def test_criterion_7_special_functions():
    rng = np.random.default_rng(777)
    worst = 0.0
    for x in rng.uniform(0.1, 40.0, size=1000):
        x = float(x)
        want = spouge_gamma(x)
        worst = max(worst, abs((gamma(x) - want) / want))
    poles_ok = all(rgamma(float(-n)) == 0.0 for n in range(0, 21))
    ok = worst <= 1e-12 and poles_ok
    _line(7, "special functions", ok,
          f"worst rel err vs 40-digit oracle = {float(worst):.2e}; rgamma poles exact: {poles_ok}")
    assert ok


def test_criterion_8_fit_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli_main(["fit", "--seed", "42", "--out", str(out1)]) == 0
    assert cli_main(["fit", "--seed", "42", "--out", str(out2)]) == 0
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    _line(8, "fit determinism", identical, f"{out1.stat().st_size} bytes each")
    assert identical
    doc = json.loads(out1.read_text())
    assert set(doc) == {"params", "rms_percent", "per_particle", "evals", "converged"}
