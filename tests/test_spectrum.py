import math
import random

import pytest

from fraczee.monomial import PolyExpr, PowerTerm
from fraczee.operators import PhasedPoly, build_Kz
from fraczee.spectrum import (
    REFERENCE_PARAMS,
    FitParams,
    Multiplet,
    casimir_L2,
    casimir_Lz,
    mass,
    spectrum,
)
from fraczee.specfun import gamma

from oracles import spouge_gamma


def test_casimir_L2_classical():
    assert casimir_L2(1.0, 3) == pytest.approx(12.0, rel=1e-13)
    assert casimir_L2(1.0, 0) == 0.0


def test_casimir_L2_positive():
    for L in range(1, 12):
        for alpha in (0.112, 0.5, 1.0):
            assert casimir_L2(alpha, L) > 0.0


def test_casimir_Lz_classical():
    assert casimir_Lz(1.0, 2) == pytest.approx(2.0, rel=1e-13)
    assert casimir_Lz(1.0, 0) == 0.0
    assert casimir_Lz(1.0, 2, -1) == pytest.approx(-2.0, rel=1e-13)


def test_casimir_Lz_zero_point_value():
    # M = 0 at fractional order: 1/Gamma(1 - alpha), nonzero
    want = 1.0 / float(spouge_gamma(1.0 - 0.112))
    assert casimir_Lz(0.112, 0) == pytest.approx(want, rel=1e-12)


def test_mass_reference_rows():
    assert mass(REFERENCE_PARAMS, Multiplet(3, 1)) == pytest.approx(1115.94, abs=0.05)
    assert mass(REFERENCE_PARAMS, Multiplet(4, 0)) == pytest.approx(1240.53, abs=0.05)


def test_mass_classical_splitting():
    p = FitParams(1.0, -10.0, 3.0, 7.0)
    for L in range(0, 6):
        for M in range(0, L + 1):
            want = p.m0 + p.a0 * L * (L + 1) + (p.b0 * M if M else 0.0)
            assert mass(p, Multiplet(L, M)) == pytest.approx(want, rel=1e-12)


def test_mass_minus_branch():
    p = REFERENCE_PARAMS
    up = mass(p, Multiplet(3, 2, +1))
    dn = mass(p, Multiplet(3, 2, -1))
    assert up - dn == pytest.approx(2 * p.b0 * casimir_Lz(p.alpha, 2), rel=1e-12)


def test_mass_monotone_in_M():
    for L in range(3, 10):
        values = [mass(REFERENCE_PARAMS, Multiplet(L, M)) for M in range(0, L + 1)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_alpha_one_collapse_spacing():
    p = FitParams(1.0, -100.0, 50.0, 20.0)
    for L in (2, 5):
        for M in range(2, L + 1):
            d = mass(p, Multiplet(L, M)) - mass(p, Multiplet(L, M - 1))
            assert d == pytest.approx(p.b0, rel=1e-12)


def test_spectrum_order_and_empty():
    assert spectrum(REFERENCE_PARAMS, []) == []
    mults = [Multiplet(4, 2), Multiplet(3, 0), Multiplet(4, 0)]
    out = spectrum(REFERENCE_PARAMS, mults)
    assert [m for m, _ in out] == mults
    assert out[1][1] == pytest.approx(959.39, abs=0.05)


def test_spectrum_equals_the_level_formula_bit_for_bit():
    # the cached-Casimir pass must reproduce the per-level formula exactly,
    # for both signs, negative M and repeated L/|M| within one call
    rng = random.Random(20071)
    for _ in range(60):
        alpha = rng.choice([1.0, 0.112, rng.uniform(0.01, 1.0)])
        p = FitParams(alpha, *(rng.uniform(-2e4, 2e4) for _ in range(3)))
        lo = rng.randint(0, 30)
        mults = [
            Multiplet(L, M, sign)
            for L in range(lo, lo + rng.randint(0, 3) + 1)
            for M in range(-L, L + 1)
            for sign in (+1, -1)
        ]
        rng.shuffle(mults)
        want = [
            p.m0 + p.a0 * casimir_L2(p.alpha, m.L) + p.b0 * casimir_Lz(p.alpha, m.M, m.sign)
            for m in mults
        ]
        got = spectrum(p, mults)
        assert [m for m, _ in got] == mults
        assert [e.hex() for _, e in got] == [e.hex() for e in want]
        assert [mass(p, m).hex() for m in mults[:5]] == [e.hex() for e in want[:5]]


def test_multiplet_validation():
    with pytest.raises(ValueError):
        Multiplet(3, 5)
    with pytest.raises(ValueError):
        Multiplet(-1, 0)
    with pytest.raises(ValueError):
        Multiplet(3, 1, 2)


def test_fitparams_validation():
    with pytest.raises(ValueError):
        FitParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FitParams(0.5, math.nan, 1.0, 1.0)


def _xy_circular(M: int) -> PhasedPoly:
    # (x + i y)^M expanded into phased monomials
    re, im = [], []
    for k in range(M + 1):
        c = math.comb(M, k)
        exps = (float(M - k), float(k), 0.0, 0.0)
        ph = k % 4
        if ph == 0:
            re.append(PowerTerm(c, exps))
        elif ph == 1:
            im.append(PowerTerm(c, exps))
        elif ph == 2:
            re.append(PowerTerm(-c, exps))
        else:
            im.append(PowerTerm(-c, exps))
    return PhasedPoly(PolyExpr.from_terms(re), PolyExpr.from_terms(im))


@pytest.mark.parametrize("M", (1, 2, 3, 4))
def test_casimir_Lz_matches_operator_eigenvalue_classical(M):
    # K_z(1) (x+iy)^M = M (x+iy)^M, matching the alpha = 1 eigenvalue
    f = _xy_circular(M)
    out = build_Kz(1.0).apply_phased(f)
    want = f.scaled(casimir_Lz(1.0, M))
    assert (out - want).max_abs_coeff() < 1e-10
