import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraczee.monomial import PolyExpr, PowerTerm
from fraczee.operators import PhasedPoly, build_Kz
from fraczee.spectrum import (
    REFERENCE_PARAMS,
    FitParams,
    Multiplet,
    _CasimirPlan,
    casimir_L2,
    casimir_Lz,
    mass,
    spectrum,
)
from fraczee.specfun import gamma

from oracles import (
    oracle_casimir_L2,
    oracle_casimir_L2_array,
    oracle_casimir_Lz,
    oracle_casimir_Lz_array,
    spouge_gamma,
)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: casimir_L2(0.5, -1), "L must be nonnegative"),
        (lambda: casimir_Lz(0.5, 1, sign=2), "sign must be"),
    ],
)
def test_casimir_refuses_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


#: alphas above 1, the values that put a Gamma argument on an integer or a
#: half-integer (1, 1/2, 1/4, 1/3), 0.703 (where L = 200 gives inf) and 2
#: (where the k = -1 argument is a pole)
CASIMIR_ALPHAS = st.one_of(
    st.sampled_from((1.0, 0.5, 0.25, 1.0 / 3.0, 0.703, 0.112, 1.5, 2.0, 3.0)),
    st.floats(1e-3, 3.0),
)
#: L and |M| up to 220, past the overflow at L = 170 for alpha = 1
CASIMIR_NS = st.lists(st.integers(0, 220), max_size=12)


def _bits(call):
    """``float.hex`` of each value of the two lists ``call`` returns, or the
    type and message of what it raises."""
    try:
        return [[v.hex() for v in values] for values in call()]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


@settings(max_examples=300)
@given(CASIMIR_ALPHAS, CASIMIR_NS, CASIMIR_NS)
@example(0.703, [200, 3, 199, 201], [200, 2])  # inf numerators next to finite ones
@example(1.0, [169, 170, 171], [])  # the OverflowError at L = 170
@example(0.703, [3, 220], [0, 1])  # OverflowError after finite values
@example(2.0, [0, 1], [0, 1])  # the pole of the k = -1 denominator
def test_casimirs_match_one_gamma_pair_per_value(alpha, ls, ms):
    want = _bits(lambda: ([oracle_casimir_L2(alpha, L) for L in ls],
                          [oracle_casimir_Lz(alpha, m) for m in ms]))
    assert _bits(lambda: _CasimirPlan(ls, ms).values(alpha)) == want


@settings(max_examples=300)
@given(CASIMIR_ALPHAS, st.integers(0, 220), st.sampled_from((+1, -1)))
@example(0.703, 200, +1)
@example(1.0, 170, -1)
@example(1.5, 0, -1)
def test_public_casimirs_match_one_gamma_pair(alpha, n, sign):
    assert _bits(lambda: [[casimir_L2(alpha, n)], [casimir_Lz(alpha, n, sign)]]) == _bits(
        lambda: [[oracle_casimir_L2(alpha, n)], [oracle_casimir_Lz(alpha, n, sign)]]
    )
    assert _bits(lambda: [[casimir_Lz(alpha, -n, sign)]]) == _bits(
        lambda: [[oracle_casimir_Lz(alpha, -n, sign)]]
    )


def _assert_same_array(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    # equal bits everywhere, nan where the oracle has nan, inf of the same sign
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


@settings(max_examples=200)
@given(st.lists(CASIMIR_ALPHAS, min_size=1, max_size=6), CASIMIR_NS, CASIMIR_NS)
@example([0.703, 1.0, 0.5, 0.25, 1.0 / 3.0, 1.5, 2.0], list(range(195, 221)), [0, 1, 2, 200])
def test_casimirs_array_matches_gamma_array_pairs(alphas, ls, ms):
    a = np.array(alphas)
    c_l2, c_lz = _CasimirPlan(ls, ms).array(a)
    _assert_same_array(c_l2, oracle_casimir_L2_array(a[:, None], np.array(ls, dtype=float)))
    _assert_same_array(c_lz, oracle_casimir_Lz_array(a[:, None], np.array(ms, dtype=float)))
