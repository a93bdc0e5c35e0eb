import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraczee.specfun import GammaPoleError, _kernel_array, frac_binomial, gamma, rgamma
from fraczee.spectrum import casimir_L2

from oracles import spouge_gamma
from reference_values import GAMMA_1_448


def test_gamma_factorial():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-13)


def test_gamma_against_frozen_oracle_value():
    # 0.8856831591372290044377... from the 40-digit Spouge oracle
    assert gamma(1.448) == pytest.approx(GAMMA_1_448, rel=1e-12)
    assert float(spouge_gamma(1.448)) == pytest.approx(GAMMA_1_448, rel=1e-15)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -15.0])
def test_gamma_pole(x):
    with pytest.raises(GammaPoleError):
        gamma(x)


def test_gamma_rejects_nonfinite():
    with pytest.raises(ValueError):
        gamma(math.inf)


def test_rgamma_at_poles_is_exactly_zero():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    assert rgamma(-20.0) == 0.0


def test_rgamma_regular_values():
    assert rgamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_rgamma_finite_on_interval():
    for x in np.linspace(-20.0, 20.0, 4001):
        assert math.isfinite(rgamma(float(x)))


def test_gamma_recurrence_1000_points():
    rng = np.random.default_rng(101)
    for x in rng.uniform(0.1, 40.0, size=1000):
        x = float(x)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_factorials_small_n():
    for n in range(1, 16):
        assert gamma(n + 1.0) == pytest.approx(math.factorial(n), rel=1e-13)


def test_rgamma_times_gamma_away_from_poles():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-19.9, 19.9, size=500):
        x = float(x)
        if abs(x - round(x)) < 1e-3 and x < 0.5:
            continue
        assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-12)


def test_frac_binomial_k0_is_one():
    for a in (-2.7, 0.0, 0.5, 3.0, 17.2):
        assert frac_binomial(a, 0) == 1.0


def test_frac_binomial_half():
    assert frac_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-13)


def test_frac_binomial_above_integer_degree():
    assert frac_binomial(1.0, 2) == 0.0
    assert frac_binomial(3.0, 5) == 0.0


@given(st.integers(0, 12), st.integers(0, 12))
def test_frac_binomial_matches_integer_binomial(n, k):
    if k > n:
        assert frac_binomial(float(n), k) == 0.0
    else:
        assert frac_binomial(float(n), k) == pytest.approx(math.comb(n, k), rel=1e-12)


def test_frac_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        frac_binomial(0.5, -1)


def test_gamma_matches_oracle_broadly():
    rng = np.random.default_rng(55)
    for x in rng.uniform(0.01, 50.0, size=200):
        x = float(x)
        want = float(spouge_gamma(x))
        assert gamma(x) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ array kernel

# The array kernel performs the scalar kernel's operations in the same order,
# but numpy's vectorised pow and exp may differ from libm's by 1 ulp each.
# With the three products after them, the reflection's product and quotient,
# and the reciprocal, that bounds the disagreement by 8 eps relative.
_ARRAY_RTOL = 8 * np.finfo(float).eps


def _scalar(f, x):
    try:
        return f(x)
    except OverflowError:
        return None


def _uniform(x, reciprocal: bool) -> np.ndarray:
    """The array kernel on the cells of ``x``, with one mask value for all of them."""
    x = np.asarray(x, dtype=float)
    return _kernel_array(x, np.full(x.shape, reciprocal))


@pytest.mark.parametrize("lo, hi", [(-0.999, 0.5), (0.5, 171.0), (-170.0, -1.0)])
def test_array_kernel_matches_scalar(lo, hi):
    xs = np.random.default_rng(31).uniform(lo, hi, size=3000)
    for reciprocal, scalar_f in ((False, gamma), (True, rgamma)):
        got = _uniform(xs, reciprocal)
        for x, g in zip(xs.tolist(), got.tolist()):
            want = _scalar(scalar_f, x)
            if want is None:
                continue  # covered by test_array_kernel_overflow_is_not_an_error
            if math.isinf(want) or want == 0.0:
                assert g == want, (scalar_f.__name__, x)
            else:
                assert abs(g - want) <= _ARRAY_RTOL * abs(want), (scalar_f.__name__, x, g, want)


def test_array_kernel_exact_at_integers_and_poles():
    n = np.arange(1.0, 172.0)
    assert _uniform(n, False).tolist() == [gamma(float(v)) for v in n]
    assert _uniform(n, True).tolist() == [rgamma(float(v)) for v in n]
    poles = -np.arange(0.0, 21.0)
    assert _uniform(poles, True).tolist() == [0.0] * 21
    assert np.isnan(_uniform(poles, False)).all()


def test_array_kernel_overflow_is_not_an_error():
    big = [171.5, 172.0, 200.5, 1000.5, 1e6]
    for x in big:
        with pytest.raises(OverflowError):
            gamma(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _uniform(big, False).tolist() == [math.inf] * len(big)
        assert _uniform(big, True).tolist() == [0.0] * len(big)
        # below zero the reflection turns the overflow of Gamma(1 - x) into
        # an underflow of Gamma(x) and an overflow of 1/Gamma(x)
        assert _uniform([-200.5], False).tolist() == [0.0]
        assert abs(_uniform([-200.5], True)[0]) == math.inf


def test_scalar_kernel_holds_the_known_overflow_edges():
    # Gamma is finite here (about 1e244 at 142.3), but the Lanczos power
    # overflows: gamma reads inf and rgamma 0.0 at 142.3, and both raise from
    # about 142.37 up and, by reflection, below about -141.37; a total kernel
    # would change these only as a named bug fix
    assert gamma(142.3) == math.inf and rgamma(142.3) == 0.0
    for x in (142.37, 150.5, -150.5):
        with pytest.raises(OverflowError):
            gamma(x)
        with pytest.raises(OverflowError):
            rgamma(x)


@pytest.mark.parametrize("x", [5.0, 1.0, 171.0, 1.448, 40.5, -2.5, 0.25])
def test_scalar_kernel_returns_python_floats(x):
    # integer (factorial table), Lanczos and reflected arguments: a numpy
    # scalar would warn where the scalar path must raise OverflowError
    assert type(gamma(x)) is float
    assert type(rgamma(x)) is float


@pytest.mark.parametrize(
    "x", [np.int64(5), np.int64(171), np.float64(1.448), np.float64(40.5), np.float64(-2.5)]
)
def test_numpy_scalar_gives_the_python_float_result(x):
    assert type(gamma(x)) is float and gamma(x) == gamma(float(x))
    assert type(rgamma(x)) is float and rgamma(x) == rgamma(float(x))


@pytest.mark.parametrize("x", [np.int64(200), np.float64(171.5), np.float64(200.5), np.float64(1e6)])
def test_numpy_scalar_overflow_raises_like_a_python_float(x):
    # computed in numpy these would warn and give inf or nan
    with pytest.raises(OverflowError):
        gamma(x)
    with pytest.raises(OverflowError):
        rgamma(x)


def test_casimir_of_a_numpy_integer_raises_like_a_python_int():
    with pytest.raises(OverflowError):
        casimir_L2(0.9, 200)
    with pytest.raises(OverflowError):
        casimir_L2(0.9, np.int64(200))
    assert casimir_L2(0.9, np.int64(7)) == casimir_L2(0.9, 7)


def test_array_gamma_matches_oracle():
    # the 1000 arguments of acceptance criterion 7
    xs = np.random.default_rng(777).uniform(0.1, 40.0, size=1000)
    for x, g in zip(xs.tolist(), _uniform(xs, False).tolist()):
        want = spouge_gamma(x)
        assert abs((g - want) / want) <= 1e-12, x
