import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from fraczee.monomial import PolyExpr, parse_expr, rl_derive, term
from fraczee.rlquad import leibniz_series, rl_derivative_quad, roots_jacobi
from fraczee.specfun import gamma


def test_quad_identity_function():
    got = rl_derivative_quad(lambda s: s, 0.5, 1.0, 64)
    assert got == pytest.approx(1.1283791670955126, rel=1e-6)


def test_quad_constant_function():
    got = rl_derivative_quad(lambda s: 1.0, 0.5, 1.0, 64)
    assert got == pytest.approx(0.5641895835477563, rel=1e-6)


def test_quad_classical_limit():
    got = rl_derivative_quad(lambda s: s * s, 0.999, 2.0, 64)
    assert got == pytest.approx(4.0, rel=1e-2)


def test_quad_error_tightens_with_nodes():
    want = gamma(3.3) / gamma(3.0)
    err16 = abs(rl_derivative_quad(lambda s: s**2.3, 0.3, 1.0, 16) - want)
    err128 = abs(rl_derivative_quad(lambda s: s**2.3, 0.3, 1.0, 128) - want)
    assert err128 < err16


@pytest.mark.parametrize("n, a, b", [(64, -0.5, 0.0), (16, -0.3, 2.3), (64, -0.3, -0.7), (96, -0.112, -0.776)])
def test_roots_jacobi_is_scipys_bit_for_bit(n, a, b):
    # the outer finite difference multiplies node roundoff by 1e5
    with np.errstate(divide="ignore", invalid="ignore"):
        want = scipy.special.roots_jacobi(n, a, b)
    got = roots_jacobi(n, a, b)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_quad_weight_with_a_plus_b_minus_one_warns_nothing():
    # left_exponent == order - 1 gives Jacobi a + b = -1, where scipy divides
    # by zero in a branch it then masks out; Tier-1 turns that warning into
    # an error.  D^0.3 s^-0.7 is exactly 0.
    got = rl_derivative_quad(lambda s: s**-0.7, 0.3, 1.0, left_exponent=-0.7)
    assert abs(got) < 1e-9


def test_quad_rejects_bad_order():
    with pytest.raises(ValueError):
        rl_derivative_quad(lambda s: s, 1.5, 1.0)
    with pytest.raises(ValueError):
        rl_derivative_quad(lambda s: s, 0.5, -1.0)
    with pytest.raises(ValueError, match="nodes .* not finite"):
        rl_derivative_quad(lambda s: s, 0.5, 1e308)


def test_quad_rejects_nonfinite_sample():
    with pytest.raises(ValueError):
        rl_derivative_quad(lambda s: float("nan"), 0.5, 1.0)
    # a sample times the terminal weight overflows: rejected, not warned about
    with pytest.raises(ValueError, match="non-finite sample"):
        rl_derivative_quad(lambda s: s**-0.4 + 1e300 * s, 0.5, 1e7, left_exponent=-0.4)


def test_quad_absorbs_singular_terminal_behavior():
    # f ~ s^-0.776 at the terminal: hopeless without the weight hint,
    # spectral with it
    nu, alpha, x = -0.776, 0.112, 1.3
    want = gamma(1 + nu) / gamma(1 + nu - alpha) * x ** (nu - alpha)
    plain = rl_derivative_quad(lambda s: s**nu, alpha, x, 96)
    hinted = rl_derivative_quad(lambda s: s**nu, alpha, x, 96, left_exponent=nu)
    assert abs(hinted - want) / abs(want) < 1e-9
    assert abs(plain - want) / abs(want) > 1e-3


def test_quad_rejects_nonintegrable_terminal():
    with pytest.raises(ValueError):
        rl_derivative_quad(lambda s: s, 0.5, 1.0, left_exponent=-1.0)


# ------------------------------------------------------------- leibniz


def test_leibniz_x_times_power():
    nu = 0.7
    got = leibniz_series(parse_expr("x"), PolyExpr.from_terms([term(1.0, x=nu)]), "x", 0.5, 1)
    want = rl_derive(PolyExpr.from_terms([term(1.0, x=nu + 1)]), "x", 0.5)
    assert (got - want).max_abs_coeff() < 1e-12


def test_leibniz_classical_product_rule():
    got = leibniz_series(parse_expr("x^2"), parse_expr("x"), "x", 1.0, 2)
    assert (got - parse_expr("3*x^2")).max_abs_coeff() < 1e-12


def test_leibniz_cubic_times_sqrt():
    got = leibniz_series(parse_expr("x^3"), parse_expr("x^0.5"), "x", 0.3, 3)
    want = rl_derive(PolyExpr.from_terms([term(1.0, x=3.5)]), "x", 0.3)
    assert (got - want).max_abs_coeff() < 1e-12


def test_leibniz_requires_polynomial_left_factor():
    with pytest.raises(ValueError):
        leibniz_series(parse_expr("x^0.5"), parse_expr("x"), "x", 0.5, 2)


@settings(deadline=None)
@given(
    st.integers(0, 5),
    st.floats(0.5, 3.5, allow_nan=False),
    st.sampled_from([0.25, 0.5, 0.9]),
)
def test_leibniz_terminates_at_polynomial_degree(deg, nu, alpha):
    phi = PolyExpr.from_terms([term(1.0, x=deg)])
    psi = PolyExpr.from_terms([term(1.0, x=nu)])
    want = rl_derive(phi * psi, "x", alpha)
    at_deg = leibniz_series(phi, psi, "x", alpha, max(deg, 1))
    beyond = leibniz_series(phi, psi, "x", alpha, deg + 4)
    assert (at_deg - want).max_abs_coeff() < 1e-12
    assert (beyond - want).max_abs_coeff() < 1e-12
