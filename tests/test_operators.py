import math

import numpy as np
import pytest

import fraczee.operators as operators
from fraczee.monomial import PolyExpr, parse_expr, term
from fraczee.operators import (
    OperatorExpr,
    build_H,
    build_Jx,
    build_Jy,
    build_Jz,
    build_Kz,
    build_Lz,
    build_Sz,
    build_p,
    check_classical_Lz,
    check_commutation,
    check_commutation_worst,
    check_connection_reduction,
    check_constant_field,
    check_curl_coefficient,
    check_kkk,
    check_noncommutation,
    check_quadrature,
    check_semigroup,
    check_spin_decomposition,
    check_Sz_vanishes,
    check_zeeman_reduction,
    commutator,
    curl_frac,
    gamma_connection,
    gauge_field_A,
    identity_op,
    omega_connection,
    op_term,
    partial_op,
    verify_J_algebra,
)
from fraczee.specfun import gamma

ALPHAS = (0.3, 0.5, 0.75, 0.9)


def mono(c=1.0, **exps):
    return PolyExpr.from_terms([term(c, **exps)])


def random_monomials(seed, n, lo=2, hi=6):
    rng = np.random.default_rng(seed)
    return [
        mono(1.0, x=int(e[0]), y=int(e[1]), z=int(e[2]))
        for e in rng.integers(lo, hi + 1, size=(n, 3))
    ]


# ------------------------------------------------------------- application


def test_identity_application():
    f = parse_expr("x^2")
    out = identity_op().apply(f)
    assert (out.re - f).is_zero() and out.im.is_zero()


def test_single_partial():
    out = partial_op("x", 1.0).apply(parse_expr("x*y"))
    assert (out.re - parse_expr("y")).is_zero()


def test_mixed_half_derivatives():
    op = OperatorExpr((op_term(1.0, orders={"x": 0.5, "y": 0.5}),))
    out = op.apply(parse_expr("x*y")).re
    assert len(out.terms) == 1
    t = out.terms[0]
    assert t.exponents == {"x": 0.5, "y": 0.5}
    assert t.coeff == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_canonical_commutator():
    # [d_x, x .] f = f
    dx = partial_op("x", 1.0)
    mul_x = OperatorExpr((op_term(1.0, pre={"x": 1.0}),))
    for n in (1, 2, 5):
        f = mono(1.0, x=n)
        out = commutator(dx, mul_x, f)
        assert (out.re - f).is_zero(1e-12) and out.im.is_zero()


# ------------------------------------------------------------- Hamiltonian


def test_H_classical_on_square():
    out = build_H(1.0).apply(parse_expr("x^2")).re
    assert (out - PolyExpr.const(-1.0)).is_zero(1e-13)


def test_H_on_x_to_2alpha_at_half():
    # alpha = 0.5: H x^(2a) = -Gamma(1+2a)/(2 m^(2a-1)); y/z parts die on
    # the rgamma(0) pole
    alpha = 0.5
    out = build_H(alpha).apply(mono(1.0, x=2 * alpha)).re
    assert len(out.terms) == 1
    assert out.terms[0].exponents == {}
    assert out.terms[0].coeff == pytest.approx(-0.5 * gamma(2.0), rel=1e-12)


def test_H_mass_scaling():
    out1 = build_H(0.75, m=1.0).apply(mono(1.0, x=2, y=2, z=2)).re
    out2 = build_H(0.75, m=2.0).apply(mono(1.0, x=2, y=2, z=2)).re
    assert (out1 - out2.scaled(2.0 ** (2 * 0.75 - 1))).max_abs_coeff() < 1e-12


# ------------------------------------------------------- angular momentum


def test_Kz_beta_one_is_classical_Lz():
    diff = (build_Kz(1.0) - build_Lz(1.0)).canonical()
    assert not diff.terms


def test_Sz_vanishes_at_alpha_one():
    assert build_Sz(1.0).is_zero()


def test_Jz_decomposition_is_exact():
    for alpha in ALPHAS:
        diff = (build_Jz(alpha) - build_Kz(1.0) - build_Sz(alpha)).canonical()
        assert not diff.terms
        # the classical rotation generator is the same operator as K_z(1)
        assert (build_Jz(alpha) - build_Lz(1.0) - build_Sz(alpha)).is_zero()


def test_hbar_mc_unit_power_is_recorded():
    op = build_Kz(0.6)
    assert all(t.hbar_mc_power == 0.6 for t in op.terms)
    assert "(hbar/mc)^0.6" in op.terms[0].render()
    assert all(t.hbar_mc_power == -0.8 for t in build_p("z", -0.8).terms)


def test_Lz_commutes_with_classical_H():
    f = mono(1.0, x=3, y=3, z=2)
    out = commutator(build_Kz(1.0), build_H(1.0), f)
    assert out.max_abs_coeff() < 1e-12


def test_Lz_H_commutator_closed_form():
    # [L_z, H^a] = -i a (D_x^(2a-1) D_y - D_x D_y^(2a-1)) for a where the
    # z-free monomial stays in domain
    f = parse_expr("x^3*y^3")
    for alpha in (0.3, 0.5):
        lhs = commutator(build_Kz(1.0), build_H(alpha), f)
        rhs_op = OperatorExpr(
            (
                op_term(alpha, 3, orders={"x": 2 * alpha - 1, "y": 1.0}),
                op_term(-alpha, 3, orders={"x": 1.0, "y": 2 * alpha - 1}),
            )
        )
        assert (lhs - rhs_op.apply(f)).max_abs_coeff() < 1e-12


def test_Lz_H_noncommutation_for_fractional_alpha():
    f = mono(1.0, x=3, y=3, z=3)
    for alpha in ALPHAS:
        resid = commutator(build_Kz(1.0), build_H(alpha), f).max_abs_coeff()
        if alpha == 1.0:
            assert resid < 1e-12
        else:
            assert resid > 1e-6


def test_commutation_theorem_50_monomials():
    for alpha in ALPHAS:
        worst = max(
            commutator(build_Jz(alpha), build_H(alpha), f).max_abs_coeff()
            for f in random_monomials(23, 50)
        )
        assert worst < 1e-10


def test_kz_H_commutator_identity():
    f = mono(1.0, x=3, y=3, z=2)
    for alpha in ALPHAS:
        for beta in (0.3, 1.0, 2 * alpha - 1):
            rep = check_kkk(alpha, beta, f)
            assert rep.passed, rep.residuals


def test_J_algebra_classical_limit():
    rep = verify_J_algebra(1.0, mono(1.0, x=2, y=2, z=2))
    assert rep.passed
    assert all(v < 1e-12 for v in rep.residuals.values())


def test_J_algebra_fractional():
    f = mono(1.0, x=3, y=3, z=3)
    for alpha in (0.75, 0.9, 0.3):
        rep = verify_J_algebra(alpha, f)
        assert rep.passed, (alpha, rep.residuals)


def test_J_algebra_lhs_is_deformed():
    # the bracket itself does not vanish for alpha != 1
    f = mono(1.0, x=3, y=3, z=3)
    lhs = commutator(build_Jx(0.75), build_Jy(0.75), f)
    assert lhs.max_abs_coeff() > 1e-6


def test_check_commutation_report():
    rep = check_commutation(0.75, mono(1.0, x=3, y=3, z=3))
    assert rep.passed and rep.residuals["max_coeff"] < 1e-10


# ------------------------------------------------ registry checks: pass and fail
# A check whose identity holds for every valid input is shown to fail on a
# deliberately wrong operator, swapped in for the builder it calls.


def test_check_commutation_worst(monkeypatch):
    monos = random_monomials(23, 50)
    rep = check_commutation_worst(0.5, monos)
    assert rep.passed and rep.residuals["worst_max_coeff"] < 1e-10
    assert rep.details == {"alpha": 0.5, "monomials": 50}
    # with the classical K_z(1) in place of J_z the worst operand shows it
    monkeypatch.setattr(operators, "build_Jz", lambda alpha, m=1.0: build_Kz(1.0))
    rep = check_commutation_worst(0.5, monos)
    assert not rep.passed and rep.residuals["worst_max_coeff"] > 1e-6


def test_check_noncommutation():
    f = mono(1.0, x=3, y=3, z=3)
    rep = check_noncommutation(0.5, f)
    assert rep.passed and rep.residuals["max_coeff"] > 1e-6
    # K_z(1) commutes with H(1), so the must-not-commute check fails there
    rep = check_noncommutation(1.0, f)
    assert not rep.passed and rep.residuals["max_coeff"] < 1e-12


def test_check_Sz_vanishes(monkeypatch):
    rep = check_Sz_vanishes()
    assert rep.passed and rep.residuals == {"terms": 0.0}
    build = operators.build_Sz
    monkeypatch.setattr(operators, "build_Sz", lambda alpha, m=1.0: build(0.5))
    rep = check_Sz_vanishes()
    assert not rep.passed and rep.residuals["terms"] > 0


def test_check_spin_decomposition(monkeypatch):
    for alpha in ALPHAS:
        rep = check_spin_decomposition(alpha)
        assert rep.passed and rep.residuals["max_coeff"] < 1e-12
    build = operators.build_Sz
    monkeypatch.setattr(operators, "build_Sz", lambda alpha, m=1.0: build(0.5))
    rep = check_spin_decomposition(0.75)
    assert not rep.passed and rep.residuals["max_coeff"] > 1e-6


def test_check_classical_Lz(monkeypatch):
    rep = check_classical_Lz()
    assert rep.passed and rep.residuals["max_coeff"] < 1e-12
    build = operators.build_Lz
    monkeypatch.setattr(operators, "build_Lz", lambda alpha: build(0.5))
    rep = check_classical_Lz()
    assert not rep.passed and rep.residuals["max_coeff"] > 1e-6


def test_check_quadrature():
    rep = check_quadrature(64)
    assert rep.passed and rep.residuals["worst_rel_error"] <= 1e-6
    assert rep.details["nodes"] == 64
    rep = check_quadrature(2)
    assert not rep.passed and rep.residuals["worst_rel_error"] > 1e-6


# ------------------------------------------------------------- gauge field


def test_gauge_field_classical_limit():
    A = gauge_field_A(2.0, 1.0)
    assert (A.components[0] - parse_expr("-y")).is_zero(1e-13)
    assert (A.components[1] - parse_expr("x")).is_zero(1e-13)
    assert A.components[2].is_zero()


def test_gauge_field_half_order():
    A = gauge_field_A(1.0, 0.5)
    assert (A.components[0] - PolyExpr.from_terms([term(-0.5, x=0.5, z=-0.5)])).is_zero(1e-13)
    assert (A.components[1] - PolyExpr.from_terms([term(0.5, y=0.5, z=-0.5)])).is_zero(1e-13)


def test_gauge_field_zero():
    A = gauge_field_A(0.0, 0.7)
    assert all(c.is_zero() for c in A.components)


def test_gauge_field_order_validated():
    with pytest.raises(ValueError):
        gauge_field_A(1.0, 1.3)


@pytest.mark.parametrize("alpha", (0.112, 0.5, 0.9))
def test_curl_closed_form(alpha):
    rep = check_curl_coefficient(1.7, alpha)
    assert rep.passed, rep.residuals


def test_curl_classical_constant_field():
    bx, by, bz = curl_frac(gauge_field_A(2.0, 1.0))
    assert bx.is_zero() and by.is_zero()
    assert (bz - PolyExpr.const(2.0)).is_zero(1e-13)


def test_curl_of_zero_field():
    A = gauge_field_A(0.0, 0.5)
    assert all(c.is_zero() for c in curl_frac(A))


@pytest.mark.parametrize("alpha", (0.112, 0.5, 0.9))
def test_constant_field_conditions(alpha):
    _, _, bz = curl_frac(gauge_field_A(1.0, alpha))
    rep = check_constant_field(bz, alpha)
    assert rep.passed
    # the pole cancellations are exact, not epsilon-sized
    assert all(v == 0.0 for v in rep.residuals.values())


def test_constant_field_rejects_plain_monomial():
    assert not check_constant_field(parse_expr("x"), 0.5).passed
    assert not check_constant_field(parse_expr("z"), 0.5).passed


def test_constant_field_accepts_zero():
    assert check_constant_field(PolyExpr.zero(), 0.5).passed


# ------------------------------------------------------------- connections


def test_connection_series_truncates():
    for alpha in (0.112, 0.5, 0.9):
        rep = check_connection_reduction(1.0, alpha, K_max=5)
        assert rep.passed, rep.residuals


def test_connection_of_zero_field_is_zero():
    A = gauge_field_A(0.0, 0.5)
    assert all(op.is_zero() for op in gamma_connection(A, 3))
    assert all(op.is_zero() for op in omega_connection(A, 3))


def test_connection_closed_form_term():
    # Gamma-hat_x = -a Gamma(2-a) (B/2) y^(2a-1) z^(a-1) D_x^(a-1)
    B, a = 2.0, 0.3
    gx = gamma_connection(gauge_field_A(B, a), 1)[0].canonical()
    assert len(gx.terms) == 1
    t = gx.terms[0]
    assert t.coeff == pytest.approx(-a * gamma(2 - a) * B / 2.0, rel=1e-12)
    assert t.orders[0] == (a - 1.0,)
    assert t.pre[1] == pytest.approx(2 * a - 1.0)
    assert t.pre[2] == pytest.approx(a - 1.0)


def test_omega_connection_normalizes_to_gamma_form():
    A = gauge_field_A(1.0, 0.75)
    g = gamma_connection(A, 1)
    o = omega_connection(A, 1)
    for i in range(3):
        assert (g[i] - o[i]).is_zero()


@pytest.mark.parametrize("alpha", (0.112, 0.5, 0.9))
def test_zeeman_reduction(alpha):
    f = mono(1.0, x=3, y=3, z=3)
    rep = check_zeeman_reduction(1.7, alpha, f)
    assert rep.passed, rep.residuals


def test_nabla_gamma_equals_omega_nabla():
    from fraczee.monomial import rl_derive
    from fraczee.operators import PhasedPoly

    B, a = 1.3, 0.6
    A = gauge_field_A(B, a)
    G = gamma_connection(A, 1)
    O = omega_connection(A, 1)
    f = mono(1.0, x=3, y=2, z=4)
    lhs = PhasedPoly.zero()
    rhs = PhasedPoly.zero()
    for i, axis in enumerate(("x", "y", "z")):
        gi = G[i].apply(f)
        lhs = lhs + PhasedPoly(rl_derive(gi.re, axis, a), rl_derive(gi.im, axis, a))
        rhs = rhs + O[i].apply(rl_derive(f, axis, a))
    assert (lhs - rhs).max_abs_coeff() < 1e-12


# ------------------------------------------------------------- semigroup


def test_semigroup_agreement_on_valid_domain():
    f = mono(1.0, x=3)
    rep = check_semigroup(f, "x", (0.75, 0.75))
    assert rep.passed and rep.residuals["max_coeff"] < 1e-12


def test_semigroup_disagreement_is_reported():
    # D^1 then D^-1 loses the constant; the direct order-0 derivative keeps it
    f = PolyExpr.const(1.0)
    rep = check_semigroup(f, "x", (1.0, -1.0))
    assert not rep.passed
    assert rep.residuals["max_coeff"] == pytest.approx(1.0)
