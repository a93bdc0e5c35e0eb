import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraczee.operators as operators
from fraczee.monomial import AXES, DROP_TOL, PolyExpr, PowerTerm, parse_expr, rl_derive, term
from fraczee.operators import (
    OperatorExpr,
    OperatorTerm,
    build_H,
    build_Jx,
    build_Jy,
    build_Jz,
    build_Kx,
    build_Ky,
    build_Kz,
    build_Lz,
    build_p,
    build_Sz,
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
    omega_connection,
    op_term,
    verify_J_algebra,
)
from fraczee.specfun import gamma

from oracles import merge_key

ALPHAS = (0.3, 0.5, 0.75, 0.9)
_Z4 = (0.0, 0.0, 0.0, 0.0)


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
    out = OperatorExpr((op_term(1.0),)).apply(f)
    assert (out.re - f).is_zero() and out.im.is_zero()


def test_single_partial():
    out = OperatorExpr((op_term(1.0, orders={"x": 1.0}),)).apply(parse_expr("x*y"))
    assert (out.re - parse_expr("y")).is_zero()


def test_mixed_half_derivatives():
    op = OperatorExpr((op_term(1.0, orders={"x": 0.5, "y": 0.5}),))
    out = op.apply(parse_expr("x*y")).re
    assert len(out.terms) == 1
    t = out.terms[0]
    assert t.exps == (0.5, 0.5, 0.0, 0.0)
    assert t.coeff == pytest.approx(4.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("order", [math.nan, math.inf, (0.5, -math.inf)])
def test_nonfinite_order_is_refused(order):
    # the merge-free application runs the power rule without rl_derive's checks
    with pytest.raises(ValueError, match="non-finite derivative order"):
        op_term(1.0, orders={"x": order})


def test_zero_order_of_a_bare_term_is_the_identity():
    # op_term drops zero orders, the bare constructor keeps them
    op = OperatorExpr((operators.OperatorTerm(2.0, orders=((0.0,), (), (), ())),))
    for f in (parse_expr("x^0.5"), parse_expr("x^-1.5")):
        assert op.apply(f).re.terms == f.scaled(2.0).terms


def test_canonical_commutator():
    # [d_x, x .] f = f
    dx = OperatorExpr((op_term(1.0, orders={"x": 1.0}),))
    mul_x = OperatorExpr((op_term(1.0, pre={"x": 1.0}),))
    for n in (1, 2, 5):
        f = mono(1.0, x=n)
        out = commutator(dx, mul_x, f)
        assert (out.re - f).max_abs_coeff() <= 1e-12 and out.im.is_zero()


# Generic exponents: points of the 1e-9 merge grid, at most 1e-12 off it,
# maybe with a twin 1e-10 (same key) or 1e-9 (next key) away.  Shifts are
# grid points too, so every exponent an application forms stays about
# 4e-10 from a rounding boundary, far beyond roundoff.
_GRID = st.one_of(
    st.integers(-1, 3).map(float),
    st.integers(-900, 3000).map(lambda k: k / 1000.0),
    st.builds(lambda k, d: k * 1e-9 + d, st.integers(-9 * 10**8, 3 * 10**9),
              st.floats(-1e-12, 1e-12)),
)
_SHIFTS = st.one_of(
    st.integers(-2, 2).map(float),
    st.integers(-1500, 1500).map(lambda k: k / 1000.0),
    st.integers(-10**9, 10**9).map(lambda k: k * 1e-9),
)
_NONZERO_SHIFTS = _SHIFTS.map(lambda v: v or 1.0)
_COEFFS = st.one_of(
    st.builds(lambda m, s: m * s, st.floats(0.01, 10.0), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, 1e-13, -1e-12, 2e-12, 1e5]),
)


@st.composite
def operands(draw):
    """Terms on a pool of 1-4 exponent values, twins included, unsorted, with
    coefficients that may cancel or sit at ``DROP_TOL``."""
    pool = []
    for e in draw(st.lists(_GRID, min_size=1, max_size=3)):
        pool.append(e)
        if draw(st.booleans()):
            pool.append(e + draw(st.sampled_from([1e-10, -1e-10, 1e-9, -1e-9])))
    return [
        PowerTerm(draw(_COEFFS), tuple(draw(st.sampled_from(pool)) for _ in AXES))
        for _ in range(draw(st.integers(1, 5)))
    ]


@st.composite
def operator_terms(draw):
    def shifts():
        return draw(st.dictionaries(st.sampled_from(AXES), _SHIFTS, max_size=2))

    orders = draw(st.dictionaries(
        st.sampled_from(AXES), st.lists(_NONZERO_SHIFTS, max_size=2), max_size=2))
    return op_term(draw(st.one_of(_COEFFS, st.just(1e-11))),
                   draw(st.integers(0, 3)), pre=shifts(), inner=shifts(), orders=orders)


def _image_bits(op, f):
    """The application's terms as float.hex, or the error it raises."""
    try:
        out = op(f)
    except ValueError as exc:  # DomainError included
        return type(exc), str(exc)
    return [[(t.coeff.hex(), tuple(e.hex() for e in t.exps)) for t in p.terms]
            for p in (out.re, out.im)]


# the example is the boundary itself, in every stage: 2e-12 * 0.5, 2e-12 *
# Gamma(2)/Gamma(3) and 1.0 * 1e-12 are exactly DROP_TOL, and each phase part
# holds one image
@settings(max_examples=100)
@example([PowerTerm(2e-12, (1.0, 0.0, 0.0, 0.0)), PowerTerm(1.0, _Z4)], [PowerTerm(0.5, _Z4)],
         0.5, "x", -1.0, [op_term(0.5), op_term(1e-12, 1, pre={"y": 1.0})])
@given(operands(), operands(), st.one_of(_COEFFS, st.sampled_from([1e-12, -1e-12, 1e-11])),
       st.sampled_from(AXES), _NONZERO_SHIFTS, st.lists(operator_terms(), min_size=1, max_size=2))
def test_no_expression_keeps_a_coefficient_at_or_below_drop_tol(f, g, s, axis, q, op):
    # PolyExpr.is_zero reads "no terms" as zero: that holds only while every
    # way of building an expression drops the coefficients at or below DROP_TOL
    f, g, op = PolyExpr.from_terms(f), PolyExpr.from_terms(g), OperatorExpr(tuple(op))
    built = [f, g, f.scaled(s), f * s, f + g, f - g, -f, f * g]
    for make in (lambda: [rl_derive(f, axis, q)], lambda: [op.apply(f).re, op.apply(f).im]):
        try:
            built += make()
        except ValueError:  # DomainError included
            pass
    for e in built:
        assert all(abs(t.coeff) > DROP_TOL for t in e.terms), e.terms


def test_a_nan_product_is_refused():
    # inf * 0 is NaN, which fails the drop test: dropped, each would be zero
    hh = parse_expr("1e300*x") * parse_expr("1e300*x")
    for make in (lambda: hh.scaled(0.0), lambda: hh * 0.0, lambda: 0.0 * hh,
                 lambda: OperatorExpr((op_term(0.0),)).apply(hh),
                 lambda: OperatorExpr((op_term(0.0, pre={"y": 1.0}),)).apply(hh)):
        with pytest.raises(ValueError, match="NaN"):
            make()


def test_nan_operator_coefficient_is_refused():
    f = parse_expr("x^2*y")
    for make in (lambda: op_term(math.nan, orders={"x": 0.5}),
                 lambda: build_Kz(1.0).scaled(math.nan),
                 lambda: OperatorExpr((OperatorTerm(math.nan),)).apply(f)):
        with pytest.raises(ValueError, match="NaN"):
            make()
    # an infinite one stays allowed
    assert OperatorExpr((op_term(math.inf),)).apply(f).re.render() == "inf*x^2*y"
    assert build_Kz(1.0).scaled(math.inf).apply(f).im.render() == "-inf*x^3 + inf*x*y^2"


_INF = st.sampled_from([math.inf, -math.inf])
_FACTORS = st.sampled_from([0.0, -0.0, 1e-13, -1.0, 2.5, math.inf, -math.inf])


@st.composite
def inf_operands(draw):
    """``operands`` with one or two coefficients made infinite."""
    terms = draw(operands())
    for i in draw(st.lists(st.integers(0, len(terms) - 1), min_size=1, max_size=2)):
        terms[i] = terms[i].with_coeff(draw(_INF))
    return terms


def _shifts():
    return st.dictionaries(st.sampled_from(AXES), _SHIFTS, max_size=2)


_DERIVATIVE_FREE = st.builds(lambda c, p, pre, inner: op_term(c, p, pre=pre, inner=inner),
                             _FACTORS, st.integers(0, 3), _shifts(), _shifts())


def _sums_to_nan(parts):
    """Whether some merge-key group of the raw ``(coeff, exps)`` pairs sums to
    NaN.  No finite coefficient here comes near overflow, so a sum is NaN
    exactly when a pair is NaN or a group holds both infinities, whatever
    the order of the additions."""
    sums = {}
    for c, exps in parts:
        key = merge_key(exps)
        sums[key] = sums.get(key, 0.0) + c
    return any(c != c for c in sums.values())


def _image_parts(op, f):
    """The raw ``(coeff, exps)`` pairs of each phase part of ``op.apply(f)``
    for a derivative-free ``op``, before any drop or merge."""
    parts = ([], [])
    for t in op.terms:
        sign = -1.0 if t.iphase % 4 >= 2 else 1.0
        for u in f.terms:
            exps = u.exps
            if any(t.inner):
                exps = tuple(e + i for e, i in zip(exps, t.inner))
            parts[t.iphase % 2].append(
                (sign * (u.coeff * t.coeff), tuple(e + q for e, q in zip(exps, t.pre))))
    return parts


@settings(max_examples=50)
@given(inf_operands(), st.one_of(inf_operands(), operands()), _FACTORS,
       st.lists(_DERIVATIVE_FREE, min_size=1, max_size=3))
def test_no_operation_drops_a_nan_coefficient(f, g, s, op):
    # a NaN fails the drop test too: every operation on infinite coefficients
    # raises where a raw coefficient it would drop is NaN (inf * 0, inf - inf),
    # and returns where none is
    def outcome(make, nan):
        if nan:
            with pytest.raises(ValueError, match="NaN"):
                make()
            return None
        return make()

    f = outcome(lambda: PolyExpr.from_terms(f), _sums_to_nan((t.coeff, t.exps) for t in f))
    g = outcome(lambda: PolyExpr.from_terms(g), _sums_to_nan((t.coeff, t.exps) for t in g))
    if f is None or g is None:
        return
    op = OperatorExpr(tuple(op))
    for make, parts in (
        (lambda: f + g, [(t.coeff, t.exps) for t in f.terms + g.terms]),
        (lambda: f - g, [(t.coeff, t.exps) for t in f.terms]
         + [(-t.coeff, t.exps) for t in g.terms]),
        (lambda: f * g, [(a.coeff * b.coeff, tuple(x + y for x, y in zip(a.exps, b.exps)))
                         for a in f.terms for b in g.terms]),
        (lambda: f.scaled(s), [(t.coeff * s, t.exps) for t in f.terms]),
        (lambda: f * s, [(t.coeff * s, t.exps) for t in f.terms]),
    ):
        outcome(make, _sums_to_nan(parts))
    re, im = _image_parts(op, f)
    outcome(lambda: op.apply(f), _sums_to_nan(re) or _sums_to_nan(im))


def test_a_bare_operand_is_its_merged_twin():
    # unsorted, with like terms on one merge key, a cancelling pair and dust
    terms = (term(2.0, x=1.5), term(1e-13, y=2), term(-1.0, x=0.5),
             term(3.0, x=1.5 + 1e-10), term(1.0, x=0.5))
    bare, merged = PolyExpr(terms), PolyExpr.from_terms(terms)
    assert bare.render() == merged.render() == "5*x^1.5"
    assert bare.max_abs_coeff() == merged.max_abs_coeff() == 5.0
    assert bare.scaled(-2.0) == merged.scaled(-2.0)
    assert rl_derive(bare, "x", 0.5) == rl_derive(merged, "x", 0.5)
    op = build_Kz(0.7) + build_H(0.5)
    assert op.apply(bare) == op.apply(merged)


def test_apply_drops_a_small_coefficient_between_stages():
    # 1.5e-12 * Gamma(2)/Gamma(0.5) is below DROP_TOL after D_x^1.5, and the
    # prefactor 1e5 must not bring it back: a merge after the derivative drops it
    f = PolyExpr.from_terms([term(1.5e-12, x=1)])
    op = OperatorExpr((op_term(1e5, orders={"x": 1.5}),))
    assert _image_bits(op.apply, f) == [[], []]


# ------------------------------------------------------------- Hamiltonian


def test_H_classical_on_square():
    out = build_H(1.0).apply(parse_expr("x^2")).re
    assert (out - PolyExpr.from_terms([term(-1.0)])).max_abs_coeff() <= 1e-13


def test_H_on_x_to_2alpha_at_half():
    # alpha = 0.5: H x^(2a) = -Gamma(1+2a)/2; y/z parts die on the rgamma(0) pole
    alpha = 0.5
    out = build_H(alpha).apply(mono(1.0, x=2 * alpha)).re
    assert len(out.terms) == 1
    assert out.terms[0].exps == (0.0, 0.0, 0.0, 0.0)
    assert out.terms[0].coeff == pytest.approx(-0.5 * gamma(2.0), rel=1e-12)


def _unit(axis, e=1.0):
    return tuple(e if a == axis else 0.0 for a in AXES)


def _on(axis, *orders):
    # as op_term keeps them: a zero order is the identity and is dropped
    return tuple(tuple(q for q in orders if q) if a == axis else () for a in AXES)


def _k(v, u, beta):
    # i (u D_v^beta - v D_u^beta)
    return (OperatorTerm(1.0, 1, _unit(u), _Z4, _on(v, beta)),
            OperatorTerm(-1.0, 1, _unit(v), _Z4, _on(u, beta)))


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.75, 1.0))
def test_builders_make_their_exact_unit_mass_terms(alpha):
    # natural units with unit mass: H's coefficient is exactly -1/2, those
    # of K, J, S and p exactly +-1
    b = 2.0 * alpha - 1.0
    assert build_H(alpha).terms == tuple(
        OperatorTerm(-0.5, 0, _Z4, _Z4, _on(axis, alpha, alpha)) for axis in "xyz")
    for beta in (alpha, b):
        assert build_Kx(beta).terms == _k("y", "z", beta)
        assert build_Ky(beta).terms == _k("z", "x", beta)
        assert build_Kz(beta).terms == _k("x", "y", beta)
        assert build_p("y", beta).terms == (OperatorTerm(1.0, 1, _Z4, _Z4, _on("y", beta)),)
    assert build_Jx(alpha).terms == _k("y", "z", b)
    assert build_Jy(alpha).terms == _k("z", "x", b)
    assert build_Jz(alpha).terms == _k("x", "y", b)
    assert build_Lz(alpha).terms == (
        OperatorTerm(1.0, 1, _unit("y", alpha), _Z4, _on("x", alpha)),
        OperatorTerm(-1.0, 1, _unit("x", alpha), _Z4, _on("y", alpha)))
    # canonical order: prefactor y before x, and the order b < 1 (or none) first
    assert build_Sz(alpha).terms == (() if alpha == 1.0 else (
        OperatorTerm(1.0, 1, _unit("y"), _Z4, _on("x", b)),
        OperatorTerm(-1.0, 1, _unit("y"), _Z4, _on("x", 1.0)),
        OperatorTerm(-1.0, 1, _unit("x"), _Z4, _on("y", b)),
        OperatorTerm(1.0, 1, _unit("x"), _Z4, _on("y", 1.0))))


# ------------------------------------------------------- angular momentum


def test_Kz_beta_one_is_classical_Lz():
    diff = (build_Kz(1.0) - build_Lz(1.0)).canonical()
    assert not diff.terms


def test_Sz_vanishes_at_alpha_one():
    assert not build_Sz(1.0).canonical().terms


@pytest.mark.parametrize("phase", [0, 1])
def test_canonical_folds_phases_2_and_3_into_the_sign(phase):
    # i^(phase + 2) = -i^phase: the two terms cancel, and one alone flips its sign
    a = op_term(1.0, phase + 2, orders={"x": 0.5})
    assert not (OperatorExpr((a,)) + OperatorExpr((op_term(1.0, phase, orders={"x": 0.5}),))
                ).canonical().terms
    assert OperatorExpr((a,)).canonical().terms == (
        OperatorTerm(-1.0, phase, a.pre, a.inner, a.orders),)


def test_canonical_refuses_like_terms_summing_to_nan():
    # as PolyExpr does: a NaN sum fails the drop test, but is not dropped
    op = build_H(0.5).scaled(math.inf)
    with pytest.raises(ValueError, match="NaN"):
        (op - op).canonical()
    assert not (build_H(0.5) - build_H(0.5)).canonical().terms


@pytest.mark.parametrize("field", ["pre", "inner", "orders"])
def test_canonical_merges_on_the_polyexpr_grid(field):
    # 0.1 + 0.2 and 0.3 are one exponent to PolyExpr, so one operator term
    # too; the first term seen keeps its raw value
    assert PolyExpr.from_terms([term(1.0, x=0.1 + 0.2), term(-1.0, x=0.3)]).is_zero()

    def at(coeff, v):
        if field == "orders":
            return op_term(coeff, 1, orders={"x": v})
        return op_term(coeff, 1, orders={"x": 0.5}, **{field: {"x": v}})

    a = at(2.0, 0.1 + 0.2)
    assert OperatorExpr((a, at(-0.5, 0.3))).canonical().terms == (
        OperatorTerm(1.5, 1, a.pre, a.inner, a.orders),)
    assert operators._op_residual(OperatorExpr((a,)), OperatorExpr((at(2.0, 0.3),))) == 0.0


def test_Jz_decomposition_is_exact():
    for alpha in ALPHAS:
        diff = (build_Jz(alpha) - build_Kz(1.0) - build_Sz(alpha)).canonical()
        assert not diff.terms
        # the classical rotation generator is the same operator as K_z(1)
        assert not (build_Jz(alpha) - build_Lz(1.0) - build_Sz(alpha)).canonical().terms


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
    monkeypatch.setattr(operators, "build_Jz", lambda alpha: build_Kz(1.0))
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
    monkeypatch.setattr(operators, "build_Sz", lambda alpha: build(0.5))
    rep = check_Sz_vanishes()
    assert not rep.passed and rep.residuals["terms"] > 0


def test_check_spin_decomposition(monkeypatch):
    for alpha in ALPHAS:
        rep = check_spin_decomposition(alpha)
        assert rep.passed and rep.residuals["max_coeff"] < 1e-12
    build = operators.build_Sz
    monkeypatch.setattr(operators, "build_Sz", lambda alpha: build(0.5))
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
    assert (A.components[0] - parse_expr("-y")).max_abs_coeff() <= 1e-13
    assert (A.components[1] - parse_expr("x")).max_abs_coeff() <= 1e-13
    assert A.components[2].is_zero()


def test_gauge_field_half_order():
    A = gauge_field_A(1.0, 0.5)
    assert (A.components[0] - mono(-0.5, x=0.5, z=-0.5)).max_abs_coeff() <= 1e-13
    assert (A.components[1] - mono(0.5, y=0.5, z=-0.5)).max_abs_coeff() <= 1e-13


def test_gauge_field_zero():
    A = gauge_field_A(0.0, 0.7)
    assert all(c.is_zero() for c in A.components)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: op_term(1.0, orders={"w": 0.5}), "unknown axis 'w'"),
        (lambda: build_H(0.0), r"alpha must lie in \(0, 1\]"),
        (lambda: build_H(1.5), r"alpha must lie in \(0, 1\]"),
        (lambda: gamma_connection(gauge_field_A(1.0, 0.5), 0), "series order K must be >= 1"),
    ],
)
def test_operator_factory_refuses_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    assert (bz - PolyExpr.from_terms([term(2.0)])).max_abs_coeff() <= 1e-13


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
    assert all(not op.canonical().terms for op in gamma_connection(A, 3))
    assert all(not op.canonical().terms for op in omega_connection(A, 3))


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
        assert not (g[i] - o[i]).canonical().terms


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
    f = PolyExpr.from_terms([term(1.0)])
    rep = check_semigroup(f, "x", (1.0, -1.0))
    assert not rep.passed
    assert rep.residuals["max_coeff"] == pytest.approx(1.0)
