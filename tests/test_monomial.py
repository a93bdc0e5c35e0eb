import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fraczee.monomial import (
    DROP_TOL,
    DomainError,
    ExprSyntaxError,
    PolyExpr,
    PowerTerm,
    parse_expr,
    rl_derive,
    term,
)
from fraczee.specfun import gamma

from oracles import classical_derivative, merge_key


def poly(*terms_):
    return PolyExpr.from_terms(terms_)


def max_diff(a: PolyExpr, b: PolyExpr) -> float:
    return (a - b).max_abs_coeff()


# ---------------------------------------------------------------- parsing


def test_parse_two_terms():
    e = parse_expr("x^2 - 2*y")
    assert len(e.terms) == 2
    assert e == poly(term(1.0, x=2), term(-2.0, y=1))


def test_parse_fractional_exponents():
    e = parse_expr("0.5*x^0.5*z^1.2")
    assert len(e.terms) == 1
    t = e.terms[0]
    assert t.coeff == 0.5
    assert t.exps == (0.5, 0.0, 1.2, 0.0)


def test_parse_merges_duplicate_terms():
    e = parse_expr("x + x")
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 2.0


def test_parse_negative_exponent_and_signs():
    e = parse_expr("-z^-0.5 + 2*t")
    assert e == poly(term(-1.0, z=-0.5), term(2.0, t=1))


def test_parse_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x^2 + * y")
    assert err.value.offset == 6


def test_parse_rejects_nonfinite_literal():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1e999*x")


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + w")


# a sign run must stop at the end of the input, where peek() returns ""
@pytest.mark.parametrize(
    "src, offset", [("x +", 3), ("x^", 2), ("-", 1), ("x^-", 3), ("2*x + -", 7)]
)
def test_parse_rejects_a_trailing_sign_or_caret(src, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(src)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "src, offset",
    [("1e308*x*1e308", 0), ("x^1e308*x^1e308", 0), ("y - 2*x^1e308*x^1e308", 4),
     ("x + -  1e200*1e200*y", 7), ("1e308*x + 1e308*x", 0)],
)
def test_parse_rejects_a_non_finite_product(src, offset):
    # each literal is finite; their product, exponent sum or merged sum is not
    with pytest.raises(ExprSyntaxError, match="non-finite") as err:
        parse_expr(src)
    assert err.value.offset == offset


# lexical rules: whitespace is str.isspace, digits are Unicode decimal digits
# as float() reads them, and a run of signs may stand before any exponent
@pytest.mark.parametrize(
    "src, want",
    [("٣*x", poly(term(3.0, x=1))), ("１.５*y", poly(term(1.5, y=1))),
     ("x　+　y", poly(term(1.0, x=1), term(1.0, y=1))),
     ("x\x1c-\x1cy", poly(term(1.0, x=1), term(-1.0, y=1))),
     ("x ^ - - 2", poly(term(1.0, x=2))), ("+-+x", poly(term(-1.0, x=1))),
     ("x^.5e1", poly(term(1.0, x=5)))],
)
def test_parse_lexemes(src, want):
    assert parse_expr(src) == want


@pytest.mark.parametrize(
    "src, message, offset",
    [("²*x", "expected a number", 0), ("x^²", "expected a number", 2),
     (".", "expected a number", 0), ("2e", "unexpected character 'e'", 1),
     ("1.2.3", "unexpected character '.'", 3), ("x2", "unexpected character '2'", 1),
     ("x**2", "expected a factor", 2), (" \t ", "empty expression", 0)],
)
def test_parse_lexeme_errors(src, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(src)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


# a product's finiteness test runs when the product ends, before the token
# after it is refused
@pytest.mark.parametrize(
    "src", ["1e308*1e308 q", "1e308*3.2.5x", "x^1e308*x^1e308)", "2*1e200*1e200 3"]
)
def test_parse_checks_a_product_before_the_token_after_it(src):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(src)
    assert str(err.value) == "product with a non-finite coefficient or exponent (at offset 0)"


# the lexical rules rest on re's classes: \s is str.isspace, \d is str.isdecimal
def test_regex_classes_are_the_str_predicates():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


# ---------------------------------------------------------------- rl_derive


def test_integer_order_reduces_to_classical():
    e = parse_expr("x")
    assert rl_derive(e, "x", 1.0) == PolyExpr.from_terms([term(1.0)])


def test_half_derivative_of_x():
    # coefficient Gamma(2)/Gamma(1.5) = 2/sqrt(pi), frozen from the oracle
    d = rl_derive(parse_expr("x"), "x", 0.5)
    assert len(d.terms) == 1
    assert d.terms[0].exps == (0.5, 0.0, 0.0, 0.0)
    assert d.terms[0].coeff == pytest.approx(1.1283791670955126, rel=1e-12)


def test_half_derivative_of_sqrt_x_is_constant():
    d = rl_derive(parse_expr("x^0.5"), "x", 0.5)
    assert d.terms[0].exps == (0.0, 0.0, 0.0, 0.0)
    assert d.terms[0].coeff == pytest.approx(0.8862269254527580, rel=1e-12)


def test_derivative_of_constant_vanishes_at_integer_order():
    assert rl_derive(PolyExpr.from_terms([term(3.0)]), "x", 1.0).is_zero()


def test_fractional_derivative_of_constant_does_not_vanish():
    d = rl_derive(PolyExpr.from_terms([term(1.0)]), "x", 0.5)
    assert d.terms[0].exps == (-0.5, 0.0, 0.0, 0.0)
    assert d.terms[0].coeff == pytest.approx(1.0 / gamma(0.5), rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 7e-10, 9.9e-10])
def test_boundary_pole_drops_term_exactly(offset):
    # D^a z^(a-1) = Gamma(a)/Gamma(0) = 0, also where the order misses the pole
    # by less than 1e-9: the pole test is a window, though round(-7e-10, 9) is
    # -1e-09 and not 0
    a = 0.112
    assert rl_derive(poly(term(1.0, z=a - 1)), "z", a + offset).is_zero()


def test_a_pole_annihilates_a_non_finite_coefficient():
    # D^3 of c*x^2 is 0 for every finite c: the pole at 1 + v - q = 0 removes
    # the term before a coefficient is formed, so nothing NaN is dropped
    hh = parse_expr("1e300*x") * parse_expr("1e300*x")
    assert hh.render() == "inf*x^2"
    assert rl_derive(hh, "x", 3.0).is_zero()
    with pytest.raises(ValueError, match="is not finite"):
        rl_derive(hh, "x", 0.5)


def test_domain_violation_reported_with_term():
    with pytest.raises(DomainError) as err:
        rl_derive(parse_expr("x^0.2"), "x", 1.5)
    assert "x^0.2" in str(err.value)


def test_input_exponent_below_minus_one_rejected():
    with pytest.raises(DomainError):
        rl_derive(poly(term(1.0, x=-1.2)), "x", 0.5)


@pytest.mark.parametrize(
    "src, order",
    [
        ("x^200.5", 0.5),  # Gamma(201.5) raises OverflowError
        ("x^141.3", 0.5),  # Gamma(142.3) returns inf without raising
        ("x^170", -0.5),  # Gamma(171) is finite, 1/Gamma(171.5) is not
        ("1e308*x^3", 0.5),  # every Gamma is finite, the coefficient is not
    ],
)
def test_overflowing_coefficient_is_a_value_error(src, order):
    with pytest.raises(ValueError, match="not finite") as err:
        rl_derive(parse_expr(src), "x", order)
    assert not isinstance(err.value, DomainError)


def test_negative_order_is_integration():
    d = rl_derive(parse_expr("x"), "x", -1.0)
    assert d.terms[0].exps == (2.0, 0.0, 0.0, 0.0)
    assert d.terms[0].coeff == pytest.approx(0.5, rel=1e-13)


# ---------------------------------------------------------------- evaluate


def test_eval_square():
    assert parse_expr("x^2").evaluate({"x": 3.0}) == 9.0


def test_eval_sign_convention():
    assert parse_expr("x^0.5").evaluate({"x": -4.0}) == pytest.approx(-2.0)
    # the odd extension applies to integer exponents as well
    assert parse_expr("x^2").evaluate({"x": -3.0}) == pytest.approx(-9.0)


def test_eval_mixed():
    assert parse_expr("2*x*y").evaluate({"x": 1.0, "y": 0.5}) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rl_derive(parse_expr("x"), "w", 0.5), "unknown axis 'w'"),
        (lambda: rl_derive(parse_expr("x"), "x", math.inf), "non-finite derivative order"),
        (lambda: rl_derive(parse_expr("x"), "x", math.nan), "non-finite derivative order"),
        (lambda: term(math.inf, x=1), "non-finite coefficient"),
        (lambda: term(1.0, w=1), "unknown axis 'w'"),
        (lambda: term(1.0, y=-math.inf), "non-finite exponent on axis 'y'"),
    ],
)
def test_bad_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_eval_missing_axis():
    with pytest.raises(ValueError):
        parse_expr("x*y").evaluate({"x": 1.0})


def test_eval_zero_to_negative_exponent():
    with pytest.raises(DomainError):
        parse_expr("x^-0.5").evaluate({"x": 0.0})


@pytest.mark.parametrize("expr, zero, other", [("x^2*y^-0.5", "x", "y"), ("x^-0.5*y^2", "y", "x")])
def test_eval_checks_every_axis_after_a_zero_factor(expr, zero, other):
    # the refusal does not depend on the axis order of the zero factor
    with pytest.raises(DomainError, match=f"axis '{other}'"):
        parse_expr(expr).evaluate({"x": 0.0, "y": 0.0})
    with pytest.raises(ValueError, match=f"does not supply axis '{other}'"):
        parse_expr(expr).evaluate({zero: 0.0})


def test_eval_zero_factor_skips_an_overflowing_later_one():
    # 10^400 overflows a float, but the product holds a zero factor, before or
    # after the overflowing one
    assert parse_expr("x^2*y^400 + 3").evaluate({"x": 0.0, "y": 10.0}) == 3.0
    assert parse_expr("x^400*y^2 + 3").evaluate({"x": 10.0, "y": 0.0}) == 3.0
    assert parse_expr("x^400*y^2").evaluate({"x": 10.0, "y": 0.0}) == 0.0


# ---------------------------------------------------------------- rendering


def test_render_canonical():
    assert rl_derive(parse_expr("x^2"), "x", 1.0).render() == "2*x"
    assert parse_expr("x^2 - 2*y").render() == "x^2 - 2*y"
    assert PolyExpr.zero().render() == "0"


@st.composite
def simple_polys(draw):
    n = draw(st.integers(1, 4))
    terms_ = []
    for _ in range(n):
        coeff = draw(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False).filter(
                lambda c: abs(c) > 1e-3
            )
        )
        exps = {
            a: draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
            for a in ("x", "y", "z")
        }
        terms_.append(term(coeff, **exps))
    return PolyExpr.from_terms(terms_)


@given(simple_polys())
def test_render_parse_round_trip(e):
    # rendering prints 11 significant digits, so the round trip is exact
    # on structure and near-exact on coefficients
    back = parse_expr(e.render())
    assert (back - e).max_abs_coeff() < 1e-8 * max(1.0, e.max_abs_coeff())


# ---------------------------------------------------------------- properties


@given(
    simple_polys(),
    simple_polys(),
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    st.sampled_from([1.0, -2.0, 0.5, 3.0]),
    st.sampled_from([1.0, -1.0, 2.5]),
)
def test_linearity(f, g, alpha, a, b):
    lhs = rl_derive(a * f + b * g, "x", alpha)
    rhs = a * rl_derive(f, "x", alpha) + b * rl_derive(g, "x", alpha)
    assert max_diff(lhs, rhs) < 1e-12


def test_order_one_matches_classical_on_200_random_polys():
    import numpy as np

    rng = np.random.default_rng(17)
    for _ in range(200):
        terms_ = [
            term(
                float(rng.uniform(-5, 5)),
                x=float(rng.uniform(0, 4)),
                y=float(rng.integers(0, 4)),
            )
            for _ in range(rng.integers(1, 5))
        ]
        e = PolyExpr.from_terms(terms_)
        assert max_diff(rl_derive(e, "x", 1.0), classical_derivative(e, "x")) < 1e-13


# exponent strategies stay on a millesimal grid: the engine identifies
# exponents at 1e-9 resolution, so values sitting exactly on a rounding
# boundary of that grid are outside its contract


@given(
    st.integers(500, 4000).map(lambda k: k / 1000.0),
    st.sampled_from([0.25, 0.5, 0.75]),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_composition_adds_orders(nu, a, b):
    e = poly(term(1.0, x=nu))
    step = rl_derive(rl_derive(e, "x", a), "x", b)
    direct = rl_derive(e, "x", a + b)
    assert max_diff(step, direct) < 1e-12


@given(
    st.integers(0, 4000).map(lambda k: k / 1000.0),
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
)
def test_product_rule_with_x(nu, alpha):
    # D^a (x f) = x D^a f + a D^(a-1) f  for f = x^nu
    f = poly(term(1.0, x=nu))
    lhs = rl_derive(poly(term(1.0, x=nu + 1.0)), "x", alpha)
    rhs = poly(term(1.0, x=1)) * rl_derive(f, "x", alpha) + alpha * rl_derive(
        f, "x", alpha - 1.0
    )
    assert max_diff(lhs, rhs) < 1e-12


def test_drop_tol_removes_dust():
    e = PolyExpr.from_terms([term(1.0, x=1), term(1e-15, y=1)])
    assert len(e.terms) == 1


# ---------------------------------------------------------------- merging

_EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
    st.integers(-3000, 3000).map(lambda k: k / 1000.0),
    # within 1e-12 of a point k * 1e-9 of the merge grid
    st.builds(
        lambda k, d: k * 1e-9 + d, st.integers(-3 * 10**9, 3 * 10**9), st.floats(-1e-12, 1e-12)
    ),
    st.floats(-1e17, 1e17, allow_nan=False),
)
_COEFFS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-12, 1e-12, 2e-12, math.nan]),
)


@st.composite
def term_lists(draw):
    """0-6 terms whose exponents come from a pool of 1-6 values: each drawn
    value, maybe with a twin 1e-10 away (mostly the same merge key) or one
    grid step away (a neighbouring key)."""
    pool = []
    for e in draw(st.lists(_EXPONENTS, min_size=1, max_size=3)):
        pool.append(e)
        if draw(st.booleans()):
            pool.append(e + draw(st.sampled_from([1e-10, -1e-10, 1e-9, -1e-9])))
    return [
        PowerTerm(draw(_COEFFS), tuple(draw(st.sampled_from(pool)) for _ in range(4)))
        for _ in range(draw(st.integers(0, 6)))
    ]


def bits(terms):
    return [(t.coeff.hex(), repr(t.exps)) for t in terms]


def reference_merge(terms):
    """Group on ``merge_key``: the first term of a group keeps its exponents,
    coefficients add in input order, then the drop and the sort; a group
    that sums to NaN is an error."""
    groups = {}
    for t in terms:
        key = merge_key(t.exps)
        if key in groups:
            rep, c = groups[key]
            groups[key] = (rep, c + t.coeff)
        else:
            groups[key] = (t, t.coeff)
    if any(c != c for _, c in groups.values()):
        raise ValueError("like terms sum to a NaN coefficient")
    kept = [rep.with_coeff(c) for rep, c in groups.values() if abs(c) > DROP_TOL]
    return sorted(kept, key=lambda t: t.exps)


@settings(max_examples=300)
@given(term_lists(), st.integers(0, 6), st.sampled_from([0.0, 1e-13, -1.0, 2.5, 1e12]))
def test_merge_partitions_on_the_snapped_key(terms, cut, s):
    try:
        want = reference_merge(terms)
    except ValueError:
        # dropped, a NaN sum would read as zero: both constructors refuse it
        for build in (PolyExpr.from_terms, lambda ts: PolyExpr(tuple(ts))):
            with pytest.raises(ValueError, match="NaN"):
                build(terms)
        terms = [t for t in terms if t.coeff == t.coeff]
        want = reference_merge(terms)
    e = PolyExpr.from_terms(terms)
    assert bits(e.terms) == bits(want)
    assert bits(PolyExpr(tuple(terms)).terms) == bits(e.terms)
    # scaling keeps the exponents, so it must equal a fresh merge
    assert bits(e.scaled(s).terms) == bits(
        PolyExpr.from_terms([t.with_coeff(t.coeff * s) for t in e.terms]).terms
    )
    negated = [t.with_coeff(t.coeff * -1.0) for t in e.terms]
    assert bits((-e).terms) == bits(PolyExpr.from_terms(negated).terms)
    a, b = PolyExpr.from_terms(terms[:cut]), PolyExpr.from_terms(terms[cut:])
    assert bits((a - b).terms) == bits(
        PolyExpr.from_terms(a.terms + tuple(t.with_coeff(t.coeff * -1.0) for t in b.terms)).terms
    )


@pytest.mark.parametrize("text", ["x + 2*y", "0", "3"])
def test_nan_factor_is_refused(text):
    # the coefficient drop would otherwise turn x + 2*y into the zero sum
    e = parse_expr(text)
    for scale in (lambda: e.scaled(math.nan), lambda: e * math.nan, lambda: math.nan * e,
                  lambda: e * float("nan")):
        with pytest.raises(ValueError, match="NaN"):
            scale()


def test_infinite_factor_still_scales():
    assert (parse_expr("x + 2*y") * math.inf).render() == "inf*x + inf*y"


def test_like_terms_summing_to_nan_are_refused():
    # inf + -inf is NaN, which fails the drop test too: dropped, h*h - h*h
    # would be the zero sum
    h = parse_expr("1e300*x")
    hh = h * h
    assert hh.render() == "inf*x^2"
    for make in (lambda: hh - hh, lambda: hh + hh.scaled(-1.0),
                 lambda: PolyExpr(hh.terms + (-hh).terms)):
        with pytest.raises(ValueError, match="NaN"):
            make()
    assert (h - h).is_zero()
