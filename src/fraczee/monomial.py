"""Exact algebra of multivariate power expressions.

A :class:`PolyExpr` is a finite sum of signed terms ``c * x^a y^b z^c t^d``
with real exponents.  The Riemann-Liouville derivative with lower terminal
0 acts termwise through the closed-form power rule

    D^q x^v = Gamma(1+v) / Gamma(1+v-q) * x^(v-q)

where negative q is a fractional integral.  Coefficients are assembled
through ``rgamma`` so that denominator poles annihilate terms exactly.

Numeric evaluation follows the odd-extension convention
``x^v := sign(x) |x|^v`` on every axis carrying a nonzero exponent.

Exponents are identified at a resolution of 1e-9: terms whose exponent
vectors agree after rounding to 9 decimals merge, and Gamma arguments
that close to a pole count as the pole.  Every :class:`PolyExpr` is
normalized on that grid: terms distinct, sorted by exponent vector,
coefficients above ``DROP_TOL`` (``_kept`` drops the rest, and refuses a
NaN among them).  Construction and ``from_terms`` merge
through ``_merge``; ``scaled`` keeps the exponents, and :func:`rl_derive`
and ``operators.OperatorTerm.apply_to`` shift them all by one amount, so
these build through ``_normalized`` without a merge.  Exponents within an
ulp of a rounding boundary of the grid are outside the contract: a shift
can leave two such terms with one merge key.

:func:`parse_expr` reads its input one regex match per factor: the ``*``
or sign run before the factor, then the factor with its ``^`` and exponent.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from .specfun import gamma, rgamma

__all__ = [
    "AXES",
    "DROP_TOL",
    "DomainError",
    "ExprSyntaxError",
    "PowerTerm",
    "PolyExpr",
    "term",
    "parse_expr",
    "rl_derive",
]

AXES = ("x", "y", "z", "t")
_AXIS_INDEX = {a: i for i, a in enumerate(AXES)}

#: coefficients with smaller magnitude are dropped after arithmetic
DROP_TOL = 1e-12


class DomainError(ValueError):
    """Operation left the admissible function class (terminal at 0)."""


class ExprSyntaxError(ValueError):
    """Raised by the parser; carries the failing token's character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class PowerTerm:
    """One signed power product: coeff * x^e0 * y^e1 * z^e2 * t^e3."""

    coeff: float
    exps: tuple[float, float, float, float]

    def exponent(self, axis: str) -> float:
        return self.exps[_AXIS_INDEX[axis]]

    def with_coeff(self, coeff: float) -> "PowerTerm":
        return PowerTerm(coeff, self.exps)


def _exps_tuple(exponents: Mapping[str, float] | None) -> tuple[float, float, float, float]:
    out = [0.0, 0.0, 0.0, 0.0]
    for axis, e in (exponents or {}).items():
        if axis not in _AXIS_INDEX:
            raise ValueError(f"unknown axis {axis!r}; axes are {AXES}")
        if not math.isfinite(e):
            raise ValueError(f"non-finite exponent on axis {axis!r}")
        out[_AXIS_INDEX[axis]] = float(e)
    return tuple(out)


def term(coeff: float, **exponents: float) -> PowerTerm:
    """Convenience constructor: ``term(2.0, x=1, z=-0.5)``."""
    if not math.isfinite(coeff):
        raise ValueError("non-finite coefficient")
    return PowerTerm(float(coeff), _exps_tuple(exponents))


def _snapped(exps: Iterable[float]) -> tuple[float, ...]:
    """Exponents snapped to 9 decimals: the key on which like terms merge, so
    that roundoff-sized disagreements between computation paths still cancel.
    An integer-valued exponent (float or int) is its own snap: round gives it
    back, or for -0.0 a zero that compares and hashes equal."""
    return tuple(round(e, 9) if e % 1.0 else e for e in exps)


def _merge(terms: Iterable[PowerTerm]) -> tuple[PowerTerm, ...]:
    # group on the :func:`_snapped` exponents, spelled out for the four axes
    # on this hot path; the first term seen keeps its raw exponents as the
    # cluster representative
    terms = tuple(terms)
    if len(terms) == 1:
        return _kept(terms)
    groups: dict[tuple[float, ...], PowerTerm] = {}
    for t in terms:
        a, b, c, d = t.exps
        key = (
            round(a, 9) if a % 1.0 else a,
            round(b, 9) if b % 1.0 else b,
            round(c, 9) if c % 1.0 else c,
            round(d, 9) if d % 1.0 else d,
        )
        g = groups.get(key)
        groups[key] = t if g is None else g.with_coeff(g.coeff + t.coeff)
    return tuple(sorted(_kept(groups.values()), key=lambda t: t.exps))


def _kept(terms: Collection) -> tuple:
    """``terms`` (each with a ``coeff``) without those whose coefficient is at
    or below ``DROP_TOL``, the one drop rule of the algebra.

    A NaN (``inf * 0``, ``inf - inf``) fails the drop test as well; dropped,
    it would turn the expression into the zero sum, so it raises
    ``ValueError`` instead.
    """
    for t in terms:
        if not abs(t.coeff) > DROP_TOL:
            break
    else:
        return tuple(terms)
    if any(t.coeff != t.coeff for t in terms):
        raise ValueError("a coefficient is NaN (from inf * 0 or inf - inf) and cannot be dropped")
    return tuple(t for t in terms if abs(t.coeff) > DROP_TOL)


@dataclass(frozen=True)
class PolyExpr:
    """Normalized finite sum of :class:`PowerTerm`.

    Construction merges terms with equal exponent vectors and drops
    coefficients at or below ``DROP_TOL``, but raises ``ValueError`` where
    a dropped one is NaN; instances are immutable.
    """

    terms: tuple[PowerTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _merge(self.terms))

    @staticmethod
    def from_terms(terms: Iterable[PowerTerm]) -> "PolyExpr":
        return _normalized(_merge(terms))

    @staticmethod
    def zero() -> "PolyExpr":
        return _normalized(())

    def is_zero(self) -> bool:
        # normalized: no kept coefficient is at or below DROP_TOL
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def scaled(self, s: float) -> "PolyExpr":
        # a NaN factor is refused even where _kept has nothing to drop (zero)
        if s != s:
            raise ValueError("cannot scale an expression by NaN")
        return _normalized(_kept([PowerTerm(t.coeff * s, t.exps) for t in self.terms]))

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        return PolyExpr.from_terms(self.terms + other.terms)

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "PolyExpr":
        return self.scaled(-1.0)

    def __mul__(self, other: "PolyExpr | float") -> "PolyExpr":
        if isinstance(other, PolyExpr):
            prods = [
                PowerTerm(
                    a.coeff * b.coeff,
                    tuple(ea + eb for ea, eb in zip(a.exps, b.exps)),
                )
                for a in self.terms
                for b in other.terms
            ]
            return PolyExpr.from_terms(prods)
        return self.scaled(float(other))

    __rmul__ = __mul__

    def evaluate(self, point: Mapping[str, float]) -> float:
        """Numeric value at ``point`` under the sign(x)|x|^v convention.

        Axes with zero exponent need not be supplied.  A zero coordinate
        under a negative exponent is a domain error, checked on every axis
        before a zero factor makes the term 0.0.
        """
        total = 0.0
        for t in self.terms:
            v = t.coeff
            zero = False
            for axis, e in zip(AXES, t.exps):
                if e == 0.0:
                    continue
                if axis not in point:
                    raise ValueError(f"point does not supply axis {axis!r}")
                c = float(point[axis])
                if c == 0.0:
                    if e < 0.0:
                        raise DomainError(
                            f"zero coordinate on axis {axis!r} raised to exponent {e}"
                        )
                    zero = True
                elif not zero:
                    v *= math.copysign(abs(c) ** e, c)
            total += 0.0 if zero else v
        return total

    def render(self) -> str:
        """Canonical text form, diff-stable (terms sorted by exponents)."""
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda t: t.exps, reverse=True)
        out: list[str] = []
        for i, t in enumerate(ordered):
            sign = "-" if t.coeff < 0 else "+"
            mag = abs(t.coeff)
            parts = []
            for axis, e in zip(AXES, t.exps):
                if e == 0.0:
                    continue
                parts.append(axis if e == 1.0 else "%s^%.10g" % (axis, e))
            if not parts or mag != 1.0:
                parts.insert(0, "%.11g" % mag)
            body = "*".join(parts) if parts else "1"
            if i == 0:
                out.append(body if sign == "+" else f"-{body}")
            else:
                out.append(f" {sign} {body}")
        return "".join(out)


def _normalized(terms: tuple[PowerTerm, ...]) -> PolyExpr:
    """A :class:`PolyExpr` of ``terms`` as given, already normalized: no merge."""
    e = object.__new__(PolyExpr)
    object.__setattr__(e, "terms", terms)
    return e


def _shifted(terms: Iterable[PowerTerm], coeff: float, exps: tuple) -> tuple[PowerTerm, ...]:
    """Each term times ``coeff * x^exps``, through :func:`_kept`."""
    u0, u1, u2, u3 = exps
    out = []
    for t in terms:
        e0, e1, e2, e3 = t.exps
        out.append(PowerTerm(t.coeff * coeff, (e0 + u0, e1 + u1, e2 + u2, e3 + u3)))
    return _kept(out)


def rl_derive(e: PolyExpr, axis: str, order: float) -> PolyExpr:
    """Riemann-Liouville derivative (integral for order < 0) along one axis.

    Each term ``c x^v`` maps to ``c Gamma(1+v) rgamma(1+v-order) x^(v-order)``.
    Terms whose denominator Gamma sits at a pole are annihilated; the pole
    test snaps ``1+v-order`` to the same 1e-9 grid used for exponent
    merging, so cancellations that are exact in real arithmetic stay exact
    under floating-point drift of the exponents.  The pole removes a term
    before its coefficient is formed, even an infinite one, as intended:
    D^3 of ``c x^2`` is 0 for every finite c.  Surviving terms must
    satisfy ``v - order >= -1``.

    Raises:
        DomainError: input exponent <= -1 on the axis, or the result
            would leave the admissible class with a nonzero coefficient.
        ValueError: a Gamma overflows, or a coefficient is not finite.
    """
    if axis not in _AXIS_INDEX:
        raise ValueError(f"unknown axis {axis!r}; axes are {AXES}")
    if not math.isfinite(order):
        raise ValueError("non-finite derivative order")
    if order == 0.0:
        return e
    return _normalized(tuple(_derive_terms(e.terms, axis, order)))


def _derive_terms(terms: Iterable[PowerTerm], axis: str, order: float) -> list[PowerTerm]:
    """:func:`rl_derive` on each term, unmerged and without the coefficients at
    or below ``DROP_TOL``, for a known axis and a finite nonzero order;
    ``gamma``/``rgamma`` are looked up at each call."""
    i = _AXIS_INDEX[axis]
    out: list[PowerTerm] = []
    for t in terms:
        v = t.exps[i]
        if v <= -1.0:
            raise DomainError(
                f"term with exponent {v} <= -1 on axis {axis!r} is outside the "
                f"admissible class: {_normalized((t,)).render()}"
            )
        arg = 1.0 + v - order
        n = round(arg)
        if abs(arg - n) <= 1e-9 and n <= 0.0:
            continue
        if v - order < -1.0 - 1e-9:
            raise DomainError(
                f"order {order} on axis {axis!r} drives exponent {v} below -1 "
                f"in term {_normalized((t,)).render()}"
            )
        try:
            coeff = t.coeff * gamma(1.0 + v) * rgamma(arg)
        except OverflowError:
            coeff = math.inf
        if not math.isfinite(coeff):
            raise ValueError(f"the order {order} derivative on axis {axis!r} of "
                             f"{_normalized((t,)).render()} is not finite")
        if abs(coeff) > DROP_TOL:
            exps = list(t.exps)
            exps[i] = v - order
            out.append(PowerTerm(coeff, tuple(exps)))
    return out


# ----------------------------------------------------------------------
# expression parser: signed sums of products  c * x^e * y^e ...
# ----------------------------------------------------------------------

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
#: one factor and what comes before it: the separator (whitespace around a
#: '*' or a run of signs), then a number, an axis with its '^', signs and
#: number, a stray character, or "" at the end of the input
_FACTOR_RE = re.compile(
    rf"(\s*(?:(\*)|([+-](?:\s*[+-])*))?\s*)"
    rf"(?:({_NUMBER})|([{''.join(AXES)}])(?:(\s*\^(?:\s*[+-])*\s*)({_NUMBER})?)?|(\S)|)"
)


def _literal(text: str, at: int) -> float:
    """``text`` as a float; a non-finite one is an error at offset ``at``."""
    value = float(text)
    if not math.isfinite(value):
        raise ExprSyntaxError(f"non-finite literal {text!r}", at)
    return value


def parse_expr(src: str) -> PolyExpr:
    """Parse ``"0.5*x^0.5*z^1.2 - 2*y"``-style input into a PolyExpr.

    Raises :class:`ExprSyntaxError` (with character offset) on malformed input.
    """
    terms: list[PowerTerm] = []
    at = 0  # offset of the current match
    s = 0.0  # sign of the open product, 0.0 before the first
    for sep, star, signs, num, axis, caret, power, other in _FACTOR_RE.findall(src):
        if s and not star:
            # the open product ends here, before what follows is looked at
            if not (math.isfinite(coeff) and all(map(math.isfinite, exps))):
                raise ExprSyntaxError("product with a non-finite coefficient or exponent", start)
            terms.append(PowerTerm(s * coeff, tuple(exps)))
            if not signs:
                if not (num or axis or other):
                    break
                raise ExprSyntaxError(f"unexpected character {(num or axis or other)[0]!r}",
                                      at + len(sep))
        if not s or signs:
            if star:
                raise ExprSyntaxError("expected a factor", at + sep.index("*"))
            if not (signs or num or axis or other):
                raise ExprSyntaxError("empty expression", 0)
            s = -1.0 if signs.count("-") % 2 else 1.0
            start = at + len(sep)
            coeff = 1.0
            exps = [0.0, 0.0, 0.0, 0.0]
        at += len(sep)
        if num:
            coeff *= _literal(num, at)
            at += len(num)
        elif axis:
            e = 1.0
            if caret:
                if not power:
                    raise ExprSyntaxError("expected a number", at + 1 + len(caret))
                e = (-1.0 if caret.count("-") % 2 else 1.0) * _literal(power, at + 1 + len(caret))
            exps[_AXIS_INDEX[axis]] += e
            at += 1 + len(caret) + len(power)
        elif other == "." or other.isdigit():
            # '.' or a digit that starts no number ('²')
            raise ExprSyntaxError("expected a number", at)
        else:
            raise ExprSyntaxError("expected a factor", at)
    expr = PolyExpr.from_terms(terms)
    # finite like terms can still sum past the float range
    if not all(math.isfinite(t.coeff) for t in expr.terms):
        raise ExprSyntaxError("like terms sum to a non-finite coefficient", 0)
    return expr
