"""Fractional operators acting on :class:`~fraczee.monomial.PolyExpr`.

An :class:`OperatorTerm` is the composite

    result = i^iphase * coeff * PRE * ( D_x^{qx...} D_y^{qy...} ... ( INNER * operand ) )

with power-product multipliers PRE (applied after the derivatives) and
INNER (applied before them), and a per-axis sequence of Riemann-Liouville
orders applied in the fixed axis order x, y, z, t.  Coefficients stay
real; factors of i are tracked as a phase exponent mod 4, and
applications return a :class:`PhasedPoly` split into real and imaginary
parts.

Operator builders use natural units with unit mass (hbar = c = m = 1).  The
angular-momentum convention throughout is

    K_z(beta) = i (y D_x^beta - x D_y^beta)

whose beta = 1 case is the standard quantum-mechanical L_z; the deformed
commutator identities below hold exactly in this orientation.

Applications merge nothing: multipliers and derivatives are shifts that keep
the invariant of :mod:`~fraczee.monomial` (see its rounding-boundary caveat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import rlquad
from .monomial import (
    _AXIS_INDEX, AXES, PolyExpr, _derive_terms, _exps_tuple, _kept, _normalized, _shifted,
    _snapped, rl_derive, term,
)
from .specfun import frac_binomial, gamma

__all__ = [
    "PhasedPoly",
    "OperatorTerm",
    "OperatorExpr",
    "GaugeField",
    "CheckReport",
    "op_term",
    "build_H",
    "build_Kx",
    "build_Ky",
    "build_Kz",
    "build_Lz",
    "build_Jx",
    "build_Jy",
    "build_Jz",
    "build_Sz",
    "build_p",
    "gauge_field_A",
    "curl_frac",
    "check_constant_field",
    "gamma_connection",
    "omega_connection",
    "check_connection_reduction",
    "check_curl_coefficient",
    "check_zeeman_reduction",
    "check_commutation",
    "check_commutation_worst",
    "check_noncommutation",
    "check_kkk",
    "verify_J_algebra",
    "check_Sz_vanishes",
    "check_spin_decomposition",
    "check_classical_Lz",
    "check_semigroup",
    "check_quadrature",
    "commutator",
]

_ZERO4 = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PhasedPoly:
    """Real + imaginary PolyExpr pair, the image of a real operand."""

    re: PolyExpr
    im: PolyExpr

    @staticmethod
    def zero() -> "PhasedPoly":
        return PhasedPoly(PolyExpr.zero(), PolyExpr.zero())

    def __add__(self, other: "PhasedPoly") -> "PhasedPoly":
        return PhasedPoly(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "PhasedPoly") -> "PhasedPoly":
        return PhasedPoly(self.re - other.re, self.im - other.im)

    def scaled(self, s: float) -> "PhasedPoly":
        return PhasedPoly(self.re.scaled(s), self.im.scaled(s))

    def max_abs_coeff(self) -> float:
        return max(self.re.max_abs_coeff(), self.im.max_abs_coeff())


def _orders_tuple(orders: Mapping[str, float | Sequence[float]] | None):
    out: list[tuple[float, ...]] = [(), (), (), ()]
    for axis, q in (orders or {}).items():
        if axis not in _AXIS_INDEX:
            raise ValueError(f"unknown axis {axis!r}")
        if isinstance(q, (int, float)):
            seq = (float(q),)
        else:
            seq = tuple(float(v) for v in q)
        if not all(math.isfinite(v) for v in seq):
            raise ValueError("non-finite derivative order")
        out[_AXIS_INDEX[axis]] = tuple(v for v in seq if v != 0.0)
    return tuple(out)


@dataclass(frozen=True)
class OperatorTerm:
    coeff: float
    iphase: int = 0
    pre: tuple[float, float, float, float] = _ZERO4
    inner: tuple[float, float, float, float] = _ZERO4
    orders: tuple[tuple[float, ...], ...] = ((), (), (), ())

    def apply_to(self, f: PolyExpr) -> PolyExpr:
        """Image of ``f`` before the i^iphase phase factor; no stage merges."""
        terms = f.terms if self.inner == _ZERO4 else _shifted(f.terms, 1.0, self.inner)
        for axis, orders in zip(AXES, self.orders):
            for q in orders:
                if q:  # a zero order, possible in a bare OperatorTerm, is the identity
                    terms = _derive_terms(terms, axis, q)
        return _normalized(_shifted(terms, self.coeff, self.pre))


def op_term(
    coeff: float,
    iphase: int = 0,
    pre: Mapping[str, float] | None = None,
    inner: Mapping[str, float] | None = None,
    orders: Mapping[str, float | Sequence[float]] | None = None,
) -> OperatorTerm:
    if coeff != coeff:
        raise ValueError("NaN operator coefficient")
    return OperatorTerm(
        float(coeff),
        iphase % 4,
        _exps_tuple(pre),
        _exps_tuple(inner),
        _orders_tuple(orders),
    )


@dataclass(frozen=True)
class OperatorExpr:
    """Finite linear combination of operator terms; acts linearly."""

    terms: tuple[OperatorTerm, ...]

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scaled(-1.0)

    def scaled(self, s: float, iphase_shift: int = 0) -> "OperatorExpr":
        if s != s:
            raise ValueError("cannot scale an operator by NaN")
        return OperatorExpr(
            tuple(
                OperatorTerm(
                    t.coeff * s,
                    (t.iphase + iphase_shift) % 4,
                    t.pre,
                    t.inner,
                    t.orders,
                )
                for t in self.terms
            )
        )

    def apply(self, f: PolyExpr) -> PhasedPoly:
        re = im = PolyExpr.zero()
        for t in self.terms:
            g = t.apply_to(f)
            if t.iphase % 4 >= 2:
                g = -g
            # a sum with the zero expression would only merge g again
            if t.iphase % 2:
                im = im + g if im.terms else g
            else:
                re = re + g if re.terms else g
        return PhasedPoly(re, im)

    def apply_phased(self, g: PhasedPoly) -> PhasedPoly:
        a = self.apply(g.re)
        b = self.apply(g.im)  # operand carries a factor i
        return PhasedPoly(a.re - b.im, a.im + b.re)

    def canonical(self) -> "OperatorExpr":
        """Merge like terms; fold phases 2, 3 into the sign; move inner
        multipliers past derivative-free axes into the prefactor.  Terms are
        alike where their exponents and orders agree on the grid on which
        ``PolyExpr`` merges (:func:`~fraczee.monomial._snapped`); the first
        term seen keeps its raw values."""
        groups: dict[tuple, list] = {}
        for t in self.terms:
            coeff = t.coeff
            p = t.iphase % 4
            if p >= 2:
                coeff, p = -coeff, p - 2
            pre = list(t.pre)
            inner = list(t.inner)
            for i in range(4):
                if inner[i] != 0.0 and not t.orders[i]:
                    pre[i] += inner[i]
                    inner[i] = 0.0
            key = (p, _snapped(pre), _snapped(inner), tuple(map(_snapped, t.orders)))
            g = groups.get(key)
            if g is None:
                groups[key] = [(p, tuple(pre), tuple(inner), t.orders), coeff]
            else:
                g[1] += coeff
        return OperatorExpr(_kept([
            OperatorTerm(c, *raw) for raw, c in sorted(groups.values())
        ]))


def commutator(a: OperatorExpr, b: OperatorExpr, f: PolyExpr) -> PhasedPoly:
    """[a, b] applied to f, i.e. a(b f) - b(a f)."""
    return a.apply_phased(b.apply(f)) - b.apply_phased(a.apply(f))


# ----------------------------------------------------------------------
# named operators
# ----------------------------------------------------------------------


def build_H(alpha: float) -> OperatorExpr:
    """Free Hamiltonian -1/2 * sum_i D_i^a D_i^a over the spatial axes, unit mass."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return OperatorExpr(
        tuple(op_term(-0.5, orders={axis: (alpha, alpha)}) for axis in ("x", "y", "z"))
    )


def _k_component(axes_pair: tuple[str, str], beta: float) -> OperatorExpr:
    # i (u D_v^beta - v D_u^beta) with (v, u) = axes_pair, e.g. Kz: (x, y)
    v, u = axes_pair
    return OperatorExpr(
        (
            op_term(1.0, 1, pre={u: 1.0}, orders={v: beta}),
            op_term(-1.0, 1, pre={v: 1.0}, orders={u: beta}),
        )
    )


def build_Kz(beta: float) -> OperatorExpr:
    """Generalized angular momentum K_z(beta) = i (y D_x^beta - x D_y^beta), unit mass."""
    return _k_component(("x", "y"), beta)


def build_Kx(beta: float) -> OperatorExpr:
    return _k_component(("y", "z"), beta)


def build_Ky(beta: float) -> OperatorExpr:
    return _k_component(("z", "x"), beta)


def build_Lz(alpha: float) -> OperatorExpr:
    """Fractional rotation generator i (y^a D_x^a - x^a D_y^a).

    For alpha = 1 this is the classical L_z and coincides with
    ``build_Kz(1)``.
    """
    return OperatorExpr(
        (
            op_term(1.0, 1, pre={"y": alpha}, orders={"x": alpha}),
            op_term(-1.0, 1, pre={"x": alpha}, orders={"y": alpha}),
        )
    )


def build_Jz(alpha: float) -> OperatorExpr:
    """Total angular momentum J_z = K_z(2 alpha - 1); commutes with H^alpha."""
    return build_Kz(2.0 * alpha - 1.0)


def build_Jx(alpha: float) -> OperatorExpr:
    return build_Kx(2.0 * alpha - 1.0)


def build_Jy(alpha: float) -> OperatorExpr:
    return build_Ky(2.0 * alpha - 1.0)


def build_Sz(alpha: float) -> OperatorExpr:
    """Intrinsic part S_z = J_z(alpha) - K_z(1); vanishes at alpha = 1."""
    return (build_Jz(alpha) - build_Kz(1.0)).canonical()


def build_p(axis: str, beta: float) -> OperatorExpr:
    """Fractional translation generator p_axis(beta) = i D_axis^beta, unit mass."""
    return OperatorExpr((op_term(1.0, 1, orders={axis: beta}),))


# ----------------------------------------------------------------------
# gauge field, fractional curl, connection operators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeField:
    """Three-component vector potential with its derivative order."""

    components: tuple[PolyExpr, PolyExpr, PolyExpr]
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("gauge field order must lie in (0, 1]")


def gauge_field_A(B: float, alpha: float) -> GaugeField:
    """Vector potential whose fractional curl is a fractionally constant B_z.

    A = ( -B/2 x^(1-a) y^(2a-1) z^(a-1),  B/2 x^(2a-1) y^(1-a) z^(a-1),  0 );
    at alpha = 1 this is the familiar symmetric potential (-By/2, Bx/2, 0).
    """
    a = alpha
    ax = PolyExpr.from_terms([term(-B / 2.0, x=1 - a, y=2 * a - 1, z=a - 1)])
    ay = PolyExpr.from_terms([term(B / 2.0, x=2 * a - 1, y=1 - a, z=a - 1)])
    return GaugeField((ax, ay, PolyExpr.zero()), a)


def curl_frac(A: GaugeField) -> tuple[PolyExpr, PolyExpr, PolyExpr]:
    """Fractional curl (nabla^a x A) with the field's own order."""
    a = A.alpha
    Ax, Ay, Az = A.components
    bx = rl_derive(Az, "y", a) - rl_derive(Ay, "z", a)
    by = rl_derive(Ax, "z", a) - rl_derive(Az, "x", a)
    bz = rl_derive(Ay, "x", a) - rl_derive(Ax, "y", a)
    return (bx, by, bz)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: residual magnitudes vs a tolerance."""

    name: str
    passed: bool
    tolerance: float
    residuals: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "details": self.details,
        }


def _report(
    name: str, tol: float, residuals: dict[str, float], details: dict | None = None
) -> CheckReport:
    """The report of a check that passes when every residual is below ``tol``."""
    passed = all(v < tol for v in residuals.values())
    return CheckReport(name, passed, tol, residuals, details or {})


def check_constant_field(Bz: PolyExpr, alpha: float) -> CheckReport:
    """Fractional constancy: D_x^a D_y^a Bz = D_y^a D_x^a Bz = D_z^a Bz = 0."""
    r = {
        "dx_dy": rl_derive(rl_derive(Bz, "y", alpha), "x", alpha).max_abs_coeff(),
        "dy_dx": rl_derive(rl_derive(Bz, "x", alpha), "y", alpha).max_abs_coeff(),
        "dz": rl_derive(Bz, "z", alpha).max_abs_coeff(),
    }
    return _report("constant-field", 1e-12, r)


def _connection(A: GaugeField, K: int, multiplier: str) -> tuple[OperatorExpr, ...]:
    """Per axis, ``sum_{k=1..K} c_k (D_i^(k-a) A_i) D_i^(a-k)`` with the derived
    field as the ``pre`` or ``inner`` multiplier of each operator term."""
    if K < 1:
        raise ValueError("series order K must be >= 1")
    a = A.alpha
    out = []
    for A_i, axis in zip(A.components, AXES):
        terms: list[OperatorTerm] = []
        for k in range(1, K + 1):
            dk = rl_derive(A_i, axis, k - a)
            if dk.is_zero():
                continue
            c_k = frac_binomial(a, k)
            if multiplier == "inner":
                c_k = -c_k * (-1.0) ** k
            for t in dk.terms:
                field_exps = {multiplier: dict(zip(AXES, t.exps))}
                terms.append(op_term(c_k * t.coeff, orders={axis: a - k}, **field_exps))
        out.append(OperatorExpr(tuple(terms)))
    return tuple(out)


def gamma_connection(A: GaugeField, K: int = 1) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Charge connection operator per axis.

    Component i is ``sum_{k=1..K} C(a, k) (D_i^(k-a) A_i) D_i^(a-k)`` with
    the derived field acting as a multiplier in front of the derivative.
    For the constant-field potential the series collapses at k = 1.
    """
    return _connection(A, K, "pre")


def omega_connection(A: GaugeField, K: int = 1) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Adjoint-side connection: ``-sum_k C(a,k) (-1)^k D_i^(a-k) (D_i^(k-a) A_i) ·``.

    Here the derived field multiplies the operand before the derivative,
    which the operator term records as an inner multiplier.
    """
    return _connection(A, K, "inner")


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------


def check_curl_coefficient(B: float, alpha: float) -> CheckReport:
    """curl of the constant-field potential against its closed form.

    Expected: B_z = (B/2) Gamma(2a)/Gamma(a) (x^(1-a) y^(a-1)
    + x^(a-1) y^(1-a)) z^(a-1), with B_x = B_y = 0 exactly.
    """
    a = alpha
    bx, by, bz = curl_frac(gauge_field_A(B, a))
    c = (B / 2.0) * gamma(2.0 * a) / gamma(a)
    expected = PolyExpr.from_terms(
        [
            term(c, x=1 - a, y=a - 1, z=a - 1),
            term(c, x=a - 1, y=1 - a, z=a - 1),
        ]
    )
    r = {
        "bx": bx.max_abs_coeff(),
        "by": by.max_abs_coeff(),
        "bz_vs_closed_form": (bz - expected).max_abs_coeff(),
    }
    return _report("curl-coefficient", 1e-12, r)


def _op_residual(a: OperatorExpr, b: OperatorExpr) -> float:
    diff = (a - b).canonical()
    return max((abs(t.coeff) for t in diff.terms), default=0.0)


def check_connection_reduction(B: float, alpha: float, K_max: int = 5) -> CheckReport:
    """Series truncation and the Gamma-hat = Omega-hat equality."""
    A = gauge_field_A(B, alpha)
    g1 = gamma_connection(A, 1)
    r: dict[str, float] = {}
    for K in range(2, K_max + 1):
        gK = gamma_connection(A, K)
        r[f"gamma_K{K}_minus_K1"] = max(_op_residual(gK[i], g1[i]) for i in range(3))
    o1 = omega_connection(A, K_max)
    for i, axis in enumerate(("x", "y", "z")):
        r[f"gamma_minus_omega_{axis}"] = _op_residual(g1[i], o1[i])
    return _report("connection-reduction", 1e-12, r)


def check_zeeman_reduction(B: float, alpha: float, f: PolyExpr) -> CheckReport:
    """Interaction collapse: (nabla_a Gamma-hat + Omega-hat nabla_a) f equals
    i a Gamma(2-a) B z^(a-1) Lz-hat(2a-1) f."""
    a = alpha
    A = gauge_field_A(B, a)
    G = gamma_connection(A, 1)
    O = omega_connection(A, 1)
    lhs = PhasedPoly.zero()
    for i, axis in enumerate(("x", "y", "z")):
        gi = G[i].apply(f)
        lhs = lhs + PhasedPoly(rl_derive(gi.re, axis, a), rl_derive(gi.im, axis, a))
        lhs = lhs + O[i].apply(rl_derive(f, axis, a))
    scale = a * gamma(2.0 - a) * B
    rhs_op = OperatorExpr(
        (
            op_term(scale, 2, pre={"y": 2 * a - 1, "z": a - 1}, orders={"x": 2 * a - 1}),
            op_term(-scale, 2, pre={"x": 2 * a - 1, "z": a - 1}, orders={"y": 2 * a - 1}),
        )
    )
    res = (lhs - rhs_op.apply(f)).max_abs_coeff()
    return _report("zeeman-reduction", 1e-10, {"max_coeff": res})


def check_commutation(alpha: float, f: PolyExpr) -> CheckReport:
    """[J_z(2a-1), H^a] f should vanish."""
    res = commutator(build_Jz(alpha), build_H(alpha), f).max_abs_coeff()
    return _report("Jz-H-commutation", 1e-10, {"max_coeff": res})


def check_commutation_worst(alpha: float, fs: Sequence[PolyExpr]) -> CheckReport:
    """:func:`check_commutation` over many operands; reports the worst."""
    worst = max(check_commutation(alpha, f).residuals["max_coeff"] for f in fs)
    return _report("Jz-H-commutation", 1e-10, {"worst_max_coeff": worst},
                   {"alpha": alpha, "monomials": len(fs)})


def check_noncommutation(alpha: float, f: PolyExpr) -> CheckReport:
    """[K_z(1), H^a] f must NOT vanish: passes when the residual exceeds 1e-6.

    The classical L_z = K_z(1) commutes with H^1 only, so this check fails
    at alpha = 1.
    """
    res = commutator(build_Kz(1.0), build_H(alpha), f).max_abs_coeff()
    return CheckReport("Lz-H-noncommutation", res > 1e-6, 1e-6, {"max_coeff": res},
                       {"alpha": alpha, "pass_requires": "residual above tolerance"})


def check_kkk(alpha: float, beta: float, f: PolyExpr) -> CheckReport:
    """Deformed commutator: [i K_z(b), H^a] = a (D_x^(2a-1) D_y^b - D_x^b D_y^(2a-1))."""
    iKz = build_Kz(beta).scaled(1.0, iphase_shift=1)
    lhs = commutator(iKz, build_H(alpha), f)
    rhs_op = OperatorExpr(
        (
            op_term(alpha, orders={"x": 2 * alpha - 1, "y": beta}),
            op_term(-alpha, orders={"x": beta, "y": 2 * alpha - 1}),
        )
    )
    res = (lhs - rhs_op.apply(f)).max_abs_coeff()
    return _report("kz-h-commutator", 1e-10, {"max_coeff": res})


def verify_J_algebra(alpha: float, f: PolyExpr) -> CheckReport:
    """Cyclic commutation relations of the total angular momentum:
    [J_x, J_y] = (2a-1) J_z p_z^(2(a-1)) and cyclic permutations."""
    Jx, Jy, Jz = build_Jx(alpha), build_Jy(alpha), build_Jz(alpha)
    factor = 2.0 * alpha - 1.0
    r: dict[str, float] = {}
    for name, (A_, B_, C_, ax) in {
        "xy": (Jx, Jy, Jz, "z"),
        "yz": (Jy, Jz, Jx, "x"),
        "zx": (Jz, Jx, Jy, "y"),
    }.items():
        lhs = commutator(A_, B_, f)
        rhs = C_.apply_phased(build_p(ax, 2.0 * (alpha - 1.0)).apply(f)).scaled(factor)
        r[name] = (lhs - rhs).max_abs_coeff()
    return _report("J-algebra", 1e-10, r)


def check_Sz_vanishes() -> CheckReport:
    """The internal spin S_z vanishes at alpha = 1 (no term survives)."""
    terms = float(len(build_Sz(1.0).terms))
    return _report("Sz-vanishes-at-alpha-1", 1e-12, {"terms": terms})


def check_spin_decomposition(alpha: float) -> CheckReport:
    """J_z(2a-1) = K_z(1) + S_z(a): orbital plus internal spin."""
    res = _op_residual(build_Kz(2 * alpha - 1) - build_Kz(1.0), build_Sz(alpha))
    return _report("Jz-decomposition", 1e-12, {"max_coeff": res}, {"alpha": alpha})


def check_classical_Lz() -> CheckReport:
    """K_z(1) equals the classical rotation generator L_z(1)."""
    res = _op_residual(build_Kz(1.0), build_Lz(1.0))
    return _report("Kz1-is-classical-Lz", 1e-12, {"max_coeff": res})


def check_semigroup(f: PolyExpr, axis: str, orders: Sequence[float]) -> CheckReport:
    """Composed single derivatives against the direct summed order."""
    g = f
    for q in orders:
        g = rl_derive(g, axis, q)
    direct = rl_derive(f, axis, math.fsum(orders))
    res = (g - direct).max_abs_coeff()
    return _report("semigroup", 1e-10, {"max_coeff": res})


def check_quadrature(nodes: int = rlquad.DEFAULT_NODES) -> CheckReport:
    """Gauss-Jacobi quadrature of D^a s^nu against the power rule
    Gamma(1+nu)/Gamma(1+nu-a) x^(nu-a), worst relative error on a fixed grid."""
    worst = 0.0
    # one node set per order; the worst is a max, so the loop order is free
    for alpha in (0.112, 0.3, 0.5, 0.9):
        t, w = rlquad.roots_jacobi(nodes, -alpha, 0.0)
        for nu in (0.0, 0.5, 1.0, 2.3):
            for x in (0.5, 1.0, 2.0):
                got = rlquad._quad_on_nodes(lambda s, nu=nu: s**nu, alpha, x, t, w, 0.0)
                want = gamma(1.0 + nu) / gamma(1.0 + nu - alpha) * x ** (nu - alpha)
                worst = max(worst, abs(got - want) / abs(want))
    details = {
        "grid": "nu in {0,0.5,1,2.3} x alpha in {0.112,0.3,0.5,0.9} x x in {0.5,1,2}",
        "nodes": nodes,
    }
    return CheckReport("quad-vs-power-rule", worst <= 1e-6, 1e-6, {"worst_rel_error": worst},
                       details)
