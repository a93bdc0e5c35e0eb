"""Fractional operators acting on :class:`~fraczee.monomial.PolyExpr`.

An :class:`OperatorTerm` is the composite

    result = i^iphase * coeff * PRE * ( D_x^{qx...} D_y^{qy...} ... ( INNER * operand ) )

with power-product multipliers PRE (applied after the derivatives) and
INNER (applied before them), and a per-axis sequence of Riemann-Liouville
orders applied in the fixed axis order x, y, z, t.  Coefficients stay
real; factors of i are tracked as a phase exponent mod 4, and
applications return a :class:`PhasedPoly` split into real and imaginary
parts.

Operator builders use natural units (hbar = c = 1, default mass 1).  The
angular-momentum convention throughout is

    K_z(beta) = i (y D_x^beta - x D_y^beta)

whose beta = 1 case is the standard quantum-mechanical L_z; the deformed
commutator identities below hold exactly in this orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .monomial import (
    _AXIS_INDEX, AXES, DROP_TOL, PolyExpr, PowerTerm, _exps_tuple, rl_derive, term,
)
from .rlquad import DEFAULT_NODES, rl_derivative_quad
from .specfun import frac_binomial, gamma

__all__ = [
    "PhasedPoly",
    "OperatorTerm",
    "OperatorExpr",
    "GaugeField",
    "CheckReport",
    "op_term",
    "identity_op",
    "partial_op",
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

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs_coeff() <= tol


def _orders_tuple(orders: Mapping[str, float | Sequence[float]] | None):
    out: list[tuple[float, ...]] = [(), (), (), ()]
    for axis, q in (orders or {}).items():
        if axis not in _AXIS_INDEX:
            raise ValueError(f"unknown axis {axis!r}")
        if isinstance(q, (int, float)):
            seq = (float(q),)
        else:
            seq = tuple(float(v) for v in q)
        out[_AXIS_INDEX[axis]] = tuple(v for v in seq if v != 0.0)
    return tuple(out)


@dataclass(frozen=True)
class OperatorTerm:
    coeff: float
    iphase: int = 0
    pre: tuple[float, float, float, float] = _ZERO4
    inner: tuple[float, float, float, float] = _ZERO4
    orders: tuple[tuple[float, ...], ...] = ((), (), (), ())
    #: exponent of the (hbar / m c) unit prefactor, kept for rendering only
    hbar_mc_power: float = 0.0

    def apply_to(self, f: PolyExpr) -> PolyExpr:
        """Image of the operand before the i^iphase phase factor."""
        g = f if self.inner == _ZERO4 else f.mul_term(PowerTerm(1.0, self.inner))
        for i, axis in enumerate(AXES):
            for q in self.orders[i]:
                g = rl_derive(g, axis, q)
        return g.mul_term(PowerTerm(self.coeff, self.pre))

    def render(self) -> str:
        bits = []
        phase = {0: "", 1: "i", 2: "-", 3: "-i"}[self.iphase % 4]
        if phase:
            bits.append(phase if phase != "-" else "-1")
        bits.append("%.6g" % self.coeff)
        if self.hbar_mc_power:
            bits.append("(hbar/mc)^%.6g" % self.hbar_mc_power)
        pre = PolyExpr((PowerTerm(1.0, self.pre),)).render()
        if pre != "1":
            bits.append(pre)
        for i, axis in enumerate(AXES):
            for q in self.orders[i]:
                bits.append(f"D{axis}^%.6g" % q)
        inner = PolyExpr((PowerTerm(1.0, self.inner),)).render()
        if inner != "1":
            bits.append(f"[{inner}·]")
        return "*".join(b for b in bits if b)


def op_term(
    coeff: float,
    iphase: int = 0,
    pre: Mapping[str, float] | None = None,
    inner: Mapping[str, float] | None = None,
    orders: Mapping[str, float | Sequence[float]] | None = None,
    hbar_mc_power: float = 0.0,
) -> OperatorTerm:
    return OperatorTerm(
        float(coeff),
        iphase % 4,
        _exps_tuple(pre),
        _exps_tuple(inner),
        _orders_tuple(orders),
        hbar_mc_power,
    )


@dataclass(frozen=True)
class OperatorExpr:
    """Finite linear combination of operator terms; acts linearly."""

    terms: tuple[OperatorTerm, ...]

    @staticmethod
    def from_terms(terms: Iterable[OperatorTerm]) -> "OperatorExpr":
        return OperatorExpr(tuple(terms))

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr(())

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "OperatorExpr":
        return self.scaled(-1.0)

    def scaled(self, s: float, iphase_shift: int = 0) -> "OperatorExpr":
        return OperatorExpr(
            tuple(
                OperatorTerm(
                    t.coeff * s,
                    (t.iphase + iphase_shift) % 4,
                    t.pre,
                    t.inner,
                    t.orders,
                    t.hbar_mc_power,
                )
                for t in self.terms
            )
        )

    def apply(self, f: PolyExpr) -> PhasedPoly:
        re = PolyExpr.zero()
        im = PolyExpr.zero()
        for t in self.terms:
            g = t.apply_to(f)
            p = t.iphase % 4
            if p == 0:
                re = re + g
            elif p == 1:
                im = im + g
            elif p == 2:
                re = re - g
            else:
                im = im - g
        return PhasedPoly(re, im)

    def apply_phased(self, g: PhasedPoly) -> PhasedPoly:
        a = self.apply(g.re)
        b = self.apply(g.im)  # operand carries a factor i
        return PhasedPoly(a.re - b.im, a.im + b.re)

    def canonical(self, tol: float = DROP_TOL) -> "OperatorExpr":
        """Merge equal terms; fold phases 2, 3 into the sign; move inner
        multipliers past derivative-free axes into the prefactor."""
        normalized: dict[tuple, tuple[float, float]] = {}
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
            key = (p, tuple(pre), tuple(inner), t.orders)
            c0, _ = normalized.get(key, (0.0, 0.0))
            normalized[key] = (c0 + coeff, t.hbar_mc_power)
        kept = [
            OperatorTerm(c, p, pre, inner, orders, hmc)
            for (p, pre, inner, orders), (c, hmc) in sorted(normalized.items())
            if abs(c) > tol
        ]
        return OperatorExpr(tuple(kept))

    def is_zero(self, tol: float = DROP_TOL) -> bool:
        return not self.canonical(tol).terms

    def render(self) -> str:
        return " + ".join(t.render() for t in self.terms) if self.terms else "0"


def commutator(a: OperatorExpr, b: OperatorExpr, f: PolyExpr) -> PhasedPoly:
    """[a, b] applied to f, i.e. a(b f) - b(a f)."""
    return a.apply_phased(b.apply(f)) - b.apply_phased(a.apply(f))


# ----------------------------------------------------------------------
# named operators
# ----------------------------------------------------------------------


def identity_op() -> OperatorExpr:
    return OperatorExpr((op_term(1.0),))


def partial_op(axis: str, order: float, coeff: float = 1.0, iphase: int = 0) -> OperatorExpr:
    return OperatorExpr((op_term(coeff, iphase, orders={axis: order}),))


def build_H(alpha: float, m: float = 1.0) -> OperatorExpr:
    """Free Hamiltonian -1/(2 m^(2a-1)) * sum_i D_i^a D_i^a, spatial axes."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if m <= 0.0:
        raise ValueError("mass must be positive")
    c = -1.0 / (2.0 * m ** (2.0 * alpha - 1.0))
    return OperatorExpr(
        tuple(op_term(c, orders={axis: (alpha, alpha)}) for axis in ("x", "y", "z"))
    )


def _k_component(axes_pair: tuple[str, str], beta: float, m: float) -> OperatorExpr:
    # i (u D_v^beta - v D_u^beta) with (v, u) = axes_pair, e.g. Kz: (x, y)
    v, u = axes_pair
    c = m ** (1.0 - beta)
    return OperatorExpr(
        (
            op_term(c, 1, pre={u: 1.0}, orders={v: beta}, hbar_mc_power=beta),
            op_term(-c, 1, pre={v: 1.0}, orders={u: beta}, hbar_mc_power=beta),
        )
    )


def build_Kz(beta: float, m: float = 1.0) -> OperatorExpr:
    """Generalized angular momentum K_z(beta) = i (y D_x^beta - x D_y^beta)."""
    return _k_component(("x", "y"), beta, m)


def build_Kx(beta: float, m: float = 1.0) -> OperatorExpr:
    return _k_component(("y", "z"), beta, m)


def build_Ky(beta: float, m: float = 1.0) -> OperatorExpr:
    return _k_component(("z", "x"), beta, m)


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


def build_Jz(alpha: float, m: float = 1.0) -> OperatorExpr:
    """Total angular momentum J_z = K_z(2 alpha - 1); commutes with H^alpha."""
    return build_Kz(2.0 * alpha - 1.0, m)


def build_Jx(alpha: float, m: float = 1.0) -> OperatorExpr:
    return build_Kx(2.0 * alpha - 1.0, m)


def build_Jy(alpha: float, m: float = 1.0) -> OperatorExpr:
    return build_Ky(2.0 * alpha - 1.0, m)


def build_Sz(alpha: float, m: float = 1.0) -> OperatorExpr:
    """Intrinsic part S_z = J_z(alpha) - K_z(1); vanishes at alpha = 1."""
    return (build_Jz(alpha, m) - build_Kz(1.0, m)).canonical()


def build_p(axis: str, beta: float, m: float = 1.0) -> OperatorExpr:
    """Fractional translation generator p_axis(beta) = i D_axis^beta."""
    c = m ** (1.0 - beta)
    return OperatorExpr((op_term(c, 1, orders={axis: beta}, hbar_mc_power=beta),))


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
    if B == 0.0:
        return GaugeField((PolyExpr.zero(), PolyExpr.zero(), PolyExpr.zero()), alpha)
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


def check_constant_field(Bz: PolyExpr, alpha: float, tol: float = 1e-12) -> CheckReport:
    """Fractional constancy: D_x^a D_y^a Bz = D_y^a D_x^a Bz = D_z^a Bz = 0."""
    r = {
        "dx_dy": rl_derive(rl_derive(Bz, "y", alpha), "x", alpha).max_abs_coeff(),
        "dy_dx": rl_derive(rl_derive(Bz, "x", alpha), "y", alpha).max_abs_coeff(),
        "dz": rl_derive(Bz, "z", alpha).max_abs_coeff(),
    }
    return CheckReport("constant-field", all(v < tol for v in r.values()), tol, r)


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
        out.append(OperatorExpr.from_terms(terms))
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


def check_curl_coefficient(B: float, alpha: float, tol: float = 1e-12) -> CheckReport:
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
    return CheckReport("curl-coefficient", all(v < tol for v in r.values()), tol, r)


def _op_residual(a: OperatorExpr, b: OperatorExpr) -> float:
    diff = (a - b).canonical()
    return max((abs(t.coeff) for t in diff.terms), default=0.0)


def check_connection_reduction(
    B: float, alpha: float, K_max: int = 5, tol: float = 1e-12
) -> CheckReport:
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
    passed = all(abs(v) < tol for v in r.values())
    return CheckReport("connection-reduction", passed, tol, r)


def check_zeeman_reduction(
    B: float, alpha: float, f: PolyExpr, tol: float = 1e-10
) -> CheckReport:
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
    return CheckReport("zeeman-reduction", res < tol, tol, {"max_coeff": res})


def check_commutation(alpha: float, f: PolyExpr, tol: float = 1e-10) -> CheckReport:
    """[J_z(2a-1), H^a] f should vanish."""
    res = commutator(build_Jz(alpha), build_H(alpha), f).max_abs_coeff()
    return CheckReport("Jz-H-commutation", res < tol, tol, {"max_coeff": res})


def check_commutation_worst(
    alpha: float, fs: Sequence[PolyExpr], tol: float = 1e-10
) -> CheckReport:
    """:func:`check_commutation` over many operands; reports the worst."""
    worst = max(check_commutation(alpha, f, tol).residuals["max_coeff"] for f in fs)
    return CheckReport("Jz-H-commutation", worst < tol, tol, {"worst_max_coeff": worst},
                       {"alpha": alpha, "monomials": len(fs)})


def check_noncommutation(alpha: float, f: PolyExpr, tol: float = 1e-6) -> CheckReport:
    """[K_z(1), H^a] f must NOT vanish: passes when the residual exceeds tol.

    The classical L_z = K_z(1) commutes with H^1 only, so this check fails
    at alpha = 1.
    """
    res = commutator(build_Kz(1.0), build_H(alpha), f).max_abs_coeff()
    return CheckReport("Lz-H-noncommutation", res > tol, tol, {"max_coeff": res},
                       {"alpha": alpha, "pass_requires": "residual above tolerance"})


def check_kkk(alpha: float, beta: float, f: PolyExpr, tol: float = 1e-10) -> CheckReport:
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
    return CheckReport("kz-h-commutator", res < tol, tol, {"max_coeff": res})


def verify_J_algebra(alpha: float, f: PolyExpr, tol: float = 1e-10) -> CheckReport:
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
    return CheckReport("J-algebra", all(v < tol for v in r.values()), tol, r)


def check_Sz_vanishes(tol: float = 1e-12) -> CheckReport:
    """The internal spin S_z vanishes at alpha = 1 (no term survives)."""
    sz1 = build_Sz(1.0)
    return CheckReport("Sz-vanishes-at-alpha-1", sz1.is_zero(tol), tol,
                       {"terms": float(len(sz1.canonical().terms))})


def check_spin_decomposition(alpha: float, tol: float = 1e-12) -> CheckReport:
    """J_z(2a-1) = K_z(1) + S_z(a): orbital plus internal spin."""
    res = _op_residual(build_Kz(2 * alpha - 1) - build_Kz(1.0), build_Sz(alpha))
    return CheckReport("Jz-decomposition", res < tol, tol, {"max_coeff": res}, {"alpha": alpha})


def check_classical_Lz(tol: float = 1e-12) -> CheckReport:
    """K_z(1) equals the classical rotation generator L_z(1)."""
    res = _op_residual(build_Kz(1.0), build_Lz(1.0))
    return CheckReport("Kz1-is-classical-Lz", res < tol, tol, {"max_coeff": res})


def check_semigroup(
    f: PolyExpr, axis: str, orders: Sequence[float], tol: float = 1e-10
) -> CheckReport:
    """Composed single derivatives against the direct summed order."""
    g = f
    for q in orders:
        g = rl_derive(g, axis, q)
    direct = rl_derive(f, axis, math.fsum(orders))
    res = (g - direct).max_abs_coeff()
    return CheckReport("semigroup", res < tol, tol, {"max_coeff": res})


def check_quadrature(nodes: int = DEFAULT_NODES, tol: float = 1e-6) -> CheckReport:
    """Gauss-Jacobi quadrature of D^a s^nu against the power rule
    Gamma(1+nu)/Gamma(1+nu-a) x^(nu-a), worst relative error on a fixed grid."""
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.3):
        for alpha in (0.112, 0.3, 0.5, 0.9):
            for x in (0.5, 1.0, 2.0):
                got = rl_derivative_quad(lambda s, nu=nu: s**nu, alpha, x, nodes)
                want = gamma(1.0 + nu) / gamma(1.0 + nu - alpha) * x ** (nu - alpha)
                worst = max(worst, abs(got - want) / abs(want))
    details = {
        "grid": "nu in {0,0.5,1,2.3} x alpha in {0.112,0.3,0.5,0.9} x x in {0.5,1,2}",
        "nodes": nodes,
    }
    return CheckReport("quad-vs-power-rule", worst <= tol, tol, {"worst_rel_error": worst}, details)
