"""Casimir eigenvalues of the fractional rotation group and the level formula.

Multiplets are labeled |L M>.  The level spectrum is

    E = m0 + a0 * G(1+(L+1)a)/G(1+(L-1)a)  +/-  b0 * G(1+|M|a)/G(1+(|M|-1)a)

which at a = 1 collapses to the familiar m0 + a0 L(L+1) +/- b0 M.  The
plus branch is used for every row of the built-in table: it is the only
branch whose levels increase with M at fixed L, and at M = 0 it leaves a
nonzero zero-point contribution b0 / Gamma(1-a) for a < 1.

Every Gamma argument in it is 1 + k*a for an integer k, and a numerator
argument of one Casimir is often a denominator argument of another (the
L = 3 denominator 1 + 2a is the |M| = 2 numerator).  :class:`_CasimirPlan`
is the one Casimir kernel.  It plans a list of L and |M| once: each
distinct L and |M|, which lay out its one Casimir vector [C_L2...,
C_Lz...], and the distinct numerator k and denominator k, all in order of
first appearance.  It holds index structure only, never a Gamma value.
Its scalar body :meth:`~_CasimirPlan.values` runs ``gamma`` at every
numerator and takes ``1.0 / gamma`` wherever a denominator is one of them,
with the bits and the exceptions of ``rgamma`` (12 evaluations on the
fit's default selection, k = -1..10, where one ``gamma``/``rgamma`` pair
per Casimir takes 32).  Its array body :meth:`~_CasimirPlan.array` makes
one pass of the array Gamma kernel ``specfun._kernel_array``, which
returns Gamma on the numerator cells and 1/Gamma on the denominator cells
that reuse none, and gives ``inf`` or ``nan`` where a Gamma overflows.
The fit's ``_Problem`` plans once and evaluates its Brent refine through
the scalar body and its alpha scan through the array body.
:func:`_energies`, :func:`casimir_L2` and :func:`casimir_Lz` plan, then
call the scalar body.
:func:`_energies` is the one body of the formula, over (L, M, sign) keys:
:func:`spectrum` (behind :func:`mass`, ``predict`` and the CLI level
tables) and the fit's residuals (``fitting._levels``, behind the loss, the
objective and ``report``) call it, so no :class:`Multiplet` is built for a
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .specfun import _kernel_array, gamma, rgamma

__all__ = [
    "FitParams",
    "Multiplet",
    "REFERENCE_PARAMS",
    "casimir_L2",
    "casimir_Lz",
    "mass",
    "spectrum",
]


@dataclass(frozen=True)
class FitParams:
    """Level-formula parameters; m0, a0, b0 in MeV."""

    alpha: float
    m0: float
    a0: float
    b0: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        for name in ("alpha", "m0", "a0", "b0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite parameter {name}")

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.m0, self.a0, self.b0)


#: parameter set that generated the theoretical column of the built-in table
REFERENCE_PARAMS = FitParams(alpha=0.112, m0=-17171.6, a0=10971.8, b0=8064.6)


@dataclass(frozen=True)
class Multiplet:
    L: int
    M: int
    sign: int = +1

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if abs(self.M) > self.L:
            raise ValueError(f"|M| <= L required, got L={self.L}, M={self.M}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")


class _CasimirPlan:
    """The Gamma arguments 1 + k*alpha of the Casimirs at the L of ``ls`` and the
    |M| of ``ms``, planned once for any number of alphas.

    ``ls`` and ``ms`` keep each distinct L and |M|, ``num`` the distinct
    numerator k (L + 1 and |M|) and ``den`` the distinct denominator k (L - 1
    and |M| - 1), each in order of first appearance.  Both bodies return the
    one Casimir vector [C_L2 at ls..., C_Lz at ms...]: C_L2 at L pairs the
    numerator L + 1 with the denominator L - 1, and C_Lz at |M| pairs |M|
    with |M| - 1.  It is index structure only and holds no Gamma value.
    """

    __slots__ = ("ls", "ms", "num", "den")

    def __init__(self, ls, ms):
        self.ls, self.ms = tuple(dict.fromkeys(ls)), tuple(dict.fromkeys(ms))
        self.num = dict.fromkeys([*(L + 1 for L in self.ls), *self.ms])
        self.den = dict.fromkeys([*(L - 1 for L in self.ls), *(m - 1 for m in self.ms)])

    def values(self, alpha: float) -> list[float]:
        """The Casimir vector [C_L2 at ls..., C_Lz at ms...] at one alpha, with
        the bits and exceptions of ``gamma(num) * rgamma(den)`` per value.

        ``gamma`` runs once at each numerator argument.  A denominator argument
        that is one of them and is at least 0.5 takes ``1.0 / gamma``: there
        ``rgamma`` is that same reciprocal of the Lanczos series or factorial,
        so it overflows, or gives 0.0 after an ``inf``, exactly where ``gamma``
        does.  Every other denominator (k = -1, reflection, the pole at
        alpha = 1) calls ``rgamma``.  Both are looked up as this module's
        globals at each call.
        """
        g = {k: gamma(1.0 + k * alpha) for k in self.num}
        r = {}
        for k in self.den:
            x = 1.0 + k * alpha
            r[k] = 1.0 / g[k] if k in g and x >= 0.5 else rgamma(x)
        return [g[L + 1] * r[L - 1] for L in self.ls] + [g[m] * r[m - 1] for m in self.ms]

    def array(self, alpha) -> np.ndarray:
        """:meth:`values` at every alpha of an array, of shape ``alpha.shape +
        (len(ls) + len(ms),)``, with the bits of the array kernel's Gamma(num)
        times its 1/Gamma(den), and ``inf`` or ``nan`` where a Gamma overflows.
        One kernel pass gives Gamma at the numerator cells and 1/Gamma at the
        denominator cells that reuse none."""
        at_num = {k: i for i, k in enumerate(self.num)}
        at_den = {k: i for i, k in enumerate(self.den)}
        a = np.asarray(alpha, dtype=float)[..., None]
        num = np.array(list(self.num), dtype=float)
        den = np.array(list(self.den), dtype=float)
        slot = np.array([at_num.get(k, -1) for k in self.den], dtype=np.intp)
        i = np.array([*(at_num[L + 1] for L in self.ls), *(at_num[m] for m in self.ms)], np.intp)
        j = np.array([*(at_den[L - 1] for L in self.ls), *(at_den[m - 1] for m in self.ms)], np.intp)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g, x = 1.0 + num * a, 1.0 + den * a
            # the denominator cells that reuse no numerator cell
            fresh = ~((slot >= 0) & (x >= 0.5))
            cells = np.concatenate([g.reshape(-1), x[fresh]])
            out = _kernel_array(cells, np.arange(cells.size) >= g.size)
            g = out[: g.size].reshape(g.shape)
            r = 1.0 / g[..., slot]
            r[fresh] = out[g.size:]
            return g[..., i] * r[..., j]


def casimir_L2(alpha: float, L: int) -> float:
    """Eigenvalue of the squared angular momentum: G(1+(L+1)a)/G(1+(L-1)a)."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return _CasimirPlan([L], ()).values(alpha)[0]


def casimir_Lz(alpha: float, M: int, sign: int = +1) -> float:
    """Signed z-projection eigenvalue: +/- G(1+|M|a)/G(1+(|M|-1)a).

    At alpha = 1 this is +/-|M| (zero for M = 0); for alpha < 1 the M = 0
    value 1/Gamma(1-alpha) does not vanish.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign * _CasimirPlan((), [abs(M)]).values(alpha)[0]


def mass(p: FitParams, mult: Multiplet) -> float:
    """Level energy in MeV for one multiplet."""
    return spectrum(p, [mult])[0][1]


def _energies(p: FitParams, keys: list[tuple[int, int, int]]) -> list[float]:
    """The level of each (L, M, sign) key, in order: one plan, one Casimir
    evaluation and one pass; ``ValueError`` at the first key whose level is
    not finite (the parameters or a Casimir overflow)."""
    plan = _CasimirPlan([L for L, _, _ in keys], [abs(M) for _, M, _ in keys])
    c = plan.values(p.alpha)
    c_l2, c_lz = dict(zip(plan.ls, c)), dict(zip(plan.ms, c[len(plan.ls):]))
    m0, a0, b0 = p.m0, p.a0, p.b0
    out = []
    for L, M, sign in keys:
        e = m0 + a0 * c_l2[L] + b0 * (sign * c_lz[abs(M)])
        if not math.isfinite(e):
            raise ValueError(f"the level of L={L}, M={M} is not finite at {p}")
        out.append(e)
    return out


def spectrum(p: FitParams, mults: Iterable[Multiplet]) -> list[tuple[Multiplet, float]]:
    """Masses for a list of multiplets, preserving input order; ``ValueError``
    where a level is not finite (the parameters or a Casimir overflow)."""
    mults = list(mults)
    return list(zip(mults, _energies(p, [(m.L, m.M, m.sign) for m in mults])))
