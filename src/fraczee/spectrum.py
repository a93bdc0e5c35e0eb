"""Casimir eigenvalues of the fractional rotation group and the level formula.

Multiplets are labeled |L M>.  The level spectrum is

    E = m0 + a0 * G(1+(L+1)a)/G(1+(L-1)a)  +/-  b0 * G(1+|M|a)/G(1+(|M|-1)a)

which at a = 1 collapses to the familiar m0 + a0 L(L+1) +/- b0 M.  The
plus branch is used for every row of the built-in table: it is the only
branch whose levels increase with M at fixed L, and at M = 0 it leaves a
nonzero zero-point contribution b0 / Gamma(1-a) for a < 1.

:func:`spectrum` is the one evaluator of the formula (:func:`mass`, the
fit's residuals and the CLI level tables call it); it evaluates each
distinct L and |M| Casimir once, as the fit's profile loss does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .specfun import gamma, gamma_array, rgamma, rgamma_array

__all__ = [
    "FitParams",
    "Multiplet",
    "REFERENCE_PARAMS",
    "casimir_L2",
    "casimir_Lz",
    "casimir_L2_array",
    "casimir_Lz_array",
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


def casimir_L2(alpha: float, L: int) -> float:
    """Eigenvalue of the squared angular momentum: G(1+(L+1)a)/G(1+(L-1)a)."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return gamma(1.0 + (L + 1) * alpha) * rgamma(1.0 + (L - 1) * alpha)


def casimir_Lz(alpha: float, M: int, sign: int = +1) -> float:
    """Signed z-projection eigenvalue: +/- G(1+|M|a)/G(1+(|M|-1)a).

    At alpha = 1 this is +/-|M| (zero for M = 0); for alpha < 1 the M = 0
    value 1/Gamma(1-alpha) does not vanish.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    m = abs(M)
    return sign * gamma(1.0 + m * alpha) * rgamma(1.0 + (m - 1) * alpha)


def casimir_L2_array(alpha, L) -> np.ndarray:
    """:func:`casimir_L2` broadcast over arrays of alpha and L >= 0; ``inf`` or
    ``nan`` where a Gamma overflows."""
    alpha, L = np.asarray(alpha, dtype=float), np.asarray(L, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return gamma_array(1.0 + (L + 1) * alpha) * rgamma_array(1.0 + (L - 1) * alpha)


def casimir_Lz_array(alpha, M) -> np.ndarray:
    """Plus-branch :func:`casimir_Lz` broadcast over arrays of alpha and M; ``inf``
    or ``nan`` where a Gamma overflows."""
    alpha, m = np.asarray(alpha, dtype=float), np.abs(np.asarray(M, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        return gamma_array(1.0 + m * alpha) * rgamma_array(1.0 + (m - 1) * alpha)


def _casimir_columns(alpha: float, rows: Sequence) -> tuple[list[float], list[float]]:
    """:func:`casimir_L2` and plus-branch :func:`casimir_Lz` for every row (any
    object with ``L`` and ``M``), evaluating each distinct L and |M| once."""
    c_l2 = {L: casimir_L2(alpha, L) for L in dict.fromkeys(r.L for r in rows)}
    c_lz = {m: casimir_Lz(alpha, m) for m in dict.fromkeys(abs(r.M) for r in rows)}
    return [c_l2[r.L] for r in rows], [c_lz[abs(r.M)] for r in rows]


def mass(p: FitParams, mult: Multiplet) -> float:
    """Level energy in MeV for one multiplet."""
    return spectrum(p, [mult])[0][1]


def spectrum(p: FitParams, mults: Iterable[Multiplet]) -> list[tuple[Multiplet, float]]:
    """Masses for a list of multiplets, preserving input order; ``ValueError``
    where a level is not finite (the parameters or a Casimir overflow)."""
    mults = list(mults)
    c_l2, c_lz = _casimir_columns(p.alpha, mults)
    out = []
    for m, l2, lz in zip(mults, c_l2, c_lz):
        e = p.m0 + p.a0 * l2 + p.b0 * (m.sign * lz)
        if not math.isfinite(e):
            raise ValueError(f"the level of L={m.L}, M={m.M} is not finite at {p}")
        out.append((m, e))
    return out
