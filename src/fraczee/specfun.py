"""Gamma-function kernels shared by every other module.

All power-rule coefficients, fractional binomials and Casimir eigenvalues
downstream are assembled from ``gamma`` and ``rgamma``.  The reciprocal
``rgamma`` is total: it returns exactly ``0.0`` at the poles of Gamma,
which is what turns identities that hinge on ``1/Gamma(0) = 0`` into
exact cancellations instead of roundoff-sized residues.

``_kernel_array`` is the same kernel over a 1-d float array, for the one
caller that evaluates many arguments at once: the Casimir plan's array body
(``spectrum._CasimirPlan.array``, behind the fit's alpha scan).  A per-cell
reciprocal mask makes one pass return Gamma on some cells and 1/Gamma on
the others.  It never raises: overflow gives ``inf``.  It evaluates each
branch only where it applies: the Lanczos series on every cell, then the
reflection (with its ``sin(pi x)``), the factorial table, the poles and the
non-finite arguments on the cells of their masks.

One Lanczos series and one factorial table serve both kernels.  The kernels
stay two: numpy's ``pow``/``exp`` differ from libm's by an ulp on about 5%
of arguments, so either serving the other would move printed numbers, and
the scalar path converts its argument to a Python float on entry, so that
a numpy scalar raises ``OverflowError`` where it would only warn.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GammaPoleError", "gamma", "rgamma", "frac_binomial"]

# Lanczos approximation, g = 7 with 9 coefficients.  Worst relative error
# against a 30-digit oracle is ~2e-14 on (0, 50].  Integer arguments short-
# circuit to the exact factorial so classical-limit identities cancel exactly.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


#: Gamma(n) = (n-1)! as a float at index n - 1, for the n = 1..171 with a finite Gamma
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(171)])


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


#: the Lanczos prefactor, computed once
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (no large-angle error)."""
    r = math.fmod(x, 2.0)  # every caller's x < 0.5, so r lies in (-2, 0.5)
    if r < -1.0:
        r += 2.0
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def _lanczos(x, exp):
    """Gamma(x >= 0.5) of a float with ``math.exp`` or of an array with ``np.exp``.
    Where Gamma overflows a float raises ``OverflowError``; an array gives the
    ``inf`` of ``t ** (z + 0.5)``, or ``nan`` where it meets an underflowed ``exp(-t)``."""
    z = x - 1.0
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS_COEFFS
    s = c0
    s += c1 / (z + 1.0)
    s += c2 / (z + 2.0)
    s += c3 / (z + 3.0)
    s += c4 / (z + 4.0)
    s += c5 / (z + 5.0)
    s += c6 / (z + 6.0)
    s += c7 / (z + 7.0)
    s += c8 / (z + 8.0)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * exp(-t) * s


def gamma(x: float) -> float:
    """Euler Gamma function for real arguments.

    Uses the Lanczos approximation for x >= 0.5 and the reflection
    formula Gamma(x) = pi / (sin(pi x) Gamma(1-x)) below.

    Raises:
        GammaPoleError: at the poles x = 0, -1, -2, ...
        ValueError: for non-finite x.
        OverflowError: where ``t ** (z + 0.5)`` in the series overflows
            before ``exp(-t)`` scales it down: every x above about 142.37
            except the integers up to 171 (so also every x above 171.6,
            where Gamma itself overflows), and every non-integer x below
            about -141.37, through the reflection.  From about 142.22 to
            142.37 it returns ``inf`` where Gamma is about 1e245, and from
            about -141.22 to -141.37 it returns 0.0.  The golden corpus pins
            these cases; ROADMAP item 1's overflow fallback will narrow the
            raising range to where Gamma itself leaves the float range.
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma requires a finite argument, got {x!r}")
    if type(x) is not float:
        x = float(x)
    if x == math.floor(x):
        if x <= 0.0:
            raise GammaPoleError(f"gamma pole at x = {x!r}")
        if x <= 171.0:
            return _FACTORIALS.item(int(x) - 1)
    if x < 0.5:
        return math.pi / (_sinpi(x) * _lanczos(1.0 - x, math.exp))
    return _lanczos(x, math.exp)


def rgamma(x: float) -> float:
    """Reciprocal Gamma, entire in x.

    Returns exactly 0.0 at non-positive integers and 1/gamma(x)
    everywhere else that the Lanczos series stays in the float range.

    Raises:
        ValueError: for non-finite x.
        OverflowError: where ``t ** (z + 0.5)`` in the series overflows
            before ``exp(-t)`` scales it down: every x above about 142.37
            except the integers up to 171 (so also every x above 171.6,
            where 1/Gamma is subnormal or 0.0), and every non-integer x
            below about -141.37, through the reflection.  From about 142.22
            to 142.37 it returns 0.0 where 1/Gamma is about 1e-244.  The
            golden corpus pins these cases; ROADMAP item 1's overflow
            fallback will narrow the raising range to where |1/Gamma|
            itself leaves the float range.
    """
    if not math.isfinite(x):
        raise ValueError(f"rgamma requires a finite argument, got {x!r}")
    if type(x) is not float:
        x = float(x)
    if x == math.floor(x):
        if x <= 0.0:
            return 0.0
        if x <= 171.0:
            return 1.0 / _FACTORIALS.item(int(x) - 1)
    if x >= 0.5:
        return 1.0 / _lanczos(x, math.exp)
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    return _sinpi(x) * _lanczos(1.0 - x, math.exp) / math.pi


def _sinpi_array(x: np.ndarray) -> np.ndarray:
    r = np.fmod(x, 2.0)  # the reflected cells' x < 0.5, so r lies in (-2, 0.5)
    r = np.where(r < -1.0, r + 2.0, r)
    r = np.where(r > 0.5, 1.0 - r, np.where(r < -0.5, -1.0 - r, r))
    return np.sin(np.pi * r)


def _kernel_array(x: np.ndarray, reciprocal: np.ndarray) -> np.ndarray:
    """Gamma at each cell of the 1-d float array ``x``, and 1/Gamma instead on
    the cells where the bool array ``reciprocal`` is true: ``inf`` where Gamma
    or 1/Gamma overflows, ``nan`` at the poles of Gamma and at non-finite
    input, exactly ``0.0`` at the poles of 1/Gamma.  One pass serves a mixed
    batch, such as the numerators and the denominators of the Casimir scan."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # every cell takes the Lanczos value, then the cells of each other
        # branch are overwritten through their mask
        reflect = x < 0.5
        lanczos = _lanczos(np.where(reflect, 1.0 - x, x), np.exp)
        # t ** (z + 0.5) overflowed: inf, or nan against an underflowed exp(-t)
        lanczos[~np.isfinite(lanczos)] = np.inf
        out = np.where(reciprocal, 1.0 / lanczos, lanczos)
        sinpi, series = _sinpi_array(x[reflect]), lanczos[reflect]
        # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
        out[reflect] = np.where(
            reciprocal[reflect], sinpi * series / math.pi, math.pi / (sinpi * series)
        )
        integer = x == np.floor(x)
        factorial = integer & (x >= 1.0) & (x <= 171.0)
        exact = _FACTORIALS[x[factorial].astype(np.intp) - 1]
        out[factorial] = np.where(reciprocal[factorial], 1.0 / exact, exact)
        pole = integer & (x <= 0.0)
        out[pole] = np.where(reciprocal[pole], 0.0, np.nan)
        out[~np.isfinite(x)] = np.nan
        return out


def frac_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient Gamma(1+a) / (Gamma(1+k) Gamma(1+a-k)).

    Poles of the denominator Gammas are absorbed by ``rgamma``, so for
    integer alpha >= 0 and k > alpha the result is exactly 0.0.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if k == 0:
        return 1.0
    return gamma(1.0 + alpha) * rgamma(1.0 + k) * rgamma(1.0 + alpha - k)
