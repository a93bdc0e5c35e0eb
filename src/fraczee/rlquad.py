"""Independent numerics for the Riemann-Liouville derivative.

``rl_derivative_quad`` evaluates the defining integral form

    D^a f(x) = 1/Gamma(1-a) * d/dx  Int_0^x (x-s)^(-a) f(s) ds

directly: Gauss-Jacobi quadrature absorbs the endpoint singularity
``(x-s)^(-a)`` into the weight, and the outer derivative is a central
finite difference.  It never touches the closed-form power rule, so it
serves as a cross-check oracle for the symbolic engine rather than a
re-derivation of it.  ``f`` is called with Python floats, so its
arithmetic is Python's, not that of numpy scalars.

``leibniz_series`` is the truncated generalized product rule
``D^a (phi psi) = sum_k C(a, k) (D^k phi)(D^(a-k) psi)``, exact once the
polynomial factor phi has been differentiated to death.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .monomial import PolyExpr, rl_derive
from .specfun import frac_binomial, gamma

__all__ = ["DEFAULT_NODES", "rl_derivative_quad", "leibniz_series"]

#: Gauss-Jacobi node count of the quadrature cross-check
DEFAULT_NODES = 64

#: relative step for the outer central difference
_FD_REL_STEP = 1e-5


def roots_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the weight (1-t)^a (1+t)^b on [-1, 1].

    ``scipy.special`` is imported on the first call, so importing fraczee
    does not pay for it.  At a + b = -1 scipy evaluates a masked-out branch
    that divides by zero; the warning it raises says nothing about the nodes
    returned, so it is silenced.
    """
    from scipy.special import roots_jacobi as scipy_roots_jacobi

    with np.errstate(divide="ignore", invalid="ignore"):
        return scipy_roots_jacobi(n, a, b)


def rl_derivative_quad(
    f: Callable[[float], float],
    alpha: float,
    x: float,
    nodes: int = DEFAULT_NODES,
    left_exponent: float = 0.0,
) -> float:
    """Left Riemann-Liouville derivative of order ``alpha`` at ``x > 0``.

    Args:
        f: real function evaluable on a neighborhood of [0, x], called with
            Python floats; an exception it raises reaches the caller.
        alpha: derivative order, strictly inside (0, 1).
        x: evaluation point, > 0.
        nodes: Gauss-Jacobi node count for the weakly singular integral.
        left_exponent: known power behavior of ``f`` at the terminal
            (``f ~ s^left_exponent`` as s -> 0, must be > -1).  The factor
            is absorbed into the Jacobi weight, which keeps convergence
            fast when ``f`` itself is singular there (default 0: ``f``
            bounded at the terminal).

    Raises:
        ValueError: order outside (0, 1), nonpositive x, left_exponent
            <= -1, x so large that the quadrature nodes overflow, a
            subnormal x, where the finite-difference step underflows, or
            a non-finite sample of ``f`` or of the terminal factor
            ``s^-left_exponent``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"quadrature handles orders in (0, 1) only, got {alpha}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got {x}")
    if nodes < 1:
        raise ValueError("need at least one quadrature node")
    if not left_exponent > -1.0:
        raise ValueError("terminal behavior must be integrable (left_exponent > -1)")
    # at a subnormal x the step x * 1e-5 keeps only a few significant bits
    # (at x = 3e-319 the cross-check is 4.5% off) or is 0
    if x < sys.float_info.min:
        raise ValueError(f"the finite-difference step at the subnormal point x = {x!r} underflows")
    # the node map below forms xx * (t + 1) with t + 1 < 2
    if not np.isfinite(2.0 * (x + x * _FD_REL_STEP)):
        raise ValueError(f"quadrature nodes at x = {x!r} are not finite")
    t, w = roots_jacobi(nodes, -alpha, left_exponent)
    return _quad_on_nodes(f, alpha, x, t, w, left_exponent)


def _quad_on_nodes(f, alpha: float, x: float, t, w, left_exponent: float) -> float:
    """:func:`rl_derivative_quad` after its checks, on the Gauss-Jacobi nodes
    ``t`` and weights ``w`` of the weight (1-t)^(-alpha) (1+t)^left_exponent."""
    h = x * _FD_REL_STEP
    nonfinite = "non-finite sample of f inside the integration range"

    def weighted_integral(xx: float) -> float:
        # the map s = xx (t+1)/2 sends t = -1 to the terminal
        s = (xx * (t + 1.0) / 2.0).tolist()
        vals = [f(si) for si in s]
        if left_exponent:
            try:
                vals = [v * si**-left_exponent for v, si in zip(vals, s)]
            except (OverflowError, ZeroDivisionError):  # the factor leaves the float range
                raise ValueError(nonfinite) from None
        vals = np.fromiter(vals, dtype=float, count=len(s))
        if not np.all(np.isfinite(vals)):
            raise ValueError(nonfinite)
        return (xx / 2.0) ** (1.0 - alpha + left_exponent) * float(np.dot(w, vals))

    deriv = (weighted_integral(x + h) - weighted_integral(x - h)) / (2.0 * h)
    return deriv / gamma(1.0 - alpha)


def leibniz_series(
    phi: PolyExpr,
    psi: PolyExpr,
    axis: str,
    alpha: float,
    K: int,
) -> PolyExpr:
    """Partial sum to k = K of the generalized product rule on ``axis``.

    ``phi`` must carry nonnegative integer exponents on ``axis`` so its
    integer derivatives terminate; with K >= deg(phi) the sum equals the
    derivative of the full product.
    """
    if K < 1:
        raise ValueError("series order K must be >= 1")
    for t in phi.terms:
        e = t.exponent(axis)
        if e < 0.0 or abs(e - round(e)) > 1e-9:
            raise ValueError(
                f"phi must be polynomial on axis {axis!r}; found exponent {e}"
            )
    total = PolyExpr.zero()
    dphi = phi
    for k in range(0, K + 1):
        if k > 0:
            dphi = rl_derive(dphi, axis, 1.0)
        if dphi.is_zero():
            break
        dpsi = rl_derive(psi, axis, alpha - k)
        total = total + frac_binomial(alpha, k) * (dphi * dpsi)
    return total
