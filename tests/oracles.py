"""Independent oracles used to freeze expected values.

``spouge_gamma`` is a Spouge-series evaluation of Gamma at 40-digit working
precision, coded separately from the package's Lanczos implementation
(different series, different constants, arbitrary-precision arithmetic).
``classical_derivative`` is the ordinary first derivative of a power
expression, coded directly, and ``merge_key`` is the 1e-9 grid cell in
which ``PolyExpr`` merges exponent vectors.

No frozen copy of replaced code is kept here.  The bits of the rewritten
operator application, parser, record type and loader, quadrature sampling,
Casimir bodies and level pass are pinned instead by the golden corpus
(``tests/fixtures/golden.json``, whose slices are four corpora of
``scripts/same_numbers.py``) and by the fixture pins.
"""

from __future__ import annotations

import mpmath

from fraczee.monomial import AXES, PolyExpr, PowerTerm

mpmath.mp.dps = 40

_SPOUGE_TERMS = 30


def spouge_gamma(x) -> mpmath.mpf:
    """Gamma via the Spouge approximation with 30 terms at 40 digits."""
    x = mpmath.mpf(x)
    if x < mpmath.mpf("0.5"):
        return mpmath.pi / (mpmath.sinpi(x) * spouge_gamma(1 - x))
    a = _SPOUGE_TERMS
    z = x - 1
    s = mpmath.sqrt(2 * mpmath.pi)
    for k in range(1, a):
        c_k = (
            ((-1) ** (k - 1))
            / mpmath.factorial(k - 1)
            * (a - k) ** (k - mpmath.mpf(1) / 2)
            * mpmath.e ** (a - k)
        )
        s += c_k / (z + k)
    return (z + a) ** (z + mpmath.mpf(1) / 2) * mpmath.e ** (-(z + a)) * s


def classical_derivative(e: PolyExpr, axis: str) -> PolyExpr:
    """Ordinary first derivative of a power expression, coded directly."""
    i = AXES.index(axis)
    out = []
    for t in e.terms:
        v = t.exps[i]
        if v == 0.0:
            continue
        exps = list(t.exps)
        exps[i] = v - 1.0
        out.append(PowerTerm(t.coeff * v, tuple(exps)))
    return PolyExpr.from_terms(out)


def merge_key(exps) -> tuple:
    """The 1e-9 grid cell in which ``PolyExpr`` merges exponent vectors."""
    return tuple(round(e, 9) for e in exps)
