"""Reference values computed without fraczee.

Every check the benchmark makes compares a fraczee result with a value
from this module, which uses only the standard library and mpmath:
``math.lgamma`` ratios for the level formula, mpmath Gamma for the power
rule, and the standard ``csv`` module for the synthetic tables.
"""

from __future__ import annotations

import csv
import io
import math

import mpmath

#: parameter set behind the built-in table's theoretical column
REFERENCE = (0.112, -17171.6, 10971.8, 8064.6)
#: default fit on the built-in baryon selection (alpha, r.m.s. percent)
BUILTIN_FIT_ALPHA = 0.116004
BUILTIN_FIT_ALPHA_TOL = 1e-5
BUILTIN_FIT_RMS_PERCENT = 0.834

CSV_COLUMNS = ("name", "L", "M", "mass_mev", "status", "group")


def gamma_ratio(u: float, v: float) -> float:
    """Gamma(u) / Gamma(v) for u > 0 and v >= 0, with 1/Gamma(0) = 0."""
    if v == 0.0:
        return 0.0
    return math.exp(math.lgamma(u) - math.lgamma(v))


def casimirs(alpha: float, L: int, M: int) -> tuple[float, float]:
    """(L^2, Lz) eigenvalues of the level formula, plus branch."""
    m = abs(M)
    return (
        gamma_ratio(1.0 + (L + 1) * alpha, 1.0 + (L - 1) * alpha),
        gamma_ratio(1.0 + m * alpha, 1.0 + (m - 1) * alpha),
    )


def mass(p: tuple[float, float, float, float], L: int, M: int) -> tuple[float, float]:
    """Level energy and the magnitude scale its rounding error is relative to."""
    alpha, m0, a0, b0 = p
    c_l, c_m = casimirs(alpha, L, M)
    return m0 + a0 * c_l + b0 * c_m, abs(m0) + abs(a0 * c_l) + abs(b0 * c_m)


def mass_alpha_one(p: tuple[float, float, float, float], L: int, M: int) -> float:
    """The classical limit m0 + a0 L(L+1) + b0 |M|, exact at alpha = 1."""
    _, m0, a0, b0 = p
    return m0 + a0 * L * (L + 1) + b0 * abs(M)


def loss_rms_mev(p, rows) -> float:
    """r.m.s. residual in MeV over (L, M, mass) rows."""
    res = [mass(p, L, M)[0] - m for L, M, m in rows]
    return math.sqrt(math.fsum(r * r for r in res) / len(res))


def rms_percent(p, rows) -> float:
    """Relative r.m.s. error in percent over (L, M, mass) rows."""
    res = [100.0 * (mass(p, L, M)[0] - m) / m for L, M, m in rows]
    return math.sqrt(math.fsum(r * r for r in res) / len(res))


def close(got: float, want: float, rel: float, scale: float | None = None) -> bool:
    """|got - want| <= rel * scale, where scale defaults to |want|."""
    ref = abs(want) if scale is None else scale
    return math.isfinite(got) and abs(got - want) <= rel * max(ref, 1e-300)


def table_csv(rows) -> str:
    """CSV text in the ingestion format from (name, L, M, mass, status, group)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for name, L, M, m, status, group in rows:
        w.writerow([name, L, M, repr(float(m)), status, group])
    return buf.getvalue()


# ----------------------------------------------------------------------
# power rule
# ----------------------------------------------------------------------

mpmath.mp.dps = 30


def power_rule(terms, axis_index: int, order: float):
    """Riemann-Liouville derivative of sum c x^v termwise, in mpmath.

    ``terms`` is a list of (coeff, exps).  Returns {rounded exps: coeff}
    with the annihilated terms (1+v-order a pole of Gamma) dropped.
    """
    out: dict[tuple, float] = {}
    for c, exps in terms:
        v = exps[axis_index]
        arg = mpmath.mpf(1) + mpmath.mpf(v) - mpmath.mpf(order)
        if abs(arg - mpmath.nint(arg)) <= 1e-9 and mpmath.nint(arg) <= 0:
            continue
        coeff = mpmath.mpf(c) * mpmath.gamma(1 + mpmath.mpf(v)) * mpmath.rgamma(arg)
        new = list(exps)
        new[axis_index] = v - order
        key = tuple(round(e, 9) for e in new)
        out[key] = out.get(key, 0.0) + float(coeff)
    return out


def product(terms_a, terms_b):
    """Product of two term lists, merged on rounded exponents."""
    out: dict[tuple, float] = {}
    exps_of: dict[tuple, tuple] = {}
    for ca, ea in terms_a:
        for cb, eb in terms_b:
            e = tuple(x + y for x, y in zip(ea, eb))
            key = tuple(round(x, 9) for x in e)
            out[key] = out.get(key, 0.0) + ca * cb
            exps_of.setdefault(key, e)
    return [(c, exps_of[k]) for k, c in out.items()]


def evaluate(terms, point) -> tuple[float, float]:
    """Value of sum c prod x_i^e_i at a positive point, and sum of |terms|."""
    vals = []
    for c, exps in terms:
        v = c
        for x, e in zip(point, exps):
            if e != 0.0:
                v *= x**e
        vals.append(v)
    return math.fsum(vals), math.fsum(abs(v) for v in vals)


def same_terms(got, want, rel: float, tiny: float) -> bool:
    """Compare {rounded exps: coeff} maps.

    A term whose expected coefficient is below ``tiny`` in magnitude may
    be present or absent; every other term must agree within ``rel``.
    """
    for key, c in want.items():
        g = got.get(key)
        if g is None:
            if abs(c) > tiny:
                return False
        elif not close(g, c, rel, max(abs(c), tiny)):
            return False
    return all(key in want for key in got)
