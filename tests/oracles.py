"""Independent oracles used to freeze expected values.

The Gamma oracle is a Spouge-series evaluation at 40-digit working
precision, coded separately from the package's Lanczos implementation
(different series, different constants, arbitrary-precision arithmetic).
``oracle_load_records`` is the record loader as it stood before its hot
loop was rewritten: ``csv.DictReader`` rows, one conversion helper per
field and a separate duplicate-name pass.  ``oracle_apply_to`` and
``oracle_apply`` are operator application with a merge after every stage,
and ``oracle_rl_derivative_quad`` is the quadrature sampling numpy scalars,
both as they stood before the merge-free and float-sampling rewrites.
``oracle_casimir_L2`` and ``oracle_casimir_Lz`` are the scalar Casimirs as
one ``gamma``/``rgamma`` pair per value, as they stood before the Gamma
evaluations were shared; ``oracle_casimir_L2_array`` and
``oracle_casimir_Lz_array`` are the same pairs per array cell, through one
all-Gamma and one all-reciprocal pass of the array kernel
``specfun._kernel_array``.  ``oracle_kernel_array`` is the array
Gamma kernel as it stood before it evaluated each branch only where it
applies: every branch on every cell, then one ``np.where`` per branch.
``oracle_parse_expr`` is the expression parser as it stood before it read
one regex match per factor: a list of ``(text, offset, is_number)`` tokens
walked by ``sign()`` and ``number()`` closures.  ``OracleParticleRecord`` is
the record type as it stood before it checked its arguments ahead of one
store: the dataclass's generated ``__init__`` (six frozen stores), then
``__post_init__`` on the stored fields.  ``oracle_spectrum`` and
``oracle_levels`` are the level formula and the fit's level pass as they
stood before the pass stopped building a ``Multiplet`` per record.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from fraczee.dataset import GROUPS, DatasetError, ParticleRecord
from fraczee.monomial import AXES, ExprSyntaxError, PolyExpr, PowerTerm, rl_derive
from fraczee.operators import PhasedPoly
from fraczee.rlquad import _FD_REL_STEP, roots_jacobi
from fraczee.spectrum import Multiplet, _CasimirPlan
from fraczee.specfun import _FACTORIALS, _kernel_array, _lanczos, _sinpi_array, gamma, rgamma

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


@dataclass(frozen=True)
class OracleParticleRecord:
    name: str
    L: int
    M: int
    mass_mev: float
    status: str
    group: str

    def __post_init__(self):
        if not self.name:
            raise DatasetError("empty particle name")
        if type(self.L) is not int or type(self.M) is not int or type(self.mass_mev) is bool:
            raise DatasetError(f"{self.name}: L and M must be ints and the mass not a bool, "
                               f"got L={self.L!r}, M={self.M!r}, mass_mev={self.mass_mev!r}")
        if self.L < 0 or self.M < 0 or self.M > self.L:
            raise DatasetError(
                f"{self.name}: need 0 <= M <= L, got L={self.L}, M={self.M}"
            )
        if isinstance(self.mass_mev, int):
            try:
                float(self.mass_mev)
            except OverflowError:
                raise DatasetError(f"{self.name}: int mass_mev beyond the float range") from None
        if not self.mass_mev > 0.0:
            raise DatasetError(f"{self.name}: nonpositive mass {self.mass_mev}")
        if self.group not in GROUPS:
            raise DatasetError(f"{self.name}: unknown group {self.group!r}")


def _validate(records):
    out, seen = [], set()
    for r in records:
        if r.name in seen:
            raise DatasetError(f"duplicate particle name {r.name!r}")
        seen.add(r.name)
        out.append(r)
    return out


def _number(obj: dict, key: str, where: str, kind: type):
    value = obj[key]
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise DatasetError(f"{where}: {key} = {json.dumps(value)} is not "
                           f"{'an integer' if kind is int else 'a number'}")
    return kind(value)


def _record_from_mapping(obj: dict, where: str) -> ParticleRecord:
    try:
        return ParticleRecord(
            name=str(obj["name"]),
            L=_number(obj, "L", where, int),
            M=_number(obj, "M", where, int),
            mass_mev=_number(obj, "mass_mev", where, float),
            status=str(obj.get("status", "")),
            group=str(obj["group"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DatasetError):
            raise
        raise DatasetError(f"{where}: {exc}") from exc


def oracle_load_records(path) -> list[ParticleRecord]:
    """``fraczee.dataset.load_records`` before the rewrite.  Its errors name
    a CSV row by its count of non-blank rows, and an invariant violation or
    a duplicate name carries no location."""
    p = Path(path)
    text = p.read_text()
    if not text.strip():
        return []
    if p.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{p}: invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise DatasetError(f"{p}: expected a JSON array of records")
        rows = ((f"{p} entry {i}", obj) for i, obj in enumerate(data))
    else:
        reader = csv.DictReader(io.StringIO(text))
        columns = {"name", "L", "M", "mass_mev", "status", "group"}
        missing = columns - set(reader.fieldnames or ())
        if missing:
            raise DatasetError(f"{p}: missing CSV columns {sorted(missing)}")
        rows = ((f"{p} line {i}", row) for i, row in enumerate(reader, start=2))
    return _validate(_record_from_mapping(obj, where) for where, obj in rows)


def _times(g: PolyExpr, coeff: float, exps) -> PolyExpr:
    """``g * PolyExpr((PowerTerm(coeff, exps),))`` with the multiplier's
    coefficient kept even when it is at or below ``DROP_TOL``."""
    return PolyExpr.from_terms(
        PowerTerm(t.coeff * coeff, tuple(ea + eb for ea, eb in zip(t.exps, exps)))
        for t in g.terms
    )


def oracle_apply_to(op_term, f: PolyExpr) -> PolyExpr:
    """``OperatorTerm.apply_to`` with a merge after the inner multiplier,
    after each derivative order and after the prefactor."""
    g = f if not any(op_term.inner) else _times(f, 1.0, op_term.inner)
    for i, axis in enumerate(AXES):
        for q in op_term.orders[i]:
            g = PolyExpr.from_terms(rl_derive(g, axis, q).terms)
    return _times(g, op_term.coeff, op_term.pre)


def oracle_apply(op, f: PolyExpr) -> PhasedPoly:
    """``OperatorExpr.apply`` on :func:`oracle_apply_to`."""
    re = PolyExpr.zero()
    im = PolyExpr.zero()
    for t in op.terms:
        g = oracle_apply_to(t, f)
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


def oracle_rl_derivative_quad(f, alpha, x, nodes, left_exponent=0.0) -> float:
    """The quadrature of ``rl_derivative_quad`` with ``f`` and the terminal
    factor evaluated at the nodes' numpy scalars, for valid arguments."""
    h = x * _FD_REL_STEP
    t, w = roots_jacobi(nodes, -alpha, left_exponent)

    def weighted_integral(xx):
        s = xx * (t + 1.0) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.fromiter(
                (f(si) * si**-left_exponent if left_exponent else f(si) for si in s),
                dtype=float,
                count=nodes,
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite sample of f inside the integration range")
        return (xx / 2.0) ** (1.0 - alpha + left_exponent) * float(np.dot(w, vals))

    deriv = (weighted_integral(x + h) - weighted_integral(x - h)) / (2.0 * h)
    return deriv / gamma(1.0 - alpha)


def oracle_casimir_L2(alpha, L):
    return gamma(1.0 + (L + 1) * alpha) * rgamma(1.0 + (L - 1) * alpha)


def oracle_casimir_Lz(alpha, M, sign=+1):
    m = abs(M)
    return sign * gamma(1.0 + m * alpha) * rgamma(1.0 + (m - 1) * alpha)


def _gamma_pair_array(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Gamma(num) * 1/Gamma(den) per cell of two arrays of one shape."""
    g = _kernel_array(num.ravel(), np.zeros(num.size, dtype=bool))
    r = _kernel_array(den.ravel(), np.ones(den.size, dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"):
        return (g * r).reshape(num.shape)


def oracle_casimir_L2_array(alpha, L) -> np.ndarray:
    alpha, L = np.asarray(alpha, dtype=float), np.asarray(L, dtype=float)
    return _gamma_pair_array(1.0 + (L + 1) * alpha, 1.0 + (L - 1) * alpha)


def oracle_casimir_Lz_array(alpha, M) -> np.ndarray:
    alpha, m = np.asarray(alpha, dtype=float), np.abs(np.asarray(M, dtype=float))
    return _gamma_pair_array(1.0 + m * alpha, 1.0 + (m - 1) * alpha)


def oracle_kernel_array(x, reciprocal: bool) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        integer = x == np.floor(x)
        pole = integer & (x <= 0.0)
        factorial = integer & (x >= 1.0) & (x <= 171.0)
        exact = _FACTORIALS[np.where(factorial, x, 1.0).astype(np.intp) - 1]
        reflect = x < 0.5
        lanczos = _lanczos(np.where(reflect, 1.0 - x, x), np.exp)
        lanczos = np.where(np.isnan(lanczos), np.inf, lanczos)
        sinpi = _sinpi_array(x)
        if reciprocal:
            out = np.where(reflect, sinpi * lanczos / math.pi, 1.0 / lanczos)
            out = np.where(pole, 0.0, np.where(factorial, 1.0 / exact, out))
        else:
            out = np.where(reflect, math.pi / (sinpi * lanczos), lanczos)
            out = np.where(pole, np.nan, np.where(factorial, exact, out))
        return np.where(np.isfinite(x), out, np.nan)


#: the whitespace before one token, then the token: a number, or any
#: other single character
_ORACLE_TOKEN_RE = re.compile(r"(\s*)(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(\S))")
_ORACLE_AXIS_INDEX = {a: i for i, a in enumerate(AXES)}


def oracle_parse_expr(src: str) -> PolyExpr:
    """``parse_expr`` on a token list, the parser before one match per factor."""
    # (text, offset, is a number), closed by an empty end token
    toks = []
    at = 0
    for space, num, ch in _ORACLE_TOKEN_RE.findall(src):
        at += len(space)
        toks.append((num or ch, at, bool(num)))
        at += len(num or ch)
    if not toks:
        raise ExprSyntaxError("empty expression", 0)
    toks.append(("", len(src), False))
    i = 0

    def sign() -> float:
        """Consume a run of signs, maybe empty: -1.0 if it has an odd number of '-'."""
        nonlocal i
        s = 1.0
        while toks[i][0] in ("+", "-"):
            if toks[i][0] == "-":
                s = -s
            i += 1
        return s

    def number() -> float:
        nonlocal i
        text, at, is_number = toks[i]
        if not is_number:
            raise ExprSyntaxError("expected a number", at)
        value = float(text)
        if not math.isfinite(value):
            raise ExprSyntaxError(f"non-finite literal {text!r}", at)
        i += 1
        return value

    terms: list[PowerTerm] = []
    while True:
        s = sign()
        start = toks[i][1]
        coeff = 1.0
        exps = [0.0, 0.0, 0.0, 0.0]
        while True:
            text, at, is_number = toks[i]
            if text in _ORACLE_AXIS_INDEX:
                i += 1
                e = 1.0
                if toks[i][0] == "^":
                    i += 1
                    e = sign() * number()
                exps[_ORACLE_AXIS_INDEX[text]] += e
            elif is_number or text == "." or text.isdigit():
                # '.' or a digit that starts no number ('²'): "expected a number"
                coeff *= number()
            else:
                raise ExprSyntaxError("expected a factor", at)
            if toks[i][0] != "*":
                break
            i += 1
        if not (math.isfinite(coeff) and all(math.isfinite(e) for e in exps)):
            raise ExprSyntaxError("product with a non-finite coefficient or exponent", start)
        terms.append(PowerTerm(s * coeff, tuple(exps)))
        text, at, _ = toks[i]
        if not text:
            break
        if text not in ("+", "-"):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", at)
    expr = PolyExpr.from_terms(terms)
    if not all(math.isfinite(t.coeff) for t in expr.terms):
        raise ExprSyntaxError("like terms sum to a non-finite coefficient", 0)
    return expr


def oracle_spectrum(p, mults) -> list:
    """``spectrum.spectrum``: (multiplet, level) pairs, one Casimir plan per call."""
    mults = list(mults)
    ls = list(dict.fromkeys(m.L for m in mults))
    ms = list(dict.fromkeys(abs(m.M) for m in mults))
    c_l2, c_lz = _CasimirPlan(ls, ms).values(p.alpha)
    c_l2, c_lz = dict(zip(ls, c_l2)), dict(zip(ms, c_lz))
    out = []
    for m in mults:
        e = p.m0 + p.a0 * c_l2[m.L] + p.b0 * (m.sign * c_lz[abs(m.M)])
        if not math.isfinite(e):
            raise ValueError(f"the level of L={m.L}, M={m.M} is not finite at {p}")
        out.append((m, e))
    return out


def oracle_levels(p, records, band=()) -> tuple[list, list]:
    """``fitting._levels`` on :func:`oracle_spectrum`, with a ``Multiplet`` per record."""
    levels = oracle_spectrum(p, [Multiplet(r.L, r.M) for r in records] + list(band))
    rows = [
        (e, e - r.mass_mev, 100.0 * (e - r.mass_mev) / r.mass_mev)
        for r, (_, e) in zip(records, levels)
    ]
    return rows, levels[len(records):]
