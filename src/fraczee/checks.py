"""The identity-check registry behind ``fraczee verify`` and the acceptance gate.

Each identity is implemented once, as a ``check_*`` function in
:mod:`fraczee.operators`.  :data:`SUITES` is the ordered table of the
``verify`` suites: each entry takes ``(seed, nodes)`` and returns the
reports of its checks over fixed grids.  ``seed`` draws the monomials of
the ``commutators`` suite, ``nodes`` sets the quadrature of ``quad``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .monomial import PolyExpr, term
from .operators import (
    CheckReport,
    check_classical_Lz,
    check_commutation_worst,
    check_connection_reduction,
    check_constant_field,
    check_curl_coefficient,
    check_kkk,
    check_noncommutation,
    check_quadrature,
    check_spin_decomposition,
    check_Sz_vanishes,
    check_zeeman_reduction,
    curl_frac,
    gauge_field_A,
    verify_J_algebra,
)

__all__ = ["SUITES"]

#: alphas of the commutator and spin-algebra suites
_VERIFY_ALPHAS = (0.3, 0.5, 0.75, 0.9)
#: alphas of the gauge-field suites
_FIELD_ALPHAS = (0.112, 0.5, 0.9)
#: the fixed operand x^3 y^3 z^3 of every single-operand check
_F0 = PolyExpr.from_terms([term(1.0, x=3, y=3, z=3)])


def _random_monomials(seed: int) -> list[PolyExpr]:
    """50 monomials x^a y^b z^c with exponents drawn uniformly from 2..6."""
    rng = np.random.default_rng(seed)
    return [
        PolyExpr.from_terms([term(1.0, x=int(a), y=int(b), z=int(c))])
        for a, b, c in rng.integers(2, 7, size=(50, 3))
    ]


def _zeeman_field(seed: int, nodes: int) -> list[CheckReport]:
    reports = []
    for a in _FIELD_ALPHAS:
        reports.append(check_curl_coefficient(1.0, a))
        reports.append(check_constant_field(curl_frac(gauge_field_A(1.0, a))[2], a))
    return reports


def _connection(seed: int, nodes: int) -> list[CheckReport]:
    reports = []
    for a in _FIELD_ALPHAS:
        reports.append(check_connection_reduction(1.0, a, K_max=5))
        reports.append(check_zeeman_reduction(1.7, a, _F0))
    return reports


def _commutators(seed: int, nodes: int) -> list[CheckReport]:
    monos = _random_monomials(seed)
    return (
        [check_commutation_worst(a, monos) for a in _VERIFY_ALPHAS]
        + [check_noncommutation(a, _F0) for a in _VERIFY_ALPHAS]
        + [check_kkk(a, b, _F0) for a in _VERIFY_ALPHAS for b in (0.3, 1.0, 2 * a - 1)]
    )


def _spin_algebra(seed: int, nodes: int) -> list[CheckReport]:
    return (
        [verify_J_algebra(a, _F0) for a in _VERIFY_ALPHAS]
        + [check_Sz_vanishes()]
        + [check_spin_decomposition(a) for a in _VERIFY_ALPHAS]
        + [check_classical_Lz()]
    )


#: the ``verify`` suites in report order
SUITES: dict[str, Callable[[int, int], list[CheckReport]]] = {
    "quad": lambda seed, nodes: [check_quadrature(nodes)],
    "zeeman-field": _zeeman_field,
    "connection": _connection,
    "commutators": _commutators,
    "spin-algebra": _spin_algebra,
}
