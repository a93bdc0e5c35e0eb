"""Four-parameter fit of the level formula to particle records.

The reported figure of merit is the relative r.m.s. error in percent
(:func:`objective`).  The minimized loss, however, is the r.m.s. residual
in MeV: on this dataset the two have global minima in very different
places, and only the MeV loss recovers the reference parameter region
(alpha near 0.112); the percent objective drifts along an extremely flat
valley to alpha near 0.13-0.14 while degrading the absolute residuals.

The default record selection is the baryon band L = 3..9 without the two
lightweight outlier rows (Sigma0 and Xi0, whose level spacing no
four-parameter set can reproduce); the published 0.84% r.m.s. figure is
recovered on exactly this selection.  Every ingredient of the selection
is configurable.

The model is linear in (m0, a0, b0) at fixed alpha, so the fit is a
variable projection in alpha alone (Golub & Pereyra, SIAM J. Numer. Anal.
10 (1973) 413): the profile loss, with the linear part solved by least
squares, is scanned on a 199-point alpha grid over [0.01, 1], and its
lowest ``starts`` local minima are refined by bounded Brent between the
neighbouring grid points (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 5; :func:`minimize_scalar` follows scipy's
``method="bounded"`` operation for operation, so it returns the same
bits).  The records' (L, |M|) sets are fixed for the whole fit, so the
fit plans their Casimir arguments once (the Casimir plan of the
:mod:`fraczee.spectrum` docstring) and both stages evaluate that plan.
The scan is one batched evaluation: the plan's array body gives the
Casimirs at all grid alphas in one array-kernel pass, one take spreads
both Casimir columns over the records, modified Gram-Schmidt on the two
columns, centered together (which projects out the constant column),
gives the 199 least-squares residuals without a QR factorization, and one
numpy pass finds the local minima in the order they are refined.  The
refine and the returned (m0, a0, b0) use the plan's scalar body, the one
behind ``spectrum._energies``, and a minimum-norm least-squares solve on
the records' design matrix [1, C_L2, C_Lz], taken from the vector
[1, C_L2..., C_Lz...] in one indexing step, so the fitted parameters do
not depend on the array kernel's roundoff.  The solve calls numpy's ``lstsq`` gufunc (LAPACK's
gelsd) directly, with the arguments and error state that numpy's
wrapper gives it for ``lstsq(A, e, rcond=None)``, so it returns the same
bits without the wrapper's per-call conversions.  The refine loop and the
final solve run under one entry of that error state (``_SOLVE_STATE``),
so a refine step pays for its Gamma calls and gelsd.
The gufunc is a private numpy name, which
``tests/test_fitting.py::test_lstsq_gufunc_signature_exists`` guards.
An alpha where a Casimir overflows gets an infinite loss.
No random numbers are drawn; results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.linalg import LinAlgError
# the gufunc behind numpy's lstsq wrapper (a private name, see _Problem._solve)
from numpy.linalg._umath_linalg import lstsq as _gelsd

from .dataset import ParticleRecord
# ``mass`` is unused here, but the benchmark's tracer wraps ``fraczee.fitting.mass``
# by attribute name, so the name stays.
from .spectrum import FitParams, Multiplet, _CasimirPlan, _energies, mass, spectrum  # noqa: F401

minimize = None  # the Nelder-Mead fit is gone, but perfbench/layers.py still wraps this name

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_EXCLUDE",
    "FitConfig",
    "FitError",
    "PerParticle",
    "FitResult",
    "select_records",
    "objective",
    "loss_rms_mev",
    "fit",
    "predict",
]

DEFAULT_SEED = 1729
#: outlier rows excluded from the default fit selection
DEFAULT_EXCLUDE = ("Sigma0", "Xi0")

#: alpha grid of the profile-loss scan
_ALPHA_GRID = np.linspace(0.01, 1.0, 199)
#: relative pivot below which a scan row is solved by lstsq instead; the pivots
#: are the scan's Gram-Schmidt norms [sqrt(rows), |C_L2'|, |C_Lz''|], which are
#: |diag R| of a QR of the design matrix: well above lstsq's own cut-off
#: (eps * rows, ~1e-14) and well below the smallest pivot of a full-rank table
#: (~3e-4 on the built-in selection at alpha = 0.01)
_RANK_RTOL = 1e-10


class FitError(RuntimeError):
    pass


def _svd_failed(err, flag):
    # the handler that numpy's lstsq wrapper sets for the gufunc's "invalid" flag
    raise LinAlgError("SVD did not converge in Linear Least Squares")


#: the error state that numpy's lstsq wrapper gives the gufunc, as
#: ``np.errstate`` arguments (an ``errstate`` object cannot be entered twice):
#: an SVD that does not converge raises through :func:`_svd_failed`
_SOLVE_STATE = dict(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore")


@dataclass(frozen=True)
class BoundedMin:
    x: float
    fun: float
    nfev: int
    success: bool


def minimize_scalar(
    func: Callable[[float], float], lo: float, hi: float, xatol: float, maxiter: int
) -> BoundedMin:
    """Brent's bounded minimiser of ``func`` on [lo, hi] (Brent 1973, ch. 5).

    A statement-for-statement port of scipy 1.17's ``_minimize_scalar_bounded``
    (same constants, tests and operation order), so it evaluates ``func`` at the
    same points and returns the same bits.  ``success`` is false when
    ``maxiter`` evaluations were used up or the minimum is NaN.
    """
    # xf is the best point so far, nfc the second best and fulc the one before
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    flag = 0

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # try a parabola through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = ((xm - xf) > 0) - ((xm - xf) < 0) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        # sign(rat), with a zero step taken upwards
        si = (rat > 0) - (rat < 0) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            flag = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    return BoundedMin(x=xf, fun=fx, nfev=num, success=flag == 0)


@dataclass(frozen=True)
class FitConfig:
    """Record selection and fit budget: ``starts`` scan minima are refined within
    ``max_evals`` profile-loss evaluations, scan included."""

    include_groups: tuple[str, ...] = ("baryon",)
    l_range: tuple[int, int] | None = (3, 9)
    exclude_names: tuple[str, ...] = DEFAULT_EXCLUDE
    starts: int = 32
    max_evals: int = 2500

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


@dataclass(frozen=True, init=False)
class PerParticle:
    """One fitted record, stored in one step; ``==``, ``hash``, ``repr`` and
    immutability are generated."""

    name: str
    e_exp: float
    e_th: float
    de_percent: float

    def __init__(self, name: str, e_exp: float, e_th: float, de_percent: float):
        self.__dict__.update(name=name, e_exp=e_exp, e_th=e_th, de_percent=de_percent)


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    rms_percent: float
    per_particle: tuple[PerParticle, ...]
    evals: int
    converged: bool
    loss_rms_mev: float


def select_records(
    records: Iterable[ParticleRecord], cfg: FitConfig
) -> list[ParticleRecord]:
    """Apply the configured group/L/name filters, preserving order."""
    out = []
    for r in records:
        if r.group not in cfg.include_groups:
            continue
        if cfg.l_range is not None and not cfg.l_range[0] <= r.L <= cfg.l_range[1]:
            continue
        if r.name in cfg.exclude_names:
            continue
        out.append(r)
    return out


class _Problem:
    """Record arrays and the profile loss over alpha.

    ``plan`` is the Casimir plan of the records' distinct L and |M|, built
    once.  :meth:`scan_losses` evaluates the loss at many alphas at once
    through its array body and Gram-Schmidt residuals (the grid scan), taking
    the record columns of C_L2 and C_Lz from [C_L2..., C_Lz...] at
    ``scan_cols``; :meth:`_profile` evaluates one alpha through its scalar
    body and :meth:`_solve` (the Brent refine and the final parameters), whose
    right-hand side ``e_col`` and cut-off ``rcond`` are built once here, and a
    least-squares design matrix is one take of the vector
    [1, C_L2..., C_Lz...] at ``cols``.  ``_profile`` and ``_solve`` run under
    the caller's ``np.errstate(**_SOLVE_STATE)``: :func:`fit` enters it once
    for its whole refine loop and final solve.
    """

    def __init__(self, records: Sequence[ParticleRecord]):
        ls, ms = [r.L for r in records], [abs(r.M) for r in records]
        # Python ints, so that every Gamma argument 1 + k*alpha is a Python float
        l_values, m_values = sorted(set(ls)), sorted(set(ms))
        l_pos = {v: i for i, v in enumerate(l_values)}
        m_pos = {v: i for i, v in enumerate(m_values)}
        l_index = np.array([l_pos[v] for v in ls], dtype=np.intp)
        m_index = np.array([m_pos[v] for v in ms], dtype=np.intp)
        #: the Casimirs at the distinct L (plan.ls) and |M| (plan.ms), planned once
        self.plan = _CasimirPlan(l_values, m_values)
        #: (2, records) positions of C_L2 and C_Lz in [C_L2..., C_Lz...]
        self.scan_cols = np.stack([l_index, len(l_values) + m_index])
        #: (records, 3) positions of 1, C_L2 and C_Lz in [1, C_L2..., C_Lz...];
        #: row-major, as the solve's bits depend on the design matrix's layout
        self.cols = np.stack([np.zeros_like(l_index), *(1 + self.scan_cols)], axis=1)
        self.e_exp = np.array([r.mass_mev for r in records], dtype=float)
        #: the right-hand side and the singular-value cut-off that numpy's
        #: lstsq wrapper builds on every call for lstsq(A, e_exp, rcond=None)
        self.e_col = self.e_exp[:, None]
        self.rcond = np.finfo(float).eps * max(len(records), 3)
        self.evals = 0

    def _solve(self, A: np.ndarray) -> tuple[float, np.ndarray]:
        # minimum-norm least squares (LAPACK's gelsd), so a rank-deficient A is
        # solved too: the gufunc behind numpy's lstsq, called with the
        # wrapper's arguments but without its conversions, under _SOLVE_STATE
        x, _, _, _ = _gelsd(A, self.e_col, self.rcond, signature="ddd->ddid")
        coef = x.reshape(3)
        res = A @ coef - self.e_exp
        # np.sqrt(np.mean(res * res)) without its dispatch: the same pairwise
        # sum, the same division by the count and a correctly rounded sqrt
        return math.sqrt(np.add.reduce(res * res) / len(res)), coef

    def _profile(self, alpha: float) -> tuple[float, np.ndarray | None]:
        """R.m.s. residual in MeV and (m0, a0, b0) solved exactly at alpha;
        ``(inf, None)`` where a Casimir overflows for some record."""
        self.evals += 1
        try:
            c_l2, c_lz = self.plan.values(alpha)
        except OverflowError:
            return math.inf, None
        values = [1.0, *c_l2, *c_lz]
        # the scalar Gamma raises on most overflows but returns inf on some
        # (just above x = 142.2), which the solve would reject
        if not all(map(math.isfinite, values)):
            return math.inf, None
        return self._solve(np.array(values)[self.cols])

    def scan_losses(self, alphas: np.ndarray) -> np.ndarray:
        """The profile loss (first item of :meth:`_profile`) at every alpha,
        ``inf`` where a Casimir is not finite.

        Modified Gram-Schmidt on the design columns [1, C_L2, C_Lz], applied
        to the masses too, gives each residual directly (Björck, BIT 7 (1967)
        1): projecting out the constant column is centering, then C_Lz is
        orthogonalized against the centered C_L2.  A row whose pivot norms
        flag rank deficiency is solved by :meth:`_solve` instead."""
        alphas = np.asarray(alphas, dtype=float)
        self.evals += len(alphas)
        c = np.concatenate(self.plan.array(alphas), axis=1)
        feasible = np.isfinite(c).all(axis=1)
        all_feasible = feasible.all()
        if not all_feasible:
            c = c[feasible]
        # (k, 2, records): the C_L2 and C_Lz columns of the records at each alpha,
        # column-major as the take makes them; the sums below, and so the scan's
        # bits, follow that layout
        uv = c[:, self.scan_cols]
        u, v = uv[:, 0], uv[:, 1]
        n = len(self.e_exp)
        sqrt_n = math.sqrt(n)
        # a zero pivot gives 0/0 = nan and an overflowing one inf: neither passes
        # the rank test, so those rows go to the solve below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            uv -= uv.mean(axis=2, keepdims=True)
            u_norm = np.sqrt(np.einsum("ij,ij->i", u, u))
            u /= u_norm[:, None]
            v -= np.einsum("ij,ij->i", u, v)[:, None] * u
            v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
            v /= v_norm[:, None]
            e = self.e_exp - self.e_exp.mean()
            res = e - (u @ e)[:, None] * u
            res -= np.einsum("ij,ij->i", v, res)[:, None] * v
            losses = np.sqrt(np.einsum("ij,ij->i", res, res) / n)
            # the pivots [sqrt(n), |u|, |v|], which are |diag R| of a QR of the
            # design matrix
            low = np.minimum(np.minimum(u_norm, v_norm), sqrt_n)
            high = np.maximum(np.maximum(u_norm, v_norm), sqrt_n)
            full = low > _RANK_RTOL * high
        if not full.all():
            with np.errstate(**_SOLVE_STATE):
                for k in np.flatnonzero(~full):
                    losses[k] = self._solve(np.concatenate([[1.0], c[k]])[self.cols])[0]
        if all_feasible:
            return losses
        out = np.full(len(alphas), math.inf)
        out[feasible] = losses
        return out


def _local_minima(losses: np.ndarray) -> list[int]:
    """Indices of the finite local minima of the scan, in the order that
    :func:`fit` refines them: by loss, ties to the lower index.

    A loss is a minimum where it is at most ``min(left, right)`` of its
    neighbours (itself at either end), with Python's ``min``: the left one
    unless the right one is smaller, so a NaN on the left hides the minimum
    and a NaN on the right does not."""
    left = np.concatenate([losses[:1], losses[:-1]])
    right = np.concatenate([losses[1:], losses[-1:]])
    lower = np.where(right < left, right, left)
    (at,) = np.nonzero(np.isfinite(losses) & (losses <= lower))
    return at[np.argsort(losses[at], kind="stable")].tolist()


def _rms(values: list[float]) -> float:
    if not values:
        raise ValueError("no records")
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


def _levels(
    p: FitParams, records: Sequence[ParticleRecord], band: Sequence[Multiplet] = ()
) -> tuple[list[tuple[float, float, float]], list[tuple[Multiplet, float]]]:
    """(E_th, residual in MeV, residual in percent) of every record, and the
    levels of ``band``: the one level pass behind the loss, the objective, the
    per-particle table and ``fraczee report``, keyed (L, M, +1) per record."""
    band = list(band)
    energies = _energies(p, [(r.L, r.M, 1) for r in records] + [(m.L, m.M, m.sign) for m in band])
    rows = [
        (e, e - r.mass_mev, 100.0 * (e - r.mass_mev) / r.mass_mev)
        for r, e in zip(records, energies)
    ]
    return rows, list(zip(band, energies[len(records):]))


def loss_rms_mev(p: FitParams, records: Sequence[ParticleRecord]) -> float:
    """Root-mean-square residual in MeV (the minimized loss)."""
    return _rms([mev for _, mev, _ in _levels(p, records)[0]])


def objective(p: FitParams, records: Sequence[ParticleRecord]) -> float:
    """Relative r.m.s. error in percent (the reported figure of merit)."""
    return _rms([pct for _, _, pct in _levels(p, records)[0]])


def fit(records: Sequence[ParticleRecord], cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit the four level-formula parameters to the given records.

    ``records`` is the already-selected fit set (apply
    :func:`select_records` first when starting from a full table).
    Deterministic for a fixed config.

    Raises:
        FitError: fewer than 5 records, no feasible alpha, or no
            refine converged within ``max_evals``.
    """
    records = list(records)
    if len(records) < 5:
        raise FitError(f"need at least 5 records to fit 4 parameters, got {len(records)}")
    prob = _Problem(records)

    scan = prob.scan_losses(_ALPHA_GRID)
    if not np.isfinite(scan).any():
        raise FitError("the profile loss is not finite at any alpha scanned")
    last = len(scan) - 1

    refined = []  # (loss, scan index, alpha): ties on loss go to the lower index
    converged = False
    starts = _local_minima(scan)[: cfg.starts]
    with np.errstate(**_SOLVE_STATE):
        for i in starts:
            budget = cfg.max_evals - prob.evals
            if budget < 1:
                break
            # Brent's stopping test adds sqrt(eps)*|x| to xatol; refining the offset
            # from the grid point keeps that term near 1e-10 in alpha instead of 2e-9
            a_i = float(_ALPHA_GRID[i])
            res = minimize_scalar(
                lambda t: prob._profile(a_i + t)[0],
                float(_ALPHA_GRID[max(i - 1, 0)]) - a_i,
                float(_ALPHA_GRID[min(i + 1, last)]) - a_i,
                xatol=1e-12,
                maxiter=budget,
            )
            converged = converged or res.success
            refined.append((res.fun, i, a_i + res.x))
        if not converged:
            raise FitError(
                f"no scan minimum converged within {cfg.max_evals} profile evaluations; "
                f"the alpha scan alone takes {len(_ALPHA_GRID)} of them"
            )

        alpha = min(refined)[2]
        _, coef = prob._profile(alpha)
    params = FitParams(alpha, float(coef[0]), float(coef[1]), float(coef[2]))
    levels, _ = _levels(params, records)
    return FitResult(
        params=params,
        rms_percent=_rms([pct for _, _, pct in levels]),
        per_particle=tuple(
            PerParticle(r.name, r.mass_mev, e, pct) for r, (e, _, pct) in zip(records, levels)
        ),
        evals=prob.evals,
        converged=converged,
        loss_rms_mev=_rms([mev for _, mev, _ in levels]),
    )


#: level predictions for arbitrary multiplets (e.g. the meson band)
predict = spectrum
