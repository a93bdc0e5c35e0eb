"""Command-line interface.

Subcommands: derive, verify, spectrum, fit, predict, report.

Exit codes: 0 success, 1 verification/fit failure, 2 usage or parse
error, 3 domain violation, 4 I/O failure.

A plain ``key = value`` config file (``--config``) supplies defaults for
any long option; explicit flags win.  The environment variable
``FRACZEE_SEED`` overrides the built-in default seed (but not an
explicit ``--seed`` or a config entry).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .checks import SUITES
from .dataset import DatasetError, builtin_table, load_records
from .fitting import (
    DEFAULT_EXCLUDE,
    DEFAULT_SEED,
    FitConfig,
    FitError,
    _levels,
    fit,
    objective,
    select_records,
)
from .monomial import DomainError, ExprSyntaxError, parse_expr, rl_derive
from .rlquad import rl_derivative_quad
from .specfun import GammaPoleError
# ``mass`` is unused here, but the benchmark's tracer wraps ``fraczee.cli.mass``
# by attribute name, so the name stays.
from .spectrum import REFERENCE_PARAMS, FitParams, Multiplet, mass, spectrum  # noqa: F401

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2
_EXIT_DOMAIN = 3
_EXIT_IO = 4


def _fmt_mev(v: float) -> str:
    return f"{v:.2f}"


def _fmt_dimless(v: float) -> float:
    return float(f"{v:.6g}")


# ----------------------------------------------------------------------
# config file / option resolution
# ----------------------------------------------------------------------


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args, name: str, cfg: dict[str, str], cast, default):
    explicit = getattr(args, name, None)
    if explicit is not None:
        return explicit
    if name in cfg:
        return cast(cfg[name])
    return default


def _resolve_seed(args, cfg: dict[str, str]) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("FRACZEE_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _params_from_args(args, cfg) -> FitParams:
    pf = _resolve(args, "params_file", cfg, str, None)
    if pf:
        doc = json.loads(Path(pf).read_text())
        p = doc["params"]
        return FitParams(p["alpha"], p["m0_mev"], p["a0_mev"], p["b0_mev"])
    return FitParams(
        _resolve(args, "alpha", cfg, float, REFERENCE_PARAMS.alpha),
        _resolve(args, "m0", cfg, float, REFERENCE_PARAMS.m0),
        _resolve(args, "a0", cfg, float, REFERENCE_PARAMS.a0),
        _resolve(args, "b0", cfg, float, REFERENCE_PARAMS.b0),
    )


def _records_from_args(args, cfg):
    data = _resolve(args, "data", cfg, str, "builtin")
    if data == "builtin":
        return builtin_table()
    return load_records(data)


# ----------------------------------------------------------------------
# derive
# ----------------------------------------------------------------------


def _parse_point(text: str) -> dict[str, float]:
    point = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"bad point component {piece!r}, expected axis=value")
        axis, value = piece.split("=", 1)
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"point component {piece!r} is not finite")
        point[axis.strip()] = v
    return point


def _finite(what: str, compute) -> float:
    """``compute()``, with an overflow or a non-finite result turned into a
    usage error, so that no number for the point is printed."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite")
    return value


def cmd_derive(args, cfg) -> int:
    point = None if args.at is None else _parse_point(args.at)
    expr = parse_expr(args.expr)
    result = rl_derive(expr, args.axis, args.order)
    print(result.render())
    if point is None:
        return _EXIT_OK
    value = _finite(f"the derivative at {args.at}", lambda: result.evaluate(point))
    lines = [f"value: {value:.10g}"]
    x0 = point.get(args.axis, 0.0)
    if 0.0 < args.order < 1.0 and x0 > 0.0:
        slice_point = dict(point)

        def f(s: float) -> float:
            slice_point[args.axis] = s
            return expr.evaluate(slice_point)

        nodes = _resolve(args, "nodes", cfg, int, 64)
        # absorb the expression's terminal behavior into the weight so the
        # cross-check stays sharp for singular inputs like x^-0.776
        left = min((t.exponent(args.axis) for t in expr.terms), default=0.0)
        q = _finite(
            f"the quadrature at {args.at}",
            lambda: rl_derivative_quad(f, args.order, x0, nodes, left_exponent=left),
        )
        lines.append(f"quadrature: {q:.10g}")
        if value == 0.0:
            # a relative deviation from an exact zero is meaningless
            lines.append(f"quadrature absolute deviation: {abs(q):.3g}")
        else:
            deviation = abs(q - value) / max(abs(value), 1e-300)
            lines.append(f"quadrature relative deviation: {deviation:.3g}")
    print("\n".join(lines))
    return _EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def cmd_verify(args, cfg) -> int:
    seed = _resolve_seed(args, cfg)
    nodes = _resolve(args, "nodes", cfg, int, 64)
    chosen = SUITES if args.suite == "all" else (args.suite,)
    doc = {"suites": {}, "seed": seed, "passed": True}
    for suite in chosen:
        reports = SUITES[suite](seed, nodes)
        ok = all(r.passed for r in reports)
        doc["suites"][suite] = {
            "passed": ok,
            "checks": [r.as_dict() for r in reports],
        }
        doc["passed"] = doc["passed"] and ok
    text = json.dumps(doc, indent=2, sort_keys=False)
    print(text)
    out = _resolve(args, "out", cfg, str, None)
    if out:
        Path(out).write_text(text + "\n")
    return _EXIT_OK if doc["passed"] else _EXIT_VERIFY


# ----------------------------------------------------------------------
# spectrum / fit / predict / report
# ----------------------------------------------------------------------


def _multiplets(l_min: int, l_max: int) -> list[Multiplet]:
    return [Multiplet(L, M) for L in range(l_min, l_max + 1) for M in range(0, L + 1)]


def cmd_spectrum(args, cfg) -> int:
    """Level table for ``spectrum`` and ``predict``; they differ only in the default L range."""
    p = _params_from_args(args, cfg)
    l_min = _resolve(args, "l_min", cfg, int, 1)
    l_max = _resolve(args, "l_max", cfg, int, args.default_l_max)
    levels = spectrum(p, _multiplets(l_min, l_max))
    print("L\tM\tE_th_mev")
    for m, e in levels:
        print(f"{m.L}\t{m.M}\t{_fmt_mev(e)}")
    return _EXIT_OK


def _fit_config(args, cfg) -> FitConfig:
    groups_s = _resolve(args, "groups", cfg, str, "baryon")
    groups = tuple(g.strip() for g in groups_s.split(",") if g.strip())
    l_min = _resolve(args, "l_min", cfg, int, 3)
    l_max = _resolve(args, "l_max", cfg, int, 9)
    exclude_s = _resolve(args, "exclude", cfg, str, ",".join(DEFAULT_EXCLUDE))
    exclude = tuple(s.strip() for s in exclude_s.split(",") if s.strip())
    return FitConfig(
        include_groups=groups,
        l_range=(l_min, l_max),
        exclude_names=exclude,
        starts=_resolve(args, "starts", cfg, int, 32),
        seed=_resolve_seed(args, cfg),
        max_evals=_resolve(args, "max_evals", cfg, int, 2500),
        tol=_resolve(args, "tol", cfg, float, 1e-8),
    )


def _fit_json(result) -> str:
    doc = {
        "params": {
            "alpha": _fmt_dimless(result.params.alpha),
            "m0_mev": float(_fmt_mev(result.params.m0)),
            "a0_mev": float(_fmt_mev(result.params.a0)),
            "b0_mev": float(_fmt_mev(result.params.b0)),
        },
        "rms_percent": _fmt_dimless(result.rms_percent),
        "per_particle": [
            {
                "name": row.name,
                "e_exp_mev": float(_fmt_mev(row.e_exp)),
                "e_th_mev": float(_fmt_mev(row.e_th)),
                "de_percent": _fmt_dimless(row.de_percent),
            }
            for row in result.per_particle
        ],
        "evals": result.evals,
        "converged": result.converged,
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def cmd_fit(args, cfg) -> int:
    records = _records_from_args(args, cfg)
    fit_cfg = _fit_config(args, cfg)
    selected = select_records(records, fit_cfg)
    result = fit(selected, fit_cfg)
    p = result.params
    print(f"fit set: {len(selected)} records "
          f"(groups={','.join(fit_cfg.include_groups)}, L={fit_cfg.l_range}, "
          f"excluded={','.join(fit_cfg.exclude_names) or 'none'})")
    print(f"alpha = {p.alpha:.6g}")
    print(f"m0    = {p.m0:.2f} MeV")
    print(f"a0    = {p.a0:.2f} MeV")
    print(f"b0    = {p.b0:.2f} MeV")
    print(f"rms   = {result.rms_percent:.4f} %  (loss {result.loss_rms_mev:.4f} MeV, "
          f"{result.evals} evaluations, converged={result.converged})")
    # subset breakdown at the fitted parameters
    full_band = select_records(
        records,
        FitConfig(include_groups=fit_cfg.include_groups, l_range=fit_cfg.l_range,
                  exclude_names=()),
    )
    all_baryons = select_records(
        records,
        FitConfig(include_groups=fit_cfg.include_groups, l_range=None,
                  exclude_names=()),
    )
    if full_band:
        print(f"rms over L-band incl. excluded rows: {objective(p, full_band):.4f} %")
    if all_baryons:
        print(f"rms over all baryon rows: {objective(p, all_baryons):.4f} %")
    out = _resolve(args, "out", cfg, str, None)
    if out:
        Path(out).write_text(_fit_json(result) + "\n")
    return _EXIT_OK


def cmd_report(args, cfg) -> int:
    p = _params_from_args(args, cfg)
    records = _records_from_args(args, cfg)
    l_min = _resolve(args, "l_min", cfg, int, 1)
    l_max = _resolve(args, "l_max", cfg, int, 9)
    levels, theory = _levels(p, records, _multiplets(l_min, l_max))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["name,L,M,E_exp_mev,E_th_mev,dE_percent"]
    for r, (e_th, _, de) in zip(records, levels):
        lines.append(
            f"{r.name},{r.L},{r.M},{_fmt_mev(r.mass_mev)},{_fmt_mev(e_th)},{de:.2f}"
        )
    (out_dir / "table.csv").write_text("\n".join(lines) + "\n")

    rows = ["series\tL\tM\tmass_mev\tlabel"]
    for m, e in theory:
        rows.append(f"theory_L{m.L}\t{m.L}\t{m.M}\t{_fmt_mev(e)}\t")
    for r in records:
        rows.append(f"experiment\t{r.L}\t{r.M}\t{_fmt_mev(r.mass_mev)}\t{r.name}")
    (out_dir / "plot.tsv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'table.csv'} and {out_dir / 'plot.tsv'}")
    return _EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fraczee",
        description="Riemann-Liouville fractional calculus toolkit and "
        "fractional-Zeeman spectrum fit",
    )
    top.add_argument("--config", help="key = value config file with option defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="symbolic fractional derivative of an expression")
    p_derive.add_argument("expr", help="e.g. '0.5*x^0.5*z^1.2 - 2*y'")
    p_derive.add_argument("--axis", required=True, choices=("x", "y", "z", "t"))
    p_derive.add_argument("--order", required=True, type=float)
    p_derive.add_argument("--at", help="evaluation point, e.g. 'x=1,y=2'")
    p_derive.add_argument("--nodes", type=int, help="quadrature nodes for the cross-check")
    p_derive.set_defaults(func=cmd_derive)

    p_verify = sub.add_parser("verify", help="run operator identity suites")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--nodes", type=int)
    p_verify.add_argument("--out", help="also write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    def add_level_options(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--m0", type=float)
        p.add_argument("--a0", type=float)
        p.add_argument("--b0", type=float)
        p.add_argument("--params-file", help="JSON report from 'fit --out'")
        p.add_argument("--l-min", type=int)
        p.add_argument("--l-max", type=int)

    p_spec = sub.add_parser("spectrum", help="level table for given parameters")
    add_level_options(p_spec)
    p_spec.set_defaults(func=cmd_spectrum, default_l_max=9)

    p_fit = sub.add_parser("fit", help="fit the level formula to particle records")
    p_fit.add_argument("--data", help="'builtin' or a CSV/JSON file")
    p_fit.add_argument("--groups", help="comma-separated groups (default baryon)")
    p_fit.add_argument("--l-min", type=int)
    p_fit.add_argument("--l-max", type=int)
    p_fit.add_argument("--exclude", help="comma-separated names to drop ('' for none)")
    p_fit.add_argument("--starts", type=int, help="alpha-scan minima refined by Brent (default 32)")
    p_fit.add_argument("--seed", type=int, help="validated only: the fit draws no random numbers")
    p_fit.add_argument("--max-evals", type=int,
                       help="profile-loss evaluations allowed, scan included (default 2500)")
    p_fit.add_argument("--tol", type=float, help="validated (must be > 0) but unused by the fit")
    p_fit.add_argument("--out", help="write the JSON fit report here")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predicted levels (default meson band L=1,2)")
    add_level_options(p_pred)
    p_pred.set_defaults(func=cmd_spectrum, default_l_max=2)

    p_rep = sub.add_parser("report", help="write table.csv and plot.tsv for given parameters")
    add_level_options(p_rep)
    p_rep.add_argument("--data")
    p_rep.add_argument("--out-dir", required=True)
    p_rep.set_defaults(func=cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config)
        return args.func(args, cfg)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (DomainError, GammaPoleError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return _EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
