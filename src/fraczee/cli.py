"""Command-line interface.

Subcommands: derive, verify, spectrum, fit, predict, report.

Exit codes: 0 success, 1 verification/fit failure, 2 usage or parse
error, 3 domain violation, 4 I/O failure.

Every option is resolved once, before the command runs, with the
precedence flag > ``--config`` file > ``FRACZEE_SEED`` (seed only) >
built-in default.  The config file holds ``key = value`` lines for any
long option of the chosen subcommand (``l-min`` or ``l_min``); keys the
subcommand does not have are ignored.  Config and environment values are
converted by the option's own type before the command runs, so a bad
value exits 2 with nothing printed.  The required options ``--axis``,
``--order`` and ``--out-dir`` must be given as flags.
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
    DEFAULT_SEED,
    FitConfig,
    FitError,
    _levels,
    fit,
    objective,
    select_records,
)
from .monomial import DomainError, ExprSyntaxError, parse_expr, rl_derive
from .rlquad import DEFAULT_NODES, rl_derivative_quad
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


def _option_defaults(command: argparse.ArgumentParser, cfg: dict[str, str]) -> dict:
    """``FRACZEE_SEED`` and the config entries that name an optional long option
    of ``command``, each converted by that option's type."""
    raw = {k: (f"config entry {k!r}", v) for k, v in cfg.items()}
    if "FRACZEE_SEED" in os.environ:
        raw.setdefault("seed", ("FRACZEE_SEED", os.environ["FRACZEE_SEED"]))
    out = {}
    for action in command._actions:
        if action.dest not in raw or action.required or action.default is argparse.SUPPRESS:
            continue
        source, text = raw[action.dest]
        try:
            out[action.dest] = action.type(text) if action.type else text
        except ValueError as exc:
            raise ValueError(f"{source} = {text!r}: {exc}") from None
    return out


def _params_from_args(args) -> FitParams:
    pf = args.params_file
    if not pf:
        return FitParams(args.alpha, args.m0, args.a0, args.b0)
    doc = json.loads(Path(pf).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
        raise ValueError(f"{pf}: expected a JSON object whose 'params' is an object")
    keys = ("alpha", "m0_mev", "a0_mev", "b0_mev")
    values = [doc["params"][key] for key in keys]  # a missing key stays a KeyError
    for key, v in zip(keys, values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{pf}: params.{key} = {json.dumps(v)} is not a real number")
        _finite(f"{pf}: params.{key}", lambda: float(v))
    return FitParams(*values)


def _records_from_args(args):
    return builtin_table() if args.data == "builtin" else load_records(args.data)


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
    usage error, so that no number for it is printed."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite")
    return value


def cmd_derive(args) -> int:
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

        # absorb the expression's terminal behavior into the weight so the
        # cross-check stays sharp for singular inputs like x^-0.776
        left = min((t.exponent(args.axis) for t in expr.terms), default=0.0)
        q = _finite(
            f"the quadrature at {args.at}",
            lambda: rl_derivative_quad(f, args.order, x0, args.nodes, left_exponent=left),
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


def cmd_verify(args) -> int:
    chosen = SUITES if args.suite == "all" else (args.suite,)
    doc = {"suites": {}, "seed": args.seed, "passed": True}
    for suite in chosen:
        reports = SUITES[suite](args.seed, args.nodes)
        ok = all(r.passed for r in reports)
        doc["suites"][suite] = {
            "passed": ok,
            "checks": [r.as_dict() for r in reports],
        }
        doc["passed"] = doc["passed"] and ok
    text = json.dumps(doc, indent=2, sort_keys=False)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return _EXIT_OK if doc["passed"] else _EXIT_VERIFY


# ----------------------------------------------------------------------
# spectrum / fit / predict / report
# ----------------------------------------------------------------------


def _multiplets(l_min: int, l_max: int) -> list[Multiplet]:
    return [Multiplet(L, M) for L in range(l_min, l_max + 1) for M in range(0, L + 1)]


def cmd_spectrum(args) -> int:
    """Level table for ``spectrum`` and ``predict``; they differ only in the default L range."""
    levels = spectrum(_params_from_args(args), _multiplets(args.l_min, args.l_max))
    print("L\tM\tE_th_mev")
    for m, e in levels:
        print(f"{m.L}\t{m.M}\t{_fmt_mev(e)}")
    return _EXIT_OK


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _fit_config(args) -> FitConfig:
    return FitConfig(
        include_groups=_names(args.groups),
        l_range=(args.l_min, args.l_max),
        exclude_names=_names(args.exclude),
        starts=args.starts, seed=args.seed, max_evals=args.max_evals, tol=args.tol,
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


def cmd_fit(args) -> int:
    records = _records_from_args(args)
    fit_cfg = _fit_config(args)
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
        rms = _finite("the rms over the L-band", lambda: objective(p, full_band))
        print(f"rms over L-band incl. excluded rows: {rms:.4f} %")
    if all_baryons:
        rms = _finite("the rms over all baryon rows", lambda: objective(p, all_baryons))
        print(f"rms over all baryon rows: {rms:.4f} %")
    if args.out:
        Path(args.out).write_text(_fit_json(result) + "\n")
    return _EXIT_OK


def cmd_report(args) -> int:
    p = _params_from_args(args)
    records = _records_from_args(args)
    levels, theory = _levels(p, records, _multiplets(args.l_min, args.l_max))
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
    p_derive.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                          help="quadrature nodes for the cross-check (default %(default)s)")
    p_derive.set_defaults(func=cmd_derive)

    p_verify = sub.add_parser("verify", help="run operator identity suites")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p_verify.add_argument("--out", help="also write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    def add_level_options(p, l_max: int = 9):
        for name in ("alpha", "m0", "a0", "b0"):
            p.add_argument(f"--{name}", type=float, default=getattr(REFERENCE_PARAMS, name))
        p.add_argument("--params-file", help="JSON report from 'fit --out'")
        p.add_argument("--l-min", type=int, default=1)
        p.add_argument("--l-max", type=int, default=l_max)

    p_spec = sub.add_parser("spectrum", help="level table for given parameters")
    add_level_options(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    fit_cfg = FitConfig()
    p_fit = sub.add_parser("fit", help="fit the level formula to particle records")
    p_fit.add_argument("--data", default="builtin", help="'builtin' or a CSV/JSON file")
    p_fit.add_argument("--groups", default=",".join(fit_cfg.include_groups),
                       help="comma-separated groups (default %(default)s)")
    p_fit.add_argument("--l-min", type=int, default=fit_cfg.l_range[0])
    p_fit.add_argument("--l-max", type=int, default=fit_cfg.l_range[1])
    p_fit.add_argument("--exclude", default=",".join(fit_cfg.exclude_names),
                       help="comma-separated names to drop ('' for none; default %(default)s)")
    p_fit.add_argument("--starts", type=int, default=fit_cfg.starts,
                       help="alpha-scan minima refined by Brent (default %(default)s)")
    p_fit.add_argument("--seed", type=int, default=fit_cfg.seed,
                       help="validated only: the fit draws no random numbers")
    p_fit.add_argument("--max-evals", type=int, default=fit_cfg.max_evals,
                       help="profile-loss evaluations allowed, scan included (default %(default)s)")
    p_fit.add_argument("--tol", type=float, default=fit_cfg.tol,
                       help="validated (must be > 0) but unused by the fit")
    p_fit.add_argument("--out", help="write the JSON fit report here")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predicted levels (default meson band L=1,2)")
    add_level_options(p_pred, 2)
    p_pred.set_defaults(func=cmd_spectrum)

    p_rep = sub.add_parser("report", help="write table.csv and plot.tsv for given parameters")
    add_level_options(p_rep)
    p_rep.add_argument("--data", default="builtin", help="'builtin' or a CSV/JSON file")
    p_rep.add_argument("--out-dir", required=True)
    p_rep.set_defaults(func=cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        defaults = _option_defaults(command, _read_config(args.config))
        if defaults:
            # parse again over the new defaults, so that flags still win
            command.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
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
