"""Where the traced run wraps fraczee, and the per-layer metrics it reports.

Each public name is wrapped at the module attribute where its caller
looks it up: the benchmark's own calls go through ``fraczee.<module>.<name>``
and fraczee's internal calls through the importing module's copy, e.g.
``fraczee.spectrum.gamma`` or ``fraczee.fitting.minimize``.  Metric names
are ``<layer>.<function>.<stat>``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from tracer import Tracer

STATS = ("calls", "busy_s", "self_s")


def _timed(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]


#: every metric the traced run prints, with its unit
PER_LAYER: list[tuple[str, str]] = [
    *_timed("fitting.fit"),
    ("fitting.evals", "count"),
    *_timed("fitting.minimize"),
    ("fitting.minimize.nfev", "count"),
    *_timed("fitting.minimize_scalar"),
    ("fitting.minimize_scalar.nfev", "count"),
    ("fitting.nm_wasted_frac", "frac"),
    ("fitting.optimizer_self_frac", "frac"),
    *_timed("fitting.objective"),
    *_timed("specfun.gamma"),
    *_timed("specfun.rgamma"),
    ("specfun.pole_hits", "count"),
    ("specfun.errors", "count"),
    *_timed("spectrum.mass"),
    *_timed("spectrum.spectrum"),
    ("spectrum.levels", "count"),
    ("spectrum.ns_per_level", "ns"),
    *_timed("monomial.parse_expr"),
    *_timed("monomial.rl_derive"),
    ("monomial.rl_derive.terms_in", "count"),
    ("monomial.rl_derive.terms_out", "count"),
    *_timed("monomial.from_terms"),
    *_timed("monomial.evaluate"),
    *_timed("operators.build"),
    *_timed("operators.commutator"),
    *_timed("operators.check"),
    ("operators.check.margin_min", "ratio"),
    ("operators.check.failed", "count"),
    *_timed("rlquad.rl_derivative_quad"),
    *_timed("rlquad.roots_jacobi"),
    ("rlquad.f_evals", "count"),
    ("rlquad.rel_dev_max", "ratio"),
    *_timed("rlquad.leibniz_series"),
    *_timed("dataset.load_records"),
    ("dataset.load_records.rows", "count"),
    ("dataset.load_records.bytes", "bytes"),
    ("dataset.records_to_csv.busy_s", "s"),
    ("dataset.records_to_csv.bytes", "bytes"),
    ("dataset.rejected", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.nonzero_exits", "count"),
    ("cli.uncaught", "count"),
    ("setup.import.numpy_s", "s"),
    ("setup.import.scipy_special_s", "s"),
    ("setup.import.scipy_optimize_s", "s"),
    ("setup.import.fraczee_self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
]

_BUILDERS = ("build_H", "build_Kx", "build_Ky", "build_Kz", "build_Lz",
             "build_Jx", "build_Jy", "build_Jz", "build_Sz", "build_p")
_CHECKS = ("check_commutation", "check_kkk", "verify_J_algebra", "check_zeeman_reduction",
           "check_connection_reduction", "check_semigroup", "check_constant_field",
           "check_curl_coefficient")


def install(tracer: Tracer, fz) -> None:
    """Wrap every traced name; :meth:`Tracer.restore` undoes it."""
    c = tracer.counts
    fit_state = {"nm_nfev": 0, "scalar_x": None}

    def count(key, by=lambda res, a, k: 1):
        def hook(res, a, k):
            c[key] += by(res, a, k)
        return hook

    def pole(res, a, k):
        x = a[0]
        if x <= 0.0 and x == math.floor(x):
            c["specfun.pole_hits"] += 1

    def nm_done(res, a, k):
        c["fitting.minimize.nfev"] += res.nfev
        fit_state["nm_nfev"] += res.nfev

    def scalar_done(res, a, k):
        c["fitting.minimize_scalar.nfev"] += res.nfev
        fit_state["scalar_x"] = float(res.x)

    def fit_done(res, a, k):
        # the profile polish won when the returned alpha is Brent's optimum
        c["fitting.evals"] += res.evals
        if res.params.alpha == fit_state["scalar_x"]:
            c["fitting.nm_wasted_evals"] += fit_state["nm_nfev"]
        fit_state.update(nm_nfev=0, scalar_x=None)

    def derived(res, a, k):
        c["monomial.rl_derive.terms_in"] += len(a[0].terms)
        c["monomial.rl_derive.terms_out"] += len(res.terms)

    def loaded(res, a, k):
        c["dataset.load_records.rows"] += len(res)
        c["dataset.load_records.bytes"] += Path(a[0]).stat().st_size

    def rejected(exc, a, k):
        if isinstance(exc, fz.dataset.DatasetError):
            c["dataset.rejected"] += 1

    def cli_done(res, a, k):
        c["cli.nonzero_exits"] += res != 0
        argv = a[0] if a else k.get("argv") or []
        if "--out-dir" in argv:
            out = Path(argv[argv.index("--out-dir") + 1])
            c["cli.bytes_written"] += sum(
                p.stat().st_size for p in (out / "table.csv", out / "plot.tsv") if p.exists()
            )

    for mod in (fz.specfun, fz.spectrum, fz.monomial, fz.rlquad, fz.operators, fz.cli):
        if hasattr(mod, "gamma"):
            tracer.patch(mod, "gamma", "specfun.gamma", span=False,
                         on_error=count("specfun.errors"))
        if hasattr(mod, "rgamma"):
            tracer.patch(mod, "rgamma", "specfun.rgamma", span=False, on_result=pole,
                         on_error=count("specfun.errors"))

    ft = fz.fitting
    tracer.patch(ft, "fit", "fitting.fit", on_result=fit_done)
    tracer.patch(ft, "minimize", "fitting.minimize", on_result=nm_done)
    tracer.patch(ft, "minimize_scalar", "fitting.minimize_scalar", on_result=scalar_done)
    for name in ("objective", "loss_rms_mev", "predict", "select_records"):
        tracer.patch(ft, name, f"fitting.{name}")

    levels = count("spectrum.levels", lambda res, a, k: len(res))
    for mod in (fz.spectrum, ft):
        tracer.patch(mod, "spectrum", "spectrum.spectrum", on_result=levels)
    for mod in (fz.spectrum, ft, fz.cli):
        tracer.patch(mod, "mass", "spectrum.mass", span=False)

    m = fz.monomial
    for mod in (m, fz.cli):
        tracer.patch(mod, "parse_expr", "monomial.parse_expr")
    for mod in (m, fz.operators, fz.rlquad, fz.cli):
        tracer.patch(mod, "rl_derive", "monomial.rl_derive", span=False, on_result=derived)
    tracer.patch(m.PolyExpr, "from_terms", "monomial.from_terms", span=False)
    tracer.patch(m.PolyExpr, "evaluate", "monomial.evaluate", span=False)

    op = fz.operators
    for name in _BUILDERS:
        tracer.patch(op, name, "operators.build", span=False)
    for name in _CHECKS:
        tracer.patch(op, name, "operators.check")
    tracer.patch(op, "commutator", "operators.commutator")

    q = fz.rlquad
    for mod in (q, fz.cli):
        tracer.patch(mod, "rl_derivative_quad", "rlquad.rl_derivative_quad")
    tracer.patch(q, "roots_jacobi", "rlquad.roots_jacobi")
    tracer.patch(q, "leibniz_series", "rlquad.leibniz_series")

    ds = fz.dataset
    for mod in (ds, fz.cli):
        tracer.patch(mod, "load_records", "dataset.load_records", on_result=loaded,
                     on_error=rejected)
    tracer.patch(ds, "records_to_csv", "dataset.records_to_csv",
                 on_result=count("dataset.records_to_csv.bytes", lambda res, a, k: len(res)))
    tracer.patch(ds, "records_to_json", "dataset.records_to_json")

    tracer.patch(fz.cli, "main", "cli.main", on_result=cli_done,
                 on_error=count("cli.uncaught"))


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """setup.import.* from the output of ``python -X importtime``."""
    cumulative, fraczee_self = {}, 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
        cumulative.setdefault(name, cum_us)
        if name == "fraczee" or name.startswith("fraczee."):
            fraczee_self += self_us
    return {
        "setup.import.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "setup.import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
        "setup.import.scipy_optimize_s": cumulative.get("scipy.optimize", 0) / 1e6,
        "setup.import.fraczee_self_s": fraczee_self / 1e6,
    }


def per_layer(tracer: Tracer, oracle_counts, imports: dict, overhead: float) -> dict:
    """Every metric of :data:`PER_LAYER`, zero for layers the workload skips."""
    c = dict(tracer.counts)
    c.update(oracle_counts)
    out = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        out[name] = tracer.stat(base)[stat] if stat in STATS else c.get(name, 0.0)
    evals = c.get("fitting.evals", 0.0)
    out["fitting.nm_wasted_frac"] = c.get("fitting.nm_wasted_evals", 0.0) / evals if evals else 0.0
    op_s = tracer.busy_ns.get("op", 0) / 1e9
    optimizer = out["fitting.minimize.self_s"] + out["fitting.minimize_scalar.self_s"]
    out["fitting.optimizer_self_frac"] = optimizer / op_s if op_s else 0.0
    levels = out["spectrum.levels"]
    out["spectrum.ns_per_level"] = out["spectrum.spectrum.busy_s"] * 1e9 / levels if levels else 0.0
    out.update(imports)
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_frac"] = overhead
    return out
