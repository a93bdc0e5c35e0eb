"""The benchmark's traced run wraps fraczee names by module attribute
(``perfbench/layers.py``), with no guard for a missing name: a refactor that
drops one breaks the benchmark, so it fails here too.  Reads ``perfbench/``,
and the fit workload's tables through ``scripts/same_numbers.py``."""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from same_numbers import _fit_workload_table, _workloads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: the wrap points that count level evaluations; ``install`` not raising
#: covers the tracer's other wrap points
LEVEL_WRAP_POINTS = (
    ("spectrum", "mass"),
    ("spectrum", "spectrum"),
    ("fitting", "mass"),
    ("fitting", "spectrum"),
    ("fitting", "predict"),
    ("cli", "mass"),
)


def _benchmark_modules() -> tuple[str, ...]:
    # read, not imported: importing run.py sets thread-count variables
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def _layers_tracer_and_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer").Tracer()
    finally:
        sys.path.remove(str(PERFBENCH))
    fz = SimpleNamespace(
        **{m: importlib.import_module(f"fraczee.{m}") for m in _benchmark_modules()}
    )
    return layers, tracer, fz


def test_benchmark_tracer_installs_and_restores():
    layers, tracer, fz = _layers_tracer_and_modules()
    before = {(m, name): getattr(getattr(fz, m), name) for m, name in LEVEL_WRAP_POINTS}
    try:
        layers.install(tracer, fz)
        assert all(getattr(getattr(fz, m), name) is not fn for (m, name), fn in before.items())
    finally:
        tracer.restore()
    assert all(getattr(getattr(fz, m), name) is fn for (m, name), fn in before.items())


def test_traced_algebra_calls_reach_the_layer_counters():
    # a hot-path alias bound at import (such as ``_gamma = gamma``) would
    # bypass the wrappers and silently zero these per-layer metrics
    layers, tracer, fz = _layers_tracer_and_modules()
    try:
        layers.install(tracer, fz)
        m = fz.monomial
        expr = m.parse_expr("x^0.5 + 2*y")
        before = dict(tracer.calls)
        m.rl_derive(expr, "x", 0.5)
        for name in ("specfun.gamma", "specfun.rgamma"):
            assert tracer.calls[name] > before.get(name, 0), name
        before = tracer.calls["monomial.from_terms"]
        expr + expr
        assert tracer.calls["monomial.from_terms"] > before
    finally:
        tracer.restore()


def test_traced_operator_applications_reach_the_gamma_counters():
    # OperatorExpr.apply runs the power rule without calling rl_derive, so
    # the specfun counts of the algebra workload's identity checks depend on
    # monomial's own gamma/rgamma lookups
    layers, tracer, fz = _layers_tracer_and_modules()
    try:
        layers.install(tracer, fz)
        op, f = fz.operators, fz.monomial.parse_expr("x^2*y^1.5 + z")
        before = dict(tracer.calls)
        op.commutator(op.build_Kz(1.0), op.build_H(0.5), f)
        for name in ("specfun.gamma", "specfun.rgamma"):
            assert tracer.calls[name] > before.get(name, 0), name
    finally:
        tracer.restore()


def test_traced_fits_and_levels_reach_the_gamma_counter():
    # the Casimir kernel looks gamma and rgamma up as fraczee.spectrum globals;
    # one that called specfun._lanczos or an alias bound at import would zero
    # the fit and levels workloads' specfun metrics without a word
    layers, tracer, fz = _layers_tracer_and_modules()
    try:
        layers.install(tracer, fz)
        records = fz.fitting.select_records(fz.dataset.builtin_table(), fz.fitting.FitConfig())
        for call in (
            lambda: fz.fitting.fit(records, fz.fitting.FitConfig(starts=1)),
            lambda: fz.spectrum.spectrum(fz.spectrum.REFERENCE_PARAMS, [fz.spectrum.Multiplet(3, 1)]),
        ):
            before = tracer.calls["specfun.gamma"]
            call()
            assert tracer.calls["specfun.gamma"] > before
    finally:
        tracer.restore()


def test_a_traced_default_fit_makes_the_pinned_gamma_calls():
    # 199 scan alphas go through the array kernel; the 22 Brent evaluations,
    # the final profile loss and the fitted levels each take 11 gamma and
    # 1 rgamma calls (k = 0..10 and k = -1) through the tracer.  An alias bound
    # at import, or a Gamma call added or dropped, moves these counts
    layers, tracer, fz = _layers_tracer_and_modules()
    try:
        layers.install(tracer, fz)
        records = fz.fitting.select_records(fz.dataset.builtin_table(), fz.fitting.FitConfig())
        before = dict(tracer.calls)
        result = fz.fitting.fit(records)
        calls = {name: tracer.calls[name] - before.get(name, 0)
                 for name in ("specfun.gamma", "specfun.rgamma")}
    finally:
        tracer.restore()
    assert result.evals == 222
    assert calls == {"specfun.gamma": 264, "specfun.rgamma": 24}


def test_a_default_fit_makes_the_pinned_lstsq_solves(monkeypatch):
    # the 22 Brent evaluations and the final profile loss solve once each, by
    # the gufunc behind np.linalg.lstsq (the wrapper costs about as much again
    # per refine step, so it must not creep back); the scan's Gram-Schmidt
    # rows are all full-rank on the built-in selection, so none falls back to
    # a solve.  A solve added to the refine, or a scan that starts falling
    # back, moves these counts and the fit workload's op time
    fitting, dataset = (importlib.import_module(f"fraczee.{m}") for m in ("fitting", "dataset"))
    Problem = fitting._Problem
    solve, scan_losses = Problem._solve, Problem.scan_losses
    solves = []
    stage = ["refine"]

    def counted(self, A):
        solves.append(stage[0])
        return solve(self, A)

    def scan(self, alphas):
        stage[0] = "scan"
        try:
            return scan_losses(self, alphas)
        finally:
            stage[0] = "refine"

    def wrapper(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(Problem, "_solve", counted)
    monkeypatch.setattr(Problem, "scan_losses", scan)
    monkeypatch.setattr(np.linalg, "lstsq", wrapper)
    result = fitting.fit(fitting.select_records(dataset.builtin_table(), fitting.FitConfig()))
    assert (result.evals, result.converged) == (222, True)
    assert (solves.count("scan"), solves.count("refine")) == (0, 23)


def _workloads_and_modules():
    fz = SimpleNamespace(
        **{m: importlib.import_module(f"fraczee.{m}") for m in _benchmark_modules()}
    )
    return _workloads(), fz


#: (evals, refines) of a default fit of the fit workload's first synthetic
#: table at seeds 0..9 (the tables of scripts/same_numbers.py's fit corpus):
#: the 199 scan alphas, the Brent evaluations of each refine and the final
#: profile loss
FIT_WORKLOAD_BUDGETS = [(233, 1), (229, 1), (220, 1), (214, 1), (227, 1),
                        (226, 1), (223, 1), (219, 1), (221, 1), (231, 1)]


def test_fits_of_the_fit_workload_make_the_pinned_evaluations_and_refines(tmp_path, monkeypatch):
    # a count that rises here costs the fit workload op time on every table;
    # a change that means to move it updates the pin and says why
    fitting = importlib.import_module("fraczee.fitting")
    minimize_scalar, refines = fitting.minimize_scalar, []

    def counted(*args, **kwargs):
        refines.append(args)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(fitting, "minimize_scalar", counted)
    budgets = []
    for seed in range(10):
        request, table = _fit_workload_table(seed, tmp_path)
        cfg = fitting.FitConfig()
        records = fitting.select_records(table, cfg)
        refines.clear()
        result = fitting.fit(records, cfg)
        assert result.converged and len(records) == len(request["rows"])
        budgets.append((result.evals, len(refines)))
    assert budgets == FIT_WORKLOAD_BUDGETS


def test_levels_probes_still_find_their_known_defects(tmp_path):
    # perfbench/test_smoke.py pins three known-defect probes on the levels
    # workload but is not part of this suite; a record-contract change that
    # fixed one (say, rejecting the inf mass) would break the benchmark
    workloads, fz = _workloads_and_modules()
    wl = workloads.LevelsWorkload(fz, 7, tmp_path, smoke=True)
    statuses = {}
    for req in wl.probes():  # as perfbench/run.py's _probe sends them
        try:
            out = wl.run(req)
        except Exception as exc:
            out = workloads.Raised(exc)
        statuses[req["kind"]] = wl.check(req, out)
    assert sorted(statuses) == sorted(workloads.PROBES) == ["inf-mass", "overflow", "params-no-m0"]
    assert all(status == workloads.KNOWN for status, _ in statuses.values()), statuses


#: tracer counts of the algebra workload's requests 0..39 at seed 0: 32
#: derives (their quadratures included) and one identity check of each kind
ALGEBRA_BUDGETS = {"specfun.gamma": 278, "specfun.rgamma": 285, "monomial.from_terms": 150,
                   "monomial.rl_derive": 115, "monomial.rl_derive.terms_in": 168,
                   "monomial.rl_derive.terms_out": 116, "operators.build": 16,
                   "operators.commutator": 6}


def test_algebra_requests_make_the_pinned_calls(tmp_path):
    # a count that rises here costs the algebra workload op time; a change
    # that means to move one updates the pin and says why
    workloads, fz = _workloads_and_modules()
    layers, tracer, _ = _layers_tracer_and_modules()
    wl = workloads.AlgebraWorkload(fz, 0, tmp_path, smoke=False)
    requests = [wl.request(i) for i in range(40)]
    try:
        layers.install(tracer, fz)
        outs = [wl.run(req) for req in requests]
    finally:
        tracer.restore()
    counts = {**tracer.calls, **tracer.counts}
    assert {name: counts[name] for name in ALGEBRA_BUDGETS} == ALGEBRA_BUDGETS
    assert all(wl.check(req, out)[0] == workloads.OK for req, out in zip(requests, outs))


def test_level_requests_make_the_pinned_gamma_calls_and_plans(tmp_path, monkeypatch):
    # requests 1..10 at seed 0 as the levels workload sends them: spectrum,
    # predict, objective, loss_rms_mev and an in-process report, each level
    # pass with a Casimir plan of its own
    workloads, fz = _workloads_and_modules()
    layers, tracer, _ = _layers_tracer_and_modules()
    Plan = fz.spectrum._CasimirPlan
    init, plans = Plan.__init__, []

    def counted(self, *args):
        plans.append(args)
        init(self, *args)

    monkeypatch.setattr(Plan, "__init__", counted)
    wl = workloads.LevelsWorkload(fz, 0, tmp_path, smoke=False)
    try:
        layers.install(tracer, fz)
        for i in range(1, 11):
            req = wl.request(i)
            assert wl.check(req, wl.run(req))[0] == workloads.OK
    finally:
        tracer.restore()
    calls = {name: tracer.calls[name] for name in ("specfun.gamma", "specfun.rgamma")}
    assert (calls, len(plans)) == ({"specfun.gamma": 657, "specfun.rgamma": 108}, 50)


#: tracer counts of each suite of ``verify all --seed 1729`` at the default
#: nodes; the suite functions bind the checks at import, so only the checks
#: that other checks call through ``fraczee.operators`` reach operators.check
_VERIFY_NAMES = ("operators.build", "operators.commutator", "operators.check",
                 "monomial.rl_derive", "monomial.rl_derive.terms_in",
                 "monomial.rl_derive.terms_out", "monomial.from_terms",
                 "specfun.gamma", "specfun.rgamma", "rlquad.roots_jacobi")
VERIFY_BUDGETS = {
    "quad": (0, 0, 0, 0, 0, 0, 0, 144, 0, 4),
    "zeeman-field": (0, 0, 0, 51, 48, 18, 36, 24, 18, 0),
    "connection": (0, 0, 0, 225, 147, 63, 57, 130, 175, 0),
    "commutators": (632, 216, 200, 0, 0, 0, 2678, 5248, 5248, 0),
    "spin-algebra": (66, 12, 0, 0, 0, 0, 180, 138, 138, 0),
}


def test_verify_all_suites_make_the_pinned_calls(monkeypatch):
    # a count that rises here costs `fraczee verify` time; a change that
    # means to move one updates the pin and says why
    layers, tracer, fz = _layers_tracer_and_modules()
    suites = importlib.import_module("fraczee.checks").SUITES
    budgets = {}

    def counted(name, suite):
        def run(seed, nodes):
            before = {**tracer.calls, **tracer.counts}
            reports = suite(seed, nodes)
            after = {**tracer.calls, **tracer.counts}
            budgets[name] = tuple(int(after.get(k, 0) - before.get(k, 0)) for k in _VERIFY_NAMES)
            return reports
        return run

    for name, suite in list(suites.items()):
        monkeypatch.setitem(suites, name, counted(name, suite))
    try:
        layers.install(tracer, fz)
        assert fz.cli.main(["verify", "all", "--seed", "1729"]) == 0
    finally:
        tracer.restore()
    assert budgets == VERIFY_BUDGETS
