"""The benchmark's three workloads: ``fit``, ``algebra`` and ``levels``.

A workload turns (seed, i) into request number i: the same seed gives the
same stream, and no request repeats, so the tail latency is an order
statistic of distinct inputs.  The timed loop sends them one at a time (a
closed loop with one client), making request i just before its turn:
``run`` makes only the calls into fraczee, and ``check`` compares what
came back with :mod:`oracle` after the timer has stopped.  ``check``
returns one of

* ``OK``: every output matched its oracle;
* ``KNOWN``: the request is a probe of a defect this commit is known to
  have, and it failed in exactly the documented way;
* ``FAIL``: anything else that raised, let an exception escape, or
  returned a wrong value.

Probes of known defects (``probes``) are not part of the timed stream:
every operation there should pass, and a defect's failure would make
the failed count depend on how many requests fit into the run.  They
run a fixed number of times per run, after the timed phase.

Every call goes through a module attribute (``self.fz.fitting.fit``, not
a bound name) so that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import defaultdict
from pathlib import Path
from typing import Iterator

import oracle

OK, KNOWN, FAIL = "ok", "known-defect", "fail"


class Raised:
    """An exception that escaped ``run``."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


class Workload:
    name = ""
    #: request kinds; the warm-up sends the first request of each
    kinds: tuple[str, ...] = ()

    def __init__(self, fz, seed: int, workdir: Path, smoke: bool):
        self.fz = fz
        self.seed = seed
        self.workdir = workdir
        #: counters only the oracle can compute, published by the traced run
        self.counts: dict[str, float] = defaultdict(float)

    def rng(self, i: int | str) -> random.Random:
        return random.Random(f"{self.name}-{self.seed}-{i}")

    def warmup(self) -> None:
        """The first request of each kind; the checks run but do not count."""
        todo, i = set(self.kinds), 0
        while todo:
            if self.kind(i) in todo:
                todo.discard(self.kind(i))
                req = self.request(i)
                try:
                    out = self.run(req)
                except Exception as exc:
                    out = Raised(exc)
                self.check(req, out)
            i += 1
        self.counts.clear()

    def kind(self, i: int) -> str:
        raise NotImplementedError

    def probes(self) -> Iterator[dict]:
        """Requests that probe known defects, the same in every run."""
        return iter(())

    def request(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, req: dict):
        raise NotImplementedError

    def check(self, req: dict, out) -> tuple[str, str]:
        raise NotImplementedError


def _fail(what: str) -> tuple[str, str]:
    return FAIL, what


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


class FitWorkload(Workload):
    """Default-config fits: the built-in selection, then synthetic tables.

    Each operation is load_records -> select_records -> fit -> objective
    -> predict.  The synthetic tables are the level formula at parameters
    drawn near the reference region, plus Gaussian relative noise.
    """

    name = "fit"
    kinds = ("builtin", "synthetic")
    METRIC_CHECK_REL = 1e-9

    def __init__(self, fz, seed, workdir, smoke):
        super().__init__(fz, seed, workdir, smoke)
        Multiplet = fz.spectrum.Multiplet
        self.meson_band = [(L, M) for L in (1, 2) for M in range(L + 1)]
        self.mults = [Multiplet(L, M) for L, M in self.meson_band]
        self.cfg = fz.fitting.FitConfig()
        # the warm-up fits with one start instead of 32: it loads the same
        # code and pays the same first-use costs in a twentieth of the time
        self.warm_cfg = fz.fitting.FitConfig(starts=1)
        if smoke:
            self.cfg = self.warm_cfg

        builtin = [
            (r.name, r.L, r.M, r.mass_mev, r.status, r.group)
            for r in fz.dataset.builtin_table()
        ]
        path = workdir / "builtin.csv"
        path.write_text(oracle.table_csv(builtin))
        lo, hi = self.cfg.l_range
        rows = [
            (L, M, m)
            for name, L, M, m, _, group in builtin
            if group in self.cfg.include_groups
            and lo <= L <= hi
            and name not in self.cfg.exclude_names
        ]
        self.builtin = {"kind": "builtin", "path": path, "rows": rows, "gen": None}

    def kind(self, i):
        return "builtin" if i == 0 else "synthetic"

    def request(self, i):
        if i == 0:
            return self.builtin
        rng = self.rng(i)
        alpha = rng.uniform(0.08, 0.4)
        a0 = oracle.REFERENCE[2] * rng.uniform(0.7, 1.3)
        b0 = oracle.REFERENCE[3] * rng.uniform(0.7, 1.3)
        band = [
            (L, M)
            for L in range(rng.randint(1, 3), rng.randint(9, 12) + 1)
            for M in range(L + 1)
        ]
        # m0 puts the lightest level of the band at 800-1200 MeV
        lightest = min(oracle.mass((alpha, 0.0, a0, b0), L, M)[0] for L, M in band)
        p = (alpha, rng.uniform(800.0, 1200.0) - lightest, a0, b0)
        sigma = rng.uniform(0.0, 0.01)
        table = []
        for L, M in band:
            m = oracle.mass(p, L, M)[0] * (1.0 + rng.gauss(0.0, sigma))
            table.append((f"S{L}_{M}", L, M, m, "", "baryon"))
        path = self.workdir / "synthetic.csv"
        path.write_text(oracle.table_csv(table))
        lo, hi = self.cfg.l_range
        rows = [(L, M, m) for _, L, M, m, _, _ in table if lo <= L <= hi]
        return {
            "kind": "synthetic",
            "path": path,
            "rows": rows,
            "gen": p,
            "loss_gen": oracle.loss_rms_mev(p, rows),
        }

    def warmup(self) -> None:
        cfg, self.cfg = self.cfg, self.warm_cfg
        try:
            super().warmup()
        finally:
            self.cfg = cfg

    def run(self, req):
        dataset, fitting = self.fz.dataset, self.fz.fitting
        records = dataset.load_records(req["path"])
        selected = fitting.select_records(records, self.cfg)
        result = fitting.fit(selected, self.cfg)
        obj = fitting.objective(result.params, selected)
        pred = fitting.predict(result.params, self.mults)
        return len(selected), result, obj, pred

    def check(self, req, out):
        if isinstance(out, Raised):
            return _fail(f"{req['kind']} fit raised {out!r}")
        n_sel, result, obj, pred = out
        rows = req["rows"]
        if n_sel != len(rows):
            return _fail(f"selected {n_sel} records, expected {len(rows)}")
        p = result.params.astuple()
        loss = oracle.loss_rms_mev(p, rows)
        floor = max(loss, 10.0)
        if not oracle.close(result.loss_rms_mev, loss, self.METRIC_CHECK_REL, floor):
            return _fail(f"loss_rms_mev {result.loss_rms_mev!r} != {loss!r}")
        rms = oracle.rms_percent(p, rows)
        for got in (obj, result.rms_percent):
            if not oracle.close(got, rms, self.METRIC_CHECK_REL, max(rms, 1e-3)):
                return _fail(f"rms percent {got!r} != {rms!r}")
        for (L, M), (_, e) in zip(self.meson_band, pred):
            want, scale = oracle.mass(p, L, M)
            if not oracle.close(e, want, 1e-10, scale):
                return _fail(f"predict L={L} M={M}: {e!r} != {want!r}")
        if req["kind"] == "builtin":
            if abs(p[0] - oracle.BUILTIN_FIT_ALPHA) > oracle.BUILTIN_FIT_ALPHA_TOL:
                return _fail(f"built-in fit alpha {p[0]!r}")
            if round(result.rms_percent, 3) != oracle.BUILTIN_FIT_RMS_PERCENT:
                return _fail(f"built-in fit r.m.s. {result.rms_percent!r} %")
            return OK, ""
        # optimality certificate: the generating parameters are a feasible
        # point, so the optimum cannot be worse; the slack is 1e-9 of the
        # loss, or of the mass scale when the noise is near zero
        mean_mass = math.fsum(m for _, _, m in rows) / len(rows)
        slack = 1e-9 * max(req["loss_gen"], mean_mass)
        if loss > req["loss_gen"] + slack:
            return _fail(
                f"fitted loss {loss!r} MeV above {req['loss_gen']!r} at the "
                f"generating parameters {req['gen']}"
            )
        return OK, ""


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------

AXES = ("x", "y", "z", "t")
CHECK_KINDS = (
    "commutation",
    "kkk",
    "j-algebra",
    "zeeman",
    "connection",
    "semigroup",
    "leibniz",
    "lz-h",
)
#: tolerances of the identity checks, as the paper's identities are exact
CHECK_TOL = {
    "commutation": 1e-10,
    "kkk": 1e-10,
    "j-algebra": 1e-10,
    "zeeman": 1e-10,
    "connection": 1e-12,
    "semigroup": 1e-10,
    "leibniz": 1e-9,
}
#: [K_z(1), H^alpha] must stay above this for alpha < 1
LZ_H_FLOOR = 1e-6


def _text(terms) -> str:
    out = []
    for i, (c, exps) in enumerate(terms):
        body = "*".join(
            [repr(abs(c))] + [f"{a}^{e!r}" for a, e in zip(AXES, exps) if e != 0.0]
        )
        if i == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(out)


class AlgebraWorkload(Workload):
    """Symbolic derivatives (4 in 5 requests) and identity checks (1 in 5)."""

    name = "algebra"
    kinds = ("derive",) + CHECK_KINDS
    QUAD_NODES = 64
    #: relative roundoff of the quadrature on integrands it resolves exactly,
    #: per unit of B(1 - order, 1 + left)
    QUAD_ROUNDOFF = 1e-9

    def kind(self, i):
        return CHECK_KINDS[(i // 5) % len(CHECK_KINDS)] if i % 5 == 4 else "derive"

    def request(self, i):
        kind, rng = self.kind(i), self.rng(i)
        return self._derive_request(rng) if kind == "derive" else self._check_request(rng, kind)

    def _derive_request(self, rng) -> dict:
        axis = rng.randrange(4)
        order = round(rng.uniform(-1.5, 2.5), 3)
        n_terms = rng.randint(1, 6)
        terms, seen = [], set()
        while len(terms) < n_terms:
            exps = [0.0] * 4
            for j in range(4):
                if j != axis and rng.random() < 0.5:
                    exps[j] = round(rng.uniform(-0.9, 3.0), 3)
            if order > 0.0 and rng.random() < 0.25:
                # 1 + v - order = -k: a pole of 1/Gamma annihilates the term
                exps[axis] = order - 1.0 - rng.randrange(math.ceil(order))
            else:
                low = max(-0.9, order - 0.95)
                exps[axis] = round(rng.uniform(low, low + 3.0), 3)
            key = tuple(round(e, 9) for e in exps)
            if key in seen:
                continue
            seen.add(key)
            coeff = round(rng.uniform(0.1, 10.0), 4) * rng.choice((1.0, -1.0))
            terms.append((coeff, tuple(exps)))
        point = tuple(round(rng.uniform(0.5, 2.0), 3) for _ in AXES)
        want = oracle.power_rule(terms, axis, order)
        value, scale = oracle.evaluate([(c, k) for k, c in want.items()], point)
        return {
            "kind": "derive",
            "text": _text(terms),
            "terms": terms,
            "axis": axis,
            "order": order,
            "point": point,
            "quad": 0.0 < order < 1.0,
            "left": min(e[axis] for _, e in terms),
            "want": want,
            "value": value,
            "scale": scale,
            "quad_tol": self._quad_tol(terms, axis, order, point, scale) if 0.0 < order < 1.0 else None,
        }

    def _quad_tol(self, terms, axis, order, point, scale) -> tuple[float, float]:
        """(tolerance, scale): an a priori bound on the quadrature's error.

        The Jacobi weight absorbs s^left exactly, so a term whose exponent
        differs from ``left`` by an integer is integrated to roundoff.  Any
        other term c s^v leaves a branch point in the integrand, and
        n-point Gauss-Jacobi converges only like n^(-2(v+1)) on it; the
        bound charges each such term its magnitude at the point times that
        rate, times a safety factor of 1000.  Both are relative to the
        larger of the derivative's and f's terms, as f stays nonzero when
        every term of the derivative is annihilated.
        """
        left = min(e[axis] for _, e in terms)
        rough = [
            (c, e) for c, e in terms
            if abs(e[axis] - left - round(e[axis] - left)) > 1e-9
        ]
        slow = math.fsum(
            abs(oracle.evaluate([t], point)[0]) * self.QUAD_NODES ** (-2.0 * (t[1][axis] + 1.0))
            for t in rough
        )
        full = max(scale, oracle.evaluate(terms, point)[1])
        # the outer central difference loses about eps/h of the inner
        # integral, which grows like B(1 - order, 1 + left)
        beta = math.exp(math.lgamma(1.0 - order) + math.lgamma(1.0 + left) - math.lgamma(2.0 - order + left))
        return self.QUAD_ROUNDOFF * beta + 1000.0 * slow / full, full

    def _check_request(self, rng, kind: str) -> dict:
        req = {
            "kind": kind,
            "exps": tuple(rng.randint(2, 6) for _ in range(3)),
            "alpha": round(rng.uniform(0.3, 0.95), 3),
        }
        if kind == "kkk":
            req["beta"] = round(rng.uniform(0.2, 1.0), 3)
        elif kind in ("zeeman", "connection"):
            req["B"] = round(rng.uniform(0.5, 2.0), 3)
            req["alpha"] = round(rng.uniform(0.1, 0.95), 3)
        elif kind == "semigroup":
            req["axis"] = rng.randrange(3)
            req["orders"] = tuple(round(rng.uniform(0.05, 0.95), 3) for _ in range(2))
        elif kind == "leibniz":
            axis = rng.randrange(3)
            phi = []
            for _ in range(rng.randint(1, 3)):
                exps = [0.0] * 4
                exps[axis] = float(rng.randint(0, 3))
                exps[(axis + 1) % 3] = float(rng.randint(0, 2))
                phi.append((round(rng.uniform(0.5, 3.0), 3), tuple(exps)))
            exps = [0.0] * 4
            exps[axis] = round(rng.uniform(0.2, 3.0), 3)
            exps[(axis + 2) % 3] = round(rng.uniform(0.0, 2.0), 3)
            psi = [(1.0, tuple(exps))]
            # merge equal phi exponents before the product, as PolyExpr does
            merged = oracle.product(phi, [(1.0, (0.0,) * 4)])
            req.update(
                axis=axis,
                phi=phi,
                psi=psi,
                K=max(1, int(max(e[axis] for _, e in phi))),
                want=oracle.power_rule(oracle.product(merged, psi), axis, req["alpha"]),
            )
        return req

    def _poly(self, terms):
        m = self.fz.monomial
        return m.PolyExpr.from_terms(
            m.term(c, **{a: e for a, e in zip(AXES, exps) if e != 0.0}) for c, exps in terms
        )

    def _monomial(self, req):
        a, b, c = req["exps"]
        return self._poly([(1.0, (float(a), float(b), float(c), 0.0))])

    def run(self, req):
        kind = req["kind"]
        fz = self.fz
        ops = fz.operators
        if kind == "derive":
            m = fz.monomial
            axis = AXES[req["axis"]]
            expr = m.parse_expr(req["text"])
            result = m.rl_derive(expr, axis, req["order"])
            text = result.render()
            value = result.evaluate(dict(zip(AXES, req["point"])))
            quad = None
            if req["quad"]:
                quad = fz.rlquad.rl_derivative_quad(
                    self._slice(req),
                    req["order"],
                    req["point"][req["axis"]],
                    self.QUAD_NODES,
                    left_exponent=req["left"],
                )
            return expr, result, text, value, quad
        alpha = req["alpha"]
        if kind == "leibniz":
            return fz.rlquad.leibniz_series(
                self._poly(req["phi"]), self._poly(req["psi"]), AXES[req["axis"]], alpha, req["K"]
            )
        if kind == "connection":
            return ops.check_connection_reduction(req["B"], alpha, K_max=5)
        f = self._monomial(req)
        if kind == "commutation":
            return ops.check_commutation(alpha, f)
        if kind == "kkk":
            return ops.check_kkk(alpha, req["beta"], f)
        if kind == "j-algebra":
            return ops.verify_J_algebra(alpha, f)
        if kind == "zeeman":
            return ops.check_zeeman_reduction(req["B"], alpha, f)
        if kind == "semigroup":
            return ops.check_semigroup(f, AXES[req["axis"]], req["orders"])
        return ops.commutator(ops.build_Kz(1.0), ops.build_H(alpha), f).max_abs_coeff()

    def _slice(self, req):
        """f(s): the input expression along the derived axis, in plain Python."""
        i, point = req["axis"], req["point"]
        parts = []
        for c, exps in req["terms"]:
            for j, e in enumerate(exps):
                if j != i and e != 0.0:
                    c *= point[j] ** e
            parts.append((c, exps[i]))
        counts = self.counts

        def f(s: float) -> float:
            counts["rlquad.f_evals"] += 1
            return math.fsum(c * s**v for c, v in parts)

        return f

    def check(self, req, out):
        kind = req["kind"]
        if isinstance(out, Raised):
            return _fail(f"{kind} raised {out!r}")
        if kind == "derive":
            return self._check_derive(req, *out)
        if kind == "leibniz":
            got = {tuple(round(e, 9) for e in t.exps): t.coeff for t in out.terms}
            if not oracle.same_terms(got, req["want"], CHECK_TOL["leibniz"], 1e-11):
                return _fail(f"leibniz series {req} != direct product derivative")
            return OK, ""
        if kind == "lz-h":
            margin = out / LZ_H_FLOOR
            self._margin(margin, out > LZ_H_FLOOR)
            if not out > LZ_H_FLOOR:
                return _fail(f"[Lz, H] residual {out!r} at alpha {req['alpha']}")
            return OK, ""
        tol = CHECK_TOL[kind]
        worst = max(out.residuals.values(), default=0.0)
        passed = worst < tol and out.passed
        self._margin(tol / max(worst, 1e-300), passed)
        if not passed:
            return _fail(f"{out.name} residual {worst!r} (tolerance {tol}) for {req}")
        return OK, ""

    def _margin(self, margin: float, passed: bool) -> None:
        c = self.counts
        c["operators.check.margin_min"] = min(c.get("operators.check.margin_min", math.inf), margin)
        c["operators.check.failed"] += not passed

    def _check_derive(self, req, expr, result, text, value, quad):
        parsed = {t.exps: t.coeff for t in expr.terms}
        if parsed != {e: c for c, e in req["terms"]}:
            return _fail(f"parse of {req['text']!r} gave {expr.terms}")
        got = {tuple(round(e, 9) for e in t.exps): t.coeff for t in result.terms}
        if not oracle.same_terms(got, req["want"], 1e-11, 1e-11):
            return _fail(f"D^{req['order']} on {AXES[req['axis']]} of {req['text']!r}")
        pieces = 1 + text.count(" + ") + text.count(" - ")
        if pieces != max(1, len(result.terms)) or (text == "0") != (not result.terms):
            return _fail(f"render {text!r} of {len(result.terms)} terms")
        if not oracle.close(value, req["value"], 1e-10, req["scale"]):
            return _fail(f"evaluate {value!r} != {req['value']!r}")
        if quad is not None:
            tol, full = req["quad_tol"]
            dev = abs(quad - req["value"]) / full
            c = self.counts
            c["rlquad.rel_dev_max"] = max(c.get("rlquad.rel_dev_max", 0.0), dev)
            if not dev <= tol:
                return _fail(f"quadrature {quad!r} vs {req['value']!r} for {req['text']!r}")
        return OK, ""


# ----------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------

PROBES = ("overflow", "params-no-m0", "inf-mass")


class LevelsWorkload(Workload):
    """Forward level requests, and one probe of each known defect.

    A request computes ``spectrum`` and ``predict``, ``objective`` and
    ``loss_rms_mev`` over the built-in table, round-trips the table
    through CSV and JSON files, and runs ``fraczee report`` in-process.
    A probe, sent once per kind after the timed phase, is the same
    request with a defective input to the report:

    * ``overflow``: a data row at (L+1) alpha > 142, where ``gamma``
      overflows today.  It is the last row and the theory band is empty;
    * ``params-no-m0``: a params file without ``m0_mev``;
    * ``inf-mass``: a data row with an infinite mass.

    The correct outcome of a probe is exit code 2 with no exception
    escaping; for ``overflow`` a correct table with exit code 0 is also
    right.
    """

    name = "levels"
    kinds = ("request",)

    def __init__(self, fz, seed, workdir, smoke):
        super().__init__(fz, seed, workdir, smoke)
        self.records = fz.dataset.builtin_table()
        self.builtin = [(r.name, r.L, r.M, r.mass_mev, r.status, r.group) for r in self.records]
        self.builtin_rows = [(r.L, r.M, r.mass_mev) for r in self.records]
        self.meson_band = [(L, M) for L in (1, 2) for M in range(L + 1)]
        self.csv_path = workdir / "roundtrip.csv"
        self.json_path = workdir / "roundtrip.json"
        self.out_dir = workdir / "report"
        self.data_path = workdir / "builtin.csv"
        self.data_path.write_text(oracle.table_csv(self.builtin))

    def kind(self, i):
        return "request"

    def probes(self):
        # one at a time: a request writes the params and data files it uses
        for probe in PROBES:
            yield self.request(-1, probe)

    def request(self, i, probe=None):
        rng = self.rng(i if probe is None else f"probe-{probe}")
        if probe == "overflow":
            alpha = 1.0 if rng.random() < 0.3 else round(rng.uniform(0.8, 1.0), 4)
        elif probe is not None:
            alpha = round(rng.uniform(0.02, 1.0), 4)
        elif i % 10 == 0:
            alpha = 1.0
        elif i % 10 == 1:
            alpha = 0.112
        else:
            alpha = round(rng.uniform(0.02, 1.0), 4)
        ref = oracle.REFERENCE
        p = (
            alpha,
            round(ref[1] * rng.uniform(0.9, 1.1), 2),
            round(ref[2] * rng.uniform(0.9, 1.1), 2),
            round(ref[3] * rng.uniform(0.9, 1.1), 2),
        )
        lo = rng.randint(0, 14)
        hi = lo + rng.randint(0, 2)
        req = {
            "kind": probe or "request",
            "params": p,
            "band": [(L, M) for L in range(lo, hi + 1) for M in range(L + 1)],
            "report_band": (lo, hi),
            "data": self.data_path,
            "extra_row": None,
        }
        doc = {"params": {"alpha": p[0], "m0_mev": p[1], "a0_mev": p[2], "b0_mev": p[3]}}
        if probe == "params-no-m0":
            del doc["params"]["m0_mev"]
        req["params_path"] = self.workdir / "params.json"
        req["params_path"].write_text(json.dumps(doc))
        if probe in ("overflow", "inf-mass"):
            if probe == "overflow":
                L = rng.randint(180, 220)
                row = (f"probe_L{L}", L, rng.randint(0, L), 5000.0, "", "baryon")
            else:
                L = rng.randint(3, 9)
                row = (f"probe_L{L}", L, rng.randint(0, L), math.inf, "", "baryon")
            req["extra_row"] = row
            req["report_band"] = (1, 0)
            req["data"] = self.workdir / "probe.csv"
            req["data"].write_text(oracle.table_csv(self.builtin + [row]))
        return req

    def run(self, req):
        fz = self.fz
        Multiplet = fz.spectrum.Multiplet
        p = fz.spectrum.FitParams(*req["params"])
        levels = fz.spectrum.spectrum(p, [Multiplet(L, M) for L, M in req["band"]])
        pred = fz.fitting.predict(p, [Multiplet(L, M) for L, M in self.meson_band])
        obj = fz.fitting.objective(p, self.records)
        loss = fz.fitting.loss_rms_mev(p, self.records)

        ds = fz.dataset
        self.csv_path.write_text(ds.records_to_csv(self.records))
        from_csv = ds.load_records(self.csv_path)
        self.json_path.write_text(ds.records_to_json(self.records))
        from_json = ds.load_records(self.json_path)

        lo, hi = req["report_band"]
        argv = [
            "report",
            "--params-file", str(req["params_path"]),
            "--data", str(req["data"]),
            "--l-min", str(lo),
            "--l-max", str(hi),
            "--out-dir", str(self.out_dir),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fz.cli.main(argv)
        except Exception as exc:
            code = Raised(exc)
        return levels, pred, obj, loss, from_csv, from_json, code

    def check(self, req, out):
        kind = req["kind"]
        files = {}
        for name in ("table.csv", "plot.tsv"):
            path = self.out_dir / name
            if path.exists():
                files[name] = path.read_text().splitlines()
                path.unlink()
        if isinstance(out, Raised):
            return _fail(f"{kind} raised {out!r}")
        levels, pred, obj, loss, from_csv, from_json, code = out
        p = req["params"]
        for band, got in ((req["band"], levels), (self.meson_band, pred)):
            if len(got) != len(band):
                return _fail(f"{len(got)} levels for a band of {len(band)}")
            for (L, M), (mult, e) in zip(band, got):
                why = self._level_error(p, L, M, e)
                if why or (mult.L, mult.M) != (L, M):
                    return _fail(f"level L={L} M={M} at {p}: {why}")
        rms = oracle.rms_percent(p, self.builtin_rows)
        rmev = oracle.loss_rms_mev(p, self.builtin_rows)
        if not (oracle.close(obj, rms, 1e-9) and oracle.close(loss, rmev, 1e-9)):
            return _fail(f"objective {obj!r}/{rms!r} or loss {loss!r}/{rmev!r} at {p}")
        for loaded in (from_csv, from_json):
            if [(r.name, r.L, r.M, r.mass_mev, r.status, r.group) for r in loaded] != self.builtin:
                return _fail("CSV/JSON round trip changed the built-in table")
        return self._check_report(req, code, files)

    def _level_error(self, p, L, M, e) -> str:
        want, scale = oracle.mass(p, L, M)
        if not oracle.close(e, want, 1e-10, scale):
            return f"{e!r} != {want!r} (lgamma ratio)"
        if p[0] == 1.0 and not oracle.close(e, oracle.mass_alpha_one(p, L, M), 1e-10, scale):
            return f"{e!r} != m0 + a0 L(L+1) + b0 M"
        return ""

    def _check_report(self, req, code, files):
        kind = req["kind"]
        if kind == "request" or (kind == "overflow" and code == 0):
            if code != 0:
                return _fail(f"report exit {code!r} for {req['params']}")
            return self._check_report_files(req, files)
        if code == 2:
            return OK, ""
        seen = repr(code) if isinstance(code, Raised) else f"exit code {code}"
        if kind == "overflow" and isinstance(code, Raised) and isinstance(code.exc, OverflowError):
            return KNOWN, f"overflow probe {req['extra_row'][:3]} alpha={req['params'][0]}: {seen}"
        if kind == "params-no-m0" and isinstance(code, Raised) and isinstance(code.exc, KeyError):
            return KNOWN, f"params file without m0_mev: {seen}"
        if kind == "inf-mass" and code == 0:
            return KNOWN, f"data row {req['extra_row'][:3]} with mass inf: {seen}"
        return _fail(f"{kind} probe: {seen}, expected exit code 2")

    def _check_report_files(self, req, files):
        if len(files) != 2:
            return _fail(f"report wrote {sorted(files)}")
        p = req["params"]
        rows = self.builtin + ([req["extra_row"]] if req["extra_row"] else [])
        table = files["table.csv"]
        if len(table) != len(rows) + 1:
            return _fail(f"table.csv has {len(table) - 1} rows, expected {len(rows)}")
        for line, (name, L, M, *_rest) in zip(table[1:], rows):
            cells = line.split(",")
            if cells[0] != name or self._rounded_error(p, L, M, float(cells[4])):
                return _fail(f"table.csv row {line!r} at {p}")
        lo, hi = req["report_band"]
        band = [(L, M) for L in range(lo, hi + 1) for M in range(L + 1)]
        plot = files["plot.tsv"]
        theory = [ln.split("\t") for ln in plot[1:] if ln.startswith("theory_")]
        if len(theory) != len(band) or len(plot) - 1 - len(theory) != len(rows):
            return _fail(f"plot.tsv has {len(theory)} theory rows, expected {len(band)}")
        for cells, (L, M) in zip(theory, band):
            if (int(cells[1]), int(cells[2])) != (L, M) or self._rounded_error(p, L, M, float(cells[3])):
                return _fail(f"plot.tsv row {cells} at {p}")
        return OK, ""

    @staticmethod
    def _rounded_error(p, L, M, got: float) -> bool:
        """A value printed with two decimals is off by more than rounding."""
        want, scale = oracle.mass(p, L, M)
        return not abs(got - want) <= 0.005 + 1e-10 * scale


WORKLOADS = {w.name: w for w in (FitWorkload, AlgebraWorkload, LevelsWorkload)}
