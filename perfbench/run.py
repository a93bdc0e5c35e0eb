"""fraczee benchmark: seeded closed-loop workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit|algebra|levels|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

One process with one client thread sends one request at a time (a closed
loop) from a request stream that the seed generates, for ``--seconds``
seconds.  Each request's output is checked against ``oracle`` after its
timer stops.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics.  ``setup_s`` is the median over
  several fresh interpreters of their set-up: start, ``import fraczee``
  and ``fraczee.cli``, input generation and one warm-up request of each
  kind.  ``op_p50_s`` and ``op_tail_s`` are the median and the highest
  percentile with at least ten samples beyond it of one operation's
  latency; ``ops_per_s`` is operations per second of time spent in
  operations; ``peak_rss_mb`` is the process's peak resident memory.
  Times are CPU time at a reference speed (see ``speed``), which a shared
  host's preemptions and speed changes do not move;
* ``--trace 1``: half the time untraced, then the same requests again
  with fraczee's public names wrapped (``layers``), giving the per-layer
  metrics (wall times) and ``trace.overhead_frac``.

Every operation of the timed stream should pass; ``failed`` counts those
that did not, and ``correct`` is false when any did.  Probes of known
defects run once each after the timed phase, untimed: one that fails in
the documented way is listed as a known defect and is not counted, and
one that fails in another way counts as failed.  Lines above the JSON
give every metric with its unit, ``failed_frac``, the checks passed per
request kind and the failed requests.  The full record (environment, raw wall times, tail
percentile, failures, spans) goes to ``.perfbench/results/`` in the
checkout.
"""

from __future__ import annotations

import os

# one client thread: keep BLAS/OpenMP from starting worker threads; this
# must happen before numpy is imported, here or in any child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("specfun", "monomial", "rlquad", "operators", "spectrum", "dataset", "fitting", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: fresh-interpreter set-ups per run; a fit set-up includes a warm-up fit
SETUPS = {"fit": 3, "algebra": 5, "levels": 5}
CHILD_TIMEOUT_S = 120
SHOWN_FAILURES = 6


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fit", "algebra", "levels", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one set-up and one-start fits, for the tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(args, workdir: Path):
    """Import fraczee from the checkout, generate inputs, warm up."""
    fz = SimpleNamespace(**{m: importlib.import_module(f"fraczee.{m}") for m in MODULES})
    wl = workloads.WORKLOADS[args.workload](fz, args.seed, workdir, args.smoke)
    wl.warmup()
    return fz, wl


def _workdir(args) -> Path:
    d = OUT / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _child(argv: list[str], env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc


def _measure_setup(args) -> tuple[float, float]:
    """Set-up of a fresh interpreter, from its start to the end of its
    warm-up: wall time, and CPU time at the reference speed."""
    t0 = time.monotonic()
    proc = _child([str(Path(__file__)), "--setup-only", "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", "0"]
                  + (["--smoke"] if args.smoke else []))
    end, cpu, stolen, kernel = (float(v) for v in proc.stdout.split()[-4:])
    return end - t0, (cpu - stolen) * speed.REFERENCE_S / kernel


def _setup_only(args) -> None:
    """The child side of :func:`_measure_setup`."""
    workdir = _workdir(args)
    try:
        with speed.Speed() as cal:
            _setup(args, workdir)
            # process CPU time counts from the interpreter's start
            end, cpu, stolen = time.monotonic(), time.process_time(), cal.stolen
        print(end, cpu, stolen, cal.mean_kernel(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import_times() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = _child(["-X", "importtime", "-c", "import fraczee, fraczee.cli"], env=env)
    return layers.import_times(proc.stderr)


def _loop(wl, seconds: float, run, tracer=None, calibrate=True) -> dict:
    """Closed loop over the request stream; only ``run`` is inside the timer.

    ``lat`` holds thread CPU times, at the reference speed when
    ``calibrate`` is set (see :mod:`speed`); ``raw_lat`` holds wall times.
    """
    clock, cpu = time.perf_counter, time.thread_time
    cal = speed.Speed() if calibrate else None
    raw, timed, known, unexpected = [], [], [], []
    kinds: dict[str, list[int]] = {}  # kind -> [sent, passed]
    start = clock()
    i = 0
    with cal or contextlib.nullcontext():
        while i == 0 or clock() - start < seconds:
            req = wl.request(i)
            if tracer is not None:
                tracer.op_id = i
            stolen = cal.stolen if cal else 0.0
            t0, c0 = clock(), cpu()
            try:
                out = run(req)
            except Exception as exc:
                out = workloads.Raised(exc)
            c1, t1 = cpu(), clock()
            raw.append(t1 - t0)
            timed.append((t0, t1, c1 - c0 - ((cal.stolen - stolen) if cal else 0.0)))
            status, note = wl.check(req, out)
            tally = kinds.setdefault(req["kind"], [0, 0])
            tally[0] += 1
            tally[1] += status == workloads.OK
            if status == workloads.KNOWN:
                known.append(f"#{i} {req['kind']}: {note}")
            elif status == workloads.FAIL:
                unexpected.append(f"#{i} {req['kind']}: {note}")
            i += 1
    lat = [cal.scale(net, t0, t1) if cal else net for t0, t1, net in timed]
    return {"lat": lat, "raw_lat": raw, "kinds": kinds, "known": known, "unexpected": unexpected}


def _probe(wl) -> tuple[list[str], list[str]]:
    """Send the workload's known-defect probes once each, untimed."""
    known, unexpected = [], []
    for req in wl.probes():
        try:
            out = wl.run(req)
        except Exception as exc:
            out = workloads.Raised(exc)
        status, note = wl.check(req, out)
        if status == workloads.KNOWN:
            known.append(f"probe {req['kind']}: {note}")
        elif status == workloads.FAIL:
            unexpected.append(f"probe {req['kind']}: {note}")
    return known, unexpected


def _tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): highest percentile with >= 10 samples above it."""
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _run_workload(args) -> int:
    # set-up time is an end-to-end metric only
    n_setups = 0 if args.trace else 1 if args.smoke else SETUPS[args.workload]
    samples = [_measure_setup(args) for _ in range(n_setups)]
    raw_setups = [raw for raw, _ in samples]
    setups = [scaled for _, scaled in samples]
    workdir = _workdir(args)
    try:
        fz, wl = _setup(args, workdir)
        # set-up's objects (scipy's above all) would make each full
        # collection in the timed phase rescan them: a 20-30 ms pause that
        # lands in the tail of whichever operation triggers it
        gc.collect()
        gc.freeze()
        if args.trace:
            phases, metrics, spans, probes = _traced(args, fz, wl)
        else:
            phases = [_loop(wl, args.seconds, wl.run)]
            probes = _probe(wl)
            spans = None
            lat = phases[0]["lat"]
            tail, pct, n = _tail(lat)
            metrics = {
                "setup_s": statistics.median(setups),
                "op_p50_s": statistics.median(lat),
                "op_tail_s": tail,
                "ops_per_s": len(lat) / sum(lat),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["lat"]) for p in phases)
    known = [k for p in phases for k in p["known"]] + probes[0]
    unexpected = [u for p in phases for u in p["unexpected"]] + probes[1]
    failed = len(unexpected)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args),
        "passed_by_kind": phases[-1]["kinds"],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "known_defects": known,
        "unexpected_failures": unexpected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if not args.trace:
        raw = phases[0]["raw_lat"]
        record["op_tail"] = {"percentile": pct, "samples": n}
        record["raw_wall"] = {
            "setup_s": statistics.median(raw_setups),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": _tail(raw)[0],
            "ops_per_s": len(raw) / sum(raw),
        }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    _summary(record)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def _traced(args, fz, wl):
    # uncalibrated: the kernel would run inside the spans it interrupts
    half = args.seconds / 2.0
    plain = _loop(wl, half, wl.run, calibrate=False)
    wl.counts.clear()
    tracer = Tracer()
    layers.install(tracer, fz)
    try:
        traced = _loop(wl, half, tracer.wrap(wl.run, "op"), tracer, calibrate=False)
        # the probes' layer calls (cli.nonzero_exits, ...) count, outside any op
        probes = _probe(wl)
    finally:
        tracer.restore()
    # both phases send the same requests from the start of the stream
    n = min(len(plain["lat"]), len(traced["lat"]))
    overhead = 1.0 - sum(plain["lat"][:n]) / sum(traced["lat"][:n])
    metrics = layers.per_layer(tracer, wl.counts, _import_times(), overhead)
    return [plain, traced], metrics, tracer.spans, probes


def _summary(rec: dict) -> None:
    env = rec["environment"]
    print(f"== {rec['workload']} seed={env['seed']} trace={rec['trace']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"threads=1")
    for name, m in rec["metrics"].items():
        print(f"  {name:40s} {m['value']:<24.6g} {m['unit']}")
    if "op_tail" in rec:
        t = rec["op_tail"]
        print(f"  op_tail_s is p{t['percentile']:.2f} of {t['samples']} operations")
    print(f"  {'failed_frac':40s} {rec['failed_frac']:<24.6g} 1  "
          f"({rec['failed']} of {rec['attempted']})")
    print("  passed oracle checks: " + ", ".join(
        f"{kind} {passed}/{sent}" for kind, (sent, passed) in rec["passed_by_kind"].items()))
    for label, notes in (("known defect", rec["known_defects"]),
                         ("UNEXPECTED FAILURE", rec["unexpected_failures"])):
        for note in notes[:SHOWN_FAILURES]:
            print(f"  {label}: {note}")
        if len(notes) > SHOWN_FAILURES:
            print(f"  ... {len(notes) - SHOWN_FAILURES} more, listed in the results file")


def _run_all(args) -> int:
    """Every workload in its own process; the last line maps name -> result."""
    results = {}
    for name in ("fit", "algebra", "levels"):
        argv = [str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fraczee" / "__init__.py").is_file():
        print(f"fraczee sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        _setup_only(args)
        return 0
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
