import argparse
import csv
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fraczee
from fraczee import cli
from fraczee.cli import main
from fraczee.dataset import ParticleRecord, builtin_table, records_to_csv
from fraczee.fitting import DEFAULT_SEED

from reference_values import DE_PERCENT

FIXTURES = Path(__file__).parent / "fixtures"
FIT_SEED42 = FIXTURES / "fit_seed42.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(*argv):
    """Run ``python *argv`` on this checkout's package, bounded in time."""
    src = str(Path(fraczee.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


# ------------------------------------------------------------------ derive


def test_derive_half_order(capsys):
    code, out, _ = run(capsys, "derive", "x", "--axis", "x", "--order", "0.5")
    assert code == 0
    assert out.strip() == "1.1283791671*x^0.5"


def test_derive_classical(capsys):
    code, out, _ = run(capsys, "derive", "x^2", "--axis", "x", "--order", "1")
    assert code == 0
    assert out.strip() == "2*x"


def test_derive_with_point_and_quadrature(capsys):
    code, out, _ = run(
        capsys, "derive", "x", "--axis", "x", "--order", "0.5", "--at", "x=1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1.1283791671*x^0.5"
    assert lines[1].startswith("value: 1.128379167")
    deviation = float(lines[3].split(":")[1])
    assert deviation < 1e-6


def test_derive_zero_value_reports_absolute_deviation(capsys):
    # D^0.3 x^-0.7 = Gamma(0.3)/Gamma(0) x^-1 = 0: a relative deviation from
    # the exact zero would divide by the 1e-300 floor.  The Jacobi weight has
    # a + b = -1 here, where scipy's node routine divides by zero internally
    code, out, err = run(capsys, "derive", "x^-0.7", "--axis", "x", "--order", "0.3", "--at", "x=1")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["0", "value: 0"]
    label, deviation = lines[3].split(": ")
    assert label == "quadrature absolute deviation"
    assert float(deviation) == float(f"{abs(float(lines[2].split(': ')[1])):.3g}")
    assert float(deviation) < 1e-9
    assert "Warning" not in err


@pytest.mark.parametrize(
    "expr, at",
    [
        pytest.param("x", "x=inf", id="x=inf"),
        pytest.param("x", "x=nan", id="x=nan"),
        pytest.param("x", "x=-inf", id="x=-inf"),
        pytest.param("x", "x=1,y=nan", id="x=1,y=nan"),
        # finite points whose quadrature nodes or derivative value overflow
        pytest.param("x", "x=1e308", id="x=1e308"),
        pytest.param("x^3", "x=1e200", id="x^3 at x=1e200"),
    ],
)
def test_derive_rejects_non_finite_point(capsys, expr, at):
    code, out, err = run(capsys, "derive", expr, "--axis", "x", "--order", "0.5", "--at", at)
    assert code == 2
    assert "value:" not in out
    assert err.startswith("error: ") and "not finite" in err
    assert "Warning" not in err and "Traceback" not in err


def test_derive_point_too_small_for_the_step_exits_2(capsys):
    # the finite-difference step x * 1e-5 underflows to 0 at x = 1e-320
    code, _, err = run(capsys, "derive", "x^0.5", "--axis", "x", "--order", "0.5",
                       "--at", "x=1e-320")
    assert code == 2
    assert err.startswith("error: ") and "underflows" in err and "Traceback" not in err


@pytest.mark.parametrize("x", ["3e-319", "1e-312"])
def test_derive_subnormal_point_exits_2(capsys, x):
    # a nonzero but subnormal step keeps a few bits: 4.5% off at 3e-319
    code, out, err = run(capsys, "derive", "x^0.5", "--axis", "x", "--order", "0.5",
                         "--at", f"x={x}")
    assert code == 2
    assert "value:" not in out
    assert err.startswith("error: ") and "subnormal" in err and "Traceback" not in err


def test_derive_smallest_normal_points_keep_the_cross_check(capsys):
    for x in ("1e-307", "2.2250738585072014e-308"):
        code, out, _ = run(capsys, "derive", "x^0.5", "--axis", "x", "--order", "0.5",
                           "--at", f"x={x}")
        assert code == 0
        label, deviation = out.splitlines()[3].split(": ")
        assert label == "quadrature relative deviation" and float(deviation) < 1e-9


def test_derive_point_skips_empty_components(capsys):
    argv = ("derive", "x^2*y", "--axis", "x", "--order", "0.5", "--at")
    got = run(capsys, *argv, "x=1,,y=2,")
    assert got == run(capsys, *argv, "x=1,y=2") and got[0] == 0


def test_derive_zero_factor_after_an_overflowing_one_gives_zero(capsys):
    # 10^400 overflows a float, but y = 0 makes the term's value 0 whatever
    # the order of its factors
    code, out, err = run(capsys, "derive", "x^400*y^2", "--axis", "y", "--order", "0.5",
                         "--at", "x=10,y=0")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "value: 0"


@pytest.mark.parametrize(
    "expr, axis, at, want",
    [
        # the point does not supply an axis of the derivative
        pytest.param("x", "x", "y=1", 2, id="missing axis"),
        # a zero coordinate under a negative exponent
        pytest.param("x^-0.5", "y", "x=0,y=1", 3, id="domain error"),
        # the same, on an axis after a zero factor
        pytest.param("x^2*y^-0.5", "x", "x=0,y=0", 3, id="domain error after a zero factor"),
        # the quadrature nodes overflow
        pytest.param("x^0.5", "x", "x=1e308", 2, id="quadrature overflow"),
    ],
)
def test_derive_at_failure_prints_nothing(capsys, expr, axis, at, want):
    code, out, err = run(capsys, "derive", expr, "--axis", axis, "--order", "0.5", "--at", at)
    assert (code, out) == (want, "")
    assert err and "Traceback" not in err


def test_derive_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "derive", "x +* y", "--axis", "x", "--order", "1")
    assert code == 2
    assert "parse error" in err


def test_derive_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "derive", "x^0.2", "--axis", "x", "--order", "1.5")
    assert code == 3
    assert "domain error" in err


_DERIVE_PROBE = """
import json, sys
from fraczee.cli import main
print(json.dumps([main(["derive", e, "--axis", "x", "--order", "0.5"]) for e in sys.argv[1:]]))
"""


def test_derive_trailing_sign_or_caret_is_a_parse_error():
    # a sign run that does not stop at the end of the input never returns:
    # the child process's timeout bounds such a hang
    exprs = ["x +", "x^", "-", "x^-", "2*x + -"]
    proc = run_child("-c", _DERIVE_PROBE, *exprs)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [2] * len(exprs)
    assert proc.stdout.splitlines()[:-1] == []
    assert proc.stderr.count("parse error: ") == len(exprs)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "expr, prefix",
    [
        # finite literals whose product or exponent sum is not finite
        ("1e308*x*1e308", "parse error: "),
        ("x^1e308*x^1e308", "parse error: "),
        # a power-rule Gamma that raises OverflowError, and one that returns inf
        ("x^200.5", "error: "),
        ("x^141.3", "error: "),
    ],
)
def test_derive_non_finite_coefficient_exits_2(capsys, expr, prefix):
    code, out, err = run(capsys, "derive", expr, "--axis", "x", "--order", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and "Traceback" not in err


def test_derive_like_terms_summing_to_inf_exit_2(capsys):
    # order 0 returns the parsed expression, so the parser must catch it
    code, out, err = run(capsys, "derive", "1e308*x + 1e308*x", "--axis", "x", "--order", "0")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and "Traceback" not in err


# ------------------------------------------------------------------ verify


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["suites"]) == {
        "quad",
        "zeeman-field",
        "connection",
        "commutators",
        "spin-algebra",
    }


# (check name, tolerance, passed) of every report `verify all` emits, in order
T12, T10, T6 = 1e-12, 1e-10, 1e-6
VERIFY_SHAPE = {
    "quad": [("quad-vs-power-rule", T6, True)],
    "zeeman-field": [("curl-coefficient", T12, True), ("constant-field", T12, True)] * 3,
    "connection": [("connection-reduction", T12, True), ("zeeman-reduction", T10, True)] * 3,
    "commutators": [("Jz-H-commutation", T10, True)] * 4
    + [("Lz-H-noncommutation", T6, True)] * 4
    + [("kz-h-commutator", T10, True)] * 12,
    "spin-algebra": [("J-algebra", T10, True)] * 4
    + [("Sz-vanishes-at-alpha-1", T12, True)]
    + [("Jz-decomposition", T12, True)] * 4
    + [("Kz1-is-classical-Lz", T12, True)],
}


@pytest.mark.parametrize("seed", [None, "2024"])
def test_verify_report_shape_is_pinned(capsys, seed):
    code, out, _ = run(capsys, "verify", "all", *(["--seed", seed] if seed else []))
    assert code == 0
    suites = json.loads(out)["suites"]
    assert list(suites) == list(VERIFY_SHAPE)
    for name, shape in VERIFY_SHAPE.items():
        got = [(c["name"], c["tolerance"], c["passed"]) for c in suites[name]["checks"]]
        assert got == shape, name
        assert suites[name]["passed"] is True
    assert sum(len(s) for s in VERIFY_SHAPE.values()) == 43


@pytest.mark.parametrize("seed", ["1729", "2024"])
def test_verify_all_output_is_pinned(capsys, seed):
    # every residual to the last printed digit: the quadrature's 1/h outer
    # difference turns a 1-ulp change anywhere below it into a new number
    code, out, _ = run(capsys, "verify", "all", "--seed", seed)
    assert code == 0
    assert out == (FIXTURES / f"verify_all_seed{seed}.json").read_text()


def test_verify_quad_fails_with_too_few_nodes(capsys):
    code, out, _ = run(capsys, "verify", "quad", "--nodes", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


def test_verify_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "zeeman-field", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["passed"] is True


# --------------------------------------------------------------- spectrum


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--l-min", "3", "--l-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L\tM\tE_th_mev"
    assert len(lines) == 1 + 4
    assert lines[1].split("\t") == ["3", "0", "959.41"]


def test_predict_defaults_to_meson_band(capsys):
    code, out, _ = run(capsys, "predict")
    assert code == 0
    lines = out.strip().splitlines()
    # L=1: M=0,1 ; L=2: M=0,1,2
    assert len(lines) == 1 + 5
    assert lines[-1].split("\t")[:2] == ["2", "2"]
    assert float(lines[-1].split("\t")[2]) == pytest.approx(945.76, abs=0.05)


# the fixtures are the outputs of the per-row evaluator that preceded the
# cached-Casimir ``spectrum`` pass: the pass must not move a byte
@pytest.mark.parametrize(
    "argv, fixture",
    [
        (("spectrum", "--l-min", "0", "--l-max", "14"), "spectrum_reference_L0-14.tsv"),
        (("spectrum", "--alpha", "1", "--l-min", "0", "--l-max", "14"),
         "spectrum_alpha1_L0-14.tsv"),
        (("predict",), "predict_default.tsv"),
    ],
)
def test_level_table_is_pinned(capsys, argv, fixture):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (FIXTURES / fixture).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("--m0", "1e308", "--a0", "1e308", "--l-min", "3", "--l-max", "3"),
        # the scalar Gamma returns inf without raising just above x = 142.2
        ("--alpha", "0.703", "--l-min", "200", "--l-max", "200"),
    ],
)
def test_spectrum_rejects_non_finite_levels(capsys, argv):
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------- fit


def test_fit_cli_deterministic_json(capsys, tmp_path):
    out1 = tmp_path / "fit1.json"
    out2 = tmp_path / "fit2.json"
    args = ["fit", "--seed", "42", "--starts", "6", "--max-evals", "2000"]
    code1, _, _ = run(capsys, *args, "--out", str(out1))
    code2, _, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc) == {"params", "rms_percent", "per_particle", "evals", "converged"}
    assert len(doc["per_particle"]) == 42


def test_fit_cli_default_output_is_pinned(capsys, tmp_path):
    # the fixture is the default fit's file: alpha 0.11600374414090753
    # internally, b0 7578.92 MeV (0.0007 MeV from a rounding boundary), 222
    # profile evaluations; a kernel change must not move a byte of it
    out = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", "--seed", "42", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == FIT_SEED42.read_bytes()


@pytest.mark.parametrize(
    "config, argv, code, message",
    [
        # two records for four parameters, and a budget below the alpha scan
        (None, ("fit", "--l-min", "3", "--l-max", "3"), 1, "fit failed: need at least 5"),
        (None, ("fit", "--max-evals", "1"), 1, "fit failed: no scan minimum converged"),
        (None, ("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x"), 2,
         "error: bad point component 'x'"),
        ("seed 5", ("verify", "quad"), 2, ":1: expected 'key = value'"),
        (None, ("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x=1,x=2"), 2,
         "error: point component 'x=2' repeats axis x"),
        (None, ("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x=abc,y=1"), 2,
         "error: point component 'x=abc' is not a number"),
        (None, ("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x="), 2,
         "error: point component 'x=' is not a number"),
    ],
)
def test_error_path_exits_with_its_message(capsys, tmp_path, config, argv, code, message):
    if config is not None:
        (tmp_path / "fraczee.conf").write_text(config + "\n")
        argv = ("--config", str(tmp_path / "fraczee.conf"), *argv)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "nan", "inf", "-inf"])
def test_fit_cli_rejects_bad_tol(capsys, tol):
    code, _, err = run(capsys, "fit", f"--tol={tol}")
    assert code == 2
    assert "tol" in err and "Traceback" not in err


def test_fit_rejects_json_record_with_boolean_L(capsys, tmp_path):
    rows = json.loads(fraczee.dataset.records_to_json(builtin_table()))
    rows[7]["L"] = True
    data = tmp_path / "table.json"
    data.write_text(json.dumps(rows))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert (code, out) == (2, "")
    assert err.startswith("data error: ") and "entry 7: L = true is not an integer" in err


def test_spectrum_accepts_params_file(capsys, tmp_path):
    out = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", "--seed", "7", "--starts", "4",
                     "--max-evals", "2000", "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "spectrum", "--params-file", str(out),
                        "--l-min", "3", "--l-max", "3")
    assert code == 0
    # the refit lands near the reference parameters, so N stays close
    n_mass = float(text.strip().splitlines()[1].split("\t")[2])
    assert abs(n_mass - 959.41) < 10.0


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param("[0.112, -17171.6, 10971.8, 8064.6]", id="array"),
        pytest.param('{"params": [0.112, -17171.6, 10971.8, 8064.6]}', id="params-array"),
        pytest.param('{"params": 3}', id="params-number"),
        pytest.param('{"params": {"alpha": "x", "m0_mev": 1, "a0_mev": 1, "b0_mev": 1}}',
                     id="alpha-string"),
        pytest.param('{"params": {"alpha": 0.1, "m0_mev": null, "a0_mev": 1, "b0_mev": 1}}',
                     id="m0-null"),
        pytest.param('{"params": {"alpha": 0.1, "m0_mev": 1, "a0_mev": true, "b0_mev": 1}}',
                     id="a0-bool"),
        pytest.param('{"params": {"alpha": 0.1, "m0_mev": 1, "a0_mev": 1, "b0_mev": NaN}}',
                     id="b0-nan"),
        pytest.param('{"params": {"alpha": 0.1, "m0_mev": 1, "a0_mev": 1, "b0_mev": -Infinity}}',
                     id="b0-inf"),
        pytest.param('{"params": {"alpha": 0.1, "m0_mev": 1%s, "a0_mev": 1, "b0_mev": 1}}'
                     % ("0" * 400), id="m0-huge-int"),
    ],
)
def test_params_file_rejects_bad_values(capsys, tmp_path, doc):
    path = tmp_path / "params.json"
    path.write_text(doc)
    code, out, err = run(capsys, "spectrum", "--params-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "config, argv, option",
    [
        ("", ["spectrum", "--b0", "1", "--alpha", "0.5"], "alpha"),
        ("b0 = 1\nm0 = 3\n", ["report", "--out-dir", "rep"], "m0"),
    ],
    ids=["flag", "config"],
)
def test_params_file_refuses_a_level_option(capsys, tmp_path, monkeypatch, config, argv, option):
    # the file's levels at alpha 0.2 would silently replace the ones asked for
    monkeypatch.chdir(tmp_path)
    Path("p.json").write_text(json.dumps({"params": {"alpha": 0.2, "m0_mev": -17171.6,
                                                     "a0_mev": 10971.8, "b0_mev": 8064.6}}))
    Path("fraczee.conf").write_text(config)
    code, out, err = run(capsys, "--config", "fraczee.conf", argv[0], "--params-file", "p.json",
                         *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: --params-file cannot be combined with --{option}\n"
    assert not Path("rep").exists()


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, text, argv, prefix",
    [
        pytest.param("deep.json", _DEEP, ("fit", "--data"), "data error: ", id="deep-json-data"),
        pytest.param("big.csv", "name,L,M,mass_mev,status,group\n" + "x" * 200_000
                     + ",3,1,1000,,baryon\n", ("fit", "--data"), "data error: ",
                     id="big-csv-cell"),
        pytest.param("mass.json", '[{"name": "a", "L": 3, "M": 1, "mass_mev": 1%s, '
                     '"group": "baryon"}]' % ("0" * 400), ("fit", "--data"), "data error: ",
                     id="overflowing-json-mass"),
        pytest.param("params.json", '{"params": %s}' % _DEEP, ("spectrum", "--params-file"),
                     "error: ", id="deep-params-file"),
    ],
)
def test_malformed_input_file_exits_2(capsys, tmp_path, name, text, argv, prefix):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"{prefix}{path}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, before, after, prefix",
    [
        pytest.param("bin.csv", ("fit", "--data"), (), "data error: ", id="data"),
        pytest.param("bin.conf", ("--config",), ("spectrum",), "error: ", id="config"),
    ],
)
def test_undecodable_input_file_exits_2_naming_it(capsys, tmp_path, name, before, after, prefix):
    # a UTF-16 byte-order mark is no UTF-8 text
    path = tmp_path / name
    path.write_bytes(b"\xff\xfename,L,M,mass_mev,status,group\n")
    code, out, err = run(capsys, *before, str(path), *after)
    assert (code, out) == (2, "")
    assert err.startswith(f"{prefix}{path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_fit_cli_custom_data(capsys, tmp_path):
    from fraczee.dataset import records_to_csv
    from fraczee.fitting import FitConfig, select_records

    data = tmp_path / "data.csv"
    data.write_text(records_to_csv(select_records(builtin_table(), FitConfig())))
    code, out, _ = run(
        capsys, "fit", "--data", str(data), "--starts", "4", "--max-evals", "2000",
        "--seed", "7",
    )
    assert code == 0
    assert "alpha" in out and "rms" in out


def test_fit_cli_overflowing_row_ends_cleanly(capsys, tmp_path):
    # Gamma(1 + 201*alpha) overflows for alpha above ~0.71: the fit must
    # treat those alphas as infeasible, not end in a traceback
    from fraczee.dataset import ParticleRecord, records_to_csv

    data = tmp_path / "data.csv"
    rows = builtin_table() + [ParticleRecord("heavy", 200, 0, 50000.0, "", "baryon")]
    data.write_text(records_to_csv(rows))
    code, _, err = run(capsys, "fit", "--data", str(data), "--l-max", "250")
    assert code in (0, 1)
    assert "Traceback" not in err


def test_fit_cli_breakdown_overflow_exits_2(capsys, tmp_path):
    # the L = 2000 row is outside the fit band, so the fit succeeds, but its
    # level overflows in the "all baryon rows" breakdown at the fitted alpha
    from fraczee.dataset import ParticleRecord, records_to_csv

    data = tmp_path / "data.csv"
    rows = builtin_table() + [ParticleRecord("heavy", 2000, 0, 50000.0, "", "baryon")]
    data.write_text(records_to_csv(rows))
    code, out, err = run(capsys, "fit", "--data", str(data))
    assert code == 2
    assert "alpha = " in out and "rms over all baryon rows" not in out
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err


def test_fit_cli_reports_subset_breakdown(capsys, tmp_path):
    code, out, _ = run(capsys, "fit", "--starts", "4", "--max-evals", "2000")
    assert code == 0
    assert "rms over L-band incl. excluded rows" in out
    assert "rms over all baryon rows" in out


# ------------------------------------------------------------------ report


def test_report_files(capsys, tmp_path):
    out_dir = tmp_path / "rep"
    code, _, _ = run(capsys, "report", "--out-dir", str(out_dir))
    assert code == 0
    table = (out_dir / "table.csv").read_text().splitlines()
    assert table[0] == "name,L,M,E_exp_mev,E_th_mev,dE_percent"
    assert len(table) == 1 + 53

    # the published error column carries ~0.03pp of internal noise against
    # its own mass columns, so the bound is 0.04pp for the baryon band and
    # 0.08pp for the meson rows
    by_name = {}
    for row in csv.DictReader(table):
        by_name[row["name"]] = row
    for r in builtin_table():
        if r.L > 10 or r.name not in DE_PERCENT:
            continue
        got = float(by_name[r.name]["dE_percent"])
        bound = 0.08 if r.group == "meson" else 0.04
        assert got == pytest.approx(DE_PERCENT[r.name], abs=bound), r.name

    plot = (out_dir / "plot.tsv").read_text().splitlines()
    assert plot[0] == "series\tL\tM\tmass_mev\tlabel"
    series = {line.split("\t")[0] for line in plot[1:]}
    assert series == {f"theory_L{L}" for L in range(1, 10)} | {"experiment"}
    assert sum(1 for line in plot[1:] if line.startswith("experiment")) == 53


def test_report_files_are_pinned(capsys, tmp_path):
    out_dir = tmp_path / "rep"
    code, _, _ = run(capsys, "report", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "table.csv").read_bytes() == (FIXTURES / "report_table.csv").read_bytes()
    assert (out_dir / "plot.tsv").read_bytes() == (FIXTURES / "report_plot.tsv").read_bytes()


def test_report_empty_selection_headers_only(capsys, tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("")
    out_dir = tmp_path / "rep"
    code, _, _ = run(
        capsys, "report", "--out-dir", str(out_dir), "--data", str(data),
        "--l-min", "2", "--l-max", "1",
    )
    assert code == 0
    assert (out_dir / "table.csv").read_text() == "name,L,M,E_exp_mev,E_th_mev,dE_percent\n"
    assert (out_dir / "plot.tsv").read_text() == "series\tL\tM\tmass_mev\tlabel\n"


def test_report_table_reads_back_as_csv(capsys, tmp_path):
    names = ["a,b", 'q"x', "c\rd", "e\nf", "plain"]
    records = [ParticleRecord(name, 4, j, 1000.0 + j, "", "baryon") for j, name in enumerate(names)]
    data = tmp_path / "odd.csv"
    data.write_text(records_to_csv(records))
    out_dir = tmp_path / "rep"
    code, _, _ = run(capsys, "report", "--out-dir", str(out_dir), "--data", str(data))
    assert code == 0
    with (out_dir / "table.csv").open(newline="") as f:
        table = list(csv.reader(f))
    assert table[0] == ["name", "L", "M", "E_exp_mev", "E_th_mev", "dE_percent"]
    assert [row[:4] for row in table[1:]] == [
        [r.name, "4", str(r.M), f"{r.mass_mev:.2f}"] for r in records]
    assert {len(row) for row in table} == {6}


def test_report_plot_reads_back_as_tsv(capsys, tmp_path):
    names = ["a\tb", 'q"x', "c\rd", "e\nf", "plain"]
    records = [ParticleRecord(name, 4, j, 1000.0 + j, "", "baryon") for j, name in enumerate(names)]
    data = tmp_path / "odd.csv"
    data.write_text(records_to_csv(records))
    out_dir = tmp_path / "rep"
    code, _, _ = run(capsys, "report", "--out-dir", str(out_dir), "--data", str(data),
                     "--l-min", "4", "--l-max", "4")
    assert code == 0
    with (out_dir / "plot.tsv").open(newline="") as f:
        plot = list(csv.reader(f, delimiter="\t"))
    assert plot[0] == ["series", "L", "M", "mass_mev", "label"]
    assert [row[:3] for row in plot[1:6]] == [["theory_L4", "4", str(M)] for M in range(5)]
    assert plot[6:] == [
        ["experiment", "4", str(r.M), f"{r.mass_mev:.2f}", r.name] for r in records]
    assert {len(row) for row in plot} == {5}


# ----------------------------------------------------------- config / env


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text("seed = 99\nl-min = 3\nl-max = 4\n# comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "verify", "quad")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text("seed = 99\n")
    code, out, _ = run(capsys, "--config", str(cfg), "verify", "quad", "--seed", "5")
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_env_seed_overrides_builtin_default(capsys, monkeypatch):
    monkeypatch.setenv("FRACZEE_SEED", "1234")
    code, out, _ = run(capsys, "verify", "quad")
    assert code == 0
    assert json.loads(out)["seed"] == 1234


@pytest.mark.parametrize(
    "flag, config, env, want",
    [
        (None, None, None, 1729),
        (None, None, "1234", 1234),
        (None, "99", None, 99),
        (None, "99", "1234", 99),
        ("5", None, "1234", 5),
        ("5", "99", None, 5),
        ("5", "99", "1234", 5),
    ],
)
def test_verify_seed_precedence(capsys, tmp_path, monkeypatch, flag, config, env, want):
    # flag > config file > FRACZEE_SEED > built-in default
    argv = []
    if config is not None:
        cfg = tmp_path / "fraczee.conf"
        cfg.write_text(f"seed = {config}\n")
        argv += ["--config", str(cfg)]
    if env is None:
        monkeypatch.delenv("FRACZEE_SEED", raising=False)
    else:
        monkeypatch.setenv("FRACZEE_SEED", env)
    argv += ["verify", "quad"] + (["--seed", flag] if flag else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["seed"] == want


def _last_level_L(out: str) -> int:
    return int(out.strip().splitlines()[-1].split("\t")[0])


@pytest.mark.parametrize("config, predict_l_max, spectrum_l_max, fit_band", [
    (None, 2, 9, "L=(3, 9)"),
    ("l-min = 4\nl_max = 6\n", 6, 6, "L=(4, 6)"),
])
def test_per_command_defaults(capsys, tmp_path, config, predict_l_max, spectrum_l_max,
                              fit_band):
    argv = []
    if config is not None:
        cfg = tmp_path / "fraczee.conf"
        cfg.write_text(config)
        argv = ["--config", str(cfg)]
    code, out, _ = run(capsys, *argv, "predict")
    assert code == 0 and _last_level_L(out) == predict_l_max
    code, out, _ = run(capsys, *argv, "spectrum")
    assert code == 0 and _last_level_L(out) == spectrum_l_max
    code, out, _ = run(capsys, *argv, "fit", "--starts", "2")
    assert code == 0 and fit_band in out.splitlines()[0]


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("nodes = abc", ("derive", "x", "--axis", "x", "--order", "0.5")),
        ("nodes = abc", ("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x=1")),
        ("seed = 1.5", ("verify", "quad")),
        ("alpha = fast", ("spectrum",)),
        ("l-max = nine", ("predict",)),
        ("tol = small", ("fit",)),
        ("tol = 0", ("fit",)),
    ],
)
def test_bad_config_value_exits_2_before_output(capsys, tmp_path, entry, argv):
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text(entry + "\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("derive", "x", "--axis", "x", "--order", "0.5", "--at", "x=1"), "nodes", "0"),
        (("derive", "x", "--axis", "x", "--order", "0.5"), "nodes", "-3"),
        (("verify", "quad"), "nodes", "0"),
        (("verify", "all"), "nodes", "-1"),
        (("spectrum", "--l-max", "0"), "l-min", "-2"),
        (("spectrum",), "l-max", "-1"),
        (("predict",), "l-min", "-2"),
        (("report", "--out-dir", "rep"), "l-min", "-2"),
        (("derive", "x", "--axis", "x", "--order", "0.5"), "at", "x=1,q=2"),
        # above the 4096-node bound; these commands would not run a quadrature
        (("derive", "x", "--axis", "x", "--order", "0.5"), "nodes", "100000000"),
        (("verify", "connection"), "nodes", "4097"),
        (("fit",), "tol", "0"),
        # checked before the data file is read
        (("fit", "--data", "nope.csv"), "starts", "0"),
        (("fit", "--data", "nope.csv"), "max-evals", "0"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_out_of_range_option_exits_2_before_output(
    capsys, tmp_path, monkeypatch, argv, option, value, source
):
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        code, out, err = run(capsys, *argv, f"--{option}", value)
    else:
        (tmp_path / "fraczee.conf").write_text(f"{option} = {value}\n")
        code, out, err = run(capsys, "--config", "fraczee.conf", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


def test_empty_level_band_stays_valid(capsys):
    code, out, _ = run(capsys, "spectrum", "--l-min", "1", "--l-max", "0")
    assert (code, out) == (0, "L\tM\tE_th_mev\n")


@pytest.mark.parametrize("command", [("spectrum",), ("predict",), ("report", "--out-dir", "rep")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_level_band_above_the_limit_exits_2_before_output(capsys, tmp_path, monkeypatch,
                                                          command, source):
    # one L has L + 1 levels: this band is one level above the limit, so a
    # missing check builds ~1e5 levels and overflows instead of hanging
    monkeypatch.chdir(tmp_path)
    L = str(cli._MAX_LEVELS)
    if source == "flag":
        code, out, err = run(capsys, *command, "--l-min", L, "--l-max", L)
    else:
        (tmp_path / "fraczee.conf").write_text(f"l-min = {L}\nl-max = {L}\n")
        code, out, err = run(capsys, "--config", "fraczee.conf", *command)
    assert (code, out) == (2, "")
    assert err == (f"error: --l-min {L} --l-max {L} spans {cli._MAX_LEVELS + 1} levels, "
                   f"more than the limit of {cli._MAX_LEVELS}\n")
    assert not (tmp_path / "rep").exists()


def test_level_band_limit_is_far_above_the_bands_in_use():
    # the largest band of the tests and of scripts/same_numbers.py is L = 140..145
    assert cli._MAX_LEVELS >= 100 * sum(L + 1 for L in range(140, 146))


@pytest.mark.parametrize("l_min, l_max, ok", [
    (0, 3, True), (0, 4, False), (2, 4, False), (3, 4, True), (9, 9, True), (10, 10, False),
    (11, 10, True), (20, 19, True),
])
def test_level_band_limit_counts_every_level(monkeypatch, l_min, l_max, ok):
    monkeypatch.setattr(cli, "_MAX_LEVELS", 10)  # L = 0..3 and L = 9 have 10 levels each
    if ok:
        assert len(cli._multiplets(l_min, l_max)) <= 10
    else:
        with pytest.raises(ValueError, match="more than the limit of 10$"):
            cli._multiplets(l_min, l_max)


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FRACZEE_SEED", "many")
    code, out, err = run(capsys, "verify", "quad")
    assert (code, out) == (2, "")
    assert "FRACZEE_SEED" in err


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_verify_seed_exits_2_before_any_suite(capsys, tmp_path, monkeypatch, source):
    # numpy refuses a negative seed with a message that names no option
    argv = ["verify", "commutators"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "config":
        (tmp_path / "fraczee.conf").write_text("seed = -1\n")
        argv = ["--config", str(tmp_path / "fraczee.conf"), *argv]
    else:
        monkeypatch.setenv("FRACZEE_SEED", "-1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a nonnegative integer, got -1\n"
    if source == "flag":  # the fit's seed is a flag without effect, so any int goes
        assert run(capsys, "fit", "--seed", "-1")[0] == 0


def test_unknown_config_keys_are_ignored(capsys, tmp_path):
    cfg = tmp_path / "fraczee.conf"
    # 'colour' is no option at all; 'groups' and 'out-dir' belong to other commands
    cfg.write_text("colour = blue\ngroups = 12\nout-dir = /nonexistent\nseed = x\n")
    code, out, _ = run(capsys, "--config", str(cfg), "spectrum", "--l-min", "3", "--l-max", "3")
    assert code == 0
    assert out.splitlines()[1].split("\t") == ["3", "0", "959.41"]


def _subcommands(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


# the positional arguments and required options of each subcommand
_REQUIRED = {
    "derive": ["x", "--axis", "x", "--order", "0.5"],
    "verify": ["quad"],
    "spectrum": [],
    "fit": [],
    "predict": [],
    "report": ["--out-dir", "rep"],
}


def test_every_optional_long_option_reads_the_config(tmp_path, monkeypatch, fresh_parser):
    seen = []
    build = cli._build_parser

    def capture(args):
        seen.append(args)
        return 0

    def capturing_parser():
        parser = build()
        for command in _subcommands(parser).values():
            command.set_defaults(func=capture)
        return parser

    # the empty cache builds the capturing parser on the first call below,
    # and all 74 calls share it
    monkeypatch.setattr(cli, "_build_parser", capturing_parser)
    monkeypatch.delenv("FRACZEE_SEED", raising=False)
    commands = _subcommands(build())
    assert set(commands) == set(_REQUIRED)
    walked = 0
    for name, command in commands.items():
        for action in command._actions:
            longs = [o for o in action.option_strings if o.startswith("--")]
            if not longs or action.required or action.default is argparse.SUPPRESS:
                continue
            typ = action.type or str
            text, flag_text = {int: ("7", "8"), float: ("0.25", "0.5"), str: ("cfg", "flag")}[typ]
            assert typ(text) != action.default, (name, action.dest)
            cfg = tmp_path / "fraczee.conf"
            cfg.write_text(f"{longs[0][2:]} = {text}\n")
            argv = ["--config", str(cfg), name, *_REQUIRED[name]]
            assert cli.main(argv) == 0
            assert getattr(seen.pop(), action.dest) == typ(text), (name, action.dest)
            # an explicit flag still beats the config entry
            assert cli.main(argv + [longs[0], flag_text]) == 0
            assert getattr(seen.pop(), action.dest) == typ(flag_text), (name, action.dest)
            walked += 1
    # 2 derive + 3 verify + 7 spectrum + 10 fit + 7 predict + 8 report options
    assert walked == 37


def test_plain_calls_share_one_parser(capsys, tmp_path, monkeypatch, fresh_parser):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text("l-max = 2\n")
    shared = cli._parser()
    counts = []
    for argv in (
        ["spectrum"],
        ["--config", str(cfg), "predict"],
        ["derive", "x", "--axis", "x", "--order", "0.5"],
        ["spectrum", "--l-min", "-1"],
        ["spectrum"],
    ):
        run(capsys, *argv)
        counts.append(len(built))
    # the shared parser, then one of its own for the config call
    assert counts == [1, 2, 2, 2, 2]
    assert cli._parser() is shared


def test_config_does_not_reach_the_next_call(capsys, tmp_path, fresh_parser):
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text("l-max = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "spectrum")
    assert code == 0 and out.splitlines()[-1].split("\t")[:2] == ["3", "3"]
    code, out, _ = run(capsys, "spectrum")
    # the module's own __main__ guard, as `python -m fraczee.cli` runs it
    child = run_child("-m", "fraczee.cli", "spectrum")
    assert (code, child.returncode) == (0, 0)
    assert out == child.stdout
    assert out.splitlines()[-1].split("\t")[:2] == ["9", "9"]


def test_env_seed_does_not_reach_the_next_call(capsys, monkeypatch, fresh_parser):
    monkeypatch.setenv("FRACZEE_SEED", "1234")
    code, out, _ = run(capsys, "verify", "quad")
    assert (code, json.loads(out)["seed"]) == (0, 1234)
    monkeypatch.delenv("FRACZEE_SEED")
    code, out, _ = run(capsys, "verify", "quad")
    assert (code, json.loads(out)["seed"]) == (0, DEFAULT_SEED)


def _defaults(parser):
    """Each subcommand's option defaults and ``set_defaults`` table."""
    return {
        name: ({a.dest: a.default for a in command._actions}, dict(command._defaults))
        for name, command in _subcommands(parser).items()
    }


@pytest.mark.parametrize(
    "config, argv, code",
    [
        ("l-min = -1\nl-max = 3", ["spectrum"], 2),
        ("seed = 5\nnodes = 0", ["verify", "quad"], 2),
        ("l-min = 3\ndata = nope.csv", ["fit"], 4),
        ("params-file = nope.json\nl-max = 2", ["predict"], 4),
        ("l-min = 2\nl-max = 3", ["spectrum"], 0),
        ("", ["verify", "quad"], 0),
        ("seed = 5\nstarts = 2\nexclude =", ["fit"], 0),
        ("l-max = 2\nalpha = 0.5", ["report", "--out-dir", "rep"], 0),
    ],
)
def test_failed_config_call_leaves_the_defaults_restored(
    capsys, tmp_path, monkeypatch, fresh_parser, config, argv, code
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FRACZEE_SEED", "99")
    before = _defaults(cli._parser())
    assert before == _defaults(cli._build_parser())
    (tmp_path / "fraczee.conf").write_text(config + "\n")
    assert run(capsys, "--config", "fraczee.conf", *argv)[0] == code
    assert _defaults(cli._parser()) == before


# every --help text, and one argparse usage error
_HELP_ARGVS = [["--help"], *([name, "--help"] for name in _REQUIRED), ["spectrum", "--l-min", "two"]]


def test_help_and_usage_error_read_the_same_on_a_later_call(
    capsys, tmp_path, monkeypatch, fresh_parser
):
    monkeypatch.setenv("COLUMNS", "80")

    def texts():
        got = []
        for argv in _HELP_ARGVS:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            got.append((exc.value.code, captured.out, captured.err))
        return got

    first = texts()
    assert [code for code, _, _ in first] == [0] * (len(_HELP_ARGVS) - 1) + [2]
    assert "invalid int value: 'two'" in first[-1][2]
    # config calls that set options whose help text shows the default
    cfg = tmp_path / "fraczee.conf"
    cfg.write_text("groups = cfg\nexclude = cfg\nstarts = 7\nmax-evals = 9\nnodes = 7\n")
    assert run(capsys, "--config", str(cfg), "fit", "--data", str(tmp_path / "nope.csv"))[0] == 4
    assert run(capsys, "--config", str(cfg), "derive", "x", "--axis", "x", "--order", "0.5")[0] == 0
    assert texts() == first


def test_missing_data_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "--data", str(tmp_path / "nope.csv"))
    assert code == 4
    assert "i/o error" in err


# ----------------------------------------------------------------- imports

#: the modules whose presence in ``sys.modules`` at exit the table pins
_BUDGET_MODULES = ("numpy", "scipy.special", "fraczee.operators", "fraczee.checks",
                   "fraczee.fitting", "fraczee.dataset", "fraczee.rlquad")
_DERIVE = ("derive", "x^-0.7", "--axis", "x", "--order", "0.3")
#: per command: its arguments ("{out}" is a fresh directory), then 1 where
#: the module of ``_BUDGET_MODULES`` in that place is loaded at exit, else 0
_IMPORT_BUDGET = {
    "derive": (_DERIVE, (1, 0, 1, 1, 1, 1, 1)),
    "derive --at": ((*_DERIVE, "--at", "x=1"), (1, 1, 1, 1, 1, 1, 1)),
    "spectrum": (("spectrum",), (1, 0, 1, 1, 1, 1, 1)),
    "predict": (("predict",), (1, 0, 1, 1, 1, 1, 1)),
    "report": (("report", "--out-dir", "{out}"), (1, 0, 1, 1, 1, 1, 1)),
    "fit": (("fit",), (1, 0, 1, 1, 1, 1, 1)),
    "verify all": (("verify", "all"), (1, 1, 1, 1, 1, 1, 1)),
    "verify quad": (("verify", "quad"), (1, 1, 1, 1, 1, 1, 1)),
}

_IMPORT_PROBE = """
import json, sys
from fraczee.cli import main

code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.fixture(scope="module")
def import_budget_runs(tmp_path_factory):
    """Each command of ``_IMPORT_BUDGET`` in a fresh interpreter, two at a time."""

    out = str(tmp_path_factory.mktemp("report"))

    def probe(argv):
        return run_child("-c", _IMPORT_PROBE, *(a.format(out=out) for a in argv))

    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = pool.map(probe, (argv for argv, _ in _IMPORT_BUDGET.values()))
        return dict(zip(_IMPORT_BUDGET, procs))


@pytest.mark.parametrize("name", _IMPORT_BUDGET)
def test_import_budget(import_budget_runs, name):
    proc = import_budget_runs[name]
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    loaded = tuple(int(m in modules) for m in _BUDGET_MODULES)
    assert loaded == _IMPORT_BUDGET[name][1]
    # the fit's Brent is in-repo; only the Gauss-Jacobi nodes come from scipy
    scipy = [m for m in modules if m.partition(".")[0] == "scipy"]
    assert bool(scipy) == ("scipy.special" in modules)
    assert not [m for m in scipy if m.startswith(("scipy.optimize", "scipy.integrate"))]
    assert "Warning" not in proc.stderr
