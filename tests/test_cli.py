import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraczee
from fraczee import cli
from fraczee.cli import main
from fraczee.dataset import builtin_table

from reference_values import DE_PERCENT

FIXTURES = Path(__file__).parent / "fixtures"
FIT_SEED42 = FIXTURES / "fit_seed42.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_derive_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "derive", "x +* y", "--axis", "x", "--order", "1")
    assert code == 2
    assert "parse error" in err


def test_derive_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "derive", "x^0.2", "--axis", "x", "--order", "1.5")
    assert code == 3
    assert "domain error" in err


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


@pytest.mark.parametrize("tol", ["0", "nan", "inf", "-inf"])
def test_fit_cli_rejects_bad_tol(capsys, tol):
    code, _, err = run(capsys, "fit", f"--tol={tol}")
    assert code == 2
    assert "tol" in err and "Traceback" not in err


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


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FRACZEE_SEED", "many")
    code, out, err = run(capsys, "verify", "quad")
    assert (code, out) == (2, "")
    assert "FRACZEE_SEED" in err


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


def test_every_optional_long_option_reads_the_config(tmp_path, monkeypatch):
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


def test_missing_data_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "--data", str(tmp_path / "nope.csv"))
    assert code == 4
    assert "i/o error" in err


# ----------------------------------------------------------------- imports

_IMPORT_PROBE = """
import json, sys
import fraczee, fraczee.cli
from fraczee import FitConfig, builtin_table, fit, select_records

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

fit(select_records(builtin_table(), FitConfig()))
assert fraczee.cli.main(["spectrum"]) == 0
before = scipy_modules()
assert fraczee.cli.main(["derive", "x^-0.7", "--axis", "x", "--order", "0.3", "--at", "x=1"]) == 0
print(json.dumps([before, scipy_modules()]))
"""


def test_scipy_is_loaded_only_for_quadrature_nodes():
    # the fit's Brent is in-repo; only the Gauss-Jacobi nodes come from scipy
    src = str(Path(fraczee.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == []
    assert "scipy.special" in after
    assert not [m for m in after if m.startswith(("scipy.optimize", "scipy.integrate"))]
    assert "Warning" not in proc.stderr
