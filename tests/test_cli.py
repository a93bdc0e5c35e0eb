import csv
import json
from pathlib import Path

import pytest

from fraczee.cli import main
from fraczee.dataset import builtin_table

from reference_values import DE_PERCENT

FIT_SEED42 = Path(__file__).parent / "fixtures" / "fit_seed42.json"


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


def test_missing_data_file_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "--data", str(tmp_path / "nope.csv"))
    assert code == 4
    assert "i/o error" in err
