"""The end-to-end scripts in ``scripts/``, run in process in a scratch directory."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIT_SEED42 = Path(__file__).parent / "fixtures" / "fit_seed42.json"


def run_script(name: str) -> None:
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    assert exit_info.value.code == 0


def test_reproduce_spectrum(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_script("reproduce_spectrum.py")
    out = tmp_path / "out"
    assert (out / "fit.json").read_bytes() == FIT_SEED42.read_bytes()
    assert (out / "table.csv").exists()
    # the refit report reads the fit back through --params-file
    assert (out / "refit" / "table.csv").exists()


def test_run_identity_checks(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_script("run_identity_checks.py")
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["passed"] is True
