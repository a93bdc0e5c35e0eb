import json
from pathlib import Path

import pytest

from fraczee.dataset import (
    DatasetError,
    ParticleRecord,
    builtin_table,
    load_records,
    records_to_csv,
    records_to_json,
)

FIXTURE = Path(__file__).parent / "fixtures" / "reference_table.csv"


def test_row_count():
    assert len(builtin_table()) == 53


def test_lambda_row():
    rows = {r.name: r for r in builtin_table()}
    lam = rows["Lambda"]
    assert (lam.L, lam.M, lam.mass_mev, lam.group) == (3, 1, 1116.0, "baryon")


def test_pi0_row():
    rows = {r.name: r for r in builtin_table()}
    pi0 = rows["pi0"]
    assert (pi0.L, pi0.M, pi0.mass_mev, pi0.group) == (1, 0, 135.0, "meson")


def test_theoretical_rows():
    theo = [r for r in builtin_table() if r.group == "theoretical"]
    assert sorted(r.name for r in theo) == ["Omega_cc", "Omega_ccc"]
    assert all(r.status == "th" for r in theo)


def test_group_counts():
    groups = [r.group for r in builtin_table()]
    assert groups.count("meson") == 5
    assert groups.count("baryon") == 46
    assert groups.count("theoretical") == 2


def test_builtin_byte_matches_fixture():
    assert records_to_csv(builtin_table()) == FIXTURE.read_text()


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(records_to_csv(builtin_table()))
    assert load_records(path) == builtin_table()


def test_json_round_trip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(records_to_json(builtin_table()))
    assert load_records(path) == builtin_table()


def test_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_records(path) == []
    jpath = tmp_path / "empty.json"
    jpath.write_text("")
    assert load_records(jpath) == []


def test_invariant_M_le_L():
    with pytest.raises(DatasetError):
        ParticleRecord("bad", 3, 5, 1000.0, "", "baryon")


def test_invariant_positive_mass():
    with pytest.raises(DatasetError):
        ParticleRecord("bad", 3, 1, -5.0, "", "baryon")


def test_unknown_group_rejected():
    with pytest.raises(DatasetError):
        ParticleRecord("bad", 3, 1, 1000.0, "", "lepton")


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "name,L,M,mass_mev,status,group\nfoo,3,1,1000,,baryon\nfoo,4,1,1100,,baryon\n"
    )
    with pytest.raises(DatasetError, match="duplicate"):
        load_records(path)


def test_csv_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,L,M,mass_mev,status,group\nfoo,3,9,1000,,baryon\n")
    with pytest.raises(DatasetError):
        load_records(path)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_first_bad_row_in_file_order_is_reported(tmp_path, suffix):
    # a duplicate on the second row comes before an invalid fourth row
    rows = [("foo", 3, 1, 1000.0), ("foo", 4, 1, 1100.0), ("bar", 3, 2, 900.0),
            ("baz", 3, 9, 900.0)]
    records = [dict(name=n, L=L, M=M, mass_mev=m, status="", group="baryon")
               for n, L, M, m in rows]
    path = tmp_path / f"rows{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps(records))
    else:
        path.write_text("name,L,M,mass_mev,status,group\n"
                        + "".join(f"{n},{L},{M},{m},,baryon\n" for n, L, M, m in rows))
    with pytest.raises(DatasetError, match="duplicate particle name 'foo'"):
        load_records(path)


def test_missing_columns_rejected(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("name,L,M\nfoo,3,1\n")
    with pytest.raises(DatasetError, match="missing"):
        load_records(path)


@pytest.mark.parametrize(
    "key, value, kind",
    [("L", True, "an integer"), ("L", 1.7, "an integer"), ("M", False, "an integer"),
     ("M", 0.5, "an integer"), ("L", 1e400, "an integer"), ("mass_mev", True, "a number")],
)
def test_json_wrong_number_type_is_rejected_with_its_entry(tmp_path, key, value, kind):
    # int() and float() would make these L = 1, M = 0 or 1.0 MeV, or raise OverflowError
    rows = [dict(name="ok", L=3, M=1, mass_mev=1000.0, group="baryon"),
            dict(name="bad", L=3, M=1, mass_mev=1000.0, group="baryon")]
    rows[1][key] = value
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(DatasetError, match=rf"rows\.json entry 1: {key} = .* is not {kind}"):
        load_records(path)


def test_json_integral_float_L_is_accepted(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([dict(name="ok", L=3.0, M=1, mass_mev=1000, group="baryon")]))
    assert load_records(path)[0].L == 3


def test_json_must_be_array(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps({"name": "foo"}))
    with pytest.raises(DatasetError):
        load_records(path)
