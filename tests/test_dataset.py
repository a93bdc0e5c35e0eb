import copy
import dataclasses
import json
import pickle
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraczee.dataset import (
    GROUPS,
    DatasetError,
    ParticleRecord,
    builtin_table,
    load_records,
    records_to_csv,
    records_to_json,
)

FIXTURE = Path(__file__).parent / "fixtures" / "reference_table.csv"
JSON_FIXTURE = Path(__file__).parent / "fixtures" / "reference_table.json"
COLUMNS = ("name", "L", "M", "mass_mev", "status", "group")


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


def test_builtin_json_byte_matches_fixture():
    assert records_to_json(builtin_table()) == JSON_FIXTURE.read_text()


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


def test_csv_error_names_the_physical_line(tmp_path):
    # a quoted newline and a blank line come before the bad row on line 5
    path = tmp_path / "bad.csv"
    path.write_text('name,L,M,mass_mev,status,group\n"a\nb",3,1,1000,,baryon\n\n'
                    "foo,3,x,1000,,baryon\n")
    with pytest.raises(DatasetError, match=r"bad\.csv line 5: invalid literal"):
        load_records(path)


@pytest.mark.parametrize("suffix, where", [(".csv", "line 3"), (".json", "entry 1")])
@pytest.mark.parametrize(
    "row, message",
    [(("foo", 3, 9, 1000.0), "foo: need 0 <= M <= L, got L=3, M=9"),
     (("foo", 3, 1, -5.0), "foo: nonpositive mass -5.0"),
     (("", 3, 1, 1000.0), "empty particle name"),
     (("ok", 4, 1, 1100.0), "duplicate particle name 'ok'")],
)
def test_record_errors_name_their_row(tmp_path, suffix, where, row, message):
    rows = [("ok", 3, 1, 1000.0), row]
    path = tmp_path / f"rows{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps([dict(name=n, L=L, M=M, mass_mev=m, group="baryon")
                                    for n, L, M, m in rows]))
    else:
        path.write_text("name,L,M,mass_mev,status,group\n"
                        + "".join(f"{n},{L},{M},{m},,baryon\n" for n, L, M, m in rows))
    with pytest.raises(DatasetError) as info:
        load_records(path)
    assert str(info.value) == f"{path} {where}: {message}"


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


@pytest.mark.parametrize(
    "key, value", [("L", 1.7), ("M", 0.5), ("L", True), ("M", False), ("mass_mev", True)]
)
def test_json_wrong_number_type_is_rejected_in_a_full_entry(tmp_path, key, value):
    # the same values in an entry with every key, status included
    row = dict(name="bad", L=3, M=1, mass_mev=1000.0, status="", group="baryon")
    row[key] = value
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([row]))
    with pytest.raises(DatasetError, match=rf"rows\.json entry 0: {key} = .* is not"):
        load_records(path)


@pytest.mark.parametrize("key, value, field", [
    ("name", 3, "3"), ("name", True, "True"), ("status", 1, "1"),
    ("L", "4", 4), ("L", 3.0, 3), ("M", "1", 1), ("mass_mev", "2452", 2452.0),
    ("mass_mev", 1e400, math.inf), ("mass_mev", 10**3, 1000.0),
])
def test_json_odd_but_accepted_values_convert_as_before(tmp_path, key, value, field):
    row = dict(name="ok", L=3, M=1, mass_mev=1000.0, status="", group="baryon")
    row[key] = value
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([row]).replace("Infinity", "1e400"))  # the JSON text 1e400
    got = getattr(load_records(path)[0], key)
    assert (type(got), got) == (type(field), field)


@pytest.mark.parametrize("key", ["name", "status", "group"])
def test_json_null_name_or_status_is_rejected_with_its_entry(tmp_path, key):
    # str() would make these the text "None"
    rows = [dict(name="ok", L=3, M=1, mass_mev=1000.0, status="", group="baryon"),
            dict(name="bad", L=3, M=1, mass_mev=1000.0, status="", group="baryon")]
    rows[1][key] = None
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(DatasetError, match=rf"rows\.json entry 1: {key} = null is not a string$"):
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


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


# -- records_to_json against json.dumps -------------------------------------

_odd_text = st.text(st.sampled_from('ab"\\\n\r\t\x00\x1f\u00e9\u2028\U0001f600/'), max_size=6)


@st.composite
def json_rows(draw):
    L = draw(st.integers(0, 40))
    M = draw(st.integers(0, L))
    mass = draw(st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6), st.just(float("inf")),
                          st.builds(np.float64, st.floats(1e-3, 1e6))))
    return ParticleRecord(draw(_odd_text.filter(bool)), L, M, mass,
                          draw(_odd_text), draw(st.sampled_from(GROUPS)))


def _dumps(records):
    return json.dumps([{"name": r.name, "L": r.L, "M": r.M, "mass_mev": r.mass_mev,
                        "status": r.status, "group": r.group} for r in records], indent=2) + "\n"


@settings(max_examples=100)
@given(st.lists(json_rows(), max_size=20))
def test_records_to_json_equals_json_dumps(records):
    assert records_to_json(records) == _dumps(records)


@pytest.mark.parametrize("records", [
    [],
    builtin_table(),
    [ParticleRecord("n\u00e9\"\\\x01", 1, 0, float("inf"), "\n", "baryon")],
    [ParticleRecord("a", 3, 1, 1e300, "", "meson"), ParticleRecord("b", 3, 1, 2, "", "meson")],
])
def test_records_to_json_cases_equal_json_dumps(records):
    assert records_to_json(records) == _dumps(records)
    assert records_to_json(iter(records)) == _dumps(records)


@pytest.mark.parametrize("L, M, mass", [
    (True, 0, 1000.0), (3, False, 1000.0), (np.int64(3), 1, 1000.0), (3.0, 1, 1000.0),
    (3, np.int32(1), 1000.0), (3, 1, True),
])
def test_record_rejects_wrong_field_types(L, M, mass):
    # each would be written as a file that load_records refuses, or not at all
    with pytest.raises(DatasetError, match=r"^bad: L and M must be ints and the mass not a bool"):
        ParticleRecord("bad", L, M, mass, "", "baryon")


@pytest.mark.parametrize("mass", [10**400, -(10**400), 2**1024])
def test_record_rejects_an_int_mass_beyond_the_float_range(mass):
    with pytest.raises(DatasetError) as exc:
        ParticleRecord("big", 3, 1, mass, "", "baryon")
    assert str(exc.value) == "big: int mass_mev beyond the float range"


def test_record_keeps_the_largest_int_mass_and_an_inf_mass():
    largest = int(sys.float_info.max)
    for mass in (largest, float("inf")):
        assert ParticleRecord("m", 3, 1, mass, "", "baryon").mass_mev == mass


# -- the record contract ------------------------------------------------------


_odd_int = st.one_of(
    st.integers(-3, 30), st.booleans(), st.floats(-3.0, 30.0), st.sampled_from(["", "3"]),
    st.builds(np.int64, st.integers(0, 30)),
)
#: values that replace one or two fields of a valid record: most are refused
_ODD_FIELDS = {
    "name": st.sampled_from(["", None, 0, "0"]),
    "L": _odd_int,
    "M": _odd_int,
    "mass_mev": st.one_of(
        st.floats(), st.integers(-5, 5), st.booleans(),
        st.sampled_from([0, 0.0, -0.0, 10**400, -(10**400), 2**1024, int(sys.float_info.max),
                         float("inf"), float("nan"), "1000", np.float64(-1.0)]),
    ),
    "group": st.one_of(st.text(max_size=8), st.sampled_from(["Baryon", "baryon "])),
}


@st.composite
def record_args(draw):
    L = draw(st.integers(0, 30))
    args = {
        "name": draw(st.text(min_size=1, max_size=4)),
        "L": L,
        "M": draw(st.integers(0, L)),
        "mass_mev": draw(st.one_of(st.floats(0.0, exclude_min=True, allow_nan=False),
                                   st.integers(1, 10**6))),
        "status": draw(st.text(max_size=3)),
        "group": draw(st.sampled_from(GROUPS)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(_ODD_FIELDS)), max_size=2)):
        args[key] = draw(_ODD_FIELDS[key])
    return args


@settings(max_examples=400)
@given(args=record_args())
def test_record_by_keyword_is_the_record_by_position(args):
    def outcome(cls):
        try:
            r = cls(*args.values())
        except Exception as exc:
            return "raised", type(exc), str(exc)
        return "made", [(type(v), v) for v in (r.name, r.L, r.M, r.mass_mev, r.status, r.group)]

    assert outcome(lambda *a: ParticleRecord(**args)) == outcome(ParticleRecord)


def test_record_is_a_frozen_dataclass():
    r = ParticleRecord("Lambda", 3, 1, 1116.0, "", "baryon")
    assert [f.name for f in dataclasses.fields(ParticleRecord)] == list(COLUMNS)
    assert ParticleRecord.__match_args__ == COLUMNS
    assert r == ParticleRecord(name="Lambda", L=3, M=1, mass_mev=1116.0, status="", group="baryon")
    assert r != ParticleRecord("Lambda", 3, 1, 1116.5, "", "baryon")
    assert hash(r) == hash(("Lambda", 3, 1, 1116.0, "", "baryon"))
    assert repr(r) == ("ParticleRecord(name='Lambda', L=3, M=1, mass_mev=1116.0, status='', "
                       "group='baryon')")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.L = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.mass_mev
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert twin == r and type(twin) is ParticleRecord and twin.__dict__ == r.__dict__


def test_record_replace_checks_again():
    r = ParticleRecord("Lambda", 3, 1, 1116.0, "", "baryon")
    assert dataclasses.replace(r, M=3, mass_mev=1200) == ParticleRecord("Lambda", 3, 3, 1200, "",
                                                                         "baryon")
    with pytest.raises(DatasetError) as exc:
        dataclasses.replace(r, M=5)
    assert str(exc.value) == "Lambda: need 0 <= M <= L, got L=3, M=5"
    with pytest.raises(DatasetError) as exc:
        dataclasses.replace(r, group="lepton")
    assert str(exc.value) == "Lambda: unknown group 'lepton'"


# -- round trips of any valid records ---------------------------------------


@pytest.mark.parametrize("mass, text", [
    (1116, "1116"), (1116.0, "1116"), (938.5, "938.5"), (1115.683, "1115.683"),
    (2000.0000001, "2000.0000001"), (1e-7, "1e-07"), (1.2345678e20, "1.2345678e+20"),
    (float("inf"), "inf"), (np.float64(1115.683), "1115.683"),
])
def test_records_to_csv_writes_every_digit_of_the_mass(mass, text):
    csv_text = records_to_csv([ParticleRecord("a", 3, 1, mass, "", "baryon")])
    assert csv_text.splitlines()[1] == f"a,3,1,{text},,baryon"


@st.composite
def valid_records(draw):
    L = draw(st.integers(0, 40))
    mass = draw(st.one_of(
        st.floats(0.0, exclude_min=True, allow_nan=False),  # subnormal to inf
        st.integers(1, 2**53),
        st.builds(np.float64, st.floats(1e-3, 1e6)),
    ))
    return ParticleRecord(draw(_odd_text.filter(bool)) + draw(st.sampled_from(["", ",", " "])),
                          L, draw(st.integers(0, L)), mass, draw(_odd_text),
                          draw(st.sampled_from(GROUPS)))


@settings(max_examples=100)
@given(records=st.lists(valid_records(), max_size=12, unique_by=lambda r: r.name))
def test_written_records_load_back_equal(scratch, records):
    for name, write in (("rows.csv", records_to_csv), ("rows.json", records_to_json)):
        path = scratch / name
        path.write_text(write(records))
        assert load_records(path) == records, name


# -- every malformed file is a data error -----------------------------------


_BIG_CELL = "x" * 200_000  # above csv's 131,072-character field limit
_HEADER = "name,L,M,mass_mev,status,group\n"


@pytest.mark.parametrize("name, text, message", [
    # an error about the whole file carries the file name once, and no row
    pytest.param("cols.csv", "name,L,M,extra\nfoo,3,1,x\n",
                 ": missing CSV columns ['group', 'mass_mev', 'status']", id="missing-columns"),
    pytest.param("bad.json", "[{]", ": invalid JSON: Expecting property name enclosed in double "
                 "quotes: line 1 column 3 (char 2)", id="invalid-json"),
    pytest.param("obj.json", '{"name": "foo"}', ": expected a JSON array of records",
                 id="not-an-array"),
    pytest.param("deep.json", "[" * 100_000 + "]" * 100_000,
                 ": invalid JSON: maximum recursion depth exceeded", id="deep-json"),
    pytest.param("huge.json", "[" + "1" * 5000 + "]",
                 ": invalid JSON: Exceeds the limit (4300 digits)", id="huge-int-json"),
    pytest.param("big.csv", _HEADER + "ok,3,1,1000,,baryon\n" + _BIG_CELL + ",3,1,1000,,baryon\n",
                 " line 3: field larger than field limit (131072)", id="big-cell-csv"),
    pytest.param("bighead.csv", _BIG_CELL + "," + _HEADER,
                 " line 1: field larger than field limit (131072)", id="big-header-csv"),
    pytest.param("overflow.json",
                 '[{"name": "a", "L": 3, "M": 1, "mass_mev": 1%s, "group": "baryon"}]'
                 % ("0" * 400), " entry 0: mass_mev: int too large to convert to float",
                 id="overflowing-mass-json"),
])
def test_malformed_files_are_data_errors(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DatasetError) as info:
        load_records(path)
    assert str(info.value).startswith(f"{path}{message}")
