"""Built-in hadron table and CSV/JSON ingestion of user spectra.

The built-in table lists 53 states with proposed (L, M) quantum numbers
and experimental masses in MeV.  The five L in {1, 2} rows are mesons
kept for comparison against baryon-mass predictions; Omega_cc and
Omega_ccc carry masses quoted from an external model prediction and are
tagged ``theoretical``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path
from typing import Iterable

__all__ = [
    "GROUPS",
    "DatasetError",
    "ParticleRecord",
    "builtin_table",
    "load_records",
    "records_to_csv",
    "records_to_json",
]

GROUPS = ("meson", "baryon", "theoretical")

_CSV_COLUMNS = ("name", "L", "M", "mass_mev", "status", "group")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class ParticleRecord:
    """One table row: checked, then stored in one step (``dataclasses.replace``
    checks again); ``==``, ``hash``, ``repr`` and immutability are generated."""

    name: str
    L: int
    M: int
    mass_mev: float
    status: str
    group: str

    def __init__(self, name: str, L: int, M: int, mass_mev: float, status: str, group: str):
        if not name:
            raise DatasetError("empty particle name")
        if type(L) is not int or type(M) is not int or type(mass_mev) is bool:
            raise DatasetError(f"{name}: L and M must be ints and the mass not a bool, "
                               f"got L={L!r}, M={M!r}, mass_mev={mass_mev!r}")
        if L < 0 or M < 0 or M > L:
            raise DatasetError(f"{name}: need 0 <= M <= L, got L={L}, M={M}")
        if isinstance(mass_mev, int):
            try:
                float(mass_mev)
            except OverflowError:
                raise DatasetError(f"{name}: int mass_mev beyond the float range") from None
        if not mass_mev > 0.0:
            raise DatasetError(f"{name}: nonpositive mass {mass_mev}")
        if group not in GROUPS:
            raise DatasetError(f"{name}: unknown group {group!r}")
        self.__dict__.update(name=name, L=L, M=M, mass_mev=mass_mev, status=status, group=group)


# name, L, M, mass [MeV], status, group
_TABLE = (
    ("pi0", 1, 0, 135, "", "meson"),
    ("K0s", 1, 1, 498, "", "meson"),
    ("rho(770)", 2, 0, 776, "", "meson"),
    ("K*(892)0", 2, 1, 896, "", "meson"),
    ("phi(1020)", 2, 2, 1019, "", "meson"),
    ("N", 3, 0, 938, "", "baryon"),
    ("Lambda", 3, 1, 1116, "", "baryon"),
    ("Sigma0", 3, 2, 1193, "", "baryon"),
    ("Xi0", 3, 3, 1315, "", "baryon"),
    ("Delta(1232)", 4, 0, 1232, "", "baryon"),
    ("Sigma0(1385)", 4, 1, 1384, "", "baryon"),
    ("Xi(1530)", 4, 2, 1532, "", "baryon"),
    ("Omega-", 4, 3, 1672, "", "baryon"),
    ("Lambda(1800)", 4, 4, 1775, "", "baryon"),
    ("Lambda(1520)", 5, 0, 1520, "", "baryon"),
    ("Lambda(1670)", 5, 1, 1670, "", "baryon"),
    ("Xi(1820)", 5, 2, 1823, "", "baryon"),
    ("Delta(1910)", 5, 3, 1910, "", "baryon"),
    ("Sigma(2030)", 5, 4, 2030, "", "baryon"),
    ("Lambda(2100)", 5, 5, 2100, "", "baryon"),
    ("Sigma(1750)", 6, 0, 1750, "", "baryon"),
    ("Sigma(1915)", 6, 1, 1915, "", "baryon"),
    ("Xi(2030)", 6, 2, 2025, "", "baryon"),
    ("Delta(2150)", 6, 3, 2150, "*", "baryon"),
    ("Omega(2250)", 6, 4, 2252, "", "baryon"),
    ("Omega(2380)", 6, 5, 2380, "**", "baryon"),
    ("Sigma_c(2452)", 6, 6, 2452, "", "baryon"),
    ("Xi(1950)", 7, 0, 1950, "", "baryon"),
    ("Lambda(2110)", 7, 1, 2110, "", "baryon"),
    ("Lambda_c", 7, 2, 2286, "", "baryon"),
    ("Delta(2420)", 7, 3, 2420, "", "baryon"),
    ("Xi_c+(2467)", 7, 4, 2467, "", "baryon"),
    ("Xi_c'+(2575)", 7, 5, 2576, "", "baryon"),
    ("Xi_c0(2645)", 7, 6, 2645, "", "baryon"),
    ("Xi_c0(2790)", 7, 7, 2791, "", "baryon"),
    ("N(2190)", 8, 0, 2190, "", "baryon"),
    ("Lambda(2350)", 8, 1, 2350, "", "baryon"),
    ("Xi_c0(2471)", 8, 2, 2471, "", "baryon"),
    ("Lambda_c+(2593)", 8, 3, 2595, "", "baryon"),
    ("Omega_c0", 8, 4, 2698, "", "baryon"),
    ("Sigma_c0(2800)", 8, 5, 2800, "", "baryon"),
    ("Lambda_c+(2880)", 8, 6, 2882, "***", "baryon"),
    ("Xi(2980)", 8, 7, 2978, "***", "baryon"),
    ("Xi_c(3080)", 8, 8, 3076, "***", "baryon"),
    ("Omega-(2380)", 9, 0, 2380, "**", "baryon"),
    ("Sigma_c(2520)", 9, 1, 2518, "***", "baryon"),
    ("Sigma_c(2645)", 9, 2, 2646, "***", "baryon"),
    ("Lambda_c(2880)", 9, 4, 2882, "***", "baryon"),
    ("Sigma(3170)", 9, 7, 3170, "*", "baryon"),
    ("Xi_cc+", 10, 9, 3519, "*", "baryon"),
    ("Omega_cc", 11, 8, 3637, "th", "theoretical"),
    ("Omega_ccc", 15, 15, 4681, "th", "theoretical"),
    ("Lambda_b0", 20, 20, 5620, "***", "baryon"),
)


def builtin_table() -> list[ParticleRecord]:
    """All 53 built-in records, in table order."""
    return [ParticleRecord(*row) for row in _TABLE]


def _number(obj: dict, key: str, kind: type):
    """``obj[key]`` converted by ``kind``; a JSON boolean, or a fractional or
    non-finite number where an integer is due, is rejected, not truncated,
    and so is an integer mass too large for a float."""
    value = obj[key]
    if type(value) is kind:
        return value
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise DatasetError(f"{key} = {json.dumps(value)} is not "
                           f"{'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise DatasetError(f"{key}: {exc}") from exc


def _json_records(data: list):
    """The records of the entries of a JSON array, in field order; a ``null``
    name, status or group is refused, not read as the text "None"."""
    for obj in data:
        name = obj["name"]
        if name is None:
            raise DatasetError("name = null is not a string")
        L, M, mass = _number(obj, "L", int), _number(obj, "M", int), _number(obj, "mass_mev", float)
        status = obj.get("status", "")
        if status is None:
            raise DatasetError("status = null is not a string")
        group = obj["group"]
        if group is None:
            raise DatasetError("group = null is not a string")
        yield ParticleRecord(str(name), L, M, mass, str(status), str(group))


def load_records(path: str | Path) -> list[ParticleRecord]:
    """Load particle records from a JSON array (``.json`` suffix) or else CSV
    with a header.

    Every malformed file raises ``DatasetError``.  Duplicate names,
    invariant violations (M > L, nonpositive mass), cells that do not
    convert and JSON values of the wrong type (a boolean, a fractional L or
    M, a ``null`` name, status or group) name the offending line (the physical
    line of the file on which the CSV row ends) or entry (counted from 0).
    """
    p = Path(path)
    try:
        with p.open(newline="") as f:  # a carriage return inside a quoted CSV cell stays
            text = f.read()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{p}: {exc}") from exc
    if not text.strip():
        return []
    reader = None
    if p.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DatasetError(f"{p}: invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise DatasetError(f"{p}: expected a JSON array of records")
        rows = _json_records(data)
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except csv.Error as exc:
            raise DatasetError(f"{p} line {reader.line_num}: {exc}") from exc
        missing = set(_CSV_COLUMNS).difference(header)
        if missing:
            raise DatasetError(f"{p}: missing CSV columns {sorted(missing)}")
        column = {key: j for j, key in enumerate(header)}  # the last one wins
        fields = itemgetter(*(column[key] for key in _CSV_COLUMNS))
        # csv.DictReader's reading: blank rows are skipped, a short row is
        # padded with None and extra cells are ignored
        width = len(header)
        cells = map(fields, (row + [None] * (width - len(row)) for row in reader if row))
        rows = (ParticleRecord(str(name), int(L), int(M), float(mass), str(status), str(group))
                for name, L, M, mass, status, group in cells)

    records: list[ParticleRecord] = []
    seen: set[str] = set()
    try:
        for record in rows:
            if record.name in seen:
                raise DatasetError(f"duplicate particle name {record.name!r}")
            seen.add(record.name)
            records.append(record)
    except (csv.Error, LookupError, TypeError, ValueError) as exc:
        # each JSON entry before the bad one made a record: len(records) is its index
        row = f"line {reader.line_num}" if reader is not None else f"entry {len(records)}"
        raise DatasetError(f"{p} {row}: {exc}") from exc
    return records


def _csv_text(rows: list, delimiter: str = ",") -> str:
    """``rows`` as lines ending in "\\n", ``delimiter`` between cells.  A row with a "\\r",
    which Python 3.11's writer leaves unquoted and a reader splits on, is quoted in full."""
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(rows)
    if "\r" not in buf.getvalue():
        return buf.getvalue()
    buf = io.StringIO()
    for row in rows:
        quoting = csv.QUOTE_ALL if any("\r" in str(cell) for cell in row) else csv.QUOTE_MINIMAL
        csv.writer(buf, delimiter=delimiter, lineterminator="\n", quoting=quoting).writerow(row)
    return buf.getvalue()


def records_to_csv(records: Iterable[ParticleRecord]) -> str:
    rows = [_CSV_COLUMNS]
    for r in records:
        mass = f"{r.mass_mev:g}"
        if float(mass) != r.mass_mev:  # six digits lose some of this mass
            mass = repr(float(r.mass_mev))
        rows.append((r.name, r.L, r.M, mass, r.status, r.group))
    return _csv_text(rows)


# one record as json.dumps(records, indent=2) lays it out
_JSON_ROW = (
    '  {\n    "name": %s,\n    "L": %r,\n    "M": %r,\n    "mass_mev": %r,\n'
    '    "status": %s,\n    "group": %s\n  }'
)


def records_to_json(records: Iterable[ParticleRecord]) -> str:
    """``json.dumps([...], indent=2) + "\\n"`` of the records' fields, byte for
    byte.  Exact str fields and an int or finite float mass fill one row
    template; any other row (a str subclass, a float subclass or an ``inf``
    mass) is left to ``json.dumps``."""
    rows = []
    for r in records:
        name, L, M, mass, status, group = r.name, r.L, r.M, r.mass_mev, r.status, r.group
        if (type(name) is type(status) is type(group) is str
                and (type(mass) is int or (type(mass) is float and math.isfinite(mass)))):
            rows.append(_JSON_ROW % (_json_str(name), L, M, mass,
                                     _json_str(status), _json_str(group)))
        else:
            doc = {"name": name, "L": L, "M": M, "mass_mev": mass,
                   "status": status, "group": group}
            rows.append("  " + json.dumps(doc, indent=2).replace("\n", "\n  "))
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"
