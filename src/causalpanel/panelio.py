"""File ingestion and interchange formats.

Three formats live here:

* policy CSV — delimiter-separated, header-driven; a unit-name column
  (``CountryName`` plus optional ``RegionName``, or ``unit_id``), a ``Date``
  column in 8-digit ``YYYYMMDD`` or ISO form (auto-detected per file), and
  one ordinal indicator column named at parse time. Empty indicator cells
  are forward-filled; leading empties become 0.
* telemetry CSV — columns (date, device_id, unit_id, chassis, cpu_family,
  vpro, usage_hours, cpu_watts); unknown columns are ignored.
* persona CSV — per-device-day category usage rows
  (device_id, date, one column per feature category).
* panel file — a self-describing text interchange format for
  :class:`~causalpanel.paneldata.PanelDataset`: a header block naming the
  outcome, then tab-separated sections (``outcomes``, ``covariates``,
  ``tags``, ``codes``) with masked cells written as the sentinel ``NA``.
"""

from __future__ import annotations

import csv
import io
import os
from datetime import date, datetime
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .paneldata import PanelDataset, PolicyTimeline, TelemetryRecord

PANEL_MAGIC = "#causalpanel-panel v1"
NA = "NA"

_CHASSIS_ALIASES = {"2-in-1": "TwoInOne", "2in1": "TwoInOne"}
_TRUE_TOKENS = {"1", "true", "yes", "y"}
_FALSE_TOKENS = {"0", "false", "no", "n"}


def _open_text(source, mode: str = "r"):
    """Accept a path, bytes, or file object; return (text stream, should_close)."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode, encoding="utf-8", newline=""), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8")), False
    if isinstance(source, io.TextIOBase):
        return source, False
    if hasattr(source, "read"):  # binary stream
        return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
    raise TypeError(f"cannot read from {type(source).__name__}")


def _sniff_delimiter(header_line: str) -> str:
    candidates = [",", "\t", ";"]
    return max(candidates, key=header_line.count)


def _detect_date_format(token: str) -> str:
    token = token.strip()
    if len(token) == 8 and token.isdigit():
        return "ymd8"
    return "iso"


def _parse_date(token: str, fmt: str, where: str) -> date:
    token = token.strip()
    try:
        if fmt == "ymd8":
            return datetime.strptime(token, "%Y%m%d").date()
        return date.fromisoformat(token)
    except ValueError:
        raise ParseError(f"{where}: malformed date {token!r}") from None


def parse_policy_csv(source, indicator_column: str) -> list[PolicyTimeline]:
    """Parse a policy table into one timeline per unit.

    Region rows become first-class units keyed "CountryName/RegionName";
    national rows keep the plain country name. Only the named ordinal column
    is read; flag and other columns are ignored.
    """
    stream, close = _open_text(source)
    try:
        header_line = stream.readline()
        if not header_line:
            raise ParseError("policy file is empty")
        delim = _sniff_delimiter(header_line)
        header = next(csv.reader([header_line], delimiter=delim))
        header = [h.strip() for h in header]
        cols = {name: i for i, name in enumerate(header)}

        if "CountryName" in cols:
            unit_col, region_col = cols["CountryName"], cols.get("RegionName")
        elif "unit_id" in cols:
            unit_col, region_col = cols["unit_id"], None
        else:
            raise SchemaError("policy header has no CountryName or unit_id column")
        date_col = cols.get("Date", cols.get("date"))
        if date_col is None:
            raise SchemaError("policy header has no Date column")
        if indicator_column not in cols:
            raise SchemaError(f"policy header has no column {indicator_column!r}")
        ind_col = cols[indicator_column]

        rows: dict[str, list[tuple[date, str]]] = {}
        date_fmt = None
        for lineno, row in enumerate(csv.reader(stream, delimiter=delim), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(unit_col, date_col, ind_col):
                raise ParseError(f"row {lineno}: expected {len(header)} fields")
            unit = row[unit_col].strip()
            if region_col is not None and row[region_col].strip():
                unit = f"{unit}/{row[region_col].strip()}"
            if date_fmt is None:
                date_fmt = _detect_date_format(row[date_col])
            day = _parse_date(row[date_col], date_fmt, f"row {lineno}")
            rows.setdefault(unit, []).append((day, row[ind_col].strip()))

        timelines = []
        for unit in sorted(rows):
            entries = sorted(rows[unit], key=lambda e: e[0])
            for (d1, _), (d2, _) in zip(entries, entries[1:]):
                if d1 == d2:
                    raise ValidationError(f"unit {unit}: duplicate date {d1}")
            dates = tuple(d for d, _ in entries)
            codes = []
            last = 0  # leading empties mean "no measures"
            for d, raw in entries:
                if raw == "":
                    codes.append(last)
                    continue
                try:
                    value = int(float(raw))
                except ValueError:
                    raise ParseError(
                        f"unit {unit} on {d}: non-numeric code {raw!r}"
                    ) from None
                if value not in (0, 1, 2, 3):
                    raise ValidationError(
                        f"unit {unit} on {d}: code {value} outside 0..3"
                    )
                codes.append(value)
                last = value
            timelines.append(PolicyTimeline(unit, dates, tuple(codes)))
        return timelines
    finally:
        if close:
            stream.close()


def write_policy_csv(
    timelines: Iterable[PolicyTimeline],
    target,
    indicator_column: str,
    date_format: str = "ymd8",
) -> None:
    """Serialize timelines in the shape :func:`parse_policy_csv` reads back."""
    stream, close = _open_text(target, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["CountryName", "RegionName", "Date", indicator_column])
        for tl in timelines:
            country, _, region = tl.unit_id.partition("/")
            for d, c in zip(tl.dates, tl.codes):
                token = d.strftime("%Y%m%d") if date_format == "ymd8" else d.isoformat()
                writer.writerow([country, region, token, c])
    finally:
        if close:
            stream.close()


_TELEMETRY_COLUMNS = (
    "date",
    "device_id",
    "unit_id",
    "chassis",
    "cpu_family",
    "vpro",
    "usage_hours",
    "cpu_watts",
)


def parse_telemetry_csv(source) -> list[TelemetryRecord]:
    """Parse device-day telemetry rows; unknown columns are ignored."""
    stream, close = _open_text(source)
    try:
        header_line = stream.readline()
        if not header_line:
            raise ParseError("telemetry file is empty")
        delim = _sniff_delimiter(header_line)
        header = [h.strip() for h in next(csv.reader([header_line], delimiter=delim))]
        cols = {name: i for i, name in enumerate(header)}
        missing = [c for c in _TELEMETRY_COLUMNS if c not in cols]
        if missing:
            raise SchemaError(f"telemetry header missing column(s): {', '.join(missing)}")

        records = []
        date_fmt = None
        for lineno, row in enumerate(csv.reader(stream, delimiter=delim), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"row {lineno}: expected {len(header)} fields")
            get = lambda name: row[cols[name]].strip()
            if date_fmt is None:
                date_fmt = _detect_date_format(get("date"))
            day = _parse_date(get("date"), date_fmt, f"row {lineno}")
            chassis = get("chassis")
            chassis = _CHASSIS_ALIASES.get(chassis, chassis)
            family = get("cpu_family")
            family = family if family == "Other" else family.lower()
            vtoken = get("vpro").lower()
            if vtoken in _TRUE_TOKENS:
                vpro = True
            elif vtoken in _FALSE_TOKENS:
                vpro = False
            else:
                raise ParseError(f"row {lineno}: bad vpro value {vtoken!r}")
            try:
                hours = float(get("usage_hours"))
                watts = float(get("cpu_watts"))
            except ValueError:
                raise ParseError(f"row {lineno}: non-numeric usage value") from None
            records.append(
                TelemetryRecord(
                    date=day,
                    device_id=get("device_id"),
                    unit_id=get("unit_id"),
                    chassis=chassis,
                    cpu_family=family,
                    vpro=vpro,
                    usage_hours=hours,
                    cpu_watts=watts,
                )
            )
        return records
    finally:
        if close:
            stream.close()


def write_telemetry_csv(records: Iterable[TelemetryRecord], target) -> None:
    stream, close = _open_text(target, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_TELEMETRY_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.date.isoformat(),
                    r.device_id,
                    r.unit_id,
                    r.chassis,
                    r.cpu_family,
                    "1" if r.vpro else "0",
                    repr(float(r.usage_hours)),
                    repr(float(r.cpu_watts)),
                ]
            )
    finally:
        if close:
            stream.close()


def write_persona_csv(records, target) -> None:
    """Serialize usage-feature rows; one column per feature category."""
    records = list(records)
    if not records:
        raise ValidationError("no persona records to write")
    names = sorted(records[0].features)
    stream, close = _open_text(target, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["device_id", "date"] + names)
        for r in records:
            if sorted(r.features) != names:
                raise SchemaError(
                    f"device {r.device_id}: feature names differ between rows"
                )
            writer.writerow(
                [r.device_id, r.window_start.isoformat()]
                + [repr(float(r.features[n])) for n in names]
            )
    finally:
        if close:
            stream.close()


def parse_persona_csv(source):
    """Parse usage-feature rows written by :func:`write_persona_csv`."""
    from .persona import UsageFeatureVector

    stream, close = _open_text(source)
    try:
        header_line = stream.readline()
        if not header_line:
            raise ParseError("persona file is empty")
        delim = _sniff_delimiter(header_line)
        header = [h.strip() for h in next(csv.reader([header_line], delimiter=delim))]
        if header[:2] != ["device_id", "date"]:
            raise SchemaError("persona header must start with device_id, date")
        names = header[2:]
        if not names:
            raise SchemaError("persona header has no feature columns")
        records = []
        for lineno, row in enumerate(csv.reader(stream, delimiter=delim), start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"row {lineno}: expected {len(header)} fields")
            day = _parse_date(row[1], "iso", f"row {lineno}")
            try:
                values = [float(c) for c in row[2:]]
            except ValueError:
                raise ParseError(f"row {lineno}: non-numeric feature value") from None
            records.append(
                UsageFeatureVector(row[0].strip(), day, dict(zip(names, values)))
            )
        return records
    finally:
        if close:
            stream.close()


def _fmt(value: float) -> str:
    return repr(float(value))


def write_panel(panel: PanelDataset, target) -> None:
    """Write a panel in the self-describing interchange format."""
    for u in panel.unit_ids:
        if "\t" in u:
            raise ValidationError(f"unit id {u!r} contains a tab")
    stream, close = _open_text(target, "w")
    try:
        w = stream.write
        w(PANEL_MAGIC + "\n")
        w(f"#outcome {panel.outcome_name}\n")
        w("#section outcomes\n")
        w("\t".join(["unit"] + [d.isoformat() for d in panel.dates]) + "\n")
        for i, u in enumerate(panel.unit_ids):
            cells = [
                NA if panel.missing_mask[i, j] else _fmt(panel.outcomes[i, j])
                for j in range(panel.n_dates)
            ]
            w("\t".join([u] + cells) + "\n")
        if panel.covariates is not None and panel.covariate_names:
            w("#section covariates\n")
            w("\t".join(["unit"] + list(panel.covariate_names)) + "\n")
            for i, u in enumerate(panel.unit_ids):
                w("\t".join([u] + [_fmt(v) for v in panel.covariates[i]]) + "\n")
        if panel.unit_tags:
            names = sorted(panel.unit_tags)
            w("#section tags\n")
            w("\t".join(["unit"] + names) + "\n")
            for i, u in enumerate(panel.unit_ids):
                w("\t".join([u] + [panel.unit_tags[n][i] for n in names]) + "\n")
        if panel.policy_codes is not None:
            w("#section codes\n")
            w("\t".join(["unit"] + [d.isoformat() for d in panel.dates]) + "\n")
            for i, u in enumerate(panel.unit_ids):
                cells = [
                    NA if c < 0 else str(int(c)) for c in panel.policy_codes[i]
                ]
                w("\t".join([u] + cells) + "\n")
    finally:
        if close:
            stream.close()


def read_panel(source) -> PanelDataset:
    """Read a panel written by :func:`write_panel`."""
    stream, close = _open_text(source)
    try:
        lines = stream.read().splitlines()
    finally:
        if close:
            stream.close()
    if not lines or lines[0] != PANEL_MAGIC:
        raise ParseError("not a panel file (missing magic header)")
    if len(lines) < 2 or not lines[1].startswith("#outcome "):
        raise ParseError("panel file missing #outcome header")
    outcome_name = lines[1][len("#outcome ") :].strip()

    sections: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        if line.startswith("#section "):
            name = line[len("#section ") :].strip()
            current = sections.setdefault(name, [])
        elif current is None:
            raise ParseError(f"line {lineno}: content outside any section")
        else:
            current.append(line.split("\t"))

    if "outcomes" not in sections or not sections["outcomes"]:
        raise ParseError("panel file has no outcomes section")

    def parse_matrix(rows: list[list[str]], kind: str):
        header, body = rows[0], rows[1:]
        try:
            dates = tuple(date.fromisoformat(t) for t in header[1:])
        except ValueError:
            raise ParseError(f"{kind} section: malformed date header") from None
        units, values, mask = [], [], []
        for row in body:
            if len(row) != len(header):
                raise ParseError(
                    f"{kind} row for {row[0]!r}: {len(row) - 1} cells for "
                    f"{len(dates)} dates"
                )
            units.append(row[0])
            values.append(
                [0.0 if c == NA else _parse_number(c, kind, row[0]) for c in row[1:]]
            )
            mask.append([c == NA for c in row[1:]])
        return units, dates, np.array(values), np.array(mask, dtype=bool)

    units, dates, outcomes, mask = parse_matrix(sections["outcomes"], "outcomes")

    def unit_rows(kind: str) -> tuple[list[str], list[list[str]]]:
        """Column names and one row of cells per unit, in outcome order."""
        header, *body = sections[kind]
        by_unit = {row[0]: row[1:] for row in body}
        rows = []
        for u in units:
            if u not in by_unit:
                raise ParseError(f"{kind} section has no row for unit {u!r}")
            if len(by_unit[u]) != len(header) - 1:
                raise ParseError(
                    f"{kind} row for {u!r}: {len(by_unit[u])} cells for "
                    f"{len(header) - 1} columns"
                )
            rows.append(by_unit[u])
        return header[1:], rows

    covariates = None
    covariate_names: tuple[str, ...] = ()
    if "covariates" in sections and len(sections["covariates"]) > 1:
        names, rows = unit_rows("covariates")
        covariate_names = tuple(names)
        covariates = np.array(
            [
                [_parse_number(c, "covariates", u) for c in row]
                for u, row in zip(units, rows)
            ]
        )

    tags: dict[str, tuple[str, ...]] = {}
    if "tags" in sections and len(sections["tags"]) > 1:
        names, rows = unit_rows("tags")
        for k, name in enumerate(names):
            tags[name] = tuple(row[k] for row in rows)

    codes = None
    if "codes" in sections and len(sections["codes"]) > 1:
        _, rows = unit_rows("codes")
        codes = np.array(
            [[-1 if c == NA else int(c) for c in row] for row in rows],
            dtype=np.int64,
        )

    return PanelDataset(
        unit_ids=tuple(units),
        dates=dates,
        outcomes=outcomes,
        missing_mask=mask,
        outcome_name=outcome_name,
        covariates=covariates,
        covariate_names=covariate_names,
        unit_tags=tags,
        policy_codes=codes,
    )


def _parse_number(token: str, section: str, unit: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{section} row for {unit!r}: bad number {token!r}") from None
