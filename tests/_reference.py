"""Per-record reference implementations, kept as test oracles.

These are the row-by-row versions of computations the package now does
on column arrays: the windowed persona counts, the CLI's per-device fit
means, and the telemetry aggregation. They are kept verbatim (apart from
imports and names) so tests can require the column code to agree with
them bitwise. They take lists of ``UsageFeatureVector`` and of
``TelemetryRow``, a named tuple with the fields of one telemetry row
(the package holds telemetry as columns only, so the row type is this
module's own).

Also kept: the penalized change-point selection over k <= k_max by the
segment-neighbourhood table, which the exact optimal partitioning of
``detect_penalized`` replaced; and the CSV table readers that split every
row with ``csv.reader`` and convert every number with ``float``, which
the block tokenizing of ``panelio._body_blocks`` replaced, and that keep
a Python object per row for each text column, where ``panelio`` codes
them as it reads. Their helpers that ``panelio`` has changed since
(``_opened``, ``_map_distinct``, ``_parse_distinct`` and ``_stacked``)
are copied here as they were, so the readers under test share no code
with these but the unchanged ``panelio`` helpers they import (the header
sniffing, blank-row test and line count). ``_BLOCK_ROWS`` is this
module's own, so a test can set both block sizes, and so is the date
rule, a regular expression checked one row at a time.

And the CSV table writers that write every row with ``csv.writer`` and
every float with ``repr``, which the block layout of
``tablefmt.write_rows`` and the digits of ``tablefmt.float_cells``
replaced.
"""

import csv
import io
import itertools
import os
import re
from collections import Counter, namedtuple
from contextlib import contextmanager
from datetime import date, timedelta
from typing import Iterable

import numpy as np

from causalpanel.changepoint import (
    PenaltyConfig,
    SeriesCosts,
    Segmentation,
    _build_segmentation,
    _reconstruct,
    _suffix_costs,
    effective_penalty,
)
from causalpanel.paneldata import GROUP_FIELD_ORDER, PanelDataset
from causalpanel.errors import ParseError, SchemaError, ValidationError
from causalpanel.files import committed
from causalpanel.panelio import _has_content, _lines_left, _sniff_delimiter
from causalpanel.panel import CHASSIS_TYPES, CPU_FAMILIES
from causalpanel.paneldata import _TELEMETRY_COLUMNS, PolicyTimeline, TelemetryColumns
from _builders import telemetry_columns
from causalpanel.persona import (
    WINDOW_STRIDE,
    WINDOW_WIDTH,
    PersonaModel,
    UsageColumns,
    UsageFeatureVector,
    _squared_distances,
)


def _as_days(value) -> timedelta:
    if isinstance(value, timedelta):
        return value
    return timedelta(days=int(value))


# What ``windowed_counts`` below returns: the fields of a
# ``PersonaCountSeries``, its diffs and z-scores computed here.
CountSeries = namedtuple("CountSeries", "window_starts counts diffs zscores")


def _feature_array(record: UsageFeatureVector, feature_names) -> np.ndarray:
    return np.array([record.features[n] for n in feature_names], dtype=float)


def windowed_counts(
    records: Iterable[UsageFeatureVector],
    model: PersonaModel,
    width: timedelta | int = WINDOW_WIDTH,
    stride: timedelta | int = WINDOW_STRIDE,
) -> CountSeries:
    """Count devices per persona over sliding windows.

    ``records`` are daily feature rows (``window_start`` is the record
    day). Per window, each device's rows inside the window are averaged
    to one vector, zero-usage devices are dropped, and the rest are
    assigned to their nearest frozen centroid. Diffs are consecutive
    count differences; z-scores standardize each persona's diff column
    by its population std (zero-std columns give all-zero z-scores).
    """
    width = _as_days(width)
    stride = _as_days(stride)
    if width <= timedelta(0) or stride <= timedelta(0):
        raise ValueError("width and stride must be positive durations")
    records = sorted(
        records, key=lambda r: (r.window_start, r.device_id)
    )
    if not records:
        raise ValueError("no usage records")
    first = records[0].window_start
    last = records[-1].window_start
    if first + width > last + timedelta(days=1):
        raise ValueError(
            f"records span {first}..{last}, less than one {width.days}-day window"
        )

    starts: list[date] = []
    cursor = first
    while cursor + width <= last + timedelta(days=1):
        starts.append(cursor)
        cursor += stride

    k = model.k
    counts = np.zeros((len(starts), k), dtype=np.int64)
    for w, start in enumerate(starts):
        end = start + width
        per_device: dict[str, list[np.ndarray]] = {}
        for r in records:
            if start <= r.window_start < end:
                per_device.setdefault(r.device_id, []).append(
                    _feature_array(r, model.feature_names)
                )
        for device in sorted(per_device):
            mean_vec = np.mean(per_device[device], axis=0)
            if not mean_vec.any():
                continue
            idx = int(
                np.argmin(_squared_distances(mean_vec[None, :], model.centroids)[0])
            )
            counts[w, idx] += 1

    diffs = counts[1:] - counts[:-1]
    z = np.zeros_like(diffs, dtype=float)
    if diffs.shape[0] > 0:
        means = diffs.mean(axis=0)
        stds = diffs.std(axis=0)
        nonzero = stds > 0
        z[:, nonzero] = (diffs[:, nonzero] - means[nonzero]) / stds[nonzero]
    return CountSeries(tuple(starts), counts, diffs, z)


def window_means(records, feature_names, width, stride):
    """Per window, each device's mean row as ``windowed_counts`` above
    computes it: {(window index, device id): mean array}."""
    records = sorted(records, key=lambda r: (r.window_start, r.device_id))
    first, last = records[0].window_start, records[-1].window_start
    out = {}
    w, start = 0, first
    while start + width <= last + timedelta(days=1):
        per_device: dict[str, list[np.ndarray]] = {}
        for r in records:
            if start <= r.window_start < start + width:
                per_device.setdefault(r.device_id, []).append(
                    _feature_array(r, feature_names)
                )
        for device in sorted(per_device):
            out[(w, device)] = np.mean(per_device[device], axis=0)
        w, start = w + 1, start + stride
    return out


def device_means(fit_records) -> list[UsageFeatureVector]:
    """The CLI's per-device mean loop (``cmd_persona``) before columns."""
    by_device: dict[str, list] = {}
    for r in fit_records:
        by_device.setdefault(r.device_id, []).append(r)
    vectors = []
    for device in sorted(by_device):
        rows = by_device[device]
        names = sorted(rows[0].features)
        mean = {
            n: float(np.mean([r.features[n] for r in rows])) for n in names
        }
        vectors.append(UsageFeatureVector(device, rows[0].window_start, mean))
    return vectors


TelemetryRow = namedtuple(
    "TelemetryRow",
    "date device_id unit_id chassis cpu_family vpro usage_hours cpu_watts",
)


def _group_label(record: TelemetryRow, fields: tuple[str, ...]) -> str:
    parts = []
    for f in fields:
        value = getattr(record, f)
        if f == "vpro":
            value = "vpro" if value else "novpro"
        parts.append(str(value))
    return "|".join(parts)


def aggregate_telemetry(
    records: Iterable[TelemetryRow],
    group_by: Iterable[str] = ("unit_id",),
    outcome: str = "usage_hours",
    statistic: str = "mean",
) -> PanelDataset:
    """Aggregate device-day records to a (group x date) panel of outcome means.

    Groups are composite units keyed by the requested fields in canonical
    order. Cells with no records are masked. The panel's ``system_count`` is
    each group's mean daily device count over the days it reports.

    Records are canonically sorted before accumulation so that the output is
    bit-identical under any input permutation.
    """
    records = list(records)
    if not records:
        raise ValidationError("no telemetry records to aggregate")
    group_fields = tuple(f for f in GROUP_FIELD_ORDER if f in set(group_by))
    unknown = set(group_by) - set(GROUP_FIELD_ORDER)
    if unknown:
        raise SchemaError(f"cannot group by {sorted(unknown)}")
    if outcome not in ("usage_hours", "cpu_watts"):
        raise SchemaError(f"no outcome field {outcome!r} in telemetry records")
    if statistic != "mean":
        raise SchemaError(f"unsupported statistic {statistic!r}")

    records.sort(
        key=lambda r: (
            _group_label(r, group_fields),
            r.date,
            r.device_id,
            r.usage_hours,
            r.cpu_watts,
        )
    )

    first = min(r.date for r in records)
    last = max(r.date for r in records)
    dates = tuple(first + timedelta(days=i) for i in range((last - first).days + 1))

    sums: dict[str, np.ndarray] = {}
    counts: dict[str, np.ndarray] = {}
    devices: dict[str, list[set[str]]] = {}
    for r in records:
        label = _group_label(r, group_fields)
        if label not in sums:
            sums[label] = np.zeros(len(dates))
            counts[label] = np.zeros(len(dates), dtype=np.int64)
            devices[label] = [set() for _ in dates]
        t = (r.date - first).days
        sums[label][t] += getattr(r, outcome)
        counts[label][t] += 1
        devices[label][t].add(r.device_id)

    unit_ids = tuple(sorted(sums))
    outcomes = np.zeros((len(unit_ids), len(dates)))
    mask = np.ones((len(unit_ids), len(dates)), dtype=bool)
    system_count = np.zeros(len(unit_ids))
    for i, label in enumerate(unit_ids):
        present = counts[label] > 0
        outcomes[i, present] = sums[label][present] / counts[label][present]
        mask[i] = ~present
        day_counts = [len(s) for s, p in zip(devices[label], present) if p]
        system_count[i] = float(np.mean(day_counts))

    return PanelDataset(
        unit_ids=unit_ids,
        dates=dates,
        outcomes=outcomes,
        missing_mask=mask,
        outcome_name=outcome,
        system_count=system_count,
    )


def detect_penalized_capped(
    series, penalty: PenaltyConfig = PenaltyConfig(), k_max: int = 20
) -> Segmentation:
    """Pick the segment count minimizing cost + penalty * k over k <= k_max.

    Ties go to the smaller k, so a zero penalty on a constant series still
    returns a single segment.
    """
    costs = SeriesCosts(series)
    if costs.n < 2:
        raise ValueError("need at least 2 points to segment")
    k_cap = min(costs.n, k_max)
    lam = effective_penalty(series, penalty)
    suffix = _suffix_costs(costs, k_cap)
    totals = suffix[1:, 0]
    penalized = totals + lam * np.arange(1, k_cap + 1)
    best_k = 1 + int(np.argmin(penalized))  # argmin takes the first, smallest k
    if best_k == 1:
        return _build_segmentation(costs, ())
    return _build_segmentation(costs, _reconstruct(costs, suffix, best_k))


# ---------------------------------------------------------- CSV readers


# Rows handled per read or write step: bounds the cells held as Python
# strings at once.
_BLOCK_ROWS = 2048


@contextmanager
def _opened(source, mode: str = "r"):
    """A text stream over a path, bytes, or file object; a path opened
    here is closed on exit, a caller's stream is left open. A path opened
    to write is a commit of one file (:func:`~causalpanel.files.committed`):
    a failed write leaves the earlier file as it was. Bytes are read as
    UTF-8 with or without a leading byte order mark (``utf-8-sig``), which
    spreadsheet programs write; none is written."""
    if isinstance(source, (str, os.PathLike)) and mode == "w":
        with committed() as files:
            yield files.open(source)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8-sig", newline="") as stream:
            yield stream
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8-sig"), newline="")
    elif isinstance(source, io.TextIOBase):
        yield source
    elif hasattr(source, "read"):  # binary stream
        encoding = "utf-8" if mode == "w" else "utf-8-sig"
        stream = io.TextIOWrapper(source, encoding=encoding, newline="")
        try:
            yield stream
        finally:
            stream.detach()  # flushes; a dropped wrapper would close source
    else:
        raise TypeError(f"cannot read from {type(source).__name__}")


def _map_distinct(cells, convert, table: dict | None = None) -> list:
    """``convert`` applied to every cell, once per distinct value, so
    equal cells share one result object. A ``table`` (cell -> result)
    passed in keeps the results from one block of a file to the next, so
    that a column of few distinct values, such as dates, is converted
    once per file."""
    table = {} if table is None else table
    for cell in set(cells).difference(table):
        table[cell] = convert(cell)
    return list(map(table.__getitem__, cells))


def _parse_distinct(cells, convert, rownos, describe, table: dict | None = None) -> list:
    """:func:`_map_distinct`, where the first cell ``convert`` rejects with
    ValueError is a parse error naming its row."""
    try:
        return _map_distinct(cells, convert, table)
    except ValueError:
        for cell, rowno in zip(cells, rownos):
            try:
                convert(cell)
            except ValueError:
                raise ParseError(f"row {rowno}: {describe(cell)}") from None
        raise


def _stacked(blocks, columns: dict) -> dict:
    """Whole columns from the per-block parts that ``blocks`` yields (one
    dict of parts per block, in row order). ``columns`` maps each name to
    its output: a list, extended by each part, or an array allocated once
    with room for every row, each part copied in as it comes, then cut
    in place to the rows read. No block outlives its copy, so a column is
    held once, not once in blocks and again joined."""
    n = 0
    for block in blocks:
        for name, part in block.items():
            out = columns[name]
            if isinstance(out, list):
                out.extend(part)
            else:
                out[n : n + len(part)] = part
        n += len(part)
    for out in columns.values():
        if isinstance(out, np.ndarray) and len(out) != n:
            out.resize((n, *out.shape[1:]), refcheck=False)  # no views exist
    return columns


def _body_blocks(reader, width: int, exact: bool = False):
    """The non-blank rows of a CSV body, a block at a time, as a list of
    columns (tuples of cells) with each row's number (the header is row 1).
    A row with fewer than ``width`` cells, or with ``exact`` any other
    count, is a parse error.

    The list is emptied before the next block is read, so the cells of one
    block only are alive at a time; a consumer keeps no other reference to
    the columns past its loop body."""
    first = 2
    while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
        rownos = np.arange(first, first + len(rows))
        first += len(rows)
        keep = np.fromiter(map(_has_content, rows), bool, len(rows))
        rows, rownos = list(itertools.compress(rows, keep)), rownos[keep]
        lengths = np.fromiter(map(len, rows), np.int64, len(rows))
        short = np.flatnonzero(lengths != width if exact else lengths < width)
        if short.size:
            raise ParseError(f"row {rownos[short[0]]}: expected {width} fields")
        if rows:
            columns = list(zip(*rows))
            rows = None  # the cells are held by the columns alone
            yield columns, rownos
            columns.clear()


class _Body:
    """The rows below a CSV header. ``body(width, exact=False)`` yields
    their :func:`_body_blocks`; ``body.max_rows`` bounds their number, so
    a reader can allocate each column once (see :func:`_stacked`)."""

    def __init__(self, stream, delim: str):
        self.max_rows = _lines_left(stream)
        self._reader = csv.reader(stream, delimiter=delim)

    def __call__(self, width: int, exact: bool = False):
        return _body_blocks(self._reader, width, exact)


@contextmanager
def _csv_table(source, kind: str):
    """Open a CSV table (a path, bytes, or stream) and yield its header
    names, stripped, and the :class:`_Body` of the rows below it. The
    delimiter is the one of ``,``, tab and ``;`` that the header line
    holds most of. A stream that cannot seek (a pipe) is read to its end
    first, so that its rows can be counted."""
    with _opened(source) as stream:
        header_line = stream.readline()
        if not header_line:
            raise ParseError(f"{kind} file is empty")
        delim = _sniff_delimiter(header_line)
        header = [h.strip() for h in next(csv.reader([header_line], delimiter=delim))]
        if not stream.seekable():
            stream = io.StringIO(stream.read(), newline="")
        yield header, _Body(stream, delim)


def _refuse_repeated(header, read, kind: str) -> None:
    """A header that names a column of ``read`` more than once is a
    schema error naming the column."""
    counts = Counter(header)
    for name in read:
        if counts[name] > 1:
            raise SchemaError(f"{kind} header names the column {name!r} more than once")


def parse_policy_csv(source, indicator_column: str) -> list[PolicyTimeline]:
    """Parse a policy table into one timeline per unit.

    Region rows become first-class units keyed "CountryName/RegionName";
    national rows keep the plain country name. Only the named ordinal column
    is read; flag and other columns are ignored.
    """
    rows: dict[str, list[tuple[int, str]]] = {}
    with _csv_table(source, "policy") as (header, body):
        cols = {name: i for i, name in enumerate(header)}
        if "CountryName" in cols:
            unit_name, unit_col, region_col = "CountryName", cols["CountryName"], cols.get("RegionName")
        elif "unit_id" in cols:
            unit_name, unit_col, region_col = "unit_id", cols["unit_id"], None
        else:
            raise SchemaError("policy header has no CountryName or unit_id column")
        date_col = cols.get("Date", cols.get("date"))
        if date_col is None:
            raise SchemaError("policy header has no Date column")
        if indicator_column not in cols:
            raise SchemaError(f"policy header has no column {indicator_column!r}")
        date_name = "Date" if "Date" in cols else "date"
        read = [unit_name, date_name, indicator_column]
        _refuse_repeated(header, read + ["RegionName"] * (unit_name == "CountryName"), "policy")
        ind_col = cols[indicator_column]
        used_cols = (unit_col, region_col, date_col, ind_col)

        for columns, rownos in body(max(c for c in used_cols if c is not None) + 1):
            units = list(map(str.strip, columns[unit_col]))
            for unit, rowno in zip(units, rownos):
                if not unit:
                    raise ValidationError(f"row {rowno}: empty {unit_name}")
            if region_col is not None:
                units = (
                    f"{unit}/{region}" if region else unit
                    for unit, region in zip(units, map(str.strip, columns[region_col]))
                )
            days = _day_ordinals(columns[date_col], rownos).tolist()
            for unit, day, raw in zip(units, days, map(str.strip, columns[ind_col])):
                rows.setdefault(unit, []).append((day, raw))

    timelines = []
    for unit in sorted(rows):
        entries = sorted(rows[unit], key=lambda e: e[0])
        dates = tuple(date.fromordinal(d) for d, _ in entries)
        for d1, d2 in zip(dates, dates[1:]):
            if d1 == d2:
                raise ValidationError(f"unit {unit}: duplicate date {d1}")
        codes = []
        last = 0  # leading empties mean "no measures"
        for d, (_, raw) in zip(dates, entries):
            if raw == "":
                codes.append(last)
                continue
            try:
                value = int(float(raw))
            except (ValueError, OverflowError):  # not a number, nan or infinite
                raise ParseError(
                    f"unit {unit} on {d}: non-numeric code {raw!r}"
                ) from None
            if value not in (0, 1, 2, 3):
                raise ValidationError(
                    f"unit {unit} on {d}: code {value} outside 0..3"
                )
            codes.append(value)
            last = value
        for d1, d2 in zip(dates, dates[1:]):
            if d2 - d1 != timedelta(days=1):
                raise ValidationError(f"timeline {unit}: calendar gap between {d1} and {d2}")
        timelines.append(PolicyTimeline(unit, dates[0], tuple(codes)))
    return timelines


_DATE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})|([0-9]{4})([0-9]{2})([0-9]{2})")


def _day_ordinals(cells, rownos) -> np.ndarray:
    """Day ordinal of every date cell, one row at a time: a stripped cell
    is ``YYYY-MM-DD`` or ``YYYYMMDD`` in ASCII digits, a day of the
    calendar; the first that is not is a parse error naming its row."""
    days = []
    for cell, rowno in zip(cells, rownos):
        match = _DATE.fullmatch(cell.strip())
        try:
            year, month, day = (int(g) for g in match.groups() if g is not None)
            days.append(date(year, month, day).toordinal())
        except (AttributeError, ValueError):  # no match, or no such day
            raise ParseError(f"row {rowno}: malformed date {cell.strip()!r}") from None
    return np.array(days, dtype=np.int64)


def _finite_floats(cells, rownos, what: str) -> np.ndarray:
    """Float value of every cell; a non-numeric or non-finite cell is a
    parse error naming the row."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        _parse_distinct(cells, float, rownos, lambda c: f"non-numeric {what} {c.strip()!r}")
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ParseError(f"row {rownos[i]}: non-finite {what} {cells[i].strip()!r}")
    return values


_CHASSIS_ALIASES = {"2-in-1": "TwoInOne", "2in1": "TwoInOne"}


def _chassis(cell: str) -> str:
    cell = cell.strip()
    return _CHASSIS_ALIASES.get(cell, cell)


def _cpu_family(cell: str) -> str:
    cell = cell.strip()
    return cell if cell == "Other" else cell.lower()


def _vpro_flag(token: str) -> bool:
    token = token.strip().lower()
    if token in {"1", "true", "yes", "y"}:
        return True
    if token in {"0", "false", "no", "n"}:
        return False
    raise ValueError(token)


def _telemetry_violation(unit_id, chassis, cpu_family, usage_hours, cpu_watts):
    """The first row that breaks the telemetry schema, as (row index,
    what is wrong), or None, one row at a time per check; of the faults
    of one row, the first check's."""
    problems = []
    for check in (
        lambda r: not unit_id[r] and "empty unit_id",
        lambda r: chassis[r] not in CHASSIS_TYPES and f"unknown chassis {chassis[r]!r}",
        lambda r: cpu_family[r] not in CPU_FAMILIES
        and f"unknown cpu_family {cpu_family[r]!r}",
        lambda r: not 0.0 <= usage_hours[r] <= 24.0
        and f"usage_hours {usage_hours[r]} outside [0, 24]",
        lambda r: not (np.isfinite(cpu_watts[r]) and cpu_watts[r] >= 0.0)
        and f"cpu_watts {cpu_watts[r]} must be finite and non-negative",
    ):
        problems += [(r, what) for r in range(len(unit_id)) if (what := check(r))][:1]
    return min(problems, key=lambda p: p[0]) if problems else None


def parse_telemetry_csv(source) -> TelemetryColumns:
    """Parse device-day telemetry rows into columns; unknown columns are
    ignored. Unparseable or non-finite cells are parse errors, rows that
    break the telemetry schema validation errors, each naming its row."""
    with _csv_table(source, "telemetry") as (header, body):
        cols = {name: i for i, name in enumerate(header)}
        missing = [c for c in _TELEMETRY_COLUMNS if c not in cols]
        if missing:
            raise SchemaError(f"telemetry header missing column(s): {', '.join(missing)}")
        _refuse_repeated(header, _TELEMETRY_COLUMNS, "telemetry")

        def blocks():
            for columns, rownos in body(len(header)):
                cells = {name: columns[cols[name]] for name in _TELEMETRY_COLUMNS}
                block = {
                    "day": _day_ordinals(cells["date"], rownos),
                    "device_id": _map_distinct(cells["device_id"], str.strip),
                    "unit_id": _map_distinct(cells["unit_id"], str.strip),
                    "chassis": _map_distinct(cells["chassis"], _chassis),
                    "cpu_family": _map_distinct(cells["cpu_family"], _cpu_family),
                    "vpro": np.array(
                        _parse_distinct(
                            cells["vpro"], _vpro_flag, rownos,
                            lambda c: f"bad vpro value {c.strip().lower()!r}",
                        ),
                        dtype=bool,
                    ),
                    "usage_hours": _finite_floats(cells["usage_hours"], rownos, "usage_hours"),
                    "cpu_watts": _finite_floats(cells["cpu_watts"], rownos, "cpu_watts"),
                }
                del cells  # see _body_blocks
                problem = _telemetry_violation(
                    block["unit_id"], block["chassis"], block["cpu_family"],
                    block["usage_hours"], block["cpu_watts"],
                )
                if problem is not None:
                    raise ValidationError(f"row {rownos[problem[0]]}: {problem[1]}")
                yield block

        n = body.max_rows
        columns = _stacked(
            blocks(),
            {
                "day": np.empty(n, np.int64),
                "device_id": [],
                "unit_id": [],
                "chassis": [],
                "cpu_family": [],
                "vpro": np.empty(n, bool),
                "usage_hours": np.empty(n),
                "cpu_watts": np.empty(n),
            },
        )
    columns["vpro"] = columns["vpro"].tolist()
    return telemetry_columns(**columns)


def parse_persona_csv(source) -> UsageColumns:
    """Parse usage-feature rows written by :func:`write_persona_csv` into
    columns. Unparseable or non-finite cells are parse errors, negative
    ones validation errors, each naming its row."""
    with _csv_table(source, "persona") as (header, body):
        if header[:2] != ["device_id", "date"]:
            raise SchemaError("persona header must start with device_id, date")
        names = header[2:]
        if not names:
            raise SchemaError("persona header has no feature columns")
        _refuse_repeated(header, header, "persona")

        def blocks():
            for columns, rownos in body(len(header), exact=True):
                values = np.column_stack(
                    [
                        _finite_floats(cells, rownos, f"feature {name!r}")
                        for name, cells in zip(names, columns[2:])
                    ]
                )
                bad = np.argwhere(values < 0.0)
                if bad.size:
                    i, j = bad[0]
                    raise ValidationError(
                        f"row {rownos[i]}: feature {names[j]!r} = {values[i, j]} is negative"
                    )
                yield {
                    "device_id": _map_distinct(columns[0], str.strip),
                    "day": _day_ordinals(columns[1], rownos),
                    "values": values,
                }

        n = body.max_rows
        columns = _stacked(
            blocks(),
            {
                "device_id": [],
                "day": np.empty(n, np.int64),
                "values": np.empty((n, len(names))),
            },
        )
    return UsageColumns.from_rows(
        columns["device_id"], columns["day"], columns["values"], names
    )


def parse_units_csv(source) -> dict[str, str]:
    """The continent of each unit id in a units table; other columns are
    ignored and a later row for the same unit wins."""
    continents: dict[str, str] = {}
    with _csv_table(source, "units") as (header, body):
        if "unit_id" not in header or "continent" not in header:
            raise SchemaError("units header needs unit_id and continent columns")
        _refuse_repeated(header, ("unit_id", "continent"), "units")
        id_col, cont_col = header.index("unit_id"), header.index("continent")
        for columns, _ in body(max(id_col, cont_col) + 1):
            continents.update(
                zip(map(str.strip, columns[id_col]), map(str.strip, columns[cont_col]))
            )
    return continents


def parse_series_csv(source) -> tuple[np.ndarray, list[date] | None]:
    """The ``value`` column of a series table, and its ``date`` column of
    ISO dates when it has one. A non-numeric or non-finite value or a
    malformed date is a parse error naming its row. Once every row has
    parsed, the dates must increase strictly (gaps allowed): the first
    date not after the one before it is a validation error naming its row."""
    with _csv_table(source, "series") as (header, body):
        if "value" not in header:
            raise SchemaError("series file needs a value column")
        _refuse_repeated(header, ("value", "date"), "series")
        v_col = header.index("value")
        d_col = header.index("date") if "date" in header else None

        def blocks():
            for columns, rownos in body(max(v_col, d_col or 0) + 1):
                block = {"value": _finite_floats(columns[v_col], rownos, "value")}
                if d_col is not None:
                    days = _day_ordinals(columns[d_col], rownos)
                    block["date"] = list(map(date.fromordinal, days.tolist()))
                    block["row"] = rownos.tolist()
                yield block

        columns = _stacked(
            blocks(), {"value": np.empty(body.max_rows), "date": [], "row": []}
        )
    if d_col is None:
        return columns["value"], None
    dates = columns["date"]
    for prev, cur, rowno in zip(dates, dates[1:], columns["row"][1:]):
        if cur <= prev:
            raise ValidationError(f"row {rowno}: date {cur} not after the previous date {prev}")
    return columns["value"], dates


# ---------------------------------------------------------- CSV writers


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def write_policy_csv(timelines, target, indicator_column: str) -> None:
    with _opened(target, "w") as stream:
        writer = _csv_writer(stream)
        writer.writerow(["CountryName", "RegionName", "Date", indicator_column])
        for tl in timelines:
            country, _, region = tl.unit_id.partition("/")
            for k, code in enumerate(tl.codes.tolist()):
                day = tl.start + timedelta(days=k)
                writer.writerow(
                    [country, region, f"{day.year:04d}{day.month:02d}{day.day:02d}", code]
                )


def write_telemetry_csv(pieces, target) -> None:
    with _opened(target, "w") as stream:
        writer = _csv_writer(stream)
        writer.writerow(_TELEMETRY_COLUMNS)
        for piece in pieces:
            for i in range(len(piece)):
                device_id, unit_id, chassis, cpu_family, vpro = piece.devices[piece.device[i]]
                writer.writerow(
                    [
                        date.fromordinal(int(piece.day[i])).isoformat(),
                        device_id,
                        unit_id,
                        chassis,
                        cpu_family,
                        int(vpro),
                        repr(float(piece.usage_hours[i])),
                        repr(float(piece.cpu_watts[i])),
                    ]
                )


def write_persona_csv(pieces, target) -> None:
    written, first = 0, None
    with _opened(target, "w") as stream:
        writer = _csv_writer(stream)
        for piece in pieces:
            first = piece if first is None else first
            if piece.feature_names != first.feature_names:
                raise SchemaError("persona pieces differ in feature names")
            names = sorted(piece.feature_names)
            if len(piece) and not written:
                writer.writerow(["device_id", "date"] + names)
            cols = [piece.feature_names.index(n) for n in names]
            for i in range(len(piece)):
                writer.writerow(
                    [
                        piece.device_ids[piece.device[i]],
                        date.fromordinal(int(piece.day[i])).isoformat(),
                        *(repr(float(piece.values[i, j])) for j in cols),
                    ]
                )
            written += len(piece)
        if not written:
            raise ValidationError("no persona records to write")
