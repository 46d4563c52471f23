"""File ingestion and interchange formats.

This is the one module that reads CSV. It writes the input tables and the
panel file; the CLI writes its own result tables. The formats:

* policy CSV — header-driven; a unit-name column
  (``CountryName`` plus optional ``RegionName``, or ``unit_id``), a ``Date``
  column in 8-digit ``YYYYMMDD`` or ISO form (auto-detected per file), and
  one ordinal indicator column named at parse time. Empty indicator cells
  are forward-filled; leading empties become 0.
* telemetry CSV — columns (date, device_id, unit_id, chassis, cpu_family,
  vpro, usage_hours, cpu_watts); unknown columns are ignored. Parsed into
  :class:`~causalpanel.paneldata.TelemetryColumns`.
* persona CSV — per-device-day category usage rows
  (device_id, date, one column per feature category). Parsed into
  :class:`~causalpanel.persona.UsageColumns`; only the persona reader
  and writer import :mod:`causalpanel.persona`.
* units CSV — unit descriptors (unit_id, continent, devices_per_day,
  vpro_fraction); the reader takes the continent of each unit.
* series CSV — a ``value`` column and an optional ISO ``date`` column.
* panel file — a self-describing text interchange format for
  :class:`~causalpanel.paneldata.PanelDataset`: a header block naming the
  outcome, then tab-separated sections (``outcomes``, ``covariates``,
  ``tags``, ``codes``) with masked cells written as the sentinel ``NA``.

Every CSV table is read by :func:`_csv_table`, so all share one dialect:
the delimiter (``,``, tab or ``;``) is sniffed from the header line,
header names are stripped, blank rows are skipped, and rows are numbered
from the header as row 1. The body is read a block of lines at a time
(:func:`_body_blocks`): numpy's C tokenizer splits a quote-free block
into columns and converts its numbers in one ``np.loadtxt`` call, and
``csv.reader`` splits a block that holds a quote, or one loadtxt
refuses, so that the refused block's first bad cell is named as before.
Each column is then converted at once (text cells once per distinct
value, dates once per file) and validated at once. Each block is copied
into columns allocated once for as many rows as the file has lines left
(:func:`_stacked`), so a table is held once, not once in blocks and again
joined; the lines and cells of one block only are alive at a time. Every
rejected cell is named by its row: unparseable or non-finite values and
short rows are parse errors, values outside the schema validation
errors. The writers format a block of rows at a time (each date once per
file), floats with ``repr`` over ``tolist()`` values, so a file written
from columns is byte-identical to one written row by row with
``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from datetime import date, datetime
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .paneldata import (
    PanelDataset,
    PolicyTimeline,
    TelemetryColumns,
    telemetry_violation,
)

PANEL_MAGIC = "#causalpanel-panel v1"
NA = "NA"

_CHASSIS_ALIASES = {"2-in-1": "TwoInOne", "2in1": "TwoInOne"}
_TRUE_TOKENS = {"1", "true", "yes", "y"}
_FALSE_TOKENS = {"0", "false", "no", "n"}


@contextmanager
def _opened(source, mode: str = "r"):
    """A text stream over a path, bytes, or file object; a path opened
    here is closed on exit, a caller's stream is left open. A path opened
    to write is written as ``<path>.tmp`` and renamed to ``path`` when the
    block succeeds, so a failed write leaves neither file."""
    if isinstance(source, (str, os.PathLike)) and mode == "w":
        tmp = f"{os.fspath(source)}.tmp"
        try:
            with open(tmp, mode, encoding="utf-8", newline="") as stream:
                yield stream
            os.replace(tmp, source)
        finally:
            if os.path.exists(tmp):  # the write failed
                os.remove(tmp)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8", newline="") as stream:
            yield stream
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"), newline="")
    elif isinstance(source, io.TextIOBase):
        yield source
    elif hasattr(source, "read"):  # binary stream
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield stream
        finally:
            stream.detach()  # flushes; a dropped wrapper would close source
    else:
        raise TypeError(f"cannot read from {type(source).__name__}")


def _sniff_delimiter(header_line: str) -> str:
    candidates = [",", "\t", ";"]
    return max(candidates, key=header_line.count)


def _detect_date_format(token: str) -> str:
    token = token.strip()
    if len(token) == 8 and token.isdigit():
        return "ymd8"
    return "iso"


def _to_date(token: str, fmt: str) -> date:
    token = token.strip()
    if fmt == "ymd8":
        return datetime.strptime(token, "%Y%m%d").date()
    return date.fromisoformat(token)


# Rows handled per read or write step: bounds the lines and cells held as
# Python strings at once.
_BLOCK_ROWS = 2048

# Characters that send a block to csv.reader although it holds no quote:
# NUL, which csv.reader refuses before Python 3.11, and \x1c-\x1f, which
# loadtxt strips from around a number as whitespace where float() refuses
# them.
_UNTOKENIZED = ("\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _has_content(row: list[str]) -> bool:
    return any(map(str.strip, row))


def _csv_block(rows: list[list[str]], first: int, width: int, exact: bool):
    """The non-blank ones of ``rows`` (split by ``csv.reader``, the first
    numbered ``first``) as a list of columns, tuples of cells, and each
    row's number. A row with fewer than ``width`` cells, or with ``exact``
    any other count, is a parse error."""
    rownos = np.arange(first, first + len(rows))
    keep = np.fromiter(map(_has_content, rows), bool, len(rows))
    rows, rownos = list(itertools.compress(rows, keep)), rownos[keep]
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    short = np.flatnonzero(lengths != width if exact else lengths < width)
    if short.size:
        raise ParseError(f"row {rownos[short[0]]}: expected {width} fields")
    return list(zip(*rows)), rownos


def _tokenized_block(lines: list[str], first: int, delim: str, fields: np.dtype, exact: bool):
    """:func:`_csv_block` of quote-free ``lines`` by one ``np.loadtxt``
    call: the float fields of ``fields`` as float arrays, the others as
    lists of cells. None when loadtxt refuses a cell or a row's count, or
    a float is not finite: then :func:`_csv_block` reads the lines and
    the parser names the fault."""
    rownos = np.arange(first, first + len(lines))
    if all(fields[name] == object for name in fields.names):
        # loadtxt would read a line of delimiters and whitespace only as a
        # row of empty cells; it is a row _has_content drops. A float field
        # cannot be blank, so with one loadtxt refuses such a line, or skips
        # it when empty, and the row count shows that.
        keep = np.fromiter(
            (not line.replace(delim, " ").isspace() for line in lines), bool, len(lines)
        )
        if not keep.all():
            lines, rownos = list(itertools.compress(lines, keep)), rownos[keep]
        if not lines:
            return [], rownos
    try:
        table = np.loadtxt(
            lines,
            delimiter=delim,
            dtype=fields,
            usecols=None if exact else tuple(range(len(fields))),
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    if len(table) != len(lines):  # an empty line loadtxt skipped
        return None
    columns = []
    for name in fields.names:
        column = table[name]
        if column.dtype == object:
            columns.append(column.tolist())
        elif np.isfinite(column).all():
            columns.append(column)
        else:
            return None
    return columns, rownos


def _body_blocks(stream, delim: str, width: int, exact: bool = False, floats=()):
    """The non-blank rows of a CSV body, a block at a time, as a list of
    columns with each row's number (the header is row 1). A column named
    in ``floats`` is a float array, checked finite, where the block was
    tokenized, and like every other column a sequence of cells where it
    was not. A row with fewer than ``width`` cells, or with ``exact`` any
    other count, is a parse error.

    The list is emptied before the next block is read, so the cells of one
    block only are alive at a time; a consumer keeps no other reference to
    the columns past its loop body."""
    for columns, rownos in _blocks(stream, delim, width, exact, floats):
        if rownos.size:
            yield columns, rownos
            columns.clear()


def _blocks(stream, delim: str, width: int, exact: bool, floats):
    """The blocks of :func:`_body_blocks`, blank ones included. A block is
    ``_BLOCK_ROWS`` lines, tokenized by numpy's C reader
    (:func:`_tokenized_block`); one it refuses is read again by
    ``csv.reader``, which splits it as before or names the fault. From the
    first block that holds a quote on, ``csv.reader`` reads the rest of the
    file: loadtxt does not unquote, and a quoted cell may hold line breaks
    past the block's end. Up to there one line is one row, so the rows,
    their blocks and their numbers are those of ``csv.reader`` throughout."""
    fields = np.dtype(
        [(f"f{j}", np.float64 if j in floats else object) for j in range(width)]
    )
    first = 2
    while lines := list(itertools.islice(stream, _BLOCK_ROWS)):
        text = "".join(lines)
        if '"' in text:
            break
        block = None
        # a block of empty lines only is not tokenized: loadtxt would warn
        # that it read no data
        if not text.isspace() and not any(map(text.__contains__, _UNTOKENIZED)):
            block = _tokenized_block(lines, first, delim, fields, exact)
        if block is None:
            block = _csv_block(list(csv.reader(lines, delimiter=delim)), first, width, exact)
        first += len(lines)
        lines = text = None
        yield block
    else:
        return
    reader = csv.reader(itertools.chain(lines, stream), delimiter=delim)
    lines = text = None
    while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
        block = _csv_block(rows, first, width, exact)
        first += len(rows)
        rows = None  # the cells are held by the columns alone
        yield block


def _lines_left(stream) -> int:
    """The lines from the stream's position to its end, an unterminated
    last one included: a bound on the CSV rows there. The position is
    kept."""
    start = stream.tell()
    lines = 1
    while chunk := stream.read(1 << 20):
        lines += chunk.count("\n")
        if "\r" in chunk:
            lines += chunk.count("\r") - chunk.count("\r\n")
    stream.seek(start)
    return lines


def _file_lines(path) -> int:
    """The lines of the file at ``path``, an unterminated last one included,
    counted on its raw bytes. In UTF-8 a line feed or carriage return byte
    is never part of another character, so this is :func:`_lines_left` of
    the whole file without decoding it. numpy counts the line feeds about
    three times as fast as ``bytes.count``."""
    lines = 1
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 18):
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    return lines


class _Body:
    """The rows below a CSV header. ``body(width, exact=False, floats=())``
    yields their :func:`_body_blocks`; ``body.max_rows`` bounds their
    number, so a reader can allocate each column once (see
    :func:`_stacked`)."""

    def __init__(self, stream, delim: str, max_rows: int):
        self.max_rows = max_rows
        self._stream, self._delim = stream, delim

    def __call__(self, width: int, exact: bool = False, floats=()):
        return _body_blocks(self._stream, self._delim, width, exact, floats)


@contextmanager
def _csv_table(source, kind: str):
    """Open a CSV table (a path, bytes, or stream) and yield its header
    names, stripped, and the :class:`_Body` of the rows below it. The
    delimiter is the one of ``,``, tab and ``;`` that the header line
    holds most of. The rows of a file named by its path are counted on its
    bytes, so the text is read once; a stream's are counted on its text,
    and one that cannot seek (a pipe) is read to its end first."""
    with _opened(source) as stream:
        header_line = stream.readline()
        if not header_line:
            raise ParseError(f"{kind} file is empty")
        delim = _sniff_delimiter(header_line)
        header = [h.strip() for h in next(csv.reader([header_line], delimiter=delim))]
        if isinstance(source, (str, os.PathLike)) and stream.seekable():
            # every line but the header's, if it ended
            max_rows = _file_lines(source) - header_line.endswith(("\n", "\r"))
        else:
            if not stream.seekable():
                stream = io.StringIO(stream.read(), newline="")
            max_rows = _lines_left(stream)
        yield header, _Body(stream, delim, max_rows)


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
        used_cols = (unit_col, region_col, date_col, ind_col)

        date_fmt, day_table = None, {}
        for columns, rownos in body(max(c for c in used_cols if c is not None) + 1):
            units = map(str.strip, columns[unit_col])
            if region_col is not None:
                units = (
                    f"{unit}/{region}" if region else unit
                    for unit, region in zip(units, map(str.strip, columns[region_col]))
                )
            date_fmt = date_fmt or _detect_date_format(columns[date_col][0])
            days = _day_ordinals(columns[date_col], rownos, date_fmt, day_table).tolist()
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


def write_policy_csv(
    timelines: Iterable[PolicyTimeline], target, indicator_column: str
) -> None:
    """Serialize timelines in the shape :func:`parse_policy_csv` reads back,
    dates as 8-digit ``YYYYMMDD``. Each date is formatted once per file,
    however many timelines hold it."""
    tokens: dict = {}  # date -> its cell
    with _opened(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["CountryName", "RegionName", "Date", indicator_column])
        for tl in timelines:
            country, _, region = tl.unit_id.partition("/")
            for d, c in zip(tl.dates, tl.codes):
                token = tokens.get(d)
                if token is None:
                    token = tokens[d] = d.strftime("%Y%m%d")
                writer.writerow([country, region, token, c])


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


def _finite_floats(cells, rownos, what: str) -> np.ndarray:
    """Float value of every cell; a non-numeric or non-finite cell is a
    parse error naming the row. A column the reader tokenized is a float
    array already checked, and is returned as it is. The cells of a block
    it refused are converted here, in the parser's order of checks, so a
    block with several faults names the same one it named when
    ``csv.reader`` split every block."""
    if isinstance(cells, np.ndarray):
        return cells
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


def _vpro_flag(token: str) -> bool:
    token = token.strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(token)


def _day_ordinals(cells, rownos, fmt: str, table: dict) -> np.ndarray:
    """Day ordinal of every date cell; ``table`` keeps the file's parsed
    dates (see :func:`_map_distinct`)."""
    days = _parse_distinct(
        cells,
        lambda c: _to_date(c, fmt).toordinal(),
        rownos,
        lambda c: f"malformed date {c.strip()!r}",
        table,
    )
    return np.array(days, dtype=np.int64)


def _chassis(cell: str) -> str:
    cell = cell.strip()
    return _CHASSIS_ALIASES.get(cell, cell)


def _cpu_family(cell: str) -> str:
    cell = cell.strip()
    return cell if cell == "Other" else cell.lower()


def parse_telemetry_csv(source) -> TelemetryColumns:
    """Parse device-day telemetry rows into columns; unknown columns are
    ignored. Unparseable or non-finite cells are parse errors, rows that
    break the telemetry schema validation errors, each naming its row."""
    with _csv_table(source, "telemetry") as (header, body):
        cols = {name: i for i, name in enumerate(header)}
        missing = [c for c in _TELEMETRY_COLUMNS if c not in cols]
        if missing:
            raise SchemaError(f"telemetry header missing column(s): {', '.join(missing)}")
        day_table = {}

        def blocks():
            date_fmt = None
            floats = (cols["usage_hours"], cols["cpu_watts"])
            for columns, rownos in body(len(header), floats=floats):
                cells = {name: columns[cols[name]] for name in _TELEMETRY_COLUMNS}
                date_fmt = date_fmt or _detect_date_format(cells["date"][0])
                block = {
                    "day": _day_ordinals(cells["date"], rownos, date_fmt, day_table),
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
                problem = telemetry_violation(
                    block["chassis"], block["cpu_family"], block["usage_hours"], block["cpu_watts"]
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
    return TelemetryColumns(**columns)


def _csv_cells(values) -> dict[str, str]:
    """Each distinct text value as a cell written by ``csv.writer`` (quoted
    only where the value needs it)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = {}
    for value in set(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        cells[value] = buf.getvalue()[:-2]
    return cells


def _write_rows(stream, n_rows: int, block_columns) -> None:
    """Write ``n_rows`` comma-joined lines, a block of rows at a time;
    ``block_columns(lo, hi)`` returns the formatted cells of rows lo..hi
    as one sequence per column."""
    for lo in range(0, n_rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        stream.write("\n".join(map(",".join, zip(*block_columns(lo, hi)))) + "\n")


def _day_cells(days: np.ndarray, iso: dict[int, str]) -> list[str]:
    """The ISO date cell of every day ordinal; ``iso`` keeps the cells of
    the file's earlier blocks, so each date is formatted once per file."""
    return _map_distinct(days.tolist(), lambda d: date.fromordinal(d).isoformat(), iso)


def _float_cells(values: np.ndarray) -> list[str]:
    return list(map(repr, values.ravel().tolist()))


def write_telemetry_csv(rows: TelemetryColumns, target) -> None:
    """Write telemetry columns in the shape :func:`parse_telemetry_csv`
    reads back; floats are written with ``repr``."""
    text = {
        name: _csv_cells(getattr(rows, name))
        for name in ("device_id", "unit_id", "chassis", "cpu_family")
    }
    iso = {}

    def block(lo, hi):
        return [
            _day_cells(rows.day[lo:hi], iso),
            *(
                [cells[v] for v in getattr(rows, name)[lo:hi]]
                for name, cells in text.items()
            ),
            ["1" if v else "0" for v in rows.vpro[lo:hi].tolist()],
            _float_cells(rows.usage_hours[lo:hi]),
            _float_cells(rows.cpu_watts[lo:hi]),
        ]

    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(_TELEMETRY_COLUMNS)
        _write_rows(stream, len(rows), block)


def write_persona_csv(records, target) -> None:
    """Serialize usage-feature rows (a :class:`UsageColumns` or an iterable
    of :class:`UsageFeatureVector`); one column per feature category, in
    sorted name order, floats written with ``repr``."""
    from .persona import as_usage_columns

    rows = as_usage_columns(records)
    if not len(rows):
        raise ValidationError("no persona records to write")
    names = sorted(rows.feature_names)
    # the stored column of each written one: each block's cells are
    # reordered, so the value matrix is never copied in written order
    cols = [rows.feature_names.index(n) for n in names]
    ids = _csv_cells(rows.device_ids)
    id_cells = [ids[v] for v in rows.device_ids]
    iso = {}

    def block(lo, hi):
        floats = _float_cells(rows.values[lo:hi])
        return [
            [id_cells[d] for d in rows.device[lo:hi].tolist()],
            _day_cells(rows.day[lo:hi], iso),
            *(floats[j :: len(names)] for j in cols),
        ]

    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(["device_id", "date"] + names)
        _write_rows(stream, len(rows), block)


def parse_persona_csv(source) -> UsageColumns:
    """Parse usage-feature rows written by :func:`write_persona_csv` into
    columns. Unparseable or non-finite cells are parse errors, negative
    ones validation errors, each naming its row."""
    from .persona import UsageColumns

    with _csv_table(source, "persona") as (header, body):
        if header[:2] != ["device_id", "date"]:
            raise SchemaError("persona header must start with device_id, date")
        names = header[2:]
        if not names:
            raise SchemaError("persona header has no feature columns")
        day_table = {}

        def blocks():
            for columns, rownos in body(len(header), exact=True, floats=range(2, len(header))):
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
                    "day": _day_ordinals(columns[1], rownos, "iso", day_table),
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


def write_units_csv(rows: Iterable[Sequence], target) -> None:
    """Write unit descriptors, one sequence of cells per unit in the
    order unit_id, continent, devices_per_day, vpro_fraction; a cell that
    holds the delimiter or a quote is quoted."""
    with _opened(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("unit_id", "continent", "devices_per_day", "vpro_fraction"))
        writer.writerows(rows)


def parse_units_csv(source) -> dict[str, str]:
    """The continent of each unit id in a units table; other columns are
    ignored and a later row for the same unit wins."""
    continents: dict[str, str] = {}
    with _csv_table(source, "units") as (header, body):
        if "unit_id" not in header or "continent" not in header:
            raise SchemaError("units header needs unit_id and continent columns")
        id_col, cont_col = header.index("unit_id"), header.index("continent")
        for columns, _ in body(max(id_col, cont_col) + 1):
            continents.update(
                zip(map(str.strip, columns[id_col]), map(str.strip, columns[cont_col]))
            )
    return continents


def parse_series_csv(source) -> tuple[np.ndarray, list[date] | None]:
    """The ``value`` column of a series table, and its ``date`` column of
    ISO dates when it has one. A non-numeric or non-finite value or a
    malformed date is a parse error naming its row."""
    with _csv_table(source, "series") as (header, body):
        if "value" not in header:
            raise SchemaError("series file needs a value column")
        v_col = header.index("value")
        d_col = header.index("date") if "date" in header else None
        day_table = {}

        def blocks():
            for columns, rownos in body(max(v_col, d_col or 0) + 1, floats=(v_col,)):
                block = {"value": _finite_floats(columns[v_col], rownos, "value")}
                if d_col is not None:
                    days = _day_ordinals(columns[d_col], rownos, "iso", day_table)
                    block["date"] = list(map(date.fromordinal, days.tolist()))
                yield block

        columns = _stacked(blocks(), {"value": np.empty(body.max_rows), "date": []})
    return columns["value"], (columns["date"] if d_col is not None else None)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_panel(panel: PanelDataset, target) -> None:
    """Write a panel in the self-describing interchange format."""
    for u in panel.unit_ids:
        if "\t" in u:
            raise ValidationError(f"unit id {u!r} contains a tab")
    with _opened(target, "w") as stream:
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


def read_panel(source) -> PanelDataset:
    """Read a panel written by :func:`write_panel`."""
    with _opened(source) as stream:
        lines = stream.read().splitlines()
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
        names, rows = unit_rows("codes")
        if names != sections["outcomes"][0][1:]:
            raise ParseError("codes section: date header differs from the outcomes'")
        codes = np.array(
            [
                [-1 if c == NA else _parse_number(c, "codes", u, int) for c in row]
                for u, row in zip(units, rows)
            ],
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


def _parse_number(token: str, section: str, unit: str, kind=float):
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"{section} row for {unit!r}: bad number {token!r}") from None
