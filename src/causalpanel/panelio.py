"""The CSV readers: the input tables of ``ingest``, ``persona`` and
``cpd --series``.

This is the one module that reads CSV. The input tables are written by
:mod:`causalpanel.csvwrite`, the panel file is read and written by
:mod:`causalpanel.panel`, and the CLI writes its own result tables. The
formats:

* policy CSV — header-driven; a unit-name column (``CountryName`` plus
  optional ``RegionName``, or ``unit_id``), a ``Date`` column, and one
  ordinal indicator column named at parse time. Empty indicator cells are
  forward-filled; leading empties become 0. Parsed into one
  :class:`~causalpanel.paneldata.PolicyTimeline` per unit: a start date
  and one code per day. A unit's dates must be distinct and contiguous.
* telemetry CSV — columns (date, device_id, unit_id, chassis, cpu_family,
  vpro, usage_hours, cpu_watts); unknown columns are ignored. Parsed into
  :class:`~causalpanel.paneldata.TelemetryColumns`.
* persona CSV — per-device-day category usage rows
  (device_id, date, one column per feature category). Parsed into
  :class:`~causalpanel.persona.UsageColumns`.
* units CSV — unit descriptors (unit_id, continent, devices_per_day,
  vpro_fraction); the reader takes the continent of each unit.
* series CSV — a ``value`` column and an optional ``date`` column.

A reader imports the module of the type it returns when it is called
(:mod:`causalpanel.paneldata` for timelines and telemetry,
:mod:`causalpanel.persona` for usage rows), so ``cpd --series`` loads
neither, nor the panel module.

Every CSV table is read by :func:`_csv_table`, so all share one dialect:
the delimiter (``,``, tab or ``;``) is sniffed from the header line,
header names are stripped, blank rows are skipped, and rows are numbered
from the header as row 1. The body is read a block of lines at a time
(:func:`_body_blocks`): numpy's C tokenizer splits a quote-free block
into columns and converts the columns a reader uses (its numbers to
floats) in one ``np.loadtxt`` call, and
``csv.reader`` splits a block that holds a quote, or one loadtxt
refuses, so that the refused block's first bad cell is named as before.
Each column is then converted at once (text cells once per distinct
value, dates once per file: ``YYYY-MM-DD`` or ``YYYYMMDD`` in any table)
and validated at once. Each block is copied
into columns allocated once for as many rows as the file has lines left
(:func:`_stacked`), so a table is held once, not once in blocks and again
joined; the lines and cells of one block only are alive at a time. Every
rejected cell is named by its row: unparseable or non-finite values and
short rows are parse errors, values outside the schema validation
errors.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from datetime import date
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .files import parse_date
from .textio import _map_distinct, _opened

if TYPE_CHECKING:
    from .paneldata import PolicyTimeline, TelemetryColumns
    from .persona import UsageColumns

_CHASSIS_ALIASES = {"2-in-1": "TwoInOne", "2in1": "TwoInOne"}
_VPRO_FLAGS = {"1": True, "true": True, "yes": True, "y": True,
               "0": False, "false": False, "no": False, "n": False}


def _sniff_delimiter(header_line: str) -> str:
    candidates = [",", "\t", ";"]
    return max(candidates, key=header_line.count)


# Rows handled per read step: bounds the lines and cells held as Python
# strings at once.
_BLOCK_ROWS = 2048

# Characters that send a block to csv.reader although it holds no quote:
# NUL, which csv.reader refuses before Python 3.11, and \x1c-\x1f, which
# loadtxt strips from around a number as whitespace where float() refuses
# them.
_UNTOKENIZED = ("\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _has_content(row: list[str]) -> bool:
    return any(map(str.strip, row))


def _csv_block(rows: list[list[str]], first: int, width: int, exact: bool, usecols):
    """The non-blank ones of ``rows`` (split by ``csv.reader``, the first
    numbered ``first``) as a list of the columns ``usecols``, tuples of
    cells, and each row's number. A row with fewer than ``width`` cells,
    or with ``exact`` any other count, is a parse error."""
    rownos = np.arange(first, first + len(rows))
    keep = np.fromiter(map(_has_content, rows), bool, len(rows))
    rows, rownos = list(itertools.compress(rows, keep)), rownos[keep]
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    short = np.flatnonzero(lengths != width if exact else lengths < width)
    if short.size:
        raise ParseError(f"row {rownos[short[0]]}: expected {width} fields")
    columns = list(zip(*rows))
    return [columns[j] for j in usecols] if rows else [], rownos


def _tokenized_block(
    lines: list[str], first: int, delim: str, fields: np.dtype, exact: bool, usecols
):
    """:func:`_csv_block` of quote-free ``lines`` by one ``np.loadtxt``
    call, which converts only the columns ``usecols``: the float fields
    of ``fields`` as float arrays, the others as lists of cells. None when
    loadtxt refuses a cell or a row's count, or a float is not finite:
    then :func:`_csv_block` reads the lines and the parser names the
    fault."""
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
            usecols=None if exact else usecols,
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


def _body_blocks(
    stream, delim: str, width: int, exact: bool = False, floats=(), usecols=None
):
    """The non-blank rows of a CSV body, a block at a time, as a list of
    columns with each row's number (the header is row 1): the columns
    ``usecols``, in that order, or else the first ``width``. A column
    named in ``floats`` is a float array, checked finite, where the block
    was tokenized, and like every other column a sequence of cells where
    it was not. A row with fewer than ``width`` cells, or with ``exact``
    any other count, is a parse error.

    The list is emptied before the next block is read, so the cells of one
    block only are alive at a time; a consumer keeps no other reference to
    the columns past its loop body."""
    usecols = tuple(range(width) if usecols is None else usecols)
    for columns, rownos in _blocks(stream, delim, width, exact, floats, usecols):
        if rownos.size:
            yield columns, rownos
            columns.clear()


def _blocks(stream, delim: str, width: int, exact: bool, floats, usecols: tuple):
    """The blocks of :func:`_body_blocks`, blank ones included. A block is
    ``_BLOCK_ROWS`` lines, tokenized by numpy's C reader
    (:func:`_tokenized_block`); one it refuses is read again by
    ``csv.reader``, which splits it as before or names the fault. From the
    first block that holds a quote on, ``csv.reader`` reads the rest of the
    file: loadtxt does not unquote, and a quoted cell may hold line breaks
    past the block's end. Up to there one line is one row, so the rows,
    their blocks and their numbers are those of ``csv.reader`` throughout."""
    fields = np.dtype([(f"f{j}", np.float64 if j in floats else object) for j in usecols])
    first = 2
    while lines := list(itertools.islice(stream, _BLOCK_ROWS)):
        text = "".join(lines)
        if '"' in text:
            break
        block = None
        # a block of empty lines only is not tokenized: loadtxt would warn
        # that it read no data
        if not text.isspace() and not any(map(text.__contains__, _UNTOKENIZED)):
            block = _tokenized_block(lines, first, delim, fields, exact, usecols)
        if block is None:
            block = _csv_block(
                list(csv.reader(lines, delimiter=delim)), first, width, exact, usecols
            )
        first += len(lines)
        lines = text = None
        yield block
    else:
        return
    reader = csv.reader(itertools.chain(lines, stream), delimiter=delim)
    lines = text = None
    while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
        block = _csv_block(rows, first, width, exact, usecols)
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
    """The rows below a CSV header. ``body(width, exact=False, floats=(),
    usecols=None)`` yields their :func:`_body_blocks`; ``body.max_rows``
    bounds their number, so a reader can allocate each column once (see
    :func:`_stacked`)."""

    def __init__(self, stream, delim: str, max_rows: int):
        self.max_rows = max_rows
        self._stream, self._delim = stream, delim

    def __call__(self, width: int, exact: bool = False, floats=(), usecols=None):
        return _body_blocks(self._stream, self._delim, width, exact, floats, usecols)


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
    """Parse a policy table into one timeline per unit, in unit order.

    Region rows become first-class units keyed "CountryName/RegionName";
    national rows keep the plain country name. Only the named ordinal column
    is read; flag and other columns are ignored. The first unit with a
    fault names it: a duplicate date, else its first bad code, else a gap.
    """
    from .paneldata import PolicyTimeline, _unit_label, factorize

    with _csv_table(source, "policy") as (header, body):
        cols = {name: i for i, name in enumerate(header)}
        unit_name = next((c for c in ("CountryName", "unit_id") if c in cols), None)
        if unit_name is None:
            raise SchemaError("policy header has no CountryName or unit_id column")
        unit_col = cols[unit_name]
        region_col = cols.get("RegionName") if unit_name == "CountryName" else None
        date_col = cols.get("Date", cols.get("date"))
        if date_col is None:
            raise SchemaError("policy header has no Date column")
        if indicator_column not in cols:
            raise SchemaError(f"policy header has no column {indicator_column!r}")
        ind_col = cols[indicator_column]
        # only the columns read become cells; a row must still reach the last
        used = sorted({unit_col, region_col, date_col, ind_col} - {None})
        unit_col, date_col, ind_col = map(used.index, (unit_col, date_col, ind_col))
        region_col = None if region_col is None else used.index(region_col)

        unit_table, day_table = {}, {}  # each distinct cell's unit or day

        def blocks():
            for columns, rownos in body(used[-1] + 1, usecols=used):
                regions = itertools.repeat("") if region_col is None else columns[region_col]
                pairs = list(zip(columns[unit_col], regions))
                units = _map_distinct(pairs, _unit_label, unit_table)
                if "" in units:
                    raise ValidationError(f"row {rownos[units.index('')]}: empty {unit_name}")
                yield {
                    "unit": units,
                    "day": _day_ordinals(columns[date_col], rownos, day_table),
                    "cell": _map_distinct(columns[ind_col], str.strip),
                }

        n = body.max_rows
        columns = _stacked(blocks(), {"unit": [], "day": np.empty(n, np.int64), "cell": []})

    # go unit by unit in sorted order, over each unit's rows sorted by day
    levels, unit = factorize(columns.pop("unit"))
    raws, cell = factorize(columns.pop("cell"))
    order = np.lexsort((columns["day"], unit))
    day, cell = columns.pop("day")[order], cell[order]
    ends = np.cumsum(np.bincount(unit)).tolist()
    values = np.array(list(map(_policy_code, raws)), np.int64)
    timelines = []
    for u, lo, hi in zip(levels, [0, *ends], ends):
        days, cells = day[lo:hi], cell[lo:hi]
        step, codes = np.diff(days), values[cells]
        if (step == 0).any():
            k = np.argmax(step == 0)
            raise ValidationError(f"unit {u}: duplicate date {date.fromordinal(days[k])}")
        if (codes == -2).any():
            k = np.argmax(codes == -2)
            raw, d = raws[cells[k]], date.fromordinal(days[k])
            try:
                value = int(float(raw))
            except (ValueError, OverflowError):  # not a number, nan or infinite
                raise ParseError(f"unit {u} on {d}: non-numeric code {raw!r}") from None
            raise ValidationError(f"unit {u} on {d}: code {value} outside 0..3")
        if (step > 1).any():
            k = np.argmax(step > 1)
            prev, cur = date.fromordinal(days[k]), date.fromordinal(days[k + 1])
            raise ValidationError(f"timeline {u}: calendar gap between {prev} and {cur}")
        # an empty cell repeats the previous code; before the first day it is 0
        codes = np.r_[0, codes]
        codes = codes[np.maximum.accumulate(np.where(codes >= 0, np.arange(len(codes)), 0))]
        timelines.append(PolicyTimeline(u, date.fromordinal(days[0]), codes[1:]))
    return timelines


def _policy_code(raw: str) -> int:
    """The code in a stripped policy cell: -1 where it is empty (the
    previous code goes on), -2 where it holds no code 0..3."""
    from .paneldata import POLICY_CODES

    if raw == "":
        return -1
    try:
        value = int(float(raw))
    except (ValueError, OverflowError):
        return -2
    return value if value in POLICY_CODES else -2



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


def _day_ordinals(cells, rownos, table: dict) -> np.ndarray:
    """Day ordinal of every date cell (by :func:`~causalpanel.files.parse_date`,
    stripped); ``table`` keeps the file's parsed dates (see
    :func:`_map_distinct`)."""
    days = _parse_distinct(
        cells,
        lambda c: parse_date(c.strip()).toordinal(),
        rownos,
        lambda c: f"malformed date {c.strip()!r}",
        table,
    )
    return np.array(days, dtype=np.int64)


def parse_telemetry_csv(source) -> TelemetryColumns:
    """Parse device-day telemetry rows into columns; unknown columns are
    ignored. Unparseable or non-finite cells are parse errors, rows that
    break the schema validation errors, each naming its row; a block's
    first bad date is named before its vpro, float and schema faults."""
    from .paneldata import (
        _TELEMETRY_COLUMNS, TelemetryColumns, device_fault, factorize, telemetry_violation
    )

    with _csv_table(source, "telemetry") as (header, body):
        cols = {name: i for i, name in enumerate(header)}
        missing = [c for c in _TELEMETRY_COLUMNS if c not in cols]
        if missing:
            raise SchemaError(f"telemetry header missing column(s): {', '.join(missing)}")
        day_table, cell_table = {}, {}  # date cell -> day, a row's device cells -> code
        codes, faults = {}, {}  # device key -> code, in the order met; code -> fault

        def code(cells) -> int:  # of the device key of a row's cells device_id..vpro
            device_id, unit_id, chassis, family, vpro = map(str.strip, cells)
            flag = _VPRO_FLAGS.get(vpro.lower())
            if flag is None:
                raise ValueError(vpro)
            family = family if family == "Other" else family.lower()
            key = device_id, unit_id, _CHASSIS_ALIASES.get(chassis, chassis), family, flag
            if key not in codes:
                codes[key] = len(codes)
                if fault := device_fault(key):
                    faults[codes[key]] = fault
            return codes[key]

        def blocks():
            floats = (cols["usage_hours"], cols["cpu_watts"])
            for columns, rownos in body(len(header), floats=floats):
                cells = {name: columns[cols[name]] for name in _TELEMETRY_COLUMNS}
                device_cells = list(zip(*(cells[name] for name in _TELEMETRY_COLUMNS[1:6])))
                block = {
                    "day": _day_ordinals(cells["date"], rownos, day_table),
                    "device": np.array(
                        _parse_distinct(
                            device_cells, code, rownos,
                            lambda c: f"bad vpro value {c[4].strip().lower()!r}", cell_table,
                        ),
                        dtype=np.int64,
                    ),
                    "usage_hours": _finite_floats(cells["usage_hours"], rownos, "usage_hours"),
                    "cpu_watts": _finite_floats(cells["cpu_watts"], rownos, "cpu_watts"),
                }
                del cells, device_cells  # see _body_blocks
                problem = telemetry_violation(
                    block["device"], faults, block["usage_hours"], block["cpu_watts"]
                )
                if problem is not None:
                    raise ValidationError(f"row {rownos[problem[0]]}: {problem[1]}")
                yield block

        n = body.max_rows
        columns = _stacked(
            blocks(),
            {
                "day": np.empty(n, np.int64),
                "device": np.empty(n, np.int64),
                "usage_hours": np.empty(n),
                "cpu_watts": np.empty(n),
            },
        )
    devices, rank = factorize(list(codes))  # the keys are distinct: rank is a renumbering
    return TelemetryColumns(
        columns["day"], rank[columns["device"]], devices,
        columns["usage_hours"], columns["cpu_watts"],
    )


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
                    "day": _day_ordinals(columns[1], rownos, day_table),
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
        v_col = header.index("value")
        d_col = header.index("date") if "date" in header else None
        day_table = {}

        def blocks():
            for columns, rownos in body(max(v_col, d_col or 0) + 1, floats=(v_col,)):
                block = {"value": _finite_floats(columns[v_col], rownos, "value")}
                if d_col is not None:
                    block["day"] = _day_ordinals(columns[d_col], rownos, day_table)
                    block["row"] = rownos
                yield block

        n = body.max_rows
        columns = {"value": np.empty(n)}
        if d_col is not None:
            columns.update(day=np.empty(n, np.int64), row=np.empty(n, np.int64))
        columns = _stacked(blocks(), columns)
    if d_col is None:
        return columns["value"], None
    day = columns["day"]
    back = np.flatnonzero(day[1:] <= day[:-1])
    if back.size:
        k = int(back[0]) + 1
        raise ValidationError(
            f"row {columns['row'][k]}: date {date.fromordinal(int(day[k]))} "
            f"not after the previous date {date.fromordinal(int(day[k - 1]))}"
        )
    return columns["value"], list(map(date.fromordinal, day.tolist()))


def __getattr__(name: str):
    # panel.txt's reader and writer moved to causalpanel.panel; perfbench
    # still reaches them through this module. A PEP 562 lookup keeps the
    # CSV commands from loading the panel module for them. The benchmark
    # change that may edit perfbench/ (ROADMAP item 4) drops this.
    if name in ("read_panel", "write_panel"):
        from . import panel

        return getattr(panel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
