"""The CSV writers: the input tables that :mod:`causalpanel.panelio`
reads back, written by the simulator (policy, telemetry, persona and
units tables). Only ``simulate`` writes CSV input tables, and it reads
none, so it loads this module without the readers.

The telemetry and persona writers take a table as an iterable of pieces
of columns, written one after another, so that the simulator can make and
write it a piece at a time; a table held whole is a list of one piece.
Every writer formats a block of rows at a time (each date once per
file), floats with ``repr`` over ``tolist()`` values, so a file written
from columns is byte-identical to one written row by row with
``csv.writer``. A path written is a commit of one file
(:func:`~causalpanel.files.committed`).
"""

from __future__ import annotations

import csv
import io
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, ValidationError
from .paneldata import _TELEMETRY_COLUMNS, PolicyTimeline, TelemetryColumns
from .textio import _float_cells, _map_distinct, _opened

# Rows formatted per write step: bounds the cells held as Python strings
# at once (every float written is a new string).
_WRITE_ROWS = 512


def write_policy_csv(
    timelines: Iterable[PolicyTimeline], target, indicator_column: str
) -> None:
    """Serialize timelines in the shape
    :func:`~causalpanel.panelio.parse_policy_csv` reads back, dates as
    8-digit ``YYYYMMDD``. Each date is formatted once per file,
    however many timelines hold it."""
    tokens: dict = {}  # day ordinal -> its cell
    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(
            ["CountryName", "RegionName", "Date", indicator_column]
        )
        for tl in timelines:
            names = tl.unit_id.partition("/")[::2]  # country, region
            unit_cells = ",".join(map(_csv_cells(names, {}).get, names))
            days = np.arange(len(tl.codes)) + tl.start.toordinal()

            def block(lo, hi):
                return [
                    [unit_cells] * (hi - lo),
                    _day_cells(days[lo:hi], tokens, lambda d: d.strftime("%Y%m%d")),
                    list(map(str, tl.codes[lo:hi].tolist())),
                ]

            _write_rows(stream, len(days), block)


def _csv_cells(values, cells: dict[str, str]) -> dict[str, str]:
    """``cells`` (text value -> cell), with each distinct one of ``values``
    it lacks added as the cell ``csv.writer`` writes (quoted only where the
    value needs it)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for value in set(values).difference(cells):
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        cells[value] = buf.getvalue()[:-2]
    return cells


def _write_rows(stream, n_rows: int, block_columns) -> None:
    """Write ``n_rows`` comma-joined lines, a block of rows at a time;
    ``block_columns(lo, hi)`` returns the formatted cells of rows lo..hi
    as one sequence per column."""
    for lo in range(0, n_rows, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, n_rows)
        stream.write("\n".join(map(",".join, zip(*block_columns(lo, hi)))) + "\n")


def _day_cells(days: np.ndarray, cells: dict[int, str], form=date.isoformat) -> list[str]:
    """The date cell of every day ordinal, ISO unless ``form`` formats it;
    ``cells`` keeps the cells of the file's earlier blocks, so each date is
    formatted once per file."""
    return _map_distinct(days.tolist(), lambda d: form(date.fromordinal(d)), cells)


def write_telemetry_csv(pieces: Iterable[TelemetryColumns], target) -> None:
    """Write telemetry in the shape
    :func:`~causalpanel.panelio.parse_telemetry_csv` reads back, from an
    iterable of :class:`TelemetryColumns` pieces written one after another.
    Floats are written with ``repr``."""
    # each text value's cell, kept from one piece to the next
    text = {name: {} for name in ("device_id", "unit_id", "chassis", "cpu_family")}
    iso = {}
    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(_TELEMETRY_COLUMNS)
        for piece in pieces:
            for name, cells in text.items():
                _csv_cells(getattr(piece, name), cells)

            def block(lo, hi):
                return [
                    _day_cells(piece.day[lo:hi], iso),
                    *(
                        [cells[v] for v in getattr(piece, name)[lo:hi]]
                        for name, cells in text.items()
                    ),
                    ["1" if v else "0" for v in piece.vpro[lo:hi].tolist()],
                    _float_cells(piece.usage_hours[lo:hi]),
                    _float_cells(piece.cpu_watts[lo:hi]),
                ]

            _write_rows(stream, len(piece), block)


def write_persona_csv(pieces, target) -> None:
    """Serialize usage-feature rows from an iterable of
    :class:`~causalpanel.persona.UsageColumns` pieces written one after
    another; every piece has the first one's feature names. One column per
    feature category, in sorted name order, floats written with ``repr``.
    A table of no rows is a validation error."""
    ids, iso, written, first = {}, {}, 0, None
    with _opened(target, "w") as stream:
        for piece in pieces:
            first = piece if first is None else first
            if piece.feature_names != first.feature_names:
                raise SchemaError(
                    f"persona pieces differ in feature names: {list(piece.feature_names)} "
                    f"after {list(first.feature_names)}"
                )
            names = sorted(piece.feature_names)
            if len(piece) and not written:  # a table of no rows writes nothing
                csv.writer(stream, lineterminator="\n").writerow(["device_id", "date"] + names)
            # the stored column of each written one: each block's cells are
            # reordered, so the value matrix is never copied in written order
            cols = [piece.feature_names.index(n) for n in names]
            id_cells = list(map(_csv_cells(piece.device_ids, ids).get, piece.device_ids))

            def block(lo, hi):
                floats = _float_cells(piece.values[lo:hi])
                return [
                    [id_cells[d] for d in piece.device[lo:hi].tolist()],
                    _day_cells(piece.day[lo:hi], iso),
                    *(floats[j :: len(names)] for j in cols),
                ]

            _write_rows(stream, len(piece), block)
            written += len(piece)
        if not written:
            raise ValidationError("no persona records to write")


def write_units_csv(rows: Iterable[Sequence], target) -> None:
    """Write unit descriptors, one sequence of cells per unit in the
    order unit_id, continent, devices_per_day, vpro_fraction; a cell that
    holds the delimiter or a quote is quoted."""
    with _opened(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("unit_id", "continent", "devices_per_day", "vpro_fraction"))
        writer.writerows(rows)

