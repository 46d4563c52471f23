"""The CSV writers: the input tables that :mod:`causalpanel.panelio`
reads back, written by the simulator (policy, telemetry, persona and
units tables). Only ``simulate`` writes CSV input tables, and it reads
none, so it loads this module without the readers.

The telemetry and persona writers take a table as an iterable of pieces
of columns, written one after another, so that the simulator can make and
write it a piece at a time; a table held whole is a list of one piece.
Every writer lays out a block of rows at a time as bytes
(:func:`~causalpanel.tablefmt.write_rows`): each distinct text cell and
date once per file, floats as ``repr`` computed in numpy
(:func:`~causalpanel.tablefmt.float_cells`), so a file written from
columns is byte-identical to one written row by row with ``csv.writer``.
A path written is a commit of one file
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
from .tablefmt import CellTable, float_cells, write_rows
from .textio import _opened


def _csv_cell(value: str) -> str:
    """``value`` as ``csv.writer`` writes it, quoted only where it needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def _iso_day(ordinal: int) -> str:
    return date.fromordinal(ordinal).isoformat()


def _compact_day(ordinal: int) -> str:
    """The 8-digit ``YYYYMMDD`` of a day: ISO's zero-padded year, unlike
    ``strftime`` (which glibc writes unpadded below year 1000)."""
    return _iso_day(ordinal).replace("-", "")


def write_policy_csv(
    timelines: Iterable[PolicyTimeline], target, indicator_column: str
) -> None:
    """Serialize timelines in the shape
    :func:`~causalpanel.panelio.parse_policy_csv` reads back, dates as
    8-digit ``YYYYMMDD``. Each date is formatted once per file,
    however many timelines hold it."""
    units = CellTable(lambda u: ",".join(map(_csv_cell, u.partition("/")[::2])))
    days, codes = CellTable(_compact_day), CellTable()
    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(
            ["CountryName", "RegionName", "Date", indicator_column]
        )
        for tl in timelines:
            unit = units.codes([tl.unit_id])
            day = days.int_codes(np.arange(len(tl.codes)) + tl.start.toordinal())
            code = codes.int_codes(tl.codes)

            def block(lo, hi):
                return [
                    units.take(unit.repeat(hi - lo)),
                    days.take(day[lo:hi]),
                    codes.take(code[lo:hi]),
                ]

            write_rows(stream, len(tl.codes), block)


def _device_cells(key: tuple) -> str:
    """A telemetry row's cells from device_id to vpro, from its device key."""
    *texts, vpro = key
    return ",".join([*map(_csv_cell, texts), "1" if vpro else "0"])


def write_telemetry_csv(pieces: Iterable[TelemetryColumns], target) -> None:
    """Write telemetry in the shape
    :func:`~causalpanel.panelio.parse_telemetry_csv` reads back, from an
    iterable of :class:`TelemetryColumns` pieces written one after another.
    A device key's cells are formatted once per file, and a row's are
    gathered by its device code. Floats are written as ``repr``."""
    devices, days = CellTable(_device_cells), CellTable(_iso_day)
    with _opened(target, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(_TELEMETRY_COLUMNS)
        for piece in pieces:
            device = devices.codes(piece.devices)[piece.device]
            day = days.int_codes(piece.day)
            floats = np.stack([piece.usage_hours, piece.cpu_watts], axis=1)

            def block(lo, hi):
                return [
                    days.take(day[lo:hi]),
                    devices.take(device[lo:hi]),
                    float_cells(floats[lo:hi]),
                ]

            write_rows(stream, len(piece), block)


def write_persona_csv(pieces, target) -> None:
    """Serialize usage-feature rows from an iterable of
    :class:`~causalpanel.persona.UsageColumns` pieces written one after
    another; every piece has the first one's feature names. One column per
    feature category, in sorted name order, floats written as ``repr``.
    A table of no rows is a validation error."""
    ids, days, written, first = CellTable(_csv_cell), CellTable(_iso_day), 0, None
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
            # the stored column of each written one: each block's values are
            # reordered, so the value matrix is never copied in written order
            cols = [piece.feature_names.index(n) for n in names]
            device = ids.codes(piece.device_ids)[piece.device]
            day = days.int_codes(piece.day)

            def block(lo, hi):
                return [
                    ids.take(device[lo:hi]),
                    days.take(day[lo:hi]),
                    float_cells(piece.values[lo:hi, cols]),
                ]

            write_rows(stream, len(piece), block)
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

