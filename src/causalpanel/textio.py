"""What the readers and writers of the package's text files share: the
stream they read or write (:func:`_opened`) and the conversion of a
column's cells once per distinct value (:func:`_map_distinct`). No numpy
and no CSV: the CSV readers (:mod:`causalpanel.panelio`), the CSV writers
(:mod:`causalpanel.csvwrite`) and the panel file
(:mod:`causalpanel.panel`) each load this module without the others. The
writers format their cells through :mod:`causalpanel.tablefmt`."""

from __future__ import annotations

import io
import os
from contextlib import contextmanager

from .files import committed


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

