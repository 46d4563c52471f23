"""How the package commits the files it writes (:func:`committed`),
opens the text it reads and writes (:func:`_opened`: the CSV readers,
the CSV writers and the panel file, none of which loads another) and
reads dates (:func:`parse_date`). No numpy and no CSV: every command
loads this module, ``report`` among them."""

from __future__ import annotations

import contextlib
import io
import os
from datetime import date
from typing import IO


class Commit:
    """The outputs of one run: see :func:`committed`."""

    def __init__(self):
        self.temps: dict[str, IO[str]] = {}  # target path -> its temporary's stream
        self.stale: list[str] = []
        self.current: IO[str] | None = None  # the temporary written or closed last

    def open(self, path) -> IO[str]:
        """A stream for ``path``'s new content, in a directory made if need be."""
        path = os.fspath(path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.current = self.temps[path] = open(f"{path}.tmp", "w", encoding="utf-8", newline="")
        return self.current

    def remove(self, path) -> None:
        """Remove ``path``, a stale output of an earlier run, once the commit succeeds."""
        self.stale.append(os.fspath(path))


@contextlib.contextmanager
def committed():
    """A :class:`Commit` for the block: each file opened on it is written as
    ``<path>.tmp`` beside its target. When the block ends, every stream is
    closed, then each file renamed into place, then each stale path removed.
    When the block, a write or a target (a directory) fails, every temporary
    is removed and no earlier file has changed. An OSError of a file the
    block writes is raised as ``<path>: <strerror>``."""
    files = Commit()
    try:
        yield files
        for path, stream in files.temps.items():
            files.current = stream
            stream.close()  # a write buffered until here fails here
            if os.path.isdir(path):  # its rename would fail after those before it
                raise OSError(f"{path}: Is a directory")
        for path, stream in files.temps.items():
            os.replace(stream.name, path)
        files.temps.clear()
        for path in files.stale:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    except OSError as err:
        # the file it names, else the temporary written or closed last
        path = err.filename or (files.current and files.current.name)
        if err.errno is None or path is None:  # raised with its message written
            raise
        raise OSError(f"{path}: {err.strerror or err}") from None
    finally:
        for stream in files.temps.values():
            with contextlib.suppress(OSError):
                stream.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(stream.name)


@contextlib.contextmanager
def _opened(source, mode: str = "r"):
    """A text stream over a path, bytes, or file object; a path opened
    here is closed on exit, a caller's stream is left open. A path opened
    to write is a commit of one file (:func:`committed`): a failed write
    leaves the earlier file as it was. Bytes are read as UTF-8 with or
    without a leading byte order mark (``utf-8-sig``), which spreadsheet
    programs write; none is written."""
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


def parse_date(token: str) -> date:
    """The date ``token`` spells as ``YYYY-MM-DD`` or ``YYYYMMDD`` in ASCII
    digits; ValueError for any other token (a one-digit month, a week or
    ordinal date, a sign, a space) or a day the calendar lacks."""
    if len(token) == 10 and token[4] == token[7] == "-":
        token = token[:4] + token[5:7] + token[8:]
    if len(token) != 8 or not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a date: {token!r}")
    return date(int(token[:4]), int(token[4:6]), int(token[6:]))
