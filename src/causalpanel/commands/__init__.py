"""The command layer: :func:`run` runs a parsed command line's handler,
``cmd_<command>`` in the module ``causalpanel.commands.<command>``, one
module per command.
:func:`causalpanel.cli.main` imports this package only once its arguments
have parsed, so ``--help`` and a usage error compile none of it, and
:func:`run` imports the one handler module of the command it runs. This
module holds what the handlers share: options, JSON decoding, file
loading and the commit of a command's result files.

An option's value is its command-line flag, or else its built-in
default. Each command's defaults are one table in its handler (see
:func:`_options`); argparse defaults every option that takes a value to
None, so that a flag that is not given leaves it to that table.

Each handler imports the modules its command runs, so a command's process
loads only those: ``did`` reads no simulator and ``cpd`` no estimator. This
package itself does no array work and imports no numpy, so ``report``,
which reads JSON artifacts only, starts without it.

Every command writes its results only to files in the output directory
(plus a short deterministic summary on stdout), and its messages through
the CLI's one stderr writer, :data:`causalpanel.cli.log`. Result files
never embed input paths or timestamps, so re-running the same command over
unchanged inputs reproduces them byte for byte. A run's files are one
commit (:func:`causalpanel.files.committed`): all of them and the removal
of its stale outputs (``synth_placebo.csv`` without ``--placebo``,
``persona.csv`` without persona devices), or none. A date, in a flag, a scenario key or a file, is
``YYYY-MM-DD`` or ``YYYYMMDD``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import json
import math
import os
import sys
from datetime import date
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

from ..cli import log
from ..errors import ParseError, SchemaError, ValidationError
from ..files import committed, parse_date


# ---------------------------------------------------------------- helpers


def _sanitize(obj):
    """Make a payload strictly JSON-representable: numpy scalars become
    Python scalars, non-finite floats become null and tuples become lists.
    A numpy scalar can only come from a process that has loaded numpy, so
    numpy is looked up, never imported."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A result table (plot and count CSVs): floats with ``repr``,
    None and NaN as empty cells, other values with ``str``; a cell that
    holds the delimiter or a quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [None if isinstance(v, float) and v != v else v for v in row]  # NaN
        for row in rows
    )
    return buf.getvalue()


def _iso_date(token: str, what: str) -> date:
    if not isinstance(token, str):  # a JSON number or null, say
        raise SchemaError(f"{what}: not an ISO date string: {json.dumps(token)}")
    try:
        return parse_date(token)
    except ValueError:
        raise ParseError(f"{what}: not an ISO date: {token!r}") from None


def _is_kind(value, kind: type) -> bool:
    """Whether a value read from JSON is of ``kind``: the one type rule of
    every JSON input (scenario, report artifact). An integer is an int but
    not a bool; a number (``float``) is finite, and may be an int that a
    float holds exactly."""
    if kind is int:
        return type(value) is int
    if kind is float:
        if type(value) is float:
            return math.isfinite(value)
        return type(value) is int and abs(value) <= 2**53
    return isinstance(value, kind)


_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"
}


@functools.cache
def _fields(kind: type) -> tuple[dict, tuple[str, ...]]:
    """A config dataclass's field types and, in field order, the names of
    its fields without a default: resolved once per class, since the
    string annotations are compiled on every lookup."""
    from dataclasses import MISSING, fields

    required = tuple(
        f.name for f in fields(kind) if f.default is MISSING and f.default_factory is MISSING
    )
    return get_type_hints(kind), required


def _decode(value, kind, where: str):
    """A JSON value checked against ``kind``, a type that simgen's config
    dataclasses or ``_REPORT_KEYS`` declare: str, int, float, date (an ISO
    string), X | None, a dataclass or Mapping (an object), tuple (a list).
    Scalars pass unconverted. Errors name ``where``: the file and key path."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = set(args) - {type(None)}
        return _decode(value, kind, where)
    if kind is date:
        return _iso_date(value, where)
    is_dataclass = hasattr(kind, "__dataclass_fields__")
    json_kind = list if get_origin(kind) is tuple else dict if args or is_dataclass else kind
    if not _is_kind(value, json_kind):
        raise SchemaError(f"{where}: not {_KIND_NAMES[json_kind]}: {json.dumps(value)}")
    if json_kind is list:  # tuple[X, ...]
        return tuple(_decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if args:  # Mapping[str, X]
        return {key: _decode(v, args[1], f"{where}: {key}") for key, v in value.items()}
    if not is_dataclass:
        return value

    hints, required = _fields(kind)
    for key in value:
        if key not in hints:
            raise SchemaError(f"{where}: unknown key {key!r}")
    for name in required:
        if name not in value:
            raise SchemaError(f"{where}: missing key {name!r}")
    kwargs = {key: _decode(v, hints[key], f"{where}: {key}") for key, v in value.items()}
    try:
        return kind(**kwargs)
    except ValidationError as err:
        raise ValidationError(f"{where}: {err}") from None


def _split_list(token: str) -> list[str]:
    return [t.strip() for t in token.split(",") if t.strip()]


def _read_json(path: str):
    # utf-8-sig: a leading byte order mark, as spreadsheet programs write, is dropped
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(str(err)) from None


def _load(parse, path: str, *args):
    """Run a file reader, prefixing its parse, validation and I/O errors
    with the file path (the readers name only the row, section or unit)."""
    try:
        return parse(path, *args)
    except (ParseError, ValidationError) as err:
        raise type(err)(f"{path}: {err}") from None
    except UnicodeDecodeError as err:
        # no offset: err.start counts from the decoded chunk, not the file's start
        bad = " ".join(f"0x{b:02x}" for b in err.object[err.start : err.end])
        raise ParseError(f"{path}: not UTF-8 text: {err.reason} {bad}") from None
    except OSError as err:
        raise OSError(f"{path}: {err.strerror or err}") from None


# The options every command takes, with their defaults.
_COMMON = {"out": "."}


def _options(args, defaults: Mapping) -> SimpleNamespace:
    """Each option of ``args.command`` that ``defaults`` or ``_COMMON``
    lists: its flag when given (not None, so ``--lam 0`` counts), else its
    default there."""
    options = {}
    for name, default in {**_COMMON, **defaults}.items():
        value = getattr(args, name)
        options[name] = default if value is None else value
    return SimpleNamespace(**options)


def _emit(outdir: str, texts: Mapping[str, str], stale: Sequence[str] = ()) -> str:
    """Write each text to the file of its name in ``outdir``, and remove
    the ``stale`` files there, in one commit; the path of the first file,
    the command's main result."""
    paths = [os.path.join(outdir, name) for name in texts]
    with committed() as files:
        for path, text in zip(paths, texts.values()):
            files.open(path).write(text)
        for name in stale:
            files.remove(os.path.join(outdir, name))
    for path in paths:
        log.info("wrote %s", path)
    return paths[0]


def _grid_labels(units: Sequence[str]) -> tuple[str, str]:
    """Derive (chassis, cpu_family) for the report grid from composite unit
    labels like "CHN|Notebook|i7". Disagreeing or absent parts give "all"."""
    from ..panel import CHASSIS_TYPES, CPU_FAMILIES

    chassis, families = set(), set()
    for u in units:
        parts = u.split("|")
        chassis.update(p for p in parts if p in CHASSIS_TYPES)
        families.update(p for p in parts if p in CPU_FAMILIES)
    pick = lambda values: values.pop() if len(values) == 1 else "all"
    return pick(chassis), pick(families)


def _mean_system_count(panel, units: Sequence[str]) -> float | None:
    if panel.system_count is None:
        return None
    return float(panel.system_count[[panel.unit_index(u) for u in units]].mean())


# ---------------------------------------------------------------- dispatch


def run(args: argparse.Namespace) -> int:
    """Run the command that ``args`` (from :func:`causalpanel.cli.build_parser`)
    names, with ``log.quiet`` set from ``--quiet``; its exit code. Only that
    command's module, ``causalpanel.commands.<command>``, is imported."""
    log.quiet = args.quiet
    handler = importlib.import_module(f"{__name__}.{args.command}")
    return getattr(handler, f"cmd_{args.command}")(args)
