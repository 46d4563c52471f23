"""Command-line front end: the parser, the exit codes and the stderr lines.

This module is the front only: :func:`build_parser`, the stderr writer
:data:`log` and :func:`main`, which maps the toolkit's errors to exit
codes. The command handlers are :mod:`causalpanel.commands`, which
:func:`main` imports only once the arguments have parsed, so ``--help``,
a command's ``--help`` and a usage error load no module of the package
but this one and :mod:`causalpanel.errors`.

Every command writes its messages to stderr as ``INFO``, ``WARNING`` or
``ERROR`` lines (:class:`_Log`); ``--quiet`` drops the INFO lines. The
module imports no ``logging`` and leaves the root logger of a program
that calls :func:`main` as it was.

Exit codes: 0 success, 2 parse errors, 3 validation errors, 4 numerical
errors, 5 I/O errors. A message names its input: ``<file>: row N: ...``
for a table cell, the flag for an option, the file and key for a value in
a scenario or artifact, and ``<path>: <strerror>`` for an I/O error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Sequence

from .errors import (
    CausalPanelError,
    ConvergenceWarning,
    NumericalError,
    ParseError,
    ValidationError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class _Log:
    """The CLI's stderr lines: ``INFO``, ``WARNING`` or ``ERROR``, a space,
    then the message (``msg % args``), each written to the ``sys.stderr`` of
    the moment. ``quiet`` (``--quiet``, which
    :func:`causalpanel.commands.run` sets and :func:`main` resets after the
    call) drops the INFO lines. A line that cannot be written is dropped, so a
    run's exit code and files never depend on its stderr."""

    quiet = False

    def info(self, msg: str, *args) -> None:
        if not self.quiet:
            self._write("INFO", msg, args)

    def warning(self, msg: str, *args) -> None:
        self._write("WARNING", msg, args)

    def error(self, msg: str, *args) -> None:
        self._write("ERROR", msg, args)

    @staticmethod
    def _write(level: str, msg: str, args: tuple) -> None:
        stream = sys.stderr
        if stream is None:  # the process started with stderr closed
            return
        try:
            stream.write(f"{level} {msg % args if args else msg}\n")
            stream.flush()
        except (OSError, ValueError):  # a full device, a broken pipe, a closed file
            pass


log = _Log()


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. An option that takes a value defaults to
    None here: its handler's defaults table, through
    :func:`causalpanel.commands._options`, holds the value it takes when
    its flag is not given."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress info logging")

    parser = argparse.ArgumentParser(
        prog="causalpanel",
        description="Panel-data causal inference: DiD, synthetic control, "
        "change points, personas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")

    p = sub.add_parser("ingest", parents=[common], help="build a panel from files")
    p.add_argument("--policy", required=True)
    p.add_argument("--telemetry", required=True)
    p.add_argument("--indicator")
    p.add_argument("--group-by")
    p.add_argument("--outcome")
    p.add_argument("--units", help="units.csv with continent tags")

    p = sub.add_parser("did", parents=[common], help="difference-in-differences")
    p.add_argument("--panel", required=True)
    p.add_argument("--treated", required=True, help="comma-separated unit ids")
    p.add_argument("--control", required=True, help="comma-separated unit ids")
    p.add_argument("--treatment-date", required=True)

    p = sub.add_parser("synth", parents=[common], help="synthetic control")
    p.add_argument("--panel", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--donors", required=True, help="comma-separated unit ids")
    p.add_argument("--treatment-date", required=True)
    p.add_argument("--placebo", action="store_true", help="run randomization inference")

    p = sub.add_parser("cpd", parents=[common], help="offline change-point detection")
    p.add_argument("--series", help="CSV with a value column (optional date column)")
    p.add_argument("--panel", help="panel file (use with --unit)")
    p.add_argument("--unit")
    p.add_argument("--lam", type=float, help="manual penalty per segment (default: bic)")

    p = sub.add_parser("persona", parents=[common], help="persona pipeline")
    p.add_argument("--records", required=True, help="persona usage CSV")
    p.add_argument("--width", type=int, help="window width in days")
    p.add_argument("--stride", type=int, help="window stride in days")
    p.add_argument(
        "--fit-until", help="fit centroids only on rows before this ISO date"
    )

    p = sub.add_parser("report", parents=[common], help="consolidate artifacts")
    p.add_argument("artifacts", nargs="*", help="estimation artifact JSON files")
    return parser


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one log line, its category and message, in place
    of Python's two-line form with the source line."""
    log.warning("%s: %s", category.__name__, message)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from . import commands  # only now: --help and usage errors end in parse_args

    # a fresh warning registry per call: each call logs the toolkit's
    # warnings as a new process would, once per location
    with warnings.catch_warnings():
        warnings.simplefilter("default", ConvergenceWarning)
        warnings.showwarning = _log_warning
        try:
            return commands.run(args)
        except ParseError as err:
            log.error("parse error: %s", err)
            return EXIT_PARSE
        except ValidationError as err:
            log.error("validation error: %s", err)
            return EXIT_VALIDATION
        except NumericalError as err:
            log.error("numerical error: %s", err)
            return EXIT_NUMERICAL
        except OSError as err:
            log.error("io error: %s", err)
            return EXIT_IO
        except CausalPanelError as err:
            log.error("error: %s", err)
            return EXIT_VALIDATION
        finally:
            log.quiet = False  # the next call starts without this one's --quiet


if __name__ == "__main__":
    # the main of causalpanel.cli, not of __main__: causalpanel.commands
    # writes through causalpanel.cli's log, whose --quiet main resets
    from causalpanel.cli import main

    sys.exit(main())
