"""What a process loads: the CLI's front (``--help``, a command's ``--help``,
a usage error) loads the parser alone, each CLI command imports only the
package modules it runs and compiles a bounded number of bytes of their
source, the package resolves its public names on first use, no command
pulls in ``numpy.ma`` (which ``np.unique`` without options and
``np.median`` import on their first call under numpy 2) or ``logging``,
and ``--help`` and ``report`` load no numpy at all.

Each command runs in a fresh child process, since ``sys.modules`` of this
one already holds every module."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalpanel

SRC = str(Path(causalpanel.__file__).parents[1])

# Runs ``cli.main`` on the arguments, if there are any, and prints, as its
# last line, the exit code, the package modules loaded, whether numpy,
# numpy.ma, numpy.random and logging were, and which of json, csv and
# datetime were (noted before the probe imports json to print).
PROBE = (
    "import sys\n"
    "from causalpanel.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "except SystemExit as exc:  # --help, a usage error\n"
    "    code = exc.code\n"
    "loaded = set(sys.modules)\n"
    "import json\n"
    "print(json.dumps({'code': code, "
    "'package': sorted(m for m in loaded if m.startswith('causalpanel')), "
    "'numpy': 'numpy' in loaded, "
    "'numpy.ma': 'numpy.ma' in loaded, "
    "'numpy.random': 'numpy.random' in loaded, "
    "'logging': 'logging' in loaded, "
    "'stdlib': sorted(loaded & {'json', 'csv', 'datetime'})}))\n"
)

SCENARIO = {
    "units": [
        {"unit_id": "T", "baseline_hours": 5.0},
        {"unit_id": "D1", "baseline_hours": 4.0, "seasonal_amplitude": 1.0},
        {"unit_id": "D2", "baseline_hours": 6.0, "trend_per_day": 0.01},
    ],
    "n_days": 70,
    "treatment": {"treated_unit": "T", "activation": "2020-02-01", "effect_hours": 2.0},
    "persona_devices": 12,
    "persona_shift": {
        "shift_date": "2020-02-05",
        "from_persona": "Office/Productivity",
        "to_persona": "Casual Gamers",
        "fraction": 0.5,
    },
    "seed": 3,
}

# What the CLI's front loads: the parser, the exit codes and the stderr lines.
FRONT = {"causalpanel", "causalpanel.cli", "causalpanel.errors"}
# What every command loads: the front, the helpers the command handlers
# share and the file commit.
BASE = FRONT | {"causalpanel.commands", "causalpanel.files"}

# The package modules each command may load beyond BASE, its handler's
# module among them. ``cpd`` reads a panel file, ``cpd-series`` a series
# file.
# The panel file is ``panel`` (with the panel type), the CSV readers
# ``panelio`` and the CSV writers ``csvwrite``; all three read or write
# through ``textio``. The commands that write a table (``simulate`` its CSV
# tables, ``ingest`` its panel file) format it through ``tablefmt``.
COMMAND_MODULES = {
    "simulate": {
        "commands.simulate", "simgen", "paneldata", "panel", "csvwrite", "textio", "persona",
        "tablefmt",
    },
    "ingest": {"commands.ingest", "paneldata", "panel", "panelio", "textio", "tablefmt"},
    "did": {"commands.did", "did", "panel", "textio"},
    "synth": {"commands.synth", "synthcontrol", "panel", "textio"},
    "cpd": {"commands.cpd", "changepoint", "panel", "textio"},
    "cpd-series": {"commands.cpd", "changepoint", "panelio", "textio"},
    "persona": {
        "commands.persona", "persona", "changepoint", "paneldata", "panel", "panelio", "textio"
    },
    "report": {"commands.report"},
}

# The most source a command's process may compile, in bytes, where no
# bytecode is cached (a fresh checkout, PYTHONDONTWRITEBYTECODE): the sum
# of the source files of the package modules it loads. Before each command
# got its own handler module, and the panel file and the CSV writers their
# own modules, ``did`` compiled 123 KB and ``report`` 44 KB.
SOURCE_BOUNDS = {"did": 70_000, "report": 32_000}
# The seven commands of one benchmark pass, together: 815 KB before.
PASS_SOURCE_BOUND = 600_000
PASS = ("simulate", "ingest", "did", "synth", "cpd", "persona", "report")


def source_bytes(modules) -> int:
    """The bytes of the source files of the package modules ``modules``."""
    return sum(os.path.getsize(importlib.util.find_spec(m).origin) for m in modules)


def child(code: str, *args: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout


def probe(*argv: str, cwd) -> dict:
    return json.loads(child(PROBE, *argv, cwd=cwd).splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Command -> the probe's record of its process, over one pipeline."""
    tmp = tmp_path_factory.mktemp("imports")
    (tmp / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    values = [1.0] * 20 + [5.0] * 20
    (tmp / "series.csv").write_text(
        "value\n" + "".join(f"{v}\n" for v in values), encoding="utf-8"
    )
    commands = {
        "simulate": ["simulate", "--scenario", "scenario.json", "--out", "data"],
        "ingest": [
            "ingest", "--policy", "data/policy.csv", "--telemetry", "data/telemetry.csv",
            "--units", "data/units.csv", "--out", "work",
        ],
        "did": [
            "did", "--panel", "work/panel.txt", "--treated", "T", "--control", "D1,D2",
            "--treatment-date", "2020-02-01", "--out", "work",
        ],
        "synth": [
            "synth", "--panel", "work/panel.txt", "--treated", "T", "--donors", "D1,D2",
            "--treatment-date", "2020-02-01", "--placebo", "--out", "work",
        ],
        "cpd": ["cpd", "--panel", "work/panel.txt", "--unit", "T", "--out", "work"],
        "cpd-series": ["cpd", "--series", "series.csv", "--out", "series"],
        "persona": [
            "persona", "--records", "data/persona.csv", "--width", "14", "--stride", "7",
            "--out", "work",
        ],
        "report": ["report", "work/did.json", "work/synth.json", "--out", "work"],
    }
    records = {}
    for name, argv in commands.items():
        records[name] = probe(*argv, "--quiet", cwd=tmp)
        assert records[name]["code"] == 0, name
    return records


def test_cli_import_loads_no_command_module(tmp_path):
    code = "import sys, causalpanel.cli; print(sorted(m for m in sys.modules if m.startswith('causalpanel')))"
    assert child(code, cwd=tmp_path).strip() == str(sorted(FRONT))


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["did", "--help"], 0), (["did"], 2)],
    ids=["help", "did-help", "usage-error"],
)
def test_front_loads_the_parser_only(tmp_path, argv, code):
    # --help and argparse's usage errors end before main imports the
    # command handlers, so they compile none of them and read no JSON,
    # CSV or date
    record = probe(*argv, cwd=tmp_path)
    assert record["code"] == code
    assert record["package"] == sorted(FRONT)
    assert record["stdlib"] == []


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(loaded, command):
    modules = {f"causalpanel.{m}" for m in COMMAND_MODULES[command]}
    assert set(loaded[command]["package"]) == BASE | modules


@pytest.mark.parametrize("command", sorted(SOURCE_BOUNDS))
def test_command_compiles_bounded_source(loaded, command):
    assert source_bytes(loaded[command]["package"]) <= SOURCE_BOUNDS[command]


@pytest.mark.parametrize("cpd", ["cpd", "cpd-series"])
def test_pass_compiles_bounded_source(loaded, cpd):
    # fleet's cpd reads the treated unit's panel row, donor_pool's a series
    commands = [cpd if name == "cpd" else name for name in PASS]
    total = sum(source_bytes(loaded[name]["package"]) for name in commands)
    assert total <= PASS_SOURCE_BOUND


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_no_numpy_ma(loaded, command):
    assert not loaded[command]["numpy.ma"]


def test_only_simulate_loads_numpy_random(loaded, tmp_path):
    # numpy.random (about 6 MB of RSS) serves the simulator's draws; the
    # persona fit draws its first center without it. Under numpy 1.x,
    # ``import numpy`` loads it too, and no command can do without it.
    code = "import sys, numpy; print('numpy.random' in sys.modules)"
    with_numpy = child(code, cwd=tmp_path).strip() == "True"
    for command, record in loaded.items():
        assert record["numpy.random"] == (command == "simulate" or with_numpy), command


def test_no_command_loads_logging(loaded, tmp_path):
    # the CLI writes its own stderr lines; logging (with traceback and
    # string) would cost every process a few ms and about 0.6 MB
    code = "import sys, numpy; print('logging' in sys.modules)"
    with_numpy = child(code, cwd=tmp_path).strip() == "True"
    for command, record in loaded.items():
        assert not record["logging"] or (with_numpy and record["numpy"]), command


def test_every_public_name_resolves():
    for name in causalpanel.__all__:
        assert getattr(causalpanel, name) is not None, name
    assert set(causalpanel.__all__) <= set(dir(causalpanel))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from causalpanel import *", namespace)
    assert set(causalpanel.__all__) <= set(namespace)
    assert namespace["fit_did"] is causalpanel.did.fit_did


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_nothing'"):
        causalpanel.fit_nothing
    assert not hasattr(causalpanel, "no_such_name")


def test_package_import_loads_no_module(tmp_path):
    code = "import sys, causalpanel; print(sorted(m for m in sys.modules if m.startswith('causalpanel')))"
    assert child(code, cwd=tmp_path).strip() == "['causalpanel']"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["report", "did.json", "synth.json"],
    ],
    ids=["import", "help", "report-json"],
)
def test_help_and_report_load_no_numpy(tmp_path, argv):
    for estimator in ("did", "synth"):
        artifact = {"estimator": estimator, "outcome": "usage_hours", "effect": 1.5, "p_value": None}
        (tmp_path / f"{estimator}.json").write_text(json.dumps(artifact), encoding="utf-8")
    record = probe(*argv, cwd=tmp_path)
    assert record["code"] == 0
    report = BASE | {"causalpanel.commands.report"}
    assert record["package"] == sorted(report if argv[:1] == ["report"] else FRONT)
    assert not record["numpy"]
    assert not record["logging"]
    if argv[:1] == ["report"]:
        assert (tmp_path / "report.json").is_file()


def test_probe_sees_numpy(loaded):
    # the probe's numpy flag is live: an estimator command reads True
    assert loaded["did"]["numpy"] and not loaded["report"]["numpy"]


def test_sanitize():
    import numpy as np

    from causalpanel.commands import _sanitize

    payload = {
        "count": np.int64(3),
        "values": (1.5, np.float64(2.5), float("nan"), np.float64("nan")),
        "bounds": [float("inf"), -np.float64("inf"), (np.int32(-1), ("x", None, True))],
    }
    clean = _sanitize(payload)
    assert clean == {
        "count": 3,
        "values": [1.5, 2.5, None, None],
        "bounds": [None, None, [-1, ["x", None, True]]],
    }
    assert type(clean["count"]) is int and type(clean["bounds"][2][0]) is int
    assert type(clean["values"][1]) is float


def test_sanitize_runs_without_numpy(tmp_path):
    code = (
        "import json, math, sys\n"
        "from causalpanel.commands import _sanitize\n"
        "out = _sanitize({'a': (1, (2.0, math.nan)), 'b': -math.inf, 'c': [math.inf, 'x']})\n"
        "print(json.dumps([out, 'numpy' in sys.modules]))\n"
    )
    out, numpy_loaded = json.loads(child(code, cwd=tmp_path))
    assert out == {"a": [1, [2.0, None]], "b": None, "c": [None, "x"]}
    assert not numpy_loaded
