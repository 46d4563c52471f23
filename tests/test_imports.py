"""What a process loads: each CLI command imports only the package modules
it runs, the package resolves its public names on first use, and no
command pulls in ``numpy.ma`` (which ``np.unique`` without options and
``np.median`` import on their first call under numpy 2).

Each command runs in a fresh child process, since ``sys.modules`` of this
one already holds every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalpanel

SRC = str(Path(causalpanel.__file__).parents[1])

# Runs ``cli.main`` on the arguments and prints, as its last line, the
# exit code, the package modules loaded and whether numpy.ma was.
PROBE = (
    "import json, sys\n"
    "from causalpanel.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, "
    "'package': sorted(m for m in sys.modules if m.startswith('causalpanel')), "
    "'numpy.ma': 'numpy.ma' in sys.modules}))\n"
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

BASE = {"causalpanel", "causalpanel.cli", "causalpanel.errors"}

# The package modules each command may load beyond BASE.
COMMAND_MODULES = {
    "simulate": {"simgen", "paneldata", "panelio", "persona", "changepoint"},
    "ingest": {"paneldata", "panelio"},
    "did": {"did", "paneldata", "panelio"},
    "synth": {"synthcontrol", "paneldata", "panelio"},
    "cpd": {"changepoint", "paneldata", "panelio"},
    "persona": {"persona", "changepoint", "paneldata", "panelio"},
    "report": {"paneldata", "panelio"},
}


def child(code: str, *args: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Command -> the probe's record of its process, over one pipeline."""
    tmp = tmp_path_factory.mktemp("imports")
    (tmp / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
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
        "persona": [
            "persona", "--records", "data/persona.csv", "--width", "14", "--stride", "7",
            "--out", "work",
        ],
        "report": ["report", "work/did.json", "work/synth.json", "--out", "work"],
    }
    records = {}
    for name, argv in commands.items():
        out = child(PROBE, *argv, "--quiet", cwd=tmp)
        records[name] = json.loads(out.splitlines()[-1])
        assert records[name]["code"] == 0, name
    return records


def test_cli_import_loads_no_command_module(tmp_path):
    code = "import sys, causalpanel.cli; print(sorted(m for m in sys.modules if m.startswith('causalpanel')))"
    assert child(code, cwd=tmp_path).strip() == str(sorted(BASE))


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(loaded, command):
    modules = {f"causalpanel.{m}" for m in COMMAND_MODULES[command]}
    assert set(loaded[command]["package"]) == BASE | modules


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_no_numpy_ma(loaded, command):
    assert not loaded[command]["numpy.ma"]


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
