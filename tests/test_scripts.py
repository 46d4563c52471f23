"""Smoke test: every example script runs end to end with its defaults."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name",
    ["intensity_changepoints", "persona_drift_experiment", "policy_effect_experiment"],
)
def test_script_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    assert capsys.readouterr().out.strip()
