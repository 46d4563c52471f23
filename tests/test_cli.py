"""Command-line workflow tests: full pipelines run in-process via main(),
checking artifacts, exit codes, and byte-level reproducibility."""

import contextlib
import io
import json
import logging
import os
import shlex
import subprocess
import sys

import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import causalpanel
from causalpanel.cli import main
from causalpanel.panel import read_panel
from causalpanel.paneldata import DEFAULT_INDICATOR
from causalpanel.panelio import _csv_table
from causalpanel.simgen import (
    PersonaShiftConfig,
    ScenarioConfig,
    TreatmentConfig,
    UnitConfig,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def did_scenario():
    return {
        "units": [
            {"unit_id": "TREAT", "baseline_hours": 5.0, "continent": "Asia"},
            {"unit_id": "CTRL", "baseline_hours": 4.0, "continent": "Europe"},
        ],
        "start": "2020-01-01",
        "n_days": 60,
        "treatment": {
            "treated_unit": "TREAT",
            "activation": "2020-01-31",
            "effect_hours": 2.0,
        },
        "seed": 11,
    }


def synth_scenario():
    # treated mean is exactly 0.3*D1 + 0.7*D2; distinct seasonal shapes
    # keep the mixture identifiable from the pre-period alone
    return {
        "units": [
            {"unit_id": "T", "baseline_hours": 5.0},
            {
                "unit_id": "D1",
                "baseline_hours": 4.0,
                "seasonal_amplitude": 1.0,
                "seasonal_period": 7.0,
            },
            {
                "unit_id": "D2",
                "baseline_hours": 6.0,
                "seasonal_amplitude": 0.8,
                "seasonal_period": 11.0,
                "seasonal_phase": 1.2,
            },
            {"unit_id": "D3", "baseline_hours": 3.0, "trend_per_day": 0.01},
        ],
        "n_days": 80,
        "treatment": {
            "treated_unit": "T",
            "activation": "2020-03-01",
            "effect_hours": 2.0,
        },
        "donor_mixture": {"T": {"D1": 0.3, "D2": 0.7}},
        "seed": 5,
    }


def persona_scenario():
    return {
        "units": [{"unit_id": "X", "baseline_hours": 5.0}],
        "n_days": 112,
        "persona_devices": 60,
        "persona_noise": 0.2,
        "persona_shift": {
            "shift_date": "2020-02-26",
            "from_persona": "Office/Productivity",
            "to_persona": "Casual Gamers",
            "fraction": 0.2,
        },
        "seed": 9,
    }


def run(*argv):
    return main([str(a) for a in argv])


def simulate_and_ingest(tmp_path, scenario, with_units=False):
    cfg = write_json(tmp_path / "scenario.json", scenario)
    data = tmp_path / "data"
    work = tmp_path / "work"
    assert run("simulate", "--scenario", cfg, "--out", data, "--quiet") == 0
    ingest = [
        "ingest",
        "--policy",
        data / "policy.csv",
        "--telemetry",
        data / "telemetry.csv",
        "--out",
        work,
        "--quiet",
    ]
    if with_units:
        ingest += ["--units", data / "units.csv"]
    assert run(*ingest) == 0
    return data, work


def edit_panel_row(panel, section, unit, column, value):
    """Set one cell of a unit's row in a panel.txt section."""
    head, body = panel.read_text().split(f"#section {section}\n")
    lines = body.splitlines(True)
    row = next(i for i, line in enumerate(lines) if line.startswith(unit + "\t"))
    cells = lines[row].rstrip("\n").split("\t")
    cells[lines[0].rstrip("\n").split("\t").index(column)] = value
    lines[row] = "\t".join(cells) + "\n"
    panel.write_text(head + f"#section {section}\n" + "".join(lines), encoding="utf-8")


class TestSimulate:
    def test_writes_scenario_files_and_truth(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", did_scenario())
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "d") == 0
        for name in ("policy.csv", "telemetry.csv", "units.csv", "manifest.json"):
            assert (tmp_path / "d" / name).exists()
        out = capsys.readouterr().out
        assert "effect_hours=2.0" in out
        assert (tmp_path / "d" / "truth.txt").read_text() == out

    def test_dates_before_year_1000_read_back(self, tmp_path):
        # the policy table's YYYYMMDD pads the year to four digits, also
        # across the turn into year 1000
        scenario = dict(did_scenario(), start="0999-12-30", n_days=5)
        del scenario["treatment"]
        data, work = simulate_and_ingest(tmp_path, scenario)
        days = [line.split(",")[2] for line in (data / "policy.csv").read_text().splitlines()[1:]]
        assert days[:3] == ["09991230", "09991231", "10000101"]
        assert read_panel(work / "panel.txt").dates[0].isoformat() == "0999-12-30"

    def test_scenario_without_persona_removes_earlier_persona_table(self, tmp_path):
        payload = did_scenario()
        payload["persona_devices"] = 5
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "d", "--quiet") == 0
        assert (tmp_path / "d" / "persona.csv").exists()
        payload["persona_devices"] = 0
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "d", "--quiet") == 0
        assert sorted(os.listdir(tmp_path / "d")) == [
            "manifest.json", "policy.csv", "telemetry.csv", "truth.txt", "units.csv",
        ]

    def test_scenario_seed_key_sets_the_seed(self, tmp_path):
        payload = did_scenario()
        payload["noise_sigma"] = 0.5
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "a", "--quiet") == 0
        cfg = write_json(tmp_path / "s99.json", {**payload, "seed": 99})
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "b", "--quiet") == 0
        hash_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        hash_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert hash_a["scenario_hash"] != hash_b["scenario_hash"]
        a = (tmp_path / "a" / "telemetry.csv").read_bytes()
        b = (tmp_path / "b" / "telemetry.csv").read_bytes()
        assert a != b

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "s.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run("simulate", "--scenario", bad, "--out", tmp_path) == 2

    def test_unknown_scenario_key_exits_3(self, tmp_path):
        payload = did_scenario()
        payload["typo_field"] = 1
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 3

    def test_invalid_scenario_exits_3(self, tmp_path):
        payload = did_scenario()
        payload["treatment"]["treated_unit"] = "GHOST"
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 3

    @pytest.mark.parametrize(
        "unit_id, read_back", [("A/", "A"), ("A/ B", "A/B"), (" A", "A")]
    )
    def test_unit_id_a_policy_table_reads_as_another_exits_3(
        self, tmp_path, capsys, unit_id, read_back
    ):
        """simulate refuses a unit id that its policy table would read back
        as another id, names the file, the key and the unit, and writes no
        file; ingest of its tables would fail, or rename the unit."""
        payload = did_scenario()
        payload["units"][1]["unit_id"] = unit_id
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "data") == 3
        err = capsys.readouterr().err
        assert err.endswith(
            f"s.json: units[1]: unit_id {unit_id!r} reads back from a policy table "
            f"as {read_back!r}\n"
        )
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("continent", ["Eur\rope", "Eu\trope"], ids=["cr", "tab"])
    def test_continent_that_would_not_read_back_exits_3(self, tmp_path, capsys, continent):
        """simulate refuses a continent that ingest --units would truncate
        (a lone carriage return) or refuse (a tab), names the file, the key
        and the value, and writes no file."""
        payload = did_scenario()
        payload["units"][1]["continent"] = continent
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "data") == 3
        err = capsys.readouterr().err
        assert err.endswith(
            f"s.json: units[1]: continent {continent!r} holds an unprintable character\n"
        )
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "start", 5),
            ("treatment", "activation", 20200131),
            ("treatment", "deactivation", 7.5),
            ("persona_shift", "shift_date", None),
        ],
        ids=["start", "activation", "deactivation", "shift_date"],
    )
    def test_non_string_date_exits_3_naming_file_and_key(
        self, tmp_path, capsys, section, key, value
    ):
        payload = persona_scenario()
        payload["treatment"] = {**did_scenario()["treatment"], "treated_unit": "X"}
        (payload[section] if section else payload)[key] = value
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 3
        err = capsys.readouterr().err
        path = f"{section}: {key}" if section else key
        assert f"s.json: {path}: not an ISO date string: {json.dumps(value)}" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "start", "2020W013"),
            ("treatment", "activation", "2020-1-31"),
            ("persona_shift", "shift_date", "2020-W09-3"),
        ],
        ids=["start", "activation", "shift_date"],
    )
    def test_date_of_another_form_exits_2_naming_file_and_key(
        self, tmp_path, capsys, section, key, value
    ):
        payload = persona_scenario()
        payload["treatment"] = {**did_scenario()["treatment"], "treated_unit": "X"}
        (payload[section] if section else payload)[key] = value
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 2
        path = f"{section}: {key}" if section else key
        assert f"s.json: {path}: not an ISO date: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(units=5), "s.json: units: not a list: 5"),
            (lambda p: p.update(treatment=[1]), "s.json: treatment: not an object: [1]"),
            (lambda p: p["treatment"].pop("activation"), "'activation'"),
            (lambda p: p.update(seed="x"), 's.json: seed: not an integer: "x"'),
            (lambda p: p.update(seed=True), "s.json: seed: not an integer: true"),
            (lambda p: p.update(seed=-1), "s.json: seed must be >= 0"),
            (
                lambda p: p.update(persona_devices=2.5),
                "s.json: persona_devices: not an integer: 2.5",
            ),
            (lambda p: p.update(n_days="x"), 's.json: n_days: not an integer: "x"'),
            (lambda p: p.update(n_days=30.0), "s.json: n_days: not an integer: 30.0"),
            (lambda p: p.update(noise_sigma="x"), 's.json: noise_sigma: not a number: "x"'),
            (
                lambda p: p.update(noise_sigma=2**53 + 1),
                f"s.json: noise_sigma: not a number: {2**53 + 1}",
            ),
            (
                lambda p: p["units"][1].update(baseline_hours="4"),
                's.json: units[1]: baseline_hours: not a number: "4"',
            ),
            (
                lambda p: p.update(donor_mixture={"TREAT": {"CTRL": "1"}}),
                's.json: donor_mixture: TREAT: CTRL: not a number: "1"',
            ),
            (lambda p: p["units"][0].update(typo=1), "s.json: units[0]: unknown key 'typo'"),
            (
                lambda p: p["treatment"].update(treated_unit="GHOST"),
                "s.json: treated unit 'GHOST' not in units",
            ),
            (
                lambda p: p.update(noise_sigma=float("nan")),
                "s.json: noise_sigma: not a number: NaN",
            ),
            (
                lambda p: p["units"][0].update(trend_per_day=float("inf")),
                "s.json: units[0]: trend_per_day: not a number: Infinity",
            ),
            (
                lambda p: p["treatment"].update(effect_hours=float("-inf")),
                "s.json: treatment: effect_hours: not a number: -Infinity",
            ),
        ],
        ids=[
            "units", "treatment", "no-activation", "seed-string", "seed-bool",
            "seed-negative", "persona-devices-float", "n-days-string",
            "n-days-float", "noise-sigma-string", "noise-sigma-inexact",
            "baseline-hours-string", "mixture-weight-string", "unit-key",
            "treated-unit", "noise-sigma-nan", "trend-inf", "effect-minus-inf",
        ],
    )
    def test_malformed_section_exits_3(self, tmp_path, capsys, edit, message):
        payload = did_scenario()
        edit(payload)
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 3
        assert message in capsys.readouterr().err

    def test_number_beyond_float_exits_3(self, tmp_path, capsys):
        # json reads 1e400 as inf
        text = json.dumps(did_scenario()).replace('"seed": 11', '"noise_sigma": 1e400')
        cfg = tmp_path / "s.json"
        cfg.write_text(text, encoding="utf-8")
        assert run("simulate", "--scenario", cfg, "--out", tmp_path) == 3
        assert "s.json: noise_sigma: not a number: Infinity" in capsys.readouterr().err

    def test_failed_run_leaves_previous_files(self, tmp_path, monkeypatch):
        from causalpanel import simgen

        out = tmp_path / "out"
        scenario = {**persona_scenario(), "noise_sigma": 0.5}  # telemetry varies by seed
        cfg = write_json(tmp_path / "s.json", scenario)
        assert run("simulate", "--scenario", cfg, "--out", out, "--quiet") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def broken(config, rng):
            raise RuntimeError("persona stream failed")

        # policy.csv and telemetry.csv of the new scenario are written
        # before the persona stream fails
        monkeypatch.setattr(simgen, "_generate_persona_stream", broken)
        cfg = write_json(tmp_path / "s.json", {**scenario, "seed": 10})
        with pytest.raises(RuntimeError, match="persona stream failed"):
            run("simulate", "--scenario", cfg, "--out", out, "--quiet")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unwritable_truth_leaves_previous_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = {**did_scenario(), "noise_sigma": 0.5}
        cfg = write_json(tmp_path / "s.json", scenario)
        assert run("simulate", "--scenario", cfg, "--out", out, "--quiet") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "truth.txt.tmp").mkdir()
        cfg = write_json(tmp_path / "s.json", {**scenario, "seed": 12})
        assert run("simulate", "--scenario", cfg, "--out", out, "--quiet") == 5
        assert f"io error: {out / 'truth.txt.tmp'}: Is a directory" in capsys.readouterr().err
        (out / "truth.txt.tmp").rmdir()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        manifest = json.loads((out / "manifest.json").read_text())
        truth = (out / "truth.txt").read_text().splitlines()
        assert truth[0] == f"scenario_hash={manifest['scenario_hash']}"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_data_file_write_error_names_the_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "persona.csv.tmp").symlink_to("/dev/full")
        cfg = write_json(tmp_path / "s.json", persona_scenario())
        assert run("simulate", "--scenario", cfg, "--out", out, "--quiet") == 5
        err = capsys.readouterr().err
        assert f"io error: {out / 'persona.csv.tmp'}: No space left on device" in err
        assert os.listdir(out) == []


def full_scenario():
    """A small valid scenario that sets every scenario key."""
    return {
        "units": [
            {
                "unit_id": "T",
                "baseline_hours": 5.0,
                "baseline_watts": 30.0,
                "trend_per_day": 0.01,
                "continent": "Asia",
                "vpro_fraction": 0.5,
                "devices_per_day": 2,
                "chassis": "Desktop",
                "cpu_family": "i7",
                "seasonal_amplitude": 1.0,
                "seasonal_period": 7.0,
                "seasonal_phase": 0.5,
            },
            {"unit_id": "D", "baseline_hours": 4.0},
        ],
        "start": "2020-01-01",
        "n_days": 20,
        "treatment": {
            "treated_unit": "T",
            "activation": "2020-01-10",
            "deactivation": "2020-01-15",
            "effect_hours": 1.0,
            "effect_watts": 2.0,
            "effect_onset_days": 2,
        },
        "donor_mixture": {"T": {"D": 1.0}},
        "noise_sigma": 0.1,
        "outlier_probability": 0.1,
        "outlier_magnitude": 2.0,
        "persona_devices": 4,
        "persona_noise": 0.2,
        "persona_shift": {
            "shift_date": "2020-01-12",
            "from_persona": "Office/Productivity",
            "to_persona": "Casual Gamers",
            "fraction": 0.5,
        },
        "seed": 3,
    }


def scenario_targets(payload):
    """The key paths the fuzz test replaces: each top-level key and each
    key of a unit, of treatment, of persona_shift and of donor_mixture."""
    paths = [(key,) for key in payload]
    paths += [("units", i, key) for i, unit in enumerate(payload["units"]) for key in unit]
    for section in ("treatment", "persona_shift", "donor_mixture"):
        paths += [(section, key) for key in payload[section]]
    return paths


# A JSON value of each kind; a replacement is drawn from a kind other than
# the replaced value's.
JSON_KINDS = {
    str: st.text(max_size=6),
    int: st.integers(),
    float: st.floats(),
    bool: st.booleans(),
    type(None): st.none(),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    # json writes these as NaN and Infinity and reads them back; no
    # scenario key takes one
    "NaN": st.just(float("nan")),
    "Infinity": st.sampled_from([float("inf"), float("-inf")]),
}


def test_full_scenario_sets_every_key():
    payload = full_scenario()
    for keys, cls in (
        (payload, ScenarioConfig),
        (payload["units"][0], UnitConfig),
        (payload["treatment"], TreatmentConfig),
        (payload["persona_shift"], PersonaShiftConfig),
    ):
        assert set(keys) == {f.name for f in fields(cls)}


@given(data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_scenario_value_of_another_kind_exits_0_or_3_naming_key(tmp_path, data):
    """simulate on a scenario with one value replaced by a JSON value of
    another kind exits 0 (an int for a number, null for an optional key)
    or 3, never with a traceback; a non-finite number always exits 3.
    Exit 3 names the file, the object that holds the key and the key."""
    payload = full_scenario()
    path = data.draw(st.sampled_from(scenario_targets(payload)), label="path")
    *head, key = path
    holder = payload
    for step in head:
        holder = holder[step]
    kind = data.draw(
        st.sampled_from([k for k in JSON_KINDS if k is not type(holder[key])]),
        label="kind",
    )
    holder[key] = data.draw(JSON_KINDS[kind], label="value")
    cfg = write_json(tmp_path / "s.json", payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("simulate", "--scenario", cfg, "--out", tmp_path / "out", "--quiet")
    assert code in ((3,) if kind in ("NaN", "Infinity") else (0, 3))
    if code == 3:
        where = "s.json" + "".join(
            f"[{step}]" if isinstance(step, int) else f": {step}" for step in head
        )
        assert where in err.getvalue() and str(key) in err.getvalue()


class TestDidWorkflow:
    def test_nan_outcome_exits_3_naming_unit_and_date(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        panel = work / "panel.txt"
        edit_panel_row(panel, "outcomes", "CTRL", "2020-01-05", "nan")
        code = run(
            "did", "--panel", panel, "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert (
            "panel.txt: panel has an unmasked non-finite outcome "
            "for unit 'CTRL' on 2020-01-05"
        ) in err
        assert not (work / "did.json").exists()

    @pytest.mark.parametrize("code", ["7", "-1", "-3"])
    def test_policy_code_out_of_range_exits_3_naming_unit_and_date(
        self, tmp_path, capsys, code
    ):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        panel = work / "panel.txt"
        edit_panel_row(panel, "codes", "CTRL", "2020-01-05", code)
        code_exit = run(
            "did", "--panel", panel, "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        assert code_exit == 3
        err = capsys.readouterr().err
        assert (
            f"panel.txt: panel has a policy code {code} outside 0..3 "
            "for unit 'CTRL' on 2020-01-05"
        ) in err
        assert not (work / "did.json").exists()

    def test_round_trip_recovers_effect(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, did_scenario(), with_units=True)
        assert (
            run(
                "did", "--panel", work / "panel.txt",
                "--treated", "TREAT", "--control", "CTRL",
                "--treatment-date", "2020-01-31",
                "--out", work, "--quiet",
            )
            == 0
        )
        payload = json.loads((work / "did.json").read_text())
        assert payload["beta0"] == pytest.approx(2.0, abs=1e-9)
        assert payload["p_value"] < 1e-10
        assert payload["effect"] == payload["beta0"]
        assert payload["outcome"] == "usage_hours"
        assert payload["system_count"] == pytest.approx(1.0)
        assert "slope_gap" in payload["parallel_trends"]
        assert "beta0=2.000000" in capsys.readouterr().out

    def test_plot_file_has_group_means(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        run(
            "did", "--panel", work / "panel.txt",
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        lines = (work / "did_plot.csv").read_text().splitlines()
        assert lines[0] == "date,treated_mean,control_mean,difference"
        assert lines[1] == "2020-01-01,5.0,4.0,1.0"
        assert lines[-1] == "2020-02-29,7.0,4.0,3.0"

    def test_rerun_byte_identical(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        argv = [
            "did", "--panel", work / "panel.txt",
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        ]
        assert run(*argv) == 0
        first = (work / "did.json").read_bytes()
        assert run(*argv) == 0
        assert (work / "did.json").read_bytes() == first

    def test_short_units_row_exits_2(self, tmp_path, capsys):
        data, _ = simulate_and_ingest(tmp_path, did_scenario())
        units = data / "units.csv"
        units.write_text(units.read_text() + "GHOST\n", encoding="utf-8")
        code = run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--units", units,
            "--out", tmp_path / "again", "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "units.csv: row 4: expected 2 fields" in err and "Traceback" not in err

    def continents(self, work):
        panel = read_panel(str(work / "panel.txt"))
        return dict(zip(panel.unit_ids, panel.continent))

    def test_units_cells_with_commas_round_trip(self, tmp_path):
        scenario = did_scenario()
        scenario["units"][0]["continent"] = "Asia, East"
        scenario["units"][1]["unit_id"] = "DE,U"
        _, work = simulate_and_ingest(tmp_path, scenario, with_units=True)
        assert self.continents(work) == {"TREAT": "Asia, East", "DE,U": "Europe"}

    def test_units_cell_with_line_break_exits_3(self, tmp_path, capsys):
        # a quoted line break is one CSV cell, but it would split the
        # continent's row of panel.txt in two
        data, _ = simulate_and_ingest(tmp_path, did_scenario())
        units = data / "units.csv"
        units.write_text('unit_id,continent\nTREAT,"Eur\nope"\nCTRL,Asia\n', encoding="utf-8")
        work = tmp_path / "again"
        assert run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--units", units,
            "--out", work, "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert "continent 'Eur\\nope' contains a tab or a line break" in err
        assert not work.exists()

    def test_unit_id_read_as_section_header_exits_3(self, tmp_path, capsys):
        # panel.txt starts each unit's row with its id, so this one would
        # read back as a section header: simulate refuses it, naming the
        # key, and writes no file
        scenario = did_scenario()
        scenario["units"][1]["unit_id"] = "#section x"
        cfg = write_json(tmp_path / "scenario.json", scenario)
        data = tmp_path / "data"
        assert run("simulate", "--scenario", cfg, "--out", data, "--quiet") == 3
        err = capsys.readouterr().err
        assert err.endswith(
            "scenario.json: units[1]: unit id '#section x' starts with '#section ', "
            "which a panel file reads as a section header\n"
        )
        assert "Traceback" not in err
        assert not data.exists()

    def test_ingest_refuses_unit_id_read_as_section_header(self, tmp_path, capsys):
        # the same id in tables written by hand: ingest exits 3, names the
        # unit and writes no panel
        data, _ = simulate_and_ingest(tmp_path, did_scenario())
        for name in ("policy.csv", "telemetry.csv"):
            text = (data / name).read_text(encoding="utf-8")
            (data / name).write_text(text.replace("CTRL", "#section x"), encoding="utf-8")
        work = tmp_path / "again"
        assert run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--out", work, "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert "validation error: unit id '#section x' starts with '#section '" in err
        assert "Traceback" not in err
        assert not (work / "panel.txt").exists()

    @pytest.mark.parametrize(
        "emptied, message",
        [
            # no flag could name the unit "": ingest wrote it to panel.txt
            (("policy.csv", "telemetry.csv"), "policy.csv: row 2: empty CountryName"),
            # the merge then failed with "no policy timeline for unit(s): "
            (("telemetry.csv",), "telemetry.csv: row 2: empty unit_id"),
        ],
        ids=["both_tables", "telemetry"],
    )
    def test_ingest_refuses_an_empty_unit_id(self, tmp_path, capsys, emptied, message):
        data, _ = simulate_and_ingest(tmp_path, did_scenario())
        for name in emptied:
            path = data / name
            rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
            column = rows[0].index("CountryName" if name == "policy.csv" else "unit_id")
            for row in rows[1:]:
                row[column] = ""
            path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        work = tmp_path / "again"
        assert run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--out", work, "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert err.endswith(f"{message}\n")
        assert "Traceback" not in err
        assert not (work / "panel.txt").exists()

    def test_group_by_keeps_a_device_in_each_chassis_it_reports(self, tmp_path):
        # device d1 is a Notebook on day 1 and a Desktop on day 2: two
        # groups of one device each
        policy = tmp_path / "policy.csv"
        policy.write_text("unit_id,Date,C6\nA,20200101,0\nA,20200102,3\n", encoding="utf-8")
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(
            "date,device_id,unit_id,chassis,cpu_family,vpro,usage_hours,cpu_watts\n"
            "2020-01-01,d1,A,Notebook,i5,0,4.0,10.0\n"
            "2020-01-02,d1,A,Desktop,i5,0,6.0,12.0\n",
            encoding="utf-8",
        )
        assert run(
            "ingest", "--policy", policy, "--telemetry", telemetry, "--indicator", "C6",
            "--group-by", "unit_id,chassis", "--out", tmp_path, "--quiet",
        ) == 0
        panel = read_panel(tmp_path / "panel.txt")
        assert panel.unit_ids == ("A|Desktop", "A|Notebook")
        assert panel.system_count.tolist() == [1.0, 1.0]

    def test_units_header_with_spaces(self, tmp_path):
        data, _ = simulate_and_ingest(tmp_path, did_scenario())
        units = data / "units.csv"
        units.write_text("unit_id, continent\nTREAT, Asia\nCTRL, Europe\n", encoding="utf-8")
        work = tmp_path / "again"
        assert run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--units", units,
            "--out", work, "--quiet",
        ) == 0
        assert self.continents(work) == {"TREAT": "Asia", "CTRL": "Europe"}

    def test_panel_missing_tag_row_exits_2(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, did_scenario(), with_units=True)
        panel = work / "panel.txt"
        head, tags = panel.read_text().split("#section tags\n")
        kept = [line for line in tags.splitlines(True) if not line.startswith("CTRL\t")]
        panel.write_text(head + "#section tags\n" + "".join(kept), encoding="utf-8")
        code = run(
            "did", "--panel", panel,
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "panel.txt: tags section has no row for unit 'CTRL'" in err

    def test_panel_second_covariates_row_exits_2(self, tmp_path, capsys):
        # a second row for a unit used to replace its first without a word
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        panel = work / "panel.txt"
        text = panel.read_text()
        covariates = text.index("#section covariates\n")
        row = text.index("CTRL\t", covariates)
        panel.write_text(text[:row] + "CTRL\t7.0\n" + text[row:], encoding="utf-8")
        code = run(
            "did", "--panel", panel,
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "panel.txt: covariates section has a second row for unit 'CTRL'" in err
        assert not (work / "did.json").exists()

    def test_panel_bad_code_cell_exits_2(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        panel = work / "panel.txt"
        edit_panel_row(panel, "codes", "CTRL", "2020-02-29", "x")
        code = run(
            "did", "--panel", panel,
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", work, "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "panel.txt: codes row for 'CTRL': bad number 'x'" in err

    def test_unknown_unit_exits_3(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        assert (
            run(
                "did", "--panel", work / "panel.txt",
                "--treated", "NOPE", "--control", "CTRL",
                "--treatment-date", "2020-01-31", "--out", work, "--quiet",
            )
            == 3
        )

    def test_bad_date_exits_2(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        assert (
            run(
                "did", "--panel", work / "panel.txt",
                "--treated", "TREAT", "--control", "CTRL",
                "--treatment-date", "31/01/2020", "--out", work, "--quiet",
            )
            == 2
        )

    def test_failed_result_write_leaves_earlier_results(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        argv = [
            "did", "--panel", work / "panel.txt", "--treated", "TREAT",
            "--control", "CTRL", "--out", work, "--quiet",
        ]
        assert run(*argv, "--treatment-date", "2020-01-31") == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        (work / "did_plot.csv.tmp").mkdir()  # did.json.tmp is opened before it
        assert run(*argv, "--treatment-date", "2020-02-10") == 5
        assert f"io error: {work / 'did_plot.csv.tmp'}: Is a directory" in (
            capsys.readouterr().err
        )
        (work / "did_plot.csv.tmp").rmdir()
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("flag", ["2020W053", "2020-W53-3", "2020-1-31", "31/01/2020"])
    def test_treatment_date_of_another_form_exits_2(self, tmp_path, capsys, flag):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        code = run(
            "did", "--panel", work / "panel.txt", "--treated", "TREAT",
            "--control", "CTRL", "--treatment-date", flag, "--out", work, "--quiet",
        )
        assert code == 2
        assert f"--treatment-date: not an ISO date: {flag!r}" in capsys.readouterr().err
        assert not (work / "did.json").exists()

    def test_compact_treatment_date_reads_alike(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        results = []
        for flag in ("2020-01-31", "20200131"):
            argv = ["--panel", work / "panel.txt", "--treated", "TREAT", "--control", "CTRL"]
            assert run("did", *argv, "--treatment-date", flag, "--out", work, "--quiet") == 0
            results.append((work / "did.json").read_bytes())
        assert results[0] == results[1]

    def test_missing_panel_exits_5(self, tmp_path, capsys):
        assert (
            run(
                "did", "--panel", tmp_path / "nope.txt",
                "--treated", "A", "--control", "B",
                "--treatment-date", "2020-01-31", "--out", tmp_path / "out", "--quiet",
            )
            == 5
        )
        assert f"io error: {tmp_path / 'nope.txt'}: No such file or directory" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()  # no file was written


class TestSynthWorkflow:
    def test_recovers_mixture_and_effect(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        assert (
            run(
                "synth", "--panel", work / "panel.txt",
                "--treated", "T", "--donors", "D1,D2,D3",
                "--treatment-date", "2020-03-01",
                "--placebo", "--out", work, "--quiet",
            )
            == 0
        )
        payload = json.loads((work / "synth.json").read_text())
        assert payload["weights"]["D1"] == pytest.approx(0.3, abs=1e-3)
        assert payload["weights"]["D2"] == pytest.approx(0.7, abs=1e-3)
        assert payload["weights"]["D3"] == pytest.approx(0.0, abs=1e-3)
        assert payload["pre_rmse"] < 1e-6
        assert payload["effect"] == pytest.approx(2.0, abs=1e-3)
        # strong effect: treated ratio beats every donor placebo
        assert payload["p_value"] == pytest.approx(1.0 / 4.0)
        placebo = (work / "synth_placebo.csv").read_text().splitlines()
        assert placebo[0] == "date,treated,D1,D2,D3"

    def test_run_without_placebo_removes_earlier_placebo_table(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        argv = [
            "synth", "--panel", work / "panel.txt", "--treated", "T",
            "--treatment-date", "2020-03-01", "--out", work, "--quiet",
        ]
        assert run(*argv, "--donors", "D1,D2", "--placebo") == 0
        placebo = (work / "synth_placebo.csv").read_text().splitlines()
        assert placebo[0] == "date,treated,D1,D2"
        assert run(*argv, "--donors", "D1,D2,D3") == 0
        assert json.loads((work / "synth.json").read_text())["p_value"] is None
        assert sorted(p.name for p in work.iterdir()) == [
            "panel.txt", "synth.json", "synth_plot.csv",
        ]

    @staticmethod
    def one_round_persona(tmp_path, monkeypatch):
        """Arguments of a run whose fit stops uncertified. The synth CLI
        always solves at the default step cap, which its exact active-set
        fits never reach, so the warning comes from k-means held to one
        round: eight devices in two clusters, four windows of counts."""
        monkeypatch.setattr("causalpanel.persona.MAX_LLOYD_ITERATIONS", 1)
        records = tmp_path / "persona.csv"
        records.write_text(
            "device_id,date,a,b\n"
            + "".join(
                f"d{i},{day},{i % 4}.0,{i // 4}.0\n"
                for day in ("2020-01-01", "2020-03-10")
                for i in range(8)
            ),
            encoding="utf-8",
        )
        return [
            "persona", "--records", records, "--out", tmp_path / "work", "--quiet",
        ]

    def test_convergence_warning_is_one_log_line(self, tmp_path, monkeypatch, capsys):
        assert run(*self.one_round_persona(tmp_path, monkeypatch)) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "WARNING ConvergenceWarning: k-means stopped after 1 rounds before "
            "the assignments repeated"
        ]

    def test_convergence_warning_logged_on_every_call(self, tmp_path, monkeypatch, capsys):
        # two runs in one process: the second logs its warning too, as a
        # new process would
        argv = self.one_round_persona(tmp_path, monkeypatch)
        for _ in range(2):
            assert run(*argv) == 0
            assert capsys.readouterr().err.startswith("WARNING ConvergenceWarning: ")

    def test_missing_unit_exits_3(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        code = run(
            "synth", "--panel", work / "panel.txt",
            "--treated", "ABSENT", "--donors", "D1,D2",
            "--treatment-date", "2020-03-01", "--out", work, "--quiet",
        )
        assert code == 3
        assert "ABSENT" in capsys.readouterr().err

    def test_too_few_complete_dates_exits_3_naming_units(self, tmp_path, capsys):
        # D1 has no observed day and T misses two of the pre-period: the
        # message names each unit whose missing cells leave dates incomplete
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        panel = work / "panel.txt"
        days = [d.isoformat() for d in read_panel(str(panel)).dates]
        n_pre = sum(day < "2020-03-01" for day in days)
        for day in days[:2]:
            edit_panel_row(panel, "outcomes", "T", day, "NA")
        for day in days:
            edit_panel_row(panel, "outcomes", "D1", day, "NA")
        code = run(
            "synth", "--panel", panel,
            "--treated", "T", "--donors", "D1,D2,D3",
            "--treatment-date", "2020-03-01", "--placebo", "--out", work, "--quiet",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert (
            f"need >= 2 complete pre-treatment dates, have 0 of {n_pre}; "
            f"missing pre-treatment cells by unit: 'T' 2, 'D1' {n_pre}"
        ) in err
        assert not (work / "synth.json").exists()

    def test_inf_covariate_exits_3(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        panel = work / "panel.txt"
        edit_panel_row(panel, "covariates", "D2", "system_count", "inf")
        code = run(
            "synth", "--panel", panel,
            "--treated", "T", "--donors", "D1,D2,D3",
            "--treatment-date", "2020-03-01", "--out", work, "--quiet",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "panel.txt: covariate 'system_count' is non-finite for unit 'D2'" in err
        assert not (work / "synth.json").exists()


class TestCpdWorkflow:
    def test_constant_series_reports_one_segment(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("value\n" + "3.5\n" * 30, encoding="utf-8")
        assert run("cpd", "--series", series, "--out", tmp_path, "--quiet") == 0
        assert "1 segment, 0 breakpoints" in capsys.readouterr().out
        payload = json.loads((tmp_path / "cpd.json").read_text())
        assert payload["breakpoints"] == []
        assert payload["segment_means"] == [3.5]
        assert payload["summary"] == "1 segment, 0 breakpoints"

    def test_step_series_with_dates(self, tmp_path):
        rows = ["date,value"]
        for i in range(40):
            iso = f"2020-01-{1 + i:02d}" if i < 31 else f"2020-02-{i - 30:02d}"
            rows.append(f"{iso},{0.0 if i < 20 else 8.0}")
        (tmp_path / "series.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert (
            run("cpd", "--series", tmp_path / "series.csv", "--out", tmp_path, "--quiet")
            == 0
        )
        payload = json.loads((tmp_path / "cpd.json").read_text())
        assert payload["breakpoints"] == [20]
        assert payload["breakpoint_dates"] == ["2020-01-21"]
        plot = (tmp_path / "cpd_plot.csv").read_text().splitlines()
        assert plot[0] == "date,value,segment_mean"
        assert plot[1] == "2020-01-01,0.0,0.0"
        assert plot[-1] == "2020-02-09,8.0,8.0"

    def test_manual_penalty_flag(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("value\n" + "".join(f"{v}\n" for v in [0, 0, 9, 9]), encoding="utf-8")
        assert (
            run("cpd", "--series", series, "--lam", "1e9", "--out", tmp_path, "--quiet")
            == 0
        )
        payload = json.loads((tmp_path / "cpd.json").read_text())
        assert payload["breakpoints"] == []
        assert payload["lambda_eff"] == 1e9
        assert payload["penalty"] == "manual"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, token):
        series = tmp_path / "series.csv"
        series.write_text(f"value\n1.0\n2.0\n{token}\n3.0\n", encoding="utf-8")
        assert run("cpd", "--series", series, "--out", tmp_path, "--quiet") == 2
        err = capsys.readouterr().err
        assert f"series.csv: row 4: non-finite value '{token}'" in err
        assert not (tmp_path / "cpd.json").exists()

    def test_short_series_row_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("value,date\n1.0,2020-01-01\n2.0\n", encoding="utf-8")
        assert run("cpd", "--series", series, "--out", tmp_path, "--quiet") == 2
        err = capsys.readouterr().err
        assert "series.csv: row 3: expected 2 fields" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "second, message",
        [
            ("2020-01-01", "row 3: date 2020-01-01 not after the previous date 2020-01-01"),
            ("2019-12-31", "row 3: date 2019-12-31 not after the previous date 2020-01-01"),
        ],
        ids=["repeated", "backwards"],
    )
    def test_series_dates_out_of_order_exit_3(self, tmp_path, capsys, second, message):
        series = tmp_path / "series.csv"
        series.write_text(
            f"date,value\n2020-01-01,1.0\n{second},2.0\n2020-01-09,3.0\n", encoding="utf-8"
        )
        assert run("cpd", "--series", series, "--out", tmp_path, "--quiet") == 3
        assert f"series.csv: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cpd.json").exists()

    @pytest.mark.parametrize("delimiter", ["\t", ";"], ids=["tab", "semicolon"])
    def test_series_delimiter_sniffed(self, tmp_path, delimiter):
        rows = [f"date{delimiter}value"] + [
            f"2020-01-{1 + i:02d}{delimiter}{0.0 if i < 10 else 8.0}" for i in range(20)
        ]
        series = tmp_path / "series.csv"
        series.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run("cpd", "--series", series, "--out", tmp_path, "--quiet") == 0
        payload = json.loads((tmp_path / "cpd.json").read_text())
        assert payload["n"] == 20
        assert payload["breakpoint_dates"] == ["2020-01-11"]

    def test_k_max_is_a_limit_not_a_cap(self, tmp_path, capsys):
        # 30 alternating 20-point segments, steps of 10, noise sigma 0.5
        rng = np.random.default_rng(600)
        values = np.tile(np.repeat([0.0, 10.0], 20), 15) + rng.normal(0.0, 0.5, 600)
        series = tmp_path / "series.csv"
        series.write_text(
            "value\n" + "".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run("cpd", "--series", series, "--out", out) == 3
        err = capsys.readouterr().err
        assert "30 segments" in err and "more than the 20 cpd reports; raise --lam" in err
        assert "lambda_eff=" in err and "Traceback" not in err
        assert not (out / "cpd.json").exists()
        # one segment costs about 600 * 5**2 = 15000 more than thirty, so a
        # penalty well past 15000 / 29 per segment leaves one
        assert run("cpd", "--series", series, "--lam", "2000", "--out", out, "--quiet") == 0
        payload = json.loads((out / "cpd.json").read_text())
        assert payload["k"] == 1

    def test_needs_exactly_one_source(self, tmp_path):
        assert run("cpd", "--out", tmp_path, "--quiet") == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--series", "one.csv"], "need at least 2 points to segment"),
            (["--series", "two.csv", "--lam", "-0.5"], "manual penalty requires lam >= 0"),
            (["--series", "two.csv", "--lam", "inf"], "lam must be finite, not inf"),
            (["--series", "two.csv", "--lam", "nan"], "lam must be finite, not nan"),
        ],
    )
    def test_estimator_input_checks_exit_3(self, tmp_path, capsys, argv, message):
        (tmp_path / "one.csv").write_text("value\n1.0\n", encoding="utf-8")
        (tmp_path / "two.csv").write_text("value\n1.0\n2.0\n", encoding="utf-8")
        argv = [tmp_path / a if a.endswith(".csv") else a for a in argv]
        assert run("cpd", *argv, "--out", tmp_path, "--quiet") == 3
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("by_unit", [False, True], ids=["series", "panel"])
    def test_too_short_series_names_its_source(self, tmp_path, capsys, by_unit):
        if by_unit:
            panel = tmp_path / "panel.txt"
            panel.write_text(
                "#causalpanel-panel v1\n#outcome usage_hours\n"
                "#section outcomes\nunit\t2020-01-01\nA\t1.0\n",
                encoding="utf-8",
            )
            argv, source = ["--panel", panel, "--unit", "A"], f"unit 'A' of {panel}"
        else:
            series = tmp_path / "one.csv"
            series.write_text("value\n1.0\n", encoding="utf-8")
            argv, source = ["--series", series], str(series)
        assert run("cpd", *argv, "--out", tmp_path, "--quiet") == 3
        err = capsys.readouterr().err
        assert f"need at least 2 points to segment; {source} has 1" in err
        assert "Traceback" not in err

    def test_value_error_of_the_program_is_not_exit_3(self, tmp_path, monkeypatch):
        # an input-free ValueError is a fault to fix, not an input to name:
        # main lets it out with its traceback
        from causalpanel import changepoint

        def broken(series, penalty):
            raise ValueError("a fault of the program")

        monkeypatch.setattr(changepoint, "detect_penalized", broken)
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="a fault of the program"):
            run("cpd", "--series", series, "--out", tmp_path, "--quiet")

    def test_panel_unit_clean_step(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        code = run(
            "cpd", "--panel", work / "panel.txt", "--unit", "TREAT",
            "--lam", "0.5", "--out", work, "--quiet",
        )
        # noiseless treated series is a clean step: exactly one break
        assert code == 0
        payload = json.loads((work / "cpd.json").read_text())
        assert payload["breakpoint_dates"] == ["2020-01-31"]


class TestPersonaWorkflow:
    def test_shift_lands_in_counts_and_changepoints(self, tmp_path):
        data, work = simulate_and_ingest(tmp_path, persona_scenario())
        assert (
            run(
                "persona", "--records", data / "persona.csv",
                "--out", work, "--quiet",
            )
            == 0
        )
        model = json.loads((work / "persona_model.json").read_text())
        assert model["k"] == 6
        assert sorted(model["persona_names"]) == sorted(
            [
                "Casual Gamers", "Web Users", "Communication Users",
                "Content Creators", "Office/Productivity", "File & Network Sharer",
            ]
        )
        counts = (work / "persona_counts.csv").read_text().splitlines()
        header = counts[0].split(",")
        gamer_col = header.index("Casual Gamers")
        office_col = header.index("Office/Productivity")
        first = counts[1].split(",")
        last = counts[-1].split(",")
        assert (first[gamer_col], first[office_col]) == ("10", "10")
        assert (last[gamer_col], last[office_col]) == ("12", "8")
        cps = json.loads((work / "persona_changepoints.json").read_text())
        assert cps["Casual Gamers"]["breakpoint_windows"][0] == "2020-02-26"
        zs = (work / "persona_zscores.csv").read_text().splitlines()
        assert zs[0].split(",")[0] == "transition_into"

    def test_fit_until_restricts_training_rows(self, tmp_path):
        data, work = simulate_and_ingest(tmp_path, persona_scenario())
        assert (
            run(
                "persona", "--records", data / "persona.csv",
                "--fit-until", "2020-02-26", "--out", work, "--quiet",
            )
            == 0
        )
        counts = (work / "persona_counts.csv").read_text().splitlines()
        assert len(counts) == 1 + 7  # header + 7 windows of 112 days

    def test_subnormal_near_duplicate_devices_exit_3(self, tmp_path, capsys):
        # the first two device means differ by a subnormal amount whose
        # square underflows to 0, so they are one vector to k-means
        records = tmp_path / "persona.csv"
        records.write_text(
            "device_id,date,a,b\n"
            "d0,2020-01-01,0.0,0.0\n"
            "d1,2020-01-01,0.0,6.3e-218\n"
            + "".join(f"d{i},2020-01-01,0.0,{i / 2}\n" for i in range(2, 6)),
            encoding="utf-8",
        )
        code = run("persona", "--records", records, "--out", tmp_path, "--quiet")
        assert code == 3
        err = capsys.readouterr().err
        assert "need at least 6 distinct vectors, have 5" in err
        assert "Traceback" not in err

    def test_feature_name_with_comma_round_trips(self, tmp_path):
        records = tmp_path / "persona.csv"
        records.write_text(
            'device_id,date,gaming,"web, mail"\n'
            + "".join(
                f"d{i},{day},{i}.0,{5 - i}.0\n"
                for day in ("2020-01-01", "2020-01-02")
                for i in range(6)
            ),
            encoding="utf-8",
        )
        assert run(
            "persona", "--records", records, "--width", "1",
            "--stride", "1", "--out", tmp_path, "--quiet",
        ) == 0
        with _csv_table(tmp_path / "persona_counts.csv", "counts") as (header, body):
            assert header[0] == "window_start"
            # six personas, each named after its dominant feature
            assert len(header) == 7
            assert {h.split("/")[0] for h in header[1:]} == {"gaming", "web, mail"}
            blocks = list(body(len(header), exact=True))
        assert sum(len(rownos) for _, rownos in blocks) == 2

    def test_fit_until_before_data_exits_3(self, tmp_path):
        data, work = simulate_and_ingest(tmp_path, persona_scenario())
        assert (
            run(
                "persona", "--records", data / "persona.csv",
                "--fit-until", "2019-01-01", "--out", work, "--quiet",
            )
            == 3
        )

    @pytest.mark.parametrize(
        "fit_until", [[], ["--fit-until", "2020-02-26"]], ids=["all-rows", "fit-until"]
    )
    def test_header_only_records_exit_3_naming_file(self, tmp_path, capsys, fit_until):
        records = tmp_path / "persona.csv"
        records.write_text("device_id,date,a,b\n", encoding="utf-8")
        assert run("persona", "--records", records, *fit_until, "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert f"validation error: {records}: no usage rows after the header" in err
        assert "Traceback" not in err
        assert not (tmp_path / "persona_model.json").exists()

    def test_fit_until_week_date_exits_2(self, tmp_path, capsys):
        data, work = simulate_and_ingest(tmp_path, persona_scenario())
        code = run(
            "persona", "--records", data / "persona.csv",
            "--fit-until", "2020W093", "--out", work, "--quiet",
        )
        assert code == 2
        assert "--fit-until: not an ISO date: '2020W093'" in capsys.readouterr().err


def set_cell(column, value):
    def edit(rows, i):
        rows[i][rows[0].index(column)] = value

    return edit


def append_cell(value):
    def edit(rows, i):
        rows[i].append(value)  # one cell too many

    return edit


def drop_trailing_region(rows, i):
    """Move RegionName to the last column, then leave it out of row i."""
    col = rows[0].index("RegionName")
    for row in rows:
        row.append(row.pop(col))
    rows[i].pop()


def edit_data_file(tmp_path, name, lineno, edit):
    """Simulate the persona scenario, edit one row of a data file, and
    return the argv of the command that reads it."""
    cfg = write_json(tmp_path / "scenario.json", persona_scenario())
    data = tmp_path / "data"
    assert run("simulate", "--scenario", cfg, "--out", data, "--quiet") == 0
    path = data / name
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows, lineno - 1)
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    if name == "persona.csv":
        return ["persona", "--records", path]
    return [
        "ingest", "--policy", data / "policy.csv",
        "--telemetry", data / "telemetry.csv",
    ]


class TestInputFileErrors:
    @pytest.mark.parametrize(
        "name,lineno,edit,code,message",
        [
            ("policy.csv", 3, set_cell("Date", "x"), 2, "row 3: malformed date 'x'"),
            (
                "policy.csv", 3, set_cell("Date", "2020012"), 2,
                "row 3: malformed date '2020012'",
            ),
            (
                "policy.csv", 3, set_cell("Date", "202011"), 2,
                "row 3: malformed date '202011'",
            ),
            (
                "telemetry.csv", 4, set_cell("date", "2020W013"), 2,
                "row 4: malformed date '2020W013'",
            ),
            ("policy.csv", 3, drop_trailing_region, 2, "row 3: expected 4 fields"),
            (
                "telemetry.csv", 4, set_cell("vpro", "maybe"), 2,
                "row 4: bad vpro value 'maybe'",
            ),
            ("persona.csv", 5, append_cell("0.0"), 2, "row 5: expected"),
            (
                "persona.csv", 5, set_cell("gaming", "nan"), 2,
                "row 5: non-finite feature 'gaming' 'nan'",
            ),
            (
                "persona.csv", 5, set_cell("gaming", "-0.5"), 3,
                "row 5: feature 'gaming' = -0.5 is negative",
            ),
        ],
        ids=[
            "policy", "policy-date_seven_digits", "policy-date_six_digits",
            "telemetry-week_date", "policy-short_region", "telemetry", "persona",
            "persona-nan", "persona-negative",
        ],
    )
    def test_bad_row_names_file_and_row(
        self, tmp_path, capsys, name, lineno, edit, code, message
    ):
        argv = edit_data_file(tmp_path, name, lineno, edit)
        assert run(*argv, "--out", tmp_path / "work", "--quiet") == code
        err = capsys.readouterr().err
        assert f"{name}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("column", ["usage_hours", "cpu_watts"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_telemetry_exits_2(self, tmp_path, capsys, column, token):
        argv = edit_data_file(tmp_path, "telemetry.csv", 6, set_cell(column, token))
        assert run(*argv, "--out", tmp_path / "work", "--quiet") == 2
        err = capsys.readouterr().err
        assert f"telemetry.csv: row 6: non-finite {column} '{token}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan"])
    def test_non_finite_policy_code_exits_2(self, tmp_path, capsys, token):
        edit = set_cell("C6_Stay at home requirements", token)
        argv = edit_data_file(tmp_path, "policy.csv", 3, edit)
        assert run(*argv, "--out", tmp_path / "work", "--quiet") == 2
        err = capsys.readouterr().err
        assert f"policy.csv: unit X on 2020-01-02: non-numeric code '{token}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("usage_hours", "24.5", "usage_hours 24.5 outside [0, 24]"),
            ("usage_hours", "-1", "usage_hours -1.0 outside [0, 24]"),
            ("cpu_watts", "-3.5", "cpu_watts -3.5 must be finite and non-negative"),
            ("chassis", "Toaster", "unknown chassis 'Toaster'"),
            ("cpu_family", "pentium", "unknown cpu_family 'pentium'"),
            ("unit_id", " ", "empty unit_id"),
        ],
        ids=[
            "hours_high", "hours_negative", "watts_negative", "chassis", "cpu_family", "unit_id"
        ],
    )
    def test_invalid_telemetry_row_exits_3(self, tmp_path, capsys, column, value, message):
        argv = edit_data_file(tmp_path, "telemetry.csv", 6, set_cell(column, value))
        assert run(*argv, "--out", tmp_path / "work", "--quiet") == 3
        err = capsys.readouterr().err
        assert f"telemetry.csv: row 6: {message}" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def valid_panel(tmp_path_factory):
    """The text of a panel.txt that ingest wrote: units D1, D2, D3 and T
    over 80 days from 2020-01-01, with all four sections."""
    _, work = simulate_and_ingest(
        tmp_path_factory.mktemp("valid_panel"), synth_scenario(), with_units=True
    )
    return (work / "panel.txt").read_text(encoding="utf-8")


def drop_outcomes(panel):
    head, rest = panel.read_text().split("#section outcomes\n")
    panel.write_text(head + rest[rest.index("#section "):], encoding="utf-8")


def add_unknown_unit(panel):
    text = panel.read_text().replace("\nT\t1.0\n", "\nT\t1.0\nZZZ\t99.0\n")
    panel.write_text(text, encoding="utf-8")


def repeat_covariates_header(panel):
    """Append a second covariates header and column row; the message names
    the header's line."""
    text = panel.read_text()
    panel.write_text(text + "#section covariates\nunit\tsystem_count\n", encoding="utf-8")
    return text.count("\n") + 1


def replace_line(old, new):
    """Replace one whole line; the message names its line."""

    def edit(panel):
        lines = panel.read_text().splitlines(True)
        k = lines.index(old + "\n")
        lines[k] = new + "\n"
        panel.write_text("".join(lines), encoding="utf-8")
        return k + 1

    return edit


def add_covariates_column(panel):
    """A second column in the covariates section, a cell in every row."""
    head, rest = panel.read_text().split("#section covariates\n")
    body, tail = rest.split("#section tags\n")
    body = "".join(line[:-1] + "\t0.5\n" for line in body.splitlines(True))
    body = body.replace("\tsystem_count\t0.5\n", "\tsystem_count\tvpro_percentage\n")
    panel.write_text(
        head + "#section covariates\n" + body + "#section tags\n" + tail, encoding="utf-8"
    )


def set_t_cell(section, column, token):
    return lambda panel: edit_panel_row(panel, section, "T", column, token)


NON_FINITE_OUTCOME = "panel has an unmasked non-finite outcome for unit 'T' on 2020-01-01"


def code_outside(code):
    return f"panel has a policy code {code} outside 0..3 for unit 'T' on 2020-01-01"


# Each damage to a valid panel.txt: the edit, the exit code and the end of
# the ERROR line, after the panel's path. An edit that returns a line
# number fills {line}.
PANEL_DAMAGES = {
    "no_outcomes": (drop_outcomes, 2, "panel file has no outcomes section"),
    "outcome_x": (
        set_t_cell("outcomes", "2020-01-01", "x"), 2, "outcomes row for 'T': bad number 'x'"
    ),
    "outcome_nan": (set_t_cell("outcomes", "2020-01-01", "nan"), 3, NON_FINITE_OUTCOME),
    "outcome_inf": (set_t_cell("outcomes", "2020-01-01", "inf"), 3, NON_FINITE_OUTCOME),
    "code_x": (set_t_cell("codes", "2020-01-01", "x"), 2, "codes row for 'T': bad number 'x'"),
    # a panel has a code for every cell: NA is no code
    "code_NA": (set_t_cell("codes", "2020-01-01", "NA"), 2, "codes row for 'T': bad number 'NA'"),
    "code_-1": (set_t_cell("codes", "2020-01-01", "-1"), 3, code_outside(-1)),
    "code_7": (set_t_cell("codes", "2020-01-01", "7"), 3, code_outside(7)),
    "code_2**70": (set_t_cell("codes", "2020-01-01", str(2**70)), 3, code_outside(2**70)),
    "system_count_inf": (
        set_t_cell("covariates", "system_count", "inf"),
        3,
        "covariate 'system_count' is non-finite for unit 'T'",
    ),
    "unknown_unit": (
        add_unknown_unit,
        2,
        "covariates section has a row for unit 'ZZZ' that the outcomes section lacks",
    ),
    "repeated_header": (
        repeat_covariates_header, 2, "line {line}: a second '#section covariates' header"
    ),
    # a panel holds the sections and columns that ingest writes, no others
    "section_covariate": (
        replace_line("#section covariates", "#section covariate"),
        2,
        "line {line}: unexpected '#section covariate'; a panel's sections are "
        "outcomes, covariates, tags, codes, in this order",
    ),
    "second_covariate": (
        add_covariates_column,
        2,
        "covariates section: header 'unit\\tsystem_count\\tvpro_percentage' where a panel "
        "has 'unit\\tsystem_count'",
    ),
    "tag_region": (
        replace_line("unit\tcontinent", "unit\tregion"),
        2,
        "tags section: header 'unit\\tregion' where a panel has 'unit\\tcontinent'",
    ),
}


@pytest.mark.parametrize("damage", PANEL_DAMAGES)
@pytest.mark.parametrize(
    "argv",
    [
        ["did", "--treated", "T", "--control", "D1,D2,D3", "--treatment-date", "2020-03-01"],
        ["synth", "--treated", "T", "--donors", "D1,D2,D3", "--treatment-date", "2020-03-01",
         "--placebo"],
        ["cpd", "--unit", "T"],
    ],
    ids=["did", "synth", "cpd"],
)
def test_damaged_panel_exits_naming_file(tmp_path, capsys, valid_panel, argv, damage):
    """Every command that reads panel.txt exits 2 or 3 on a damaged one,
    with one ERROR line that names the file and the unit or line, and
    writes no result."""
    edit, code, message = PANEL_DAMAGES[damage]
    panel = tmp_path / "panel.txt"
    panel.write_text(valid_panel, encoding="utf-8")
    message = message.format(line=edit(panel))
    assert run(*argv, "--panel", panel, "--out", tmp_path / "out", "--quiet") == code
    err = capsys.readouterr().err
    assert err.endswith(f": {panel}: {message}\n")
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestReport:
    def run_estimates(self, tmp_path):
        _, dwork = simulate_and_ingest(tmp_path, did_scenario())
        run(
            "did", "--panel", dwork / "panel.txt",
            "--treated", "TREAT", "--control", "CTRL",
            "--treatment-date", "2020-01-31", "--out", dwork, "--quiet",
        )
        swork = tmp_path / "swork"
        cfg = write_json(tmp_path / "ss.json", synth_scenario())
        run("simulate", "--scenario", cfg, "--out", tmp_path / "sdata", "--quiet")
        run(
            "ingest", "--policy", tmp_path / "sdata" / "policy.csv",
            "--telemetry", tmp_path / "sdata" / "telemetry.csv",
            "--out", swork, "--quiet",
        )
        run(
            "synth", "--panel", swork / "panel.txt",
            "--treated", "T", "--donors", "D1,D2,D3",
            "--treatment-date", "2020-03-01", "--out", swork, "--quiet",
        )
        return dwork / "did.json", swork / "synth.json"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_error_names_the_file_and_leaves_no_temporary(self, tmp_path, capsys):
        did_art, synth_art = self.run_estimates(tmp_path)
        rep = tmp_path / "rep"
        rep.mkdir()
        (rep / "report.json.tmp").symlink_to("/dev/full")
        assert run("report", did_art, synth_art, "--out", rep, "--quiet") == 5
        err = capsys.readouterr().err
        assert f"io error: {rep / 'report.json.tmp'}: No space left on device" in err
        assert os.listdir(rep) == []

    def test_merges_artifacts_sorted(self, tmp_path):
        did_art, synth_art = self.run_estimates(tmp_path)
        rep = tmp_path / "rep"
        assert run("report", did_art, synth_art, "--out", rep, "--quiet") == 0
        payload = json.loads((rep / "report.json").read_text())
        assert payload["outcome"] == "usage_hours"
        assert [r["estimator"] for r in payload["rows"]] == ["did", "synth"]
        assert payload["rows"][0]["effect"] == pytest.approx(2.0, abs=1e-6)
        # synth ran without --placebo, so its p-value stays null
        assert payload["rows"][1]["p_value"] is None

    def test_empty_artifact_list_exits_3(self, tmp_path):
        assert run("report", "--out", tmp_path, "--quiet") == 3

    def test_mixed_outcomes_exit_3(self, tmp_path, capsys):
        a = write_json(
            tmp_path / "a.json",
            {"estimator": "did", "outcome": "usage_hours", "effect": 1.0, "p_value": 0.1},
        )
        b = write_json(
            tmp_path / "b.json",
            {"estimator": "did", "outcome": "cpu_watts", "effect": 2.0, "p_value": 0.2},
        )
        assert run("report", a, b, "--out", tmp_path, "--quiet") == 3
        assert "cpu_watts" in capsys.readouterr().err

    def test_artifact_missing_field_exits_3(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"estimator": "did", "outcome": "x"})
        assert run("report", a, "--out", tmp_path, "--quiet") == 3
        assert "effect" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("effect", "x", 'effect: not a number: "x"'),
            ("effect", None, "effect: not a number: null"),
            ("effect", True, "effect: not a number: true"),
            ("outcome", ["u"], 'outcome: not a string: ["u"]'),
            ("estimator", ["did"], 'estimator: not a string: ["did"]'),
            ("p_value", "0.1", 'p_value: not a number: "0.1"'),
            ("system_count", {}, "system_count: not a number: {}"),
            ("chassis", 1, "chassis: not a string: 1"),
            ("cpu_family", None, "cpu_family: not a string: null"),
            (None, [1], "not an object: [1]"),
            ("effect", float("nan"), "effect: not a number: NaN"),
            ("p_value", float("inf"), "p_value: not a number: Infinity"),
            ("system_count", float("-inf"), "system_count: not a number: -Infinity"),
        ],
        ids=[
            "effect-string", "effect-null", "effect-bool", "outcome-list",
            "estimator-list", "p-value-string", "system-count-object",
            "chassis-int", "cpu-family-null", "not-an-object", "effect-nan",
            "p-value-inf", "system-count-minus-inf",
        ],
    )
    def test_malformed_artifact_exits_3(self, tmp_path, capsys, key, value, message):
        payload = {"estimator": "did", "outcome": "u", "effect": 1.0, "p_value": 0.1}
        if key is None:
            payload = value
        else:
            payload[key] = value
        a = write_json(tmp_path / "a.json", payload)
        b = write_json(
            tmp_path / "b.json",
            {"estimator": "synth", "outcome": "u", "effect": 2, "p_value": None},
        )
        assert run("report", b, a, "--out", tmp_path, "--quiet") == 3
        assert f"a.json: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def report_argv(tmp_path):
    """A report run over one small artifact, into ``tmp_path / "rep"``."""
    art = write_json(
        tmp_path / "did.json",
        {"estimator": "did", "outcome": "u", "effect": 1.5, "p_value": None},
    )
    return ["report", art, "--out", tmp_path / "rep"]


class TestStderrLines:
    """The CLI writes ``INFO``, ``WARNING`` and ``ERROR`` lines to the
    ``sys.stderr`` of the moment, leaves Python's logging alone, and drops
    a line it cannot write."""

    def test_info_and_error_lines(self, tmp_path, capsys):
        argv = report_argv(tmp_path)
        assert run(*argv) == 0
        assert capsys.readouterr().err == f"INFO wrote {tmp_path / 'rep' / 'report.json'}\n"
        assert run("report", tmp_path / "absent.json", "--out", tmp_path) == 5
        assert capsys.readouterr().err == (
            f"ERROR io error: {tmp_path / 'absent.json'}: No such file or directory\n"
        )

    def test_quiet_holds_for_its_call_only(self, tmp_path, capsys):
        argv = report_argv(tmp_path)
        assert run(*argv, "--quiet") == 0
        assert capsys.readouterr().err == ""
        assert run(*argv) == 0
        assert capsys.readouterr().err.startswith("INFO wrote ")

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["loud", "quiet"])
    def test_host_logging_left_as_it_was(self, tmp_path, quiet):
        root = logging.getLogger()
        handler = logging.NullHandler()
        handlers, level = list(root.handlers), root.level
        root.addHandler(handler)
        root.setLevel(logging.DEBUG)
        try:
            assert run(*report_argv(tmp_path), *quiet) == 0
            assert root.handlers == handlers + [handler]
            assert root.level == logging.DEBUG
        finally:
            root.removeHandler(handler)
            root.setLevel(level)

    class Failing(io.StringIO):
        def __init__(self, error):
            super().__init__()
            self.error = error

        def write(self, text):
            raise self.error

    @pytest.mark.parametrize(
        "stream",
        [
            None,
            "closed",
            Failing(BrokenPipeError(32, "Broken pipe")),
            Failing(OSError(28, "No space left on device")),
        ],
        ids=["none", "closed", "broken-pipe", "full"],
    )
    def test_unwritable_stderr_changes_no_outcome(self, tmp_path, monkeypatch, stream):
        if stream == "closed":
            stream = io.StringIO()
            stream.close()
        monkeypatch.setattr("sys.stderr", stream)
        assert run(*report_argv(tmp_path)) == 0
        assert os.listdir(tmp_path / "rep") == ["report.json"]
        assert run("report", tmp_path / "absent.json", "--out", tmp_path) == 5

    @pytest.mark.parametrize("stderr", ["2>&-", "2>/dev/full", "broken-pipe"])
    @pytest.mark.parametrize("artifact", ["did.json", "absent.json"], ids=["ok", "io-error"])
    def test_process_without_stderr_exits_alike(self, tmp_path, stderr, artifact):
        """A process whose stderr is closed, full or a pipe nobody reads
        exits as one whose stderr is read, with the same stdout and files."""
        if stderr == "2>/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        report_argv(tmp_path)
        src = str(Path(causalpanel.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "causalpanel.cli", "report", str(tmp_path / artifact),
                "--out", "rep"]

        def outcome(run_dir, redirect):
            run_dir.mkdir()
            common = dict(cwd=run_dir, env=env, stdout=subprocess.PIPE, timeout=60)
            if redirect is None:
                done = subprocess.run(argv, stderr=subprocess.PIPE, **common)
            elif redirect == "broken-pipe":
                read_end, write_end = os.pipe()
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    done = subprocess.run(argv, stderr=pipe, **common)
            else:
                done = subprocess.run(f"{shlex.join(argv)} {redirect}", shell=True, **common)
            files = {p.name: p.read_bytes() for p in run_dir.glob("rep/*")}
            return done.returncode, done.stdout, files

        read = outcome(tmp_path / "read", None)
        assert read[0] == (0 if artifact == "did.json" else 5)
        assert outcome(tmp_path / "unread", stderr) == read


class TestOptionResolution:
    def test_no_tmp_leftovers_after_run(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n2.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("cpd", "--series", series, "--out", out, "--quiet") == 0
        assert [p for p in os.listdir(out) if p.endswith(".tmp")] == []


# A run of each command on the ``command_inputs`` fixture's files ("{root}",
# "{data}", "{c1}", "{work}" and "{series}" name them).
COMMAND_ARGS = {
    "simulate": ["--scenario", "{root}/scenario.json"],
    "ingest": ["--policy", "{data}/policy.csv", "--telemetry", "{data}/telemetry.csv"],
    "did": [
        "--panel", "{work}/panel.txt", "--treated", "T", "--control", "D1,D2,D3",
        "--treatment-date", "2020-03-01",
    ],
    "synth": [
        "--panel", "{work}/panel.txt", "--treated", "T", "--donors", "D1,D2,D3",
        "--treatment-date", "2020-03-01",
    ],
    "cpd": ["--series", "{series}"],
    "persona": ["--records", "{data}/persona.csv"],
    "report": ["{work}/did.json", "{work}/synth.json"],
}

# Each optional flag of each command: a value that changes the command's
# outcome, and the other arguments of the run (those of COMMAND_ARGS when
# None).
OPTION_CASES = [
    *((command, "out", "sub", None) for command in COMMAND_ARGS),
    *((command, "quiet", True, None) for command in COMMAND_ARGS),
    ("ingest", "indicator", "C1_School closing",
     ["--policy", "{c1}/policy.csv", "--telemetry", "{data}/telemetry.csv"]),
    ("ingest", "group_by", "unit_id,chassis", None),
    ("ingest", "outcome", "cpu_watts", None),
    ("ingest", "units", "{data}/units.csv", None),
    ("synth", "placebo", True, None),
    ("cpd", "series", "{series}", []),
    ("cpd", "panel", "{work}/panel.txt", ["--unit", "T"]),
    ("cpd", "unit", "T", ["--panel", "{work}/panel.txt"]),
    # a manual lam of 1e9 fits the three-step series one segment; bic,
    # the default without --lam, finds the steps
    ("cpd", "lam", 1e9, None),
    ("persona", "width", 21, None),
    ("persona", "stride", 7, None),
    ("persona", "fit_until", "2020-02-15", None),
]


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Inputs for every command: a simulated scenario (and its policy table
    with the indicator column named C1), its panel, a did and a synth
    result, and a series with three clear steps."""
    root = tmp_path_factory.mktemp("command_inputs")
    scenario = synth_scenario()
    scenario["units"][3]["devices_per_day"] = 2  # system_count varies by unit
    scenario.update(persona_devices=24, persona_noise=0.2)
    cfg = write_json(root / "scenario.json", scenario)
    data, c1, work = root / "data", root / "c1", root / "work"
    assert run("simulate", "--scenario", cfg, "--out", data, "--quiet") == 0
    c1.mkdir()
    policy = (data / "policy.csv").read_text(encoding="utf-8")
    assert DEFAULT_INDICATOR in policy.partition("\n")[0]
    (c1 / "policy.csv").write_text(
        policy.replace(DEFAULT_INDICATOR, "C1_School closing", 1), encoding="utf-8"
    )
    assert run(
        "ingest", "--policy", data / "policy.csv", "--telemetry", data / "telemetry.csv",
        "--out", work, "--quiet",
    ) == 0
    for command in ("did", "synth"):
        argv = [a.format(work=work) for a in COMMAND_ARGS[command]]
        assert run(command, *argv, "--out", work, "--quiet") == 0
    series = root / "series.csv"
    rng = np.random.default_rng(0)
    values = np.repeat([0.0, 5.0, 1.0, 6.0], 30) + rng.normal(0, 0.3, 120)
    series.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return {"root": root, "data": data, "c1": c1, "work": work, "series": series}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for f in ("--format", "--seed") for c in COMMAND_ARGS]
)
def test_format_and_seed_only_where_read(capsys, command, flag):
    """No command reads a format or a seed from its flags: the report is
    JSON only, a scenario's seed is its ``seed`` key and k-means starts
    from seed 0. So every command refuses --format and --seed as unknown
    flags."""
    names = dict(root="r", data="d", c1="c", work="w", series="s")
    argv = [a.format(**names) for a in COMMAND_ARGS[command]]
    with pytest.raises(SystemExit) as exit_info:
        run(command, *argv, flag, "csv" if flag == "--format" else "5")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestOptionFlags:
    @staticmethod
    def outcome(run_dir, monkeypatch, capsys, command, argv):
        """Exit code, every file written, stdout and stderr of one run in
        ``run_dir``, a new directory."""
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        code = run(command, *argv)
        out, err = capsys.readouterr()
        files = {
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()
        }
        return code, files, out, err

    @pytest.mark.parametrize(
        "command, option, value, argv", OPTION_CASES, ids=[f"{c}-{o}" for c, o, *_ in OPTION_CASES]
    )
    def test_flag_changes_outcome(
        self, tmp_path, monkeypatch, capsys, command_inputs, command, option, value, argv
    ):
        """Run with the option's flag and without it: the run with the flag
        exits 0, and the exit code, the files, stdout or stderr differ."""
        if isinstance(value, str):
            value = value.format(**command_inputs)
        argv = COMMAND_ARGS[command] if argv is None else argv
        argv = [a.format(**command_inputs) for a in argv]
        if option != "quiet":
            argv.append("--quiet")
        flag = ["--" + option.replace("_", "-")] + ([] if value is True else [str(value)])

        by_flag = self.outcome(tmp_path / "flag", monkeypatch, capsys, command, [*argv, *flag])
        neither = self.outcome(tmp_path / "neither", monkeypatch, capsys, command, argv)
        assert by_flag[0] == 0
        assert neither != by_flag

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("did", "time_trend", True),
            ("did", "covariates", "system_count"),
            ("synth", "covariates", "system_count"),
            ("synth", "max_iterations", 5),
            ("synth", "tolerance", 1e-6),
            ("simulate", "indicator", "C1_School closing"),
            ("cpd", "noise_scale", 2.0),
            ("cpd", "k_max", 40),
            ("persona", "k", 3),
        ],
        ids=[
            "did-time_trend", "did-covariates", "synth-covariates",
            "synth-max_iterations", "synth-tolerance", "simulate-indicator",
            "cpd-noise_scale", "cpd-k_max", "persona-k",
        ],
    )
    def test_removed_option_refused(
        self, tmp_path, capsys, command_inputs, command, key, value
    ):
        """did's unit and date fixed effects absorb a shared trend and any
        unit-level covariate; synth fits its weights on the pre-period
        outcomes alone, by an exact solve at one step cap and tolerance;
        simulate writes its policy codes under the default indicator; cpd's
        bic penalty reads the series' own noise scale and its one limit is
        DEFAULT_K_MAX segments; persona fits DEFAULT_K personas. So none
        takes these options: the flag is a usage error (exit 2)."""
        argv = [a.format(**command_inputs) for a in COMMAND_ARGS[command]]
        argv += ["--out", tmp_path, "--quiet"]
        flag = ["--" + key.replace("_", "-")] + ([] if value is True else [value])
        with pytest.raises(SystemExit) as exit_info:
            run(command, *argv, *flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # no result file written

    def test_aic_penalty_refused(self, tmp_path, capsys, command_inputs):
        """cpd derives one penalty, bic's, unless --lam sets it: there is
        no --penalty to choose aic, or any other kind, with (exit 2)."""
        argv = ["--series", command_inputs["series"], "--out", tmp_path, "--quiet"]
        with pytest.raises(SystemExit) as exit_info:
            run("cpd", *argv, "--penalty", "aic")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --penalty" in capsys.readouterr().err
        assert not (tmp_path / "cpd.json").exists()

    def test_every_optional_flag_is_a_case(self):
        """Each flag of a command that is not required has a case in
        OPTION_CASES."""
        from causalpanel.cli import build_parser

        cases = {(c, o) for c, o, *_ in OPTION_CASES}
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        for command, sub in commands.choices.items():
            for action in sub._actions:
                if action.option_strings and action.dest != "help" and not action.required:
                    assert (command, action.dest) in cases

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_no_config_file_or_out_variable(
        self, tmp_path, monkeypatch, capsys, command_inputs, command
    ):
        """An option is set by its flag alone: --config is an unknown flag
        (exit 2), and $CAUSALPANEL_OUT leaves a run's outputs in ".", the
        default of --out."""
        argv = [a.format(**command_inputs) for a in COMMAND_ARGS[command]]
        with pytest.raises(SystemExit) as exit_info:
            run(command, *argv, "--config", "x.json")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        monkeypatch.setenv("CAUSALPANEL_OUT", str(tmp_path / "env"))
        code, files, _, _ = self.outcome(tmp_path / "cwd", monkeypatch, capsys, command, argv)
        assert code == 0
        assert files
        assert not (tmp_path / "env").exists()


# Each input file a command reads, with the run that reads it: a file of
# the ``command_inputs`` fixture named by its COMMAND_ARGS template.
INPUT_FILES = [
    ("simulate", "{root}/scenario.json", []),
    ("ingest", "{data}/policy.csv", []),
    ("ingest", "{data}/telemetry.csv", []),
    ("ingest", "{data}/units.csv", ["--units", "{data}/units.csv"]),
    ("did", "{work}/panel.txt", []),
    ("cpd", "{series}", []),
    ("persona", "{data}/persona.csv", []),
    ("report", "{work}/did.json", []),
]


@pytest.mark.parametrize(
    "command, target, extra", INPUT_FILES,
    ids=[f"{c}-{Path(t).name.strip('{}')}" for c, t, _ in INPUT_FILES],
)
def test_non_utf8_input_exits_2_naming_file(
    tmp_path, capsys, command_inputs, command, target, extra
):
    """One byte that is not UTF-8, in the middle of any input file, is a
    parse error that names the file."""
    argv = [a.format(**command_inputs) for a in COMMAND_ARGS[command] + extra]
    target = target.format(**command_inputs)
    data = Path(target).read_bytes()
    bad = tmp_path / Path(target).name
    bad.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    argv = [str(bad) if a == target else a for a in argv]
    assert run(command, *argv, "--out", tmp_path / "out", "--quiet") == 2
    err = capsys.readouterr().err
    assert f"parse error: {bad}: not UTF-8 text: invalid start byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, target, extra", INPUT_FILES,
    ids=[f"{c}-{Path(t).name.strip('{}')}" for c, t, _ in INPUT_FILES],
)
def test_byte_order_mark_input_reads_as_without(
    tmp_path, command_inputs, command, target, extra
):
    """Any input file that starts with a UTF-8 byte order mark, as a
    spreadsheet's "CSV UTF-8" export does, gives the same result files as
    the file without it."""
    argv = [a.format(**command_inputs) for a in COMMAND_ARGS[command] + extra]
    target = target.format(**command_inputs)
    marked = tmp_path / Path(target).name
    marked.write_bytes(b"\xef\xbb\xbf" + Path(target).read_bytes())
    marked_argv = [str(marked) if a == target else a for a in argv]
    outputs = []
    for args, out in ((argv, tmp_path / "plain"), (marked_argv, tmp_path / "marked")):
        assert run(command, *args, "--out", out, "--quiet") == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cpd", "--series", "{missing}", "--lam", "-5"], "manual penalty requires lam >= 0"),
        (
            ["cpd", "--series", "{missing}", "--unit", "T"],
            "--unit requires --panel: a series file holds one series",
        ),
        (["persona", "--records", "{missing}", "--width", "0"], "--width must be >= 1, got 0"),
        (["persona", "--records", "{missing}", "--stride", "0"], "--stride must be >= 1, got 0"),
        (
            ["ingest", "--policy", "{missing}", "--telemetry", "{missing}", "--outcome", "foo"],
            "--outcome: no outcome field 'foo' in telemetry records",
        ),
        (
            ["ingest", "--policy", "{missing}", "--telemetry", "{missing}", "--group-by", "foo"],
            "--group-by: cannot group by ['foo']",
        ),
        (
            ["ingest", "--policy", "{missing}", "--telemetry", "{missing}",
             "--group-by", "chassis"],
            "--group-by 'chassis' lacks unit_id, by which policy timelines are merged",
        ),
        (
            ["ingest", "--policy", "{missing}", "--telemetry", "{missing}", "--group-by", ""],
            "--group-by '' lacks unit_id, by which policy timelines are merged",
        ),
        (
            ["did", "--panel", "{missing}", "--treated", "T", "--control", "T",
             "--treatment-date", "2020-02-01"],
            "units cannot be both treated and control: ['T']",
        ),
        (
            ["synth", "--panel", "{missing}", "--treated", "T", "--donors", "D1",
             "--treatment-date", "2020-02-01"],
            "need at least 2 donor units",
        ),
    ],
    ids=[
        "lam", "cpd_unit", "width", "stride", "outcome", "group_by", "group_by_without_unit_id",
        "group_by_empty", "did_units", "synth_donors",
    ],
)
def test_flag_checked_before_input_opened(tmp_path, capsys, argv, message):
    """A bad flag value exits 3 naming it before any input is read: the
    input here does not exist, which would exit 5."""
    argv = [a.format(missing=tmp_path / "missing.csv") for a in argv]
    assert run(*argv, "--out", tmp_path / "out", "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR validation error: ") and err.endswith(message + "\n")


def test_help_text_is_pinned(monkeypatch, capsys):
    """The text of ``causalpanel --help`` and of each command's ``--help``
    (as argparse formats it for Python 3.11, at 80 columns), recorded in
    cli_help.txt. It was recorded before the parser's defaults moved into
    the handlers, again when --format moved to report and --seed to
    simulate and persona, again when did dropped --covariates and
    --time-trend, again when synth dropped --covariates, again when
    synth dropped --max-iterations and --tolerance and cpd's --penalty
    dropped the aic choice, and again when every command dropped --config
    and --out's default stopped reading $CAUSALPANEL_OUT (that diff is the
    --config lines and the --out help text alone), and again when
    simulate dropped --indicator and --seed, cpd --penalty, --noise-scale
    and --k-max, persona --k and --seed, and report --format (that diff
    is those options' lines, cpd's --lam help text, and the help column
    that argparse narrows when a long option goes)."""
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in ((), ("simulate",), ("ingest",), ("did",), ("synth",), ("cpd",),
                    ("persona",), ("report",)):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        assert exit_info.value.code == 0
        texts.append(f"$ causalpanel {' '.join([*command, '--help'])}\n{capsys.readouterr().out}")
    expected = (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
    assert "\n".join(texts) == expected


class TestArtifactDigests:
    """simulate -> ingest -> persona on a small seeded scenario must write
    the same bytes as the row-by-row implementation the column layer
    replaced; the digests were recorded from it. No seasonal term, so no
    value depends on the platform's sine. panel.txt's digest was
    re-recorded when its vpro_percentage covariate was dropped; the new
    file differs from the old one by that column alone."""

    SCENARIO = {
        "units": [
            {
                "unit_id": "NORTH", "baseline_hours": 6.0,
                "devices_per_day": 3, "vpro_fraction": 0.5,
            },
            {
                "unit_id": "SOUTH", "baseline_hours": 4.5, "devices_per_day": 2,
                "trend_per_day": 0.02, "chassis": "Desktop", "cpu_family": "i7",
            },
        ],
        "n_days": 70,
        "treatment": {
            "treated_unit": "NORTH", "activation": "2020-02-05", "effect_hours": 1.5,
        },
        "noise_sigma": 0.4,
        "outlier_probability": 0.05,
        "outlier_magnitude": 3.0,
        "persona_devices": 24,
        "persona_noise": 0.3,
        "persona_shift": {
            "shift_date": "2020-02-12",
            "from_persona": "Web Users",
            "to_persona": "Content Creators",
            "fraction": 0.5,
        },
        "seed": 17,
    }

    DIGESTS = {
        ("data", "telemetry.csv"):
            "4a13af00686acf870fb6fa7d153932f71f731d1c52d597787f644d82bc6dbec1",
        ("data", "persona.csv"):
            "3367cc4fbefcec64205c092d0ac3bf7381a1430728b5b8420d350948e7ad8b35",
        ("work", "panel.txt"):
            "12d4261680fef96d5a882a8f4464e03d201be3db3afcefe58166e16924e844d8",
        ("work", "persona_model.json"):
            "9dcb71b283aff606a197f1de7242a6ab388d410f58cd119bcca02ea329347695",
        ("work", "persona_counts.csv"):
            "96b61400b3c1bf8b24559162a54e48070d5a082dceb2edbb22693768baf08eac",
        ("work", "persona_zscores.csv"):
            "0e3199260bc7ce93ad5b67b2aba74e3c68b3528fe89c37fdd330f2ca444893ee",
        ("work", "persona_changepoints.json"):
            "66447626a14b066e04cdd4b8bb1d71c741714e945ca98024314ea95449f74546",
    }

    def test_files_match_recorded_digests(self, tmp_path):
        cfg = write_json(tmp_path / "scenario.json", self.SCENARIO)
        data, work = tmp_path / "data", tmp_path / "work"
        assert run("simulate", "--scenario", cfg, "--out", data, "--quiet") == 0
        assert run(
            "ingest", "--policy", data / "policy.csv",
            "--telemetry", data / "telemetry.csv", "--out", work, "--quiet",
        ) == 0
        assert run(
            "persona", "--records", data / "persona.csv",
            "--width", "14", "--stride", "7", "--out", work, "--quiet",
        ) == 0
        for (subdir, name), digest in self.DIGESTS.items():
            content = (tmp_path / subdir / name).read_bytes()
            assert hashlib.sha256(content).hexdigest() == digest, name
