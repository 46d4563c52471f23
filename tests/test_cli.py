"""Command-line workflow tests: full pipelines run in-process via main(),
checking artifacts, exit codes, and byte-level reproducibility."""

import json
import os

import pytest

from causalpanel.cli import main


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


class TestSimulate:
    def test_writes_scenario_files_and_truth(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", did_scenario())
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "d") == 0
        for name in ("policy.csv", "telemetry.csv", "units.csv", "manifest.json"):
            assert (tmp_path / "d" / name).exists()
        out = capsys.readouterr().out
        assert "effect_hours=2.0" in out
        assert (tmp_path / "d" / "truth.txt").read_text() == out

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        payload = did_scenario()
        payload["noise_sigma"] = 0.5
        cfg = write_json(tmp_path / "s.json", payload)
        assert run("simulate", "--scenario", cfg, "--out", tmp_path / "a", "--quiet") == 0
        assert (
            run(
                "simulate", "--scenario", cfg,
                "--out", tmp_path / "b", "--seed", 99, "--quiet",
            )
            == 0
        )
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


class TestDidWorkflow:
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
        assert "units.csv line 4" in err and "Traceback" not in err

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

    def test_missing_panel_exits_5(self, tmp_path):
        assert (
            run(
                "did", "--panel", tmp_path / "nope.txt",
                "--treated", "A", "--control", "B",
                "--treatment-date", "2020-01-31", "--out", tmp_path, "--quiet",
            )
            == 5
        )


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

    def test_missing_unit_exits_3(self, tmp_path, capsys):
        _, work = simulate_and_ingest(tmp_path, synth_scenario())
        code = run(
            "synth", "--panel", work / "panel.txt",
            "--treated", "ABSENT", "--donors", "D1,D2",
            "--treatment-date", "2020-03-01", "--out", work, "--quiet",
        )
        assert code == 3
        assert "ABSENT" in capsys.readouterr().err


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
            run(
                "cpd", "--series", series, "--penalty", "manual",
                "--lam", "1e9", "--out", tmp_path, "--quiet",
            )
            == 0
        )
        payload = json.loads((tmp_path / "cpd.json").read_text())
        assert payload["breakpoints"] == []
        assert payload["lambda_eff"] == 1e9

    def test_needs_exactly_one_source(self, tmp_path):
        assert run("cpd", "--out", tmp_path, "--quiet") == 3

    def test_panel_unit_clean_step(self, tmp_path):
        _, work = simulate_and_ingest(tmp_path, did_scenario())
        code = run(
            "cpd", "--panel", work / "panel.txt", "--unit", "TREAT",
            "--penalty", "manual", "--lam", "0.5", "--out", work, "--quiet",
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

    def test_fit_until_before_data_exits_3(self, tmp_path):
        data, work = simulate_and_ingest(tmp_path, persona_scenario())
        assert (
            run(
                "persona", "--records", data / "persona.csv",
                "--fit-until", "2019-01-01", "--out", work, "--quiet",
            )
            == 3
        )


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

    def test_csv_format(self, tmp_path):
        did_art, _ = self.run_estimates(tmp_path)
        rep = tmp_path / "rep"
        assert run("report", did_art, "--format", "csv", "--out", rep, "--quiet") == 0
        lines = (rep / "report.csv").read_text().splitlines()
        assert lines[0] == "chassis,cpu_family,estimator,effect,system_count,p_value"
        assert lines[1].startswith("all,all,did,")

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


class TestOptionResolution:
    def test_config_file_supplies_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n1.0\n1.0\n", encoding="utf-8")
        cfg = write_json(tmp_path / "cfg.json", {"out": str(tmp_path / "cfgout")})
        assert run("cpd", "--series", series, "--config", cfg, "--quiet") == 0
        assert (tmp_path / "cfgout" / "cpd.json").exists()

    def test_flag_beats_config(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n1.0\n1.0\n", encoding="utf-8")
        cfg = write_json(tmp_path / "cfg.json", {"out": str(tmp_path / "cfgout")})
        assert (
            run(
                "cpd", "--series", series, "--config", cfg,
                "--out", tmp_path / "flagout", "--quiet",
            )
            == 0
        )
        assert (tmp_path / "flagout" / "cpd.json").exists()
        assert not (tmp_path / "cfgout").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSALPANEL_OUT", str(tmp_path / "envout"))
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n1.0\n1.0\n", encoding="utf-8")
        assert run("cpd", "--series", series, "--quiet") == 0
        assert (tmp_path / "envout" / "cpd.json").exists()

    def test_config_must_be_object(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]\n", encoding="utf-8")
        assert run("cpd", "--series", series, "--config", cfg, "--quiet") == 3

    def test_no_tmp_leftovers_after_run(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n2.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("cpd", "--series", series, "--out", out, "--quiet") == 0
        assert [p for p in os.listdir(out) if p.endswith(".tmp")] == []
